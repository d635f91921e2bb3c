"""Target-invariant MCMC transition kernels: HMC with leapfrog and
preconditioned Crank-Nicolson.

Both steps share one shape, ``step(target, theta, cfg, rng, cache) ->
(theta, accepted, cache)``, and ``sweep`` steps a bank of chains with
either one: it is the one loop the samplers, the pilot and the diagnostic
chains drive. The cache is the pair (log-density, its gradient) at the
current state for HMC and the current log-likelihood for pCN."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .targets import NonFiniteDensityError, TargetDensity

DIVERGENCE_THRESHOLD = 1000.0  # |energy error| above this marks a trajectory divergent


@dataclass(frozen=True)
class HmcConfig:
    step_size: float
    n_leapfrog: int = 1

    def __post_init__(self):
        if self.step_size <= 0:
            raise ValueError(f"step size must be positive, got {self.step_size}")
        if self.n_leapfrog < 1:
            raise ValueError(f"leapfrog step count must be >= 1, got {self.n_leapfrog}")


@dataclass(frozen=True)
class PcnConfig:
    beta: float = 0.2

    def __post_init__(self):
        if not (0 < self.beta <= 1):
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")


class DivergentTrajectory(RuntimeError):
    pass


# (log-density, its gradient) at the current state; a None gradient is evaluated
HmcState = tuple[float, np.ndarray | None]


def leapfrog(
    target: TargetDensity,
    theta: np.ndarray,
    p: np.ndarray,
    step_size: float,
    n_steps: int,
    grad: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, HmcState]:
    """Symplectic leapfrog for H(theta, p) = -log_density(theta) + |p|^2/2.

    ``grad`` may carry the gradient of the log-density at ``theta``; without
    it the trajectory starts with one gradient evaluation. Each step then
    costs one evaluation: a gradient inside the trajectory, the log-density
    and its gradient at the last point. Returns (theta_end, p_end,
    (log-density, gradient) at theta_end). Raises DivergentTrajectory if an
    evaluation is non-finite.
    """
    theta = np.array(theta, dtype=float)
    p = np.array(p, dtype=float)
    try:
        g = target.grad_log_density(theta) if grad is None else grad
        for i in range(1, n_steps + 1):
            p = p + 0.5 * step_size * g
            theta = theta + step_size * p
            if i < n_steps:
                g = target.grad_log_density(theta)
            else:
                logp, g = target.log_density_and_grad(theta)
            p = p + 0.5 * step_size * g
    except NonFiniteDensityError as e:
        raise DivergentTrajectory(str(e)) from e
    if not (np.isfinite(theta).all() and np.isfinite(p).all()):
        raise DivergentTrajectory("non-finite state after leapfrog")
    return theta, p, (logp, g)


def hmc_step(
    target: TargetDensity,
    theta: np.ndarray,
    cfg: HmcConfig,
    rng: np.random.Generator,
    state: HmcState | None = None,
) -> tuple[np.ndarray, bool, HmcState]:
    """One Metropolis-corrected HMC step with identity mass.

    ``state`` is the pair (log-density, gradient of the log-density) at
    ``theta`` that the previous step returned; callers pass ``None`` first
    and then feed back what they got. A missing gradient is evaluated here,
    with the value, in one call. With the state carried, a step costs L
    likelihood calls, one per leapfrog step. Returns (theta_next, accepted,
    state_next). Divergent trajectories are always rejected.
    """
    logp, grad = (None, None) if state is None else state
    if grad is None:
        try:
            logp, grad = target.log_density_and_grad(theta)
        except NonFiniteDensityError:
            # a non-finite value raises here; a non-finite gradient is met
            # again by the leapfrog, which rejects the step as divergent
            logp = target.log_density(theta)
    p0 = rng.standard_normal(theta.shape[0])
    h0 = -logp + 0.5 * np.dot(p0, p0)
    accepted = False
    state_next = (logp, grad)
    theta_next = theta
    try:
        theta_prop, p1, state_prop = leapfrog(
            target, theta, p0, cfg.step_size, cfg.n_leapfrog, grad
        )
        h1 = -state_prop[0] + 0.5 * np.dot(p1, p1)
        if abs(h1 - h0) <= DIVERGENCE_THRESHOLD:
            if np.log(rng.uniform()) < h0 - h1:
                theta_next, accepted, state_next = theta_prop, True, state_prop
    except DivergentTrajectory:
        pass
    return theta_next, accepted, state_next


def pcn_step(
    target: TargetDensity,
    theta: np.ndarray,
    cfg: PcnConfig,
    rng: np.random.Generator,
    ll: float | None = None,
) -> tuple[np.ndarray, bool, float]:
    """One preconditioned Crank-Nicolson step for the target
    exp((lam * loglik + logprior) / T).

    The Gaussian prior raised to the power 1/T is N(mean, T*v). The proposal
    is reversible with respect to it, so the acceptance ratio involves only
    the tempered likelihood difference (lam / T) * (ll_prop - ll).
    ``ll`` may carry the cached ``target.log_likelihood(theta)``. A proposal
    whose log-likelihood is NaN or +inf is rejected; at the current state it
    raises ``NonFiniteDensityError``. Returns (theta_next, accepted, ll_next).
    """
    if ll is None:
        ll = target.log_likelihood(theta)
    prior = target.prior
    mean = prior.mean
    xi = rng.normal(0.0, prior.marginal_std * np.sqrt(target.temperature), size=theta.shape[0])
    prop = mean + np.sqrt(1.0 - cfg.beta**2) * (theta - mean) + cfg.beta * xi
    accepted = False
    theta_next, ll_next = theta, ll
    lam = target.lam / target.temperature  # the likelihood's exponent in the target
    try:
        ll_prop = target.log_likelihood(prop)
        if lam == 0.0 or np.log(rng.uniform()) < lam * (ll_prop - ll):
            theta_next, ll_next, accepted = prop, ll_prop, True
    except NonFiniteDensityError:
        pass
    return theta_next, accepted, ll_next


def sweep(
    target: TargetDensity,
    thetas: np.ndarray,
    cfg: HmcConfig | PcnConfig,
    rngs: list[np.random.Generator],
    caches: list,
) -> int:
    """One kernel step for every row of ``thetas``, in place: row i draws
    from ``rngs[i]`` and carries ``caches[i]``. ``cfg`` picks the kernel,
    looked up by module-global name at call time so that a rebound
    ``hmc_step``/``pcn_step`` is the one used. Returns the number of
    accepted proposals."""
    step = hmc_step if isinstance(cfg, HmcConfig) else pcn_step
    accepted = 0
    for i in range(thetas.shape[0]):
        thetas[i], acc, caches[i] = step(target, thetas[i], cfg, rngs[i], caches[i])
        accepted += acc
    return accepted


PILOT_RATE_BAND = (0.6, 0.9)  # tune_step_size stops once the acceptance rate is in here
PILOT_STEPS = 25  # HMC steps per pilot round
PILOT_MAX_ROUNDS = 12


def tune_step_size(
    target: TargetDensity,
    theta0: np.ndarray,
    cfg: HmcConfig,
    rng: np.random.Generator,
) -> float:
    """Short pilot: double/halve the step size until the empirical acceptance
    rate lands in ``PILOT_RATE_BAND``. Used once per run; the step size then
    stays fixed."""
    eps = cfg.step_size
    lo, hi = PILOT_RATE_BAND
    for _ in range(PILOT_MAX_ROUNDS):
        bank, cache = np.array(theta0, dtype=float)[None], [None]
        pilot = HmcConfig(eps, cfg.n_leapfrog)
        accepted = sum(sweep(target, bank, pilot, [rng], cache) for _ in range(PILOT_STEPS))
        if accepted / PILOT_STEPS > hi:
            eps *= 2.0
        elif accepted / PILOT_STEPS < lo:
            eps *= 0.5
        else:
            return eps
    return eps
