"""Target-invariant MCMC transition kernels: HMC with leapfrog and
preconditioned Crank-Nicolson.

Both steps share one shape, ``step(target, theta, cfg, rng, cache) ->
(theta, accepted, cache)``, and ``sweep`` steps a bank of chains with
either one: it is the one loop the samplers, the pilot and the diagnostic
chains drive. Both carry one cache record, ``KernelCache``."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


class KernelCache(NamedTuple):
    """What a chain carries between steps, for both kernels. The checked
    likelihood pair (ll, gl) at its state holds for every lam and T; the
    log-density pair (logp, grad) tempered from it only for its target, so a
    caller that changes the target drops it. Steps fill in None entries."""

    ll: float
    gl: np.ndarray | None
    logp: float | None
    grad: np.ndarray | None


def leapfrog(
    target: TargetDensity,
    theta: np.ndarray,
    p: np.ndarray,
    step_size: float,
    n_steps: int,
    g: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, KernelCache]:
    """Symplectic leapfrog for H(theta, p) = -log_density(theta) + |p|^2/2,
    from ``g``, the gradient of the log-density at ``theta``.

    Each step costs one likelihood call: a gradient inside the trajectory,
    the pair at the last point. Returns (theta_end, p_end, the cache at
    theta_end). Raises DivergentTrajectory if an evaluation is non-finite.
    """
    theta = np.array(theta, dtype=float)
    p = np.array(p, dtype=float)
    try:
        for i in range(1, n_steps + 1):
            p = p + 0.5 * step_size * g
            theta = theta + step_size * p
            if i < n_steps:
                g = target.grad_log_density(theta)
            else:
                ll, gl = target.log_likelihood_and_grad(theta)
                logp, g = target.temper(theta, ll, gl)
            p = p + 0.5 * step_size * g
    except NonFiniteDensityError as e:
        raise DivergentTrajectory(str(e)) from e
    if not (np.isfinite(theta).all() and np.isfinite(p).all()):
        raise DivergentTrajectory("non-finite state after leapfrog")
    return theta, p, KernelCache(ll, gl, logp, g)


def hmc_step(
    target: TargetDensity,
    theta: np.ndarray,
    cfg: HmcConfig,
    rng: np.random.Generator,
    cache: KernelCache | None = None,
) -> tuple[np.ndarray, bool, KernelCache]:
    """One Metropolis-corrected HMC step with identity mass.

    ``cache`` is what the previous step returned at ``theta``, or None; its
    missing entries are evaluated here, so with it carried a step costs L
    likelihood calls. A non-finite likelihood or gradient at ``theta`` raises
    ``NonFiniteDensityError``; a divergent trajectory is rejected. From a
    state of zero density (log-likelihood -inf) any proposal of positive
    density is accepted. Returns (theta_next, accepted, cache_next).
    """
    ll, gl, logp, grad = (None, None, None, None) if cache is None else cache
    if grad is None:
        if gl is None:
            ll, gl = target.log_likelihood_and_grad(theta)
        logp, grad = target.temper(theta, ll, gl)
        cache = KernelCache(ll, gl, logp, grad)
    p0 = rng.standard_normal(theta.shape[0])
    h0 = -logp + 0.5 * np.dot(p0, p0)
    theta_next, accepted, cache_next = theta, False, cache
    try:
        theta_prop, p1, cache_prop = leapfrog(
            target, theta, p0, cfg.step_size, cfg.n_leapfrog, grad
        )
        h1 = -cache_prop.logp + 0.5 * np.dot(p1, p1)
        if h0 == np.inf:  # zero density here: any proposal of positive density is taken
            if np.isfinite(h1):
                theta_next, accepted, cache_next = theta_prop, True, cache_prop
        elif abs(h1 - h0) <= DIVERGENCE_THRESHOLD:
            if np.log(rng.uniform()) < h0 - h1:
                theta_next, accepted, cache_next = theta_prop, True, cache_prop
    except DivergentTrajectory:
        pass
    return theta_next, accepted, cache_next


def pcn_step(
    target: TargetDensity,
    theta: np.ndarray,
    cfg: PcnConfig,
    rng: np.random.Generator,
    cache: KernelCache | None = None,
) -> tuple[np.ndarray, bool, KernelCache]:
    """One preconditioned Crank-Nicolson step for the target
    exp((lam * loglik + logprior) / T).

    The Gaussian prior raised to the power 1/T is N(mean, T*v). The proposal
    is reversible with respect to it, so the acceptance ratio involves only
    the tempered likelihood difference (lam / T) * (ll_prop - ll), so of
    ``cache`` it reads only ``ll``. A proposal whose log-likelihood is NaN or
    +inf is rejected; at the current state it raises
    ``NonFiniteDensityError``. Returns (theta_next, accepted, cache_next).
    """
    if cache is None:
        cache = KernelCache(target.log_likelihood(theta), None, None, None)
    prior = target.prior
    mean = prior.mean
    xi = rng.normal(0.0, prior.marginal_std * np.sqrt(target.temperature), size=theta.shape[0])
    prop = mean + np.sqrt(1.0 - cfg.beta**2) * (theta - mean) + cfg.beta * xi
    theta_next, accepted, cache_next = theta, False, cache
    lam = target.lam / target.temperature  # the likelihood's exponent in the target
    try:
        ll_prop = target.log_likelihood(prop)
        if lam == 0.0 or np.log(rng.uniform()) < lam * (ll_prop - cache.ll):
            theta_next, cache_next, accepted = prop, KernelCache(ll_prop, None, None, None), True
    except NonFiniteDensityError:
        pass
    return theta_next, accepted, cache_next


def sweep(
    target: TargetDensity,
    thetas: np.ndarray,
    cfg: HmcConfig | PcnConfig,
    rngs: list[np.random.Generator],
    caches: list[KernelCache | None],
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
