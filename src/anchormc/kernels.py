"""Target-invariant MCMC transition kernels on a bank of chains, an (N, d)
array whose rows are chains: HMC with leapfrog and preconditioned
Crank-Nicolson. Both steps share one shape, ``step(target, thetas, cfg,
rngs, state) -> (thetas, accepted, state)``, and ``sweep`` is the one entry
the samplers and the diagnostic chains drive. Row i draws only from
``rngs[i]``. Each evaluation is one call into the likelihood pair (the bank
contract of ``TargetDensity``) on the bank's live rows; the rest is array
work over the rows that sums as one chain does, so a bank steps each row
exactly as a one-row bank would.

An HMC step size left unset is adapted from the acceptance count a sweep
returns (``tune_step_size``, no extra likelihood call): by SMC after every
sweep, by ``run_mcmc`` after each sweep of its first half. Adapted from the
island's own particles, it makes log Z consistent in N but not exactly
unbiased; a fixed step size or pCN on a fixed ladder keeps log Z unbiased."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .targets import TargetDensity, row_dots

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


class BankState(NamedTuple):
    """What a bank carries between steps, for both kernels, one entry per row.
    The checked likelihood pair (ll (N,), gl (N, d)) holds for every lam and
    T; the log-density pair (logp, grad) tempered from it only for its
    target, so a caller that changes the target drops it. Steps fill in None
    entries."""

    ll: np.ndarray
    gl: np.ndarray | None = None
    logp: np.ndarray | None = None
    grad: np.ndarray | None = None

    def update(self, new: "BankState", accepted: np.ndarray) -> "BankState":
        # rows in ``accepted`` from ``new``, the others kept; what ``new`` lacks is dropped
        return BankState(*(
            None if b is None else np.where(accepted if b.ndim == 1 else accepted[:, None], b, a)
            for a, b in zip(self, new)
        ))


def leapfrog(
    target: TargetDensity,
    thetas: np.ndarray,
    p: np.ndarray,
    step_size: float,
    n_steps: int,
    g: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, BankState]:
    """Symplectic leapfrog for H(theta, p) = -log_density(theta) + |p|^2/2 on
    every row of ``thetas`` (N, d), from momenta ``p`` and ``g``, the tempered
    gradient at ``thetas``. Each step costs one pair call on the live rows
    (at lam = 0 only the last does). A row whose value or gradient is NaN or
    +inf dies and is left out of every later call. Returns (thetas_end,
    p_end, ok, the state at thetas_end); ``ok`` marks the live rows that end
    on finite theta and p.
    """
    ok = np.ones(len(thetas), dtype=bool)
    ll, gl = np.zeros(len(thetas)), np.zeros(thetas.shape)
    half = 0.5 * step_size
    for i in range(1, n_steps + 1):
        p = p + half * g
        thetas = thetas + step_size * p
        if target.lam != 0.0 or i == n_steps:
            live = np.flatnonzero(ok)
            if live.size:
                ll[live], gl[live] = target.loglik_and_grad(thetas[live])
            ok &= (ll < np.inf) & np.isfinite(gl).all(axis=1)  # -inf is zero density, a value
            ll[~ok], gl[~ok] = 0.0, 0.0  # a dead row's values are never read
        logp, g = target.temper(thetas, ll, gl)
        p = p + half * g
    ok &= np.isfinite(thetas).all(axis=1) & np.isfinite(p).all(axis=1)
    return thetas, p, ok, BankState(ll, gl, logp, g)


def hmc_step(
    target: TargetDensity,
    thetas: np.ndarray,
    cfg: HmcConfig,
    rngs: list[np.random.Generator],
    state: BankState | None = None,
) -> tuple[np.ndarray, int, BankState]:
    """One Metropolis-corrected HMC step with identity mass for every row.
    ``state`` is what the previous step returned, or None; its missing
    entries are evaluated here, so with it carried a step costs L pair
    calls, each on the live rows. A non-finite value or gradient at a row's
    current state raises ``NonFiniteDensityError``; a row whose trajectory
    diverges is rejected. A row at zero density (log-likelihood -inf) takes any proposal
    of positive density. A row draws a uniform only if it reaches the accept
    test. Returns (thetas_next, the number accepted, state_next)."""
    if state is None or state.gl is None:
        state = BankState(*target.log_likelihood_and_grad(thetas))
    if state.grad is None:
        state = BankState(state.ll, state.gl, *target.temper(thetas, state.ll, state.gl))
    p0 = np.array([rng.standard_normal(thetas.shape[1]) for rng in rngs])
    h0 = -state.logp + 0.5 * row_dots(p0)
    prop, p1, ok, new = leapfrog(target, thetas, p0, cfg.step_size, cfg.n_leapfrog, state.grad)
    h1 = -new.logp + 0.5 * row_dots(p1)
    with np.errstate(invalid="ignore"):  # inf - inf where both ends have zero density
        from_zero = h0 == np.inf
        accepted = ok & from_zero & np.isfinite(h1)
        rows = np.flatnonzero(ok & ~from_zero & (np.abs(h1 - h0) <= DIVERGENCE_THRESHOLD))
        accepted[rows] = np.log([rngs[i].uniform() for i in rows]) < h0[rows] - h1[rows]
    return np.where(accepted[:, None], prop, thetas), int(accepted.sum()), state.update(new, accepted)


def pcn_step(
    target: TargetDensity,
    thetas: np.ndarray,
    cfg: PcnConfig,
    rngs: list[np.random.Generator],
    state: BankState | None = None,
) -> tuple[np.ndarray, int, BankState]:
    """One preconditioned Crank-Nicolson step for the target
    exp((lam * loglik + logprior) / T), for every row. The prior raised to
    the power 1/T is N(mean, T*v) and the proposal is reversible with respect
    to it, so the acceptance ratio is (lam / T) * (ll_prop - ll) and of
    ``state`` a step reads ``ll`` alone: one ``loglik`` call on the bank of
    proposals. A proposal whose log-likelihood is NaN or +inf is rejected;
    at a row's current state it raises ``NonFiniteDensityError``. At lam = 0
    no uniform is drawn. Returns (thetas_next, the number accepted,
    state_next)."""
    if state is None:
        state = BankState(target.log_likelihood(thetas))
    mean, sd = target.prior.mean, target.prior.marginal_std * np.sqrt(target.temperature)
    xi = np.array([rng.normal(0.0, sd, size=thetas.shape[1]) for rng in rngs])
    prop = mean + np.sqrt(1.0 - cfg.beta**2) * (thetas - mean) + cfg.beta * xi
    ll_prop = np.asarray(target.loglik(prop), dtype=float)
    accepted = ll_prop < np.inf  # -inf is zero density, a value
    lam = target.lam / target.temperature  # the likelihood's exponent in the target
    if lam != 0.0:
        rows = np.flatnonzero(accepted)
        log_u = np.log([rngs[i].uniform() for i in rows])
        with np.errstate(invalid="ignore"):  # -inf - -inf where both have zero density
            accepted[rows] = log_u < lam * (ll_prop[rows] - state.ll[rows])
    new = state.update(BankState(ll_prop), accepted)
    return np.where(accepted[:, None], prop, thetas), int(accepted.sum()), new


def sweep(
    target: TargetDensity,
    thetas: np.ndarray,
    cfg: HmcConfig | PcnConfig,
    rngs: list[np.random.Generator],
    state: BankState | None,
) -> tuple[np.ndarray, int, BankState]:
    """One step of the kernel ``cfg`` picks, looked up by module-global name
    at call time so that a rebound ``hmc_step``/``pcn_step`` is the one used."""
    step = hmc_step if isinstance(cfg, HmcConfig) else pcn_step
    return step(target, thetas, cfg, rngs, state)


ADAPT_TARGET_RATE = 0.75  # the acceptance rate tune_step_size steers towards


def tune_step_size(cfg: HmcConfig, accepted: int, n: int) -> HmcConfig:
    """The step size after a sweep of ``n`` rows that accepted ``accepted``:
    eps * exp(rate - ADAPT_TARGET_RATE), so it grows while the bank accepts
    more often than the target rate and shrinks otherwise, by at most a
    factor exp(0.75) per sweep."""
    return HmcConfig(cfg.step_size * math.exp(accepted / n - ADAPT_TARGET_RATE), cfg.n_leapfrog)
