"""Target-invariant MCMC transition kernels on a bank of chains: HMC with
leapfrog and preconditioned Crank-Nicolson. A bank is one value,
``BankState``: its rows, an (N, d) array whose rows are chains, with the
checked likelihood pair there. Both steps share one shape,
``step(target, state, cfg, streams) -> (state, n_accepted)``, and ``sweep``
is the one entry the samplers and the diagnostic chains drive. Each
evaluation is one call into the likelihood pair (the bank contract of
``TargetDensity``): the whole bank while every row lives, the live rows once
one has died. The rest is array work that sums as one chain does, so a bank
steps each row exactly as a one-row bank would. The pair holds for every
target and is evaluated once, by ``start_state``, the one place a bank is
made; HMC tempers it where it reads it, a step never evaluates the rows it
is given, and ``BankState.update`` is the one accept-select.

Row i draws from its own counter-based stream (``RowStreams``). A sweep draws
one block of every row's stream, d normals and then one uniform, as one array
operation (``RowStreams.block``), whether or not the row reaches the accept
test, so a row's draws do not depend on its bank.

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

_GAMMA, _MASK64 = 0x9E3779B97F4A7C15, (1 << 64) - 1  # SplitMix64's increment; 2^64 - 1
_U53 = 2.0**-53 - 2.0**-106  # (k + 1) * _U53 lies in (0, 1) for every 53-bit k


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output function on a uint64 array, elementwise, in place."""
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


def splitmix64(*words: int | np.ndarray) -> np.ndarray:
    """SplitMix64 (Steele, Lea & Flood 2014) over integer words, elementwise
    on broadcast uint64 arrays: from z = 0, z = mix(z + word + gamma) for
    each word, modulo 2^64. ``parallel.mix64`` is its one-value form."""
    z = np.zeros(1, dtype=np.uint64)
    for w in words:
        z = _mix(z + np.asarray(w & _MASK64 if isinstance(w, int) else w, dtype=np.uint64) + _GAMMA)
    return z


class RowStreams:
    """Counter-based random streams (Salmon et al. 2011), one per row of a
    bank: row i's n-th word is mix(keys[i] + n * gamma), SplitMix64 seeded at
    keys[i], and ``counter`` words of every row are used. Each draw is one
    array computation; the streams stay with the row positions."""

    def __init__(self, keys: np.ndarray):
        self.keys, self.counter = np.asarray(keys, dtype=np.uint64), 0

    @classmethod
    def seeded(cls, seed: int, n: int) -> "RowStreams":
        """Streams for ``n`` rows, keyed ``mix64(seed, i)`` for row i."""
        return cls(splitmix64(seed, np.arange(n, dtype=np.uint64)))

    def _words(self, k: int) -> np.ndarray:
        # (N, k): the top 53 bits of the next k words of every row
        n = np.arange(self.counter, self.counter + k, dtype=np.uint64)
        self.counter += k
        return _mix(np.add.outer(self.keys, n * _GAMMA)) >> 11

    def block(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        """A sweep's draws for every row from its next 2 * ceil(d / 2) + 1 words:
        ``d`` standard normals (N, d) by Box-Muller on all but the last (radii
        from the first half, angles from the second, cosine and sine from one
        tangent of the half angle), then one uniform in (0, 1) (N,) from the last."""
        m = (d + 1) // 2
        k = self._words(2 * m + 1)
        r = np.sqrt(-2.0 * np.log((k[:, :m] + 1) * _U53))
        t = np.tan(k[:, m : 2 * m] * (np.pi * 2.0**-53))
        tt = t * t
        q = r / (1.0 + tt)
        return np.concatenate([(1.0 - tt) * q, 2.0 * t * q], axis=1)[:, :d], (k[:, 2 * m] + 1) * _U53


@dataclass(frozen=True)
class HmcConfig:
    step_size: float
    n_leapfrog: int = 1

    def __post_init__(self):
        if not 0 < self.step_size < math.inf:
            raise ValueError(f"step size must be positive and finite, got {self.step_size}")
        if self.n_leapfrog < 1:
            raise ValueError(f"leapfrog step count must be >= 1, got {self.n_leapfrog}")


@dataclass(frozen=True)
class PcnConfig:
    beta: float = 0.2

    def __post_init__(self):
        if not (0 < self.beta <= 1):
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")


class BankState(NamedTuple):
    """A bank, one entry per row: the rows ``thetas`` (N, d) and their
    checked likelihood pair, ll (N,) and, for HMC, gl (N, d). The pair holds
    for every lam and T, so a bank may be passed to a step at any target.
    ``start_state`` makes the first; a rejected row keeps its entries."""

    thetas: np.ndarray
    ll: np.ndarray
    gl: np.ndarray | None = None

    def update(self, new: "BankState", accepted: np.ndarray) -> "BankState":
        # rows in ``accepted`` from ``new``, the others kept; what ``new`` lacks is dropped
        return BankState(*(
            None if b is None else np.where(accepted if b.ndim == 1 else accepted[:, None], b, a)
            for a, b in zip(self, new)
        ))


def start_state(target: TargetDensity, thetas: np.ndarray, kernel: HmcConfig | PcnConfig) -> BankState:
    """The bank of the rows ``thetas`` with the checked likelihood pair
    there, as much of it as ``kernel`` reads: the value and gradient for
    HMC, the value for pCN. A NaN or +inf value, or a non-finite gradient,
    at any row raises ``NonFiniteDensityError``, also at a row of zero
    likelihood (-inf). The bank holds a copy of ``thetas``."""
    thetas = np.array(thetas, dtype=float)
    if isinstance(kernel, HmcConfig):
        return BankState(thetas, *target.log_likelihood_and_grad(thetas))
    return BankState(thetas, target.log_likelihood(thetas))


def leapfrog(
    target: TargetDensity, state: BankState, p: np.ndarray, cfg: HmcConfig
) -> tuple[BankState, np.ndarray, np.ndarray]:
    """Symplectic leapfrog for H(theta, p) = -log_density(theta) + |p|^2/2 on
    every row of the bank ``state``, from momenta ``p``, by ``cfg``'s step
    size and step count. Each step costs one pair call on the live rows (at
    lam = 0 only the last does) and tempers the gradient it reads. A row
    whose value or gradient is NaN or +inf dies and is left out of every
    later call. Returns (the bank at the trajectory's end, p_end, ok); ``ok``
    marks the live rows that end on finite theta and p.
    """
    thetas, n, step_size = state.thetas, len(state.thetas), cfg.step_size
    g = target.tempered_grad(thetas, state.gl)
    ok, live = np.ones(n, dtype=bool), slice(None)  # every row, until one dies
    ll, gl, half = np.zeros(n), np.zeros(thetas.shape), 0.5 * step_size
    for i in range(1, cfg.n_leapfrog + 1):
        p = p + half * g
        thetas = thetas + step_size * p
        if target.lam != 0.0 or i == cfg.n_leapfrog:
            bank = thetas[live]
            if len(bank):
                ll[live], gl[live] = target.loglik_and_grad(bank)
            if not ((ll < np.inf).all() and np.isfinite(gl).all()):  # a row died; -inf is a value
                ok &= (ll < np.inf) & np.isfinite(gl).all(axis=1)
                ll[~ok], gl[~ok], live = 0.0, 0.0, np.flatnonzero(ok)  # never read again
        g = target.tempered_grad(thetas, gl)
        p = p + half * g
    ok &= np.isfinite(thetas).all(axis=1) & np.isfinite(p).all(axis=1)
    return BankState(thetas, ll, gl), p, ok


def hmc_step(
    target: TargetDensity, state: BankState, cfg: HmcConfig, streams: RowStreams
) -> tuple[BankState, int]:
    """One Metropolis-corrected HMC step with identity mass for every row of
    the bank ``state`` (``start_state``, or what a step at any target
    returned), so a step costs L pair calls, each on the live rows. The
    value is tempered at the trajectory's start and end, the gradient at its
    start. A row whose trajectory diverges is rejected. A row at zero
    density (log-likelihood -inf) takes any proposal of positive density.
    Every row draws d momenta and one uniform from its own stream, whether
    or not it reaches the accept test. Returns (the next bank, the number
    accepted)."""
    p0, u = streams.block(state.thetas.shape[1])
    h0 = -target.tempered_log_density(state.thetas, state.ll) + 0.5 * row_dots(p0)
    new, p1, ok = leapfrog(target, state, p0, cfg)
    h1 = -target.tempered_log_density(new.thetas, new.ll) + 0.5 * row_dots(p1)
    with np.errstate(invalid="ignore"):  # inf - inf where both ends have zero density
        from_zero = h0 == np.inf
        tested = ~from_zero & (np.abs(h1 - h0) <= DIVERGENCE_THRESHOLD) & (np.log(u) < h0 - h1)
        accepted = ok & ((from_zero & np.isfinite(h1)) | tested)
    return state.update(new, accepted), int(accepted.sum())


def pcn_step(
    target: TargetDensity, state: BankState, cfg: PcnConfig, streams: RowStreams
) -> tuple[BankState, int]:
    """One preconditioned Crank-Nicolson step for the target
    exp((lam * loglik + logprior) / T), for every row of the bank ``state``.
    The prior raised to the power 1/T is N(mean, T*v) and the proposal is
    reversible with respect to it, so the acceptance ratio is
    (lam / T) * (ll_prop - ll) and of the pair a step reads ``ll`` alone:
    one ``loglik`` call on the bank of proposals. A proposal whose
    log-likelihood is NaN or +inf is rejected. Every row draws d normals and
    one uniform from its own stream, the uniform unused at lam = 0. Returns
    (the next bank, the number accepted)."""
    mean, sd = target.prior.mean, target.prior.marginal_std * np.sqrt(target.temperature)
    xi, u = streams.block(state.thetas.shape[1])
    prop = mean + np.sqrt(1.0 - cfg.beta**2) * (state.thetas - mean) + cfg.beta * (sd * xi)
    ll_prop = np.asarray(target.loglik(prop), dtype=float)
    accepted = ll_prop < np.inf  # -inf is zero density, a value
    lam = target.lam / target.temperature  # the likelihood's exponent in the target
    if lam != 0.0:
        with np.errstate(invalid="ignore"):  # -inf - -inf where both have zero density
            accepted &= np.log(u) < lam * (ll_prop - state.ll)
    return state.update(BankState(prop, ll_prop), accepted), int(accepted.sum())


def sweep(
    target: TargetDensity, state: BankState, cfg: HmcConfig | PcnConfig, streams: RowStreams
) -> tuple[BankState, int]:
    """One step of the kernel ``cfg`` picks, looked up by module-global name
    at call time so that a rebound ``hmc_step``/``pcn_step`` is the one used.
    ``state`` is what ``start_state`` or the last step returned."""
    step = hmc_step if isinstance(cfg, HmcConfig) else pcn_step
    return step(target, state, cfg, streams)


ADAPT_TARGET_RATE = 0.75  # the acceptance rate tune_step_size steers towards


def tune_step_size(cfg: HmcConfig, accepted: int, n: int) -> HmcConfig:
    """The step size after a sweep of ``n`` rows that accepted ``accepted``:
    eps * exp(rate - ADAPT_TARGET_RATE), so it grows while the bank accepts
    more often than the target rate and shrinks otherwise, by at most a
    factor exp(0.75) per sweep."""
    return HmcConfig(cfg.step_size * math.exp(accepted / n - ADAPT_TARGET_RATE), cfg.n_leapfrog)
