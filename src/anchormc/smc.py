"""Tempered SMC sampler with adaptive schedule and evidence estimate, plus
the matching bank of short parallel MCMC chains.

One SMC run alternates: pick the next tempering exponent by ESS root-finding,
reweight (accumulating log Z in log space), systematic resampling, then
adaptive-length MCMC mutation at the new exponent. The particle bank is one
value, a ``kernels.BankState`` of the particles and their likelihood pair;
resampling and mutation act on all of it at once, and each returns a new
bank and leaves its input as it was.

All log-weights (tempering increments here, island evidences in
``parallel``) are normalised by one max-shift rule, ``normalize_log_weights``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .kernels import BankState, HmcConfig, PcnConfig, RowStreams, start_state, sweep, tune_step_size
from .targets import TargetDensity


@dataclass
class TemperSchedule:
    lambdas: list[float] = field(default_factory=lambda: [0.0])
    ess: list[float] = field(default_factory=list)
    mutation_steps: list[int] = field(default_factory=list)
    # HMC only: the step size of each stage's first sweep
    step_sizes: list[float] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class SmcConfig:
    n_particles: int = 10
    ess_fraction: float = 0.5
    mutation_tol: float = 0.05
    max_mutation_steps: int = 20
    kernel: str = "hmc"
    hmc: HmcConfig | None = None  # None: one leapfrog step, its size adapted after every sweep
    pcn: PcnConfig = PcnConfig()
    seed: int = 0
    fixed_schedule: tuple[float, ...] | None = None  # the whole ladder 0 < ... < 1, no adaptation

    def __post_init__(self):
        if self.n_particles < 2:
            raise ValueError("need at least 2 particles")
        if not (0 < self.ess_fraction < 1):
            raise ValueError(f"ESS fraction must lie in (0, 1), got {self.ess_fraction}")
        if not self.mutation_tol > 0:
            raise ValueError(f"mutation tolerance must be positive, got {self.mutation_tol}")
        if self.max_mutation_steps < 1:
            raise ValueError(f"max_mutation_steps must be at least 1, got {self.max_mutation_steps}")
        if self.kernel not in ("hmc", "pcn"):
            raise ValueError(f"unknown kernel {self.kernel!r}")
        lams = self.fixed_schedule
        if lams is not None and not (
            len(lams) >= 2 and lams[0] == 0.0 and lams[-1] == 1.0
            and all(b > a for a, b in zip(lams, lams[1:]))
        ):
            raise ValueError(f"fixed schedule must rise strictly from 0 to 1, got {lams}")


@dataclass(frozen=True)
class SamplerResult:
    """What ``run_smc`` and ``run_mcmc`` return. MCMC runs carry no evidence
    estimate (log Z 0) and no schedule."""

    particles: np.ndarray  # final particles, or the final state of each chain
    log_z: float
    schedule: TemperSchedule | None
    epochs_per_particle: float  # counted row evaluations of the likelihood pair per particle


def normalize_log_weights(log_w: np.ndarray) -> tuple[float, np.ndarray]:
    """Log normaliser log(sum(exp(log_w))) and normalized weights, by max-shift.

    With m = max(log_w) every exponent log_w - m is <= 0, so finite input can
    neither overflow nor give invalid values. An entry more than about 745
    nats below the maximum underflows: its weight relative to the best one is
    below exp(-745), the smallest double, and is exactly 0. That underflow is
    the only floating-point exception allowed here; the caller's error state
    governs the rest.
    """
    log_w = np.asarray(log_w, dtype=float)
    m = log_w.max()
    with np.errstate(under="ignore"):
        w = np.exp(log_w - m)
        total = w.sum()
        w /= total
    return float(m + np.log(total)), w


def ess(weights: np.ndarray) -> float:
    """Effective sample size 1 / sum(w^2) of normalized weights, in [1, N].

    Squares of weights below about 1e-154 underflow to 0, which is exact to
    double precision next to the largest weight (at least 1/N)."""
    weights = np.asarray(weights, dtype=float)
    if not np.isfinite(weights).all():
        raise ValueError("weights must be finite")
    if np.any(weights < 0):
        raise ValueError("weights must be nonnegative")
    total = weights.sum()
    if total == 0:
        raise ValueError("degenerate ensemble: all weights are zero")
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"weights must sum to 1, got {total}")
    with np.errstate(under="ignore"):
        sum_sq = np.sum(weights**2)
    return float(1.0 / sum_sq)


_MAX_BISECTIONS = 60


def _check_some_positive(loglik: np.ndarray) -> None:
    if np.all(loglik == -np.inf):
        raise ValueError("every particle has log-likelihood -inf: no weight is positive")


def _ess_at(loglik: np.ndarray, h: float) -> float:
    # ess(normalize_log_weights(h * loglik)[1]), bit for bit: the same operations, no checks
    log_w = h * loglik
    w = np.exp(log_w - log_w.max())
    w /= w.sum()
    return float(1.0 / np.sum(w**2))


def next_lambda(loglik: np.ndarray, lam: float, ess_fraction: float) -> float:
    """Bisection for the increment h with ESS(h) = ess_fraction * N, where N
    counts the particles with a finite log-likelihood.

    Returns 1.0 when even the full remaining increment keeps the ESS above
    the floor. Weights are formed in the log domain from h * loglik, so a
    particle with log-likelihood -inf (zero likelihood) gets weight zero at
    every h > 0 and the ESS cannot exceed the finite count; the target is
    therefore taken over the finite particles alone. NaN or +inf raises, and
    so does a cloud whose every particle is at -inf.
    """
    loglik = np.asarray(loglik, dtype=float)
    if lam >= 1.0:
        raise ValueError("tempering already complete")
    bad = np.flatnonzero(np.isnan(loglik) | (loglik == np.inf))
    if bad.size:
        raise ValueError(f"non-finite log-likelihood for particle {bad[0]}")
    _check_some_positive(loglik)
    n = np.count_nonzero(loglik > -np.inf)
    target, h_max = ess_fraction * n, 1.0 - lam
    with np.errstate(under="ignore"):  # a weight below exp(-745) of the best one is 0
        if _ess_at(loglik, h_max) >= target:
            return 1.0
        lo, hi = 0.0, h_max
        for _ in range(_MAX_BISECTIONS):
            mid = 0.5 * (lo + hi)
            e = _ess_at(loglik, mid)
            if abs(e - target) <= 0.005 * n or hi - lo < 1e-12:
                break
            if e > target:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-6 and abs(_ess_at(loglik, 0.5 * (lo + hi)) - target) <= 0.01 * n:
                break
    return lam + 0.5 * (lo + hi)


def systematic_resample(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Systematic resampling: one uniform offset, N evenly spaced positions.

    With uniform weights every particle has exactly one offspring.
    """
    weights = np.asarray(weights, dtype=float)
    n = weights.shape[0]
    positions = (rng.uniform() + np.arange(n)) / n
    cum = np.cumsum(weights)
    cum[-1] = 1.0  # guard against roundoff in the final bin
    return np.searchsorted(cum, positions, side="right").clip(0, n - 1)


def reweight_and_resample(
    state: BankState,
    lam: float,
    lam_next: float,
    rng: np.random.Generator,
    schedule: TemperSchedule,
) -> tuple[BankState, float]:
    """Advance the tempering exponent of the particle bank ``state`` from
    ``lam`` to ``lam_next``: the log Z increment is the log-mean-exp of the
    incremental log-weights, then systematic resampling to uniform weights
    takes each particle's whole row of the bank. Returns (the resampled
    bank, log Z increment).

    Weights are max-shifted (``normalize_log_weights``): a particle whose
    incremental weight is below exp(-745) of the best one gets weight exactly
    0, and no floating-point exception is raised for finite log-likelihoods.
    A bank whose every particle is at log-likelihood -inf raises, as in
    ``next_lambda``."""
    if lam_next <= lam:
        raise ValueError(f"lam must increase: {lam} -> {lam_next}")
    _check_some_positive(state.ll)
    log_norm, weights = normalize_log_weights((lam_next - lam) * state.ll)
    e = ess(weights)
    schedule.ess.append(e)
    if e < 1.5:
        schedule.warnings.append(
            f"degenerate weights before resampling at lam={lam_next:.6g} (ESS={e:.3g})"
        )
    idx = systematic_resample(weights, rng)
    resampled = BankState(*(None if a is None else a[idx] for a in state))
    return resampled, log_norm - np.log(len(weights))


def _counting(target: TargetDensity) -> tuple[TargetDensity, list[int]]:
    """``target`` with the rows of every call into its likelihood pair
    counted, and the one-element list that holds the count."""
    calls = [0]
    loglik, loglik_and_grad = target.loglik, target.loglik_and_grad

    def counted_loglik(thetas):
        calls[0] += len(thetas)
        return loglik(thetas)

    def counted_loglik_and_grad(thetas):
        calls[0] += len(thetas)
        return loglik_and_grad(thetas)

    return replace(target, loglik=counted_loglik, loglik_and_grad=counted_loglik_and_grad), calls


def mutate(
    state: BankState,
    target: TargetDensity,
    kernel: HmcConfig | PcnConfig,
    cfg: SmcConfig,
    streams: RowStreams,
    schedule: TemperSchedule,
) -> tuple[BankState, HmcConfig | PcnConfig]:
    """Apply sweeps of ``kernel`` to the particle bank ``state`` until the
    mean displacement from its particles stabilizes: smallest M >= 2 with
    |dist_M - dist_{M-1}| / dist_{M-1} <= cfg.mutation_tol, capped at
    cfg.max_mutation_steps. With ``cfg.hmc`` unset the HMC step size is
    adapted after every sweep (``kernels.tune_step_size``). The bank's pair
    holds for every target, so the sweeps take it as it is. A zero previous
    displacement counts as converged (an immobile ensemble cannot improve).
    Records M and, for HMC, the first sweep's step size in ``schedule``, and
    a warning when the stage ends with no particle moved. Returns (the moved
    bank, the kernel the next stage starts from).
    """
    start, adapt = state.thetas, cfg.kernel == "hmc" and cfg.hmc is None
    if isinstance(kernel, HmcConfig):
        schedule.step_sizes.append(kernel.step_size)
    dist_prev = None
    m_used = cfg.max_mutation_steps
    for m in range(1, cfg.max_mutation_steps + 1):
        state, accepted = sweep(target, state, kernel, streams)
        if adapt:
            kernel = tune_step_size(kernel, accepted, len(start))
        dist = float(np.mean(np.linalg.norm(state.thetas - start, axis=1)))
        if m >= 2 and (dist_prev == 0.0 or abs(dist - dist_prev) / dist_prev <= cfg.mutation_tol):
            m_used = m
            break
        dist_prev = dist
    schedule.mutation_steps.append(m_used)
    if dist == 0.0:
        schedule.warnings.append(f"mutation moved no particle at lam={target.lam:.6g}")
    return state, kernel


def _kernel_config(cfg: SmcConfig | McmcConfig, target: TargetDensity) -> HmcConfig | PcnConfig:
    """The run's kernel: pCN, or HMC with the configured step size. With
    none configured, the step size the sampler adapts starts at the prior's
    marginal sd times d^(-1/4), the rate at which an HMC step must shrink
    with dimension to keep its acceptance."""
    if cfg.kernel == "pcn":
        return cfg.pcn
    if cfg.hmc is not None:
        return cfg.hmc
    return HmcConfig(target.prior.marginal_std * target.dim**-0.25)


def run_smc(target: TargetDensity, cfg: SmcConfig) -> SamplerResult:
    """Full tempering run from the target's prior to lam = 1.

    ``target.lam`` is ignored; the run owns the tempering exponent. The path
    starts from the untempered prior, so only T = 1 targets are accepted;
    cold posteriors are sampled by ``run_mcmc``. The whole run is a pure
    function of (seed, config, target): the island's own generator draws
    the first cloud and the resampling offsets, and particle row i steps
    with the stream keyed ``mix64(seed, i)`` (``kernels.RowStreams``) in the
    one bank ``kernels.start_state`` makes of the first cloud."""
    if target.temperature != 1.0:
        raise ValueError(
            f"SMC samples only T = 1 posteriors, got T = {target.temperature}: its "
            "tempering path starts from the untempered prior; use method=mcmc "
            "(run_mcmc) for cold posteriors"
        )
    target, calls = _counting(target)
    island_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    streams = RowStreams.seeded(cfg.seed, cfg.n_particles)

    kernel = _kernel_config(cfg, target)
    state = start_state(target, target.prior.sample(island_rng, cfg.n_particles), kernel)
    lam, log_z, schedule = 0.0, 0.0, TemperSchedule()

    fixed = iter(cfg.fixed_schedule[1:]) if cfg.fixed_schedule is not None else None
    while lam < 1.0:
        lam_next = next(fixed) if fixed else next_lambda(state.ll, lam, cfg.ess_fraction)
        state, log_increment = reweight_and_resample(state, lam, lam_next, island_rng, schedule)
        log_z, lam = log_z + log_increment, lam_next
        schedule.lambdas.append(lam)
        state, kernel = mutate(state, target.with_lam(lam), kernel, cfg, streams, schedule)
    return SamplerResult(
        particles=state.thetas,
        log_z=log_z,
        schedule=schedule,
        epochs_per_particle=calls[0] / cfg.n_particles,
    )


@dataclass(frozen=True)
class McmcConfig:
    n_chains: int = 10
    n_steps: int = 80
    kernel: str = "hmc"
    hmc: HmcConfig | None = None  # None: one leapfrog step, its size adapted over the first half
    pcn: PcnConfig = PcnConfig()
    seed: int = 0

    def __post_init__(self):
        if self.n_chains < 1 or self.n_steps < 1:
            raise ValueError("need at least one chain and one step")
        if self.kernel not in ("hmc", "pcn"):
            raise ValueError(f"unknown kernel {self.kernel!r}")


def run_mcmc(target: TargetDensity, cfg: McmcConfig) -> SamplerResult:
    """Bank of chains at lam = 1, initialized from the prior, advanced by
    ``n_steps`` sweeps. Chain i draws only from its own stream, keyed
    ``mix64(seed, i)`` (``kernels.RowStreams``), and is its own row of the
    bank ``kernels.start_state`` makes of the prior draw. With a fixed
    kernel the chains are independent, so the bank is the same as the
    chains run one by one. With ``hmc=None`` the chains share one step size,
    adapted from the bank's acceptance (``kernels.tune_step_size``) after
    each of the first ``n_steps // 2`` sweeps and then fixed, so that the
    later sweeps run one fixed kernel; a chain then depends on the bank it
    ran in. The returned particles are the final chain states. Chains carry
    no evidence estimate."""
    init_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    streams = RowStreams.seeded(cfg.seed, cfg.n_chains)
    target, calls = _counting(target.with_lam(1.0))

    kernel = _kernel_config(cfg, target)
    warmup = cfg.n_steps // 2 if cfg.kernel == "hmc" and cfg.hmc is None else 0
    state = start_state(target, target.prior.sample(init_rng, cfg.n_chains), kernel)
    for step in range(cfg.n_steps):
        state, accepted = sweep(target, state, kernel, streams)
        if step < warmup:
            kernel = tune_step_size(kernel, accepted, cfg.n_chains)
    return SamplerResult(
        particles=state.thetas,
        log_z=0.0,
        schedule=None,
        epochs_per_particle=calls[0] / cfg.n_chains,
    )
