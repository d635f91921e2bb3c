"""Independent parallel sampler runs (islands) and their evidence-weighted
pooling, stabilized in log space at the island level.

Island weights are max-shifted (``smc.normalize_log_weights``): an island
whose evidence is below exp(-745) of the best island's gets weight exactly 0,
and no floating-point exception is raised for finite log Z."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .smc import McmcConfig, SmcConfig, normalize_log_weights, run_mcmc, run_smc
from .targets import TargetDensity

_MIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def mix64(*words: int) -> int:
    """splitmix64-style 64-bit mix of integer words; used to derive
    non-overlapping per-island seed streams without coordination."""
    z = 0
    for w in words:
        z = (z + (w & _MASK64) + _MIX_GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z = z ^ (z >> 31)
    return z


@dataclass(frozen=True)
class RunResult:
    p: int
    samples: np.ndarray  # (N, d)
    log_z: float  # 0 for MCMC runs
    epochs_per_particle: float
    schedule: object = None
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


def _failed(p: int, dim: int, e: BaseException) -> RunResult:
    return RunResult(p, np.empty((0, dim)), 0.0, 0.0, error=f"{type(e).__name__}: {e}")


def _run_island(
    target: TargetDensity, cfg: SmcConfig | McmcConfig, base_seed: int, p: int
) -> RunResult:
    run = run_smc if isinstance(cfg, SmcConfig) else run_mcmc
    try:
        r = run(target, replace(cfg, seed=mix64(base_seed, p)))
        return RunResult(p, r.particles, r.log_z, r.epochs_per_particle, r.schedule)
    except Exception as e:  # noqa: BLE001 - failure report, not control flow
        return _failed(p, target.dim, e)


# (target, cfg, base_seed) of the batch a worker process serves. Set only in
# workers, by the pool's initializer: under fork its arguments are inherited,
# not pickled, so closures over data reach the workers as they are.
_batch = None


def _join_batch(target: TargetDensity, cfg: SmcConfig | McmcConfig, base_seed: int) -> None:
    global _batch
    _batch = (target, cfg, base_seed)


def _worker_island(p: int) -> RunResult:
    return _run_island(*_batch, p)


def run_parallel(
    target: TargetDensity,
    cfg: SmcConfig | McmcConfig,
    n_islands: int,
    base_seed: int,
    workers: int = 1,
) -> list[RunResult]:
    """n_islands fully independent runs with seeds derived from base_seed.

    With ``workers`` > 1 and ``fork`` available, the islands run in
    min(workers, n_islands) forked processes; only island indices go out and
    only results come back. Results are ordered by island index and do not
    depend on the worker count. A failed island is returned with its error
    message instead of aborting the batch; a worker process that dies fails
    the islands it had not returned (``BrokenProcessPool``). As with any
    fork, a caller that runs other threads risks a worker inheriting a lock
    one of them held.
    """
    if n_islands < 1:
        raise ValueError("need at least one island")
    workers = min(workers, n_islands)
    if workers > 1:
        # imported here, so that importing the package loads no pool module
        import multiprocessing
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            with ProcessPoolExecutor(
                workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_join_batch,
                initargs=(target, cfg, base_seed),
            ) as executor:
                futures = [executor.submit(_worker_island, p) for p in range(n_islands)]
            results = []
            for p, future in enumerate(futures):
                try:
                    results.append(future.result())
                except BrokenProcessPool as e:  # a worker died: its islands fail
                    results.append(_failed(p, target.dim, e))
            return results
    return [_run_island(target, cfg, base_seed, p) for p in range(n_islands)]


def island_weights(results: list[RunResult]) -> tuple[np.ndarray, list[int]]:
    """Normalized evidence weights over usable islands, computed in log space
    by max-shift: an island more than about 745 nats of log Z below the best
    one gets weight exactly 0.

    Failed islands and non-finite log Z are excluded (with a warning) and the
    remaining weights renormalized. MCMC islands all carry log Z = 0 and so
    get uniform weight.
    """
    excluded = [r.p for r in results if r.failed or not np.isfinite(r.log_z)]
    usable = [r for r in results if r.p not in excluded]
    if not usable:
        raise ValueError("no usable islands to combine")
    if excluded:
        warnings.warn(f"excluding islands {excluded} from combination", stacklevel=2)
    _, w = normalize_log_weights(np.array([r.log_z for r in usable]))
    return w, excluded


def pool(results: list[RunResult]) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """Pool the usable islands into one weighted sample.

    Returns (samples, particle_weights, island_weights, excluded): each
    island's evidence weight is spread evenly over its particles. Under the
    max-shift rule of ``island_weights`` a particle weight below the smallest
    double rounds to 0, and no floating-point exception is raised."""
    w, excluded = island_weights(results)
    usable = [r for r in results if r.p not in excluded]
    sizes = np.array([len(r.samples) for r in usable])
    with np.errstate(under="ignore"):
        particle_weights = np.repeat(w / sizes, sizes)
    return np.concatenate([r.samples for r in usable]), particle_weights, w, excluded


def standard_error(values: np.ndarray) -> tuple[float, float]:
    """Mean and standard error over independent realizations:
    sqrt(mean squared deviation) / sqrt(R)."""
    values = np.asarray(values, dtype=float)
    r = values.shape[0]
    if r < 2:
        raise ValueError("standard error needs at least 2 realizations")
    mean = float(values.mean())
    se = float(np.sqrt(np.mean((values - mean) ** 2)) / np.sqrt(r))
    return mean, se
