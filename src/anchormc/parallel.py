"""Independent parallel sampler runs (islands) and their evidence-weighted
pooling, stabilized in log space at the island level.

Island weights are max-shifted (``smc.normalize_log_weights``): an island
whose evidence is below exp(-745) of the best island's gets weight exactly 0,
and no floating-point exception is raised for finite log Z."""

from __future__ import annotations

import os
import pickle
import signal
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .kernels import splitmix64
from .smc import McmcConfig, SmcConfig, normalize_log_weights, run_mcmc, run_smc
from .targets import TargetDensity


def mix64(*words: int) -> int:
    """SplitMix64 of integer words (``kernels.splitmix64``, one value); used
    to derive non-overlapping per-island seeds without coordination."""
    return int(splitmix64(*words)[0])


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


def run_parallel(
    target: TargetDensity,
    cfg: SmcConfig | McmcConfig,
    n_islands: int,
    base_seed: int,
    workers: int = 1,
) -> list[RunResult]:
    """n_islands fully independent runs with seeds derived from base_seed.

    The islands go in min(workers, n_islands) contiguous shares, one where
    ``workers`` < 1 or the platform has no ``os.fork``. The caller runs the
    first share; each other share runs in a child forked from the caller,
    which inherits closures over data unpickled and pipes its results back
    pickled. Results are in island order and do not depend on the worker
    count. A failed island comes back with its error message; a child that
    dies before its results are read fails its share, naming its exit
    status or signal. No child outlives the call, even when the caller's
    share raises. A child may inherit a lock another caller thread held.
    """
    if n_islands < 1:
        raise ValueError("need at least one island")
    n_shares = max(1, min(workers, n_islands)) if hasattr(os, "fork") else 1
    bounds = [n_islands * k // n_shares for k in range(n_shares + 1)]
    shares = [range(a, b) for a, b in zip(bounds, bounds[1:])]
    children = []  # (pid, pipe read end, share) of each child not yet reaped
    try:
        for share in shares[1:]:
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child leaves by os._exit, never into the caller's code
                try:
                    os.close(read_end)
                    with os.fdopen(write_end, "wb") as pipe:
                        pickle.dump([_run_island(target, cfg, base_seed, p) for p in share], pipe)
                except BaseException:
                    os._exit(1)
                os._exit(0)
            os.close(write_end)
            children.append((pid, os.fdopen(read_end, "rb"), share))
        results = [_run_island(target, cfg, base_seed, p) for p in shares[0]]
        while children:
            pid, pipe, share = children[0]
            with pipe:
                try:
                    returned = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):
                    returned = None
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            if returned is None:
                how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                e = ChildProcessError(f"islands {share.start}-{share.stop - 1}: child process {how}")
                returned = [_failed(p, target.dim, e) for p in share]
            results.extend(returned)
        return results
    finally:
        for pid, pipe, _ in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


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
