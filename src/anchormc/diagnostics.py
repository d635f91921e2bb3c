"""Chain diagnostics: autocorrelation function, integrated autocorrelation
time, and long HMC chains to measure them on."""

from __future__ import annotations

import numpy as np

from .kernels import HmcConfig, RowStreams, start_state, sweep
from .targets import TargetDensity


def acf(series: np.ndarray, max_lag: int) -> np.ndarray:
    """Normalized autocorrelation rho_0..rho_maxlag with the biased (1/T)
    autocovariance estimator (keeps the sequence positive semidefinite)."""
    series = np.asarray(series, dtype=float)
    t = series.shape[0]
    if t < 2 * max_lag:
        raise ValueError(f"series length {t} too short for max lag {max_lag}")
    x = series - series.mean()
    var = np.dot(x, x) / t
    if var == 0:
        raise ValueError("constant series has no autocorrelation")
    # FFT autocovariance, biased normalization
    nfft = 1 << int(np.ceil(np.log2(2 * t)))
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[: max_lag + 1] / t
    return acov / var


def iact(series: np.ndarray, max_lag: int | None = None) -> float:
    """1 + 2 * sum of autocorrelations, truncated at the first negative lag
    (initial-positive-sequence rule)."""
    series = np.asarray(series, dtype=float)
    if max_lag is None:
        max_lag = min(len(series) // 2, 10_000)
    rho = acf(series, max_lag)
    total = 0.0
    for s in range(1, max_lag + 1):
        if rho[s] < 0:
            break
        total += rho[s]
    return 1.0 + 2.0 * total


def hmc_chain(
    target: TargetDensity,
    theta0: np.ndarray,
    cfg: HmcConfig,
    n_steps: int,
    seed: int = 0,
) -> tuple[np.ndarray, float]:
    """One long chain, stepped as a one-row bank (``start_state`` at
    ``theta0``) with the stream keyed ``mix64(seed, 0)``; returns (states,
    acceptance rate)."""
    streams, accepted = RowStreams.seeded(seed, 1), 0
    state = start_state(target, np.asarray(theta0, dtype=float)[None], cfg)
    states = np.empty((n_steps, target.dim))
    for t in range(n_steps):
        state, n = sweep(target, state, cfg, streams)
        accepted += n
        states[t] = state.thetas[0]
    return states, accepted / n_steps


def acf_table_csv(path: str, series_by_label: dict[str, np.ndarray], max_lag: int):
    """Write lag, one ACF column per label; companion IACT line as a comment."""
    labels = list(series_by_label)
    cols = {lab: acf(series_by_label[lab], max_lag) for lab in labels}
    with open(path, "w") as f:
        f.write("# iact: " + ", ".join(f"{lab}={iact(series_by_label[lab]):.6g}" for lab in labels) + "\n")
        f.write("lag," + ",".join(labels) + "\n")
        for s in range(max_lag + 1):
            f.write(f"{s}," + ",".join(f"{cols[lab][s]:.8g}" for lab in labels) + "\n")
