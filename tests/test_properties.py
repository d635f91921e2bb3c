"""Randomized invariant checks driven by hypothesis."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from anchormc.artifacts import CONFIG_DEFAULTS, load_config, parse_config_text
from anchormc.kernels import HmcConfig
from anchormc.nets import NetworkSpec, forward, pack, unpack
from anchormc.parallel import RunResult, island_weights
from anchormc.smc import (
    SmcConfig,
    ess,
    next_lambda,
    normalize_log_weights,
    run_smc,
    systematic_resample,
)
from anchormc.targets import GaussianPrior, TargetDensity, gaussian_loglik
from anchormc.uncertainty import PredictiveMatrix, entropy_decomposition

finite_floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@given(
    arrays(float, st.integers(2, 30), elements=st.floats(1e-6, 1.0)),
)
def test_ess_bounds(raw):
    w = raw / raw.sum()
    val = ess(w)
    assert 1.0 - 1e-9 <= val <= len(w) + 1e-9


@given(
    arrays(float, st.integers(4, 64), elements=st.floats(0.0, 1.0)),
    st.floats(0.0, 1e6),
    st.floats(0.0, 0.9),
    st.floats(0.1, 0.9),
)
def test_next_lambda_advances_and_stays_in_unit_interval(unit, spread, lam_prev, rho):
    """For log-likelihood spreads up to 1e6, λ advances within (λ, 1] and the
    ESS at the new λ is at least ρ·N less the bisection's tolerance, 0.01·N."""
    loglik = spread * unit
    lam = next_lambda(loglik, lam_prev, rho)
    assert lam_prev < lam <= 1.0
    weights = normalize_log_weights((lam - lam_prev) * loglik)[1]
    assert ess(weights) >= (rho - 0.01) * len(loglik)


@given(
    st.floats(1e-9, 1e-6),
    st.sampled_from([8, 16]),
    st.sampled_from(["pcn", "hmc"]),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_adaptive_run_terminates_for_huge_loglik_spreads(variance, n_particles, kernel, seed):
    """From the N(0, 1) prior to a 2-d likelihood of variance 1e-9 to 1e-6,
    the first cloud's log-likelihoods spread over about 1e6 nats or more; the
    whole adaptive run still climbs to λ = 1 in a bounded number of stages."""
    target = TargetDensity(
        *gaussian_loglik(np.array([1.0, -0.5]), variance), GaussianPrior(1.0, 2)
    )
    cfg = SmcConfig(n_particles=n_particles, kernel=kernel, hmc=HmcConfig(0.01, 3), seed=seed)
    result = run_smc(target, cfg)
    lams = result.schedule.lambdas
    assert lams[-1] == 1.0
    assert all(b > a for a, b in zip(lams, lams[1:]))
    assert np.isfinite(result.log_z)
    assert len(lams) - 1 <= 200


@given(
    arrays(float, st.integers(2, 20), elements=st.floats(1e-3, 1.0)),
    st.integers(0, 2**32 - 1),
)
def test_systematic_resample_offspring_counts(raw, seed):
    w = raw / raw.sum()
    idx = systematic_resample(w, np.random.default_rng(seed))
    assert idx.shape == w.shape
    # each index appears either floor or ceil of N*w_i times
    counts = np.bincount(idx, minlength=len(w))
    expect = len(w) * w
    assert np.all(counts >= np.floor(expect))
    assert np.all(counts <= np.ceil(expect))


@given(
    arrays(
        float,
        st.tuples(st.integers(1, 6), st.integers(1, 5), st.integers(2, 5)),
        elements=st.floats(1e-3, 1.0),
    )
)
def test_entropy_decomposition_invariants(raw):
    probs = raw / raw.sum(axis=-1, keepdims=True)
    n_particles = probs.shape[1]
    m = PredictiveMatrix(probs=probs, weights=np.full(n_particles, 1.0 / n_particles))
    rep = entropy_decomposition(m)
    k = probs.shape[2]
    assert np.all(rep.total >= -1e-12)
    assert np.all(rep.total <= np.log(k) + 1e-9)
    assert np.all(rep.epistemic >= -1e-9)
    assert np.allclose(rep.total, rep.aleatoric + rep.epistemic, atol=1e-9)


@given(
    arrays(float, st.integers(2, 8), elements=st.floats(-1e4, 0.0)),
    st.floats(-1e6, 1e6),
)
def test_island_weights_normalized_and_shift_invariant(log_zs, shift):
    def results(zs):
        return [
            RunResult(p=i, samples=np.zeros((1, 1)), log_z=z, epochs_per_particle=0.0)
            for i, z in enumerate(zs)
        ]

    w, excluded = island_weights(results(log_zs))
    assert not excluded
    assert np.all(w >= 0)
    assert abs(w.sum() - 1.0) < 1e-9
    w2, _ = island_weights(results(log_zs + shift))
    assert np.allclose(w, w2, atol=1e-9)


@given(
    st.lists(st.integers(1, 6), min_size=1, max_size=3),
    st.integers(2, 6),
    st.integers(0, 2**31 - 1),
)
def test_pack_unpack_roundtrip(widths, n_out, seed):
    spec = NetworkSpec(kind="mlp", widths=tuple(widths) + (n_out,))
    theta = np.random.default_rng(seed).normal(size=spec.n_params)
    assert np.array_equal(pack(spec, unpack(spec, theta)), theta)


@given(
    st.lists(st.integers(1, 5), min_size=1, max_size=2),
    st.integers(2, 5),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=25)
def test_forward_rows_are_distributions(widths, n_out, seed):
    spec = NetworkSpec(kind="mlp", widths=tuple(widths) + (n_out,))
    rng = np.random.default_rng(seed)
    p = forward(spec, rng.normal(size=spec.n_params), rng.normal(size=(3, widths[0])))
    assert np.all(p > 0)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)


@given(st.integers(1, 10**6), st.floats(1e-3, 10), st.sampled_from(["smc", "mcmc"]))
def test_config_text_round_trip(n, v, method):
    text = f"n = {n}\nv = {v!r}\nmethod = {method}\n"
    cfg = parse_config_text(text)
    assert cfg["n"] == n and cfg["v"] == v and cfg["method"] == method
    # serializing back as key=value lines re-parses identically
    dumped = "\n".join(f"{k} = {cfg[k]}" for k in sorted(cfg))
    assert parse_config_text(dumped) == cfg


@given(st.sampled_from(sorted(CONFIG_DEFAULTS)), st.integers(0, 1000))
def test_override_wins_over_default(key, value):
    if not isinstance(CONFIG_DEFAULTS[key], int) or isinstance(CONFIG_DEFAULTS[key], bool):
        return
    cfg = load_config(None, [f"{key}={value}"])
    assert cfg[key] == value
