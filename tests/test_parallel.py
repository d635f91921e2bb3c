import numpy as np
import pytest

from anchormc.kernels import HmcConfig, PcnConfig
from anchormc.parallel import (
    RunResult,
    island_weights,
    mix64,
    pool,
    run_parallel,
    standard_error,
)
from anchormc.smc import McmcConfig, SmcConfig, ess, run_smc
from anchormc.targets import GaussianPrior, TargetDensity, gaussian_loglik


def conjugate_target(a=(1.0,), sl=0.5, v=1.0):
    a = np.asarray(a, dtype=float)
    ll, ll_and_grad = gaussian_loglik(a, sl)
    return TargetDensity(loglik=ll, loglik_and_grad=ll_and_grad, prior=GaussianPrior(v, a.size))


def make_result(p, samples, log_z=0.0):
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    return RunResult(p=p, samples=samples, log_z=log_z, epochs_per_particle=0.0)


class TestSeedDerivation:
    def test_distinct_streams(self):
        seeds = {mix64(0, p) for p in range(1000)}
        assert len(seeds) == 1000

    def test_word_order_matters(self):
        assert mix64(1, 2) != mix64(2, 1)


class TestRunParallel:
    def test_single_island_matches_direct_run(self):
        target = conjugate_target()
        cfg = SmcConfig(n_particles=16, kernel="pcn", pcn=PcnConfig(0.5))
        results = run_parallel(target, cfg, 1, base_seed=5)
        from dataclasses import replace

        direct = run_smc(target, replace(cfg, seed=mix64(5, 0)))
        assert np.array_equal(results[0].samples, direct.particles)
        assert results[0].log_z == direct.log_z

    def test_deterministic_across_worker_counts(self):
        target = conjugate_target()
        cfg = McmcConfig(n_chains=4, n_steps=10, kernel="pcn")
        serial = run_parallel(target, cfg, 4, base_seed=1, workers=1)
        threaded = run_parallel(target, cfg, 4, base_seed=1, workers=4)
        for a, b in zip(serial, threaded):
            assert np.array_equal(a.samples, b.samples)

    def test_mcmc_islands_have_zero_log_z(self):
        target = conjugate_target()
        results = run_parallel(target, McmcConfig(n_chains=3, n_steps=5, kernel="pcn"), 2, 0)
        assert all(r.log_z == 0.0 for r in results)

    def test_failed_island_reported_not_raised(self):
        bad = TargetDensity(
            loglik=lambda th: np.nan,
            loglik_and_grad=lambda th: (np.nan, th),
            prior=GaussianPrior(1.0, 1),
        )
        results = run_parallel(bad, SmcConfig(n_particles=4, kernel="pcn"), 2, 0)
        assert all(r.failed for r in results)
        assert all(r.error for r in results)

    @pytest.mark.parametrize("hmc", [HmcConfig(0.1, 2), None], ids=["fixed", "pilot"])
    def test_nan_gradient_fails_the_island(self, hmc):
        # a finite likelihood whose gradient is NaN: HMC cannot start a chain
        # there, with or without the pilot, just as pCN cannot at a NaN value
        bad = TargetDensity(
            loglik=lambda th: -0.5 * float(th @ th),
            loglik_and_grad=lambda th: (-0.5 * float(th @ th), np.full_like(th, np.nan)),
            prior=GaussianPrior(1.0, 2),
        )
        cfg = SmcConfig(n_particles=4, kernel="hmc", hmc=hmc)
        results = run_parallel(bad, cfg, 2, 0, workers=2)
        assert all(r.failed for r in results)
        assert all(r.error.startswith("NonFiniteDensityError:") for r in results)


class TestCombine:
    """The evidence-weighted estimate of a function of the parameters: the
    dot product of ``pool``'s particle weights with its values at the
    pooled samples."""

    def test_equal_log_z_is_plain_average(self):
        results = [make_result(0, [[1.0]], -5.0), make_result(1, [[3.0]], -5.0)]
        samples, weights, w, _ = pool(results)
        assert weights @ samples[:, 0] == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(w, 0.5)

    def test_huge_negative_log_z_no_overflow(self):
        results = [
            make_result(0, [[0.0]], -1e4),
            make_result(1, [[1.0]], -1e4 + np.log(3)),
        ]
        with np.errstate(all="raise"):
            samples, weights, w, _ = pool(results)
            estimate = weights @ samples[:, 0]
        assert np.allclose(w, [0.25, 0.75], atol=1e-10)
        assert np.isfinite(estimate)

    def test_island_beyond_underflow_gets_zero_weight(self):
        # exp(-800) is below the smallest double: the weaker island's weight
        # is exactly 0, and that underflow is not an error
        results = [
            make_result(0, [[7.0]], -1e4 - 800.0),
            make_result(1, [[1.0], [2.0]], -1e4),
        ]
        with np.errstate(all="raise"):
            samples, weights, w, _ = pool(results)
            estimate = weights @ samples[:, 0]
        assert np.array_equal(w, [0.0, 1.0])
        assert estimate == 1.5
        assert ess(w) == 1.0

    def test_single_island(self):
        samples, weights, w, _ = pool([make_result(0, [[2.0], [4.0]], -3.0)])
        assert w[0] == pytest.approx(1.0)
        assert weights @ samples[:, 0] == pytest.approx(3.0)

    def test_shift_invariance(self):
        base = [make_result(0, [[1.0]], -10.0), make_result(1, [[5.0]], -8.0)]
        shifted = [make_result(0, [[1.0]], -10.0 + 123.0), make_result(1, [[5.0]], -8.0 + 123.0)]
        a_samples, a_weights, _, _ = pool(base)
        b_samples, b_weights, _, _ = pool(shifted)
        assert abs(a_weights @ a_samples[:, 0] - b_weights @ b_samples[:, 0]) < 1e-12

    def test_dominant_island_takes_over(self):
        results = [make_result(0, [[1.0]], 0.0), make_result(1, [[9.0]], 100.0)]
        samples, weights, _, _ = pool(results)
        assert abs(weights @ samples[:, 0] - 9.0) < 1e-10

    def test_weights_sum_to_one(self):
        results = [make_result(p, [[float(p)]], -p * 2.0) for p in range(5)]
        w, _ = island_weights(results)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_nonfinite_log_z_excluded_with_warning(self):
        results = [make_result(0, [[1.0]], 0.0), make_result(1, [[9.0]], np.inf)]
        with pytest.warns(UserWarning, match="excluding"):
            samples, weights, _, excluded = pool(results)
        assert excluded == [1]
        assert weights @ samples[:, 0] == pytest.approx(1.0)

    def test_vector_phi(self):
        results = [make_result(0, [[1.0, 2.0]], 0.0), make_result(1, [[3.0, 4.0]], 0.0)]
        samples, weights, _, _ = pool(results)
        assert np.allclose(weights @ samples, [2.0, 3.0])


class TestPool:
    def test_spreads_island_weights(self, rng):
        s = rng.normal(size=(2, 3))
        results = [make_result(0, s, 0.0), make_result(1, s + 1, np.log(3.0))]
        samples, weights, w, excluded = pool(results)
        # island weights (0.25, 0.75) split over 2 particles each
        assert np.allclose(weights, [0.125, 0.125, 0.375, 0.375])
        assert np.array_equal(samples, np.concatenate([s, s + 1]))
        assert np.allclose(w, [0.25, 0.75])
        assert excluded == []

    def test_subnormal_island_weight_rounds_quietly(self):
        # an island 740 nats down has a subnormal weight; spreading it over
        # its particles underflows, which is not an error
        results = [make_result(0, np.zeros((4, 1)), -740.0), make_result(1, np.ones((4, 1)), 0.0)]
        with np.errstate(all="raise"):
            _, weights, w, _ = pool(results)
        assert 0.0 < w[0] < np.finfo(float).tiny
        assert weights.sum() == 1.0
        assert np.array_equal(weights[4:], np.full(4, 0.25))

    def test_excludes_failed_islands(self):
        failed = RunResult(p=1, samples=np.empty((0, 1)), log_z=0.0, epochs_per_particle=0.0, error="boom")
        with pytest.warns(UserWarning, match="excluding"):
            samples, weights, w, excluded = pool([make_result(0, [[1.0], [2.0]], -3.0), failed])
        assert excluded == [1]
        assert np.array_equal(samples, [[1.0], [2.0]])
        assert np.array_equal(weights, [0.5, 0.5])


class TestStandardError:
    def test_constant_series(self):
        mean, se = standard_error(np.full(10, 3.3))
        assert mean == pytest.approx(3.3)
        assert se == 0.0

    def test_hand_value(self):
        mean, se = standard_error(np.array([0.0, 2.0]))
        assert mean == 1.0
        assert se == pytest.approx(1.0 / np.sqrt(2), rel=1e-12)

    def test_clt_scaling(self):
        draws = np.random.default_rng(0).normal(size=1000)
        _, se = standard_error(draws)
        assert se == pytest.approx(1 / np.sqrt(1000), rel=0.2)

    def test_too_few_realizations(self):
        with pytest.raises(ValueError):
            standard_error(np.array([1.0]))
