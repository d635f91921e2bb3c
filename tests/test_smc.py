import warnings

import numpy as np
import pytest
from scipy.stats import norm

from anchormc.kernels import HmcConfig, KernelCache, PcnConfig, sweep
from anchormc.smc import (
    McmcConfig,
    ParticleEnsemble,
    SmcConfig,
    TemperSchedule,
    ess,
    mutate,
    next_lambda,
    normalize_log_weights,
    reweight_and_resample,
    run_mcmc,
    run_smc,
    systematic_resample,
)
from anchormc.targets import GaussianPrior, TargetDensity, gaussian_loglik, make_cold
from anchormc.toys import conjugate_posterior


BOTH_KERNELS = pytest.mark.parametrize(
    "kernel", [dict(kernel="pcn"), dict(kernel="hmc", hmc=HmcConfig(0.3, 3))], ids=["pcn", "hmc"]
)


def constant_target(c, d=1, v=1.0):
    return TargetDensity(
        loglik=lambda th: c,
        loglik_and_grad=lambda th: (c, np.zeros_like(th)),
        prior=GaussianPrior(v, d),
    )


def conjugate_target(a, sl, v):
    a = np.asarray(a, dtype=float)
    ll, ll_and_grad = gaussian_loglik(a, sl)
    return TargetDensity(loglik=ll, loglik_and_grad=ll_and_grad, prior=GaussianPrior(v, a.size))


def truncated_target(a, sl, v):
    """``conjugate_target`` with zero likelihood (log-likelihood -inf) on
    theta_0 < 0."""
    ll_and_grad = gaussian_loglik(np.asarray(a, dtype=float), sl)[1]

    def cut_and_grad(th):
        value, grad = ll_and_grad(th)
        return (value if th[0] >= 0 else -np.inf), grad

    return TargetDensity(
        loglik=lambda th: cut_and_grad(th)[0],
        loglik_and_grad=cut_and_grad,
        prior=GaussianPrior(v, len(a)),
    )


def value_caches(loglik):
    """Kernel caches that hold only each particle's log-likelihood."""
    return [KernelCache(float(ll), None, None, None) for ll in loglik]


class TestEss:
    def test_uniform_weights(self):
        assert ess(np.full(10, 0.1)) == pytest.approx(10.0)

    def test_collapsed_weights(self):
        w = np.zeros(8)
        w[3] = 1.0
        assert ess(w) == pytest.approx(1.0)

    def test_hand_value(self):
        assert ess(np.array([0.8, 0.2])) == pytest.approx(1 / 0.68, rel=1e-12)

    def test_tiny_weight_squares_underflow_quietly(self):
        with np.errstate(all="raise"):
            assert ess(np.array([1e-200, 1.0])) == 1.0

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            ess(np.zeros(4))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            ess(np.array([0.5, 0.6]))


class TestNormalizeLogWeights:
    def test_matches_scipy_to_rounding(self, rng):
        from scipy.special import logsumexp, softmax

        a = rng.normal(scale=20.0, size=50) - 300.0
        log_norm, w = normalize_log_weights(a)
        assert log_norm == pytest.approx(logsumexp(a), rel=1e-14)
        assert np.allclose(w, softmax(a), rtol=1e-12, atol=0.0)

    def test_entries_beyond_745_nats_are_exactly_zero(self):
        with np.errstate(all="raise"):
            log_norm, w = normalize_log_weights(np.array([-2000.0, 0.0, -740.0]))
        assert w[0] == 0.0 and 0.0 < w[2] < 1e-300
        assert w.sum() == 1.0
        assert log_norm == pytest.approx(np.logaddexp(0.0, -740.0))


class TestNextLambda:
    def test_constant_loglik_jumps_to_one(self):
        assert next_lambda(np.full(16, -3.3), 0.0, 0.5) == 1.0

    def test_two_particles_clamp(self):
        # ESS is bounded below by (1+e^-h)^2/(1+e^-2h) > 1 = rho*N, so clamp to 1
        assert next_lambda(np.array([0.0, -5.0]), 0.0, 0.5) == 1.0

    def test_matches_dense_grid_scan(self, rng):
        from scipy.special import softmax

        ll = rng.normal(scale=30.0, size=64)
        lam_next = next_lambda(ll, 0.0, 0.5)
        assert 0 < lam_next <= 1
        achieved = ess(softmax(lam_next * ll))
        if lam_next < 1:
            assert abs(achieved - 32) <= 0.64
        # dense grid oracle: no earlier h reaches the floor
        grid = np.linspace(1e-6, lam_next, 2000)
        ess_grid = np.array([ess(softmax(h * ll)) for h in grid])
        assert ess_grid[:-1].min() >= 32 - 0.64

    @pytest.mark.parametrize("spread", [0.0, 5.0, 1e3, 1e6])
    def test_wide_spreads_raise_no_floating_point_error(self, rng, spread):
        ll = -1e4 + spread * rng.uniform(-1.0, 0.0, size=32)
        ens = ParticleEnsemble(particles=np.zeros((32, 1)), caches=value_caches(ll))
        with np.errstate(all="raise"):
            lam_next = next_lambda(ll, 0.0, 0.5)
            out = reweight_and_resample(ens, lam_next, rng, TemperSchedule())
        assert 0 < lam_next <= 1
        assert np.isfinite(out.log_z)

    def test_nonfinite_loglik_names_particle(self):
        ll = np.array([0.0, np.nan, 1.0])
        with pytest.raises(ValueError, match="particle 1"):
            next_lambda(ll, 0.0, 0.5)

    def test_plus_inf_raises_next_to_minus_inf(self):
        with pytest.raises(ValueError, match="particle 2"):
            next_lambda(np.array([0.0, -np.inf, np.inf]), 0.0, 0.5)

    def test_every_particle_at_minus_inf_rejected(self):
        with pytest.raises(ValueError, match="every particle"):
            next_lambda(np.full(4, -np.inf), 0.0, 0.5)


class TestSystematicResample:
    def test_uniform_weights_identity_offspring(self, rng):
        idx = systematic_resample(np.full(10, 0.1), rng)
        assert sorted(idx) == list(range(10))

    def test_expected_offspring_proportional(self):
        w = np.array([0.5, 0.3, 0.2])
        counts = np.zeros(3)
        for seed in range(2000):
            idx = systematic_resample(w, np.random.default_rng(seed))
            counts += np.bincount(idx, minlength=3)
        counts /= 2000
        assert np.allclose(counts, 3 * w, atol=0.05)


class TestReweightAndResample:
    def make_ensemble(self, loglik, v=1.0, seed=0):
        rng = np.random.default_rng(seed)
        n = len(loglik)
        return ParticleEnsemble(
            particles=rng.normal(size=(n, 1)),
            caches=value_caches(loglik),
        )

    def test_constant_likelihood_increment(self, rng):
        ens = self.make_ensemble(np.full(8, -2.5))
        out = reweight_and_resample(ens, 0.4, rng, TemperSchedule())
        assert out.log_z == pytest.approx(0.4 * -2.5, abs=1e-12)
        # constant weights: each particle survives exactly once
        assert sorted(map(tuple, out.particles)) == sorted(map(tuple, ens.particles))

    def test_extreme_log_weights_stay_finite(self, rng):
        ens = self.make_ensemble([-1e4, -1e4 + 3.0, -1e4 - 2.0])
        with np.errstate(all="raise"):
            out = reweight_and_resample(ens, 1.0, rng, TemperSchedule())
        expected = -1e4 + np.log((1.0 + np.exp(3.0) + np.exp(-2.0)) / 3.0)
        assert abs(out.log_z - expected) < 1e-9

    def test_degenerate_weights_warn_in_schedule(self, rng):
        sched = TemperSchedule()
        ens = self.make_ensemble([0.0, -1e6, -1e6, -1e6])
        reweight_and_resample(ens, 1.0, rng, sched)
        assert any("degenerate" in w for w in sched.warnings)

    def test_evidence_unbiased_on_conjugate_toy(self):
        # fixed two-step schedule keeps the estimator unbiased
        a, sl, v = np.array([1.0]), 0.8, 1.5
        _, _, log_ev = conjugate_posterior(a, sl, v)
        target = conjugate_target(a, sl, v)
        cfg = SmcConfig(
            n_particles=64,
            kernel="pcn",
            pcn=PcnConfig(0.7),
            fixed_schedule=(0.0, 0.5, 1.0),
        )
        from dataclasses import replace

        evs = []
        for seed in range(200):
            r = run_smc(target, replace(cfg, seed=seed))
            evs.append(np.exp(r.log_z))
        evs = np.array(evs)
        se = evs.std(ddof=1) / np.sqrt(len(evs))
        assert abs(evs.mean() - np.exp(log_ev)) < 3 * se


class TestMutate:
    def run_mutate(self, tol, max_steps=20, beta=1.0, seed=0):
        target = constant_target(0.0, d=2, v=1.0).with_lam(0.0)
        root = np.random.SeedSequence(seed)
        rngs = [np.random.default_rng(s) for s in root.spawn(16)]
        ens = ParticleEnsemble(particles=np.zeros((16, 2)), caches=value_caches(np.zeros(16)))
        m = mutate(ens, target, PcnConfig(beta), tol, max_steps, rngs, TemperSchedule())
        return ens, m

    def test_infinite_tolerance_stops_at_two(self):
        _, m = self.run_mutate(np.inf)
        assert m == 2

    def test_frozen_kernel_converges_immediately(self):
        # beta -> 0 is disallowed, so freeze via an HMC kernel with eps ~ 0
        target = constant_target(0.0, d=2, v=1.0).with_lam(0.0)
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(0).spawn(8)]
        ens = ParticleEnsemble(particles=np.ones((8, 2)), caches=value_caches(np.zeros(8)))
        m = mutate(ens, target, HmcConfig(1e-300), 0.01, 20, rngs, TemperSchedule())
        assert m == 2
        assert np.allclose(ens.particles, 1.0)

    def test_prior_draws_stabilize_at_prior_variance(self):
        ens, m = self.run_mutate(0.05, max_steps=50, beta=1.0, seed=3)
        assert m <= 50
        assert ens.particles.var() == pytest.approx(1.0, rel=0.35)


class TestCaches:
    @staticmethod
    def assert_current(ens, target):
        for theta, cache in zip(ens.particles, ens.caches):
            ll, gl = target.log_likelihood_and_grad(theta)
            assert cache.ll == ll
            assert cache.gl is None or np.array_equal(cache.gl, gl)

    @pytest.mark.parametrize("cfg", [PcnConfig(0.5), HmcConfig(0.2, 3)], ids=["pcn", "hmc"])
    def test_cached_pair_equals_a_fresh_call(self, cfg):
        target = conjugate_target([1.0, -0.5], 0.3, 1.0)
        rng = np.random.default_rng(11)
        rngs = [np.random.default_rng(s) for s in range(16)]
        particles = target.prior.sample(rng, 16)
        ens = ParticleEnsemble(particles, value_caches(map(target.log_likelihood, particles)))
        schedule = TemperSchedule()
        for lam in (0.3, 0.6, 1.0):
            ens = reweight_and_resample(ens, lam, rng, schedule)
            # resampling dropped some particles and duplicated others
            assert len(np.unique(ens.particles, axis=0)) < len(particles)
            self.assert_current(ens, target)
            mutate(ens, target.with_lam(lam), cfg, 0.05, 4, rngs, schedule)
            self.assert_current(ens, target)
            if isinstance(cfg, HmcConfig):
                assert all(c.gl is not None for c in ens.caches)


class TestRunSmc:
    def test_constant_likelihood_run(self):
        c = -1.7
        target = constant_target(c, d=2, v=0.5)
        r = run_smc(target, SmcConfig(n_particles=128, kernel="pcn", seed=0))
        assert r.log_z == pytest.approx(c, abs=1e-10)
        assert r.schedule.lambdas[-1] == 1.0
        assert r.particles.var() == pytest.approx(0.5, rel=0.2)

    def test_conjugate_posterior_mean(self):
        a, sl, v = np.array([1.0, -0.5]), 0.6, 1.2
        post_mean, post_var, _ = conjugate_posterior(a, sl, v)
        target = conjugate_target(a, sl, v)
        r = run_smc(
            target,
            SmcConfig(n_particles=256, kernel="hmc", hmc=HmcConfig(0.4, 3), seed=1),
        )
        se = r.particles.std(axis=0) / np.sqrt(256 / 4)
        assert np.all(np.abs(r.particles.mean(axis=0) - post_mean) < 3 * se + 0.05)

    def test_schedule_strictly_increasing_ends_at_one(self):
        target = conjugate_target(np.array([2.0]), 0.1, 1.0)
        r = run_smc(target, SmcConfig(n_particles=32, kernel="pcn", seed=5))
        lams = r.schedule.lambdas
        assert lams[0] == 0.0 and lams[-1] == 1.0
        assert all(b > a for a, b in zip(lams, lams[1:]))

    def test_bit_identical_given_seed(self):
        target = conjugate_target(np.array([1.0]), 0.5, 1.0)
        cfg = SmcConfig(n_particles=16, kernel="pcn", seed=9)
        r1, r2 = run_smc(target, cfg), run_smc(target, cfg)
        assert np.array_equal(r1.particles, r2.particles)
        assert r1.log_z == r2.log_z
        assert r1.schedule.lambdas == r2.schedule.lambdas

    @BOTH_KERNELS
    def test_zero_likelihood_region_gets_weight_zero(self, kernel):
        # exact log Z: the conjugate evidence times the posterior mass of theta_0 >= 0
        a, sl, v = np.array([0.5, -0.3]), 0.5, 1.0
        post_mean, post_var, log_z = conjugate_posterior(a, sl, v)
        log_z += norm.logcdf(post_mean[0] / np.sqrt(post_var))
        for seed in range(5):
            r = run_smc(truncated_target(a, sl, v), SmcConfig(n_particles=200, seed=seed, **kernel))
            assert np.all(r.particles[:, 0] >= 0)
            assert abs(r.log_z - log_z) <= 0.5

    @BOTH_KERNELS
    def test_zero_likelihood_particles_do_not_stall_the_first_stage(self, kernel):
        # about half the prior draws sit at -inf; the ESS target is taken over
        # the finite ones, so the first increment is not driven towards 0
        a, sl, v = np.array([0.5, -0.3]), 0.5, 1.0
        for seed in range(5):
            r = run_smc(truncated_target(a, sl, v), SmcConfig(n_particles=200, seed=seed, **kernel))
            assert r.schedule.lambdas[1] > 1e-3

    def test_fixed_schedule_is_run_as_given(self):
        target = conjugate_target(np.array([1.0]), 0.5, 1.0)
        r = run_smc(target, SmcConfig(n_particles=8, kernel="pcn", fixed_schedule=(0.0, 0.3, 1.0)))
        assert r.schedule.lambdas == [0.0, 0.3, 1.0]

    @pytest.mark.parametrize(
        "ladder", [(), (1.0,), (0.3, 1.0), (0.0, 0.5), (0.0, 0.5, 0.5, 1.0), (0.0, 1.2, 1.0)]
    )
    def test_fixed_schedule_must_rise_from_zero_to_one(self, ladder):
        with pytest.raises(ValueError, match="fixed schedule"):
            SmcConfig(fixed_schedule=ladder)

    def test_cold_target_is_refused(self):
        target = make_cold(conjugate_target(np.array([1.0]), 0.5, 1.0), 0.25)
        with pytest.raises(ValueError, match="method=mcmc"):
            run_smc(target, SmcConfig(n_particles=4, kernel="pcn"))


class TestRunMcmc:
    def test_moments_on_conjugate_target(self):
        a, sl, v = np.array([1.5]), 0.5, 1.0
        post_mean, post_var, _ = conjugate_posterior(a, sl, v)
        target = conjugate_target(a, sl, v)
        r = run_mcmc(
            target,
            McmcConfig(n_chains=64, n_steps=200, kernel="hmc", hmc=HmcConfig(0.5, 3), seed=2),
        )
        assert r.particles.mean() == pytest.approx(post_mean[0], abs=0.2)
        assert r.particles.var() == pytest.approx(post_var, rel=0.5)

    def test_deterministic(self):
        target = conjugate_target(np.array([1.0]), 0.5, 1.0)
        cfg = McmcConfig(n_chains=4, n_steps=20, kernel="pcn", seed=11)
        assert np.array_equal(run_mcmc(target, cfg).particles, run_mcmc(target, cfg).particles)

    @BOTH_KERNELS
    def test_chains_are_independent_of_the_bank_size(self, kernel):
        # each chain uses only its own rng and cache, so chain i is the same
        # whether it runs alone, first, or interleaved with others
        target = conjugate_target(np.array([1.0, -0.5]), 0.5, 1.0)
        small = run_mcmc(target, McmcConfig(n_chains=2, n_steps=15, seed=3, **kernel))
        large = run_mcmc(target, McmcConfig(n_chains=5, n_steps=15, seed=3, **kernel))
        assert np.array_equal(small.particles, large.particles[:2])

    @BOTH_KERNELS
    def test_chain_started_at_zero_likelihood_leaves_it(self, kernel):
        # at theta_0 = -0.5 the log-likelihood is -inf: every proposal of
        # positive density is accepted, silently, and none back into the cut
        target = truncated_target(np.array([0.5, -0.3]), 0.5, 1.0)
        cfg = kernel.get("hmc", PcnConfig(0.5))
        thetas, caches, rngs = np.array([[-0.5, 0.0]]), [None], [np.random.default_rng(5)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            accepted = sum(sweep(target, thetas, cfg, rngs, caches) for _ in range(50))
        assert accepted > 0
        assert thetas[0, 0] >= 0
        assert np.isfinite(caches[0].ll)
