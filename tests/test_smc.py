import warnings

import numpy as np
import pytest
from scipy.stats import norm

from anchormc import kernels, smc
from anchormc.kernels import BankState, HmcConfig, PcnConfig, RowStreams, start_state, sweep
from anchormc.parallel import run_parallel
from anchormc.smc import (
    McmcConfig,
    SmcConfig,
    ess,
    mutate,
    next_lambda,
    normalize_log_weights,
    reweight_and_resample,
    run_mcmc,
    run_smc,
    systematic_resample,
)
from anchormc.targets import (
    GaussianPrior,
    NonFiniteDensityError,
    TargetDensity,
    gaussian_loglik,
    make_cold,
)
from anchormc.toys import conjugate_posterior


BOTH_KERNELS = pytest.mark.parametrize(
    "kernel", [dict(kernel="pcn"), dict(kernel="hmc", hmc=HmcConfig(0.3, 3))], ids=["pcn", "hmc"]
)


def constant_target(c, d=1, v=1.0):
    return TargetDensity(
        loglik=lambda th: np.full(len(th), c),
        loglik_and_grad=lambda th: (np.full(len(th), c), np.zeros_like(th)),
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
        return np.where(th[:, 0] >= 0, value, -np.inf), grad

    return TargetDensity(
        loglik=lambda th: cut_and_grad(th)[0],
        loglik_and_grad=cut_and_grad,
        prior=GaussianPrior(v, len(a)),
    )


def value_bank(particles, loglik):
    """A bank of ``particles`` that holds only each one's log-likelihood."""
    return BankState(np.asarray(particles, dtype=float), np.array(list(loglik), dtype=float))


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

    @pytest.mark.parametrize("w", [[np.nan, np.nan], [0.5, np.nan], [np.inf, 0.0]])
    def test_non_finite_weights_rejected(self, w):
        with pytest.raises(ValueError, match="finite"):
            ess(np.array(w))


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
        with np.errstate(all="raise"):
            lam_next = next_lambda(ll, 0.0, 0.5)
            _, log_increment, _ = reweight_and_resample(
                value_bank(np.zeros((32, 1)), ll), 0.0, lam_next, rng
            )
        assert 0 < lam_next <= 1
        assert np.isfinite(log_increment)

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

    @pytest.mark.parametrize("cloud", ["spread", "minus-inf-rows", "few-finite-rows"])
    def test_equals_a_bisection_over_the_public_ess(self, cloud):
        # bit for bit, over random clouds: spreads up to 1e3 nats, rows at
        # -inf, and fewer finite rows than the ESS target taken over all rows
        rng = np.random.default_rng(27)
        with np.errstate(all="raise"):
            for _ in range(40):
                n, fraction = int(rng.integers(2, 200)), float(rng.uniform(0.1, 0.95))
                ll = rng.uniform(-1e3, 1e3) - 10.0 ** rng.uniform(0, 3) * rng.uniform(size=n)
                if cloud != "spread":
                    few = int(rng.integers(1, max(2, int(fraction * n))))
                    ll[rng.permutation(n)[few if cloud == "few-finite-rows" else n - n // 4 :]] = -np.inf
                lam = float(rng.uniform(0.0, 0.9))
                assert next_lambda(ll, lam, fraction) == reference_next_lambda(ll, lam, fraction)
                for h in rng.uniform(0.0, 1.0 - lam, size=5):  # and the ESS it bisects on
                    with np.errstate(under="ignore"):  # as next_lambda runs it
                        assert smc._ess_at(ll, h) == ess(normalize_log_weights(h * ll)[1])


def reference_next_lambda(loglik, lam, ess_fraction):
    """``next_lambda``'s bisection, its ESS at each increment h taken from
    the public ``normalize_log_weights`` and ``ess``."""

    def ess_at(h):
        return ess(normalize_log_weights(h * loglik)[1])

    n = np.count_nonzero(loglik > -np.inf)
    target, h_max = ess_fraction * n, 1.0 - lam
    if ess_at(h_max) >= target:
        return 1.0
    lo, hi = 0.0, h_max
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        e = ess_at(mid)
        if abs(e - target) <= 0.005 * n or hi - lo < 1e-12:
            break
        if e > target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-6 and abs(ess_at(0.5 * (lo + hi)) - target) <= 0.01 * n:
            break
    return lam + 0.5 * (lo + hi)


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
    @staticmethod
    def make_bank(loglik, seed=0):
        """A bank of random particles with the given log-likelihoods."""
        return value_bank(np.random.default_rng(seed).normal(size=(len(loglik), 1)), loglik)

    def test_constant_likelihood_increment(self, rng):
        state = self.make_bank(np.full(8, -2.5))
        out, log_increment, e = reweight_and_resample(state, 0.0, 0.4, rng)
        assert log_increment == pytest.approx(0.4 * -2.5, abs=1e-12)
        assert e == pytest.approx(8.0)
        # constant weights: each particle survives exactly once
        assert sorted(map(tuple, out.thetas)) == sorted(map(tuple, state.thetas))

    def test_extreme_log_weights_stay_finite(self, rng):
        state = self.make_bank([-1e4, -1e4 + 3.0, -1e4 - 2.0])
        with np.errstate(all="raise"):
            _, log_increment, _ = reweight_and_resample(state, 0.0, 1.0, rng)
        expected = -1e4 + np.log((1.0 + np.exp(3.0) + np.exp(-2.0)) / 3.0)
        assert abs(log_increment - expected) < 1e-9

    def test_degenerate_weights_give_an_ess_of_one(self, rng):
        _, _, e = reweight_and_resample(self.make_bank([0.0, -1e6, -1e6, -1e6]), 0.0, 1.0, rng)
        assert e == 1.0

    def test_degenerate_weights_warn_in_schedule(self):
        # one particle takes all the weight of the one stage, and a step of 1e6
        # then moves none: the run warns of both, degenerate weights first
        target = conjugate_target([40.0], 0.01, 1.0)
        cfg = SmcConfig(n_particles=4, hmc=HmcConfig(1e6), fixed_schedule=(0.0, 1.0), seed=0)
        schedule = run_smc(target, cfg).schedule
        assert schedule.ess[0] < 1.5
        assert schedule.warnings == [
            f"degenerate weights before resampling at lam=1 (ESS={schedule.ess[0]:.3g})",
            "mutation moved no particle at lam=1",
        ]

    def test_increment_is_taken_from_lam(self, rng):
        # the increment scales with lam_next - lam; lam must increase
        state = self.make_bank(np.full(4, -2.0))
        _, log_increment, _ = reweight_and_resample(state, 0.25, 0.75, rng)
        assert log_increment == pytest.approx(0.5 * -2.0, abs=1e-12)
        with pytest.raises(ValueError, match="lam must increase"):
            reweight_and_resample(state, 0.5, 0.5, rng)

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
        cfg = SmcConfig(
            mutation_tol=tol, max_mutation_steps=max_steps, kernel="pcn", pcn=PcnConfig(beta)
        )
        state, _, sweeps, _ = mutate(
            value_bank(np.zeros((16, 2)), np.zeros(16)), target, cfg.pcn, cfg,
            RowStreams.seeded(seed, 16),
        )
        return state.thetas, sweeps

    def test_infinite_tolerance_stops_at_two(self):
        _, m = self.run_mutate(np.inf)
        assert m == 2

    def test_frozen_kernel_converges_immediately(self):
        # beta -> 0 is disallowed, so freeze via an HMC kernel with eps ~ 0
        target = constant_target(0.0, d=2, v=1.0).with_lam(0.0)
        cfg = SmcConfig(mutation_tol=0.01, max_mutation_steps=20, hmc=HmcConfig(1e-300))
        state, kernel, sweeps, moved = mutate(
            start_state(target, np.ones((8, 2)), cfg.hmc), target, cfg.hmc, cfg,
            RowStreams.seeded(0, 8),
        )
        assert sweeps == 2
        assert np.allclose(state.thetas, 1.0)
        assert kernel == cfg.hmc  # a configured step size is not adapted
        assert not moved

    def test_a_stage_that_moves_no_particle_is_recorded(self):
        # a step of 1e6 is rejected for every particle: each stage ends at its
        # second sweep, with the ensemble where resampling left it
        cfg = SmcConfig(n_particles=16, hmc=HmcConfig(1e6), seed=0)
        schedule = run_smc(conjugate_target([1.0, -0.5, 0.3], 0.8, 1.5), cfg).schedule
        assert set(schedule.mutation_steps) == {2}
        moved_none = [w for w in schedule.warnings if w.startswith("mutation moved no particle")]
        assert moved_none == [
            f"mutation moved no particle at lam={lam:.6g}" for lam in schedule.lambdas[1:]
        ]

    def test_a_stage_that_moves_particles_says_so(self):
        target = constant_target(0.0, d=2, v=1.0).with_lam(0.0)
        cfg = SmcConfig(kernel="pcn", pcn=PcnConfig(0.5))
        *_, moved = mutate(
            value_bank(np.zeros((16, 2)), np.zeros(16)), target, cfg.pcn, cfg,
            RowStreams.seeded(0, 16),
        )
        assert moved

    def test_a_stage_that_moves_particles_records_no_warning(self):
        cfg = SmcConfig(n_particles=16, kernel="pcn", pcn=PcnConfig(0.5), seed=0)
        schedule = run_smc(conjugate_target([1.0, -0.5], 0.8, 1.5), cfg).schedule
        assert schedule.warnings == []

    def test_prior_draws_stabilize_at_prior_variance(self):
        particles, m = self.run_mutate(0.05, max_steps=50, beta=1.0, seed=3)
        assert m <= 50
        assert particles.var() == pytest.approx(1.0, rel=0.35)


SMC_KERNELS = pytest.mark.parametrize(
    "cfg",
    [
        SmcConfig(max_mutation_steps=4, kernel="pcn", pcn=PcnConfig(0.5)),
        SmcConfig(max_mutation_steps=4, hmc=HmcConfig(0.2, 3)),
    ],
    ids=["pcn", "hmc"],
)


class TestCaches:
    @staticmethod
    def assert_current(state, target):
        for i, (ll, gl) in enumerate(zip(*target.log_likelihood_and_grad(state.thetas))):
            assert state.ll[i] == ll
            assert state.gl is None or np.array_equal(state.gl[i], gl)

    @SMC_KERNELS
    def test_cached_pair_equals_a_fresh_call(self, cfg):
        target = conjugate_target([1.0, -0.5], 0.3, 1.0)
        rng = np.random.default_rng(11)
        streams = RowStreams.seeded(0, 16)
        start = target.prior.sample(rng, 16)
        kernel = cfg.pcn if cfg.kernel == "pcn" else cfg.hmc
        state, lam = start_state(target, start, kernel), 0.0
        for lam_next in (0.3, 0.6, 1.0):
            state, _, _ = reweight_and_resample(state, lam, lam_next, rng)
            lam = lam_next
            # resampling dropped some particles and duplicated others
            assert len(np.unique(state.thetas, axis=0)) < len(start)
            self.assert_current(state, target)
            state, *_ = mutate(state, target.with_lam(lam), kernel, cfg, streams)
            self.assert_current(state, target)
            if cfg.kernel == "hmc":
                assert state.gl is not None

    @SMC_KERNELS
    def test_stages_leave_their_inputs_unchanged(self, cfg):
        target = conjugate_target([1.0, -0.5], 0.3, 1.0)
        rng = np.random.default_rng(12)
        kernel = cfg.pcn if cfg.kernel == "pcn" else cfg.hmc
        state = start_state(target, target.prior.sample(rng, 16), kernel)

        def copies(state):
            return [None if a is None else a.copy() for a in state]

        def unchanged(state, before):
            return all(
                (a is None and b is None) or np.array_equal(a, b) for a, b in zip(state, before)
            )

        before = copies(state)
        resampled, _, _ = reweight_and_resample(state, 0.0, 0.3, rng)
        assert unchanged(state, before)
        before = copies(resampled)
        streams = RowStreams.seeded(0, 16)
        moved, *_ = mutate(resampled, target.with_lam(0.3), kernel, cfg, streams)
        assert unchanged(resampled, before)
        assert not np.array_equal(moved.thetas, resampled.thetas)


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

    def test_a_draw_at_zero_likelihood_with_a_non_finite_gradient_is_an_error(self):
        # the first cloud's state is checked at every draw, as every current
        # state is: HMC raises at a prior draw whose log-likelihood is -inf
        # and whose gradient is NaN, before resampling could drop it, as
        # MCMC does; pCN reads no gradient and runs
        def cut_and_grad(th):
            inside = th[:, 0] >= 0
            return np.where(inside, 0.0, -np.inf), np.where(inside[:, None], 0.0, np.nan) + th * 0

        target = TargetDensity(lambda th: cut_and_grad(th)[0], cut_and_grad, GaussianPrior(1.0, 2))
        hmc = dict(kernel="hmc", hmc=HmcConfig(0.3, 3))
        with pytest.raises(NonFiniteDensityError, match="gradient is non-finite"):
            run_smc(target, SmcConfig(n_particles=16, **hmc))
        with pytest.raises(NonFiniteDensityError, match="gradient is non-finite"):
            run_mcmc(target, McmcConfig(n_chains=16, n_steps=2, **hmc))
        r = run_smc(target, SmcConfig(n_particles=16, kernel="pcn"))
        assert np.all(r.particles[:, 0] >= 0)

    @pytest.mark.parametrize("ladder", [None, (0.0, 0.5, 1.0)], ids=["adaptive", "fixed"])
    def test_a_cloud_with_no_positive_weight_is_refused(self, ladder):
        # every particle at log-likelihood -inf: the fixed ladder raises the
        # adaptive one's error, with no floating-point warning, and the
        # island fails rather than returning log Z = nan
        target, cfg = constant_target(-np.inf, d=2), SmcConfig(n_particles=8, fixed_schedule=ladder)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="every particle has log-likelihood -inf"):
                run_smc(target, cfg)
            results = run_parallel(target, cfg, 2, base_seed=0)
        assert all(r.failed and "every particle" in r.error for r in results)

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

    @pytest.mark.parametrize("steps", [0, -1])
    def test_mutation_step_cap_below_one_is_refused(self, steps):
        # a cap of 0 would resample at every stage and never move a particle
        with pytest.raises(ValueError, match="max_mutation_steps"):
            SmcConfig(max_mutation_steps=steps)

    def test_cold_target_is_refused(self):
        target = make_cold(conjugate_target(np.array([1.0]), 0.5, 1.0), 0.25)
        with pytest.raises(ValueError, match="method=mcmc"):
            run_smc(target, SmcConfig(n_particles=4, kernel="pcn"))


class TestAdaptedStepSize:
    """hmc=None: both samplers adapt the HMC step size from the bank's
    acceptance (``kernels.tune_step_size``), SMC after every sweep and MCMC
    over the first half of its sweeps."""

    # the gauss-smc-hmc benchmark target: a 20-d conjugate Gaussian whose
    # data sit at the typical radius of a draw from the evidence
    D, LIK_VARIANCE, PRIOR_VARIANCE = 20, 0.05, 1.0

    def target_and_oracle(self, seed):
        u = np.random.default_rng(seed).standard_normal(self.D)
        a = u / np.linalg.norm(u) * np.sqrt(self.D * (self.LIK_VARIANCE + self.PRIOR_VARIANCE))
        oracle = conjugate_posterior(a, self.LIK_VARIANCE, self.PRIOR_VARIANCE)
        return conjugate_target(a, self.LIK_VARIANCE, self.PRIOR_VARIANCE), oracle

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_evidence_and_mean_on_the_20d_conjugate_target(self, seed):
        target, (post_mean, post_var, log_z) = self.target_and_oracle(seed)
        r = run_smc(target, SmcConfig(n_particles=128, kernel="hmc", seed=100 + seed))
        assert abs(r.log_z - log_z) <= 2.5
        assert np.all(np.abs(r.particles.mean(axis=0) - post_mean) <= 0.5 * np.sqrt(post_var))
        eps = r.schedule.step_sizes
        assert len(eps) == len(r.schedule.lambdas) - 1
        # the first stage starts at marginal_std * d^(-1/4), then the step shrinks with lam
        assert eps[0] == self.D**-0.25
        assert eps[-1] < eps[0]

    @pytest.fixture
    def sweeps(self, monkeypatch):
        """The bank size and kernel of every HMC step, made through
        ``kernels.sweep`` by any caller."""
        made, step = [], kernels.hmc_step

        def recorded(target, state, cfg, streams):
            made.append((len(state.thetas), cfg))
            return step(target, state, cfg, streams)

        monkeypatch.setattr(kernels, "hmc_step", recorded)
        return made

    def test_neither_sampler_makes_a_one_row_sweep(self, sweeps):
        target = conjugate_target(np.array([1.0, -0.5]), 0.5, 1.0)
        r = run_smc(target, SmcConfig(n_particles=8, kernel="hmc", seed=3))
        assert np.isfinite(r.log_z)
        assert [rows for rows, _ in sweeps] == [8] * sum(r.schedule.mutation_steps)
        sweeps.clear()
        run_mcmc(target, McmcConfig(n_chains=2, n_steps=3, kernel="hmc", seed=3))
        assert [rows for rows, _ in sweeps] == [2] * 3

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_mcmc_final_states_on_the_20d_conjugate_target(self, seed):
        target, (post_mean, post_var, _) = self.target_and_oracle(seed)
        n = 64
        r = run_mcmc(target, McmcConfig(n_chains=n, n_steps=80, kernel="hmc", seed=100 + seed))
        assert np.all(np.abs(r.particles.mean(axis=0) - post_mean) <= 4 * np.sqrt(post_var / n))
        assert 0.8 <= np.mean(r.particles.var(axis=0) / post_var) <= 1.2

    def test_mcmc_step_size_is_fixed_after_the_first_half(self, sweeps):
        target, _ = self.target_and_oracle(0)
        n_steps = 21
        # 15 chains: no sweep accepts exactly the target rate 0.75, so every
        # adaptation moves the step size
        run_mcmc(target, McmcConfig(n_chains=15, n_steps=n_steps, kernel="hmc", seed=5))
        eps = [cfg.step_size for _, cfg in sweeps]
        warmup = n_steps // 2
        assert len(eps) == n_steps and eps[0] == self.D**-0.25
        # sweep k runs with the step size adapted after sweeps 0 .. k-1
        assert all(a != b for a, b in zip(eps[:warmup], eps[1 : warmup + 1]))
        assert set(eps[warmup:]) == {eps[warmup]}

    @pytest.mark.parametrize(
        "kernel, per_stage",
        [(dict(kernel="hmc", hmc=HmcConfig(0.3, 3)), [0.3]), (dict(kernel="pcn"), [])],
        ids=["fixed-hmc", "pcn"],
    )
    def test_fixed_kernels_record_what_they_ran(self, kernel, per_stage):
        target = conjugate_target(np.array([1.0, -0.5]), 0.5, 1.0)
        schedule = run_smc(target, SmcConfig(n_particles=8, seed=3, **kernel)).schedule
        assert schedule.step_sizes == per_stage * (len(schedule.lambdas) - 1)


class ReusingPair:
    """The conjugate Gaussian likelihood pair, writing its outputs into one
    pair of buffers per bank size that every later call of that size
    overwrites, as a pair that keeps its work arrays may."""

    def __init__(self, a, sl):
        self._pair, self._buffers = gaussian_loglik(np.asarray(a, dtype=float), sl)[1], {}

    def loglik_and_grad(self, thetas):
        ll, gl = self._pair(thetas)
        out = self._buffers.setdefault(len(thetas), (np.empty(len(thetas)), np.empty(thetas.shape)))
        out[0][:], out[1][:] = ll, gl
        return out

    def loglik(self, thetas):
        return self.loglik_and_grad(thetas)[0]


class TestReusedOutputBuffers:
    @pytest.mark.parametrize("kernel", ["hmc", "pcn"])
    @pytest.mark.parametrize("sampler", ["smc", "mcmc"])
    def test_a_pair_that_reuses_its_buffers_gives_the_same_run(self, sampler, kernel):
        # the samplers hold only arrays of their own, so a pair's reused
        # buffers change no bit of a run
        a, prior = [0.5, -1.0, 0.25], GaussianPrior(1.0, 3)
        pair = ReusingPair(a, 0.5)
        fresh = conjugate_target(a, 0.5, 1.0)
        reused = TargetDensity(pair.loglik, pair.loglik_and_grad, prior)
        if sampler == "smc":
            run, cfg = run_smc, SmcConfig(n_particles=8, kernel=kernel, seed=5)
        else:
            run, cfg = run_mcmc, McmcConfig(n_chains=8, n_steps=30, kernel=kernel, seed=5)
        expected, found = run(fresh, cfg), run(reused, cfg)
        assert np.array_equal(found.particles, expected.particles)
        assert found.log_z == expected.log_z
        assert found.epochs_per_particle == expected.epochs_per_particle


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
        streams = RowStreams.seeded(5, 1)
        state = start_state(target, np.array([[-0.5, 0.0]]), cfg)
        assert state.ll[0] == -np.inf
        accepted = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(50):
                state, n = sweep(target, state, cfg, streams)
                accepted += n
        assert accepted > 0
        assert state.thetas[0, 0] >= 0
        assert np.isfinite(state.ll[0])
