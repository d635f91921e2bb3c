import numpy as np
import pytest

from anchormc.kernels import (
    DivergentTrajectory,
    HmcConfig,
    PcnConfig,
    hmc_step,
    leapfrog,
    pcn_step,
    sweep,
    tune_step_size,
)
from anchormc.targets import (
    GaussianPrior,
    NonFiniteDensityError,
    TargetDensity,
    gaussian_loglik,
    make_cold,
)
from anchormc.toys import conjugate_posterior

from conftest import finite_difference_grad


def prior_only_target(prior):
    return TargetDensity(
        loglik=lambda th: 0.0,
        loglik_and_grad=lambda th: (0.0, np.zeros_like(th)),
        prior=prior,
        lam=0.0,
    )


def std_gaussian_target(d=1):
    # prior-only target: N(0, 1)
    return prior_only_target(GaussianPrior(1.0, d))


def conjugate_target(a, sl, v):
    ll, ll_and_grad = gaussian_loglik(np.asarray(a, dtype=float), sl)
    return TargetDensity(loglik=ll, loglik_and_grad=ll_and_grad, prior=GaussianPrior(v, len(a)))


class TestLeapfrog:
    def test_tiny_step_is_identity(self, rng):
        t = std_gaussian_target(3)
        th, p = rng.normal(size=3), rng.normal(size=3)
        th2, p2, _ = leapfrog(t, th, p, 1e-12, 1, t.grad_log_density(th))
        assert np.allclose(th2, th, atol=1e-9)
        assert np.allclose(p2, p, atol=1e-9)

    def test_energy_error_small(self, rng):
        t = std_gaussian_target(1)
        for _ in range(100):
            th, p = rng.normal(size=1), rng.normal(size=1)
            h0 = -t.log_density(th) + 0.5 * p @ p
            th2, p2, _ = leapfrog(t, th, p, 0.1, 10, t.grad_log_density(th))
            h1 = -t.log_density(th2) + 0.5 * p2 @ p2
            assert abs(h1 - h0) < 1e-2

    def test_reversibility(self, rng):
        t = conjugate_target(rng.normal(size=6), 0.7, 1.3)
        th, p = rng.normal(size=6), rng.normal(size=6)
        th2, p2, _ = leapfrog(t, th, p, 0.05, 8, t.grad_log_density(th))
        th3, p3, _ = leapfrog(t, th2, -p2, 0.05, 8, t.grad_log_density(th2))
        assert np.allclose(th3, th, atol=1e-10)
        assert np.allclose(-p3, p, atol=1e-10)

    def test_volume_preservation(self, rng):
        # Jacobian of one leapfrog step in (theta, p) has determinant 1
        t = conjugate_target(rng.normal(size=2), 0.5, 1.0)

        def step(z):
            th, p, _ = leapfrog(t, z[:2], z[2:], 0.1, 1, t.grad_log_density(z[:2]))
            return np.concatenate([th, p])

        z0 = rng.normal(size=4)
        jac = np.column_stack(
            [finite_difference_grad(lambda z, i=i: step(z)[i], z0) for i in range(4)]
        ).T
        assert abs(np.linalg.det(jac) - 1.0) < 1e-6

    def test_divergent_gradient_flagged(self):
        t = TargetDensity(
            loglik=lambda th: float(th[0]),
            loglik_and_grad=lambda th: (float(th[0]), np.array([np.nan])),
            prior=GaussianPrior(1.0, 1),
        )
        with pytest.raises(DivergentTrajectory):
            leapfrog(t, np.zeros(1), np.ones(1), 0.1, 1, np.zeros(1))


class TestHmc:
    def test_gaussian_moments(self):
        t = std_gaussian_target(1)
        rng = np.random.default_rng(0)
        cfg = HmcConfig(0.05, 5)
        th = np.zeros(1)
        cache = None
        samples = np.empty(50_000)
        for i in range(samples.size):
            th, _, cache = hmc_step(t, th, cfg, rng, cache)
            samples[i] = th[0]
        assert abs(samples.mean()) < 0.05
        assert abs(samples.var() - 1.0) < 0.1

    def test_high_acceptance_at_small_step(self):
        t = std_gaussian_target(2)
        rng = np.random.default_rng(1)
        th = np.zeros(2)
        cache = None
        accepted = 0
        for _ in range(2000):
            th, acc, cache = hmc_step(t, th, HmcConfig(0.01, 5), rng, cache)
            accepted += acc
        assert accepted / 2000 > 0.9

    def test_huge_step_rejects(self):
        t = std_gaussian_target(2)
        rng = np.random.default_rng(2)
        th0 = np.array([0.3, -0.2])
        th = th0
        accepted = 0
        for _ in range(200):
            th, acc, _ = hmc_step(t, th, HmcConfig(100.0), rng)
            accepted += acc
        assert accepted / 200 < 0.02
        assert np.allclose(th, th0) or accepted <= 2

    def test_non_finite_gradient_at_start_raises(self):
        # as for pCN at a NaN value: a non-finite value or gradient at the
        # chain's current state is an error, not a rejection
        t = TargetDensity(
            loglik=lambda th: float(th[0]),
            loglik_and_grad=lambda th: (float(th[0]), np.array([np.nan])),
            prior=GaussianPrior(1.0, 1),
        )
        with pytest.raises(NonFiniteDensityError):
            hmc_step(t, np.zeros(1), HmcConfig(0.1), np.random.default_rng(4))


class TestPcn:
    @staticmethod
    def chain(target, n=50_000):
        rng = np.random.default_rng(6)
        th = np.zeros(1)
        cache = None
        samples = np.empty(n)
        for i in range(n):
            th, _, cache = pcn_step(target, th, PcnConfig(0.3), rng, cache)
            samples[i] = th[0]
        return samples

    def test_prior_invariance_accepts_everything(self):
        target = prior_only_target(GaussianPrior(0.7, 1))
        rng = np.random.default_rng(4)
        th = np.zeros(1)
        cache = None
        samples = np.empty(20_000)
        accepted = 0
        for i in range(samples.size):
            th, acc, cache = pcn_step(target, th, PcnConfig(0.5), rng, cache)
            accepted += acc
            samples[i] = th[0]
        assert accepted == samples.size
        assert samples.var() == pytest.approx(0.7, rel=0.05)

    def test_beta_one_is_independent_prior_draw(self):
        target = prior_only_target(GaussianPrior(1.0, 3))
        rng = np.random.default_rng(5)
        th = np.full(3, 100.0)  # far from the prior: beta=1 must forget it
        th2, _, _ = pcn_step(target, th, PcnConfig(1.0), rng)
        assert np.all(np.abs(th2) < 10)

    def test_conjugate_posterior_moments(self):
        # 1-d Gaussian likelihood N(theta; 2, 0.5), prior N(0, 1)
        a, sl, v = 2.0, 0.5, 1.0
        post_var = 1 / (1 / sl + 1 / v)
        post_mean = post_var * a / sl
        samples = self.chain(conjugate_target([a], sl, v))
        se = samples.std() / np.sqrt(samples.size / 20)  # crude ESS discount for correlation
        assert abs(samples.mean() - post_mean) < 3 * se
        assert samples.var() == pytest.approx(post_var, rel=0.1)

    def test_cold_conjugate_posterior_moments(self):
        # at T the target is the posterior of likelihood variance sl*T and
        # prior variance v*T
        a, sl, v, t = 1.5, 0.5, 2.0, 0.25
        post_mean, post_var, _ = conjugate_posterior(np.array([a]), sl * t, v * t)
        samples = self.chain(make_cold(conjugate_target([a], sl, v), t))
        se = samples.std() / np.sqrt(samples.size / 20)
        assert abs(samples.mean() - post_mean[0]) < 3 * se
        assert samples.var() == pytest.approx(post_var, rel=0.1)

    def test_non_finite_likelihood(self):
        # a NaN at the proposal is a rejection; at the current state an error
        target = TargetDensity(
            loglik=lambda th: np.nan if th[0] > 0 else 0.0,
            loglik_and_grad=lambda th: (np.nan if th[0] > 0 else 0.0, np.zeros_like(th)),
            prior=GaussianPrior(1.0, 1),
        )
        rng = np.random.default_rng(7)
        th = np.array([-1.0])
        for _ in range(50):
            th, _, cache = pcn_step(target, th, PcnConfig(1.0), rng)
            assert th[0] <= 0 and cache.ll == 0.0
        with pytest.raises(NonFiniteDensityError):
            pcn_step(target, np.array([1.0]), PcnConfig(1.0), rng)


class TestTuning:
    def test_pilot_lands_in_band(self):
        t = std_gaussian_target(5)
        rng = np.random.default_rng(8)
        eps = tune_step_size(t, np.zeros(5), HmcConfig(1e-4), rng)
        th = np.zeros(5)
        cache = None
        accepted = 0
        for _ in range(2000):
            th, acc, cache = hmc_step(t, th, HmcConfig(eps), rng, cache)
            accepted += acc
        # pilot is short so the long-run rate can drift outside the exact band;
        # it must at least avoid the degenerate extremes
        assert 0.4 <= accepted / 2000 <= 0.995


class TestSweep:
    @pytest.mark.parametrize(
        "cfg, step", [(HmcConfig(0.8, 2), hmc_step), (PcnConfig(0.6), pcn_step)], ids=["hmc", "pcn"]
    )
    def test_steps_each_row_with_its_own_rng_and_counts_acceptances(self, cfg, step):
        target = conjugate_target([1.0, -0.5], 0.3, 1.0)
        start = np.random.default_rng(9).normal(size=(6, 2))
        bank, caches = start.copy(), [None] * 6
        rngs = [np.random.default_rng(s) for s in range(6)]
        counts = [sweep(target, bank, cfg, rngs, caches) for _ in range(4)]

        rngs = [np.random.default_rng(s) for s in range(6)]
        accepted = 0
        for i in range(6):
            theta, cache = start[i], None
            for _ in range(4):
                theta, acc, cache = step(target, theta, cfg, rngs[i], cache)
                accepted += acc
            assert np.array_equal(bank[i], theta)
        assert sum(counts) == accepted
        assert 0 < accepted < 24
