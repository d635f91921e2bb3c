import numpy as np
import pytest

from anchormc.kernels import HmcConfig
from anchormc.smc import SmcConfig
from anchormc.targets import (
    GaussianPrior,
    NonFiniteDensityError,
    TargetDensity,
    gaussian_loglik,
    make_anchored,
    make_cold,
    row_dots,
)

from conftest import finite_difference_grad, per_row


def quadratic_loglik():
    # l(theta) = -|theta|^2 / 2
    ll = lambda th: -0.5 * float(np.dot(th, th))
    return per_row(ll, lambda th: (ll(th), -th))


def constant_loglik(c):
    return per_row(lambda th: c, lambda th: (c, np.zeros_like(th)))


def posterior(d=2, v=0.1, loglik=None):
    ll, ll_and_grad = loglik if loglik is not None else quadratic_loglik()
    return TargetDensity(loglik=ll, loglik_and_grad=ll_and_grad, prior=GaussianPrior(v, d))


class TestLogDensity:
    def test_pure_anchored_prior_at_its_mean(self):
        # lam=0, s=0.1, v=0.1: prior variance 0.01, mode value -ln(2*pi*0.01) for d=2
        anchor = np.array([0.3, -0.7])
        t = make_anchored(posterior(d=2, v=0.1), anchor, 0.1).with_lam(0.0)
        assert t.log_density(anchor) == pytest.approx(-np.log(2 * np.pi * 0.01), abs=1e-12)

    def test_s_equals_one_recovers_posterior(self, rng):
        base = posterior(d=4, v=0.3)
        anchored = make_anchored(base, rng.normal(size=4), 1.0)
        for _ in range(100):
            th = rng.normal(size=4)
            assert anchored.log_density(th) == pytest.approx(base.log_density(th), abs=1e-12)

    def test_constant_likelihood_is_additive(self, rng):
        t = posterior(d=3, v=0.5, loglik=constant_loglik(-4.2))
        th = rng.normal(size=3)
        assert t.log_density(th) == pytest.approx(-4.2 + t.prior.log_density(th), abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            posterior(d=2).log_density(np.zeros(3))

    def test_nan_likelihood_raises(self):
        t = posterior(d=2, loglik=per_row(lambda th: np.nan, lambda th: (np.nan, th)))
        with pytest.raises(NonFiniteDensityError):
            t.log_density(np.zeros(2))

    def test_monotone_in_lam(self, rng):
        th = rng.normal(size=2)
        pos = posterior(d=2, loglik=constant_loglik(3.0))
        neg = posterior(d=2, loglik=constant_loglik(-3.0))
        lams = [0.0, 0.3, 0.7, 1.0]
        pos_vals = [pos.with_lam(l).log_density(th) for l in lams]
        neg_vals = [neg.with_lam(l).log_density(th) for l in lams]
        assert all(b > a for a, b in zip(pos_vals, pos_vals[1:]))
        assert all(b < a for a, b in zip(neg_vals, neg_vals[1:]))


def test_row_dots_sum_as_np_dot(rng):
    # a bank's energies and prior terms must have the bits of one chain's
    for d in (1, 2, 7, 20, 560):
        x = rng.normal(size=(16, d))
        assert np.array_equal(row_dots(x), [np.dot(r, r) for r in x])
        assert row_dots(x[3]) == np.dot(x[3], x[3])


def test_gaussian_loglik_rows_have_the_one_vector_bits(rng):
    # each row of a bank gets the bits of the per-vector formula
    for d in (1, 2, 7, 20, 560):
        mean, v = rng.normal(size=d), 0.37
        ll, ll_and_grad = gaussian_loglik(mean, v)
        thetas = rng.normal(size=(16, d))
        values, grads = ll_and_grad(thetas)
        log_norm = -0.5 * d * np.log(2 * np.pi * v)
        for theta, value, grad in zip(thetas, values, grads):
            r = theta - mean
            assert value == float(log_norm - 0.5 * np.dot(r, r) / v)
            assert np.array_equal(grad, -r / v)
        assert np.array_equal(ll(thetas), values)


class TestBankContract:
    BANK = np.array([[-1.0, 0.0], [1.0, 0.0], [-2.0, 0.5]])

    @staticmethod
    def nan_right(value=np.nan):
        return posterior(
            d=2,
            loglik=per_row(
                lambda th: value if th[0] > 0 else 0.0,
                lambda th: (value if th[0] > 0 else 0.0, np.zeros_like(th)),
            ),
        )

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_a_non_finite_row_raises_naming_it(self, value):
        t = self.nan_right(value)
        with pytest.raises(NonFiniteDensityError, match="at row 1"):
            t.log_likelihood(self.BANK)
        with pytest.raises(NonFiniteDensityError, match="at row 1"):
            t.log_likelihood_and_grad(self.BANK)
        assert np.array_equal(t.log_likelihood(self.BANK[[0, 2]]), [0.0, 0.0])

    def test_minus_inf_row_is_a_value(self):
        values = self.nan_right(-np.inf).log_likelihood(self.BANK)
        assert np.array_equal(values, [0.0, -np.inf, 0.0])

    def test_a_non_finite_gradient_row_raises_naming_it(self):
        pair = lambda th: (0.0, np.full(2, np.inf if th[0] < 0 else 0.0))  # rows 0 and 2
        t = posterior(d=2, loglik=per_row(lambda th: 0.0, pair))
        with pytest.raises(NonFiniteDensityError, match="gradient is non-finite at row 0"):
            t.log_likelihood_and_grad(self.BANK)

    def test_bank_shape_checked(self):
        t = posterior(d=2)
        for bad in (np.zeros(2), np.zeros((3, 3))):
            with pytest.raises(ValueError, match="shape"):
                t.log_likelihood(bad)
        # a per-vector function given where the bank form is expected
        scalar = TargetDensity(lambda th: 0.0, lambda th: (0.0, th), GaussianPrior(1.0, 2))
        with pytest.raises(ValueError, match=r"expected \(3,\)"):
            scalar.log_likelihood(self.BANK)

    def test_rows_are_independent(self, rng):
        # a row's value does not depend on the other rows of its bank
        t = posterior(d=3, loglik=gaussian_loglik(rng.normal(size=3), 0.4))
        bank = rng.normal(size=(6, 3))
        ll, gl = t.log_likelihood_and_grad(bank)
        for i in range(6):
            (one,), (g,) = t.log_likelihood_and_grad(bank[i : i + 1])
            assert one == ll[i] and np.array_equal(g, gl[i])


class TestGradient:
    def test_zero_at_anchored_prior_mode(self):
        anchor = np.array([1.0, -2.0])
        t = make_anchored(posterior(d=2, v=0.1), anchor, 0.1).with_lam(0.0)
        assert np.allclose(t.grad_log_density(anchor), 0.0)

    def test_matches_finite_differences(self, rng):
        ll = lambda th: float(np.sin(th).sum() - 0.1 * np.dot(th, th))
        ll_and_grad = lambda th: (ll(th), np.cos(th) - 0.2 * th)
        base = TargetDensity(*per_row(ll, ll_and_grad), prior=GaussianPrior(0.4, 6))
        for target in [
            base.with_lam(0.7),
            make_anchored(base, rng.normal(size=6), 0.2).with_lam(0.7),
            make_cold(base, 0.5),
        ]:
            for _ in range(20):
                th = rng.normal(size=6)
                num = finite_difference_grad(target.log_density, th)
                ana = target.grad_log_density(th)
                assert np.allclose(ana, num, rtol=1e-4, atol=1e-8)

    def test_quadratic_closed_form(self, rng):
        v = 0.5
        t = posterior(d=3, v=v)  # loglik -|th|^2/2
        th = rng.normal(size=3)
        assert np.allclose(t.grad_log_density(th), -th - th / v, atol=1e-12)

    def test_value_and_gradient_in_one_call(self, rng):
        # one likelihood call, tempered for each target, gives the same bits
        # as the log-density and its gradient evaluated directly
        base = posterior(d=3, v=0.5)
        anchored = make_anchored(base, rng.normal(size=3), 0.2)
        for target in [base, base.with_lam(0.0), anchored.with_lam(0.3), make_cold(anchored, 0.5)]:
            th = rng.normal(size=3)
            (ll,), (gl,) = target.log_likelihood_and_grad(th[None])
            assert ll == target.log_likelihood(th[None])[0]
            value, grad = target.tempered_log_density(th, ll), target.tempered_grad(th, gl)
            assert value == target.log_density(th)
            assert np.array_equal(grad, target.grad_log_density(th))
            # and on a bank, row by row
            bank = np.stack([th, -th])
            values = target.tempered_log_density(bank, np.array([ll, ll]))
            grads = target.tempered_grad(bank, np.stack([gl, gl]))
            assert values[0] == value and np.array_equal(grads[0], grad)

    @pytest.mark.parametrize("value, grad", [(np.nan, 0.0), (0.0, np.inf)], ids=["value", "grad"])
    def test_value_and_gradient_checked(self, value, grad):
        # the pair holds for every lam, so it is checked at lam = 0 too
        t = posterior(d=2, loglik=per_row(lambda th: value, lambda th: (value, np.full(2, grad))))
        for target in (t, t.with_lam(0.0)):
            with pytest.raises(NonFiniteDensityError):
                target.log_likelihood_and_grad(np.zeros((1, 2)))


class TestMakeAnchored:
    @pytest.mark.parametrize("s", [0.1, 0.5, 0.7, 1.0])
    def test_anchored_prior_parameters(self, s):
        # N(alpha * anchor, s*v) with alpha = 1{s < 1/2}
        anchor = np.array([1.0, 2.0])
        prior = make_anchored(posterior(d=2, v=0.1), anchor, s).prior
        alpha = 1.0 if s < 0.5 else 0.0
        assert np.array_equal(prior.mean, alpha * anchor)
        assert prior.variance == s * 0.1

    @pytest.mark.parametrize("s", [-0.1, 1.5])
    def test_s_out_of_range_rejected(self, s):
        with pytest.raises(ValueError):
            make_anchored(posterior(), np.zeros(2), s)

    def test_s_zero_is_the_point_mass_limit(self):
        with pytest.raises(ValueError, match="point-mass limit"):
            make_anchored(posterior(), np.zeros(2), 0.0)

    def test_anchoring_twice_rejected(self):
        anchored = make_anchored(posterior(d=2), np.array([1.0, 2.0]), 0.1)
        with pytest.raises(TypeError):
            make_anchored(anchored, np.zeros(2), 0.1)

    def test_anchored_prior_sampling_variance(self, rng):
        s, v = 0.2, 0.5
        prior = make_anchored(posterior(d=1, v=v), np.array([3.0]), s).prior
        draws = prior.sample(rng, 10_000)
        assert draws.var() == pytest.approx(s * v, rel=0.05)
        assert draws.mean() == pytest.approx(3.0, abs=0.02)


class TestMakeCold:
    def test_identity_temperature(self, rng):
        t = posterior(d=2)
        cold = make_cold(t, 1.0)
        th = rng.normal(size=2)
        assert cold.log_density(th) == t.log_density(th)

    def test_gaussian_tempering_closed_form(self, rng):
        # cold Gaussian posterior has variance T * sigma^2: log-density ratios scale by 1/T
        ll, ll_and_grad = gaussian_loglik(np.array([1.0]), 0.5)
        t = TargetDensity(loglik=ll, loglik_and_grad=ll_and_grad, prior=GaussianPrior(2.0, 1))
        cold = make_cold(t, 0.5)
        a, b = np.array([0.3]), np.array([-1.1])
        ratio = t.log_density(a) - t.log_density(b)
        cold_ratio = cold.log_density(a) - cold.log_density(b)
        assert cold_ratio == pytest.approx(ratio / 0.5, rel=1e-12)

    def test_linear_scaling_with_constant_likelihood(self, rng):
        t = posterior(d=2, loglik=constant_loglik(6.0))
        cold = make_cold(t, 2.0)
        th = rng.normal(size=2)
        assert cold.log_density(th) == pytest.approx(t.log_density(th) / 2.0, rel=1e-12)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError):
            make_cold(posterior(), 0.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: GaussianPrior(np.nan, 2),
        lambda: make_cold(posterior(), np.nan),
        lambda: HmcConfig(np.nan, 5),
        lambda: SmcConfig(mutation_tol=np.nan),
    ],
    ids=["variance", "temperature", "step_size", "mutation_tol"],
)
def test_a_nan_setting_is_refused(make):
    # NaN passes a "<= 0" check, so each is checked as "not > 0"
    with pytest.raises(ValueError, match="must be positive( and finite)?, got nan"):
        make()


@pytest.mark.parametrize(
    "make",
    [
        lambda: GaussianPrior(np.inf, 2),
        lambda: make_cold(posterior(), np.inf),
        lambda: HmcConfig(np.inf, 5),
    ],
    ids=["variance", "temperature", "step_size"],
)
def test_an_infinite_setting_is_refused(make):
    # inf passes a "> 0" check, so each is checked as "not 0 < x < inf"
    with pytest.raises(ValueError, match="must be positive and finite, got inf"):
        make()
