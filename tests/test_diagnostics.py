import numpy as np
import pytest

from anchormc.diagnostics import acf, acf_table_csv, hmc_chain, iact
from anchormc.kernels import HmcConfig
from anchormc.targets import GaussianPrior, TargetDensity
from anchormc.toys import bimodal_toy


def ar1(phi, n, seed=0, sigma=1.0):
    rng = np.random.default_rng(seed)
    x = np.empty(n)
    x[0] = rng.normal()
    for t in range(1, n):
        x[t] = phi * x[t - 1] + sigma * rng.normal()
    return x


class TestAcf:
    def test_lag_zero_is_one(self, rng):
        assert acf(rng.normal(size=500), 20)[0] == pytest.approx(1.0, rel=1e-12)

    def test_matches_direct_biased_estimator(self, rng):
        x = rng.normal(size=300)
        rho = acf(x, 10)
        xc = x - x.mean()
        var = np.dot(xc, xc) / len(x)
        for s in range(11):
            direct = np.dot(xc[:-s or None], xc[s:]) / len(x) / var
            assert rho[s] == pytest.approx(direct, abs=1e-10)

    def test_white_noise_decorrelates(self, rng):
        rho = acf(rng.normal(size=20_000), 5)
        assert np.all(np.abs(rho[1:]) < 0.05)

    def test_ar1_matches_phi_powers(self):
        phi = 0.8
        rho = acf(ar1(phi, 200_000), 10)
        assert np.allclose(rho[1:6], phi ** np.arange(1, 6), atol=0.03)

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError):
            acf(np.ones(100), 10)

    def test_too_short_series_rejected(self):
        with pytest.raises(ValueError):
            acf(np.arange(10.0), 8)


class TestIact:
    def test_white_noise_near_one(self, rng):
        assert iact(rng.normal(size=50_000)) == pytest.approx(1.0, abs=0.15)

    def test_ar1_closed_form(self):
        # IACT of AR(1) is (1 + phi) / (1 - phi)
        for phi, tol in ((0.5, 0.3), (0.9, 2.5)):
            est = iact(ar1(phi, 400_000, seed=3), max_lag=2000)
            assert est == pytest.approx((1 + phi) / (1 - phi), abs=tol)

    def test_negative_correlation_truncates_to_one(self):
        # rho_1 < 0, so the first-negative rule stops the sum before any term
        x = ar1(-0.5, 100_000, seed=4)
        assert iact(x) == 1.0

    def test_truncates_at_first_negative(self):
        # alternating series: rho_1 < 0 so the sum stops immediately
        x = np.tile([1.0, -1.0], 200) + np.random.default_rng(0).normal(scale=0.01, size=400)
        assert iact(x, max_lag=50) == pytest.approx(1.0, abs=0.05)


class TestHmcChain:
    def test_shapes_and_rate(self):
        target = TargetDensity(
            loglik=lambda th: np.zeros(len(th)),
            loglik_and_grad=lambda th: (np.zeros(len(th)), np.zeros_like(th)),
            prior=GaussianPrior(1.0, 2),
            lam=0.0,
        )
        states, rate = hmc_chain(target, np.zeros(2), HmcConfig(0.3, 3), 200)
        assert states.shape == (200, 2)
        assert 0.0 <= rate <= 1.0

    def test_deterministic(self):
        target = bimodal_toy(s=1.0)
        a = hmc_chain(target, np.zeros(1), HmcConfig(0.2), 100, seed=5)
        b = hmc_chain(target, np.zeros(1), HmcConfig(0.2), 100, seed=5)
        assert np.array_equal(a[0], b[0])


class TestAcfCsv:
    def test_round_trip(self, tmp_path, rng):
        path = tmp_path / "acf.csv"
        series = {"x": rng.normal(size=1000), "y": ar1(0.7, 1000)}
        acf_table_csv(str(path), series, max_lag=20)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# iact:")
        assert lines[1] == "lag,x,y"
        assert len(lines) == 2 + 21
        row0 = lines[2].split(",")
        assert row0[0] == "0"
        assert float(row0[1]) == pytest.approx(1.0)
