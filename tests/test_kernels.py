import copy

import numpy as np
import pytest

from anchormc.kernels import (
    BankState,
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
    per_row,
)
from anchormc.toys import conjugate_posterior

from conftest import finite_difference_grad


def prior_only_target(prior):
    return TargetDensity(
        loglik=lambda th: np.zeros(len(th)),
        loglik_and_grad=lambda th: (np.zeros(len(th)), np.zeros_like(th)),
        prior=prior,
        lam=0.0,
    )


def std_gaussian_target(d=1):
    # prior-only target: N(0, 1)
    return prior_only_target(GaussianPrior(1.0, d))


def conjugate_target(a, sl, v):
    ll, ll_and_grad = gaussian_loglik(np.asarray(a, dtype=float), sl)
    return TargetDensity(loglik=ll, loglik_and_grad=ll_and_grad, prior=GaussianPrior(v, len(a)))


def grads(target, thetas):
    """The tempered gradient at each row, from the one-vector reference."""
    return np.array([target.grad_log_density(t) for t in thetas])


def rows_equal(a: BankState, b: BankState, i, j) -> bool:
    """Whether rows ``i`` of ``a`` and ``j`` of ``b`` hold the same entries."""
    return all(
        (x is None and y is None) or np.array_equal(x[i], y[j]) for x, y in zip(a, b)
    )


def run_bank(target, thetas, cfg, seeds, n_sweeps):
    """``n_sweeps`` sweeps of the bank ``thetas``, row i drawing from
    default_rng(seeds[i]); returns (thetas, accepted per sweep, state)."""
    rngs = [np.random.default_rng(s) for s in seeds]
    state, counts = None, []
    for _ in range(n_sweeps):
        thetas, n, state = sweep(target, thetas, cfg, rngs, state)
        counts.append(n)
    return thetas, counts, state


def chain_draws(target, cfg, n_chains, n_steps, d=1, seed=0):
    """Draws of a bank of chains started at zero: an (n_steps, n_chains, d)
    array."""
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n_chains)]
    thetas, state = np.zeros((n_chains, d)), None
    draws = np.empty((n_steps, n_chains, d))
    accepted = 0
    for t in range(n_steps):
        thetas, n, state = sweep(target, thetas, cfg, rngs, state)
        draws[t] = thetas
        accepted += n
    return draws, accepted


class TestLeapfrog:
    def test_tiny_step_is_identity(self, rng):
        t = std_gaussian_target(3)
        th, p = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        th2, p2, ok, _ = leapfrog(t, th, p, 1e-12, 1, grads(t, th))
        assert ok.all()
        assert np.allclose(th2, th, atol=1e-9)
        assert np.allclose(p2, p, atol=1e-9)

    def test_energy_error_small(self, rng):
        t = std_gaussian_target(1)
        th, p = rng.normal(size=(100, 1)), rng.normal(size=(100, 1))
        h0 = [-t.log_density(a) + 0.5 * b @ b for a, b in zip(th, p)]
        th2, p2, ok, end = leapfrog(t, th, p, 0.1, 10, grads(t, th))
        h1 = [-t.log_density(a) + 0.5 * b @ b for a, b in zip(th2, p2)]
        assert ok.all()
        assert np.max(np.abs(np.subtract(h1, h0))) < 1e-2
        # the state at the end is the reference log-density there
        assert np.array_equal(end.logp, [t.log_density(a) for a in th2])

    def test_reversibility(self, rng):
        t = conjugate_target(rng.normal(size=6), 0.7, 1.3)
        th, p = rng.normal(size=(3, 6)), rng.normal(size=(3, 6))
        th2, p2, _, end = leapfrog(t, th, p, 0.05, 8, grads(t, th))
        th3, p3, _, _ = leapfrog(t, th2, -p2, 0.05, 8, end.grad)
        assert np.allclose(th3, th, atol=1e-10)
        assert np.allclose(-p3, p, atol=1e-10)

    def test_volume_preservation(self, rng):
        # Jacobian of one leapfrog step in (theta, p) has determinant 1
        t = conjugate_target(rng.normal(size=2), 0.5, 1.0)

        def step(z):
            th, p, _, _ = leapfrog(t, z[None, :2], z[None, 2:], 0.1, 1, grads(t, z[None, :2]))
            return np.concatenate([th[0], p[0]])

        z0 = rng.normal(size=4)
        jac = np.column_stack(
            [finite_difference_grad(lambda z, i=i: step(z)[i], z0) for i in range(4)]
        ).T
        assert abs(np.linalg.det(jac) - 1.0) < 1e-6

    def test_divergent_gradient_flagged(self):
        # a NaN gradient in row 1 marks that row only
        t = TargetDensity(
            *per_row(
                lambda th: float(th[0]),
                lambda th: (float(th[0]), np.array([np.nan if th[0] > 0 else 1.0])),
            ),
            prior=GaussianPrior(1.0, 1),
        )
        _, _, ok, _ = leapfrog(t, np.array([[-5.0], [0.0]]), np.ones((2, 1)), 0.1, 1, np.zeros((2, 1)))
        assert ok.tolist() == [True, False]
        # and so is a row that leaves the finite reals with finite values
        with np.errstate(over="ignore", invalid="ignore"):
            _, _, ok, _ = leapfrog(
                std_gaussian_target(1), np.zeros((2, 1)), np.array([[1.0], [1e308]]), 10.0, 1,
                np.zeros((2, 1)),
            )
        assert ok.tolist() == [True, False]


class TestHmc:
    def test_gaussian_moments(self):
        draws, _ = chain_draws(std_gaussian_target(1), HmcConfig(0.05, 5), 10, 5000)
        assert abs(draws.mean()) < 0.05
        assert abs(draws.var() - 1.0) < 0.1

    def test_high_acceptance_at_small_step(self):
        _, accepted = chain_draws(std_gaussian_target(2), HmcConfig(0.01, 5), 20, 100, d=2, seed=1)
        assert accepted / 2000 > 0.9

    def test_huge_step_rejects(self):
        t = std_gaussian_target(2)
        th0 = np.tile([0.3, -0.2], (20, 1))
        th, counts, _ = run_bank(t, th0, HmcConfig(100.0), range(20), 10)
        assert sum(counts) / 200 < 0.02
        assert np.sum(np.any(th != th0, axis=1)) <= sum(counts)

    def test_non_finite_gradient_at_start_raises(self):
        # as for pCN at a NaN value: a non-finite value or gradient at the
        # chain's current state is an error, not a rejection
        t = TargetDensity(
            *per_row(lambda th: float(th[0]), lambda th: (float(th[0]), np.array([np.nan]))),
            prior=GaussianPrior(1.0, 1),
        )
        with pytest.raises(NonFiniteDensityError):
            hmc_step(t, np.zeros((1, 1)), HmcConfig(0.1), [np.random.default_rng(4)])


class TestPcn:
    @staticmethod
    def chain(target):
        return chain_draws(target, PcnConfig(0.3), 10, 5000, seed=6)[0].ravel()

    def test_prior_invariance_accepts_everything(self):
        target = prior_only_target(GaussianPrior(0.7, 1))
        draws, accepted = chain_draws(target, PcnConfig(0.5), 10, 2000, seed=4)
        assert accepted == draws.size
        assert draws.var() == pytest.approx(0.7, rel=0.05)

    def test_beta_one_is_independent_prior_draw(self):
        target = prior_only_target(GaussianPrior(1.0, 3))
        th = np.full((2, 3), 100.0)  # far from the prior: beta=1 must forget it
        th2, _, _ = pcn_step(target, th, PcnConfig(1.0), [np.random.default_rng(s) for s in (5, 6)])
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
            *per_row(
                lambda th: np.nan if th[0] > 0 else 0.0,
                lambda th: (np.nan if th[0] > 0 else 0.0, np.zeros_like(th)),
            ),
            prior=GaussianPrior(1.0, 1),
        )
        rngs = [np.random.default_rng(7), np.random.default_rng(8)]
        th, state = np.array([[-1.0], [-2.0]]), None
        for _ in range(50):
            th, _, state = pcn_step(target, th, PcnConfig(1.0), rngs, state)
            assert np.all(th <= 0) and np.all(state.ll == 0.0)
        with pytest.raises(NonFiniteDensityError):
            pcn_step(target, np.array([[-1.0], [1.0]]), PcnConfig(1.0), rngs)


class TestTuning:
    def test_adapted_step_size_rule(self):
        cfg = HmcConfig(0.2, 3)
        assert tune_step_size(cfg, 3, 4) == cfg  # at the target rate 0.75
        assert tune_step_size(cfg, 4, 4) == HmcConfig(0.2 * np.exp(0.25), 3)
        assert tune_step_size(cfg, 0, 4) == HmcConfig(0.2 * np.exp(-0.75), 3)

    @pytest.mark.parametrize("eps0", [1e-3, 5.0])
    def test_adapted_step_size_settles_near_the_target_rate(self, eps0):
        t = std_gaussian_target(5)
        rngs = [np.random.default_rng(s) for s in range(32)]
        thetas, state, cfg = t.prior.sample(np.random.default_rng(0), 32), None, HmcConfig(eps0)
        rates = []
        for _ in range(150):
            thetas, accepted, state = sweep(t, thetas, cfg, rngs, state)
            cfg = tune_step_size(cfg, accepted, len(thetas))
            rates.append(accepted / len(thetas))
        assert 0.65 <= np.mean(rates[50:]) <= 0.85


class Counted:
    """The conjugate likelihood pair with the rows it evaluates counted (in
    ``calls``), and optionally one row evaluation (by index, from 0, in call
    order) poisoned: its value NaN or +inf, or its gradient NaN."""

    def __init__(self, a, sl, poison_at=None, kind="nan"):
        self._pair = gaussian_loglik(np.asarray(a, dtype=float), sl)[1]
        self.calls, self.poison_at, self.kind = 0, poison_at, kind
        self.banks = []  # a copy of the bank of every call

    def loglik_and_grad(self, thetas):
        self.banks.append(np.array(thetas))
        values, grads = self._pair(thetas)
        row = -1 if self.poison_at is None else self.poison_at - self.calls
        if 0 <= row < len(thetas):
            if self.kind == "grad":
                grads[row] = np.nan
            else:
                values[row] = np.nan if self.kind == "nan" else np.inf
        self.calls += len(thetas)
        return values, grads

    def loglik(self, thetas):
        return self.loglik_and_grad(thetas)[0]

    def target(self, v=1.0, lam=1.0):
        return TargetDensity(self.loglik, self.loglik_and_grad, GaussianPrior(v, 2), lam=lam)


BANK_CASES = {
    "hmc": (HmcConfig(0.8, 3), 0.6),
    "pcn": (PcnConfig(0.6), 0.6),
    "hmc-L1": (HmcConfig(0.8, 1), 0.6),
    "hmc-lam0": (HmcConfig(0.8, 3), 0.0),
    "hmc-L1-lam0": (HmcConfig(0.8, 1), 0.0),
    "pcn-lam0": (PcnConfig(0.6), 0.0),
}


def reference_hmc_chain(target, theta, cfg, rng, n_steps):
    """One chain stepped alone with ``np.dot`` energies and the one-vector
    target methods: the per-chain form that a bank row must equal bit for bit."""
    accepted = 0
    for _ in range(n_steps):
        g = target.grad_log_density(theta)
        p0 = rng.standard_normal(theta.shape[0])
        h0 = -target.log_density(theta) + 0.5 * np.dot(p0, p0)
        th, p = theta, p0
        for _ in range(cfg.n_leapfrog):
            p = p + 0.5 * cfg.step_size * g
            th = th + cfg.step_size * p
            g = target.grad_log_density(th)
            p = p + 0.5 * cfg.step_size * g
        h1 = -target.log_density(th) + 0.5 * np.dot(p, p)
        if abs(h1 - h0) <= 1000.0 and np.log(rng.uniform()) < h0 - h1:
            theta, accepted = th, accepted + 1
    return theta, accepted


def reference_pcn_chain(target, theta, cfg, rng, n_steps):
    """One pCN chain stepped alone with the one-vector target methods."""
    accepted, lam = 0, target.lam / target.temperature
    sd = target.prior.marginal_std * np.sqrt(target.temperature)
    for _ in range(n_steps):
        xi = rng.normal(0.0, sd, size=theta.shape[0])
        prop = target.prior.mean + np.sqrt(1.0 - cfg.beta**2) * (theta - target.prior.mean) + cfg.beta * xi
        ll_prop, ll = target.log_likelihood(np.stack([prop, theta]))
        if lam == 0.0 or np.log(rng.uniform()) < lam * (ll_prop - ll):
            theta, accepted = prop, accepted + 1
    return theta, accepted


class TestReferenceChains:
    @pytest.mark.parametrize("case", BANK_CASES)
    def test_bank_rows_equal_chains_stepped_alone(self, case):
        # the reference draws the same numbers in the same order per chain;
        # its energies use np.dot and its tempering the one-vector methods
        cfg, lam = BANK_CASES[case]
        target = make_cold(conjugate_target([1.0, -0.5, 0.3], 0.3, 1.0), 0.8).with_lam(lam)
        start = np.random.default_rng(10).normal(size=(5, 3))
        bank, counts, _ = run_bank(target, start, cfg, range(5), 6)
        reference = reference_hmc_chain if isinstance(cfg, HmcConfig) else reference_pcn_chain
        accepted = 0
        for i in range(5):
            theta, n = reference(target, start[i], cfg, np.random.default_rng(i), 6)
            assert np.array_equal(bank[i], theta)
            accepted += n
        assert sum(counts) == accepted


class TestSweep:
    @pytest.mark.parametrize("case", BANK_CASES)
    def test_steps_each_row_with_its_own_rng_and_counts_acceptances(self, case):
        # an N-row bank equals N one-row banks in states, acceptances and
        # likelihood calls, at lam = 0 and inside (0, 1)
        cfg, lam = BANK_CASES[case]
        n, n_sweeps = 6, 4
        start = np.random.default_rng(9).normal(size=(n, 2))
        bank_lik = Counted([1.0, -0.5], 0.3)
        bank, counts, state = run_bank(bank_lik.target(lam=lam), start, cfg, range(n), n_sweeps)

        accepted = calls = 0
        for i in range(n):
            row_lik = Counted([1.0, -0.5], 0.3)
            row, row_counts, row_state = run_bank(row_lik.target(lam=lam), start[i : i + 1], cfg, [i], n_sweeps)
            assert np.array_equal(bank[i], row[0])
            assert rows_equal(state, row_state, i, 0)
            accepted += sum(row_counts)
            calls += row_lik.calls
        assert sum(counts) == accepted
        assert bank_lik.calls == calls
        # one call per row at its first step, then L per row per sweep (HMC
        # at lam = 0 calls only at the trajectory's end), one for pCN
        per_sweep = cfg.n_leapfrog if isinstance(cfg, HmcConfig) and lam > 0 else 1
        assert calls == n * (1 + per_sweep * n_sweeps)
        assert 0 < accepted
        if lam > 0:
            assert accepted < n * n_sweeps


def hmc_state(target, thetas):
    """The full HMC state of a bank, from the one-vector references."""
    ll, gl = target.log_likelihood_and_grad(thetas)
    return BankState(ll, gl, *target.temper(thetas, ll, gl))


class TestFailureIsolation:
    START = np.array([[0.2, -0.1], [0.9, 0.4], [-0.3, 0.5], [0.6, -0.8]])
    N_LEAPFROG = 3

    @pytest.mark.parametrize(
        "kernel, kind",
        [("hmc", "nan"), ("hmc", "inf"), ("hmc", "grad"), ("pcn", "nan"), ("pcn", "inf")],
    )
    def test_a_row_that_fails_mid_trajectory_is_rejected_alone(self, kernel, kind):
        # HMC calls rows 0-3 at each leapfrog step: call 6 is row 2 at the
        # second step. pCN makes one call per row: call 2 is row 2's proposal.
        hmc = kernel == "hmc"
        poisoned = Counted([1.0, -0.5], 0.3, poison_at=6 if hmc else 2, kind=kind)
        target = poisoned.target(lam=0.6)
        cfg = HmcConfig(0.3, self.N_LEAPFROG) if hmc else PcnConfig(0.5)
        reference = conjugate_target([1.0, -0.5], 0.3, 1.0).with_lam(0.6)
        state = hmc_state(reference, self.START) if hmc else BankState(
            reference.log_likelihood(self.START)
        )
        rngs = [np.random.default_rng(s) for s in range(4)]
        step = hmc_step if hmc else pcn_step
        thetas, n, out = step(target, self.START, cfg, rngs, state)

        # row 2 is rejected, keeps its state and drew no uniform
        assert np.array_equal(thetas[2], self.START[2])
        assert rows_equal(out, state, 2, 2)
        fresh = np.random.default_rng(2)
        fresh.standard_normal(2) if hmc else fresh.normal(size=2)
        assert rngs[2].uniform() == fresh.uniform()
        # and made no call after the failed one
        assert poisoned.calls == (4 * self.N_LEAPFROG - 1 if hmc else 4)

        # the other rows equal a bank run without row 2
        keep = [0, 1, 3]
        others, n_others, out_others = step(
            reference, self.START[keep], cfg,
            [np.random.default_rng(s) for s in keep],
            BankState(*(None if a is None else a[keep] for a in state)),
        )
        assert np.array_equal(thetas[keep], others)
        assert n == n_others
        assert rows_equal(out, out_others, keep, slice(None))

    @pytest.mark.parametrize("kernel", ["hmc", "pcn"])
    def test_non_finite_current_state_raises(self, kernel):
        nan_right = TargetDensity(
            *per_row(
                lambda th: np.nan if th[0] > 0 else 0.0,
                lambda th: (np.nan if th[0] > 0 else 0.0, np.zeros_like(th)),
            ),
            prior=GaussianPrior(1.0, 2),
        )
        cfg = HmcConfig(0.1) if kernel == "hmc" else PcnConfig(0.5)
        rngs = [np.random.default_rng(s) for s in range(2)]
        with pytest.raises(NonFiniteDensityError):
            sweep(nan_right, np.array([[-1.0, 0.0], [1.0, 0.0]]), cfg, rngs, None)

    def test_row_at_zero_likelihood_takes_its_first_finite_proposal(self):
        # theta_0 < 0 has log-likelihood -inf; row 0 starts there, row 1 not
        ll_and_grad = gaussian_loglik(np.array([0.5, -0.3]), 0.5)[1]

        def cut_and_grad(th):
            value, grad = ll_and_grad(th)
            return np.where(th[:, 0] >= 0, value, -np.inf), grad

        target = TargetDensity(lambda th: cut_and_grad(th)[0], cut_and_grad, GaussianPrior(1.0, 2))
        cfg = HmcConfig(0.3, 2)
        thetas = np.array([[-0.6, 0.0], [0.4, 0.1]])
        rngs = [np.random.default_rng(s) for s in (5, 6)]
        state = hmc_state(target, thetas)
        left = False
        for _ in range(30):
            probe = copy.deepcopy(rngs[0])
            p0 = probe.standard_normal(2)[None]
            prop, _, ok, end = leapfrog(target, thetas[:1], p0, 0.3, 2, state.grad[:1])
            at_zero = state.ll[0] == -np.inf
            thetas, _, state = hmc_step(target, thetas, cfg, rngs, state)
            if at_zero:
                # taken if and only if it has positive density, with no uniform drawn
                taken = bool(ok[0] and end.ll[0] > -np.inf)
                assert np.array_equal(thetas[0], prop[0]) == taken
                assert rngs[0].bit_generator.state == probe.bit_generator.state
                left |= taken
            else:
                assert state.ll[0] > -np.inf  # never back into the cut
        assert left
        # row 1 is the same as alone
        alone = np.array([[0.4, 0.1]])
        one_rng, one_state = [np.random.default_rng(6)], hmc_state(target, alone)
        for _ in range(30):
            alone, _, one_state = hmc_step(target, alone, cfg, one_rng, one_state)
        assert np.array_equal(thetas[1], alone[0])


class TestOneCallPerEvaluation:
    """Each evaluation in a sweep is one call into the likelihood pair, on the
    bank's live rows."""

    START = TestFailureIsolation.START
    CONFIGS = [HmcConfig(0.3, 3), PcnConfig(0.5)]

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["hmc", "pcn"])
    def test_calls_per_sweep(self, cfg):
        # the first sweep evaluates the start once, then L calls per HMC sweep
        # and one per pCN sweep, each on all four rows
        lik = Counted([1.0, -0.5], 0.3)
        run_bank(lik.target(lam=0.6), self.START, cfg, range(4), 3)
        per_sweep = cfg.n_leapfrog if isinstance(cfg, HmcConfig) else 1
        assert [len(bank) for bank in lik.banks] == [4] * (1 + 3 * per_sweep)
        assert np.array_equal(lik.banks[0], self.START)

    def test_a_row_that_fails_drops_out_of_the_next_call(self):
        # row evaluation 6 is row 2 at the second leapfrog step: its value
        # is NaN there, and the third step's call leaves it out
        reference = conjugate_target([1.0, -0.5], 0.3, 1.0).with_lam(0.6)
        banks = {}
        for poison_at in (None, 6):
            lik = Counted([1.0, -0.5], 0.3, poison_at=poison_at)
            rngs = [np.random.default_rng(s) for s in range(4)]
            state = hmc_state(reference, self.START)
            hmc_step(lik.target(lam=0.6), self.START, HmcConfig(0.3, 3), rngs, state)
            banks[poison_at] = lik.banks
        assert [len(bank) for bank in banks[None]] == [4, 4, 4]
        assert [len(bank) for bank in banks[6]] == [4, 4, 3]
        for bank, clean in zip(banks[6][:2], banks[None][:2]):
            assert np.array_equal(bank, clean)
        assert np.array_equal(banks[6][2], banks[None][2][[0, 1, 3]])

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["hmc", "pcn"])
    @pytest.mark.parametrize("kind", ["nan", "inf"])
    def test_a_non_finite_row_at_the_current_state_raises(self, cfg, kind):
        # row 2 of the start bank is NaN or +inf: an error, raised at the
        # one call that evaluates the start, before any step
        lik = Counted([1.0, -0.5], 0.3, poison_at=2, kind=kind)
        rngs = [np.random.default_rng(s) for s in range(4)]
        with pytest.raises(NonFiniteDensityError, match="at row 2"):
            sweep(lik.target(lam=0.6), self.START, cfg, rngs, None)
        assert len(lik.banks) == 1
