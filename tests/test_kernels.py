import numpy as np
import pytest
from scipy import stats

from anchormc.kernels import (
    BankState,
    HmcConfig,
    PcnConfig,
    RowStreams,
    hmc_step,
    leapfrog,
    pcn_step,
    start_state,
    sweep,
    tune_step_size,
)
from anchormc.parallel import mix64
from anchormc.targets import (
    GaussianPrior,
    NonFiniteDensityError,
    TargetDensity,
    gaussian_loglik,
    make_cold,
)
from anchormc.toys import conjugate_posterior

from conftest import (
    GAMMA, MASK64, U53, finite_difference_grad, mix_reference, per_row, stream_normal, stream_uniform,
)

KEYS = RowStreams.seeded(0, 8).keys  # stream keys that tests give their rows


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


def rows_equal(a: BankState, b: BankState, i, j) -> bool:
    """Whether rows ``i`` of ``a`` and ``j`` of ``b`` hold the same entries."""
    return all(
        (x is None and y is None) or np.array_equal(x[i], y[j]) for x, y in zip(a, b)
    )


def take(state: BankState, idx) -> BankState:
    """The bank of rows ``idx`` of ``state``."""
    return BankState(*(None if a is None else a[idx] for a in state))


def run_bank(target, thetas, cfg, keys, n_sweeps):
    """``n_sweeps`` sweeps of the bank started at ``thetas``, row i drawing
    from the stream keyed keys[i]; returns (the bank, accepted per sweep)."""
    streams = RowStreams(keys)
    state, counts = start_state(target, thetas, cfg), []
    for _ in range(n_sweeps):
        state, n = sweep(target, state, cfg, streams)
        counts.append(n)
    return state, counts


def chain_draws(target, cfg, n_chains, n_steps, d=1, seed=0):
    """Draws of a bank of chains started at zero: an (n_steps, n_chains, d)
    array."""
    streams = RowStreams.seeded(seed, n_chains)
    state = start_state(target, np.zeros((n_chains, d)), cfg)
    draws = np.empty((n_steps, n_chains, d))
    accepted = 0
    for t in range(n_steps):
        state, n = sweep(target, state, cfg, streams)
        draws[t] = state.thetas
        accepted += n
    return draws, accepted


class TestLeapfrog:
    def test_tiny_step_is_identity(self, rng):
        t = std_gaussian_target(3)
        th, p, cfg = rng.normal(size=(4, 3)), rng.normal(size=(4, 3)), HmcConfig(1e-12)
        end, p2, ok = leapfrog(t, start_state(t, th, cfg), p, cfg)
        assert ok.all()
        assert np.allclose(end.thetas, th, atol=1e-9)
        assert np.allclose(p2, p, atol=1e-9)

    def test_energy_error_small(self, rng):
        t = std_gaussian_target(1)
        th, p = rng.normal(size=(100, 1)), rng.normal(size=(100, 1))
        h0 = [-t.log_density(a) + 0.5 * b @ b for a, b in zip(th, p)]
        cfg = HmcConfig(0.1, 10)
        end, p2, ok = leapfrog(t, start_state(t, th, cfg), p, cfg)
        th2 = end.thetas
        h1 = [-t.log_density(a) + 0.5 * b @ b for a, b in zip(th2, p2)]
        assert ok.all()
        assert np.max(np.abs(np.subtract(h1, h0))) < 1e-2
        # the state at the end is the likelihood pair there, and tempered
        # it gives the reference log-density
        assert np.array_equal(end.ll, t.log_likelihood(th2))
        assert np.array_equal(t.tempered_log_density(th2, end.ll), [t.log_density(a) for a in th2])

    def test_reversibility(self, rng):
        t = conjugate_target(rng.normal(size=6), 0.7, 1.3)
        th, p, cfg = rng.normal(size=(3, 6)), rng.normal(size=(3, 6)), HmcConfig(0.05, 8)
        end, p2, _ = leapfrog(t, start_state(t, th, cfg), p, cfg)
        back, p3, _ = leapfrog(t, end, -p2, cfg)
        assert np.allclose(back.thetas, th, atol=1e-10)
        assert np.allclose(-p3, p, atol=1e-10)

    def test_volume_preservation(self, rng):
        # Jacobian of one leapfrog step in (theta, p) has determinant 1
        t, cfg = conjugate_target(rng.normal(size=2), 0.5, 1.0), HmcConfig(0.1)

        def step(z):
            end, p, _ = leapfrog(t, start_state(t, z[None, :2], cfg), z[None, 2:], cfg)
            return np.concatenate([end.thetas[0], p[0]])

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
        cfg = HmcConfig(0.1)
        _, _, ok = leapfrog(t, start_state(t, np.array([[-5.0], [0.0]]), cfg), np.ones((2, 1)), cfg)
        assert ok.tolist() == [True, False]
        # and so is a row that leaves the finite reals with finite values
        t, cfg = std_gaussian_target(1), HmcConfig(10.0)
        p = np.array([[1.0], [1e308]])
        with np.errstate(over="ignore", invalid="ignore"):
            _, _, ok = leapfrog(t, start_state(t, np.zeros((2, 1)), cfg), p, cfg)
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
        end, counts = run_bank(t, th0, HmcConfig(100.0), RowStreams.seeded(0, 20).keys, 10)
        assert sum(counts) / 200 < 0.02
        assert np.sum(np.any(end.thetas != th0, axis=1)) <= sum(counts)

    def test_non_finite_gradient_at_start_raises(self):
        # as for pCN at a NaN value: a non-finite value or gradient at the
        # chain's start is an error, not a rejection
        t = TargetDensity(
            *per_row(lambda th: float(th[0]), lambda th: (float(th[0]), np.array([np.nan]))),
            prior=GaussianPrior(1.0, 1),
        )
        with pytest.raises(NonFiniteDensityError):
            start_state(t, np.zeros((1, 1)), HmcConfig(0.1))


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
        state = start_state(target, th, PcnConfig(1.0))
        end, _ = pcn_step(target, state, PcnConfig(1.0), RowStreams.seeded(5, 2))
        assert np.all(np.abs(end.thetas) < 10)

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
        # a NaN at the proposal is a rejection; at the start an error
        target = TargetDensity(
            *per_row(
                lambda th: np.nan if th[0] > 0 else 0.0,
                lambda th: (np.nan if th[0] > 0 else 0.0, np.zeros_like(th)),
            ),
            prior=GaussianPrior(1.0, 1),
        )
        streams = RowStreams.seeded(7, 2)
        state = start_state(target, np.array([[-1.0], [-2.0]]), PcnConfig(1.0))
        for _ in range(50):
            state, _ = pcn_step(target, state, PcnConfig(1.0), streams)
            assert np.all(state.thetas <= 0) and np.all(state.ll == 0.0)
        with pytest.raises(NonFiniteDensityError):
            start_state(target, np.array([[-1.0], [1.0]]), PcnConfig(1.0))


class TestTuning:
    def test_adapted_step_size_rule(self):
        cfg = HmcConfig(0.2, 3)
        assert tune_step_size(cfg, 3, 4) == cfg  # at the target rate 0.75
        assert tune_step_size(cfg, 4, 4) == HmcConfig(0.2 * np.exp(0.25), 3)
        assert tune_step_size(cfg, 0, 4) == HmcConfig(0.2 * np.exp(-0.75), 3)

    @pytest.mark.parametrize("eps0", [1e-3, 5.0])
    def test_adapted_step_size_settles_near_the_target_rate(self, eps0):
        t = std_gaussian_target(5)
        streams = RowStreams.seeded(0, 32)
        cfg = HmcConfig(eps0)
        state = start_state(t, t.prior.sample(np.random.default_rng(0), 32), cfg)
        rates = []
        for _ in range(150):
            state, accepted = sweep(t, state, cfg, streams)
            cfg = tune_step_size(cfg, accepted, 32)
            rates.append(accepted / 32)
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


def reference_hmc_chain(target, theta, cfg, stream, n_steps):
    """One chain stepped alone, drawing from the one-row ``stream``, with
    ``np.dot`` energies and the one-vector target methods: the per-chain form
    that a bank row must equal bit for bit."""
    accepted = 0
    for _ in range(n_steps):
        g = target.grad_log_density(theta)
        p0, u = stream_normal(stream, theta.shape[0])[0], stream_uniform(stream)[0]
        h0 = -target.log_density(theta) + 0.5 * np.dot(p0, p0)
        th, p = theta, p0
        for _ in range(cfg.n_leapfrog):
            p = p + 0.5 * cfg.step_size * g
            th = th + cfg.step_size * p
            g = target.grad_log_density(th)
            p = p + 0.5 * cfg.step_size * g
        h1 = -target.log_density(th) + 0.5 * np.dot(p, p)
        if abs(h1 - h0) <= 1000.0 and np.log(u) < h0 - h1:
            theta, accepted = th, accepted + 1
    return theta, accepted


def reference_pcn_chain(target, theta, cfg, stream, n_steps):
    """One pCN chain stepped alone, drawing from the one-row ``stream``, with
    the one-vector target methods."""
    accepted, lam = 0, target.lam / target.temperature
    sd = target.prior.marginal_std * np.sqrt(target.temperature)
    for _ in range(n_steps):
        xi, u = sd * stream_normal(stream, theta.shape[0])[0], stream_uniform(stream)[0]
        prop = target.prior.mean + np.sqrt(1.0 - cfg.beta**2) * (theta - target.prior.mean) + cfg.beta * xi
        ll_prop, ll = target.log_likelihood(np.stack([prop, theta]))
        if lam == 0.0 or np.log(u) < lam * (ll_prop - ll):
            theta, accepted = prop, accepted + 1
    return theta, accepted


class TestReferenceChains:
    @pytest.mark.parametrize("case", BANK_CASES)
    def test_bank_rows_equal_chains_stepped_alone(self, case):
        # the reference draws from a one-row stream with the row's key; its
        # energies use np.dot and its tempering the one-vector methods
        cfg, lam = BANK_CASES[case]
        target = make_cold(conjugate_target([1.0, -0.5, 0.3], 0.3, 1.0), 0.8).with_lam(lam)
        start = np.random.default_rng(10).normal(size=(5, 3))
        bank, counts = run_bank(target, start, cfg, KEYS[:5], 6)
        reference = reference_hmc_chain if isinstance(cfg, HmcConfig) else reference_pcn_chain
        accepted = 0
        for i in range(5):
            theta, n = reference(target, start[i], cfg, RowStreams(KEYS[i : i + 1]), 6)
            assert np.array_equal(bank.thetas[i], theta)
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
        bank, counts = run_bank(bank_lik.target(lam=lam), start, cfg, KEYS[:n], n_sweeps)

        accepted = calls = 0
        for i in range(n):
            row_lik = Counted([1.0, -0.5], 0.3)
            row, row_counts = run_bank(
                row_lik.target(lam=lam), start[i : i + 1], cfg, KEYS[i : i + 1], n_sweeps
            )
            assert np.array_equal(bank.thetas[i], row.thetas[0])
            assert rows_equal(bank, row, i, 0)
            accepted += sum(row_counts)
            calls += row_lik.calls
        assert sum(counts) == accepted
        assert bank_lik.calls == calls
        # one call per row for the start state, then L per row per sweep
        # (HMC at lam = 0 calls only at the trajectory's end), one for pCN
        per_sweep = cfg.n_leapfrog if isinstance(cfg, HmcConfig) and lam > 0 else 1
        assert calls == n * (1 + per_sweep * n_sweeps)
        assert 0 < accepted
        if lam > 0:
            assert accepted < n * n_sweeps


# Where row 2 of a four-row bank dies in an HMC sweep of L = 3 at lam = 0.6,
# where each leapfrog step evaluates, or at lam = 0, where only the last does:
# (lam, the poisoned row evaluation, by index from 0 in call order, the
# evaluated step it falls in).
DEATHS = {
    "first": (0.6, 2, 1),
    "middle": (0.6, 6, 2),
    "last": (0.6, 10, 3),
    "lam0": (0.0, 2, 1),
}


class TestFailureIsolation:
    START = np.array([[0.2, -0.1], [0.9, 0.4], [-0.3, 0.5], [0.6, -0.8]])
    N_LEAPFROG = 3

    @pytest.mark.parametrize(
        "kernel, kind",
        [("hmc", "nan"), ("hmc", "inf"), ("hmc", "grad"), ("pcn", "nan"), ("pcn", "inf")]
        + [(f"hmc-{death}", kind) for death in ("first", "last", "lam0") for kind in ("nan", "grad")],
    )
    def test_a_row_that_fails_mid_trajectory_is_rejected_alone(self, kernel, kind):
        # HMC calls rows 0-3 at each evaluated leapfrog step (DEATHS; plain
        # "hmc" is the middle one): call 6 is row 2 at the second step. pCN
        # makes one call per row: call 2 is row 2's proposal.
        hmc = kernel.startswith("hmc")
        lam, poison_at, step = DEATHS[kernel[4:] or "middle"] if hmc else (0.6, 2, 1)
        poisoned = Counted([1.0, -0.5], 0.3, poison_at=poison_at, kind=kind)
        target = poisoned.target(lam=lam)
        cfg = HmcConfig(0.3, self.N_LEAPFROG) if hmc else PcnConfig(0.5)
        reference = conjugate_target([1.0, -0.5], 0.3, 1.0).with_lam(lam)
        state = start_state(reference, self.START, cfg)
        streams = RowStreams(KEYS[:4])
        step_fn = hmc_step if hmc else pcn_step
        out, n = step_fn(target, state, cfg, streams)

        # row 2 is rejected and keeps its row of the bank
        assert np.array_equal(out.thetas[2], self.START[2])
        assert rows_equal(out, state, 2, 2)
        # every row used the sweep's fixed block: 2 normals (2 words), 1 uniform
        assert streams.counter == 3
        # and made no call after the failed one
        evaluated = (self.N_LEAPFROG if lam > 0 else 1) if hmc else 1
        assert poisoned.calls == 4 * step + 3 * (evaluated - step)

        # the other rows equal a bank run without row 2
        keep = [0, 1, 3]
        others, n_others = step_fn(reference, take(state, keep), cfg, RowStreams(KEYS[keep]))
        assert np.array_equal(out.thetas[keep], others.thetas)
        assert n == n_others
        assert rows_equal(out, others, keep, slice(None))

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
        with pytest.raises(NonFiniteDensityError):
            start_state(nan_right, np.array([[-1.0, 0.0], [1.0, 0.0]]), cfg)

    def test_row_at_zero_likelihood_takes_its_first_finite_proposal(self):
        # theta_0 < 0 has log-likelihood -inf; row 0 starts there, row 1 not
        ll_and_grad = gaussian_loglik(np.array([0.5, -0.3]), 0.5)[1]

        def cut_and_grad(th):
            value, grad = ll_and_grad(th)
            return np.where(th[:, 0] >= 0, value, -np.inf), grad

        target = TargetDensity(lambda th: cut_and_grad(th)[0], cut_and_grad, GaussianPrior(1.0, 2))
        cfg = HmcConfig(0.3, 2)
        streams = RowStreams(KEYS[:2])
        state = start_state(target, np.array([[-0.6, 0.0], [0.4, 0.1]]), cfg)
        left = False
        for _ in range(30):
            # row 0's momenta, from a one-row stream at the bank's counter
            probe = RowStreams(KEYS[:1])
            probe.counter = streams.counter
            end, _, ok = leapfrog(target, take(state, slice(0, 1)), probe.block(2)[0], cfg)
            at_zero = state.ll[0] == -np.inf
            state, _ = hmc_step(target, state, cfg, streams)
            if at_zero:
                # taken if and only if it has positive density
                taken = bool(ok[0] and end.ll[0] > -np.inf)
                assert np.array_equal(state.thetas[0], end.thetas[0]) == taken
                left |= taken
            else:
                assert state.ll[0] > -np.inf  # never back into the cut
        assert left
        # row 1 is the same as alone
        one_stream, alone = RowStreams(KEYS[1:2]), start_state(target, np.array([[0.4, 0.1]]), cfg)
        for _ in range(30):
            alone, _ = hmc_step(target, alone, cfg, one_stream)
        assert np.array_equal(state.thetas[1], alone.thetas[0])


class TestStateHoldsForEveryTarget:
    def test_a_state_from_one_target_steps_another_as_a_fresh_one(self):
        # the state an HMC step returns at lam = 0.6 is the likelihood pair,
        # which holds at lam = 0.3 and at T = 0.5 too: a step from it equals
        # a step from a freshly evaluated state, bit for bit
        base = conjugate_target([1.0, -0.5], 0.3, 1.0)
        cfg = HmcConfig(0.3, 3)
        start = TestFailureIsolation.START
        first = start_state(base, start, cfg)
        state, _ = hmc_step(base.with_lam(0.6), first, cfg, RowStreams(KEYS[:4]))
        for other in (base.with_lam(0.3), make_cold(base.with_lam(0.6), 0.5)):
            carried = hmc_step(other, state, cfg, RowStreams(KEYS[:4]))
            fresh_state = start_state(other, state.thetas, cfg)
            fresh = hmc_step(other, fresh_state, cfg, RowStreams(KEYS[:4]))
            assert np.array_equal(carried[0].thetas, fresh[0].thetas)
            assert carried[1] == fresh[1]
            assert rows_equal(carried[0], fresh[0], slice(None), slice(None))


class TestOneCallPerEvaluation:
    """Each evaluation in a sweep is one call into the likelihood pair, on the
    bank's live rows."""

    START = TestFailureIsolation.START
    CONFIGS = [HmcConfig(0.3, 3), PcnConfig(0.5)]

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["hmc", "pcn"])
    def test_calls_per_sweep(self, cfg):
        # start_state evaluates the start once, then L calls per HMC sweep
        # and one per pCN sweep, each on all four rows
        lik = Counted([1.0, -0.5], 0.3)
        run_bank(lik.target(lam=0.6), self.START, cfg, KEYS[:4], 3)
        per_sweep = cfg.n_leapfrog if isinstance(cfg, HmcConfig) else 1
        assert [len(bank) for bank in lik.banks] == [4] * (1 + 3 * per_sweep)
        assert np.array_equal(lik.banks[0], self.START)

    @pytest.mark.parametrize("death", DEATHS)
    def test_a_row_that_fails_drops_out_of_the_next_call(self, death):
        # row 2's value is NaN at one evaluated leapfrog step (DEATHS): the
        # calls up to that one take all four rows, every later call leaves it
        # out, and the rows they take are the clean run's
        lam, poison_at, step = DEATHS[death]
        reference = conjugate_target([1.0, -0.5], 0.3, 1.0).with_lam(lam)
        banks = {}
        for poison in (None, poison_at):
            lik = Counted([1.0, -0.5], 0.3, poison_at=poison)
            state = start_state(reference, self.START, HmcConfig(0.3, 3))
            hmc_step(lik.target(lam=lam), state, HmcConfig(0.3, 3), RowStreams(KEYS[:4]))
            banks[poison] = lik.banks
        evaluated = 3 if lam > 0 else 1
        assert [len(bank) for bank in banks[None]] == [4] * evaluated
        assert [len(bank) for bank in banks[poison_at]] == [4] * step + [3] * (evaluated - step)
        for bank, clean in zip(banks[poison_at][:step], banks[None][:step]):
            assert np.array_equal(bank, clean)
        for bank, clean in zip(banks[poison_at][step:], banks[None][step:]):
            assert np.array_equal(bank, clean[[0, 1, 3]])

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["hmc", "pcn"])
    @pytest.mark.parametrize("kind", ["nan", "inf"])
    def test_a_non_finite_row_at_the_current_state_raises(self, cfg, kind):
        # row 2 of the start bank is NaN or +inf: an error, raised at the
        # one call that evaluates the start, before any step
        lik = Counted([1.0, -0.5], 0.3, poison_at=2, kind=kind)
        with pytest.raises(NonFiniteDensityError, match="at row 2"):
            start_state(lik.target(lam=0.6), self.START, cfg)
        assert len(lik.banks) == 1


def unmix(w: int) -> int:
    """The z with mix_reference(z) == w: SplitMix64's output function inverted."""

    def unshift(y, s):  # the z with z ^ (z >> s) == y
        z = y
        for _ in range(64 // s):
            z = y ^ (z >> s)
        return z

    z = unshift(w, 31)
    z = unshift(z * pow(0x94D049BB133111EB, -1, 1 << 64) & MASK64, 27)
    return unshift(z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & MASK64, 30)


class TestRowStreams:
    def test_keys_are_mix64_of_seed_and_row(self):
        assert RowStreams.seeded(11, 6).keys.tolist() == [mix64(11, i) for i in range(6)]

    def test_words_are_splitmix64_from_each_key(self):
        # row i's n-th word is mix(keys[i] + n * gamma); a block of d = 3
        # normals takes four words, so the second block's uniform is the
        # tenth word (n = 9)
        streams = RowStreams(KEYS)
        streams.block(3)
        u = streams.block(3)[1]
        assert streams.counter == 10
        for i, key in enumerate(KEYS.tolist()):
            assert u[i] == ((mix_reference(key + 9 * GAMMA) >> 11) + 1) * U53

    @pytest.mark.parametrize("d", [1, 2, 7, 20, 560])
    def test_a_sweeps_block_is_normals_then_a_uniform_from_one_draw(self, d):
        # one draw of 2 * ceil(d / 2) + 1 words gives the bits of d normals
        # and then one uniform drawn apart, at the same counter
        streams, reference = RowStreams(KEYS), RowStreams(KEYS)
        streams.counter = reference.counter = 5
        z, u = streams.block(d)
        assert np.array_equal(z, stream_normal(reference, d))
        assert np.array_equal(u, stream_uniform(reference))
        assert z.shape == (len(KEYS), d) and u.shape == (len(KEYS),)
        assert streams.counter == reference.counter == 5 + 2 * ((d + 1) // 2) + 1

    def test_uniforms_lie_strictly_inside_the_unit_interval(self):
        # a block of one normal draws its uniform from the third word (n = 2):
        # the keys whose third word is 0 and 2^64 - 1 give the extremes
        assert mix_reference(unmix(0)) == 0 and mix_reference(unmix(MASK64)) == MASK64
        keys = [(unmix(w) - 2 * GAMMA) & MASK64 for w in (0, MASK64)]
        extremes = RowStreams(np.array(keys, dtype=np.uint64)).block(1)[1]
        assert extremes.tolist() == [U53, 1.0 - 2.0**-53]
        streams = RowStreams.seeded(1, 1000)
        u = np.concatenate([streams.block(1)[1] for _ in range(50)])
        assert np.all((0.0 < u) & (u < 1.0))
        assert stats.kstest(u, "uniform").pvalue > 1e-3

    def test_normals_match_standard_normal_moments(self):
        # odd and even d: Box-Muller's pairs, with the last sine dropped for odd d
        streams = RowStreams.seeded(2, 1000)
        z = np.concatenate([streams.block(d)[0].ravel() for d in (1, 2, 7, 50)])
        n = z.size
        mean, var, skew, kurt = stats.norm.stats(moments="mvsk")
        found = stats.describe(z)
        assert abs(found.mean - mean) < 4 * np.sqrt(1 / n)
        assert abs(found.variance - var) < 4 * np.sqrt(2 / n)
        assert abs(found.skewness - skew) < 4 * np.sqrt(6 / n)
        assert abs(found.kurtosis - kurt) < 4 * np.sqrt(24 / n)
        assert stats.kstest(z, "norm").pvalue > 1e-3

    def test_a_rows_draws_do_not_depend_on_the_bank(self):
        draws = {}
        for n in (1, 2, 5):
            streams = RowStreams.seeded(3, n)
            draws[n] = [*streams.block(3), *streams.block(4)]
        for n in (1, 2):
            for small, large in zip(draws[n], draws[5]):
                assert np.array_equal(small, large[:n])

    def test_adjacent_rows_draws_and_sweeps_are_uncorrelated(self):
        # 16 sweeps' blocks of 6 normals and a uniform over 4096 rows, the
        # uniforms standardised; no correlation beyond 4 standard errors
        streams = RowStreams.seeded(4, 4096)
        x = np.stack([
            np.column_stack([z, (u - 0.5) * np.sqrt(12.0)])
            for z, u in (streams.block(6) for _ in range(16))
        ])  # (sweeps, rows, draws)

        def assert_uncorrelated(a, b):
            assert abs(np.corrcoef(a.ravel(), b.ravel())[0, 1]) < 4 / np.sqrt(a.size)

        assert_uncorrelated(x[:, :-1], x[:, 1:])  # adjacent rows
        assert_uncorrelated(x[:-1], x[1:])  # adjacent sweeps
        assert_uncorrelated(x[..., :-1], x[..., 1:])  # adjacent draws of a row

    @pytest.mark.parametrize("case", BANK_CASES)
    def test_every_sweep_uses_the_same_block_of_every_stream(self, case):
        # d = 3 normals (4 words) and one uniform, at lam = 0 too and whether
        # or not a row reaches the accept test
        cfg, lam = BANK_CASES[case]
        streams = RowStreams(KEYS[:4])
        target = conjugate_target([1.0, -0.5, 0.3], 0.3, 1.0).with_lam(lam)
        state = start_state(target, np.zeros((4, 3)), cfg)
        for sweeps in range(1, 4):
            state, _ = sweep(target, state, cfg, streams)
            assert streams.counter == 5 * sweeps
