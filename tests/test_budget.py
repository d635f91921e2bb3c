"""Evaluation budget: what a kernel step costs in calls into the likelihood
pair and in network passes, and the CNN/MLP likelihood pair whose value and
gradient come from one pass, so that an HMC step costs one pass per leapfrog
step."""

import numpy as np
import pytest

from anchormc import nets, smc
from anchormc.data import Dataset
from anchormc.kernels import HmcConfig, RowStreams, hmc_step, start_state
from anchormc.targets import GaussianPrior, TargetDensity, gaussian_loglik, make_anchored

from conftest import one_vector_log_probs

CNN = nets.NetworkSpec(kind="cnn", image_shape=(6, 6), conv_channels=2, n_classes=3)
MLP = nets.NetworkSpec(kind="mlp", widths=(5, 4, 3))


def labeled(spec, n=12, seed=0):
    rng = np.random.default_rng(seed)
    width = spec.widths[0] if spec.kind == "mlp" else 36
    shape = spec.image_shape if spec.kind == "cnn" else None
    return Dataset(x=rng.normal(size=(n, width)), y=rng.integers(0, 3, n), image_shape=shape)


class Counted:
    """A likelihood pair that counts the rows evaluated through each of its
    two functions, one per row of every bank it is called on."""

    def __init__(self, pair):
        self._ll, self._ll_and_grad = pair
        self.loglik_calls = 0
        self.pair_calls = 0

    def loglik(self, thetas):
        self.loglik_calls += len(thetas)
        return self._ll(thetas)

    def loglik_and_grad(self, thetas):
        self.pair_calls += len(thetas)
        return self._ll_and_grad(thetas)

    @property
    def calls(self):
        return (self.pair_calls, self.loglik_calls)

    @property
    def total(self):
        return self.pair_calls + self.loglik_calls


@pytest.fixture
def passes(monkeypatch):
    """Counts network passes, with or without a backward pass after, and
    the bank rows they take."""
    counts = {"passes": 0, "rows": 0}
    real = nets._network_pass

    def counting(spec, thetas, inputs, y, grad):
        counts["passes"] += 1
        counts["rows"] += len(thetas)
        return real(spec, thetas, inputs, y, grad)

    monkeypatch.setattr(nets, "_network_pass", counting)
    return counts


def gaussian_counted(d=20, seed=0):
    mean = np.random.default_rng(seed).normal(size=d)
    counted = Counted(gaussian_loglik(mean, 0.5))
    return counted, TargetDensity(counted.loglik, counted.loglik_and_grad, GaussianPrior(1.0, d))


def cnn_counted(seed=0):
    counted = Counted(nets.make_loglik(CNN, labeled(CNN)))
    anchor = np.random.default_rng(seed).normal(size=CNN.n_params) * 0.3
    posterior = TargetDensity(
        counted.loglik, counted.loglik_and_grad, GaussianPrior(0.1, CNN.n_params)
    )
    return counted, make_anchored(posterior, anchor, 0.1)


class TestHmcStepCost:
    @pytest.mark.parametrize("make", [gaussian_counted, cnn_counted], ids=["gaussian", "cnn"])
    @pytest.mark.parametrize("n_leapfrog", [1, 3])
    def test_l_gradients_and_one_value_per_step(self, make, n_leapfrog, passes):
        counted, target = make()
        cfg = HmcConfig(0.01, n_leapfrog)
        n = 3
        streams = RowStreams.seeded(1, n)
        thetas = target.prior.sample(np.random.default_rng(1), n)
        state, accepted = start_state(target, thetas, cfg), 0
        # the start state is value and gradient at each row, from one pair call
        assert counted.calls == (n, 0)
        for _ in range(11):
            before = counted.pair_calls
            state, acc = hmc_step(target, state, cfg, streams)
            accepted += acc
            # the value at the trajectory's end comes with its last gradient
            assert counted.calls == (before + n * n_leapfrog, 0)
        assert accepted > 0
        if target.dim == CNN.n_params:
            # one pass for the bank per call into loglik_and_grad and none besides
            assert passes["passes"] == 11 * n_leapfrog + 1
            assert passes["rows"] == n * (11 * n_leapfrog + 1)

    def test_cached_chain_equals_uncached_chain(self):
        for make in (gaussian_counted, cnn_counted):
            _, target = make()
            cfg = HmcConfig(0.05, 2)
            theta0 = target.prior.sample(np.random.default_rng(2), 3)
            streams_a, streams_b = RowStreams.seeded(3, 3), RowStreams.seeded(3, 3)
            a = b = start_state(target, theta0, cfg)
            for _ in range(20):
                a, acc_a = hmc_step(target, a, cfg, streams_a)
                b, acc_b = hmc_step(target, start_state(target, b.thetas, cfg), cfg, streams_b)
                assert acc_a == acc_b
                assert np.array_equal(a.thetas, b.thetas)
                for carried, evaluated in zip(a, start_state(target, a.thetas, cfg)):
                    assert np.array_equal(carried, evaluated)


# hmc=None: both samplers adapt the step size from their sweeps at no extra call
KERNELS = [dict(kernel="hmc", hmc=HmcConfig(0.1, 3)), dict(kernel="pcn"), dict(kernel="hmc")]


class TestReportedEvaluations:
    @pytest.mark.parametrize("kernel", KERNELS, ids=["hmc", "pcn", "hmc-adapted"])
    def test_run_smc_reports_counted_calls(self, kernel):
        counted, target = gaussian_counted()
        result = smc.run_smc(target, smc.SmcConfig(n_particles=8, seed=4, **kernel))
        assert result.epochs_per_particle == counted.total / 8

    @pytest.mark.parametrize("kernel", KERNELS, ids=["hmc", "pcn", "hmc-adapted"])
    def test_run_mcmc_reports_counted_calls(self, kernel):
        counted, target = gaussian_counted()
        result = smc.run_mcmc(target, smc.McmcConfig(n_chains=3, n_steps=12, seed=4, **kernel))
        assert result.epochs_per_particle == counted.total / 3

    # Exact calls of an SMC run on a fixed ladder: each particle's row of the
    # bank carries its likelihood pair across stages, so no stage
    # re-evaluates it.
    LADDER = (0.0, 0.05, 0.3, 1.0)

    def test_run_smc_budget_with_fixed_step_hmc(self):
        counted, target = gaussian_counted()
        n, n_leapfrog = 8, 3
        cfg = smc.SmcConfig(
            n_particles=n, seed=4, hmc=HmcConfig(0.1, n_leapfrog), fixed_schedule=self.LADDER
        )
        steps = sum(smc.run_smc(target, cfg).schedule.mutation_steps)
        # one pair per particle for the first cloud's state, then one pair
        # per leapfrog step, and no value-only call
        assert counted.calls == (n * (1 + n_leapfrog * steps), 0)

    def test_run_smc_budget_with_adapted_hmc(self):
        # hmc=None: the first cloud's pair, one leapfrog step per sweep, and
        # no other call
        counted, target = gaussian_counted()
        n = 8
        cfg = smc.SmcConfig(n_particles=n, seed=4, fixed_schedule=self.LADDER)
        steps = sum(smc.run_smc(target, cfg).schedule.mutation_steps)
        assert counted.calls == (n * (1 + steps), 0)

    def test_run_mcmc_budget_with_adapted_hmc(self):
        # each chain's pair at its start, then one leapfrog step per sweep,
        # and no value-only call
        counted, target = gaussian_counted()
        n, n_steps = 3, 12
        result = smc.run_mcmc(target, smc.McmcConfig(n_chains=n, n_steps=n_steps, seed=4))
        assert counted.calls == (n * (1 + n_steps), 0)
        assert result.epochs_per_particle == 1 + n_steps

    def test_run_smc_budget_with_pcn(self):
        counted, target = gaussian_counted()
        n = 8
        cfg = smc.SmcConfig(n_particles=n, seed=4, kernel="pcn", fixed_schedule=self.LADDER)
        steps = sum(smc.run_smc(target, cfg).schedule.mutation_steps)
        assert counted.calls == (0, n * (1 + steps))


class TestFusedLikelihood:
    @pytest.mark.parametrize("spec", [MLP, CNN], ids=["mlp", "cnn"])
    def test_value_equals_log_likelihood_and_grad(self, spec):
        data = labeled(spec)
        ll, ll_and_grad = nets.make_loglik(spec, data)
        rng = np.random.default_rng(5)
        for theta in rng.normal(size=(2, spec.n_params)) * 0.5:
            exact, grad = nets.log_likelihood_and_grad(spec, theta, data)
            assert ll(theta[None])[0] == exact  # forward-only pass
            (value,), (g,) = ll_and_grad(theta[None])
            assert value == exact
            assert np.array_equal(g, grad)
            assert ll(theta[None])[0] == exact  # nothing kept from the call before

    @pytest.mark.parametrize("spec", [MLP, CNN], ids=["mlp", "cnn"])
    def test_forward_equals_backprop_path(self, spec):
        # forward's probabilities are those of the pass that backprop
        # follows, bit for bit those of the one-vector pass
        x = labeled(spec, n=40, seed=6).x
        theta = np.random.default_rng(7).normal(size=spec.n_params)
        logp, _ = one_vector_log_probs(spec, theta, nets._network_input(spec, x))
        assert np.array_equal(nets.forward(spec, theta, x), np.exp(logp))
