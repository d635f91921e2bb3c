import os
import pickle
import signal
import time

import numpy as np
import pytest

from anchormc import nets, parallel
from anchormc.data import Dataset
from anchormc.kernels import HmcConfig, PcnConfig, splitmix64
from anchormc.parallel import (
    RunResult,
    island_weights,
    mix64,
    pool,
    run_parallel,
    standard_error,
)
from anchormc.smc import McmcConfig, SmcConfig, ess, run_smc
from anchormc.targets import GaussianPrior, TargetDensity, gaussian_loglik, make_anchored

from conftest import GAMMA, MASK64, mix_reference


def conjugate_target(a=(1.0,), sl=0.5, v=1.0):
    a = np.asarray(a, dtype=float)
    ll, ll_and_grad = gaussian_loglik(a, sl)
    return TargetDensity(loglik=ll, loglik_and_grad=ll_and_grad, prior=GaussianPrior(v, a.size))


def anchored_cnn_target(n=32, seed=0):
    """The anchored (s=0.1) posterior of an 8x8 CNN over 8 classes, on
    random images, anchored at a prior draw."""
    spec = nets.NetworkSpec(kind="cnn", image_shape=(8, 8), n_classes=8)
    rng = np.random.default_rng(seed)
    data = Dataset(x=rng.uniform(size=(n, 64)), y=rng.integers(0, 8, n), image_shape=(8, 8))
    prior = GaussianPrior(0.1, spec.n_params)
    ll, ll_and_grad = nets.make_loglik(spec, data)
    return make_anchored(TargetDensity(ll, ll_and_grad, prior), prior.sample(rng), 0.1)


def assert_same_islands(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert not x.failed and not y.failed
        assert np.array_equal(x.samples, y.samples)
        assert x.log_z == y.log_z
        assert x.epochs_per_particle == y.epochs_per_particle
        if x.schedule is None:
            assert y.schedule is None
        else:
            assert x.schedule.lambdas == y.schedule.lambdas
            assert x.schedule.ess == y.schedule.ess
            assert x.schedule.mutation_steps == y.schedule.mutation_steps


@pytest.fixture
def time_limit():
    """Fails the test, instead of hanging, after the given seconds. The
    alarm fires again every second until the test ends, so an island that
    turns the first ``TimeoutError`` into a failed island cannot hide a
    hang that follows."""

    def on_alarm(signum, frame):
        signal.alarm(1)
        raise TimeoutError("run_parallel did not return in time")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    yield signal.alarm
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def no_child_left(monkeypatch):
    """Fails a test that leaves a child process behind, running or ended,
    and kills and reaps it, so that it cannot hold up the tests after."""
    forked, fork = [], os.fork

    def recorded():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    yield
    left = []
    for pid in forked:
        try:
            ended = os.waitpid(pid, os.WNOHANG)[0]
        except ChildProcessError:  # reaped already: the expected case
            continue
        if not ended:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        left.append(pid)
    if left:
        pytest.fail(f"child processes outlived the test: {left}")


def pid_target(dim, in_child=None, in_caller=None):
    """A standard-normal likelihood on ``dim`` coordinates that first calls
    ``in_caller`` in the process that made it, and ``in_child`` in any
    other."""
    caller = os.getpid()

    def ll_and_grad(theta):
        hook = in_caller if os.getpid() == caller else in_child
        if hook is not None:
            hook()
        return -0.5 * np.sum(theta * theta, axis=1), -theta

    return TargetDensity(lambda th: ll_and_grad(th)[0], ll_and_grad, GaussianPrior(1.0, dim))


def fail_if_forked():
    raise AssertionError("an island ran outside the caller")


def make_result(p, samples, log_z=0.0):
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    return RunResult(p=p, samples=samples, log_z=log_z, epochs_per_particle=0.0)


class TestSeedDerivation:
    def test_distinct_streams(self):
        seeds = {mix64(0, p) for p in range(1000)}
        assert len(seeds) == 1000

    def test_word_order_matters(self):
        assert mix64(1, 2) != mix64(2, 1)

    def test_splitmix64_reference_value(self):
        # SplitMix64's first output from seed 0
        assert mix64(0) == 0xE220A8397B1DCDAF

    def test_scalar_and_array_forms_agree_with_the_loop_reference(self):
        def reference(*words):
            z = 0
            for w in words:
                z = mix_reference(z + (w & MASK64) + GAMMA)
            return z

        words = np.random.default_rng(0).integers(0, 2**64, size=(3, 500), dtype=np.uint64)
        found = splitmix64(words[0], words[1], words[2]).tolist()
        for (a, b, c), z in zip(words.T.tolist(), found):
            assert z == mix64(a, b, c) == reference(a, b, c)
        assert mix64(-1, 7) == reference(-1, 7)
        assert mix64() == 0


class TestRunParallel:
    def test_single_island_matches_direct_run(self):
        target = conjugate_target()
        cfg = SmcConfig(n_particles=16, kernel="pcn", pcn=PcnConfig(0.5))
        results = run_parallel(target, cfg, 1, base_seed=5)
        from dataclasses import replace

        direct = run_smc(target, replace(cfg, seed=mix64(5, 0)))
        assert np.array_equal(results[0].samples, direct.particles)
        assert results[0].log_z == direct.log_z

    def test_deterministic_across_worker_counts(self, time_limit):
        target = conjugate_target()
        cfg = McmcConfig(n_chains=4, n_steps=10, kernel="pcn")
        serial = run_parallel(target, cfg, 4, base_seed=1, workers=1)
        time_limit(60)
        for workers in (2, 3, 4):
            assert_same_islands(serial, run_parallel(target, cfg, 4, base_seed=1, workers=workers))

    def test_many_small_islands_go_out_in_contiguous_shares(self, monkeypatch, tmp_path, time_limit):
        # each island appends "<island> <pid>" to a log; the caller runs the first share
        log, run_island = tmp_path / "islands.log", parallel._run_island

        def logged(target, cfg, base_seed, p):
            with open(log, "a") as f:
                f.write(f"{p} {os.getpid()}\n")
            return run_island(target, cfg, base_seed, p)

        target = conjugate_target((2.0, -1.0), 0.1, 1.5)
        cfg = SmcConfig(
            n_particles=8, kernel="pcn", pcn=PcnConfig(0.5), fixed_schedule=(0.0, 0.3, 1.0),
            max_mutation_steps=2,
        )
        serial = run_parallel(target, cfg, 50, base_seed=11, workers=1)
        monkeypatch.setattr(parallel, "_run_island", logged)
        time_limit(60)
        for workers, sizes in ((2, [25, 25]), (3, [16, 17, 17])):
            log.unlink(missing_ok=True)
            forked = run_parallel(target, cfg, 50, base_seed=11, workers=workers)
            assert_same_islands(serial, forked)
            assert [r.p for r in forked] == list(range(50))
            pids = dict(map(int, line.split()) for line in log.read_text().splitlines())
            order = [pids[p] for p in range(50)]
            shares = [order[i] for i in range(50) if i == 0 or order[i] != order[i - 1]]
            assert len(shares) == len(set(shares)) == workers  # one contiguous range per process
            assert shares[0] == os.getpid()
            assert [order.count(pid) for pid in shares] == sizes

    @pytest.mark.parametrize(
        "cfg",
        [
            SmcConfig(n_particles=4, kernel="hmc", fixed_schedule=(0.0, 0.5, 1.0)),
            McmcConfig(n_chains=3, n_steps=20, kernel="pcn"),
        ],
        ids=["smc-hmc", "mcmc-pcn"],
    )
    def test_anchored_cnn_same_for_one_and_two_workers(self, cfg, time_limit):
        # the target holds closures over the data, which pickle cannot send:
        # the forked child inherits it
        target = anchored_cnn_target()
        with pytest.raises((AttributeError, pickle.PicklingError)):
            pickle.dumps(target)
        serial = run_parallel(target, cfg, 3, base_seed=7, workers=1)
        time_limit(60)
        forked = run_parallel(target, cfg, 3, base_seed=7, workers=2)
        assert_same_islands(serial, forked)

    def test_serial_where_fork_is_missing(self, monkeypatch, time_limit):
        cfg = SmcConfig(n_particles=8, kernel="pcn")
        time_limit(60)
        forked = run_parallel(pid_target(1), cfg, 2, base_seed=3, workers=2)
        monkeypatch.delattr(os, "fork")
        in_caller = pid_target(1, in_child=fail_if_forked)
        assert_same_islands(run_parallel(in_caller, cfg, 2, base_seed=3, workers=2), forked)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_fewer_than_one_worker_runs_serially(self, workers):
        cfg = SmcConfig(n_particles=8, kernel="pcn")
        serial = run_parallel(pid_target(1), cfg, 3, base_seed=3, workers=1)
        in_caller = pid_target(1, in_child=fail_if_forked)
        assert_same_islands(run_parallel(in_caller, cfg, 3, base_seed=3, workers=workers), serial)

    def test_dead_worker_fails_its_islands(self, time_limit):
        # 3 islands on 2 workers: the caller runs island 0, a child 1 and 2
        target = pid_target(2, in_child=lambda: os._exit(1))
        time_limit(60)
        results = run_parallel(target, McmcConfig(n_chains=2, n_steps=3, kernel="pcn"), 3, 0, workers=2)
        assert [r.p for r in results] == [0, 1, 2]
        assert not results[0].failed
        error = "ChildProcessError: islands 1-2: child process exit status 1"
        assert [r.error for r in results[1:]] == [error, error]

    @pytest.mark.parametrize("fate", ["returns", "exits", "killed", "interrupted"])
    def test_no_child_outlives_the_call(self, time_limit, fate):
        # 3 islands on 3 workers: the caller runs island 0, two children 1 and 2
        def interrupt():
            raise KeyboardInterrupt

        in_child, in_caller = {
            "returns": (None, None),
            "exits": (lambda: os._exit(1), None),
            "killed": (lambda: os.kill(os.getpid(), signal.SIGKILL), None),
            "interrupted": (lambda: time.sleep(60), interrupt),
        }[fate]
        target = pid_target(2, in_child, in_caller)
        cfg = McmcConfig(n_chains=2, n_steps=3, kernel="pcn")
        time_limit(60)
        if fate == "interrupted":
            with pytest.raises(KeyboardInterrupt):
                run_parallel(target, cfg, 3, 0, workers=3)
        else:
            results = run_parallel(target, cfg, 3, 0, workers=3)
            how = {
                "returns": None, "exits": "exit status 1", "killed": f"killed by signal {signal.SIGKILL.value}",
            }[fate]
            assert [r.error for r in results] == [None] + [
                how and f"ChildProcessError: islands {p}-{p}: child process {how}" for p in (1, 2)
            ]
        with pytest.raises(ChildProcessError):  # every child is reaped
            os.waitpid(-1, os.WNOHANG)

    def test_mcmc_islands_have_zero_log_z(self):
        target = conjugate_target()
        results = run_parallel(target, McmcConfig(n_chains=3, n_steps=5, kernel="pcn"), 2, 0)
        assert all(r.log_z == 0.0 for r in results)

    def test_failed_island_reported_not_raised(self):
        bad = TargetDensity(
            loglik=lambda th: np.full(len(th), np.nan),
            loglik_and_grad=lambda th: (np.full(len(th), np.nan), th),
            prior=GaussianPrior(1.0, 1),
        )
        results = run_parallel(bad, SmcConfig(n_particles=4, kernel="pcn"), 2, 0)
        assert all(r.failed for r in results)
        assert all(r.error for r in results)

    @pytest.mark.parametrize("hmc", [HmcConfig(0.1, 2), None], ids=["fixed", "adapted"])
    def test_nan_gradient_fails_the_island(self, hmc, time_limit):
        # a finite likelihood whose gradient is NaN: HMC cannot start a chain
        # there, with a fixed or an adapted step size, just as pCN cannot at a NaN value
        bad = TargetDensity(
            loglik=lambda th: -0.5 * np.sum(th * th, axis=1),
            loglik_and_grad=lambda th: (-0.5 * np.sum(th * th, axis=1), np.full_like(th, np.nan)),
            prior=GaussianPrior(1.0, 2),
        )
        cfg = SmcConfig(n_particles=4, kernel="hmc", hmc=hmc)
        time_limit(60)
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
