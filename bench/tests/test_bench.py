"""Tests of the benchmark itself: determinism of its counts, worker-count
independence, span arithmetic, check accounting, inputs and
``BENCHMARK.json``.

    python3 -m pytest bench/tests
"""

import json
import os
import re
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from anchormc import data, nets  # noqa: E402
from bench import inputs, probes  # noqa: E402
from bench.run import Run  # noqa: E402
from bench.spans import Tracer, covered, self_time  # noqa: E402
from bench.workloads import CliPipeline, CnnHmcIslands, GaussSmcHmc  # noqa: E402

COUNTS = (
    "nets.loglik_calls",
    "nets.grad_calls",
    "targets.loglik_calls",
    "targets.grad_calls",
    "targets.log_density_calls",
    "targets.grad_log_density_calls",
    "kernels.hmc_step_calls",
    "smc.stages",
    "smc.mutation_sweeps",
    "smc.evals_per_particle_step",
)


class SmallGauss(GaussSmcHmc):
    n_sub = 1
    dim = 5
    n_particles = 128


class SmallCnn(CnnHmcIslands):
    n_sub = 1
    n_train = 24
    n_val = 8
    opt = nets.OptConfig(learning_rate=0.1, max_epochs=3, patience=3)


def traced_call(workload, state, k=0):
    tracer = probes.new_tracer()
    call = workload.call(state, k, tracer)
    return call, probes.layer_metrics(tracer, call.outputs)


def test_same_seed_same_counts_and_outputs(tmp_path):
    w = SmallGauss()
    first_state = w.setup(3, str(tmp_path))
    second_state = w.setup(3, str(tmp_path))
    np.testing.assert_array_equal(first_state["a"], second_state["a"])
    a, ma = traced_call(w, first_state)
    b, mb = traced_call(w, second_state)
    untraced = w.call(first_state, 0)
    assert a.fingerprint == b.fingerprint == untraced.fingerprint
    assert {k: ma[k] for k in COUNTS} == {k: mb[k] for k in COUNTS}
    assert ma["targets.grad_calls"] > 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        per_layer = {m["name"] for m in json.load(f)["per_layer"]}
    assert set(ma) | {"trace.overhead_frac"} == per_layer


def test_cnn_counts_do_not_depend_on_workers(tmp_path):
    one, two = SmallCnn(), SmallCnn()
    one.workers, two.workers = 1, 2
    state = one.setup(5, str(tmp_path))
    a, ma = traced_call(one, state)
    b, mb = traced_call(two, state)
    assert a.fingerprint == b.fingerprint
    assert {k: ma[k] for k in COUNTS} == {k: mb[k] for k in COUNTS}
    assert ma["nets.grad_calls"] > 0 and mb["parallel.overlap"] > 0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_covered_merges_overlapping_children():
    assert covered(0, 10, []) == 0
    assert covered(0, 10, [(1, 3), (2, 5), (7, 8)]) == 5
    assert covered(2, 6, [(0, 3), (5, 9)]) == 2
    assert self_time(0, 10, [(1, 3), (2, 5), (7, 8)]) == 5


def test_self_time_on_synthetic_span_tree():
    clock = FakeClock()
    tracer = Tracer(clock=clock, keep_durations=("leaf",))
    # root [0, 10] > mid [1, 7] > leaf [2, 3] and leaf [4, 6]; leaf [8, 9] under root
    events = [
        (0, "root"), (1, "mid"), (2, "leaf"), (3, None), (4, "leaf"), (6, None),
        (7, None), (8, "leaf"), (9, None), (10, None),
    ]
    open_frames = []
    for t, name in events:
        clock.now = t
        if name is None:
            tracer.exit(open_frames.pop())
        else:
            open_frames.append(tracer.enter(name))
    assert tracer.get("root").total_s == 10 and tracer.get("root").self_s == 10 - 6 - 1
    assert tracer.get("mid").total_s == 6 and tracer.get("mid").self_s == 6 - 1 - 2
    assert tracer.get("leaf").count == 3 and tracer.get("leaf").self_s == 4
    assert sorted(tracer.get("leaf").durations) == [1, 1, 2]


def test_worker_thread_spans_nest_under_the_spawning_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    root = tracer.enter("run_parallel")  # t = 0

    def island(start, end):
        clock.now = start
        frame = tracer.enter("island")
        clock.now = end
        tracer.exit(frame)

    # two islands on two threads, overlapping in [2, 4]
    for start, end in ((1, 4), (2, 6)):
        t = threading.Thread(target=island, args=(start, end))
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
    clock.now = 8
    tracer.exit(root)
    assert tracer.get("island").total_s == 3 + 4
    assert tracer.get("run_parallel").self_s == 8 - 5  # union [1, 6]


def test_forced_check_failure_raises_error_rate(tmp_path):
    class Failing(SmallGauss):
        logz_tol = -1.0  # no estimate can meet it

    run = Run(Failing(), seed=1, seconds=0.0, trace=False, workdir=str(tmp_path))
    result = run.measure()
    assert run.checks_failed == {"log_z_within_tolerance": result["calls"]}
    assert result["error_rate"] == run.failed / run.checks_attempted > 0

    ok = Run(SmallGauss(), seed=1, seconds=0.0, trace=False, workdir=str(tmp_path))
    assert ok.measure()["error_rate"] == 0


def test_input_generator_meets_requested_counts(tmp_path):
    w = CliPipeline()
    state = w.setup(7, str(tmp_path))
    keep = list(range(8))
    paths = state["paths"]
    train = data.load_idx(paths["train_images"], paths["train_labels"])
    test = data.load_idx(paths["test_images"], paths["test_labels"])
    assert len(train.filter_labels(keep)) >= w.n_train + w.n_val
    assert len(test.filter_labels(keep)) >= w.n_test
    assert len(test.filter_labels([8, 9])) >= w.n_ood // 2
    pixels, labels = inputs.images(np.random.default_rng(7), 10, 3)
    again, again_labels = inputs.images(np.random.default_rng(7), 10, 3)
    assert np.array_equal(pixels, again) and np.array_equal(labels, again_labels)
    assert np.sum(labels < 8) == 10 and np.sum(labels >= 8) == 3


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_within_limits():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        doc = json.load(f)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8 and 1 <= len(doc["end_to_end"]) <= 16
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]] + [
        w["name"] for w in doc["workloads"]
    ]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert all(UNIT.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gauss-smc-hmc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
