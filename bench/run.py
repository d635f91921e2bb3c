"""anchormc benchmark: one command, three workloads, counted evaluations.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from ``src/`` of
that checkout, never from an installed copy. Metric names, units and order,
and the default run length, are read from ``BENCHMARK.json``. With
``--trace 0`` the run measures the end-to-end metrics with no probes
installed. With ``--trace 1`` it alternates untraced and traced runs of the
same sub-problems and reports the per-module metrics of the traced ones (see
``bench/probes.py``) plus the tracing overhead. Without ``--workload`` every
workload runs; without ``--trace`` both kinds of run are made. Each
(workload, trace) pair then runs in a child process of its own, so that
peak memory is that pair's alone. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One BLAS thread per island worker keeps workers x BLAS threads <= cores on
# the 2-core reference machine. Must be set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
SETUP_REPEATS = 3
REFERENCE_STEPS = 15000
IMPORT_PROGRAM = "import sys; sys.path.insert(0, sys.argv[1]); import anchormc.cli"


def _import_program():
    """Import anchormc from this checkout's ``src``; exit 2 without a result
    when it is not there."""
    if not os.path.isfile(os.path.join(SRC, "anchormc", "__init__.py")):
        print(f"bench: no anchormc sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    import anchormc

    if os.path.dirname(os.path.dirname(os.path.abspath(anchormc.__file__))) != SRC:
        print(f"bench: anchormc imported from {anchormc.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the whole CLI."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", IMPORT_PROGRAM, SRC], check=True, cwd=ROOT, timeout=120
    )
    return time.perf_counter() - t0


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    src_lines = 0
    for name in sorted(os.listdir(os.path.join(SRC, "anchormc"))):
        if name.endswith(".py"):
            with open(os.path.join(SRC, "anchormc", name)) as f:
                src_lines += sum(1 for _ in f)
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "src_anchormc_lines": src_lines,
    }


def _git_commit() -> str:
    """HEAD of the checkout read from ``.git`` directly; "unknown" when the
    checkout is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def reference_s() -> float:
    """Seconds of a fixed computation in the style of the workloads: a
    Python-level loop over small numpy vectors, with a 64x64 matrix product
    every tenth step. It takes about 0.1 s on the 2-vCPU reference host and
    uses nothing from ``anchormc``, so no change to the program moves it."""
    import numpy as np

    x = np.linspace(-1.0, 1.0, 20)
    a = np.eye(64) + np.outer(np.linspace(0.0, 1.0, 64), np.linspace(1.0, 0.0, 64))
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(REFERENCE_STEPS):
        y = x * 0.5 + 1.0
        acc += float(y @ y)
        if i % 10 == 0:
            a = np.tanh(a @ a * 1e-2)
    return time.perf_counter() - t0


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


class Run:
    """One benchmark run of one workload: set-up, then calls until the time
    is spent and at least one full cycle of sub-problems is done."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool, workdir: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.checks_attempted = 0
        self.checks_failed: dict[str, int] = {}
        self.fingerprints: dict[int, tuple] = {}

    def record(self, call) -> None:
        checks = dict(call.checks)
        first = self.fingerprints.setdefault(call.sub, call.fingerprint)
        checks["repeats_exactly"] = first == call.fingerprint
        for name, ok in checks.items():
            self.checks_attempted += 1
            if not ok:
                self.checks_failed[name] = self.checks_failed.get(name, 0) + 1

    @property
    def failed(self) -> int:
        return sum(self.checks_failed.values())

    def setup(self):
        """Set-up repeated SETUP_REPEATS times; returns (state, setup_s, tracer).
        In a traced run the last set-up is traced, for set-up work such as
        the MAP fit."""
        from bench.probes import instrument, new_tracer

        times, state, tracer = [], None, None
        for i in range(SETUP_REPEATS):
            imp = import_seconds()
            traced = self.trace and i == SETUP_REPEATS - 1
            tracer = new_tracer() if traced else None
            t0 = time.perf_counter()
            if traced:
                with instrument(tracer):
                    state = self.workload.setup(self.seed, self.workdir)
            else:
                state = self.workload.setup(self.seed, self.workdir)
            times.append(imp + time.perf_counter() - t0)
        return state, statistics.median(times), tracer

    def measure(self) -> dict:
        from bench.probes import layer_metrics, new_tracer

        state, setup_s, setup_tracer = self.setup()
        w = self.workload
        calls, cycles = [], []
        start = time.perf_counter()
        cycle_s = 0.0
        # a traced run ends on a whole cycle, and starts one only if it fits
        while not cycles and not calls or (
            time.perf_counter() - start + (cycle_s if self.trace else 0.0) < self.seconds
        ):
            cycle_start = time.perf_counter()
            tracer = new_tracer() if self.trace else None
            traced_calls, untraced_calls = [], []
            for k in range(w.n_sub):
                ref = reference_s()
                call = w.call(state, k)
                call.ref_s = ref
                self.record(call)
                untraced_calls.append(call)
                if tracer is not None:
                    tcall = w.call(state, k, tracer)
                    self.record(tcall)
                    traced_calls.append(tcall)
                elif calls and time.perf_counter() - start >= self.seconds:
                    break
            calls += untraced_calls
            if tracer is not None:
                cycles.append((tracer, traced_calls, untraced_calls))
            cycle_s = time.perf_counter() - cycle_start

        # Other tenants of the host change its speed by up to a factor of two,
        # for minutes at a time, so seconds from runs minutes apart differ by
        # more than any usable bound. Each call is therefore also measured in
        # units of the reference computation timed just before it, which the
        # same slow spells stretch. Over eight 25-second runs of one
        # gauss-smc-hmc sub-problem, the quartile distance of the median call
        # was 0.31 of its median in seconds and 0.05 in reference units; on
        # cli-pipeline 0.14 and 0.09; on cnn-hmc-islands, whose two island
        # threads the spells slow less, 0.11 in both. Each sub-problem counts
        # with the median of its repeats.
        by_sub: dict[int, list] = {}
        for c in calls:
            by_sub.setdefault(c.sub, []).append(c)

        def per_sub(value):
            return [statistics.median(value(c) for c in cs) for cs in by_sub.values()]

        steps = sum(cs[0].particle_steps for cs in by_sub.values())
        walls = [c.wall_s for c in calls]
        result = {
            "calls": len(calls),
            "call_list": calls,
            "setup_s": setup_s,
            "wall_ref": statistics.fmean(per_sub(lambda c: c.wall_s / c.ref_s)),
            "particle_steps_per_ref": steps / sum(per_sub(lambda c: c.sampling_s / c.ref_s)),
            "wall_s": statistics.fmean(per_sub(lambda c: c.wall_s)),
            "particle_steps_per_s": steps / sum(per_sub(lambda c: c.sampling_s)),
            "reference_s": statistics.median(c.ref_s for c in calls),
            "wall_s_quartiles": _quartiles(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "error_rate": self.failed / self.checks_attempted,
            "test_nll": _median_output(calls, "test_nll"),
            "meta_auc": _median_output(calls, "meta_auc"),
        }
        if self.trace:
            per_cycle = []
            for tracer, traced_calls, untraced_calls in cycles:
                outputs = _sum_outputs(traced_calls)
                m = layer_metrics(tracer, outputs)
                m["nets.map_estimate_s"] += setup_tracer.get("nets.map_estimate").total_s
                m["trace.overhead_frac"] = (
                    sum(c.wall_s for c in traced_calls) / sum(c.wall_s for c in untraced_calls) - 1.0
                )
                per_cycle.append(m)
            result["layers"] = {
                key: statistics.median(m[key] for m in per_cycle) for key in per_cycle[0]
            }
            result["cycles_traced"] = len(per_cycle)
        return result


def _median_output(calls, key):
    values = [c.outputs[key] for c in calls if key in c.outputs]
    return statistics.median(values) if values else None


def _sum_outputs(calls) -> dict:
    """Outputs of one cycle: counts summed, accuracy figures averaged."""
    total: dict = {}
    for c in calls:
        for key, value in c.outputs.items():
            total.setdefault(key, []).append(value)
    averaged = {"logz_abs_err", "effective_islands", "test_nll", "meta_auc"}
    return {
        key: statistics.fmean(v) if key in averaged else sum(v) for key, v in total.items()
    }


def _fmt(value, unit):
    return "n/a" if value is None else f"{value:.6g} {unit}"


def load_benchmark() -> dict:
    """``BENCHMARK.json``; ``units`` is added, mapping every metric to its unit."""
    with open(BENCHMARK) as f:
        doc = json.load(f)
    doc["units"] = {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}
    return doc


def report(name: str, run: Run, result: dict, trace: bool, bench: dict) -> dict:
    """Print the human-readable lines; return the metrics for the JSON line."""
    units = bench["units"]
    print(f"workload {name}: {result['calls']} timed calls, "
          f"{run.checks_attempted} checks, {run.failed} failed")
    for check, n in sorted(run.checks_failed.items()):
        print(f"  FAILED check {check}: {n}x")
    q1, q3 = result["wall_s_quartiles"]
    e2e = {m["name"]: result[m["name"]] for m in bench["end_to_end"]}
    for key, value in e2e.items():
        print(f"  {key:<24} {_fmt(value, units[key])}")
    print(f"  {'wall_s':<24} {_fmt(result['wall_s'], 's')}")
    print(f"  {'particle_steps_per_s':<24} {_fmt(result['particle_steps_per_s'], '1/s')}")
    print(f"  {'reference_s':<24} {_fmt(result['reference_s'], 's')} (median)")
    print(f"  {'wall_s of all calls':<24} quartiles {q1:.4g}..{q3:.4g} s, {result['calls']} calls")
    print("  calls (sub-problem:wall s:sampling s:reference s): " + " ".join(
        f"{c.sub}:{c.wall_s:.4f}:{c.sampling_s:.4f}:{c.ref_s:.4f}" for c in result["call_list"]))
    print(f"  {'error_rate':<24} {_fmt(result['error_rate'], 'ratio')}")
    print(f"  {'test_nll':<24} {_fmt(result['test_nll'], 'nats')}")
    print(f"  {'meta_auc':<24} {_fmt(result['meta_auc'], 'ratio')}")
    if not trace:
        return {k: {"value": v, "unit": units[k]} for k, v in e2e.items()}
    print(f"  per-module metrics (median of {result['cycles_traced']} traced cycles):")
    layers = result["layers"]
    names = [m["name"] for m in bench["per_layer"]]
    for key in names:
        print(f"    {key:<38} {_fmt(layers[key], units[key])}")
    return {key: {"value": layers[key], "unit": units[key]} for key in names}


def run_one(name: str, seed: int, seconds: float, trace: bool, bench: dict):
    """One workload in one mode, in this process; returns (attempted, failed,
    metrics)."""
    from bench.workloads import WORKLOADS

    print("environment: " + json.dumps(environment(), sort_keys=True))
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    try:
        run = Run(WORKLOADS[name], seed, seconds, trace, workdir)
        result = run.measure()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)
    print(f"-- trace={int(trace)}")
    return run.checks_attempted, run.failed, report(name, run, result, trace, bench)


def run_child(name: str, seed: int, seconds: float, trace: bool):
    """One workload in one mode, in a child process of its own; its report
    lines are passed on; returns (attempted, failed, metrics) from its result
    line."""
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    lines = child.stdout.splitlines()
    print("\n".join(lines[:-1]), flush=True)
    if child.returncode != 0 or not lines:
        print(f"bench: {name} trace={int(trace)} exited with {child.returncode}", file=sys.stderr)
        sys.exit(child.returncode or 1)
    result = json.loads(lines[-1])
    return result["attempted"], result["failed"], result["metrics"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None, help="one workload; default: all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-module metrics; default: both")
    args = parser.parse_args(argv)

    _import_program()
    from bench.workloads import WORKLOADS

    bench = load_benchmark()
    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    names = [args.workload] if args.workload else list(WORKLOADS)
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    pairs = [(name, trace) for name in names for trace in modes]

    print(f"bench: seed={args.seed} seconds={seconds} workloads={','.join(names)}", flush=True)
    attempted = failed = 0
    metrics: dict = {}
    for name, trace in pairs:
        if len(pairs) == 1:
            a, f, found = run_one(name, args.seed, seconds, trace, bench)
        else:
            a, f, found = run_child(name, args.seed, seconds, trace)
        attempted += a
        failed += f
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + key: value for key, value in found.items()})
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
