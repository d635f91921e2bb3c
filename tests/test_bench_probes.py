"""The benchmark's probes (``bench/probes.py``) wrap public names of the
package and fail on any that is missing, so these names are part of the
package's surface: ``TargetDensity.log_density`` and ``grad_log_density``,
``kernels.tune_step_size`` (the step-size rule both samplers apply after an
adapted sweep), ``parallel.island_weights``, ``nets.forward``, and the
likelihood pairs from ``nets.make_loglik`` and ``targets.gaussian_loglik``.
The workloads (``bench/workloads.py``) read ``schedule.lambdas`` and
``schedule.mutation_steps`` of each SMC result and the fields of
``parallel.run_parallel``'s results, so those are surface too."""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from anchormc import kernels, nets, smc, targets  # noqa: E402
from anchormc.data import Dataset  # noqa: E402
from bench import probes, workloads  # noqa: E402

SPEC = nets.NetworkSpec(kind="cnn", image_shape=(4, 4), conv_channels=2, n_classes=3)


def test_probes_wrap_the_package_and_undo_on_exit():
    originals = (nets.make_loglik, targets.gaussian_loglik, targets.TargetDensity.log_density)
    rng = np.random.default_rng(0)
    data = Dataset(x=rng.normal(size=(5, 16)), y=rng.integers(0, 3, 5), image_shape=(4, 4))
    tracer = probes.new_tracer()
    with probes.instrument(tracer):
        pairs = {
            "nets": nets.make_loglik(SPEC, data),
            "targets": targets.gaussian_loglik(np.zeros(SPEC.n_params), 0.5),
        }
        for prefix, pair in pairs.items():
            target = targets.TargetDensity(*pair, targets.GaussianPrior(1.0, SPEC.n_params))
            theta = rng.normal(size=SPEC.n_params)
            target.log_density(theta)
            target.grad_log_density(theta)
            assert tracer.get(f"{prefix}.loglik").count == 1
            assert tracer.get(f"{prefix}.grad").count == 1
    assert tracer.get("targets.log_density").count == 2
    assert tracer.get("targets.grad_log_density").count == 2
    assert (nets.make_loglik, targets.gaussian_loglik, targets.TargetDensity.log_density) == originals


def test_traced_samplers_complete_and_count_bank_sweeps():
    # the probes wrap the kernels by name and read element [1] of a step's
    # result as an int count; a traced run that crashes fails the benchmark
    d, n, n_steps = 3, 4, 5
    runs = [
        ("smc", dict(kernel="hmc", hmc=kernels.HmcConfig(0.3, 2)), False),
        ("smc", dict(kernel="hmc"), True),  # step size adapted after every sweep
        ("mcmc", dict(kernel="hmc"), True),  # adapted over the first n_steps // 2 sweeps
        ("mcmc", dict(kernel="pcn"), False),
    ]
    for method, kernel, adapted in runs:
        tracer = probes.new_tracer()
        with probes.instrument(tracer):
            target = targets.TargetDensity(
                *targets.gaussian_loglik(np.ones(d), 0.5), targets.GaussianPrior(1.0, d)
            )
            if method == "smc":
                result = smc.run_smc(target, smc.SmcConfig(n_particles=n, seed=1, **kernel))
                row_sweeps = n * sum(result.schedule.mutation_steps)
                adapted_sweeps = sum(result.schedule.mutation_steps) if adapted else 0
            else:
                result = smc.run_mcmc(
                    target, smc.McmcConfig(n_chains=n, n_steps=n_steps, seed=1, **kernel)
                )
                row_sweeps = n * n_steps
                adapted_sweeps = n_steps // 2 if adapted else 0
        assert np.isfinite(result.particles).all()
        sweeps = tracer.get("kernels.hmc_step").count + tracer.get("kernels.pcn_step").count
        step = "kernels.pcn_step" if kernel["kernel"] == "pcn" else "kernels.hmc_step"
        assert tracer.get(step).count > 0
        assert sweeps * n == row_sweeps  # every sweep steps the whole bank, none one row
        assert tracer.get("kernels.tune_step_size").count == adapted_sweeps
        accepted = tracer.counters.get("kernels.accepted", 0)
        assert isinstance(accepted, int)
        assert 0 < accepted <= row_sweeps


@pytest.mark.parametrize("name", ["gauss-smc-hmc", "cnn-hmc-islands"])
def test_smc_workloads_pass_their_checks(name, tmp_path):
    # one setup and one call, as the benchmark runs them: a failed check or
    # an empty stage record here fails the benchmark run too
    workload = workloads.WORKLOADS[name]
    call = workload.call(workload.setup(29, str(tmp_path)), 0)
    assert call.checks and all(call.checks.values()), call.checks
    assert call.outputs["stages"] > 0 and call.outputs["sweeps"] > 0
