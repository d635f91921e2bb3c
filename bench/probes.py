"""Where the traced run opens spans, and how spans become per-module metrics.

Every probe wraps a public function of one ``anchormc`` module; the span
name is ``<module>.<function>``. The likelihood callables are probed where
they are made (``nets.make_loglik`` and ``targets.gaussian_loglik``), so
the pair a caller passes into ``TargetDensity`` counts every evaluation,
pilot tuning and log-likelihood refreshes included.
"""

from __future__ import annotations

import os
import statistics

from anchormc import artifacts, data, kernels, nets, parallel, smc, targets, uncertainty

from .spans import Patches, Tracer, traced

ISLAND_SPANS = ("smc.run_smc", "smc.run_mcmc")

_PLAIN = [
    (nets, ("forward", "map_estimate")),
    (kernels, ("hmc_step", "pcn_step", "tune_step_size")),
    (smc, ("run_smc", "run_mcmc", "next_lambda", "reweight_and_resample", "mutate")),
    (parallel, ("run_parallel", "island_weights")),
    (
        uncertainty,
        ("predictive", "entropy_decomposition", "features", "train_meta", "threshold_metrics"),
    ),
    (data, ("load_idx",)),
]


def _module(mod) -> str:
    return mod.__name__.rsplit(".", 1)[-1]


def new_tracer() -> Tracer:
    return Tracer(keep_durations=ISLAND_SPANS)


def instrument(tracer: Tracer) -> Patches:
    """Patches that route the probed calls through ``tracer``; use as a
    context manager around the body being traced."""
    p = Patches()
    for mod, names in _PLAIN:
        for name in names:
            fn = getattr(mod, name)
            on_result = _count_accepted(tracer) if name in ("hmc_step", "pcn_step") else None
            p.everywhere(fn, traced(tracer, f"{_module(mod)}.{name}", fn, on_result))

    def pair(make, prefix):
        def probed(*args, **kwargs):
            ll, grad = make(*args, **kwargs)
            return traced(tracer, f"{prefix}.loglik", ll), traced(tracer, f"{prefix}.grad", grad)

        return probed

    p.everywhere(nets.make_loglik, pair(nets.make_loglik, "nets"))
    p.everywhere(targets.gaussian_loglik, pair(targets.gaussian_loglik, "targets"))

    density = targets.TargetDensity
    for name in ("log_density", "grad_log_density"):
        p.set(density, name, traced(tracer, f"targets.{name}", getattr(density, name)))

    def sized(counter):
        def on_result(args, _result):
            prefix = args[0]
            size = sum(
                os.path.getsize(prefix + suffix) for suffix in (".samples.bin", ".manifest.json")
            )
            tracer.add(counter, size)

        return on_result

    p.everywhere(
        artifacts.save_artifact,
        traced(tracer, "artifacts.save", artifacts.save_artifact, sized("artifacts.bytes_written")),
    )
    p.everywhere(
        artifacts.load_artifact,
        traced(tracer, "artifacts.load", artifacts.load_artifact, sized("artifacts.bytes_read")),
    )
    return p


def _count_accepted(tracer: Tracer):
    def on_result(_args, result):
        tracer.add("kernels.accepted", int(result[1]))

    return on_result


def layer_metrics(tracer: Tracer, outputs: dict) -> dict[str, float]:
    """Per-module metrics of one traced cycle.

    ``outputs`` holds what the workload read from the program's results over
    the same cycle: ``particle_steps``, ``particles``, ``reported_evals``,
    ``stages``, ``sweeps`` and, where they apply, ``logz_abs_err``,
    ``effective_islands``, ``failed_islands``, ``test_nll``, ``meta_auc``.
    A metric of a module the workload does not run reads 0.
    """
    s = tracer.get
    m: dict[str, float] = {}
    for key in ("loglik", "grad"):
        m[f"nets.{key}_calls"] = s(f"nets.{key}").count
        m[f"nets.{key}_self_s"] = s(f"nets.{key}").self_s
    m["nets.forward_calls"] = s("nets.forward").count
    m["nets.forward_s"] = s("nets.forward").total_s
    m["nets.map_estimate_s"] = s("nets.map_estimate").total_s

    for key in ("loglik", "grad", "log_density", "grad_log_density"):
        m[f"targets.{key}_calls"] = s(f"targets.{key}").count
    m["targets.self_s"] = sum(
        s(f"targets.{key}").self_s for key in ("loglik", "grad", "log_density", "grad_log_density")
    )

    steps = s("kernels.hmc_step").count + s("kernels.pcn_step").count
    for key in ("hmc_step", "pcn_step"):
        m[f"kernels.{key}_calls"] = s(f"kernels.{key}").count
        m[f"kernels.{key}_self_s"] = s(f"kernels.{key}").self_s
    m["kernels.tune_step_size_s"] = s("kernels.tune_step_size").total_s
    m["kernels.acceptance_rate"] = tracer.counters.get("kernels.accepted", 0) / steps if steps else 0.0

    evals = sum(s(f"{mod}.{key}").count for mod in ("nets", "targets") for key in ("loglik", "grad"))
    m["smc.stages"] = outputs["stages"]
    m["smc.mutation_sweeps"] = outputs["sweeps"]
    m["smc.next_lambda_s"] = s("smc.next_lambda").total_s
    m["smc.reweight_and_resample_s"] = s("smc.reweight_and_resample").total_s
    m["smc.mutate_self_s"] = s("smc.mutate").self_s
    m["smc.evals_per_particle_step"] = evals / outputs["particle_steps"]
    m["smc.evals_per_particle"] = evals / outputs["particles"]
    m["smc.epochs_reported_over_counted"] = outputs["reported_evals"] / evals if evals else 0.0
    m["smc.run_mcmc_s"] = s("smc.run_mcmc").total_s
    m["smc.logz_abs_err"] = outputs.get("logz_abs_err", 0.0)

    islands = []
    if s("parallel.run_parallel").count:
        islands = [d for name in ISLAND_SPANS for d in s(name).durations]
    m["parallel.island_s_max"] = max(islands, default=0.0)
    m["parallel.island_s_mean"] = statistics.fmean(islands) if islands else 0.0
    run_parallel_s = s("parallel.run_parallel").total_s
    m["parallel.overlap"] = sum(islands) / run_parallel_s if run_parallel_s else 0.0
    m["parallel.effective_islands"] = outputs.get("effective_islands", 0.0)
    m["parallel.failed_islands"] = outputs.get("failed_islands", 0)
    m["parallel.island_weights_s"] = s("parallel.island_weights").total_s

    m["uncertainty.predictive_calls"] = s("uncertainty.predictive").count
    for key in ("predictive", "entropy_decomposition", "features", "train_meta", "threshold_metrics"):
        m[f"uncertainty.{key}_s"] = s(f"uncertainty.{key}").total_s
    m["uncertainty.test_nll"] = outputs.get("test_nll", 0.0)
    m["uncertainty.meta_auc"] = outputs.get("meta_auc", 0.0)

    for key in ("save", "load"):
        m[f"artifacts.{key}_calls"] = s(f"artifacts.{key}").count
        m[f"artifacts.{key}_s"] = s(f"artifacts.{key}").total_s
    m["artifacts.bytes_written"] = tracer.counters.get("artifacts.bytes_written", 0)
    m["artifacts.bytes_read"] = tracer.counters.get("artifacts.bytes_read", 0)

    m["data.load_idx_calls"] = s("data.load_idx").count
    m["data.load_idx_s"] = s("data.load_idx").total_s

    for cmd in ("map", "sample", "combine", "evaluate", "meta"):
        m[f"cli.{cmd}_s"] = s(f"cli.{cmd}").total_s
    return m
