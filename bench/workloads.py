"""The three benchmark workloads.

A workload makes its inputs from the seed in ``setup`` and then runs one of
``n_sub`` sub-problems per ``call``. Sub-problem ``k`` is fixed by (seed, k),
so repeating it repeats its work exactly; one pass over all sub-problems is
a cycle, and per-module counts are taken per cycle. The sub-problems differ
in their sampler seeds, which spreads the seed-to-seed variation of adaptive
tempering over several runs of the body within one benchmark run.

Sizes were chosen on a 2-vCPU machine so that each sub-problem repeats at
least three times in a 30-second run there.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from anchormc import cli, nets, parallel, smc, targets, toys
from anchormc.artifacts import load_artifact
from anchormc.data import Dataset
from anchormc.kernels import HmcConfig
from anchormc.targets import GaussianPrior, TargetDensity, make_anchored

from . import inputs
from .probes import instrument


def sub_seed(seed: int, k: int) -> int:
    """Sampler seed of sub-problem ``k``, independent of the input seed's
    own stream."""
    return int(np.random.SeedSequence([seed, k, 0xB3]).generate_state(1)[0])


@dataclass
class Call:
    """One run of a workload's timed body."""

    sub: int
    wall_s: float  # the timed body
    sampling_s: float  # the sampling call inside it
    particle_steps: int  # kernel transitions summed over particles or chains
    checks: dict[str, bool]
    fingerprint: tuple  # results that must repeat exactly for the same sub-problem
    outputs: dict = field(default_factory=dict)  # inputs to probes.layer_metrics
    ref_s: float = 0.0  # the reference computation timed just before this call


def _traced(tracer):
    return instrument(tracer) if tracer is not None else contextlib.nullcontext()


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _schedule_outputs(runs, n_particles) -> dict:
    """Counts read from SMC results (``(schedule, epochs_per_particle)`` pairs)."""
    sweeps = sum(sum(schedule.mutation_steps) for schedule, _ in runs)
    return {
        "particle_steps": sweeps * n_particles,
        "particles": len(runs) * n_particles,
        "reported_evals": sum(epochs * n_particles for _, epochs in runs),
        "stages": sum(len(schedule.lambdas) - 1 for schedule, _ in runs),
        "sweeps": sweeps,
    }


class GaussSmcHmc:
    """``smc.run_smc`` on a 20-d conjugate Gaussian with fixed-step HMC."""

    name = "gauss-smc-hmc"
    n_sub = 3
    dim = 20
    prior_variance = 1.0
    lik_variance = 0.05
    n_particles = 128
    # acceptance is about 0.9 at this step, so kernel changes that alter
    # acceptance show; at 0.05 every proposal was accepted
    hmc = HmcConfig(step_size=0.25, n_leapfrog=5)
    # pass/fail limits against the closed form: the log Z error stayed below
    # 1.1 nats over seeds, and a wrong kernel or weighting misses by far more
    logz_tol = 2.5
    mean_tol_sd = 0.5  # largest coordinate error of the mean, in posterior sd

    def setup(self, seed: int, workdir: str) -> dict:
        rng = np.random.default_rng(seed)
        # a random direction at the typical radius of a draw from the evidence,
        # so the seed moves the data but not the difficulty of the problem
        u = rng.standard_normal(self.dim)
        a = u / np.linalg.norm(u) * np.sqrt(self.dim * (self.lik_variance + self.prior_variance))
        post_mean, post_var, log_z = toys.conjugate_posterior(
            a, self.lik_variance, self.prior_variance
        )
        return {"seed": seed, "a": a, "post_mean": post_mean, "post_sd": np.sqrt(post_var), "log_z": log_z}

    def call(self, state: dict, k: int, tracer=None) -> Call:
        cfg = smc.SmcConfig(
            n_particles=self.n_particles, kernel="hmc", hmc=self.hmc, seed=sub_seed(state["seed"], k)
        )
        with _traced(tracer):
            ll, grad = targets.gaussian_loglik(state["a"], self.lik_variance)
            target = TargetDensity(ll, grad, GaussianPrior(self.prior_variance, self.dim))
            t0 = time.perf_counter()
            result = smc.run_smc(target, cfg)
            wall = time.perf_counter() - t0
        logz_err = abs(result.log_z - state["log_z"])
        mean_err = np.max(np.abs(result.particles.mean(axis=0) - state["post_mean"]))
        outputs = _schedule_outputs([(result.schedule, result.epochs_per_particle)], self.n_particles)
        outputs["logz_abs_err"] = logz_err
        return Call(
            sub=k,
            wall_s=wall,
            sampling_s=wall,
            particle_steps=outputs["particle_steps"],
            checks={
                "log_z_within_tolerance": bool(logz_err <= self.logz_tol),
                "mean_within_tolerance": bool(mean_err <= self.mean_tol_sd * state["post_sd"]),
            },
            fingerprint=(result.log_z, result.particles.sum()),
            outputs=outputs,
        )


def _image_dataset(pixels, labels, split):
    return Dataset(
        x=inputs.as_features(pixels), y=labels.astype(np.int64), split=split,
        image_shape=inputs.IMAGE_SHAPE,
    )


class CnnHmcIslands:
    """``parallel.run_parallel``: 2 SMC islands of N=8 on 2 threads, HMC with
    the pilot-tuned step and L=1, on the anchored CNN posterior (s=0.1)."""

    name = "cnn-hmc-islands"
    n_sub = 4
    n_train = 64
    n_val = 16
    n_particles = 8
    n_islands = 2
    workers = 2
    prior_variance = 0.1
    s = 0.1
    # The ladder is the median of the program's own ESS-adaptive ladders on
    # this target: 80 islands (input seeds 101-110, 4 sub-problems, 2 islands
    # each) with the CLI defaults took 2 stages 20 times, 3 stages 53 times
    # and 4 stages 7 times. Over the 3-stage runs the median lambdas were
    # 0.328 and 0.807. With adaptation, the per-island stage count moved the
    # work by up to half between seeds, more than the timing bound allows;
    # gauss-smc-hmc keeps the adaptive ladder. Mutation keeps the CLI
    # defaults: it stops on the displacement tolerance, at a median of 8
    # sweeps per stage in those runs.
    smc_config = smc.SmcConfig(n_particles=n_particles, fixed_schedule=(0.0, 0.33, 0.81, 1.0))
    # no early stopping, so every seed trains for the same number of epochs
    opt = nets.OptConfig(learning_rate=0.1, max_epochs=400, patience=400)

    def setup(self, seed: int, workdir: str) -> dict:
        rng = np.random.default_rng(seed)
        pixels, labels = inputs.images(rng, self.n_train + self.n_val)
        train = _image_dataset(pixels[: self.n_train], labels[: self.n_train], "train")
        val = _image_dataset(pixels[self.n_train :], labels[self.n_train :], "validation")
        spec = nets.NetworkSpec(kind="cnn", image_shape=inputs.IMAGE_SHAPE, n_classes=8)
        prior = GaussianPrior(self.prior_variance, spec.n_params)
        fit = nets.map_estimate(spec, prior, train, val, self.opt, seed=seed)
        return {"seed": seed, "spec": spec, "prior": prior, "train": train, "anchor": fit.theta}

    def call(self, state: dict, k: int, tracer=None) -> Call:
        with _traced(tracer):
            ll, grad = nets.make_loglik(state["spec"], state["train"])
            target = make_anchored(TargetDensity(ll, grad, state["prior"]), state["anchor"], self.s)
            t0 = time.perf_counter()
            results = parallel.run_parallel(
                target, self.smc_config, self.n_islands, sub_seed(state["seed"], k),
                workers=self.workers,
            )
            wall = time.perf_counter() - t0
        ok = [r for r in results if not r.failed]
        outputs = _schedule_outputs([(r.schedule, r.epochs_per_particle) for r in ok], self.n_particles)
        outputs["failed_islands"] = len(results) - len(ok)
        finite = all(np.isfinite(r.log_z) and np.all(np.isfinite(r.samples)) for r in ok)
        if ok and finite:
            w, _ = parallel.island_weights(results)
            outputs["effective_islands"] = float(1.0 / np.sum(w**2))
        return Call(
            sub=k,
            wall_s=wall,
            sampling_s=wall,
            particle_steps=outputs["particle_steps"],
            checks={"no_failed_island": len(ok) == len(results), "log_z_and_particles_finite": finite},
            fingerprint=tuple((r.log_z, float(r.samples.sum())) for r in ok),
            outputs=outputs,
        )


class CliPipeline:
    """``anchormc.cli.main`` in-process for map, sample, combine, evaluate and
    meta, on IDX files: CNN, pCN chains, small training set, large test and
    OOD sets."""

    name = "cli-pipeline"
    # Meta-classifier training stops early after a seed-dependent number of
    # epochs: 24 to 200 over input seeds 501-510. Three config seeds average
    # that out, and the CLI-default 80 pCN steps make sampling about 60% of
    # a call, as in the pipeline's usual profile, which shrinks the meta
    # share. With 20 steps, the quartile distance of wall_ref over ten seeds
    # was 0.20 of its median; with 80, 0.07 over five.
    n_sub = 3
    n_train = 128
    n_val = 32
    n_test = 2000
    n_ood = 2000
    n_heldout_train = 40
    chains = 8
    islands = 2
    mcmc_steps = 80
    config = {
        "arch": "cnn",
        "v": 0.1,
        "lr": 0.1,
        "max_epochs": 60,
        "patience": 60,  # no early stopping
        "method": "mcmc",
        "kernel": "pcn",
    }
    commands = ("map", "sample", "combine", "evaluate", "meta")

    def setup(self, seed: int, workdir: str) -> dict:
        rng = np.random.default_rng(seed)
        paths = {}
        for split, n_kept, n_heldout in (
            ("train", self.n_train + self.n_val, self.n_heldout_train),
            # held-out OOD items need labels 8-9 in the test file: half of n_ood
            ("test", self.n_test, self.n_ood // 2),
        ):
            pixels, labels = inputs.images(rng, n_kept, n_heldout)
            paths[f"{split}_images"] = os.path.join(workdir, f"{split}-images.idx")
            paths[f"{split}_labels"] = os.path.join(workdir, f"{split}-labels.idx")
            inputs.write_idx(paths[f"{split}_images"], paths[f"{split}_labels"], pixels, labels)
        return {"seed": seed, "workdir": workdir, "paths": paths, "runs": 0}

    def args(self, state: dict, k: int, out: str) -> list[str]:
        cfg = dict(self.config, **state["paths"])
        cfg.update(
            n_train=self.n_train, n_val=self.n_val, n_test=self.n_test, n_ood=self.n_ood,
            n=self.chains, p=self.islands, mcmc_steps=self.mcmc_steps,
            seed=sub_seed(state["seed"], k) % 2**31, output_dir=out,
        )
        return [f"{key}={value}" for key, value in cfg.items()]

    def call(self, state: dict, k: int, tracer=None) -> Call:
        state["runs"] += 1
        out = os.path.join(state["workdir"], f"run-{state['runs']}")
        common = self.args(state, k, out)
        codes, seconds = {}, {}
        with _traced(tracer), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            for command in self.commands:
                t0 = time.perf_counter()
                with _span(tracer, f"cli.{command}"):
                    try:
                        codes[command] = cli.main([command, *common])
                    except Exception:  # noqa: BLE001 - an uncaught error is a failed command
                        codes[command] = 1
                seconds[command] = time.perf_counter() - t0
        checks = {f"{command}_exit_0": code == 0 for command, code in codes.items()}
        island_checks, reported_evals = self._check_outputs(out)
        checks.update(island_checks)
        steps = self.chains * self.mcmc_steps * self.islands
        outputs = {
            "particle_steps": steps,
            "particles": self.chains * self.islands,
            "reported_evals": reported_evals,
            "stages": 0,
            "sweeps": 0,
        }
        quality = self._quality(out)
        outputs.update(quality)
        shutil.rmtree(out, ignore_errors=True)
        fingerprint = (quality.get("test_nll"), quality.get("meta_auc"))
        return Call(
            sub=k,
            wall_s=sum(seconds.values()),
            sampling_s=seconds["sample"],
            particle_steps=steps,
            checks=checks,
            fingerprint=fingerprint,
            outputs=outputs,
        )

    def _check_outputs(self, out: str) -> tuple[dict[str, bool], float]:
        """Checks of the files a run wrote, and the evaluations the program
        reports: ``epochs_used`` (per chain) times ``n_samples`` (chains),
        summed over the island manifests."""
        checks = {}
        reported_evals = 0.0
        try:
            for prefix in ["map", "combined"]:
                load_artifact(os.path.join(out, prefix))
            for p in range(self.islands):
                manifest = load_artifact(os.path.join(out, f"island_{p:03d}")).manifest
                reported_evals += manifest["epochs_used"] * manifest["n_samples"]
            checks["artifacts_load"] = True
        except (OSError, ValueError, KeyError):
            checks["artifacts_load"] = False
        try:
            with open(os.path.join(out, "entropy.csv")) as f:
                rows = list(csv.DictReader(f))
            total = np.array([float(r["h_total"]) for r in rows])
            aleatoric = np.array([float(r["h_aleatoric"]) for r in rows])
            epistemic = np.array([float(r["h_epistemic"]) for r in rows])
            # values are written with 6 significant digits and are below log 8
            checks["entropy_total_is_sum"] = bool(
                rows and np.all(np.abs(total - aleatoric - epistemic) <= 2e-5)
            )
            checks["entropy_epistemic_nonnegative"] = bool(np.all(epistemic >= -1e-9))
        except (OSError, KeyError, ValueError):
            checks["entropy_total_is_sum"] = False
            checks["entropy_epistemic_nonnegative"] = False
        try:
            accuracy = float(self._csv_row(out, "metrics.csv")["accuracy"])
            checks["test_accuracy_above_chance"] = accuracy > 1 / 8
        except (OSError, KeyError, ValueError, StopIteration):
            checks["test_accuracy_above_chance"] = False
        return checks, reported_evals

    def _quality(self, out: str) -> dict:
        quality = {}
        with contextlib.suppress(OSError, KeyError, ValueError, StopIteration):
            quality["test_nll"] = float(self._csv_row(out, "metrics.csv")["nll"])
        with contextlib.suppress(OSError, KeyError, ValueError, StopIteration):
            quality["meta_auc"] = float(self._csv_row(out, "meta_report.csv")["auc"])
        return quality

    @staticmethod
    def _csv_row(out: str, name: str) -> dict:
        with open(os.path.join(out, name)) as f:
            return next(csv.DictReader(f))


WORKLOADS = {w.name: w for w in (CnnHmcIslands(), GaussSmcHmc(), CliPipeline())}
