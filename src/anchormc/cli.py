"""Command-line surface: map | sample | combine | evaluate | meta | diag.

Every command takes ``--config file`` plus ``key=value`` overrides, writes its
resolved configuration next to its outputs, and reads upstream artifacts from
the configured output directory. ``meta`` reads only the ``features``
artifact that ``evaluate`` writes, and of the config only ``output_dir``,
``ood_seed`` and ``seed``.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import os
import re
import sys
import warnings

import numpy as np

from . import data as data_mod
from .artifacts import (
    ConfigError,
    load_artifact,
    load_config,
    make_artifact,
    save_artifact,
)
from .diagnostics import acf_table_csv, hmc_chain, iact
from .kernels import HmcConfig
from .nets import NetworkSpec, OptConfig, TrainingDivergedError, make_loglik, map_estimate
from .parallel import RunResult, pool, run_parallel
from .smc import McmcConfig, SmcConfig, ess
from .targets import GaussianPrior, TargetDensity, make_anchored, make_cold
from .toys import bimodal_toy
from .uncertainty import (
    abstain_2level,
    entropy_decomposition,
    features,
    metrics,
    predictive,
    threshold_metrics,
    train_meta,
)


def _write_resolved_config(cfg: dict, out_dir: str, command: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{command}.config"), "w") as f:
        for key in sorted(cfg):
            f.write(f"{key} = {cfg[key]}\n")


def _int_list(cfg: dict, key: str) -> list[int]:
    """The comma-separated integers of config key ``key``."""
    try:
        return [int(t) for t in str(cfg[key]).split(",")]
    except ValueError:
        raise ConfigError(f"{key}={cfg[key]} is not a comma-separated list of integers") from None


def _load_datasets(cfg: dict):
    """Returns (train, val, test, spec). Labels are remapped to
    0..K-1 in the order of ``labels_keep``."""
    n_tr, n_va = cfg["n_train"], cfg["n_val"]
    if cfg["features_csv"]:
        pool = data_mod.load_csv_features(cfg["features_csv"])
        test = pool.subset(np.arange(n_tr + n_va, len(pool)), split="test")
        which = f"in {cfg['features_csv']}"
        k = int(max(pool.y)) + 1
    else:
        for key in ("train_images", "train_labels", "test_images", "test_labels"):
            if not cfg[key]:
                raise ConfigError(f"config key {key!r} is required for IDX input")
        keep = _int_list(cfg, "labels_keep")
        if len(set(keep)) < len(keep) or not all(0 <= lab <= 255 for lab in keep):
            raise ConfigError(
                f"labels_keep={cfg['labels_keep']} must list distinct IDX labels in 0..255"
            )
        remap = np.full(256, -1)
        remap[keep] = np.arange(len(keep))

        def remapped(images, labels):
            ds = data_mod.load_idx(cfg[images], cfg[labels]).filter_labels(keep)
            return data_mod.Dataset(x=ds.x, y=remap[ds.y], image_shape=ds.image_shape)

        pool = remapped("train_images", "train_labels")
        test = remapped("test_images", "test_labels").take(cfg["n_test"], split="test")
        which = f"with labels in labels_keep={cfg['labels_keep']}"
        k = len(keep)
    if n_tr + n_va > len(pool):
        raise ConfigError(
            f"n_train + n_val = {n_tr} + {n_va} exceeds the {len(pool)} "
            f"training items {which}"
        )
    train = pool.take(n_tr)
    val = pool.subset(np.arange(n_tr, n_tr + n_va), split="validation")

    if cfg["arch"] == "cnn":
        if train.image_shape is None:
            raise ConfigError("cnn architecture needs image input")
        spec = NetworkSpec(kind="cnn", image_shape=train.image_shape, n_classes=k)
    else:
        widths = (train.x.shape[1], k)
        if cfg["mlp_widths"]:
            given = tuple(_int_list(cfg, "mlp_widths"))
            if (given[0], given[-1]) != widths:
                raise ConfigError(
                    f"mlp_widths={cfg['mlp_widths']} must start at the {widths[0]} features "
                    f"and end at the {k} classes"
                )
            widths = given
        spec = NetworkSpec(kind="mlp", widths=widths)
    return train, val, test, spec


def cmd_map(cfg: dict) -> None:
    out = cfg["output_dir"]
    train, val, _, spec = _load_datasets(cfg)
    prior = GaussianPrior(variance=cfg["v"], dim=spec.n_params)
    opt = OptConfig(
        learning_rate=cfg["lr"],
        batch_size=cfg["batch"],
        max_epochs=cfg["max_epochs"],
        patience=cfg["patience"],
    )
    result = map_estimate(spec, prior, train, val, opt, seed=cfg["seed"])
    artifact = make_artifact(cfg, result.theta, kind="map", epochs_used=result.epochs_used)
    save_artifact(os.path.join(out, "map"), artifact)
    _write_resolved_config(cfg, out, "map")
    print(f"map: {result.epochs_used} epochs, val NLL {result.val_nll:.4f} -> {out}/map")


def _build_target(cfg: dict, spec: NetworkSpec, train) -> TargetDensity:
    target = TargetDensity(*make_loglik(spec, train), prior=GaussianPrior(cfg["v"], spec.n_params))
    s = cfg["s"]
    if s < 1.0:
        map_prefix = os.path.join(cfg["output_dir"], "map")
        try:
            anchor = load_artifact(map_prefix).samples[0]
        except FileNotFoundError:
            raise FileNotFoundError(
                f"sampling with s={s} needs the MAP artifact at {map_prefix!r}; "
                "run `anchormc map` first"
            ) from None
        target = make_anchored(target, anchor, s)
    if cfg["t"] != 1.0:
        target = make_cold(target, cfg["t"])
    return target


def _cores() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _remove_run_artifacts(out: str) -> None:
    """Remove the island, ``combined`` and ``features`` artifacts of an
    earlier run from ``out``, so that ``combine``, ``evaluate`` and ``meta``
    read only what the next ``sample`` writes."""
    for name in ("island_*", "combined", "features"):
        for suffix in (".samples.bin", ".manifest.json"):
            for path in glob.glob(os.path.join(out, name + suffix)):
                os.remove(path)


def cmd_sample(cfg: dict) -> None:
    out = cfg["output_dir"]
    if not 0 <= cfg["step_size"] < np.inf:
        raise ConfigError(f"step_size must be finite and >= 0 (0 adapts it), got {cfg['step_size']}")
    if cfg["kernel"] == "hmc" and cfg["step_size"] == 0 and cfg["leapfrog"] != 1:
        raise ConfigError(
            f"leapfrog={cfg['leapfrog']} needs a fixed step_size > 0: the adapted "
            "step size (step_size=0) runs one leapfrog step"
        )
    train, _, _, spec = _load_datasets(cfg)
    target = _build_target(cfg, spec, train)
    hmc = HmcConfig(cfg["step_size"], cfg["leapfrog"]) if cfg["step_size"] > 0 else None
    if cfg["method"] == "smc":
        run_cfg: SmcConfig | McmcConfig = SmcConfig(
            n_particles=cfg["n"],
            ess_fraction=cfg["rho"],
            mutation_tol=cfg["eta"],
            max_mutation_steps=cfg["max_mutation_steps"],
            kernel=cfg["kernel"],
            hmc=hmc,
        )
    elif cfg["method"] == "mcmc":
        run_cfg = McmcConfig(
            n_chains=cfg["n"], n_steps=cfg["mcmc_steps"], kernel=cfg["kernel"], hmc=hmc
        )
    else:
        raise ConfigError(f"unknown sampling method {cfg['method']!r}")
    # results do not depend on the worker count, so it is not a config key
    results = run_parallel(target, run_cfg, cfg["p"], cfg["seed"], workers=_cores())
    _remove_run_artifacts(out)  # only now, so a refused run leaves the last one's
    for r in results:
        if r.failed:
            print(f"island {r.p} FAILED: {r.error}", file=sys.stderr)
            continue
        artifact = make_artifact(
            cfg,
            r.samples,
            kind=cfg["method"],
            log_z=r.log_z,
            epochs_used=r.epochs_per_particle,
            schedule=None if r.schedule is None else dataclasses.asdict(r.schedule),
        )
        save_artifact(os.path.join(out, f"island_{r.p:03d}"), artifact)
        for warning in [] if r.schedule is None else r.schedule.warnings:
            print(f"island {r.p}: warning: {warning}", file=sys.stderr)
    done = sum(not r.failed for r in results)
    if not done:
        raise ValueError(f"no island succeeded; island 0 failed with {results[0].error}")
    _write_resolved_config(cfg, out, "sample")
    print(f"sample: {done}/{len(results)} islands -> {out}/island_*")


def _island_results(out: str) -> list[RunResult]:
    """The island artifacts in ``out``, each numbered by the index in its
    file name (``island_002`` is island 2, whichever islands are missing)."""
    prefixes = sorted(
        p[: -len(".manifest.json")]
        for p in glob.glob(os.path.join(out, "island_*.manifest.json"))
    )
    if not prefixes:
        raise FileNotFoundError(
            f"no island artifacts in {out!r}; run `anchormc sample` first"
        )
    results = []
    for prefix in prefixes:
        index = re.fullmatch(r"island_(\d+)", os.path.basename(prefix))
        if index is None:
            raise ValueError(f"{prefix}: island artifact name has no island index")
        a = load_artifact(prefix)
        results.append(
            RunResult(
                p=int(index.group(1)),
                samples=a.samples,
                log_z=a.manifest["log_z"],
                epochs_per_particle=a.manifest["epochs_used"],
            )
        )
    return results


def cmd_combine(cfg: dict) -> None:
    out = cfg["output_dir"]
    samples, weights, w, excluded = pool(_island_results(out))
    artifact = make_artifact(cfg, samples, kind="combined")
    artifact.manifest["particle_weights"] = [float(x) for x in weights]
    artifact.manifest["island_weights"] = [float(x) for x in w]
    artifact.manifest["excluded_islands"] = excluded
    save_artifact(os.path.join(out, "combined"), artifact)
    _write_resolved_config(cfg, out, "combine")
    print(f"combine: {len(w)} islands, effective {ess(w):.2f} -> {out}/combined")


def _posterior(cfg: dict) -> tuple[np.ndarray, np.ndarray]:
    """Posterior (samples, weights) from the output directory, preferring
    combined > islands > map artifacts."""
    out = cfg["output_dir"]
    if os.path.exists(os.path.join(out, "combined.manifest.json")):
        a = load_artifact(os.path.join(out, "combined"))
        return a.samples, np.array(a.manifest["particle_weights"])
    if glob.glob(os.path.join(out, "island_*.manifest.json")):
        samples, weights, _, _ = pool(_island_results(out))
        return samples, weights
    if os.path.exists(os.path.join(out, "map.manifest.json")):
        return load_artifact(os.path.join(out, "map")).samples, np.ones(1)
    raise FileNotFoundError(
        f"no artifacts in {out!r}; run `anchormc map` or `anchormc sample` first"
    )


def _ood_sets(cfg: dict, test) -> dict[str, np.ndarray]:
    """The OOD inputs by name, in the order ``evaluate`` writes them; none
    without image input."""
    if test.image_shape is None:
        return {}
    overlap = sorted(set(_int_list(cfg, "labels_keep")) & set(data_mod.OOD_HELDOUT_LABELS))
    if overlap:
        raise ConfigError(
            f"labels_keep={cfg['labels_keep']} keeps labels {overlap}, which the heldout "
            f"OOD set takes (labels {list(data_mod.OOD_HELDOUT_LABELS)})"
        )
    quarter = max(1, cfg["n_ood"] // 4)
    seed = cfg["ood_seed"]
    full_test = data_mod.load_idx(cfg["test_images"], cfg["test_labels"])
    return {
        "heldout": data_mod.make_ood(full_test, "heldout", 2 * quarter, seed=seed),
        "white-noise": data_mod.make_ood(test, "white-noise", quarter, seed=seed + 1),
        "perturbed": data_mod.make_ood(test, "perturbed", quarter, seed=seed + 2),
    }


def cmd_evaluate(cfg: dict) -> None:
    """Test metrics, and entropies and meta features per test and OOD input.
    The ``features`` artifact has a row per input, test rows first: the 7
    features, then 1 where the base prediction is correct (0 for OOD)."""
    out = cfg["output_dir"]
    _, _, test, spec = _load_datasets(cfg)
    inputs = {"test": test.x, **_ood_sets(cfg, test)}
    samples, weights = _posterior(cfg)
    ents, feature_rows = [], []
    for name, x in inputs.items():
        matrix = predictive(samples, weights, spec, x)
        correct = np.zeros(len(x), dtype=bool)
        if name == "test":
            m = metrics(matrix, test.y)
            correct = matrix.mean.argmax(axis=1) == test.y
        ent = entropy_decomposition(matrix)
        ents.append((name, ent))
        feature_rows.append(np.column_stack([features(matrix, ent), correct]))
    artifact = make_artifact(cfg, np.concatenate(feature_rows), kind="features")
    artifact.manifest["n_test"] = len(test)
    save_artifact(os.path.join(out, "features"), artifact)
    with open(os.path.join(out, "metrics.csv"), "w") as f:
        f.write("split,accuracy,nll,brier,ece\n")
        f.write(f"test,{m.accuracy:.6g},{m.nll:.6g},{m.brier:.6g},{m.ece:.6g}\n")
    with open(os.path.join(out, "entropy.csv"), "w") as f:
        f.write("split,index,h_total,h_aleatoric,h_epistemic\n")
        for name, ent in ents:
            for i, (ht, ha, he) in enumerate(zip(ent.total, ent.aleatoric, ent.epistemic)):
                f.write(f"{name},{i},{ht:.6g},{ha:.6g},{he:.6g}\n")
    _write_resolved_config(cfg, out, "evaluate")
    print(f"evaluate: accuracy {m.accuracy:.4f}, NLL {m.nll:.4f} -> {out}/metrics.csv")


def cmd_meta(cfg: dict) -> None:
    """Train the meta-classifier on the first half of the test rows and half
    the OOD rows of ``evaluate``'s features, and report on the rest."""
    out = cfg["output_dir"]
    prefix = os.path.join(out, "features")
    try:
        a = load_artifact(prefix)
    except FileNotFoundError:
        raise FileNotFoundError(
            f"meta needs the features artifact at {prefix!r}; run `anchormc evaluate` first"
        ) from None
    n_test = a.manifest["n_test"]
    test, ood = a.samples[:n_test], a.samples[n_test:]
    if not len(ood):
        raise ConfigError("meta command needs image input to generate OOD data")
    ood = ood[np.random.default_rng(cfg["ood_seed"] + 10).permutation(len(ood))]
    train = np.concatenate([test[: n_test // 2], ood[: len(ood) // 2]])
    held = np.concatenate([test[n_test // 2 :], ood[len(ood) // 2 :]])
    meta = train_meta(train[:, :-1], train[:, -1] == 0, seed=cfg["seed"])
    correct = held[:, -1] == 1
    scores = meta.predict_incorrect(held[:, :-1])
    report = threshold_metrics(scores, ~correct)
    sweep = [(tau, abstain_2level(scores, correct, tau).accuracy) for tau in np.linspace(0, 1, 101)]
    with open(os.path.join(out, "meta_report.csv"), "w") as f:
        f.write("threshold,precision,recall,f1,auc\n")
        f.write(f"0.5,{report.precision_05:.6g},{report.recall_05:.6g},{report.f1_05:.6g},{report.auc:.6g}\n")
        f.write(
            f"{report.best_threshold:.3f},{report.precision_best:.6g},"
            f"{report.recall_best:.6g},{report.f1_best:.6g},{report.auc:.6g}\n"
        )
    with open(os.path.join(out, "abstention.csv"), "w") as f:
        f.write("threshold,two_level_accuracy\n")
        for tau, acc in sweep:
            f.write(f"{tau:.3f},{acc:.6g}\n")
    _write_resolved_config(cfg, out, "meta")
    print(
        f"meta: AUC {report.auc:.4f}, best F1 {report.f1_best:.4f} "
        f"at tau={report.best_threshold:.3f} -> {out}/meta_report.csv"
    )


def cmd_diag(cfg: dict) -> None:
    """ACF/IACT comparison on the 1-d bimodal toy across anchor strengths and
    temperatures.

    ``step_size > 0``, ``leapfrog > 1`` and ``mcmc_steps >= 1000`` are
    honoured; otherwise the chains run with step size 0.4, 5 leapfrog steps
    and 40,000 steps. The summary line and ``diag.config`` record the
    values that ran."""
    out = cfg["output_dir"]
    os.makedirs(out, exist_ok=True)
    # toy settings chosen so the full (s=1) target still hops between modes:
    # a chain that never crosses the barrier reports a deceptively small IACT
    hmc = HmcConfig(
        cfg["step_size"] if cfg["step_size"] > 0 else 0.4,
        cfg["leapfrog"] if cfg["leapfrog"] > 1 else 5,
    )
    # the default mcmc_steps (sized for posterior sampling) is far too short
    # for IACT estimation, so only honor an explicitly long setting
    n_steps = cfg["mcmc_steps"] if cfg["mcmc_steps"] >= 1000 else 40000
    toy = dict(prior_variance=8.0, sigma=0.8)
    series = {}
    for label, target in {
        "s=0.1": bimodal_toy(s=0.1, **toy),
        "s=0.3": bimodal_toy(s=0.3, **toy),
        "s=1": bimodal_toy(s=1.0, **toy),
        "T=0.2": bimodal_toy(temperature=0.2, **toy),
    }.items():
        theta0 = np.asarray(target.prior.mean, dtype=float)
        states, _ = hmc_chain(target, theta0, hmc, n_steps, seed=cfg["seed"])
        series[label] = states[:, 0]
    acf_table_csv(os.path.join(out, "acf.csv"), series, max_lag=200)
    with open(os.path.join(out, "iact.csv"), "w") as f:
        f.write("setting,iact\n")
        for label, x in series.items():
            f.write(f"{label},{iact(x):.6g}\n")
    ran = dict(step_size=hmc.step_size, leapfrog=hmc.n_leapfrog, mcmc_steps=n_steps)
    _write_resolved_config(dict(cfg, **ran), out, "diag")
    print(
        f"diag: step_size={hmc.step_size:g} leapfrog={hmc.n_leapfrog} mcmc_steps={n_steps}; "
        f"wrote {out}/acf.csv and {out}/iact.csv"
    )


COMMANDS = {
    "map": cmd_map,
    "sample": cmd_sample,
    "combine": cmd_combine,
    "evaluate": cmd_evaluate,
    "meta": cmd_meta,
    "diag": cmd_diag,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="anchormc")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("overrides", nargs="*", help="key=value overrides")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
        with warnings.catch_warnings():  # a warning is one plain line, as an error is
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            COMMANDS[args.command](cfg)
    except (ConfigError, FileNotFoundError, ValueError, TrainingDivergedError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
