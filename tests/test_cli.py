import glob
import json
import os
import shutil
import struct
import warnings

import numpy as np
import pytest

from anchormc import cli, data
from anchormc.artifacts import (
    CONFIG_DEFAULTS,
    load_artifact,
    load_config,
    make_artifact,
    save_artifact,
)
from anchormc.cli import _load_datasets, main
from anchormc.uncertainty import entropy_decomposition, features, predictive


def synthetic_idx(dirpath, n_train=400, n_test=240, seed=0):
    """8x8 images over 10 classes; classes 0-7 light up a class-specific
    2x2 block, classes 8-9 (held out downstream) carry distinct patterns."""
    rng = np.random.default_rng(seed)

    def batch(n):
        y = rng.integers(0, 10, n).astype(np.uint8)
        x = rng.integers(0, 60, size=(n, 8, 8)).astype(np.uint8)
        for i, c in enumerate(y):
            if c < 8:
                r, col = divmod(int(c), 4)
                x[i, 2 * r : 2 * r + 2, 2 * col : 2 * col + 2] = 255
            elif c == 8:
                x[i, :, 0] = 255
            else:
                x[i, 0, :] = 255
        return x, y

    def write(prefix, x, y):
        ip = os.path.join(dirpath, prefix + "-images.idx")
        lp = os.path.join(dirpath, prefix + "-labels.idx")
        with open(ip, "wb") as f:
            f.write(struct.pack(">iiii", 0x803, len(x), 8, 8) + x.tobytes())
        with open(lp, "wb") as f:
            f.write(struct.pack(">ii", 0x801, len(y)) + y.tobytes())
        return ip, lp

    tri, trl = write("train", *batch(n_train))
    tei, tel = write("test", *batch(n_test))
    return tri, trl, tei, tel


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Run the full pipeline once: map -> sample -> combine -> evaluate -> meta."""
    root = tmp_path_factory.mktemp("cli")
    tri, trl, tei, tel = synthetic_idx(str(root))
    out = str(root / "runs")
    common = [
        f"train_images={tri}",
        f"train_labels={trl}",
        f"test_images={tei}",
        f"test_labels={tel}",
        "arch=mlp",
        "n_train=240",
        "n_val=60",
        "n_test=180",
        "n_ood=40",
        "max_epochs=60",
        "lr=0.1",
        "v=1",
        f"output_dir={out}",
    ]
    assert main(["map"] + common) == 0
    assert main(["sample", "method=smc", "kernel=pcn", "n=6", "p=2"] + common) == 0
    assert main(["combine"] + common) == 0
    assert main(["evaluate"] + common) == 0
    assert main(["meta"] + common) == 0
    return out, common


class TestPipeline:
    def test_map_artifact(self, workspace):
        out, _ = workspace
        a = load_artifact(os.path.join(out, "map"))
        assert a.manifest["kind"] == "map"
        assert a.samples.shape[0] == 1
        # 64 inputs x 8 classes single linear layer
        assert a.samples.shape[1] == 64 * 8 + 8

    def test_island_artifacts(self, workspace):
        out, _ = workspace
        for p in range(2):
            a = load_artifact(os.path.join(out, f"island_{p:03d}"))
            assert a.manifest["kind"] == "smc"
            assert a.samples.shape == (6, 64 * 8 + 8)
            sched = a.manifest["schedule"]
            assert sched["lambdas"][0] == 0.0 and sched["lambdas"][-1] == 1.0
        a0 = load_artifact(os.path.join(out, "island_000"))
        a1 = load_artifact(os.path.join(out, "island_001"))
        assert not np.array_equal(a0.samples, a1.samples)

    def test_combined_artifact(self, workspace):
        out, _ = workspace
        a = load_artifact(os.path.join(out, "combined"))
        assert a.samples.shape == (12, 64 * 8 + 8)
        w = np.array(a.manifest["particle_weights"])
        assert w.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.array(a.manifest["island_weights"]).sum() == pytest.approx(1.0)

    def test_metrics_csv(self, workspace):
        out, _ = workspace
        lines = open(os.path.join(out, "metrics.csv")).read().splitlines()
        assert lines[0] == "split,accuracy,nll,brier,ece"
        split, acc, nll, brier, ece = lines[1].split(",")
        assert split == "test"
        # the block pattern is linearly separable, so the sampler's
        # predictive should do far better than the 1/8 chance level
        assert float(acc) > 0.6
        assert float(nll) > 0 and float(brier) >= 0 and 0 <= float(ece) <= 1

    def test_entropy_csv(self, workspace):
        out, _ = workspace
        lines = open(os.path.join(out, "entropy.csv")).read().splitlines()
        assert lines[0] == "split,index,h_total,h_aleatoric,h_epistemic"
        splits = {ln.split(",")[0] for ln in lines[1:]}
        assert splits == {"test", "heldout", "white-noise", "perturbed"}
        for ln in lines[1:]:
            _, _, ht, ha, he = ln.split(",")
            assert float(ht) >= 0 and float(he) >= 0
            assert abs(float(ht) - float(ha) - float(he)) < 1e-4

    def test_meta_reports(self, workspace):
        out, _ = workspace
        lines = open(os.path.join(out, "meta_report.csv")).read().splitlines()
        assert lines[0] == "threshold,precision,recall,f1,auc"
        auc = float(lines[1].split(",")[4])
        assert 0.0 <= auc <= 1.0
        sweep = open(os.path.join(out, "abstention.csv")).read().splitlines()
        assert sweep[0] == "threshold,two_level_accuracy"
        assert len(sweep) == 102
        for ln in sweep[1:]:
            assert 0.0 <= float(ln.split(",")[1]) <= 1.0

    def test_resolved_configs_written(self, workspace):
        out, _ = workspace
        for cmd in ("map", "sample", "combine", "evaluate", "meta"):
            text = open(os.path.join(out, f"{cmd}.config")).read()
            assert "s = 0.1" in text
            assert f"output_dir = {out}" in text

    def test_features_artifact_matches_direct_predictive(self, workspace):
        # the blocks meta fits and scores: the test halves and the halves of
        # the OOD rows in the ood_seed + 10 permutation, each computed alone.
        # OpenBLAS multiplies products of few rows (here 20 to 90) with another
        # kernel, so these rows may differ from the full-set rows in the last
        # bits; with 1000-row blocks (the cli-pipeline benchmark) they are equal.
        out, common = workspace
        cfg = load_config(None, common)
        _, _, test, spec = _load_datasets(cfg)
        full_test = data.load_idx(cfg["test_images"], cfg["test_labels"])
        quarter, seed = cfg["n_ood"] // 4, cfg["ood_seed"]
        ood_x = np.concatenate(
            [
                data.make_ood(full_test, "heldout", 2 * quarter, seed=seed).x,
                data.make_ood(test, "white-noise", quarter, seed=seed + 1).x,
                data.make_ood(test, "perturbed", quarter, seed=seed + 2).x,
            ]
        )
        perm = np.random.default_rng(seed + 10).permutation(len(ood_x))
        combined = load_artifact(os.path.join(out, "combined"))
        samples, weights = combined.samples, np.array(combined.manifest["particle_weights"])

        a = load_artifact(os.path.join(out, "features"))
        n_test = a.manifest["n_test"]
        assert n_test == len(test) == 180
        assert a.samples.shape == (n_test + len(ood_x), 8)
        half = n_test // 2
        id_rows, ood_rows = a.samples[:n_test], a.samples[n_test:][perm]
        blocks = [
            (id_rows[:half], test.x[:half], test.y[:half]),
            (id_rows[half:], test.x[half:], test.y[half:]),
            (ood_rows[: len(perm) // 2], ood_x[perm[: len(perm) // 2]], None),
            (ood_rows[len(perm) // 2 :], ood_x[perm[len(perm) // 2 :]], None),
        ]
        for rows, x, labels in blocks:
            matrix = predictive(samples, weights, spec, x)
            expected = features(matrix, entropy_decomposition(matrix))
            np.testing.assert_allclose(rows[:, :7], expected, rtol=0, atol=1e-13)
            if labels is None:
                assert np.array_equal(rows[:, 7], np.zeros(len(x)))
            else:
                assert np.array_equal(rows[:, 7], matrix.mean.argmax(axis=1) == labels)

    def test_evaluate_falls_back_to_map_only(self, workspace, tmp_path):
        out, common = workspace
        alt = str(tmp_path / "maponly")
        os.makedirs(alt)
        for suffix in (".manifest.json", ".samples.bin"):
            shutil.copy(os.path.join(out, "map" + suffix), os.path.join(alt, "map" + suffix))
        args = [a for a in common if not a.startswith("output_dir=")]
        assert main(["evaluate", f"output_dir={alt}"] + args) == 0
        assert os.path.exists(os.path.join(alt, "metrics.csv"))


    def test_evaluate_pools_islands_without_combine(self, workspace, tmp_path):
        # without a combined artifact, evaluate pools the island artifacts
        # itself, with the weights combine would have written
        out, common = workspace
        alt = str(tmp_path / "islands")
        os.makedirs(alt)
        for path in glob.glob(os.path.join(out, "island_*")):
            shutil.copy(path, alt)
        args = [a for a in common if not a.startswith("output_dir=")]
        assert main(["evaluate", f"output_dir={alt}"] + args) == 0
        for name in ("metrics.csv", "entropy.csv"):
            with open(os.path.join(out, name), "rb") as a, open(os.path.join(alt, name), "rb") as b:
                assert a.read() == b.read()

    def test_island_files_do_not_depend_on_worker_count(self, workspace, tmp_path, monkeypatch):
        # sample runs min(p, cores) workers; force 1 and 2 through the core count
        out, common = workspace
        args = [a for a in common if not a.startswith("output_dir=")]
        runs = {}
        for cores in (1, 2):
            monkeypatch.setattr(cli, "_cores", lambda: cores)
            alt = str(tmp_path / f"cores{cores}")
            os.makedirs(alt)
            for suffix in (".manifest.json", ".samples.bin"):
                shutil.copy(os.path.join(out, "map" + suffix), alt)
            sample = ["sample", "method=smc", "kernel=pcn", "n=6", "p=2", f"output_dir={alt}"]
            assert main(sample + args) == 0
            runs[cores] = []
            for p in range(2):
                prefix = os.path.join(alt, f"island_{p:03d}")
                with open(prefix + ".samples.bin", "rb") as f:
                    manifest = load_artifact(prefix).manifest
                    runs[cores].append((f.read(), manifest["log_z"], manifest["schedule"]))
        assert runs[1] == runs[2]
        with open(os.path.join(out, "island_001.samples.bin"), "rb") as f:
            assert f.read() == runs[1][1][0]

    @staticmethod
    def with_map(workspace, path):
        """A new output directory holding the workspace's MAP artifact, and
        the common arguments without ``output_dir``."""
        out, common = workspace
        os.makedirs(path)
        for suffix in (".manifest.json", ".samples.bin"):
            shutil.copy(os.path.join(out, "map" + suffix), path)
        return [a for a in common if not a.startswith("output_dir=")]

    MCMC = ["sample", "method=mcmc", "kernel=pcn", "n=4", "mcmc_steps=5"]

    def test_sample_removes_the_islands_of_an_earlier_run(self, workspace, tmp_path):
        # three s=0.1 islands, then two s=1 islands in the same directory:
        # combine pools the second run's two islands alone
        alt = str(tmp_path / "rerun")
        args = self.with_map(workspace, alt) + [f"output_dir={alt}"]
        assert main(self.MCMC + ["p=3", "s=0.1", "seed=1"] + args) == 0
        assert main(self.MCMC + ["p=2", "s=1.0", "seed=2"] + args) == 0
        assert main(["combine"] + args) == 0
        assert len(load_artifact(os.path.join(alt, "combined")).manifest["island_weights"]) == 2

    def test_refused_sample_keeps_the_islands_of_an_earlier_run(self, workspace, tmp_path, capsys):
        # p=0 is refused by run_parallel; the last run's artifacts stay
        alt = str(tmp_path / "refused")
        args = self.with_map(workspace, alt) + [f"output_dir={alt}"]
        assert main(self.MCMC + ["p=2", "seed=1"] + args) == 0
        assert main(["combine"] + args) == 0
        capsys.readouterr()
        assert main(self.MCMC + ["p=0", "seed=2"] + args) == 1
        assert "need at least one island" in capsys.readouterr().err
        for name in ("island_000", "island_001", "combined"):
            load_artifact(os.path.join(alt, name))

    def test_evaluate_reads_no_combined_of_an_earlier_run(self, workspace, tmp_path):
        # sample, combine, sample again, evaluate: the outputs are those of
        # the second sample alone, as in a directory that never held the first
        outputs = {}
        for name, runs in (("rerun", [("1", True), ("2", False)]), ("fresh", [("2", False)])):
            alt = str(tmp_path / name)
            args = self.with_map(workspace, alt) + [f"output_dir={alt}"]
            for seed, combine in runs:
                assert main(self.MCMC + ["p=2", f"seed={seed}"] + args) == 0
                if combine:
                    assert main(["combine"] + args) == 0
            assert main(["evaluate"] + args) == 0
            outputs[name] = []
            for csv in ("metrics.csv", "entropy.csv"):
                with open(os.path.join(alt, csv), "rb") as f:
                    outputs[name].append(f.read())
        assert outputs["rerun"] == outputs["fresh"]

    def test_adapted_hmc_refuses_more_leapfrog_steps(self, workspace, tmp_path, capsys):
        # the step size is adapted at one leapfrog step, so leapfrog=5 would
        # silently run L = 1
        out, common = workspace
        alt = str(tmp_path / "leapfrog")
        os.makedirs(alt)
        for suffix in (".manifest.json", ".samples.bin"):
            shutil.copy(os.path.join(out, "map" + suffix), alt)
        args = [a for a in common if not a.startswith("output_dir=")]
        capsys.readouterr()
        rc = main(["sample", "kernel=hmc", "leapfrog=5", "n=4", "p=1", f"output_dir={alt}"] + args)
        assert rc == 1
        assert "step_size" in capsys.readouterr().err
        assert not glob.glob(os.path.join(alt, "island_*"))

    def test_smc_hmc_records_a_step_size_per_stage(self, workspace, tmp_path):
        # step_size=0: SMC adapts the step size, and the manifest records
        # the one each stage's sweeps started from
        out, common = workspace
        alt = str(tmp_path / "adapted")
        os.makedirs(alt)
        for suffix in (".manifest.json", ".samples.bin"):
            shutil.copy(os.path.join(out, "map" + suffix), alt)
        args = [a for a in common if not a.startswith("output_dir=")]
        assert main(["sample", "method=smc", "kernel=hmc", "n=4", "p=1", f"output_dir={alt}"] + args) == 0
        sched = load_artifact(os.path.join(alt, "island_000")).manifest["schedule"]
        assert len(sched["step_sizes"]) == len(sched["lambdas"]) - 1 == len(sched["mutation_steps"])
        assert all(eps > 0 for eps in sched["step_sizes"])
        # pCN islands have no step size
        assert load_artifact(os.path.join(out, "island_000")).manifest["schedule"]["step_sizes"] == []


class TestErrors:
    def test_sample_without_map_names_prereq(self, tmp_path, capsys):
        tri, trl, tei, tel = synthetic_idx(str(tmp_path), 40, 40)
        rc = main(
            [
                "sample",
                f"train_images={tri}",
                f"train_labels={trl}",
                f"test_images={tei}",
                f"test_labels={tel}",
                "arch=mlp",
                "n_train=20",
                "n_val=10",
                f"output_dir={tmp_path / 'empty'}",
            ]
        )
        assert rc == 1
        assert "anchormc map" in capsys.readouterr().err

    def test_combine_without_islands(self, tmp_path, capsys):
        rc = main(["combine", f"output_dir={tmp_path}"])
        assert rc == 1
        assert "anchormc sample" in capsys.readouterr().err

    def test_meta_without_features_names_evaluate(self, tmp_path, capsys):
        artifact = make_artifact(dict(CONFIG_DEFAULTS), np.zeros((2, 3)), kind="combined")
        artifact.manifest["particle_weights"] = [0.5, 0.5]
        save_artifact(os.path.join(tmp_path, "combined"), artifact)
        rc = main(["meta", f"output_dir={tmp_path}"])
        assert rc == 1
        assert "anchormc evaluate" in capsys.readouterr().err

    def test_meta_on_csv_input_needs_image_input(self, tmp_path, capsys):
        path = tmp_path / "features.csv"
        path.write_text("label,f1,f2\n" + "".join(f"{i % 2},{i % 5},1\n" for i in range(40)))
        common = [
            f"features_csv={path}",
            "arch=mlp",
            "n_train=20",
            "n_val=10",
            "max_epochs=5",
            f"output_dir={tmp_path / 'o'}",
        ]
        assert main(["map"] + common) == 0
        assert main(["evaluate"] + common) == 0
        capsys.readouterr()
        rc = main(["meta"] + common)
        assert rc == 1
        assert "needs image input" in capsys.readouterr().err

    def test_heldout_labels_kept_is_a_config_error(self, tmp_path, capsys):
        # the heldout OOD set takes labels 8 and 9, so keeping 8 would count
        # its images both as test inputs and as OOD inputs
        tri, trl, tei, tel = synthetic_idx(str(tmp_path), 80, 80)
        common = [
            f"train_images={tri}",
            f"train_labels={trl}",
            f"test_images={tei}",
            f"test_labels={tel}",
            "labels_keep=0,1,2,3,4,5,6,7,8",
            "arch=mlp",
            "n_train=40",
            "n_val=10",
            "n_ood=8",
            "max_epochs=5",
            f"output_dir={tmp_path / 'o'}",
        ]
        assert main(["map"] + common) == 0
        capsys.readouterr()
        rc = main(["evaluate"] + common)
        assert rc == 1
        err = capsys.readouterr().err
        assert "labels_keep=0,1,2,3,4,5,6,7,8 keeps labels [8]" in err and "heldout" in err

    def test_unknown_config_key(self, capsys):
        rc = main(["map", "frobnicate=1"])
        assert rc == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_missing_data_paths(self, capsys):
        rc = main(["map"])
        assert rc == 1
        assert "train_images" in capsys.readouterr().err

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as e:
            main(["frob"])
        assert e.value.code == 2

    def test_unknown_method(self, tmp_path, capsys):
        tri, trl, tei, tel = synthetic_idx(str(tmp_path), 40, 40)
        rc = main(
            [
                "sample",
                "method=vi",
                "s=1",
                f"train_images={tri}",
                f"train_labels={trl}",
                f"test_images={tei}",
                f"test_labels={tel}",
                "arch=mlp",
                "n_train=20",
                "n_val=10",
                f"output_dir={tmp_path / 'o'}",
            ]
        )
        assert rc == 1
        assert "method" in capsys.readouterr().err

    def test_sample_fails_when_no_island_succeeds(self, tmp_path, capsys):
        # SMC refuses cold targets, so every island fails
        tri, trl, tei, tel = synthetic_idx(str(tmp_path), 40, 40)
        out = tmp_path / "o"
        rc = main(
            [
                "sample",
                "method=smc",
                "kernel=pcn",
                "s=1",
                "t=0.5",
                "p=2",
                f"train_images={tri}",
                f"train_labels={trl}",
                f"test_images={tei}",
                f"test_labels={tel}",
                "arch=mlp",
                "n_train=20",
                "n_val=10",
                f"output_dir={out}",
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "island 1 FAILED" in err
        assert "error: no island succeeded" in err and "method=mcmc" in err
        assert not os.path.exists(out / "sample.config")


    @pytest.mark.parametrize(
        "command, override, key",
        [
            ("map", "max_epochs=0", "max_epochs"),
            ("map", "batch=0", "batch_size"),
            ("map", "lr=-0.1", "learning_rate"),
            ("map", "patience=0", "patience"),
            ("sample", "max_mutation_steps=0", "max_mutation_steps"),
            # NaN passes a "<= 0" check: each is refused before any island runs
            ("sample", "v=nan", "prior variance"),
            ("sample", "t=nan", "temperature"),
            ("sample", "eta=nan", "mutation tolerance"),
            ("sample", "step_size=nan", "step_size"),
        ],
    )
    def test_out_of_range_setting_is_an_error_naming_it(self, tmp_path, capsys, command, override, key):
        tri, trl, tei, tel = synthetic_idx(str(tmp_path), 40, 40)
        out = tmp_path / "o"
        rc = main(
            [
                command,
                "method=smc",
                "s=1",
                override,
                f"train_images={tri}",
                f"train_labels={trl}",
                f"test_images={tei}",
                f"test_labels={tel}",
                "arch=mlp",
                "n_train=20",
                "n_val=10",
                f"output_dir={out}",
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert not os.path.exists(out / f"{command}.manifest.json")
        assert not glob.glob(str(out / "island_*"))

    def test_too_few_training_items_is_a_config_error(self, tmp_path, capsys):
        tri, trl, tei, tel = synthetic_idx(str(tmp_path), 40, 40)
        rc = main(
            [
                "map",
                f"train_images={tri}",
                f"train_labels={trl}",
                f"test_images={tei}",
                f"test_labels={tel}",
                "arch=mlp",
                "n_train=30",
                "n_val=20",
                f"output_dir={tmp_path / 'o'}",
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "n_train + n_val = 30 + 20" in err and "labels_keep=0,1,2,3,4,5,6,7" in err

    @pytest.mark.parametrize("widths", ["3,2", "2,5", "4,8,4"])
    def test_mlp_widths_that_do_not_fit_the_data_are_a_config_error(self, tmp_path, capsys, widths):
        # 2 features and 4 classes: the widths must run from 2 to 4
        path = tmp_path / "features.csv"
        path.write_text("label,f1,f2\n" + "".join(f"{i % 4},{i},1\n" for i in range(40)))
        rc = main(
            [
                "map",
                f"features_csv={path}",
                "arch=mlp",
                f"mlp_widths={widths}",
                "n_train=20",
                "n_val=10",
                "max_epochs=2",
                f"output_dir={tmp_path / 'o'}",
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"mlp_widths={widths}" in err

    @pytest.mark.parametrize(
        "override", ["labels_keep=0,x", "labels_keep=-1,0", "labels_keep=0,1,0", "mlp_widths=64,x"]
    )
    def test_bad_integer_list_is_a_config_error_naming_it(self, tmp_path, capsys, override):
        tri, trl, tei, tel = synthetic_idx(str(tmp_path), 40, 40)
        rc = main(
            [
                "map",
                override,
                f"train_images={tri}",
                f"train_labels={trl}",
                f"test_images={tei}",
                f"test_labels={tel}",
                "arch=mlp",
                "n_train=10",
                "n_val=5",
                f"output_dir={tmp_path / 'o'}",
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {override} ") and err.count("\n") == 1

    def test_diverging_map_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "features.csv"
        rng = np.random.default_rng(0)
        path.write_text(
            "label,f1,f2\n" + "".join(f"{i % 4},{rng.normal():.4f},{rng.normal():.4f}\n" for i in range(40))
        )
        args = [f"features_csv={path}", "arch=mlp", "lr=1e30", "n_train=20", "n_val=10", "max_epochs=20"]
        with np.errstate(all="ignore"):
            rc = main(["map", *args, f"output_dir={tmp_path / 'o'}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "non-finite" in err
        assert not os.path.exists(tmp_path / "o" / "map.manifest.json")

    def test_diverging_map_prints_only_the_error_line(self, tmp_path, capfd):
        # numpy's overflow and invalid-value warnings are not printed before
        # the error line: here a warning raises, so one that escapes
        # map_estimate fails the command
        path = tmp_path / "features.csv"
        rng = np.random.default_rng(0)
        path.write_text(
            "label,f1,f2\n" + "".join(f"{i % 4},{rng.normal():.4f},{rng.normal():.4f}\n" for i in range(40))
        )
        args = [f"features_csv={path}", "arch=mlp", "lr=1e30", "n_train=20", "n_val=10", "max_epochs=20"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["map", *args, f"output_dir={tmp_path / 'o'}"])
        assert rc == 1
        err = capfd.readouterr().err
        assert err.startswith("error: validation loss non-finite") and err.count("\n") == 1

    def test_island_warnings_are_printed(self, tmp_path, capfd):
        # a step size of 1e6 rejects every proposal: the island's schedule
        # records that its particles never moved, and so does the console
        path = tmp_path / "features.csv"
        rng = np.random.default_rng(0)
        path.write_text(
            "label,f1,f2\n" + "".join(f"{i % 2},{rng.normal():.4f},{rng.normal():.4f}\n" for i in range(40))
        )
        common = [
            f"features_csv={path}",
            "arch=mlp",
            "n_train=20",
            "n_val=10",
            "max_epochs=5",
            f"output_dir={tmp_path / 'o'}",
        ]
        assert main(["map", *common]) == 0
        sample = ["s=1", "method=smc", "kernel=hmc", "step_size=1e6", "n=8", "p=1"]
        capfd.readouterr()
        assert main(["sample", *common, *sample]) == 0
        err = capfd.readouterr().err
        manifest = load_artifact(str(tmp_path / "o" / "island_000")).manifest
        assert "mutation moved no particle at lam=1" in manifest["schedule"]["warnings"]
        assert "island 0: warning: mutation moved no particle at lam=1\n" in err

    def test_too_few_csv_rows_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "features.csv"
        path.write_text("label,f1,f2\n" + "".join(f"{i % 2},{i},1\n" for i in range(10)))
        rc = main(
            [
                "map",
                f"features_csv={path}",
                "arch=mlp",
                "n_train=8",
                "n_val=4",
                f"output_dir={tmp_path / 'o'}",
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "n_train + n_val = 8 + 4" in err and "10 training items" in err


class TestCombine:
    def test_excluded_island_named_by_its_file(self, tmp_path):
        # island 1 is missing (failed at sampling), island 2 has log Z = +inf
        out = str(tmp_path)
        for p, log_z in ((0, -1.0), (2, float("inf"))):
            artifact = make_artifact(
                dict(CONFIG_DEFAULTS), np.full((2, 3), float(p)), kind="smc", log_z=log_z
            )
            save_artifact(os.path.join(out, f"island_{p:03d}"), artifact)
        assert main(["combine", f"output_dir={out}"]) == 0
        manifest = load_artifact(os.path.join(out, "combined")).manifest
        assert manifest["excluded_islands"] == [2]
        assert manifest["island_weights"] == [1.0]

    @pytest.mark.parametrize("key", ["log_z", "samples_sha256"])
    def test_island_manifest_missing_a_key_is_an_error(self, tmp_path, capsys, key):
        prefix = os.path.join(str(tmp_path), "island_000")
        save_artifact(prefix, make_artifact(dict(CONFIG_DEFAULTS), np.zeros((2, 3)), kind="smc"))
        with open(prefix + ".manifest.json") as f:
            manifest = json.load(f)
        del manifest[key]
        with open(prefix + ".manifest.json", "w") as f:
            json.dump(manifest, f)
        capsys.readouterr()
        assert main(["combine", f"output_dir={tmp_path}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and prefix in err and key in err

    def test_island_manifest_cut_short_is_an_error_naming_it(self, tmp_path, capsys):
        for p in range(2):
            save_artifact(
                os.path.join(str(tmp_path), f"island_00{p}"),
                make_artifact(dict(CONFIG_DEFAULTS), np.zeros((2, 3)), kind="smc"),
            )
        prefix = os.path.join(str(tmp_path), "island_001")
        with open(prefix + ".manifest.json", "w") as f:
            f.write('{"kind": "smc", ')
        capsys.readouterr()
        assert main(["combine", f"output_dir={tmp_path}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {prefix}: manifest is not valid JSON")


class TestDiag:
    def test_writes_acf_and_iact(self, tmp_path, capsys):
        out = str(tmp_path / "diag")
        assert main(["diag", f"output_dir={out}", "mcmc_steps=4000"]) == 0
        # the defaults step_size=0 and leapfrog=1 are replaced, mcmc_steps is honoured
        assert "step_size=0.4 leapfrog=5 mcmc_steps=4000;" in capsys.readouterr().out
        assert "step_size = 0.4\n" in open(os.path.join(out, "diag.config")).read()
        iact_lines = open(os.path.join(out, "iact.csv")).read().splitlines()
        assert iact_lines[0] == "setting,iact"
        settings = [ln.split(",")[0] for ln in iact_lines[1:]]
        assert settings == ["s=0.1", "s=0.3", "s=1", "T=0.2"]
        acf_lines = open(os.path.join(out, "acf.csv")).read().splitlines()
        assert acf_lines[1] == "lag,s=0.1,s=0.3,s=1,T=0.2"
