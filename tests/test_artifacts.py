import hashlib
import json
import os

import numpy as np
import pytest

from anchormc import artifacts
from anchormc.artifacts import (
    CONFIG_DEFAULTS,
    ConfigError,
    load_artifact,
    load_config,
    make_artifact,
    parse_config_text,
    save_artifact,
)


class TestConfigText:
    def test_empty_text_gives_defaults(self):
        assert parse_config_text("") == CONFIG_DEFAULTS

    def test_values_coerced_by_default_type(self):
        cfg = parse_config_text("n = 32\nv = 0.25\nmethod = mcmc\n")
        assert cfg["n"] == 32 and isinstance(cfg["n"], int)
        assert cfg["v"] == 0.25
        assert cfg["method"] == "mcmc"

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config_text("# full-line comment\n\nseed = 7  # trailing\n")
        assert cfg["seed"] == 7

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigError, match="line 2.*bogus"):
            parse_config_text("seed = 1\nbogus = 3\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text("n = many\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config_text("just a line\n")

    def test_value_may_contain_equals(self):
        cfg = parse_config_text("output_dir = a=b\n")
        assert cfg["output_dir"] == "a=b"


class TestLoadConfig:
    def test_file_then_overrides(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("seed = 1\nn = 20\n")
        cfg = load_config(str(p), ["seed=5"])
        assert cfg["seed"] == 5
        assert cfg["n"] == 20

    def test_overrides_without_file(self):
        cfg = load_config(None, ["t=0.2"])
        assert cfg["t"] == 0.2

    def test_bad_override_format(self):
        with pytest.raises(ConfigError):
            load_config(None, ["seed"])

    def test_unknown_override_key(self):
        with pytest.raises(ConfigError, match="unknown"):
            load_config(None, ["zzz=1"])


class TestArtifacts:
    def make(self, rng, **kw):
        samples = rng.normal(size=(5, 3))
        cfg = dict(CONFIG_DEFAULTS, seed=9)
        return make_artifact(cfg, samples, kind="sample", log_z=-1.5, **kw)

    def test_manifest_fields(self, rng):
        art = self.make(rng, timestamp="2026-01-01T00:00:00")
        m = art.manifest
        assert m["kind"] == "sample"
        assert m["n_samples"] == 5 and m["dim"] == 3
        assert m["log_z"] == -1.5
        assert m["seed"] == m["config"]["seed"] == 9
        assert m["samples_sha256"] == hashlib.sha256(
            art.samples.astype("<f8").tobytes()
        ).hexdigest()

    def test_round_trip_byte_identical(self, tmp_path, rng):
        art = self.make(rng)
        prefix = str(tmp_path / "run" / "island0")
        save_artifact(prefix, art)
        save_artifact(str(tmp_path / "copy"), art)
        loaded = load_artifact(prefix)
        assert loaded == art
        assert open(prefix + ".samples.bin", "rb").read() == open(
            str(tmp_path / "copy") + ".samples.bin", "rb"
        ).read()

    def test_manifest_is_sorted_json(self, tmp_path, rng):
        prefix = str(tmp_path / "a")
        save_artifact(prefix, self.make(rng))
        text = open(prefix + ".manifest.json").read()
        m = json.loads(text)
        assert list(m) == sorted(m)

    def test_missing_artifact_mentions_producing_command(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="producing command"):
            load_artifact(str(tmp_path / "nothing"))

    def test_corrupted_samples_detected(self, tmp_path, rng):
        prefix = str(tmp_path / "a")
        save_artifact(prefix, self.make(rng))
        with open(prefix + ".samples.bin", "r+b") as f:
            f.seek(0)
            byte = f.read(1)
            f.seek(0)
            f.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(ValueError, match="hash"):
            load_artifact(prefix)

    def test_truncated_samples_with_matching_hash_name_the_prefix(self, tmp_path, rng):
        prefix = str(tmp_path / "a")
        save_artifact(prefix, self.make(rng))
        with open(prefix + ".samples.bin", "rb") as f:
            blob = f.read()[:-8]
        with open(prefix + ".samples.bin", "wb") as f:
            f.write(blob)
        manifest = json.loads(open(prefix + ".manifest.json").read())
        manifest["samples_sha256"] = hashlib.sha256(blob).hexdigest()
        with open(prefix + ".manifest.json", "w") as f:
            json.dump(manifest, f)
        with pytest.raises(ValueError, match=f"{prefix}: samples block has 112 bytes"):
            load_artifact(prefix)

    def test_failed_save_leaves_previous_artifact(self, tmp_path, rng, monkeypatch):
        prefix = str(tmp_path / "a")
        old = self.make(rng)
        save_artifact(prefix, old)
        real_open = open

        def full_disk(path, *args, **kwargs):
            if str(path).startswith(prefix + ".manifest.json"):
                raise OSError(28, "No space left on device")
            return real_open(path, *args, **kwargs)

        # the samples block is written in full, then writing the manifest fails
        monkeypatch.setattr(artifacts, "open", full_disk, raising=False)
        with pytest.raises(OSError, match="No space"):
            save_artifact(prefix, self.make(rng))
        monkeypatch.undo()
        assert load_artifact(prefix) == old
        assert sorted(os.listdir(tmp_path)) == ["a.manifest.json", "a.samples.bin"]

    def test_manifest_keys_are_what_make_artifact_writes(self, rng):
        assert sorted(self.make(rng).manifest) == sorted(artifacts.MANIFEST_KEYS)

    @pytest.mark.parametrize("key", ["log_z", "samples_sha256"])
    def test_manifest_missing_a_key_names_the_prefix_and_key(self, tmp_path, rng, key):
        prefix = str(tmp_path / "a")
        save_artifact(prefix, self.make(rng))
        manifest = json.loads(open(prefix + ".manifest.json").read())
        del manifest[key]
        with open(prefix + ".manifest.json", "w") as f:
            json.dump(manifest, f)
        with pytest.raises(ValueError, match=f"{prefix}: manifest has no '{key}'"):
            load_artifact(prefix)

    @pytest.mark.parametrize(
        "text, message",
        [('{"kind": "smc", ', "is not valid JSON"), ("[1, 2]", "is not a JSON object"),
         ("5", "is not a JSON object")],
        ids=["cut", "list", "number"],
    )
    def test_manifest_that_is_not_a_json_object_names_the_prefix(self, tmp_path, rng, text, message):
        prefix = str(tmp_path / "a")
        save_artifact(prefix, self.make(rng))
        with open(prefix + ".manifest.json", "w") as f:
            f.write(text)
        with pytest.raises(ValueError, match=f"^{prefix}: manifest {message}"):
            load_artifact(prefix)

    def test_one_dim_samples_promoted(self):
        art = make_artifact(dict(CONFIG_DEFAULTS), np.arange(4.0), kind="map")
        assert art.samples.shape == (1, 4)
