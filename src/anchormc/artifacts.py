"""Run configuration (flat key=value text) and persisted run artifacts
(JSON manifest plus a raw float64 samples block)."""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass

import numpy as np

CONFIG_DEFAULTS: dict[str, object] = {
    # data
    "train_images": "",
    "train_labels": "",
    "test_images": "",
    "test_labels": "",
    "features_csv": "",
    "labels_keep": "0,1,2,3,4,5,6,7",
    "n_train": 1200,
    "n_val": 200,
    "n_test": 2000,
    "n_ood": 2000,
    "ood_seed": 0,
    # architecture
    "arch": "cnn",
    "mlp_widths": "",
    # model
    "v": 0.1,
    "s": 0.1,
    "t": 1.0,
    # sampler
    "method": "smc",
    "n": 10,
    "p": 1,
    "rho": 0.5,
    "eta": 0.05,
    "max_mutation_steps": 20,
    "kernel": "hmc",
    "step_size": 0.0,  # 0: adapted after every sweep (smc) or over the first half (mcmc)
    "leapfrog": 1,
    "mcmc_steps": 80,
    # optimizer
    "max_epochs": 160,
    "batch": 64,
    "lr": 0.01,
    "patience": 10,
    # misc
    "seed": 0,
    "output_dir": "runs",
}

class ConfigError(ValueError):
    pass


def parse_config_text(text: str) -> dict[str, object]:
    """Parse flat ``key = value`` lines; '#' starts a comment. Unknown keys
    are rejected; missing keys take their documented defaults."""
    cfg = dict(CONFIG_DEFAULTS)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        cfg.update(_coerce(key, value, lineno))
    return cfg


def _coerce(key: str, value: str, lineno: int | None = None) -> dict[str, object]:
    where = "" if lineno is None else f"line {lineno}: "
    if key not in CONFIG_DEFAULTS:
        raise ConfigError(f"{where}unknown config key {key!r}")
    default = CONFIG_DEFAULTS[key]
    try:
        if isinstance(default, int):
            coerced: object = int(value)
        elif isinstance(default, float):
            coerced = float(value)
        else:
            coerced = value
    except ValueError:
        raise ConfigError(f"{where}bad value {value!r} for key {key!r}") from None
    return {key: coerced}


def load_config(path: str | None, overrides: list[str] = ()) -> dict[str, object]:
    """Config file (optional) plus command-line ``key=value`` overrides."""
    cfg = dict(CONFIG_DEFAULTS)
    if path:
        with open(path) as f:
            cfg = parse_config_text(f.read())
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        key, value = item.split("=", 1)
        cfg.update(_coerce(key.strip(), value.strip()))
    return cfg


@dataclass(frozen=True)
class RunArtifact:
    """One persisted sampler (or MAP) run: manifest dict plus a samples block
    of shape (n, d), stored as little-endian float64, row-major."""

    manifest: dict
    samples: np.ndarray

    def __eq__(self, other):
        return (
            isinstance(other, RunArtifact)
            and self.manifest == other.manifest
            and np.array_equal(self.samples, other.samples)
        )


def _samples_bytes(samples: np.ndarray) -> bytes:
    return np.ascontiguousarray(samples, dtype="<f8").tobytes()


MANIFEST_KEYS = (
    "kind", "config", "seed", "log_z", "epochs_used", "schedule",
    "n_samples", "dim", "timestamp", "samples_sha256",
)  # what make_artifact writes and load_artifact requires


def make_artifact(
    config: dict,
    samples: np.ndarray,
    kind: str,
    log_z: float = 0.0,
    epochs_used: float = 0.0,
    schedule: dict | None = None,
    timestamp: str | None = None,
) -> RunArtifact:
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    blob = _samples_bytes(samples)
    resolved = {k: config.get(k, v) for k, v in CONFIG_DEFAULTS.items()}
    manifest = {
        "kind": kind,
        "config": resolved,
        "seed": resolved["seed"],
        "log_z": log_z,
        "epochs_used": epochs_used,
        "schedule": schedule or {},
        "n_samples": int(samples.shape[0]),
        "dim": int(samples.shape[1]),
        "timestamp": timestamp or time.strftime("%Y-%m-%dT%H:%M:%S"),
        "samples_sha256": hashlib.sha256(blob).hexdigest(),
    }
    return RunArtifact(manifest=manifest, samples=samples)


def save_artifact(prefix: str, artifact: RunArtifact) -> None:
    """Write ``{prefix}.samples.bin`` and ``{prefix}.manifest.json``.

    Both are written in full to temporary files in the same directory first,
    then renamed into place, the manifest last. A save that fails while
    writing leaves the previous artifact as it was; one interrupted between
    the two renames leaves a samples block that ``load_artifact`` refuses
    by its hash."""
    os.makedirs(os.path.dirname(prefix) or ".", exist_ok=True)
    manifest = json.dumps(artifact.manifest, indent=2, sort_keys=True) + "\n"
    files = [
        (prefix + ".samples.bin", _samples_bytes(artifact.samples)),
        (prefix + ".manifest.json", manifest.encode()),
    ]
    tag = f".{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        for path, data in files:
            with open(path + tag, "wb") as f:
                f.write(data)
        for path, _ in files:
            os.replace(path + tag, path)
    finally:
        for path, _ in files:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path + tag)


def load_artifact(prefix: str) -> RunArtifact:
    """Read the artifact ``save_artifact`` wrote at ``prefix``, refusing,
    with a ``ValueError`` that names the prefix, a manifest that is not a
    JSON object or lacks a key ``make_artifact`` writes, and a samples block
    that does not match the manifest."""
    try:
        with open(prefix + ".manifest.json") as f:
            manifest = json.load(f)
    except FileNotFoundError:
        raise FileNotFoundError(
            f"no artifact at {prefix!r}; run the producing command first"
        ) from None
    except ValueError as e:  # not JSON, or not UTF-8
        raise ValueError(f"{prefix}: manifest is not valid JSON: {e}") from None
    if not isinstance(manifest, dict):
        raise ValueError(f"{prefix}: manifest is not a JSON object")
    missing = [key for key in MANIFEST_KEYS if key not in manifest]
    if missing:
        raise ValueError(f"{prefix}: manifest has no {', '.join(map(repr, missing))}")
    with open(prefix + ".samples.bin", "rb") as f:
        blob = f.read()
    digest = hashlib.sha256(blob).hexdigest()
    if digest != manifest["samples_sha256"]:
        raise ValueError(
            f"{prefix}: samples block hash {digest} does not match manifest"
        )
    n, dim = manifest["n_samples"], manifest["dim"]
    if len(blob) != 8 * n * dim:
        raise ValueError(
            f"{prefix}: samples block has {len(blob)} bytes, manifest needs "
            f"8 * {n} * {dim} = {8 * n * dim}"
        )
    samples = np.frombuffer(blob, dtype="<f8").reshape(n, dim)
    return RunArtifact(manifest=manifest, samples=samples.astype(float))
