"""Dataset container and ingestion: IDX image files, CSV feature matrices,
and synthetic out-of-distribution sets."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class IdxParseError(ValueError):
    pass


class CsvParseError(ValueError):
    pass


@dataclass(frozen=True)
class Dataset:
    """Inputs as flat float vectors, one integer label per input. OOD
    inputs, which have no labels, are plain arrays. ``image_shape`` is
    retained so CNNs can reshape flat rows back into images."""

    x: np.ndarray
    y: np.ndarray
    split: str = "train"
    image_shape: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.x.ndim != 2:
            raise ValueError(f"inputs must be a 2-d array, got shape {self.x.shape}")
        if np.shape(self.y) != (len(self.x),):
            raise ValueError(f"labels shape {np.shape(self.y)} does not match {len(self.x)} inputs")

    def __len__(self) -> int:
        return self.x.shape[0]

    def subset(self, idx: np.ndarray, split: str | None = None) -> "Dataset":
        return Dataset(
            x=self.x[idx],
            y=self.y[idx],
            split=self.split if split is None else split,
            image_shape=self.image_shape,
        )

    def take(self, n: int, split: str | None = None) -> "Dataset":
        return self.subset(np.arange(min(n, len(self))), split=split)

    def filter_labels(self, keep: list[int]) -> "Dataset":
        mask = np.isin(self.y, keep)
        return self.subset(np.flatnonzero(mask))


def _read_idx_header(raw: bytes, path: str, expect_magic: int, ndim: int):
    header_len = 4 + 4 * ndim
    if len(raw) < header_len:
        raise IdxParseError(f"{path}: truncated header, {len(raw)} bytes")
    magic = struct.unpack(">i", raw[:4])[0]
    if magic != expect_magic:
        raise IdxParseError(
            f"{path}: bad magic 0x{magic:08x} at byte 0, expected 0x{expect_magic:08x}"
        )
    dims = struct.unpack(f">{ndim}i", raw[4:header_len])
    return dims, header_len


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Parse big-endian IDX image/label files into a Dataset.

    Pixels are u8 scaled to [0, 1]; images are flattened row-major.
    """
    with open(images_path, "rb") as f:
        raw = f.read()
    (n, rows, cols), off = _read_idx_header(raw, images_path, IDX_IMAGES_MAGIC, 3)
    expected = off + n * rows * cols
    if len(raw) != expected:
        raise IdxParseError(
            f"{images_path}: expected {expected} bytes for {n} {rows}x{cols} images, "
            f"got {len(raw)}"
        )
    pixels = np.frombuffer(raw, dtype=np.uint8, offset=off).astype(float) / 255.0
    x = pixels.reshape(n, rows * cols)

    with open(labels_path, "rb") as f:
        raw_l = f.read()
    (n_l,), off_l = _read_idx_header(raw_l, labels_path, IDX_LABELS_MAGIC, 1)
    expected_l = off_l + n_l
    if len(raw_l) != expected_l:
        raise IdxParseError(
            f"{labels_path}: expected {expected_l} bytes for {n_l} labels, got {len(raw_l)}"
        )
    if n_l != n:
        raise IdxParseError(
            f"label count {n_l} ({labels_path}) does not match image count {n}"
        )
    y = np.frombuffer(raw_l, dtype=np.uint8, offset=off_l).astype(np.int64)
    return Dataset(x=x, y=y, image_shape=(rows, cols))


def load_csv_features(path: str) -> Dataset:
    """Parse a feature CSV with header row ``label,f1,...,fk``. Every cell
    must be a finite number and every label a non-negative integer; the
    first cell that is not is refused, naming its line and column."""
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    if not lines:
        raise CsvParseError(f"{path}: empty file")
    ncol = len(lines[0].split(","))
    if ncol < 2:
        raise CsvParseError(f"{path}: header must have a label column and features")
    labels = []
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != ncol:
            raise CsvParseError(
                f"{path}:{lineno}: expected {ncol} columns, got {len(cells)}"
            )
        row = []
        for col, cell in enumerate(cells, start=1):
            try:
                value = float(cell)
            except ValueError as e:
                raise CsvParseError(f"{path}:{lineno}: column {col}: {e}") from None
            if not math.isfinite(value):
                raise CsvParseError(f"{path}:{lineno}: column {col}: {cell!r} is not finite")
            row.append(value)
        label = row.pop(0)
        if not (label >= 0 and label.is_integer()):
            raise CsvParseError(
                f"{path}:{lineno}: column 1: label {cells[0]!r} is not a non-negative integer"
            )
        labels.append(int(label))
        rows.append(row)
    if not rows:
        raise CsvParseError(f"{path}: no data rows")
    return Dataset(x=np.array(rows, dtype=float), y=np.array(labels))


OOD_HELDOUT_LABELS = (8, 9)  # labels held out of training for "heldout" OOD sets
OOD_NOISE_STD = 0.5  # pixel noise of "perturbed" OOD sets


def make_ood(base: Dataset, kind: str, n: int, seed: int = 0) -> np.ndarray:
    """Out-of-distribution inputs, an (n, features) array, built from a base
    (test) dataset.

    kinds: ``heldout`` takes the first n items whose label is in
    ``OOD_HELDOUT_LABELS``; ``white-noise`` draws pixels U[0,1];
    ``perturbed`` adds N(0, OOD_NOISE_STD^2) pixel noise to the first n base
    items, in order, and clamps to [0, 1].
    """
    rng = np.random.default_rng(seed)
    if kind == "heldout":
        mask = np.isin(base.y, OOD_HELDOUT_LABELS)
        if not mask.any():
            raise ValueError(f"no items with labels {OOD_HELDOUT_LABELS} in base dataset")
        return base.x[np.flatnonzero(mask)[:n]]
    if kind == "white-noise":
        return rng.uniform(0.0, 1.0, size=(n, base.x.shape[1]))
    if kind == "perturbed":
        x = base.x[:n]
        return np.clip(x + rng.normal(0.0, OOD_NOISE_STD, size=x.shape), 0.0, 1.0)
    raise ValueError(f"unknown OOD kind {kind!r}")
