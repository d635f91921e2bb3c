"""Offline input generation: 8x8 images in the block pattern of
``demos/06_cli_workflow.py``, and the IDX files the CLI reads.

Classes 0-7 light one 2x2 block each; classes 8 and 9 light a whole column
and serve as held-out (out-of-distribution) items. Labels are a shuffled,
balanced composition, so a request for ``n_kept`` items of classes 0-7 is
met exactly whatever the seed.
"""

from __future__ import annotations

import struct

import numpy as np

IMAGE_SHAPE = (8, 8)
N_KEPT_CLASSES = 8


def images(rng: np.random.Generator, n_kept: int, n_heldout: int = 0):
    """Returns (pixels uint8 (n, 8, 8), labels uint8 (n,)) with exactly
    ``n_kept`` items of classes 0-7 and ``n_heldout`` of classes 8-9."""
    labels = np.concatenate(
        [np.arange(n_kept) % N_KEPT_CLASSES, N_KEPT_CLASSES + np.arange(n_heldout) % 2]
    )
    labels = rng.permutation(labels).astype(np.uint8)
    pixels = rng.integers(0, 60, size=(labels.size, *IMAGE_SHAPE)).astype(np.uint8)
    for i, c in enumerate(labels):
        if c < N_KEPT_CLASSES:
            r, col = divmod(int(c), 4)
            pixels[i, 2 * r : 2 * r + 2, 2 * col : 2 * col + 2] = 255
        else:
            pixels[i, :, c - N_KEPT_CLASSES] = 255
    return pixels, labels


def as_features(pixels: np.ndarray) -> np.ndarray:
    """Flat float rows scaled to [0, 1], as ``anchormc.data.load_idx`` gives."""
    return pixels.reshape(len(pixels), -1).astype(float) / 255.0


def write_idx(images_path: str, labels_path: str, pixels: np.ndarray, labels: np.ndarray) -> None:
    n, rows, cols = pixels.shape
    with open(images_path, "wb") as f:
        f.write(struct.pack(">iiii", 0x803, n, rows, cols) + pixels.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">ii", 0x801, n) + labels.tobytes())
