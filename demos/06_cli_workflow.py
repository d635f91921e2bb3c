"""The command-line workflow, driven end to end on generated IDX files.

The CLI mirrors the library: `map` fits the anchor network, `sample` draws
posterior islands, `combine` merges them by evidence weight, `evaluate`
writes metrics, per-input entropies and the `features` artifact, `meta`
trains the abstention meta-classifier on those features (so it comes after
`evaluate`, and reads only `output_dir`, `ood_seed` and `seed`), and `diag`
runs the bimodal mixing diagnostics.  Every
command takes `--config file` plus key=value overrides and leaves its
resolved configuration next to its outputs.  Everything is written to a
temporary directory that is removed at the end.
"""

import os
import struct
import tempfile

import numpy as np

from anchormc.cli import main

rng = np.random.default_rng(0)


def write_idx(workdir, prefix, n):
    """8x8 ten-class images: 0-7 carry a block pattern, 8-9 play OOD."""
    y = rng.integers(0, 10, n).astype(np.uint8)
    x = rng.integers(0, 60, size=(n, 8, 8)).astype(np.uint8)
    for i, c in enumerate(y):
        if c < 8:
            r, col = divmod(int(c), 4)
            x[i, 2 * r : 2 * r + 2, 2 * col : 2 * col + 2] = 255
        else:
            x[i, :, c - 8] = 255
    ip = os.path.join(workdir, prefix + "-images.idx")
    lp = os.path.join(workdir, prefix + "-labels.idx")
    with open(ip, "wb") as f:
        f.write(struct.pack(">iiii", 0x803, n, 8, 8) + x.tobytes())
    with open(lp, "wb") as f:
        f.write(struct.pack(">ii", 0x801, n) + y.tobytes())
    return ip, lp


with tempfile.TemporaryDirectory(prefix="anchormc-demo-") as workdir:
    train_images, train_labels = write_idx(workdir, "train", 400)
    test_images, test_labels = write_idx(workdir, "test", 240)

    out = os.path.join(workdir, "runs")
    common = [
        f"train_images={train_images}",
        f"train_labels={train_labels}",
        f"test_images={test_images}",
        f"test_labels={test_labels}",
        "arch=mlp",
        "n_train=240", "n_val=60", "n_test=180", "n_ood=40",
        "max_epochs=60", "lr=0.1", "v=1",
        f"output_dir={out}",
    ]

    for command, extra in [
        ("map", []),
        ("sample", ["method=smc", "kernel=pcn", "n=6", "p=2"]),
        ("combine", []),
        ("evaluate", []),
        ("meta", []),
    ]:
        print(f"\n$ anchormc {command} " + " ".join(extra))
        rc = main([command] + extra + common)
        assert rc == 0, f"{command} failed"

    print("\nartifacts in", out + ":")
    for name in sorted(os.listdir(out)):
        print(" ", name)

    print("\nmetrics.csv:")
    print(open(os.path.join(out, "metrics.csv")).read().strip())
