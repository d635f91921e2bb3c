import struct

import numpy as np
import pytest

from anchormc import data
from anchormc.data import (
    CsvParseError,
    Dataset,
    IdxParseError,
    load_csv_features,
    load_idx,
    make_ood,
)


def write_idx_pair(tmp_path, images, labels, image_magic=0x803, label_magic=0x801):
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    ip = tmp_path / "images.idx"
    lp = tmp_path / "labels.idx"
    ip.write_bytes(struct.pack(">iiii", image_magic, n, rows, cols) + images.tobytes())
    lp.write_bytes(struct.pack(">ii", label_magic, len(labels)) + labels.tobytes())
    return str(ip), str(lp)


class TestDataset:
    def test_len_and_labeled(self):
        d = Dataset(x=np.zeros((4, 2)), y=np.arange(4))
        assert len(d) == 4 and d.labeled
        assert not Dataset(x=np.zeros((1, 2))).labeled

    def test_label_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(x=np.zeros((3, 2)), y=np.zeros(2, dtype=int))

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            Dataset(x=np.zeros(5))

    def test_subset_take_filter(self):
        d = Dataset(x=np.arange(10.0).reshape(5, 2), y=np.array([0, 1, 8, 9, 1]))
        assert len(d.take(3)) == 3
        f = d.filter_labels([1])
        assert np.array_equal(f.y, [1, 1])
        assert np.array_equal(f.x, d.x[[1, 4]])

    def test_filter_unlabeled_rejected(self):
        with pytest.raises(ValueError):
            Dataset(x=np.zeros((2, 2))).filter_labels([0])


class TestLoadIdx:
    def test_round_trip(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(6, 3, 4), dtype=np.uint8)
        labels = rng.integers(0, 10, size=6, dtype=np.uint8)
        d = load_idx(*write_idx_pair(tmp_path, images, labels))
        assert d.x.shape == (6, 12)
        assert d.image_shape == (3, 4)
        assert np.array_equal(d.y, labels)
        assert np.allclose(d.x, images.reshape(6, 12) / 255.0)
        assert d.x.min() >= 0.0 and d.x.max() <= 1.0

    def test_bad_image_magic(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path, np.zeros((1, 2, 2)), [0], image_magic=0x802)
        with pytest.raises(IdxParseError, match="magic"):
            load_idx(ip, lp)

    def test_bad_label_magic(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path, np.zeros((1, 2, 2)), [0], label_magic=0x803)
        with pytest.raises(IdxParseError, match="magic"):
            load_idx(ip, lp)

    def test_truncated_payload(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1])
        raw = open(ip, "rb").read()
        open(ip, "wb").write(raw[:-1])
        with pytest.raises(IdxParseError, match="expected"):
            load_idx(ip, lp)

    def test_count_mismatch(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        ip, _ = write_idx_pair(tmp_path, images, [0, 1])
        _, lp = write_idx_pair(tmp_path, images, [0, 1, 2])
        with pytest.raises(IdxParseError, match="does not match"):
            load_idx(ip, lp)

    def test_truncated_header(self, tmp_path):
        ip = tmp_path / "short.idx"
        ip.write_bytes(b"\x00\x00")
        _, lp = write_idx_pair(tmp_path, np.zeros((1, 2, 2)), [0])
        with pytest.raises(IdxParseError, match="truncated"):
            load_idx(str(ip), lp)


class TestLoadCsv:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("label,f1,f2\n1,0.5,-2.0\n0,1.5,3.25\n")
        d = load_csv_features(str(p))
        assert np.array_equal(d.y, [1, 0])
        assert np.allclose(d.x, [[0.5, -2.0], [1.5, 3.25]])

    def test_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("label,f1,f2\n1,0.5\n")
        with pytest.raises(CsvParseError, match=":2"):
            load_csv_features(str(p))

    def test_bad_cell_names_line_and_column(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("label,f1,f2\n1,0.5,oops\n")
        with pytest.raises(CsvParseError, match=r":2: column 3"):
            load_csv_features(str(p))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_line_and_column(self, tmp_path, cell):
        p = tmp_path / "f.csv"
        p.write_text(f"label,f1,f2\n1,0.5,2.0\n0,{cell},1.0\n")
        with pytest.raises(CsvParseError, match=rf":3: column 2: '{cell}' is not finite"):
            load_csv_features(str(p))

    @pytest.mark.parametrize("label", ["-1", "1.7"])
    def test_label_that_is_not_a_non_negative_integer_names_line_and_column(self, tmp_path, label):
        # -1 would train as class K-1 by negative indexing, 1.7 as class 1
        p = tmp_path / "f.csv"
        p.write_text(f"label,f1\n1,0.5\n{label},1.5\n2.0,0.0\n")
        with pytest.raises(CsvParseError, match=rf":3: column 1: label '{label}'"):
            load_csv_features(str(p))

    def test_empty_file(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("")
        with pytest.raises(CsvParseError, match="empty"):
            load_csv_features(str(p))

    def test_header_only(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("label,f1\n")
        with pytest.raises(CsvParseError, match="no data"):
            load_csv_features(str(p))


class TestMakeOod:
    def base(self, rng, n=20):
        return Dataset(
            x=rng.random((n, 6)),
            y=np.concatenate([rng.integers(0, 8, n - 5), np.array([8, 9, 8, 9, 8])]),
            split="test",
            image_shape=(2, 3),
        )

    def test_heldout_keeps_only_heldout_labels_and_drops_them(self, rng):
        base = self.base(rng)
        ood = make_ood(base, "heldout", n=3)
        assert len(ood) == 3
        assert ood.y is None
        assert ood.split == "ood"
        # the selected rows are exactly the first three label-8/9 items
        idx = np.flatnonzero(np.isin(base.y, (8, 9)))[:3]
        assert np.array_equal(ood.x, base.x[idx])

    def test_heldout_without_such_labels_rejected(self, rng):
        base = Dataset(x=rng.random((5, 6)), y=np.zeros(5, dtype=int))
        with pytest.raises(ValueError):
            make_ood(base, "heldout", n=2)

    def test_white_noise_range_and_determinism(self, rng):
        base = self.base(rng)
        a = make_ood(base, "white-noise", n=50, seed=3)
        b = make_ood(base, "white-noise", n=50, seed=3)
        assert a.x.shape == (50, 6)
        assert a.y is None
        assert np.all((a.x >= 0) & (a.x <= 1))
        assert np.array_equal(a.x, b.x)
        # uniform moments
        assert a.x.mean() == pytest.approx(0.5, abs=0.05)

    def test_perturbed_clamps_and_keeps_labels(self, rng):
        base = self.base(rng)
        ood = make_ood(base, "perturbed", n=10, seed=1)
        assert ood.x.shape == (10, 6)
        assert np.array_equal(ood.y, base.y[:10])
        assert np.all((ood.x >= 0) & (ood.x <= 1))
        assert not np.array_equal(ood.x, base.x[:10])

    def test_perturbed_zero_noise_is_identity(self, rng, monkeypatch):
        monkeypatch.setattr(data, "OOD_NOISE_STD", 0.0)
        base = self.base(rng)
        ood = make_ood(base, "perturbed", n=5)
        assert np.array_equal(ood.x, np.clip(base.x[:5], 0, 1))

    def test_unknown_kind_rejected(self, rng):
        with pytest.raises(ValueError, match="unknown"):
            make_ood(self.base(rng), "gaussian", n=1)
