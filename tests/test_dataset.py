import io
import struct
from math import inf, nan

import numpy as np
import pytest

from glyphlab import (
    ArgumentError,
    CorruptFileError,
    EmptyDatasetError,
    GrayImage,
    LabeledDataset,
    Rng,
    SplitSpec,
    StratificationError,
    UnsupportedDepthError,
    UnsupportedFormatError,
    ingest_dir,
    load_pgm,
    read_gly,
    resize_bilinear,
    split_stratified,
    write_gly,
    write_pgm,
)
from glyphlab.dataset import content_order


def pgm_bytes(width, height, pixels):
    return f"P5\n{width} {height}\n255\n".encode() + bytes(pixels)


def random_dataset(rng, n, h=4, w=5, n_classes=3):
    # pixel intensities quantized to the 8-bit grid, as any real source is
    images = np.array(
        [[[rng.randrange(256) / 255.0 for _ in range(w)] for _ in range(h)] for _ in range(n)]
    ).reshape(n, h, w)
    labels = np.array([rng.randrange(n_classes) for _ in range(n)], dtype=np.int64)
    names = tuple(chr(ord("a") + i) for i in range(n_classes))
    return LabeledDataset(images, labels, names)


class TestLoadPgm:
    def test_direct_decode(self):
        img = load_pgm(pgm_bytes(2, 2, [0, 64, 128, 255]))
        assert (img.width, img.height) == (2, 2)
        assert img.pixels.ravel().tolist() == [0, 64, 128, 255]

    def test_comments_in_header(self):
        data = b"P5\n# made by hand\n2 1\n255\n" + bytes([7, 9])
        assert load_pgm(data).pixels.ravel().tolist() == [7, 9]

    def test_ascii_variant_rejected(self):
        with pytest.raises(UnsupportedFormatError):
            load_pgm(b"P2\n2 2\n255\n0 1 2 3")

    def test_wrong_depth_rejected(self):
        with pytest.raises(UnsupportedDepthError):
            load_pgm(f"P5\n2 2\n65535\n".encode() + bytes(8))

    def test_truncated_raster(self):
        with pytest.raises(CorruptFileError):
            load_pgm(pgm_bytes(2, 2, [0, 64, 128]))

    def test_write_round_trip(self):
        img = GrayImage(3, 2, np.arange(6, dtype=np.uint8).reshape(2, 3))
        again = load_pgm(write_pgm(img))
        assert np.array_equal(again.pixels, img.pixels)


class TestResizeBilinear:
    def test_identity_resize(self):
        img = GrayImage(3, 2, np.array([[1, 2, 3], [4, 5, 6]], dtype=np.uint8))
        out = resize_bilinear(img, 3, 2)
        assert np.array_equal(out.pixels, img.pixels)

    def test_hand_computed_average(self):
        # all four pixels weigh 1/4 at the single output center: 138.75 -> 139
        img = GrayImage(2, 2, np.array([[0, 100], [200, 255]], dtype=np.uint8))
        assert resize_bilinear(img, 1, 1).pixels.tolist() == [[139]]

    def test_constant_image_stays_constant(self):
        img = GrayImage(3, 3, np.full((3, 3), 77, dtype=np.uint8))
        for w, h in ((1, 1), (2, 5), (7, 3)):
            assert (resize_bilinear(img, w, h).pixels == 77).all()

    def test_bad_extent(self):
        img = GrayImage(2, 2, np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ArgumentError):
            resize_bilinear(img, 0, 2)


class TestIngestDir:
    def _write_tree(self, root, spec):
        for cname, files in spec.items():
            d = root / cname
            d.mkdir(parents=True)
            for fname, (w, h, px) in files.items():
                (d / fname).write_bytes(pgm_bytes(w, h, px))

    def test_enumeration_and_labels(self, tmp_path):
        self._write_tree(
            tmp_path,
            {
                "H": {f"g{i}.pgm": (2, 2, [10 * i] * 4) for i in range(3)},
                "A": {f"g{i}.pgm": (2, 2, [5 * i] * 4) for i in range(2)},
            },
        )
        ds = ingest_dir(tmp_path, side=4)
        assert ds.class_names == ("A", "H")
        assert ds.labels.tolist() == [0, 0, 1, 1, 1]
        assert ds.images.shape == (5, 4, 4)

    def test_normalization_endpoints(self, tmp_path):
        self._write_tree(tmp_path, {"A": {"x.pgm": (2, 1, [0, 255])}, "B": {"y.pgm": (1, 1, [128])}})
        ds = ingest_dir(tmp_path, side=2)
        assert ds.images.min() == 0.0
        assert ds.images.max() == 1.0

    def test_empty_root(self, tmp_path):
        with pytest.raises(EmptyDatasetError):
            ingest_dir(tmp_path)

    def test_corrupt_file_names_path(self, tmp_path):
        d = tmp_path / "A"
        d.mkdir()
        (d / "bad.pgm").write_bytes(b"P5\n2 2\n255\n\x00")
        with pytest.raises(CorruptFileError) as err:
            ingest_dir(tmp_path)
        assert "bad.pgm" in str(err.value)

    def test_many_classes(self, tmp_path):
        self._write_tree(
            tmp_path,
            {f"c{i:02d}": {"g.pgm": (2, 2, [i] * 4)} for i in range(34)},
        )
        ds = ingest_dir(tmp_path, side=2)
        assert len(ds.class_names) == 34
        assert ds.n == 34

    def test_order_independent_of_creation(self, tmp_path):
        a = tmp_path / "t1"
        b = tmp_path / "t2"
        files = {f"g{i}.pgm": (2, 2, [i, i, i, i]) for i in range(4)}
        self._write_tree(a, {"X": files})
        # create the same tree in reverse file order
        d = b / "X"
        d.mkdir(parents=True)
        for fname in reversed(sorted(files)):
            w, h, px = files[fname]
            (d / fname).write_bytes(pgm_bytes(w, h, px))
        da, db = ingest_dir(a, side=2), ingest_dir(b, side=2)
        assert np.array_equal(da.images, db.images)


class TestSplitStratified:
    def test_floor_rule_counts(self):
        ds = random_dataset(Rng(1), 0, n_classes=2)
        images = np.zeros((20, 2, 2))
        labels = np.array([0] * 10 + [1] * 10)
        ds = LabeledDataset(images, labels, ("a", "b"))
        train, val, test = split_stratified(ds, SplitSpec(0.7, 0.15, 0.15, seed=3))
        for c in range(2):
            assert int(np.sum(train.labels == c)) == 7
            assert int(np.sum(val.labels == c)) == 1
            assert int(np.sum(test.labels == c)) == 2

    def test_deterministic(self):
        ds = random_dataset(Rng(2), 40)
        s1 = split_stratified(ds, SplitSpec(seed=11))
        s2 = split_stratified(ds, SplitSpec(seed=11))
        for a, b in zip(s1, s2):
            assert np.array_equal(a.images, b.images)
            assert np.array_equal(a.labels, b.labels)

    def test_partition_property(self):
        ds = random_dataset(Rng(3), 60, n_classes=4)
        parts = split_stratified(ds, SplitSpec(seed=5))
        rows = np.concatenate([p.images.reshape(p.n, -1) for p in parts])
        joined = sorted(map(tuple, rows.tolist()))
        original = sorted(map(tuple, ds.images.reshape(ds.n, -1).tolist()))
        assert joined == original
        assert sum(p.n for p in parts) == ds.n

    def test_per_class_counts_near_fraction(self):
        rng = Rng(9)
        for trial in range(5):
            ds = random_dataset(rng, 50 + trial * 13, n_classes=3)
            if min(np.bincount(ds.labels, minlength=3)) < 3:
                continue
            parts = split_stratified(ds, SplitSpec(seed=trial))
            fracs = (0.70, 0.15, 0.15)
            for c in range(3):
                n_c = int(np.sum(ds.labels == c))
                for part, frac in zip(parts, fracs):
                    got = int(np.sum(part.labels == c))
                    assert abs(got - n_c * frac) <= 1.0

    def test_small_class_rejected(self):
        ds = LabeledDataset(
            np.zeros((5, 2, 2)), np.array([0, 0, 0, 1, 1]), ("big", "tiny")
        )
        with pytest.raises(StratificationError) as err:
            split_stratified(ds, SplitSpec(seed=0))
        assert "tiny" in str(err.value)

    def test_bad_fractions(self):
        with pytest.raises(ArgumentError):
            SplitSpec(0.5, 0.2, 0.2)
        with pytest.raises(ArgumentError):
            SplitSpec(1.0, -0.1, 0.1)
        for fracs in ((nan, 0.15, 0.15), (0.7, nan, 0.15), (0.7, 0.15, nan)):
            with pytest.raises(ArgumentError, match="split fractions must be positive"):
                SplitSpec(*fracs)
        with pytest.raises(ArgumentError, match="split fractions must sum to 1"):
            SplitSpec(inf, 0.15, 0.15)


class TestGlyFormat:
    def test_round_trip_random_datasets(self):
        rng = Rng(31)
        for trial in range(20):
            ds = random_dataset(rng, rng.randrange(12), n_classes=1 + rng.randrange(4))
            buf = io.BytesIO()
            count = write_gly(ds, buf)
            assert count == len(buf.getvalue())
            back = read_gly(io.BytesIO(buf.getvalue()))
            assert np.array_equal(back.images, ds.images)
            assert np.array_equal(back.labels, ds.labels)
            assert back.class_names == ds.class_names

    def test_empty_dataset_round_trips(self):
        ds = LabeledDataset(np.zeros((0, 3, 3)), np.zeros(0, dtype=np.int64), ("only",))
        buf = io.BytesIO()
        write_gly(ds, buf)
        back = read_gly(io.BytesIO(buf.getvalue()))
        assert back.n == 0
        assert back.class_names == ("only",)

    def test_empty_class_table_rejected_on_read(self):
        import struct

        blob = b"GLY1" + struct.pack("<IIIII", 1, 0, 2, 2, 0)
        with pytest.raises(CorruptFileError):
            read_gly(io.BytesIO(blob))

    def test_bad_magic(self):
        with pytest.raises(CorruptFileError):
            read_gly(io.BytesIO(b"NOPE" + bytes(40)))

    def test_truncation_rejected(self):
        ds = random_dataset(Rng(5), 6)
        buf = io.BytesIO()
        write_gly(ds, buf)
        data = buf.getvalue()
        with pytest.raises(CorruptFileError):
            read_gly(io.BytesIO(data[: len(data) - 3]))

    def test_unicode_class_names(self):
        ds = LabeledDataset(
            np.zeros((2, 2, 2)), np.array([0, 1]), ("А", "Ж")
        )
        buf = io.BytesIO()
        write_gly(ds, buf)
        assert read_gly(io.BytesIO(buf.getvalue())).class_names == ("А", "Ж")


class TestReadGlyClasses:
    def gly(self, ds):
        buf = io.BytesIO()
        write_gly(ds, buf)
        return buf.getvalue()

    def test_matches_subset_of_the_full_read(self):
        ds = random_dataset(Rng(14), 150, n_classes=5)  # more than one conversion block
        data = self.gly(ds)
        for names in (["e", "b", "a"], ["d", "b"], ["a", "b", "c", "d", "e"], ["c"]):
            got = read_gly(io.BytesIO(data), classes=names)
            want = read_gly(io.BytesIO(data)).subset_by_classes(names)
            assert got.images.tobytes() == want.images.tobytes()
            assert got.labels.dtype == want.labels.dtype
            assert got.labels.tolist() == want.labels.tolist()
            assert got.class_names == want.class_names

    def test_unknown_class_is_an_argument_error(self):
        data = self.gly(random_dataset(Rng(15), 10, n_classes=3))
        with pytest.raises(ArgumentError, match="unknown class name: 'z'"):
            read_gly(io.BytesIO(data), classes=["a", "z"])

    def test_bad_label_in_a_dropped_class_row_is_corrupt(self):
        ds = LabeledDataset(np.zeros((4, 2, 2)), np.array([0, 1, 2, 0]), ("a", "b", "c"))
        data = bytearray(self.gly(ds))
        labels_at = 24 + 3 * (2 + 1)  # header, then three one-byte names
        assert struct.unpack_from("<H", data, labels_at + 2 * 2) == (2,)
        struct.pack_into("<H", data, labels_at + 2 * 2, 9)  # row 2, class "c"
        with pytest.raises(CorruptFileError, match="labels must index class_names"):
            read_gly(io.BytesIO(bytes(data)), classes=["a", "b"])
        # The corrupt file fails before an unknown class name is looked up.
        with pytest.raises(CorruptFileError):
            read_gly(io.BytesIO(bytes(data)), classes=["a", "z"])


class TestLabeledDataset:
    def test_unsorted_class_names_rejected(self):
        with pytest.raises(ArgumentError):
            LabeledDataset(np.zeros((1, 2, 2)), np.array([0]), ("b", "a"))

    def test_duplicate_class_names_rejected(self):
        with pytest.raises(ArgumentError):
            LabeledDataset(np.zeros((1, 2, 2)), np.array([0]), ("a", "a"))

    def test_label_out_of_range(self):
        with pytest.raises(ArgumentError):
            LabeledDataset(np.zeros((1, 2, 2)), np.array([2]), ("a", "b"))

    def test_subset_by_classes_relabels(self):
        ds = random_dataset(Rng(8), 30, n_classes=3)
        sub = ds.subset_by_classes(["c", "a"])
        assert sub.class_names == ("a", "c")
        assert set(sub.labels.tolist()) <= {0, 1}
        assert sub.n == int(np.sum(ds.labels != 1))

    def test_subset_by_classes_matches_per_row_relabel(self):
        ds = random_dataset(Rng(12), 60, n_classes=5)
        for names in (["e", "b", "a"], ["b", "d"], ["d", "b"], ["a", "b", "c", "d", "e"], ["c"]):
            wanted = sorted(names)
            old_ids = [ds.class_names.index(name) for name in wanted]
            remap = {old: new for new, old in enumerate(old_ids)}
            keep = np.isin(ds.labels, old_ids)
            want = [remap[int(l)] for l in ds.labels[keep]]
            sub = ds.subset_by_classes(names)
            assert sub.labels.dtype == np.int64
            assert sub.labels.tolist() == want
            assert sub.class_names == tuple(wanted)
            assert sub.images.tobytes() == ds.images[keep].tobytes()

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, np.nextafter(1.0, 2.0), -1e-300]
    )
    def test_intensity_outside_unit_interval_rejected(self, bad):
        images = np.full((3, 2, 2), 0.5)
        images[1, 0, 1] = bad
        with pytest.raises(ArgumentError) as err:
            LabeledDataset(images, np.array([0, 1, 0]), ("a", "b"))
        assert str(err.value) == "image intensities must be finite and within [0, 1]"

    def test_negative_zero_intensity_accepted(self):
        images = np.full((2, 2, 2), -0.0)
        images[1] = 1.0
        ds = LabeledDataset(images, np.array([0, 1]), ("a", "b"))
        assert np.signbit(ds.images[0]).all()


def reference_content_order(ds):
    """content_order as a Python sort on (label, pixel bytes) keys."""
    return sorted(range(ds.n), key=lambda i: (int(ds.labels[i]), ds.images[i].tobytes()))


def from_low_bytes(low, rest=0.25):
    """Float64 pixels equal to `rest` except for their lowest mantissa byte."""
    base = np.frombuffer(np.float64(rest).tobytes(), dtype=np.uint8)
    raw = np.tile(base, (len(low), 1))
    raw[:, 0] = low
    return raw.view(np.float64)[:, 0]


class TestContentOrder:
    def check(self, ds):
        got = content_order(ds)
        assert got.tolist() == reference_content_order(ds)

    def test_random_images_with_ties_and_duplicates(self):
        rng = Rng(21)
        for trial in range(10):
            ds = random_dataset(rng, 1 + rng.randrange(40), n_classes=1 + rng.randrange(3))
            dup = np.concatenate([ds.images, ds.images[::2], ds.images[:3]])
            labels = np.concatenate([ds.labels, ds.labels[::2], np.zeros(len(ds.images[:3]), dtype=np.int64)])
            self.check(LabeledDataset(dup, labels, ds.class_names))

    def test_all_rows_equal_keeps_index_order_within_label(self):
        labels = np.array([1, 0, 1, 0, 0, 1])
        self.check(LabeledDataset(np.full((6, 3, 3), 0.5), labels, ("a", "b")))

    def test_signed_zero_sorts_by_its_bytes(self):
        images = np.array([0.0, -0.0, 0.0, -0.0, 1.0]).reshape(5, 1, 1)
        ds = LabeledDataset(images, np.zeros(5, dtype=np.int64), ("a",))
        self.check(ds)
        assert content_order(ds).tolist() == [0, 2, 1, 3, 4]  # byte 6: 0x00 in -0.0, 0xf0 in 1.0

    def test_bytes_at_or_above_0x80_sort_unsigned(self):
        low = [0x80, 0x7F, 0xFF, 0x00, 0x81]
        ds = LabeledDataset(
            from_low_bytes(low).reshape(5, 1, 1), np.zeros(5, dtype=np.int64), ("a",)
        )
        self.check(ds)
        assert content_order(ds).tolist() == [3, 1, 0, 4, 2]

    def test_later_pixels_break_ties(self):
        images = np.zeros((4, 1, 2))
        images[:, 0, 1] = from_low_bytes([0x90, 0x10, 0x90, 0x10])
        self.check(LabeledDataset(images, np.array([0, 0, 1, 1]), ("a", "b")))

    def test_non_contiguous_images(self):
        ds = random_dataset(Rng(22), 25, h=4, w=6)
        view = LabeledDataset(ds.images[:, ::-1, ::2], ds.labels, ds.class_names)
        assert not view.images.flags.c_contiguous
        self.check(view)

    def test_empty_dataset(self):
        ds = LabeledDataset(np.zeros((0, 3, 3)), np.zeros(0, dtype=np.int64), ("a",))
        assert content_order(ds).tolist() == []

    def test_images_without_pixels_order_by_label(self):
        ds = LabeledDataset(np.zeros((4, 0, 3)), np.array([1, 0, 1, 0]), ("a", "b"))
        self.check(ds)


def reference_write_gly(ds):
    """GLY1 bytes built with full-size float64 temporaries and tobytes."""
    blob = bytearray(b"GLY1")
    blob += struct.pack("<IIIII", 1, ds.n, ds.images.shape[1], ds.images.shape[2], len(ds.class_names))
    for name in ds.class_names:
        enc = name.encode("utf-8")
        blob += struct.pack("<H", len(enc)) + enc
    blob += ds.labels.astype("<u2").tobytes()
    blob += np.floor(ds.images * 255.0 + 0.5).astype(np.uint8).tobytes()
    return bytes(blob)


class TestGlyBytes:
    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 130])
    def test_write_matches_reference_bitwise(self, n):
        rng = Rng(50 + n)
        k = np.array([rng.randrange(256) for _ in range(n * 3 * 5)], dtype=np.float64)
        halves = np.minimum(k + 0.5, 255.0)
        for grid in (k / 255.0, halves / 255.0):
            labels = np.array([rng.randrange(3) for _ in range(n)], dtype=np.int64)
            ds = LabeledDataset(grid.reshape(n, 3, 5), labels, ("a", "b", "é"))
            buf = io.BytesIO()
            count = write_gly(ds, buf)
            want = reference_write_gly(ds)
            assert buf.getvalue() == want and count == len(want)
            back = read_gly(io.BytesIO(want))
            pixels = np.frombuffer(want, dtype=np.uint8, offset=len(want) - n * 15)
            ref = pixels.astype(np.float64).reshape(n, 3, 5) / 255.0
            assert back.images.tobytes() == ref.tobytes()

    def test_ingest_matches_per_image_scaling_bitwise(self, tmp_path):
        rng = Rng(60)
        sources = []
        for cname in ("B", "A"):
            d = tmp_path / cname
            d.mkdir()
            for i in range(5):
                w, h = 3 + rng.randrange(6), 3 + rng.randrange(6)
                px = [rng.randrange(256) for _ in range(w * h)]
                (d / f"g{i}.pgm").write_bytes(pgm_bytes(w, h, px))
        for cname in ("A", "B"):
            for i in range(5):
                img = load_pgm((tmp_path / cname / f"g{i}.pgm").read_bytes())
                sources.append(resize_bilinear(img, 7, 7).pixels.astype(np.float64) / 255.0)
        ds = ingest_dir(tmp_path, side=7)
        assert ds.images.tobytes() == np.stack(sources).tobytes()
