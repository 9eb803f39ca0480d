"""Glyph dataset handling.

Covers the full path from raw binary P5 graymaps on disk to the packed
GLY1 dataset file: decoding, center-aligned bilinear resize, intensity
normalization to [0, 1], deterministic stratified splitting, and a
bit-exact binary round trip.

GLY1 layout (all integers little-endian):

    magic 'GLY1' | u32 version=1 | u32 n | u32 height | u32 width
    | u32 n_classes | n_classes x (u16 byte_len, UTF-8 name)
    | n x u16 label | n*height*width x u8 pixel

Pixels are stored on the original 0..255 scale; readers divide by 255.

Memory: one float64 copy of the paper's CGCL set (over 4,000 images at
64x64) is 131 MB, so no function here builds a second one. read_gly
scales its converted pixels in place, and converts only the rows of the
classes it is asked for, ingest_dir stacks the u8 rasters
and converts them once, and write_gly fills one file-sized buffer,
rounding _ROUND_IMAGES images per float64 temporary. At the benchmark's
size the `ingest` command of 1,200 64x64 images peaks at 77-79 MB of RSS
(143 MB when it built full-size temporaries).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ArgumentError,
    CorruptFileError,
    EmptyDatasetError,
    StratificationError,
    UnsupportedDepthError,
    UnsupportedFormatError,
)
from .numerics import Rng, Tensor, derive_seed

_GLY_MAGIC = b"GLY1"
_GLY_VERSION = 1
_ROUND_IMAGES = 64  # write_gly rounds this many images per float64 temporary


@dataclass(frozen=True)
class GrayImage:
    """8-bit grayscale raster; pixels shaped (height, width), row-major."""

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ArgumentError(f"image extents must be >= 1, got {self.width}x{self.height}")
        px = np.asarray(self.pixels, dtype=np.uint8).reshape(self.height, self.width)
        object.__setattr__(self, "pixels", px)


@dataclass(frozen=True)
class LabeledDataset:
    """Uniform-size glyph images with integer labels and a class table.

    images holds float64 intensities in [0, 1] shaped (n, h, w); labels
    index class_names, which must be duplicate-free and sorted ascending
    by code point so label indices are reproducible without a manifest.
    """

    images: Tensor
    labels: np.ndarray
    class_names: tuple[str, ...]

    def __post_init__(self):
        images = np.asarray(self.images, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        names = tuple(self.class_names)
        if images.ndim != 3:
            raise ArgumentError(f"images must be rank-3 (n, h, w), got shape {images.shape}")
        if labels.shape != (images.shape[0],):
            raise ArgumentError(
                f"labels length {labels.shape} does not match image count {images.shape[0]}"
            )
        _check_class_table(labels, names)
        # A NaN fails both comparisons, so no separate finiteness pass is needed.
        if images.size and not (images.min() >= 0.0 and images.max() <= 1.0):
            raise ArgumentError("image intensities must be finite and within [0, 1]")
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "class_names", names)

    @property
    def n(self) -> int:
        return self.images.shape[0]

    @property
    def image_shape(self) -> tuple[int, int]:
        return self.images.shape[1], self.images.shape[2]

    def select(self, indices) -> "LabeledDataset":
        """Subset by row indices; the class table is kept as-is."""
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(self.images[idx], self.labels[idx], self.class_names)

    def subset_by_classes(self, names) -> "LabeledDataset":
        """Rows of the given classes only, relabeled against a reduced table."""
        keep, labels, wanted = _class_subset(self.labels, self.class_names, names)
        return LabeledDataset(self.images[keep], labels, wanted)


def _check_class_table(labels: np.ndarray, names: tuple) -> None:
    if list(names) != sorted(names) or len(set(names)) != len(names):
        raise ArgumentError("class_names must be unique and sorted ascending by code point")
    if labels.size and (labels.min() < 0 or labels.max() >= len(names)):
        raise ArgumentError("labels must index class_names")


def _class_subset(labels: np.ndarray, class_names: tuple, names):
    """(keep, labels, names): the mask of the rows of the given classes,
    their labels against the reduced table, and that table."""
    wanted = sorted(names)
    for name in wanted:
        if name not in class_names:
            raise ArgumentError(f"unknown class name: {name!r}")
    old_ids = [class_names.index(name) for name in wanted]
    lut = np.zeros(len(class_names), dtype=np.int64)
    lut[old_ids] = np.arange(len(old_ids))
    keep = np.isin(labels, old_ids)
    return keep, lut[labels[keep]], tuple(wanted)


@dataclass(frozen=True)
class SplitSpec:
    """Fractions for train/val/test plus the seed that fixes the shuffle."""

    train_frac: float = 0.70
    val_frac: float = 0.15
    test_frac: float = 0.15
    seed: int = 0

    def __post_init__(self):
        fracs = (self.train_frac, self.val_frac, self.test_frac)
        # Each comparison is written so that NaN fails it.
        if not all(f > 0 for f in fracs):
            raise ArgumentError(f"split fractions must be positive, got {fracs}")
        if not abs(sum(fracs) - 1.0) <= 1e-9:
            raise ArgumentError(f"split fractions must sum to 1, got {sum(fracs)}")


def load_pgm(data: bytes) -> GrayImage:
    """Decode a binary P5 graymap with maxval 255."""
    if len(data) < 2 or data[:2] != b"P5":
        raise UnsupportedFormatError("not a binary P5 graymap")

    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(data):
            if data[pos : pos + 1].isspace():
                pos += 1
            elif data[pos : pos + 1] == b"#":  # comment runs to end of line
                while pos < len(data) and data[pos] not in b"\r\n":
                    pos += 1
            else:
                break
        start = pos
        while pos < len(data) and data[pos : pos + 1].isdigit():
            pos += 1
        if pos == start:
            raise CorruptFileError("malformed P5 header")
        fields.append(int(data[start:pos]))

    width, height, maxval = fields
    if maxval != 255:
        raise UnsupportedDepthError(f"maxval must be 255, got {maxval}")
    if width < 1 or height < 1:
        raise CorruptFileError(f"bad raster extents {width}x{height}")
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise CorruptFileError("missing whitespace before raster")
    pos += 1

    expected = width * height
    raster = data[pos : pos + expected]
    if len(raster) < expected:
        raise CorruptFileError(f"raster truncated: expected {expected} bytes, found {len(raster)}")
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    return GrayImage(width, height, pixels.copy())


def write_pgm(img: GrayImage) -> bytes:
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.tobytes()


def _edge_pad(img: np.ndarray, pad: np.ndarray | None = None) -> np.ndarray:
    """The (h, w) image img inside a one-pixel border that repeats its
    edge, written into pad (shaped (h + 2, w + 2)) or a new array."""
    h, w = img.shape
    if pad is None:
        pad = np.empty((h + 2, w + 2))
    pad[1:-1, 1:-1] = img
    pad[0, 1:-1] = img[0]
    pad[-1, 1:-1] = img[-1]
    pad[:, 0] = pad[:, 1]
    pad[:, -1] = pad[:, -2]
    return pad


def _sample_padded(pad: np.ndarray, sx, sy, out: np.ndarray | None = None) -> np.ndarray:
    """Bilinear samples at source coordinates (sx, sy) of the image that
    _edge_pad put into pad; see _bilinear. Writes into out if given."""
    h, w = pad.shape[0] - 2, pad.shape[1] - 2
    x0 = np.floor(sx)
    y0 = np.floor(sy)
    fx = sx - x0
    fy = sy - y0
    # One clamp per axis, in float, to [-1, extent - 1]: the taps at
    # x0 and x0 + 1 then fall inside the padded image, where the border
    # repeats the edge, so every tap reads the pixel a clamp of each
    # tap index to [0, extent - 1] would. fmax/fmin map a NaN
    # coordinate to an in-range index; its weights keep the output NaN.
    np.fmin(np.fmax(x0, -1.0, out=x0), w - 1, out=x0)
    np.fmin(np.fmax(y0, -1.0, out=y0), h - 1, out=y0)
    # Flat index of padded (y0 + 1, x0 + 1); exact in float64.
    y0 *= w + 2
    y0 += w + 3
    idx = np.empty(np.broadcast(x0, y0).shape, dtype=np.int64)
    np.add(y0, x0, out=idx, casting="unsafe")
    # Every index is in range by construction; mode="clip" only skips
    # take's slower bounds-checked path.
    flat = pad.reshape(-1)
    top = flat.take(idx, mode="clip")
    t01 = flat[1:].take(idx, mode="clip")
    bot = flat[w + 2 :].take(idx, mode="clip")
    t11 = flat[w + 3 :].take(idx, mode="clip")
    gx = 1.0 - fx
    top *= gx
    t01 *= fx
    top += t01
    bot *= gx
    t11 *= fx
    bot += t11
    top *= 1.0 - fy
    bot *= fy
    return np.add(top, bot, out=out)


def _bilinear(img: np.ndarray, sx, sy) -> np.ndarray:
    """Bilinear samples of the (h, w) float image img at source
    coordinates (sx, sy), which broadcast against each other. Taps
    outside the image take the nearest edge pixel, however far out
    they fall."""
    return _sample_padded(_edge_pad(img), sx, sy)


def resize_bilinear(img: GrayImage, out_w: int, out_h: int) -> GrayImage:
    """Center-aligned bilinear resample, edge-clamped, rounded half-up.

    Source coordinate for destination index d along an axis is
    (d + 0.5) * (src_extent / dst_extent) - 0.5, so an identical-size
    resize lands exactly on the input grid and is lossless.
    """
    if out_w < 1 or out_h < 1:
        raise ArgumentError(f"output extents must be >= 1, got {out_w}x{out_h}")
    h, w = img.height, img.width
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    out = _bilinear(img.pixels.astype(np.float64), xs[None, :], ys[:, None])
    out8 = np.floor(out + 0.5).astype(np.uint8)
    return GrayImage(out_w, out_h, out8)


def ingest_dir(root, side: int = 64) -> LabeledDataset:
    """Build a dataset from a directory tree root/<class>/<name>.pgm.

    Class names are the subdirectory names sorted ascending; files within
    a class are taken in sorted filename order, so the result does not
    depend on filesystem enumeration order. Every image is resized to
    side x side and scaled to [0, 1] by dividing by 255.
    """
    if side < 1:
        raise ArgumentError(f"side must be >= 1, got {side}")
    rootp = Path(root)
    if not rootp.is_dir():
        raise ArgumentError(f"ingest root is not a directory: {root}")
    class_dirs = sorted(p for p in rootp.iterdir() if p.is_dir())
    if not class_dirs:
        raise EmptyDatasetError(f"no class subdirectories under {root}")

    class_names = tuple(p.name for p in class_dirs)
    rasters: list[np.ndarray] = []
    labels: list[int] = []
    for label, cdir in enumerate(class_dirs):
        for fpath in sorted(p for p in cdir.iterdir() if p.is_file() and p.suffix == ".pgm"):
            try:
                img = load_pgm(fpath.read_bytes())
            except (UnsupportedFormatError, CorruptFileError) as exc:
                raise CorruptFileError(f"{fpath}: {exc}") from exc
            rasters.append(resize_bilinear(img, side, side).pixels)
            labels.append(label)

    # The u8 rasters are an eighth of the float64 images: stack them,
    # convert once and scale in place.
    if rasters:
        images = np.stack(rasters).astype(np.float64)
        images /= 255.0
    else:
        images = np.zeros((0, side, side), dtype=np.float64)
    return LabeledDataset(images, np.array(labels, dtype=np.int64), class_names)


def split_stratified(ds: LabeledDataset, spec: SplitSpec):
    """Seeded per-class shuffle-and-cut into (train, val, test).

    Within each class the shuffled indices are cut at
    floor(n_c * train_frac) and floor(n_c * (train_frac + val_frac)).
    The three parts partition the dataset exactly and the same seed
    always reproduces the same split.
    """
    parts: tuple[list[int], list[int], list[int]] = ([], [], [])
    rng = Rng(derive_seed(spec.seed, 0x53504C49))  # stream tag: split
    for c in range(len(ds.class_names)):
        idx = [int(i) for i in np.flatnonzero(ds.labels == c)]
        if len(idx) < 3:
            raise StratificationError(
                f"class {ds.class_names[c]!r} has {len(idx)} samples; need >= 3 to stratify"
            )
        rng.shuffle(idx)
        n_c = len(idx)
        cut1 = int(n_c * spec.train_frac)
        cut2 = int(n_c * (spec.train_frac + spec.val_frac))
        parts[0].extend(idx[:cut1])
        parts[1].extend(idx[cut1:cut2])
        parts[2].extend(idx[cut2:])
    return tuple(ds.select(p) for p in parts)


def content_order(ds: LabeledDataset) -> np.ndarray:
    """Indices sorted by (label, pixel bytes), ties by index: a
    row-order-independent canonical ordering used by trainers before
    their seeded shuffle.

    Two stable sorts, by the rows' raw bytes and then by label, give the
    order of sorting on the (label, bytes) pair. A void view compares
    rows as unsigned bytes, as bytes objects do, without a copy of them.
    """
    order = np.arange(ds.n)
    width = ds.images[0].nbytes if ds.n else 0
    if width:
        rows = np.ascontiguousarray(ds.images).reshape(ds.n, -1)
        order = np.argsort(rows.view(np.dtype((np.void, width)))[:, 0], kind="stable")
    return order[np.argsort(ds.labels[order], kind="stable")]


def read_source(source) -> bytes:
    """All bytes of a file path or of a binary file-like object."""
    if isinstance(source, (str, Path)):
        return Path(source).read_bytes()
    return source.read()


def write_sink(sink, data) -> int:
    """Write data to a file path, creating its directory, or to a binary
    file-like object. Returns the number of bytes written."""
    if isinstance(sink, (str, Path)):
        path = Path(sink)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    else:
        sink.write(data)
    return len(data)


def write_gly(ds: LabeledDataset, sink) -> int:
    """Serialize to GLY1. Returns the number of bytes written."""
    if not ds.class_names:
        raise ArgumentError("refusing to write a dataset with an empty class table")
    n = ds.n
    h, w = ds.images.shape[1], ds.images.shape[2]
    if len(ds.class_names) > 0xFFFF:
        raise ArgumentError("GLY1 stores labels as u16; class table too large")

    parts = [_GLY_MAGIC, struct.pack("<IIIII", _GLY_VERSION, n, h, w, len(ds.class_names))]
    for name in ds.class_names:
        enc = name.encode("utf-8")
        if len(enc) > 0xFFFF:
            raise ArgumentError(f"class name too long for u16 length: {name!r}")
        parts += [struct.pack("<H", len(enc)), enc]
    head = b"".join(parts)

    # One buffer of the file's size; labels and pixels go in through views.
    blob = bytearray(len(head) + 2 * n + n * h * w)
    blob[: len(head)] = head
    np.frombuffer(blob, dtype="<u2", count=n, offset=len(head))[:] = ds.labels
    pixels = np.frombuffer(blob, dtype=np.uint8, offset=len(head) + 2 * n).reshape(n, h, w)
    block = np.empty((min(n, _ROUND_IMAGES), h, w))
    for s in range(0, n, _ROUND_IMAGES):
        t = block[: min(n - s, _ROUND_IMAGES)]
        np.multiply(ds.images[s : s + len(t)], 255.0, out=t)
        t += 0.5
        np.floor(t, out=t)
        pixels[s : s + len(t)] = t
    return write_sink(sink, blob)


def read_gly(source, classes=None) -> LabeledDataset:
    """Parse a GLY1 file back into a LabeledDataset.

    With classes, a list of class names, the result is
    read_gly(source).subset_by_classes(classes), bit for bit, but only
    those classes' rows are converted to float64. Every label is still
    checked, so a corrupt file raises CorruptFileError before an
    unknown class name raises ArgumentError.
    """
    data = read_source(source)
    if len(data) < 4 or data[:4] != _GLY_MAGIC:
        raise CorruptFileError("bad GLY1 magic")
    if len(data) < 24:
        raise CorruptFileError("GLY1 header truncated")
    version, n, h, w, n_classes = struct.unpack_from("<IIIII", data, 4)
    if version != _GLY_VERSION:
        raise CorruptFileError(f"unsupported GLY1 version {version}")
    if n_classes == 0:
        raise CorruptFileError("GLY1 class table is empty")

    pos = 24
    names = []
    for _ in range(n_classes):
        if pos + 2 > len(data):
            raise CorruptFileError("GLY1 class table truncated")
        (blen,) = struct.unpack_from("<H", data, pos)
        pos += 2
        raw = data[pos : pos + blen]
        if len(raw) < blen:
            raise CorruptFileError("GLY1 class table truncated")
        try:
            names.append(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise CorruptFileError(f"GLY1 class name is not UTF-8: {exc}") from exc
        pos += blen
    names = tuple(names)

    if pos + 2 * n > len(data):
        raise CorruptFileError("GLY1 label block truncated")
    labels = np.frombuffer(data, dtype="<u2", count=n, offset=pos).astype(np.int64)
    pos += 2 * n

    n_px = n * h * w
    if pos + n_px > len(data):
        raise CorruptFileError("GLY1 pixel block truncated")
    pixels = np.frombuffer(data, dtype=np.uint8, count=n_px, offset=pos).reshape(n, h, w)
    try:
        _check_class_table(labels, names)
    except ArgumentError as exc:
        raise CorruptFileError(f"GLY1 payload inconsistent: {exc}") from exc

    if classes is None:
        images = pixels.astype(np.float64)
    else:
        keep, labels, names = _class_subset(labels, names, classes)
        rows = np.flatnonzero(keep)
        # _ROUND_IMAGES rows at a time, so no 8-bit copy of the kept set.
        images = np.empty((len(rows), h, w))
        for s in range(0, len(rows), _ROUND_IMAGES):
            images[s : s + _ROUND_IMAGES] = pixels[rows[s : s + _ROUND_IMAGES]]
    images /= 255.0
    return LabeledDataset(images, labels, names)
