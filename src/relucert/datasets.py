"""Labeled datasets: container format, CSV fallback and synthetic generators.

Features live in [0, 1]^d and labels in 1..K.  On disk a dataset is either a
binary container (one JSON header line followed by the raw little-endian
payload: count*d float64 features row-major, then count int64 labels; models
use the same container) or a CSV file whose last column is the label.
"""

from __future__ import annotations

import io
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .net_core import CHUNK_BYTES, _first_seen, _json_int, _read_container, _write_container

__all__ = [
    "Dataset",
    "gen_blobs",
    "gen_corners",
    "save_dataset",
    "load_dataset",
]

_HEADER_KEYS = ("d", "K", "count", "dtype", "layout")
_BLOB_CENTERS = np.array([[0.2, 0.2], [0.8, 0.8]])


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    num_classes: int = 0

    def __post_init__(self):
        X = np.ascontiguousarray(self.features, dtype=np.float64)
        y = np.ascontiguousarray(self.labels, dtype=np.int64)
        if X.ndim != 2 or y.ndim != 1 or len(X) != len(y):
            raise ValueError(
                f"features {X.shape} and labels {y.shape} do not form a dataset")
        # min and max carry a NaN or an infinity through, with no
        # temporary array the size of the data
        lo, hi = (X.min(), X.max()) if X.size else (0.0, 0.0)
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("features must be finite")
        if lo < 0.0 or hi > 1.0:
            raise ValueError("feature values must lie in [0, 1]")
        k = int(self.num_classes) if self.num_classes else (int(y.max()) if len(y) else 0)
        if len(y) and (y.min() < 1 or y.max() > k):
            raise ValueError(f"labels must lie in 1..{k}")
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "num_classes", k)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def count(self) -> int:
        return len(self.features)

    def head(self, n: int) -> "Dataset":
        """The first min(n, count) points; n must be >= 0."""
        if n < 0:
            raise ValueError(f"head needs n >= 0, got {n}")
        return Dataset(self.features[:n], self.labels[:n], self.num_classes)


def gen_blobs(n: int, seed: int = 0, std: float = 0.05) -> Dataset:
    """Two well separated Gaussian blobs in [0, 1]^2."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    return _around(_BLOB_CENTERS, y, std, rng)


def gen_corners(n: int, seed: int = 0, dim: int = 16, num_classes: int = 2,
                spread: float = 0.08) -> Dataset:
    """Hypercube-corner prototypes, one per class, with Gaussian spread,
    clipped to [0, 1].

    The prototypes are one draw of independent coordinates; only if that
    draw repeats a corner are the classes' corners drawn again, without
    replacement, as indices into the 2**dim corners, so that a class count
    near 2**dim ends at once.  Past int64 indices the whole draw repeats
    until distinct, which there is all but certain at the first try."""
    if dim < 1 or not 1 <= num_classes <= 2 ** dim:
        raise ValueError(f"corners need dim >= 1 and 1 <= num_classes <= 2**dim (one "
                         f"corner per class), got dim {dim}, num_classes {num_classes}")
    rng = np.random.default_rng(seed)
    protos = rng.choice([0.15, 0.85], size=(num_classes, dim))
    while len(_first_seen(np.packbits(protos > 0.5, axis=1))[1]) < num_classes:
        if 2 ** dim <= np.iinfo(np.int64).max:
            corners = rng.choice(2 ** dim, num_classes, replace=False)
            protos = np.where((corners[:, None] >> np.arange(dim)) & 1, 0.85, 0.15)
        else:
            protos = rng.choice([0.15, 0.85], size=(num_classes, dim))
    y = rng.integers(0, num_classes, size=n)
    return _around(protos, y, spread, rng)


def _around(centers, y, std, rng) -> Dataset:
    """Points centers[y] + std * N(0, I), clipped to [0, 1] and labelled
    y + 1: the same bits as that expression, but drawn, scaled, shifted and
    clipped in place, the centers gathered a block of rows at a time."""
    X = rng.standard_normal((len(y), centers.shape[1]))
    X *= std
    step = max(1, CHUNK_BYTES // (8 * centers.shape[1]))
    for lo in range(0, len(X), step):
        X[lo:lo + step] += centers[y[lo:lo + step]]
    y += 1
    return Dataset(np.clip(X, 0.0, 1.0, out=X), y, num_classes=len(centers))


def save_dataset(ds: Dataset, path, fmt: str = "bin") -> None:
    if fmt == "bin":
        header = {"d": ds.dim, "K": ds.num_classes, "count": ds.count,
                  "dtype": "f64", "layout": "row-major"}
        _write_container(path, header, (np.asarray(ds.features, "<f8"),
                                        np.asarray(ds.labels, "<i8")))
    elif fmt == "csv":
        with open(path, "w", encoding="utf-8") as fh:
            for row, lab in zip(ds.features, ds.labels):
                fh.write(",".join(repr(float(v)) for v in row) + f",{int(lab)}\n")
    else:
        raise ValueError(f"unknown dataset format {fmt!r}")


def _load_binary(path, header: dict, payload: np.ndarray):
    for key in _HEADER_KEYS:
        if key not in header:
            raise ValueError(f"{path}: header missing key {key!r}")
    if header["dtype"] != "f64" or header["layout"] != "row-major":
        raise ValueError(f"{path}: unsupported dtype/layout in header")
    d = _json_int(path, header["d"], "header 'd'", least=1)
    k = _json_int(path, header["K"], "header 'K'")
    count = _json_int(path, header["count"], "header 'count'")
    need = count * d * 8 + count * 8
    if len(payload) != need:
        raise ValueError(f"{path}: payload has {len(payload)} bytes, expected {need}")
    feats = np.frombuffer(payload, dtype="<f8", count=count * d).reshape(count, d)
    labels = np.frombuffer(payload, dtype="<i8", count=count, offset=count * d * 8)
    if len(labels) and (labels.min() < 1 or labels.max() > k):
        raise ValueError(f"{path}: labels outside 1..{k}")
    return feats, labels, k


def _load_csv(path, data: bytes):
    """Features, labels and K of the CSV text in data.  The text is decoded
    and split into lines (universal newlines) a chunk at a time, and the
    features go into one float64 buffer, so no copy of the whole text and
    no Python object per feature is held."""
    feats, labels = array("d"), []
    width = None
    lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=None)
    try:
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if width is None:
                width = len(parts)
                if width < 2:
                    raise ValueError(f"{path}:{lineno}: need features plus a label")
            elif len(parts) != width:
                raise ValueError(
                    f"{path}:{lineno}: {len(parts)} columns, expected {width}")
            try:
                vals = [float(v) for v in parts]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            lab = vals.pop()
            if not math.isfinite(lab) or lab != int(lab):
                raise ValueError(f"{path}:{lineno}: label {lab} is not an integer")
            feats.extend(vals)
            labels.append(int(lab))
    except UnicodeDecodeError:
        # decoded whole, the bytes name the bad byte's offset in the file
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text: {exc}") from exc
    if not labels:
        raise ValueError(f"{path}: no data rows")
    info = np.iinfo(np.int64)
    if min(labels) < info.min or max(labels) > info.max:
        raise ValueError(f"{path}: labels must fit in int64")
    labs = np.asarray(labels, dtype=np.int64)
    return np.frombuffer(feats, dtype=np.float64).reshape(len(labs), -1), labs, int(labs.max())


def load_dataset(path) -> Dataset:
    """Load a dataset, trying the binary container first and CSV second.
    Any malformed file raises ValueError naming the path."""
    header, data = _read_container(path)
    if header is not None:
        arrays = _load_binary(path, header, data)
    else:
        arrays = _load_csv(path, data)
    try:
        return Dataset(*arrays)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
