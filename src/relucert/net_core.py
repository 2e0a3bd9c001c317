"""Dense ReLU classifiers and their exact piecewise-affine local structure.

A network built from dense layers with ReLU activations is affine on each
activation region of the input space.  For a batch of anchor points, one
pass over the layers (``region_map``) yields the affine restriction (V, a
per layer) and the half-space description of the region containing each
point.  The geometry is built once per activation region, not once per
point: the points are grouped layer by layer by their masks so far, and
each layer's affine form is built once per group.  Points near each other,
and the training points of a margin-regularized net, mostly share a region.
``region_maps`` splits a batch into chunks of bounded memory, larger while
the points share regions; it is the one region-geometry path behind
certification and the regularizer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ReluNet",
    "RegionMap",
    "forward_batch",
    "backward_batch",
    "region_map",
    "region_maps",
    "random_net",
    "load_model",
    "save_model",
]


# Cap on the memory of one chunk of batched region geometry: on its region
# tables (U * N * d * 8 bytes for U distinct activation regions and N hidden
# units) and on its per-point arrays (B * N * 8).  region_maps cuts a batch
# into chunks within it, so its memory does not grow with the batch.
CHUNK_BYTES = 256 * 1024


def _frozen_array(a, dtype):
    out = np.array(a, dtype=dtype, order="C", copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class ReluNet:
    """Fully connected ReLU classifier.

    ``weights[l]`` has shape (n_l, n_{l-1}) and ``biases[l]`` shape (n_l,).
    ReLU is applied after every layer except the last one, whose K outputs
    are the class logits.  A net with a single layer (no hidden units) is
    allowed and is a plain affine classifier.

    Parameters are float64, or float32 when every given array is float32
    (see ``astype``); ``forward_batch`` computes in that dtype.

    Instances are immutable: all parameter arrays are read-only, so a net
    can be shared freely across threads.
    """

    weights: tuple
    biases: tuple

    def __post_init__(self):
        params = (*self.weights, *self.biases)
        single = bool(params) and all(getattr(a, "dtype", None) == np.float32 for a in params)
        dtype = np.float32 if single else np.float64
        ws = tuple(_frozen_array(w, dtype) for w in self.weights)
        bs = tuple(_frozen_array(b, dtype) for b in self.biases)
        if len(ws) == 0 or len(ws) != len(bs):
            raise ValueError("need exactly one bias vector per weight matrix")
        for i, (w, b) in enumerate(zip(ws, bs)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError(
                    f"layer {i}: weight shape {w.shape} and bias shape {b.shape} do not match")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {i}: parameters must be finite")
            if i > 0 and w.shape[1] != ws[i - 1].shape[0]:
                raise ValueError(
                    f"layer {i}: expects {w.shape[1]} inputs but previous layer "
                    f"has {ws[i - 1].shape[0]} units")
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "biases", bs)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def num_classes(self) -> int:
        return self.weights[-1].shape[0]

    @property
    def num_hidden_layers(self) -> int:
        return len(self.weights) - 1

    @property
    def hidden_sizes(self) -> tuple:
        return tuple(w.shape[0] for w in self.weights[:-1])

    @property
    def num_hidden_units(self) -> int:
        return int(sum(self.hidden_sizes))

    @property
    def dtype(self) -> np.dtype:
        return self.weights[0].dtype

    def with_parameters(self, weights, biases) -> "ReluNet":
        """New net with the same architecture and different parameters."""
        return ReluNet(tuple(weights), tuple(biases))

    def astype(self, dtype) -> "ReluNet":
        """The same net with its parameters rounded to float32 or float64."""
        dtype = np.dtype(dtype)
        if dtype not in (np.float32, np.float64):
            raise ValueError(f"dtype must be float32 or float64, got {dtype}")
        return ReluNet(tuple(w.astype(dtype) for w in self.weights),
                       tuple(b.astype(dtype) for b in self.biases))


def _view_net(weights, biases) -> ReluNet:
    """A net over read-only views of the given arrays, neither copied nor
    checked, so it follows in-place updates of their buffers.  Unlike a
    ReluNet it is not immutable: it is for a caller that owns the arrays,
    checks their values itself and never hands the net out."""
    net = object.__new__(ReluNet)
    for name, arrays in (("weights", weights), ("biases", biases)):
        views = tuple(a.view() for a in arrays)
        for v in views:
            v.flags.writeable = False
        object.__setattr__(net, name, views)
    return net


@dataclass(frozen=True)
class RegionMap:
    """Affine maps of the activation regions of a batch of B points.

    Layer l's affine form on a region depends only on the masks of the
    layers before it, so it is held once per distinct prefix of activation
    masks among the points: ``v_maps[l]`` (U_l, n_l, d) and ``a_maps[l]``
    (U_l, n_l), the last entry being the output map, and ``index[l]`` (B,)
    gives each point's row in them.  Rows are numbered in order of first
    appearance, so the first layer has one row and the output map one per
    activation region, ``region`` = ``index[-1]``.  Per point,
    ``masks[l]`` (B, n_l) marks the active hidden units, ``values`` (B, N)
    are the preactivations of the N hidden units at ``points`` and
    ``logits`` (B, K) the outputs there.
    """

    points: np.ndarray
    index: tuple
    masks: tuple
    v_maps: tuple
    a_maps: tuple
    values: np.ndarray
    logits: np.ndarray

    @property
    def region(self) -> np.ndarray:
        return self.index[-1]

    def some_point(self, l) -> np.ndarray:
        """One point of each row of layer l's tables, (U_l,): the points of a
        row share its masks and rows at every earlier layer."""
        out = np.empty(len(self.v_maps[l]), dtype=np.int64)
        out[self.index[l]] = np.arange(len(self.index[l]))
        return out

    def stacked(self, tables) -> np.ndarray:
        """Per-point stack (B, N) of one table (U_l, n_l) per hidden layer,
        such as the row norms of the hidden v_maps."""
        out = np.empty(self.values.shape)
        pos = 0
        for table, index in zip(tables, self.index):
            n = table.shape[1]
            # rows are numbered in first-seen order: a table with one row per
            # point is in point order already, and a one-row table broadcasts
            out[:, pos:pos + n] = table if len(table) in (1, len(index)) else table[index]
            pos += n
        return out

    def affine_region(self, i):
        """Point i's activation region as rows [w, c] of affine maps z -> w . z
        + c: ``hidden`` (N, d + 1), each hidden unit's row signed by its mask,
        so that every row is positive exactly inside the region, and
        ``output`` (K, d + 1), the logit map there.  Each layer's row is
        gathered from its table; no per-point stack is built."""
        *hidden, output = [np.column_stack([v[index[i]], a[index[i]]])
                           for v, a, index in zip(self.v_maps, self.a_maps, self.index)]
        sign = np.where(self.values[i] > 0, 1.0, -1.0)[:, None]  # the masks, concatenated
        return sign * np.concatenate([np.empty((0, output.shape[1])), *hidden]), output

    def decision_planes(self, labels):
        """Decision hyperplanes of each point against every other class.

        Returns (others, normals, values): ``others`` (B, K-1) are the
        0-based competing classes in increasing order, ``normals`` (B, K-1, d)
        the rows V_label - V_s of the output map and ``values`` (B, K-1) the
        logit margins f_label - f_s at the points.
        """
        v_out = self.v_maps[-1]
        B, K = self.logits.shape
        c = (np.asarray(labels, dtype=np.int64) - 1)[:, None]
        base = np.arange(K - 1)[None, :]
        others = base + (base >= c)
        r = self.region[:, None]
        normals = v_out[r, c] - v_out[r, others]
        idx = np.arange(B)[:, None]
        values = self.logits[idx, c] - self.logits[idx, others]
        return others, normals, values

    def patterns(self) -> np.ndarray:
        """Activation pattern of each region, bits packed: (U, ceil(N / 8))."""
        return np.packbits(self.values[self.some_point(-1)] > 0, axis=1)


def forward_batch(net: ReluNet, xs):
    """Batched forward pass; xs has shape (B, d).

    Returns (logits (B, K), preactivations list of (B, n_l)), computed in
    the net's dtype (xs is cast to it).
    """
    xs = np.asarray(xs, dtype=net.dtype)
    if xs.ndim != 2 or xs.shape[1] != net.input_dim:
        raise ValueError(f"batch has shape {xs.shape}, expected (B, {net.input_dim})")
    preacts = []
    h = xs
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        g = h @ w.T + b
        preacts.append(g)
        h = np.maximum(g, 0.0)
    logits = h @ net.weights[-1].T + net.biases[-1]
    return logits, preacts


def backward_batch(net: ReluNet, preacts, g_logits, grads=None, xs=None, g_pre=None):
    """Input adjoint (B, d) of sum(g_logits * logits), in the net's dtype, with
    the ReLU masks fixed at preacts > 0 (the inactive branch at kinks).  If
    given, g_pre (B, n_l) per hidden layer adds sum(g_pre[l] * preacts[l]),
    and grads = (dW, db) receives the parameter gradient at the inputs xs."""
    g = g_logits
    for l in range(len(net.weights) - 1, -1, -1):
        if grads is not None:
            grads[0][l] += g.T @ (np.maximum(preacts[l - 1], 0.0) if l else xs)
            grads[1][l] += g.sum(axis=0)
        if l:
            g = (g @ net.weights[l]) * (preacts[l - 1] > 0)
            if g_pre is not None:
                g += g_pre[l - 1]
    return g @ net.weights[0]


def classify_batch(net: ReluNet, xs) -> np.ndarray:
    """Predicted class in 1..K of each row of xs (B, d); exact logit ties go
    to the smallest index."""
    logits, _ = forward_batch(net, xs)
    return np.argmax(logits, axis=1) + 1


def _per_point(v, xs):
    """v[i] @ xs[i] for every point i: (B, n, d) and (B, d) -> (B, n);
    v may also be one (1, n, d) map shared by every point."""
    return np.matmul(v, xs[:, :, None])[:, :, 0]


def _per_region(v, a, index, xs, cap, out):
    """out[i] = v[r] @ x + a[r] for every point x and its row r = index[i]:
    the per-point products of _per_point, with the rows gathered at most cap
    points at a time (none when one row is shared by every point or each
    point has its own)."""
    if len(v) in (1, len(xs)):  # rows are numbered in first-seen order
        return np.add(_per_point(v, xs), a, out=out)
    for lo in range(0, len(xs), cap):
        i = index[lo:lo + cap]
        np.add(_per_point(v[i], xs[lo:lo + cap]), a[i], out=out[lo:lo + cap])
    return out


def _first_seen(keys):
    """Group the equal rows of keys (B, w) uint8.

    Returns (group, first): each row's group, numbered in order of first
    appearance, and the first row of every group.
    """
    B, width = keys.shape
    if width == 0 or (keys == keys[:1]).all():
        return np.zeros(B, dtype=np.int64), np.arange(min(B, 1))
    order = np.argsort(keys.view(np.dtype((np.void, width)))[:, 0], kind="stable")
    runs = np.empty(B, dtype=bool)  # where a run of equal sorted keys starts
    runs[0] = True
    np.any(keys[order[1:]] != keys[order[:-1]], axis=1, out=runs[1:])
    first = order[runs]  # the sort is stable: each run starts at its first row
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    group = np.empty(B, dtype=np.int64)
    group[order] = rank[np.cumsum(runs) - 1]
    return group, np.sort(first)


def _layer_step(w, b, v, a, mask):
    """Affine form of the layer after one whose form on each region is
    v (B, m, d), a (B, m) and whose active units are mask (B, m):
    W (mask * v) and W (mask * a) + b, shapes (B, n, d) and (B, n).

    The one recursion behind region_map and the 2-D region atlas.
    """
    return np.matmul(w, v * mask[:, :, None]), _per_point(w[None], a * mask) + b


def _region_prefix(net: ReluNet, xs, cap: int) -> RegionMap:
    """Region geometry of the first k rows of xs: k is len(xs) if those
    rows span at most cap regions, else the largest multiple of cap whose
    rows do.

    The rows are grouped layer by layer by (prefix of the earlier layers,
    mask), and each layer's affine form is built once per group, so cap
    also bounds the rows of every table.  A row's preactivation is its
    group's V x + a taken point by point, so each point's geometry is the
    same whichever rows share its batch.
    """
    B, d = xs.shape
    values = np.empty((B, net.num_hidden_units))
    index, masks, v_maps, a_maps = [], [], [], []
    pos = 0
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        if l == 0:
            group = np.zeros(B, dtype=np.int64)
            v, a = w[None], b[None]
        else:
            prev = group
            if len(v) == B:  # every row has its own prefix already
                first = group
            else:
                keys = np.packbits(masks[-1], axis=1)
                if len(v) > 1:
                    keys = np.concatenate([prev[:, None].view(np.uint8), keys], axis=1)
                group, first = _first_seen(keys)
                if len(first) > cap:
                    return _region_prefix(net, xs[:first[cap] // cap * cap], cap)
            # each group's parent row; all of them in order when none split
            parent = prev[first] if len(first) > len(v) else slice(None)
            v, a = _layer_step(w, b, v[parent], a[parent], masks[-1][first])
        index.append(group)
        v_maps.append(v)
        a_maps.append(a)
        if l < net.num_hidden_layers:
            g = _per_region(v, a, group, xs, cap, values[:, pos:pos + w.shape[0]])
            masks.append(g > 0)
            pos += w.shape[0]
    logits = _per_region(v, a, group, xs, cap, np.empty((B, len(b))))
    return RegionMap(xs, tuple(index), tuple(masks), tuple(v_maps), tuple(a_maps), values,
                     logits)


def region_map(net: ReluNet, xs) -> RegionMap:
    """Region geometry of every row of xs (B, d) in one pass over the layers.

    Each hidden layer's mask is read off its preactivation V^(l) x + a^(l)
    at the point before the next layer is built, and each layer's affine
    form is built once per distinct activation prefix.  Every product is
    taken point by point or prefix by prefix, so a point's result does not
    depend on the rest of the batch.  Builds the whole batch at once;
    ``region_maps`` splits a batch into chunks of bounded memory.
    """
    xs = np.asarray(xs, dtype=np.float64)
    return _region_prefix(net, xs, max(len(xs), 1))


def _region_cap(net: ReluNet) -> int:
    """Regions whose stacked hidden rows (N * d floats each) fit in
    CHUNK_BYTES, at least one."""
    return max(1, CHUNK_BYTES // (8 * net.input_dim * max(net.num_hidden_units, 1)))


def region_maps(net: ReluNet, xs):
    """Yield (slice, RegionMap) over consecutive chunks of the rows of xs.

    A chunk's tables hold at most R = ``_region_cap(net)`` regions' rows
    (CHUNK_BYTES, or one region's rows if larger) and its per-point (B, N)
    arrays at most CHUNK_BYTES, or R points if more.  The first chunk takes
    R points.  The next one takes twice as many while the last one spanned
    at most half of R regions (or one region), and R again otherwise; a
    chunk whose points would span more than R regions ends at the last
    multiple of R points that fits.  So a chunk is always a multiple of R
    points, except the last.  Building a chunk holds its tables and the
    layer step's two temporaries, at most 3 R regions' rows of (., N, d)
    arrays.  A point's geometry does not depend on the rest of its chunk,
    so it is the same wherever the chunks are cut.  A row that is not finite
    raises ValueError.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != net.input_dim:
        raise ValueError(f"batch has shape {xs.shape}, expected (B, {net.input_dim})")
    if not np.isfinite(xs).all():
        raise ValueError(f"row {np.argwhere(~np.isfinite(xs))[0, 0]} of the batch is not finite")
    cap = _region_cap(net)
    most = cap * max(1, CHUNK_BYTES // (8 * max(net.num_hidden_units, 1)) // cap)
    step, lo = cap, 0
    while lo < len(xs):
        rmap = _region_prefix(net, xs[lo:lo + step], cap)
        yield slice(lo, lo + len(rmap.points)), rmap
        lo += len(rmap.points)
        step = min(2 * step, most) if len(rmap.v_maps[-1]) <= max(1, cap // 2) else cap


def random_net(layer_sizes, seed=0, bias_scale=0.0) -> ReluNet:
    """Net with uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights.

    Biases are zero unless bias_scale > 0, in which case they are uniform
    in (-bias_scale, bias_scale).
    """
    sizes = [int(s) for s in layer_sizes]
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError(f"bad layer sizes {layer_sizes}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, n in zip(sizes[:-1], sizes[1:]):
        scale = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-scale, scale, size=(n, fan_in)))
        if bias_scale > 0:
            biases.append(rng.uniform(-bias_scale, bias_scale, size=n))
        else:
            biases.append(np.zeros(n))
    return ReluNet(tuple(weights), tuple(biases))


def _write_container(path, header: dict, arrays) -> None:
    """Write a container file: the header as one JSON line, then each array's
    raw bytes in turn (the caller picks their little-endian dtypes)."""
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        for a in arrays:
            fh.write(a.tobytes())


def _read_container(path):
    """(header dict, payload bytes) of a container file: one JSON object on
    the first line, then the raw payload.  When the first line does not
    start with '{' the header is None and the payload is the whole file."""
    with open(path, "rb") as fh:
        line = fh.readline()
        payload = fh.read()
    if not line.strip().startswith(b"{"):
        return None, line + payload
    try:
        header = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: header is not valid JSON: {exc}") from exc
    return header, payload


def save_model(net: ReluNet, path) -> None:
    """Write net as a container file: the JSON header line {"input_dim",
    "num_classes", "dtype": "f64", "layers": [{"rows", "cols"}, ...]}, then
    each layer's weights (row-major) and bias as little-endian float64.  A
    float32 net is stored as its exact float64 upcast."""
    header = {"input_dim": net.input_dim, "num_classes": net.num_classes, "dtype": "f64",
              "layers": [{"rows": int(w.shape[0]), "cols": int(w.shape[1])}
                         for w in net.weights]}
    _write_container(path, header, (a.astype("<f8") for w, b in zip(net.weights, net.biases)
                                    for a in (w, b)))


def _json_int(path, value, what, least=0) -> int:
    """value as an int >= least, else ValueError naming path and what."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{path}: {what} must be an integer >= {least}, got {value!r}")
    return value


def load_model(path) -> ReluNet:
    """Load a model written by ``save_model``, validating the header's layer
    dimension chain and the payload length before reading any parameter.

    Any malformed file, a float-list JSON model among them, raises
    ValueError naming the path."""
    header, payload = _read_container(path)
    if header is None:
        raise ValueError(f"{path}: not a model container: no JSON header line")
    for key in ("input_dim", "num_classes", "dtype", "layers"):
        if key not in header:
            raise ValueError(f"{path}: not a model container: header missing key {key!r}")
    if header["dtype"] != "f64":
        raise ValueError(f"{path}: unsupported dtype {header['dtype']!r}, expected 'f64'")
    layers = header["layers"]
    if not isinstance(layers, list) or not layers:
        raise ValueError(f"{path}: 'layers' must be a non-empty list")
    prev = _json_int(path, header["input_dim"], "'input_dim'", least=1)
    num_classes = _json_int(path, header["num_classes"], "'num_classes'", least=1)
    shapes = []
    for i, layer in enumerate(layers):
        if not isinstance(layer, dict):
            raise ValueError(f"{path}: layer {i} must be a JSON object")
        for key in ("rows", "cols"):
            if key not in layer:
                raise ValueError(f"{path}: layer {i} missing key {key!r}")
        rows = _json_int(path, layer["rows"], f"layer {i} 'rows'", least=1)
        cols = _json_int(path, layer["cols"], f"layer {i} 'cols'", least=1)
        if cols != prev:
            raise ValueError(
                f"{path}: layer {i} has {cols} columns, expected {prev}")
        shapes.append((rows, cols))
        prev = rows
    if prev != num_classes:
        raise ValueError(
            f"{path}: last layer has {prev} rows, expected num_classes={num_classes}")
    sizes = [n for rows, cols in shapes for n in (rows * cols, rows)]
    if len(payload) != 8 * sum(sizes):
        raise ValueError(f"{path}: payload has {len(payload)} bytes, expected {8 * sum(sizes)}")
    parts = np.split(np.frombuffer(payload, dtype="<f8"), np.cumsum(sizes)[:-1])
    weights = [w.reshape(shape) for w, shape in zip(parts[::2], shapes)]
    try:
        return ReluNet(tuple(weights), tuple(parts[1::2]))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
