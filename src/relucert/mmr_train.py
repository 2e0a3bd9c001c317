"""The universal margin regularizer, the full training loss, its manual
gradients and the trainer.

The universal regularizer pushes the k_B nearest region hyperplanes and all
decision hyperplanes beyond gamma1 in l1-distance and gamma_inf in
linf-distance simultaneously, which widens the linear regions around the
training points and hence raises the certified radii for every norm order.

Each hinge term is a distance value / ||normal||_q.  Its gradient comes in
two passes over one chunk of ``net_core.region_maps`` at a time, with
activation masks and the k_B selection (``_nearest``) treated as constants
of the forward pass:

- the values are preactivations and logit margins at the points, so their
  adjoints go through ``net_core.backward_batch``, the layer-wise backward
  pass that the attacks use too;
- the dual norms depend only on the region tables: their adjoints are
  summed per table row and pushed back through V^(l) = W^(l) (mask *
  V^(l-1)) once per row (``_backprop_tables``).

The cross-entropy is read off the same chunks' logits, so one forward and
one backward pass per chunk carry the whole loss (``_loss_and_grad``).

Subgradient choices at the kinks: inactive branch at ReLU kinks, zero at
absolute-value and hinge kinks, lowest unit index at ties of the k_B-th
distance, first largest entry for the gradient of a max-norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import certify, net_core
from .geometry import dual_exponent

__all__ = [
    "MmrUniversalConfig",
    "TrainConfig",
    "TrainingDiverged",
    "loss",
    "loss_gradient",
    "train",
    "kb_schedule",
    "lambda_ramp_factor",
]


# k_B runs linearly from this fraction of the hidden units at the first
# epoch to the second at the last.
KB_START_FRAC, KB_END_FRAC = 0.20, 0.05
# The lambdas ramp from a tenth of their value to full strength over this
# many epochs, and each epoch's history certifies this many evaluation points.
LAMBDA_RAMP_EPOCHS, CERT_SAMPLE = 10, 128
# Adam's moment decays and denominator floor; the learning rate is divided
# by LR_DROP_FACTOR for the last LR_DROP_LAST epochs.
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
LR_DROP_FACTOR, LR_DROP_LAST = 10.0, 10


class TrainingDiverged(RuntimeError):
    """Raised when training meets a non-finite loss, parameter or result."""


@dataclass(frozen=True)
class MmrUniversalConfig:
    """Joint l1/linf margin regularizer settings.

    lambda1/lambda_inf weight the two norms, gamma1/gamma_inf are the target
    margins.  k_B follows ``kb_schedule``, and the lambdas ramp from a tenth
    of their value to full strength over LAMBDA_RAMP_EPOCHS.
    """

    lambda1: float = 1.0
    lambda_inf: float = 6.0
    gamma1: float = 1.0
    gamma_inf: float = 0.1

    def __post_init__(self):
        for name in ("lambda1", "lambda_inf", "gamma1", "gamma_inf"):
            certify._check_finite(getattr(self, name), name, strict=name.startswith("gamma"))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 128
    learning_rate: float = 5e-4
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if self.epochs < LAMBDA_RAMP_EPOCHS:
            raise ValueError(f"epochs must be at least {LAMBDA_RAMP_EPOCHS}, the lambda ramp, "
                             f"got {self.epochs!r}")
        certify._check_finite(self.learning_rate, "learning_rate", strict=True)


def kb_schedule(epoch: int, total_epochs: int, num_hidden: int) -> int:
    """k_B at an epoch: KB_START_FRAC to KB_END_FRAC of the hidden units,
    linear per epoch, rounded to the nearest >= 1."""
    if total_epochs <= 1:
        frac = KB_END_FRAC
    else:
        frac = KB_START_FRAC + (KB_END_FRAC - KB_START_FRAC) * epoch / (total_epochs - 1)
    return max(1, int(np.rint(frac * num_hidden)))


def lambda_ramp_factor(epoch: int, ramp_epochs: int) -> float:
    """Factor from 0.1 at epoch 0 to 1.0 at epoch ramp_epochs, constant after."""
    if ramp_epochs <= 0:
        return 1.0
    return 0.1 + 0.9 * min(epoch, ramp_epochs) / ramp_epochs


# -- batched regularizer ---------------------------------------------------------


def _hinge(t):
    return np.maximum(0.0, 1.0 - t)


def _adjoints(coef, values, norms):
    """Adjoints of sum coef * values / norms on the values and on the norms,
    zero wherever coef is (no hinge active).  With every norm positive they
    are plain quotients; a zero norm (whose hinge is never active) takes the
    masked form, which keeps 0 / 0 out."""
    if (norms > 0).all():
        return coef / norms, -coef * values / norms**2
    live = coef != 0.0
    safe = np.where(live, norms, 1.0)
    return coef / safe, np.where(live, -coef * values / safe**2, 0.0)


def _norm_grad(scale, rows, q):
    """scale times the gradient of the q-norm of each row (last axis): sign(r)
    for q = 1, and sign(r_j) e_j at the first largest |r_j| for q = inf."""
    if not math.isinf(q):
        return scale[..., None] * np.sign(rows)
    flat = rows.reshape(-1, rows.shape[-1])
    i = np.arange(len(flat))
    j = np.argmax(np.abs(flat), axis=1)
    out = np.zeros_like(flat)
    out[i, j] = scale.reshape(-1) * np.sign(flat[i, j])
    return out.reshape(rows.shape)


def _nearest(dists, kb):
    """The kb smallest entries of each row of dists (B, N) and a (B, N) mask
    of where they sit.  Of the entries tied at the kb-th smallest value the
    mask keeps those of lowest index, as the first kb of a stable argsort
    would.  The entries come in increasing order, so a sum over them adds
    in the argsort's order."""
    part = np.partition(dists, kb - 1, axis=1)
    kth = part[:, kb - 1:kb]
    take = dists <= kth
    if np.count_nonzero(take) != take.shape[0] * kb:
        # a row has more than kb entries at or below its kth: keep as many
        # of its ties as the partition's first kb hold, lowest index first
        ties = dists == kth
        room = np.count_nonzero(part[:, :kb] == kth, axis=1)
        take &= ~ties | (np.cumsum(ties, axis=1) <= room[:, None])
    return np.sort(part[:, :kb], axis=1), take


def _row_sums(index, n, per_point):
    """Sums of per_point (B, ...) over the points of each of n table rows,
    index (B,) giving each point's row: (n, B) membership products, over
    blocks of points that keep each within CHUNK_BYTES."""
    flat = per_point.reshape(len(index), -1)
    out = np.zeros((n, flat.shape[1]))
    step = max(1, net_core.CHUNK_BYTES // (8 * n))
    for lo in range(0, len(index), step):
        out += (np.arange(n)[:, None] == index[lo:lo + step]) @ flat[lo:lo + step]
    return out.reshape((n,) + per_point.shape[1:])


def _backprop_tables(net, rmap, g_v, dW):
    """Push adjoints g_v[l] (U_l, n_l, d) of the tables v_maps[l] back through
    V^(l) = W^(l) (mask * V^(l-1)) into dW, one table row at a time.  A
    row's mask and parent row are those of its first point."""
    for l in range(len(net.weights) - 1, 0, -1):
        first = rmap.first[l]
        m = (rmap.values[first, rmap.layers[l - 1]] > 0)[:, :, None]
        parent = rmap.index[l - 1][first]
        # np.tensordot(g, rows, axes=([0, 2], [0, 2])) without its Python overhead
        g, rows = g_v[l], rmap.v_maps[l - 1][parent] * m
        (u, n, d), k = g.shape, rows.shape[1]
        dW[l] += np.dot(g.transpose(1, 0, 2).reshape(n, u * d),
                        rows.transpose(0, 2, 1).reshape(u * d, k))
        g_v[l - 1] += _row_sums(parent, len(g_v[l - 1]),
                                np.matmul(net.weights[l].T, g) * m)
    dW[0] += g_v[0].sum(axis=0)


def _universal(net, X, y, cfg: MmrUniversalConfig, kb_now, lam1, lam_inf, grads):
    """Universal regularizer value and cross-entropy at every row of X: the
    pair (reg, ce) of (B,) arrays, ce read off the region maps' logits.

    grads, a (dW, db) pair of per-layer arrays, receives the gradient of the
    mean of reg + ce over the rows, the regularizer's through both the
    numerator and the dual-norm denominator of every selected distance, in
    one backward pass per chunk.  ValueError for a one-class net, which has
    no decision hyperplane to push away.
    """
    k = net.num_classes
    if k < 2:
        raise ValueError("the margin regularizer needs at least 2 classes, got 1: "
                         "set lambda1 and lambda_inf to 0 to train without it")
    weight = 1.0 / len(X)
    reg, ce = np.empty(len(X)), np.empty(len(X))
    for sl, rmap in net_core.region_maps(net, X):
        u = rmap.values
        abs_u, sign_u = np.abs(u), np.sign(u)
        others, diff, w_num = rmap.decision_planes(y[sl])
        idx, c = np.arange(len(u))[:, None], y[sl] - 1
        kb = min(int(kb_now), u.shape[1])
        value = np.zeros(len(u))
        # adjoints of the logits (the cross-entropy's to start), the
        # preactivations and each table's rows
        ce[sl], g_logits = _cross_entropy(rmap.logits, y[sl], len(X))
        g_u = np.zeros(u.shape, u.dtype)
        g_v = [np.zeros(v.shape, v.dtype) for v in rmap.v_maps]
        g_diff = np.zeros(diff.shape, diff.dtype)
        for p, lam, gamma in ((1.0, lam1, cfg.gamma1), (math.inf, lam_inf, cfg.gamma_inf)):
            if lam == 0.0:
                continue
            q = dual_exponent(p)  # linf for p = 1, l1 for p = inf
            if kb:
                dens = certify.hidden_norms(rmap, q)
                dists = certify.plane_distances(abs_u, dens)
                near, take = _nearest(dists, kb)
                value += lam * _hinge(near / gamma).sum(axis=1) / kb
                coef = np.where(take & (dists < gamma), -(weight * lam) / (kb * gamma), 0.0)
                g_val, g_norm = _adjoints(coef, abs_u, dens)
                g_u += g_val * sign_u
                for l, cols in enumerate(rmap.layers):
                    v = rmap.v_maps[l]
                    g_v[l] += _norm_grad(_row_sums(rmap.index[l], len(v), g_norm[:, cols]), v, q)
            dens = certify.row_norms(diff, q)
            dists = certify.plane_distances(w_num, dens)
            value += lam * _hinge(dists / gamma).sum(axis=1) / (k - 1)
            active = (dists < gamma) & np.isfinite(dists)
            coef = np.where(active, -(weight * lam) / ((k - 1) * gamma), 0.0)
            g_val, g_norm = _adjoints(coef, w_num, dens)
            g_logits[idx, others] -= g_val
            g_logits[idx[:, 0], c] += g_val.sum(axis=1)
            g_diff += _norm_grad(g_norm, diff, q)
        reg[sl] = value
        # the values: the layer-wise backward pass from the chunk's
        # preactivations and logits
        net_core.backward_batch(net, [u[:, cols] for cols in rmap.layers], g_logits, grads,
                                X[sl], [g_u[:, cols] for cols in rmap.layers])
        # the dual norms: diff = V_out[c] - V_out[s], summed per region
        gv_out = np.zeros(rmap.logits.shape + diff.shape[2:])
        gv_out[idx, others] -= g_diff
        gv_out[idx[:, 0], c] += g_diff.sum(axis=1)
        g_v[-1] += _row_sums(rmap.region, len(g_v[-1]), gv_out)
        _backprop_tables(net, rmap, g_v, grads[0])
    return reg, ce


# -- loss and gradients ---------------------------------------------------------


def _as_batch(net, batch):
    """The (features, labels) pair as ``net_core._labelled_batch`` checks it;
    ValueError if it holds no points."""
    X, y = net_core._labelled_batch(net, *batch)
    if not len(X):
        raise ValueError("the batch holds no points")
    return X, y


def _cross_entropy(logits, y, n):
    """Softmax cross-entropy of each row of logits (B, K) at its label in
    1..K, and the adjoint on the logits of their sum over n:
    (softmax - onehot) / n."""
    m = logits.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
    idx = np.arange(len(logits))
    g = np.exp(logits - lse[:, None])
    g[idx, y - 1] -= 1.0
    g /= n
    return lse - logits[idx, y - 1], g


def loss(net, batch, cfg: MmrUniversalConfig, kb_now=None, lam_scale: float = 1.0) -> float:
    """Mean over the batch of cross-entropy plus the universal regularizer;
    ValueError for a one-class net while a lambda is > 0."""
    X, y = _as_batch(net, batch)
    return _loss_and_grad(net, X, y, cfg, kb_now, lam_scale, _zero_grads(net)[1])


def _loss_and_grad(net, X, y, cfg, kb_now, lam_scale, grads):
    """The loss; grads is a zeroed (dW, db) pair of per-layer arrays that
    receives its gradient.

    With a lambda > 0 the cross-entropy is read off the regularizer's region
    maps, and one backward pass per chunk carries both terms; otherwise a
    plain forward and backward pass give it.
    """
    if kb_now is None:  # the first epoch's
        kb_now = kb_schedule(0, 2, net.num_hidden_units)
    lam1, lam_inf = cfg.lambda1 * lam_scale, cfg.lambda_inf * lam_scale
    if lam1 > 0 or lam_inf > 0:
        reg, ce = _universal(net, X, y, cfg, kb_now, lam1, lam_inf, grads)
        # ce.sum() / len(ce) is np.mean(ce) without its Python wrapper
        return float(ce.sum() / len(ce) + reg.sum() / len(X))
    logits, preacts = net_core.forward_batch(net, X)
    ce, g_logits = _cross_entropy(logits, y, len(X))
    net_core.backward_batch(net, preacts, g_logits, grads, X)
    return float(ce.sum() / len(ce))


def _flat_views(flat, arrays):
    """Views of the flat buffer shaped like each of arrays, back to back."""
    ends = np.cumsum([a.size for a in arrays]).tolist()
    return [flat[end - a.size:end].reshape(a.shape) for a, end in zip(arrays, ends)]


def _zero_grads(net):
    """A zeroed flat buffer, weights then biases, and its (dW, db) views."""
    params = net.weights + net.biases
    flat = np.zeros(sum(a.size for a in params), dtype=net.dtype)
    views = _flat_views(flat, params)
    return flat, (views[:len(net.weights)], views[len(net.weights):])


def loss_gradient(net, batch, cfg: MmrUniversalConfig, kb_now=None,
                  lam_scale: float = 1.0):
    """Exact gradient of loss() wrt every weight matrix and bias vector."""
    X, y = _as_batch(net, batch)
    _, grads = _zero_grads(net)
    _loss_and_grad(net, X, y, cfg, kb_now, lam_scale, grads)
    return grads


# -- optimizer and training loop -------------------------------------------------


class _Adam:
    """Adam over copies of the given arrays.  ``params`` are views of one
    flat buffer, and the moments are flat too, so a step updates every
    parameter in one pass of vector operations."""

    def __init__(self, params):
        self.flat = np.concatenate([np.ravel(a) for a in params])
        self.params = _flat_views(self.flat, params)
        self.m = np.zeros(self.flat.size)
        self.v = np.zeros(self.flat.size)
        self.t = 0

    def step(self, g, lr):
        """One in-place update of every parameter array, g the flat gradient
        in the order of ``params``."""
        self.t += 1
        corr1 = 1.0 - BETA1**self.t
        corr2 = 1.0 - BETA2**self.t
        self.m *= BETA1
        self.m += (1 - BETA1) * g
        self.v *= BETA2
        self.v += (1 - BETA2) * g ** 2
        self.flat -= lr * (self.m / corr1) / (np.sqrt(self.v / corr2) + ADAM_EPS)


def train(net0, dataset, mmr_cfg: MmrUniversalConfig, train_cfg: TrainConfig,
          eval_dataset=None):
    """Run the full training protocol and return (trained net, history).

    Both sets are checked against net0 before the first step.  Shuffled
    mini-batches with Adam; k_B follows ``kb_schedule``, the lambdas ramp
    up over the first LAMBDA_RAMP_EPOCHS epochs, and the learning rate is
    divided by LR_DROP_FACTOR for the final LR_DROP_LAST epochs.  History
    records per-epoch loss, test error and mean certified radii on the
    first CERT_SAMPLE points of the evaluation set; a mean is inf if some
    point's region has no hyperplane it can cross.
    """
    sets = (dataset, dataset if eval_dataset is None else eval_dataset)
    if any(len(ds.features) == 0 for ds in sets):
        raise ValueError("training needs points in both the training and the evaluation set")
    (X, y), (X_ev, y_ev) = [net_core._labelled_batch(net0, ds.features, ds.labels)
                            for ds in sets]
    n = len(X)
    rng = np.random.default_rng(train_cfg.seed)
    adam = _Adam(net0.weights + net0.biases)
    # the loop's net views the parameters that Adam updates in place, so it
    # is built once; they are checked for finite values after every step
    net = net_core._view_net(adam.params[:len(net0.weights)], adam.params[len(net0.weights):])
    g, grads = _zero_grads(net)
    history = []
    epoch = start = 0
    try:
        # an overflow or invalid value anywhere in a step raises at once, so
        # training stops there whatever the warning filters say
        with np.errstate(over="raise", invalid="raise"):
            for epoch in range(train_cfg.epochs):
                kb = kb_schedule(epoch, train_cfg.epochs, net.num_hidden_units)
                lam_scale = lambda_ramp_factor(epoch, LAMBDA_RAMP_EPOCHS)
                lr = train_cfg.learning_rate
                if epoch >= train_cfg.epochs - LR_DROP_LAST:
                    lr /= LR_DROP_FACTOR
                perm = rng.permutation(n)
                epoch_losses = []
                for start in range(0, n, train_cfg.batch_size):
                    sel = perm[start:start + train_cfg.batch_size]
                    g.fill(0.0)
                    value = _loss_and_grad(net, X[sel], y[sel], mmr_cfg, kb, lam_scale, grads)
                    if not math.isfinite(value):
                        raise TrainingDiverged(
                            f"non-finite loss {value} at epoch {epoch}, batch offset {start}")
                    adam.step(g, lr)
                    if not np.isfinite(adam.flat).all():
                        raise TrainingDiverged(
                            f"non-finite parameters after epoch {epoch}, batch offset {start}")
                    epoch_losses.append(value)
                m = min(CERT_SAMPLE, len(X_ev))
                certs = certify.certificates(net, X_ev[:m], y_ev[:m])
                history.append({
                    "epoch": epoch,
                    "loss": float(np.mean(epoch_losses)),
                    "test_error": float(np.mean(net_core.classify_batch(net, X_ev) != y_ev)),
                    "mean_rho1": float(certs.rho1.mean()),
                    "mean_rho_inf": float(certs.rho_inf.mean()),
                    "kb": kb,
                    "lambda_scale": lam_scale,
                    "lr": lr,
                })
    except FloatingPointError as exc:
        raise TrainingDiverged(
            f"training diverged at epoch {epoch}, batch offset {start}: {exc}") from None
    return net_core.ReluNet(net.weights, net.biases), history
