"""The universal margin regularizer, the full training loss, its manual
gradients and the trainer.

The universal regularizer pushes the k_B nearest region hyperplanes and all
decision hyperplanes beyond gamma1 in l1-distance and gamma_inf in
linf-distance simultaneously, which widens the linear regions around the
training points and hence raises the certified radii for every norm order.

Each hinge term is a distance value / ||normal||_q, and its gradient comes
in two passes over one chunk of ``net_core.region_maps`` at a time, with
activation masks and sort orders treated as constants of the forward pass:

- the values are preactivations and logit margins at the points, so their
  adjoints go through ``net_core.backward_batch``, the layer-wise backward
  pass that the cross-entropy and the attacks use too;
- the dual norms depend only on the region tables: their adjoints are
  summed per table row and pushed back through V^(l) = W^(l) (mask *
  V^(l-1)) once per row (``_backprop_tables``).

Subgradient choices at the kinks: inactive branch at ReLU kinks, zero at
absolute-value and hinge kinks, lowest index at sort ties.
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
    "mmr_universal",
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
    """Raised when the training loss becomes non-finite."""


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
        if self.lambda1 < 0 or self.lambda_inf < 0:
            raise ValueError("lambdas must be nonnegative")
        if not (self.gamma1 > 0 and self.gamma_inf > 0):
            raise ValueError("margins must be positive")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 128
    learning_rate: float = 5e-4
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")


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
    zero wherever coef is (no hinge active)."""
    live = coef != 0.0
    safe = np.where(live, norms, 1.0)
    return coef / safe, np.where(live, -coef * values / safe**2, 0.0)


def _norm_grad(scale, rows, q):
    """scale times the gradient of the q-norm of each row (last axis): sign(r)
    for q = 1, and sign(r_j) e_j at the first largest |r_j| for q = inf."""
    if not math.isinf(q):
        return scale[..., None] * np.sign(rows)
    out = np.zeros_like(rows)
    j = np.argmax(np.abs(rows), axis=-1)[..., None]
    np.put_along_axis(out, j, scale[..., None] * np.sign(np.take_along_axis(rows, j, -1)), -1)
    return out


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
    row's mask and parent row are those of any one of its points."""
    for l in range(len(net.weights) - 1, 0, -1):
        some = rmap.some_point(l)
        m = rmap.masks[l - 1][some][:, :, None]
        parent = rmap.index[l - 1][some]
        dW[l] += np.tensordot(g_v[l], rmap.v_maps[l - 1][parent] * m, axes=([0, 2], [0, 2]))
        g_v[l - 1] += _row_sums(parent, len(g_v[l - 1]),
                                np.matmul(net.weights[l].T, g_v[l]) * m)
    dW[0] += g_v[0].sum(axis=0)


def _universal(net, X, y, cfg: MmrUniversalConfig, kb_now, lam1, lam_inf, grads=None):
    """Universal regularizer value at every row of X, shape (B,).

    grads, when given, is a (dW, db) pair of per-layer arrays that receives
    the gradient of the mean value over the rows, through both the numerator
    and the dual-norm denominator of every selected distance.
    """
    k = net.num_classes
    weight = 1.0 / len(X)
    out = np.empty(len(X))
    splits = np.cumsum(net.hidden_sizes[:-1], dtype=np.int64)  # layers of the N units
    for sl, rmap in net_core.region_maps(net, X):
        u = rmap.values
        abs_u = np.abs(u)
        others, diff, w_num = rmap.decision_planes(y[sl])
        idx, c = np.arange(len(u))[:, None], y[sl] - 1
        kb = min(int(kb_now), u.shape[1])
        value = np.zeros(len(u))
        if grads is not None:
            # adjoints of the preactivations and logits, and of each table's rows
            g_u, g_logits = np.zeros_like(u), np.zeros_like(rmap.logits)
            g_v = [np.zeros_like(v) for v in rmap.v_maps]
            g_diff = np.zeros_like(diff)
        for p, lam, gamma in ((1.0, lam1, cfg.gamma1), (math.inf, lam_inf, cfg.gamma_inf)):
            if lam == 0.0:
                continue
            q = dual_exponent(p)  # linf for p = 1, l1 for p = inf
            if kb:
                # dual norms once per table row
                dens = rmap.stacked([certify.row_norms(v, q) for v in rmap.v_maps[:-1]])
                dists = certify.plane_distances(abs_u, dens)
                # stable: ties go to the lowest unit index
                sel = np.argsort(dists, axis=1, kind="stable")[:, :kb]
                near = np.take_along_axis(dists, sel, axis=1)
                value += lam * _hinge(near / gamma).sum(axis=1) / kb
                if grads is not None:
                    coef = np.zeros_like(dists)
                    active = (near < gamma) & np.isfinite(near)
                    np.put_along_axis(coef, sel, np.where(
                        active, -(weight * lam) / (kb * gamma), 0.0), axis=1)
                    g_val, g_norm = _adjoints(coef, abs_u, dens)
                    g_u += g_val * np.sign(u)
                    for l, g in enumerate(np.split(g_norm, splits, axis=1)):
                        v = rmap.v_maps[l]
                        g_v[l] += _norm_grad(_row_sums(rmap.index[l], len(v), g), v, q)
            dens = certify.row_norms(diff, q)
            dists = certify.plane_distances(w_num, dens)
            value += lam * _hinge(dists / gamma).sum(axis=1) / (k - 1)
            if grads is not None:
                active = (dists < gamma) & np.isfinite(dists)
                coef = np.where(active, -(weight * lam) / ((k - 1) * gamma), 0.0)
                g_val, g_norm = _adjoints(coef, w_num, dens)
                g_logits[idx, others] -= g_val
                g_logits[idx[:, 0], c] += g_val.sum(axis=1)
                g_diff += _norm_grad(g_norm, diff, q)
        out[sl] = value
        if grads is not None:
            # the values: the layer-wise backward pass from the chunk's
            # preactivations and logits
            net_core.backward_batch(net, np.split(u, splits, axis=1), g_logits, grads,
                                    rmap.points, np.split(g_u, splits, axis=1))
            # the dual norms: diff = V_out[c] - V_out[s], summed per region
            gv_out = np.zeros(rmap.logits.shape + diff.shape[2:])
            gv_out[idx, others] -= g_diff
            gv_out[idx[:, 0], c] += g_diff.sum(axis=1)
            g_v[-1] += _row_sums(rmap.region, len(g_v[-1]), gv_out)
            _backprop_tables(net, rmap, g_v, grads[0])
    return out


def mmr_universal(net, x, label: int, cfg: MmrUniversalConfig, kb_now: int) -> float:
    """Universal l1+linf margin regularizer value at one training point."""
    x = net_core._check_input(net, x)
    y = certify._check_labels(net, [label])
    return float(_universal(net, x[None, :], y, cfg, kb_now, cfg.lambda1, cfg.lambda_inf)[0])


# -- loss and gradients ---------------------------------------------------------


def _as_batch(net, batch):
    X, y = batch
    X = np.asarray(X, dtype=np.float64)
    y = certify._check_labels(net, y)
    if X.ndim != 2 or len(X) != len(y) or len(X) == 0:
        raise ValueError("batch must be a non-empty (features, labels) pair")
    return X, y


def _ce_value_and_grad(net, X, y):
    """Batched softmax cross-entropy value and parameter gradients."""
    B = len(X)
    logits, preacts = net_core.forward_batch(net, X)
    m = logits.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
    idx = np.arange(B)
    ce = float(np.mean(lse - logits[idx, y - 1]))
    g_out = np.exp(logits - lse[:, None])
    g_out[idx, y - 1] -= 1.0
    g_out /= B
    dW = [np.zeros_like(w) for w in net.weights]
    db = [np.zeros_like(b) for b in net.biases]
    net_core.backward_batch(net, preacts, g_out, (dW, db), X)
    return ce, dW, db


def loss(net, batch, cfg: MmrUniversalConfig, kb_now=None, lam_scale: float = 1.0) -> float:
    """Mean over the batch of cross-entropy plus the universal regularizer."""
    X, y = _as_batch(net, batch)
    return _loss_and_grad(net, X, y, cfg, kb_now, lam_scale, grad=False)[0]


def _loss_and_grad(net, X, y, cfg, kb_now, lam_scale, grad=True):
    """(loss, dW, db); grad=False leaves the regularizer out of dW and db."""
    if kb_now is None:
        kb_now = max(1, int(np.rint(KB_START_FRAC * max(net.num_hidden_units, 1))))
    lam1, lam_inf = cfg.lambda1 * lam_scale, cfg.lambda_inf * lam_scale
    ce, dW, db = _ce_value_and_grad(net, X, y)
    total = ce
    if lam1 > 0 or lam_inf > 0:
        reg = _universal(net, X, y, cfg, kb_now, lam1, lam_inf,
                         grads=(dW, db) if grad else None)
        total += reg.sum() / len(X)
    return float(total), dW, db


def loss_gradient(net, batch, cfg: MmrUniversalConfig, kb_now=None,
                  lam_scale: float = 1.0):
    """Exact gradient of loss() wrt every weight matrix and bias vector."""
    X, y = _as_batch(net, batch)
    _, dW, db = _loss_and_grad(net, X, y, cfg, kb_now, lam_scale)
    return dW, db


# -- optimizer and training loop -------------------------------------------------


class _Adam:
    def __init__(self, params):
        self.params = params
        self.m = [np.zeros_like(a) for a in params]
        self.v = [np.zeros_like(a) for a in params]
        self.t = 0

    def step(self, grads, lr):
        """One in-place update of every parameter array."""
        self.t += 1
        corr1 = 1.0 - BETA1**self.t
        corr2 = 1.0 - BETA2**self.t
        for i, (a, g) in enumerate(zip(self.params, grads)):
            self.m[i] = BETA1 * self.m[i] + (1 - BETA1) * g
            self.v[i] = BETA2 * self.v[i] + (1 - BETA2) * g ** 2
            a -= lr * (self.m[i] / corr1) / (np.sqrt(self.v[i] / corr2) + ADAM_EPS)


def _test_error(net, X, y):
    return float(np.mean(net_core.classify_batch(net, X) != y))


def train(net0, dataset, mmr_cfg: MmrUniversalConfig, train_cfg: TrainConfig,
          eval_dataset=None):
    """Run the full training protocol and return (trained net, history).

    Shuffled mini-batches with Adam; k_B follows ``kb_schedule``, the
    lambdas ramp up over the first LAMBDA_RAMP_EPOCHS epochs, and the
    learning rate is divided by LR_DROP_FACTOR for the final LR_DROP_LAST
    epochs.  History records per-epoch loss, test error and mean certified
    radii on the first CERT_SAMPLE points of the evaluation set.
    """
    if train_cfg.epochs < LAMBDA_RAMP_EPOCHS:
        raise ValueError(f"epochs must be at least {LAMBDA_RAMP_EPOCHS}, the lambda ramp")
    X = np.asarray(dataset.features, dtype=np.float64)
    y = certify._check_labels(net0, dataset.labels)
    if eval_dataset is None:
        X_ev, y_ev = X, y
    else:
        X_ev = np.asarray(eval_dataset.features, dtype=np.float64)
        y_ev = certify._check_labels(net0, eval_dataset.labels)
    n = len(X)
    rng = np.random.default_rng(train_cfg.seed)
    weights = [w.copy() for w in net0.weights]
    biases = [b.copy() for b in net0.biases]
    adam = _Adam(weights + biases)
    num_hidden = net0.num_hidden_units
    history = []
    net = net0.with_parameters(weights, biases)
    for epoch in range(train_cfg.epochs):
        kb = kb_schedule(epoch, train_cfg.epochs, num_hidden)
        lam_scale = lambda_ramp_factor(epoch, LAMBDA_RAMP_EPOCHS)
        lr = train_cfg.learning_rate
        if epoch >= train_cfg.epochs - LR_DROP_LAST:
            lr /= LR_DROP_FACTOR
        perm = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, train_cfg.batch_size):
            sel = perm[start:start + train_cfg.batch_size]
            value, dW, db = _loss_and_grad(net, X[sel], y[sel], mmr_cfg, kb, lam_scale)
            if not math.isfinite(value):
                raise TrainingDiverged(
                    f"non-finite loss {value} at epoch {epoch}, batch offset {start}")
            adam.step(dW + db, lr)
            net = net.with_parameters(weights, biases)
            epoch_losses.append(value)
        m = min(CERT_SAMPLE, len(X_ev))
        certs = certify.certificates(net, X_ev[:m], y_ev[:m])
        rho1 = np.where(np.isfinite(certs.rho1), certs.rho1, 0.0)
        rho_inf = np.where(np.isfinite(certs.rho_inf), certs.rho_inf, 0.0)
        history.append({
            "epoch": epoch,
            "loss": float(np.mean(epoch_losses)),
            "test_error": _test_error(net, X_ev, y_ev),
            "mean_rho1": float(rho1.mean()),
            "mean_rho_inf": float(rho_inf.mean()),
            "kb": kb,
            "lambda_scale": lam_scale,
            "lr": lr,
        })
    return net, history
