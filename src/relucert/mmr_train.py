"""The universal margin regularizer, the full training loss, its manual
gradients and the trainer.

The universal regularizer pushes the k_B nearest region hyperplanes and all
decision hyperplanes beyond gamma1 in l1-distance and gamma_inf in
linf-distance simultaneously, which widens the linear regions around the
training points and hence raises the certified radii for every norm order.

Gradients are assembled by reverse-mode accumulation through the per-layer
affine maps, with activation masks and sort orders treated as constants of
the forward pass.  Subgradient choices at the kinks: inactive branch at ReLU
kinks, zero at absolute-value and hinge kinks, lowest index at sort ties.
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


class TrainingDiverged(RuntimeError):
    """Raised when the training loss becomes non-finite."""


@dataclass(frozen=True)
class MmrUniversalConfig:
    """Joint l1/linf margin regularizer settings.

    lambda1/lambda_inf weight the two norms, gamma1/gamma_inf are the target
    margins.  k_B follows a per-epoch schedule from kb_start_frac to
    kb_end_frac of the total hidden unit count, and the lambdas ramp from a
    tenth of their value to full strength over lambda_ramp_epochs.
    """

    lambda1: float = 1.0
    lambda_inf: float = 6.0
    gamma1: float = 1.0
    gamma_inf: float = 0.1
    kb_start_frac: float = 0.20
    kb_end_frac: float = 0.05
    lambda_ramp_epochs: int = 10

    def __post_init__(self):
        if self.lambda1 < 0 or self.lambda_inf < 0:
            raise ValueError("lambdas must be nonnegative")
        if not (self.gamma1 > 0 and self.gamma_inf > 0):
            raise ValueError("margins must be positive")
        for f in (self.kb_start_frac, self.kb_end_frac):
            if not (0.0 < f <= 1.0):
                raise ValueError("k_B fractions must be in (0, 1]")
        if self.lambda_ramp_epochs < 0:
            raise ValueError("ramp length must be nonnegative")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 128
    learning_rate: float = 5e-4
    lr_drop_factor: float = 10.0
    lr_drop_last: int = 10
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch size must be positive")
        if self.learning_rate <= 0 or self.lr_drop_factor <= 0:
            raise ValueError("learning rate settings must be positive")


def kb_schedule(epoch: int, total_epochs: int, num_hidden: int,
                start_frac: float = 0.20, end_frac: float = 0.05) -> int:
    """Linear per-epoch interpolation of k_B, rounded to the nearest >= 1."""
    if total_epochs <= 1:
        frac = end_frac
    else:
        frac = start_frac + (end_frac - start_frac) * epoch / (total_epochs - 1)
    return max(1, int(np.rint(frac * num_hidden)))


def lambda_ramp_factor(epoch: int, ramp_epochs: int) -> float:
    """Factor from 0.1 at epoch 0 to 1.0 at epoch ramp_epochs, constant after."""
    if ramp_epochs <= 0:
        return 1.0
    return 0.1 + 0.9 * min(epoch, ramp_epochs) / ramp_epochs


# -- batched regularizer ---------------------------------------------------------


def _hinge(t):
    return np.maximum(0.0, 1.0 - t)


def _distance_grad(coef, sign, values, normals, norms, q, xs):
    """Gradient of sum coef * values / ||normals||_q wrt normals and offsets.

    Each value is sign * (normal . x + offset) at its point x, so it moves
    with the normal by sign * x and with the offset by sign.  coef is zero
    wherever no hinge is active; entries with zero coef contribute nothing.
    """
    live = coef != 0.0
    safe = np.where(live, norms, 1.0)
    g_off = np.where(live, coef * sign / safe, 0.0)
    scale = np.where(live, coef * -values / safe**2, 0.0)
    g_normal = g_off[:, :, None] * xs[:, None, :]
    if math.isinf(q):
        # d||r||_inf / dr = sign(r_j) e_j at the first largest |r_j|
        j = np.argmax(np.abs(normals), axis=2)[:, :, None]
        r_j = np.take_along_axis(normals, j, axis=2)
        np.put_along_axis(g_normal, j, np.take_along_axis(g_normal, j, axis=2)
                          + scale[:, :, None] * np.sign(r_j), axis=2)
    else:
        g_normal += scale[:, :, None] * np.sign(normals)
    return g_normal, g_off


def _backprop_maps(net, rmap, g_rows, g_offs, gv_out, ga_out, grads):
    """Push affine-map adjoints back through V^(l) = W^(l) (mask * V^(l-1)),
    summed over the batch, into grads = (dW, db)."""
    dW, db = grads
    gv, ga = [], []
    pos = 0
    for n in net.hidden_sizes:
        gv.append(g_rows[:, pos:pos + n])
        ga.append(g_offs[:, pos:pos + n])
        pos += n
    gv.append(gv_out)
    ga.append(ga_out)
    for l in range(len(net.weights) - 1, 0, -1):
        m = rmap.masks[l - 1]
        v, a = rmap.at_points(l - 1)
        mv = v * m[:, :, None]
        ma = a * m
        dW[l] += np.tensordot(gv[l], mv, axes=([0, 2], [0, 2])) + ga[l].T @ ma
        db[l] += ga[l].sum(axis=0)
        gv[l - 1] = gv[l - 1] + np.matmul(net.weights[l].T, gv[l]) * m[:, :, None]
        ga[l - 1] = ga[l - 1] + (ga[l] @ net.weights[l]) * m
    dW[0] += gv[0].sum(axis=0)
    db[0] += ga[0].sum(axis=0)


def _point_maps(net, X):
    """Yield (slice, RegionMap) over consecutive pieces of the rows of X, of
    at most as many points as one chunk has regions: the per-point rows the
    regularizer reads from a piece's tables take at most CHUNK_BYTES."""
    step = net_core._region_cap(net)
    for sl, chunk in net_core.region_maps(net, X):
        for lo in range(0, len(chunk.points), step):
            piece = chunk.take(slice(lo, lo + step))
            yield slice(sl.start + lo, sl.start + lo + len(piece.points)), piece


def _universal(net, X, y, cfg: MmrUniversalConfig, kb_now, lam1, lam_inf, grads=None):
    """Universal regularizer value at every row of X, shape (B,).

    grads, when given, is a (dW, db) pair of per-layer arrays that receives
    the gradient of the mean value over the rows.  Gradients flow through
    both the numerator and the dual-norm denominator of every selected
    distance, and through the affine-map recursion into all earlier layers.
    """
    k = net.num_classes
    weight = 1.0 / len(X)
    out = np.empty(len(X))
    for sl, rmap in _point_maps(net, X):
        xs = rmap.points
        u = rmap.values
        abs_u = np.abs(u)
        others, diff, w_num = rmap.decision_planes(y[sl])
        rows = rmap.rows
        kb = min(int(kb_now), rows.shape[1])
        value = np.zeros(len(xs))
        if grads is not None:
            g_rows, g_offs = np.zeros_like(rows), np.zeros_like(u)
            g_diff, g_dnum = np.zeros_like(diff), np.zeros_like(w_num)
        for p, lam, gamma in ((1.0, lam1, cfg.gamma1), (math.inf, lam_inf, cfg.gamma_inf)):
            if lam == 0.0:
                continue
            q = dual_exponent(p)  # linf for p = 1, l1 for p = inf
            if kb:
                dens = certify.row_norms(rows, q)
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
                    gr, go = _distance_grad(coef, np.sign(u), abs_u, rows, dens, q, xs)
                    g_rows += gr
                    g_offs += go
            dens = certify.row_norms(diff, q)
            dists = certify.plane_distances(w_num, dens)
            value += lam * _hinge(dists / gamma).sum(axis=1) / (k - 1)
            if grads is not None:
                active = (dists < gamma) & np.isfinite(dists)
                coef = np.where(active, -(weight * lam) / ((k - 1) * gamma), 0.0)
                gr, go = _distance_grad(coef, 1.0, w_num, diff, dens, q, xs)
                g_diff += gr
                g_dnum += go
        out[sl] = value
        if grads is not None:
            # diff = V_out[c] - V_out[s] and its offset likewise
            idx = np.arange(len(xs))
            c = y[sl] - 1
            gv_out = np.zeros((len(xs), k, xs.shape[1]))
            ga_out = np.zeros((len(xs), k))
            gv_out[idx[:, None], others] -= g_diff
            ga_out[idx[:, None], others] -= g_dnum
            gv_out[idx, c] += g_diff.sum(axis=1)
            ga_out[idx, c] += g_dnum.sum(axis=1)
            _backprop_maps(net, rmap, g_rows, g_offs, gv_out, ga_out, grads)
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
    hs = [X] + [np.maximum(g, 0.0) for g in preacts]
    m = logits.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
    idx = np.arange(B)
    ce = float(np.mean(lse - logits[idx, y - 1]))
    probs = np.exp(logits - lse[:, None])
    g_out = probs
    g_out[idx, y - 1] -= 1.0
    g_out /= B
    dW = [np.zeros_like(w) for w in net.weights]
    db = [np.zeros_like(b) for b in net.biases]
    dW[-1] = g_out.T @ hs[-1]
    db[-1] = g_out.sum(axis=0)
    g = g_out
    for l in range(len(net.weights) - 2, -1, -1):
        g = (g @ net.weights[l + 1]) * (preacts[l] > 0)
        dW[l] = g.T @ hs[l]
        db[l] = g.sum(axis=0)
    return ce, dW, db


def loss(net, batch, cfg: MmrUniversalConfig, kb_now=None, lam_scale: float = 1.0) -> float:
    """Mean over the batch of cross-entropy plus the universal regularizer."""
    X, y = _as_batch(net, batch)
    return _loss_and_grad(net, X, y, cfg, kb_now, lam_scale, grad=False)[0]


def _loss_and_grad(net, X, y, cfg, kb_now, lam_scale, grad=True):
    """(loss, dW, db); grad=False leaves the regularizer out of dW and db."""
    if kb_now is None:
        kb_now = max(1, int(np.rint(cfg.kb_start_frac * max(net.num_hidden_units, 1))))
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
    def __init__(self, params, beta1, beta2, eps):
        self.params = params
        self.m = [np.zeros_like(a) for a in params]
        self.v = [np.zeros_like(a) for a in params]
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0

    def step(self, grads, lr):
        """One in-place update of every parameter array."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        corr1 = 1.0 - b1**self.t
        corr2 = 1.0 - b2**self.t
        for i, (a, g) in enumerate(zip(self.params, grads)):
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g ** 2
            a -= lr * (self.m[i] / corr1) / (np.sqrt(self.v[i] / corr2) + self.eps)


def _test_error(net, X, y):
    return float(np.mean(net_core.classify_batch(net, X) != y))


def train(net0, dataset, mmr_cfg: MmrUniversalConfig, train_cfg: TrainConfig,
          eval_dataset=None, cert_sample: int = 128):
    """Run the full training protocol and return (trained net, history).

    Shuffled mini-batches with Adam; k_B interpolates linearly per epoch from
    kb_start_frac to kb_end_frac of the hidden units, the lambdas ramp up
    over the first lambda_ramp_epochs epochs, and the learning rate is
    divided by lr_drop_factor for the final lr_drop_last epochs.  History
    records per-epoch loss, test error and mean certified radii on a sample
    of the evaluation set.
    """
    if train_cfg.epochs < mmr_cfg.lambda_ramp_epochs:
        raise ValueError("epochs must be at least lambda_ramp_epochs")
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
    adam = _Adam(weights + biases, train_cfg.beta1, train_cfg.beta2, train_cfg.adam_eps)
    num_hidden = net0.num_hidden_units
    history = []
    net = net0.with_parameters(weights, biases)
    for epoch in range(train_cfg.epochs):
        kb = kb_schedule(epoch, train_cfg.epochs, num_hidden,
                         mmr_cfg.kb_start_frac, mmr_cfg.kb_end_frac)
        lam_scale = lambda_ramp_factor(epoch, mmr_cfg.lambda_ramp_epochs)
        lr = train_cfg.learning_rate
        if epoch >= train_cfg.epochs - train_cfg.lr_drop_last:
            lr /= train_cfg.lr_drop_factor
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
        m = min(cert_sample, len(X_ev))
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
