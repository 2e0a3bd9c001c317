"""Benchmark-owned numerics: the fixed corners model and an independent,
batched recomputation of the per-point certificates.

Neither uses relucert code, so a change to the program's training or
certification numerics changes neither the corners model nor the reference
that `certify` output is checked against.
"""

from __future__ import annotations

import numpy as np

HIDDEN = (256, 256)


def corners_model(X, y, seed=0, clearance=(1.0, 3.0)):
    """Weights and biases of a 16-256-256-2 ReLU net for the corners task.

    Hidden weights are a seeded Gaussian draw.  Each hidden unit's bias puts
    its hyperplane a uniform(*clearance) l2-distance beyond the lowest
    preactivation over the rows of X: the wide linear regions around the
    data that margin training aims for, so certificates on points drawn like
    X are non-vacuous (on such points nearly every unit is active and the net
    is close to affine).  The readout is the least-squares fit of +-1 class
    targets on the last hidden layer.
    """
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    h = np.asarray(X, dtype=np.float64)
    for n in HIDDEN:
        w = rng.standard_normal((n, h.shape[1])) / np.sqrt(h.shape[1])
        b = -(h @ w.T).min(axis=0) + rng.uniform(*clearance, size=n) * np.linalg.norm(w, axis=1)
        weights.append(w)
        biases.append(b)
        h = np.maximum(h @ w.T + b, 0.0)
    design = np.hstack([h, np.ones((len(h), 1))])
    target = np.where(np.asarray(y) == 1, 1.0, -1.0)
    coef = np.linalg.lstsq(design, target, rcond=None)[0]
    weights.append(0.5 * np.vstack([coef[:-1], -coef[:-1]]))
    biases.append(0.5 * np.array([coef[-1], -coef[-1]]))
    return weights, biases


def _distances(num, rows):
    """Signed l1 and linf distances num / ||row||_dual; zero rows are infinitely far."""
    linf, l1 = np.abs(rows).max(axis=-1), np.abs(rows).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (np.where(linf > 0, num / linf, np.inf),
                np.where(l1 > 0, num / l1, np.inf))


def certificates(weights, biases, X, y, chunk=64):
    """Per-point (predicted, rho1, rho_inf, lb_l2) from region geometry.

    rho is the smaller of the distance to the nearest hidden hyperplane of
    the point's activation region and the distance to the nearest decision
    hyperplane; lb_l2 is the smallest l2-norm outside the hull of the l1-ball
    of radius rho1 and the linf-ball of radius rho_inf.  Misclassified points
    get zeros.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    out = {k: np.zeros(len(X)) for k in ("predicted", "rho1", "rho_inf", "lb_l2")}
    for lo in range(0, len(X), chunk):
        xs, ys = X[lo:lo + chunk], y[lo:lo + chunk] - 1
        B = len(xs)
        v = np.broadcast_to(weights[0], (B,) + weights[0].shape)
        a = np.broadcast_to(biases[0], (B, len(biases[0])))
        rows, offs = [], []
        for w, b in zip(weights[1:], biases[1:]):
            rows.append(v)
            offs.append(a)
            mask = (np.einsum("bnd,bd->bn", v, xs) + a) > 0
            v = np.matmul(w, v * mask[:, :, None])
            a = (a * mask) @ w.T + b
        rows, offs = np.concatenate(rows, axis=1), np.concatenate(offs, axis=1)
        u = np.abs(np.einsum("bnd,bd->bn", rows, xs) + offs)
        b1, binf = _distances(u, rows)
        idx = np.arange(B)
        logits = np.einsum("bkd,bd->bk", v, xs) + a
        pred = logits.argmax(axis=1)
        others = np.ones(logits.shape, dtype=bool)
        others[idx, ys] = False
        diff = (v[idx, ys][:, None, :] - v)[others].reshape(B, -1, v.shape[2])
        num = (logits[idx, ys][:, None] - logits)[others].reshape(B, -1)
        d1, dinf = _distances(num, diff)
        correct = (pred == ys) & (d1.min(axis=1) >= 0)
        rho1 = np.where(correct, np.minimum(b1.min(axis=1), np.abs(d1).min(axis=1)), 0.0)
        rhoinf = np.where(correct, np.minimum(binf.min(axis=1), np.abs(dinf).min(axis=1)), 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = rho1 / rhoinf
            alpha = delta - np.floor(delta)
            lb2 = np.where(rhoinf > 0, rho1 / np.sqrt(delta - alpha + alpha**2), 0.0)
        sl = slice(lo, lo + B)
        out["predicted"][sl] = pred + 1
        out["rho1"][sl], out["rho_inf"][sl], out["lb_l2"][sl] = rho1, rhoinf, lb2
    return out
