"""Slow per-point reference for the batched region geometry.

One point at a time, with its own forward pass and affine-map recursion:
the region geometry, the distance profiles and certificates, and the
universal regularizer with its gradient accumulated hinge by hinge.  The
batched paths in ``relucert.net_core``, ``relucert.certify`` and
``relucert.mmr_train`` are tested against it.  ``region_map`` builds a
whole batch as one chunk, the reference for the chunked
``net_core.region_maps``.  The 2-D region atlas is
rebuilt here one unit and one facet at a time, clipping every region by
every unit, as the reference for ``relucert.regions``.  ``pgd_core`` is the
layer-wise PGD loop: in float64 the reference for the mixed-precision
``relucert.attacks._pgd_core``, in float32 the loop it runs where its
region path is off.  Its softmax and ascent step are the row-wise forms,
``logit_gradient`` and ``ascent_step``, references for the attack's own.
``universal_argsort`` and ``AdamPerArray`` are the trainer's regularizer
with its k_B selection by a stable sort, its distances and adjoints by the
masked divides ``masked_distances`` and ``masked_adjoints`` (which never
take the trainer's plain division), and Adam one array at a time: the
regularizer and the update are bitwise theirs.  ``two_pass_step`` is the
training loss and gradient with the cross-entropy through its own forward
and backward pass, which the one-pass step matches to rounding.
"""

import math
from collections import deque

import numpy as np

from relucert import attacks, certify, geometry, mmr_train, net_core
from relucert.certify import row_norms


def region_map(net, xs):
    """Region geometry of every row of xs (B, d) as one chunk: the whole
    batch in one pass over the layers, the reference that the chunks of
    ``net_core.region_maps`` are checked against."""
    xs = np.asarray(xs, dtype=np.float64)
    return net_core._region_prefix(net, xs, max(len(xs), 1))


def masks_of(rmap):
    """The (B, n_l) masks of each hidden layer's active units, values > 0,
    split by the widths of the hidden tables."""
    ends = np.cumsum([v.shape[1] for v in rmap.v_maps[:-1]], dtype=np.int64)
    return [rmap.values[:, end - v.shape[1]:end] > 0 for v, end in zip(rmap.v_maps[:-1], ends)]


def point_geometry(net, x):
    """Masks, per-layer affine maps and the stacked hidden hyperplane rows."""
    x = np.asarray(x, dtype=np.float64)
    masks = []
    h = x
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        g = w @ h + b
        masks.append(g > 0)
        h = np.maximum(g, 0.0)
    v_list, a_list = [], []
    v = a = None
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        if l == 0:
            v, a = w.copy(), b.copy()
        else:
            m = masks[l - 1].astype(np.float64)
            v = w @ (v * m[:, None])
            a = w @ (a * m) + b
        v_list.append(v)
        a_list.append(a)
    if net.hidden_slices:
        rows = np.vstack(v_list[:-1])
        offs = np.concatenate(a_list[:-1])
    else:
        rows = np.zeros((0, net.input_dim))
        offs = np.zeros(0)
    return masks, v_list, a_list, rows, offs


def dual_den(mat, q):
    if mat.shape[0] == 0:
        return np.zeros(0)
    if math.isinf(q):
        return np.abs(mat).max(axis=1)
    if q == 1.0:
        return np.abs(mat).sum(axis=1)
    return (np.abs(mat) ** q).sum(axis=1) ** (1.0 / q)


def signed_div(num, den):
    out = np.full(np.shape(num), math.inf)
    np.divide(num, den, out=out, where=den > 0)
    zero = den == 0
    if np.any(zero):
        out[zero & (num < 0)] = -math.inf
    return out


def distances(net, x, label, p):
    """(boundary, signed decision) lp-distances of x in its own region."""
    q = geometry.dual_exponent(p)
    x = np.asarray(x, dtype=np.float64)
    _, v_list, a_list, rows, offs = point_geometry(net, x)
    boundary = signed_div(np.abs(rows @ x + offs), dual_den(rows, q))
    c = int(label) - 1
    others = [s for s in range(net.num_classes) if s != c]
    diff = v_list[-1][c] - v_list[-1][others]
    num = diff @ x + (a_list[-1][c] - a_list[-1][others])
    return boundary, signed_div(num, dual_den(diff, q))


def _min(a):
    return float(a.min()) if a.size else math.inf


def predict(net, x):
    """The net's class in 1..K at x, from its own forward pass."""
    h = np.asarray(x, dtype=np.float64)
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        h = np.maximum(w @ h + b, 0.0)
    return int(np.argmax(net.weights[-1] @ h + net.biases[-1])) + 1


def single_norm(net, x, label, p):
    """The lp radius of x alone: 0.0 where the net misclassifies x or a
    decision hyperplane is crossed, as ``certificate`` gives rho1 and
    rho_inf, else the nearest boundary or decision hyperplane."""
    b, d = distances(net, x, label, p)
    if _min(d) < 0.0 or predict(net, x) != label:
        return 0.0
    return min(_min(b), _min(d))


def certificate(net, x, label):
    """dict of predicted, correct, rho1, rho_inf, lb_l1, lb_l2, lb_linf."""
    x = np.asarray(x, dtype=np.float64)
    predicted = predict(net, x)
    b1, d1 = distances(net, x, label, 1.0)
    binf, dinf = distances(net, x, label, math.inf)
    if _min(d1) < 0.0 or predicted != label:
        return {"predicted": predicted, "correct": False, "rho1": 0.0, "rho_inf": 0.0,
                "lb_l1": 0.0, "lb_l2": 0.0, "lb_linf": 0.0}
    rho1 = min(_min(b1), abs(_min(d1)))
    rho_inf = min(_min(binf), abs(_min(dinf)))
    lb1 = max(min(_min(b1), _min(d1)), rho1)
    lbinf = max(min(_min(binf), _min(dinf)), rho_inf)
    if rho_inf <= 0.0 or math.isinf(rho1):
        lb2 = math.inf if math.isinf(rho1) else 0.0
    else:
        lb2 = geometry.hull_min_norm(rho1, rho_inf, 2.0)
    return {"predicted": predicted, "correct": True, "rho1": rho1, "rho_inf": rho_inf,
            "lb_l1": lb1, "lb_l2": lb2, "lb_linf": lbinf}


def _hinge(t):
    return np.maximum(0.0, 1.0 - t)


def mmr_point(net, x, label, cfg, kb_now, lam1, lam_inf, grads=None, weight=1.0):
    """Universal regularizer value at x; optionally accumulates weight times
    its gradient into grads = (dW, db), one hinge at a time."""
    x = np.asarray(x, dtype=np.float64)
    masks, v_list, a_list, rows, offs = point_geometry(net, x)
    u = rows @ x + offs
    abs_u = np.abs(u)
    den_b = {1.0: dual_den(rows, math.inf), math.inf: dual_den(rows, 1.0)}
    db = {p: signed_div(abs_u, den_b[p]) for p in (1.0, math.inf)}

    c = int(label) - 1
    k = net.num_classes
    others = [s for s in range(k) if s != c]
    v_out, a_out = v_list[-1], a_list[-1]
    diff = v_out[c] - v_out[others]
    w_num = diff @ x + (a_out[c] - a_out[others])
    den_d = {1.0: dual_den(diff, math.inf), math.inf: dual_den(diff, 1.0)}
    dd = {p: signed_div(w_num, den_d[p]) for p in (1.0, math.inf)}

    n_rows = rows.shape[0]
    kb = min(int(kb_now), n_rows) if n_rows else 0

    want_grad = grads is not None
    if want_grad:
        g_rows = np.zeros_like(rows)
        g_offs = np.zeros_like(offs)
        gv_out = np.zeros_like(v_out)
        ga_out = np.zeros_like(a_out)

    value = 0.0
    for p, lam, gamma in ((1.0, lam1, cfg.gamma1), (math.inf, lam_inf, cfg.gamma_inf)):
        if lam == 0.0:
            continue
        q_inf = p == 1.0  # dual norm is linf for p = 1, l1 for p = inf
        if kb:
            dists, dens = db[p], den_b[p]
            sel = np.argsort(dists, kind="stable")[:kb]
            hv = _hinge(dists[sel] / gamma)
            value += lam * float(hv.sum()) / kb
            if want_grad:
                coef = -(weight * lam) / (kb * gamma)
                for idx in sel[(dists[sel] < gamma) & np.isfinite(dists[sel])]:
                    den = dens[idx]
                    row = rows[idx]
                    su = np.sign(u[idx]) / den
                    g_rows[idx] += coef * su * x
                    g_offs[idx] += coef * su
                    if q_inf:
                        j = int(np.argmax(np.abs(row)))
                        g_rows[idx, j] += coef * (-abs_u[idx] * np.sign(row[j]) / den**2)
                    else:
                        g_rows[idx] += coef * (-abs_u[idx] * np.sign(row) / den**2)
        dists, dens = dd[p], den_d[p]
        hv = _hinge(dists / gamma)
        value += lam * float(hv.sum()) / (k - 1)
        if want_grad:
            coef = -(weight * lam) / ((k - 1) * gamma)
            for i in np.nonzero((dists < gamma) & np.isfinite(dists))[0]:
                s = others[i]
                den = dens[i]
                gw = coef / den
                gv_out[c] += gw * x
                gv_out[s] -= gw * x
                ga_out[c] += gw
                ga_out[s] -= gw
                if q_inf:
                    j = int(np.argmax(np.abs(diff[i])))
                    dj = coef * (-w_num[i] * np.sign(diff[i, j]) / den**2)
                    gv_out[c, j] += dj
                    gv_out[s, j] -= dj
                else:
                    dvec = coef * (-w_num[i] * np.sign(diff[i]) / den**2)
                    gv_out[c] += dvec
                    gv_out[s] -= dvec

    if want_grad:
        _backprop_maps(net, masks, v_list, a_list, g_rows, g_offs, gv_out, ga_out, grads)
    return value


def _backprop_maps(net, masks, v_list, a_list, g_rows, g_offs, gv_out, ga_out, grads):
    """Push affine-map adjoints back through V^(l) = W^(l) (mask * V^(l-1))."""
    dW, db = grads
    gv, ga = [], []
    pos = 0
    for n in net.hidden_sizes:
        gv.append(g_rows[pos:pos + n])
        ga.append(g_offs[pos:pos + n])
        pos += n
    gv.append(gv_out)
    ga.append(ga_out)
    for l in range(len(net.weights) - 1, 0, -1):
        m = masks[l - 1].astype(np.float64)
        mv = v_list[l - 1] * m[:, None]
        ma = a_list[l - 1] * m
        dW[l] += gv[l] @ mv.T + np.outer(ga[l], ma)
        db[l] += ga[l]
        gv[l - 1] += (net.weights[l].T @ gv[l]) * m[:, None]
        ga[l - 1] += (net.weights[l].T @ ga[l]) * m
    dW[0] += gv[0]
    db[0] += ga[0]


def regularizer(net, X, y, cfg, kb_now, lam1, lam_inf):
    """Per-point regularizer values and the gradient of their mean."""
    dW = [np.zeros_like(w) for w in net.weights]
    db = [np.zeros_like(b) for b in net.biases]
    values = np.array([mmr_point(net, X[i], int(y[i]), cfg, kb_now, lam1, lam_inf,
                                 grads=(dW, db), weight=1.0 / len(X))
                       for i in range(len(X))])
    return values, dW, db


def loss_gradient(net, X, y, cfg, kb_now):
    """Cross-entropy plus regularizer gradient, regularizer point by point."""
    _, dW, db = ce_value_and_grad(net, np.asarray(X), np.asarray(y))
    for i in range(len(X)):
        mmr_point(net, X[i], int(y[i]), cfg, kb_now, cfg.lambda1, cfg.lambda_inf,
                  grads=(dW, db), weight=1.0 / len(X))
    return dW, db


# -- the trainer's sort-based selection and per-array Adam --------------------


def masked_distances(values, norms):
    """values / norms, divided only where a norm is positive: a zero normal
    gives sign(value) * inf, and +inf for a zero value."""
    out = np.full(np.shape(values), math.inf)
    np.divide(values, norms, out=out, where=norms > 0)
    out[(norms == 0) & (values < 0)] = -math.inf
    return out


def masked_adjoints(coef, values, norms):
    """Adjoints of sum coef * values / norms on the values and on the norms,
    each norm divided only where its coef is nonzero, zero elsewhere."""
    live = coef != 0.0
    safe = np.where(live, norms, 1.0)
    return coef / safe, np.where(live, -coef * values / safe**2, 0.0)


def backprop_tables_tensordot(net, rmap, g_v, dW):
    """``mmr_train._backprop_tables`` with its weight adjoint by np.tensordot."""
    for l in range(len(net.weights) - 1, 0, -1):
        first = rmap.first[l]
        m = masks_of(rmap)[l - 1][first][:, :, None]
        parent = rmap.index[l - 1][first]
        dW[l] += np.tensordot(g_v[l], rmap.v_maps[l - 1][parent] * m, axes=([0, 2], [0, 2]))
        g_v[l - 1] += mmr_train._row_sums(parent, len(g_v[l - 1]),
                                          np.matmul(net.weights[l].T, g_v[l]) * m)
    dW[0] += g_v[0].sum(axis=0)


def nearest_argsort(dists, kb):
    """The kb smallest entries of each row, in increasing order, and a mask
    of where they sit: the first kb of a stable sort, so ties go to the
    lowest index."""
    sel = np.argsort(dists, axis=1, kind="stable")[:, :kb]
    take = np.zeros(dists.shape, dtype=bool)
    np.put_along_axis(take, sel, True, axis=1)
    return np.take_along_axis(dists, sel, axis=1), take


def norm_grad_along_axis(scale, rows, q):
    """``mmr_train._norm_grad`` written with put_along_axis and take_along_axis."""
    if not math.isinf(q):
        return scale[..., None] * np.sign(rows)
    out = np.zeros_like(rows)
    j = np.argmax(np.abs(rows), axis=-1)[..., None]
    np.put_along_axis(out, j, scale[..., None] * np.sign(np.take_along_axis(rows, j, -1)), -1)
    return out


def universal_argsort(net, X, y, cfg, kb_now, lam1, lam_inf, grads=None, ce=None):
    """``mmr_train._universal`` with the k_B nearest region hyperplanes
    chosen by a stable argsort, layers split by np.split, the q = inf norm
    gradient written along an axis, every division masked and the tables'
    weight adjoint by np.tensordot; the same sums in the same order.

    It returns the regularizer values.  grads, when given, receives the
    gradient of their mean.  ce, when given, receives each row's
    cross-entropy, and grads then the gradient of its mean too, the logits'
    adjoint starting from the cross-entropy's as in ``_universal``; without
    ce it is the regularizer alone, as ``two_pass_step`` needs."""
    k = net.num_classes
    weight = 1.0 / len(X)
    out = np.empty(len(X))
    splits = np.cumsum(net.hidden_sizes[:-1], dtype=np.int64)
    for sl, rmap in net_core.region_maps(net, X):
        u = rmap.values
        abs_u = np.abs(u)
        others, diff, w_num = rmap.decision_planes(y[sl])
        idx, c = np.arange(len(u))[:, None], y[sl] - 1
        kb = min(int(kb_now), u.shape[1])
        value = np.zeros(len(u))
        if ce is not None:
            ce[sl], g_ce = mmr_train._cross_entropy(rmap.logits, y[sl], len(X))
        if grads is not None:
            g_u = np.zeros_like(u)
            g_logits = g_ce if ce is not None else np.zeros_like(rmap.logits)
            g_v = [np.zeros_like(v) for v in rmap.v_maps]
            g_diff = np.zeros_like(diff)
        for p, lam, gamma in ((1.0, lam1, cfg.gamma1), (math.inf, lam_inf, cfg.gamma_inf)):
            if lam == 0.0:
                continue
            q = geometry.dual_exponent(p)
            if kb:
                dens = certify.hidden_norms(rmap, q)
                dists = masked_distances(abs_u, dens)
                sel = np.argsort(dists, axis=1, kind="stable")[:, :kb]
                near = np.take_along_axis(dists, sel, axis=1)
                value += lam * mmr_train._hinge(near / gamma).sum(axis=1) / kb
                if grads is not None:
                    coef = np.zeros_like(dists)
                    active = (near < gamma) & np.isfinite(near)
                    np.put_along_axis(coef, sel, np.where(
                        active, -(weight * lam) / (kb * gamma), 0.0), axis=1)
                    g_val, g_norm = masked_adjoints(coef, abs_u, dens)
                    g_u += g_val * np.sign(u)
                    for l, g in enumerate(np.split(g_norm, splits, axis=1)):
                        v = rmap.v_maps[l]
                        g_v[l] += norm_grad_along_axis(
                            mmr_train._row_sums(rmap.index[l], len(v), g), v, q)
            dens = certify.row_norms(diff, q)
            dists = masked_distances(w_num, dens)
            value += lam * mmr_train._hinge(dists / gamma).sum(axis=1) / (k - 1)
            if grads is not None:
                active = (dists < gamma) & np.isfinite(dists)
                coef = np.where(active, -(weight * lam) / ((k - 1) * gamma), 0.0)
                g_val, g_norm = masked_adjoints(coef, w_num, dens)
                g_logits[idx, others] -= g_val
                g_logits[idx[:, 0], c] += g_val.sum(axis=1)
                g_diff += norm_grad_along_axis(g_norm, diff, q)
        out[sl] = value
        if grads is not None:
            net_core.backward_batch(net, np.split(u, splits, axis=1), g_logits, grads,
                                    X[sl], np.split(g_u, splits, axis=1))
            gv_out = np.zeros(rmap.logits.shape + diff.shape[2:])
            gv_out[idx, others] -= g_diff
            gv_out[idx[:, 0], c] += g_diff.sum(axis=1)
            g_v[-1] += mmr_train._row_sums(rmap.region, len(g_v[-1]), gv_out)
            backprop_tables_tensordot(net, rmap, g_v, grads[0])
    return out


def cross_entropy_grad(net, X, y, logits, preacts):
    """Batched softmax cross-entropy value and parameter gradients, from the
    logits and hidden preactivations of X, in one backward pass."""
    B = len(X)
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


def ce_value_and_grad(net, X, y):
    """Cross-entropy value and gradients through ``forward_batch``."""
    return cross_entropy_grad(net, X, y, *net_core.forward_batch(net, X))


def two_pass_step(net, X, y, cfg, kb_now, lam_scale=1.0):
    """The trainer's loss and gradient in two forward and two backward
    passes: the cross-entropy through ``forward_batch``, then the
    regularizer (``universal_argsort``) over its own region maps."""
    ce, dW, db = ce_value_and_grad(net, X, y)
    reg = universal_argsort(net, X, y, cfg, kb_now, cfg.lambda1 * lam_scale,
                            cfg.lambda_inf * lam_scale, grads=(dW, db))
    return ce + reg.sum() / len(X), dW, db


class AdamPerArray:
    """Adam that updates each parameter array in turn, in place."""

    def __init__(self, params):
        self.params = params
        self.m = [np.zeros_like(a) for a in params]
        self.v = [np.zeros_like(a) for a in params]
        self.t = 0

    def step(self, grads, lr):
        b1, b2 = mmr_train.BETA1, mmr_train.BETA2
        self.t += 1
        corr1 = 1.0 - b1**self.t
        corr2 = 1.0 - b2**self.t
        for i, (a, g) in enumerate(zip(self.params, grads)):
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g ** 2
            a -= lr * (self.m[i] / corr1) / (np.sqrt(self.v[i] / corr2) + mmr_train.ADAM_EPS)


# -- 2-D region atlas ----------------------------------------------------------


def clip_polygon(poly, normal, cutoff, tol=1e-12):
    """Convex polygon intersected with {z : normal.z <= cutoff}, vertex by vertex."""
    if len(poly) == 0:
        return poly
    # the products spelled out: a BLAS matmul may fuse them into one rounding
    normal = np.asarray(normal, dtype=np.float64)
    d = poly[:, 0] * normal[0] + poly[:, 1] * normal[1] - float(cutoff)
    out = []
    m = len(poly)
    for i in range(m):
        j = (i + 1) % m
        di, dj = d[i], d[j]
        if di <= tol:
            out.append(poly[i])
        if (di < -tol and dj > tol) or (di > tol and dj < -tol):
            t = di / (di - dj)
            out.append(poly[i] + t * (poly[j] - poly[i]))
    return np.asarray(out, dtype=np.float64).reshape(-1, 2)


def polygon_area(poly):
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def region_polygon(box, rows, offs, oris):
    """box clipped by every unit's half-plane in unit order, or None if empty."""
    poly = box
    for n, off, ori in zip(rows, offs, oris):
        nn = float(np.abs(n).sum())
        if nn == 0.0:
            # constant unit: the mask is only consistent if the sign agrees
            if (ori > 0 and off < 0) or (ori < 0 and off > 0):
                return None
            continue
        # active: n.z + off >= 0  ->  (-n).z <= off
        poly = clip_polygon(poly, -ori * n, ori * off)
        if len(poly) < 3:
            return None
    return poly


def pattern_key(net, z):
    """Activation pattern at z, one bytes object per hidden layer (1 where
    the unit's preactivation is > 0), as RegionAtlas keys its regions."""
    _, preacts = net_core.forward_batch(net, np.asarray(z, dtype=float)[None, :])
    return tuple(bytes((g[0] > 0).astype(np.uint8)) for g in preacts)


def atlas(net, lo=-8.0, hi=9.0, max_regions=20000, num_probes=512, seed=7):
    """(regions, complete): regions as (key, poly, v_out, a_out) in BFS order."""
    box = np.array([[lo, lo], [hi, lo], [hi, hi], [lo, hi]])
    rng = np.random.default_rng(seed)
    probes = rng.uniform(lo, hi, size=(num_probes, 2))
    probes = np.vstack([probes, [[0.5 * (lo + hi), 0.5 * (lo + hi)]]])
    scale = hi - lo
    step = 1e-7 * scale
    on_tol = 1e-9 * scale
    regions, queue, seen = [], deque(), set()

    def visit(z):
        key = pattern_key(net, z)
        if key not in seen:
            seen.add(key)
            queue.append((key, z))

    for z in probes:
        visit(z)
    while queue:
        if len(regions) >= max_regions:
            return regions, False
        key, z = queue.popleft()
        rmap = region_map(net, z[None, :])
        hidden, _ = rmap.affine_region(0)
        oris = np.where(rmap.values[0] > 0, 1.0, -1.0)
        rows, offs = oris[:, None] * hidden[:, :-1], oris * hidden[:, -1]  # unsigned
        poly = region_polygon(box, rows, offs, oris)
        if poly is None or polygon_area(poly) <= (1e-12 * scale) ** 2:
            continue
        regions.append((key, poly, rmap.v_maps[-1][0], rmap.a_maps[-1][0]))
        for n, off, ori in zip(rows, offs, oris):
            nn = np.linalg.norm(n)
            if nn == 0.0:
                continue
            on = np.abs(poly @ n + off) <= on_tol * max(1.0, nn)
            if on.sum() < 2:
                continue
            pts = poly[on]
            mid = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
            visit(mid - ori * (step / nn) * n)
    return regions, True


def decision_edges(regions, num_classes, label):
    """(starts, ends) of the edges of every {f_s >= f_label} piece, region by region."""
    c = int(label) - 1
    starts, ends = [], []
    for _, poly, v_out, a_out in regions:
        for s in range(num_classes):
            if s == c:
                continue
            piece = clip_polygon(poly, v_out[c] - v_out[s], -(a_out[c] - a_out[s]))
            m = len(piece)
            if m == 2:
                starts.append(piece[0])
                ends.append(piece[1])
            elif m > 2:
                for i in range(m):
                    starts.append(piece[i])
                    ends.append(piece[(i + 1) % m])
    if starts:
        return np.asarray(starts), np.asarray(ends)
    return np.zeros((0, 2)), np.zeros((0, 2))


def logit_gradient(logits, y0):
    """softmax - onehot(y0), reduced along each row."""
    m = logits.max(axis=1, keepdims=True)
    g = np.exp(logits - m)
    g /= g.sum(axis=1, keepdims=True)
    g[np.arange(len(g)), y0] -= 1.0
    return g


def ascent_step(G, p, sparsity_frac):
    """Unit-norm ascent direction of each row of G; for l1 the threshold is
    always np.partition's (d - k)-th element."""
    if math.isinf(p):
        return np.sign(G)
    if p == 2.0:
        norms = np.linalg.norm(G, axis=1, keepdims=True)
        return G / np.maximum(norms, 1e-300)
    d = G.shape[1]
    k = max(1, int(round(sparsity_frac * d)))
    A = np.abs(G)
    if k < d:
        thresh = np.partition(A, d - k, axis=1)[:, d - k]
        mask = A >= thresh[:, None]
    else:
        mask = np.ones_like(A, dtype=bool)
    V = G * mask
    norms = np.abs(V).sum(axis=1, keepdims=True)
    return V / np.maximum(norms, 1e-300)


def pgd_core(net, starts, X_ref, y, cfg, region=None, dtype=np.float64):
    """PGD with the forward pass and the input gradient layer by layer at
    every step, on the net in dtype; same signature and result as
    ``attacks._pgd_core``, whose region it ignores.  In float64 the hit test
    is the prediction at the iterate; in float32 an iterate counts once the
    float64 net misclassifies x + delta, as in the mixed-precision loop."""
    fast = net.astype(dtype)
    eps, p = cfg.eps, cfg.p
    eta = eps / 4.0 if p == 1.0 else 2.0 * eps / cfg.iterations
    y0 = y - 1
    Z = attacks._joint_project(starts.copy(), X_ref, eps, p)[0]
    best_norm = np.full(len(Z), math.inf)
    best_delta = np.zeros_like(Z)
    for it in range(cfg.iterations + 1):
        logits, preacts = net_core.forward_batch(fast, Z)
        pred = logits.argmax(axis=1)
        delta = Z - X_ref
        norms = row_norms(delta, p)
        hit = (pred != y0) & (norms <= eps + attacks._FEAS_TOL) & (norms < best_norm)
        if hit.any():
            if dtype != np.float64:
                rows = np.flatnonzero(hit)
                hit[rows] = net_core.classify_batch(net, X_ref[rows] + delta[rows]) != y[rows]
            best_norm[hit] = norms[hit]
            best_delta[hit] = delta[hit]
        if it == cfg.iterations:
            break
        G = net_core.backward_batch(fast, preacts, logit_gradient(logits, y0))
        G = G.astype(np.float64)
        Z = Z + eta * ascent_step(G, p, cfg.sparsity_frac)
        Z = attacks._joint_project(Z, X_ref, eps, p)[0]
    return np.isfinite(best_norm), best_norm, best_delta
