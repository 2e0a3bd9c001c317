import math

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from relucert import attacks, certify, datasets, geometry, mmr_train, net_core
from relucert.cli import derive_eps2
from relucert.net_core import random_net

import per_point_reference

# `pytest --hypothesis-profile=ci` draws the same examples on every run, so a
# property that fails in CI fails the same way locally with the same flag.
settings.register_profile("ci", derandomize=True, deadline=None)

# biases log-uniform in [1e-8, 6] for random_net: small ones make the
# first-layer lines almost meet at the origin
BIASES = st.floats(-8.0, math.log10(6.0)).map(lambda e: 10.0 ** e)

BLOB_EPS = certify.EpsTriple(0.5, derive_eps2(0.5, 0.05), 0.05)

TINY_ARCHS = [
    [2, 8, 2],
    [2, 12, 2],
    [2, 16, 3],
    [2, 6, 5, 2],
    [2, 8, 8, 3],
    [2, 10, 4, 2],
]


def tiny_net(seed):
    """Random 2-D net with at most 16 hidden units and a decision boundary
    crossing the unit box (rejection-sampled so tests are not vacuous)."""
    arch = TINY_ARCHS[seed % len(TINY_ARCHS)]
    probe = np.random.default_rng(99).uniform(0, 1, size=(256, 2))
    for attempt in range(200):
        rng = np.random.default_rng(10_000 * seed + attempt)
        weights, biases = [], []
        for fan_in, n in zip(arch[:-1], arch[1:]):
            weights.append(rng.standard_normal((n, fan_in)) * 1.5 / np.sqrt(fan_in))
            biases.append(rng.uniform(-0.5, 0.5, size=n))
        biases[-1] = rng.uniform(-0.05, 0.05, size=arch[-1])
        net = net_core.ReluNet(tuple(weights), tuple(biases))
        preds = net_core.classify_batch(net, probe)
        counts = np.bincount(preds, minlength=arch[-1] + 1)[1:]
        if (counts >= 0.15 * len(probe)).sum() >= 2:
            return net
    raise AssertionError(f"no usable tiny net for seed {seed}")


def cleared_net(sizes, seed=0, margin=0.5):
    """Net whose hidden biases put every hyperplane at least margin beyond
    the unit box, as perfbench's corners model does over its data: every
    hidden unit is active on [0, 1]^d, so all points there share one
    activation region.  Outside the box the units switch off."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    lo, hi = np.zeros(sizes[0]), np.ones(sizes[0])  # bounds on the layer input
    for fan_in, n in zip(sizes[:-2], sizes[1:-1]):
        w = rng.standard_normal((n, fan_in)) / np.sqrt(fan_in)
        least = np.minimum(w * lo, w * hi).sum(axis=1)
        weights.append(w)
        biases.append(margin - least)
        lo, hi = np.full(n, margin), np.maximum(w * lo, w * hi).sum(axis=1) + margin - least
    weights.append(rng.standard_normal((sizes[-1], sizes[-2])) / np.sqrt(sizes[-2]))
    biases.append(rng.uniform(-0.1, 0.1, sizes[-1]))
    return net_core.ReluNet(tuple(weights), tuple(biases))


def hand_net():
    """f1 = relu(x1 - 1) + relu(x2 - 1), f2 = 0.5: four activation regions."""
    return net_core.ReluNet((np.eye(2), np.array([[1.0, 1.0], [0.0, 0.0]])),
                            (np.array([-1.0, -1.0]), np.array([0.0, 0.5])))


def hyperplane_distances(net, x, label, p):
    """(boundary, decision) lp-distances of x to each hidden hyperplane of its
    region and, signed with label as reference class, to each decision
    hyperplane against the other classes in increasing order; from the
    region map, as certify.certificates computes them but with every
    division masked."""
    q = geometry.dual_exponent(p)
    rmap = per_point_reference.region_map(net, np.asarray(x, dtype=float)[None, :])
    _, normals, values = rmap.decision_planes([label])
    hidden, _ = rmap.affine_region(0)
    boundary = per_point_reference.masked_distances(
        np.abs(rmap.values), certify.row_norms(hidden[None, :, :-1], q))
    decision = per_point_reference.masked_distances(values, certify.row_norms(normals, q))
    return boundary[0], decision[0]


def attack_one(net, dataset, p, eps, seed=0, **kwargs):
    """attack_norms on the one norm of order p in {1, 2, inf}, at radius
    eps: its (success, best_norm, best_delta).  seed is the norm's own
    seed: attack_norms adds 1, 2 or 3 to the seed it is given."""
    names = {1.0: "l1", 2.0: "l2", math.inf: "linf"}
    offset = list(names).index(p) + 1
    radii = [eps if q == p else None for q in names]
    return attacks.attack_norms(net, dataset, radii, norms=(names[p],), seed=seed - offset,
                                **kwargs)[names[p]]


def finite_difference_check(net, X, y, cfg, kb, step=1e-5):
    """Worst elementwise relative error of the analytic loss gradient."""
    dW, db = mmr_train.loss_gradient(net, (X, y), cfg, kb_now=kb)
    worst = 0.0
    for li in range(len(net.weights)):
        for kind, grad in (("w", dW[li]), ("b", db[li])):
            for idx in np.ndindex(grad.shape):
                ws = [w.copy() for w in net.weights]
                bs = [b.copy() for b in net.biases]
                (ws if kind == "w" else bs)[li][idx] += step
                lp = mmr_train.loss(net_core.ReluNet(ws, bs), (X, y), cfg, kb_now=kb)
                (ws if kind == "w" else bs)[li][idx] -= 2 * step
                lm = mmr_train.loss(net_core.ReluNet(ws, bs), (X, y), cfg, kb_now=kb)
                fd = (lp - lm) / (2 * step)
                denom = max(abs(fd), abs(grad[idx]), 1e-6)
                worst = max(worst, abs(fd - grad[idx]) / denom)
    return worst


def point_is_generic(net, x, label, cfg, kb, margin=1e-3):
    """No ReLU / hinge / sort / max-abs kink within reach of the FD step."""
    _, preacts = net_core.forward_batch(net, np.asarray(x, dtype=float)[None, :])
    for g in preacts:
        if g.size and np.abs(g).min() < margin:
            return False
    masks, v_list, a_list, rows, offs = per_point_reference.point_geometry(net, x)
    u = rows @ x + offs
    if len(u) and np.abs(u).min() < margin:
        return False
    for q, gamma in ((math.inf, cfg.gamma1), (1.0, cfg.gamma_inf)):
        den = per_point_reference.dual_den(rows, q)
        if len(den) and den.min() < 1e-6:
            return False
        dists = np.sort(np.abs(u) / den)
        k = min(kb, len(dists))
        if len(dists) > k and dists[k] - dists[k - 1] < 1e-4:
            return False
        if np.any(np.abs(dists[:k] - gamma) < margin):
            return False
    for row in rows:
        a = np.sort(np.abs(row))
        if len(a) > 1 and a[-1] - a[-2] < 1e-4:
            return False
    c = label - 1
    v_out, a_out = v_list[-1], a_list[-1]
    for s in range(net.num_classes):
        if s == c:
            continue
        diff = v_out[c] - v_out[s]
        w = float(diff @ x) + (a_out[c] - a_out[s])
        if abs(w) < margin:
            return False
        a = np.sort(np.abs(diff))
        if len(a) > 1 and a[-1] - a[-2] < 1e-4:
            return False
        for q, gamma in ((math.inf, cfg.gamma1), (1.0, cfg.gamma_inf)):
            den = per_point_reference.dual_den(diff[None, :], q)[0]
            if den < 1e-6:
                return False
            if abs(w / den - gamma) < margin:
                return False
    return True


def sample_generic_batch(seed, sizes, batch, cfg, kb, max_tries=200):
    rng = np.random.default_rng(seed)
    for attempt in range(max_tries):
        net = random_net(sizes, seed=seed * 1000 + attempt, bias_scale=0.4)
        X = rng.uniform(0.05, 0.95, size=(batch, sizes[0]))
        y = rng.integers(1, sizes[-1] + 1, size=batch)
        if all(point_is_generic(net, X[i], int(y[i]), cfg, kb) for i in range(batch)):
            return net, X, y
    raise AssertionError("could not sample a generic configuration")


@pytest.fixture(scope="session")
def trained_pairs():
    """Plain vs universally regularized models on blobs, three seeds each.

    Built once per session; used by the training-efficacy and sandwich
    acceptance criteria and by the paired-run unit tests.
    """
    runs = []
    for seed in (0, 1, 2):
        train_ds = datasets.gen_blobs(800, seed=seed)
        test_ds = datasets.gen_blobs(400, seed=seed + 1000)
        net0 = net_core.random_net([2, 64, 2], seed=seed)
        tc = mmr_train.TrainConfig(epochs=100, seed=seed)
        plain_cfg = mmr_train.MmrUniversalConfig(lambda1=0.0, lambda_inf=0.0)
        mmr_cfg = mmr_train.MmrUniversalConfig(lambda1=1.0, lambda_inf=6.0,
                                               gamma1=1.0, gamma_inf=0.1)
        plain_net, plain_hist = mmr_train.train(net0, train_ds, plain_cfg, tc,
                                                eval_dataset=test_ds)
        mmr_net, mmr_hist = mmr_train.train(net0, train_ds, mmr_cfg, tc,
                                            eval_dataset=test_ds)
        runs.append({
            "seed": seed, "train": train_ds, "test": test_ds,
            "plain": plain_net, "mmr": mmr_net,
            "plain_hist": plain_hist, "mmr_hist": mmr_hist,
        })
    return {"eps": BLOB_EPS, "runs": runs}
