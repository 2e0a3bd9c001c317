"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line.  Run with `pytest tests/test_acceptance.py -s` to see the
lines as they complete."""

import math
import time

import numpy as np

from relucert import net_core
from relucert.attacks import attack_norms, lower_bounds
from relucert.certify import bounds, certificates, exact_robustness_oracle
from relucert.cli import derive_eps2
from relucert.geometry import hull_min_norm, ratio_analysis, union_min_norm
from relucert.mmr_train import MmrUniversalConfig

from conftest import attack_one, finite_difference_check, sample_generic_batch, tiny_net
from oracles import hull_boundary_oracle, union_witness


class criterion:
    """Prints one `[PASS]`/`[FAIL]` line per acceptance criterion."""

    def __init__(self, num, desc):
        self.num = num
        self.desc = desc

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"[{verdict}] criterion {self.num}: {self.desc}")
        return False


def ub_union(net, ds, eps):
    """Certified upper bound on the union robust error of the dataset."""
    return bounds(certificates(net, ds.features, ds.labels), eps)["union"]


def test_criterion_1_reference_radii():
    with criterion(1, "derived l2 radii match the reference table to 5e-5 in <1ms"):
        derive_eps2(1.0, 0.1)  # warm up
        t0 = time.perf_counter()
        v1 = derive_eps2(1.0, 0.1)
        v2 = derive_eps2(3.0, 4.0 / 255.0)
        v3 = derive_eps2(2.0, 2.0 / 255.0)
        elapsed = time.perf_counter() - t0
        assert abs(v1 - 0.3162) <= 5e-5
        assert abs(v2 - 0.2170) <= 5e-5
        assert abs(v3 - 0.1252) <= 5e-5
        assert elapsed < 1e-3, f"took {elapsed * 1e3:.3f} ms"


def test_criterion_2_ratio_analysis():
    with criterion(2, "hull/union gain is 3.8 (d=784) and 5.3 (d=3072), "
                      "maximizer near sqrt(d), <1s per dimension"):
        for d, expected in ((784, 3.8), (3072, 5.3)):
            t0 = time.perf_counter()
            delta_star, max_ratio, _ = ratio_analysis(d)
            elapsed = time.perf_counter() - t0
            assert abs(max_ratio - expected) <= 0.1
            assert abs(delta_star - math.sqrt(d)) <= 0.05 * math.sqrt(d)
            assert elapsed < 1.0, f"d={d} took {elapsed:.2f}s"


def test_criterion_3_geometry_oracles():
    with criterion(3, "sampled hull boundary within +1%/-1e-9 of the closed "
                      "form and union witness exact to 1e-12, 50 cases in <60s"):
        rng = np.random.default_rng(303)
        t0 = time.perf_counter()
        for case in range(50):
            d = int(rng.integers(2, 5))
            eps_inf = rng.uniform(0.4, 1.6)
            eps1 = rng.uniform(1.1, 0.9 * d) * eps_inf
            p = (1.5, 2.0, 3.0)[case % 3]
            sampled = hull_boundary_oracle(eps1, eps_inf, d, p, num_dirs=50_000, seed=case)
            closed = hull_min_norm(eps1, eps_inf, p)
            assert sampled >= closed - 1e-9
            assert sampled <= closed * 1.01
            w = union_witness(eps1, eps_inf, d, p)
            wn = float((np.abs(w) ** p).sum() ** (1.0 / p))
            assert abs(wn - union_min_norm(eps1, eps_inf, d, p)) <= 1e-12
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_4_certification_soundness():
    with criterion(4, "certificates never exceed the exact-search oracle on "
                      "500 tiny-net instances, all three norms, <5min"):
        rng = np.random.default_rng(404)
        t0 = time.perf_counter()
        checked = 0
        for net_idx in range(20):
            net = tiny_net(net_idx)
            X = rng.uniform(0.0, 1.0, size=(25, 2))
            labels = net_core.classify_batch(net, X)
            c = certificates(net, X, labels)
            # the single-norm bounds at p = 1, 2, inf
            single = {1.0: c.rho1, 2.0: c.single_l2, math.inf: c.rho_inf}
            cu = c.universal_bound(2.0)
            for i, (x, label) in enumerate(zip(X, labels)):
                for p, cert in single.items():
                    res = exact_robustness_oracle(net, x, label, p)
                    assert cert[i] <= res.value + 1e-9, (net_idx, x, p)
                res2 = exact_robustness_oracle(net, x, label, 2.0)
                assert cu[i] <= res2.value + 1e-9
                rho1, rho_inf = c.rho1[i], c.rho_inf[i]
                if c.correct[i] and rho_inf > 0 and math.isfinite(rho1):
                    union = union_min_norm(rho1, rho_inf, 2, 2.0)
                    assert cu[i] >= union - 1e-12
                checked += 1
        assert checked == 500
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_criterion_5_gradient_check():
    with criterion(5, "analytic loss gradient matches central differences to "
                      "1e-4 relative on 10 random nets, <30s"):
        t0 = time.perf_counter()
        cfg = MmrUniversalConfig(lambda1=0.8, lambda_inf=2.2,
                                 gamma1=0.7, gamma_inf=0.12)
        shapes = ([2, 5, 4, 3], [2, 8, 2], [3, 6, 3], [2, 6, 6, 2], [4, 5, 3])
        for trial in range(10):
            sizes = shapes[trial % len(shapes)]
            net, X, y = sample_generic_batch(trial, sizes, 3, cfg, kb=2)
            worst = finite_difference_check(net, X, y, cfg, kb=2)
            assert worst <= 1e-4, f"trial {trial}: {worst:.2e}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_6_training_efficacy(trained_pairs):
    with criterion(6, "universal regularization cuts the union robust-error "
                      "upper bound by >=20 points on 3/3 seeds, <10min"):
        t0 = time.perf_counter()
        eps = trained_pairs["eps"]
        for run in trained_pairs["runs"]:
            ub_plain = ub_union(run["plain"], run["test"], eps)
            ub_mmr = ub_union(run["mmr"], run["test"], eps)
            test_error = run["mmr_hist"][-1]["test_error"]
            assert test_error < 0.10, f"seed {run['seed']}: test error {test_error}"
            assert ub_plain - ub_mmr >= 0.20, (
                f"seed {run['seed']}: plain {ub_plain:.3f} vs mmr {ub_mmr:.3f}")
        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0, f"took {elapsed:.1f}s"


def test_criterion_7_sandwich(trained_pairs):
    with criterion(7, "attack lower bounds never exceed certified upper "
                      "bounds and no perturbation undercuts a certificate"):
        eps = trained_pairs["eps"]
        radii = {"l1": (1.0, eps.eps1), "l2": (2.0, eps.eps2),
                 "linf": (math.inf, eps.eps_inf)}
        for run in trained_pairs["runs"]:
            for kind in ("plain", "mmr"):
                net = run[kind]
                sub = run["test"].head(200)
                lb = lower_bounds(net, sub, attack_norms(net, sub, eps, iterations=60,
                                                         restarts=5, seed=run["seed"]))["union"]
                ub = ub_union(net, sub, eps)
                assert lb <= ub + 1e-12, f"{kind} seed {run['seed']}: {lb} > {ub}"
                certs = certificates(net, sub.features, sub.labels)
                bound = {"l1": certs.rho1, "l2": certs.universal_bound(2.0),
                         "linf": certs.rho_inf}
                for name, (p, e) in radii.items():
                    success, norms, _ = attack_one(net, sub, p, e, iterations=60, restarts=5,
                                                   seed=run["seed"] + 31)
                    hit = success & np.isfinite(norms)
                    assert (norms[hit] >= bound[name][hit] - 1e-7).all(), (
                        f"{kind} seed {run['seed']} norm {name}")


def test_criterion_8_limit_checks():
    with criterion(8, "hull bound approaches eps1 as p->1 and eps_inf as "
                      "p->inf on a 20-pair grid"):
        rng = np.random.default_rng(808)
        for _ in range(20):
            eps_inf = rng.uniform(0.05, 2.0)
            eps1 = rng.uniform(1.2, 60.0) * eps_inf
            near_one = hull_min_norm(eps1, eps_inf, 1.0 + 1e-6)
            assert abs(near_one - eps1) <= 1e-3 * eps1
            near_inf = hull_min_norm(eps1, eps_inf, 1e6)
            assert abs(near_inf - eps_inf) <= 1e-3 * eps_inf
