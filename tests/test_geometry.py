import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import linprog

from relucert import geometry
from relucert.geometry import (
    BallPair, dual_exponent, hull_min_norm, naive_union_bound, ratio_analysis,
    union_min_norm,
)

from oracles import hull_boundary_oracle, hull_gauge, hull_membership, union_witness


def lp_norm(v, p):
    v = np.abs(np.asarray(v, dtype=float))
    if math.isinf(p):
        return v.max()
    return (v**p).sum() ** (1.0 / p)


# -- norm orders ---------------------------------------------------------------


@pytest.mark.parametrize("p,q", [(1.0, math.inf), (math.inf, 1.0), (2.0, 2.0),
                                 (4.0, 4.0 / 3.0), (1.5, 3.0)])
def test_dual_exponents(p, q):
    assert dual_exponent(p) == pytest.approx(q)


def test_norm_order_validation():
    with pytest.raises(ValueError):
        dual_exponent(0.5)
    with pytest.raises(ValueError):
        BallPair(1.0, -1.0, 4)
    with pytest.raises(ValueError):
        BallPair(1.0, 1.0, 1)


# -- naive bound ---------------------------------------------------------------


def test_naive_bound_eps1_equals_d():
    for d, p in ((4, 2.0), (784, 2.0), (16, 3.0)):
        bp = BallPair(float(d), 1.0, d)
        assert naive_union_bound(bp, p) == pytest.approx(d ** (1.0 / p))


def test_naive_bound_dominated_by_linf():
    bp = BallPair(2.0, 1.0, 784)
    assert naive_union_bound(bp, 2.0) == pytest.approx(1.0)


def test_naive_never_exceeds_union_value():
    # the two curves overlap almost everywhere; naive is never above
    d = 784
    for eps1 in np.linspace(1.001, d - 1.0, 200):
        bp = BallPair(float(eps1), 1.0, d)
        assert naive_union_bound(bp, 2.0) <= union_min_norm(bp, 2.0) + 1e-12


# -- union bound ---------------------------------------------------------------


def test_union_value_small_dim():
    assert union_min_norm(BallPair(2.0, 1.0, 2), 2.0) == pytest.approx(math.sqrt(2.0))


def test_union_value_mnist_dim():
    v = union_min_norm(BallPair(2.0, 1.0, 784), 2.0)
    assert v == pytest.approx((1.0 + 1.0 / 783.0) ** 0.5, abs=1e-12)
    assert v == pytest.approx(1.000638, abs=1e-6)


def test_union_degenerate_regimes():
    assert union_min_norm(BallPair(0.5, 1.0, 4), 2.0) == pytest.approx(1.0)
    assert union_min_norm(BallPair(8.0, 1.0, 4), 2.0) == pytest.approx(8.0 / 2.0)


def test_union_boundary_sampling_oracle():
    # boundary points of the union always lie in the complement's closure,
    # and with many samples the minimum approaches the closed form from above
    bp = BallPair(3.0, 1.0, 4)
    val = union_min_norm(bp, 2.0)
    rng = np.random.default_rng(99)
    dirs = rng.standard_normal((100_000, 4))
    on_l1 = dirs * (bp.eps1 / np.abs(dirs).sum(axis=1))[:, None]
    on_l1 = on_l1[np.abs(on_l1).max(axis=1) >= bp.eps_inf]
    on_linf = dirs * (bp.eps_inf / np.abs(dirs).max(axis=1))[:, None]
    on_linf = on_linf[np.abs(on_linf).sum(axis=1) >= bp.eps1]
    pts = np.vstack([on_l1, on_linf])
    norms = np.sqrt((pts**2).sum(axis=1))
    assert norms.min() >= val - 1e-6
    assert norms.min() <= val * 1.05
    w = union_witness(bp, 2.0)
    assert lp_norm(w, 2.0) == pytest.approx(val, abs=1e-12)


def test_union_witness_small_cases():
    w = union_witness(BallPair(2.0, 1.0, 2), 2.0)
    assert np.allclose(w, [1.0, 1.0])
    assert lp_norm(w, 1) == pytest.approx(2.0, abs=1e-12)
    assert lp_norm(w, math.inf) == pytest.approx(1.0, abs=1e-12)
    assert lp_norm(w, 2) == pytest.approx(math.sqrt(2.0), abs=1e-12)
    w = union_witness(BallPair(3.0, 1.0, 3), 2.0)
    assert np.allclose(w, [1.0, 1.0, 1.0])


def test_union_witness_exactness_random():
    rng = np.random.default_rng(123)
    for _ in range(50):
        d = int(rng.integers(2, 8))
        einf = rng.uniform(0.2, 3.0)
        e1 = rng.uniform(1.02, 0.98 * d) * einf
        bp = BallPair(e1, einf, d)
        p = rng.uniform(1.0, 4.0)
        w = union_witness(bp, p)
        assert lp_norm(w, 1) == pytest.approx(e1, abs=1e-12)
        assert lp_norm(w, math.inf) == pytest.approx(einf, abs=1e-12)
        assert lp_norm(w, p) == pytest.approx(union_min_norm(bp, p), abs=1e-12)


def test_union_witness_precondition():
    with pytest.raises(ValueError):
        union_witness(BallPair(0.5, 1.0, 4), 2.0)


# -- hull bound -----------------------------------------------------------------


@pytest.mark.parametrize("eps1,eps_inf,expected", [
    (1.0, 0.1, 0.3162),
    (3.0, 4.0 / 255.0, 0.2170),
    (2.0, 2.0 / 255.0, 0.1252),
])
def test_hull_reference_radii(eps1, eps_inf, expected):
    assert hull_min_norm(eps1, eps_inf, 2.0) == pytest.approx(expected, abs=5e-5)


def test_hull_integer_ratio():
    assert hull_min_norm(4.0, 1.0, 2.0) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_hull_array_matches_scalar_calls(p):
    rng = np.random.default_rng(21)
    eps_inf = rng.uniform(0.01, 1.0, 500)
    eps1 = eps_inf * rng.uniform(0.5, 40.0, 500)
    out = hull_min_norm(eps1, eps_inf, p)
    scalars = [hull_min_norm(float(a), float(b), p) for a, b in zip(eps1, eps_inf)]
    assert all(type(v) is float for v in scalars)
    assert out.shape == (500,)
    assert out.tobytes() == np.array(scalars).tobytes()
    if p == 1.0:
        assert out.tobytes() == eps1.tobytes()


@pytest.mark.parametrize("eps1,eps_inf", [
    ([1.0, 0.0], 0.1), ([1.0, 2.0], [0.1, -0.1]), ([1.0, math.nan], 0.1),
    (math.inf, 1.0), (1.0, math.inf), ([1.0, 2.0], [0.1, math.inf]),
])
def test_hull_array_rejects_nonpositive_radius(eps1, eps_inf):
    with pytest.raises(ValueError, match="positive"):
        hull_min_norm(np.array(eps1), np.array(eps_inf), 2.0)


def test_domain_errors():
    with pytest.raises(ValueError):
        hull_min_norm(-1.0, 0.5, 2.0)
    with pytest.raises(ValueError):
        hull_min_norm(1.0, 0.0, 2.0)
    bp = BallPair(2.0, 1.0, 4)
    with pytest.raises(ValueError):
        naive_union_bound(bp, math.inf)
    with pytest.raises(ValueError):
        union_min_norm(bp, math.inf)


def test_union_large_radii_and_orders():
    # only delta = eps1/eps_inf is raised to the power p, so large radii do
    # not overflow; a p too large for d raises instead of returning inf
    assert union_min_norm(BallPair(1.46e6, 1000.0, 2926), 50.0) == pytest.approx(
        1000.0, rel=1e-12)
    with pytest.raises(ArithmeticError):
        union_min_norm(BallPair(4090.0, 1.0, 4096), 86.0)


def test_hull_limit_orders():
    assert hull_min_norm(1.5, 0.5, 1.0) == pytest.approx(1.5)
    assert hull_min_norm(1.5, 0.5, math.inf) == pytest.approx(0.5)


def test_hull_limits_continuity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        einf = rng.uniform(0.1, 2.0)
        e1 = rng.uniform(1.1, 40.0) * einf
        assert abs(hull_min_norm(e1, einf, 1.0 + 1e-6) - e1) <= 1e-3 * e1
        assert abs(hull_min_norm(e1, einf, 1e6) - einf) <= 1e-3 * einf


def test_hull_monotone_in_radii():
    for e1 in np.linspace(1.1, 3.9, 15):
        a = hull_min_norm(e1, 1.0, 2.0)
        b = hull_min_norm(e1 + 0.05, 1.0, 2.0)
        assert b >= a - 1e-12
    for einf in np.linspace(0.6, 1.9, 15):
        a = hull_min_norm(2.0, einf, 2.0)
        b = hull_min_norm(2.0, einf + 0.02, 2.0)
        assert b >= a - 1e-12


def test_ordering_naive_union_hull():
    rng = np.random.default_rng(11)
    for _ in range(200):
        d = int(rng.integers(2, 10))
        einf = rng.uniform(0.2, 2.0)
        e1 = rng.uniform(1.05, 0.95 * d) * einf
        p = rng.uniform(1.01, 5.0)
        bp = BallPair(e1, einf, d)
        nv = naive_union_bound(bp, p)
        uv = union_min_norm(bp, p)
        hv = hull_min_norm(e1, einf, p)
        assert nv <= uv + 1e-12
        assert uv <= hv + 1e-12
        assert hv <= e1 + 1e-12


# radii in the nontrivial regime eps_inf < eps1 < d * eps_inf, where neither
# ball contains the other
NONTRIVIAL = st.tuples(st.integers(2, 4096), st.floats(1e-3, 1e3),
                       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))


def nontrivial_pair(drawn):
    d, eps_inf, t = drawn
    eps1 = eps_inf * (1.0 + t * (d - 1))
    assume(eps_inf < eps1 < d * eps_inf)
    return BallPair(eps1, eps_inf, d)


@settings(max_examples=300, deadline=None)
@given(drawn=NONTRIVIAL, p=st.floats(1.0, 50.0))
def test_hull_union_naive_ordering_property(drawn, p):
    bp = nontrivial_pair(drawn)
    naive = naive_union_bound(bp, p)
    union = union_min_norm(bp, p)
    hull = hull_min_norm(bp.eps1, bp.eps_inf, p)
    assert union >= naive * (1.0 - 1e-12)
    assert hull >= union * (1.0 - 1e-12)


@settings(max_examples=300, deadline=None)
@given(drawn=NONTRIVIAL, ps=st.lists(st.floats(1.0, 1e6), min_size=2, max_size=2))
def test_hull_non_increasing_in_p_between_its_limits(drawn, ps):
    # universal_bound(p) moves from rho1 at p = 1 down to rho_inf at p = inf
    bp = nontrivial_pair(drawn)
    lo, hi = sorted(ps)
    at = {p: hull_min_norm(bp.eps1, bp.eps_inf, p) for p in (1.0, lo, hi, math.inf)}
    assert at[1.0] == bp.eps1
    assert at[math.inf] == pytest.approx(bp.eps_inf, rel=1e-12)
    assert at[lo] <= at[1.0] * (1.0 + 1e-12)
    assert at[hi] <= at[lo] * (1.0 + 1e-12)
    assert at[math.inf] <= at[hi] * (1.0 + 1e-12)


def test_union_strictly_decreasing_in_dimension():
    for p in (1.5, 2.0, 3.0):
        prev = None
        for d in (2, 3, 5, 9, 17):
            v = union_min_norm(BallPair(1.8, 1.0, d), p)
            if prev is not None:
                assert v < prev
            prev = v


# -- membership and boundary oracle ----------------------------------------------


def test_membership_vertices():
    bp = BallPair(2.0, 1.0, 3)
    assert hull_membership([2.0, 0.0, 0.0], bp)
    assert not hull_membership([2.02, 0.0, 0.0], bp)


def hull_membership_vertex_lp(x, bp):
    """Independent oracle: x in conv(vertices of B1 u Binf) via a feasibility LP."""
    d = bp.dim
    verts = []
    for i in range(d):
        for s in (1.0, -1.0):
            v = np.zeros(d)
            v[i] = s * bp.eps1
            verts.append(v)
    for bits in range(2**d):
        v = np.array([(1.0 if bits >> i & 1 else -1.0) * bp.eps_inf for i in range(d)])
        verts.append(v)
    V = np.asarray(verts)
    m = len(V)
    a_eq = np.vstack([V.T, np.ones((1, m))])
    b_eq = np.concatenate([np.asarray(x, dtype=float), [1.0]])
    res = linprog(np.zeros(m), A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * m,
                  method="highs")
    return res.status == 0


def test_membership_matches_vertex_lp():
    bp = BallPair(2.0, 1.0, 3)
    rng = np.random.default_rng(77)
    agree = 0
    for _ in range(200):
        x = rng.uniform(-2.4, 2.4, size=3)
        g = hull_gauge(x, bp)
        if abs(g - 1.0) < 1e-6:
            continue  # skip points numerically on the boundary
        assert hull_membership(x, bp) == hull_membership_vertex_lp(x, bp)
        agree += 1
    assert agree > 150


def test_gauge_matches_membership():
    rng = np.random.default_rng(31)
    for _ in range(500):
        d = int(rng.integers(2, 6))
        einf = rng.uniform(0.3, 2.0)
        e1 = rng.uniform(1.05, 0.95 * d) * einf
        bp = BallPair(e1, einf, d)
        x = rng.uniform(-1.5 * e1, 1.5 * e1, size=d)
        g = hull_gauge(x, bp)
        assert (g <= 1.0 + 1e-12) == hull_membership(x, bp, tol=1e-12 * e1)


def test_boundary_oracle_2d():
    bp = BallPair(1.5, 1.0, 2)
    val = hull_boundary_oracle(bp, 2.0, num_dirs=10_000, seed=0)
    ref = hull_min_norm(1.5, 1.0, 2.0)
    assert abs(val - ref) <= 1e-3


def test_boundary_oracle_3d_p3():
    bp = BallPair(2.5, 1.0, 3)
    val = hull_boundary_oracle(bp, 3.0, num_dirs=50_000, seed=1)
    ref = hull_min_norm(2.5, 1.0, 3.0)
    assert val >= ref - 1e-9
    assert val <= ref * 1.01


def test_boundary_oracle_dominates_union():
    rng = np.random.default_rng(13)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        einf = rng.uniform(0.4, 1.5)
        e1 = rng.uniform(1.1, 0.9 * d) * einf
        bp = BallPair(e1, einf, d)
        p = rng.uniform(1.2, 3.0)
        assert hull_boundary_oracle(bp, p, num_dirs=4000, seed=3) >= \
            union_min_norm(bp, p) - 1e-9


# -- ratio analysis ----------------------------------------------------------------


def test_ratio_analysis_reference_dims():
    ds, mr, curve = ratio_analysis(784)
    assert mr == pytest.approx(3.8, abs=0.1)
    assert abs(ds - math.sqrt(784)) <= 0.05 * math.sqrt(784)
    assert curve.shape[1] == 2
    ds, mr, _ = ratio_analysis(3072)
    assert mr == pytest.approx(5.3, abs=0.1)
    assert abs(ds - math.sqrt(3072)) <= 0.05 * math.sqrt(3072)


def test_ratio_analysis_small_dim():
    # at d = 4 the sawtooth of the exact hull formula moves the maximizer
    # below the large-d sqrt(d) asymptote; the window reflects that
    ds, mr, curve = ratio_analysis(4)
    assert 1.2 <= ds <= 2.8
    assert mr >= 1.0
    # the returned maximum matches a dense recomputation over the curve
    dense = curve[:, 1].max()
    assert mr == pytest.approx(dense, abs=1e-12)


def test_curve_table_columns():
    table = geometry.curve_table(100, num=256)
    assert table.shape == (256, 5)
    deltas, naive, union, hull, ratio = table.T
    assert (naive <= union + 1e-12).all()
    assert (union <= hull + 1e-12).all()
    assert np.allclose(ratio, hull / union)


@pytest.mark.parametrize("d,p", [(2, 2.0), (16, 2.0), (16, 3.0), (784, 1.5)])
def test_curve_table_columns_are_the_scalar_bounds(d, p):
    # one formula per bound: the table's naive and union columns are the
    # scalar functions' values, bit for bit
    deltas, naive, union, _, _ = geometry.curve_table(d, p=p, num=512).T
    pairs = [BallPair(float(delta), 1.0, d) for delta in deltas]
    assert np.array([naive_union_bound(bp, p) for bp in pairs]).tobytes() == naive.tobytes()
    assert np.array([union_min_norm(bp, p) for bp in pairs]).tobytes() == union.tobytes()
