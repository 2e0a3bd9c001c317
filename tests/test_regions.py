"""The 2-D region atlas: against the unit-by-unit reference walk in
per_point_reference.py, its region cap, tiling properties and its
polygon clip."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relucert import certify, net_core, regions
from relucert.net_core import ReluNet, random_net
from relucert.regions import HI, LO, RegionAtlas

import per_point_reference as ref
from conftest import BIASES, TINY_ARCHS, hand_net, tiny_net


def constant_unit_net():
    # first-layer units 0-2 have zero rows: constant active, inactive and
    # exactly zero; second-layer unit 0 reads only units that are inactive
    # on part of the box, so it is constant there and a sloped plane elsewhere
    rng = np.random.default_rng(11)
    w1 = rng.standard_normal((7, 2))
    w1[:3] = 0.0
    b1 = rng.uniform(-2.0, 2.0, 7)
    b1[:3] = (0.7, -0.4, 0.0)
    w2 = rng.standard_normal((4, 7))
    w2[0] = (1.0, 0.0, 0.0, 1.5, 0.0, 0.0, 0.0)
    b2 = rng.uniform(-1.0, 1.0, 4)
    return ReluNet((w1, w2, rng.standard_normal((3, 4))), (b1, b2, np.zeros(3)))


NETS = {
    **{f"tiny{i}-" + "-".join(map(str, TINY_ARCHS[i])): (lambda i=i: tiny_net(i))
       for i in range(len(TINY_ARCHS))},
    "deep-2-10-7-3": lambda: random_net([2, 10, 7, 3], seed=3, bias_scale=3.0),
    "constant-units": constant_unit_net,
    "hand-4-regions": hand_net,
    "linear-2-3": lambda: random_net([2, 3], seed=1, bias_scale=1.0),
}


# Region maps: the same products as the reference's one-point region_map,
# so equal in practice; allowed to differ by 1e-12 of the map's largest entry.
MAP_TOL = 1e-12
# Distances to decision edges and oracle values: the atlas cuts its polygons
# in another order than the reference, which moves vertices by rounding only.
DIST_RTOL = 1e-12


def assert_close(got, want, rtol):
    assert got == want or abs(got - want) <= rtol * abs(want), (got, want)


def assert_matches_reference(net):
    """Region keys, their output maps, decision-edge distances and oracle
    values of a complete atlas against the unit-by-unit reference walk."""
    atlas = RegionAtlas(net)
    expected, complete = ref.atlas(net)
    assert atlas.complete and complete
    maps = {key: (v_out, a_out) for key, _, v_out, a_out in expected}
    assert {reg.key for reg in atlas.regions} == set(maps)
    for reg in atlas.regions:
        for got, want in zip((reg.v_out, reg.a_out), maps[reg.key]):
            scale = max(np.abs(want).max(initial=0.0), 1.0)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=MAP_TOL * scale)
    pool = np.random.default_rng(5).uniform(LO, HI, size=(64, 2))
    pred = net_core.classify_batch(net, pool)
    K = net.num_classes
    want_edges = {c: ref.decision_edges(expected, K, c) for c in range(1, K + 1)}
    for c in range(1, K + 1):
        # from points of class c, outside the set whose edges these are: the
        # atlas leaves out edges inside the set, the reference keeps them
        got_edges = atlas.decision_edges(c)
        for z in pool[pred == c][:6]:
            for p in (1.0, 2.0, math.inf):
                assert_close(certify._min_lp_to_segments(z, *got_edges, p),
                             certify._min_lp_to_segments(z, *want_edges[c], p), DIST_RTOL)
    for z, label in zip(pool[:6], pred[:6]):
        for p in (1.0, 2.0, math.inf):
            want = certify._min_lp_to_segments(z, *want_edges[label], p)
            assert_close(certify.exact_robustness_oracle(net, z, int(label), p).value, want,
                         DIST_RTOL)
    return atlas


@pytest.mark.parametrize("name", list(NETS) + ["blobs-size-2-64-2"])
def test_atlas_matches_reference(name):
    # a 2-64-2 net as large as the blobs benchmark model: 1449 regions
    net = (random_net([2, 64, 2], seed=0, bias_scale=3.0) if name == "blobs-size-2-64-2"
           else NETS[name]())
    atlas = assert_matches_reference(net)
    if name == "hand-4-regions":
        assert len(atlas.regions) == 4
    if name == "linear-2-3":
        assert len(atlas.regions) == 1


@pytest.mark.parametrize("max_regions", [1, 5, 50])
def test_truncated_atlas_matches_reference(max_regions, monkeypatch):
    # both stop short of the net's 91 regions; the atlas then keeps none and
    # the oracle refuses to answer
    net = NETS["deep-2-10-7-3"]()
    assert len(RegionAtlas(net).regions) == 91
    monkeypatch.setattr(regions, "MAX_REGIONS", max_regions)
    atlas = RegionAtlas(net)
    _, complete = ref.atlas(net, max_regions=max_regions)
    assert not atlas.complete and not complete
    assert atlas.regions == []
    for z in ([0.3, -0.2], [2.0, 1.0]):
        label = net_core.classify_batch(net, [z])[0]
        for p in (1.0, 2.0, math.inf):
            with pytest.raises(ValueError, match=f"MAX_REGIONS = {max_regions} "):
                certify.exact_robustness_oracle(net, z, label, p)


def test_atlas_budget_is_the_region_count(monkeypatch):
    net = NETS["deep-2-10-7-3"]()
    n = len(RegionAtlas(net).regions)
    monkeypatch.setattr(regions, "MAX_REGIONS", n)
    assert RegionAtlas(net).complete
    monkeypatch.setattr(regions, "MAX_REGIONS", n - 1)
    assert not RegionAtlas(net).complete


@pytest.mark.parametrize("scale", [1.0, 1.3])
def test_atlas_with_two_identical_units(scale):
    # unit 4 is unit 1 times scale, so its line runs along edges the map
    # already has: it splits nothing, and both units get the same bit
    # everywhere.  Scaled, the line's values at the vertices on it round to
    # a few ulps either side of 0 (3 pieces below it have one above 0).
    net = random_net([2, 8, 5, 3], seed=6, bias_scale=2.0)
    w1, b1 = net.weights[0].copy(), net.biases[0].copy()
    w1[4], b1[4] = scale * w1[1], scale * b1[1]
    twin = ReluNet((w1,) + net.weights[1:], (b1,) + net.biases[1:])
    atlas = assert_matches_reference(twin)
    keys = [reg.key for reg in atlas.regions]
    assert all(key[0][1] == key[0][4] for key in keys)
    # the same function with unit 4 folded into unit 1 has as many regions
    w2 = twin.weights[1].copy()
    w2[:, 1] += scale * w2[:, 4]
    drop = np.arange(8) != 4
    single = ReluNet((w1[drop], w2[:, drop], twin.weights[2]), (b1[drop],) + twin.biases[1:])
    assert len(RegionAtlas(single).regions) == len(keys)


def test_atlas_with_units_whose_lines_miss_the_box():
    # units 0 and 3 are active and inactive on the whole box
    net = random_net([2, 7, 4, 2], seed=8, bias_scale=2.0)
    w1, b1 = net.weights[0].copy(), net.biases[0].copy()
    w1[0], b1[0] = (1.0, 0.5), 30.0
    w1[3], b1[3] = (-0.3, 2.0), -40.0
    missed = ReluNet((w1,) + net.weights[1:], (b1,) + net.biases[1:])
    atlas = assert_matches_reference(missed)
    assert all(reg.key[0][0] == 1 and reg.key[0][3] == 0 for reg in atlas.regions)
    # without the inactive unit the net is the same function, with as many regions
    keep = np.arange(7) != 3
    rest = ReluNet((w1[keep], missed.weights[1][:, keep], missed.weights[2]),
                   (b1[keep],) + missed.biases[1:])
    assert len(RegionAtlas(rest).regions) == len(atlas.regions)


def test_cap_crossed_partway_through_a_layer(monkeypatch):
    # the atlas of the net cut to its first u second-layer units has as many
    # pieces as the full map after its u-th split in that layer: set the cap
    # to the count after one split there, so the next one (not the layer's
    # last) crosses it
    net = NETS["deep-2-10-7-3"]()
    (w1, w2, w3), (b1, b2, b3) = net.weights, net.biases
    after = [len(RegionAtlas(ReluNet((w1, w2[:u], w3[:, :u]), (b1, b2[:u], b3))).regions)
             for u in range(1, 8)]
    u = next(u for u in range(1, 6) if after[u] > after[u - 1])
    cap = after[u - 1]
    steps, lines = [], []
    step, side = net_core._layer_step, regions._side
    monkeypatch.setattr(net_core, "_layer_step", lambda *args: steps.append(1) or step(*args))
    monkeypatch.setattr(regions, "_side", lambda *args: lines.append(1) or side(*args))
    monkeypatch.setattr(regions, "MAX_REGIONS", cap)
    atlas = RegionAtlas(net)
    assert not atlas.complete and atlas.regions == []
    # the map stops at the split that crosses the cap: after the first
    # layer's 10 lines and step, and u + 1 of the second layer's 7 lines
    assert len(steps) == 1 and len(lines) == 10 + u + 1
    monkeypatch.undo()
    assert not ref.atlas(net, max_regions=cap)[1]
    # at the full count the cap is met, not crossed
    monkeypatch.setattr(regions, "MAX_REGIONS", after[-1])
    assert len(assert_matches_reference(net).regions) == after[-1]


def test_decision_set_of_one_line_gives_segment_edges():
    # f1 = |x1| and f2 = 0: {f2 >= f1} is the line x1 = 0, where each region
    # keeps only a segment, so the class-change set is those segments
    net = ReluNet((np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([[1.0, 1.0], [0.0, 0.0]])),
                  (np.zeros(2), np.zeros(2)))
    starts, ends = RegionAtlas(net).decision_edges(1)
    assert len(starts) == 2 and (starts[:, 0] == 0.0).all() and (ends[:, 0] == 0.0).all()
    for p, want in ((1.0, 2.0), (2.0, 2.0), (math.inf, 2.0)):
        assert certify.exact_robustness_oracle(net, [2.0, 0.5], 1, p).value == want

def edges_one_piece_at_a_time(atlas, label):
    """decision_edges written out: each (region, other class) piece clipped
    on its own, then every polygon edge dropped that another polygon piece
    walks the other way between the same bytes."""
    c = label - 1
    edges = []  # (start, end, piece, from a polygon)
    pieces = (clip_one(reg.poly, reg.v_out[c] - reg.v_out[s], -(reg.a_out[c] - reg.a_out[s]))
              for reg in atlas.regions for s in range(atlas.num_classes) if s != c)
    for i, piece in enumerate(pieces):
        m = len(piece)
        count = m if m > 2 else 1 if m == 2 else 0  # a segment has one edge
        for j in range(count):
            edges.append((piece[j], piece[(j + 1) % m], i, m > 2))
    owners = {}
    for a, b, i, poly in edges:
        if poly:
            owners.setdefault((a.tobytes(), b.tobytes()), set()).add(i)
    kept = [(a, b) for a, b, i, poly in edges
            if not (poly and owners.get((b.tobytes(), a.tobytes()), set()) - {i})]
    return np.array([a for a, _ in kept]).reshape(-1, 2), np.array([b for _, b in kept]).reshape(-1, 2)


def test_edges_leave_out_only_edges_two_polygons_share():
    # squares a and b share the edge x = 1, walked up by a and down by b; the
    # segment s lies on a's edge x = 0, walked the other way; the degenerate
    # triangle d walks its edge to (4, 0) back on itself
    a = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    b = a + [1.0, 0.0]
    s = np.array([[0.0, 0.0], [0.0, 1.0]])
    d = np.array([[3.0, 0.0], [4.0, 0.0], [3.0, 0.0]])
    starts, ends = regions._edges(*padded_table([a, b, s, d]))
    got = [(tuple(p), tuple(q)) for p, q in zip(starts, ends)]
    assert got == [((0, 0), (1, 0)), ((1, 1), (0, 1)), ((0, 1), (0, 0)),
                   ((1, 0), (2, 0)), ((2, 0), (2, 1)), ((2, 1), (1, 1)),
                   ((0, 0), (0, 1)),
                   ((3, 0), (4, 0)), ((4, 0), (3, 0)), ((3, 0), (3, 0))]


@pytest.mark.parametrize("name", ["deep-2-10-7-3", "constant-units", "hand-4-regions",
                                  "tiny2-2-16-3"])
def test_decision_edges_leave_out_shared_polygon_edges(name):
    net = NETS[name]()
    atlas = RegionAtlas(net)
    expected, _ = ref.atlas(net)
    dropped = 0
    for c in range(1, atlas.num_classes + 1):
        got, want = atlas.decision_edges(c), edges_one_piece_at_a_time(atlas, c)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
        dropped += len(ref.decision_edges(expected, atlas.num_classes, c)[0]) - len(got[0])
    assert dropped > 0


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# nets with a layer of one unit, whose step masks W rather than the table
ONE_UNIT = {"one-unit-2-20-1-3": [2, 20, 1, 3], "one-class-2-50-1": [2, 50, 1]}


@pytest.mark.parametrize("name", [*NETS, *ONE_UNIT])
def test_atlas_built_a_region_at_a_time_is_the_same(name, monkeypatch):
    # at CHUNK_BYTES = 1 every block of _layer_steps is one piece; the stacked
    # products take each piece on its own, so the atlas keeps its bits
    net = random_net(ONE_UNIT[name], bias_scale=1.0) if name in ONE_UNIT else NETS[name]()
    whole = RegionAtlas(net)
    monkeypatch.setattr(net_core, "CHUNK_BYTES", 1)
    blocks = RegionAtlas(net)
    for attr in ("_xy", "_counts", "_v_out", "_a_out"):
        assert _same_bits(getattr(blocks, attr), getattr(whole, attr)), attr
    assert [r.key for r in blocks.regions] == [r.key for r in whole.regions]
    for c in range(1, net.num_classes + 1):
        for got, want in zip(blocks.decision_edges(c), whole.decision_edges(c)):
            assert _same_bits(got, want)


def test_atlas_memory_is_its_tables_and_a_few_blocks():
    # a 2-64-2 net of 1713 regions: W1 and each layer's table are gathered
    # and masked a block of CHUNK_BYTES at a time, never once per region
    net = random_net([2, 64, 2], seed=0, bias_scale=2.0)
    tracemalloc.start()
    atlas = RegionAtlas(net)
    kept, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert len(atlas.regions) == 1713
    assert peak - kept <= 4 * net_core.CHUNK_BYTES, (peak - kept) / net_core.CHUNK_BYTES


# -- properties on random tiny nets ---------------------------------------------

ARCHS = [[2, 3, 2], [2, 8, 3], [2, 12, 2], [2, 4, 4, 2], [2, 6, 5, 3]]

# the clip's tolerance (1e-12) plus rounding: a polygon that close to a
# line may sit on either side of it
KEY_TOL = 1e-11


def containing(polys, zs):
    """(P, Z) bool: whether each convex polygon holds each point."""
    out = []
    for poly in polys:
        e = np.roll(poly, -1, axis=0) - poly
        rel = zs[None, :, :] - poly[:, None, :]
        cross = e[:, None, 0] * rel[..., 1] - e[:, None, 1] * rel[..., 0]
        out.append((cross >= 0.0).all(axis=0) | (cross <= 0.0).all(axis=0))
    return np.array(out)


@settings(max_examples=20, deadline=None)
@given(arch=st.sampled_from(ARCHS), seed=st.integers(0, 2**31 - 1), bias=BIASES)
def test_complete_atlas_tiles_the_box(arch, seed, bias):
    # The atlas's rules: its polygons do not overlap and cover the box; keys
    # are unique; a key is the activation pattern at its polygon's vertex
    # mean, except for units whose preactivation there is within KEY_TOL of 0.
    net = random_net(arch, seed=seed, bias_scale=bias)
    atlas = RegionAtlas(net)
    assert atlas.complete
    keys = [reg.key for reg in atlas.regions]
    assert len(set(keys)) == len(keys)
    area = sum(ref.polygon_area(reg.poly) for reg in atlas.regions)
    assert area == pytest.approx((HI - LO) ** 2, rel=1e-9)
    means = np.array([reg.poly.mean(axis=0) for reg in atlas.regions])
    g = np.hstack(net_core.forward_batch(net, means)[1])
    bits = np.array([np.frombuffer(b"".join(key), dtype=np.uint8) for key in keys])
    assert (np.abs(g[bits != (g > 0)]) <= KEY_TOL).all()
    zs = np.random.default_rng(seed).uniform(LO, HI, size=(64, 2))
    holders = containing([reg.poly for reg in atlas.regions], zs)
    assert (holders.sum(axis=0) == 1).all()
    for z, r in zip(zs, holders.argmax(axis=0)):
        assert ref.pattern_key(net, z) == atlas.regions[r].key


# -- the clip of one polygon ------------------------------------------------------


def clip_one(poly, normal, cutoff):
    """regions._clip of the convex polygon poly (m, 2), vertices in order, to
    the half-plane {z : normal.z <= cutoff}: its (n, 2) vertices, n = 0 for
    empty, 1 for a point, 2 for a segment."""
    xy, counts = padded_table([np.asarray(poly, dtype=np.float64)])
    d = regions._side(xy, np.array([normal], dtype=np.float64), np.array([-float(cutoff)]))
    out, n = regions._clip(xy, counts, d)
    return out[:, :n[0], 0].T


SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def test_clip_containing_half_plane_keeps_polygon():
    assert np.array_equal(clip_one(SQUARE, [1.0, 1.0], 2.0), SQUARE)


def test_clip_disjoint_half_plane_is_empty():
    assert clip_one(SQUARE, [1.0, 0.0], -0.5).shape == (0, 2)


def test_clip_through_square():
    # keep x <= 0.25: the left quarter, vertices in the square's order
    got = clip_one(SQUARE, [1.0, 0.0], 0.25)
    assert np.array_equal(got, [[0.0, 0.0], [0.25, 0.0], [0.25, 1.0], [0.0, 1.0]])
    # a diagonal cut keeps the triangle below x + y = 1
    got = clip_one(SQUARE, [1.0, 1.0], 1.0)
    assert np.array_equal(got, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def test_clip_touching_line_gives_segment():
    # {x >= 1} meets the square only in its right edge
    assert np.array_equal(clip_one(SQUARE, [-1.0, 0.0], -1.0), [[1.0, 0.0], [1.0, 1.0]])


def test_atlas_tiles_the_box_near_a_common_point():
    # every first-layer line passes within ~1e-8 of the origin
    atlas = RegionAtlas(random_net([2, 4, 4, 2], seed=4, bias_scale=1e-8))
    area = sum(ref.polygon_area(reg.poly) for reg in atlas.regions)
    assert atlas.complete
    assert area == pytest.approx((HI - LO) ** 2, rel=1e-9)


# -- the batched clip against the vertex-by-vertex reference ----------------------

# offsets from a vertex's own line value: on the line, inside the clip
# tolerance (1e-12) on either side, at it, and just beyond it
NEAR = [0.0, 1e-13, -1e-13, 5e-13, -5e-13, 1e-12, -1e-12, 1.5e-12, -1.5e-12, 3e-12, -3e-12]


def clip_case(seed, m, reverse, kind, near=0.0):
    """A convex m-gon (either orientation), a normal and a cutoff: random,
    through a vertex plus `near`, along an edge (a segment), below every
    vertex (empty) or at or past them all (the whole polygon)."""
    rng = np.random.default_rng(seed)
    angles = np.sort(rng.choice(np.linspace(0.0, 2 * np.pi, 64, endpoint=False), m,
                                replace=False))
    scale = 10.0 ** rng.uniform(-3, 1, size=2)
    poly = np.stack([scale[0] * np.cos(angles), scale[1] * np.sin(angles)], axis=1)
    turn = rng.uniform(0, 2 * np.pi)
    poly = poly @ np.array([[np.cos(turn), np.sin(turn)], [-np.sin(turn), np.cos(turn)]])
    poly = poly + rng.uniform(LO, HI, size=2)
    if reverse:
        poly = poly[::-1].copy()
    normal = rng.standard_normal(2)
    k = rng.integers(m)
    if kind == "edge":
        e = poly[(k + 1) % m] - poly[k]
        normal = np.array([e[1], -e[0]])
        if (poly @ normal - poly[k] @ normal).sum() < 0:
            normal = -normal  # the polygon lies beyond the line
    values = poly[:, 0] * normal[0] + poly[:, 1] * normal[1]
    cutoff = {"random": rng.uniform(values.min(), values.max()),
              "vertex": values[k] + near,
              "edge": values[k],
              "empty": values.min() - 1e-3,
              "whole": values.max() + near}[kind]
    return poly, normal, float(cutoff)


# offsets from a vertex's own line value: on the line, inside the clip
# tolerance (1e-12) on either side, at it, and just beyond it
NEAR = [0.0, 1e-13, -1e-13, 5e-13, -5e-13, 1e-12, -1e-12, 1.5e-12, -1.5e-12, 3e-12, -3e-12]

CLIP_CASES = st.builds(clip_case, st.integers(0, 2**32 - 1), st.integers(3, 9), st.booleans(),
                       st.sampled_from(["random", "vertex", "edge", "empty", "whole"]),
                       st.sampled_from(NEAR))


def padded_table(polys):
    """The atlas's slot-major vertex table of a list of polygons."""
    width = max(map(len, polys)) + 1
    xy = np.empty((2, width, len(polys)))
    for q, poly in enumerate(polys):
        xy[:, :, q] = np.concatenate([poly, np.repeat(poly[:1], width - len(poly), axis=0)]).T
    return xy, np.array([len(poly) for poly in polys])


@settings(max_examples=200, deadline=None)
@given(cases=st.lists(CLIP_CASES, min_size=1, max_size=6))
def test_batched_clip_is_the_vertex_walk(cases):
    # every polygon of the batch, on both sides of its line, in one _clip call:
    # bit for bit the reference's walk, and so is each polygon clipped alone
    polys = [poly for poly, _, _ in cases for _ in (0, 1)]
    normals = np.array([sign * normal for _, normal, _ in cases for sign in (1.0, -1.0)])
    cutoffs = np.array([sign * cutoff for _, _, cutoff in cases for sign in (1.0, -1.0)])
    xy, counts = padded_table(polys)
    out, n = regions._clip(xy, counts, regions._side(xy, normals, -cutoffs))
    assert out.shape[1] == n.max() + 1
    for q, (poly, normal, cutoff) in enumerate(zip(polys, normals, cutoffs)):
        want = ref.clip_polygon(poly, normal, cutoff)
        got = out[:, :n[q], q].T
        assert got.shape == want.shape and np.array_equal(got, want), (q, got, want)
        assert np.array_equal(clip_one(poly, normal, cutoff), want)
        # the table's padding repeats the first vertex
        assert (out[:, n[q]:, q] == out[:, :1, q]).all()
    for q in range(0, len(polys), 2):
        values = polys[q][:, 0] * normals[q][0] + polys[q][:, 1] * normals[q][1] - cutoffs[q]
        if values.min() < -1e-12 and values.max() > 1e-12:
            # a crossed polygon leaves at least 3 vertices on each side
            assert n[q] >= 3 and n[q + 1] >= 3


@pytest.mark.parametrize("reverse", [False, True])
def test_clip_cases_reach_every_result(reverse):
    # the property's cases give empty, segment, whole and cut results, and
    # vertices within the tolerance of the line count as on it
    for seed in range(20):
        m = 3 + seed % 7
        size = {kind: len(clip_one(*clip_case(seed, m, reverse, kind)))
                for kind in ("empty", "edge", "whole")}
        assert size == {"empty": 0, "edge": 2, "whole": m}
        # a cutoff near the lowest vertex: within the tolerance the vertex is
        # on the line (kept alone), beyond it the piece is empty or a sliver
        poly, normal, _ = clip_case(seed, m, reverse, "random")
        values = poly[:, 0] * normal[0] + poly[:, 1] * normal[1]
        for near, kept in ((5e-13, 1), (-5e-13, 1), (-3e-12, 0), (3e-12, 3)):
            assert len(clip_one(poly, normal, values.min() + near)) == kept
