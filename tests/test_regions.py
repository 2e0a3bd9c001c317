"""The 2-D region atlas: against the unit-by-unit reference walk in
per_point_reference.py, its region cap, tiling properties and
clip_polygon."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relucert import certify, net_core, regions
from relucert.net_core import ReluNet, random_net
from relucert.regions import HI, LO, RegionAtlas, clip_polygon

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
    zs = np.random.default_rng(5).uniform(LO, HI, size=(6, 2))
    K = net.num_classes
    want_edges = {c: ref.decision_edges(expected, K, c) for c in range(1, K + 1)}
    for c in range(1, K + 1):
        got_edges = atlas.decision_edges(c)
        for z in zs:
            for p in (1.0, 2.0, math.inf):
                assert_close(certify._min_lp_to_segments(z, *got_edges, p),
                             certify._min_lp_to_segments(z, *want_edges[c], p), DIST_RTOL)
    for z, label in zip(zs, net_core.classify_batch(net, zs)):
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
        label = net_core.classify(net, z)
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


# -- properties on random tiny nets ---------------------------------------------

ARCHS = [[2, 3, 2], [2, 8, 3], [2, 12, 2], [2, 4, 4, 2], [2, 6, 5, 3]]

# clip_polygon's tolerance (1e-12) plus rounding: a polygon that close to a
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


# -- clip_polygon ---------------------------------------------------------------

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def test_clip_containing_half_plane_keeps_polygon():
    assert np.array_equal(clip_polygon(SQUARE, [1.0, 1.0], 2.0), SQUARE)


def test_clip_disjoint_half_plane_is_empty():
    assert clip_polygon(SQUARE, [1.0, 0.0], -0.5).shape == (0, 2)


def test_clip_through_square():
    # keep x <= 0.25: the left quarter, vertices in the square's order
    got = clip_polygon(SQUARE, [1.0, 0.0], 0.25)
    assert np.array_equal(got, [[0.0, 0.0], [0.25, 0.0], [0.25, 1.0], [0.0, 1.0]])
    # a diagonal cut keeps the triangle below x + y = 1
    got = clip_polygon(SQUARE, [1.0, 1.0], 1.0)
    assert np.array_equal(got, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def test_clip_touching_line_gives_segment():
    # {x >= 1} meets the square only in its right edge
    assert np.array_equal(clip_polygon(SQUARE, [-1.0, 0.0], -1.0), [[1.0, 0.0], [1.0, 1.0]])


def test_atlas_tiles_the_box_near_a_common_point():
    # every first-layer line passes within ~1e-8 of the origin
    atlas = RegionAtlas(random_net([2, 4, 4, 2], seed=4, bias_scale=1e-8))
    area = sum(ref.polygon_area(reg.poly) for reg in atlas.regions)
    assert atlas.complete
    assert area == pytest.approx((HI - LO) ** 2, rel=1e-9)
