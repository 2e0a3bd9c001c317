"""The 2-D region atlas: bitwise against the unit-by-unit reference in
per_point_reference.py, its argument checks, tiling properties and
clip_polygon."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relucert import certify, net_core, regions
from relucert.net_core import ReluNet, random_net
from relucert.regions import RegionAtlas, clip_polygon

import per_point_reference as ref
from conftest import TINY_ARCHS, hand_net, tiny_net


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


def assert_matches_reference(net, **kw):
    atlas = RegionAtlas(net, **kw)
    expected, complete = ref.atlas(net, **kw)
    assert atlas.complete == complete
    assert [r.key for r in atlas.regions] == [e[0] for e in expected]
    for reg, (_, poly, v_out, a_out) in zip(atlas.regions, expected):
        for got, want in ((reg.poly, poly), (reg.v_out, v_out), (reg.a_out, a_out)):
            assert got.shape == want.shape and np.array_equal(got, want)
    for label in range(1, net.num_classes + 1):
        for got, want in zip(atlas.decision_edges(label),
                             ref.decision_edges(expected, net.num_classes, label)):
            assert got.shape == want.shape and np.array_equal(got, want)
    return atlas


@pytest.mark.parametrize("name", list(NETS))
def test_atlas_matches_reference(name):
    atlas = assert_matches_reference(NETS[name]())
    assert atlas.complete
    if name == "hand-4-regions":
        assert len(atlas.regions) == 4
    if name == "linear-2-3":
        assert len(atlas.regions) == 1


@pytest.mark.parametrize("max_regions", [1, 5, 50])
def test_truncated_atlas_matches_reference(max_regions):
    atlas = assert_matches_reference(NETS["deep-2-10-7-3"](), max_regions=max_regions)
    assert not atlas.complete and len(atlas.regions) == max_regions


def test_region_polygon_constant_units():
    box = np.array([[-8.0, -8.0], [9.0, -8.0], [9.0, 9.0], [-8.0, 9.0]])
    rows = np.array([[0.0, 0.0], [1.0, -0.5], [0.0, 0.0]])
    for offs, oris, feasible in (([0.5, -1.0, -0.2], [1.0, 1.0, -1.0], True),
                                 ([0.5, -1.0, 0.2], [1.0, 1.0, -1.0], False),
                                 ([-0.5, -1.0, -0.2], [1.0, 1.0, -1.0], False)):
        offs, oris = np.array(offs), np.array(oris)
        got = regions._region_polygon(box, rows, offs, oris, 9.0)
        want = ref.region_polygon(box, rows, offs, oris)
        assert (got is not None) == feasible and (want is not None) == feasible
        if feasible:
            assert np.array_equal(got, want)


@pytest.mark.parametrize("kw", [
    dict(lo=1.0, hi=1.0), dict(lo=2.0, hi=1.0), dict(lo=-math.inf), dict(hi=math.nan),
    dict(max_regions=0), dict(num_probes=-1),
])
def test_atlas_rejects_bad_arguments(kw):
    with pytest.raises(ValueError):
        RegionAtlas(hand_net(), **kw)


def test_oracle_rejects_zero_budget():
    with pytest.raises(ValueError):
        certify.exact_robustness_oracle(hand_net(), [2.0, 2.0], 1, 2.0, budget=0)


# -- properties on random tiny nets ---------------------------------------------

ARCHS = [[2, 3, 2], [2, 8, 3], [2, 12, 2], [2, 4, 4, 2], [2, 6, 5, 3]]


@settings(max_examples=20, deadline=None)
@given(arch=st.sampled_from(ARCHS), seed=st.integers(0, 2**31 - 1),
       bias=st.floats(0.5, 6.0))
def test_complete_atlas_tiles_the_box(arch, seed, bias):
    net = random_net(arch, seed=seed, bias_scale=bias)
    atlas = RegionAtlas(net)
    assert atlas.complete
    keys = [reg.key for reg in atlas.regions]
    assert len(set(keys)) == len(keys)
    area = sum(regions._polygon_area(reg.poly) for reg in atlas.regions)
    assert area == pytest.approx((atlas.hi - atlas.lo) ** 2, rel=1e-9)
    for reg in atlas.regions:
        inside = reg.poly.mean(axis=0)
        assert net_core.activation_pattern(net, inside).key() == reg.key


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


@pytest.mark.xfail(strict=True, reason="the facet walk misses slivers where hyperplanes "
                   "almost meet in one point (ROADMAP item 4)")
def test_atlas_tiles_the_box_near_a_common_point():
    # every first-layer line passes within ~1e-8 of the origin
    atlas = RegionAtlas(random_net([2, 4, 4, 2], seed=4, bias_scale=1e-8))
    area = sum(regions._polygon_area(reg.poly) for reg in atlas.regions)
    assert atlas.complete
    assert area == pytest.approx((atlas.hi - atlas.lo) ** 2, rel=1e-9)
