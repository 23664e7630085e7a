import random

import pytest
from hypothesis import given, settings, strategies as st

from dyncomp.errors import (
    DuplicateInput,
    EmptyInput,
    NotContained,
    NotDisjoint,
    PointOutside,
    SearchExhausted,
    UnprovenInput,
)
from dyncomp.scalars import ExactScalar, golden_theta, ONE, ZERO
from dyncomp.systems import CircleRotation, Odometer, TorusRotation
from dyncomp.regions import BoxRegion, CylinderRegion, Region, translate_region, union_many
from dyncomp import smallness as sm

R = ExactScalar.rational
GOLDEN = CircleRotation(golden_theta())
TH = golden_theta()


def open_arc(system, a, b):
    return Region(system, [(a, b, False, False)])


def rand_points(rng, system, n):
    """Mix of rational points and orbit translates so classes vary."""
    pts = set()
    while len(pts) < n:
        base = R(rng.randrange(0, 64), 64)
        if rng.random() < 0.5:
            pts.add(system.apply(base, rng.randrange(-5, 6)))
        else:
            pts.add(base)
    return Region.points(system, pts)


def rand_open(rng, system, pieces=1):
    cuts = sorted(rng.sample(range(1, 96), 2 * pieces))
    arcs = []
    for i in range(pieces):
        arcs.append((R(cuts[2 * i], 96), R(cuts[2 * i + 1], 96), False, False))
    return Region(system, arcs)


def test_distinct_sums_card():
    assert sm.distinct_sums_card([0, 1, 2], [0, 5]) == 6
    assert sm.distinct_sums_card([0, 1], [0, 1]) == 3
    assert sm.distinct_sums_card([0], [0, 1]) == 2
    with pytest.raises(DuplicateInput):
        sm.distinct_sums_card([0, 0], [0, 1])
    with pytest.raises(DuplicateInput):
        sm.distinct_sums_card([0, 1], [3, 3])


def test_smallness_frozen():
    c = sm.smallness_constant(GOLDEN, Region.points(GOLDEN, [ZERO]))
    assert (c.constant, c.verdict, c.witness) == (1, "proven", (0,))
    c = sm.smallness_constant(GOLDEN, Region.points(GOLDEN, [ZERO, TH]))
    assert (c.constant, c.verdict, c.witness) == (2, "proven", (-1, 0))
    c = sm.smallness_constant(GOLDEN, Region.points(GOLDEN, [ZERO, R(1, 3)]))
    assert c.constant == 1
    with pytest.raises(EmptyInput):
        sm.smallness_constant(GOLDEN, Region.empty(GOLDEN))


def test_smallness_matches_class_structure():
    rng = random.Random(7)
    for _ in range(20):
        segments = []
        pts = []
        for _ in range(rng.randrange(1, 4)):
            base = R(rng.randrange(0, 97), 97)
            length = rng.randrange(1, 5)
            segments.append(length)
            for j in range(length):
                pts.append(GOLDEN.apply(base, j))
        F = Region.points(GOLDEN, pts)
        cert = sm.smallness_constant(GOLDEN, F)
        assert cert.constant == max(segments)
        assert cert.verdict == "proven"
        assert len(cert.witness) == cert.constant
        assert sm.verify_smallness(GOLDEN, F, cert) == []


def test_smallness_torus_points():
    t2 = TorusRotation([ExactScalar(0, 1, 2, 2), ExactScalar(0, 1, 3, 3)])
    x = (ZERO, ZERO)
    F = [x, t2.apply(x, 1), (R(1, 3), R(1, 7))]
    cert = sm.smallness_constant(t2, F)
    assert (cert.constant, cert.verdict) == (2, "proven")
    assert sm.verify_smallness(t2, F, cert) == []


def test_smallness_odometer_bounded():
    od = Odometer([2, 3])
    F = CylinderRegion(od, {0, 4})
    cert = sm.smallness_constant(od, F)
    assert (cert.constant, cert.verdict, cert.search_depth) == (2, "bounded-search", 6)
    assert cert.witness == (0, 2)
    assert sm.verify_smallness(od, F, cert) == []
    with pytest.raises(SearchExhausted):
        sm.smallness_constant(od, F, search_depth=3)


def test_union_smallness_bound():
    a = sm.smallness_constant(GOLDEN, Region.points(GOLDEN, [ZERO, TH]))
    b = sm.smallness_constant(GOLDEN, Region.points(GOLDEN, [R(1, 3)]))
    assert sm.union_smallness_bound([a, b]) == 3
    od = Odometer([2, 3])
    c = sm.smallness_constant(od, CylinderRegion(od, {0}))
    with pytest.raises(UnprovenInput):
        sm.union_smallness_bound([a, c])


def test_thin_cover_frozen():
    F = Region.points(GOLDEN, [ZERO])
    U = open_arc(GOLDEN, ZERO, R(1, 2))
    cover = sm.thin_cover(GOLDEN, F, U)
    assert cover.shifts == (-1,)
    assert sm.verify_thin_cover(GOLDEN, F, U, cover) == []
    # the thin neighborhood's closure is handled by the same cover
    assert union_many(GOLDEN, list(cover.opens)).contains_region(cover.nbhd.closure())


def test_thin_cover_empty_set():
    cover = sm.thin_cover(GOLDEN, Region.empty(GOLDEN), open_arc(GOLDEN, ZERO, R(1, 2)))
    assert cover.opens == () and cover.shifts == ()
    assert cover.nbhd.is_empty


def test_thin_cover_collisions_resolved():
    # five consecutive orbit points compete for the same narrow target window
    F = Region.points(GOLDEN, [GOLDEN.apply(ZERO, j) for j in range(5)])
    U = open_arc(GOLDEN, R(2, 5), R(1, 2))
    cover = sm.thin_cover(GOLDEN, F, U)
    assert sm.verify_thin_cover(GOLDEN, F, U, cover) == []
    assert len(set(cover.shifts)) >= 1


def test_thin_cover_random():
    rng = random.Random(21)
    for _ in range(20):
        F = rand_points(rng, GOLDEN, rng.randrange(1, 6))
        U = rand_open(rng, GOLDEN, pieces=rng.randrange(1, 3))
        cover = sm.thin_cover(GOLDEN, F, U)
        assert sm.verify_thin_cover(GOLDEN, F, U, cover) == []
        closed = sm.closed_thin_cover(GOLDEN, F, U)
        assert sm.verify_closed_thin_cover(GOLDEN, F, U, closed) == []


def test_leftover_cover_frozen():
    F = Region.points(GOLDEN, [ZERO])
    U = open_arc(GOLDEN, ZERO, R(1, 2))
    eps = R(1, 10)
    cover = sm.leftover_cover(GOLDEN, F, U, eps)
    assert cover.shifts == (-1,)
    assert cover.opens[0].measure() == R(1, 20)
    assert sm.verify_leftover_cover(GOLDEN, F, U, eps, cover) == []


def test_leftover_cover_orbit_cluster():
    F = Region.points(GOLDEN, [GOLDEN.apply(R(1, 7), j) for j in range(8)])
    U = open_arc(GOLDEN, R(3, 10), R(6, 10))
    eps = R(1, 25)
    cover = sm.leftover_cover(GOLDEN, F, U, eps)
    assert sm.verify_leftover_cover(GOLDEN, F, U, eps, cover) == []
    targets = [translate_region(GOLDEN, Fj, d) for Fj, d in zip(cover.closed, cover.shifts)]
    # targets landed pairwise apart even though all points share one orbit
    from dyncomp.regions import pairwise_disjoint
    assert pairwise_disjoint(GOLDEN, targets)


def test_leftover_cover_random():
    rng = random.Random(33)
    for _ in range(10):
        F = rand_points(rng, GOLDEN, rng.randrange(1, 7))
        U = rand_open(rng, GOLDEN, pieces=rng.randrange(1, 3))
        eps = R(1, rng.randrange(10, 40))
        cover = sm.leftover_cover(GOLDEN, F, U, eps)
        assert sm.verify_leftover_cover(GOLDEN, F, U, eps, cover) == []


def test_tsbp_separate_frozen():
    F = Region.interval(GOLDEN, ZERO, R(1, 4))
    K = Region.interval(GOLDEN, R(1, 2), R(3, 4))
    U, V, cert = sm.tsbp_separate(GOLDEN, F, K)
    assert U == open_arc(GOLDEN, R(-1, 16), R(5, 16))
    assert V == open_arc(GOLDEN, R(7, 16), R(13, 16))
    assert not U.closure().intersects(V.closure())
    assert cert.verdict == "proven"


def test_tsbp_separate_companions():
    K = Region.interval(GOLDEN, R(1, 2), R(3, 4))
    U, V, cert = sm.tsbp_separate(GOLDEN, Region.empty(GOLDEN), K)
    assert not U.is_empty
    assert V.contains_region(K)
    assert not U.closure().intersects(V.closure())
    with pytest.raises(NotDisjoint):
        sm.tsbp_separate(GOLDEN, Region.empty(GOLDEN), Region.full(GOLDEN))
    with pytest.raises(NotDisjoint):
        sm.tsbp_separate(
            GOLDEN,
            Region.interval(GOLDEN, ZERO, R(1, 2)),
            Region.interval(GOLDEN, R(1, 4), R(3, 4)),
        )


def test_tsbp_separate_random_circle():
    rng = random.Random(5)
    for _ in range(20):
        cuts = sorted(rng.sample(range(0, 96), 4))
        F = Region.interval(GOLDEN, R(cuts[0], 96), R(cuts[1], 96))
        K = Region.interval(GOLDEN, R(cuts[2], 96), R(cuts[3], 96))
        U, V, cert = sm.tsbp_separate(GOLDEN, F, K)
        assert U.contains_region(F) and V.contains_region(K)
        assert not U.closure().intersects(V.closure())
        bpts = Region.points(GOLDEN, U.boundary_points())
        assert sm.verify_smallness(GOLDEN, bpts, cert) == []


def test_tsbp_separate_torus():
    t2 = TorusRotation([ExactScalar(0, 1, 2, 2), ExactScalar(0, 1, 3, 3)])
    F = BoxRegion(t2, [((ZERO, R(1, 4), True, True), (ZERO, R(1, 4), True, True))])
    K = BoxRegion(t2, [((R(1, 2), R(3, 4), True, True), (R(1, 2), R(3, 4), True, True))])
    U, V, cert = sm.tsbp_separate(t2, F, K)
    assert not U.closure().intersects(V.closure())
    assert all(U.contains_point(p) for p in [(ZERO, ZERO), (R(1, 4), R(1, 4))])
    assert (cert.constant, cert.verdict) == (2, "proven")
    t3 = TorusRotation([ExactScalar(0, 1, 2, 2), ExactScalar(0, 1, 3, 3), ExactScalar(0, 1, 5, 5)])
    F3 = BoxRegion(t3, [tuple((ZERO, R(1, 5), True, True) for _ in range(3))])
    K3 = BoxRegion(t3, [tuple((R(2, 5), R(3, 5), True, True) for _ in range(3))])
    U3, V3, cert3 = sm.tsbp_separate(t3, F3, K3)
    assert not U3.closure().intersects(V3.closure())
    assert (cert3.constant, cert3.verdict) == (3, "proven")
    with pytest.raises(NotDisjoint):
        sm.tsbp_separate(t2, F, F)


def test_tsbp_separate_odometer():
    od = Odometer([2, 2, 2])
    F = CylinderRegion(od, {0, 1})
    K = CylinderRegion(od, {3, 5, 6})
    U, V, cert = sm.tsbp_separate(od, F, K)
    assert U == F and V == K
    assert cert.verdict == "proven"
    with pytest.raises(NotDisjoint):
        sm.tsbp_separate(od, F, CylinderRegion(od, {1, 2}))


def test_tsbp_point_nbhd():
    V, cert = sm.tsbp_point_nbhd(GOLDEN, ZERO, open_arc(GOLDEN, R(-1, 4), R(1, 4)))
    assert V == open_arc(GOLDEN, R(-1, 8), R(1, 8))
    assert cert.constant <= 2
    V, cert = sm.tsbp_point_nbhd(GOLDEN, R(1, 8), open_arc(GOLDEN, ZERO, R(1, 4)))
    assert V == open_arc(GOLDEN, R(1, 16), R(3, 16))
    V, cert = sm.tsbp_point_nbhd(GOLDEN, R(1, 3), Region.full(GOLDEN))
    assert V == open_arc(GOLDEN, R(1, 3) - R(1, 8), R(1, 3) + R(1, 8))
    with pytest.raises(PointOutside):
        sm.tsbp_point_nbhd(GOLDEN, R(3, 4), open_arc(GOLDEN, ZERO, R(1, 4)))


def test_regular_inner_frozen():
    U = open_arc(GOLDEN, ZERO, R(1, 2))
    V, cert = sm.regular_inner_approx(GOLDEN, U, R(1, 8))
    assert V == open_arc(GOLDEN, R(1, 32), R(1, 2) - R(1, 32))
    assert cert.verdict == "proven"
    full, cert = sm.regular_inner_approx(GOLDEN, Region.full(GOLDEN), R(1, 8))
    assert full == Region.full(GOLDEN).minus(
        Region.interval(GOLDEN, R(-1, 32), R(1, 32))
    )
    with pytest.raises(EmptyInput):
        sm.regular_inner_approx(GOLDEN, Region.empty(GOLDEN), R(1, 8))


def test_regular_outer_frozen():
    F = Region.interval(GOLDEN, R(1, 4), R(1, 2))
    U = open_arc(GOLDEN, ZERO, ONE)
    V, cert = sm.regular_outer_approx(GOLDEN, F, U, R(1, 8))
    assert V == open_arc(GOLDEN, R(1, 4) - R(1, 32), R(1, 2) + R(1, 32))
    assert cert.verdict == "proven"
    small, _ = sm.regular_outer_approx(GOLDEN, Region.empty(GOLDEN), U, R(1, 8))
    assert not small.is_empty and small.measure() < R(1, 8)
    with pytest.raises(NotContained):
        sm.regular_outer_approx(GOLDEN, Region.interval(GOLDEN, ZERO, R(1, 2)), U, R(1, 8))


def test_regular_approx_random():
    rng = random.Random(11)
    for _ in range(25):
        U = rand_open(rng, GOLDEN, pieces=rng.randrange(1, 3))
        eps = R(1, rng.randrange(8, 64))
        V, cert = sm.regular_inner_approx(GOLDEN, U, eps)
        assert U.contains_region(V.closure())
        assert U.minus(V.closure()).measure() < eps
        assert cert.constant <= 2 * len(V.logical_arcs())
        W, cert2 = sm.regular_outer_approx(GOLDEN, V.closure(), U, eps)
        assert W.contains_region(V.closure())
        assert U.contains_region(W.closure())
        assert W.minus(V.closure()).measure() < eps
        bpts = Region.points(GOLDEN, W.boundary_points())
        assert sm.verify_smallness(GOLDEN, bpts, cert2) == []


@settings(max_examples=100, deadline=None)
@given(
    st.integers(-30, 30),
    st.integers(0, 7),
    st.lists(st.tuples(st.integers(-30, 30), st.integers(0, 15), st.booleans()), min_size=1, max_size=3),
    st.integers(0, 40),
    st.integers(0, 40),
)
def test_orbit_hits_step_matches_frac(m0, r0, arcs, left, right):
    # hits of an arc with orbit-point ends, so exact boundary hits occur
    rep = (TH * m0 + R(r0, 8)).frac()
    pieces = []
    for m, k, closed in arcs:
        lo = (TH * m).frac()
        pieces.append((lo, lo + R(k + 1, 32), closed, not closed))
    U = Region(GOLDEN, pieces)
    hits = sm._OrbitHits(GOLDEN, rep, U, -3, 3)
    hits._grow_left(-3 - left)
    hits._grow_right(3 + right)
    window = range(-3 - left, 4 + right)
    assert hits.hits == [m for m in window if U.contains_point((rep + m * TH).frac())]
