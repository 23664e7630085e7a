import dataclasses
import functools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

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
from dyncomp.plfun import PLFunction, bump, scale, trapezoid
from dyncomp.regions import BoxRegion, CylinderRegion, Region, translate_region, union_many
from dyncomp import comparison as cp, smallness as sm

import leftover_oracle

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


def test_verify_smallness_names_each_broken_claim():
    F = Region.points(GOLDEN, [ZERO, TH])
    cert = sm.smallness_constant(GOLDEN, F)
    assert (cert.constant, cert.witness) == (2, (-1, 0))

    def failures(**change):
        return sm.verify_smallness(GOLDEN, F, dataclasses.replace(cert, **change))

    assert failures() == []
    assert failures(witness=(0, 5)) == ["witness translates have empty intersection"]
    assert failures(witness=(-1, -1)) == ["witness shifts repeat"]
    assert "witness larger than the constant" in failures(witness=(-1, 0, 1))
    assert failures(constant=1, witness=(-1,)) == ["translates (0, -1) share a point"]


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


def test_leftover_cover_regions_on_demand():
    # the four region tuples, built when read from the points, the targets
    # and the half-widths, are the arcs the cover once stored; the point 0
    # splits its closed arc at the seam, and two targets lie in Q(sqrt 5)
    F = Region.points(GOLDEN, [ZERO, R(1, 10), R(2, 5), R(1, 2)])
    U = open_arc(GOLDEN, R(3, 10), R(6, 10))
    cover = sm.leftover_cover(GOLDEN, F, U, R(1, 10))
    assert cover.shifts == (-1, -1, 0, 0)

    def S(a, b, c):
        return ExactScalar(a, b, c, 5)

    def arcs(*ends, closed=False):
        return tuple(Region.interval(GOLDEN, lo, hi, closed, closed) for lo, hi in ends)

    assert cover.opens == arcs((S(239, -80, 160), S(241, -80, 160)),
                               (S(51, -16, 32), S(257, -80, 160)),
                               (R(63, 160), R(13, 32)), (R(79, 160), R(81, 160)))
    assert cover.mids == arcs((S(479, -160, 320), S(481, -160, 320)),
                              (S(511, -160, 320), S(513, -160, 320)),
                              (R(127, 320), R(129, 320)), (R(159, 320), R(161, 320)))
    assert cover.tighter == arcs((S(959, -320, 640), S(961, -320, 640)),
                                 (S(1023, -320, 640), S(205, -64, 128)),
                                 (R(51, 128), R(257, 640)), (R(319, 640), R(321, 640)))
    assert [r.pieces for r in cover.closed] == [
        ((ZERO, R(1, 1280), True, True), (R(1279, 1280), ONE, True, False)),
        ((R(127, 1280), R(129, 1280), True, True),),
        ((R(511, 1280), R(513, 1280), True, True),),
        ((R(639, 1280), R(641, 1280), True, True),),
    ]
    assert sm.verify_leftover_cover(GOLDEN, F, U, R(1, 10), cover) == []


def test_thin_cover_failures_keep_their_order():
    F = Region.points(GOLDEN, [ZERO, R(1, 10), R(2, 5), R(1, 2)])
    U = open_arc(GOLDEN, R(3, 10), R(6, 10))
    cover = sm.thin_cover(GOLDEN, F, U)
    assert cover.shifts == (-1, -1, 0, 0)
    leaves = "a translated cover piece leaves the target"
    closed_leaves = "a translated closed piece leaves the target"
    for shifts, count in (((0, 0, 0, 0), 2), ((-1, -1, 1, 0), 1)):
        bad = dataclasses.replace(cover, shifts=shifts)
        assert sm.verify_thin_cover(GOLDEN, F, U, bad) == [leaves] * count
        items = [(Fj, d) for (Fj, _), d in zip(sm.closed_thin_cover(GOLDEN, F, U), shifts)]
        assert sm.verify_closed_thin_cover(GOLDEN, F, U, items) == [closed_leaves] * count
    # fat arcs around the points: their images overlap, and the widest leave U
    points = [ZERO, R(1, 10), R(2, 5), R(1, 2)]
    for radii, count in (((R(1, 8),) + (R(1, 20),) * 3, 1),
                         ((R(1, 8), R(1, 20), R(1, 20), R(1, 8)), 2)):
        opens = tuple(open_arc(GOLDEN, x - r, x + r) for x, r in zip(points, radii))
        bad = dataclasses.replace(cover, opens=opens)
        assert sm.verify_thin_cover(GOLDEN, F, U, bad) == (
            [leaves] * count + ["translated cover pieces overlap"])
        items = [(Region.interval(GOLDEN, x - r, x + r), d)
                 for x, r, d in zip(points, radii, cover.shifts)]
        assert sm.verify_closed_thin_cover(GOLDEN, F, U, items) == (
            [closed_leaves] * count + ["translated closed pieces overlap"])


def test_thin_cover_checks_name_every_failure():
    # each failure string of the two thin-cover checks, and their order when
    # all fail at once; strings and order taken from the first implementation
    points = [ZERO, R(1, 10), R(2, 5), R(1, 2)]
    F = Region.points(GOLDEN, points)
    U = open_arc(GOLDEN, R(3, 10), R(6, 10))
    cover = sm.thin_cover(GOLDEN, F, U)
    escapes, misses = "thin neighborhood escapes the cover", "thin neighborhood misses a point"
    far = open_arc(GOLDEN, R(7, 10), R(3, 4))
    for change, expected in (
        (dict(opens=cover.opens[:3]), ["cover size mismatch"]),
        (dict(shifts=cover.shifts[:3]), ["cover size mismatch"]),
        (dict(nbhd=Region.empty(GOLDEN)), [misses]),
        (dict(nbhd=cover.nbhd.union(far)), [escapes]),
        (dict(nbhd=far), [escapes, misses]),
        (dict(opens=tuple(open_arc(GOLDEN, x + R(1, 100), x + R(1, 50)) for x in points)),
         ["a point escapes its covering set"] * 4 + [escapes]),
        (dict(opens=tuple(open_arc(GOLDEN, x + R(1, 100), x + R(1, 8)) for x in points),
              shifts=(0, 0, 0, 0), nbhd=far),
         ["a point escapes its covering set"] * 4
         + ["a translated cover piece leaves the target"] * 3
         + ["translated cover pieces overlap", escapes, misses]),
    ):
        assert sm.verify_thin_cover(GOLDEN, F, U, dataclasses.replace(cover, **change)) == expected
    items = sm.closed_thin_cover(GOLDEN, F, U)
    off = [(Region.interval(GOLDEN, x + R(1, 100), x + R(1, 50)), d)
           for x, (_, d) in zip(points, items)]
    fat = [(Region.interval(GOLDEN, x + R(1, 100), x + R(1, 8)), 0) for x in points]
    escaped = "a point escapes the closed cover"
    for bad, expected in (
        ([], ["empty cover for a non-empty set"]),
        (items[1:], [escaped]),
        (off, [escaped]),
        (fat, [escaped] + ["a translated closed piece leaves the target"] * 3
         + ["translated closed pieces overlap"]),
    ):
        assert sm.verify_closed_thin_cover(GOLDEN, F, U, bad) == expected
    assert sm.verify_closed_thin_cover(GOLDEN, Region.empty(GOLDEN), U, []) == []


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
    # an empty side gets a companion arc in the middle of the other's room,
    # on either side; with both empty the arcs are fixed
    F = Region.interval(GOLDEN, ZERO, R(1, 4))
    fat_F = Region(GOLDEN, [(R(-9, 128), R(41, 128), False, False)])
    companion = open_arc(GOLDEN, R(17, 32), R(23, 32))
    assert sm.tsbp_separate(GOLDEN, F, Region.empty(GOLDEN))[:2] == (fat_F, companion)
    assert sm.tsbp_separate(GOLDEN, Region.empty(GOLDEN), F)[:2] == (companion, fat_F)
    U, V, cert = sm.tsbp_separate(GOLDEN, Region.empty(GOLDEN), Region.empty(GOLDEN))
    assert (U, V) == (open_arc(GOLDEN, R(1, 4), R(3, 8)), open_arc(GOLDEN, R(5, 8), R(3, 4)))
    assert cert == sm.SmallnessCertificate(1, "proven", None, (0,))
    with pytest.raises(NotDisjoint):
        sm.tsbp_separate(GOLDEN, Region.full(GOLDEN), Region.empty(GOLDEN))
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


# -- orbit hits by three-gap stepping, against orbit scans

FIELD_THETAS = (ExactScalar(-1, 1, 1, 2), golden_theta(), ExactScalar(-3, 1, 2, 13))


def field_point(theta, m, r, q):
    """frac(m*theta + r/q): an orbit point of theta when r = 0."""
    return (theta * R(m) + R(r, q)).frac()


@st.composite
def hit_targets(draw):
    """(system, U): a union of arcs with closed or open ends and of points,
    ends and points often on the orbit of 0; or the full circle; or the
    circle minus one point."""
    system = CircleRotation(draw(st.sampled_from(FIELD_THETAS)))
    th = system.theta

    def point():
        return field_point(th, draw(st.integers(-20, 20)), draw(st.sampled_from([0, 0, 1, 3])), 8)

    shape = draw(st.sampled_from(["arcs", "arcs", "arcs", "full", "co-point"]))
    if shape == "full":
        return system, Region.full(system)
    if shape == "co-point":
        return system, Region.full(system).minus(Region.points(system, [point()]))
    pieces = []
    for _ in range(draw(st.integers(1, 3))):
        lo = point()
        pieces.append((lo, lo + R(draw(st.integers(1, 24)), 64), draw(st.booleans()), draw(st.booleans())))
    for _ in range(draw(st.integers(0, 2))):
        x = point()
        pieces.append((x, x, True, True))
    return system, Region(system, pieces)


def scan_hits(system, rep, U, lo, hi):
    return [m for m in range(lo, hi + 1) if U.contains_point((rep + m * system.theta).frac())]


# a hit on a closed end and a point piece, both orbit points of rep
@example((GOLDEN, Region(GOLDEN, [(TH, TH + R(1, 8), True, False), ((3 * TH).frac(),) * 2 + (True, True)])),
         0, 0, [(True, 5), (False, 9), (True, 40)])
# the circle minus an orbit point of rep, and an arc through 0
@example((GOLDEN, Region.full(GOLDEN).minus(Region.points(GOLDEN, [(2 * TH).frac()]))), 0, 0, [(False, 7)])
@example((GOLDEN, Region(GOLDEN, [(R(7, 8), R(9, 8), False, False)])), 3, 1, [(True, 30), (False, 30)])
@settings(max_examples=150, deadline=None)
@given(hit_targets(), st.integers(-20, 20), st.sampled_from([0, 0, 1, 5]),
       st.lists(st.tuples(st.booleans(), st.integers(0, 60)), max_size=4))
def test_orbit_hits_grow_matches_scan(target, m0, r0, grows):
    system, U = target
    rep = field_point(system.theta, m0, r0, 8)
    hits = sm._OrbitHits(system, rep, U, -2, 2)
    lo, hi = -2, 2
    assert hits.hits == scan_hits(system, rep, U, lo, hi)
    for right, by in grows:
        if right:
            hi += by
            hits._grow_right(hi)
        else:
            lo -= by
            hits._grow_left(lo)
        assert hits.hits == scan_hits(system, rep, U, lo, hi)
        assert len(hits.free) == len(hits.hits)


class ScanHits:
    """The orbit-scan version of sm._OrbitHits: test every orbit point."""

    def __init__(self, system, rep, U, lo, hi):
        self.system, self.rep, self.U = system, rep, U
        self.lo, self.hi = lo, lo - 1
        self.hits, self.free = [], []
        self.grow_right(hi)

    def member(self, m):
        return self.U.contains_point((self.rep + m * self.system.theta).frac())

    def grow_right(self, new_hi):
        add = [m for m in range(self.hi + 1, new_hi + 1) if self.member(m)]
        self.hits += add
        self.free += [True] * len(add)
        self.hi = new_hi

    def grow_left(self, new_lo):
        add = [m for m in range(new_lo, self.lo) if self.member(m)]
        self.hits = add + self.hits
        self.free = [True] * len(add) + self.free
        self.lo = new_lo

    def nearest_free(self, k, depth):
        while True:
            best = None
            for j, m in enumerate(self.hits):
                if self.free[j] and (best is None or abs(m - k) < abs(self.hits[best] - k)
                                     or (abs(m - k) == abs(self.hits[best] - k) and m > k)):
                    best = j
            reach = min(k - self.lo, self.hi - k)
            if best is not None and abs(self.hits[best] - k) <= reach:
                self.free[best] = False
                return self.hits[best]
            span = max(k - self.lo, self.hi - k, 1)
            if span > depth:
                raise SearchExhausted("depth")
            self.grow_right(k + 2 * span)
            self.grow_left(k - 2 * span)


def scan_assign_targets(system, points, U, depth):
    """(target, shift) per sorted point, every orbit point scanned."""
    scanners, lookup = [], {}
    for ci, (rep, members) in enumerate(sm._orbit_classes(system, points)):
        ks = [k for _, k in members]
        scanners.append(ScanHits(system, rep, U, min(ks) - 8, max(ks) + 8))
        for p, k in members:
            lookup[p] = (ci, k)
    out = []
    for p in points:
        ci, k = lookup[p]
        d = scanners[ci].nearest_free(k, depth) - k
        out.append((system.apply(p, d), d))
    return out


def outcome(fn, *args):
    try:
        return fn(*args)
    except SearchExhausted:
        return SearchExhausted


@settings(max_examples=60, deadline=None)
@given(hit_targets(), st.lists(st.tuples(st.integers(-12, 12), st.sampled_from([0, 0, 1, 3])),
                               min_size=1, max_size=8, unique=True),
       st.sampled_from([40, 200, 10**4]))
def test_assign_targets_matches_scan(target, point_codes, depth):
    system, U = target
    points = sorted({field_point(system.theta, m, r, 8) for m, r in point_codes})
    assert outcome(sm._assign_targets, system, points, U, depth) == outcome(
        scan_assign_targets, system, points, U, depth)


def test_golden_leftover_cover_steps_instead_of_scanning(monkeypatch):
    # golden compare hands 210 tower boundary points to one leftover cover
    # into two arcs of length 1/120; scanning their orbits took 23,532
    # contains_point calls, and stepping by first returns makes none (210
    # calls, one per point, remain outside the hit search)
    calls = []
    contains_point = Region.contains_point
    leftover_cover = cp.leftover_cover

    def counting(self, x):
        calls.append(x)
        return contains_point(self, x)

    def counted_cover(*args):
        monkeypatch.setattr(Region, "contains_point", counting)
        try:
            return leftover_cover(*args)
        finally:
            monkeypatch.setattr(Region, "contains_point", contains_point)

    monkeypatch.setattr(cp, "leftover_cover", counted_cover)
    w = cp.dynamic_comparison(GOLDEN, Region.interval(GOLDEN, ZERO, R(1, 5)),
                              open_arc(GOLDEN, R(3, 10), R(6, 10)))
    assert w.provenance.leftover == 210
    assert len(calls) < 1000


@settings(max_examples=120, deadline=None)
@given(st.sampled_from((2, 5, 13)), st.data())
def test_trapezoid_is_the_pulled_back_bump(D, data):
    # leftover_cover's g_j in closed form against the region-algebra bump of
    # (translate(closure V, -d), translate(W, -d)); points at 0 and just
    # below 1 put the trapezoid across the seam
    system = CircleRotation(ExactScalar(0, 1, 1, D).frac())
    theta = system.theta
    kind = data.draw(st.integers(0, 2))
    if kind == 0:
        x = R(data.draw(st.integers(0, 15)), 16)
    elif kind == 1:
        x = ONE - theta / R(data.draw(st.integers(2, 400)))
    else:
        x = (theta * R(data.draw(st.integers(-40, 40)))).frac()
    k = data.draw(st.integers(2, 300))
    w = R(1, k) if data.draw(st.booleans()) else theta / R(k)
    d = data.draw(st.integers(-30, 30))
    t = system.apply(x, d)
    W = Region.interval(system, t - w, t + w, False, False)
    V = Region.interval(system, t - w / 2, t + w / 2, False, False)
    g = trapezoid(x, w)
    assert g == bump(translate_region(system, V.closure(), -d), translate_region(system, W, -d))
    assert PLFunction(list(g.breakpoints)) == g
    bps = g.breakpoints
    ends = bps[1:] + ((bps[0][0] + 1, bps[0][1]),)
    slopes = [(vb - va) / (xb - xa) for (xa, va), (xb, vb) in zip(bps, ends)]
    assert g.jumps == [slopes[i] - slopes[i - 1] for i in range(len(slopes))]


# leftover covers to mutate: a point at 0 across the seam, an orbit cluster,
# a U of two arcs, one through 0, and the whole circle as U
LEFTOVER_BASES = (
    ([ZERO, R(1, 10), R(2, 5), R(1, 2)], open_arc(GOLDEN, R(3, 10), R(6, 10)), R(1, 10)),
    ([GOLDEN.apply(R(1, 7), j) for j in range(6)], open_arc(GOLDEN, R(3, 10), R(6, 10)), R(1, 25)),
    ([R(1, 3), R(3, 4), TH],
     Region(GOLDEN, [(R(1, 10), R(1, 5), False, False), (R(9, 10), R(11, 10), False, False)]),
     R(1, 20)),
    ([R(1, 5)], Region.full(GOLDEN), R(1, 2)),
)


@functools.cache
def leftover_base(i):
    points, U, eps = LEFTOVER_BASES[i]
    F = Region.points(GOLDEN, points)
    return F, U, eps, sm.leftover_cover(GOLDEN, F, U, eps)


def test_leftover_trapezoids_are_the_closed_form_one_by_one(monkeypatch):
    # leftover_cover works out each distinct width's corners and slope once
    # and shares them; each function it hands the cascade is still
    # trapezoid(x_j, w_j), jumps included, one width or several
    handed = []
    cascade = sm.min_cascade

    def recorded(system, gs):
        handed.append(list(gs))
        return cascade(system, handed[-1])

    monkeypatch.setattr(sm, "min_cascade", recorded)
    cases = [(Region.points(GOLDEN, pts), U, eps) for pts, U, eps in LEFTOVER_BASES]
    rng = random.Random(33)
    for _ in range(10):
        cases.append((rand_points(rng, GOLDEN, rng.randrange(1, 7)),
                      rand_open(rng, GOLDEN, pieces=rng.randrange(1, 3)),
                      R(1, rng.randrange(10, 40))))
    several = 0
    for F, U, eps in cases:
        cover = sm.leftover_cover(GOLDEN, F, U, eps)
        want = [trapezoid(x, w) for x, w in zip(cover.points, cover.widths)]
        got = handed.pop()
        assert got == want
        assert [g.jumps for g in got] == [g.jumps for g in want]
        several += len(set(cover.widths)) > 1
    assert several


def mutate_leftover(data, cover, U, eps):
    """One mutant of a leftover cover, or of the epsilon it is checked with."""
    n = len(cover.points)
    j = data.draw(st.integers(0, n - 1))
    x, t, w = cover.points[j], cover.targets[j], cover.widths[j]

    def at(seq, value):
        return seq[:j] + (value,) + seq[j + 1:]

    kind = data.draw(st.sampled_from(
        ["shift", "target", "point", "width", "widths", "function", "eps", "truncate"]))
    if kind == "shift":  # shifts may have been truncated already
        delta = data.draw(st.sampled_from([-2, -1, 1, 2, 5]))
        shifts = tuple(d + delta * (i == j) for i, d in enumerate(cover.shifts))
        return dataclasses.replace(cover, shifts=shifts), eps
    if kind == "target":
        moved = data.draw(st.sampled_from(
            [t + w / 16, t + w / 8, t - w / 2, t + w, t + TH, cover.targets[(j + 1) % n],
             U.pieces[0][1]]))
        return dataclasses.replace(cover, targets=at(cover.targets, moved.frac())), eps
    if kind == "point":
        moved = data.draw(st.sampled_from(
            [x + w / 16, x - w / 8, x + w / 4, x + R(1, 2), cover.points[(j + 1) % n]]))
        return dataclasses.replace(cover, points=at(cover.points, moved.frac())), eps
    if kind in ("width", "widths"):
        factor = data.draw(st.sampled_from([ZERO, R(-1, 100), R(3), R(9, 8)]))
        widths = (at(cover.widths, w * factor) if kind == "width"
                  else tuple(v * factor for v in cover.widths))
        return dataclasses.replace(cover, widths=widths), eps
    if kind == "function":
        f = data.draw(st.sampled_from([PLFunction.constant(ZERO), PLFunction.constant(ONE),
                                       cover.functions[(j + 1) % n], trapezoid(x, R(1, 50))]))
        return dataclasses.replace(cover, functions=at(cover.functions, f)), eps
    if kind == "eps":
        mass = sum((v * 2 for v in cover.widths), ZERO)
        return cover, data.draw(st.sampled_from([eps / 4, eps / 1000, mass]))
    return dataclasses.replace(cover, shifts=cover.shifts[:data.draw(st.integers(0, n - 1))]), eps


def failures_or_error(verify, *args):
    try:
        return verify(*args)
    except Exception as exc:  # the oracle's exception is the expected outcome
        return type(exc), str(exc)


def test_verify_leftover_cover_names_a_range_outside_the_unit_interval():
    F, U, eps, cover = leftover_base(0)
    doubled = dataclasses.replace(
        cover, functions=(scale(cover.functions[0], 2),) + cover.functions[1:])
    failures = sm.verify_leftover_cover(GOLDEN, F, U, eps, doubled)
    assert "clause 4: function range leaves [0, 1]" in failures
    assert failures == leftover_oracle.verify_leftover_cover(GOLDEN, F, U, eps, doubled)


@settings(max_examples=250, deadline=None)
@given(st.integers(0, len(LEFTOVER_BASES) - 1), st.integers(1, 2), st.data())
def test_verify_leftover_cover_matches_the_region_oracle(base, rounds, data):
    # the arithmetic clause-2 check against the piece-by-piece region check
    # on mutated covers: the same failure list, or the same exception
    F, U, eps, cover = leftover_base(base)
    for _ in range(rounds):
        cover, eps = mutate_leftover(data, cover, U, eps)
    assert failures_or_error(sm.verify_leftover_cover, GOLDEN, F, U, eps, cover) == (
        failures_or_error(leftover_oracle.verify_leftover_cover, GOLDEN, F, U, eps, cover))
