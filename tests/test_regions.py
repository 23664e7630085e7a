import random
import time
from bisect import bisect_left
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from dyncomp.errors import MixedAmbient, NotNull
from dyncomp.regions import (
    BoxRegion,
    CylinderRegion,
    Region,
    arc_point_gap,
    covers_space,
    disjoint_inside,
    inner_approx,
    measure,
    measure_gap,
    outer_approx,
    pairwise_disjoint,
    region_gap,
    small_nbhd,
    union_many,
    _assemble,
    _coverage,
    _critical_points,
    _split_lifted,
    _sweep,
    _union_volume,
)
from dyncomp.scalars import ExactScalar, ONE, ZERO, golden_theta
from dyncomp.systems import CircleRotation, Odometer, TorusRotation

R = ExactScalar.rational


def golden():
    return CircleRotation(golden_theta())


def interval(sys, lo, hi, lc=True, hc=True):
    return Region.interval(sys, R(Fraction(lo)), R(Fraction(hi)), lc, hc)


def rand_region(sys, rng, max_pieces=3):
    soup = []
    for _ in range(rng.randint(0, max_pieces)):
        a = Fraction(rng.randint(0, 40), 40)
        ln = Fraction(rng.randint(0, 20), 40)
        soup.append((R(a), R(a + ln), rng.random() < 0.5, rng.random() < 0.5))
    return Region(sys, soup)


def test_normalization_merges_overlaps():
    h = golden()
    r = Region(h, [(R(0), R(Fraction(1, 2)), True, False), (R(Fraction(1, 4)), R(Fraction(3, 4)), True, True)])
    assert r == interval(h, 0, Fraction(3, 4), True, True)
    # adjacent pieces merge when the shared endpoint is covered
    r = Region(h, [(R(0), R(Fraction(1, 4)), True, False), (R(Fraction(1, 4)), R(Fraction(1, 2)), True, False)])
    assert r == interval(h, 0, Fraction(1, 2), True, False)
    # adjacent open pieces with the shared endpoint missing stay apart
    r = Region(h, [(R(0), R(Fraction(1, 4)), True, False), (R(Fraction(1, 4)), R(Fraction(1, 2)), False, False)])
    assert len(r.pieces) == 2


def test_wrap_split_and_membership():
    h = golden()
    r = interval(h, Fraction(7, 8), Fraction(9, 8))  # closed arc through 0
    assert len(r.pieces) == 2
    assert r.contains_point(R(0))
    assert r.contains_point(R(Fraction(15, 16)))
    assert r.contains_point(R(Fraction(1, 8)))
    assert not r.contains_point(R(Fraction(1, 2)))
    assert r.measure() == R(Fraction(1, 4))


def test_full_circle_and_complement():
    h = golden()
    full = Region.full(h)
    assert full.is_full and full.measure() == R(1)
    assert full.complement().is_empty
    r = interval(h, Fraction(1, 3), Fraction(2, 3), True, False)
    c = r.complement()
    assert c.measure() == R(Fraction(2, 3))
    assert c.union(r).is_full
    assert not c.intersects(r)
    assert c.complement() == r


def test_boundary_and_interior():
    h = golden()
    r = interval(h, Fraction(1, 4), Fraction(1, 2))
    assert r.boundary().points == (R(Fraction(1, 4)), R(Fraction(1, 2)))
    assert r.interior() == interval(h, Fraction(1, 4), Fraction(1, 2), False, False)
    assert r.closure() == r
    # wrap adjacency: an arc through 0 has boundary away from the seam
    w = interval(h, Fraction(7, 8), Fraction(9, 8), False, False)
    assert set(w.boundary().points) == {R(Fraction(7, 8)), R(Fraction(1, 8))}
    assert w.closure() == interval(h, Fraction(7, 8), Fraction(9, 8), True, True)
    # full circle has empty boundary
    assert Region.full(h).boundary().is_empty
    # a point has itself as boundary
    p = Region.points(h, [R(Fraction(1, 3))])
    assert p.boundary().points == (R(Fraction(1, 3)),)
    assert p.interior().is_empty


def test_union_of_two_half_circles_is_full():
    h = golden()
    a = interval(h, 0, Fraction(1, 2), True, False)
    b = interval(h, Fraction(1, 2), 1, True, False)
    assert a.union(b).is_full
    assert covers_space(h, [a, b])
    assert pairwise_disjoint(h, [a, b])
    # closed ends that meet in one point, at 1/2 and at the seam, overlap
    assert not pairwise_disjoint(h, [interval(h, 0, Fraction(1, 2)), b])
    assert not pairwise_disjoint(h, [a, interval(h, Fraction(3, 4), 1)])


def test_translate_exact_and_invariant():
    h = golden()
    r = interval(h, 0, Fraction(1, 5))
    t = r.translate(3)
    assert t.measure() == r.measure()
    assert t.translate(-3) == r
    th = h.theta
    assert t.contains_point((3 * th).frac())
    # translates re-merge across the seam
    a = interval(h, Fraction(9, 10), Fraction(11, 10))
    b = a.translate(1).translate(-1)
    assert a == b


def test_boundary_of_union_subset_of_union_of_boundaries():
    h = golden()
    rng = random.Random(7)
    for _ in range(50):
        a = rand_region(h, rng)
        b = rand_region(h, rng)
        bu = set(a.union(b).boundary().points)
        ba = set(a.boundary().points) | set(b.boundary().points)
        assert bu <= ba


def test_random_membership_against_float_sampling():
    h = golden()
    rng = random.Random(3)
    for _ in range(30):
        r = rand_region(h, rng)
        for _ in range(40):
            q = Fraction(rng.randint(0, 400), 401)
            x = R(q)
            member = r.contains_point(x)
            fx = float(q)
            fmember = any(
                (float(lo) < fx < float(hi))
                or (abs(fx - float(lo)) < 1e-12 and lc)
                or (abs(fx - float(hi)) < 1e-12 and hc)
                or (lo == hi and abs(fx - float(lo)) < 1e-12)
                for lo, hi, lc, hc in r.pieces
            )
            assert member == fmember


def test_measure_additivity():
    h = golden()
    rng = random.Random(11)
    for _ in range(60):
        a = rand_region(h, rng)
        b = rand_region(h, rng)
        lhs = a.union(b).measure() + a.intersect(b).measure()
        assert lhs == a.measure() + b.measure()
        assert a.minus(b).measure() == a.measure() - a.intersect(b).measure()


def test_union_many_and_gap():
    h = golden()
    parts = [interval(h, Fraction(i, 10), Fraction(i, 10) + Fraction(1, 20)) for i in range(10)]
    u = union_many(h, parts)
    assert u.measure() == R(Fraction(1, 2))
    assert pairwise_disjoint(h, parts)
    assert not pairwise_disjoint(h, parts + [interval(h, 0, Fraction(1, 40))])
    a = interval(h, 0, Fraction(1, 4))
    b = interval(h, Fraction(3, 8), Fraction(1, 2))
    assert region_gap(a, b) == R(Fraction(1, 8))
    assert arc_point_gap(R(Fraction(5, 16)), a) == R(Fraction(1, 16))


def test_logical_arcs_rejoin_seam():
    h = golden()
    r = interval(h, Fraction(7, 8), Fraction(9, 8), False, True)
    arcs = r.logical_arcs()
    assert len(arcs) == 1
    lo, hi, lc, hc = arcs[0]
    assert (lo, hi) == (R(Fraction(7, 8)), R(Fraction(9, 8)))
    assert (lc, hc) == (False, True)


# spec'd approximation rules


def test_small_nbhd_values():
    h = golden()
    f = Region.points(h, [R(0)])
    e = small_nbhd(h, f, R(Fraction(1, 10)))
    assert e.measure() == R(Fraction(1, 20))
    assert e.contains_point(R(0))
    f2 = Region.points(h, [R(0), R(Fraction(1, 2))])
    e2 = small_nbhd(h, f2, R(Fraction(1, 10)))
    assert e2.measure() == R(Fraction(1, 20))
    # empty set companion: a single arc of length eps/2
    e3 = small_nbhd(h, Region.empty(h), R(Fraction(1, 10)))
    assert e3.measure() == R(Fraction(1, 20))
    assert not e3.is_empty
    with pytest.raises(NotNull):
        small_nbhd(h, interval(h, 0, Fraction(1, 4)), R(Fraction(1, 10)))


def test_inner_approx_values():
    h = golden()
    u = interval(h, 0, Fraction(1, 2), False, False)
    k = inner_approx(h, u, R(Fraction(1, 8)))
    assert k == interval(h, Fraction(1, 32), Fraction(1, 2) - Fraction(1, 32))
    assert u.contains_region(k)
    assert u.minus(k).measure() < R(Fraction(1, 8))
    # retraction bounded by interval length
    u2 = interval(h, 0, Fraction(1, 10), False, False)
    k2 = inner_approx(h, u2, R(1))
    assert k2 == interval(h, Fraction(1, 80), Fraction(1, 10) - Fraction(1, 80))
    assert inner_approx(h, Region.full(h), R(Fraction(1, 8))).is_full


def test_outer_approx_values():
    h = golden()
    f = interval(h, Fraction(1, 4), Fraction(1, 2))
    e = outer_approx(h, f, R(Fraction(1, 8)))
    assert e == interval(h, Fraction(1, 4) - Fraction(1, 32), Fraction(1, 2) + Fraction(1, 32), False, False)
    assert e.contains_region(f)
    assert e.minus(f).measure() < R(Fraction(1, 8))
    assert outer_approx(h, Region.empty(h), R(Fraction(1, 8))).is_empty
    assert outer_approx(h, Region.full(h), R(1)).is_full


def test_random_approx_properties():
    h = golden()
    rng = random.Random(19)
    for _ in range(100):
        lo = Fraction(rng.randint(0, 30), 31)
        ln = Fraction(rng.randint(1, 25), 100)
        eps = Fraction(rng.randint(1, 50), 100)
        u = Region(h, [(R(lo), R(lo + ln), False, False)])
        k = inner_approx(h, u, R(eps))
        assert u.contains_region(k)
        assert not k.is_empty
        assert u.minus(k).measure() < R(eps)
        f = u.closure()
        e = outer_approx(h, f, R(eps))
        assert e.contains_region(f)
        assert e.minus(f).measure() < R(eps)
        assert e.interior() == e


# odometer and torus regions


def test_cylinder_region():
    od = Odometer([2, 2, 2])
    a = CylinderRegion(od, [od.word_to_index((0, 0, 0)), od.word_to_index((1, 0, 1))])
    assert a.measure() == R(Fraction(1, 4))
    assert a.boundary().is_empty
    assert a.closure() == a and a.interior() == a
    assert a.translate(8) == a
    b = a.translate(3)
    assert b.measure() == a.measure()
    assert a.complement().measure() == R(Fraction(3, 4))
    assert measure_gap(od, a, a.complement()) == R(Fraction(1, 2))


def test_odometer_small_nbhd_and_cylinder_sets():
    od = Odometer([2, 3])
    empty = CylinderRegion.empty(od)
    assert small_nbhd(od, empty, R(Fraction(1, 5))) == CylinderRegion(od, [0])
    with pytest.raises(NotNull, match="no cylinder has measure below 1/6"):
        small_nbhd(od, empty, R(Fraction(1, 6)))
    with pytest.raises(NotNull, match="odometer regions of measure zero are empty"):
        small_nbhd(od, CylinderRegion(od, [1]), R(Fraction(1, 5)))
    a, b = CylinderRegion(od, [0, 2]), CylinderRegion(od, [2, 5])
    assert a.union(b) == CylinderRegion(od, [0, 2, 5])
    assert empty.is_empty and not empty.is_full and not a.is_full
    full = CylinderRegion.full(od)
    assert full.is_full and not full.is_empty and full.indices == frozenset(range(6))
    assert a.contains_point((0, 1)) and not a.contains_point((1, 0))


def test_box_region():
    T = TorusRotation([ExactScalar(0, 1, 2, 2), ExactScalar(0, 1, 3, 3)])
    box = ((R(0), R(Fraction(1, 4)), True, True), (R(0), R(Fraction(1, 2)), True, True))
    b = BoxRegion(T, [box])
    assert b.measure() == R(Fraction(1, 8))
    assert b.contains_point((R(Fraction(1, 8)), R(Fraction(1, 4))))
    assert not b.contains_point((R(Fraction(1, 2)), R(Fraction(1, 4))))
    t = b.translate(2)
    assert t.measure() == b.measure()
    faces = b.boundary().faces
    assert len(faces) == 4
    # overlapping boxes measure exactly once
    b2 = BoxRegion(T, [box, box])
    assert b2.measure() == R(Fraction(1, 8))
    disj = b.translate(1)
    assert not b.intersects(disj) or b.intersects(disj)  # exact call works


def test_box_open_full_length_axis_excludes_its_end():
    # the open arc (0, 1) is the axis circle minus 0, not the whole circle
    T = TorusRotation([ExactScalar(0, 1, 2, 2), ExactScalar(0, 1, 3, 3)])
    half = (R(0), R(Fraction(1, 2)), True, True)
    b = BoxRegion(T, [((R(0), R(1), False, False), half)])
    assert not b.contains_point((R(0), R(Fraction(1, 4))))
    assert b.contains_point((R(Fraction(1, 2)), R(Fraction(1, 4))))
    wall = BoxRegion(T, [((R(0), R(0), True, True), half)])
    assert not b.intersects(wall)
    assert b.intersect(wall).is_empty


def test_box_contains_point_checks_dimension():
    # zip would stop at the shorter tuple and test only the first axis
    T = TorusRotation([ExactScalar(0, 1, 2, 2), ExactScalar(0, 1, 3, 3)])
    half = (R(0), R(Fraction(1, 2)), True, True)
    b = BoxRegion(T, [(half, half)])
    q = R(Fraction(1, 4))
    assert b.contains_point((q, q))
    for point in ((q,), (q, q, q)):
        with pytest.raises(MixedAmbient):
            b.contains_point(point)


def test_measure_dispatch_checks_ambient():
    h = golden()
    od = Odometer([2, 2])
    r = interval(h, 0, Fraction(1, 2))
    with pytest.raises(Exception):
        measure(od, r)


# -- the rotating translate and the indexed sweep against the re-sweep


GOLDEN = golden()
THETA = GOLDEN.theta


@st.composite
def endpoints(draw):
    """k/16, or frac(m*theta + r/8) in Q(sqrt 5): some translate puts the
    latter exactly on the seam."""
    if draw(st.booleans()):
        return R(Fraction(draw(st.integers(0, 15)), 16))
    return (THETA * R(draw(st.integers(-50, 50))) + R(Fraction(draw(st.integers(0, 7)), 8))).frac()


@st.composite
def lifted_arcs(draw):
    """Lifted arcs: points, arcs through 0, whole circles minus a point and
    whole circles among them."""
    lo = draw(endpoints())
    kind = draw(st.sampled_from(["point", "arc", "arc", "arc", "loop"]))
    if kind == "point":
        hi = lo
    elif kind == "loop":
        hi = lo + 1
    else:
        hi = lo + draw(endpoints()) * R(Fraction(draw(st.integers(1, 4)), 4))
    return (lo, hi, draw(st.booleans()), draw(st.booleans()))


circle_regions = st.lists(lifted_arcs(), max_size=5).map(lambda arcs: Region(GOLDEN, arcs))


def resweep_translate(region, n):
    """The translate rebuilt through the public constructor's sweep."""
    s = (THETA * R(n)).frac()
    return Region(GOLDEN, [(lo + s, hi + s, lc, hc) for lo, hi, lc, hc in region.pieces])


# frac(-3 theta) lands on the seam under translate(3), from either side
@example(Region(GOLDEN, [((THETA * R(-3)).frac(), R(Fraction(7, 8)), True, True)]), 3)
@example(Region(GOLDEN, [(R(Fraction(1, 2)), (THETA * R(-3)).frac() + 1, False, True)]), 3)
@example(Region(GOLDEN, [((THETA * R(-3)).frac(),) * 2 + (True, True)]), 3)
@example(Region(GOLDEN, [(R(Fraction(7, 8)), R(Fraction(9, 8)), True, False)]), -4)
@example(Region(GOLDEN, [(R(0), R(1), False, False)]), 2)
@settings(max_examples=300, deadline=None)
@given(circle_regions, st.integers(-50, 50))
def test_translate_matches_resweep(region, n):
    moved = region.translate(n)
    assert moved.pieces == resweep_translate(region, n).pieces
    assert moved.translate(-n) == region


def bisect_critical_points(split_lists):
    """Sorted distinct critical points, found without cell indices."""
    raw = {ZERO}
    for pieces in split_lists:
        for lo, hi, _, _ in pieces:
            raw.add(lo)
            if lo != hi and hi < 1:
                raw.add(hi)
    return sorted(raw)


def bisect_coverage(pts, split_pieces):
    """Per-cell cover counts, locating each piece's ends by bisection."""
    m = len(pts)
    delta = [0] * (m + 1)
    pcov = [0] * m
    ends_at = [0] * m
    for lo, hi, lc, hc in split_pieces:
        i = bisect_left(pts, lo)
        if lo == hi:
            pcov[i] += 1
            continue
        if hi < 1:
            j = bisect_left(pts, hi)
            delta[i] += 1
            delta[j] -= 1
            if hc:
                pcov[j] += 1
            ends_at[j] += 1
        else:
            delta[i] += 1
            delta[m] -= 1
            ends_at[0] += 1
        if lc:
            pcov[i] += 1
    icov = []
    run = 0
    for i in range(m):
        run += delta[i]
        icov.append(run)
    for i in range(m):
        pcov[i] += icov[i - 1] - ends_at[i]
    return icov, pcov


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(lifted_arcs(), max_size=4), min_size=1, max_size=3), circle_regions)
def test_indexed_coverage_matches_bisect(soups, region):
    split_lists = [region.pieces]
    for arcs in soups:
        # the soup Region() would sweep; a whole circle is the piece (0, 1)
        split_lists.append([p for arc in arcs for p in _split_lifted(*arc)])
    pts, cells = _critical_points(split_lists)
    assert pts == bisect_critical_points(split_lists)
    for pieces, idx in zip(split_lists, cells):
        assert _coverage(len(pts), pieces, idx) == bisect_coverage(pts, pieces)


# -- the forward-pass assembler against the cyclic one it replaced


def cyclic_assemble(pts, ival_flags, point_flags):
    """Canonical pieces of the flagged cells, found by walking the cells
    cyclically from an uncovered one, lifting each run past 1 and cutting
    it at 0 again, then sorting."""
    m = len(pts)
    n = 2 * m

    def covered(ci):
        i, r = divmod(ci % n, 2)
        return point_flags[i] if r == 0 else ival_flags[i]

    anchor = next((ci for ci in range(n) if not covered(ci)), None)
    if anchor is None:
        return ((ZERO, ONE, True, False),)
    pieces = []
    run_start = None
    for t in range(anchor + 1, anchor + 1 + n):
        if covered(t):
            if run_start is None:
                run_start = t
        elif run_start is not None:
            pieces.extend(cyclic_run_piece(pts, run_start, t - 1))
            run_start = None
    if run_start is not None:
        pieces.extend(cyclic_run_piece(pts, run_start, anchor + n))
    pieces.sort(key=lambda p: (p[0], p[1]))
    return tuple(pieces)


def cyclic_run_piece(pts, a, b):
    """The run of cells a..b (indices past 2m lifted by 1), cut at 0."""
    m = len(pts)
    w, r = divmod(a, 2 * m)
    i, kind = divmod(r, 2)
    lo, lc = pts[i] + w, kind == 0
    w, r = divmod(b, 2 * m)
    i, kind = divmod(r, 2)
    if kind == 0:
        hi, hc = pts[i] + w, True
    else:
        hi, hc = (pts[i + 1] if i + 1 < m else ONE) + w, False
    out = _split_lifted(lo, hi, lc, hc)
    # the anchor cell stays uncovered, so no run is the whole circle
    assert out != [(ZERO, ONE, True, False)]
    return out


def test_forward_assemble_matches_cyclic_on_every_flag_pattern():
    count = 0
    for m in range(1, 7):
        pts = [R(Fraction(k, m)) for k in range(m)]
        for flags in product((False, True), repeat=2 * m):
            point_flags, ival_flags = flags[0::2], flags[1::2]
            assert _assemble(pts, ival_flags, point_flags) == cyclic_assemble(
                pts, ival_flags, point_flags
            )
            count += 1
    assert count == 5460


@settings(max_examples=200, deadline=None)
@given(st.lists(lifted_arcs(), max_size=6))
def test_forward_assemble_matches_cyclic_on_soups(arcs):
    soup = [p for arc in arcs for p in _split_lifted(*arc)]
    pts, (icov, pcov) = _sweep(soup)
    # the union, and the cells covered an odd number of times
    for keep in (lambda c: c > 0, lambda c: c % 2 == 1):
        ivals, ptsb = [keep(c) for c in icov], [keep(c) for c in pcov]
        assert _assemble(pts, ivals, ptsb) == cyclic_assemble(pts, ivals, ptsb)


# -- region results against membership computed from the operands' arcs

Q = Fraction
SAMPLES = [Q(k, 32) for k in range(32)]
NUDGE = Q(1, 64)


@st.composite
def grid_arcs(draw):
    """Lifted arcs with ends on the 1/16 grid: points, arcs (some through
    0), whole circles and circles minus a point."""
    lo = Q(draw(st.integers(0, 15)), 16)
    kind = draw(st.sampled_from(["point", "arc", "arc", "loop"]))
    if kind == "point":
        hi = lo
    elif kind == "loop":
        hi = lo + 1
    else:
        hi = lo + Q(draw(st.integers(1, 15)), 16)
    return (lo, hi, draw(st.booleans()), draw(st.booleans()))


def arc_member(arc, x):
    """x in [0, 1) lies in the lifted arc, by its definition."""
    lo, hi, lc, hc = arc
    if lo == hi:
        return lc and hc and x == lo
    return any(
        lo < y < hi or (y == lo and lc) or (y == hi and hc) for y in (x, x + 1)
    )


def arcs_member(arcs, x):
    return any(arc_member(arc, x % 1) for arc in arcs)


def grid_region(arcs):
    return Region(GOLDEN, [(R(lo), R(hi), lc, hc) for lo, hi, lc, hc in arcs])


def assert_canonical(region, member):
    """Sorted pieces in [0, 1], separated, none closed at 1, and the full
    circle in its one form; member is the expected membership test."""
    ps = region.pieces
    for lo, hi, lc, hc in ps:
        assert ZERO <= lo <= hi <= ONE and lo < ONE
        assert lo != hi or (lc and hc)
        assert not (hi == ONE and hc)
    for (_, hi, _, hc), (lo, _, lc, _) in zip(ps, ps[1:]):
        assert hi < lo or (hi == lo and not hc and not lc)
    for x in SAMPLES:
        assert region.contains_point(R(x)) == member(x), x
    if all(member(x) for x in SAMPLES):
        assert ps == ((ZERO, ONE, True, False),)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(grid_arcs(), max_size=3), min_size=3, max_size=3))
def test_region_results_match_arc_membership(arc_lists):
    a, b, c = arc_lists
    A, B, C = (grid_region(arcs) for arcs in arc_lists)

    def inA(x):
        return arcs_member(a, x)

    def inB(x):
        return arcs_member(b, x)

    def near_a(x):
        return [inA(x - NUDGE), inA(x), inA(x + NUDGE)]

    assert_canonical(A, inA)
    assert_canonical(A.union(B), lambda x: inA(x) or inB(x))
    assert_canonical(A.intersect(B), lambda x: inA(x) and inB(x))
    assert_canonical(A.minus(B), lambda x: inA(x) and not inB(x))
    assert_canonical(A.complement(), lambda x: not inA(x))
    assert_canonical(
        union_many(GOLDEN, [A, B, C]), lambda x: inA(x) or inB(x) or arcs_member(c, x)
    )
    assert_canonical(A.closure(), lambda x: any(near_a(x)))
    assert_canonical(A.interior(), lambda x: all(near_a(x)))
    assert A.boundary_points() == tuple(
        R(x) for x in SAMPLES if any(near_a(x)) and not all(near_a(x))
    )


# -- torus boxes against the per-arc tests they replaced


def oracle_arc_pairs(arc):
    """Linear representative (lo, hi, lc, hc) with lo in [0,1)."""
    lo, hi, lc, hc = arc
    base = lo.frac()
    return (base, base + (hi - lo), lc, hc)


def oracle_linear_overlap(a, b) -> bool:
    lo = max(a[0], b[0])
    hi = min(a[1], b[1])
    s = (hi - lo).sign()
    if s > 0:
        return True
    if s < 0:
        return False

    # the meet point must be covered by each arc, as interior or flagged end
    def covers(arc):
        l, h, cl, ch = arc
        if l < lo < h:
            return True
        if lo == l:
            return cl
        return ch
    return covers(a) and covers(b)


def oracle_arc_intersects(a, b) -> bool:
    """Lifted arcs of length below 1 meet, tried at three relative lifts."""
    a = oracle_arc_pairs(a)
    b = oracle_arc_pairs(b)
    for s in (-1, 0, 1):
        shifted = (b[0] + s, b[1] + s, b[2], b[3])
        if oracle_linear_overlap(a, shifted):
            return True
    return False


def oracle_arc_contains_point(arc, x) -> bool:
    lo, hi, lc, hc = oracle_arc_pairs(arc)
    x = ExactScalar.coerce(x).frac()
    for s in (0, 1):
        xs = x + s
        if (lo < xs < hi) or (xs == lo and lc) or (xs == hi and hc):
            return True
    return False


TORUS_AXES = (ExactScalar(0, 1, 2, 2), ExactScalar(0, 1, 3, 3), ExactScalar(0, 1, 5, 5))


@st.composite
def axis_arcs(draw):
    """Closed points and arcs shorter than 1 with ends on the 1/16 grid,
    some of them through 0."""
    lo = Fraction(draw(st.integers(0, 15)), 16)
    if draw(st.booleans()):
        return (R(lo), R(lo), True, True)
    hi = lo + Fraction(draw(st.integers(1, 15)), 16)
    return (R(lo), R(hi), draw(st.booleans()), draw(st.booleans()))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(-3, 3), st.data())
def test_box_region_matches_arc_oracle(dim, n, data):
    torus = TorusRotation(list(TORUS_AXES[:dim]))
    box_lists = st.lists(st.tuples(*[axis_arcs()] * dim), min_size=1, max_size=2)
    a, b = data.draw(box_lists), data.draw(box_lists)
    # B is b moved by n steps; the oracle gets its arcs shifted by hand
    shifts = [(n * th).frac() for th in torus.thetas]
    moved = [tuple((lo + s, hi + s, lc, hc) for (lo, hi, lc, hc), s in zip(box, shifts))
             for box in b]
    A, B = BoxRegion(torus, a), BoxRegion(torus, b).translate(n)
    assert B == BoxRegion(torus, moved)
    meets = any(all(map(oracle_arc_intersects, ba, bb)) for ba in a for bb in moved)
    assert A.intersects(B) == meets
    both = A.intersect(B)
    assert both.is_empty != meets
    for _ in range(4):
        p = tuple(R(Fraction(data.draw(st.integers(0, 31)), 32)) for _ in range(dim))
        in_a = any(all(map(oracle_arc_contains_point, box, p)) for box in a)
        in_b = any(all(map(oracle_arc_contains_point, box, p)) for box in moved)
        assert A.contains_point(p) == in_a
        assert B.contains_point(p) == in_b
        assert both.contains_point(p) == (in_a and in_b)


# -- torus volume: the axis sweep against inclusion-exclusion


def inclusion_exclusion_volume(region):
    """The volume of a union of boxes as the signed sum, over every
    non-empty subset of boxes, of the volume of their intersection; the
    terms are summed per quadratic field, then the fields' sums."""
    boxes = region.boxes
    per_field = {}
    for mask in range(1, 1 << len(boxes)):
        chosen = [box for i, box in enumerate(boxes) if mask >> i & 1]
        vol = ONE
        for axis in range(region.system.dim):
            common = chosen[0][axis]
            for box in chosen[1:]:
                common = common.intersect(box[axis])
            vol = vol * common.measure()
            if vol.sign() == 0:
                break
        per_field[vol.D] = per_field.get(vol.D, ZERO) + (vol if len(chosen) % 2 else -vol)
    return sum(per_field.values(), ZERO)


def volume_outcome(fn, region):
    try:
        return fn(region)
    except ValueError:
        return ValueError


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(-3, 3), st.data())
def test_box_measure_matches_inclusion_exclusion(dim, n, data):
    torus = TorusRotation(list(TORUS_AXES[:dim]))
    boxes = st.lists(st.tuples(*[axis_arcs()] * dim), max_size=8)
    A = BoxRegion(torus, data.draw(boxes))
    assert A.measure() == inclusion_exclusion_volume(A)
    # a rotation keeps the volume, though the seam now cuts irrational cells
    assert A.translate(n).measure() == A.measure()
    # boxes moved by n beside boxes left in place: a product of two
    # irrational factors from different fields raises, and the two ways
    # meet such products in different places, so they agree where both
    # return; the sweep over the axes in reverse order is a third way
    B = BoxRegion(torus, data.draw(st.lists(st.tuples(*[axis_arcs()] * dim), max_size=3)))
    both = A.union(B.translate(n))
    sweep = volume_outcome(BoxRegion.measure, both)
    for other in (
        volume_outcome(inclusion_exclusion_volume, both),
        volume_outcome(_union_volume, [box[::-1] for box in both.boxes]),
    ):
        assert ValueError in (sweep, other) or sweep == other


def test_box_measure_raises_when_two_fields_meet():
    # the overlap of a box and its translate has sides in Q(sqrt 2) and
    # Q(sqrt 3), so the volume lies in neither field
    T = TorusRotation([ExactScalar(0, 1, 2, 2), ExactScalar(0, 1, 3, 3)])
    half = (R(0), R(Fraction(1, 2)), True, True)
    box = BoxRegion(T, [(half, half)])
    with pytest.raises(ValueError, match="incompatible quadratic fields"):
        box.union(box.translate(1)).measure()


def test_box_measure_is_polynomial():
    # inclusion-exclusion takes 2^16 subsets here; the sweep takes 33 cells
    T = TorusRotation([ExactScalar(0, 1, 2, 2), ExactScalar(0, 1, 3, 3)])
    boxes = [((R(Fraction(i, 16)), R(Fraction(2 * i + 1, 32)), True, True),
              (R(Fraction(i, 32)), R(Fraction(i + 8, 32)), True, True)) for i in range(16)]
    region = BoxRegion(T, boxes)
    assert len(region.boxes) == 16
    start = time.perf_counter()
    vol = region.measure()
    assert time.perf_counter() - start < 0.1
    assert vol == R(Fraction(1, 8))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((2, 5, 13)), st.data())
def test_interval_matches_the_sweep(D, data):
    # Region.interval cuts its one arc at the seam with no sweep; lifted
    # ends below 0 and past 1, lengths 0 and 1, every flag pair
    system = CircleRotation(ExactScalar(0, 1, 1, D).frac())
    theta = system.theta
    if data.draw(st.booleans()):
        lo = R(data.draw(st.integers(-16, 31)), 16)
    else:
        lo = theta * R(data.draw(st.integers(-5, 5))) + data.draw(st.integers(-1, 1))
    kind = data.draw(st.integers(0, 3))
    if kind == 0:
        length = R(data.draw(st.sampled_from((0, 1))))
    elif kind == 1:
        length = R(data.draw(st.integers(0, 16)), 16)
    elif kind == 2:
        length = (theta * R(data.draw(st.integers(1, 9)))).frac()
    else:
        length = (ONE - lo).frac() or ONE  # the arc ends exactly on the seam
    lc, hc = data.draw(st.booleans()), data.draw(st.booleans())
    got = Region.interval(system, lo, lo + length, lc, hc)
    assert got.pieces == Region(system, [(lo, lo + length, lc, hc)]).pieces


# -- one sweep for "pairwise disjoint" and "inside U" together


@st.composite
def touching_regions(draw):
    """Circle regions of up to two lifted arcs each (none: an empty
    region); an arc often starts where the arc before it ends, so closed
    ends touch, and points, arcs through 0 and whole circles come from
    lifted_arcs."""
    regions, end = [], None
    for _ in range(draw(st.integers(0, 5))):
        arcs = []
        for _ in range(draw(st.integers(0, 2))):
            lo, hi, lc, hc = draw(lifted_arcs())
            if end is not None and draw(st.booleans()):
                lo, hi = end, end + (hi - lo)
            arcs.append((lo, hi, lc, hc))
            end = hi
        regions.append(Region(GOLDEN, arcs))
    return regions


def assert_one_sweep(regions, U):
    assert disjoint_inside(GOLDEN, regions, U) == (
        pairwise_disjoint(GOLDEN, regions), all(U.contains_region(r) for r in regions))


@settings(max_examples=300, deadline=None)
@given(touching_regions(), st.data())
def test_disjoint_inside_matches_pairwise_and_containment(regions, data):
    kind = data.draw(st.integers(0, 3))
    if kind == 0:
        U = data.draw(circle_regions)
    elif kind == 1:  # a union of some of the regions, so containment often holds
        U = union_many(GOLDEN, regions[:data.draw(st.integers(0, len(regions)))]
                       + [data.draw(circle_regions)])
    else:
        U = Region.empty(GOLDEN) if kind == 2 else Region.full(GOLDEN)
    assert_one_sweep(regions, U)


def test_disjoint_inside_on_fixed_soups():
    full, empty, half = Region.full(GOLDEN), Region.empty(GOLDEN), interval(GOLDEN, 0, Fraction(1, 2))
    rest = interval(GOLDEN, Fraction(1, 2), 1, False, False)
    assert disjoint_inside(GOLDEN, [full], full) == (True, True)
    assert disjoint_inside(GOLDEN, [], empty) == (True, True)
    assert disjoint_inside(GOLDEN, [empty, half], rest) == (True, False)
    assert disjoint_inside(GOLDEN, [half, rest], full) == (True, True)
    # closed ends that touch at 1/2 overlap there, and the point 0 leaves
    # an open set that stops short of the seam
    assert disjoint_inside(GOLDEN, [half, interval(GOLDEN, Fraction(1, 2), 1, True, False)],
                           interval(GOLDEN, 0, 1, False, False)) == (False, False)
    for regions in ([full, empty], [half, rest, Region.points(GOLDEN, [0])]):
        for U in (full, empty, half, rest):
            assert_one_sweep(regions, U)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sets(st.integers(0, 11), max_size=5), max_size=5),
       st.sets(st.integers(0, 11)))
def test_disjoint_inside_on_odometers_matches_index_sets(sets, target):
    odo = Odometer([2, 3, 2])
    regions = [CylinderRegion(odo, s) for s in sets]
    disjoint = all(not (a & b) for i, a in enumerate(sets) for b in sets[i + 1:])
    assert disjoint_inside(odo, regions, CylinderRegion(odo, target)) == (
        disjoint, all(s <= target for s in sets))


def test_disjoint_inside_checks_the_ambient():
    with pytest.raises(MixedAmbient):
        disjoint_inside(GOLDEN, [], Region.full(CircleRotation(ExactScalar(0, 1, 2, 2))))
