import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dyncomp.errors import BreakpointBudget, CoverFailure, EmptyInput, NoGap
from dyncomp.plfun import (
    CylinderFunction,
    PLFunction,
    birkhoff_sum,
    bump,
    difference,
    extrema_on,
    global_extrema,
    integral,
    min_cascade,
    maximum,
    minimum,
    partition_of_unity,
    scale,
    support_of,
    support_report,
    sum_of,
    translate_fn,
    _slopes,
)
from dyncomp.regions import CylinderRegion, Region, translate_region
from dyncomp.scalars import ExactScalar, golden_theta
from dyncomp.systems import Odometer, CircleRotation

R = ExactScalar.rational
GOLDEN = CircleRotation(golden_theta())
THETA = GOLDEN.theta


def closed(system, lo, hi):
    return Region.interval(system, lo, hi)


def open_arc(system, lo, hi):
    return Region.interval(system, lo, hi, lo_closed=False, hi_closed=False)


def rand_bump(rng, system, q=64, arcs=1):
    cuts = sorted(rng.sample(range(q), 4 * arcs))
    F = []
    W = []
    for i in range(arcs):
        w_lo, f_lo, f_hi, w_hi = (R(c, q) for c in cuts[4 * i : 4 * i + 4])
        F.append((f_lo, f_hi, True, True))
        W.append((w_lo, w_hi, False, False))
    return bump(Region(system, F), Region(system, W))


def rand_pl(rng, q=64, k=5):
    xs = rng.sample(range(q), k)
    return PLFunction([(R(x, q), R(rng.randrange(-8, 9), 4)) for x in xs])


def test_bump_trapezoid_shape():
    f = bump(closed(GOLDEN, R(1, 4), R(1, 2)), open_arc(GOLDEN, R(1, 8), R(5, 8)))
    assert f.breakpoints == (
        (R(3, 16), R(0)),
        (R(1, 4), R(1)),
        (R(1, 2), R(1)),
        (R(9, 16), R(0)),
    )
    assert f.evaluate(R(3, 8)) == R(1)
    assert f.evaluate(R(1, 8)) == R(0)
    # halfway down the right ramp
    assert f.evaluate(R(17, 32)) == R(1, 2)


def test_bump_zero_and_tent():
    zero = bump(Region.empty(GOLDEN), open_arc(GOLDEN, R(0), R(1, 2)))
    assert zero.breakpoints == ((R(0), R(0)),)
    tent = bump(
        Region.points(GOLDEN, [R(0)]),
        Region(GOLDEN, [(R(7, 8), R(9, 8), False, False)]),
    )
    assert tent.breakpoints == ((R(0), R(1)), (R(1, 16), R(0)), (R(15, 16), R(0)))
    full = bump(closed(GOLDEN, R(1, 4), R(1, 2)), Region.full(GOLDEN))
    assert full.breakpoints == ((R(0), R(1)),)


def test_bump_needs_gap():
    with pytest.raises(NoGap):
        bump(closed(GOLDEN, R(0), R(1, 4)), open_arc(GOLDEN, R(0), R(1, 2)))
    with pytest.raises(NoGap):
        bump(closed(GOLDEN, R(0), R(1, 4)), open_arc(GOLDEN, R(1, 8), R(1, 2)))


def test_pl_combine_trivia():
    rng = random.Random(7)
    f = rand_bump(rng, GOLDEN)
    assert minimum(f, f) == f
    assert sum_of([f, PLFunction.constant(R(0))]) == f
    g1 = rand_bump(rng, GOLDEN)
    g0 = rand_bump(rng, GOLDEN)
    d = difference(g1, g0)
    mn, mx, _ = global_extrema(d)
    assert R(-1) <= mn and mx <= R(1)
    assert maximum(g1, g0) == scale(minimum(scale(g1, R(-1)), scale(g0, R(-1))), R(-1))


def test_min_crossings_and_seam_prune():
    tent = bump(
        Region.points(GOLDEN, [R(0)]),
        Region(GOLDEN, [(R(7, 8), R(9, 8), False, False)]),
    )
    m = minimum(tent, PLFunction.constant(R(1, 2)))
    assert m.breakpoints == (
        (R(1, 32), R(1, 2)),
        (R(1, 16), R(0)),
        (R(15, 16), R(0)),
        (R(31, 32), R(1, 2)),
    )


def test_translate_fn():
    th = GOLDEN.theta
    tent = bump(
        Region.points(GOLDEN, [R(0)]),
        Region(GOLDEN, [(R(7, 8), R(9, 8), False, False)]),
    )
    assert translate_fn(GOLDEN, tent, 0) == tent
    moved = translate_fn(GOLDEN, tent, 1)
    assert moved.breakpoints == (
        (th - R(1, 16), R(0)),
        (th, R(1)),
        (th + R(1, 16), R(0)),
    )
    assert translate_fn(GOLDEN, moved, -1) == tent


def test_support_commutes_with_translate():
    rng = random.Random(3)
    for _ in range(10):
        f = rand_bump(rng, GOLDEN, arcs=2)
        lhs = support_report(GOLDEN, translate_fn(GOLDEN, f, 7)).support
        rhs = translate_region(GOLDEN, support_report(GOLDEN, f).support, 7)
        assert lhs == rhs


def test_support_and_one_set():
    f = bump(closed(GOLDEN, R(1, 4), R(1, 2)), open_arc(GOLDEN, R(1, 8), R(5, 8)))
    rep = support_report(GOLDEN, f)
    assert rep.support == closed(GOLDEN, R(3, 16), R(9, 16))
    assert rep.one_set == closed(GOLDEN, R(1, 4), R(1, 2))
    assert support_of(GOLDEN, f) == rep.support
    zero = PLFunction.constant(R(0))
    rep0 = support_report(GOLDEN, zero)
    assert rep0.support.is_empty and rep0.one_set.is_empty


def test_birkhoff_cocycle():
    rng = random.Random(11)
    g = rand_bump(rng, GOLDEN, arcs=2)
    S7 = birkhoff_sum(GOLDEN, g, 7)
    S3 = birkhoff_sum(GOLDEN, g, 3)
    S4 = birkhoff_sum(GOLDEN, g, 4)
    assert S7 == sum_of([S3, translate_fn(GOLDEN, S4, -3)])


def test_birkhoff_pointwise():
    rng = random.Random(13)
    g = rand_bump(rng, GOLDEN)
    for N in (1, 7, 50):
        SN = birkhoff_sum(GOLDEN, g, N)
        for _ in range(12):
            x = R(rng.randrange(997), 997)
            total = R(0)
            for j in range(N):
                total = total + g.evaluate(GOLDEN.apply(x, j))
            assert SN.evaluate(x) == total


def test_birkhoff_constant_and_budget(monkeypatch):
    S5 = birkhoff_sum(GOLDEN, PLFunction.constant(R(1)), 5)
    assert S5.breakpoints == ((R(0), R(5)),)
    monkeypatch.setenv("DYNCOMP_BP_CAP", "10")
    g = bump(closed(GOLDEN, R(1, 4), R(1, 2)), open_arc(GOLDEN, R(1, 8), R(5, 8)))
    with pytest.raises(BreakpointBudget):
        birkhoff_sum(GOLDEN, g, 5)


def test_extrema_against_sampling():
    rng = random.Random(17)
    for _ in range(5):
        f = rand_pl(rng)
        mn, mx, argmin = global_extrema(f)
        assert f.evaluate(argmin) == mn
        lip = R(0)
        for i in range(len(f.breakpoints)):
            s = abs(f._slope(i))
            if lip < s:
                lip = s
        best_lo = best_hi = f.evaluate(R(0))
        for k in range(1, 1000):
            v = f.evaluate(R(k, 1000))
            if v < best_lo:
                best_lo = v
            if best_hi < v:
                best_hi = v
        assert abs(mn - best_lo) <= lip / 1000
        assert abs(mx - best_hi) <= lip / 1000


def test_extrema_on_region():
    f = bump(closed(GOLDEN, R(1, 4), R(1, 2)), open_arc(GOLDEN, R(1, 8), R(5, 8)))
    assert extrema_on(f, closed(GOLDEN, R(1, 4), R(1, 2))) == (R(1), R(1))
    assert extrema_on(f, closed(GOLDEN, R(5, 8), R(7, 8))) == (R(0), R(0))
    # closure of (17/32, 3/4) picks up the ramp point at 17/32
    assert extrema_on(f, open_arc(GOLDEN, R(17, 32), R(3, 4))) == (R(0), R(1, 2))
    with pytest.raises(EmptyInput):
        extrema_on(f, Region.empty(GOLDEN))


def test_integral():
    tri = PLFunction([(R(0), R(1)), (R(1, 8), R(0)), (R(7, 8), R(0))])
    assert integral(GOLDEN, tri) == R(1, 8)
    assert integral(GOLDEN, PLFunction.constant(R(1))) == R(1)
    rng = random.Random(19)
    for _ in range(10):
        f, g = rand_pl(rng), rand_pl(rng)
        assert integral(GOLDEN, sum_of([f, g])) == integral(
            GOLDEN, f
        ) + integral(GOLDEN, g)
        assert integral(GOLDEN, translate_fn(GOLDEN, f, 5)) == integral(GOLDEN, f)


def test_partition_single_pair():
    F = closed(GOLDEN, R(1, 4), R(1, 2))
    W = open_arc(GOLDEN, R(1, 8), R(5, 8))
    fs = partition_of_unity([(F, W)], F)
    assert fs == [bump(F, W)]
    assert extrema_on(fs[0], F) == (R(1), R(1))


def test_partition_cascade():
    C = closed(GOLDEN, R(0), R(1, 2))
    pairs = [
        (Region(GOLDEN, [(R(7, 8), R(9, 8), True, True)]), Region(GOLDEN, [(R(13, 16), R(19, 16), False, False)])),
        (closed(GOLDEN, R(1, 16), R(5, 16)), open_arc(GOLDEN, R(0), R(3, 8))),
        (closed(GOLDEN, R(1, 4), R(9, 16)), open_arc(GOLDEN, R(3, 16), R(5, 8))),
    ]
    fs = partition_of_unity(pairs, C)
    assert len(fs) == 3
    gs = [bump(F, W) for F, W in pairs]
    one = PLFunction.constant(R(1))
    for j, (f, (F, W)) in enumerate(zip(fs, pairs)):
        mn, mx = f.range_bounds()
        assert R(0) <= mn and mx <= R(1)
        assert W.contains_region(support_report(GOLDEN, f).support)
        # prefix identity: sum of the cascade equals min(1, sum of the bumps)
        lhs = sum_of(fs[: j + 1])
        rhs = minimum(one, sum_of(gs[: j + 1]))
        assert lhs == rhs
    total = sum_of(fs)
    assert extrema_on(total, C) == (R(1), R(1))


def test_partition_failures_and_degenerate():
    C = closed(GOLDEN, R(0), R(1, 2))
    F = closed(GOLDEN, R(1, 4), R(3, 8))
    W = open_arc(GOLDEN, R(1, 8), R(5, 8))
    with pytest.raises(CoverFailure):
        partition_of_unity([(F, W)], C)
    with pytest.raises(CoverFailure):
        partition_of_unity([], C)
    assert partition_of_unity([], Region.empty(GOLDEN)) == []
    fs = partition_of_unity([(F, W)], Region.empty(GOLDEN))
    assert len(fs) == 1


def test_min_cascade_matches_naive():
    rng = random.Random(23)
    one = PLFunction.constant(R(1))
    for _ in range(5):
        gs = [rand_bump(rng, GOLDEN, q=128) for _ in range(6)]
        fast = min_cascade(GOLDEN, gs)
        running = PLFunction.constant(R(0))
        for j, g in enumerate(gs):
            fj = minimum(g, difference(one, running))
            assert fj == fast[j]
            running = sum_of([running, fj])


def test_average_min_approaches_integral():
    g = bump(closed(GOLDEN, R(1, 4), R(1, 2)), open_arc(GOLDEN, R(1, 8), R(5, 8)))
    avg = integral(GOLDEN, g)
    devs = []
    for N in (10, 100):
        mn, _, _ = global_extrema(birkhoff_sum(GOLDEN, g, N))
        devs.append(abs(mn / R(N) - avg))
    assert devs[1] < devs[0]


def test_cylinder_functions():
    odo = Odometer([2, 3], truncation=2)
    ind = CylinderFunction.indicator(CylinderRegion(odo, [0, 4]))
    assert ind.values == (R(1), R(0), R(0), R(0), R(1), R(0))
    moved = ind.translate(1)
    assert moved.values == (R(0), R(1), R(0), R(0), R(0), R(1))
    assert moved.evaluate(5) == R(1)
    rep = support_report(odo, moved)
    assert sorted(rep.support.indices) == [1, 5]
    assert rep.support == rep.one_set
    assert support_of(odo, moved) == rep.support
    assert integral(odo, ind) == R(1, 3)
    tot = ind.add(moved)
    assert tot.range_bounds() == (R(0), R(1))


# -- properties of the linear-time kernel against the evaluate-based oracle


@st.composite
def pl_functions(draw, max_points=6):
    """A PL function through the validating constructor: abscissae k/16 or
    frac(m*theta + r/8) in Q(sqrt 5), values (a + b*sqrt 5)/4."""
    pts = {}
    for _ in range(draw(st.integers(1, max_points))):
        if draw(st.booleans()):
            x = R(draw(st.integers(0, 15)), 16)
        else:
            x = (THETA * R(draw(st.integers(-50, 50))) + R(draw(st.integers(0, 7)), 8)).frac()
        pts[x] = ExactScalar(draw(st.integers(-8, 8)), draw(st.integers(-2, 2)), 4, 5)
    return PLFunction(list(pts.items()))


def assert_canonical(f):
    assert PLFunction(list(f.breakpoints)) == f
    assert f._xs == tuple(x for x, _ in f.breakpoints)


def probe_points(*fns):
    """Every breakpoint abscissa of fns, and the midpoint of each gap between
    consecutive ones (wrapping), where a missed kink would show."""
    xs = sorted({x for f in fns for x in f._xs})
    mids = [(a + b) / 2 for a, b in zip(xs, xs[1:])]
    mids.append(((xs[-1] + xs[0] + 1) / 2).frac())
    return xs + mids


@settings(max_examples=150, deadline=None)
@given(st.lists(pl_functions(), min_size=2, max_size=5))
def test_sum_of_matches_pointwise_sum(fns):
    for args in (fns[:2], fns):
        total = sum_of(args)
        assert_canonical(total)
        for x in probe_points(total, *args):
            assert total.evaluate(x) == sum((f.evaluate(x) for f in args), R(0))


@settings(max_examples=150, deadline=None)
@given(pl_functions(), pl_functions())
def test_min_max_match_pointwise(f, g):
    for op, pick in ((minimum, min), (maximum, max)):
        out = op(f, g)
        assert_canonical(out)
        for x in probe_points(out, f, g):
            assert out.evaluate(x) == pick(f.evaluate(x), g.evaluate(x))


# a breakpoint at frac(-3 theta) lands exactly on the seam 1 - frac(3 theta)
@example(PLFunction([((THETA * R(-3)).frac(), R(1)), (R(1, 2), R(0))]), 3)
@settings(max_examples=150, deadline=None)
@given(pl_functions(), st.integers(-50, 50))
def test_translate_fn_is_a_rotation(f, n):
    moved = translate_fn(GOLDEN, f, n)
    assert_canonical(moved)
    shift = THETA * R(n)
    assert moved == PLFunction([((x + shift).frac(), v) for x, v in f.breakpoints])
    for x in probe_points(f):
        assert moved.evaluate(x + shift) == f.evaluate(x)


@settings(max_examples=60, deadline=None)
@given(pl_functions(max_points=4), st.integers(1, 9))
def test_birkhoff_sum_matches_orbit_sum(g, N):
    S = birkhoff_sum(GOLDEN, g, N)
    assert_canonical(S)
    for x in probe_points(S, g):
        orbit = [g.evaluate(GOLDEN.apply(x, j)) for j in range(N)]
        assert S.evaluate(x) == sum(orbit, R(0))


def slopes_from_breakpoints(f):
    """Segment slopes recomputed from the breakpoints alone."""
    bps = f.breakpoints
    ends = bps[1:] + ((bps[0][0] + 1, bps[0][1]),)
    return [(vb - va) / (xb - xa) for (xa, va), (xb, vb) in zip(bps, ends)]


# the sum's first kink and a rotated copy's wrap both sit on the seam
@example([PLFunction([((THETA * R(-3)).frac(), R(1)), (R(1, 2), R(0))]), PLFunction.constant(R(2))], 3)
@settings(max_examples=150, deadline=None)
@given(st.lists(pl_functions(), min_size=2, max_size=4), st.integers(-50, 50))
def test_carried_slopes_match_breakpoints(fns, n):
    total = sum_of(fns)
    moved = translate_fn(GOLDEN, total, n)
    S = birkhoff_sum(GOLDEN, fns[0], 5)
    for f in (total, moved, S, translate_fn(GOLDEN, S, -n), sum_of([total, moved])):
        assert f._sl is not None  # carried, not recomputed
        assert _slopes(f) == slopes_from_breakpoints(f)
    bare = translate_fn(GOLDEN, fns[1], n)
    assert _slopes(bare) == slopes_from_breakpoints(bare)


def support_by_zero_crossings(f):
    """Closure of {f != 0} from the open nonzero pieces of each segment,
    split at the segment's zero crossing, then closed by a second sweep."""
    bps = f.breakpoints
    if len(bps) == 1:
        return Region.empty(GOLDEN) if bps[0][1].sign() == 0 else Region.full(GOLDEN)
    nz = []
    for i in range(len(bps)):
        xa, va, xb, vb = f._segment(i)
        sa, sb = va.sign(), vb.sign()
        if sa == 0 and sb == 0:
            pass
        elif sa == 0:
            nz.append((xa, xb, False, True))
        elif sb == 0:
            nz.append((xa, xb, True, False))
        elif sa == sb:
            nz.append((xa, xb, True, True))
        else:
            xc = xa + (xb - xa) * (va / (va - vb))
            nz.append((xa, xc, True, False))
            nz.append((xc, xb, False, True))
    return Region(GOLDEN, nz).closure()


@settings(max_examples=150, deadline=None)
@given(pl_functions(), pl_functions())
def test_support_of_matches_zero_crossings(f, g):
    for h in (f, minimum(f, g), sum_of([f, g])):
        assert support_of(GOLDEN, h).pieces == support_by_zero_crossings(h).pieces
