import heapq
import random
from fractions import Fraction
from itertools import repeat
from operator import itemgetter

import pytest
from hypothesis import example, given, settings, strategies as st

from dyncomp.cli import float_birkhoff_min
from dyncomp.errors import BreakpointBudget, EmptyInput, MixedAmbient, NoGap
from dyncomp.plfun import (
    CylinderFunction,
    PLFunction,
    birkhoff_min,
    birkhoff_sum,
    bump,
    difference,
    extrema_on,
    global_extrema,
    global_min,
    integral,
    min_cascade,
    maximum,
    minimum,
    scale,
    support_of,
    sum_of,
    translate_fn,
    trapezoid,
)
from dyncomp.regions import CylinderRegion, Region, translate_region
from dyncomp.scalars import ONE, ZERO, ExactScalar, golden_theta
from dyncomp.systems import Odometer, CircleRotation
from prune_oracle import pruned
from verify_oracle import translated_pieces

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
        lhs = support_of(GOLDEN, translate_fn(GOLDEN, f, 7))
        rhs = translate_region(GOLDEN, support_of(GOLDEN, f), 7)
        assert lhs == rhs


def test_support_of_a_bump():
    f = bump(closed(GOLDEN, R(1, 4), R(1, 2)), open_arc(GOLDEN, R(1, 8), R(5, 8)))
    assert support_of(GOLDEN, f) == closed(GOLDEN, R(3, 16), R(9, 16))
    assert support_of(GOLDEN, PLFunction.constant(R(0))).is_empty


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


def test_birkhoff_constant_and_budget():
    S5 = birkhoff_sum(GOLDEN, PLFunction.constant(R(1)), 5)
    assert S5.breakpoints == ((R(0), R(5)),)
    g = bump(closed(GOLDEN, R(1, 4), R(1, 2)), open_arc(GOLDEN, R(1, 8), R(5, 8)))
    with pytest.raises(BreakpointBudget):
        birkhoff_sum(GOLDEN, g, 5, bp_cap=10)


def test_birkhoff_sum_default_cap_ignores_environment(monkeypatch):
    # S_5 g may need 20 breakpoints; the library reads no environment, so
    # a cap of 10 applies only when passed as bp_cap
    monkeypatch.setenv("DYNCOMP_BP_CAP", "10")
    g = bump(closed(GOLDEN, R(1, 4), R(1, 2)), open_arc(GOLDEN, R(1, 8), R(5, 8)))
    S5 = birkhoff_sum(GOLDEN, g, 5)
    assert S5 == sum_of([birkhoff_sum(GOLDEN, g, 4), translate_fn(GOLDEN, g, -4)])


def test_extrema_against_sampling():
    rng = random.Random(17)
    for _ in range(5):
        f = rand_pl(rng)
        mn, mx, argmin = global_extrema(f)
        assert f.evaluate(argmin) == mn and global_min(f) == mn
        lip = R(0)
        for s in map(abs, slopes_from_breakpoints(f)):
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


def test_global_extrema_takes_the_first_minimum():
    f = PLFunction([(R(0), R(1)), (R(1, 4), R(-1, 2)), (R(1, 2), R(3, 2)), (R(3, 4), R(-1, 2))])
    assert global_extrema(f) == (R(-1, 2), R(3, 2), R(1, 4))
    g = translate_fn(GOLDEN, f, 1)  # minima at theta - 1/4, then at theta + 1/4
    assert global_extrema(g)[2] == GOLDEN.theta - R(1, 4)


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


def seam_function(rng):
    """A bump whose closed support starts exactly at 0 or ends exactly at 1,
    or a trapezoid about a point within 3/64 of 0."""
    kind, k = rng.randrange(3), rng.randrange(2, 40)
    if kind == 0:  # support [0, k/64]
        return PLFunction([(R(0), R(0)), (R(k, 128), R(1)), (R(k, 64), R(0))])
    if kind == 1:  # support [1 - k/64, 1]
        return PLFunction([(R(0), R(0)), (R(64 - k, 64), R(0)), (R(128 - k, 128), R(1))])
    return trapezoid(R(rng.randrange(-192, 193), 4096).frac(), R(k, 160))


def test_min_cascade_matches_naive():
    rng = random.Random(23)
    one = PLFunction.constant(R(1))
    inputs = [[rand_bump(rng, GOLDEN, q=128) for _ in range(6)] for _ in range(5)]
    inputs += [[seam_function(rng) for _ in range(6)] for _ in range(30)]
    for gs in inputs:
        fast = min_cascade(GOLDEN, gs)
        assert min_cascade(GOLDEN, fast) == fast
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
    assert sorted(support_of(odo, moved).indices) == [1, 5]
    assert integral(odo, ind) == R(1, 3)
    assert moved.range_bounds() == (R(0), R(1))
    ramp = translate_fn(odo, CylinderFunction(range(1, 7)), 2)
    assert ramp.values == tuple(map(R, (5, 6, 1, 2, 3, 4)))


# -- properties of the linear-time kernel against the evaluate-based oracle


def flat_values(D):
    """Only the values 0, 1 and (1 + sqrt D)/4, so that flat segments, the
    one wrapping 1 -> 0 among them, are common and most are not 0."""
    return st.sampled_from((ZERO, ONE, ExactScalar(1, 1, 4, D)))


@st.composite
def pl_functions(draw, max_points=6, values=None):
    """A PL function through the validating constructor: abscissae k/16 or
    frac(m*theta + r/8) in Q(sqrt 5), values (a + b*sqrt 5)/4, or drawn
    from values when given."""
    pts = {}
    for _ in range(draw(st.integers(1, max_points))):
        if draw(st.booleans()):
            x = R(draw(st.integers(0, 15)), 16)
        else:
            x = (THETA * R(draw(st.integers(-50, 50))) + R(draw(st.integers(0, 7)), 8)).frac()
        if values is None:
            pts[x] = ExactScalar(draw(st.integers(-8, 8)), draw(st.integers(-2, 2)), 4, 5)
        else:
            pts[x] = draw(values)
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


@settings(max_examples=300, deadline=None)
@given(st.lists(pl_functions() | pl_functions(values=flat_values(5)), min_size=2, max_size=5))
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


def jumps_from_breakpoints(f):
    """Slope jumps recomputed from the breakpoints alone."""
    s = slopes_from_breakpoints(f)
    return [s[i] - s[i - 1] for i in range(len(s))]


# the sum's first kink and a rotated copy's wrap both sit on the seam
@example([PLFunction([((THETA * R(-3)).frac(), R(1)), (R(1, 2), R(0))]), PLFunction.constant(R(2))], 3)
@settings(max_examples=150, deadline=None)
@given(st.lists(pl_functions(), min_size=2, max_size=4), st.integers(-50, 50))
def test_carried_jumps_match_breakpoints(fns, n):
    total = sum_of(fns)
    moved = translate_fn(GOLDEN, total, n)
    S = birkhoff_sum(GOLDEN, fns[0], 5)
    for f in (total, moved, S, translate_fn(GOLDEN, S, -n), sum_of([total, moved])):
        assert f._jp is not None  # carried, not recomputed
        assert f.jumps == jumps_from_breakpoints(f)
    bare = translate_fn(GOLDEN, fns[1], n)
    assert bare.jumps == jumps_from_breakpoints(bare)


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


# -- the jump-form kernel against the slope-form kernel it replaced, over
# Q(sqrt 2), Q(sqrt 5) and Q(sqrt 13)

ROTATIONS = {D: CircleRotation(ExactScalar(0, 1, 1, D).frac()) for D in (2, 5, 13)}


def slope_merged(fns):
    """The merged abscissae with their owners, by a k-way heapq merge."""
    streams = [zip(f._xs, repeat(fi), range(len(f._xs))) for fi, f in enumerate(fns)]
    at, owners = None, []
    for x, fi, i in heapq.merge(*streams, key=itemgetter(0)):
        if owners and x == at:
            owners.append((fi, i))
            continue
        if owners:
            yield at, owners
        at, owners = x, [(fi, i)]
    yield at, owners


def slope_sum_of(fns):
    """sum_of in its slope form: at each merged abscissa the new slope is
    the old one plus each owner's slope difference, kept where it changes."""
    if len(fns) == 1:
        return fns[0]
    x0 = min(f._xs[0] for f in fns)
    slopes = [slopes_from_breakpoints(f) for f in fns]
    value = sum((f.evaluate(x0) for f in fns), ZERO)
    slope = sum((s[-1] for s in slopes), ZERO)
    out, kinks, at = [], [], x0
    for x, owners in slope_merged(fns):
        new = slope
        for fi, i in owners:
            new = new + (slopes[fi][i] - slopes[fi][i - 1])
        if new != slope:
            value = value + slope * (x - at)
            at = x
            out.append((x, value))
            kinks.append(new - slope)
            slope = new
    return PLFunction._canonical(out or [(ZERO, value)], kinks or [ZERO])


def support_by_segments(system, f):
    """support_of in its constructor form: every segment with a nonzero
    end, closed, put through the sweeping Region constructor."""
    bps = f.breakpoints
    if len(bps) == 1:
        return Region.empty(system) if bps[0][1].sign() == 0 else Region.full(system)
    arcs = []
    for i in range(len(bps)):
        xa, va, xb, vb = f._segment(i)
        if va.sign() != 0 or vb.sign() != 0:
            arcs.append((xa, xb, True, True))
    return Region(system, arcs)


def field_abscissa(draw, theta):
    """0, k/8, frac(m theta), a point just below 1, or frac(m theta + r/8):
    a small pool, so that functions share abscissae and segments wrap the
    seam."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return R(draw(st.integers(0, 7)), 8)
    if kind == 1:
        return (theta * R(draw(st.integers(-3, 3)))).frac()
    if kind == 2:
        return ONE - theta / R(draw(st.integers(2, 64)))
    return (theta * R(draw(st.integers(-40, 40))) + R(draw(st.integers(0, 7)), 8)).frac()


@st.composite
def field_functions(draw, D, max_points=5, values=None):
    """A PL function over Q(sqrt D) through the validating constructor,
    with values (a + b sqrt D)/4 that are often 0, or drawn from values
    when given; one in five a constant."""
    theta = ROTATIONS[D].theta
    if draw(st.integers(0, 4)) == 0:
        return PLFunction.constant(ExactScalar(draw(st.integers(-4, 4)), 0, 2))
    pts = {}
    for _ in range(draw(st.integers(1, max_points))):
        if values is not None:
            v = draw(values)
        elif draw(st.booleans()):
            v = ZERO
        else:
            v = ExactScalar(draw(st.integers(-8, 8)), draw(st.integers(-2, 2)), 4, D)
        pts[field_abscissa(draw, theta)] = v
    return PLFunction(list(pts.items()))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(ROTATIONS)), st.data())
def test_jump_sum_matches_slope_sum_and_pointwise(D, data):
    system = ROTATIONS[D]
    fns = data.draw(st.lists(field_functions(D), min_size=2, max_size=5))
    if data.draw(st.booleans()):
        fns.append(scale(fns[0], -1))  # cancels the first one's kinks
    n = data.draw(st.integers(-30, 30))
    total = sum_of(fns)
    assert total.breakpoints == slope_sum_of(fns).breakpoints
    assert_canonical(total)
    for x in probe_points(total, *fns):
        assert total.evaluate(x) == sum((f.evaluate(x) for f in fns), ZERO)
    assert sum_of([fns[0], scale(fns[0], -1)]) == PLFunction.constant(ZERO)
    assert sum_of(fns + [scale(total, -1)]) == PLFunction.constant(ZERO)
    for f in (total, translate_fn(system, total, n), birkhoff_sum(system, fns[1], 3),
              scale(total, R(-3, 2))):
        assert f._jp is not None
        assert f.jumps == jumps_from_breakpoints(f)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(ROTATIONS)), st.data())
def test_support_of_matches_the_constructor_form(D, data):
    system = ROTATIONS[D]
    f, g = data.draw(field_functions(D)), data.draw(field_functions(D))
    n = data.draw(st.integers(-30, 30))
    for h in (f, translate_fn(system, f, n), sum_of([f, g]), minimum(f, g)):
        assert support_of(system, h).pieces == support_by_segments(system, h).pieces


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(ROTATIONS)), st.data())
def test_translated_pieces_match_the_translated_support(D, data):
    # the old verifier's rotation of support arcs (tests/verify_oracle.py)
    # against the region's, and against the support of the rotated
    # function, which moves breakpoints
    system = ROTATIONS[D]
    f, g = data.draw(field_functions(D)), data.draw(field_functions(D))
    d, e = data.draw(st.integers(-40, 40)), data.draw(st.integers(-40, 40))
    pieces = set()
    for h, n in ((f, d), (g, d), (f, e)):
        moved = translate_region(system, support_of(system, h), n).pieces
        assert set(translated_pieces(system, [(h, n)])) == set(moved)
        assert moved == support_of(system, translate_fn(system, h, n)).pieces
        pieces.update(moved)
    assert set(translated_pieces(system, [(f, d), (g, d), (f, e)])) == pieces


# -- exact window minima against the built sum and the float orbit sum


@st.composite
def window_functions(draw, D, values=None):
    """g over Q(sqrt D): a constant, one kink of each sign, breakpoints on
    one orbit (x, frac(x + m theta), ...) or any field_functions draw; the
    first three with an abscissa at 0 half the time.  The seam segment is
    sloped whenever the first and last values differ.  Values are drawn
    from values when given."""
    theta = ROTATIONS[D].theta

    def value():
        if values is not None:
            return draw(values)
        return ExactScalar(draw(st.integers(-8, 8)), draw(st.integers(-2, 2)), 4, D)

    shape = draw(st.sampled_from(("constant", "one kink", "one orbit", "any")))
    if shape == "any":
        return draw(field_functions(D, values=values))
    if shape == "constant":
        return PLFunction.constant(value())
    x = field_abscissa(draw, theta)
    if shape == "one kink":
        xs = [x, field_abscissa(draw, theta)]
    else:
        ms = draw(st.lists(st.integers(-40, 40), min_size=1, max_size=3))
        xs = [x] + [(x + theta * R(m)).frac() for m in ms]
    if draw(st.booleans()):
        xs.append(ZERO)
    return PLFunction([(x, value()) for x in set(xs)])


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(ROTATIONS)), st.data())
def test_birkhoff_min_matches_the_built_sum(D, data):
    system = ROTATIONS[D]
    g = data.draw(window_functions(D) | window_functions(D, flat_values(D)))
    N = data.draw(st.integers(1, 12) | st.integers(13, 300))
    low, _, argmin = global_extrema(birkhoff_sum(system, g, N))
    assert birkhoff_min(system, g, N) == low
    # the float orbit sum from the argmin comes within 1e-9 of low / N,
    # and from nowhere else below it
    rng = random.Random(N)
    starts = [float(argmin)] + [rng.random() for _ in range(8)]
    assert abs(float_birkhoff_min(system, g, N, starts) - float(low) / N) <= 1e-9


def test_birkhoff_min_errors():
    g = PLFunction([(ZERO, ZERO), (R(1, 2), ONE)])
    for N in (0, -3):
        with pytest.raises(ValueError):
            birkhoff_min(GOLDEN, g, N)
    with pytest.raises(MixedAmbient):
        birkhoff_min(Odometer([2, 3], truncation=2), g, 3)
    root2 = ROTATIONS[2].theta
    for mixed in (PLFunction([(ZERO, ZERO), (root2, ONE)]),
                  PLFunction([(ZERO, ZERO), (R(1, 2), root2)])):
        with pytest.raises(ValueError, match="incompatible quadratic fields"):
            birkhoff_sum(GOLDEN, mixed, 3)
        with pytest.raises(ValueError, match="incompatible quadratic fields"):
            birkhoff_min(GOLDEN, mixed, 3)


# -- the one-pass constructor against the collinear-pruning one it replaced


@st.composite
def breakpoint_lists(draw, D, values=None):
    """Raw breakpoint lists over Q(sqrt D), shuffled: a constant through
    several points, one point away from 0, or a few points with collinear
    runs inserted into their segments, the one that wraps 1 -> 0 included;
    some lists are then spoiled by an empty list, a duplicate abscissa or
    an abscissa outside [0, 1).  Values are drawn from values when given."""
    theta = ROTATIONS[D].theta

    def value():
        if values is not None:
            return draw(values)
        if draw(st.booleans()):
            return ZERO
        return ExactScalar(draw(st.integers(-8, 8)), draw(st.integers(-2, 2)), 4, D)

    kind = draw(st.integers(0, 5))
    if kind == 0:
        v = value()
        pts = {field_abscissa(draw, theta): v for _ in range(draw(st.integers(1, 5)))}
    elif kind == 1:
        pts = {R(draw(st.integers(1, 7)), 8) if draw(st.booleans())
               else ONE - theta / R(draw(st.integers(2, 64))): value()}
    else:
        pts = {field_abscissa(draw, theta): value() for _ in range(draw(st.integers(1, 5)))}
        bps = sorted(pts.items(), key=itemgetter(0))
        for _ in range(draw(st.integers(0, 4))):
            # index -1 is the segment through the seam
            i = draw(st.integers(-1, len(bps) - 1)) % len(bps)
            xa, va = bps[i]
            xb, vb = bps[i + 1] if i + 1 < len(bps) else (bps[0][0] + ONE, bps[0][1])
            for _ in range(draw(st.integers(1, 3))):
                t = R(draw(st.integers(1, 15)), 16)
                pts[(xa + (xb - xa) * t).frac()] = va + (vb - va) * t
    pts = draw(st.permutations(list(pts.items())))
    spoil = draw(st.integers(0, 7))
    if spoil == 0:
        return []
    if spoil == 1:
        return pts + [(draw(st.sampled_from(pts))[0], value())]
    if spoil == 2:
        return pts + [(draw(st.sampled_from([ONE, -theta / 8, theta + 1])), value())]
    return pts


def assert_matches_the_pruning_oracle(pts):
    try:
        bps, jumps = pruned(pts)
    except (EmptyInput, ValueError) as want:
        with pytest.raises(type(want)) as got:
            PLFunction(pts)
        assert str(got.value) == str(want)
        return
    f = PLFunction(pts)
    assert f.breakpoints == bps
    assert f._xs == tuple(x for x, _ in bps)
    assert f.jumps == jumps
    assert (len(bps) == 1) == all(v == bps[0][1] for _, v in pts)


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(sorted(ROTATIONS)), st.data())
def test_constructor_matches_the_pruning_oracle(D, data):
    pts = data.draw(breakpoint_lists(D) | breakpoint_lists(D, flat_values(D)))
    assert_matches_the_pruning_oracle(pts)
    try:
        f = PLFunction(pts)
    except (EmptyInput, ValueError):
        return
    # the sum's preamble takes the value of f's wrap segment, flat or not
    assert sum_of([f, PLFunction.constant(ZERO)]) == f


def test_constructor_checks_the_range_before_duplicates():
    # a list that is already increasing skips the sort and the duplicate
    # scan; any list with an abscissa outside [0, 1) is refused for that
    # first, a duplicate in it or not
    for pts in ([(ZERO, ZERO), (R(1, 2), ONE), (ONE, ZERO)],
                [(R(1, 2), ONE), (ZERO, ZERO), (R(1, 2), ZERO), (R(5, 4), ONE)],
                [(R(-1, 4), ONE), (R(1, 2), ZERO), (R(1, 2), ONE)]):
        with pytest.raises(ValueError) as got:
            PLFunction(pts)
        assert str(got.value) == "breakpoint abscissae must lie in [0, 1)"
    with pytest.raises(ValueError) as got:
        PLFunction([(R(1, 2), ONE), (ZERO, ZERO), (R(1, 2), ZERO)])
    assert str(got.value) == "duplicate breakpoint abscissa ExactScalar(1/2)"


def test_constructor_matches_the_pruning_oracle_on_fixed_lists():
    square = [(ZERO, ZERO), (R(1, 4), ONE), (R(1, 2), ZERO), (R(3, 4), -ONE)]
    # kinks at 1/4 and 3/4 only: the rising run passes through the seam
    seam = [(R(7, 8), R(-1, 8)), (R(1, 8), R(1, 8)), (ZERO, ZERO), (R(1, 4), R(1, 4)),
            (R(1, 2), ZERO), (R(3, 4), R(-1, 4))]
    for pts in (square, seam, [(R(1, 3), R(2))], [(ZERO, ONE), (R(1, 2), ONE)], [],
                square + [(R(1, 2), ONE)], seam + [(ONE, ZERO)], [(R(-1, 2), ZERO)]):
        assert_matches_the_pruning_oracle(pts)
    assert PLFunction(seam).breakpoints == ((R(1, 4), R(1, 4)), (R(3, 4), R(-1, 4)))
