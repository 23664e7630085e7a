"""Exact piecewise-linear functions on the circle.

A PLFunction is a finite breakpoint list ((x, value), ...) with abscissae
strictly increasing in [0, 1); between consecutive breakpoints the function
interpolates linearly, wrapping 1 -> 0.  Everything is ExactScalar, so
lattice operations, Birkhoff sums, extrema, integrals, bumps and the
min-cascade come out with no rounding at all.

Odometer analogues are locally constant: CylinderFunction holds one exact
value per level-n cylinder and the PL machinery degenerates to vectors.
"""

import bisect
import heapq
import math
from itertools import repeat
from operator import itemgetter

from .errors import (
    BreakpointBudget,
    EmptyInput,
    MixedAmbient,
    NoGap,
)
from .scalars import ExactScalar, Lattice, ONE, ZERO, _reduced, _sign_surd, dyadic_keys
from .systems import CircleRotation, Odometer
from .regions import CylinderRegion, Region, _cut_last


class PLFunction:
    """Continuous piecewise-linear function on the circle, canonical form.

    The constructor works out each segment's slope once and keeps a
    breakpoint only where the slopes on its two sides differ, storing
    those differences as the jumps; so equal functions have identical
    breakpoint tuples, and constants normalize to ((0, c),).
    """

    __slots__ = ("breakpoints", "_xs", "_jp")

    def __init__(self, breakpoints):
        pts = [(ExactScalar.coerce(x), ExactScalar.coerce(v)) for x, v in breakpoints]
        if not pts:
            raise EmptyInput("a PL function needs at least one breakpoint")
        # a list already strictly increasing needs no sort and has no
        # duplicate; any other is sorted and scanned after the range check
        ordered = all(a[0] < b[0] for a, b in zip(pts, pts[1:]))
        if not ordered:
            pts.sort(key=itemgetter(0))
        top = pts[-1][0]
        if pts[0][0].sign() < 0 or top.cmp_int(1) >= 0:
            raise ValueError("breakpoint abscissae must lie in [0, 1)")
        if not ordered:
            for (x0, _), (x1, _) in zip(pts, pts[1:]):
                if x0 == x1:
                    raise ValueError("duplicate breakpoint abscissa %r" % (x0,))
        fields = {s.D for p in pts for s in p if s.b}
        if len(fields) > 1:
            raise ValueError("incompatible quadratic fields D=%d, D=%d" % tuple(sorted(fields))[:2])
        D = fields.pop() if fields else 1
        # each segment's slope, the one wrapping 1 -> 0 last, zero on a flat
        # segment; a breakpoint stays where the slopes on its two sides
        # differ, and a jump next to a zero slope is a copy or a negation
        ends = pts[1:] + [(pts[0][0] + 1, pts[0][1])]
        s = [ZERO if va == vb else _slope(xa, va, xb, vb, D)
             for (xa, va), (xb, vb) in zip(pts, ends)]
        jp = [(b - a if b else -a) if a else b for a, b in zip(s[-1:] + s, s)]
        kinks = [i for i, j in enumerate(jp) if j]
        if kinks:
            pts, jp = [pts[i] for i in kinks], [jp[i] for i in kinks]
        else:
            pts, jp = [(ZERO, pts[0][1])], [ZERO]
        object.__setattr__(self, "breakpoints", tuple(pts))
        object.__setattr__(self, "_xs", tuple(p[0] for p in pts))
        object.__setattr__(self, "_jp", jp)

    @classmethod
    def _canonical(cls, pts, jumps) -> "PLFunction":
        """A PLFunction from breakpoints that are canonical by construction:
        exact, abscissae strictly increasing in [0, 1), the slope changing
        at every one of them (or the single point (0, c)).  Skips the
        sort, the duplicate check and the slope pass of the public
        constructor; anything parsed or hand-built goes through that.
        jumps are the slope jumps at pts, which the caller knows."""
        f = object.__new__(cls)
        object.__setattr__(f, "breakpoints", tuple(pts))
        object.__setattr__(f, "_xs", tuple(p[0] for p in pts))
        object.__setattr__(f, "_jp", jumps)
        return f

    def __setattr__(self, name, value):
        raise AttributeError("PLFunction is immutable")

    @classmethod
    def constant(cls, v) -> "PLFunction":
        return cls._canonical([(ZERO, ExactScalar.coerce(v))], [ZERO])

    def __eq__(self, other):
        if not isinstance(other, PLFunction):
            return NotImplemented
        return self.breakpoints == other.breakpoints

    def __hash__(self):
        return hash(self.breakpoints)

    def __repr__(self):
        inner = ", ".join("(%s, %s)" % (x, v) for x, v in self.breakpoints)
        return "PLFunction([%s])" % inner

    def _segment(self, i):
        """Endpoints of segment i in lifted coordinates."""
        bps = self.breakpoints
        xa, va = bps[i]
        if i + 1 < len(bps):
            xb, vb = bps[i + 1]
        else:
            xb, vb = bps[0][0] + ONE, bps[0][1]
        return xa, va, xb, vb

    @property
    def jumps(self):
        """The slope jump at each breakpoint (zero only for a constant),
        worked out by every construction."""
        return self._jp

    def evaluate(self, x) -> ExactScalar:
        x = ExactScalar.coerce(x).frac()
        bps = self.breakpoints
        if len(bps) == 1:
            return bps[0][1]
        if x < bps[0][0]:
            x = x + ONE
            i = len(bps) - 1
        else:
            i = bisect.bisect_right(self._xs, x) - 1
        xa, va, xb, vb = self._segment(i)
        if x == xa:
            return va
        return va + (vb - va) * (x - xa) / (xb - xa)

    def range_bounds(self):
        """(min, max) over the whole circle; attained at breakpoints."""
        return global_extrema(self)[:2]


def _slope(xa, va, xb, vb, D):
    """(vb - va) / (xb - xa) for xa != xb, all four in Q(sqrt(D)), with one
    normalization: the differences (P + Q sqrt(D))/cv and (R + S sqrt(D))/cx
    stay integers, and the quotient is taken through the conjugate."""
    P, Q = vb.a * va.c - va.a * vb.c, vb.b * va.c - va.b * vb.c
    R, S = xb.a * xa.c - xa.a * xb.c, xb.b * xa.c - xa.b * xb.c
    cx = xa.c * xb.c
    return _reduced((P * R - Q * S * D) * cx, (Q * R - P * S) * cx,
                    (R * R - S * S * D) * va.c * vb.c, D)


def support_arcs(f):
    """The closure of {f != 0} for a PL function f as closed lifted arcs
    (lo, hi, True, True), lo in [0, 1) and in order, read from the signs
    of its breakpoint values; None when it is the whole circle.

    f is linear on each segment, so it vanishes at no more than one point
    of a segment with a nonzero end: the closure holds the whole segment.
    Each run of such segments is one arc; zero segments have positive
    length, so the arcs are separated.  A run through the segment that
    wraps 1 -> 0 takes in the run from the first breakpoint, and comes
    last, ending past 1.
    """
    bps = f.breakpoints
    if len(bps) == 1:
        return [] if bps[0][1].sign() == 0 else None
    nonzero = [bool(v) for _, v in bps]
    held = [a or b for a, b in zip(nonzero, nonzero[1:] + nonzero[:1])]
    if all(held):
        return None
    arcs, lo = [], None
    for x, h in zip(f._xs, held):
        if h and lo is None:
            lo = x
        elif not h and lo is not None:
            arcs.append((lo, x, True, True))
            lo = None
    if lo is not None:  # the last run passes 1
        hi = arcs.pop(0)[1] if held[0] else bps[0][0]
        arcs.append((lo, hi + 1, True, True))
    return arcs


def support_of(system, f):
    """Closure of {f != 0}: a CylinderRegion for a cylinder function, a
    closed Region, `support_arcs` cut at the seam, for a PL function."""
    if isinstance(f, CylinderFunction):
        return CylinderRegion(system, [i for i, v in enumerate(f.values) if v.sign() != 0])
    arcs = support_arcs(f)
    if arcs is None:
        return Region.full(system)
    return Region._make(system, _cut_last(arcs))


# -- lattice and linear operations


def scale(f, c) -> PLFunction:
    """c * f, exactly; a nonzero c keeps every kink, so nothing is pruned."""
    c = ExactScalar.coerce(c)
    if not c:
        return PLFunction.constant(ZERO)
    return PLFunction._canonical([(x, v * c) for x, v in f.breakpoints],
                                 [j * c for j in f.jumps])


def difference(f, g) -> PLFunction:
    """f - g, exactly."""
    return sum_of([f, scale(g, -1)])


def _wrap_slope(f):
    """Slope of f's segment that wraps 1 -> 0 (0 for a constant, or when
    the segment is flat)."""
    (xa, va), (xb, vb) = f.breakpoints[-1], f.breakpoints[0]
    return ZERO if va == vb else (vb - va) / (xb + ONE - xa)


def _merged(fns):
    """The distinct abscissae of fns in increasing order, each paired with
    the (function index, breakpoint index) pairs that sit on it.

    One sort of all the abscissae by their `dyadic_keys`, tagged with their
    owners; equal keys are equal abscissae.
    """
    tagged = []
    for fi, f in enumerate(fns):
        tagged += zip(f._xs, repeat(fi), range(len(f._xs)))
    keys = dyadic_keys([t[0] for t in tagged])
    owners = []
    last = None
    for key, j in sorted(zip(keys, range(len(tagged)))):
        x, fi, i = tagged[j]
        if key != last:
            if owners:
                yield at, owners
                owners = []
            at, last = x, key
        owners.append((fi, i))
    if owners:
        yield at, owners


def sum_of(fns) -> PLFunction:
    """Exact sum of many PL functions by one sweep over their merged
    breakpoints.

    The total slope changes only at the inputs' breakpoints, by the sum of
    their jumps there, so the sum's canonical breakpoints are the merged
    abscissae where that sum is not zero.  A breakpoint with one owner
    keeps the owner's jump as it is: it is never zero, because constants,
    whose one jump is zero, only add to the value and are not merged.
    The sweep starts on the segment that wraps into the first abscissa.
    Where the result is known it does no arithmetic: a flat wrap segment
    adds only its value, and nothing when that is 0; the value moves only
    while the running slope is not 0; two opposite jumps cancel.
    """
    fns = list(fns)
    if not fns:
        raise EmptyInput("sum of no functions")
    if len(fns) == 1:
        return fns[0]
    value = sum((f.breakpoints[0][1] for f in fns if len(f._xs) == 1), ZERO)
    kinked = [f for f in fns if len(f._xs) > 1]
    merged = list(_merged(kinked))
    x0 = merged[0][0] if merged else ZERO
    jumps = [f.jumps for f in kinked]
    slope = ZERO
    for f in kinked:
        (xa, va), (xb, vb) = f.breakpoints[-1], f.breakpoints[0]
        if va == vb:
            if va:
                value = value + va
            continue
        s = (vb - va) / (xb + ONE - xa)
        slope = slope + s
        value = value + (vb if xb == x0 else va + s * (x0 + ONE - xa))
    out = []
    kept = []
    at = x0
    for x, owners in merged:
        fi, i = owners[0]
        jump = jumps[fi][i]
        if len(owners) > 1:
            if len(owners) == 2:
                fi, i = owners[1]
                other = jumps[fi][i]
                if (jump.a == -other.a and jump.b == -other.b and jump.c == other.c
                        and jump.D == other.D):
                    continue
                jump = jump + other
            else:
                for fi, i in owners[1:]:
                    jump = jump + jumps[fi][i]
                if not jump:
                    continue
        if slope:
            value = value + slope * (x - at)
            slope = slope + jump
        else:
            slope = jump
        at = x
        out.append((x, value))
        kept.append(jump)
    if not out:
        return PLFunction.constant(value)
    return PLFunction._canonical(out, kept)


def _walk(f, fi, merged):
    """f at every merged abscissa, walking along f's segments once."""
    bps, jumps = f.breakpoints, f.jumps
    xa, va = bps[-1]
    xa = xa - ONE
    slope = _wrap_slope(f)
    out = []
    for x, owners in merged:
        for gi, i in owners:
            if gi == fi:
                xa, va = bps[i]
                slope = slope + jumps[i] if slope else jumps[i]
                out.append(va)
                break
        else:
            out.append(va + slope * (x - xa) if slope else va)
    return out


def minimum(f, g) -> PLFunction:
    """Pointwise min; its breakpoints are the operands' plus exactly the
    abscissae where they cross."""
    merged = list(_merged((f, g)))
    fv = _walk(f, 0, merged)
    gv = _walk(g, 1, merged)
    diff = [a - b for a, b in zip(fv, gv)]
    signs = [d.sign() for d in diff]
    n = len(merged)
    out = []
    for j in range(n):
        xa, fa = merged[j][0], fv[j]
        out.append((xa, fa if signs[j] < 0 else gv[j]))
        k = j + 1 if j + 1 < n else 0
        if signs[j] * signs[k] < 0:
            xb = merged[k][0] if k else merged[0][0] + ONE
            t = diff[j] / (diff[j] - diff[k])
            out.append(((xa + (xb - xa) * t).frac(), fa + (fv[k] - fa) * t))
    return PLFunction(out)


def maximum(f, g) -> PLFunction:
    """Pointwise max, as -min(-f, -g)."""
    return scale(minimum(scale(f, -1), scale(g, -1)), -1)


def translate_fn(system, f, n: int):
    """f composed with the inverse n-th iterate: breakpoints move by +n*theta."""
    n = int(n)
    if isinstance(system, Odometer):
        return f.translate(n)
    if not isinstance(system, CircleRotation):
        raise MixedAmbient("translate_fn needs a circle rotation or odometer")
    bps = f.breakpoints
    if n == 0 or len(bps) == 1:
        return f
    # rotation: the points at or past 1 - shift wrap round to the front
    shift = (system.theta * ExactScalar.rational(n)).frac()
    k = bisect.bisect_left(f._xs, ONE - shift)
    back = shift - ONE
    jp = f.jumps
    return PLFunction._canonical(
        [(x + back, v) for x, v in bps[k:]] + [(x + shift, v) for x, v in bps[:k]],
        jp[k:] + jp[:k],
    )


DEFAULT_BP_CAP = 10**7


def check_bp_budget(g, N: int, cap: int) -> None:
    """Raise BreakpointBudget when N * |breakpoints of g| exceeds the cap.

    That product bounds the breakpoints of S_N g, which birkhoff_sum
    builds, and half the orbit terms birkhoff_min sums (2N - 1 for each
    breakpoint with a positive jump), so the one bound is the work budget
    of both."""
    if N * len(g.breakpoints) > cap:
        raise BreakpointBudget(
            "S_%d would need up to %d breakpoints (cap %d)" % (N, N * len(g.breakpoints), cap)
        )


def _birkhoff_window(system, N) -> int:
    """The window length N as an int, once system is a circle rotation and
    N >= 1."""
    if not isinstance(system, CircleRotation):
        raise MixedAmbient("Birkhoff sums are built over circle rotations")
    N = int(N)
    if N < 1:
        raise ValueError("Birkhoff sum needs N >= 1")
    return N


def birkhoff_sum(system, g, N: int, bp_cap=DEFAULT_BP_CAP) -> PLFunction:
    """Unnormalized sum S_N g = sum_{j<N} g o h^j, by cocycle doubling;
    BreakpointBudget if S_N may need more than bp_cap breakpoints."""
    N = _birkhoff_window(system, N)
    check_bp_budget(g, N, bp_cap)
    S = g
    cur = 1
    for bit in bin(N)[3:]:
        S = sum_of([S, translate_fn(system, S, -cur)])
        cur *= 2
        if bit == "1":
            S = sum_of([S, translate_fn(system, g, -cur)])
            cur += 1
    return S


def birkhoff_min(system, g, N: int) -> ExactScalar:
    """The exact minimum of S_N g, without building S_N.

    A constant g gives N * c.  Otherwise S_N g is least at a breakpoint
    whose total slope jump is positive (or it is constant, and any point
    will do).  Such a point is x_i - j * theta for a breakpoint x_i of g
    with a positive jump and 0 <= j < N, since a positive sum of jumps needs
    a positive term; there S_N g is the sum of a_u = g(x_i + u * theta)
    over -j <= u <= N - 1 - j.  So the minimum is the least sum of N
    consecutive terms of the 2N - 1 terms -N < u < N, over those x_i.

    The orbit runs on an integer lattice: with L the common denominator of
    theta and g's abscissae, a point is a pair (A, B) standing for
    (A + B sqrt(D)) / L, and a step adds theta's pair.  On each segment g
    is affine in (A, B) with integer coefficients over one denominator M,
    so every term and window sum is an integer pair over M; the one scalar
    built is the least.

    The walk knows its segment.  The cuts 0 <= x_0 < ... < x_{n-1} < 1 and
    the same cuts plus 1 split [0, 2) into pieces, the p-th of [0, 1)
    holding the points with p breakpoints at or below them.  A point of
    piece p moves by theta into the lifted pieces from the one holding
    c_p + theta, c_p the piece's left end, and passes only the cuts below
    c_{p+1} + theta, worked out once by one merge.  So a step tests the new
    point against those cuts in order, most often one, and a piece past
    [0, 1) wraps by subtracting L.  Each test is the sign rule of
    `_sign_surd` written out, with no call per term or window.
    """
    N = _birkhoff_window(system, N)
    bps = g.breakpoints
    if len(bps) == 1:
        return bps[0][1] * N
    theta = system.theta
    lattice = Lattice([theta] + [x for x, _ in bps])
    lattice.extend(v for _, v in bps)  # only refuses a value from another field
    L, D = lattice.L, lattice.D
    TA, TB = lattice.pair(theta)
    xs = [lattice.pair(x) for x, _ in bps]
    n = len(bps)
    # the slope of the segment each breakpoint starts; the last wraps 1 -> 0
    slopes = [ZERO if va == vb else (vb - va) / (xb - xa)
              for (xa, va), (xb, vb) in zip(bps, bps[1:])]
    slopes.append(_wrap_slope(g))
    M = math.lcm(*(v.c for _, v in bps), *(s.c * L for s in slopes))
    # rows[p] writes g(y) * M on piece p as
    # (c0 + c1 A + c2 B) + (e0 + e1 A + e2 B) sqrt(D); rows[0] is the last
    # segment lifted by -1, for y < x_0
    lifted = (xs[-1][0] - L, xs[-1][1])
    rows = []
    for (xa, xb), (_, v), s in zip([lifted] + xs, bps[-1:] + bps, slopes[-1:] + slopes):
        mv, ms = M // v.c, M // (s.c * L)
        c1, e1 = ms * s.a, ms * s.b
        c2 = e1 * D
        rows.append((v.a * mv - c1 * xa - c2 * xb, c1, c2,
                     v.b * mv - e1 * xa - c1 * xb, e1, c1))
    # moves[p]: the lifted piece holding c_p + theta and the cuts a point
    # of piece p may pass after a step
    ends = [(0, 0)] + xs + [(L, 0)]
    cuts = ends[:-1] + [(a + L, b) for a, b in ends[:-1]]
    first, q = [], 0
    for a, b in ends:
        a, b = a + TA, b + TB
        while q + 1 < len(cuts) and _sign_surd(a - cuts[q + 1][0], b - cuts[q + 1][1], D) >= 0:
            q += 1
        first.append(q)
    moves = [(first[p], cuts[first[p] + 1:first[p + 1] + 1]) for p in range(n + 1)]
    best = None
    for (x, _), jump in zip(bps, g.jumps):
        if jump.sign() <= 0:
            continue
        A, B = lattice.pair((x - theta * (N - 1)).frac())
        p = 0
        while p < n and _sign_surd(A - xs[p][0], B - xs[p][1], D) >= 0:
            p += 1
        pa = pb = 0
        PA, PB = [0], [0]  # prefix sums of the terms a_u, u = 1 - N, ...
        for _ in range(2 * N - 1):
            c0, c1, c2, e0, e1, e2 = rows[p]
            pa += c0 + c1 * A + c2 * B
            pb += e0 + e1 * A + e2 * B
            PA.append(pa)
            PB.append(pb)
            A += TA
            B += TB
            q, passing = moves[p]
            for ca, cb in passing:
                u, v = A - ca, B - cb
                if (u < 0 if not v else v < 0 if (u >= 0) == (v > 0)
                        else (u * u > v * v * D) == (v > 0)):  # u + v sqrt(D) < 0
                    break
                q += 1
            if q > n:
                A -= L
                q -= n + 1
            p = q
        for ha, la, hb, lb in zip(PA[N:], PA, PB[N:], PB):
            wa, wb = ha - la, hb - lb
            if best is None:
                best = wa, wb
                continue
            u, v = wa - best[0], wb - best[1]
            if (u < 0 if not v else v < 0 if (u >= 0) == (v > 0)
                    else (u * u > v * v * D) == (v > 0)):
                best = wa, wb
    return _reduced(best[0], best[1], M, D)


def global_extrema(f):
    """(min, max, argmin); PL extrema sit at breakpoints, and argmin is the
    first abscissa where the minimum is attained."""
    argmin, mn = min(f.breakpoints, key=itemgetter(1))
    return mn, max(v for _, v in f.breakpoints), argmin


def global_min(f):
    """The minimum of f, one comparison per breakpoint."""
    return min(v for _, v in f.breakpoints)


def extrema_on(f, region):
    """(inf, sup) of f over the closure of a circle region."""
    if region.is_empty:
        raise EmptyInput("extrema over an empty region")
    cl = region.closure()
    cands = []
    for lo, hi, _, _ in cl.pieces:
        cands.append(f.evaluate(lo))
        if lo != hi:
            cands.append(f.evaluate(hi.frac()))
    for x, v in f.breakpoints:
        if cl.contains_point(x):
            cands.append(v)
    return min(cands), max(cands)


def sum_extrema_on(fns, region):
    """(inf, sup) of the sum of cylinder functions fns over a cylinder
    region, summed only at the region's own indices."""
    if region.is_empty:
        raise EmptyInput("extrema over an empty region")
    totals = [sum((f.values[i] for f in fns), ZERO) for i in region.indices]
    return min(totals), max(totals)


def integral(system, f) -> ExactScalar:
    """Exact Lebesgue integral: sum of trapezoid areas (cylinder average
    for odometer functions)."""
    if isinstance(f, CylinderFunction):
        return sum(f.values, ZERO) / ExactScalar.rational(len(f.values))
    bps = f.breakpoints
    if len(bps) == 1:
        return bps[0][1]
    return sum(((va + vb) * (xb - xa) / 2
                for xa, va, xb, vb in map(f._segment, range(len(bps)))), ZERO)


# -- bumps and the min-cascade


def bump(F, W) -> PLFunction:
    """Trapezoid equal to 1 on the closed set F, supported strictly inside
    the open set W.

    The ramps run across the middle half of each gap between F and the
    boundary of W, so the support closure keeps a positive distance from
    the boundary.
    """
    if F.system is not W.system:
        raise MixedAmbient("bump needs both regions on one system")
    FC = F.closure()
    if FC.is_empty:
        return PLFunction.constant(ZERO)
    if W.is_full:
        return PLFunction.constant(ONE)
    if not W.contains_region(FC):
        raise NoGap("closed set is not inside the open set")
    if FC.intersects(W.complement().closure()):
        raise NoGap("closed set touches the boundary of the open set")
    pts = []
    for a, b, _, _ in W.logical_arcs():
        arc = Region(W.system, [(a, b, False, False)])
        inside = FC.intersect(arc)
        if inside.is_empty:
            continue
        lo = hi = None
        for c, d, _, _ in inside.logical_arcs():
            if not a < c:
                c, d = c + ONE, d + ONE
            if lo is None or c < lo:
                lo = c
            if hi is None or hi < d:
                hi = d
        ramp_lo = a + (lo - a) / 2
        ramp_hi = b - (b - hi) / 2
        pts.append((ramp_lo.frac(), ZERO))
        pts.append((lo.frac(), ONE))
        if lo != hi:
            pts.append((hi.frac(), ONE))
        pts.append((ramp_hi.frac(), ZERO))
    return PLFunction(pts)


def trapezoid(x, w) -> PLFunction:
    """bump([x - w/2, x + w/2], (x - w, x + w)) in closed form, for x in
    [0, 1) and 0 < w <= 1/2: 0 at x -/+ 3w/4 and 1 from x - w/2 to x + w/2."""
    return _trapezoid_at(x, _trapezoid_shape(w))


def _trapezoid_shape(w):
    """What the trapezoids of width w share: the corner offsets k w/4 for
    k = -3, -2, 2, 3, each with its value, and the ramps' slope jumps."""
    q = w / 4
    r = ONE / q
    return ((-3 * q, ZERO), (-2 * q, ONE), (2 * q, ONE), (3 * q, ZERO)), (r, -r, -r, r)


def _trapezoid_at(x, shape) -> PLFunction:
    """`trapezoid(x, w)` from w's `_trapezoid_shape`.  The corners lie within
    3/8 of [0, 1), so one sign test wraps each: a low corner below 0 moves
    past the others, a high one at 1 or more in front of them, and the
    corners start at the least one."""
    corners, jumps = shape
    pts, start = [], 0
    for i, (d, v) in enumerate(corners):
        y = x + d
        if i < 2 and y.sign() < 0:
            y, start = y + 1, i + 1
        elif i > 1 and y.cmp_int(1) >= 0:
            y, start = y - 1, start or i
        pts.append((y, v))
    return PLFunction._canonical(pts[start:] + pts[:start], list(jumps[start:] + jumps[:start]))


def min_cascade(system, gs):
    """f_j = min(g_j, 1 - sum_{i<j} f_i), exactly.

    Only earlier functions whose supports meet supp(g_j) can change the
    minimum there, so the running sum is taken over support neighbours;
    the output functions are identical to the naive left-to-right cascade.
    One sweep by left end finds the neighbours, across the seam too: a
    closed support reaching 1 holds 0 in a piece starting at 0, and those
    pieces come first and all meet.
    """
    gs = list(gs)
    n = len(gs)
    pieces = sorted(((lo, hi, j) for j, g in enumerate(gs)
                     for lo, hi, _, _ in support_of(system, g).pieces),
                    key=lambda t: (t[0], t[1]))
    adj = [set() for _ in range(n)]
    active = []
    for lo, hi, owner in pieces:
        while active and active[0][0] < lo:
            heapq.heappop(active)
        for _, other in active:
            if other != owner:
                adj[owner].add(other)
                adj[other].add(owner)
        heapq.heappush(active, (hi, owner))
    fs = []
    for j in range(n):
        nbrs = sorted(i for i in adj[j] if i < j)
        if not nbrs:
            fs.append(gs[j])
            continue
        s = fs[nbrs[0]] if len(nbrs) == 1 else sum_of([fs[i] for i in nbrs])
        # 1 - s keeps the kinks of s, negated
        rest = PLFunction._canonical([(x, ONE - v) for x, v in s.breakpoints],
                                     [-j for j in s.jumps])
        fs.append(minimum(gs[j], rest))
    return fs


# -- odometer degeneration


class CylinderFunction:
    """Locally constant function on an odometer truncation: one exact
    value per level-n cylinder."""

    __slots__ = ("values",)

    def __init__(self, values):
        vals = tuple(ExactScalar.coerce(v) for v in values)
        if not vals:
            raise EmptyInput("a cylinder function needs at least one value")
        object.__setattr__(self, "values", vals)

    def __setattr__(self, name, value):
        raise AttributeError("CylinderFunction is immutable")

    @classmethod
    def indicator(cls, region: CylinderRegion) -> "CylinderFunction":
        K = region.system.resolution
        return cls([ONE if i in region.indices else ZERO for i in range(K)])

    def __eq__(self, other):
        if not isinstance(other, CylinderFunction):
            return NotImplemented
        return self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return "CylinderFunction([%s])" % ", ".join(str(v) for v in self.values)

    def evaluate(self, index: int) -> ExactScalar:
        return self.values[index % len(self.values)]

    def translate(self, n: int) -> "CylinderFunction":
        K = len(self.values)
        return CylinderFunction([self.values[(i - n) % K] for i in range(K)])

    def range_bounds(self):
        return min(self.values), max(self.values)
