"""Exact piecewise-linear functions on the circle.

A PLFunction is a finite breakpoint list ((x, value), ...) with abscissae
strictly increasing in [0, 1); between consecutive breakpoints the function
interpolates linearly, wrapping 1 -> 0.  Everything is ExactScalar, so
lattice operations, Birkhoff sums, extrema, integrals and partitions of
unity come out with no rounding at all.

Odometer analogues are locally constant: CylinderFunction holds one exact
value per level-n cylinder and the PL machinery degenerates to vectors.
"""

import bisect
import heapq
import os
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter

from .errors import (
    BreakpointBudget,
    CoverFailure,
    EmptyInput,
    MixedAmbient,
    NoGap,
)
from .scalars import ExactScalar, ONE, ZERO
from .systems import CircleRotation, Odometer
from .regions import CylinderRegion, Region, union_many


def _collinear(p, q, r):
    # q lies on the segment p -> r (abscissae already lifted, increasing)
    (xp, vp), (xq, vq), (xr, vr) = p, q, r
    return ((vq - vp) * (xr - xq) - (vr - vq) * (xq - xp)).sign() == 0


def _prune(pts):
    first_v = pts[0][1]
    if all(v == first_v for _, v in pts):
        return [(ZERO, first_v)]
    stack = []
    for p in pts:
        stack.append(p)
        while len(stack) >= 3 and _collinear(stack[-3], stack[-2], stack[-1]):
            del stack[-2]
    # the seam: first and last points may be redundant against wrapped neighbours
    changed = True
    while changed and len(stack) >= 3:
        changed = False
        xf, vf = stack[0]
        if _collinear(stack[-2], stack[-1], (xf + ONE, vf)):
            stack.pop()
            changed = True
            if len(stack) < 3:
                break
        xl, vl = stack[-1]
        if _collinear((xl - ONE, vl), stack[0], stack[1]):
            stack.pop(0)
            changed = True
    return stack


class PLFunction:
    """Continuous piecewise-linear function on the circle, canonical form.

    Collinear breakpoints are pruned on construction, so equal functions
    have identical breakpoint tuples; constants normalize to ((0, c),).
    """

    __slots__ = ("breakpoints", "_xs", "_sl")

    def __init__(self, breakpoints):
        pts = [(ExactScalar.coerce(x), ExactScalar.coerce(v)) for x, v in breakpoints]
        if not pts:
            raise EmptyInput("a PL function needs at least one breakpoint")
        pts.sort(key=lambda p: p[0])
        if pts[0][0].sign() < 0 or (pts[-1][0] - ONE).sign() >= 0:
            raise ValueError("breakpoint abscissae must lie in [0, 1)")
        for (x0, _), (x1, _) in zip(pts, pts[1:]):
            if x0 == x1:
                raise ValueError("duplicate breakpoint abscissa %r" % (x0,))
        pts = _prune(pts)
        object.__setattr__(self, "breakpoints", tuple(pts))
        object.__setattr__(self, "_xs", tuple(p[0] for p in pts))
        object.__setattr__(self, "_sl", None)

    @classmethod
    def _canonical(cls, pts, slopes=None) -> "PLFunction":
        """A PLFunction from breakpoints that are canonical by construction:
        exact, abscissae strictly increasing in [0, 1), the slope changing
        at every one of them (or the single point (0, c)).  Skips the
        sort, the duplicate check and the pruning of the public
        constructor; anything parsed or hand-built goes through that.
        slopes, when given, are the segment slopes _slopes would compute."""
        f = object.__new__(cls)
        object.__setattr__(f, "breakpoints", tuple(pts))
        object.__setattr__(f, "_xs", tuple(p[0] for p in pts))
        object.__setattr__(f, "_sl", slopes)
        return f

    def __setattr__(self, name, value):
        raise AttributeError("PLFunction is immutable")

    @classmethod
    def constant(cls, v) -> "PLFunction":
        return cls([(ZERO, v)])

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

    def _slope(self, i):
        xa, va, xb, vb = self._segment(i)
        return (vb - va) / (xb - xa)

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
        vals = [v for _, v in self.breakpoints]
        mn = mx = vals[0]
        for v in vals[1:]:
            if v < mn:
                mn = v
            if mx < v:
                mx = v
        return mn, mx


@dataclass(frozen=True)
class SupportReport:
    """Closure of {f != 0} and the exact level set {f = 1}."""

    support: object
    one_set: object


def support_of(system, f):
    """Closure of {f != 0}: a CylinderRegion for a cylinder function, a
    closed Region for a PL function."""
    if isinstance(f, CylinderFunction):
        return CylinderRegion(system, [i for i, v in enumerate(f.values) if v.sign() != 0])
    bps = f.breakpoints
    if len(bps) == 1:
        return Region.empty(system) if bps[0][1].sign() == 0 else Region.full(system)
    # f is linear on each segment, so it vanishes at no more than one point
    # of a segment with a nonzero end: the closure holds the whole segment
    arcs = []
    for i in range(len(bps)):
        xa, va, xb, vb = f._segment(i)
        if va.sign() != 0 or vb.sign() != 0:
            arcs.append((xa, xb, True, True))
    return Region(system, arcs)


def support_report(system, f) -> SupportReport:
    """support_of(system, f) together with the exact level set {f = 1}."""
    sup = support_of(system, f)
    if isinstance(f, CylinderFunction):
        ones = [i for i, v in enumerate(f.values) if v == ONE]
        return SupportReport(sup, CylinderRegion(system, ones))
    bps = f.breakpoints
    if len(bps) == 1:
        one = Region.full(system) if bps[0][1] == ONE else Region.empty(system)
        return SupportReport(sup, one)
    ones = []
    for i in range(len(bps)):
        xa, va, xb, vb = f._segment(i)
        da, db = (va - ONE).sign(), (vb - ONE).sign()
        if da == 0 and db == 0:
            ones.append((xa, xb, True, True))
        elif da == 0:
            ones.append((xa, xa, True, True))
        elif db == 0:
            pass  # recorded by the next segment's left endpoint
        elif da != db:
            t = (va - ONE) / (va - vb)
            xc = xa + (xb - xa) * t
            ones.append((xc, xc, True, True))
    return SupportReport(sup, Region(system, ones))


# -- lattice and linear operations


def scale(f, c) -> PLFunction:
    """c * f, exactly."""
    c = ExactScalar.coerce(c)
    return PLFunction([(x, v * c) for x, v in f.breakpoints])


def difference(f, g) -> PLFunction:
    """f - g, exactly."""
    return sum_of([f, scale(g, -1)])


def _slopes(f):
    """Slope of every segment of f, the last one wrapping 1 -> 0.

    Results of sum_of and translate_fn carry their slopes; otherwise they
    are computed from the breakpoints once and kept on f.
    """
    if f._sl is not None:
        return f._sl
    bps = f.breakpoints
    out = [(vb - va) / (xb - xa) for (xa, va), (xb, vb) in zip(bps, bps[1:])]
    (xa, va), (xb, vb) = bps[-1], bps[0]
    out.append((vb - va) / (xb + ONE - xa))
    object.__setattr__(f, "_sl", out)
    return out


def _merged(fns):
    """The distinct abscissae of fns in increasing order, each paired with
    the (function index, breakpoint index) pairs that sit on it.

    Every _xs is sorted already, so this is one k-way merge, not a sort.
    """
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


def sum_of(fns) -> PLFunction:
    """Exact sum of many PL functions by one sweep over their merged
    breakpoints.

    The total slope changes only at the inputs' breakpoints, so the sum's
    canonical breakpoints are the merged abscissae where it does change;
    the sweep starts on the segment that wraps into the first abscissa, so
    that one is tested like any other.  No slope change at all means a
    constant.
    """
    fns = list(fns)
    if not fns:
        raise EmptyInput("sum of no functions")
    if len(fns) == 1:
        return fns[0]
    x0 = min(f._xs[0] for f in fns)
    slopes = [_slopes(f) for f in fns]
    value = ZERO
    slope = ZERO
    for f, s in zip(fns, slopes):
        value = value + f.evaluate(x0)
        slope = slope + s[-1]
    out = []
    kept = []
    at = x0
    for x, owners in _merged(fns):
        new = slope
        for fi, i in owners:
            s = slopes[fi]
            new = new + (s[i] - s[i - 1])
        if new != slope:
            value = value + slope * (x - at)
            at = x
            out.append((x, value))
            kept.append(new)
            slope = new
    if not out:
        return PLFunction._canonical([(ZERO, value)], [ZERO])
    return PLFunction._canonical(out, kept)


def _walk(f, fi, merged):
    """f at every merged abscissa, walking along f's segments once."""
    bps = f.breakpoints
    slopes = _slopes(f)
    xa, va = bps[-1]
    xa = xa - ONE
    slope = slopes[-1]
    out = []
    for x, owners in merged:
        for gi, i in owners:
            if gi == fi:
                xa, va = bps[i]
                slope = slopes[i]
                out.append(va)
                break
        else:
            out.append(va + slope * (x - xa))
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
    sl = f._sl
    return PLFunction._canonical(
        [(x + back, v) for x, v in bps[k:]] + [(x + shift, v) for x, v in bps[:k]],
        None if sl is None else sl[k:] + sl[:k],
    )


_DEFAULT_BP_CAP = 10**7


def _bp_cap() -> int:
    return int(os.environ.get("DYNCOMP_BP_CAP", _DEFAULT_BP_CAP))


def check_bp_budget(g, N: int) -> None:
    """Raise BreakpointBudget when S_N g may need more breakpoints than the
    cap allows (N * |breakpoints of g| bounds them)."""
    cap = _bp_cap()
    if N * len(g.breakpoints) > cap:
        raise BreakpointBudget(
            "S_%d would need up to %d breakpoints (cap %d)" % (N, N * len(g.breakpoints), cap)
        )


def birkhoff_sum(system, g, N: int) -> PLFunction:
    """Unnormalized sum S_N g = sum_{j<N} g o h^j, by cocycle doubling."""
    if not isinstance(system, CircleRotation):
        raise MixedAmbient("Birkhoff sums are built over circle rotations")
    N = int(N)
    if N < 1:
        raise ValueError("Birkhoff sum needs N >= 1")
    check_bp_budget(g, N)
    S = g
    cur = 1
    for bit in bin(N)[3:]:
        S = sum_of([S, translate_fn(system, S, -cur)])
        cur *= 2
        if bit == "1":
            S = sum_of([S, translate_fn(system, g, -cur)])
            cur += 1
    return S


def global_extrema(f):
    """(min, max, argmin); PL extrema sit at breakpoints."""
    bps = f.breakpoints
    mn = mx = bps[0][1]
    argmin = bps[0][0]
    for x, v in bps[1:]:
        if v < mn:
            mn, argmin = v, x
        if mx < v:
            mx = v
    return mn, mx, argmin


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
    mn = mx = cands[0]
    for v in cands[1:]:
        if v < mn:
            mn = v
        if mx < v:
            mx = v
    return mn, mx


def sum_extrema_on(fns, region):
    """(inf, sup) of the sum of fns over the closure of a region.

    Cylinder functions are summed only at the region's own indices; PL
    functions are summed by sum_of and searched by extrema_on.
    """
    if not isinstance(region, CylinderRegion):
        return extrema_on(sum_of(fns), region)
    if region.is_empty:
        raise EmptyInput("extrema over an empty region")
    totals = []
    for i in region.indices:
        total = ZERO
        for f in fns:
            total = total + f.values[i]
        totals.append(total)
    return min(totals), max(totals)


def integral(system, f) -> ExactScalar:
    """Exact Lebesgue integral: sum of trapezoid areas (cylinder average
    for odometer functions)."""
    if isinstance(f, CylinderFunction):
        tot = ZERO
        for v in f.values:
            tot = tot + v
        return tot / ExactScalar.rational(len(f.values))
    bps = f.breakpoints
    if len(bps) == 1:
        return bps[0][1]
    total = ZERO
    for i in range(len(bps)):
        xa, va, xb, vb = f._segment(i)
        total = total + (va + vb) * (xb - xa) / 2
    return total


# -- bumps and partitions of unity


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


def _support_pieces(system, gs):
    out = []
    sups = []
    for i, g in enumerate(gs):
        sup = support_of(system, g)
        sups.append(sup)
        for lo, hi, _, _ in sup.pieces:
            out.append((lo, hi, i))
    out.sort(key=lambda t: (t[0], t[1]))
    return out, sups


def min_cascade(system, gs):
    """f_j = min(g_j, 1 - sum_{i<j} f_i), exactly.

    Only earlier functions whose supports meet supp(g_j) can change the
    minimum there, so the running sum is taken over support neighbours;
    the output functions are identical to the naive left-to-right cascade.
    """
    gs = list(gs)
    n = len(gs)
    if n == 0:
        return []
    pieces, _ = _support_pieces(system, gs)
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
    ends = {o for lo, hi, o in pieces if (hi - ONE).sign() == 0}
    zeros = {o for lo, hi, o in pieces if lo.sign() == 0}
    for o1 in ends:
        for o2 in zeros:
            if o1 != o2:
                adj[o1].add(o2)
                adj[o2].add(o1)
    one = PLFunction.constant(ONE)
    fs = []
    for j in range(n):
        nbrs = sorted(i for i in adj[j] if i < j)
        if not nbrs:
            fs.append(gs[j])
            continue
        s = fs[nbrs[0]] if len(nbrs) == 1 else sum_of([fs[i] for i in nbrs])
        fs.append(minimum(gs[j], difference(one, s)))
    return fs


def partition_of_unity(pairs, C):
    """Bumps for the pairs (F_j, W_j), cascaded so they sum to exactly 1
    on C.

    Requires C inside the union of the F_j; each output vanishes outside
    its W_j and the exact sum is verified to be constant 1 on C.
    """
    pairs = list(pairs)
    system = C.system
    if pairs:
        covered = union_many(system, [F for F, _ in pairs])
        if not covered.contains_region(C):
            raise CoverFailure("target region is not covered by the closed sets")
    elif not C.is_empty:
        raise CoverFailure("no pairs given but the target region is nonempty")
    gs = [bump(F, W) for F, W in pairs]
    fs = min_cascade(system, gs)
    if not C.is_empty:
        mn, mx = sum_extrema_on(fs, C)
        if mn != ONE or mx != ONE:
            raise CoverFailure("cascade sum is not constant 1 on the target")
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

    def add(self, other: "CylinderFunction") -> "CylinderFunction":
        if len(self.values) != len(other.values):
            raise MixedAmbient("cylinder functions live on different truncations")
        return CylinderFunction([a + b for a, b in zip(self.values, other.values)])

    def range_bounds(self):
        mn = mx = self.values[0]
        for v in self.values[1:]:
            if v < mn:
                mn = v
            if mx < v:
                mx = v
        return mn, mx
