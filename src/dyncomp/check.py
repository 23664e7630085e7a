"""The circle witness checker: entries in as integer triples, four verdicts out.

It decides the clauses of a comparison witness on a circle rotation by
theta: each entry's values lie in [0, 1], the entries sum to 1 on the
closure of C, and their supports, translated by frac(d theta), are
pairwise disjoint and inside U.  An entry comes in as a shift d and its
breakpoint rows (xa, xb, xc, va, vb, vc), the abscissa (xa + xb sqrt(D))/xc
then the value, in the field of theta; it is validated as `PLFunction`
validates its breakpoints, and taken in once, with no function, region or
canonical form built.  Only the scalar kernel (`scalars`) and the error
types are trusted: `verify` streams a certificate file's rows into it, and
`comparison.verify_witness` hands it a built witness's breakpoints.

Every decision is an integer sign test or an order of dyadic keys
floor(x 2^k), with one k per list, as in `scalars.dyadic_keys`:
- ranges: sign tests on each breakpoint value;
- sum: one key sort of C's ends and every abscissa; the sum is linear
  between two of them, so it is 1 on C exactly when it is 1 at each of
  them inside C.  A running sum of the entries on flat segments gives it
  with no arithmetic on 0/1 values; a sloped segment strictly holding a
  point is interpolated exactly only when such a point comes up;
- supports: each entry's sign runs, moved by frac(d theta) once per
  distinct shift as integer triples, are keyed with U's ends; passing 1
  is subtracting 2^k from a key, and one sort of the pieces as ranges of
  doubled keys decides disjointness and containment in U's pieces.
"""

import math
from array import array
from bisect import bisect_right
from itertools import repeat
from operator import eq

from .scalars import ExactScalar, _new, _reduced, _sign_surd

RANGES = "ranges within [0, 1]"
SUMS = "sums to 1 on the closed set"
DISJOINT = "translated supports pairwise disjoint"
INSIDE = "translated supports inside the open set"


def _keyer(alpha, gamma, D):
    """The key function (a, b, c) -> floor(x 2^k) of x = (a + b sqrt(D))/c,
    c > 0, for scalars whose |a| and |b| are at most alpha and c at most
    gamma, and the shift k.

    k is that of `scalars.dyadic_keys`, so the keys order the scalars
    exactly; and floor((x - j) 2^k) = floor(x 2^k) - j 2^k, so moving a
    value back by 1 is subtracting 2^k from its key, and those keys stay
    exact once alpha also bounds |a - j c|.  The root part floor(b sqrt(D)
    2^k) is worked out once per b, as abscissae repeat."""
    k = 3 * gamma.bit_length() + alpha.bit_length() + D.bit_length() + 1
    k2, isqrt, roots = 2 * k, math.isqrt, {0: 0}

    def key(a, b, c):
        r = roots.get(b)
        if r is None:
            r = roots[b] = isqrt(b * b * D << k2) if b > 0 else -isqrt(b * b * D << k2) - 1
        return ((a << k) + r) // c
    return key, k


def _grown(column, values):
    """column extended by the ints values: an array of 64-bit ints while
    they fit, a list from the first that does not."""
    if column.__class__ is array:
        try:
            column.extend(array("q", values))
            return column
        except OverflowError:
            column = list(column)
    column.extend(values)
    return column


def _value(a, b, c, D):
    """The scalar (a + b sqrt(D))/c, c > 0, as an int when it is one."""
    if not b and (c == 1 or not a % c):
        return a // c
    return _reduced(a, b, c, D)


class CircleCheck:
    """The four witness clauses over the rotation by theta, for entries
    taken in one at a time by `add` and decided together by `report`.

    The abscissae of all entries sit in three parallel integer columns,
    the values (ints where they are integers, else scalars) in a fourth,
    and entry j owns the rows from starts[j] to starts[j + 1]; flat[g] says
    whether the segment from row g on has equal end values.  The supports
    are arcs from row arc_lo[i] to row arc_hi[i], passing 1 when
    arc_lift[i], owned by entry arc_owner[i] and in order per entry; whole
    lists the entries whose support is the whole circle.  Columns of
    row numbers and of abscissae that fit are 64-bit arrays, so memory
    stays a small multiple of the file.
    """

    def __init__(self, theta):
        self.theta, self.D = theta, theta.D
        self.xa, self.xb, self.xc = array("q"), array("q"), array("q")
        self.vals, self.flat, self.starts = [], bytearray(), array("q", [0])
        self.arc_lo, self.arc_hi, self.arc_owner = array("q"), array("q"), array("q")
        self.arc_lift, self.whole = bytearray(), []
        self.shifts, self.out_of_range = [], []

    def add(self, shift, rows):
        """Take in one entry given as its shift and its breakpoint rows, in
        any order; ValueError, with `PLFunction`'s messages, for an
        abscissa outside [0, 1) or a repeated one."""
        D = self.D
        xa, xb, xc, va, vb, vc = zip(*rows)
        n = len(xa)
        if min(xc) < 0:  # denominators made positive
            sign = [1 if c > 0 else -1 for c in xc]
            xa, xb, xc = ([t * u for t, u in zip(x, sign)] for x in (xa, xb, xc))
        if vb.count(0) == n and vc.count(1) == n:  # integer values, as most are
            vs = va
        else:
            vs = [_value(a, b, c, D) if c > 0 else _value(-a, -b, -c, D)
                  for a, b, c in zip(va, vb, vc)]
        ordered = True
        for i in range(1, n):  # the sign of x_i - x_(i-1) = (A + B sqrt(D))/(c c')
            c0, c1 = xc[i - 1], xc[i]
            A, B = xa[i] * c0 - xa[i - 1] * c1, xb[i] * c0 - xb[i - 1] * c1
            if not (A > 0 and (B >= 0 or A * A > B * B * D) or A <= 0 < B and A * A < B * B * D):
                ordered = False
                break
        if not ordered:  # sorted by exact comparison, equal ones in row order
            scalars = [_reduced(a, b, c, D) for a, b, c in zip(xa, xb, xc)]
            order = sorted(range(n), key=scalars.__getitem__)
            xa, xb, xc, vs, scalars = ([seq[i] for i in order]
                                       for seq in (xa, xb, xc, vs, scalars))
        if _sign_surd(xa[0], xb[0], D) < 0 or _sign_surd(xa[-1] - xc[-1], xb[-1], D) >= 0:
            raise ValueError("breakpoint abscissae must lie in [0, 1)")
        if not ordered:
            for x0, x1 in zip(scalars, scalars[1:]):
                if x0 == x1:
                    raise ValueError("duplicate breakpoint abscissa %r" % (x0,))
        j, first = len(self.shifts), self.starts[-1]
        if min(vs) < 0 or max(vs) > 1:
            self.out_of_range.append(j)
        self.shifts.append(shift)
        arcs = _support(vs, first)
        if arcs is None:
            self.whole.append(j)
        else:
            for lo, hi, lift in arcs:
                self.arc_lo.append(lo)
                self.arc_hi.append(hi)
                self.arc_lift.append(lift)
                self.arc_owner.append(j)
        self.xa = _grown(self.xa, xa)
        self.xb = _grown(self.xb, xb)
        self.xc = _grown(self.xc, xc)
        self.vals += vs
        self.flat.extend(map(eq, vs, vs[1:] + vs[:1]))
        self.starts.append(first + n)

    def report(self, closed, opened):
        """(clauses, failures) as `verify_witness` reports them, for C's
        closure and U given as canonical region pieces (lo, hi, lc, hc)."""
        failures = ["entry %d leaves [0, 1]" % j for j in self.out_of_range]
        sums_ok = True
        if closed:
            mn, mx = self._sum_extrema(closed)
            if mn != 1 or mx != 1:
                sums_ok = False
                failures.append("sum over the closed set spans [%s, %s]"
                                % (ExactScalar.coerce(mn), ExactScalar.coerce(mx)))
        disjoint, escaped = self._supports(opened)
        if not disjoint:
            failures.append("translated supports overlap")
        failures += ["translated support %d leaves the open set" % j for j in escaped]
        clauses = ((RANGES, not self.out_of_range), (SUMS, sums_ok),
                   (DISJOINT, disjoint), (INSIDE, not escaped))
        return clauses, tuple(failures)

    # -- the sum on C

    def _sum_extrema(self, closed):
        """(min, max) of the entries' sum over the closed pieces: its values
        at their ends and at every abscissa inside them, in one sweep over
        the keys of both.

        flat sums the entries whose current segment has equal end values,
        each at that value; an entry on a sloped segment is pending until a
        point inside C comes up strictly inside that segment, and then the
        segment's line (intercept, slope) is folded into line, so each
        sloped segment costs exact arithmetic at most once.  An entry with
        a breakpoint at the point adds its value there, on either kind of
        segment.
        """
        ends = [e for lo, hi, _, _ in closed for e in ((lo,) if hi.cmp_int(1) >= 0 else (lo, hi))]
        m = len(ends)
        xa, xb, xc = self.xa, self.xb, self.xc
        foreign = {x.D for x in ends if x.b} - {self.D}  # then the abscissae must be rational
        if foreign and any(xb):
            raise ValueError("incompatible quadratic fields D=%d, D=%d" % (min(foreign), self.D))
        alpha = max(max(map(abs, xa), default=0), max(map(abs, xb), default=0),
                    max((max(abs(x.a), abs(x.b)) for x in ends), default=0))
        gamma = max(max(xc, default=1), max(x.c for x in ends))
        key, _ = _keyer(alpha, gamma, min(foreign) if foreign else self.D)
        keys = [key(x.a, x.b, x.c) for x in ends] + list(map(key, xa, xb, xc))
        spans, at = [], 0
        for lo, hi, _, _ in closed:
            spans.append((keys[at], keys[at + 1] if hi.cmp_int(1) < 0 else None))
            at += 1 if hi.cmp_int(1) >= 0 else 2
        vals, starts, flats = self.vals, self.starts, self.flat
        owner = array("q")  # the entry of each row
        for j, (a, b) in enumerate(zip(starts, starts[1:])):
            owner.extend(repeat(j, b - a))
        cur = [s - 1 for s in starts[1:]]  # each entry starts on its wrap segment
        sloped = [not flats[g] for g in cur]
        pending = {j for j, t in enumerate(sloped) if t}
        flat = sum(vals[g] for g, t in zip(cur, sloped) if not t)
        folded, line, n_sloped = {}, [0, 0], len(pending)
        mn = mx = None
        order = sorted(range(len(keys)), key=keys.__getitem__)
        sorted_keys = [keys[e] for e in order] + [None]
        p, i, n = 0, 0, len(order)
        while i < n:
            key, rows = sorted_keys[i], []
            while sorted_keys[i] == key:
                if order[i] >= m:
                    rows.append(order[i] - m)
                i += 1
            while p < len(spans) and spans[p][1] is not None and spans[p][1] < key:
                p += 1
            if p < len(spans) and spans[p][0] <= key:
                total, held = flat, 0
                for g in rows:
                    if sloped[owner[g]]:  # its value there, on a sloped segment
                        total += vals[g]
                        held += 1
                if n_sloped > held:  # a sloped segment strictly holds the point
                    last = order[i - 1]
                    x = ends[last] if last < m else self._scalar(last - m)
                    on = {owner[g] for g in rows}
                    for j in [j for j in pending if j not in on]:
                        pending.discard(j)
                        a, s = folded[j] = self._line(j, cur[j], x)
                        line[0] += a
                        line[1] += s
                    total += line[0] + line[1] * x
                    for j in on:
                        if j in folded:
                            total -= folded[j][0] + folded[j][1] * x
                if mn is None or total < mn:
                    mn = total
                if mx is None or total > mx:
                    mx = total
            for g in rows:
                j = owner[g]
                if not sloped[j]:
                    flat -= vals[cur[j]]
                elif j in folded:
                    a, s = folded.pop(j)
                    line[0] -= a
                    line[1] -= s
                else:
                    pending.discard(j)
                cur[j] = g
                if flats[g]:
                    flat += vals[g]
                    n_sloped -= sloped[j]
                    sloped[j] = False
                else:
                    pending.add(j)
                    n_sloped += not sloped[j]
                    sloped[j] = True
        return mn, mx

    def _scalar(self, g):
        return _reduced(self.xa[g], self.xb[g], self.xc[g], self.D)

    def _line(self, j, g, x):
        """(intercept, slope) of entry j's segment from row g, in the lift
        that holds x: a wrap segment before its entry's first abscissa runs
        from the last one less 1."""
        first, last = self.starts[j], self.starts[j + 1] - 1
        xa, va = self._scalar(g), self.vals[g]
        if g == last:
            xb, vb = self._scalar(first) + 1, self.vals[first]
            if x < xa:
                xa, xb = xa - 1, xb - 1
        else:
            xb, vb = self._scalar(g + 1), self.vals[g + 1]
        slope = (ExactScalar.coerce(vb) - va) / (xb - xa)
        return va - slope * xa, slope

    # -- the supports

    def _supports(self, opened):
        """(pairwise disjoint, entries that leave U) for the supports moved
        by their shifts.

        Each piece becomes a closed range of doubled keys: 2x for a point
        x, 2x + 1 just past it and 2x - 1 just before, so two pieces meet
        exactly when their ranges do, and a piece lies in U exactly when
        its range lies in one of U's."""
        xa, xb, xc, D = self.xa, self.xb, self.xc, self.D
        ta, tb, tc = self.theta.a, self.theta.b, self.theta.c
        fracs = {}
        for d in set(self.shifts[j] for j in set(self.arc_owner)):
            n = _new(d * ta, d * tb, tc, D).floor()  # floor needs only tc > 0
            fracs[d] = (d * ta - n * tc, d * tb, tc)  # frac(d theta)
        # the moved ends (a + lift c) sc + sa c, b sc + sb c over c sc, and
        # their values less 1 or 2, have |a|, |b| at most alpha, c at most gamma
        ax = max(max(map(abs, xa), default=0), max(map(abs, xb), default=0))
        cx = max(xc, default=1)
        ash = max((max(abs(a), abs(b)) for a, b, _ in fracs.values()), default=0)
        csh = max((c for _, _, c in fracs.values()), default=1)
        ends = [e for lo, hi, _, _ in opened for e in (lo, hi)]
        fields = {x.D for x in ends if x.b}
        foreign = fields - {D}  # then the ends taken in must all be rational
        alpha = max((ax + 3 * cx) * csh + ash * cx,
                    max((max(abs(x.a), abs(x.b)) for x in ends), default=0))
        gamma = max(cx * csh, max((x.c for x in ends), default=1))
        key, k = _keyer(alpha, gamma, min(foreign) if foreign else D)
        one = 1 << k
        ranges = [(0, 2 * one - 1, j) for j in self.whole]
        irrational = False
        owners, shifts, lifts = self.arc_owner, self.shifts, self.arc_lift
        arcs = []  # the keys of the current entry's arcs
        for i, (lo, hi, j) in enumerate(zip(self.arc_lo, self.arc_hi, owners)):
            sa, sb, sc = fracs[shifts[j]]
            c = xc[lo]
            b = xb[lo] * sc + sb * c
            klo = key(xa[lo] * sc + sa * c, b, c * sc)
            irrational = irrational or b != 0
            c = xc[hi]
            b = xb[hi] * sc + sb * c
            arcs.append((klo, key((xa[hi] + lifts[i] * c) * sc + sa * c, b, c * sc)))
            irrational = irrational or b != 0
            if i + 1 < len(owners) and owners[i + 1] == j:
                continue
            # the entry's arcs moved to 1 or past it go back by 1 to the
            # front, in order; only the last can reach the seam, and is cut
            arcs = [(a - one, b - one) for a, b in arcs if a >= one] + [
                (a, b) for a, b in arcs if a < one]
            lo, hi = arcs[-1]
            if hi >= one:
                arcs.pop()
                ranges += [(2 * lo, 2 * one - 1, j), (0, 2 * (hi - one), j)]
            ranges += [(2 * a, 2 * b, j) for a, b in arcs]
            arcs = []
        if irrational and foreign:
            raise ValueError("incompatible quadratic fields D=%d, D=%d" % (D, min(foreign)))
        ranges.sort()
        disjoint, reach = True, -1
        for lo, hi, _ in ranges:
            if lo <= reach:
                disjoint = False
                break
            reach = hi
        u = []
        for lo, hi, lc, hc in opened:
            kl, kh = key(lo.a, lo.b, lo.c), key(hi.a, hi.b, hi.c)
            u.append((2 * kl + (not lc), 2 * kh - (not hc) if kh < one else 2 * one - 1))
        starts = [lo for lo, _ in u]
        escaped = set()
        for lo, hi, j in ranges:
            t = bisect_right(starts, lo) - 1
            if t < 0 or hi > u[t][1]:
                escaped.add(j)
        return disjoint, sorted(escaped)


def _support(vs, first):
    """The closure of {f != 0} for the entry with values vs, whose rows are
    numbered from first: a list of closed arcs (lo, hi, lift), lo and hi
    row numbers and hi passing 1 when lift is 1, in order, or None for the
    whole circle.

    f is linear on each segment, so a segment with a nonzero end is in the
    closure, as `plfun.support_arcs` reads it: the arcs are the runs of
    segments between two zero segments, and a run through the segment
    that wraps 1 -> 0 comes last, ending past 1."""
    n = len(vs)
    if n == 1:
        return [] if not vs[0] else None
    zero = [i for i, (u, v) in enumerate(zip(vs, vs[1:] + vs[:1])) if not u and not v]
    if not zero:
        return None
    arcs = [(first + a + 1, first + b, 0) for a, b in zip(zero, zero[1:]) if b > a + 1]
    a, b = zero[-1], zero[0]
    if a == n - 1:  # the wrap segment is zero: a run from row 0 comes first
        if b:
            arcs.insert(0, (first, first + b, 0))
    else:
        arcs.append((first + a + 1, first + b, 1))
    return arcs
