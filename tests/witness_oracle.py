"""An independent checker for circle witness certificates.

It decides the four clauses that `verify_witness` reports, for the entries
of a certificate file's text, by naive exact algorithms that share no code
with the PL kernel or the region algebra: breakpoint values for the ranges,
the sum evaluated entry by entry at every breakpoint inside C, closed
support arcs read off the segments, and one sort of their translates.

C is given as closed lifted arcs [a, b] and U as pairwise disjoint open
lifted arcs (a, b), each with a in [0, 1) and b - a < 1.  The result is the
tuple of the four clause verdicts in `verify_witness`'s order.
"""

from bisect import bisect_left

from dyncomp import certfile
from dyncomp.scalars import ExactScalar

ZERO = ExactScalar(0)
ONE = ExactScalar(1)
FULL = "full"


def segments(bps):
    """(xa, va, xb, vb) per segment, lifted so that xa < xb <= xa + 1."""
    out = []
    for i, (xa, va) in enumerate(bps):
        xb, vb = bps[(i + 1) % len(bps)]
        if i + 1 == len(bps):
            xb = xb + 1
        out.append((xa, va, xb, vb))
    return out


def value_at(seg, p):
    xa, va, xb, vb = seg
    return va + (vb - va) * (p - xa) / (xb - xa)


def sum_is_one_on(entries, a, b):
    """The entries' sum is 1 at a, at b and at every breakpoint between:
    the sum is linear between those points, so it is then 1 on [a, b]."""
    points = {a, b}
    for f, _ in entries:
        for x, _ in f.breakpoints:
            y = x if a <= x else x + 1
            if y <= b:
                points.add(y)
    points = sorted(points)
    sums = [ZERO] * len(points)
    for f, _ in entries:
        bps = f.breakpoints
        if len(bps) == 1:
            sums = [s + bps[0][1] for s in sums]
            continue
        for seg in segments(bps):
            xa, va, xb, vb = seg
            if va.sign() == 0 and vb.sign() == 0:
                continue
            # each point of [a, b] lies in the half-open segment [xa, xb)
            # in at most one of its lifts
            for lift in (-1, 0, 1):
                lo, hi = xa + lift, xb + lift
                for k in range(bisect_left(points, lo), len(points)):
                    if not points[k] < hi:
                        break
                    sums[k] = sums[k] + value_at(seg, points[k] - lift)
    return all(s == ONE for s in sums)


def support_arcs(f):
    """The closed arcs of the closure of {f != 0}, lifted, or FULL."""
    bps = f.breakpoints
    if len(bps) == 1:
        return [] if bps[0][1].sign() == 0 else FULL
    segs = segments(bps)
    held = [va.sign() != 0 or vb.sign() != 0 for _, va, _, vb in segs]
    if all(held):
        return FULL
    # start the walk just after a zero segment, so no arc is split by it
    start = (held.index(False) + 1) % len(held)
    arcs = []
    lo = hi = None
    for k in range(len(segs)):
        i = (start + k) % len(segs)
        xa, _, xb, _ = segs[i]
        if i < start:  # walked past the last segment: one turn further on
            xa, xb = xa + 1, xb + 1
        if held[i]:
            lo = xa if lo is None else lo
            hi = xb
        elif lo is not None:
            arcs.append((lo, hi))
            lo = None
    if lo is not None:
        arcs.append((lo, hi))
    return arcs


def frac(x):
    return x - x.floor()


def check(text, closed_arcs, open_arcs):
    cf = certfile.parse_certfile(text)
    theta = cf.system.theta
    entries = cf.entries
    ranges = all(
        v.sign() >= 0 and (v - 1).sign() <= 0 for f, _ in entries for _, v in f.breakpoints
    )
    sums = all(sum_is_one_on(entries, a, b) for a, b in closed_arcs)
    pieces = []  # (lo, hi, owner) in [0, 1], closed
    inside = True
    for owner, (f, d) in enumerate(entries):
        arcs = support_arcs(f)
        if arcs == FULL:
            pieces.append((ZERO, ONE, owner))
            inside = False
            continue
        shift = frac(theta * d)
        for lo, hi in arcs:
            lo, hi = lo + shift, hi + shift
            back = frac(lo) - lo
            lo, hi = lo + back, hi + back
            if not any(
                a < lo + lift and hi + lift < b for a, b in open_arcs for lift in (-1, 0, 1)
            ):
                inside = False
            if hi > 1:
                pieces.append((lo, ONE, owner))
                pieces.append((ZERO, hi - 1, owner))
            else:
                pieces.append((lo, hi, owner))
    pieces.sort(key=lambda p: p[0])
    disjoint = True
    reach = None  # (largest hi so far, its owner)
    for lo, hi, owner in pieces:
        if reach is not None and lo <= reach[0] and owner != reach[1]:
            disjoint = False
        if reach is None or reach[0] < hi:
            reach = (hi, owner)
    at_one = {o for _, hi, o in pieces if hi == ONE}
    at_zero = {o for lo, _, o in pieces if lo.sign() == 0}
    if any(a != z for a in at_one for z in at_zero):
        disjoint = False  # the seam point 0 = 1 is shared
    return ranges, sums, disjoint, inside
