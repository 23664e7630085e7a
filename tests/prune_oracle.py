"""The collinear-pruning PLFunction constructor, kept as an oracle.

`pruned(breakpoints)` validates and canonicalizes a breakpoint list the
way the library once did: sort, reject abscissae outside [0, 1) and
duplicates, then drop collinear points with a cross-product test, first
along the list and then against the wrapped neighbours across the seam.
It returns the canonical breakpoint tuple and the slope jump at each
breakpoint, computed afresh from that tuple.  The constructor in
`dyncomp.plfun` must agree with it on every input, errors included.
"""

from dyncomp.errors import EmptyInput
from dyncomp.scalars import ONE, ZERO, ExactScalar


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


def pruned(breakpoints):
    """(canonical breakpoints, jumps) of the PL function through
    breakpoints, or the error the constructor raises."""
    pts = [(ExactScalar.coerce(x), ExactScalar.coerce(v)) for x, v in breakpoints]
    if not pts:
        raise EmptyInput("a PL function needs at least one breakpoint")
    pts.sort(key=lambda p: p[0])
    if pts[0][0].sign() < 0 or (pts[-1][0] - ONE).sign() >= 0:
        raise ValueError("breakpoint abscissae must lie in [0, 1)")
    for (x0, _), (x1, _) in zip(pts, pts[1:]):
        if x0 == x1:
            raise ValueError("duplicate breakpoint abscissa %r" % (x0,))
    bps = tuple(_prune(pts))
    ends = bps[1:] + ((bps[0][0] + ONE, bps[0][1]),)
    s = [(vb - va) / (xb - xa) for (xa, va), (xb, vb) in zip(bps, ends)]
    return bps, [b - a for a, b in zip(s[-1:] + s, s)]
