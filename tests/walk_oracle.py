"""The ExactScalar tower walk and the bisecting ArcLocator, kept as oracles.

`walk_levels(system, opened, n)` walks the levels of an open region the way
the library once did: on a circle each level is a tuple of lifted open arcs
(lo, hi) of ExactScalars, one per logical arc, and the next level adds theta
to each lo and wraps it with one compare; the whole circle, which no lifted
arc covers, is the sentinel `_FULL_LEVEL`.  `ArcLocator` places such arcs
against sorted points by `bisect_right` and exact comparisons, and
`level_locator` places such levels against a region.  The library walks,
refines, tiles and counts on an integer lattice; `read_level(tower, k, j)`
reads one of its levels back as scalars through `Lattice.scalar`, and
`materialized(tower)` all of them, which must equal `oracle_walks(tower)`;
its level gaps must equal `oracle_gaps(tower)`.
"""

from bisect import bisect_right

from dyncomp.regions import _ambient
from dyncomp.scalars import ONE, ZERO, ExactScalar
from dyncomp.systems import Odometer

_TWO = ExactScalar(2)
_FULL_LEVEL = ((ZERO, ONE),)


def walk_levels(system, opened, n):
    """Yield the levels h^0(opened), ..., h^(n-1)(opened) of an open region."""
    if isinstance(system, Odometer):
        level = opened
        for j in range(n):
            if j:
                level = level.translate(1)
            yield level
        return
    if opened.is_full:
        for _ in range(n):
            yield _FULL_LEVEL
        return
    arcs = opened.logical_arcs()
    los = [lo for lo, _, _, _ in arcs]
    lengths = [hi - lo for lo, hi, _, _ in arcs]
    theta = system.theta
    for j in range(n):
        if j:
            los = [lo - 1 if lo >= 1 else lo for lo in (lo + theta for lo in los)]
        yield tuple((lo, lo + ln) for lo, ln in zip(los, lengths))


class ArcLocator:
    """Lifted open arcs against sorted points of the circle, by bisection.

    The points cut the circle into gaps; gap i runs from points[i - 1] to
    points[i], and gaps 0 and len(points) are the same gap through the
    last point and the first.  An arc (lo, hi), lo in [0, 1), hi - lo < 1,
    holds a point strictly inside exactly when the first point after lo,
    taken cyclically and lifted past lo, lies below hi; otherwise the arc
    lies in one gap.
    """

    def __init__(self, points):
        self.points = list(points)
        # each point and its lift by 1, then a bound above every hi
        self.lifted = self.points + [p + 1 for p in self.points] + [_TWO]

    def gap(self, lo, hi):
        """The index of the gap holding (lo, hi), or None if it holds a point."""
        i = bisect_right(self.points, lo)
        return None if self.lifted[i] < hi else i

    def inside(self, lo, hi):
        """The gap holding lo, and the points strictly inside (lo, hi),
        lifted into it, ascending."""
        g = i = bisect_right(self.points, lo)
        lifted, out = self.lifted, []
        while lifted[i] < hi:
            out.append(lifted[i])
            i += 1
        return g, out

    def holds(self, g, lo, hi):
        """Whether (lo, hi), 0 <= lo < hi < 2, lies between lifted points
        g - 1 and g."""
        lifted = self.lifted
        return (g == 0 or lifted[g - 1] <= lo) and hi <= lifted[g]


def read_level(tower, k, j):
    """Level j of column k of a tower's walk; on a circle its arcs (lo, hi)
    as ExactScalars, or _FULL_LEVEL for the whole circle."""
    level = tower.walks[k][j]
    if tower.lattice is None:
        return level
    if tower.columns[k][0].is_full:
        return _FULL_LEVEL
    scalar = tower.lattice.scalar
    return tuple((scalar(A, B), scalar(C, E)) for A, B, C, E in level)


def materialized(tower):
    """Per column, the tower's levels read back as scalars."""
    return tuple(tuple(read_level(tower, k, j) for j in range(len(walk)))
                 for k, walk in enumerate(tower.walks))


def oracle_walks(tower):
    """Per column, the levels of its open cell walked with scalars."""
    out = []
    for cell, n in tower.columns:
        opened = cell.interior()
        out.append(() if opened.is_empty else tuple(walk_levels(tower.system, opened, n)))
    return tuple(out)


def oracle_gaps(tower):
    """Per column, the gap between a refined tower's cut points that holds
    each walked level (one arc, as refined cells are), by bisection; None
    for a level holding a cut point."""
    locator = ArcLocator(tower.cuts.points)
    return tuple(tuple(locator.gap(*level[0]) for level in walk) for walk in oracle_walks(tower))


def level_locator(system, S):
    """A function telling where a level of the scalar walk lies against S:
    True when it lies in S, False when it misses S, None when it meets S
    and its complement both.

    On a circle the points are S's boundary points.  An arc holding one
    strictly inside meets S and its complement.  A gap is connected and
    misses the boundary, so it lies wholly in the interior of S or wholly
    outside its closure; a flag per gap, from one point in it, says which.
    """
    _ambient(system, S)
    if isinstance(system, Odometer):
        def locate_cylinders(level):
            if S.contains_region(level):
                return True
            return None if S.intersects(level) else False
        return locate_cylinders
    pts = list(S.boundary_points())
    if not pts:
        return lambda level: S.is_full
    lifted = pts + [p + 1 for p in pts] + [_TWO]
    inside = [S.contains_point((pts[-1] + pts[0] + 1) / 2)]
    inside += [S.contains_point((a + b) / 2) for a, b in zip(pts, pts[1:])]
    inside.append(inside[0])

    def locate_arcs(level):
        if level is _FULL_LEVEL:
            return None
        where = True
        for k, (lo, hi) in enumerate(level):
            g = bisect_right(pts, lo)  # the gap holding lo
            if lifted[g] < hi:
                return None
            if k == 0:
                where = inside[g]
            elif inside[g] != where:
                return None
        return where

    return locate_arcs
