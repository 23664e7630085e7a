"""Exact region algebra.

Circle regions are finite unions of arcs with exact endpoints and per-endpoint
closed/open flags, kept in a canonical cut-at-zero form: pieces sorted and
pairwise non-adjacent, wrap-around arcs split at 0, a piece ending at 1 never
contains the seam point (inclusion of 0 is carried by a piece starting at 0).
All boolean operations go through a single cyclic sweep over elementary cells
(critical points and the open intervals between them), so unions, boundaries,
interiors and containment are exact.

Odometer regions are sets of level-n cylinder indices; torus regions are
finite unions of boxes (products of arcs) supporting the operations the
separation constructions need.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter

from .errors import EmptyInput, MixedAmbient, NotNull
from .scalars import ExactScalar, ZERO, ONE
from .systems import CircleRotation, Odometer, TorusRotation, circle_norm


@dataclass(frozen=True)
class BoundaryReport:
    """Topological boundary: points on the circle, faces on the torus, empty
    for clopen odometer regions."""

    points: tuple = ()
    faces: tuple = ()

    @property
    def is_empty(self) -> bool:
        return not self.points and not self.faces


def _check_same_system(a, b):
    if a.system != b.system:
        raise MixedAmbient("regions belong to different systems")


# ---------------------------------------------------------------------------
# circle


def _split_lifted(lo, hi, lc, hc):
    """Split a lifted arc (hi - lo in [0,1]) into canonical-range pieces.

    Returns (pieces, full) where full marks a whole-circle arc.
    """
    ln = hi - lo
    s = ln.sign()
    if s < 0 or (ln - 1).sign() > 0:
        raise ValueError("arc length must lie in [0, 1]")
    if s == 0:
        if lc and hc:
            p = lo.frac()
            return [(p, p, True, True)], False
        return [], False
    if (ln - 1).sign() == 0:
        if lc or hc:
            return [], True
        # circle minus a single point
        x = lo.frac()
        if x.sign() == 0:
            return [(ZERO, ONE, False, False)], False
        return [(ZERO, x, True, False), (x, ONE, False, False)], False
    lo = lo.frac()
    hi = lo + ln
    t = (hi - 1).sign()
    if t < 0:
        return [(lo, hi, lc, hc)], False
    if t == 0:
        out = [(lo, ONE, lc, False)]
        if hc:
            out.append((ZERO, ZERO, True, True))
        return out, False
    return [(lo, ONE, lc, False), (ZERO, hi - 1, True, hc)], False


def _critical_points(split_lists):
    """Sorted distinct critical points of piece lists, with each piece's
    cell indices, from one sort of the tagged endpoints.

    The critical points are 0 and every piece end below 1.  Returns (pts,
    cells): cells[k][t] is [i, j] for piece t of list k, running from
    pts[i] to pts[j]; j = i for a point piece and j = -1 for a piece that
    ends at 1.
    """
    tagged = []
    cells = []
    for pieces in split_lists:
        row = []
        for lo, hi, _, _ in pieces:
            cell = [0, -1]
            tagged.append((lo, cell, 0))
            if hi != ONE:
                tagged.append((hi, cell, 1))
            row.append(cell)
        cells.append(row)
    tagged.sort(key=itemgetter(0))
    last = ZERO
    pts = [last]
    for x, cell, end in tagged:
        if x != last:
            pts.append(x)
            last = x
        cell[end] = len(pts) - 1
    return pts, cells


def _coverage(m, split_pieces, cells):
    """Per-cell cover counts of a piece soup against m critical points.

    cells holds each piece's indices from _critical_points.  Returns (icov,
    pcov): icov[i] counts pieces covering the open interval (pts[i], next
    point), pcov[i] counts pieces containing the point pts[i].
    """
    delta = [0] * (m + 1)
    pcov = [0] * m
    ends_at = [0] * m
    for (_, _, lc, hc), (i, j) in zip(split_pieces, cells):
        if i == j:
            pcov[i] += 1
            continue
        delta[i] += 1
        if j < 0:
            delta[m] -= 1
            ends_at[0] += 1
        else:
            delta[j] -= 1
            if hc:
                pcov[j] += 1
            ends_at[j] += 1
        if lc:
            pcov[i] += 1
    icov = [0] * m
    run = 0
    for i in range(m):
        run += delta[i]
        icov[i] = run
    for i in range(m):
        pcov[i] += icov[i - 1 if i else m - 1] - ends_at[i]
    return icov, pcov


def _sweep(soup):
    """Critical points and cover counts of one piece soup."""
    pts, (cells,) = _critical_points([soup])
    return pts, _coverage(len(pts), soup, cells)


def _assemble(system, pts, ival_flags, point_flags):
    """Rebuild a canonical Region from per-cell booleans."""
    m = len(pts)
    n = 2 * m

    def covered(ci):
        i, r = divmod(ci % n, 2)
        return point_flags[ci % n // 2] if r == 0 else ival_flags[ci % n // 2]

    anchor = None
    for ci in range(n):
        if not covered(ci):
            anchor = ci
            break
    if anchor is None:
        return Region._make(system, ((ZERO, ONE, True, False),))

    pieces = []
    run_start = None
    for t in range(anchor + 1, anchor + 1 + n):
        if covered(t):
            if run_start is None:
                run_start = t
        elif run_start is not None:
            pieces.extend(_run_piece(pts, run_start, t - 1))
            run_start = None
    if run_start is not None:
        pieces.extend(_run_piece(pts, run_start, anchor + n))
    pieces.sort(key=lambda p: (p[0], p[1]))
    return Region._make(system, tuple(pieces))


def _run_piece(pts, a, b):
    m = len(pts)
    n = 2 * m

    def cell_lo(ci):
        w, r = divmod(ci, n)
        i, kind = divmod(r, 2)
        p = pts[i] + w if w else pts[i]
        if kind == 0:
            return p, True
        return p, False

    def cell_hi(ci):
        w, r = divmod(ci, n)
        i, kind = divmod(r, 2)
        if kind == 0:
            p = pts[i] + w if w else pts[i]
            return p, True
        nxt = pts[i + 1] if i + 1 < m else ONE
        return nxt + w if w else nxt, False

    lo, lc = cell_lo(a)
    hi, hc = cell_hi(b)
    out, full = _split_lifted(lo, hi, lc, hc)
    if full:
        raise AssertionError("full-circle run must be caught earlier")
    return out


class Region:
    """Finite union of circle arcs in canonical form."""

    __slots__ = ("system", "pieces")

    def __init__(self, system: CircleRotation, arcs):
        """Build from an iterable of lifted arcs (lo, hi, lo_closed, hi_closed)."""
        soup = []
        full = False
        for lo, hi, lc, hc in arcs:
            ps, f = _split_lifted(ExactScalar.coerce(lo), ExactScalar.coerce(hi), lc, hc)
            full = full or f
            soup.extend(ps)
        if full:
            canon = ((ZERO, ONE, True, False),)
        elif not soup:
            canon = ()
        else:
            pts, (icov, pcov) = _sweep(soup)
            reg = _assemble(system, pts, [c > 0 for c in icov], [c > 0 for c in pcov])
            canon = reg.pieces
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "pieces", canon)

    def __setattr__(self, name, value):
        raise AttributeError("Region is immutable")

    @classmethod
    def _make(cls, system, canon_pieces):
        r = object.__new__(cls)
        object.__setattr__(r, "system", system)
        object.__setattr__(r, "pieces", canon_pieces)
        return r

    @classmethod
    def empty(cls, system) -> "Region":
        return cls._make(system, ())

    @classmethod
    def full(cls, system) -> "Region":
        return cls._make(system, ((ZERO, ONE, True, False),))

    @classmethod
    def interval(cls, system, lo, hi, lo_closed=True, hi_closed=True) -> "Region":
        return cls(system, [(lo, hi, lo_closed, hi_closed)])

    @classmethod
    def points(cls, system, xs) -> "Region":
        return cls(system, [(x, x, True, True) for x in map(ExactScalar.coerce, xs)])

    # -- basic predicates

    @property
    def is_empty(self) -> bool:
        return not self.pieces

    @property
    def is_full(self) -> bool:
        return self.pieces == ((ZERO, ONE, True, False),)

    def __eq__(self, other):
        return (
            isinstance(other, Region)
            and self.system == other.system
            and self.pieces == other.pieces
        )

    def __hash__(self):
        return hash((self.system, self.pieces))

    def __repr__(self):
        bits = []
        for lo, hi, lc, hc in self.pieces:
            bits.append(f"{'[' if lc else '('}{lo},{hi}{']' if hc else ')'}")
        return f"Region({' u '.join(bits) if bits else 'empty'})"

    def measure(self) -> ExactScalar:
        total = ZERO
        for lo, hi, _, _ in self.pieces:
            total = total + (hi - lo)
        return total

    def contains_point(self, x) -> bool:
        x = ExactScalar.coerce(x)
        if x.sign() < 0 or x >= 1:
            x = x.frac()
        ps = self.pieces
        if not ps:
            return False
        i = bisect_left(ps, x, key=itemgetter(0))
        for k in (i - 1, i):
            if 0 <= k < len(ps):
                lo, hi, lc, hc = ps[k]
                if lo == hi:
                    if x == lo:
                        return True
                elif (lo < x < hi) or (x == lo and lc) or (x == hi and hc):
                    return True
        return False

    # -- boolean algebra via the cell sweep

    def _cells_with(self, others):
        split_lists = [self.pieces] + [o.pieces for o in others]
        pts, cells = _critical_points(split_lists)
        covs = [_coverage(len(pts), sp, c) for sp, c in zip(split_lists, cells)]
        return pts, covs

    def _combine(self, others, func):
        for o in others:
            _check_same_system(self, o)
        pts, covs = self._cells_with(others)
        m = len(pts)
        ivals = [func(tuple(c[0][i] > 0 for c in covs)) for i in range(m)]
        ptsb = [func(tuple(c[1][i] > 0 for c in covs)) for i in range(m)]
        return _assemble(self.system, pts, ivals, ptsb)

    def union(self, other) -> "Region":
        return self._combine([other], lambda t: t[0] or t[1])

    def intersect(self, other) -> "Region":
        return self._combine([other], lambda t: t[0] and t[1])

    def minus(self, other) -> "Region":
        return self._combine([other], lambda t: t[0] and not t[1])

    def complement(self) -> "Region":
        return self._combine([], lambda t: not t[0])

    def contains_region(self, other) -> bool:
        _check_same_system(self, other)
        pts, covs = self._cells_with([other])
        (si, sp), (oi, op) = covs
        return all(s > 0 or o == 0 for s, o in zip(si, oi)) and all(
            s > 0 or o == 0 for s, o in zip(sp, op)
        )

    def intersects(self, other) -> bool:
        _check_same_system(self, other)
        pts, covs = self._cells_with([other])
        (si, sp), (oi, op) = covs
        return any(s > 0 and o > 0 for s, o in zip(si, oi)) or any(
            s > 0 and o > 0 for s, o in zip(sp, op)
        )

    # -- topology

    def closure(self) -> "Region":
        pts, covs = self._cells_with([])
        icov, pcov = covs[0]
        m = len(pts)
        ivals = [c > 0 for c in icov]
        ptsb = [
            pcov[i] > 0 or icov[i] > 0 or icov[i - 1 if i else m - 1] > 0 for i in range(m)
        ]
        return _assemble(self.system, pts, ivals, ptsb)

    def interior(self) -> "Region":
        pts, covs = self._cells_with([])
        icov, pcov = covs[0]
        m = len(pts)
        ivals = [c > 0 for c in icov]
        ptsb = [
            pcov[i] > 0 and icov[i] > 0 and icov[i - 1 if i else m - 1] > 0 for i in range(m)
        ]
        return _assemble(self.system, pts, ivals, ptsb)

    def boundary_points(self) -> tuple:
        pts, covs = self._cells_with([])
        icov, pcov = covs[0]
        m = len(pts)
        out = []
        for i in range(m):
            left = icov[i - 1 if i else m - 1] > 0
            right = icov[i] > 0
            in_closure = pcov[i] > 0 or left or right
            in_interior = pcov[i] > 0 and left and right
            if in_closure and not in_interior:
                out.append(pts[i])
        return tuple(out)

    def boundary(self) -> BoundaryReport:
        return BoundaryReport(points=self.boundary_points())

    # -- geometry

    def translate(self, n: int) -> "Region":
        """The image under the n-th iterate, by rotating the canonical pieces.

        The logical arcs (the pieces with the old seam joined) keep their
        cyclic order: those that pass 1 move to the front, and only the
        last one can reach the new seam, where it is cut.  No sweep.
        """
        if n == 0 or self.is_empty or self.is_full:
            return self
        shift = (n * self.system.theta).frac()
        arcs = self.logical_arcs()
        k = bisect_left(arcs, ONE - shift, key=itemgetter(0))
        back = shift - 1
        out = [(lo + back, hi + back, lc, hc) for lo, hi, lc, hc in arcs[k:]]
        out += [(lo + shift, hi + shift, lc, hc) for lo, hi, lc, hc in arcs[:k]]
        lo, hi, lc, hc = out[-1]
        t = (hi - 1).sign()
        if t >= 0:
            out[-1] = (lo, ONE, lc, False)
            if t > 0:
                out.insert(0, (ZERO, hi - 1, True, hc))
            elif hc:
                out.insert(0, (ZERO, ZERO, True, True))
        return Region._make(self.system, tuple(out))

    def logical_arcs(self):
        """Pieces with the wrap seam re-joined, in lifted coordinates.

        The full circle raises; callers that admit it must test is_full first.
        """
        if self.is_full:
            raise ValueError("full circle has no logical arc decomposition")
        ps = list(self.pieces)
        if not ps:
            return []
        first = ps[0]
        last = ps[-1]
        if len(ps) >= 2 and (last[1] - 1).sign() == 0 and first[0].sign() == 0 and first[2]:
            merged = (last[0], first[1] + 1, last[2], first[3])
            ps = ps[1:-1]
            ps.append(merged)
        return ps

    def point_list(self) -> tuple:
        """The members of a finite (all-degenerate) region."""
        for lo, hi, _, _ in self.pieces:
            if lo != hi:
                raise NotNull("region has an arc of positive length")
        return tuple(p[0] for p in self.pieces)


def _pieces(system, regions):
    soup = []
    for r in regions:
        _ambient(system, r)
        soup.extend(r.pieces)
    return soup


def _index_union(system, regions):
    """The union of the index sets of cylinder regions, and the sum of their
    sizes."""
    union, total = set(), 0
    for r in regions:
        _ambient(system, r)
        union |= r.indices
        total += len(r.indices)
    return union, total


def union_many(system, regions):
    if isinstance(system, Odometer):
        return CylinderRegion(system, _index_union(system, regions)[0])
    soup = _pieces(system, regions)
    if not soup:
        return Region.empty(system)
    pts, (icov, pcov) = _sweep(soup)
    return _assemble(system, pts, [c > 0 for c in icov], [c > 0 for c in pcov])


def pairwise_disjoint(system, regions) -> bool:
    """Exact pairwise disjointness of canonical regions in one sweep."""
    if isinstance(system, Odometer):
        union, total = _index_union(system, regions)
        return len(union) == total
    soup = _pieces(system, regions)
    if not soup:
        return True
    pts, (icov, pcov) = _sweep(soup)
    return max(icov) <= 1 and max(pcov) <= 1


def covers_space(system, regions) -> bool:
    if isinstance(system, Odometer):
        return len(_index_union(system, regions)[0]) == system.resolution
    soup = _pieces(system, regions)
    if not soup:
        return False
    pts, (icov, pcov) = _sweep(soup)
    return min(icov) >= 1 and min(pcov) >= 1


def _ambient(system, region):
    if region.system != system:
        raise MixedAmbient("region belongs to a different system")


def arc_point_gap(x: ExactScalar, region: Region) -> ExactScalar:
    """Circle distance from a point to a non-empty closed region."""
    if region.is_empty:
        raise EmptyInput("distance to the empty region")
    if region.contains_point(x):
        return ZERO
    best = None
    for lo, hi, _, _ in region.pieces:
        for e in (lo, hi):
            d = circle_norm(x - e)
            if best is None or d < best:
                best = d
    return best


def region_gap(a: Region, b: Region) -> ExactScalar:
    """Circle distance between two non-empty regions (0 if they meet)."""
    _check_same_system(a, b)
    if a.is_empty or b.is_empty:
        raise EmptyInput("distance to the empty region")
    if a.intersects(b):
        return ZERO
    best = None
    for lo1, hi1, _, _ in a.pieces:
        for lo2, hi2, _, _ in b.pieces:
            for d in (circle_norm(lo2 - hi1), circle_norm(lo1 - hi2)):
                if best is None or d < best:
                    best = d
    return best


# ---------------------------------------------------------------------------
# odometer


class CylinderRegion:
    """Union of level-n cylinders of an odometer, stored as an index set."""

    __slots__ = ("system", "indices")

    def __init__(self, system: Odometer, indices):
        idx = frozenset(int(i) for i in indices)
        for i in idx:
            if not 0 <= i < system.resolution:
                raise ValueError("cylinder index out of range")
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "indices", idx)

    def __setattr__(self, name, value):
        raise AttributeError("CylinderRegion is immutable")

    @classmethod
    def empty(cls, system):
        return cls(system, ())

    @classmethod
    def full(cls, system):
        return cls(system, range(system.resolution))

    @property
    def is_empty(self):
        return not self.indices

    @property
    def is_full(self):
        return len(self.indices) == self.system.resolution

    def __eq__(self, other):
        return (
            isinstance(other, CylinderRegion)
            and self.system == other.system
            and self.indices == other.indices
        )

    def __hash__(self):
        return hash((self.system, self.indices))

    def __repr__(self):
        return f"CylinderRegion({sorted(self.indices)})"

    def measure(self) -> ExactScalar:
        return ExactScalar(len(self.indices), 0, self.system.resolution)

    def union(self, other):
        _check_same_system(self, other)
        return CylinderRegion(self.system, self.indices | other.indices)

    def intersect(self, other):
        _check_same_system(self, other)
        return CylinderRegion(self.system, self.indices & other.indices)

    def minus(self, other):
        _check_same_system(self, other)
        return CylinderRegion(self.system, self.indices - other.indices)

    def complement(self):
        return CylinderRegion(self.system, set(range(self.system.resolution)) - self.indices)

    def closure(self):
        return self

    def interior(self):
        return self

    def boundary(self) -> BoundaryReport:
        return BoundaryReport()

    def contains_region(self, other):
        _check_same_system(self, other)
        return other.indices <= self.indices

    def intersects(self, other):
        _check_same_system(self, other)
        return bool(self.indices & other.indices)

    def contains_point(self, word) -> bool:
        return self.system.word_to_index(word) in self.indices

    def translate(self, n: int):
        K = self.system.resolution
        return CylinderRegion(self.system, ((i + n) % K for i in self.indices))


# ---------------------------------------------------------------------------
# tower levels, walked instead of built
#
# A level of a tower column is the open region h^j(int cell).  On an
# odometer a level is that CylinderRegion.  On a circle it is a tuple of
# lifted open arcs (lo, hi) with lo in [0, 1) and hi - lo < 1, one per
# logical arc of int cell and in that order; the next level adds theta to
# each lo and wraps it with one compare, so no region is built.  The whole
# circle, which no such arc covers, is the sentinel _FULL_LEVEL.

_FULL_LEVEL = ((ZERO, ONE),)
_TWO = ExactScalar(2)


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


def levels_disjoint(system, levels) -> bool:
    """Exact pairwise disjointness of walked levels.

    On a circle this is one sort of the lifted arcs by left end: they are
    pairwise disjoint exactly when each ends by the next one's start and
    the last ends by the first one's start plus 1.
    """
    if isinstance(system, Odometer):
        return pairwise_disjoint(system, levels)
    arcs = sorted((arc for level in levels for arc in level), key=itemgetter(0))
    if not arcs:
        return True
    for (_, hi), (lo, _) in zip(arcs, arcs[1:]):
        if lo < hi:
            return False
    return arcs[-1][1] - 1 <= arcs[0][0]


class ArcLocator:
    """Lifted open arcs against sorted points of the circle, by bisection.

    The points cut the circle into gaps; gap i runs from points[i - 1] to
    points[i], and gaps 0 and len(points) are the same gap through the
    last point and the first.  An arc (lo, hi), lo in [0, 1), hi - lo < 1,
    holds a point strictly inside exactly when the first point after lo,
    taken cyclically and lifted past lo, lies below hi; otherwise the arc
    lies in one gap.
    """

    __slots__ = ("points", "lifted")

    def __init__(self, points):
        self.points = list(points)
        # each point and its lift by 1, then a bound above every hi
        self.lifted = self.points + [p + 1 for p in self.points] + [_TWO]

    def gap(self, lo, hi):
        """The index of the gap holding (lo, hi), or None if it holds a point."""
        i = bisect_right(self.points, lo)
        return None if self.lifted[i] < hi else i

    def inside(self, lo, hi):
        """The points strictly inside (lo, hi), lifted into it, ascending."""
        i = bisect_right(self.points, lo)
        lifted, out = self.lifted, []
        while lifted[i] < hi:
            out.append(lifted[i])
            i += 1
        return out


def level_locator(system, S):
    """A function telling where a walked level lies against S: True when
    it lies in S, False when it misses S, None when it meets S and its
    complement both.

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
    loc = ArcLocator(S.boundary_points())
    pts = loc.points
    if not pts:
        return lambda level: S.is_full
    inside = [S.contains_point((pts[-1] + pts[0] + 1) / 2)]
    inside += [S.contains_point((a + b) / 2) for a, b in zip(pts, pts[1:])]
    inside.append(inside[0])
    gap = loc.gap

    def locate_arcs(level):
        if level is _FULL_LEVEL:
            return None
        where = True
        for k, (lo, hi) in enumerate(level):
            g = gap(lo, hi)
            if g is None:
                return None
            if k == 0:
                where = inside[g]
            elif inside[g] != where:
                return None
        return where

    return locate_arcs


# ---------------------------------------------------------------------------
# torus

# An axis arc is a lifted tuple (lo, hi, lc, hc) with hi - lo in [0, 1];
# hi - lo == 1 marks the full axis circle.


def _arc_full(arc) -> bool:
    return ((arc[1] - arc[0]) - 1).sign() == 0


def _arc_pairs(arc):
    """Linear representatives (lo, hi, lc, hc) with lo in [0,1)."""
    lo, hi, lc, hc = arc
    base = lo.frac()
    return (base, base + (hi - lo), lc, hc)


def _linear_overlap(a, b) -> bool:
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


def arc_intersects(a, b) -> bool:
    if _arc_full(a) or _arc_full(b):
        return True
    a = _arc_pairs(a)
    b = _arc_pairs(b)
    for s in (-1, 0, 1):
        shifted = (b[0] + s, b[1] + s, b[2], b[3])
        if _linear_overlap(a, shifted):
            return True
    return False


def arc_contains_point(arc, x) -> bool:
    if _arc_full(arc):
        return True
    lo, hi, lc, hc = _arc_pairs(arc)
    x = ExactScalar.coerce(x).frac()
    for s in (0, 1):
        xs = x + s
        if (lo < xs < hi) or (xs == lo and lc) or (xs == hi and hc):
            return True
    return False


class BoxRegion:
    """Finite union of boxes (products of axis arcs) on a torus."""

    __slots__ = ("system", "boxes")

    def __init__(self, system: TorusRotation, boxes):
        canon = []
        for box in boxes:
            if len(box) != system.dim:
                raise MixedAmbient("box dimension mismatch")
            axes = []
            empty = False
            for lo, hi, lc, hc in box:
                lo = ExactScalar.coerce(lo)
                hi = ExactScalar.coerce(hi)
                ln = hi - lo
                if ln.sign() < 0 or (ln - 1).sign() > 0:
                    raise ValueError("axis arc length must lie in [0, 1]")
                if ln.sign() == 0 and not (lc and hc):
                    empty = True
                base = lo.frac()
                axes.append((base, base + ln, lc, hc))
            if not empty:
                canon.append(tuple(axes))
        canon.sort(key=lambda bx: tuple((a[0], a[1]) for a in bx))
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "boxes", tuple(canon))

    def __setattr__(self, name, value):
        raise AttributeError("BoxRegion is immutable")

    @classmethod
    def empty(cls, system):
        return cls(system, ())

    @property
    def is_empty(self):
        return not self.boxes

    def __eq__(self, other):
        return (
            isinstance(other, BoxRegion)
            and self.system == other.system
            and self.boxes == other.boxes
        )

    def __hash__(self):
        return hash((self.system, self.boxes))

    def __repr__(self):
        return f"BoxRegion({len(self.boxes)} boxes, dim={getattr(self.system, 'dim', '?')})"

    def union(self, other):
        _check_same_system(self, other)
        return BoxRegion(self.system, self.boxes + other.boxes)

    def translate(self, n: int):
        out = []
        for box in self.boxes:
            axes = []
            for (lo, hi, lc, hc), th in zip(box, self.system.thetas):
                s = (n * th).frac()
                axes.append((lo + s, hi + s, lc, hc))
            out.append(tuple(axes))
        return BoxRegion(self.system, out)

    def closure(self):
        return BoxRegion(
            self.system,
            [tuple((lo, hi, True, True) if (hi - lo - 1).sign() != 0 else (lo, hi, lc, hc)
                   for lo, hi, lc, hc in box)
             for box in self.boxes],
        )

    def interior_boxes(self):
        out = []
        for box in self.boxes:
            axes = []
            empty = False
            for lo, hi, lc, hc in box:
                if (hi - lo - 1).sign() == 0:
                    axes.append((lo, hi, lc, hc))
                    continue
                if (hi - lo).sign() == 0:
                    empty = True
                    break
                axes.append((lo, hi, False, False))
            if not empty:
                out.append(tuple(axes))
        return BoxRegion(self.system, out)

    def intersects(self, other) -> bool:
        _check_same_system(self, other)
        for b1 in self.boxes:
            for b2 in other.boxes:
                if all(arc_intersects(a1, a2) for a1, a2 in zip(b1, b2)):
                    return True
        return False

    def contains_point(self, point) -> bool:
        return any(
            all(arc_contains_point(a, x) for a, x in zip(box, point)) for box in self.boxes
        )

    def boundary(self) -> BoundaryReport:
        """Faces of each box: per axis, the two end slices crossed with the
        closures of the other axes.  Full axes contribute no faces."""
        faces = []
        for box in self.boxes:
            closed = tuple(
                (lo, hi, True, True) if (hi - lo - 1).sign() != 0 else (lo, hi, lc, hc)
                for lo, hi, lc, hc in box
            )
            for i, (lo, hi, lc, hc) in enumerate(box):
                if (hi - lo - 1).sign() == 0:
                    continue
                for v in (lo, hi):
                    face = list(closed)
                    face[i] = (v.frac(), v.frac(), True, True)
                    faces.append(tuple(face))
        dedup = sorted(set(faces), key=lambda bx: tuple((a[0], a[1]) for a in bx))
        return BoundaryReport(faces=tuple(dedup))

    def boundary_region(self) -> "BoxRegion":
        return BoxRegion(self.system, self.boundary().faces)

    def _axis_region(self, box, axis) -> Region:
        return Region(self.system.factors[axis], [box[axis]])

    def measure(self) -> ExactScalar:
        """Exact volume by inclusion-exclusion over boxes.

        Per-axis lengths stay inside that axis's quadratic field; the final
        product is exact whenever at most one factor per term is irrational
        (always the case for boxes with rational side lengths, translates
        included) and raises otherwise.
        """
        n = len(self.boxes)
        if n == 0:
            return ZERO
        total = ZERO
        for mask in range(1, 1 << n):
            sel = [self.boxes[i] for i in range(n) if mask >> i & 1]
            vol = ONE
            for axis in range(self.system.dim):
                reg = self._axis_region(sel[0], axis)
                for box in sel[1:]:
                    reg = reg.intersect(self._axis_region(box, axis))
                vol = vol * reg.measure()
                if vol.sign() == 0:
                    break
            if vol.sign() != 0:
                total = total + (vol if bin(mask).count("1") % 2 else -vol)
        return total


# ---------------------------------------------------------------------------
# measure-theoretic helpers shared by the pipeline


def measure(system, region) -> ExactScalar:
    if region.system != system:
        raise MixedAmbient("region belongs to a different system")
    return region.measure()


def translate_region(system, region, n: int):
    if region.system != system:
        raise MixedAmbient("region belongs to a different system")
    return region.translate(n)


def measure_gap(system, C, U) -> ExactScalar:
    """mu(U) - mu(C); may be non-positive, callers decide."""
    return measure(system, U) - measure(system, C)


def small_nbhd(system, F, eps) -> object:
    """Open E containing a finite F with mu(E) < eps.

    Circle: arcs of radius eps/(4*cardF) around each point; the empty set gets
    its minimal companion, a single arc of length eps/2 centered at 0.
    """
    eps = ExactScalar.coerce(eps)
    if eps.sign() <= 0:
        raise ValueError("eps must be positive")
    if isinstance(system, Odometer):
        if not F.is_empty:
            raise NotNull("odometer regions of measure zero are empty")
        K = system.resolution
        if (ExactScalar(1, 0, K) - eps).sign() >= 0:
            raise NotNull(f"no cylinder has measure below {eps}")
        return CylinderRegion(system, [0])
    if F.measure().sign() != 0:
        raise NotNull("F must have measure zero")
    if F.is_empty:
        r = eps / 4
        return Region(system, [(-r, r, False, False)])
    pts = F.point_list()
    r = eps / (4 * len(pts))
    return Region(system, [(p - r, p + r, False, False) for p in pts])


def inner_approx(system, U: Region, eps) -> Region:
    """Closed K inside an open U with mu(U \\ K) < eps.

    Each logical arc is retracted by min(eps, shortest arc length / 2)
    divided by 4 * piece count; the full circle is already closed.
    """
    eps = ExactScalar.coerce(eps)
    if eps.sign() <= 0:
        raise ValueError("eps must be positive")
    if U.is_empty:
        raise EmptyInput("inner approximation of the empty set")
    if U.is_full:
        return Region.full(system)
    arcs = U.logical_arcs()
    shortest = min((hi - lo for lo, hi, _, _ in arcs))
    delta = min(eps, shortest / 2) / (4 * len(arcs))
    return Region(system, [(lo + delta, hi - delta, True, True) for lo, hi, _, _ in arcs])


def outer_approx(system, F: Region, eps) -> Region:
    """Open E containing a closed F with mu(E \\ F) < eps.

    Symmetric to inner_approx: ends extend outward by min(eps, shortest
    complement gap / 2) / (4 * piece count).  The empty set stays empty.
    """
    eps = ExactScalar.coerce(eps)
    if eps.sign() <= 0:
        raise ValueError("eps must be positive")
    if F.is_empty:
        return Region.empty(system)
    if F.is_full:
        return Region.full(system)
    comp = F.complement()
    arcs = F.logical_arcs()
    gaps = min((hi - lo for lo, hi, _, _ in comp.logical_arcs()))
    delta = min(eps, gaps / 2) / (4 * len(arcs))
    return Region(system, [(lo - delta, hi + delta, False, False) for lo, hi, _, _ in arcs])
