"""Exact region algebra.

Circle regions are finite unions of arcs with exact endpoints and per-endpoint
closed/open flags, kept in a canonical cut-at-zero form: pieces sorted and
pairwise non-adjacent, wrap-around arcs split at 0, a piece ending at 1 never
contains the seam point (inclusion of 0 is carried by a piece starting at 0).
All boolean operations go through one sweep over elementary cells (critical
points and the open intervals between them) and one forward pass that turns
the covered cells back into pieces, so unions, boundaries, interiors and
containment are exact.

Odometer regions are sets of level-n cylinder indices; torus regions are
finite unions of boxes, each a product of circle regions, one per factor
rotation.

Tower levels are walked rather than built: an odometer level is a
CylinderRegion, a circle level a tuple of lifted arcs whose ends are
integer pairs on the tower's `scalars.Lattice`, walked, located against
cut points (`ArcLocator`) and chained (`levels_tile`) by sign tests on
integer differences.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter

from .errors import EmptyInput, MixedAmbient, NotNull
from .scalars import ExactScalar, ZERO, ONE, _sign_surd, dyadic_keys
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
    """Split a lifted arc (hi - lo in [0,1]) into a list of canonical-range
    pieces.  A whole-circle arc is the piece (0, 1, closed, open), which the
    sweep treats like any other; an arc that passes 1 is cut at the seam
    by `_cut_last`.
    """
    ln = hi - lo
    s = ln.sign()
    if s < 0 or (ln - 1).sign() > 0:
        raise ValueError("arc length must lie in [0, 1]")
    if s == 0:
        if lc and hc:
            p = lo.frac()
            return [(p, p, True, True)]
        return []
    if (ln - 1).sign() == 0:
        if lc or hc:
            return [(ZERO, ONE, True, False)]
        # circle minus a single point
        x = lo.frac()
        if x.sign() == 0:
            return [(ZERO, ONE, False, False)]
        return [(ZERO, x, True, False), (x, ONE, False, False)]
    lo = lo.frac()
    return list(_cut_last([(lo, lo + ln, lc, hc)]))


def _cut_last(arcs):
    """Canonical pieces of separated lifted arcs in order, lo in [0, 1),
    of which only the last may reach 1: it is cut at the seam, and the
    part from 0 goes in front."""
    if not arcs:
        return ()
    lo, hi, lc, hc = arcs[-1]
    t = hi.cmp_int(1)
    if t < 0:
        return tuple(arcs)
    front = [(ZERO, hi - 1, True, hc)] if t > 0 else [(ZERO, ZERO, True, True)] if hc else []
    return tuple(front + arcs[:-1] + [(lo, ONE, lc, False)])


def _rotated(arcs, shift):
    """Canonical pieces of separated lifted arcs in order, lo in [0, 1), of
    which only the last may pass 1, rotated by shift in [0, 1).

    The arcs keep their cyclic order: those moved to 1 or past it, one
    sign test each, go back by 1 to the front, and only the last one can
    reach the new seam, where it is cut.
    """
    front, rest = [], []
    for lo, hi, lc, hc in arcs:
        lo, hi = lo + shift, hi + shift
        if lo.cmp_int(1) >= 0:
            front.append((lo - 1, hi - 1, lc, hc))
        else:
            rest.append((lo, hi, lc, hc))
    return _cut_last(front + rest)


def _critical_points(split_lists, zero=ZERO, one=ONE):
    """Sorted distinct critical points of piece lists, with each piece's
    cell indices, from one sort of the tagged endpoints.

    The critical points are 0 and every piece end below 1.  zero and one
    stand for 0 and 1, so the piece ends may be any exactly ordered
    stand-ins, such as `dyadic_keys`, given in the same terms.  Returns
    (pts, cells): cells[k][t] is [i, j] for piece t of list k, running
    from pts[i] to pts[j]; j = i for a point piece and j = -1 for a piece
    that ends at 1.
    """
    tagged = []
    cells = []
    for pieces in split_lists:
        row = []
        for lo, hi, _, _ in pieces:
            cell = [0, -1]
            tagged.append((lo, cell, 0))
            if hi != one:
                tagged.append((hi, cell, 1))
            row.append(cell)
        cells.append(row)
    tagged.sort(key=itemgetter(0))
    last = zero
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


def _assemble(pts, ival_flags, point_flags):
    """Canonical pieces of the flagged cells, in one forward pass.

    Cell 2i is the point pts[i] and cell 2i+1 the open interval after it,
    running to the next point or to 1.  Each run of covered cells is one
    piece, closed where it starts or ends at a point cell and open at an
    interval cell; a run through the last interval ends at (1, open), and
    the seam point belongs to the run that starts at cell 0.  The pieces
    come out sorted, cut at 0 and separated.
    """
    out = []
    lo = None
    for p, at_point, after in zip(pts, point_flags, ival_flags):
        if at_point:
            if lo is None:
                lo, lc = p, True
        elif lo is not None:
            out.append((lo, p, lc, False))
            lo = None
        if after:
            if lo is None:
                lo, lc = p, False
        elif lo is not None:
            out.append((lo, p, lc, True))
            lo = None
    if lo is not None:
        out.append((lo, ONE, lc, False))
    return tuple(out)


def _swept(soup):
    """Canonical pieces of the union of a piece soup; () for no pieces."""
    pts, (icov, pcov) = _sweep(soup)
    return _assemble(pts, [c > 0 for c in icov], [c > 0 for c in pcov])


class Region:
    """Finite union of circle arcs in canonical form."""

    __slots__ = ("system", "pieces")

    def __init__(self, system: CircleRotation, arcs):
        """Build from an iterable of lifted arcs (lo, hi, lo_closed, hi_closed)."""
        soup = []
        for lo, hi, lc, hc in arcs:
            soup += _split_lifted(ExactScalar.coerce(lo), ExactScalar.coerce(hi), lc, hc)
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "pieces", _swept(soup))

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
        """The one lifted arc (lo, hi), cut at the seam: its pieces are
        canonical once the part past 1 is moved to the front, so no sweep."""
        pieces = _split_lifted(ExactScalar.coerce(lo), ExactScalar.coerce(hi), lo_closed, hi_closed)
        return cls._make(system, tuple(sorted(pieces, key=itemgetter(0))))

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
        return sum((hi - lo for lo, hi, _, _ in self.pieces), ZERO)

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
        return Region._make(self.system, _assemble(pts, ivals, ptsb))

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

    def _topology(self):
        """The critical points, the interval flags, and per point whether
        it lies in the closure and in the interior."""
        pts, ((icov, pcov),) = self._cells_with([])
        ivals = [c > 0 for c in icov]
        in_closure, in_interior = [], []
        left = ivals[-1]
        for c, right in zip(pcov, ivals):
            in_closure.append(c > 0 or left or right)
            in_interior.append(c > 0 and left and right)
            left = right
        return pts, ivals, in_closure, in_interior

    def closure(self) -> "Region":
        pts, ivals, in_closure, _ = self._topology()
        return Region._make(self.system, _assemble(pts, ivals, in_closure))

    def interior(self) -> "Region":
        pts, ivals, _, in_interior = self._topology()
        return Region._make(self.system, _assemble(pts, ivals, in_interior))

    def boundary_points(self) -> tuple:
        pts, _, in_closure, in_interior = self._topology()
        return tuple(p for p, c, i in zip(pts, in_closure, in_interior) if c and not i)

    def boundary(self) -> BoundaryReport:
        return BoundaryReport(points=self.boundary_points())

    # -- geometry

    def translate(self, n: int) -> "Region":
        """The image under the n-th iterate: the logical arcs (the pieces
        with the old seam joined) rotated by `_rotated`.  No sweep."""
        if n == 0 or self.is_empty or self.is_full:
            return self
        shift = (n * self.system.theta).frac()
        return Region._make(self.system, _rotated(self.logical_arcs(), shift))

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
    return Region._make(system, _swept(_pieces(system, regions)))


def pairwise_disjoint(system, regions) -> bool:
    """Exact pairwise disjointness of canonical regions in one sweep."""
    if isinstance(system, Odometer):
        union, total = _index_union(system, regions)
        return len(union) == total
    pts, (icov, pcov) = _sweep(_pieces(system, regions))
    return max(icov) <= 1 and max(pcov) <= 1


def disjoint_inside(system, regions, U):
    """(pairwise disjoint, all inside U) for canonical regions, from the
    union of the index sets on an odometer.  On the circle a cell covered
    twice is an overlap, and a covered cell outside U an escape: one sweep
    of the regions' pieces and U's runs on the `dyadic_keys` of every piece
    end and of 1, from one call, so it sorts and compares integers."""
    _ambient(system, U)
    if isinstance(system, Odometer):
        union, total = _index_union(system, regions)
        return len(union) == total, union <= U.indices
    soup = _pieces(system, regions)
    pieces = soup + list(U.pieces)
    keys = dyadic_keys([e for lo, hi, _, _ in pieces for e in (lo, hi)] + [ONE])
    keyed = [(keys[2 * i], keys[2 * i + 1], lc, hc) for i, (_, _, lc, hc) in enumerate(pieces)]
    soup, upieces = keyed[:len(soup)], keyed[len(soup):]
    pts, (ucells, cells) = _critical_points([upieces, soup], 0, keys[-1])
    ucov, (si, sp) = _coverage(len(pts), upieces, ucells), _coverage(len(pts), soup, cells)
    inside = all(u or not s for us, ss in zip(ucov, (si, sp)) for u, s in zip(us, ss))
    return max(si) <= 1 and max(sp) <= 1, inside


def covers_space(system, regions) -> bool:
    if isinstance(system, Odometer):
        return len(_index_union(system, regions)[0]) == system.resolution
    pts, (icov, pcov) = _sweep(_pieces(system, regions))
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
    return min(circle_norm(x - e) for lo, hi, _, _ in region.pieces for e in (lo, hi))


def region_gap(a: Region, b: Region) -> ExactScalar:
    """Circle distance between two non-empty regions (0 if they meet)."""
    _check_same_system(a, b)
    if a.is_empty or b.is_empty:
        raise EmptyInput("distance to the empty region")
    if a.intersects(b):
        return ZERO
    return min(d for lo1, hi1, _, _ in a.pieces for lo2, hi2, _, _ in b.pieces
               for d in (circle_norm(lo2 - hi1), circle_norm(lo1 - hi2)))


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
# lifted open arcs (lo, hi), lo in [0, 1) and hi - lo < 1, one per logical
# arc of int cell and in that order, walked on the tower's Lattice: each
# arc is the integer tuple (A, B, C, E) with lo = (A + B sqrt(D))/L and
# hi = (C + E sqrt(D))/L.  The next level adds theta's pair to each lo and
# wraps it by L after one sign test, so neither a region nor a scalar is
# built; a caller that needs a level's ends as ExactScalars reads them off
# the walk through `Lattice.scalar`.


def walk_levels(system, opened, n, lattice):
    """Yield the levels h^0(opened), ..., h^(n-1)(opened) of an open region;
    on a circle on `lattice`, which holds opened's arc ends and, if n > 1,
    theta (None on an odometer)."""
    if isinstance(system, Odometer):
        level = opened
        for j in range(n):
            if j:
                level = level.translate(1)
            yield level
        return
    L, D = lattice.L, lattice.D
    if opened.is_full:
        for _ in range(n):
            yield ((0, 0, L, 0),)
        return
    level = tuple(lattice.pair(lo) + lattice.pair(hi) for lo, hi, _, _ in opened.logical_arcs())
    TA, TB = lattice.pair(system.theta) if n > 1 else (0, 0)
    for j in range(n):
        if j:
            stepped = []
            for A, B, C, E in level:
                A, B, C, E = A + TA, B + TB, C + TA, E + TB
                if _sign_surd(A - L, B, D) >= 0:
                    A, C = A - L, C - L
                stepped.append((A, B, C, E))
            level = tuple(stepped)
        yield level


def levels_tile(system, levels, lattice) -> bool:
    """Whether walked levels whose measures sum to 1 are pairwise disjoint,
    so that their closures tile the space.

    On a circle, by one chain on the levels' lattice, keyed by integer
    pairs, and no sort: when no two lifted arcs share a start and
    following each arc's end (mod 1) to the arc starting there passes
    every arc once before it returns, the arcs abut around the circle, and
    as their lengths sum to 1 they wind it once, disjointly.  Disjoint open
    arcs of total length 1 leave no gap, so they pass.
    """
    if isinstance(system, Odometer):
        return pairwise_disjoint(system, levels)
    L, D = lattice.L, lattice.D
    ends = {}
    arcs = 0
    for level in levels:
        for A, B, C, E in level:
            arcs += 1
            if _sign_surd(C - L, E, D) >= 0:
                C -= L
            ends[A, B] = C, E
    if len(ends) < arcs:
        return False  # two arcs start at one point
    start = at = next(iter(ends), None)
    for steps in range(1, len(ends) + 1):
        at = ends.get(at)
        if at is None:
            return False  # no arc starts where this one ends
        if at == start:
            return steps == len(ends)
    return False


class ArcLocator:
    """Lifted open arcs against sorted points of the circle, on a lattice.

    The points cut the circle into gaps; gap i runs from points[i - 1] to
    points[i], and gaps 0 and len(points) are the same gap through the
    last point and the first.  `lifted` holds each point's pair, then each
    lifted by 1, then a bound above every hi.  An arc (A, B, C, E) as
    `walk_levels` walks it, with lo in [0, 1) and hi - lo < 1, holds a
    point strictly inside exactly when the first point after lo, taken
    cyclically and lifted past lo, lies below hi; otherwise the arc lies in
    one gap.  Every order is one `_sign_surd` test on integer differences.
    """

    __slots__ = ("points", "lifted", "D")

    def __init__(self, points, lattice):
        self.points = list(points)
        pairs = [lattice.pair(p) for p in self.points]
        L = lattice.L
        self.lifted = pairs + [(A + L, B) for A, B in pairs] + [(2 * L, 0)]
        self.D = lattice.D

    def inside(self, A, B, C, E):
        """The gap holding lo, and the pairs of the points strictly inside
        (lo, hi), lifted into it, ascending."""
        lifted, D = self.lifted, self.D
        i, top = 0, len(self.points)
        while i < top:  # the number of points up to lo
            mid = (i + top) // 2
            pa, pb = lifted[mid]
            if _sign_surd(A - pa, B - pb, D) < 0:
                top = mid
            else:
                i = mid + 1
        g, out = i, []
        pa, pb = lifted[i]
        while _sign_surd(pa - C, pb - E, D) < 0:
            out.append((pa, pb))
            i += 1
            pa, pb = lifted[i]
        return g, out

    def holds(self, g, A, B, C, E):
        """Whether (lo, hi), 0 <= lo < hi < 2, lies between lifted points
        g - 1 and g, two sign tests; then g is the number of lifted points
        up to lo, and no point lies strictly inside the arc."""
        lifted, D = self.lifted, self.D
        if g:
            pa, pb = lifted[g - 1]
            if _sign_surd(A - pa, B - pb, D) < 0:
                return False
        pa, pb = lifted[g]
        return _sign_surd(pa - C, pb - E, D) >= 0


# ---------------------------------------------------------------------------
# torus


class BoxRegion:
    """Finite union of boxes on a torus.  A box is a tuple of circle Regions,
    one per factor rotation, so every per-axis question is answered by the
    circle algebra."""

    __slots__ = ("system", "boxes")

    def __init__(self, system: TorusRotation, boxes):
        """Build from boxes given as one lifted arc (lo, hi, lo_closed,
        hi_closed) per axis."""
        axes = []
        for box in boxes:
            if len(box) != system.dim:
                raise MixedAmbient("box dimension mismatch")
            axes.append(tuple(Region(f, [arc]) for f, arc in zip(system.factors, box)))
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "boxes", BoxRegion._make(system, axes).boxes)

    def __setattr__(self, name, value):
        raise AttributeError("BoxRegion is immutable")

    @classmethod
    def _make(cls, system, boxes):
        """Boxes of axis Regions, with empty boxes dropped, deduplicated and
        sorted by their axes' pieces."""
        keep = {box for box in boxes if not any(r.is_empty for r in box)}
        out = object.__new__(cls)
        object.__setattr__(out, "system", system)
        object.__setattr__(
            out, "boxes", tuple(sorted(keep, key=lambda box: tuple(r.pieces for r in box)))
        )
        return out

    @classmethod
    def empty(cls, system):
        return cls._make(system, ())

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
        return BoxRegion._make(self.system, self.boxes + other.boxes)

    def intersect(self, other) -> "BoxRegion":
        """Per pair of boxes, the product of the axis intersections."""
        _check_same_system(self, other)
        return BoxRegion._make(
            self.system,
            [tuple(a.intersect(b) for a, b in zip(b1, b2))
             for b1 in self.boxes for b2 in other.boxes],
        )

    def translate(self, n: int):
        return BoxRegion._make(
            self.system, [tuple(r.translate(n) for r in box) for box in self.boxes]
        )

    def closure(self):
        return BoxRegion._make(
            self.system, [tuple(r.closure() for r in box) for box in self.boxes]
        )

    def intersects(self, other) -> bool:
        _check_same_system(self, other)
        return any(
            all(a.intersects(b) for a, b in zip(b1, b2))
            for b1 in self.boxes for b2 in other.boxes
        )

    def contains_point(self, point) -> bool:
        if len(point) != self.system.dim:
            raise MixedAmbient("point dimension mismatch")
        return any(
            all(r.contains_point(x) for r, x in zip(box, point)) for box in self.boxes
        )

    def boundary(self) -> BoundaryReport:
        return BoundaryReport(faces=self.boundary_region().boxes)

    def boundary_region(self) -> "BoxRegion":
        """Faces of each box: per axis, each boundary point of that axis
        crossed with the closures of the other axes.  Full axes have no
        boundary points and contribute no faces."""
        faces = []
        for box in self.boxes:
            closed = tuple(r.closure() for r in box)
            for i, r in enumerate(box):
                for v in r.boundary_points():
                    face = list(closed)
                    face[i] = Region._make(r.system, ((v, v, True, True),))
                    faces.append(tuple(face))
        return BoxRegion._make(self.system, faces)

    def measure(self) -> ExactScalar:
        """Exact volume of the union of the boxes (`_union_volume`)."""
        return _union_volume(self.boxes)


def _union_volume(boxes):
    """Volume of a union of boxes of axis Regions, by one sweep of the
    first axis: each open cell between its critical points adds its length
    times the volume, over the other axes, of the boxes covering it.

    Per-axis lengths stay inside that axis's quadratic field.  Cells of
    equal volume over the other axes pool their lengths before the one
    product, and the products are summed per field first, so irrational
    parts that cancel never meet another field.  A product of two
    irrational factors from different fields raises, as does a volume
    irrational in two fields.
    """
    if boxes and not boxes[0]:
        return ONE  # no axis left: the empty product
    firsts = [box[0].pieces for box in boxes]
    pts, cells = _critical_points(firsts)
    m = len(pts)
    covers = [_coverage(m, pieces, c)[0] for pieces, c in zip(firsts, cells)]
    lengths = {}  # volume over the other axes -> length of its cells
    for i, (lo, hi) in enumerate(zip(pts, pts[1:] + [ONE])):
        rest = [box[1:] for box, icov in zip(boxes, covers) if icov[i]]
        if rest:
            vol = _union_volume(rest)
            lengths[vol] = lengths.get(vol, ZERO) + (hi - lo)
    per_field = {}
    for vol, length in lengths.items():
        term = length * vol
        per_field[term.D] = per_field.get(term.D, ZERO) + term
    return sum(per_field.values(), ZERO)


# ---------------------------------------------------------------------------
# measure-theoretic helpers shared by the pipeline


def measure(system, region) -> ExactScalar:
    _ambient(system, region)
    return region.measure()


def translate_region(system, region, n: int):
    _ambient(system, region)
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
    gaps = min((hi - lo for lo, hi, _, _ in F.complement().logical_arcs()))
    delta = min(eps, gaps / 2) / (4 * len(F.logical_arcs()))
    return _widened(system, F, delta)


def _widened(system, R, m):
    """The open arcs reaching m beyond each logical arc of R."""
    return Region(system, [(lo - m, hi + m, False, False) for lo, hi, _, _ in R.logical_arcs()])
