"""Rokhlin towers: first-return construction, refinement, disjoint bases.

A tower over a closed base Y splits Y into columns by first-return time;
the images of a column under the rotation (its levels) have pairwise
disjoint interiors and their closures tile the space.  Everything is
verified exactly at construction time.
"""

from dataclasses import dataclass

from .errors import (
    EmptyInput,
    InvalidPartition,
    MixedAmbient,
    NonTerminationGuard,
)
from .scalars import ExactScalar, ONE, ZERO
from .systems import CircleRotation, Odometer, min_orbit_gap
from .regions import (
    ArcLocator,
    CylinderRegion,
    Region,
    covers_space,
    levels_disjoint,
    pairwise_disjoint,
    translate_region,
    union_many,
    walk_levels,
)

RETURN_GUARD = 10**6


def first_return(system, Y):
    """Partition of the base by first-return time, as (region, time) pairs.

    A circle base whose interior is one arc takes the three-gap path; other
    bases walk the orbit of the interior one step at a time.
    """
    if not isinstance(system, (CircleRotation, Odometer)):
        raise MixedAmbient("towers are built over circle rotations and odometers")
    base = Y.closure()
    inner = base.interior()
    if inner.is_empty:
        raise EmptyInput("base needs non-empty interior")
    if inner.closure() != base:
        raise ValueError("base must be the closure of its interior")
    if isinstance(system, CircleRotation) and not inner.is_full:
        arcs = inner.logical_arcs()
        if len(arcs) == 1:
            return _three_gap_return(system, arcs[0][0], arcs[0][1])
    return _walk_return(system, base, inner)


def _walk_return(system, base, inner):
    """First return by walking: translate what has not yet returned, keep
    what lands in the base, until nothing is left."""
    cells = {}
    current = translate_region(system, inner, 1)
    n = 1
    while not current.is_empty:
        if n > RETURN_GUARD:
            raise NonTerminationGuard("return times exceeded %d" % RETURN_GUARD)
        ret = current.intersect(base)
        if not ret.is_empty:
            cells[n] = translate_region(system, ret, -n)
        current = translate_region(system, current.minus(base), 1)
        n += 1
    return [(cells[n], n) for n in sorted(cells)]


def _three_gap_return(system, a, b):
    """First return to the closed arc [a, b] of its interior (a, b), by the
    three-gap theorem (Sos 1958; Slater 1967).

    With L = b - a, let alpha = {p*theta} be the first fractional part of
    the orbit below L and beta = 1 - {q*theta} the first one above 1 - L.
    The cells are (a, b - alpha] at height p, [a + beta, b) at height q,
    and (b - alpha, a + beta) at height p + q, which is empty unless
    alpha + beta > L (alpha + beta < L would give an earlier p or q).  When
    alpha + beta = L the one point b - alpha = a + beta returns at min(p, q).
    """
    theta = system.theta
    L = b - a
    d, n = ZERO, 0
    p = q = None
    while p is None or q is None:
        n += 1
        if n > RETURN_GUARD:
            raise NonTerminationGuard("return times exceeded %d" % RETURN_GUARD)
        d = d + theta
        if d >= 1:
            d = d - 1
        if p is None and d < L:
            p, alpha = n, d
        if q is None and ONE - d < L:
            q, beta = n, ONE - d
    mid = b - alpha  # equals a + beta when alpha + beta = L
    slack = (alpha + beta - L).sign()
    if slack > 0 and p + q > RETURN_GUARD:
        raise NonTerminationGuard("return times exceeded %d" % RETURN_GUARD)
    arcs = {}
    arcs.setdefault(p, []).append((a, mid, False, slack > 0 or p < q))
    arcs.setdefault(q, []).append((a + beta, b, slack > 0 or q < p, False))
    if slack > 0:
        arcs[p + q] = [(mid, a + beta, False, False)]
    return [(Region(system, arcs[n]), n) for n in sorted(arcs)]


@dataclass(frozen=True)
class RokhlinTower:
    system: object
    base: object
    columns: tuple  # ((closed cell, height), ...) sorted by (height, leftmost)

    def heights(self):
        return tuple(n for _, n in self.columns)

    def interior_empty(self, k: int) -> bool:
        return self.columns[k][0].interior().is_empty

    def open_levels(self):
        """Yield (column index, level index, open level region)."""
        for k, (cell, n) in enumerate(self.columns):
            level = cell.interior()
            for j in range(n):
                if j:
                    level = translate_region(self.system, level, 1)
                yield k, j, level

    def closed_levels(self):
        for k, (cell, n) in enumerate(self.columns):
            level = cell.closure()
            for j in range(n):
                if j:
                    level = translate_region(self.system, level, 1)
                yield k, j, level

    def verify(self):
        """Exact checks: disjoint open levels, cells union to the base, Kac.

        The closed levels then tile the space, with no separate pass: the
        open levels are pairwise disjoint and Kac gives them total measure
        1, so the complement of the closed levels is an open null set,
        hence empty.  On an odometer open and closed levels coincide, and
        disjoint levels of total measure 1 hold every cylinder.
        """
        sys = self.system
        levels = [level for cell, n in self.columns
                  for level in walk_levels(sys, cell.interior(), n)]
        if not levels_disjoint(sys, levels):
            raise RuntimeError("tower invariant failed: open levels overlap")
        if union_many(sys, [cell for cell, _ in self.columns]) != self.base:
            raise RuntimeError("tower invariant failed: cells do not union to the base")
        _check_kac(self)


def _check_kac(tower):
    """Kac identity sum n_k * mu(Y_k) = 1, exactly."""
    kac = ZERO
    for cell, n in tower.columns:
        kac = kac + cell.measure() * ExactScalar.rational(n)
    if kac != ONE:
        raise RuntimeError("tower invariant failed: Kac identity")


def build_tower(system, Y) -> RokhlinTower:
    """Tower over Y whose columns are closures of the return-time cells.

    first_return yields one cell per return time, in increasing order, so
    the columns come sorted.
    """
    cols = tuple((cell.closure(), n) for cell, n in first_return(system, Y))
    tower = RokhlinTower(system, Y.closure(), cols)
    tower.verify()
    return tower


def disjoint_base(system, N: int, anchor=ZERO):
    """Closed base containing the anchor whose first N iterates are
    pairwise disjoint; diameter is a third of the N-step orbit gap."""
    N = int(N)
    if N < 1:
        raise ValueError("need N >= 1")
    if isinstance(system, CircleRotation):
        half = min_orbit_gap(system, N) / 6
        a = ExactScalar.coerce(anchor).frac()
        Y = Region(system, [(a - half, a + half, True, True)])
    elif isinstance(system, Odometer):
        gap = min_orbit_gap(system, N)  # 1/K_m for the coarsest fine-enough level
        Km = int((ONE / gap).as_fraction())
        if isinstance(anchor, tuple):
            c = system.word_to_index(anchor)
        elif isinstance(anchor, ExactScalar):
            c = int(anchor.as_fraction())
        else:
            c = int(anchor)
        Y = CylinderRegion(system, range(c % Km, system.resolution, Km))
    else:
        raise MixedAmbient("towers are built over circle rotations and odometers")
    copies = [Y]
    for _ in range(N):
        copies.append(translate_region(system, copies[-1], 1))
    if not pairwise_disjoint(system, copies):
        raise RuntimeError("disjoint base postcondition failed")
    return Y


# -- refinement


def _validate_partition(system, parts):
    for p in parts:
        if p.interior().is_empty:
            raise InvalidPartition("partition element with empty interior")
    if not covers_space(system, parts):
        raise InvalidPartition("partition does not cover the space")
    if not pairwise_disjoint(system, [p.interior() for p in parts]):
        raise InvalidPartition("partition interiors overlap")


def _boundary_points(parts):
    pts = set()
    for p in parts:
        pts.update(p.boundary_points())
    return sorted(pts)


def _refine_circle(tower, parts):
    """Cut each column's arcs at the pullbacks of the partition boundary
    points that its walked levels hold strictly inside."""
    system = tower.system
    points = ArcLocator(_boundary_points(parts))
    cols = []
    for cell, n in tower.columns:
        levels = walk_levels(system, cell.interior(), n)
        base = next(levels)
        cuts = [set(points.inside(a, b)) for a, b in base]
        for level in levels:
            for (a, _), (lo, hi), found in zip(base, level, cuts):
                found.update(a + (x - lo) for x in points.inside(lo, hi))
        for (a, b), found in zip(base, cuts):
            stops = [a] + sorted(found) + [b]
            for lo, hi in zip(stops, stops[1:]):
                cols.append((Region(system, [(lo, hi, True, True)]), n))
    cols.sort(key=lambda cn: (cn[1], cn[0].pieces[0][0]))
    refined = RokhlinTower(system, tower.base, tuple(cols))
    _check_kac(refined)
    _check_levels_classified(refined, points)
    return refined


def _check_levels_classified(tower, points):
    """No partition boundary point may sit strictly inside any open level."""
    if not points.points:
        return
    for cell, n in tower.columns:
        for level in walk_levels(tower.system, cell.interior(), n):
            for lo, hi in level:
                if points.gap(lo, hi) is None:
                    raise RuntimeError("refined level straddles a partition boundary")


def _refine_odometer(tower, parts):
    system = tower.system
    K = system.resolution
    owner = [None] * K
    for pi, p in enumerate(parts):
        for i in p.indices:
            owner[i] = pi
    cols = []
    for cell, n in tower.columns:
        groups = {}
        for i in sorted(cell.indices):
            pat = tuple(owner[(i + j) % K] for j in range(n))
            groups.setdefault(pat, []).append(i)
        for pat in sorted(groups):
            cols.append((CylinderRegion(system, groups[pat]), n))
    cols.sort(key=lambda cn: (cn[1], min(cn[0].indices)))
    refined = RokhlinTower(system, tower.base, tuple(cols))
    _check_kac(refined)
    return refined


def refine_tower(tower, partition) -> RokhlinTower:
    """Split columns so every open level lies in exactly one partition element.

    Column bases are cut at the pullbacks of partition boundary points that
    land inside them; empty cells never arise, so the cell count stays the
    number of cuts plus one per column piece.  The parent tower is taken as
    verified (as `build_tower` leaves it); the cuts are checked by the Kac
    identity and, on the circle, by every open level lying in one part.
    """
    parts = list(partition)
    if not parts:
        raise InvalidPartition("empty partition")
    _validate_partition(tower.system, parts)
    if isinstance(tower.system, Odometer):
        return _refine_odometer(tower, parts)
    return _refine_circle(tower, parts)
