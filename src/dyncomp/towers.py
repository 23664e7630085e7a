"""Rokhlin towers: first-return construction, refinement, disjoint bases.

A tower over a closed base Y splits Y into columns by first-return time;
the images of a column under the rotation (its levels) have pairwise
disjoint interiors and their closures tile the space.  Everything is
verified exactly at construction time.
"""

import bisect
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
    CylinderRegion,
    Region,
    covers_space,
    pairwise_disjoint,
    translate_region,
    union_many,
)

RETURN_GUARD = 10**6


def first_return(system, Y):
    """Partition of the base by first-return time, as (region, time) pairs."""
    if not isinstance(system, (CircleRotation, Odometer)):
        raise MixedAmbient("towers are built over circle rotations and odometers")
    base = Y.closure()
    inner = base.interior()
    if inner.is_empty:
        raise EmptyInput("base needs non-empty interior")
    if inner.closure() != base:
        raise ValueError("base must be the closure of its interior")
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
        opens = [lvl for _, _, lvl in self.open_levels() if not lvl.is_empty]
        if not pairwise_disjoint(sys, opens):
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


def _strictly_inside(arcs, x):
    """Index of the lifted arc holding x strictly inside, or None."""
    for idx, (a, b) in enumerate(arcs):
        if a < x < b or a < x + ONE < b:
            return idx
    return None


def _refine_circle(tower, parts):
    system = tower.system
    bpts = _boundary_points(parts)
    theta = system.theta
    max_n = max(n for _, n in tower.columns)
    col_arcs = []  # (list of lifted arcs, set of cut points) per column
    for cell, _ in tower.columns:
        arcs = [(a, b) for a, b, _, _ in cell.interior().logical_arcs()]
        col_arcs.append((arcs, set()))
    for b in bpts:
        x = ExactScalar.coerce(b).frac()
        for j in range(max_n):
            if j:
                x = (x - theta).frac()
            for k, (cell, n) in enumerate(tower.columns):
                if n <= j:
                    continue
                arcs, cuts = col_arcs[k]
                if _strictly_inside(arcs, x) is not None:
                    cuts.add(x)
                    break
    cols = []
    for k, (cell, n) in enumerate(tower.columns):
        arcs, cuts = col_arcs[k]
        for a, b in arcs:
            inner = sorted(c if a < c else c + ONE for c in cuts
                           if a < c < b or a < c + ONE < b)
            stops = [a] + inner + [b]
            for lo, hi in zip(stops, stops[1:]):
                cols.append((Region(system, [(lo, hi, True, True)]), n))
    cols.sort(key=lambda cn: (cn[1], cn[0].pieces[0][0]))
    refined = RokhlinTower(system, tower.base, tuple(cols))
    _check_kac(refined)
    _check_levels_classified(refined, bpts)
    return refined


def _check_levels_classified(tower, bpts):
    """No partition boundary point may sit strictly inside any open level."""
    if not bpts:
        return
    for k, j, level in tower.open_levels():
        for a, b, _, _ in level.logical_arcs():
            i = bisect.bisect_right(bpts, a)
            if i < len(bpts) and bpts[i] < b:
                raise RuntimeError("refined level straddles a partition boundary")
            if (b - ONE).sign() > 0 and bpts[0] + ONE < b:
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
