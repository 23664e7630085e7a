"""Rokhlin towers: first-return construction, refinement, disjoint bases.

A tower over a closed base Y splits Y into columns by first-return time;
the images of a column under the rotation (its levels) have pairwise
disjoint interiors and their closures tile the space.  Everything is
verified exactly at construction time.
"""

from dataclasses import dataclass, field

from .errors import (
    EmptyInput,
    InvalidPartition,
    MixedAmbient,
    NonTerminationGuard,
)
from .scalars import ExactScalar, ONE, ZERO
from .systems import CircleRotation, Odometer, min_orbit_gap, three_gap
from .regions import (
    ArcLocator,
    CylinderRegion,
    Region,
    covers_space,
    levels_tile,
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

    With L = b - a and (p, alpha, q, beta) from `three_gap`, the cells are
    (a, b - alpha] at height p, [a + beta, b) at height q, and
    (b - alpha, a + beta) at height p + q, which is empty unless
    alpha + beta > L (alpha + beta < L would give an earlier p or q).  When
    alpha + beta = L the one point b - alpha = a + beta returns at min(p, q).
    """
    L = b - a
    p, alpha, q, beta = three_gap(system, L)
    if max(p, q) > RETURN_GUARD:
        raise NonTerminationGuard("return times exceeded %d" % RETURN_GUARD)
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
    # derived data, no part of equality or repr: per column, its open levels
    # as `walk_levels` yields them (walked here unless given), and on a
    # refined circle tower its partition's ArcLocator and each level's gap
    walks: tuple = field(default=None, compare=False, repr=False)
    cuts: object = field(default=None, compare=False, repr=False)
    level_gaps: tuple = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.walks is None:
            opened = [(cell.interior(), n) for cell, n in self.columns]
            object.__setattr__(self, "walks", tuple(
                () if o.is_empty else tuple(walk_levels(self.system, o, n)) for o, n in opened))

    def heights(self):
        return tuple(n for _, n in self.columns)

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
        """Exact checks: Kac, disjoint open levels, cells union to the base.

        Kac comes first: it makes the open levels' measures sum to 1, which
        `levels_tile` needs to decide disjointness by one chain through the
        levels.  The closed levels then tile the space, with no separate
        pass: the open levels are pairwise disjoint of total measure 1, so
        the complement of the closed levels is an open null set, hence
        empty.  On an odometer open and closed levels coincide, and disjoint
        levels of total measure 1 hold every cylinder.
        """
        sys = self.system
        _check_kac(self)
        if not levels_tile(sys, [level for walk in self.walks for level in walk]):
            raise RuntimeError("tower invariant failed: open levels overlap")
        if union_many(sys, [cell for cell, _ in self.columns]) != self.base:
            raise RuntimeError("tower invariant failed: cells do not union to the base")


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


def disjoint_base(system, N: int):
    """Closed base containing 0 whose first N iterates are pairwise disjoint;
    diameter is a third of the N-step orbit gap."""
    N = int(N)
    if N < 1:
        raise ValueError("need N >= 1")
    if isinstance(system, CircleRotation):
        half = min_orbit_gap(system, N) / 6
        Y = Region(system, [(-half, half, True, True)])
    elif isinstance(system, Odometer):
        gap = min_orbit_gap(system, N)  # 1/K_m for the coarsest fine-enough level
        Km = int((ONE / gap).as_fraction())
        Y = CylinderRegion(system, range(0, system.resolution, Km))
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
    points that its walked levels hold strictly inside.

    The refined tower's walk and gaps come from the parent's walk, with no
    second walk and no bisection per level.  The sub-arc [s, t] of a parent
    arc starting at a has level j from lo_j + (s - a) to lo_j + (t - a),
    where lo_j starts the parent's level j; only the parent level that
    passes 1 wraps some of its sub-levels back by 1.  A sub-level's gap is
    its parent level's start gap plus the number of that level's inside
    points it has passed.  `ArcLocator.holds` checks each claimed gap with
    two exact comparisons, so an open level that holds a partition boundary
    point raises.
    """
    system = tower.system
    points = ArcLocator(_boundary_points(parts))
    cols = []
    for walk, (_, n) in zip(tower.walks, tower.columns):
        for i, (a, b) in enumerate(walk[0] if walk else ()):
            arcs = [level[i] for level in walk]
            gaps, passed = [], {}
            for j, (lo, hi) in enumerate(arcs):
                g, inside = points.inside(lo, hi)
                gaps.append(g)
                for x in inside:
                    passed.setdefault(a + (x - lo), []).append(j)
            stops = [a] + sorted(passed) + [b]
            marks = [s - a for s in stops]
            rows = [([lo + d for d in marks], hi > 1) for lo, hi in arcs]
            for t in range(len(stops) - 1):
                walked, claimed = [], []
                for (row, through), g in zip(rows, gaps):
                    lo, hi = row[t], row[t + 1]
                    if not points.holds(g, lo, hi):
                        raise RuntimeError("refined level straddles a partition boundary")
                    if through and lo >= 1:
                        lo, hi, g = lo - 1, hi - 1, g - len(points.points)
                    walked.append(((lo, hi),))
                    claimed.append(g)
                for j in passed.get(stops[t + 1], ()):
                    gaps[j] += 1
                if len(stops) == 2 and len(walk[0]) == 1:
                    walked = walk  # uncut, so a full circle's level stays _FULL_LEVEL
                cell = Region(system, [(stops[t], stops[t + 1], True, True)])
                cols.append((cell, n, tuple(walked), tuple(claimed)))
    cols.sort(key=lambda c: (c[1], c[0].pieces[0][0]))
    refined = RokhlinTower(system, tower.base, tuple((cell, n) for cell, n, _, _ in cols),
                           walks=tuple(c[2] for c in cols), cuts=points,
                           level_gaps=tuple(c[3] for c in cols))
    _check_kac(refined)
    return refined


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
    verified (as `build_tower` leaves it), and its cached walk is the only
    walk a refinement reads: a refined circle tower takes its walk and the
    gap of each level from it.  The cuts are checked by the Kac identity
    and, on the circle, by each level's claimed gap holding it, so every
    open level lies in one part.
    """
    parts = list(partition)
    if not parts:
        raise InvalidPartition("empty partition")
    _validate_partition(tower.system, parts)
    if isinstance(tower.system, Odometer):
        return _refine_odometer(tower, parts)
    return _refine_circle(tower, parts)
