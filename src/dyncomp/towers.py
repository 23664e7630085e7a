"""Rokhlin towers: first-return construction, refinement, disjoint bases.

A tower over a closed base Y splits Y into columns by first-return time;
the images of a column under the rotation (its levels) have pairwise
disjoint interiors and their closures tile the space.  Everything is
verified exactly at construction time.

On a circle a tower is walked, refined and tiled on one integer lattice
(`scalars.Lattice`): its levels' ends are integer pairs over the lcm of
theta's denominator and its cells' (extended by the cut points' on
refinement), and ExactScalars are built only for the refined cells' ends
and for the levels a caller reads off the walk through `Lattice.scalar`.
"""

from dataclasses import dataclass, field
from functools import cmp_to_key

from .errors import (
    EmptyInput,
    InvalidPartition,
    MixedAmbient,
    NonTerminationGuard,
)
from .scalars import ExactScalar, Lattice, ONE, ZERO, _sign_surd, dyadic_keys
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
    # as `walk_levels` yields them (walked here unless given), on a circle
    # the Lattice they are walked on, and on a refined circle tower its
    # partition's ArcLocator and each level's gap
    walks: tuple = field(default=None, compare=False, repr=False)
    lattice: object = field(default=None, compare=False, repr=False)
    cuts: object = field(default=None, compare=False, repr=False)
    level_gaps: tuple = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.walks is None:
            opened = [(cell.interior(), n) for cell, n in self.columns]
            if isinstance(self.system, CircleRotation):
                object.__setattr__(self, "lattice", _walk_lattice(self.system, opened))
            object.__setattr__(self, "walks", tuple(
                () if o.is_empty else tuple(walk_levels(self.system, o, n, self.lattice))
                for o, n in opened))

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
        levels = [level for walk in self.walks for level in walk]
        if not levels_tile(sys, levels, self.lattice):
            raise RuntimeError("tower invariant failed: open levels overlap")
        if union_many(sys, [cell for cell, _ in self.columns]) != self.base:
            raise RuntimeError("tower invariant failed: cells do not union to the base")


def _walk_lattice(system, opened):
    """The lattice a circle tower is walked on: theta, when some column
    has a second level, and the ends of every open cell's arcs.  A tower
    that takes no step (the whole circle's) holds no theta, so its field
    is its cells', and it refines against parts of another field."""
    ends = [system.theta] if any(n > 1 and not o.is_empty for o, n in opened) else []
    for o, _ in opened:
        if not o.is_empty and not o.is_full:
            for lo, hi, _, _ in o.logical_arcs():
                ends += (lo, hi)
    return Lattice(ends)


def _check_kac(tower):
    """Kac identity sum n_k * mu(Y_k) = 1, exactly."""
    kac = sum((cell.measure() * ExactScalar.rational(n) for cell, n in tower.columns), ZERO)
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
        if not _centres_apart(system, N, half + half):
            raise RuntimeError("disjoint base postcondition failed")
        return Y
    if not isinstance(system, Odometer):
        raise MixedAmbient("towers are built over circle rotations and odometers")
    gap = min_orbit_gap(system, N)  # 1/K_m for the coarsest fine-enough level
    Km = int((ONE / gap).as_fraction())
    # the translates by 0..N are the residue classes 0..N mod K_m, which
    # divides the resolution, so they are pairwise disjoint iff N < K_m
    if not N < Km:
        raise RuntimeError("disjoint base postcondition failed")
    return CylinderRegion(system, range(0, system.resolution, Km))


def _centres_apart(system, N, diameter):
    """Whether the closed arcs of a diameter below 1 about the centres
    frac(k theta), 0 <= k <= N, are pairwise disjoint: one chain through
    the centres sorted by `dyadic_keys`, as each arc's nearest others are
    about its cyclic neighbours, so every gap between neighbours, the one
    through 1 included, must exceed the diameter."""
    centres, x = [ZERO], ZERO
    for _ in range(N):
        x = x + system.theta
        if x.cmp_int(1) >= 0:
            x = x - 1
        centres.append(x)
    keys = dyadic_keys(centres)
    pts = [centres[i] for i in sorted(range(N + 1), key=keys.__getitem__)]
    return all(diameter < b - a for a, b in zip(pts, pts[1:] + [pts[0] + 1]))


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
    second walk and no bisection per level, all on one lattice: the
    parent's, extended by the cut points' denominators, so the parent's
    pairs are scaled by one factor.  The sub-arc [s, t] of a parent arc
    starting at a has level j from lo_j + (s - a) to lo_j + (t - a), where
    lo_j starts the parent's level j, an integer add per row; only the
    parent level that passes 1 wraps some of its sub-levels back by 1.  A
    sub-level's gap is its parent level's start gap plus the number of that
    level's inside points it has passed.  `ArcLocator.holds` checks each
    claimed gap with two sign tests, so an open level that holds a
    partition boundary point raises.  The only scalars built are the
    stops, the ends of the refined cells.
    """
    system = tower.system
    cut = _boundary_points(parts)
    lattice = tower.lattice.extend(cut)
    L, D = lattice.L, lattice.D
    up = L // tower.lattice.L
    points = ArcLocator(cut, lattice)
    by_value = cmp_to_key(lambda p, q: _sign_surd(p[0] - q[0], p[1] - q[1], D))
    cols = []
    for walk, (_, n) in zip(tower.walks, tower.columns):
        for i in range(len(walk[0]) if walk else 0):
            arcs = [level[i] for level in walk]
            if up > 1:
                arcs = [(A * up, B * up, C * up, E * up) for A, B, C, E in arcs]
            a0, b0 = arcs[0][0], arcs[0][1]
            gaps, passed = [], {}
            for j, (A, B, C, E) in enumerate(arcs):
                g, inside = points.inside(A, B, C, E)
                gaps.append(g)
                for xa, xb in inside:
                    passed.setdefault((a0 + xa - A, b0 + xb - B), []).append(j)
            stops = [(a0, b0)] + sorted(passed, key=by_value) + [arcs[0][2:]]
            ends = [lattice.scalar(sa, sb) for sa, sb in stops]
            through = [_sign_surd(C - L, E, D) > 0 for _, _, C, E in arcs]
            starts = [(A, B) for A, B, _, _ in arcs]  # each sub-level's lo
            for t in range(1, len(stops)):
                da, db = stops[t][0] - a0, stops[t][1] - b0
                walked, claimed = [], []
                for j, (A, B, _, _) in enumerate(arcs):
                    lo_a, lo_b = starts[j]
                    hi_a, hi_b = starts[j] = A + da, B + db
                    g = gaps[j]
                    if not points.holds(g, lo_a, lo_b, hi_a, hi_b):
                        raise RuntimeError("refined level straddles a partition boundary")
                    if through[j] and _sign_surd(lo_a - L, lo_b, D) >= 0:
                        lo_a, hi_a, g = lo_a - L, hi_a - L, g - len(cut)
                    walked.append(((lo_a, lo_b, hi_a, hi_b),))
                    claimed.append(g)
                for j in passed.get(stops[t], ()):
                    gaps[j] += 1
                cell = Region.interval(system, ends[t - 1], ends[t])
                cols.append((cell, n, tuple(walked), tuple(claimed)))
    cols.sort(key=lambda c: (c[1], c[0].pieces[0][0]))
    refined = RokhlinTower(system, tower.base, tuple((cell, n) for cell, n, _, _ in cols),
                           walks=tuple(c[2] for c in cols), lattice=lattice, cuts=points,
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
