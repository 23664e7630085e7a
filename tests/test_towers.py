import dataclasses
import sys

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import dyncomp.regions as regions_mod
import dyncomp.towers as towers_mod
from dyncomp import comparison as cp
from dyncomp.errors import (
    EmptyInput,
    InvalidPartition,
    MixedAmbient,
    NonTerminationGuard,
    UnrefinedTower,
)
from dyncomp.plfun import CylinderFunction
from dyncomp.regions import ArcLocator, CylinderRegion, Region, levels_tile
from dyncomp.scalars import ONE, ZERO, ExactScalar, Lattice, golden_theta
from dyncomp.systems import CircleRotation, Odometer, TorusRotation
from dyncomp.towers import (
    RokhlinTower,
    build_tower,
    disjoint_base,
    first_return,
    refine_tower,
)
import keyed_oracle
from walk_oracle import (level_locator, materialized, oracle_gaps, oracle_walks, read_level,
                         walk_levels)

R = ExactScalar.rational
GOLDEN = CircleRotation(golden_theta())
TH = golden_theta()


def golden_base():
    return Region.interval(GOLDEN, R(0), TH)


def test_golden_tower_frozen():
    tower = build_tower(GOLDEN, golden_base())
    assert tower.heights() == (1, 2)
    one_minus = ExactScalar(3, -1, 2, 5)  # 1 - theta
    assert tower.columns[0][0] == Region.interval(GOLDEN, one_minus, TH)
    assert tower.columns[1][0] == Region.interval(GOLDEN, R(0), one_minus)
    # Kac identity spelled out: 1*(2theta-1) + 2*(1-theta) = 1
    assert (TH + TH - R(1)) + (R(1) - TH) * R(2) == R(1)


def test_whole_space_base():
    tower = build_tower(GOLDEN, Region.full(GOLDEN))
    assert tower.columns == ((Region.full(GOLDEN), 1),)


def test_refine_whole_space_tower():
    # the whole circle is walked as the open arc (0, 1), so it is cut at 0 too
    tower = build_tower(GOLDEN, Region.full(GOLDEN))
    parts = [Region.interval(GOLDEN, R(1, 4), R(3, 4)), Region.interval(GOLDEN, R(3, 4), R(5, 4))]
    refined = refine_tower(tower, parts)
    refined.verify()
    assert refined.columns == (
        (Region.interval(GOLDEN, R(0), R(1, 4)), 1),
        (Region.interval(GOLDEN, R(3, 4), R(1)), 1),
        (Region.interval(GOLDEN, R(1, 4), R(3, 4)), 1),
    )


def test_first_return_times_golden():
    cells = first_return(GOLDEN, golden_base())
    assert [n for _, n in cells] == [1, 2]


def test_integer_rotation_oracle():
    # simulate the convergent p/q = 6765/10946: site i represents i/q,
    # the base is the sites of [0, p/q], the map adds p mod q
    p, q = 6765, 10946
    members = set(range(p + 1))
    rs = []
    for i in range(p + 1):
        m, j = 1, (i + p) % q
        while j not in members:
            m, j = m + 1, (j + p) % q
        rs.append(m)
    runs = []
    for v in rs:
        if runs and runs[-1][0] == v:
            runs[-1][1] += 1
        else:
            runs.append([v, 1])
    # boundary site 0 returns in 1 step, like the exact endpoint 0 does
    assert [tuple(r) for r in runs] == [(1, 1), (2, 4180), (1, 2585)]
    # oracle frequencies agree with the exact column measures within 2 sites
    tower = build_tower(GOLDEN, golden_base())
    counts = {1: 1 + 2585, 2: 4180}
    for cell, n in tower.columns:
        diff = cell.measure() * R(q) - R(counts[n])
        assert abs(diff) <= R(2)


def test_odometer_towers():
    odo3 = Odometer([2, 2, 2])
    tower = build_tower(odo3, CylinderRegion(odo3, [0]))
    assert tower.columns == ((CylinderRegion(odo3, [0]), 8),)
    odo2 = Odometer([2, 2])
    tower2 = build_tower(odo2, CylinderRegion(odo2, [0]))
    assert tower2.heights() == (4,)
    odo6 = Odometer([2, 3])
    tower3 = build_tower(odo6, CylinderRegion(odo6, [0, 3]))
    assert tower3.columns == ((CylinderRegion(odo6, [0, 3]), 3),)


def test_verify_rejects_broken_towers():
    tower = build_tower(GOLDEN, golden_base())
    short = tower.columns[0][0]  # the height-1 cell
    half = Region.interval(GOLDEN, R(0), R(1, 2))
    odo = Odometer([2, 2])

    def cyl(*indices):
        return CylinderRegion(odo, indices)

    broken = (
        # a column dropped: disjoint levels over the cells left, but Kac fails
        (RokhlinTower(GOLDEN, short, ((short, 1),)), "Kac"),
        (RokhlinTower(odo, cyl(0), ((cyl(0), 2),)), "Kac"),
        # two columns overlapping, with Kac and the base union intact
        (
            RokhlinTower(
                GOLDEN,
                Region.interval(GOLDEN, R(0), R(3, 4)),
                ((half, 1), (Region.interval(GOLDEN, R(1, 4), R(3, 4)), 1)),
            ),
            "overlap",
        ),
        # the same across 0: [3/4, 5/4] and [0, 1/2] share (0, 1/4)
        (
            RokhlinTower(
                GOLDEN,
                Region.interval(GOLDEN, R(3, 4), R(3, 2)),
                ((Region.interval(GOLDEN, R(3, 4), R(5, 4)), 1), (half, 1)),
            ),
            "overlap",
        ),
        (RokhlinTower(odo, cyl(0, 2), ((cyl(0), 3), (cyl(2), 1))), "overlap"),
        # cells that do not union to the base
        (RokhlinTower(GOLDEN, half, tower.columns), "base"),
        (RokhlinTower(odo, cyl(0, 1), ((cyl(0), 2), (cyl(2), 2))), "base"),
    )
    for bad, reason in broken:
        with pytest.raises(RuntimeError, match=reason):
            bad.verify()


def test_disjoint_base_golden():
    Y1 = disjoint_base(GOLDEN, 1)
    assert Y1.measure() == ExactScalar(3, -1, 6, 5)  # (3 - sqrt 5)/6
    Y2 = disjoint_base(GOLDEN, 2)
    assert Y2.measure() == ExactScalar(-2, 1, 3, 5)  # (sqrt 5 - 2)/3
    for N, Y in ((1, Y1), (2, Y2)):
        copies = [Y.translate(j) for j in range(N + 1)]
        for i in range(len(copies)):
            for j in range(i + 1, len(copies)):
                assert not copies[i].intersects(copies[j])


def test_disjoint_base_odometer():
    odo = Odometer([2, 3, 2])
    Y = disjoint_base(odo, 4)
    assert Y == CylinderRegion(odo, [0, 6])
    with pytest.raises(NonTerminationGuard):
        disjoint_base(odo, 12)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from((2, 3)), min_size=1, max_size=4), st.data())
def test_odometer_base_translates_pass_the_copy_sweep(bases, data):
    odo = Odometer(bases)
    N = data.draw(st.integers(1, odo.resolution - 1))
    Y = disjoint_base(odo, N)
    assert keyed_oracle.cylinder_copies_disjoint(odo, Y, N)


def test_refine_by_halves():
    tower = build_tower(GOLDEN, golden_base())
    parts = [
        Region.interval(GOLDEN, R(0), R(1, 2), True, False),
        Region.interval(GOLDEN, R(1, 2), R(1), True, False),
    ]
    refined = refine_tower(tower, parts)
    refined.verify()
    assert refined.base == tower.base
    for _, _, level in refined.open_levels():
        holders = [p for p in parts if p.contains_region(level)]
        assert len(holders) == 1


def test_refine_trivial_partition():
    tower = build_tower(GOLDEN, golden_base())
    refined = refine_tower(tower, [Region.full(GOLDEN)])
    assert refined.columns == tower.columns


def test_refine_determinism():
    tower = build_tower(GOLDEN, golden_base())
    parts = [
        Region.interval(GOLDEN, R(0), R(3, 10), True, False),
        Region.interval(GOLDEN, R(3, 10), R(6, 10), True, False),
        Region.interval(GOLDEN, R(6, 10), R(1), True, False),
    ]
    a = refine_tower(tower, parts)
    b = refine_tower(tower, parts)
    assert a.columns == b.columns


def test_refine_invalid_partitions():
    tower = build_tower(GOLDEN, golden_base())
    with pytest.raises(InvalidPartition):
        refine_tower(tower, [Region.interval(GOLDEN, R(0), R(1, 2))])
    with pytest.raises(InvalidPartition):
        refine_tower(
            tower,
            [
                Region.interval(GOLDEN, R(0), R(3, 4)),
                Region.interval(GOLDEN, R(1, 2), R(1)),
            ],
        )
    with pytest.raises(InvalidPartition):
        refine_tower(tower, [])


def test_thin_tower_boundaries():
    tower = build_tower(GOLDEN, golden_base())
    parts = [
        Region.interval(GOLDEN, R(0), R(1, 2), True, False),
        Region.interval(GOLDEN, R(1, 2), R(1), True, False),
    ]
    refined = refine_tower(tower, parts)
    max_n = max(refined.heights())
    seeds = set(refined.base.boundary_points())
    for p in parts:
        seeds.update(p.boundary_points())
    orbit = set()
    for b in seeds:
        for i in range(-max_n, max_n + 1):
            orbit.add((b + TH * R(i)).frac())
    # level boundaries all sit on the signed orbit of the base and
    # partition boundary points: finitely many points, hence thin
    for _, _, level in refined.open_levels():
        for b in level.boundary_points():
            assert b in orbit


def test_odometer_refine():
    odo = Odometer([2, 2])
    tower = build_tower(odo, CylinderRegion(odo, [0, 2]))
    parts = [CylinderRegion(odo, [0, 1]), CylinderRegion(odo, [2, 3])]
    refined = refine_tower(tower, parts)
    refined.verify()
    assert refined.columns == (
        (CylinderRegion(odo, [0]), 2),
        (CylinderRegion(odo, [2]), 2),
    )
    faults = (
        ([CylinderRegion(odo, [0, 1]), CylinderRegion(odo, []), CylinderRegion(odo, [2, 3])],
         "partition element with empty interior"),
        ([CylinderRegion(odo, [0, 1, 2]), CylinderRegion(odo, [2, 3])],
         "partition interiors overlap"),
        ([CylinderRegion(odo, [0, 1])], "partition does not cover the space"),
    )
    for bad, message in faults:
        with pytest.raises(InvalidPartition, match=message):
            refine_tower(tower, bad)


def test_tower_errors(monkeypatch):
    with pytest.raises(EmptyInput):
        build_tower(GOLDEN, Region.points(GOLDEN, [R(0)]))
    with pytest.raises(ValueError):
        build_tower(
            GOLDEN,
            Region(GOLDEN, [(R(0), R(1, 4), True, True), (R(1, 2), R(1, 2), True, True)]),
        )
    torus = TorusRotation([ExactScalar(-1, 1, 2, 5), ExactScalar(0, 1, 2, 2)])
    with pytest.raises(MixedAmbient):
        build_tower(torus, None)
    with pytest.raises(MixedAmbient):
        disjoint_base(torus, 3)
    monkeypatch.setattr(towers_mod, "RETURN_GUARD", 3)
    with pytest.raises(NonTerminationGuard):
        build_tower(GOLDEN, Region.interval(GOLDEN, R(0), R(1, 100)))


# -- odometer towers and witnesses against index-scan reference implementations


def scan_first_return(odo, members):
    """Each base index walks forward one cylinder at a time to its return."""
    K = odo.resolution
    groups = {}
    for i in sorted(members):
        r, j = 1, (i + 1) % K
        while j not in members:
            r, j = r + 1, (j + 1) % K
        groups.setdefault(r, []).append(i)
    return [(CylinderRegion(odo, groups[r]), r) for r in sorted(groups)]


def pattern_refine(tower, parts):
    """Group each column's indices by the parts their n iterates visit."""
    K = tower.system.resolution
    owner = {i: pi for pi, p in enumerate(parts) for i in p.indices}
    cols = []
    for cell, n in tower.columns:
        groups = {}
        for i in sorted(cell.indices):
            groups.setdefault(tuple(owner[(i + j) % K] for j in range(n)), []).append(i)
        cols.extend((CylinderRegion(tower.system, groups[pat]), n) for pat in sorted(groups))
    return tuple(sorted(cols, key=lambda cn: (cn[1], min(cn[0].indices))))


def scan_counts(tower, S):
    K = tower.system.resolution
    out = []
    for cell, n in tower.columns:
        hits = []
        for j in range(n):
            level = {(i + j) % K for i in cell.indices}
            if level <= S.indices:
                hits.append(j)
            elif level & S.indices:
                raise UnrefinedTower("level straddles the test region")
        out.append(tuple(hits))
    return tuple(out)


def outcome(fn, *args):
    try:
        return fn(*args)
    except UnrefinedTower:
        return UnrefinedTower


def scan_verdicts(odo, A, B, entries):
    """The four clause verdicts by index sets and pointwise sums."""
    K = odo.resolution
    ranges_ok = all(
        f.range_bounds()[0].sign() >= 0 and (f.range_bounds()[1] - ONE).sign() <= 0
        for f, _ in entries
    )
    part_ok = all(sum((f.evaluate(i) for f, _ in entries), ZERO) == ONE for i in A.indices)
    supports = [{(i + d) % K for i, v in enumerate(f.values) if v != ZERO} for f, d in entries]
    disj_ok = sum(map(len, supports)) == len(set().union(*supports))
    inside_ok = all(sup <= B.indices for sup in supports)
    return {
        "ranges within [0, 1]": ranges_ok,
        "sums to 1 on the closed set": part_ok,
        "translated supports pairwise disjoint": disj_ok,
        "translated supports inside the open set": inside_ok,
    }


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from((2, 3)), min_size=1, max_size=4), st.data())
def test_odometer_matches_index_scan_oracles(bases, data):
    odo = Odometer(bases)
    K = odo.resolution
    cylinders = st.sets(st.integers(0, K - 1), min_size=1)
    members = data.draw(cylinders)
    Y = CylinderRegion(odo, members)
    tower = build_tower(odo, Y)
    assert first_return(odo, Y) == scan_first_return(odo, members)
    assert tower.columns == tuple(scan_first_return(odo, members))

    owners = data.draw(st.lists(st.integers(0, 2), min_size=K, max_size=K))
    parts = [CylinderRegion(odo, [i for i in range(K) if owners[i] == p]) for p in range(3)]
    parts = [p for p in parts if not p.is_empty]
    refined = refine_tower(tower, parts)
    refined.verify()
    assert refined.columns == pattern_refine(tower, parts)
    for p in parts:
        assert cp.column_counts(refined, p) == scan_counts(refined, p)
        assert outcome(cp.column_counts, tower, p) == outcome(scan_counts, tower, p)

    B = CylinderRegion(odo, data.draw(cylinders))
    A = CylinderRegion(odo, data.draw(st.sets(st.integers(0, K - 1), max_size=len(B.indices) - 1)))
    w = cp.clopen_comparison(odo, A, B)
    j = data.draw(st.integers(0, len(w.entries) - 1))
    f, d = w.entries[j]
    three_halves = CylinderFunction([v * ExactScalar.rational(3, 2) for v in f.values])
    for entries in (
        w.entries,
        w.entries[:j] + ((f, d + 1),) + w.entries[j + 1:],
        w.entries[:j] + ((three_halves, d),) + w.entries[j + 1:],
        w.entries[:j] + w.entries[j + 1:],
    ):
        report = cp.verify_witness(odo, A, B, dataclasses.replace(w, entries=entries))
        assert dict(report.clauses) == scan_verdicts(odo, A, B, entries)


# -- circle towers against the region-walking references

# angles in three quadratic fields: sqrt 2 - 1, the golden angle, (sqrt 13 - 3)/2
FIELD_THETAS = (ExactScalar(-1, 1, 1, 2), golden_theta(), ExactScalar(-3, 1, 2, 13))


def field_point(theta, m, r, q):
    """frac(m*theta + r/q): an orbit point of theta when r = 0."""
    return (theta * R(m) + R(r, q)).frac()


@st.composite
def circle_bases(draw, max_arcs=1):
    """A closed arc [a, a + L] with a and L in theta's field, often through
    0 and often with L an orbit point; with max_arcs=2, sometimes a second
    closed arc after a gap."""
    system = CircleRotation(draw(st.sampled_from(FIELD_THETAS)))
    th = system.theta
    a = field_point(th, draw(st.integers(-30, 30)), draw(st.integers(0, 15)), 16)
    L = field_point(th, draw(st.integers(-12, 12)), draw(st.integers(0, 31)), 32)
    assume(R(1, 32) <= L <= R(3, 4))
    arcs = [(a, a + L, True, True)]
    if max_arcs > 1 and draw(st.booleans()):
        lo = a + L + R(draw(st.integers(1, 16)), 64)
        L2 = field_point(th, draw(st.integers(0, 12)), draw(st.integers(0, 31)), 32) / 4 + R(1, 64)
        assume(lo + L2 < a + 1)
        arcs.append((lo, lo + L2, True, True))
    return Region(system, arcs)


def cut_loop_refine(tower, parts):
    """Columns cut by walking each partition boundary point back one step
    at a time and cutting the column whose cell holds it strictly inside."""
    system = tower.system
    bpts = sorted({x for p in parts for x in p.boundary_points()})
    max_n = max(n for _, n in tower.columns)
    col_arcs = [([(a, b) for a, b, _, _ in cell.interior().logical_arcs()], set())
                for cell, _ in tower.columns]
    for x in bpts:
        for j in range(max_n):
            if j:
                x = (x - system.theta).frac()
            for (cell, n), (arcs, cuts) in zip(tower.columns, col_arcs):
                if n > j and any(a < x < b or a < x + 1 < b for a, b in arcs):
                    cuts.add(x)
                    break
    cols = []
    for (cell, n), (arcs, cuts) in zip(tower.columns, col_arcs):
        for a, b in arcs:
            inner = sorted(c if a < c else c + 1 for c in cuts if a < c < b or a < c + 1 < b)
            stops = [a] + inner + [b]
            cols.extend((Region(system, [(lo, hi, True, True)]), n) for lo, hi in zip(stops, stops[1:]))
    return tuple(sorted(cols, key=lambda cn: (cn[1], cn[0].pieces[0][0])))


def grid_parts(system, grid_cuts, m):
    """The arcs between the cut points k/24, dealt round-robin to m parts."""
    cuts = sorted(R(c, 24) for c in grid_cuts)
    arcs = [(lo, hi) for lo, hi in zip(cuts, cuts[1:])] + [(cuts[-1], cuts[0] + 1)]
    parts = [Region(system, [(lo, hi, True, True) for lo, hi in arcs[k::m]]) for k in range(m)]
    return [p for p in parts if not p.is_empty]


def region_scan_counts(tower, S):
    """column_counts from one translated Region per level."""
    out = []
    for cell, n in tower.columns:
        hits = []
        level = cell.interior()
        for j in range(n if not level.is_empty else 0):
            if j:
                level = level.translate(1)
            if S.contains_region(level):
                hits.append(j)
            elif S.intersects(level):
                raise UnrefinedTower("level straddles the test region")
        out.append(tuple(hits))
    return tuple(out)


def guarded(guard, fn, *args):
    """fn(*args) with RETURN_GUARD set to guard; NonTerminationGuard if it fires."""
    saved = towers_mod.RETURN_GUARD
    towers_mod.RETURN_GUARD = guard
    try:
        return fn(*args)
    except NonTerminationGuard:
        return NonTerminationGuard
    finally:
        towers_mod.RETURN_GUARD = saved


# the golden base [0, theta]: alpha + beta = L, and the point 1 - theta returns at q
@example(golden_base(), 10**6)
# an arc through 0 whose ends are orbit points
@example(Region.interval(GOLDEN, (TH * R(-2)).frac(), (TH * R(-2)).frac() + (TH * R(5)).frac()), 10**6)
@settings(max_examples=200, deadline=None)
@given(circle_bases(), st.integers(1, 120))
def test_three_gap_return_matches_walk(Y, guard):
    base = Y.closure()
    inner = base.interior()
    walked = guarded(guard, towers_mod._walk_return, Y.system, base, inner)
    assert guarded(guard, first_return, Y.system, Y) == walked
    if walked is not NonTerminationGuard:
        assert len(walked) <= 3


# two closed arcs, and an arc through 0, against a fixed partition
@example(Region(GOLDEN, [(R(1, 8), R(1, 4), True, True), (R(1, 2), R(5, 8), True, True)]), [3, 11, 17], 3)
@example(Region.interval(GOLDEN, R(7, 8), R(9, 8)), [0, 5, 13, 20], 2)
@settings(max_examples=80, deadline=None)
@given(circle_bases(max_arcs=2), st.lists(st.integers(0, 23), min_size=2, max_size=5, unique=True),
       st.integers(2, 3))
def test_circle_towers_match_region_scans(Y, grid_cuts, m):
    system = Y.system
    tower = build_tower(system, Y)
    assert tower.columns == tuple(
        (cell.closure(), n) for cell, n in towers_mod._walk_return(system, Y, Y.interior()))
    parts = grid_parts(system, grid_cuts, m)
    refined = refine_tower(tower, parts)
    refined.verify()
    assert refined.columns == cut_loop_refine(tower, parts)
    for p in parts:
        assert cp.column_counts(refined, p) == region_scan_counts(refined, p)
        assert outcome(cp.column_counts, tower, p) == outcome(region_scan_counts, tower, p)


# -- one walk per tower, and counts read off the refinement's gaps


def locator_scan_counts(tower, S):
    """column_counts by walking every column afresh and locating each
    level against S's own boundary points."""
    locate = level_locator(tower.system, S)
    out = []
    for cell, n in tower.columns:
        hits = []
        opened = cell.interior()
        if not opened.is_empty:
            for j, level in enumerate(walk_levels(tower.system, opened, n)):
                where = locate(level)
                if where is None:
                    raise UnrefinedTower("open level straddles the test region")
                if where:
                    hits.append(j)
        out.append(tuple(hits))
    return tuple(out)


cut_lists = st.lists(st.integers(0, 23), min_size=2, max_size=5, unique=True)


@example(Region(GOLDEN, [(R(1, 8), R(1, 4), True, True), (R(1, 2), R(5, 8), True, True)]),
         [3, 11, 17], 3, [0, 12], 7)
@settings(max_examples=60, deadline=None)
@given(circle_bases(max_arcs=2), cut_lists, st.integers(2, 3), cut_lists, st.integers(0, 47))
def test_cached_walk_and_gap_counts_match_locator_scan(Y, grid_cuts, m, more_cuts, k):
    system = Y.system
    tower = build_tower(system, Y)
    parts = grid_parts(system, grid_cuts, m)
    refined = refine_tower(tower, parts)
    more = grid_parts(system, more_cuts, 2)
    again = refine_tower(refined, more)
    again.verify()
    for t in (tower, refined, again):
        assert materialized(t) == oracle_walks(t)
    # every boundary point among the cuts: each part, its interior, a union
    # of parts; not among them: an arc off the 1/24 grid, which straddles
    # or not, and a refined cell, whose ends are level ends
    off_grid = Region(system, [(R(2 * k + 1, 48), R(2 * k + 13, 48), True, False)])
    regions = parts + [p.interior() for p in parts] + [parts[0].union(parts[-1])]
    regions += [off_grid, refined.columns[0][0]]
    for t in (tower, refined, again):
        for S in regions + more:
            assert outcome(cp.column_counts, t, S) == outcome(locator_scan_counts, t, S)


def test_one_walk_per_tower(monkeypatch):
    entered = []
    walk = regions_mod.walk_levels

    def counted(system, opened, n, lattice):
        entered.append(n)
        return walk(system, opened, n, lattice)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("dyncomp") and hasattr(mod, "walk_levels"):
            monkeypatch.setattr(mod, "walk_levels", counted)
    system = GOLDEN
    parts = grid_parts(system, [0, 5, 9, 14, 20], 3)
    assert len(parts) == 3
    tower = build_tower(system, disjoint_base(system, 6))
    refined = refine_tower(tower, parts)
    counts = [cp.column_counts(refined, p) for p in parts]
    # the refinement derives its walk from the parent's, so only the
    # parent's columns are ever walked
    assert len(entered) == len(tower.columns)
    assert sum(len(c) for per_part in counts for c in per_part) == sum(refined.heights())
    # the cached walk and the refinement's cut points are no part of the
    # tower's value
    assert refine_tower(tower, parts) == refined
    assert refined.cuts is not None and tower.cuts is None
    assert repr(refined) == repr(RokhlinTower(system, refined.base, refined.columns))
    for derived in ("walks", "lattice", "cuts"):
        assert derived not in repr(refined)


def test_level_gaps_reject_a_straddle(monkeypatch):
    # 1/2 lies inside the height-1 level (1 - theta, theta) of the golden
    # tower: neither gap beside it holds the level, the one after failing
    # the lower comparison and the one before the upper
    tower = build_tower(GOLDEN, golden_base())
    lattice = tower.lattice.extend([R(1, 2)])
    up = lattice.L // tower.lattice.L
    (((A, B, C, E),),) = tower.walks[0]
    lo, hi, mid = (A * up, B * up), (C * up, E * up), lattice.pair(R(1, 2))
    half = ArcLocator([R(1, 2)], lattice)
    assert not half.holds(1, *lo, *hi) and not half.holds(0, *lo, *hi)
    assert half.holds(0, *lo, *mid) and half.holds(1, *mid, *hi)
    # a refinement whose claimed start gaps are one off, either way, holds
    # a cut point in some claimed gap and raises
    parts = grid_parts(GOLDEN, [3, 12, 20], 2)
    inside = ArcLocator.inside
    for shift in (1, -1):
        def shifted(self, *arc, shift=shift):
            g, points = inside(self, *arc)
            return max(g + shift, 0), points

        monkeypatch.setattr(ArcLocator, "inside", shifted)
        with pytest.raises(RuntimeError, match="straddles a partition boundary"):
            refine_tower(tower, parts)
    monkeypatch.undo()
    refine_tower(tower, parts)


# -- the refinement's derived walk and gaps, and the chain check of verify


def arc_parts(system, pts):
    """The arcs between sorted points, two or more, dealt to two parts."""
    arcs = [(lo, hi) for lo, hi in zip(pts, pts[1:])] + [(pts[-1], pts[0] + 1)]
    return [Region(system, [(lo, hi, True, True) for lo, hi in arcs[k::2]]) for k in range(2)]


def orbit_parts(system, ks):
    """The arcs between the orbit points frac(k theta), dealt to two parts:
    pullbacks of two such points from two levels can coincide."""
    return arc_parts(system, sorted({(system.theta * R(k)).frac() for k in ks}))


# two closed arcs, refined on the grid, then at orbit points
@example(Region(GOLDEN, [(R(1, 8), R(1, 4), True, True), (R(1, 2), R(5, 8), True, True)]),
         [3, 11, 17], 3, [0, 1, 2, 5])
# an arc through 0, with 0 itself a cut point
@example(Region.interval(GOLDEN, R(7, 8), R(9, 8)), [0, 5, 13, 20], 2, [-1, 0, 3])
@settings(max_examples=60, deadline=None)
@given(circle_bases(max_arcs=2), cut_lists, st.integers(2, 3),
       st.lists(st.integers(-8, 8), min_size=2, max_size=5, unique=True))
def test_derived_walk_and_gaps_match_walk_and_bisection(Y, grid_cuts, m, ks):
    system = Y.system
    refined = refine_tower(build_tower(system, Y), grid_parts(system, grid_cuts, m))
    again = refine_tower(refined, orbit_parts(system, ks))
    for t in (refined, again):
        oracle = oracle_gaps(t)
        assert len(t.walks) == len(t.level_gaps) == len(t.columns)
        for k, (cell, n) in enumerate(t.columns):
            walked = tuple(walk_levels(system, cell.interior(), n))
            assert len(t.walks[k]) == len(t.level_gaps[k]) == len(walked) == n
            for j, level in enumerate(walked):
                assert read_level(t, k, j) == level
                assert t.level_gaps[k][j] == oracle[k][j]


lattice_bases = st.one_of(
    circle_bases(max_arcs=2),
    st.sampled_from(FIELD_THETAS).map(lambda th: Region.full(CircleRotation(th))))


# the full circle, cut on the grid, then at orbit points and fifths
@example(Region.full(GOLDEN), [0, 5, 13, 20], 2, [(0, 0), (1, 0), (-2, 3)])
# two closed arcs (the walked first return), then cuts at orbit points only
@example(Region(GOLDEN, [(R(1, 8), R(1, 4), True, True), (R(1, 2), R(5, 8), True, True)]),
         [3, 11, 17], 3, [(0, 0), (1, 0), (2, 0), (5, 0)])
# an arc through 0, with 0 itself a cut point
@example(Region.interval(GOLDEN, R(7, 8), R(9, 8)), [0, 5, 13, 20], 2, [(-1, 0), (0, 0), (3, 2)])
@settings(max_examples=60, deadline=None)
@given(lattice_bases, cut_lists, st.integers(2, 3),
       st.lists(st.tuples(st.integers(-8, 8), st.integers(0, 4)), min_size=2, max_size=5))
def test_lattice_walks_match_the_scalar_oracle(Y, grid_cuts, m, marks):
    # towers walked, refined and tiled on integer pairs read back as the
    # scalar walk, with the gaps and counts of bisection and region scans;
    # the second refinement's points frac(k theta + r/5) are orbit points
    # for r = 0 and mostly extend the lattice, so its pairs are rescaled
    system = Y.system
    pts = sorted({field_point(system.theta, k, r, 5) for k, r in marks})
    assume(len(pts) > 1)
    parts, more = grid_parts(system, grid_cuts, m), arc_parts(system, pts)
    tower = build_tower(system, Y)
    refined = refine_tower(tower, parts)
    again = refine_tower(refined, more)
    assert refined.lattice.L % tower.lattice.L == 0
    assert again.lattice.L % refined.lattice.L == 0
    for t in (tower, refined, again):
        t.verify()
        assert materialized(t) == oracle_walks(t)
    for t in (refined, again):
        assert t.level_gaps == oracle_gaps(t)
    for t in (tower, refined, again):
        for S in parts + more + [p.interior() for p in more]:
            assert outcome(cp.column_counts, t, S) == outcome(region_scan_counts, t, S)


def test_full_circle_tower_refines_from_its_walk():
    # the full circle's one level is the whole circle, which the lifted arc
    # (0, 1) is not: refined against the trivial partition the column keeps
    # that level, so a region missing only 0 still straddles it
    full = Region.full(GOLDEN)
    tower = build_tower(GOLDEN, full)
    punctured = Region(GOLDEN, [(R(0), R(1), False, False)])
    halves = [Region.interval(GOLDEN, R(0), R(1, 2)), Region.interval(GOLDEN, R(1, 2), R(1))]
    for parts in ([full], halves):
        refined = refine_tower(tower, parts)
        refined.verify()
        for S in [punctured] + halves:
            assert outcome(cp.column_counts, refined, S) == outcome(region_scan_counts, refined, S)


def levels_disjoint_by_sort(levels):
    """Pairwise disjointness of lifted open circle arcs by one sort by left
    end: each must end by the next one's start, and the last by the first
    one's start plus 1."""
    arcs = sorted((arc for level in levels for arc in level), key=lambda arc: arc[0])
    if not arcs:
        return True
    for (_, hi), (lo, _) in zip(arcs, arcs[1:]):
        if lo < hi:
            return False
    return arcs[-1][1] - 1 <= arcs[0][0]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((2, 5, 13)), st.data())
def test_chain_check_matches_the_sort(D, data):
    # lifted arcs of total length 1: a tiling, one arc shifted, two arcs'
    # lengths swapped, and two arcs with one start; one arc always passes
    # through the seam or ends on it
    system = CircleRotation(ExactScalar(0, 1, 1, D).frac())
    draw = data.draw
    pts = sorted({(system.theta * R(k) + R(r, 16)).frac()
                  for k, r in draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(0, 15)),
                                            min_size=1, max_size=7))})
    ends = pts + [pts[0] + 1]
    arcs = [[lo, hi - lo] for lo, hi in zip(ends, ends[1:])]  # start, length
    kind = draw(st.integers(0, 3))
    i = draw(st.integers(0, len(arcs) - 1))
    k = (i + draw(st.integers(1, max(1, len(arcs) - 1)))) % len(arcs)
    if kind == 1:
        arcs[i][0] += draw(st.sampled_from((R(1, 64), R(-1, 64), system.theta / 16)))
    elif kind == 2:
        arcs[i][1], arcs[k][1] = arcs[k][1], arcs[i][1]
    elif kind == 3 and k != i:
        arcs[k][0] = arcs[i][0]
    lifted = [(lo.frac(), lo.frac() + ln) for lo, ln in draw(st.permutations(arcs))]
    split = draw(st.integers(0, len(lifted)))
    levels = [(arc,) for arc in lifted[:split]]
    levels += [tuple(lifted[j:j + 2]) for j in range(split, len(lifted), 2)]
    lattice = Lattice([system.theta] + [x for level in levels for arc in level for x in arc])
    on_lattice = [tuple(lattice.pair(lo) + lattice.pair(hi) for lo, hi in level) for level in levels]
    tiles = levels_tile(system, on_lattice, lattice)
    assert tiles == levels_disjoint_by_sort(levels)
    if kind == 0:
        assert tiles
    if kind == 3 and k != i:
        assert not tiles


def test_empty_interior_column_has_no_levels():
    point = Region.points(GOLDEN, [R(1, 2)])
    tower = RokhlinTower(GOLDEN, point, ((point, 2),))
    assert tower.walks == ((),)
    assert cp.column_counts(tower, Region.interval(GOLDEN, R(1, 4), R(3, 4))) == ((),)
