import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

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
from dyncomp.regions import CylinderRegion, Region
from dyncomp.scalars import ONE, ZERO, ExactScalar, golden_theta
from dyncomp.systems import CircleRotation, Odometer, TorusRotation
from dyncomp.towers import (
    RokhlinTower,
    build_tower,
    disjoint_base,
    first_return,
    refine_tower,
)

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
    for _, _, level in refined.closed_levels():
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
