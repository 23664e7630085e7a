import pytest

import dyncomp.towers as towers_mod
from dyncomp.errors import EmptyInput, InvalidPartition, MixedAmbient, NonTerminationGuard
from dyncomp.regions import CylinderRegion, Region
from dyncomp.scalars import ExactScalar, golden_theta
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
    with pytest.raises(InvalidPartition):
        refine_tower(tower, [CylinderRegion(odo, [0, 1])])


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
    monkeypatch.setattr(towers_mod, "RETURN_GUARD", 3)
    with pytest.raises(NonTerminationGuard):
        build_tower(GOLDEN, Region.interval(GOLDEN, R(0), R(1, 100)))
