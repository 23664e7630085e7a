import dataclasses
import random
from time import perf_counter

import pytest

from dyncomp.errors import (
    BreakpointBudget,
    ColumnDeficit,
    EmptyInput,
    GapNonpositive,
    MixedAmbient,
    NotSeparated,
    UnrefinedTower,
)
from dyncomp.scalars import ExactScalar, golden_theta, HALF, ONE, ZERO
from dyncomp.systems import CircleRotation, Odometer, TorusRotation
from dyncomp.regions import BoxRegion, CylinderRegion, Region
from dyncomp.towers import RokhlinTower, build_tower, disjoint_base, refine_tower
from dyncomp.plfun import difference, integral, scale
from dyncomp import comparison as cp

R = ExactScalar.rational
GOLDEN = CircleRotation(golden_theta())


def closed_arc(system, a, b):
    return Region(system, [(a, b, True, True)])


def open_arc(system, a, b):
    return Region(system, [(a, b, False, False)])


def float_birkhoff_min(system, g, N, starts):
    """Iterated-orbit float oracle for the minimum of S_N g / N."""
    theta = float(system.theta)
    xs = [float(x) for x, _ in g.breakpoints]
    vs = [float(v) for _, v in g.breakpoints]

    def geval(x):
        import bisect

        i = bisect.bisect_right(xs, x) - 1
        xa, va = xs[i], vs[i]
        xb = xs[i + 1] if i + 1 < len(xs) else xs[0] + 1.0
        vb = vs[i + 1] if i + 1 < len(xs) else vs[0]
        if xb == xa:
            return va
        return va + (vb - va) * (x - xa) / (xb - xa)

    best = None
    for x in starts:
        x = x % 1.0
        total = 0.0
        for _ in range(N):
            total += geval(x)
            x += theta
            if x >= 1.0:
                x -= 1.0
        if best is None or total / N < best:
            best = total / N
    return best


def test_column_matching_frozen():
    (t,) = cp.column_matching([()], [(0, 1)])
    assert t.pairs == ()
    assert t.targets == (0, 1)
    (t,) = cp.column_matching([(1,)], [(0, 2)])
    assert t.pairs == ((1, 0, -1),)
    (t,) = cp.column_matching([(0, 3)], [(1, 2, 4)])
    assert t.pairs == ((0, 1, 1), (3, 2, -1))


def test_column_matching_deficit():
    with pytest.raises(ColumnDeficit):
        cp.column_matching([(0, 1)], [(2,)])
    with pytest.raises(ColumnDeficit):
        cp.column_matching([()], [()])
    with pytest.raises(ValueError):
        cp.column_matching([()], [(0,), (1,)])


def test_birkhoff_certificate_frozen_empty_source():
    # E = (0, 1/2); the retract is (1/32, 15/32), the ramps add 1/64 of mass,
    # so integral(g) = 29/64, sigma = 29/128, and with m0 = 1/4 at N0 = 4 the
    # block bound is 4 * ceil((1/4 + 1) / (1/4 - 29/128)) = 216.
    cert = cp.birkhoff_certificate(GOLDEN, Region.empty(GOLDEN), open_arc(GOLDEN, ZERO, HALF))
    assert cert.sigma == R(29, 128)
    assert cert.N0 == 4
    assert cert.m0 == R(1, 4)
    assert cert.N1 == 216
    assert cert.g == cert.g1
    assert integral(GOLDEN, cert.g) == R(29, 64)


def test_birkhoff_certificate_structure():
    F = closed_arc(GOLDEN, ZERO, R(1, 10))
    E = open_arc(GOLDEN, R(3, 10), R(6, 10))
    cert = cp.birkhoff_certificate(GOLDEN, F, E)
    assert cert.g == difference(cert.g1, cert.g0)
    # g0 is exactly 1 on F and vanishes on closure(E)
    from dyncomp.plfun import extrema_on, support_report

    assert extrema_on(cert.g0, F) == (ONE, ONE)
    sup0 = support_report(GOLDEN, cert.g0).support
    assert not sup0.intersects(E.closure())
    sup1 = support_report(GOLDEN, cert.g1).support
    assert E.contains_region(sup1)
    assert (cert.m0 - cert.sigma).sign() > 0
    assert cp.verify_certificate(GOLDEN, cert, Ns=(cert.N0, cert.N1)) == []


def test_birkhoff_certificate_float_oracle():
    cert = cp.birkhoff_certificate(GOLDEN, Region.empty(GOLDEN), open_arc(GOLDEN, ZERO, HALF))
    rng = random.Random(7)
    starts = [rng.random() for _ in range(40)]
    approx = float_birkhoff_min(GOLDEN, cert.g, cert.N0, starts)
    exact = float(cert.m0)
    assert approx >= exact - 1e-9


def test_birkhoff_certificate_errors():
    with pytest.raises(NotSeparated):
        cp.birkhoff_certificate(
            GOLDEN, closed_arc(GOLDEN, ZERO, R(1, 4)), open_arc(GOLDEN, R(1, 4), HALF)
        )
    with pytest.raises(GapNonpositive):
        cp.birkhoff_certificate(
            GOLDEN, closed_arc(GOLDEN, ZERO, HALF), open_arc(GOLDEN, R(3, 5), R(9, 10))
        )
    with pytest.raises(EmptyInput):
        cp.birkhoff_certificate(GOLDEN, Region.empty(GOLDEN), Region.empty(GOLDEN))


def test_birkhoff_certificate_doubling_budget(monkeypatch):
    # g has 8 breakpoints, so the first doubling (S_2) would need up to 16
    monkeypatch.setenv("DYNCOMP_BP_CAP", "10")
    start = perf_counter()
    with pytest.raises(BreakpointBudget, match="S_2 "):
        cp.birkhoff_certificate(
            GOLDEN, closed_arc(GOLDEN, ZERO, R(1, 10)), open_arc(GOLDEN, R(3, 10), R(6, 10))
        )
    assert perf_counter() - start < 1.0


def test_verify_certificate_window_budget(monkeypatch):
    # the cap admits S_N1, built by birkhoff_sum, but not the window at
    # N1 + 1, which is built from S_N1 by one more sum
    cert = cp.birkhoff_certificate(GOLDEN, Region.empty(GOLDEN), open_arc(GOLDEN, ZERO, HALF))
    monkeypatch.setenv("DYNCOMP_BP_CAP", str(cert.N1 * len(cert.g.breakpoints)))
    start = perf_counter()
    with pytest.raises(BreakpointBudget, match="S_%d " % (cert.N1 + 1)):
        cp.verify_certificate(GOLDEN, cert)
    with pytest.raises(BreakpointBudget, match="S_%d " % (2 * cert.N1)):
        cp.verify_certificate(GOLDEN, cert, Ns=(cert.N1, 2 * cert.N1))
    assert perf_counter() - start < 1.0


def test_simplify_inputs_frozen():
    C = closed_arc(GOLDEN, ZERO, R(1, 5))
    U = open_arc(GOLDEN, R(3, 10), R(6, 10))
    C1, U0, U1, margins = cp.simplify_inputs(GOLDEN, C, U)
    assert C1 == C and U1 == U
    assert U0 == open_arc(GOLDEN, R(37, 120), R(71, 120))
    assert margins.delta == R(1, 10)
    assert margins.budget == R(1, 30)
    assert margins.room == R(1, 60)
    assert margins.slack == R(1, 12)
    assert not U0.closure().intersects(C)


def test_simplify_inputs_errors():
    C = closed_arc(GOLDEN, ZERO, HALF)
    with pytest.raises(GapNonpositive):
        cp.simplify_inputs(GOLDEN, C, open_arc(GOLDEN, ZERO, HALF))
    # heavy overlap: the excision leaves less room than C itself
    C2 = closed_arc(GOLDEN, ZERO, R(2, 5))
    U2 = Region(GOLDEN, [(R(9, 10), R(3, 2), False, False)])
    with pytest.raises(GapNonpositive):
        cp.simplify_inputs(GOLDEN, C2, U2)


def test_column_counts_classifies_every_level():
    tower = build_tower(GOLDEN, disjoint_base(GOLDEN, 8))
    S = closed_arc(GOLDEN, ZERO, HALF)
    with pytest.raises(UnrefinedTower):
        cp.column_counts(tower, S)
    refined = refine_tower(tower, [S, S.complement().closure()])
    inside = cp.column_counts(refined, S)
    outside = cp.column_counts(refined, S.complement())
    for k, (cell, n) in enumerate(refined.columns):
        assert len(inside[k]) + len(outside[k]) == n
        assert set(inside[k]).isdisjoint(outside[k])
    # a level of two arcs, one in S and one outside it, straddles S
    two = Region(GOLDEN, [(ZERO, R(1, 4), True, True), (HALF, R(3, 4), True, True)])
    with pytest.raises(UnrefinedTower):
        cp.column_counts(RokhlinTower(GOLDEN, two, ((two, 1),)), closed_arc(GOLDEN, ZERO, R(1, 4)))


def test_dynamic_comparison_small_instance():
    C = closed_arc(GOLDEN, ZERO, R(1, 8))
    U = open_arc(GOLDEN, R(1, 4), HALF)
    w = cp.dynamic_comparison(GOLDEN, C, U)
    report = cp.verify_witness(GOLDEN, C, U, w)
    assert report.ok and w.provenance.report == report
    assert w.provenance.certificate is not None
    assert w.provenance.leftover > 0
    # strictly more targets than sources in every matched column
    for table in w.provenance.tables:
        assert len(table.targets) > len(table.sources)
        for s, t, d in table.pairs:
            assert d == t - s


def test_dynamic_comparison_deterministic():
    C = closed_arc(GOLDEN, ZERO, R(1, 8))
    U = open_arc(GOLDEN, R(1, 4), HALF)
    w1 = cp.dynamic_comparison(GOLDEN, C, U)
    w2 = cp.dynamic_comparison(GOLDEN, C, U)
    assert w1 == w2


def test_dynamic_comparison_empty_closed_set():
    U = open_arc(GOLDEN, R(3, 10), R(6, 10))
    w = cp.dynamic_comparison(GOLDEN, Region.empty(GOLDEN), U)
    assert len(w.entries) == 1
    f, d = w.entries[0]
    assert d == 0 and f.range_bounds() == (ZERO, ZERO)
    report = cp.verify_witness(GOLDEN, Region.empty(GOLDEN), U, w)
    assert report.ok and w.provenance.report == report


def test_dynamic_comparison_gap_nonpositive():
    C = closed_arc(GOLDEN, ZERO, HALF)
    U = open_arc(GOLDEN, ZERO, HALF)
    with pytest.raises(GapNonpositive):
        cp.dynamic_comparison(GOLDEN, C, U)


def test_dynamic_comparison_finite_closed_set():
    pts = (ZERO, R(1, 10), HALF)
    C = Region(GOLDEN, [(p, p, True, True) for p in pts])
    U = open_arc(GOLDEN, R(3, 10), R(7, 20))
    w = cp.dynamic_comparison(GOLDEN, C, U)
    assert len(w.entries) == len(pts)
    assert w.provenance.certificate is None and w.provenance.tower == ()
    assert w.provenance.leftover == len(pts)
    report = cp.verify_witness(GOLDEN, C, U, w)
    assert report.ok and w.provenance.report == report
    # the point in U may stay put, the others must move
    shifts = [d for _, d in w.entries]
    assert any(d != 0 for d in shifts)
    with pytest.raises(GapNonpositive):
        cp.dynamic_comparison(GOLDEN, C, Region.empty(GOLDEN))


def test_dynamic_comparison_rejects_mixed_closed_set():
    C = Region(GOLDEN, [(ZERO, R(1, 10), True, True), (HALF, HALF, True, True)])
    U = open_arc(GOLDEN, R(3, 10), R(6, 10))
    with pytest.raises(ValueError):
        cp.dynamic_comparison(GOLDEN, C, U)


def test_dynamic_comparison_mutations_rejected():
    C = closed_arc(GOLDEN, ZERO, R(1, 8))
    U = open_arc(GOLDEN, R(1, 4), HALF)
    w = cp.dynamic_comparison(GOLDEN, C, U)
    # scaling any entry dents the exact sum on C
    entries = list(w.entries)
    entries[3] = (scale(entries[3][0], HALF), entries[3][1])
    bad = dataclasses.replace(w, entries=tuple(entries))
    assert not cp.verify_witness(GOLDEN, C, U, bad).ok
    # dropping an entry leaves a hole
    bad = dataclasses.replace(w, entries=w.entries[1:])
    assert not cp.verify_witness(GOLDEN, C, U, bad).ok
    # copying the shift of an overlapping entry collides the translates
    from dyncomp.plfun import support_report

    sups = [support_report(GOLDEN, f).support for f, _ in w.entries]
    pair = None
    for i in range(len(sups)):
        for j in range(i + 1, len(sups)):
            if sups[i].intersects(sups[j]) and w.entries[i][1] != w.entries[j][1]:
                pair = (i, j)
                break
        if pair:
            break
    assert pair is not None
    i, j = pair
    entries = list(w.entries)
    entries[j] = (entries[j][0], entries[i][1])
    bad = dataclasses.replace(w, entries=tuple(entries))
    rep = cp.verify_witness(GOLDEN, C, U, bad)
    assert not rep.ok
    assert dict(rep.clauses)["translated supports pairwise disjoint"] is False


def test_verify_witness_reports_clauses():
    C = Region.points(GOLDEN, [R(1, 10), R(7, 10)])
    U = open_arc(GOLDEN, ZERO, R(4, 5))
    from dyncomp.plfun import bump

    f1 = bump(closed_arc(GOLDEN, R(9, 100), R(11, 100)), open_arc(GOLDEN, R(8, 100), R(12, 100)))
    f2 = bump(closed_arc(GOLDEN, R(69, 100), R(71, 100)), open_arc(GOLDEN, R(68, 100), R(72, 100)))
    w = cp.ComparisonWitness(
        inputs=(C, U),
        entries=((f1, 0), (f2, 0)),
        provenance=cp.ComparisonProvenance(None, (), (), 0),
    )
    rep = cp.verify_witness(GOLDEN, C, U, w)
    assert rep.ok and rep.failures == ()
    # stretch one function above 1: only the range clause goes false
    entries = ((scale(f1, R(3, 2)), 0), (f2, 0))
    bad = dataclasses.replace(w, entries=entries)
    rep = cp.verify_witness(GOLDEN, C, U, bad)
    verdicts = dict(rep.clauses)
    assert verdicts["ranges within [0, 1]"] is False
    assert verdicts["translated supports pairwise disjoint"] is True


def test_clopen_comparison_frozen():
    odo = Odometer((2, 2, 2), 3)
    A = CylinderRegion(odo, [0, 1])
    B = CylinderRegion(odo, [3, 5, 6])
    w = cp.clopen_comparison(odo, A, B)
    (table,) = w.provenance.tables
    assert table.pairs == ((0, 3, 3), (1, 5, 4))
    report = cp.verify_witness(odo, A, B, w)
    assert report.ok and w.provenance.report == report


def test_clopen_comparison_subset_identity():
    odo = Odometer((2, 2, 2), 3)
    w = cp.clopen_comparison(odo, CylinderRegion(odo, [2, 5]), CylinderRegion(odo, [2, 4, 5]))
    assert all(d == 0 for _, _, d in w.provenance.tables[0].pairs)


def test_clopen_comparison_gap():
    odo = Odometer((2, 2, 2), 3)
    with pytest.raises(GapNonpositive):
        cp.clopen_comparison(odo, CylinderRegion(odo, [0, 1, 2]), CylinderRegion(odo, [4, 5]))
    with pytest.raises(GapNonpositive):
        cp.clopen_comparison(odo, CylinderRegion(odo, [0]), CylinderRegion(odo, [3]))


def brute_clopen_feasible(K, a, b):
    """Backtracking search for any shift family landing the cylinders of A
    on distinct cylinders of B."""
    targets = sorted(b)

    def place(i, used):
        if i == len(a):
            return True
        for t in targets:
            if t not in used:
                if place(i + 1, used | {t}):
                    return True
        return False

    return place(0, frozenset())


def test_clopen_comparison_matches_bruteforce():
    rng = random.Random(11)
    for _ in range(50):
        K = rng.choice([4, 6, 8, 12, 16, 24, 32, 64])
        bases = {4: (2, 2), 6: (2, 3), 8: (2, 2, 2), 12: (2, 2, 3), 16: (2, 2, 2, 2),
                 24: (2, 3, 4), 32: (2, 4, 4), 64: (4, 4, 4)}[K]
        odo = Odometer(bases, len(bases))
        na = rng.randrange(0, K - 1)
        nb = rng.randrange(na + 1, K + 1) if na else rng.randrange(1, K + 1)
        A = CylinderRegion(odo, rng.sample(range(K), na))
        B = CylinderRegion(odo, rng.sample(range(K), nb))
        feasible = brute_clopen_feasible(K, sorted(A.indices), sorted(B.indices))
        if len(A.indices) < len(B.indices):
            w = cp.clopen_comparison(odo, A, B)
            assert feasible
            assert cp.verify_witness(odo, A, B, w).ok
        else:
            with pytest.raises(GapNonpositive):
                cp.clopen_comparison(odo, A, B)


def test_dynamic_comparison_odometer_delegates():
    odo = Odometer((2, 2, 2), 3)
    A = CylinderRegion(odo, [0, 1])
    B = CylinderRegion(odo, [3, 5, 6])
    w = cp.dynamic_comparison(odo, A, B)
    assert w == cp.clopen_comparison(odo, A, B)
    torus = TorusRotation([ExactScalar(-1, 1, 2, 5), ExactScalar(0, 1, 2, 2)])
    box = BoxRegion.empty(torus)
    with pytest.raises(MixedAmbient):
        cp.dynamic_comparison(torus, box, box)
    with pytest.raises(MixedAmbient):
        cp.verify_witness(torus, box, box, w)
