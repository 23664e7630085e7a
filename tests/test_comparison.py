import dataclasses
import functools
import random
from time import perf_counter

import pytest
from hypothesis import example, given, settings, strategies as st

from dyncomp.errors import (
    BreakpointBudget,
    ColumnDeficit,
    EmptyInput,
    GapNonpositive,
    MixedAmbient,
    NotSeparated,
    SearchExhausted,
    UnrefinedTower,
)
from dyncomp.scalars import ExactScalar, golden_theta, HALF, ONE, ZERO
from dyncomp.systems import CircleRotation, Odometer, TorusRotation
from dyncomp.regions import BoxRegion, CylinderRegion, Region, translate_region, union_many
from dyncomp.towers import RokhlinTower, build_tower, disjoint_base, refine_tower
from dyncomp.plfun import (
    DEFAULT_BP_CAP,
    birkhoff_sum,
    bump,
    check_bp_budget,
    difference,
    global_extrema,
    integral,
    min_cascade,
    scale,
    sum_of,
    translate_fn,
)
from dyncomp import comparison as cp
from dyncomp.cli import float_birkhoff_min
from dyncomp.smallness import leftover_cover

R = ExactScalar.rational
GOLDEN = CircleRotation(golden_theta())


def closed_arc(system, a, b):
    return Region(system, [(a, b, True, True)])


def open_arc(system, a, b):
    return Region(system, [(a, b, False, False)])


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
    from dyncomp.plfun import extrema_on, support_of

    assert extrema_on(cert.g0, F) == (ONE, ONE)
    sup0 = support_of(GOLDEN, cert.g0)
    assert not sup0.intersects(E.closure())
    sup1 = support_of(GOLDEN, cert.g1)
    assert E.contains_region(sup1)
    assert (cert.m0 - cert.sigma).sign() > 0
    assert cp.verify_certificate(GOLDEN, cert, Ns=(cert.N0, cert.N1)) == []
    # g0 out of [0, 1], g replaced and m0 nudged each name their clause
    for change, failure in (
        ({"g0": scale(cert.g0, 2)}, "g0 leaves [0, 1]"),
        ({"g": cert.g1}, "g is not g1 - g0"),
        ({"m0": cert.m0 + R(1, 10**6)}, "recorded m0 is not the exact minimum at N0"),
    ):
        broken = dataclasses.replace(cert, **change)
        assert failure in cp.verify_certificate(GOLDEN, broken, Ns=(cert.N0,))


def test_birkhoff_certificate_float_oracle():
    cert = cp.birkhoff_certificate(GOLDEN, Region.empty(GOLDEN), open_arc(GOLDEN, ZERO, HALF))
    rng = random.Random(7)
    starts = [rng.random() for _ in range(40)]
    approx = float_birkhoff_min(GOLDEN, cert.g, cert.N0, starts)
    exact = float(cert.m0)
    assert approx >= exact - 1e-9


def test_float_oracle_lifts_the_seam_segment():
    # g's first breakpoint is 1/200, so orbit points in [0, 1/200) lie on
    # the segment that wraps 1 -> 0; read without the lift, they pulled the
    # float minimum to 0.12484... < m0 = 1/8
    cert = cp.birkhoff_certificate(
        GOLDEN, closed_arc(GOLDEN, R(1, 200), R(1, 10)), open_arc(GOLDEN, R(3, 10), R(6, 10)))
    assert cert.m0 == R(1, 8) and cert.g.breakpoints[0][0] == R(1, 200)
    _, _, argmin = global_extrema(birkhoff_sum(GOLDEN, cert.g, cert.N0))
    rng = random.Random(40)
    starts = [float(argmin)] + [rng.random() for _ in range(200)]
    approx = float_birkhoff_min(GOLDEN, cert.g, cert.N0, starts)
    assert abs(approx - float(cert.m0)) <= 1e-9
    assert approx >= float(cert.m0) - 1e-9


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


def test_birkhoff_certificate_doubling_budget():
    # g has 8 breakpoints, so the first doubling (S_2) would need up to 16
    start = perf_counter()
    with pytest.raises(BreakpointBudget, match="S_2 "):
        cp.birkhoff_certificate(
            GOLDEN,
            closed_arc(GOLDEN, ZERO, R(1, 10)),
            open_arc(GOLDEN, R(3, 10), R(6, 10)),
            bp_cap=10,
        )
    assert perf_counter() - start < 1.0


def test_verify_certificate_window_budget():
    # the cap admits the window at N1 but no longer one; every length is
    # held to the budget, also one the cocycle bound would settle
    cert = cp.birkhoff_certificate(GOLDEN, Region.empty(GOLDEN), open_arc(GOLDEN, ZERO, HALF))
    cap = cert.N1 * len(cert.g.breakpoints)
    start = perf_counter()
    with pytest.raises(BreakpointBudget, match="S_%d " % (cert.N1 + 1)):
        cp.verify_certificate(GOLDEN, cert, bp_cap=cap)
    with pytest.raises(BreakpointBudget, match="S_%d " % (2 * cert.N1)):
        cp.verify_certificate(GOLDEN, cert, Ns=(cert.N1, 2 * cert.N1), bp_cap=cap)
    assert perf_counter() - start < 1.0


def test_verify_certificate_checks_every_budget_first(monkeypatch):
    # the cap admits N0 but not N1, the shortest requested window, so
    # verify_certificate refuses before it sums any window, N0's included
    F = closed_arc(GOLDEN, ZERO, R(1, 10))
    cert = cp.birkhoff_certificate(GOLDEN, F, open_arc(GOLDEN, R(3, 10), R(6, 10)))
    assert cert.N0 < cert.N1
    cap = cert.N0 * len(cert.g.breakpoints)

    def summed(*args):
        raise AssertionError("a window was summed before every budget was checked")

    monkeypatch.setattr(cp, "birkhoff_min", summed)
    with pytest.raises(BreakpointBudget, match="S_%d " % cert.N1):
        cp.verify_certificate(GOLDEN, cert, bp_cap=cap)


def build_every_window(system, cert, Ns=None, bp_cap=DEFAULT_BP_CAP):
    """verify_certificate with every window S_N built and compared exactly."""
    failures = []
    for name, f in (("g0", cert.g0), ("g1", cert.g1)):
        lo, hi = f.range_bounds()
        if lo.sign() < 0 or (hi - ONE).sign() > 0:
            failures.append("%s leaves [0, 1]" % name)
    if cert.g != difference(cert.g1, cert.g0):
        failures.append("g is not g1 - g0")
    if not (cert.m0 - cert.sigma).sign() > 0:
        failures.append("m0 does not exceed sigma")
    S0 = birkhoff_sum(system, cert.g, cert.N0, bp_cap)
    if global_extrema(S0)[0] != cert.m0 * ExactScalar.rational(cert.N0):
        failures.append("recorded m0 is not the exact minimum at N0")
    sums = {}
    for N in sorted(set(int(n) for n in (Ns or (cert.N1, cert.N1 + 1, 2 * cert.N1)))):
        check_bp_budget(cert.g, N, bp_cap)
        half = sums.get(N // 2) if N % 2 == 0 else None
        if half is not None:
            S = sum_of([half, translate_fn(system, half, -(N // 2))])
        else:
            prev = sums.get(N - 1)
            if prev is not None:
                S = sum_of([prev, translate_fn(system, cert.g, -(N - 1))])
            else:
                S = birkhoff_sum(system, cert.g, N, bp_cap)
        sums[N] = S
        if global_extrema(S)[0] < cert.sigma * ExactScalar.rational(N):
            failures.append("window minimum at N = %d falls below sigma" % N)
    return failures


@functools.cache
def small_certificates():
    """Three certificates with N1 = 216, 352 and 960."""
    pairs = [
        (Region.empty(GOLDEN), open_arc(GOLDEN, ZERO, HALF)),
        (closed_arc(GOLDEN, ZERO, R(1, 5)), open_arc(GOLDEN, R(1, 4), R(3, 4))),
        (closed_arc(GOLDEN, ZERO, R(1, 10)), open_arc(GOLDEN, R(3, 10), R(6, 10))),
    ]
    return [cp.birkhoff_certificate(GOLDEN, F, E) for F, E in pairs]


def window_outcome(fn, cert, Ns, cap):
    try:
        return fn(GOLDEN, cert, Ns, bp_cap=DEFAULT_BP_CAP if cap is None else cap)
    except BreakpointBudget as e:
        return str(e)


# window lists: none (the default N1, N1 + 1, 2 * N1), any lengths, or a
# length n with a few close neighbours and multiples, so pairs a + b = N occur
WINDOWS = st.one_of(
    st.none(),
    st.lists(st.integers(1, 200), min_size=1, max_size=5),
    st.builds(lambda n, ks: [n] + [m * n + c for m, c in ks], st.integers(2, 40) | st.integers(1, 150),
              st.lists(st.sampled_from([(1, 1), (1, 2), (2, 0), (2, 1), (3, 0)]), max_size=4)),
)


# S_4 and S_6 fail while min S_3 + min S_1 and 2 * min S_3 fall short of
# sigma * N by less than 1, so a bound off by one would hide them
@example(0, 24, [3, 4, 6], None)
@example(0, 20, [4, 5], None)
@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2), st.integers(1, 48), WINDOWS, st.one_of(st.none(), st.integers(1, 4000)))
def test_verify_certificate_matches_every_window_built(which, sixteenths, Ns, cap):
    # sigma scaled by sixteenths / 16: raised, short windows fall below it
    cert = small_certificates()[which]
    cert = dataclasses.replace(cert, sigma=cert.sigma * R(sixteenths, 16))
    assert window_outcome(cp.verify_certificate, cert, Ns, cap) == window_outcome(
        build_every_window, cert, Ns, cap)


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


def test_a_failed_witness_check_is_not_retried(monkeypatch):
    # a witness that fails its check is a construction bug, which a taller
    # tower would only hide: one attempt, then RuntimeError
    bases = []
    attempt = cp._attempt

    def moved(*args):
        bases.append(args[6])
        w = attempt(*args)
        (f, d), *rest = w.entries
        return dataclasses.replace(w, entries=((f, d + 1), *rest))

    monkeypatch.setattr(cp, "_attempt", moved)
    C, U = closed_arc(GOLDEN, ZERO, R(1, 5)), open_arc(GOLDEN, R(3, 10), R(3, 5))
    with pytest.raises(RuntimeError, match="^comparison witness postcondition failed: "):
        cp.dynamic_comparison(GOLDEN, C, U)
    assert len(bases) == 1


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


# -- the witness assembly before the closed form, kept as its oracle:
# one region-algebra bump per matched level, cascaded once more after the
# leftover cover's functions


def oracle_matched_levels(tower, tables):
    per_match = []
    opens = []
    for table in tables:
        cell = tower.columns[table.column][0]
        closed = cell.closure()
        opened = cell.interior()
        at = 0
        for s, t, d in table.pairs:
            closed = translate_region(tower.system, closed, s - at)
            opened = translate_region(tower.system, opened, s - at)
            at = s
            per_match.append((closed, opened, d))
            opens.append(opened)
    return per_match, opens


def oracle_column_bump(system, closed, opened, cover, indices):
    plateau = closed
    for j in indices:
        plateau = plateau.minus(translate_region(system, cover.mids[j], -cover.shifts[j]))
    return bump(plateau, opened)


def oracle_attempt(system, C, U, U0, margins, N_base):
    """Entries and matched closed levels as the two-cascade assembly built
    them."""
    CC = C.closure()
    tower = build_tower(system, disjoint_base(system, N_base))
    rest = CC.union(U0.closure()).complement().closure()
    parts = [p for p in (CC, U0.closure(), rest) if not p.interior().is_empty]
    refined = refine_tower(tower, parts)
    counts_C = cp.column_counts(refined, CC)
    counts_U0 = cp.column_counts(refined, U0)
    full = [k for k, (cell, _) in enumerate(refined.columns) if not cell.interior().is_empty]
    tables = cp.column_matching([counts_C[k] for k in full], [counts_U0[k] for k in full])
    tables = tuple(dataclasses.replace(t, column=full[i]) for i, t in enumerate(tables))
    per_match, matched_opens = oracle_matched_levels(refined, tables)
    leftover_region = CC.minus(union_many(system, matched_opens)) if matched_opens else CC
    if not leftover_region.interior().is_empty:
        raise ColumnDeficit("matched levels leave an arc of C uncovered")
    points = leftover_region.point_list()
    room = U.minus(U0.closure())
    eps = min(cell.measure() for cell, _ in refined.columns if not cell.interior().is_empty) * HALF
    depth = cp._search_depth(None, max(len(points), 1), margins.room)
    cover = leftover_cover(system, list(points), room, eps, depth)
    index_of = {p: i for i, p in enumerate(points)}
    gs = list(cover.functions)
    shifts = list(cover.shifts)
    for closed, opened, d in per_match:
        lo, hi, _, _ = closed.logical_arcs()[0]
        ends = {index_of[lo.frac()], index_of[hi.frac()]}
        gs.append(oracle_column_bump(system, closed, opened, cover, sorted(ends)))
        shifts.append(d)
    fs = min_cascade(system, gs)
    return tuple(zip(fs, shifts)), [closed for closed, _, _ in per_match]


def oracle_comparison(system, C, U):
    """dynamic_comparison's retry loop around the oracle assembly."""
    C1, U0, _, margins = cp.simplify_inputs(system, C, U)
    cert = cp.birkhoff_certificate(system, C1.closure(), U0, cp.QUARTER)
    N_base = cert.N0
    for _ in range(3):
        try:
            entries, closed_levels = oracle_attempt(system, C1, U, U0, margins, N_base)
        except (ColumnDeficit, SearchExhausted):
            N_base *= 3
            continue
        witness = cp.ComparisonWitness(inputs=(C, U), entries=entries, provenance=None)
        if cp.verify_witness(system, C, U, witness).ok:
            return entries, closed_levels
        N_base *= 3
    raise AssertionError("the oracle found no witness")


def golden_family(k):
    """The golden spec's C = [0, 1/5] and U = (3/10, 3/5), rotated by k/40."""
    shift = R(k, 40)
    lo_C, lo_U = shift, (R(3, 10) + shift).frac()
    return closed_arc(GOLDEN, lo_C, lo_C + R(1, 5)), open_arc(GOLDEN, lo_U, lo_U + R(3, 10))


@pytest.mark.parametrize("k", [0, 7, 35])
def test_level_entries_match_the_cascade_oracle(k):
    C, U = golden_family(k)
    if k == 35:
        assert C == closed_arc(GOLDEN, R(7, 8), R(43, 40))
        assert U == open_arc(GOLDEN, R(7, 40), R(19, 40))
    entries, closed_levels = oracle_comparison(GOLDEN, C, U)
    assert cp.dynamic_comparison(GOLDEN, C, U).entries == entries
    through_zero = [L for L in closed_levels if (L.logical_arcs()[0][1] - ONE).sign() > 0]
    assert bool(through_zero) == (k == 35)


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
    from dyncomp.plfun import support_of

    sups = [support_of(GOLDEN, f) for f, _ in w.entries]
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


def test_verify_witness_names_every_entry_pushed_out():
    # the shift push of criterion 5's kind 2, on two entries at once: the
    # one sweep finds the clause false, the per-entry pass names both
    C = closed_arc(GOLDEN, ZERO, R(1, 8))
    U = open_arc(GOLDEN, R(1, 4), HALF)
    w = cp.dynamic_comparison(GOLDEN, C, U)
    assert len(w.entries) == 271
    entries = list(w.entries)
    for j in (1, 270):
        entries[j] = (entries[j][0], entries[j][1] + 1)
    rep = cp.verify_witness(GOLDEN, C, U, dataclasses.replace(w, entries=tuple(entries)))
    assert rep.failures == (
        "translated support 1 leaves the open set",
        "translated support 270 leaves the open set",
    )
    assert [ok for _, ok in rep.clauses] == [True, True, True, False]
    # entry 176 takes entry 0's shift too: the overlap comes first
    entries[176] = (entries[176][0], entries[0][1])
    rep = cp.verify_witness(GOLDEN, C, U, dataclasses.replace(w, entries=tuple(entries)))
    assert rep.failures == (
        "translated supports overlap",
        "translated support 1 leaves the open set",
        "translated support 270 leaves the open set",
    )
    assert [ok for _, ok in rep.clauses] == [True, True, False, False]


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
