"""Dynamic comparison: exact witnesses that a closed set is dominated by an
open set under the rotation.

A witness is a list of pairs (f_j, d_j): piecewise-linear functions summing
to exactly 1 on the closed set C whose supports, translated by the d_j,
land pairwise disjointly inside the open set U.  The construction goes
through a Birkhoff-average certificate (the averages of a gap function
g = g1 - g0 stay above a positive sigma), a Rokhlin tower refined so every
level is committed to C, to a retracted copy of U, or to neither, and an
order-preserving injection of C-levels into U-levels per column.  Level
boundary points are mopped up by a leftover cover squeezed into U minus
the retracted copy.

Everything is exact.  Each construction checks its witness once with
`verify_witness`, which re-checks the four clauses from scratch and reports
failures instead of raising; the report rides along in the provenance.
"""

from dataclasses import dataclass, replace

from .errors import (
    ColumnDeficit,
    EmptyInput,
    GapNonpositive,
    MixedAmbient,
    NonTerminationGuard,
    NotSeparated,
    SearchExhausted,
    UnrefinedTower,
)
from .plfun import (
    CylinderFunction,
    PLFunction,
    birkhoff_sum,
    bump,
    check_bp_budget,
    difference,
    global_extrema,
    integral,
    min_cascade,
    sum_extrema_on,
    sum_of,
    support_of,
    translate_fn,
)
from .regions import (
    CylinderRegion,
    level_locator,
    measure_gap,
    outer_approx,
    pairwise_disjoint,
    translate_region,
    union_many,
    walk_levels,
)
from .scalars import HALF, ONE, ZERO, ExactScalar
from .smallness import (
    DEFAULT_DEPTH,
    leftover_cover,
    regular_inner_approx,
    regular_outer_approx,
)
from .systems import CircleRotation, Odometer
from .towers import build_tower, disjoint_base, refine_tower

QUARTER = ExactScalar.rational(1, 4)

_DOUBLING_GUARD = 2**30


def _ceil(x: ExactScalar) -> int:
    return -((-x).floor())


@dataclass(frozen=True)
class BirkhoffCertificate:
    """g = g1 - g0 with g0 = 1 on the closed set and g1 supported in the
    open set; the exact minimum of S_N0 g / N0 is m0 >= sigma, and every
    N >= N1 keeps the average above sigma."""

    g0: PLFunction
    g1: PLFunction
    g: PLFunction
    N0: int
    sigma: ExactScalar
    m0: ExactScalar
    N1: int


@dataclass(frozen=True)
class SimplifyMargins:
    delta: ExactScalar  # mu(U) - mu(C)
    budget: ExactScalar  # retraction budget handed to the inner approximation
    room: ExactScalar  # mu(U minus closure(U_0)), hosts the leftover cover
    slack: ExactScalar  # mu(U_0) - mu(C)


@dataclass(frozen=True)
class MatchingTable:
    """Order-preserving injection of the source levels of one column into
    its target levels; always strictly more targets than sources."""

    column: int
    sources: tuple
    targets: tuple
    pairs: tuple  # ((s, t, t - s), ...)


@dataclass(frozen=True)
class ComparisonProvenance:
    certificate: object
    tower: tuple  # ((height, cell measure), ...) per column
    tables: tuple
    leftover: int  # number of boundary points handed to the leftover cover
    report: object = None  # the VerificationReport of the construction's check


@dataclass(frozen=True)
class ComparisonWitness:
    inputs: tuple  # (C, U)
    entries: tuple  # ((f_j, d_j), ...)
    provenance: ComparisonProvenance


@dataclass(frozen=True)
class VerificationReport:
    clauses: tuple  # ((name, passed), ...)
    failures: tuple

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.clauses)


class _Retry(Exception):
    """Internal: the tower was too short for the certificate; rebuild taller."""


# -- Birkhoff-average certificates


def birkhoff_certificate(system, F, E, sigma_fraction=None) -> BirkhoffCertificate:
    """Certificate that the Birkhoff averages of g = g1 - g0 exceed
    sigma = sigma_fraction * integral(g) for every window of length >= N1.

    g0 is a bump equal to 1 on F supported away from closure(E); g1 is a
    bump supported inside E equal to 1 on a retract of E.  N0 is found by
    doubling until the exact minimum of S_N0 g clears sigma * N0; N1 is
    the block bound N0 * ceil((m0 + max|g|) / (m0 - sigma)).
    """
    if not isinstance(system, CircleRotation):
        raise MixedAmbient("Birkhoff certificates live over circle rotations")
    fraction = HALF if sigma_fraction is None else ExactScalar.coerce(sigma_fraction)
    if fraction.sign() <= 0 or (ONE - fraction).sign() <= 0:
        raise ValueError("sigma fraction must lie strictly between 0 and 1")
    FC = F.closure()
    if E.is_empty:
        raise EmptyInput("target open set is empty")
    EC = E.closure()
    if FC.intersects(EC):
        raise NotSeparated("closures of the source and target sets meet")
    gap = measure_gap(system, F, E)
    if gap.sign() <= 0:
        raise GapNonpositive("source set is at least as large as the target")
    eps = gap / 4
    if FC.is_empty:
        g0 = PLFunction.constant(ZERO)
    else:
        W0, _ = regular_outer_approx(system, FC, EC.complement(), eps)
        g0 = bump(FC, W0)
    core, _ = regular_inner_approx(system, E, eps)
    g1 = bump(core.closure(), E.interior())
    g = difference(g1, g0)
    mass = integral(system, g)
    if mass.sign() <= 0:
        raise GapNonpositive("gap function has non-positive integral")
    sigma = mass * fraction

    S, N = g, 1
    bound = sigma  # sigma * N
    while not global_extrema(S)[0] > bound:
        if 2 * N > _DOUBLING_GUARD:
            raise NonTerminationGuard("Birkhoff doubling exceeded the guard")
        check_bp_budget(g, 2 * N)
        S = sum_of([S, translate_fn(system, S, -N)])
        N *= 2
        bound = bound + bound
    m0 = global_extrema(S)[0] / ExactScalar.rational(N)
    g_lo, g_hi, _ = global_extrema(g)
    peak = -g_lo if (-g_lo) > g_hi else g_hi
    N1 = N * _ceil((m0 + peak) / (m0 - sigma))
    return BirkhoffCertificate(g0=g0, g1=g1, g=g, N0=N, sigma=sigma, m0=m0, N1=N1)


def verify_certificate(system, cert, Ns=None):
    """Re-check a certificate from scratch; returns failure strings.

    Structural clauses are exact; the window clause is spot-checked at the
    given lengths (default N1, N1 + 1 and 2 * N1).
    """
    failures = []
    for name, f in (("g0", cert.g0), ("g1", cert.g1)):
        lo, hi = f.range_bounds()
        if lo.sign() < 0 or (hi - ONE).sign() > 0:
            failures.append("%s leaves [0, 1]" % name)
    if cert.g != difference(cert.g1, cert.g0):
        failures.append("g is not g1 - g0")
    if not (cert.m0 - cert.sigma).sign() > 0:
        failures.append("m0 does not exceed sigma")
    S0 = birkhoff_sum(system, cert.g, cert.N0)
    if global_extrema(S0)[0] != cert.m0 * ExactScalar.rational(cert.N0):
        failures.append("recorded m0 is not the exact minimum at N0")
    sums = {}
    for N in sorted(set(int(n) for n in (Ns or (cert.N1, cert.N1 + 1, 2 * cert.N1)))):
        check_bp_budget(cert.g, N)
        half = sums.get(N // 2) if N % 2 == 0 else None
        if half is not None:
            S = sum_of([half, translate_fn(system, half, -(N // 2))])
        else:
            prev = sums.get(N - 1)
            if prev is not None:
                S = sum_of([prev, translate_fn(system, cert.g, -(N - 1))])
            else:
                S = birkhoff_sum(system, cert.g, N)
        sums[N] = S
        if global_extrema(S)[0] < cert.sigma * ExactScalar.rational(N):
            failures.append("window minimum at N = %d falls below sigma" % N)
    return failures


# -- input simplification


def simplify_inputs(system, C, U):
    """Retract U to an open U_0 whose closure avoids C but still outweighs
    it; returns (C, U_0, U, margins)."""
    if not isinstance(system, CircleRotation):
        raise MixedAmbient("input simplification runs over circle rotations")
    delta = measure_gap(system, C, U)
    if delta.sign() <= 0:
        raise GapNonpositive("closed set is at least as large as the open set")
    budget = delta / 3
    U0, _ = regular_inner_approx(system, U, budget)
    CC = C.closure()
    if not CC.is_empty:
        U0 = U0.minus(outer_approx(system, CC, budget).closure())
    if U0.closure().intersects(CC):
        raise RuntimeError("retraction postcondition failed: closure meets C")
    slack = measure_gap(system, C, U0)
    if slack.sign() <= 0:
        raise GapNonpositive("retracted open set no longer outweighs the closed set")
    room = U.minus(U0.closure()).measure()
    return C, U0, U, SimplifyMargins(delta=delta, budget=budget, room=room, slack=slack)


# -- column bookkeeping


def column_counts(tower, S):
    """Per column, the sorted level indices whose open level lies inside S.

    A level that straddles S (meets both S and its complement) means the
    tower was not refined against S and raises UnrefinedTower.  Columns
    with empty interior have no open levels and yield empty tuples.
    """
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


def column_matching(source_counts, target_counts):
    """Order-preserving injections, column by column; the m-th smallest
    source level goes to the m-th smallest target level."""
    if len(source_counts) != len(target_counts):
        raise ValueError("count tables cover different towers")
    tables = []
    for k, (cs, us) in enumerate(zip(source_counts, target_counts)):
        cs, us = tuple(sorted(cs)), tuple(sorted(us))
        if not len(us) > len(cs):
            raise ColumnDeficit(
                "column %d offers %d target levels for %d source levels"
                % (k, len(us), len(cs))
            )
        pairs = tuple((s, t, t - s) for s, t in zip(cs, us))
        tables.append(MatchingTable(column=k, sources=cs, targets=us, pairs=pairs))
    return tuple(tables)


# -- the circle pipeline


def _matched_levels(tower, tables):
    """For each table pair, the closed and open source level and the shift;
    also the union list of matched open levels."""
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


def _column_bump(system, closed, opened, cover, indices):
    """Bump equal to 1 on the level minus the mid pullbacks, supported in
    the open level minus the tighter pullbacks."""
    plateau, interior = closed, opened
    for j in indices:
        d = cover.shifts[j]
        plateau = plateau.minus(translate_region(system, cover.mids[j], -d))
        interior = interior.minus(
            translate_region(system, cover.tighter[j], -d).closure()
        )
    return bump(plateau, interior)


def _finite_comparison(system, C, U, search_depth):
    """C is a finite point set: each point gets its own bump pushed into
    the open set by the leftover cover; no tower or certificate is needed."""
    points = C.closure().point_list()
    room = U.measure()
    if room.sign() <= 0:
        raise GapNonpositive("open set has no measure to host the point cover")
    eps = room * HALF
    if search_depth is None:
        search_depth = max(
            DEFAULT_DEPTH, _ceil(ExactScalar.rational(64 * len(points)) / room)
        )
    cover = leftover_cover(system, list(points), U, eps, search_depth)
    witness = ComparisonWitness(
        inputs=(C, U),
        entries=tuple(zip(cover.functions, cover.shifts)),
        provenance=ComparisonProvenance(
            certificate=None, tower=(), tables=(), leftover=len(points)
        ),
    )
    return _verified(system, C, U, witness, "point witness")


def _attempt(system, C, U, U0, cert, margins, N_base, search_depth):
    CC = C.closure()
    tower = build_tower(system, disjoint_base(system, N_base))
    rest = CC.union(U0.closure()).complement().closure()
    parts = [p for p in (CC, U0.closure(), rest) if not p.interior().is_empty]
    refined = refine_tower(tower, parts)

    counts_C = column_counts(refined, CC)
    counts_U0 = column_counts(refined, U0)
    full = [k for k in range(len(refined.columns)) if not refined.interior_empty(k)]
    tables = column_matching(
        [counts_C[k] for k in full], [counts_U0[k] for k in full]
    )
    tables = tuple(
        replace(t, column=full[i]) for i, t in enumerate(tables)
    )

    per_match, matched_opens = _matched_levels(refined, tables)
    leftover_region = CC.minus(union_many(system, matched_opens)) if matched_opens else CC
    if not leftover_region.interior().is_empty:
        raise _Retry("matched levels leave an arc of C uncovered")
    points = leftover_region.point_list()

    room = U.minus(U0.closure())
    eps = min(cell.measure() for k, (cell, _) in enumerate(refined.columns)
              if not refined.interior_empty(k)) * HALF
    if search_depth is None:
        search_depth = max(
            DEFAULT_DEPTH, _ceil(ExactScalar.rational(64 * max(len(points), 1)) / margins.room)
        )
    cover = leftover_cover(system, list(points), room, eps, search_depth)
    index_of = {p: i for i, p in enumerate(points)}

    gs = list(cover.functions)
    shifts = list(cover.shifts)
    for closed, opened, d in per_match:
        lo, hi, _, _ = closed.logical_arcs()[0]
        ends = {index_of[lo.frac()], index_of[hi.frac()]}
        gs.append(_column_bump(system, closed, opened, cover, sorted(ends)))
        shifts.append(d)
    fs = min_cascade(system, gs)

    entries = tuple(zip(fs, shifts))
    provenance = ComparisonProvenance(
        certificate=cert,
        tower=tuple((n, cell.measure()) for cell, n in refined.columns),
        tables=tables,
        leftover=len(points),
    )
    return ComparisonWitness(inputs=(C, U), entries=entries, provenance=provenance)


def dynamic_comparison(system, C, U, sigma_fraction=None, search_depth=None):
    """Witness that C is dominated by U: functions summing to exactly 1 on
    C whose supports translate into U pairwise disjointly.

    Circle rotations run the tower pipeline (retry up to three times with
    a taller tower); odometers reduce to the clopen matching.
    """
    if isinstance(system, Odometer):
        return clopen_comparison(system, C, U)
    if not isinstance(system, CircleRotation):
        raise MixedAmbient("dynamic comparison runs over circle rotations and odometers")
    CC = C.closure()
    if CC.is_empty:
        if U.is_empty:
            raise EmptyInput("open side of the comparison is empty")
        witness = ComparisonWitness(
            inputs=(C, U),
            entries=((PLFunction.constant(ZERO), 0),),
            provenance=ComparisonProvenance(
                certificate=None, tower=(), tables=(), leftover=0
            ),
        )
        return _verified(system, C, U, witness, "empty witness")
    fat = CC.interior()
    if fat.is_empty:
        return _finite_comparison(system, C, U, search_depth)
    if not CC.minus(fat.closure()).is_empty:
        raise ValueError("closed sets mixing arcs and isolated points are not supported")
    C1, U0, _, margins = simplify_inputs(system, C, U)
    fraction = QUARTER if sigma_fraction is None else ExactScalar.coerce(sigma_fraction)
    cert = birkhoff_certificate(system, C1.closure(), U0, fraction)

    N_base = cert.N0
    failure = None
    for _ in range(3):
        try:
            witness = _attempt(system, C1, U, U0, cert, margins, N_base, search_depth)
        except (_Retry, ColumnDeficit, SearchExhausted) as exc:
            failure = exc
            N_base *= 3
            continue
        report = verify_witness(system, C, U, witness)
        if report.ok:
            return _with_report(witness, report)
        failure = RuntimeError(
            "witness verification failed: " + "; ".join(report.failures)
        )
        N_base *= 3
    if isinstance(failure, Exception) and not isinstance(failure, _Retry):
        raise failure
    raise ColumnDeficit(str(failure))


# -- clopen comparison on odometers


def clopen_comparison(system, A, B):
    """Witness for clopen sets on an odometer truncation: each cylinder of
    A is translated onto its own cylinder of B, order-preserving (or held
    in place when A is a subset of B)."""
    if not isinstance(system, Odometer):
        raise MixedAmbient("clopen comparison runs over odometers")
    if not isinstance(A, CylinderRegion):
        A = CylinderRegion(system, A)
    if not isinstance(B, CylinderRegion):
        B = CylinderRegion(system, B)
    a, b = sorted(A.indices), sorted(B.indices)
    if not len(a) < len(b):
        raise GapNonpositive("clopen source is at least as large as the target")
    if set(a) <= set(b):
        pairs = tuple((s, s, 0) for s in a)
    else:
        pairs = tuple((s, t, t - s) for s, t in zip(a, b))
    entries = tuple(
        (CylinderFunction.indicator(CylinderRegion(system, [s])), d)
        for s, _, d in pairs
    )
    if not entries:
        entries = ((CylinderFunction.indicator(CylinderRegion(system, [])), 0),)
    table = MatchingTable(column=0, sources=tuple(a), targets=tuple(b), pairs=pairs)
    witness = ComparisonWitness(
        inputs=(A, B),
        entries=entries,
        provenance=ComparisonProvenance(
            certificate=None, tower=((1, A.measure()),), tables=(table,), leftover=0
        ),
    )
    return _verified(system, A, B, witness, "clopen witness")


# -- independent verification


def _with_report(witness, report):
    return replace(witness, provenance=replace(witness.provenance, report=report))


def _verified(system, C, U, witness, what):
    """The construction's one check: raise if a clause fails, else hand the
    report back with the witness."""
    report = verify_witness(system, C, U, witness)
    if not report.ok:
        raise RuntimeError(
            "%s postcondition failed: %s" % (what, "; ".join(report.failures))
        )
    return _with_report(witness, report)


def verify_witness(system, C, U, witness) -> VerificationReport:
    """Re-check the four witness clauses exactly; failures become report
    entries, never exceptions."""
    if not isinstance(system, (CircleRotation, Odometer)):
        raise MixedAmbient("witness verification runs over circle rotations and odometers")
    failures = []
    ranges_ok = True
    for i, (f, _) in enumerate(witness.entries):
        lo, hi = f.range_bounds()
        if lo.sign() < 0 or (hi - ONE).sign() > 0:
            ranges_ok = False
            failures.append("entry %d leaves [0, 1]" % i)
    part_ok = True
    CC = C.closure()
    if not CC.is_empty:
        mn, mx = sum_extrema_on([f for f, _ in witness.entries], CC)
        if mn != ONE or mx != ONE:
            part_ok = False
            failures.append("sum over the closed set spans [%s, %s]" % (mn, mx))
    translated = []
    for i, (f, d) in enumerate(witness.entries):
        sup = support_of(system, f)
        translated.append(translate_region(system, sup, d))
    nonempty = [r for r in translated if not r.is_empty]
    disj_ok = pairwise_disjoint(system, nonempty)
    if not disj_ok:
        failures.append("translated supports overlap")
    inside_ok = True
    for i, sup in enumerate(translated):
        if not U.contains_region(sup):
            inside_ok = False
            failures.append("translated support %d leaves the open set" % i)
    clauses = (
        ("ranges within [0, 1]", ranges_ok),
        ("sums to 1 on the closed set", part_ok),
        ("translated supports pairwise disjoint", disj_ok),
        ("translated supports inside the open set", inside_ok),
    )
    return VerificationReport(clauses=clauses, failures=tuple(failures))
