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
the retracted copy; with S the cover's sum, each matched level's entry is
1 - S on that level.

Everything is exact.  Each construction checks its witness once with
`verify_witness`, which re-checks the four clauses from scratch and reports
failures instead of raising; the report rides along in the provenance.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace

from .check import CircleCheck
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
    DEFAULT_BP_CAP,
    CylinderFunction,
    PLFunction,
    birkhoff_min,
    bump,
    check_bp_budget,
    difference,
    global_extrema,
    global_min,
    integral,
    sum_extrema_on,
    sum_of,
    support_of,
)
from .regions import (
    ArcLocator,
    CylinderRegion,
    Region,
    _ambient,
    _cut_last,
    disjoint_inside,
    measure_gap,
    outer_approx,
    translate_region,
)
from .scalars import HALF, ONE, ZERO, ExactScalar, dyadic_keys
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
    certificate: object = None
    tower: tuple = ()  # ((height, cell measure), ...) per column
    tables: tuple = ()
    leftover: int = 0  # number of boundary points handed to the leftover cover
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


# -- Birkhoff-average certificates


def birkhoff_certificate(
    system, F, E, sigma_fraction=None, bp_cap=DEFAULT_BP_CAP
) -> BirkhoffCertificate:
    """Certificate that the Birkhoff averages of g = g1 - g0 exceed
    sigma = sigma_fraction * integral(g) for every window of length >= N1.

    g0 is a bump equal to 1 on F supported away from closure(E); g1 is a
    bump supported inside E equal to 1 on a retract of E.  N0 is found by
    doubling until the exact minimum of S_N0 g (`birkhoff_min`, read from
    orbit windows without building S_N) clears sigma * N0, each N within
    the work budget check_bp_budget(g, N, bp_cap); N1 is the block bound
    N0 * ceil((m0 + max|g|) / (m0 - sigma)).
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

    g_lo, g_hi, _ = global_extrema(g)
    N, low = 1, g_lo
    bound = sigma  # sigma * N
    while not low > bound:
        if 2 * N > _DOUBLING_GUARD:
            raise NonTerminationGuard("Birkhoff doubling exceeded the guard")
        check_bp_budget(g, 2 * N, bp_cap)
        N *= 2
        bound = bound + bound
        low = birkhoff_min(system, g, N)
    m0 = low / ExactScalar.rational(N)
    peak = -g_lo if (-g_lo) > g_hi else g_hi
    N1 = N * _ceil((m0 + peak) / (m0 - sigma))
    return BirkhoffCertificate(g0=g0, g1=g1, g=g, N0=N, sigma=sigma, m0=m0, N1=N1)


def verify_certificate(system, cert, Ns=None, bp_cap=DEFAULT_BP_CAP):
    """Re-check a certificate from scratch; returns failure strings.

    Structural clauses are exact; the window clause is spot-checked at the
    given lengths (default N1, N1 + 1 and 2 * N1).  Every length, N0 first
    and then the rest in increasing order, must pass check_bp_budget
    before any window is summed.  Each window minimum is exact
    (`birkhoff_min`), and the shortest window is always summed.  A longer
    one is settled without summing when the cocycle identity
    S_(a+b)(x) = S_a(x) + S_b(h^a x) over windows already summed here (and
    g itself, N = 1) bounds its minimum by min S_a + min S_b >= sigma * N.
    The window at N0 is not reused, so no window follows from the
    certificate's own block argument.
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
    Ns = sorted(set(int(n) for n in (Ns or (cert.N1, cert.N1 + 1, 2 * cert.N1))))
    for N in [cert.N0] + Ns:
        check_bp_budget(cert.g, N, bp_cap)
    if birkhoff_min(system, cert.g, cert.N0) != cert.m0 * ExactScalar.rational(cert.N0):
        failures.append("recorded m0 is not the exact minimum at N0")
    lows = {1: global_min(cert.g)}
    for N in Ns:
        floor = cert.sigma * ExactScalar.rational(N)
        if len(lows) > 1 and any(
            N - a in lows and not lows[a] + lows[N - a] < floor for a in lows
        ):
            continue
        lows[N] = birkhoff_min(system, cert.g, N)
        if lows[N] < floor:
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

    On a circle S's boundary points cut the circle into gaps, each wholly
    inside S or outside its closure; one point per gap says which.  On a
    refined tower whose cut points include them all, each cut gap lies in
    the gap of S holding its start (one merge), and every level takes the
    side of its cut gap (`level_gaps`).  Otherwise `ArcLocator` places each
    walked arc on the tower's lattice extended by S's boundary points: an
    arc holding one straddles S, and so does the whole circle.
    """
    system = tower.system
    _ambient(system, S)
    out = []
    if isinstance(system, Odometer):
        for walk in tower.walks:
            hits = []
            for j, level in enumerate(walk):
                if S.contains_region(level):
                    hits.append(j)
                elif S.intersects(level):
                    raise UnrefinedTower("open level straddles the test region")
            out.append(tuple(hits))
        return tuple(out)
    pts = S.boundary_points()
    if not pts:
        return tuple(tuple(range(len(walk))) if S.is_full else () for walk in tower.walks)
    sides = [S.contains_point((pts[-1] + pts[0] + 1) / 2)]
    sides += [S.contains_point((a + b) / 2) for a, b in zip(pts, pts[1:])]
    sides.append(sides[0])
    at = _gaps_among_cuts(tower.cuts.points, pts) if tower.cuts is not None else None
    if at is not None:
        inside = [sides[i] for i in at]
        return tuple(tuple(j for j, g in enumerate(gaps) if inside[g])
                     for gaps in tower.level_gaps)
    lattice = tower.lattice.extend(pts)
    up = lattice.L // tower.lattice.L
    locator = ArcLocator(pts, lattice)
    for (cell, _), walk in zip(tower.columns, tower.walks):
        if walk and cell.is_full:
            raise UnrefinedTower("open level straddles the test region")
        hits = []
        for j, level in enumerate(walk):
            gaps = [locator.inside(A * up, B * up, C * up, E * up) for A, B, C, E in level]
            if any(held for _, held in gaps) or len({sides[g] for g, _ in gaps}) > 1:
                raise UnrefinedTower("open level straddles the test region")
            if sides[gaps[0][0]]:
                hits.append(j)
        out.append(tuple(hits))
    return tuple(out)


def _gaps_among_cuts(cuts, pts):
    """For each gap between sorted cut points, numbered as in `ArcLocator`,
    the gap between the sorted points pts that holds it, by one merge;
    None when some point of pts is not a cut point."""
    at, i = [0], 0
    for c in cuts:
        if i < len(pts) and pts[i] < c:
            return None
        if i < len(pts) and pts[i] == c:
            i += 1
        at.append(i)
    return at if i == len(pts) else None


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


def _source_levels(tower, tables):
    """For each table pair in order, the lifted open source level (lo, hi)
    and its shift.  A refined circle cell is one arc, so each walked level
    is one lifted arc, read off the walk as ExactScalars for the matched
    levels only."""
    scalar = tower.lattice.scalar
    out = []
    for table in tables:
        walk = tower.walks[table.column]
        for s, _, d in table.pairs:
            ((A, B, C, E),) = walk[s]
            out.append(((scalar(A, B), scalar(C, E)), d))
    return out


def _matched(system, levels):
    """The region of the lifted open levels (lo, hi), lo in [0, 1), which
    the tower made pairwise disjoint: sorted by one `dyadic_keys` call, they
    are canonical pieces once the last, the only one that can pass 1, is
    cut at the seam (`_cut_last`), so no sweep."""
    keys = dyadic_keys([lo for lo, _ in levels])
    arcs = [(lo, hi, False, False) for _, (lo, hi) in sorted(zip(keys, levels))]
    return Region._make(system, _cut_last(arcs))


def _level_entries(S, levels):
    """Per lifted closed level [lo, hi] of levels, 1 - S on it and 0
    elsewhere, where S is the leftover cover's sum, which is 1 near both
    ends of each level.

    Its canonical breakpoints are those of S strictly inside (lo, hi), with
    value 1 - v (0 for 1 and 1 for 0, with no arithmetic) and S's jump
    negated; a level through 0 takes them from both sides of the seam, up
    to hi - 1, which is below lo.  They are
    found by bisection on the `dyadic_keys` of S's abscissae and of the
    levels' ends, from one call.
    """
    bps, jumps = S.breakpoints, S.jumps
    n = len(bps)
    ends = [e for lo, hi in levels for e in (lo, hi if hi.cmp_int(1) <= 0 else hi - 1)]
    keys = dyadic_keys(list(S._xs) + ends)
    xs = keys[:n]
    out = []
    for lo, hi in zip(keys[n::2], keys[n + 1::2]):
        if lo < hi:
            k, m = bisect_right(xs, lo), bisect_left(xs, hi)
            inside, kinks = bps[k:m], jumps[k:m]
        else:  # the level passes 1
            k, m = bisect_left(xs, hi), bisect_right(xs, lo)
            inside, kinks = bps[:k] + bps[m:], jumps[:k] + jumps[m:]
        out.append(PLFunction._canonical(
            [(at, ZERO if v == ONE else ONE if not v else ONE - v) for at, v in inside],
            [-jump for jump in kinks]) if inside else PLFunction.constant(ZERO))
    return out


def _search_depth(search_depth, n, room):
    """search_depth, or by default the orbit-search depth for n points
    hosted in an open set of measure room: ceil(64 n / room), at least
    DEFAULT_DEPTH."""
    if search_depth is not None:
        return search_depth
    return max(DEFAULT_DEPTH, _ceil(ExactScalar.rational(64 * n) / room))


def _finite_comparison(system, C, U, search_depth):
    """C is a finite point set: each point gets its own bump pushed into
    the open set by the leftover cover; no tower or certificate is needed."""
    points = C.closure().point_list()
    room = U.measure()
    if room.sign() <= 0:
        raise GapNonpositive("open set has no measure to host the point cover")
    eps = room * HALF
    depth = _search_depth(search_depth, len(points), room)
    cover = leftover_cover(system, list(points), U, eps, depth)
    witness = ComparisonWitness(
        inputs=(C, U),
        entries=tuple(zip(cover.functions, cover.shifts)),
        provenance=ComparisonProvenance(leftover=len(points)),
    )
    return _verified(system, C, U, witness, "point witness")


def _attempt(system, C, U, U0, cert, margins, N_base, search_depth):
    CC = C.closure()
    tower = build_tower(system, disjoint_base(system, N_base))
    rest = CC.union(U0.closure()).complement().closure()
    parts = [p for p in (CC, U0.closure(), rest) if not p.interior().is_empty]
    refined = refine_tower(tower, parts)

    tables = column_matching(column_counts(refined, CC), column_counts(refined, U0))
    levels = _source_levels(refined, tables)
    matched = _matched(system, [arc for arc, _ in levels])
    leftover_region = CC.minus(matched)
    if not leftover_region.interior().is_empty:
        raise ColumnDeficit("matched levels leave an arc of C uncovered")
    points = leftover_region.point_list()

    room = U.minus(U0.closure())
    eps = min(cell.measure() for cell, _ in refined.columns) * HALF
    depth = _search_depth(search_depth, max(len(points), 1), margins.room)
    cover = leftover_cover(system, list(points), room, eps, depth)

    S = sum_of(cover.functions)
    entries = tuple(zip(cover.functions, cover.shifts)) + tuple(
        zip(_level_entries(S, [arc for arc, _ in levels]), (d for _, d in levels))
    )
    provenance = ComparisonProvenance(
        certificate=cert,
        tower=tuple((n, cell.measure()) for cell, n in refined.columns),
        tables=tables,
        leftover=len(points),
    )
    return ComparisonWitness(inputs=(C, U), entries=entries, provenance=provenance)


def dynamic_comparison(
    system, C, U, sigma_fraction=None, search_depth=None, bp_cap=DEFAULT_BP_CAP
):
    """Witness that C is dominated by U: functions summing to exactly 1 on
    C whose supports translate into U pairwise disjointly.

    Circle rotations run the tower pipeline (up to three attempts, each
    with a taller tower than the last, while the columns or the orbit
    search fall short); odometers reduce to the clopen matching.
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
            provenance=ComparisonProvenance(),
        )
        return _verified(system, C, U, witness, "empty witness")
    fat = CC.interior()
    if fat.is_empty:
        return _finite_comparison(system, C, U, search_depth)
    if not CC.minus(fat.closure()).is_empty:
        raise ValueError("closed sets mixing arcs and isolated points are not supported")
    C1, U0, _, margins = simplify_inputs(system, C, U)
    fraction = QUARTER if sigma_fraction is None else ExactScalar.coerce(sigma_fraction)
    cert = birkhoff_certificate(system, C1.closure(), U0, fraction, bp_cap)

    N_base = cert.N0
    for retries in (2, 1, 0):
        try:
            witness = _attempt(system, C1, U, U0, cert, margins, N_base, search_depth)
            break
        except (ColumnDeficit, SearchExhausted):
            if not retries:
                raise
            N_base *= 3
    return _verified(system, C, U, witness, "comparison witness")


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


def _verified(system, C, U, witness, what):
    """The construction's one check: raise if a clause fails, else hand the
    report back with the witness."""
    report = verify_witness(system, C, U, witness)
    if not report.ok:
        raise RuntimeError(
            "%s postcondition failed: %s" % (what, "; ".join(report.failures))
        )
    return replace(witness, provenance=replace(witness.provenance, report=report))


def verify_witness(system, C, U, witness) -> VerificationReport:
    """Re-check the four witness clauses exactly; failures become report
    entries, never exceptions.  On a circle the checker `check.CircleCheck`
    decides them from the entries' breakpoints as integer triples, the
    same checker that `verify` streams a certificate file into."""
    if isinstance(system, CircleRotation):
        _ambient(system, U)
        other = {s.D for f, _ in witness.entries for p in f.breakpoints for s in p if s.b}
        other.discard(system.D)
        if other:  # the checker reads every sqrt part in the system's field
            raise ValueError("incompatible quadratic fields D=%d, D=%d" % (min(other), system.D))
        checker = CircleCheck(system.theta)
        for f, d in witness.entries:
            checker.add(d, [(x.a, x.b, x.c, v.a, v.b, v.c) for x, v in f.breakpoints])
        clauses, failures = checker.report(C.closure().pieces, U.pieces)
        return VerificationReport(clauses=clauses, failures=failures)
    if not isinstance(system, Odometer):
        raise MixedAmbient("witness verification runs over circle rotations and odometers")
    entries = witness.entries
    failures = []
    ranges_ok = True
    for i, (f, _) in enumerate(entries):
        lo, hi = f.range_bounds()
        if lo.sign() < 0 or (hi - ONE).sign() > 0:
            ranges_ok = False
            failures.append("entry %d leaves [0, 1]" % i)
    part_ok = True
    CC = C.closure()
    if not CC.is_empty:
        fns = [f for f, _ in entries]
        # the sum of no functions is 0
        mn, mx = sum_extrema_on(fns, CC) if fns else (ZERO, ZERO)
        if mn != ONE or mx != ONE:
            part_ok = False
            failures.append("sum over the closed set spans [%s, %s]" % (mn, mx))
    translated = [translate_region(system, support_of(system, f), d) for f, d in entries]
    disj_ok, inside_ok = disjoint_inside(system, translated, U)
    if not disj_ok:
        failures.append("translated supports overlap")
    if not inside_ok:
        failures.extend(
            "translated support %d leaves the open set" % i
            for i, (f, d) in enumerate(entries)
            if not U.contains_region(translate_region(system, support_of(system, f), d)))
    clauses = (
        ("ranges within [0, 1]", ranges_ok),
        ("sums to 1 on the closed set", part_ok),
        ("translated supports pairwise disjoint", disj_ok),
        ("translated supports inside the open set", inside_ok),
    )
    return VerificationReport(clauses=clauses, failures=tuple(failures))
