"""Smallness constants, thin covers, leftover covers, TSBP separations.

A finite point set F is topologically small with constant m if any m+1
translates of F by distinct powers of the rotation have empty common
intersection.  On the circle and torus this is decided exactly: translates
share a point only when the points involved lie on one orbit, so the
constant is the largest orbit-difference class inside F.  Covers built
here always come with exact re-verification, and a separate checker
re-validates every artifact using region algebra alone.
"""

import bisect
from dataclasses import dataclass
from itertools import combinations

from .errors import (
    DuplicateInput,
    EmptyInput,
    MixedAmbient,
    NotContained,
    NotDisjoint,
    PointOutside,
    SearchExhausted,
    UnprovenInput,
)
from .scalars import ExactScalar, ONE, ZERO, dyadic_keys
from .systems import CircleRotation, Odometer, TorusRotation, circle_norm, three_gap
from .regions import (
    BoxRegion,
    CylinderRegion,
    Region,
    arc_point_gap,
    _widened,
    disjoint_inside,
    inner_approx,
    region_gap,
    translate_region,
    union_many,
)
from .plfun import _trapezoid_at, _trapezoid_shape, extrema_on, min_cascade, sum_of, support_of

DEFAULT_DEPTH = 10**4
SHIFT_WINDOW = 8  # verify_smallness scans the shifts 0 < |e| <= SHIFT_WINDOW
FACE_WINDOW = 4  # _torus_boundary_cert re-checks the shifts |e| <= FACE_WINDOW


# -- certificates


@dataclass(frozen=True)
class SmallnessCertificate:
    constant: int
    verdict: str  # "proven" | "bounded-search"
    search_depth: int | None
    witness: tuple  # shifts whose translates share a point (may be empty)


@dataclass(frozen=True)
class ThinCover:
    opens: tuple  # U_j around the covered points
    shifts: tuple  # translate_region(U_j, d_j) <= U, pairwise disjoint
    nbhd: object  # open V >= F whose closure the same cover handles


@dataclass(frozen=True)
class LeftoverCover:
    """Arcs W_j > V_j > T_j of radius w_j, w_j/2, w_j/4 around each target
    t_j and F_j of radius w_j/8 around each point x_j, built when read."""

    system: object
    points: tuple  # x_j
    targets: tuple  # t_j
    widths: tuple  # w_j
    functions: tuple
    shifts: tuple
    epsilon: ExactScalar

    closed = property(lambda c: c._arcs(c.points, 8, True))  # F_j, closed
    tighter = property(lambda c: c._arcs(c.targets, 4))  # T_j
    mids = property(lambda c: c._arcs(c.targets, 2))  # V_j
    opens = property(lambda c: c._arcs(c.targets, 1))  # W_j, disjoint, mass < epsilon

    def _arcs(self, centres, k, closed=False):
        return tuple(Region.interval(self.system, c - w / k, c + w / k, closed, closed)
                     for c, w in zip(centres, self.widths))


def _point_list(system, F):
    if isinstance(system, CircleRotation):
        if isinstance(F, Region):
            pts = F.point_list()
        else:
            pts = tuple(ExactScalar.coerce(x).frac() for x in F)
        return tuple(sorted(set(pts)))
    if isinstance(system, TorusRotation):
        out = {tuple(ExactScalar.coerce(c).frac() for c in p) for p in F}
        return tuple(sorted(out))
    if isinstance(system, Odometer):
        if isinstance(F, CylinderRegion):
            return tuple(sorted(F.indices))
        return tuple(sorted(set(int(i) for i in F)))
    raise MixedAmbient("unsupported system")


def _orbit_classes(system, points):
    """Group points by x ~ y iff y = h^k(x); returns [(rep, [(point, k)])],
    classes in order of their first point, the rep.  One dict lookup per
    point on the system's `orbit_key` (o, j): points share o exactly when
    they share an orbit, and the shift from rep to p is j(p) - j(rep)."""
    classes, index = [], {}
    for p in points:
        o, j = system.orbit_key(p)
        if o in index:
            j0, members = index[o]
            members.append((p, j - j0))
        else:
            index[o] = j, [(p, 0)]
            classes.append((p, index[o][1]))
    return classes


def distinct_sums_card(d, n) -> int:
    d = list(d)
    n = list(n)
    if len(set(d)) != len(d):
        raise DuplicateInput("shift list has repeats")
    if len(n) != 2 or n[0] == n[1]:
        raise DuplicateInput("need two distinct return times")
    return len({di + nj for di in d for nj in n})


def smallness_constant(system, F, search_depth: int = DEFAULT_DEPTH) -> SmallnessCertificate:
    """Exact smallness constant of a finite point set.

    Circle and torus cases are proven: a common point of translates forces
    all participating points onto one orbit, so the constant is the largest
    orbit class and the witness realigns that class onto its first point.
    Odometer truncations identify shifts modulo the cycle length, so the
    verdict there is only bounded-search.
    """
    points = _point_list(system, F)
    if not points:
        raise EmptyInput("smallness needs a non-empty finite set")
    if isinstance(system, Odometer):
        K = system.resolution
        if search_depth < K:
            raise SearchExhausted(
                "cycle length %d exceeds search depth %d" % (K, search_depth)
            )
        base = points[0]
        witness = tuple(sorted((base - i) % K for i in points))
        return SmallnessCertificate(
            constant=len(points),
            verdict="bounded-search",
            search_depth=K,
            witness=witness,
        )
    classes = _orbit_classes(system, points)
    best = max(classes, key=lambda c: len(c[1]))
    witness = tuple(sorted(-k for _, k in best[1]))
    return SmallnessCertificate(
        constant=len(best[1]),
        verdict="proven",
        search_depth=None,
        witness=witness,
    )


def union_smallness_bound(certs) -> int:
    total = 0
    for cert in certs:
        if cert.verdict != "proven":
            raise UnprovenInput("union bound needs proven certificates")
        total += cert.constant
    return total


def _translate_points(system, points, d):
    if isinstance(system, Odometer):
        K = system.resolution
        return {(p + d) % K for p in points}
    return {system.apply(p, d) for p in points}


def verify_smallness(system, F, cert):
    """Independent check: witness intersection non-empty, and no
    (constant+1)-family of translates meets within the shift window.

    On a truncated odometer, translation by e and by e + K coincide, so a
    bounded-search certificate there speaks about shifts distinct modulo
    the cycle length; the scan ranges over residues accordingly.
    """
    failures = []
    points = set(_point_list(system, F))
    if cert.witness:
        common = None
        for d in cert.witness:
            img = _translate_points(system, points, d)
            common = img if common is None else (common & img)
        if not common:
            failures.append("witness translates have empty intersection")
        if len(set(cert.witness)) != len(cert.witness):
            failures.append("witness shifts repeat")
        if len(cert.witness) > cert.constant:
            failures.append("witness larger than the constant")
    if isinstance(system, Odometer):
        scan = range(1, min(system.resolution, 2 * SHIFT_WINDOW + 1))
    else:
        scan = [e for e in range(-SHIFT_WINDOW, SHIFT_WINDOW + 1) if e]
    hits = [e for e in scan if points & _translate_points(system, points, e)]
    for combo in combinations([0] + hits, cert.constant + 1):
        common = None
        for d in combo:
            img = _translate_points(system, points, d)
            common = img if common is None else (common & img)
            if not common:
                break
        if common:
            failures.append("translates %r share a point" % (combo,))
            break
    return failures


# -- thin covers


def _hit_parts(system, U):
    """U split for orbit stepping: the open arcs of its interior, lifted as
    in `logical_arcs`, each as (a, b, p, alpha, q, beta) with its
    `three_gap` data, and the points of U outside those arcs (closed ends
    and isolated points).  The full circle is the arc (0, 1) plus 0."""
    if U.is_full:
        arcs, points = [(ZERO, ONE)], [ZERO]
    else:
        inner = U.interior()
        arcs = [(a, b) for a, b, _, _ in inner.logical_arcs()]
        points = [z for z, _, _, _ in U.minus(inner).pieces]
    return [(a, b) + three_gap(system, b - a) for a, b in arcs], points


class _ArcHits:
    """Hit times of one open arc (a, b) by the first-return map.

    A hit m sits at lifted y in (a, b); the next one is at m + p (y + alpha)
    if that stays below b, else at m + q (y - beta) if that stays above a,
    else at m + p + q (y + alpha - beta); stepping left is the mirror.
    `left` and `right` are the hits just outside the window (None until a
    scan has found the first hit), so growing the window only steps.
    """

    def __init__(self, a, b, p, alpha, q, beta):
        self.a, self.b = a, b
        self.p, self.alpha, self.q, self.beta = p, alpha, q, beta
        self.left = self.right = None

    def lift(self, x):
        """x in [0, 1) as a point of (a, b), or None outside the arc."""
        y = x if self.a < x else x + 1
        return y if y < self.b else None

    def step_right(self, m, y):
        if y + self.alpha < self.b:
            return m + self.p, y + self.alpha
        if self.a < y - self.beta:
            return m + self.q, y - self.beta
        return m + self.p + self.q, y + self.alpha - self.beta

    def step_left(self, m, y):
        if y + self.beta < self.b:
            return m - self.q, y + self.beta
        if self.a < y - self.alpha:
            return m - self.p, y - self.alpha
        return m - self.p - self.q, y - self.alpha + self.beta


class _OrbitHits:
    """Integers m with h^m(rep) inside U, over a growable window.

    Each arc of U's interior is stepped by its first-return map, and a
    point of U outside those arcs is hit only at its orbit shift from rep.
    Only an arc with no hit in the window yet is scanned, one orbit point
    at a time, and any p + q consecutive times hold a hit.

    nearest_free answers the least |m - k| unused hit, preferring the
    positive side on ties, exactly like scanning e = 0, +1, -1, ...
    and skipping collisions.
    """

    def __init__(self, system, rep, U, lo, hi, parts=None):
        arcs, points = parts or _hit_parts(system, U)
        self.rep = rep
        self.theta = system.theta
        self.arcs = [_ArcHits(*arc) for arc in arcs]
        shifts = (system.orbit_shift(rep, z) for z in points)
        self.point_hits = sorted(m for m in shifts if m is not None)
        self.lo = lo
        self.hi = lo - 1
        self.hits = []
        self.free = []
        self._grow_right(hi)

    # theta lies in [0, 1), so one step leaves x + theta in [0, 2) and
    # x - theta in (-1, 1): a single exact comparison wraps it, with no floor

    def _scan(self, arc, start, stop, step):
        """First (m, y) hit of arc from start towards stop (inclusive), or None."""
        theta = self.theta if step > 0 else -self.theta
        x = (self.rep + start * self.theta).frac()
        for m in range(start, stop + step, step):
            y = arc.lift(x)
            if y is not None:
                return m, y
            x = x + theta
            if x >= 1:
                x = x - 1
            elif x.sign() < 0:
                x = x + 1
        return None

    def _grow_right(self, new_hi):
        add = [m for m in self.point_hits if self.hi < m <= new_hi]
        for arc in self.arcs:
            if arc.right is None:
                first = self._scan(arc, self.hi + 1, new_hi, 1)
                if first is None:
                    continue
                arc.left, arc.right = arc.step_left(*first), first
            while arc.right[0] <= new_hi:
                add.append(arc.right[0])
                arc.right = arc.step_right(*arc.right)
        add.sort()
        self.hits.extend(add)
        self.free.extend([True] * len(add))
        self.hi = new_hi

    def _grow_left(self, new_lo):
        add = [m for m in self.point_hits if new_lo <= m < self.lo]
        for arc in self.arcs:
            if arc.left is None:
                first = self._scan(arc, self.lo - 1, new_lo, -1)
                if first is None:
                    continue
                arc.left, arc.right = first, arc.step_right(*first)
            while arc.left[0] >= new_lo:
                add.append(arc.left[0])
                arc.left = arc.step_left(*arc.left)
        add.sort()
        self.hits = add + self.hits
        self.free = [True] * len(add) + self.free
        self.lo = new_lo

    def nearest_free(self, k, depth):
        while True:
            best = None  # (distance, -is_right, index)
            i = bisect.bisect_left(self.hits, k)
            for j in range(i, len(self.hits)):
                if self.free[j]:
                    best = (self.hits[j] - k, 0, j)
                    break
            for j in range(min(i, len(self.hits)) - 1, -1, -1):
                if self.free[j]:
                    d = k - self.hits[j]
                    if best is None or d < best[0]:
                        best = (d, 1, j)
                    break
            span = max(k - self.lo, self.hi - k, 1)
            if best is not None and best[0] <= min(k - self.lo, self.hi - k):
                self.free[best[2]] = False
                return self.hits[best[2]]
            if span > depth:
                raise SearchExhausted(
                    "no free translate into the target within depth %d" % depth
                )
            self._grow_right(k + 2 * span)
            self._grow_left(k - 2 * span)


def _assign_targets(system, points, U, depth):
    """(target, shift) per point: distinct targets, minimal |shift| scans."""
    classes = _orbit_classes(system, points)
    parts = _hit_parts(system, U)
    lookup = {}
    scanners = []
    for ci, (rep, members) in enumerate(classes):
        ks = [k for _, k in members]
        lo, hi = min(ks) - 8, max(ks) + 8
        scanners.append(_OrbitHits(system, rep, U, lo, hi, parts))
        for p, k in members:
            lookup[p] = (ci, k)
    out = []
    for p in points:  # points arrive sorted: deterministic order
        ci, k = lookup[p]
        m = scanners[ci].nearest_free(k, depth)
        d = m - k
        target = system.apply(p, d)
        out.append((target, d))
    return out


def _target_gaps(targets, U):
    """Per target, a point of U, its circle distance to the complement of
    U (1 when U is the whole circle), and the least circle distance
    between two targets (None for fewer than two).

    One `dyadic_keys` call keys the targets and the ends of U's
    complement, which come sorted.  A target's nearest end is one of its
    two cyclic neighbours among them, found by bisection, and the least
    pairwise gap is between neighbours in key order.
    """
    ends = [] if U.is_full else [e for lo, hi, _, _ in U.complement().pieces for e in (lo, hi)]
    n = len(ends)
    keys = dyadic_keys(ends + list(targets))
    tkeys = keys[n:]
    gaps = []
    for t, key in zip(targets, tkeys):
        if not n:
            gaps.append(ONE)
            continue
        i = bisect.bisect_left(keys, key, 0, n)
        gaps.append(min(circle_norm(t - ends[i - 1]), circle_norm(t - ends[i % n])))
    pts = [targets[i] for i in sorted(range(len(targets)), key=tkeys.__getitem__)]
    if len(pts) < 2:
        return gaps, None
    return gaps, min([pts[0] + ONE - pts[-1]] + [b - a for a, b in zip(pts, pts[1:])])


def _plan(system, F, U, search_depth, kind, eps=None):
    """(points, targets, shifts, spans) for a cover of the finite set F
    pushed into U.  Each span is the least of its target's distance to U's
    complement, the least pairwise target gap and, given eps, eps/2n for n
    points, so open arcs of radius span/2 about the targets are disjoint
    and inside U.
    """
    if not isinstance(system, CircleRotation):
        raise MixedAmbient(kind + " are built over circle rotations")
    if U.is_empty:
        raise EmptyInput("target open set is empty")
    points = _point_list(system, F)
    if not points:
        return (), (), (), ()
    assigned = _assign_targets(system, points, U, search_depth)
    targets = tuple(t for t, _ in assigned)
    caps = [] if eps is None else [eps / (2 * len(points))]
    gaps, pair = _target_gaps(targets, U)
    if pair is not None:
        caps.append(pair)
    spans = tuple(min([g] + caps) for g in gaps)
    return points, targets, tuple(d for _, d in assigned), spans


def thin_cover(system, F, U, search_depth: int = DEFAULT_DEPTH) -> ThinCover:
    """Open cover of a finite set whose translates sit disjointly inside U.

    Each point x gets the least |d| with h^d(x) in U, skipping shifts whose
    target is already taken; the arc about x has radius span/4 (see
    `_plan`), and the neighborhood arc span/8, so closures stay disjoint.
    """
    points, _, shifts, spans = _plan(system, F, U, search_depth, "thin covers")
    opens = tuple(Region.interval(system, x - s / 4, x + s / 4, False, False)
                  for x, s in zip(points, spans))
    nbhd = union_many(system, [Region.interval(system, x - s / 8, x + s / 8, False, False)
                               for x, s in zip(points, spans)])
    return ThinCover(opens, shifts, nbhd)


def closed_thin_cover(system, F, U, search_depth: int = DEFAULT_DEPTH):
    """Closed shrunken version: closures of the thin neighborhood arcs, radius
    span/8 about each point, with the thin cover's shifts."""
    points, _, shifts, spans = _plan(system, F, U, search_depth, "thin covers")
    return [(Region.interval(system, x - s / 8, x + s / 8), d)
            for x, s, d in zip(points, spans, shifts)]


def _translated_failures(system, U, items, what):
    """The pieces of (piece, shift) items, translated, against U in one
    sweep: a failure per piece that leaves U, then one if any two overlap."""
    images = [translate_region(system, p, d) for p, d in items]
    disjoint, inside = disjoint_inside(system, images, U)
    failures = []
    if not inside:
        failures.extend("a translated %s piece leaves the target" % what
                        for img in images if not U.contains_region(img))
    if not disjoint:
        failures.append("translated %s pieces overlap" % what)
    return failures


def verify_thin_cover(system, F, U, cover):
    failures = []
    points = _point_list(system, F)
    if len(cover.opens) != len(points) or len(cover.shifts) != len(points):
        failures.append("cover size mismatch")
        return failures
    for x, open_j in zip(points, cover.opens):
        if not open_j.contains_point(x):
            failures.append("a point escapes its covering set")
    failures.extend(_translated_failures(system, U, zip(cover.opens, cover.shifts), "cover"))
    if points:
        if not union_many(system, list(cover.opens)).contains_region(cover.nbhd):
            failures.append("thin neighborhood escapes the cover")
        for x in points:
            if not cover.nbhd.contains_point(x):
                failures.append("thin neighborhood misses a point")
                break
    return failures


def verify_closed_thin_cover(system, F, U, items):
    failures = []
    points = _point_list(system, F)
    if points and not items:
        failures.append("empty cover for a non-empty set")
        return failures
    if items:
        covered = union_many(system, [Fj for Fj, _ in items])
        for x in points:
            if not covered.contains_point(x):
                failures.append("a point escapes the closed cover")
                break
        failures.extend(_translated_failures(system, U, items, "closed"))
    return failures


# -- leftover covers


def leftover_cover(system, F, U, eps, search_depth: int = DEFAULT_DEPTH) -> LeftoverCover:
    """Cover of a finite set with nested target neighborhoods and a PL
    partition that is exactly 1 on the pulled-back mid sets.

    Around each target t_j (found as in thin_cover) sit W_j > V_j > T_j,
    radii w, w/2, w/4 with w = span/2 (see `_plan`, capped at eps/2n), so
    the W_j are pairwise disjoint with total mass under eps; F_j is the arc
    of radius w/8 around the point x_j.  The bump of each pair (pullback of
    closure(V_j), pullback of W_j), arcs of radius w/2 and w around x_j, is
    `trapezoid(x_j, w)`, built with no region and with its corner offsets
    and slope worked out once per distinct width; the trapezoids enter a
    min-cascade, so the sum is exactly 1 on the union of the pulled-back
    closure(V_j).  The cover keeps x_j, t_j and w and builds its regions
    only when read.  It is not self-checked: callers run
    verify_leftover_cover, or verify_witness on the witness the cover ends
    up in.
    """
    eps = ExactScalar.coerce(eps)
    if eps.sign() <= 0:
        raise EmptyInput("epsilon must be positive")
    points, targets, shifts, spans = _plan(system, F, U, search_depth, "leftover covers", eps)
    shapes = {}  # span -> (width, trapezoid shape)
    for s in spans:
        if s not in shapes:
            w = s / 2
            shapes[s] = w, _trapezoid_shape(w)
    widths = tuple(shapes[s][0] for s in spans)
    fs = min_cascade(system, [_trapezoid_at(x, shapes[s][1]) for x, s in zip(points, spans)])
    return LeftoverCover(system, points, targets, widths, tuple(fs), shifts, eps)


def verify_leftover_cover(system, F, U, eps, cover):
    """The five conclusions, re-checked with region algebra and exact extrema.

    T_j, V_j and W_j are concentric arcs of radii w/4 < w/2 < w, so
    closure(T_j) inside V_j and closure(V_j) inside W_j hold whenever the
    arcs can be built; the pullback h^d(F_j), an arc of radius w/8 about
    h^d(x_j), lies in T_j iff its centre is closer than w/8 to t_j.  One
    sweep gives W inside U (clause 2) and the W_j pairwise disjoint (clause 5).
    """
    failures = []
    points = _point_list(system, F)
    n = len(cover.functions)
    if not points and n == 0:
        return failures
    closed, mids, opens = cover.closed, cover.mids, cover.opens
    covered = union_many(system, list(closed)) if closed else Region.empty(system)
    for x in points:
        if not covered.contains_point(x):
            failures.append("clause 1: a point escapes the closed cover")
            break
    disjoint, inside = disjoint_inside(system, list(opens), U)
    for x, t, w, d, W in zip(cover.points, cover.targets, cover.widths, cover.shifts, opens):
        if not circle_norm(system.apply(x, d) - t) < w / 8:
            failures.append("clause 2: pullback not inside T")
        if not (inside or U.contains_region(W)):
            failures.append("clause 2: W leaves the target")
    if n:
        total = sum_of(list(cover.functions))
        ones = union_many(
            system,
            [translate_region(system, V.closure(), -d)
             for V, d in zip(mids, cover.shifts)],
        )
        mn, mx = extrema_on(total, ones)
        if mn != ONE or mx != ONE:
            failures.append("clause 3: sum is not 1 on the pulled-back mids")
        for f, W, d in zip(cover.functions, opens, cover.shifts):
            sup = support_of(system, f)
            if not W.contains_region(translate_region(system, sup, d)):
                failures.append("clause 4: translated support leaves W")
        lo_ok = all(f.range_bounds()[0].sign() >= 0 for f in cover.functions)
        hi_ok = all((f.range_bounds()[1] - ONE).sign() <= 0 for f in cover.functions)
        if not (lo_ok and hi_ok):
            failures.append("clause 4: function range leaves [0, 1]")
    if opens:
        if not disjoint:
            failures.append("clause 5: W pieces overlap")
        mass = sum((W.measure() for W in opens), ZERO)
        if not mass < ExactScalar.coerce(eps):
            failures.append("clause 5: W mass reaches epsilon")
    return failures


# -- TSBP separations


def _boundary_cert(system, region):
    pts = region.boundary_points()
    if not pts:
        return SmallnessCertificate(1, "proven", None, ())
    return smallness_constant(system, Region.points(system, pts))


def _companion_arc(system, room, cap=None):
    """Open arc about the middle of room's first arc (the circle, if room is
    full), of radius an eighth of that arc's length or of cap if smaller."""
    a, b = (ZERO, ONE) if room.is_full else room.logical_arcs()[0][:2]
    q = b - a
    if cap is not None and cap < q:
        q = cap
    mid = (a + b) / 2
    return Region(system, [(mid - q / 8, mid + q / 8, False, False)])


def _tsbp_circle(system, F, K):
    if F.is_empty and K.is_empty:
        U = Region(system, [(ExactScalar.rational(1, 4), ExactScalar.rational(3, 8), False, False)])
        V = Region(system, [(ExactScalar.rational(5, 8), ExactScalar.rational(3, 4), False, False)])
        return U, V
    if K.is_empty:
        return _tsbp_circle(system, K, F)[::-1]
    if F.is_empty:
        room = K.closure().complement()
        if room.is_empty:
            raise NotDisjoint("nothing outside the sets to separate with")
        U = _companion_arc(system, room)
        m = region_gap(U.closure(), K) / 4
        return U, _widened(system, K.closure(), m)
    m = region_gap(F.closure(), K.closure()) / 4
    return _widened(system, F.closure(), m), _widened(system, K.closure(), m)


def _tsbp_torus(system, F, K):
    if F.is_empty or K.is_empty:
        raise EmptyInput("torus separation needs two non-empty box unions")
    caps = [(ONE - r.measure()) / 4 for box in F.boxes + K.boxes for r in box]
    margins = []
    for bf in F.boxes:
        for bk in K.boxes:
            best = max(region_gap(ra, rb) for ra, rb in zip(bf, bk))
            if best.sign() == 0:
                raise NotDisjoint("box pair cannot be separated on any axis")
            margins.append(best / 4)
    m = min(margins + [c for c in caps if c.sign() > 0])
    if m.sign() <= 0:
        raise NotDisjoint("boxes leave no room to grow")

    def extend(R):
        return BoxRegion._make(
            system, [tuple(_widened(r.system, r, m) for r in box) for box in R.boxes]
        )

    return extend(F), extend(K)


def _torus_boundary_cert(system, U):
    """Certificate for a box-union boundary on the torus.

    The boundary splits per axis into face cylinders grid_n x (other axes);
    translates of one cylinder share a point only when the axis-n grid
    translates do, so each cylinder is small with the grid's constant and
    the union is small with the sum (a common point of m+1 translates
    pigeonholes some axis past its grid constant).  A bounded window scan
    re-checks that no larger family meets.
    """
    per_axis = []
    for ax, factor in enumerate(system.factors):
        grid = {p for box in U.boxes for p in box[ax].boundary_points()}
        per_axis.append(smallness_constant(factor, Region.points(factor, grid)))
    constant = union_smallness_bound(per_axis)
    faces = U.boundary_region()
    moved = {e: faces.translate(e) for e in range(-FACE_WINDOW, FACE_WINDOW + 1)}
    hits = [e for e in moved if e and faces.intersects(moved[e])]
    pool = [0] + hits
    for combo in combinations(pool, constant + 1):
        current = moved[combo[0]]
        for e in combo[1:]:
            current = current.intersect(moved[e])
            if current.is_empty:
                break
        if not current.is_empty:
            raise RuntimeError("boundary smallness bound violated in-window")
    return SmallnessCertificate(constant, "proven", None, ())


def tsbp_separate(system, F, K):
    """Disjoint open fattenings with topologically small boundaries.

    Margins are a quarter of the exact gap; the certificate covers the
    boundary of the first output.
    """
    if F.intersects(K):
        raise NotDisjoint("the closed sets meet")
    if isinstance(system, Odometer):
        if F.is_empty and K.is_full:
            raise NotDisjoint("nothing outside the sets to separate with")
        return F, K, SmallnessCertificate(1, "proven", None, ())
    if isinstance(system, TorusRotation):
        separate, certify = _tsbp_torus, _torus_boundary_cert
    else:
        separate, certify = _tsbp_circle, _boundary_cert
    U, V = separate(system, F, K)
    if U.closure().intersects(V.closure()):
        raise RuntimeError("separation postcondition failed")
    return U, V, certify(system, U)


def tsbp_point_nbhd(system, x, U):
    """Small-boundary neighborhood V of x with closure(V) inside U."""
    if not isinstance(system, CircleRotation):
        raise MixedAmbient("point neighborhoods are built over circle rotations")
    x = ExactScalar.coerce(x).frac()
    if not U.contains_point(x):
        raise PointOutside("the point is not in the open set")
    if U.is_full:
        r = ExactScalar.rational(1, 8)
    else:
        r = arc_point_gap(x, U.complement()) / 2
    V = Region(system, [(x - r, x + r, False, False)])
    if not U.contains_region(V.closure()):
        raise RuntimeError("neighborhood postcondition failed")
    return V, _boundary_cert(system, V)


# -- measure-regular approximations


def regular_inner_approx(system, U, eps):
    """Open V with closure(V) inside U, boundary finite and certified,
    and mass of U minus closure(V) under eps, exactly."""
    eps = ExactScalar.coerce(eps)
    if U.is_empty:
        raise EmptyInput("cannot retract an empty open set")
    if eps.sign() <= 0:
        raise EmptyInput("epsilon must be positive")
    if U.is_full:
        quarter = eps / 4
        A = Region(system, [(ZERO - quarter, quarter, True, True)])
        V = U.minus(A)
    else:
        V = inner_approx(system, U, eps).interior()
    removed = U.minus(V.closure()).measure()
    if not removed < eps:
        raise RuntimeError("inner approximation misses its mass bound")
    if not U.contains_region(V.closure()):
        raise RuntimeError("inner approximation escapes the open set")
    return V, _boundary_cert(system, V)


def regular_outer_approx(system, F, U, eps):
    """Open V between F and U with certified finite boundary and
    mass of V minus F under eps, exactly."""
    eps = ExactScalar.coerce(eps)
    if eps.sign() <= 0:
        raise EmptyInput("epsilon must be positive")
    FC = F.closure()
    if not U.contains_region(FC):
        raise NotContained("the closed set leaves the open set")
    if FC.is_empty:
        if U.is_empty:
            raise NotContained("no room for a companion arc")
        V = _companion_arc(system, U, eps)
    else:
        pieces = ExactScalar.rational(len(FC.logical_arcs()))
        g = ONE if U.is_full else region_gap(FC, U.complement())
        V = _widened(system, FC, min(eps / pieces, g) / 4)
    added = V.minus(FC).measure()
    if not added < eps:
        raise RuntimeError("outer approximation misses its mass bound")
    if not U.contains_region(V.closure()):
        raise RuntimeError("outer approximation escapes the open set")
    if not V.contains_region(FC):
        raise RuntimeError("outer approximation lost the closed set")
    return V, _boundary_cert(system, V)
