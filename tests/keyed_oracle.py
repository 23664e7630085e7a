"""The comparison-based code that dyadic keys replaced, kept as oracles.

- `verify_witness` is the circle witness check by region algebra: ranges
  from `range_bounds`, the sum over C by `sum_of` and `extrema_on`, and every
  support built by `support_of`, moved by `translate_region` and swept
  with U by `disjoint_inside`.
- `orbit_shift` decides whether two points share an orbit by matching
  sqrt(D) coefficients, and `orbit_classes` groups points by scanning the
  classes found so far with it, one pair at a time.
- `copies_disjoint` builds the N + 1 translates of the closed arc of a
  diameter about 0 and sweeps them with `pairwise_disjoint`, the old
  postcondition of `disjoint_base`; `cylinder_copies_disjoint` does the
  same for an odometer base.
- `target_gaps` measures each target against every end of U's complement
  (`arc_point_gap`), and `least_gap` sorts the targets by comparison.

The library must agree with each of them, report strings and their order
included.
"""

from dyncomp.comparison import VerificationReport
from dyncomp.errors import MixedAmbient
from dyncomp.plfun import extrema_on, sum_of, support_of
from dyncomp.regions import (
    Region,
    arc_point_gap,
    disjoint_inside,
    pairwise_disjoint,
    translate_region,
)
from dyncomp.scalars import ONE, ZERO, ExactScalar
from dyncomp.systems import TorusRotation


def verify_witness(system, C, U, witness):
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
        fns = [f for f, _ in witness.entries]
        mn, mx = extrema_on(sum_of(fns), CC) if fns else (ZERO, ZERO)
        if mn != ONE or mx != ONE:
            part_ok = False
            failures.append("sum over the closed set spans [%s, %s]" % (mn, mx))
    translated = [translate_region(system, support_of(system, f), d)
                  for f, d in witness.entries]
    disj_ok, inside_ok = disjoint_inside(system, translated, U)
    if not disj_ok:
        failures.append("translated supports overlap")
    if not inside_ok:
        failures.extend("translated support %d leaves the open set" % i
                        for i, sup in enumerate(translated) if not U.contains_region(sup))
    clauses = (
        ("ranges within [0, 1]", ranges_ok),
        ("sums to 1 on the closed set", part_ok),
        ("translated supports pairwise disjoint", disj_ok),
        ("translated supports inside the open set", inside_ok),
    )
    return VerificationReport(clauses=clauses, failures=tuple(failures))


def orbit_shift(system, p, q):
    if isinstance(system, TorusRotation):
        if len(p) != system.dim or len(q) != system.dim:
            raise MixedAmbient("point dimension mismatch")
        ks = {orbit_shift(f, a, b) for f, a, b in zip(system.factors, p, q)}
        return ks.pop() if len(ks) == 1 else None
    # q - p = k theta + n: the sqrt(D) coefficients force k, and then the
    # rational parts must differ by an integer
    diff = ExactScalar.coerce(q).frac() - ExactScalar.coerce(p).frac()
    th = system.theta
    if diff.b == 0:
        k = 0
    else:
        if diff.D != th.D:
            return None
        num = diff.b * th.c
        den = diff.c * th.b
        if num % den != 0:
            return None
        k = num // den
    rem = diff - k * th
    if rem.b != 0:
        return None
    return k if rem.frac().sign() == 0 else None


def orbit_classes(system, points):
    classes = []
    for p in points:
        for rep, members in classes:
            k = orbit_shift(system, rep, p)
            if k is not None:
                members.append((p, k))
                break
        else:
            classes.append((p, [(p, 0)]))
    return classes


def copies_disjoint(system, N, diameter):
    half = diameter / 2
    copies = [Region(system, [(-half, half, True, True)])]
    for _ in range(N):
        copies.append(translate_region(system, copies[-1], 1))
    return pairwise_disjoint(system, copies)


def cylinder_copies_disjoint(system, Y, N):
    copies = [Y]
    for _ in range(N):
        copies.append(translate_region(system, copies[-1], 1))
    return pairwise_disjoint(system, copies)


def target_gaps(targets, U):
    if U.is_full:
        return [ONE] * len(targets)
    rest = U.complement()
    return [arc_point_gap(t, rest) for t in targets]


def least_gap(points):
    pts = sorted(points)
    if len(pts) < 2:
        return None
    best = None
    for a, b in zip(pts, pts[1:]):
        g = b - a
        if best is None or g < best:
            best = g
    wrap = pts[0] + ONE - pts[-1]
    if wrap < best:
        best = wrap
    return best
