"""The region-algebra leftover-cover check, kept as an oracle.

`verify_leftover_cover(system, F, U, eps, cover)` re-checks the five
conclusions of a leftover cover the way the library once did: clause 2
piece by piece with four region containments (the pulled-back closed arc
inside T_j, closure(T_j) inside V_j, closure(V_j) inside W_j, W_j inside
U), and clause 5's disjointness with its own sweep.  The check in
`dyncomp.smallness` must give the same failure list on every cover, or
raise the same exception.
"""

from dyncomp.plfun import extrema_on, sum_of, support_of
from dyncomp.regions import Region, pairwise_disjoint, translate_region, union_many
from dyncomp.scalars import ONE, ZERO, ExactScalar
from dyncomp.smallness import _point_list


def verify_leftover_cover(system, F, U, eps, cover):
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
    for Fj, T, V, W, d in zip(closed, cover.tighter, mids, opens, cover.shifts):
        img = translate_region(system, Fj, d)
        if not T.contains_region(img):
            failures.append("clause 2: pullback not inside T")
        if not V.contains_region(T.closure()):
            failures.append("clause 2: closure(T) not inside V")
        if not W.contains_region(V.closure()):
            failures.append("clause 2: closure(V) not inside W")
        if not U.contains_region(W):
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
        if not pairwise_disjoint(system, list(opens)):
            failures.append("clause 5: W pieces overlap")
        mass = ZERO
        for W in opens:
            mass = mass + W.measure()
        if not mass < ExactScalar.coerce(eps):
            failures.append("clause 5: W mass reaches epsilon")
    return failures
