"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single `criterion N: PASS` line (visible with -s or in
failure output) and enforces its runtime budget.
"""

import dataclasses
import random
import time

from dyncomp import cli
from dyncomp.certfile import emit_certfile, make_certfile
from dyncomp.comparison import (
    birkhoff_certificate,
    clopen_comparison,
    dynamic_comparison,
    verify_certificate,
    verify_witness,
)
from dyncomp.plfun import (
    birkhoff_sum,
    extrema_on,
    global_extrema,
    integral,
    scale,
    support_of,
)
from dyncomp.regions import (
    BoxRegion,
    CylinderRegion,
    Region,
    inner_approx,
    outer_approx,
)
from dyncomp.scalars import ExactScalar, golden_theta, HALF, ONE, ZERO
from dyncomp.smallness import (
    distinct_sums_card,
    leftover_cover,
    regular_inner_approx,
    regular_outer_approx,
    smallness_constant,
    tsbp_separate,
    union_smallness_bound,
    verify_leftover_cover,
    verify_smallness,
)
from dyncomp.systems import CircleRotation, Odometer, TorusRotation
from dyncomp.towers import build_tower, disjoint_base, refine_tower

R = ExactScalar.rational
TH = golden_theta()
GOLDEN = CircleRotation(TH)


def closed_arc(a, b):
    return Region(GOLDEN, [(a, b, True, True)])


def open_arc(a, b):
    return Region(GOLDEN, [(a, b, False, False)])


def rand_open(rng, pieces=1, grid=96):
    cuts = sorted(rng.sample(range(1, grid), 2 * pieces))
    return Region(
        GOLDEN,
        [(R(cuts[2 * i], grid), R(cuts[2 * i + 1], grid), False, False) for i in range(pieces)],
    )


def rand_points(rng, n):
    pts = set()
    while len(pts) < n:
        base = R(rng.randrange(0, 64), 64)
        pts.add(GOLDEN.apply(base, rng.randrange(-5, 6)) if rng.random() < 0.5 else base)
    return sorted(pts)


def budget(start, seconds, label):
    elapsed = time.monotonic() - start
    assert elapsed < seconds, "%s took %.1fs, budget %ds" % (label, elapsed, seconds)
    return elapsed


def test_criterion_01_golden_tower_exact_and_integer_oracle():
    start = time.monotonic()
    tower = build_tower(GOLDEN, Region.interval(GOLDEN, ZERO, TH))
    one_minus = ONE - TH
    assert tower.columns == (
        (Region.interval(GOLDEN, one_minus, TH), 1),
        (Region.interval(GOLDEN, ZERO, one_minus), 2),
    )
    tower.verify()  # open levels disjoint, closed levels tile, Kac, exact

    counts = cli.integer_return_counts(TH, 10946)
    assert sorted(counts) == [1, 2]
    assert sum(k * c for k, c in counts.items()) == 10946
    assert cli.return_times_agree(GOLDEN, counts, 10946)
    elapsed = budget(start, 1, "criterion 1")
    print("criterion 1: PASS (exact golden tower, oracle q=10946, %.2fs)" % elapsed)


def test_criterion_02_refinement_against_random_partitions():
    start = time.monotonic()
    rng = random.Random(20)
    for _ in range(20):
        m = rng.randrange(2, 5)
        cuts = sorted(rng.sample(range(0, 96), rng.randrange(m, 9)))
        arcs = [
            (R(cuts[i], 96), R(cuts[(i + 1) % len(cuts)], 96) + (ONE if i + 1 == len(cuts) else ZERO))
            for i in range(len(cuts))
        ]
        owners = list(range(m)) + [rng.randrange(m) for _ in range(len(arcs) - m)]
        rng.shuffle(owners)
        parts = [
            Region(GOLDEN, [(lo, hi, True, True) for (lo, hi), o in zip(arcs, owners) if o == p])
            for p in range(m)
        ]
        tower = build_tower(GOLDEN, disjoint_base(GOLDEN, rng.randrange(3, 11)))
        refined = refine_tower(tower, parts)
        for _, _, level in refined.open_levels():
            if level.is_empty:
                continue
            assert sum(1 for p in parts if p.contains_region(level)) == 1
    elapsed = budget(start, 10, "criterion 2")
    print("criterion 2: PASS (20 partitions, every open level in exactly one part, %.2fs)" % elapsed)


def test_criterion_03_leftover_cover_random_instances():
    start = time.monotonic()
    rng = random.Random(30)
    for _ in range(20):
        F = rand_points(rng, rng.randrange(1, 6))
        U = rand_open(rng, pieces=rng.randrange(1, 3))
        eps = R(1, rng.randrange(10, 60))
        cover = leftover_cover(GOLDEN, F, U, eps)
        assert verify_leftover_cover(GOLDEN, F, U, eps, cover) == []
    elapsed = budget(start, 30, "criterion 3")
    print("criterion 3: PASS (20 leftover covers, five clauses exact, %.2fs)" % elapsed)


def test_criterion_04_birkhoff_certificate_and_float_oracle():
    start = time.monotonic()
    F = closed_arc(ZERO, R(1, 10))
    E = open_arc(R(3, 10), R(6, 10))
    cert = birkhoff_certificate(GOLDEN, F, E)  # sigma = integral(g) / 2
    assert cert.sigma == integral(GOLDEN, cert.g) * HALF
    assert verify_certificate(GOLDEN, cert, Ns=(cert.N1, cert.N1 + 1, 2 * cert.N1)) == []

    S0 = birkhoff_sum(GOLDEN, cert.g, cert.N0)
    _, _, argmin = global_extrema(S0)
    rng = random.Random(40)
    starts = [float(argmin)] + [rng.random() for _ in range(2000)]
    float_min = cli.float_birkhoff_min(GOLDEN, cert.g, cert.N0, starts)
    assert abs(float_min - float(cert.m0)) <= 1e-9
    assert float_min >= float(cert.sigma) - 1e-9
    elapsed = budget(start, 60, "criterion 4")
    print(
        "criterion 4: PASS (N0=%d N1=%d exact windows, float oracle within 1e-9, %.2fs)"
        % (cert.N0, cert.N1, elapsed)
    )


def test_criterion_05_dynamic_comparison_and_mutations():
    start = time.monotonic()
    C = closed_arc(ZERO, R(1, 5))
    U = open_arc(R(3, 10), R(6, 10))
    witness = dynamic_comparison(GOLDEN, C, U)
    report = verify_witness(GOLDEN, C, U, witness)
    assert report.ok

    CC = C.closure()
    entries = list(witness.entries)
    touching = [
        i for i, (f, _) in enumerate(entries) if extrema_on(f, CC)[1].sign() > 0
    ]
    supported = [
        i
        for i, (f, _) in enumerate(entries)
        if not support_of(GOLDEN, f).is_empty
    ]
    assert touching and supported
    three_halves = R(3, 2)

    rejected = 0
    for i in range(100):
        kind = i % 4
        mutated = list(entries)
        if kind == 0:  # scale an entry that is positive somewhere on C
            j = touching[(i // 4) % len(touching)]
            f, d = mutated[j]
            mutated[j] = (scale(f, three_halves), d)
        elif kind == 1:  # drop such an entry
            j = touching[(i // 4) % len(touching)]
            del mutated[j]
        elif kind == 2:  # push a shift forward: support leaves the open set
            j = supported[(i * 7) % len(supported)]
            f, d = mutated[j]
            mutated[j] = (f, d + 1)
        else:  # pull a shift backward
            j = supported[(i * 11) % len(supported)]
            f, d = mutated[j]
            mutated[j] = (f, d - 1)
        bad = dataclasses.replace(witness, entries=tuple(mutated))
        if not verify_witness(GOLDEN, C, U, bad).ok:
            rejected += 1
    assert rejected == 100
    elapsed = budget(start, 300, "criterion 5")
    print(
        "criterion 5: PASS (witness %d entries verified, 100/100 mutations rejected, %.2fs)"
        % (len(entries), elapsed)
    )


def test_criterion_06_clopen_comparison_random():
    start = time.monotonic()
    rng = random.Random(60)
    sizes = [8, 12, 24, 36, 48, 64, 96, 128, 256]
    trials = 0
    for t in range(500):
        K = 4096 if t % 100 == 99 else rng.choice(sizes)
        system = Odometer(cli._factor_bases(K))
        b_size = rng.randrange(2, min(K, 48) + 1)
        a_size = rng.randrange(1, b_size)
        a = sorted(rng.sample(range(K), a_size))
        b = sorted(rng.sample(range(K), b_size))
        A, B = CylinderRegion(system, a), CylinderRegion(system, b)
        witness = clopen_comparison(system, A, B)
        assert verify_witness(system, A, B, witness).ok
        assert cli._brute_clopen_feasible(K, a, b)
        trials += 1
    assert trials == 500
    elapsed = budget(start, 60, "criterion 6")
    print("criterion 6: PASS (500 clopen pairs, witness matches brute feasibility, %.2fs)" % elapsed)


def test_criterion_07_smallness_constants_and_sums():
    start = time.monotonic()
    c = smallness_constant(GOLDEN, Region.points(GOLDEN, [ZERO, R(1, 3)]))
    assert (c.constant, c.verdict) == (1, "proven")
    c = smallness_constant(GOLDEN, Region.points(GOLDEN, [ZERO, TH]))
    assert (c.constant, c.verdict) == (2, "proven")

    rng = random.Random(70)
    for _ in range(50):
        certs = []
        union_pts = set()
        for _ in range(rng.randrange(2, 5)):
            pts = rand_points(rng, rng.randrange(1, 4))
            union_pts.update(pts)
            certs.append(smallness_constant(GOLDEN, Region.points(GOLDEN, pts)))
        bound = union_smallness_bound(certs)
        assert bound == sum(cert.constant for cert in certs)
        true_c = smallness_constant(GOLDEN, Region.points(GOLDEN, sorted(union_pts)))
        assert true_c.constant <= bound

    for _ in range(1000):
        m = rng.randrange(1, 9)
        d = rng.sample(range(-500, 500), m)
        n = rng.sample(range(-50, 50), 2)
        assert distinct_sums_card(d, n) >= m + 1
    elapsed = budget(start, 10, "criterion 7")
    print("criterion 7: PASS (exact constants, 50 union bounds, 1000 sum tuples, %.2fs)" % elapsed)


def test_criterion_08_tsbp_separations():
    start = time.monotonic()
    rng = random.Random(80)
    for _ in range(20):
        cuts = sorted(rng.sample(range(0, 96), 4))
        F = closed_arc(R(cuts[0], 96), R(cuts[1], 96))
        K = closed_arc(R(cuts[2], 96), R(cuts[3], 96))
        U, V, cert = tsbp_separate(GOLDEN, F, K)
        assert U.contains_region(F) and V.contains_region(K)
        assert not U.closure().intersects(V.closure())
        bpts = Region.points(GOLDEN, U.boundary_points())
        assert verify_smallness(GOLDEN, bpts, cert) == []

    # angles drawn from three distinct quadratic fields
    axes = (ExactScalar(0, 1, 2, 2), ExactScalar(0, 1, 3, 3), ExactScalar(0, 1, 5, 5))
    for dim in (2, 3):
        torus = TorusRotation(list(axes[:dim]))
        for _ in range(15):
            cuts = sorted(rng.sample(range(0, 24), 4))
            f_box = []
            k_box = []
            for axis in range(dim):
                if axis == 0:
                    f_box.append((R(cuts[0], 24), R(cuts[1], 24), True, True))
                    k_box.append((R(cuts[2], 24), R(cuts[3], 24), True, True))
                else:
                    lo = rng.randrange(0, 20)
                    hi = rng.randrange(lo + 1, 24)
                    f_box.append((R(lo, 24), R(hi, 24), True, True))
                    k_box.append((R(lo, 24), R(hi, 24), True, True))
            F = BoxRegion(torus, [tuple(f_box)])
            K = BoxRegion(torus, [tuple(k_box)])
            U, V, cert = tsbp_separate(torus, F, K)
            assert not U.closure().intersects(V.closure())
            assert U.contains_point(tuple(lo for lo, _, _, _ in f_box))
            assert V.contains_point(tuple(hi for _, hi, _, _ in k_box))
            # one boundary unit per factor: the product certificate adds them
            assert (cert.constant, cert.verdict) == (dim, "proven")
    elapsed = budget(start, 30, "criterion 8")
    print("criterion 8: PASS (50 separations incl. tori d=2,3, closures disjoint, %.2fs)" % elapsed)


def test_criterion_09_approximation_suite():
    start = time.monotonic()
    rng = random.Random(90)
    for _ in range(100):
        eps = R(1, rng.randrange(5, 200))
        U = rand_open(rng, pieces=rng.randrange(1, 3))
        K = inner_approx(GOLDEN, U, eps)
        assert U.contains_region(K)
        assert U.measure() - K.measure() < eps

        F = K.closure() if rng.random() < 0.3 else Region.points(GOLDEN, rand_points(rng, 2))
        W = outer_approx(GOLDEN, F, eps)
        assert W.contains_region(F)
        assert W.measure() - F.measure() < eps

        V, cert = regular_inner_approx(GOLDEN, U, eps)
        assert U.contains_region(V.closure())
        assert U.minus(V.closure()).measure() < eps
        assert verify_smallness(GOLDEN, Region.points(GOLDEN, V.boundary_points()), cert) == []

        lo, hi, _, _ = U.logical_arcs()[0]
        step = (hi - lo) / R(5)
        F2 = Region(GOLDEN, [(lo + step, hi - step, True, True)])
        V2, cert2 = regular_outer_approx(GOLDEN, F2, U, eps)
        assert V2.contains_region(F2)
        assert U.contains_region(V2.closure())
        assert V2.minus(F2).measure() < eps
        assert verify_smallness(GOLDEN, Region.points(GOLDEN, V2.boundary_points()), cert2) == []
    elapsed = budget(start, 30, "criterion 9")
    print("criterion 9: PASS (100 random instances per approximation, exact bounds, %.2fs)" % elapsed)


def test_criterion_10_determinism():
    start = time.monotonic()
    C = closed_arc(ZERO, R(1, 8))
    U = open_arc(R(1, 4), R(1, 2))
    runs = []
    for _ in range(2):
        w = dynamic_comparison(GOLDEN, C, U)
        report = verify_witness(GOLDEN, C, U, w)
        cf = make_certfile(GOLDEN, (("C", C), ("U", U)), w, report)
        runs.append(emit_certfile(cf).encode("utf-8"))
    assert runs[0] == runs[1]

    certs = [
        birkhoff_certificate(GOLDEN, closed_arc(ZERO, R(1, 10)), open_arc(R(3, 10), R(6, 10)))
        for _ in range(2)
    ]
    assert certs[0] == certs[1]

    towers = [build_tower(GOLDEN, disjoint_base(GOLDEN, 8)) for _ in range(2)]
    assert towers[0] == towers[1]

    F = [ZERO, R(1, 10)]
    covers = [leftover_cover(GOLDEN, F, open_arc(R(1, 4), R(1, 2)), R(1, 20)) for _ in range(2)]
    assert covers[0] == covers[1]

    system = Odometer([2, 3, 2])
    A = CylinderRegion(system, [0, 5])
    B = CylinderRegion(system, [1, 2, 7])
    ws = [clopen_comparison(system, A, B) for _ in range(2)]
    assert ws[0] == ws[1]
    cfs = [
        emit_certfile(make_certfile(system, (("A", A), ("B", B)), w, verify_witness(system, A, B, w)))
        for w in ws
    ]
    assert cfs[0] == cfs[1]
    elapsed = budget(start, 120, "criterion 10")
    print("criterion 10: PASS (bit-identical certificates on re-runs, %.2fs)" % elapsed)
