"""Dyadic keys, and the code that orders by them, against the
comparison-based oracles in keyed_oracle.py and witness_oracle.py."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import keyed_oracle
import witness_oracle
from dyncomp import cli, smallness, towers
from dyncomp.certfile import CertificateFile, emit_certfile
from dyncomp.comparison import (
    ComparisonProvenance,
    ComparisonWitness,
    dynamic_comparison,
    verify_witness,
)
from dyncomp.errors import MixedAmbient
from dyncomp.plfun import PLFunction, scale, trapezoid
from dyncomp.regions import Region
from dyncomp.scalars import ONE, ZERO, ExactScalar, dyadic_keys
from dyncomp.specfile import parse_specfile, region_hash
from dyncomp.systems import CircleRotation, TorusRotation, min_orbit_gap

R = ExactScalar.rational
THETAS = {2: ExactScalar(-1, 1, 1, 2), 5: ExactScalar(-1, 1, 2, 5), 13: ExactScalar(-3, 1, 2, 13)}


def sign(n):
    return (n > 0) - (n < 0)


# -- the key


def near_neighbours(D, m, q):
    """frac(m theta) for the field D, its neighbours p/q and (p + 1)/q, and
    the points 1/(10^18 + 9) either side of it."""
    x = (THETAS[D] * m).frac()
    p = (x * q).floor()
    eps = R(1, 10**18 + 9)
    return [x, R(p, q), R(p + 1, q), x + eps, x - eps]


@st.composite
def key_lists(draw):
    D = draw(st.sampled_from([1, 2, 5, 13]))
    big = st.integers(-10**12, 10**12)
    xs = [ZERO, ONE, R(-1), R(-3, 2)]
    for _ in range(draw(st.integers(0, 6))):
        b = draw(big) if D > 1 else 0
        xs.append(ExactScalar(draw(big), b, draw(st.integers(1, 10**12)), D))
    if D > 1:
        m = draw(st.integers(-10**4, 10**4))
        q = draw(st.integers(2, 2**61 - 1))
        xs += near_neighbours(D, m, q) + [-x for x in near_neighbours(D, m, q)]
    xs += [xs[draw(st.integers(0, len(xs) - 1))]]  # one value twice
    return draw(st.permutations(xs))


@settings(max_examples=300, deadline=None)
@given(key_lists())
def test_keys_order_exactly_as_comparisons(xs):
    keys = dyadic_keys(xs)
    for x, kx in zip(xs, keys):
        for y, ky in zip(xs, keys):
            assert sign(kx - ky) == x._cmp(y)
    scale = keys[xs.index(ONE)]  # 2^k
    assert scale & (scale - 1) == 0
    assert keys == [(x * scale).floor() for x in xs]


def convergent(D, size):
    """The first convergent p/q of sqrt(D) with q above size."""
    a0 = math.isqrt(D)
    m, d, a = 0, 1, a0
    p0, p, q0, q = 1, a0, 0, 1
    while q <= size:
        m = d * a - m
        d = (D - m * m) // d
        a = (a0 + m) // d
        p0, p = p, a * p + p0
        q0, q = q, a * q + q0
    return p, q


def test_keys_split_the_closest_pairs_the_bound_allows():
    """x1 - x2 = (p - q sqrt(D))/(c1 c2) for a convergent p/q of sqrt(D)
    and c1, c2 near gamma = 2^40: |p - q sqrt(D)| < 1/q, and the numerators
    are near alpha = p/gamma, so the values are about 1/(alpha gamma^3)
    apart, as close as the bound on k allows up to constant factors."""
    for D in (2, 5, 13):
        p, q = convergent(D, 2**100)
        c1, c2 = 2**40 + 1, 2**40
        a1 = p * pow(c2, -1, c1) % c1
        b1 = -q * pow(c2, -1, c1) % c1
        x1 = ExactScalar(a1, b1, c1, D)
        x2 = ExactScalar((a1 * c2 - p) // c1, (b1 * c2 + q) // c1, c2, D)
        assert (x1 - x2) * (c1 * c2) == ExactScalar(p, -q, 1, D)
        keys = dyadic_keys([x1, x2])
        assert sign(keys[0] - keys[1]) == x1._cmp(x2) != 0


def test_keys_of_known_values():
    assert dyadic_keys([]) == []
    keys = dyadic_keys([ZERO, ONE, R(1, 2), R(-1, 3)])
    k = (keys[1]).bit_length() - 1
    assert keys == [0, 1 << k, 1 << (k - 1), -((1 << k) // 3) - 1]
    # the golden theta is 0.618..., above 5/9 and below 13/21
    keys = dyadic_keys([R(5, 9), THETAS[5], R(13, 21)])
    assert keys == sorted(keys) and len(set(keys)) == 3


def test_keys_refuse_two_fields():
    with pytest.raises(ValueError, match="incompatible quadratic fields D=5, D=2"):
        dyadic_keys([R(1, 3), THETAS[5], R(1, 7), THETAS[2]])
    # a rational is at home in every field
    assert len(dyadic_keys([R(1, 3), THETAS[13]])) == 2


# -- orbit classes


@st.composite
def orbit_point_sets(draw):
    """(system, distinct points): rational points, points of another
    field, orbit points frac(m theta + r/7) mixed with rationals, or torus
    points whose coordinates share an m or not."""
    kind = draw(st.sampled_from(["rational", "foreign", "orbit", "torus"]))
    D = draw(st.sampled_from([2, 5, 13]))
    n = draw(st.integers(1, 24))
    ms = st.integers(-40, 40)
    sevenths = st.integers(0, 6)
    if kind == "torus":
        E = draw(st.sampled_from([d for d in (2, 5, 13) if d != D]))
        system = TorusRotation([THETAS[D], THETAS[E]])
        pts = set()
        for _ in range(n):
            m = draw(ms)
            m2 = m + draw(st.sampled_from([0, 0, 0, 1, -3]))
            pts.add(((system.thetas[0] * m + R(draw(sevenths), 7)).frac(),
                     (system.thetas[1] * m2 + R(draw(sevenths), 7)).frac()))
        return system, sorted(pts)
    system = CircleRotation(THETAS[D])
    pts = set()
    for _ in range(n):
        if kind == "orbit" and draw(st.booleans()):
            pts.add((system.theta * draw(ms) + R(draw(sevenths), 7)).frac())
        elif kind == "foreign" and draw(st.booleans()):
            digits = st.integers(1, 9)
            pts.add(ExactScalar(draw(ms), draw(digits), draw(digits), 3).frac())
        else:
            pts.add(R(draw(st.integers(0, 48)), 49))
    return system, sorted(pts, key=lambda p: (p.D, p.a, p.b, p.c))


@settings(max_examples=300, deadline=None)
@given(orbit_point_sets())
def test_keyed_orbit_classes_match_the_pairwise_scan(case):
    system, points = case
    assert smallness._orbit_classes(system, points) == keyed_oracle.orbit_classes(system, points)


@settings(max_examples=200, deadline=None)
@given(orbit_point_sets(), st.data())
def test_orbit_shift_matches_coefficient_matching(case, data):
    system, points = case
    p, q = data.draw(st.sampled_from(points)), data.draw(st.sampled_from(points))
    assert system.orbit_shift(p, q) == keyed_oracle.orbit_shift(system, p, q)


def test_orbit_key_names_the_shift():
    h = CircleRotation(THETAS[5])
    x = R(1, 7)
    o, j = h.orbit_key(h.apply(x, 12))
    assert h.apply(o, j) == h.apply(x, 12)
    assert h.orbit_key(x) == (o, j - 12)
    with pytest.raises(MixedAmbient):
        TorusRotation([THETAS[5], THETAS[2]]).orbit_key((x,))


# -- disjoint_base's chain


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 5, 13]), st.integers(1, 64),
       st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(99, 100), Fraction(1),
                        Fraction(101, 100), Fraction(3, 2), Fraction(2)]))
def test_centre_chain_matches_the_copy_sweep(D, N, ratio):
    system = CircleRotation(THETAS[D])
    diameter = min_orbit_gap(system, N) * R(ratio)
    expected = keyed_oracle.copies_disjoint(system, N, diameter)
    assert towers._centres_apart(system, N, diameter) == expected
    if ratio <= Fraction(1, 2):
        assert expected
    if ratio >= 1:
        assert not expected  # the closest two centres are the gap apart


# -- target gaps


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 5, 13]),
       st.lists(st.tuples(st.integers(0, 59), st.integers(1, 20)), min_size=0, max_size=4),
       st.randoms(use_true_random=False))
def test_target_gaps_match_the_scans(D, arcs, rnd):
    system = CircleRotation(THETAS[D])
    if arcs:
        U = Region(system, [(R(a, 60), R(a + w, 60), False, False) for a, w in arcs])
    else:
        U = Region.full(system)
    targets = [t for t in (system.apply(R(1, 3), m) for m in range(-30, 30))
               if U.contains_point(t)]
    rnd.shuffle(targets)
    gaps, pair = smallness._target_gaps(targets, U)
    assert gaps == keyed_oracle.target_gaps(targets, U)
    assert pair == keyed_oracle.least_gap(targets)


# -- the witness checker


def family(k):
    """The golden family rotated by k/40: C = [0, 1/5] and F = [0, 1/10]
    closed, U = E = (3/10, 3/5) open, each lifted so that it starts in
    [0, 1)."""
    arcs = {"C": (0, Fraction(1, 5)), "F": (0, Fraction(1, 10)),
            "U": (Fraction(3, 10), Fraction(3, 5)), "E": (Fraction(3, 10), Fraction(3, 5))}
    text = "system circle\nfield 5\ntheta -1 1 2\nend\n"
    for name, (lo, hi) in arcs.items():
        lo, hi = lo + Fraction(k, 40), hi + Fraction(k, 40)
        if lo >= 1:
            lo, hi = lo - 1, hi - 1
        kind = "closed" if name in "CF" else "open"
        text += "region %s\npiece %d/%d %d/%d %s %s\nend\n" % (
            name, lo.numerator, lo.denominator, hi.numerator, hi.denominator, kind, kind)
    return parse_specfile(text)


def nudged(f, j, dx, dv):
    """f with breakpoint j moved by dx and its value by dv."""
    bps = list(f.breakpoints)
    x, v = bps[j]
    bps[j] = x + dx, v + dv
    return PLFunction(bps)


def mutants(entries):
    """(name, entries) with one entry changed: its shift moved by +1 or
    -1, its largest value raised by 1/1000, its first abscissa moved by
    1/10^4, the entry dropped, or the entry twice; for the first, a middle
    and the last entry."""
    out = []
    for i in sorted({0, len(entries) // 2, len(entries) - 1}):
        f, d = entries[i]
        top = max(range(len(f.breakpoints)), key=lambda j: f.breakpoints[j][1])
        changed = {
            "shift+1": (f, d + 1),
            "shift-1": (f, d - 1),
            "value": (nudged(f, top, ZERO, R(1, 1000)), d),
        }
        xs = f._xs
        if len(xs) > 1 and xs[0] + R(1, 10**4) < xs[1]:
            changed["abscissa"] = (nudged(f, 0, R(1, 10**4), ZERO), d)
        for name, entry in changed.items():
            out.append(("%s@%d" % (name, i), entries[:i] + (entry,) + entries[i + 1:]))
        out.append(("dropped@%d" % i, entries[:i] + entries[i + 1:]))
        out.append(("twice@%d" % i, entries + (entries[i],)))
    return out


def lifted(region):
    return [(lo, hi) for lo, hi, _, _ in region.logical_arcs()]


@pytest.mark.parametrize("k", [0, 20, 36])
def test_keyed_checker_matches_the_region_oracle(k):
    start = time.perf_counter()
    spec = family(k)
    system = spec.system
    failed = set()
    for closed, opened in (("C", "U"), ("F", "U"), ("C", "E")):
        C, U = spec.region(closed), spec.region(opened)
        witness = dynamic_comparison(system, C, U)
        cases = [("built", witness.entries)] + mutants(witness.entries)
        for name, entries in cases:
            w = ComparisonWitness((C, U), entries, witness.provenance)
            report = verify_witness(system, C, U, w)
            assert report == keyed_oracle.verify_witness(system, C, U, w), (closed, opened, name)
            if name == "built" or name.endswith("@0"):  # the naive checker is slow
                cf = CertificateFile(1, "test", system, (), entries, ())
                verdicts = witness_oracle.check(emit_certfile(cf), lifted(C), lifted(U))
                assert verdicts == tuple(passed for _, passed in report.clauses), name
            failed.update(i for i, (_, passed) in enumerate(report.clauses) if not passed)
    assert failed == {0, 1, 2, 3}  # every clause is broken by some mutant
    assert time.perf_counter() - start < 20


@st.composite
def random_witnesses(draw):
    """(system, C, U, witness) with trapezoid entries about points r/60,
    scaled by 1, 2 or -1, and constants; C and U are unions of arcs."""
    system = CircleRotation(THETAS[draw(st.sampled_from([2, 5, 13]))])
    ends = st.tuples(st.integers(0, 59), st.integers(1, 30))
    entries = []
    for r, w, c, d in draw(st.lists(st.tuples(st.integers(0, 59), st.integers(1, 8),
                                              st.sampled_from([1, 1, 1, 2, -1, 0]),
                                              st.integers(-3, 3)), max_size=6)):
        f = trapezoid(R(r, 60), R(w, 16)) if c else PLFunction.constant(draw(st.integers(0, 1)))
        entries.append((scale(f, c) if c else f, d))
    C, U = (Region(system, [(R(a, 60), R(a + n, 60), closed, closed)
                            for a, n in draw(st.lists(ends, max_size=3))])
            for closed in (True, False))
    return system, C, U, ComparisonWitness((C, U), tuple(entries), ComparisonProvenance())


@settings(max_examples=200, deadline=None)
@given(random_witnesses())
def test_keyed_checker_matches_the_region_oracle_on_random_witnesses(case):
    system, C, U, witness = case
    expected = keyed_oracle.verify_witness(system, C, U, witness)
    assert verify_witness(system, C, U, witness) == expected


# -- hostile inputs through the CLI


GOLDEN_SPEC = """\
system circle
  field 5
  theta -1 1 2
  field 2
end
region C
  piece 0 0 1 1 0 5 closed closed
end
region U
  piece 3 0 10 6 0 10 open open
end
region V
  piece 3 0 10 0 1 2 open open
end
region W
  piece 0/1 0 1 8 closed closed
end
"""


def primes_above(n):
    n += 1
    while True:
        if n % 2 and all(n % f for f in range(3, int(n**0.5) + 1, 2)):
            yield n
        n += 1


def golden_cert(tmp_path, capsys):
    spec = tmp_path / "g.spec"
    spec.write_text(GOLDEN_SPEC)
    cert = tmp_path / "g.cert"
    assert cli.run(["compare", "--spec", str(spec), "--out", str(cert)]) == 0
    capsys.readouterr()
    return spec, cert.read_text()


def test_verify_is_fast_on_coprime_cubed_denominators(tmp_path, capsys):
    """Each entry's abscissae move by 1/p^3 for its own prime p > 10^6, so
    no two entries share a denominator: an lcm over the witness would hold
    every p^3, and keys per scalar do not."""
    spec, text = golden_cert(tmp_path, capsys)
    primes = primes_above(10**6)
    lines = []
    for line in text.splitlines():
        t = line.split()
        if t[0] == "shift":
            p3 = next(primes) ** 3
        elif t[0] == "bp":
            a, b, c = map(int, t[1:4])
            line = " ".join(["bp", str(a * p3 + c), str(b * p3), str(c * p3)] + t[4:])
        lines.append(line)
    bad = tmp_path / "bad.cert"
    bad.write_text("\n".join(lines) + "\n")
    start = time.perf_counter()
    assert cli.run(["verify", "--spec", str(spec), "--cert", str(bad)]) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out.splitlines()[1] == "verdict fail sums to 1 on the closed set"


@pytest.mark.parametrize("name, new, message", [
    ("U", "V", "incompatible quadratic fields D=5, D=2"),
    ("C", "W", "incompatible quadratic fields D=2, D=5"),
])
def test_verify_refuses_a_region_of_another_field(tmp_path, capsys, name, new, message):
    """The certificate names a sqrt(2) region of the spec in place of C or
    U; verify ends in exit 1 with the field message."""
    spec, text = golden_cert(tmp_path, capsys)
    region = parse_specfile(GOLDEN_SPEC).region(new)
    lines = [("input %s %s" % (new, region_hash(region)) if ln.startswith("input %s " % name)
              else ln) for ln in text.splitlines()]
    cert = tmp_path / "mixed.cert"
    cert.write_text("\n".join(lines) + "\n")
    assert cli.run(["verify", "--spec", str(spec), "--cert", str(cert)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: %s\n" % message
