import math
import random
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from dyncomp.scalars import ExactScalar, golden_theta


def mp(x, dps=60):
    with mpmath.workdps(dps):
        return (mpmath.mpf(x.a) + mpmath.mpf(x.b) * mpmath.sqrt(x.D)) / x.c


def test_canonical_form():
    s = ExactScalar(2, 4, 6, 5)
    assert (s.a, s.b, s.c, s.D) == (1, 2, 3, 5)
    # negative denominator flips signs
    s = ExactScalar(1, 1, -2, 5)
    assert (s.a, s.b, s.c) == (-1, -1, 2)
    # perfect square D folds into the rational part
    s = ExactScalar(1, 3, 2, 4)
    assert (s.a, s.b, s.c, s.D) == (7, 0, 2, 1)
    # square part of D is pulled into b
    s = ExactScalar(0, 1, 1, 8)
    assert (s.a, s.b, s.c, s.D) == (0, 2, 1, 2)
    # rationals are normalized to D = 1
    assert ExactScalar(3, 0, 6, 5).D == 1


def test_field_arithmetic():
    th = golden_theta()
    one = ExactScalar(1)
    # golden ratio identity: theta^2 = 1 - theta  (theta = (sqrt5 - 1)/2)
    assert th * th == one - th
    assert th + th == 2 * th
    assert (th / th) == one
    inv = one / th
    assert inv * th == one
    # 1/theta = theta + 1
    assert inv == th + one


def test_mixed_field_rejected():
    a = ExactScalar(0, 1, 1, 2)
    b = ExactScalar(0, 1, 1, 3)
    for op in (
        lambda: a + b,
        lambda: a - b,
        lambda: a * b,
        lambda: a / b,
        lambda: a < b,
        lambda: a <= b,
        lambda: a > b,
        lambda: a >= b,
    ):
        with pytest.raises(ValueError):
            op()
    # equality across fields is a plain answer, not an error
    assert a != b
    # rationals mix with anything
    assert (a + ExactScalar(1)).D == 2


def test_floor_frac():
    th = golden_theta()  # ~0.618
    assert th.floor() == 0
    assert (th + 5).floor() == 5
    assert (-th).floor() == -1
    assert (2 * th).floor() == 1
    f = (2 * th).frac()
    assert f == 2 * th - 1
    assert ExactScalar(-7, 0, 2).floor() == -4


def test_ordering_matches_high_precision_floats():
    rng = random.Random(0)
    ds = [2, 3, 5, 7, 13]
    pairs = []
    for _ in range(10**4):
        d = rng.choice(ds)
        x = ExactScalar(rng.randint(-50, 50), rng.randint(-50, 50), rng.randint(1, 50), d)
        y = ExactScalar(rng.randint(-50, 50), rng.randint(-50, 50), rng.randint(1, 50), d)
        pairs.append((x, y))
    for x, y in pairs:
        fx, fy = mp(x), mp(y)
        if x < y:
            assert fx < fy
        elif x > y:
            assert fx > fy
        else:
            assert abs(fx - fy) < mpmath.mpf("1e-40")


def test_floor_matches_high_precision_floats():
    rng = random.Random(1)
    for _ in range(2000):
        x = ExactScalar(rng.randint(-99, 99), rng.randint(-99, 99), rng.randint(1, 20), 5)
        assert x.floor() == int(mpmath.floor(mp(x)))
        fr = x.frac()
        assert 0 <= float(fr) < 1
        assert fr + x.floor() == x


def test_hash_consistency_with_rationals():
    assert hash(ExactScalar(1, 0, 2)) == hash(Fraction(1, 2))
    assert ExactScalar(1, 0, 2) == ExactScalar.coerce(Fraction(1, 2))
    s = {ExactScalar(1, 0, 2), ExactScalar(2, 0, 4)}
    assert len(s) == 1


# -- the arithmetic fast paths against the public constructor and sympy

FIELDS = (1, 2, 3, 5, 7, 13)  # D = 1 draws pure rationals
coeffs = st.integers(-10**6, 10**6)
denoms = st.integers(1, 10**4) | st.integers(-10**4, -1)


@st.composite
def same_field_pairs(draw):
    """Two scalars that may meet in one operation: a shared D, or a rational."""
    D = draw(st.sampled_from(FIELDS))

    def scalar():
        d = draw(st.sampled_from((1, D)))
        b = draw(coeffs) if d > 1 else 0
        return ExactScalar(draw(coeffs), b, draw(denoms), d)

    return scalar(), scalar()


def fields(x):
    return (x.a, x.b, x.c, x.D)


def sym(x):
    return (sympy.Integer(x.a) + sympy.Integer(x.b) * sympy.sqrt(x.D)) / x.c


def same_value(x, expr):
    return sympy.expand(sympy.radsimp(sym(x) - expr)) == 0


@settings(max_examples=300, deadline=None)
@given(same_field_pairs())
def test_arithmetic_results_are_in_public_normal_form(pair):
    x, y = pair
    a1, b1, c1 = x.a, x.b, x.c
    a2, b2, c2 = y.a, y.b, y.c
    D = x.D if x.b else y.D
    unreduced = {
        "+": (x + y, (a1 * c2 + a2 * c1, b1 * c2 + b2 * c1, c1 * c2, D), sym(x) + sym(y)),
        "-": (x - y, (a1 * c2 - a2 * c1, b1 * c2 - b2 * c1, c1 * c2, D), sym(x) - sym(y)),
        "*": (x * y, (a1 * a2 + b1 * b2 * D, a1 * b2 + a2 * b1, c1 * c2, D), sym(x) * sym(y)),
        "neg": (-x, (-a1, -b1, c1, x.D), -sym(x)),
    }
    if y:
        unreduced["/"] = (
            x / y,
            ((a1 * a2 - b1 * b2 * D) * c2, (a2 * b1 - a1 * b2) * c2, c1 * (a2 * a2 - b2 * b2 * D), D),
            sym(x) / sym(y),
        )
    for op, (got, ints, expr) in unreduced.items():
        assert fields(got) == fields(ExactScalar(*ints)), op
        assert same_value(got, expr), op


@settings(max_examples=300, deadline=None)
@given(coeffs, same_field_pairs())
def test_int_operands_are_coerced_to_public_normal_form(n, pair):
    x, _ = pair
    assert fields(ExactScalar.coerce(n)) == fields(ExactScalar(n))
    assert fields(x + n) == fields(n + x) == fields(x + ExactScalar(n))
    assert fields(x - n) == fields(x - ExactScalar(n))
    assert fields(n - x) == fields(ExactScalar(n) - x)
    assert (x < n) == (x < ExactScalar(n)) == bool(sym(x) < n)
    assert (n < x) == (ExactScalar(n) < x) == bool(n < sym(x))
    assert (x == n) == (x == ExactScalar(n))
    assert fields(n * x) == fields(ExactScalar(n) * x)
    if x:
        assert fields(n / x) == fields(ExactScalar(n) / x)


@settings(max_examples=300, deadline=None)
@given(same_field_pairs())
def test_order_equality_and_floor_match_sympy(pair):
    x, y = pair
    sx, sy = sym(x), sym(y)
    assert (x < y) == bool(sx < sy)
    assert (x <= y) == bool(sx <= sy)
    assert (x > y) == bool(sx > sy)
    assert (x >= y) == bool(sx >= sy)
    assert (x == y) == (sympy.expand(sx - sy) == 0)
    assert x.sign() == sympy.sign(sx)
    assert x.floor() == sympy.floor(sx)
    assert fields(x.frac()) == fields(x - x.floor())


# -- error paths of the comparison and arithmetic fast paths

def test_order_against_int_and_fraction():
    th = golden_theta()  # ~0.618
    assert th < 1 and 1 > th and th > 0 and 0 < th
    assert th <= 1 and th >= 0 and not th < 0
    assert Fraction(1, 2) < th < Fraction(5, 8)
    assert th > Fraction(1, 2) and Fraction(5, 8) > th
    assert ExactScalar(1, 0, 2) == Fraction(1, 2) and ExactScalar(3) == 3
    with pytest.raises(TypeError):
        _ = th < 0.5


def test_division_by_zero_scalar_raises():
    th = golden_theta()
    for zero in (ExactScalar(0), 0, Fraction(0), th - th):
        with pytest.raises(ZeroDivisionError):
            _ = th / zero
    with pytest.raises(ZeroDivisionError):
        _ = 1 / ExactScalar(0)


def _floor_by_bisection(a, b, c, D):
    """floor((a + b sqrt(D))/c) for c > 0 and a non-square D, by bisection
    on n with the exact test n <= x, that is n c - a <= b sqrt(D), decided
    on squares and signs of integers; Fraction brackets the start."""
    t = b * math.isqrt(b * b * D) // abs(b) if b else 0  # within 1 of b sqrt(D)
    lo = math.floor(Fraction(a + t, c)) - 2
    hi = lo + 5

    def at_most(n):
        y = n * c - a
        if b > 0:
            return y <= 0 or y * y < b * b * D
        return y < 0 and y * y > b * b * D

    while hi - lo > 1:
        mid = (lo + hi) // 2
        if at_most(mid):
            lo = mid
        else:
            hi = mid
    assert at_most(lo) and not at_most(lo + 1)
    return lo


@settings(max_examples=400, deadline=None)
@given(st.integers(-10**40, 10**40), st.integers(-10**30, 10**30).filter(bool),
       st.integers(1, 10**25), st.integers(2, 10**6).filter(lambda d: math.isqrt(d) ** 2 != d))
def test_floor_is_its_first_estimate(a, b, c, D):
    # floor((a + b sqrt(D))/c) = floor(floor(a + b sqrt(D))/c): the first
    # estimate needs no correction, for both signs of b and large values
    x = ExactScalar(a, b, c, D)
    assert x.floor() == _floor_by_bisection(x.a, x.b, x.c, x.D)
    assert x.floor() == _floor_by_bisection(a, b, c, D)
