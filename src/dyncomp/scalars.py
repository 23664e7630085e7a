"""Exact arithmetic in a real quadratic field Q(sqrt(D)).

Every coordinate handled by the library is an ExactScalar (a + b*sqrt(D))/c
with arbitrary-precision integers.  All comparisons reduce to integer sign
tests, so ordering, region algebra and extrema downstream are exact.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _squarefree(d: int) -> tuple[int, int]:
    """Return (s, d') with d = s^2 * d' and d' square-free."""
    s = 1
    f = 2
    while f * f <= d:
        while d % (f * f) == 0:
            d //= f * f
            s *= f
        f += 1
    return s, d


def _sign(n: int) -> int:
    return (n > 0) - (n < 0)


def _sign_surd(x: int, y: int, D: int) -> int:
    """Sign of x + y*sqrt(D) for integers x, y and a square-free D.

    D > 1 whenever y != 0; the value is then irrational, so x^2 - y^2 D is
    never zero.
    """
    if y == 0:
        return _sign(x)
    if x == 0:
        return _sign(y)
    if (x > 0) == (y > 0):
        return 1 if x > 0 else -1
    t = _sign(x * x - y * y * D)
    return t if x > 0 else -t


class ExactScalar:
    """(a + b*sqrt(D))/c with gcd(a, b, c) = 1, c > 0, D square-free.

    Pure rationals are normalized to b = 0, D = 1 so they mix freely with
    scalars from any field; two irrational operands must share D.

    Only the public constructor normalizes D: it accepts any D > 0 and
    factors it, moving the square part into b.  Results of arithmetic and
    of `coerce` skip that trial division, since their D is 1 or an
    operand's D, which is square-free already; `_reduced` only fixes the
    sign of c, divides out the gcd and resets D to 1 when b = 0, and `_new`
    stores fields that are in normal form as they stand.  Both paths give
    the same normal form, on which equality, hashing and the printed form
    (so stdout and certificate bytes) depend.
    """

    __slots__ = ("a", "b", "c", "D")

    def __init__(self, a: int, b: int = 0, c: int = 1, D: int = 1):
        if c == 0:
            raise ZeroDivisionError("scalar denominator is zero")
        if D <= 0:
            raise ValueError("D must be positive")
        if c < 0:
            a, b, c = -a, -b, -c
        if b != 0 and D != 1:
            s, d0 = _squarefree(D)
            b *= s
            D = d0
        if D == 1:
            a, b = a + b, 0
        if b == 0:
            D = 1
        g = math.gcd(math.gcd(a, b), c)
        if g > 1:
            a, b, c = a // g, b // g, c // g
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "D", D)

    def __setattr__(self, name, value):
        raise AttributeError("ExactScalar is immutable")

    @classmethod
    def rational(cls, p, q: int = 1) -> "ExactScalar":
        if isinstance(p, Fraction):
            return cls(p.numerator, 0, p.denominator * q)
        return cls(p, 0, q)

    @classmethod
    def coerce(cls, x) -> "ExactScalar":
        if isinstance(x, ExactScalar):
            return x
        if isinstance(x, int):
            return _new(int(x), 0, 1, 1)  # int() turns a bool into 0 or 1
        if isinstance(x, Fraction):
            return _new(x.numerator, 0, x.denominator, 1)
        raise TypeError(f"cannot coerce {type(x).__name__} to ExactScalar")

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError("irrational scalar has no Fraction form")
        return Fraction(self.a, self.c)

    def _join(self, other: "ExactScalar") -> int:
        """Common D for a binary operation; mixing two fields is an error."""
        if self.b == 0:
            return other.D
        if other.b == 0:
            return self.D
        if self.D != other.D:
            raise ValueError(f"incompatible quadratic fields D={self.D}, D={other.D}")
        return self.D

    def sign(self) -> int:
        """Sign of the value, decided by integer arithmetic only."""
        return _sign_surd(self.a, self.b, self.D)

    def _cmp(self, other) -> int:
        """Sign of self - other, from integer cross-products; builds no scalar.

        With c1, c2 > 0 it is the sign of
        (a1*c2 - a2*c1) + (b1*c2 - b2*c1)*sqrt(D).
        """
        if other.__class__ is int:
            return _sign_surd(self.a - other * self.c, self.b, self.D)
        if other.__class__ is not ExactScalar:
            other = ExactScalar.coerce(other)
        c1, c2 = self.c, other.c
        if self.b == 0 and other.b == 0:
            return _sign(self.a * c2 - other.a * c1)
        return _sign_surd(
            self.a * c2 - other.a * c1, self.b * c2 - other.b * c1, self._join(other)
        )

    def cmp_int(self, n: int) -> int:
        """Sign of self - n for an integer n: one integer sign test, with
        no scalar built."""
        return _sign_surd(self.a - n * self.c, self.b, self.D)

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __eq__(self, other) -> bool:
        if other.__class__ is not ExactScalar:
            try:
                other = ExactScalar.coerce(other)
            except TypeError:
                return NotImplemented
        return (
            self.a == other.a and self.b == other.b and self.c == other.c and self.D == other.D
        )

    def __lt__(self, other) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other) -> bool:
        return self._cmp(other) >= 0

    def __hash__(self):
        if self.b == 0:
            return hash(Fraction(self.a, self.c))
        return hash((self.a, self.b, self.c, self.D))

    def __neg__(self) -> "ExactScalar":
        # the negation of a normal form is a normal form
        return _new(-self.a, -self.b, self.c, self.D)

    def __abs__(self) -> "ExactScalar":
        return -self if self.sign() < 0 else self

    # Adding an integer n gives (a + n*c + b*sqrt(D))/c, and
    # gcd(a + n*c, b, c) = gcd(a, b, c) = 1, so the result is already normal.

    def __add__(self, other) -> "ExactScalar":
        if other.__class__ is int:
            return _new(self.a + other * self.c, self.b, self.c, self.D)
        if other.__class__ is not ExactScalar:
            other = ExactScalar.coerce(other)
        return _reduced(
            self.a * other.c + other.a * self.c,
            self.b * other.c + other.b * self.c,
            self.c * other.c,
            self._join(other),
        )

    __radd__ = __add__

    def __sub__(self, other) -> "ExactScalar":
        if other.__class__ is int:
            return _new(self.a - other * self.c, self.b, self.c, self.D)
        if other.__class__ is not ExactScalar:
            other = ExactScalar.coerce(other)
        return _reduced(
            self.a * other.c - other.a * self.c,
            self.b * other.c - other.b * self.c,
            self.c * other.c,
            self._join(other),
        )

    def __rsub__(self, other) -> "ExactScalar":
        return ExactScalar.coerce(other) - self

    def __mul__(self, other) -> "ExactScalar":
        if other.__class__ is not ExactScalar:
            other = ExactScalar.coerce(other)
        D = self._join(other)
        return _reduced(
            self.a * other.a + self.b * other.b * D,
            self.a * other.b + self.b * other.a,
            self.c * other.c,
            D,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ExactScalar":
        if other.__class__ is not ExactScalar:
            other = ExactScalar.coerce(other)
        if not other:
            raise ZeroDivisionError("division by zero scalar")
        D = self._join(other)
        # multiply by the conjugate: 1/((a+b*sqrt(D))/c) = c(a-b*sqrt(D))/(a^2-b^2 D)
        n = other.a * other.a - other.b * other.b * D
        return _reduced(
            (self.a * other.a - self.b * other.b * D) * other.c,
            (self.b * other.a - self.a * other.b) * other.c,
            self.c * n,
            D,
        )

    def __rtruediv__(self, other) -> "ExactScalar":
        return ExactScalar.coerce(other) / self

    def floor(self) -> int:
        """floor((a + b sqrt(D))/c) = floor(floor(a + b sqrt(D))/c), as c is
        a positive integer.  With s = isqrt(b^2 D), b sqrt(D) is irrational,
        so it lies strictly between s and s + 1 for b > 0, and between
        -s - 1 and -s for b < 0: the inner floor is a + s or a - s - 1."""
        a, b, c, D = self.a, self.b, self.c, self.D
        if b == 0:
            return a // c
        s = math.isqrt(b * b * D)
        return (a + s) // c if b > 0 else (a - s - 1) // c

    def frac(self) -> "ExactScalar":
        """Fractional part, the representative in [0, 1)."""
        return self - self.floor()

    def __float__(self) -> float:
        return (self.a + self.b * math.sqrt(self.D)) / self.c

    def __repr__(self) -> str:
        if self.b == 0:
            return f"ExactScalar({self.a}/{self.c})"
        return f"ExactScalar(({self.a}+{self.b}*sqrt({self.D}))/{self.c})"

    def __str__(self) -> str:
        if self.b == 0:
            return f"{self.a}/{self.c}"
        return f"({self.a}+{self.b}*sqrt({self.D}))/{self.c}"


_new_object = object.__new__
_set_a = ExactScalar.a.__set__
_set_b = ExactScalar.b.__set__
_set_c = ExactScalar.c.__set__
_set_D = ExactScalar.D.__set__


def _new(a: int, b: int, c: int, D: int) -> ExactScalar:
    """A scalar from fields that are already in normal form."""
    s = _new_object(ExactScalar)
    _set_a(s, a)
    _set_b(s, b)
    _set_c(s, c)
    _set_D(s, D)
    return s


def _reduced(a: int, b: int, c: int, D: int) -> ExactScalar:
    """Normal form of (a + b*sqrt(D))/c for c != 0 and a square-free D.

    D is 1 or an operand's square-free D, and D = 1 only with b = 0, so
    the factoring done by ExactScalar() would change nothing.
    """
    if c < 0:
        a, b, c = -a, -b, -c
    if b == 0:
        D = 1
    g = math.gcd(a, b, c)
    if g > 1:
        a, b, c = a // g, b // g, c // g
    return _new(a, b, c, D)


def dyadic_keys(xs) -> list:
    """The integer keys floor(x * 2^k) of scalars xs, with one k for them.

    With alpha the largest |a| or |b| and gamma the largest c among xs,
    k = 3 bits(gamma) + bits(alpha) + bits(D) + 1, so 2^k exceeds
    2 alpha gamma^3 (1 + sqrt(D)).  Two distinct values of Q(sqrt(D))
    differ by (A + B sqrt(D))/(c1 c2) with |A|, |B| <= 2 alpha gamma and
    |A + B sqrt(D)| |A - B sqrt(D)| = |A^2 - D B^2| >= 1, so by at least
    1/(2 alpha gamma^3 (1 + sqrt(D))) > 2^-k: the keys order exactly as the
    values do, and are equal only for equal values.  Each key is integer
    work on its own scalar: floor(y / c) = floor(floor(y) / c), and
    floor(b sqrt(D) 2^k) is isqrt(b^2 D 4^k), less 1 more when b < 0, as
    the root is irrational.  Keys of separate calls are not comparable.
    Irrational scalars of two fields raise.
    """
    fields = {x.D for x in xs if x.b}
    if len(fields) > 1:
        first = next(x.D for x in xs if x.b)
        other = next(x.D for x in xs if x.b and x.D != first)
        raise ValueError("incompatible quadratic fields D=%d, D=%d" % (first, other))
    D = fields.pop() if fields else 1
    alpha = max((max(abs(x.a), abs(x.b)) for x in xs), default=0)
    k = 3 * max((x.c for x in xs), default=1).bit_length() + alpha.bit_length()
    k += D.bit_length() + 1
    k2, isqrt = 2 * k, math.isqrt
    out = []
    for x in xs:
        a, b = x.a << k, x.b
        if b > 0:
            a += isqrt(b * b * D << k2)
        elif b:
            a -= isqrt(b * b * D << k2) + 1
        out.append(a // x.c)
    return out


class Lattice:
    """Scalars of one field Q(sqrt(D)) over one denominator L, as integer
    pairs: (A, B) stands for (A + B*sqrt(D))/L.

    L is the lcm of the denominators of the scalars put on it, so a sum of
    pairs is exact and order is one `_sign_surd` test on differences.  D
    is the field of the irrational scalars given (1 while all are
    rational); a scalar of another field raises.  `extend` gives a lattice
    with more denominators, on which an old pair is the pair times
    new.L // old.L.
    """

    __slots__ = ("L", "D")

    def __init__(self, scalars, L: int = 1, D: int = 1):
        for s in scalars:
            if s.b:
                if D == 1:
                    D = s.D
                elif s.D != D:
                    raise ValueError("incompatible quadratic fields D=%d, D=%d" % (s.D, D))
            L = L * s.c // math.gcd(L, s.c)
        self.L = L
        self.D = D

    def extend(self, scalars) -> "Lattice":
        return Lattice(scalars, self.L, self.D)

    def pair(self, x: ExactScalar) -> tuple:
        """(A, B) with x = (A + B*sqrt(D))/L; x must have been put on."""
        k = self.L // x.c
        return x.a * k, x.b * k

    def scalar(self, A: int, B: int) -> ExactScalar:
        return _reduced(A, B, self.L, self.D)


ZERO = ExactScalar(0)
ONE = ExactScalar(1)
HALF = ExactScalar(1, 0, 2)


def golden_theta() -> ExactScalar:
    """The angle (-1 + sqrt(5))/2 of the golden rotation."""
    return ExactScalar(-1, 1, 2, 5)
