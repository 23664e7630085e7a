"""Dynamical systems: circle rotations, torus rotations, odometers.

Points are ExactScalars (circle), tuples of ExactScalars (torus), or digit
words (odometer, least significant digit first).  Every operation is exact.
"""

from __future__ import annotations

import math

from .errors import MixedAmbient, NonTerminationGuard
from .scalars import ExactScalar, HALF


def circle_norm(x: ExactScalar) -> ExactScalar:
    """Distance from x to the nearest integer."""
    f = x.frac()
    return f if f <= HALF else ExactScalar(1) - f


class CircleRotation:
    """Minimal rotation x -> x + theta (mod 1) by a quadratic irrational."""

    kind = "rotation"

    def __init__(self, theta: ExactScalar):
        theta = ExactScalar.coerce(theta).frac()
        if theta.b == 0:
            raise ValueError("theta must be irrational")
        self.theta = theta
        self.D = theta.D

    def __eq__(self, other):
        return isinstance(other, CircleRotation) and self.theta == other.theta

    def __hash__(self):
        return hash(("rotation", self.theta))

    def __repr__(self):
        return f"CircleRotation(theta={self.theta})"

    def apply(self, point: ExactScalar, n: int = 1) -> ExactScalar:
        return (ExactScalar.coerce(point) + n * self.theta).frac()

    def orbit_shift(self, p: ExactScalar, q: ExactScalar) -> int | None:
        """The unique k with h^k(p) = q, or None if p, q are on distinct orbits.

        q - p = k*theta + n is decided by matching sqrt(D) coefficients: the
        candidate k is forced, then the rational parts must differ by an integer.
        """
        diff = ExactScalar.coerce(q).frac() - ExactScalar.coerce(p).frac()
        th = self.theta
        if diff.b == 0:
            k = 0
        else:
            if diff.D != th.D:
                return None
            # k * (th.b / th.c) = diff.b / diff.c
            num = diff.b * th.c
            den = diff.c * th.b
            if num % den != 0:
                return None
            k = num // den
        rem = diff - k * th
        if rem.b != 0:
            return None
        return k if rem.frac().sign() == 0 else None


class TorusRotation:
    """Product of circle rotations with angles from pairwise distinct fields.

    Distinct square-free D values make {1, theta_1, ..., theta_d} rationally
    independent, so the product rotation is minimal.
    """

    kind = "torus"

    def __init__(self, thetas):
        thetas = tuple(ExactScalar.coerce(t).frac() for t in thetas)
        if not thetas:
            raise ValueError("torus needs at least one coordinate")
        for t in thetas:
            if t.b == 0:
                raise ValueError("every angle must be irrational")
        ds = [t.D for t in thetas]
        if len(set(ds)) != len(ds):
            raise ValueError(
                "coordinate fields must be pairwise distinct for rational independence"
            )
        self.thetas = thetas
        self.dim = len(thetas)
        self.factors = tuple(CircleRotation(t) for t in thetas)

    def __eq__(self, other):
        return isinstance(other, TorusRotation) and self.thetas == other.thetas

    def __hash__(self):
        return hash(("torus", self.thetas))

    def __repr__(self):
        return f"TorusRotation(thetas={list(self.thetas)})"

    def apply(self, point, n: int = 1):
        if len(point) != self.dim:
            raise MixedAmbient("point dimension mismatch")
        return tuple((ExactScalar.coerce(x) + n * t).frac() for x, t in zip(point, self.thetas))

    def orbit_shift(self, p, q) -> int | None:
        ks = set()
        for f, a, b in zip(self.factors, p, q):
            k = f.orbit_shift(a, b)
            if k is None:
                return None
            ks.add(k)
        return ks.pop() if len(ks) == 1 else None


class Odometer:
    """Adding machine on a mixed-radix digit space, truncated at level n.

    At truncation level n the map permutes the K_n = k_1*...*k_n level-n
    cylinders cyclically (index -> index + 1 mod K_n), so all region algebra
    reduces to subsets of Z/K_n.
    """

    kind = "odometer"

    def __init__(self, bases, truncation: int | None = None):
        bases = tuple(int(k) for k in bases)
        if not bases or any(k < 2 for k in bases):
            raise ValueError("bases must be integers >= 2")
        if truncation is None:
            truncation = len(bases)
        if not 1 <= truncation <= len(bases):
            raise ValueError("truncation level out of range")
        self.bases = bases
        self.truncation = truncation
        self.resolution = math.prod(bases[:truncation])

    def __eq__(self, other):
        return (
            isinstance(other, Odometer)
            and self.bases == other.bases
            and self.truncation == other.truncation
        )

    def __hash__(self):
        return hash(("odometer", self.bases, self.truncation))

    def __repr__(self):
        return f"Odometer(bases={list(self.bases)}, truncation={self.truncation})"

    def word_to_index(self, word) -> int:
        if len(word) != self.truncation:
            raise ValueError("digit word length must equal the truncation level")
        idx = 0
        weight = 1
        for digit, base in zip(word, self.bases):
            if not 0 <= digit < base:
                raise ValueError("digit out of range")
            idx += digit * weight
            weight *= base
        return idx

    def index_to_word(self, idx: int):
        idx %= self.resolution
        word = []
        for base in self.bases[: self.truncation]:
            word.append(idx % base)
            idx //= base
        return tuple(word)

    def apply(self, word, n: int = 1):
        return self.index_to_word(self.word_to_index(word) + n)


def min_orbit_gap(system, N: int) -> ExactScalar:
    """Exact separation scale: any closed region of diameter below the returned
    value has N+1 pairwise disjoint iterates under h^0..h^N."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if isinstance(system, CircleRotation):
        # min ||n*theta|| over 1 <= n <= N is ||q_k*theta|| for the largest
        # continued-fraction denominator q_k <= N, since no n < q_(k+1) comes
        # closer to an integer than q_k does (best approximation, Lagrange)
        x, q_prev, q = system.theta, 0, 1
        while True:
            x = 1 / x
            a = x.floor()
            x = x - a
            if a * q + q_prev > N:
                return circle_norm(q * system.theta)
            q_prev, q = q, a * q + q_prev
    if isinstance(system, TorusRotation):
        return min(min_orbit_gap(f, N) for f in system.factors)
    if isinstance(system, Odometer):
        k = 1
        for level in range(1, system.truncation + 1):
            k *= system.bases[level - 1]
            if k > N:
                return ExactScalar(1, 0, k)
        raise NonTerminationGuard(
            f"truncation level {system.truncation} too coarse to separate {N + 1} iterates"
        )
    raise MixedAmbient(f"unsupported system {system!r}")
