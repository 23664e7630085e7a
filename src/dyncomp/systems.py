"""Dynamical systems: circle rotations, torus rotations, odometers.

Points are ExactScalars (circle), tuples of ExactScalars (torus), or digit
words (odometer, least significant digit first).  Every operation is exact.
"""

from __future__ import annotations

import math

from .errors import MixedAmbient, NonTerminationGuard
from .scalars import ExactScalar, HALF, ONE


def circle_norm(x: ExactScalar) -> ExactScalar:
    """Distance from x to the nearest integer."""
    f = x.frac()
    return f if f <= HALF else ONE - f


def _orbit_shift(system, p, q) -> int | None:
    """The unique k with h^k(p) = q, or None if p, q are on distinct
    orbits: their `orbit_key`s (o, j) share o exactly when they share an
    orbit, and then k is the difference of their j."""
    (o, j), (o2, j2) = system.orbit_key(p), system.orbit_key(q)
    return j2 - j if o == o2 else None


class CircleRotation:
    """Minimal rotation x -> x + theta (mod 1) by a quadratic irrational."""

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

    orbit_shift = _orbit_shift

    def orbit_key(self, p: ExactScalar) -> tuple:
        """(o, j) with h^j(o) = p, where o is one point for the whole orbit.

        Points of one orbit differ by k theta + n, so their sqrt(D) parts
        b/c differ by k theta.b/theta.c.  With j = floor((p.b/p.c) /
        (theta.b/theta.c)), p - j theta has a sqrt(D) part in one fixed
        interval of length |theta.b/theta.c|, so o = frac(p - j theta) is
        the same point for p and h^k(p), and j grows by k.  A point of
        another field is alone on its orbit among the scalars, so o = p.
        """
        p, th = ExactScalar.coerce(p), self.theta
        if p.b and p.D != th.D:
            return p.frac(), 0
        j = (p.b * th.c) // (p.c * th.b)
        return (p - th * j).frac(), j


class TorusRotation:
    """Product of circle rotations with angles from pairwise distinct fields.

    Distinct square-free D values make {1, theta_1, ..., theta_d} rationally
    independent, so the product rotation is minimal.
    """

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

    orbit_shift = _orbit_shift

    def orbit_key(self, p) -> tuple:
        """(o, j) with h^j(o) = p and o one key for the whole orbit: the
        factors' orbit keys and the differences of their j from the
        first's, which h^k leaves alone, with j the first factor's."""
        if len(p) != self.dim:
            raise MixedAmbient("point dimension mismatch")
        keys = [f.orbit_key(x) for f, x in zip(self.factors, p)]
        j = keys[0][1]
        return tuple(o for o, _ in keys) + tuple(i - j for _, i in keys[1:]), j


class Odometer:
    """Adding machine on a mixed-radix digit space, truncated at level n.

    At truncation level n the map permutes the K_n = k_1*...*k_n level-n
    cylinders cyclically (index -> index + 1 mod K_n), so all region algebra
    reduces to subsets of Z/K_n.
    """

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


def three_gap(system, L: ExactScalar):
    """(p, alpha, q, beta) for a circle rotation and a length 0 < L <= 1:
    p is the least n >= 1 with alpha = {n*theta} < L, and q the least n >= 1
    with beta = 1 - {n*theta} < L.

    By the three-gap theorem (Sos 1958; Slater 1967) the orbit returns to
    an open arc of length L after p, q or p + q steps, moving by +alpha,
    -beta or alpha - beta.  p and q are record times of {n*theta} from
    below and from above, and these records are the lower and upper ends of
    the Stern-Brocot descent to theta: from a at n_a and b at n_b, while
    a < b the upper records are b - t*a at n_b + t*n_a for t up to
    floor(b / a), and the mirror holds while b < a.  A whole run costs one
    exact division, so the search takes O(log 1/L) runs, not p + q steps.
    """
    theta = system.theta
    na, a, nb, b = 1, theta, 1, 1 - theta
    p = q = None
    while True:
        if p is None and a < L:
            p, alpha = na, a
        if q is None and b < L:
            q, beta = nb, b
        if p is not None and q is not None:
            return p, alpha, q, beta
        if a < b:
            if q is None:
                t = ((b - L) / a).floor() + 1
                if (b - t * a).sign() > 0:
                    q, beta = nb + t * na, b - t * a
            run = (b / a).floor()
            nb, b = nb + run * na, b - run * a
        else:
            if p is None:
                t = ((a - L) / b).floor() + 1
                if (a - t * b).sign() > 0:
                    p, alpha = na + t * nb, a - t * b
            run = (a / b).floor()
            na, a = na + run * nb, a - run * b
