import pytest
from hypothesis import given, settings, strategies as st

from dyncomp.scalars import HALF, ExactScalar, golden_theta
from dyncomp.systems import CircleRotation, Odometer, TorusRotation, min_orbit_gap


def golden():
    return CircleRotation(golden_theta())


def test_rotation_apply():
    h = golden()
    th = h.theta
    x = ExactScalar(0)
    assert h.apply(x, 1) == th
    assert h.apply(x, 2) == (2 * th).frac()
    assert h.apply(h.apply(x, 3), -3) == x


def test_rotation_requires_irrational():
    with pytest.raises(ValueError):
        CircleRotation(ExactScalar(1, 0, 3))


def test_min_orbit_gap_golden():
    h = golden()
    # ||theta|| = 1 - theta = (3 - sqrt5)/2
    assert min_orbit_gap(h, 1) == ExactScalar(3, -1, 2, 5)
    # min(||theta||, ||2 theta||) = 2 theta - 1 = sqrt5 - 2
    assert min_orbit_gap(h, 2) == ExactScalar(-2, 1, 1, 5)


def min_gap_by_orbit_walk(h, N):
    """min ||n*theta|| over 1 <= n <= N, one orbit point at a time."""
    pos, best = ExactScalar(0), None
    for _ in range(N):
        pos = (pos + h.theta).frac()
        g = pos if pos <= HALF else 1 - pos
        if best is None or g < best:
            best = g
    return best


# angles in Q(sqrt 2), Q(sqrt 5), Q(sqrt 13) and Q(sqrt 3), on either side of 1/2
THETAS = (
    ExactScalar(-1, 1, 1, 2),
    golden_theta(),
    ExactScalar(-3, 1, 2, 13),
    ExactScalar(1, 1, 7, 3),
    ExactScalar(5, -1, 3, 7),
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(THETAS), st.integers(1, 400))
def test_min_orbit_gap_matches_orbit_walk(theta, N):
    h = CircleRotation(theta)
    assert repr(min_orbit_gap(h, N)) == repr(min_gap_by_orbit_walk(h, N))


def test_orbit_shift():
    h = golden()
    x = ExactScalar(1, 0, 3)
    y = h.apply(x, 7)
    assert h.orbit_shift(x, y) == 7
    assert h.orbit_shift(y, x) == -7
    assert h.orbit_shift(x, x) == 0
    # 1/3 is not on the orbit of 0
    assert h.orbit_shift(ExactScalar(0), ExactScalar(1, 0, 3)) is None


def test_torus_requires_distinct_fields():
    t2 = ExactScalar(0, 1, 2, 2)
    t3 = ExactScalar(0, 1, 3, 3)
    T = TorusRotation([t2, t3])
    assert T.dim == 2
    with pytest.raises(ValueError):
        TorusRotation([t2, ExactScalar(0, 1, 3, 2)])
    p = (ExactScalar(0), ExactScalar(0))
    q = T.apply(p, 5)
    assert T.orbit_shift(p, q) == 5
    assert T.orbit_shift(p, (ExactScalar(1, 0, 2), ExactScalar(0))) is None


def test_odometer_carry():
    od = Odometer([2, 2, 2])
    assert od.resolution == 8
    # 111 + 1 carries across all three digits
    assert od.apply((1, 1, 1), 1) == (0, 0, 0)
    assert od.apply((0, 0, 0), 3) == (1, 1, 0)
    assert od.apply((0, 0, 0), 8) == (0, 0, 0)
    assert od.apply((0, 0, 0), -1) == (1, 1, 1)


def test_odometer_gap():
    od = Odometer([2, 3, 2])
    assert min_orbit_gap(od, 1) == ExactScalar(1, 0, 2)
    assert min_orbit_gap(od, 5) == ExactScalar(1, 0, 6)
    assert min_orbit_gap(od, 11) == ExactScalar(1, 0, 12)
    with pytest.raises(Exception):
        min_orbit_gap(od, 12)
