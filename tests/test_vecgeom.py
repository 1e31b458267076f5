import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcmaps.errors import (
    AmbiguousArcError,
    DegenerateHintError,
    InvalidAxesError,
    InvalidInputError,
)
from qcmaps.vecgeom import (
    fibonacci_sphere,
    frame_from_direction,
    great_circle_angle,
    planar_rotation,
    sphere_directions,
    svd_small,
)


def _det3(m):
    # explicit cofactor expansion, independent of any linear-algebra routine
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _sym3_eigenvalues(a):
    """Characteristic-polynomial roots of a symmetric 3x3 matrix.

    Trigonometric solution of the depressed cubic; serves as the independent
    oracle for ``svd_small``.
    """
    q = np.trace(a) / 3.0
    b = a - q * np.eye(3)
    p2 = np.sum(b * b) / 6.0
    if p2 <= 0.0:
        return np.array([q, q, q])
    p = np.sqrt(p2)
    r = np.clip(_det3(b / p) / 2.0, -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    e1 = q + 2.0 * p * np.cos(phi)
    e3 = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    return np.sort(np.array([e1, 3.0 * q - e1 - e3, e3]))[::-1]


class TestSvdSmall:
    def test_diagonal(self):
        assert np.allclose(svd_small(np.diag([2.0, 1.0, 1.0])), [2.0, 1.0, 1.0])

    def test_identity(self):
        assert np.allclose(svd_small(np.eye(5)), np.ones(5))

    def test_against_characteristic_polynomial_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            m = rng.standard_normal((3, 3))
            expected = np.sqrt(np.maximum(_sym3_eigenvalues(m.T @ m), 0.0))
            got = svd_small(m)
            assert np.abs(got - expected).max() <= 1e-9 * max(1.0, expected[0])

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_product_matches_determinant(self, n):
        rng = np.random.default_rng(n)
        for _ in range(1000):
            m = rng.standard_normal((n, n))
            prod = np.prod(svd_small(m))
            det = abs(np.linalg.det(m))
            assert abs(prod - det) <= 1e-9 * max(det, 1e-30)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            svd_small([[1.0, np.nan], [0.0, 1.0]])


class TestFrames:
    def test_axis_gives_identity(self):
        assert np.allclose(frame_from_direction([1.0, 0, 0]), np.eye(3))

    def test_hint_example(self):
        # sigma = e2, hint = e1: Gram-Schmidt gives (e2, e1, e3); the
        # determinant fix flips the last column.
        f = frame_from_direction([0.0, 1, 0], hint=[1.0, 0, 0])
        expected = np.array([[0, 1, 0], [1, 0, 0], [0, 0, -1.0]]).T
        assert np.allclose(f, expected)

    def test_parallel_hint_rejected(self):
        with pytest.raises(DegenerateHintError):
            frame_from_direction([0.0, 0, 1], hint=[0.0, 0, -1])

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(-1, 1), min_size=4, max_size=4).filter(
            lambda v: np.linalg.norm(v) > 0.1
        ),
        st.lists(st.floats(-1, 1), min_size=4, max_size=4),
    )
    def test_orthogonal_and_oriented(self, sv, hv):
        sigma = np.array(sv) / np.linalg.norm(sv)
        hint = np.array(hv)
        perp = hint - (hint @ sigma) * sigma
        if np.linalg.norm(perp) <= 1e-6:
            hint = None
        f = frame_from_direction(sigma, hint)
        assert np.abs(f.T @ f - np.eye(4)).max() <= 1e-12
        assert abs(np.linalg.det(f) - 1.0) <= 1e-10
        assert np.allclose(f[:, 0], sigma)


class TestGreatCircle:
    def test_orthogonal_directions(self):
        assert great_circle_angle([1.0, 0, 0], [0.0, 1, 0]) == pytest.approx(np.pi / 2)

    def test_planar_rotation_by_construction(self):
        v = [np.cos(0.3), np.sin(0.3), 0.0]
        assert great_circle_angle([1.0, 0, 0], v) == pytest.approx(0.3, abs=1e-14)

    def test_antipodal_rejected(self):
        with pytest.raises(AmbiguousArcError):
            great_circle_angle([1.0, 0, 0], [-1.0, 0, 0])

    def test_coincident_rejected(self):
        with pytest.raises(InvalidInputError):
            great_circle_angle([1.0, 0, 0], [1.0, 0, 0])


class TestPlanarRotation:
    def test_zero_angle(self):
        assert np.allclose(planar_rotation(0.0, 0, 1, 4), np.eye(4))

    def test_quarter_turn(self):
        r = planar_rotation(np.pi / 2, 0, 1, 3)
        assert np.allclose(r @ [1.0, 0, 0], [0.0, 1, 0], atol=1e-15)

    def test_group_law(self):
        a, b = 0.7, -1.3
        lhs = planar_rotation(a, 0, 1, 5) @ planar_rotation(b, 0, 1, 5)
        assert np.abs(lhs - planar_rotation(a + b, 0, 1, 5)).max() <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(-10, 10),
        st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    )
    def test_norm_preserved(self, theta, v):
        r = planar_rotation(theta, 0, 2, 3)
        assert abs(np.linalg.norm(r @ v) - np.linalg.norm(v)) <= 1e-12 * max(
            1.0, np.linalg.norm(v)
        )

    def test_equal_axes_rejected(self):
        with pytest.raises(InvalidAxesError):
            planar_rotation(0.2, 1, 1, 3)


class TestDirections:
    def test_fibonacci_on_sphere(self):
        pts = fibonacci_sphere(500)
        assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() <= 1e-12

    def test_axes_included(self):
        dirs = sphere_directions(3, 64)
        for e in np.concatenate([np.eye(3), -np.eye(3)]):
            assert np.any(np.all(dirs == e, axis=1))
