import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcmaps.errors import DegenerateHintError, InvalidAxesError
from qcmaps.vecgeom import (
    fibonacci_sphere,
    frame_from_direction,
    planar_rotation,
    sphere_directions,
)


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
