from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_fundamental, last_axis_stretch
from qcmaps import kernels, zorich
from qcmaps.canonical_maps import stretch_shift_batch
from qcmaps.errors import OriginError, TransformUndefinedError

HALF_PI = np.pi / 2


def _conjugate(f, x):
    """Z^{-1}(f(Z(x))) on a batch of fundamental-set coordinates."""
    return kernels.zorich_inverse_batch(f(kernels.zorich_forward_batch(x)))


class TestSphereChart:
    # the cube chart is Z at height x_n = 0
    def test_center_goes_to_pole(self):
        assert np.allclose(kernels.zorich_forward_batch([0.0, 0.0, 0.0]), [0, 0, 1.0])

    def test_face_midpoint(self):
        # max-coordinate pi/2 puts the image on the equator along x
        y = kernels.zorich_forward_batch([HALF_PI, 0.0, 0.0])
        assert np.allclose(y, [1.0, 0, 0], atol=1e-12)

    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(-np.pi / 2, np.pi / 2, (2000, 4))
        y = kernels._chart(p.T, np.empty((2000, 5)))
        assert np.abs(np.linalg.norm(y, axis=1) - 1.0).max() <= 1e-12


class TestForward:
    def test_pole_scaling(self):
        y = kernels.zorich_forward_batch([0.0, 0.0, np.log(2.0)])
        assert np.allclose(y, [0, 0, 2.0])

    def test_face_point(self):
        y = kernels.zorich_forward_batch([HALF_PI, 0.0, 0.0])
        assert np.allclose(y, [1.0, 0, 0], atol=1e-12)

    def test_second_box_center(self):
        # reflected chart: evaluate at (pi - x1, ...) and flip the last output
        y = kernels.zorich_forward_batch([np.pi, 0.0, 0.0])
        assert np.allclose(y, [0, 0, -1.0], atol=1e-12)

    def test_radius_identity(self):
        rng = np.random.default_rng(1)
        x = zorich.sample_fundamental(rng, 5000, 4)
        z = kernels.zorich_forward_batch(x)
        rel = np.abs(np.linalg.norm(z, axis=1) / np.exp(x[:, -1]) - 1.0)
        assert rel.max() <= 1e-12


class TestInverse:
    def test_pole_at_radius_e(self):
        x = kernels.zorich_inverse_batch([0.0, 0.0, np.e])
        assert np.allclose(x, [0, 0, 1.0])

    def test_equator_point(self):
        x = kernels.zorich_inverse_batch([1.0, 0.0, 0.0])
        assert np.allclose(x, [HALF_PI, 0, 0])

    def test_origin_rejected(self):
        with pytest.raises(OriginError):
            kernels.zorich_inverse_batch([0.0, 0.0, 0.0])
        # a zero row among nonzero rows, and one among non-finite rows
        y = np.ones((5, 4))
        y[3] = 0.0
        with pytest.raises(OriginError):
            kernels.zorich_inverse_batch(y)
        y[1] = np.nan
        with pytest.raises(OriginError):
            kernels.zorich_inverse_batch(y)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_roundtrip(self, n):
        rng = np.random.default_rng(n)
        y = rng.standard_normal((10_000, n)) * np.exp(rng.uniform(-1, 1, (10_000, 1)))
        back = kernels.zorich_forward_batch(kernels.zorich_inverse_batch(y))
        rel = np.linalg.norm(back - y, axis=1) / np.linalg.norm(y, axis=1)
        assert rel.max() <= 1e-12

    def test_roundtrip_interior(self):
        rng = np.random.default_rng(9)
        x = zorich.sample_fundamental(rng, 5000, 3, second_box=False)
        x[:, :2] *= 0.98  # keep strictly interior to the first box
        back = kernels.zorich_inverse_batch(kernels.zorich_forward_batch(x))
        assert np.abs(back - x).max() <= 1e-12

    def test_roundtrip_second_box(self):
        rng = np.random.default_rng(10)
        x = zorich.sample_fundamental(rng, 5000, 4)
        x[:, 0] = rng.uniform(np.pi / 2 + 0.01, 3 * np.pi / 2 - 0.01, 5000)
        x[:, 1:-1] *= 0.98
        back = kernels.zorich_inverse_batch(kernels.zorich_forward_batch(x))
        assert np.abs(back - x).max() <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(-50, 50, allow_nan=False), min_size=3, max_size=5
        ).filter(lambda v: np.linalg.norm(v) > 1e-6)
    )
    def test_roundtrip_property(self, yv):
        y = np.array(yv)
        back = kernels.zorich_forward_batch(kernels.zorich_inverse_batch(y))
        assert np.linalg.norm(back - y) <= 1e-12 * np.linalg.norm(y)


class TestCanonicalize:
    def test_interior_unchanged(self):
        x = kernels.canonicalize_batch([0.3, -0.2, 1.1])
        assert np.array_equal(x, [0.3, -0.2, 1.1])
        assert_fundamental(x)
        assert x[0] <= HALF_PI  # first box

    def test_second_box_membership(self):
        x = kernels.canonicalize_batch([np.pi + 0.1, 0.0, 0.0])
        assert np.allclose(x, [np.pi + 0.1, 0, 0])
        assert_fundamental(x)
        assert x[0] > HALF_PI  # second box

    def test_wrapped_representative(self):
        x = np.array([2 * np.pi - 0.2, 0.0, 0.0])
        canon = kernels.canonicalize_batch(x)
        assert_fundamental(canon)
        img0 = kernels.zorich_forward_batch(x)
        assert np.abs(kernels.zorich_forward_batch(canon) - img0).max() <= 1e-12

    def test_invariance_random(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-9, 9, (10_000, 4))
        z1 = kernels.zorich_forward_batch(x)
        z2 = kernels.zorich_forward_batch(kernels.canonicalize_batch(x))
        assert np.abs(z1 - z2).max() <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-20, 20, allow_nan=False), min_size=3, max_size=4))
    def test_invariance_property(self, xv):
        x = np.array(xv)
        canon = kernels.canonicalize_batch(x)
        assert_fundamental(canon)
        scale = max(1.0, float(np.exp(x[-1])))
        gap = np.abs(kernels.zorich_forward_batch(canon) - kernels.zorich_forward_batch(x)).max()
        assert gap <= 1e-12 * scale


# chart coordinates on and beside the cube faces, at their reflections and
# 2 pi translates, on the fold seam pi and on the wrap seam 3 pi / 2
_FACES = [HALF_PI, -HALF_PI, 3 * HALF_PI, -3 * HALF_PI, 5 * HALF_PI, np.pi, -np.pi,
          0.0, np.nextafter(HALF_PI, 4.0), np.nextafter(-HALF_PI, -4.0),
          np.nextafter(HALF_PI, 0.0), np.nextafter(-HALF_PI, 0.0)]
_chart_values = st.one_of(
    st.sampled_from(_FACES),
    st.floats(HALF_PI, 3 * HALF_PI, exclude_min=True, exclude_max=True),
    st.floats(-9.0, 9.0),
)


@st.composite
def _batches(draw):
    """1 to 8 rows of n = 3..5 coordinates, the chart ones from _chart_values."""
    n = draw(st.integers(3, 5))
    m = draw(st.integers(1, 8))
    chart = draw(st.lists(_chart_values, min_size=m * (n - 1), max_size=m * (n - 1)))
    heights = draw(st.lists(st.floats(-3.0, 3.0), min_size=m, max_size=m))
    return np.column_stack([np.reshape(chart, (m, n - 1)), heights])


class TestFundamentalPoint:
    """``assert_fundamental`` holds the membership rules of the fundamental
    set; the canonical outputs of the kernels must satisfy it."""

    def test_rejects_outside(self):
        with pytest.raises(AssertionError):
            assert_fundamental(np.array([5.0, 0.0, 0.0]))

    def test_rejects_second_box_face(self):
        with pytest.raises(AssertionError):
            assert_fundamental(np.array([np.pi, HALF_PI, 0.0]))

    @settings(max_examples=300, deadline=None)
    @given(_batches())
    def test_canonical_outputs_are_members(self, x):
        assert_fundamental(kernels.canonicalize_batch(x))
        assert_fundamental(kernels.zorich_inverse_batch(kernels.zorich_forward_batch(x)))

    def test_wrap_seam_goes_to_first_box(self):
        # x_1 = 3 pi / 2 and its 2 pi translates are the face x_1 = -pi/2
        x = np.array([[3 * HALF_PI, 0.3, 0.5], [7 * HALF_PI, -0.2, 0.0],
                      [-HALF_PI, 1.0, 0.0]])
        canon = kernels.canonicalize_batch(x)
        assert np.allclose(canon[:, 0], -HALF_PI, rtol=0, atol=1e-15)
        assert_fundamental(canon)


class TestTransformEval:
    """Conjugation f -> Z^{-1} o f o Z on batches of fundamental-set points."""

    def test_identity(self):
        x = np.array([[0.4, -0.1, 0.7], [np.pi + 0.2, 0.3, -0.5]])
        out = _conjugate(lambda y: y, x)
        assert zorich.quotient_distance_batch(out, x).max() <= 1e-12

    def test_doubling_lifts_to_translation(self):
        x = np.array([0.4, -0.1, 0.7])
        out = _conjugate(lambda y: 2.0 * y, x)
        assert np.allclose(out[:-1], x[:-1])
        assert out[-1] == pytest.approx(0.7 + np.log(2.0), abs=1e-12)

    def test_agrees_with_closed_form_stretch(self):
        # the last-axis stretch lifts to the vertical shift V of the chart
        rng = np.random.default_rng(4)
        x = zorich.sample_fundamental(rng, 500, 3)
        via_conjugation = _conjugate(lambda y: last_axis_stretch(y, 2.0), x)
        closed = x.copy()
        closed[:, -1] += stretch_shift_batch(x[:, :-1], 2.0)
        assert zorich.quotient_distance_batch(via_conjugation, closed).max() <= 1e-9

    def test_zero_image_rejected(self):
        x = np.array([[0.4, -0.1, 0.7], [0.2, 0.1, 0.0]])
        with pytest.raises(OriginError):
            _conjugate(lambda y: 0.0 * y, x)


class TestQuotientMetric:
    @staticmethod
    def _distance(a, b):
        return float(zorich.quotient_distance_batch(a, b)[0])

    def test_same_point(self):
        x = np.array([0.4, -0.1, 0.7])
        assert self._distance(x, x) == 0.0

    def test_face_crossing_pair(self):
        eps = 1e-3
        b = kernels.canonicalize_batch([0.3, HALF_PI - eps, 0.0])
        a = kernels.canonicalize_batch([0.3, HALF_PI + eps, 0.0])
        assert self._distance(a, b) == pytest.approx(2 * eps, rel=1e-9)

    def test_hemisphere_flip_is_far(self):
        b = np.array([0.3, 0.2, 0.0])
        flip = np.array([np.pi - 0.3, 0.2, 0.0])
        assert self._distance(flip, b) > 1.0

    def test_wrap_seam_pair(self):
        a = kernels.canonicalize_batch([3 * HALF_PI - 1e-4, 0.3, 0.0])
        b = kernels.canonicalize_batch([-HALF_PI + 1e-4, 0.3, 0.0])
        assert self._distance(a, b) == pytest.approx(2e-4, rel=1e-6)

    @staticmethod
    def _brute_force(a, b):
        """The least distance over every even-parity combination of the
        representatives, squared terms added left to right."""
        best = np.full(a.shape[0], np.inf)
        for combo in product(*zorich._rep_options(b)):
            if sum(par for _, par in combo) % 2:
                continue
            d2 = np.zeros(a.shape[0])
            for i, (rep, _) in enumerate(combo):
                d2 = d2 + (a[:, i] - rep) ** 2
            best = np.minimum(best, d2)
        return np.sqrt(best + (a[:, -1] - b[:, -1]) ** 2)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_matches_brute_force(self, n):
        rng = np.random.default_rng(n)
        a = zorich.sample_fundamental(rng, 2000, n)
        b = zorich.sample_fundamental(rng, 2000, n)
        # near pairs, whose nearest representative is often a reflected one
        near = kernels.canonicalize_batch(a + 0.05 * rng.standard_normal(a.shape))
        for x, y in ((a, b), (a, near), (near, a)):
            assert np.array_equal(
                zorich.quotient_distance_batch(x, y), self._brute_force(x, y))


class TestCompositionResidual:
    def test_identity_pair(self):
        # both lifting orders go through one extra honest roundtrip, so the
        # residual is roundoff, not exactly zero
        r = zorich.composition_residual(lambda y: y, lambda y: y, 200, seed=0)
        assert r <= 1e-13

    def test_radial_scalings_commute(self):
        r = zorich.composition_residual(
            lambda y: 2.0 * y, lambda y: 0.5 * y, 2000, seed=1
        )
        assert r <= 1e-12

    def test_stretch_rotation(self):
        from qcmaps.canonical_maps import StretchSpec, oriented_stretch
        from qcmaps.vecgeom import planar_rotation

        spec = StretchSpec(K=2.0, frame=np.eye(3))
        rot = planar_rotation(0.9, 0, 1, 3)
        r = zorich.composition_residual(
            lambda y: oriented_stretch(y, spec), lambda y: y @ rot.T, 2000, seed=2
        )
        assert r <= 1e-9

    def test_propagates_undefined(self):
        with pytest.raises(TransformUndefinedError):
            zorich.composition_residual(lambda y: y, lambda y: 0.0 * y, 50, seed=3)
