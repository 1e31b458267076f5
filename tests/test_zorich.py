import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcmaps import kernels, zorich
from qcmaps.canonical_maps import radial_stretch, radial_stretch_transform
from qcmaps.errors import (
    InvalidInputError,
    OriginError,
    TransformUndefinedError,
)
from qcmaps.zorich import FundamentalPoint


class TestSphereChart:
    def test_center_goes_to_pole(self):
        assert np.allclose(zorich.sphere_chart([0.0, 0.0]), [0, 0, 1.0])

    def test_face_midpoint(self):
        # max-coordinate pi/2 puts the image on the equator along x
        y = zorich.sphere_chart([np.pi / 2, 0.0])
        assert np.allclose(y, [1.0, 0, 0], atol=1e-12)

    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(-np.pi / 2, np.pi / 2, (2000, 4))
        y = kernels._chart(p.T)
        assert np.abs(np.linalg.norm(y, axis=1) - 1.0).max() <= 1e-12

    def test_outside_cube_rejected(self):
        with pytest.raises(InvalidInputError):
            zorich.sphere_chart([2.0, 0.0])


class TestForward:
    def test_pole_scaling(self):
        y = zorich.zorich_forward([0.0, 0.0, np.log(2.0)])
        assert np.allclose(y, [0, 0, 2.0])

    def test_face_point(self):
        y = zorich.zorich_forward([np.pi / 2, 0.0, 0.0])
        assert np.allclose(y, [1.0, 0, 0], atol=1e-12)

    def test_second_box_center(self):
        # reflected chart: evaluate at (pi - x1, ...) and flip the last output
        y = zorich.zorich_forward([np.pi, 0.0, 0.0])
        assert np.allclose(y, [0, 0, -1.0], atol=1e-12)

    def test_radius_identity(self):
        rng = np.random.default_rng(1)
        x = zorich.sample_fundamental(rng, 5000, 4)
        z = kernels.zorich_forward_batch(x)
        rel = np.abs(np.linalg.norm(z, axis=1) / np.exp(x[:, -1]) - 1.0)
        assert rel.max() <= 1e-12


class TestInverse:
    def test_pole_at_radius_e(self):
        fp = zorich.zorich_inverse([0.0, 0.0, np.e])
        assert np.allclose(fp.coords, [0, 0, 1.0])

    def test_equator_point(self):
        fp = zorich.zorich_inverse([1.0, 0.0, 0.0])
        assert np.allclose(fp.coords, [np.pi / 2, 0, 0])

    def test_origin_rejected(self):
        with pytest.raises(OriginError):
            zorich.zorich_inverse([0.0, 0.0, 0.0])

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
        fp = zorich.canonicalize([0.3, -0.2, 1.1])
        assert np.array_equal(fp.coords, [0.3, -0.2, 1.1])
        assert fp.box == 1

    def test_second_box_membership(self):
        fp = zorich.canonicalize([np.pi + 0.1, 0.0, 0.0])
        assert np.allclose(fp.coords, [np.pi + 0.1, 0, 0])
        assert fp.box == 2

    def test_wrapped_representative(self):
        x = np.array([2 * np.pi - 0.2, 0.0, 0.0])
        fp = zorich.canonicalize(x)
        img0 = zorich.zorich_forward(x)
        assert np.abs(zorich.zorich_forward(fp) - img0).max() <= 1e-12

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
        fp = zorich.canonicalize(x)
        scale = max(1.0, float(np.exp(x[-1])))
        gap = np.abs(zorich.zorich_forward(fp) - zorich.zorich_forward(x)).max()
        assert gap <= 1e-12 * scale


class TestFundamentalPoint:
    def test_rejects_outside(self):
        with pytest.raises(InvalidInputError):
            FundamentalPoint(np.array([5.0, 0.0, 0.0]))

    def test_rejects_second_box_face(self):
        with pytest.raises(InvalidInputError):
            FundamentalPoint(np.array([np.pi, np.pi / 2, 0.0]))

    def test_immutable(self):
        fp = FundamentalPoint(np.array([0.1, 0.2, 0.3]))
        with pytest.raises(ValueError):
            fp.coords[0] = 9.0


class TestTransformEval:
    def test_identity(self):
        fp = FundamentalPoint(np.array([0.4, -0.1, 0.7]))
        out = zorich.transform_eval(lambda y: y, fp)
        assert zorich.quotient_distance(out, fp) <= 1e-12

    def test_doubling_lifts_to_translation(self):
        fp = FundamentalPoint(np.array([0.4, -0.1, 0.7]))
        out = zorich.transform_eval(lambda y: 2.0 * y, fp)
        assert np.allclose(out.coords[:-1], fp.coords[:-1])
        assert out.coords[-1] == pytest.approx(0.7 + np.log(2.0), abs=1e-12)

    def test_agrees_with_closed_form_stretch(self):
        rng = np.random.default_rng(4)
        x = zorich.sample_fundamental(rng, 500, 3)
        for row in x:
            fp = FundamentalPoint(row)
            via_conjugation = zorich.transform_eval(
                lambda y: radial_stretch(y, 2.0), fp
            )
            closed = radial_stretch_transform(fp, 2.0)
            assert zorich.quotient_distance(via_conjugation, closed) <= 1e-9

    def test_zero_image_rejected(self):
        fp = FundamentalPoint(np.array([0.4, -0.1, 0.7]))
        with pytest.raises(TransformUndefinedError):
            zorich.transform_eval(lambda y: 0.0 * y, fp)


class TestQuotientMetric:
    def test_same_point(self):
        fp = FundamentalPoint(np.array([0.4, -0.1, 0.7]))
        assert zorich.quotient_distance(fp, fp) == 0.0

    def test_face_crossing_pair(self):
        eps = 1e-3
        b = zorich.canonicalize([0.3, np.pi / 2 - eps, 0.0])
        a = zorich.canonicalize([0.3, np.pi / 2 + eps, 0.0])
        assert zorich.quotient_distance(a, b) == pytest.approx(2 * eps, rel=1e-9)

    def test_hemisphere_flip_is_far(self):
        b = FundamentalPoint(np.array([0.3, 0.2, 0.0]))
        flip = FundamentalPoint(np.array([np.pi - 0.3, 0.2, 0.0]))
        assert zorich.quotient_distance(flip, b) > 1.0

    def test_wrap_seam_pair(self):
        a = zorich.canonicalize([3 * np.pi / 2 - 1e-4, 0.3, 0.0])
        b = zorich.canonicalize([-np.pi / 2 + 1e-4, 0.3, 0.0])
        assert zorich.quotient_distance(a, b) == pytest.approx(2e-4, rel=1e-6)


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
