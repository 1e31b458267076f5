import numpy as np
import pytest

from qcmaps import canonical_maps as cm
from qcmaps import kernels, zorich
from qcmaps.canonical_maps import (
    InterpSpec,
    SpiralSpec,
    StretchSpec,
    interp_stretch,
    interp_stretch_transform,
    oriented_stretch,
    radial_stretch,
    radial_stretch_transform,
    select_alpha,
    spiral_jacobian_scan,
    spiral_region,
    spiral_stretch,
    spiral_stretch_transform,
    spiral_transform_jacobian_analytic,
    stretch_axis1,
)
from qcmaps.distortion import finite_diff_jacobian
from qcmaps.errors import (
    ChartSingularityError,
    InvalidInputError,
    NearSingularRegionError,
    OriginError,
    OutsideShellError,
)
from qcmaps.vecgeom import frame_from_direction, random_unit_vectors
from qcmaps.zorich import FundamentalPoint

HALF_PI = np.pi / 2


def _axis_frame(n):
    e = np.zeros(n)
    e[-1] = 1.0
    return frame_from_direction(e)


def sample_region(rng, m, n, alpha, margin=2e-3, p_kind=None, d_kind=None):
    """Rejection-sample first-box points inside one differentiability region."""
    out = np.empty((0, n))
    while len(out) < m:
        x = np.empty((20 * m, n))
        x[:, :-1] = rng.uniform(-HALF_PI + 1e-3, HALF_PI - 1e-3, (20 * m, n - 1))
        x[:, -1] = rng.uniform(-30.0, 30.0, 20 * m)
        p, d, pyr, sw = kernels.spiral_region_batch(x, alpha)
        sel = (pyr >= margin) & (sw >= margin)
        if p_kind == "first":
            sel &= p == 0
        elif p_kind == "second":
            sel &= p == 1
        elif p_kind == "third":
            sel &= p >= 2
        if d_kind == "a":
            sel &= d == 0
        elif d_kind == "b":
            sel &= d == 1
        elif d_kind == "c":
            sel &= d >= 2
        out = np.concatenate([out, x[sel]], axis=0)
    return out[:m]


class TestRadialStretch:
    def test_equator_fixed(self):
        assert np.allclose(radial_stretch([1.0, 0, 0], 2.0), [1.0, 0, 0])

    def test_pole_scaled(self):
        assert np.allclose(radial_stretch([0.0, 0, 1.0], 2.0), [0, 0, 2.0])

    def test_k_one_identity(self):
        y = np.array([0.3, -0.7, 0.2])
        assert np.allclose(radial_stretch(y, 1.0), y)

    def test_origin_rejected(self):
        with pytest.raises(OriginError):
            radial_stretch([0.0, 0, 0], 2.0)


class TestRadialStretchTransform:
    def test_pole_shift(self):
        fp = FundamentalPoint(np.zeros(3))
        out = radial_stretch_transform(fp, 2.0)
        assert np.allclose(out.coords, [0, 0, np.log(2.0)])

    def test_face_point_unchanged(self):
        fp = FundamentalPoint(np.array([HALF_PI, 0.0, 0.0]))
        out = radial_stretch_transform(fp, 2.0)
        assert np.allclose(out.coords, fp.coords, atol=1e-15)

    def test_k_one_identity(self):
        fp = FundamentalPoint(np.array([0.4, 0.2, -0.3]))
        out = radial_stretch_transform(fp, 1.0)
        assert np.allclose(out.coords, fp.coords)

    @pytest.mark.parametrize("n,K", [(3, 2.0), (4, 5.0)])
    def test_conjugacy(self, n, K):
        rng = np.random.default_rng(n)
        x = zorich.sample_fundamental(rng, 3000, n)
        lifted = x.copy()
        for i, row in enumerate(x):
            lifted[i] = radial_stretch_transform(FundamentalPoint(row), K).coords
        lhs = kernels.zorich_forward_batch(lifted)
        rhs = radial_stretch(kernels.zorich_forward_batch(x), K)
        assert np.abs(lhs - rhs).max() <= 1e-9


    def test_stretch_slope_bound(self):
        # |dV/dx_1| <= K^2 - 1 for the vertical shift along the chart axis
        xs = np.linspace(1e-3, HALF_PI - 1e-3, 60)
        pts = np.stack([xs, np.zeros_like(xs)], axis=1)
        step = np.array([1e-6, 0.0])
        for K in (2.0, 5.0):
            hi = cm.stretch_shift_batch(pts + step, K)
            lo = cm.stretch_shift_batch(pts - step, K)
            assert np.abs(hi - lo).max() / 2e-6 <= K * K - 1.0


class TestOrientedStretch:
    def test_reaxis_consistency(self):
        spec = StretchSpec(K=2.0, frame=_axis_frame(3))
        rng = np.random.default_rng(0)
        y = rng.standard_normal((500, 3))
        assert np.abs(oriented_stretch(y, spec) - radial_stretch(y, 2.0)).max() <= 1e-12

    def test_lemma_tip(self):
        # stretch preimage axis = e_1: the tip r*e_1 lands at K r * sigma
        spec = StretchSpec(K=8.0, frame=np.eye(3))
        out = oriented_stretch(np.array([0.25, 0.0, 0.0]), spec)
        assert np.allclose(out, [2.0, 0, 0])

    def test_ellipsoid_semi_axes(self):
        # extremes sit on the stretch axis and its orthogonal complement, so
        # the direction sample includes them explicitly
        rng = np.random.default_rng(1)
        sigma = np.array([0.6, -0.8, 0.0])
        frame = frame_from_direction(sigma)
        spec = StretchSpec(K=3.0, frame=frame)
        dirs = np.concatenate(
            [random_unit_vectors(rng, 10_000, 3), [sigma], [frame[:, 1]]]
        )
        r = np.linalg.norm(oriented_stretch(dirs, spec), axis=1)
        assert abs(r.max() - 3.0) <= 1e-9 and abs(r.min() - 1.0) <= 1e-9
        assert np.all(r >= 1.0 - 1e-9) and np.all(r <= 3.0 + 1e-9)

    def test_spec_validation(self):
        with pytest.raises(InvalidInputError):
            StretchSpec(K=0.5, frame=np.eye(3))


class TestInterpStretch:
    def _spec(self, n=3, K=2.0, L=3.0):
        s = -(2.0 * abs(np.log(K / L)) + 1.0)
        return InterpSpec(K=K, L=L, s=s, t=0.0, frame=np.eye(n))

    def test_outer_boundary_is_k_stretch(self):
        spec = self._spec()
        rng = np.random.default_rng(2)
        y = random_unit_vectors(rng, 200, 3)  # |y| = e^t = 1
        ref = oriented_stretch(y, StretchSpec(K=spec.K, frame=spec.frame))
        assert np.abs(interp_stretch(y, spec) - ref).max() <= 1e-12

    def test_inner_boundary_is_l_stretch(self):
        spec = self._spec()
        rng = np.random.default_rng(3)
        y = np.exp(spec.s) * random_unit_vectors(rng, 200, 3)
        ref = oriented_stretch(y, StretchSpec(K=spec.L, frame=spec.frame))
        assert np.abs(interp_stretch(y, spec) - ref).max() <= 1e-12

    def test_equal_factors_collapse(self):
        spec = InterpSpec(K=2.0, L=2.0, s=-1.0, t=0.0, frame=np.eye(3))
        rng = np.random.default_rng(4)
        y = np.exp(-0.4) * random_unit_vectors(rng, 200, 3)
        ref = oriented_stretch(y, StretchSpec(K=2.0, frame=spec.frame))
        assert np.abs(interp_stretch(y, spec) - ref).max() <= 1e-12

    def test_outside_shell_rejected(self):
        spec = self._spec()
        with pytest.raises(OutsideShellError):
            interp_stretch(np.array([3.0, 0, 0]), spec)

    def test_crossing_constraint_rejected(self):
        with pytest.raises(InvalidInputError):
            InterpSpec(K=10.0, L=1.0, s=-1.0, t=0.0, frame=np.eye(3))


class TestInterpTransform:
    def _spec(self, n=3, K=2.0, L=3.0):
        s = -(2.0 * abs(np.log(K / L)) + 1.0)
        return InterpSpec(K=K, L=L, s=s, t=0.0, frame=_axis_frame(n))

    def test_face_point_unchanged(self):
        spec = self._spec()
        fp = FundamentalPoint(np.array([HALF_PI, 0.0, spec.s / 2]))
        out = interp_stretch_transform(fp, spec)
        assert np.allclose(out.coords, fp.coords, atol=1e-15)

    def test_pole_at_outer_boundary(self):
        spec = self._spec()
        fp = FundamentalPoint(np.array([0.0, 0.0, 0.0]))  # x_n = t, chart center
        out = interp_stretch_transform(fp, spec)
        assert out.coords[-1] == pytest.approx(np.log(spec.K), abs=1e-14)

    def test_unit_factors_identity(self):
        spec = InterpSpec(K=1.0, L=1.0, s=-1.0, t=0.0, frame=_axis_frame(3))
        fp = FundamentalPoint(np.array([0.3, 0.1, -0.5]))
        out = interp_stretch_transform(fp, spec)
        assert np.allclose(out.coords, fp.coords)

    def test_outside_slab_rejected(self):
        spec = self._spec()
        with pytest.raises(OutsideShellError):
            interp_stretch_transform(FundamentalPoint(np.array([0.1, 0.1, 1.0])), spec)

    @pytest.mark.parametrize("n,K,L", [(3, 2.0, 2.0), (4, 5.0, 2.0)])
    def test_conjugacy(self, n, K, L):
        spec = self._spec(n, K, L)
        rng = np.random.default_rng(n)
        x = zorich.sample_fundamental(rng, 3000, n, height_range=(spec.s, spec.t))
        lifted = x.copy()
        lifted[:, -1] += np.array(
            [
                interp_stretch_transform(FundamentalPoint(r), spec).coords[-1] - r[-1]
                for r in x
            ]
        )
        lhs = kernels.zorich_forward_batch(lifted)
        rhs = interp_stretch(kernels.zorich_forward_batch(x), spec)
        assert np.abs(lhs - rhs).max() <= 1e-9


class TestSpiralStretch:
    def test_zero_rate_is_axis_stretch(self):
        spec = SpiralSpec(K=2.0, alpha=0.0, frame=np.eye(3))
        rng = np.random.default_rng(5)
        y = rng.standard_normal((300, 3))
        assert np.abs(spiral_stretch(y, spec) - stretch_axis1(y, 2.0)).max() <= 1e-12

    def test_unit_sphere_tip(self):
        # |y| = 1: no rotation, the frame axis is scaled by K
        sigma = np.array([0.0, 0.6, 0.8])
        f = frame_from_direction(sigma)
        spec = SpiralSpec(K=2.5, alpha=0.7, frame=f)
        assert np.allclose(spiral_stretch(sigma, spec), 2.5 * sigma, atol=1e-12)

    def test_sphere_semi_axes(self):
        rng = np.random.default_rng(6)
        spec = SpiralSpec(K=2.0, alpha=0.4, frame=np.eye(3))
        axes = np.array([[1.0, 0, 0], [0.0, 1, 0], [0.0, 0, 1]])
        for r in (0.3, 1.7):
            dirs = r * np.concatenate([random_unit_vectors(rng, 10_000, 3), axes])
            img = np.linalg.norm(spiral_stretch(dirs, spec), axis=1)
            assert abs(img.max() - 2.0 * r) <= 1e-9 * r
            assert abs(img.min() - r) <= 1e-9 * r


class TestSpiralTransform:
    def test_axis_point_gains_log_k(self):
        spec = SpiralSpec(K=2.0, alpha=0.0, frame=np.eye(3))
        fp = FundamentalPoint(np.array([HALF_PI, 0.0, 0.0]))
        out = spiral_stretch_transform(fp, spec)
        # max-term 2/pi cancels; the shift is ln 2 - 0.5 ln(4 - 3)
        assert np.allclose(out.coords, [HALF_PI, 0.0, np.log(2.0)], atol=1e-14)

    def test_quarter_phase_rotation(self):
        xn = 0.9
        spec = SpiralSpec(K=1.0, alpha=(np.pi / 2) / xn, frame=np.eye(3))
        fp = FundamentalPoint(np.array([HALF_PI, 0.0, xn]))
        out = spiral_stretch_transform(fp, spec)
        assert np.allclose(out.coords, [0.0, HALF_PI, xn], atol=1e-12)

    def test_max_norm_preserved(self):
        rng = np.random.default_rng(7)
        x = sample_region(rng, 10_000, 3, 0.3, margin=0.0)
        u = kernels.spiral_u_batch(x, 2.0, 0.3)
        gap = np.abs(
            np.max(np.abs(u[:, :-1]), axis=1) - np.max(np.abs(x[:, :-1]), axis=1)
        )
        assert gap.max() <= 1e-12

    def test_chart_singularity(self):
        spec = SpiralSpec(K=2.0, alpha=0.1, frame=np.eye(3))
        with pytest.raises(ChartSingularityError):
            spiral_stretch_transform(FundamentalPoint(np.array([0.0, 0.0, 1.0])), spec)

    def test_second_box_rejected(self):
        spec = SpiralSpec(K=2.0, alpha=0.1, frame=np.eye(3))
        with pytest.raises(InvalidInputError):
            spiral_stretch_transform(
                FundamentalPoint(np.array([np.pi, 0.1, 0.0])), spec
            )

    @pytest.mark.parametrize("n,K", [(3, 2.0), (4, 5.0)])
    def test_conjugacy(self, n, K):
        rng = np.random.default_rng(n + 10)
        spec = SpiralSpec(K=K, alpha=0.25, frame=np.eye(n))
        x = zorich.sample_fundamental(rng, 3000, n, second_box=False)
        x = x[np.max(np.abs(x[:, :-1]), axis=1) > 1e-6]
        lhs = kernels.zorich_forward_batch(kernels.spiral_u_batch(x, K, 0.25))
        rhs = spiral_stretch(kernels.zorich_forward_batch(x), spec)
        assert np.abs(lhs - rhs).max() <= 1e-9

    def test_m_sandwich(self):
        rng = np.random.default_rng(8)
        x = sample_region(rng, 5000, 4, 0.3, margin=0.0)
        ang = 0.3 * x[:, -1]
        a = np.abs(x[:, 0] * np.cos(ang) - x[:, 1] * np.sin(ang))
        b = np.abs(x[:, 0] * np.sin(ang) + x[:, 1] * np.cos(ang))
        r12 = np.sqrt(x[:, 0] ** 2 + x[:, 1] ** 2)
        keep = r12 > 1e-9
        recip = 1.0 / np.maximum(a, b)[keep]
        assert np.all(recip >= 1.0 / r12[keep] - 1e-12)
        assert np.all(recip <= np.sqrt(2.0) / r12[keep] + 1e-12)


class TestSpiralJacobian:
    def test_zero_rate_structure(self):
        # alpha = 0 in the first pyramid region, largest-candidate species a:
        # the chart rows collapse to the identity and only the last row
        # carries the stretch slope.
        rng = np.random.default_rng(9)
        pts = sample_region(rng, 50, 4, 0.0, p_kind="first", d_kind="a")
        spec = SpiralSpec(K=2.0, alpha=0.0, frame=np.eye(4))
        for x in pts:
            jac = spiral_transform_jacobian_analytic(x, spec)
            assert np.abs(jac[:3, :3] - np.eye(3)).max() <= 1e-12
            assert np.abs(jac[:3, 3]).max() <= 1e-12
            assert jac[3, 3] == 1.0
            # the only surviving slope obeys the stretch bound K^2 - 1
            assert abs(jac[3, 0]) <= 3.0 + 1e-12

    @pytest.mark.parametrize(
        "n,p_kind,d_kind",
        [
            (3, "first", "a"),
            (3, "first", "b"),
            (3, "second", "a"),
            (3, "second", "b"),
            (5, "first", "c"),
            (5, "third", "a"),
            (5, "third", "b"),
            (5, "third", "c"),
        ],
    )
    def test_matches_finite_differences(self, n, p_kind, d_kind):
        rng = np.random.default_rng(hash((n, p_kind, d_kind)) % 2**32)
        alpha, K = 0.25, 2.0
        pts = sample_region(rng, 100, n, alpha, p_kind=p_kind, d_kind=d_kind)
        spec = SpiralSpec(K=K, alpha=alpha, frame=np.eye(n))
        for x in pts:
            ana = spiral_transform_jacobian_analytic(x, spec)
            fd = finite_diff_jacobian(
                lambda c: kernels.spiral_u_batch(c, K, alpha), x, 1e-6
            )
            assert np.abs(fd - ana).max() / np.abs(ana).max() <= 1e-5

    def test_rotation_block_structure(self):
        # third-pyramid region with the plain-coordinate candidate active:
        # rows 1-2 are the rotation block, the remaining chart rows are unit.
        n, alpha = 5, 0.3
        x = np.array([0.3, 0.2, 1.4, 0.35, 0.9])
        p, d, pyr, sw = spiral_region(x, alpha)
        assert p == 2 and d == 2
        spec = SpiralSpec(K=2.0, alpha=alpha, frame=np.eye(n))
        jac = spiral_transform_jacobian_analytic(x, spec)
        c, s = np.cos(alpha * 0.9), np.sin(alpha * 0.9)
        assert np.allclose(jac[0, :2], [c, -s], atol=1e-14)
        assert np.allclose(jac[1, :2], [s, c], atol=1e-14)
        assert np.allclose(jac[2, :4], [0, 0, 1, 0], atol=1e-14)
        assert np.allclose(jac[3, :4], [0, 0, 0, 1], atol=1e-14)

    def test_near_singular_region_rejected(self):
        spec = SpiralSpec(K=2.0, alpha=0.0, frame=np.eye(3))
        x = np.array([0.4, 0.4 - 1e-9, 0.2])  # pyramid-face tie
        with pytest.raises(NearSingularRegionError):
            spiral_transform_jacobian_analytic(x, spec)


class TestSelectAlpha:
    def test_floor_value_n3(self):
        assert 2.0 ** (-(3 + 1) / 2.0) == 0.25

    def test_unit_stretch_admits_spiraling(self):
        a = select_alpha(1.0, 3, grid=17)
        assert a > 0.0

    def test_orientation_sign(self):
        a = select_alpha(2.0, 3, orientation=-1, grid=17)
        assert a < 0.0

    def test_refinement_recheck(self):
        a = select_alpha(2.0, 3, grid=17)
        worst, _ = spiral_jacobian_scan(2.0, 3, a, 2 * 17 - 1)
        assert worst > 0.25

    def test_certified_floor_holds(self):
        a = select_alpha(2.0 ** 1.5, 3, grid=17)
        worst, _ = spiral_jacobian_scan(2.0 ** 1.5, 3, a, 17)
        assert worst > 0.25

    @pytest.mark.parametrize("n, grid", [(3, 17), (4, 9)])
    def test_grid_filtered_once(self, monkeypatch, n, grid):
        # K = 8 halves alpha three times: four coarse scans, one fine scan
        monkeypatch.setattr(cm, "_ALPHA_CACHE", {})
        monkeypatch.setattr(cm, "_GRID_MASKS", {})
        calls = []
        region = kernels.spiral_region_batch

        def counting(*args):
            calls.append(len(args[0]))
            return region(*args)

        monkeypatch.setattr(kernels, "spiral_region_batch", counting)
        assert select_alpha(8.0, n, grid=grid) == 0.125
        fine = 2 * grid - 1
        # one filter call per lead row of the coarse grid, then of the fine one
        assert calls == [grid ** (n - 1)] * grid + [fine ** (n - 1)] * fine
        calls.clear()
        select_alpha(3.0, n, grid=grid)
        assert calls == []

    def test_certification_grid(self):
        assert [cm.certification_grid(n) for n in (3, 4, 5)] == [33, 13, 13]
        assert cm.certification_grid(3, 17) == 17
        assert cm.certification_grid(4, 33) == 13
        assert cm.certification_grid(4, 9) == 9

    @pytest.mark.parametrize("n, grid", [(3, 33), (4, 13)])
    def test_default_grid_per_dimension(self, monkeypatch, n, grid):
        monkeypatch.setattr(cm, "_ALPHA_CACHE", {})
        monkeypatch.setattr(cm, "_GRID_MASKS", {})
        scanned = []
        scan = cm.spiral_jacobian_scan

        def recording(*args):
            scanned.append(args[3])
            return scan(*args)

        monkeypatch.setattr(cm, "spiral_jacobian_scan", recording)
        default = select_alpha(2.0, n)
        assert set(scanned) == {grid, 2 * grid - 1}
        monkeypatch.setattr(cm, "_ALPHA_CACHE", {})
        assert select_alpha(2.0, n, grid=grid) == default

    @pytest.mark.parametrize("n, alpha", [(3, 0.25), (4, -0.125), (3, 0.0)])
    def test_scan_cold_and_warm_agree(self, monkeypatch, n, alpha):
        monkeypatch.setattr(cm, "_GRID_MASKS", {})
        worst, where = spiral_jacobian_scan(2.0, n, alpha, 9)
        assert cm._GRID_MASKS
        again, where_again = spiral_jacobian_scan(2.0, n, alpha, 9)
        assert again == worst and np.array_equal(where_again, where)
