import zlib

import numpy as np
import pytest

from conftest import last_axis_stretch
from qcmaps import canonical_maps as cm
from qcmaps import kernels, zorich
from qcmaps.canonical_maps import (
    InterpSpec,
    SpiralSpec,
    StretchSpec,
    interp_stretch,
    oriented_stretch,
    select_alpha,
    spiral_jacobian_scan,
    spiral_stretch,
)
from qcmaps.distortion import finite_diff_jacobian
from qcmaps.errors import InvalidInputError, OriginError, OutsideShellError
from qcmaps.realizer import RealizedMap, eval_map_batch
from qcmaps.vecgeom import frame_from_direction

HALF_PI = np.pi / 2


def _axis_frame(n):
    e = np.zeros(n)
    e[-1] = 1.0
    return frame_from_direction(e)


def _lift_stretch(x, K):
    """The lift of the last-axis stretch: the chart block fixed, x_n += V."""
    out = np.array(x, dtype=float)
    out[..., -1] += cm.stretch_shift_batch(out[..., :-1], K)
    return out


def _lift_interp(x, spec):
    """The lift of the last-axis interpolation: x_n += V_I."""
    out = np.array(x, dtype=float)
    out[..., -1] += cm.interp_shift_batch(out[..., :-1], out[..., -1], spec)
    return out


def _unit_vectors(rng, m, n):
    v = rng.standard_normal((m, n))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


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
    # the radial stretch along the last axis
    def test_equator_fixed(self):
        assert np.allclose(last_axis_stretch([1.0, 0, 0], 2.0), [1.0, 0, 0])

    def test_pole_scaled(self):
        assert np.allclose(last_axis_stretch([0.0, 0, 1.0], 2.0), [0, 0, 2.0])

    def test_k_one_identity(self):
        y = np.array([0.3, -0.7, 0.2])
        assert np.allclose(last_axis_stretch(y, 1.0), y)

    def test_origin_rejected(self):
        with pytest.raises(OriginError):
            last_axis_stretch([0.0, 0, 0], 2.0)


class TestRadialStretchTransform:
    def test_pole_shift(self):
        assert np.allclose(_lift_stretch(np.zeros(3), 2.0), [0, 0, np.log(2.0)])

    def test_face_point_unchanged(self):
        x = np.array([HALF_PI, 0.0, 0.0])
        assert np.allclose(_lift_stretch(x, 2.0), x, atol=1e-15)

    def test_k_one_identity(self):
        x = np.array([0.4, 0.2, -0.3])
        assert np.allclose(_lift_stretch(x, 1.0), x)

    @pytest.mark.parametrize("n,K", [(3, 2.0), (4, 5.0)])
    def test_conjugacy(self, n, K):
        rng = np.random.default_rng(n)
        x = zorich.sample_fundamental(rng, 3000, n)
        lhs = kernels.zorich_forward_batch(_lift_stretch(x, K))
        rhs = last_axis_stretch(kernels.zorich_forward_batch(x), K)
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
        # the frame with first column e_n stretches along the last axis
        spec = StretchSpec(K=2.0, frame=_axis_frame(3))
        rng = np.random.default_rng(0)
        y = rng.standard_normal((500, 3))
        r = np.linalg.norm(y, axis=1)
        axis = cm._stretch_factor((y[:, -1] / r) ** 2, 2.0)[:, None] * y
        assert np.abs(oriented_stretch(y, spec) - axis).max() <= 1e-12

    @pytest.mark.parametrize("K", [1.0, 2.0, 7.3])
    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_identity_frame_is_axis_formula(self, n, K):
        # bit for bit: the axis-1 stretch formula, kept here as the reference,
        # including rows whose first coordinate is +-0.0
        rng = np.random.default_rng(n)
        y = rng.standard_normal((20_000, n)) * np.exp(rng.uniform(-3, 3, (20_000, 1)))
        y[:500, 0] = 0.0
        y[500:1000, 0] = -0.0
        r = cm._norms(y)
        axis1 = cm._stretch_factor((y[:, 0] / r) ** 2, K)[:, None] * y
        got = oriented_stretch(y, StretchSpec(K=K, frame=np.eye(n)))
        assert got.tobytes() == axis1.tobytes()

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
        dirs = np.concatenate([_unit_vectors(rng, 10_000, 3), [sigma], [frame[:, 1]]])
        r = np.linalg.norm(oriented_stretch(dirs, spec), axis=1)
        assert abs(r.max() - 3.0) <= 1e-9 and abs(r.min() - 1.0) <= 1e-9
        assert np.all(r >= 1.0 - 1e-9) and np.all(r <= 3.0 + 1e-9)

    def test_spec_validation(self):
        with pytest.raises(InvalidInputError):
            StretchSpec(K=0.5, frame=np.eye(3))


_FRAME3 = np.eye(3)
_MAPS_ON_R3 = {
    "oriented_stretch": lambda y: oriented_stretch(y, StretchSpec(K=2.0, frame=_FRAME3)),
    "interp_stretch": lambda y: interp_stretch(
        y, InterpSpec(K=2.0, L=3.0, s=-2.0, t=0.0, frame=_FRAME3)),
    "spiral_stretch": lambda y: spiral_stretch(
        y, SpiralSpec(K=2.0, alpha=0.25, frame=_FRAME3)),
    "eval_map_batch": lambda y: eval_map_batch(
        RealizedMap(pieces=(), outer_K=2.0, outer_frame=_FRAME3, n=3), y),
}


@pytest.mark.parametrize("name", _MAPS_ON_R3)
def test_dimension_mismatch_rejected(name):
    # 4-D points against 3-D maps reached matmul and raised a numpy error;
    # |y| = 1 lies inside the interpolation shell
    y = np.full((2, 4), 0.5)
    for points in (y, y[0]):
        with pytest.raises(InvalidInputError):
            _MAPS_ON_R3[name](points)
    assert _MAPS_ON_R3[name](y[:, :3] / np.sqrt(0.75)).shape == (2, 3)


class TestInterpStretch:
    def _spec(self, n=3, K=2.0, L=3.0):
        s = -(2.0 * abs(np.log(K / L)) + 1.0)
        return InterpSpec(K=K, L=L, s=s, t=0.0, frame=np.eye(n))

    def test_outer_boundary_is_k_stretch(self):
        spec = self._spec()
        rng = np.random.default_rng(2)
        y = _unit_vectors(rng, 200, 3)  # |y| = e^t = 1
        ref = oriented_stretch(y, StretchSpec(K=spec.K, frame=spec.frame))
        assert np.abs(interp_stretch(y, spec) - ref).max() <= 1e-12

    def test_inner_boundary_is_l_stretch(self):
        spec = self._spec()
        rng = np.random.default_rng(3)
        y = np.exp(spec.s) * _unit_vectors(rng, 200, 3)
        ref = oriented_stretch(y, StretchSpec(K=spec.L, frame=spec.frame))
        assert np.abs(interp_stretch(y, spec) - ref).max() <= 1e-12

    def test_equal_factors_collapse(self):
        spec = InterpSpec(K=2.0, L=2.0, s=-1.0, t=0.0, frame=np.eye(3))
        rng = np.random.default_rng(4)
        y = np.exp(-0.4) * _unit_vectors(rng, 200, 3)
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
        x = np.array([HALF_PI, 0.0, spec.s / 2])
        assert np.allclose(_lift_interp(x, spec), x, atol=1e-15)

    def test_pole_at_outer_boundary(self):
        spec = self._spec()
        x = np.array([0.0, 0.0, 0.0])  # x_n = t, chart center
        assert _lift_interp(x, spec)[-1] == pytest.approx(np.log(spec.K), abs=1e-14)

    def test_unit_factors_identity(self):
        spec = InterpSpec(K=1.0, L=1.0, s=-1.0, t=0.0, frame=_axis_frame(3))
        x = np.array([0.3, 0.1, -0.5])
        assert np.allclose(_lift_interp(x, spec), x)

    def test_outside_slab_rejected(self):
        spec = self._spec()
        # one row above the slab among rows inside it, then one below it
        x = np.array([[0.1, 0.1, -0.5], [0.1, 0.1, 1.0]])
        with pytest.raises(OutsideShellError):
            _lift_interp(x, spec)
        x[1, -1] = spec.s - 1e-6
        with pytest.raises(OutsideShellError):
            _lift_interp(x, spec)

    @pytest.mark.parametrize("n,K,L", [(3, 2.0, 2.0), (4, 5.0, 2.0)])
    def test_conjugacy(self, n, K, L):
        spec = self._spec(n, K, L)
        rng = np.random.default_rng(n)
        x = zorich.sample_fundamental(rng, 3000, n, height_range=(spec.s, spec.t))
        lhs = kernels.zorich_forward_batch(_lift_interp(x, spec))
        rhs = interp_stretch(kernels.zorich_forward_batch(x), spec)
        assert np.abs(lhs - rhs).max() <= 1e-9


class TestSpiralStretch:
    def test_zero_rate_is_axis_stretch(self):
        spec = SpiralSpec(K=2.0, alpha=0.0, frame=np.eye(3))
        rng = np.random.default_rng(5)
        y = rng.standard_normal((300, 3))
        axis1 = oriented_stretch(y, StretchSpec(K=2.0, frame=np.eye(3)))
        assert np.abs(spiral_stretch(y, spec) - axis1).max() <= 1e-12

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
            dirs = r * np.concatenate([_unit_vectors(rng, 10_000, 3), axes])
            img = np.linalg.norm(spiral_stretch(dirs, spec), axis=1)
            assert abs(img.max() - 2.0 * r) <= 1e-9 * r
            assert abs(img.min() - r) <= 1e-9 * r


class TestSpiralTransform:
    def test_axis_point_gains_log_k(self):
        out = kernels.spiral_u_batch([HALF_PI, 0.0, 0.0], 2.0, 0.0)
        # max-term 2/pi cancels; the shift is ln 2 - 0.5 ln(4 - 3)
        assert np.allclose(out, [HALF_PI, 0.0, np.log(2.0)], atol=1e-14)

    def test_quarter_phase_rotation(self):
        xn = 0.9
        out = kernels.spiral_u_batch([HALF_PI, 0.0, xn], 1.0, (np.pi / 2) / xn)
        assert np.allclose(out, [0.0, HALF_PI, xn], atol=1e-12)

    def test_max_norm_preserved(self):
        rng = np.random.default_rng(7)
        x = sample_region(rng, 10_000, 3, 0.3, margin=0.0)
        u = kernels.spiral_u_batch(x, 2.0, 0.3)
        gap = np.abs(
            np.max(np.abs(u[:, :-1]), axis=1) - np.max(np.abs(x[:, :-1]), axis=1)
        )
        assert gap.max() <= 1e-12

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
        for jac in kernels.spiral_jac_batch(pts, 2.0, 0.0):
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
        rng = np.random.default_rng(zlib.crc32(repr((n, p_kind, d_kind)).encode()))
        alpha, K = 0.25, 2.0
        pts = sample_region(rng, 100, n, alpha, p_kind=p_kind, d_kind=d_kind)
        ana = kernels.spiral_jac_batch(pts, K, alpha)
        fd = finite_diff_jacobian(lambda c: kernels.spiral_u_batch(c, K, alpha), pts, 1e-6)
        rel = np.abs(fd - ana).max(axis=(1, 2)) / np.abs(ana).max(axis=(1, 2))
        assert rel.max() <= 1e-5

    def test_rotation_block_structure(self):
        # third-pyramid region with the plain-coordinate candidate active:
        # rows 1-2 are the rotation block, the remaining chart rows are unit.
        n, alpha = 5, 0.3
        x = np.array([0.3, 0.2, 1.4, 0.35, 0.9])
        p, d, _, _ = kernels.spiral_region_batch(x, alpha)
        assert p[0] == 2 and d[0] == 2
        jac = kernels.spiral_jac_batch(x, 2.0, alpha)
        c, s = np.cos(alpha * 0.9), np.sin(alpha * 0.9)
        assert np.allclose(jac[0, :2], [c, -s], atol=1e-14)
        assert np.allclose(jac[1, :2], [s, c], atol=1e-14)
        assert np.allclose(jac[2, :4], [0, 0, 1, 0], atol=1e-14)
        assert np.allclose(jac[3, :4], [0, 0, 0, 1], atol=1e-14)


def _grid_points(n, res):
    """The (chart, phase) points of a certification grid, one lead row at a
    time, built independently of ``cm._spiral_grid``: chart point by chart
    point, the res phases of each consecutive, the phase in the last
    coordinate."""
    axis = np.linspace(-HALF_PI + cm.GRID_BAND, HALF_PI - cm.GRID_BAND, res)
    phases = np.linspace(0.0, 2.0 * np.pi, res, endpoint=False)
    tail = np.stack(
        [g.ravel() for g in np.meshgrid(*[axis] * (n - 2), indexing="ij")], axis=1
    )
    for lead in axis:
        chart = np.empty((len(tail), n - 1))
        chart[:, 0] = lead
        chart[:, 1:] = tail
        pts = np.empty((len(chart) * res, n))
        pts[:, :-1] = np.repeat(chart, res, axis=0)
        pts[:, -1] = np.tile(phases, len(chart))
        yield pts


class TestSelectAlpha:
    def test_floor_value_n3(self):
        assert cm.jacobian_floor(3) == 0.25

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
        # K = 8 halves alpha three times: four coarse and one fine check, on
        # grids each built once
        monkeypatch.setattr(cm, "_ALPHA_CACHE", {})
        cm._spiral_grid.cache_clear()
        assert select_alpha(8.0, n, grid=grid) == 0.125
        info = cm._spiral_grid.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 0, 2)
        select_alpha(3.0, n, grid=grid)
        for res in (grid, 2 * grid - 1):
            cm._spiral_grid(n, res)
        info = cm._spiral_grid.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 4, 2)

    def test_certification_grids(self):
        assert [cm.certification_grids(n) for n in (3, 4, 5)] == [
            (33, 65), (13, 25), (13, 25)]
        assert cm.certification_grids(3, 17) == (17, 33)
        assert cm.certification_grids(4, 33) == (13, 25)
        assert cm.certification_grids(4, 9) == (9, 17)

    @pytest.mark.parametrize("n, grid", [(3, 33), (4, 13)])
    def test_default_grid_per_dimension(self, monkeypatch, n, grid):
        monkeypatch.setattr(cm, "_ALPHA_CACHE", {})
        cm._spiral_grid.cache_clear()
        default = select_alpha(2.0, n)
        assert cm._spiral_grid.cache_info().currsize == 2
        monkeypatch.setattr(cm, "_ALPHA_CACHE", {})
        assert select_alpha(2.0, n, grid=grid) == default
        info = cm._spiral_grid.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 2, 2)

    def test_cached_rate_resolves_no_grid(self, monkeypatch):
        # a cached rate is returned before any public call, so a traced
        # select_alpha that makes no child call is a cache hit
        monkeypatch.setattr(cm, "_ALPHA_CACHE", {})
        calls, grids = [], cm.certification_grids
        monkeypatch.setattr(
            cm, "certification_grids", lambda *a: calls.append(a) or grids(*a))
        first = select_alpha(2.0, 3)
        assert calls == [(3, None)]
        assert select_alpha(2.0, 3) == first
        assert calls == [(3, None)]

    def test_small_grid_rejected(self):
        with pytest.raises(InvalidInputError):
            select_alpha(2.0, 3, grid=7)
        with pytest.raises(InvalidInputError):
            spiral_jacobian_scan(2.0, 3, 0.25, 7)

    @pytest.mark.parametrize(
        "K, n, alpha",
        [
            (np.nan, 3, 0.25),
            (np.inf, 3, 0.25),
            (0.5, 3, 0.25),
            (2.0, 2, 0.25),
            (2.0, 3, np.nan),
            (2.0, 3, np.inf),
        ],
        ids=["nan-K", "inf-K", "K-below-1", "n-2", "nan-alpha", "inf-alpha"],
    )
    def test_scan_rejects_bad_input(self, K, n, alpha):
        # validated as select_alpha does, before any grid is walked
        with pytest.raises(InvalidInputError):
            spiral_jacobian_scan(K, n, alpha, 17)

    @staticmethod
    def _check_scan(n, res, alpha, factors=(1.0, 2.0, 12.0)):
        # reference: keep every (chart, phase) point by its own region
        # margins, then take LAPACK's first minimum over all kept points,
        # one lead row of the grid at a time
        pts = []
        for row in _grid_points(n, res):
            _, _, pyr, switch = kernels.spiral_region_batch(row, 1.0)
            pts.append(row[(pyr >= cm.GRID_BAND) & (switch >= cm.GRID_BAND)])
            pts[-1][:, -1] = pts[-1][:, -1] / alpha if alpha != 0 else 0.0
        for K in factors:
            dets = np.concatenate(
                [np.linalg.det(kernels.spiral_jac_batch(p, K, alpha)) for p in pts])
            i = int(np.argmin(dets))
            worst, where = spiral_jacobian_scan(K, n, alpha, res)
            assert worst == dets[i]
            assert np.array_equal(where, np.concatenate(pts)[i])
        return np.count_nonzero(dets == dets[i])

    @pytest.mark.parametrize("alpha", [0.25, -0.125, 0.0])
    @pytest.mark.parametrize("n, res", [(3, 17), (4, 9), (5, 9)])
    def test_scan_matches_per_row_reference(self, n, res, alpha):
        self._check_scan(n, res, alpha)

    @pytest.mark.parametrize("alpha", [0.25, -0.125, 0.0])
    @pytest.mark.parametrize("n, res", [(3, 17), (4, 9), (5, 9)])
    def test_scan_blocks_match_per_row_reference(self, monkeypatch, n, res, alpha):
        # blocks of about 100 chart points and pairs: the first minimum and
        # its point must survive block boundaries
        cm._spiral_grid(n, res)  # a cached grid must not fix the blocks
        monkeypatch.setattr(cm, "_BLOCK", 100)
        sizes, screen = [], kernels._laplace_det
        monkeypatch.setattr(
            kernels, "_laplace_det", lambda jac: sizes.append(jac[0, 0].size) or screen(jac))
        self._check_scan(n, res, alpha)
        assert 0 < max(sizes) <= 100 and len(sizes) > 3

    @pytest.mark.parametrize("n, res", [(3, 33), (3, 65), (4, 13), (4, 25)])
    def test_scan_tie_break_across_sub_blocks(self, monkeypatch, n, res):
        # K = 1 at its certified rate: LAPACK's minimum is tied at several
        # pairs, which sub-blocks of about 100 pairs put in different
        # sub-blocks, each laid out phase by phase; the scan must return the
        # first of them chart point by chart point, as LAPACK over every pair
        # in row order does.  Ties inside one sub-block are met at the
        # default size (test_scan_matches_reference_on_cli_grids, res 65).
        monkeypatch.setattr(cm, "_BLOCK", 100)
        ties = self._check_scan(n, res, select_alpha(1.0, n), factors=(1.0,))
        assert ties > 1

    @pytest.mark.parametrize("K", [1.0, 2.0, 12.0])
    @pytest.mark.parametrize("n, res", [(3, 33), (3, 65), (4, 13), (4, 25)])
    def test_scan_matches_reference_on_cli_grids(self, n, res, K):
        # the grids verify spiral walks, at K's certified rate; at K = 1,
        # det = (m/d)^{n-1} is constant on whole regions of the grid, so the
        # screen keeps runs of tied pairs and LAPACK must find the first
        # minimum among them
        self._check_scan(n, res, select_alpha(K, n), factors=(K,))

    @pytest.mark.parametrize("n, res", [(3, 65), (4, 25)])
    def test_scan_matches_reference_at_zero_rate(self, monkeypatch, n, res):
        # verify spiral --alpha 0: det = 1 at every pair up to rounding, so
        # every pair is a candidate, and the screen's own minimum is not
        # LAPACK's at K = 12
        self._check_scan(n, res, 0.0)
        # the phases of a chart point all give one Jacobian, so LAPACK
        # factors at most one pair per chart point
        charts = cm._spiral_grid(n, res).power.size
        calls, det = [], np.linalg.det
        monkeypatch.setattr(np.linalg, "det", lambda a: calls.append(len(a)) or det(a))
        for K in (1.0, 2.0, 12.0):
            calls.clear()
            spiral_jacobian_scan(K, n, 0.0, res)
            assert 0 < sum(calls) <= charts

    @pytest.mark.parametrize("n, res", [(3, 17), (4, 9)])
    def test_scan_with_exact_screen(self, monkeypatch, n, res):
        # with a screen equal to LAPACK's dets and a zero bound, the
        # candidates are exactly the minimizers, and the first of them is kept
        def exact(jac):
            mats = np.moveaxis(jac, (0, 1), (-2, -1))
            return np.linalg.det(mats), np.zeros(jac.shape[2:])

        monkeypatch.setattr(kernels, "_laplace_det", exact)
        monkeypatch.setattr(cm, "_BLOCK", 100)
        self._check_scan(n, res, 0.25)

    def test_scan_calls_lapack_on_candidates_only(self, monkeypatch):
        # a sub-block whose screened minimum lies above the running worst
        # makes no LAPACK call, and the others pass only near-minimal pairs
        screens, calls = [], []
        screen, det = kernels._laplace_det, np.linalg.det
        monkeypatch.setattr(
            kernels, "_laplace_det", lambda jac: screens.append(jac[0, 0].size) or screen(jac))
        monkeypatch.setattr(np.linalg, "det", lambda a: calls.append(len(a)) or det(a))
        monkeypatch.setattr(cm, "_BLOCK", 100)
        spiral_jacobian_scan(2.0, 3, 0.25, 17)
        assert 0 < len(calls) < len(screens) / 2
        assert sum(calls) < sum(screens) / 20

    @pytest.mark.parametrize("n, res", [(3, 33), (3, 65), (4, 13), (4, 25), (5, 9)])
    def test_closed_form_matches_direct_dets(self, n, res):
        # the grid's phase-free factors give LAPACK's det at every kept pair,
        # with (m/d)^{n-1} taken at the pair's own phase
        grid = cm._spiral_grid(n, res)
        ph, ch = np.nonzero(grid.keep)
        for lo in range(0, len(ch), 2 ** 14):
            i, j = ch[lo:lo + 2 ** 14], ph[lo:lo + 2 ** 14]
            xb, phase = grid.coords[:, i].T, grid.phases[j]
            w = np.stack(kernels._rotated_cols(xb.T, np.cos(phase), np.sin(phase)), axis=1)
            power = (np.abs(xb).max(axis=1) / np.abs(w).max(axis=1)) ** (n - 1)
            for K, alpha in ((1.0, -0.5), (3.0, 0.25), (12.0, -0.03125)):
                x = np.empty((len(i), n))
                x[:, :-1] = xb
                x[:, -1] = phase / alpha
                direct = np.linalg.det(kernels.spiral_jac_batch(x, K, alpha))
                closed = cm._closed_form_det(power, grid.h[i], grid.ssq[i], K, alpha)
                np.testing.assert_allclose(closed, direct, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n, res", [(3, 17), (4, 9), (5, 9)])
    def test_phase_separable_build_matches_per_row(self, monkeypatch, n, res):
        # reference: classify every (chart, phase) row, rotate the kept rows
        # for (m/d)^{n-1}, then reduce over each chart point's phases
        coords, keep, power, h, ssq = [], [], [], [], []
        for pts in _grid_points(n, res):
            xb = pts[:, :-1]
            w = np.stack(
                kernels._rotated_cols(xb.T, np.cos(pts[:, -1]), np.sin(pts[:, -1])), axis=1)
            _, _, pyr, switch = kernels.spiral_region_batch(pts, 1.0)
            ref = (pyr >= cm.GRID_BAND) & (switch >= cm.GRID_BAND)
            low = np.full(len(pts), np.inf)
            low[ref] = (np.abs(xb[ref]).max(axis=1) / np.abs(w[ref]).max(axis=1)) ** (n - 1)
            low = low.reshape(-1, res).min(axis=1)
            has = np.isfinite(low)
            hh, ss = cm._phase_free_terms(xb[::res][has])
            coords.append(xb[::res][has])
            keep.append(ref.reshape(-1, res)[has])
            power.append(low[has])
            h.append(hh)
            ssq.append(ss)
        expected = dict(
            phases=np.linspace(0.0, 2.0 * np.pi, res, endpoint=False),
            coords=np.concatenate(coords).T,
            keep=np.concatenate(keep).T,
            power=np.concatenate(power),
            h=np.concatenate(h),
            ssq=np.concatenate(ssq),
        )
        # one build at the default blocks, one at blocks of about 100 pairs
        # and 100 chart points: both give the reference, so each other, bit
        # for bit
        rotate, terms = kernels._rotate_pair, cm._phase_free_terms
        for block in (cm._BLOCK, 100):
            monkeypatch.setattr(cm, "_BLOCK", block)
            pairs, charts = [], []
            monkeypatch.setattr(kernels, "_rotate_pair", lambda a, b, c, s: pairs.append(
                a.size * c.size) or rotate(a, b, c, s))
            monkeypatch.setattr(
                cm, "_phase_free_terms", lambda xb: charts.append(len(xb)) or terms(xb))
            grid = cm._spiral_grid.__wrapped__(n, res)
            assert max(pairs) <= max(block, res)
            assert max(charts) == min(block, grid.power.size)
            for name, want in expected.items():
                got = getattr(grid, name)
                assert not got.flags.writeable
                assert np.array_equal(got, want), name
        assert len(pairs) > 3 and len(charts) > 1

    @pytest.mark.parametrize("n, res", [(3, 33), (3, 65), (4, 13), (4, 25)])
    def test_alpha_free_floor(self, n, res):
        # d <= sqrt(2) m, so (m/d)^{n-1} >= 2^{-(n-1)/2} on every grid
        assert cm._spiral_grid(n, res).power.min() >= 2.0 ** (-(n - 1) / 2.0)

    @pytest.mark.parametrize(
        "n, grid, factors",
        [
            # alpha falls 0.5 -> 0.25 near K = 3.214 and 0.25 -> 0.125 near 6.153
            (3, 17, (1.0, 3.2, 3.23, 6.12, 6.19, 12.0)),
            # ... and near K = 3.534 and 6.790
            (4, 9, (1.0, 3.52, 3.55, 6.76, 6.82, 12.0)),
        ],
    )
    def test_select_matches_direct_halving(self, monkeypatch, n, grid, factors):
        monkeypatch.setattr(cm, "_ALPHA_CACHE", {})
        floor = 2.0 ** (-(n + 1) / 2.0)

        def direct(K, orientation):
            a = 0.5
            while True:
                alpha = orientation * a
                if all(spiral_jacobian_scan(K, n, alpha, g)[0] > floor
                       for g in (grid, 2 * grid - 1)):
                    return alpha
                a *= 0.5

        got = {(K, o): select_alpha(K, n, o, grid=grid) for K in factors for o in (1, -1)}
        assert got == {key: direct(*key) for key in got}
        assert {abs(a) for a in got.values()} == {0.5, 0.25, 0.125}
