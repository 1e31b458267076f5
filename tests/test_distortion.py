import numpy as np
import pytest

from qcmaps import kernels, zorich
from qcmaps.canonical_maps import radial_stretch
from qcmaps.cli import CHART_EIG_HIGH, CHART_EIG_LOW, LINEAR_DISTORTION_BOUND
from qcmaps.distortion import (
    bilipschitz_form,
    distortion_report,
    finite_diff_jacobian,
    linear_distortion_numeric,
    report_from_jacobian,
)
from qcmaps.errors import (
    ChartSingularityError,
    DegenerateDerivativeError,
    InvalidInputError,
    StencilError,
)
from qcmaps.vecgeom import planar_rotation


class TestFiniteDiff:
    def test_exact_on_linear_maps(self):
        # zero truncation error on linear maps; a wider step suppresses the
        # cancellation noise of the tiny default step
        m = np.array([[2.0, 1.0, 0.0], [0.0, -1.0, 3.0], [0.5, 0.0, 1.0]])
        jac = finite_diff_jacobian(lambda y: m @ y, np.array([0.3, -0.2, 0.9]), 1e-3)
        assert np.abs(jac - m).max() <= 1e-10

    def test_stretch_derivative_oracle(self):
        # hand-differentiated: R(y) = s(c) y with s = K (K^2 + (1-K^2) c)^{-1/2},
        # c = y3^2/|y|^2, so R' = s I + y (ds/dc * grad c)^T.
        K = 2.0
        y0 = np.array([1.0, 0.0, 1.0])
        c = y0[2] ** 2 / (y0 @ y0)
        s = K / np.sqrt(K * K + (1 - K * K) * c)
        ds = -0.5 * K * (1 - K * K) * (K * K + (1 - K * K) * c) ** (-1.5)
        r2 = y0 @ y0
        grad_c = np.array(
            [
                -2 * y0[2] ** 2 * y0[0] / r2**2,
                -2 * y0[2] ** 2 * y0[1] / r2**2,
                2 * y0[2] / r2 - 2 * y0[2] ** 3 / r2**2,
            ]
        )
        oracle = s * np.eye(3) + np.outer(y0, ds * grad_c)
        jac = finite_diff_jacobian(lambda y: radial_stretch(y, K), y0)
        assert np.abs(jac - oracle).max() <= 1e-6

    def test_equator_derivative_is_identity(self):
        # on the equator the profile is flat to first order
        jac = finite_diff_jacobian(lambda y: radial_stretch(y, 2.0), [0.8, 0.6, 0.0])
        assert np.abs(jac - np.eye(3)).max() <= 1e-6

    def test_second_order_convergence(self):
        f = lambda y: np.array([y[0] ** 3, y[1] ** 2 * y[0], np.sin(y[2])])  # noqa: E731
        x = np.array([0.7, -0.4, 0.3])
        exact = np.array(
            [
                [3 * 0.7**2, 0, 0],
                [0.4**2, 2 * -0.4 * 0.7, 0],
                [0, 0, np.cos(0.3)],
            ]
        )
        errs = [
            np.abs(finite_diff_jacobian(f, x, h) - exact).max()
            for h in (1e-4, 5e-5, 2.5e-5)
        ]
        assert errs[0] / errs[1] > 3.0 and errs[1] / errs[2] > 3.0

    def test_stencil_failure(self):
        def partial(y):
            if y[0] > 1.0:
                raise ValueError("domain edge")
            return y

        with pytest.raises(StencilError):
            finite_diff_jacobian(partial, np.array([1.0, 0.0, 0.0]), 1e-3)


class TestDistortionReport:
    def test_diagonal_map(self):
        rep = distortion_report(lambda y: np.array([2.0, 1.0, 1.0]) * y, np.ones(3))
        assert rep.op_norm == pytest.approx(2.0, abs=1e-9)
        assert rep.min_sv == pytest.approx(1.0, abs=1e-9)
        assert rep.jac == pytest.approx(2.0, abs=1e-9)
        assert rep.k_outer == pytest.approx(4.0, abs=1e-8)
        assert rep.k_inner == pytest.approx(2.0, abs=1e-8)
        assert rep.h_linear == pytest.approx(2.0, abs=1e-9)

    def test_rotation_is_conformal(self):
        rot = planar_rotation(0.8, 0, 2, 3)
        rep = distortion_report(lambda y: rot @ y, np.array([0.2, 0.5, -1.0]))
        for v in (rep.k_outer, rep.k_inner, rep.h_linear):
            assert v == pytest.approx(1.0, abs=1e-9)

    def test_inner_outer_inequality(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            m = rng.standard_normal((3, 3))
            if abs(np.linalg.det(m)) < 1e-3:
                continue
            if np.linalg.det(m) < 0:
                m[0] = -m[0]
            rep = report_from_jacobian(m)
            assert rep.k_inner <= rep.k_outer ** 2 * (1 + 1e-6)
            assert rep.k_outer >= 1 - 1e-9 and rep.k_inner >= 1 - 1e-9
            assert rep.h_linear ** 2 >= max(rep.k_outer, rep.k_inner) * (1 - 1e-6)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateDerivativeError):
            report_from_jacobian(np.diag([1.0, 1.0, 1e-14]))


class TestLinearDistortion:
    def test_conformal(self):
        rot = planar_rotation(1.1, 0, 1, 3)
        h = linear_distortion_numeric(lambda y: 3.0 * (rot @ y), np.ones(3), 1e-4)
        assert h == pytest.approx(1.0, abs=1e-6)

    def test_diagonal_affine(self):
        m = np.diag([2.0, 1.0, 1.0])
        h = linear_distortion_numeric(lambda y: m @ y, np.array([0.4, 0.1, 0.0]), 1e-4)
        assert h == pytest.approx(2.0, abs=1e-6)

    def test_zorich_bound(self):
        rng = np.random.default_rng(1)
        x = zorich.sample_fundamental(rng, 100, 3, second_box=False)
        x[:, :2] *= (np.pi / 2 - 1e-3) / (np.pi / 2)
        worst = max(
            linear_distortion_numeric(zorich.zorich_forward, p, 1e-5, 64) for p in x
        )
        assert worst <= LINEAR_DISTORTION_BOUND


def _raising_map(y):
    raise ValueError("domain edge")


def _last_row_infinite(y):
    out = y.copy()
    out[-1, 0] = np.inf
    return out


class TestBatchContract:
    """An (m, n) batch goes to the map in one call and equals the stacked
    single-point results bit for bit."""

    @staticmethod
    def _points(n):
        rng = np.random.default_rng(n)
        x = zorich.sample_fundamental(rng, 40, n, second_box=False)
        x[:, :-1] *= (np.pi / 2 - 1e-3) / (np.pi / 2)
        return x

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("h", [None, 1e-6])
    def test_jacobian_matches_single_points(self, n, h):
        x = self._points(n)
        f = kernels.zorich_forward_batch
        single = np.stack([finite_diff_jacobian(f, p, h) for p in x])
        assert np.array_equal(finite_diff_jacobian(f, x, h), single)

    @pytest.mark.parametrize("n", [3, 4])
    def test_linear_distortion_matches_single_points(self, n):
        x = self._points(n)
        f = kernels.zorich_forward_batch
        single = [linear_distortion_numeric(f, p, 1e-5, 64, 7) for p in x]
        batch = linear_distortion_numeric(f, x, 1e-5, 64, 7)
        assert batch.shape == (len(x),)
        assert np.array_equal(batch, single)

    def test_one_map_call_per_batch(self):
        calls = []

        def f(y):
            calls.append(y.shape)
            return 2.0 * y

        x = self._points(3)
        assert finite_diff_jacobian(f, x, 1e-4).shape == (40, 3, 3)
        assert linear_distortion_numeric(f, x, 1e-4, 16).shape == (40,)
        assert calls == [(40 * 6, 3), (40 * 17, 3)]

    @pytest.mark.parametrize(
        "bad",
        [_raising_map, lambda y: y[:, :2], lambda y: y[0], _last_row_infinite],
        ids=["raises", "columns", "rows", "non-finite"],
    )
    def test_malformed_map_rejected(self, bad):
        x = self._points(3)
        with pytest.raises(StencilError):
            finite_diff_jacobian(bad, x, 1e-4)
        with pytest.raises(StencilError):
            linear_distortion_numeric(bad, x, 1e-4)

    def test_zero_displacement_at_one_point(self):
        x = np.array([[0.1, 0.2, 0.3], [5.0, 5.0, 5.0]])
        flat_far = lambda y: np.where(y[:, :1] > 4.0, 1.0, y)  # noqa: E731
        with pytest.raises(StencilError):
            linear_distortion_numeric(flat_far, x, 1e-3)

    def test_bad_batch_rejected(self):
        with pytest.raises(InvalidInputError):
            finite_diff_jacobian(lambda y: y, np.empty((0, 3)))
        with pytest.raises(InvalidInputError):
            linear_distortion_numeric(lambda y: y, np.full((2, 3), np.nan), 1e-3)


class TestBilipschitzForm:
    def test_edge_value(self):
        b = bilipschitz_form(np.pi / 2, 0.0)
        assert np.allclose(b, np.diag([1.0, 4.0 / np.pi**2]), atol=1e-15)
        assert np.allclose(np.linalg.eigvalsh(b), [4.0 / np.pi**2, 1.0])

    def test_window_on_grid(self):
        ax = np.linspace(-np.pi / 2, np.pi / 2, 200)
        worst_lo, worst_hi = np.inf, -np.inf
        for x in ax:
            for y in ax:
                if x < abs(y) or (x == 0 and y == 0):
                    continue
                lam = np.linalg.eigvalsh(bilipschitz_form(x, y))
                worst_lo = min(worst_lo, lam[0])
                worst_hi = max(worst_hi, lam[1])
        assert worst_lo > 0.0  # strictly positive everywhere sampled
        assert worst_lo >= CHART_EIG_LOW - 1e-9
        assert worst_hi <= CHART_EIG_HIGH + 1e-9

    def test_origin_rejected(self):
        with pytest.raises(ChartSingularityError):
            bilipschitz_form(0.0, 0.0)

    def test_outside_region_rejected(self):
        with pytest.raises(InvalidInputError):
            bilipschitz_form(0.1, 0.5)
