import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import circle_waypoints, wavy_map
from qcmaps import realizer as rz
from qcmaps.canonical_maps import (
    InterpSpec,
    SpiralSpec,
    StretchSpec,
    _interp_log_weight,
    _interp_pow_tables,
    interp_stretch,
    oriented_stretch,
    spiral_stretch,
)
from qcmaps.errors import InvalidInputError, OriginError, PlanningError
from qcmaps.vecgeom import fibonacci_sphere

E1 = np.array([1.0, 0.0, 0.0])


class TestTargetSet:
    def test_annulus_bound_inferred(self):
        t = rz.TargetSet(waypoints=np.array([[2.0, 0, 0], [0.0, 0.5, 0]]))
        assert t.annulus_bound >= 2.0

    def test_origin_waypoint_rejected(self):
        with pytest.raises(InvalidInputError):
            rz.TargetSet(waypoints=np.array([[0.0, 0, 0], [1.0, 0, 0]]))

    def test_coincident_waypoints_rejected(self):
        with pytest.raises(InvalidInputError):
            rz.TargetSet(waypoints=np.array([[1.0, 0, 0], [1.0, 0, 0]]))

    def test_annulus_violation_rejected(self):
        with pytest.raises(InvalidInputError):
            rz.TargetSet(waypoints=np.array([[3.0, 0, 0], [1.0, 0, 0]]), annulus_bound=2.0)

    @pytest.mark.parametrize(
        "waypoints",
        [
            [["a", 1, 2], [0, 2, 0]],
            [[2, 0, 0], [0, 2]],
            # numpy would read these as 2.0 and 1.0
            [["2", "0", "0"], [0, 2, 0]],
            [[2, 0, 0], [0, 2, True]],
            [np.array([2, 0, 0]), np.array([0, 2, 1], dtype=bool)],
            np.array([["2", "0", "0"], ["0", "2", "0"]]),
            np.array([[2, 0, 0], [0, 2, 0]], dtype=object),
        ],
        ids=["non-numeric", "ragged", "numeric-strings", "boolean", "boolean-row",
             "string-array", "object-array"],
    )
    def test_malformed_waypoints_rejected(self, waypoints):
        with pytest.raises(InvalidInputError, match="waypoints must be"):
            rz.TargetSet(waypoints=waypoints)


class TestPlanPaths:
    def test_singleton_target(self):
        t = rz.TargetSet(waypoints=np.array([[2.0, 0, 0]]))
        plans = rz.plan_paths(t, 4)
        assert plans == [[], [], [], []]

    def test_radial_segment_target(self):
        t = rz.TargetSet(waypoints=np.array([[1.0, 0, 0], [3.0, 0, 0]]))
        plans = rz.plan_paths(t, 3)
        for k, plan in enumerate(plans, start=1):
            assert len(plan) == 1 and isinstance(plan[0], rz.RadialSegment)
            if k % 2 == 1:
                assert (plan[0].u1, plan[0].u2) == (1.0, 3.0)
            else:
                assert (plan[0].u1, plan[0].u2) == (3.0, 1.0)
        # trace = the segment itself: zero Hausdorff gap to the polyline
        trace = np.concatenate([rz._segment_trace(s) for s in plans[0]])
        poly = rz._polyline_samples(t.waypoints, False)
        assert rz.hausdorff_distance(trace, poly) <= 1e-12

    def test_quarter_circle_arc_only(self):
        t = rz.TargetSet(waypoints=circle_waypoints())
        plans = rz.plan_paths(t, 5)
        assert all(isinstance(s, rz.ArcSegment) for s in plans[0])
        trace = np.concatenate([rz._segment_trace(s) for s in plans[0]])
        poly = rz._polyline_samples(t.waypoints, False)
        assert rz.hausdorff_distance(trace, poly) <= 0.5 / 5

    def test_wide_arc_subdivided(self):
        # hops of 0.6 pi exceed the quarter-turn cap and get split; radius 1
        # keeps the arc-chord gap inside the depth-1 tolerance
        w = circle_waypoints(radius=1.0, span=1.2 * np.pi, count=3)
        t = rz.TargetSet(waypoints=w)
        plans = rz.plan_paths(t, 1)
        assert len(plans[0]) == 4
        angles = [np.arccos(np.clip(s.sigma1 @ s.sigma2, -1.0, 1.0)) for s in plans[0]]
        assert max(angles) <= np.pi / 2 + 1e-9

    def test_antipodal_hop_rejected(self):
        t = rz.TargetSet(waypoints=np.array([[2.0, 0, 0], [-2.0, 0, 0]]))
        with pytest.raises(PlanningError):
            rz.plan_paths(t, 2)

    def test_sparse_waypoints_rejected_at_depth(self):
        # a half circle from two waypoint hops: fine at k = 1, too coarse deep
        w = circle_waypoints(span=np.pi * 0.9, count=3)
        t = rz.TargetSet(waypoints=w)
        rz.plan_paths(t, 1)
        with pytest.raises(PlanningError):
            rz.plan_paths(t, 30)

    def test_deep_k_max_rejected_before_planning(self):
        # the trace gap is checked before the k_max plan lists are built,
        # which at this depth would take tens of GB
        th = np.linspace(0.0, np.pi / 2, 12)
        r = 2.0 + 0.3 * np.sin(2.0 * th)
        t = rz.TargetSet(waypoints=np.stack([r * np.cos(th), r * np.sin(th), 0.0 * th], axis=1))
        start = time.perf_counter()
        with pytest.raises(PlanningError):
            rz.plan_paths(t, 10 ** 9)
        assert time.perf_counter() - start < 1.0

    def test_plans_chain_end_to_start(self):
        t = rz.TargetSet(waypoints=circle_waypoints(count=5))
        plans = rz.plan_paths(t, 4)
        for a, b in zip(plans[:-1], plans[1:]):
            end = a[-1].sigma2 if isinstance(a[-1], rz.ArcSegment) else a[-1].sigma
            start = b[0].sigma1 if isinstance(b[0], rz.ArcSegment) else b[0].sigma
            assert np.allclose(end, start, atol=1e-12)


class TestBuildMap:
    def test_empty_plan_is_identity(self):
        rm = rz.build_map([[], []], n=3)
        assert len(rm.pieces) == 0 and rm.outer_K == 1.0
        x = np.array([0.3, -0.4, 1.2])
        assert np.allclose(rz.eval_map_batch(rm, x), x)

    def test_single_radial_piece_factors(self):
        seg = rz.RadialSegment(1.0, 2.0, E1)
        rm = rz.build_map([[seg]])
        assert len(rm.pieces) == 1
        p = rm.pieces[0]
        assert p.kind == "interp"
        assert p.K == pytest.approx(1.0)
        assert p.L == pytest.approx(2.0 ** 1.5)
        # boundary maps are the pure stretches with those factors
        rng = np.random.default_rng(0)
        dirs = rng.standard_normal((200, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        for r, kfac in ((p.r_out, p.K), (p.r_in, p.L)):
            got = rz.eval_map_batch(rm, r * dirs)
            want = oriented_stretch(
                r * dirs, StretchSpec(K=kfac, frame=np.eye(3))
            )
            assert np.abs(got - want).max() <= 1e-12 * r

    def test_single_arc_piece(self):
        seg = rz.ArcSegment(1.0, E1, np.array([0.0, 1.0, 0.0]))
        rm = rz.build_map([[seg]])
        p = rm.pieces[0]
        assert p.kind == "spiral" and p.K == pytest.approx(1.0)
        assert p.theta == pytest.approx(np.pi / 2)
        expected_exit = p.frame @ rz.planar_rotation(np.pi / 2, 0, 1, 3)
        assert np.allclose(p.exit_frame, expected_exit)

    def test_shell_radii_stop_where_squares_underflow(self):
        # a 120-waypoint closed loop at k_max 3 needs shells down to about
        # 1e-183, whose points have |x|^2 = 0 in float64: planning refuses
        # it, where evaluation used to reject its orbit as the origin
        th = np.arange(120) * np.pi / 60
        r = 2.0 + 0.3 * np.sin(2.0 * th)
        w = np.stack([r * np.cos(th), r * np.sin(th), 0.0 * th], axis=1)
        plans = rz.plan_paths(rz.TargetSet(waypoints=w, closed=True), 3)
        with pytest.raises(PlanningError, match="shell radii underflow"):
            rz.build_map(plans, n=3)
        assert np.exp(rz._LOG_RADIUS_FLOOR) ** 2 >= np.finfo(float).tiny

    def test_interface_agreement(self, quarter_circle_map):
        rm, _, _ = quarter_circle_map
        rng = np.random.default_rng(1)
        worst = 0.0
        for i, p in enumerate(rm.pieces):
            dirs = rng.standard_normal((100, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            x = p.r_in * dirs
            # a spiral piece overwrites the points it is given
            above = rz._apply_piece(p, x.copy(), np.full(100, p.r_in))
            if i + 1 < len(rm.pieces):
                below = rz._apply_piece(rm.pieces[i + 1], x.copy(), np.full(100, p.r_in))
            else:
                below = rz._apply_boundary_stretch(
                    x, np.full(100, p.r_in), rm.inner_K, rm.inner_frame
                )
            worst = max(worst, np.abs(above - below).max() / p.r_in)
        assert worst <= 1e-9

    @pytest.mark.parametrize("n", [3, 4])
    def test_vectorized_slerp_matches_scalar_calls(self, n):
        def scalar_slerp(s1, s2, tau):
            theta = np.arccos(np.clip(s1 @ s2, -1.0, 1.0))
            return (
                np.sin((1.0 - tau) * theta) * s1 + np.sin(tau * theta) * s2
            ) / np.sin(theta)

        rng = np.random.default_rng(n)
        for _ in range(5):
            s1, s2 = rng.standard_normal((2, n))
            s1, s2 = s1 / np.linalg.norm(s1), s2 / np.linalg.norm(s2)
            # the trace fractions and the subdivision fractions j / parts
            for taus in (np.linspace(0.0, 1.0, 64), np.arange(4) / 3):
                want = np.stack([scalar_slerp(s1, s2, t) for t in taus])
                assert np.array_equal(rz._slerp(s1, s2, taus), want)
        assert np.array_equal(rz._slerp(E1, E1, [0.0, 0.5]), np.stack([E1, E1]))

    def test_out_of_plane_arc_rejected(self):
        segs = [
            rz.ArcSegment(1.0, E1, np.array([0.0, 1.0, 0.0])),
            rz.ArcSegment(1.0, np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])),
        ]
        with pytest.raises(PlanningError):
            rz.build_map([segs])


class TestEvalMap:
    def test_outer_identity(self):
        rm = rz.build_map([[]], n=3)
        x = np.array([5.0, 1.0, -2.0])
        assert np.allclose(rz.eval_map_batch(rm, x), x)

    def test_origin_rejected(self):
        rm = rz.build_map([[]], n=3)
        with pytest.raises(OriginError):
            rz.eval_map_batch(rm, np.zeros(3))

    @pytest.mark.parametrize(
        "x",
        [[[np.nan, 0.0, 0.0]], [[0.5, 0.0, 0.0], [0.0, np.inf, 0.0]], np.empty((0, 3))],
        ids=["nan", "inf", "empty"],
    )
    def test_non_finite_or_empty_rejected(self, quarter_circle_map, x):
        rm, _, _ = quarter_circle_map
        with pytest.raises(InvalidInputError):
            rz.eval_map_batch(rm, x)

    def test_pure_stretch_configuration(self):
        # degenerate single-piece map (K = L) reproduces the oriented stretch
        rm = rz.RealizedMap(
            pieces=(
                rz.ShellPiece(
                    r_out=1.0,
                    r_in=float(np.exp(-1.0)),
                    kind="interp",
                    frame=np.eye(3),
                    K=2.0 ** 1.5,
                    L=2.0 ** 1.5,
                    s=-1.0,
                    t=0.0,
                ),
            ),
            outer_K=2.0 ** 1.5,
            outer_frame=np.eye(3),
            n=3,
        )
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((300, 3))
        pts = pts[np.linalg.norm(pts, axis=1) > 1e-3]
        spec = StretchSpec(K=2.0 ** 1.5, frame=np.eye(3))
        got = rz.eval_map_batch(rm, pts)
        assert np.abs(got - oriented_stretch(pts, spec)).max() <= 1e-12


@pytest.fixture(scope="module", params=[3, 4])
def radial_map(request):
    """Map of a radial target built at r_start = 1: its first shell interpolates."""
    w = np.zeros((2, request.param))
    w[:, 0] = [3.0, 1.5]
    target = rz.TargetSet(waypoints=w)
    return rz.build_map(rz.plan_paths(target, 2), n=request.param)


_directions = st.lists(
    st.floats(-1.0, 1.0, allow_nan=False), min_size=4, max_size=4
).filter(lambda v: np.linalg.norm(v[:3]) > 0.1)


def _first_shell_point(piece, n, direction, depth):
    """(1, n) point in the first shell at log-depth fraction `depth` in [0, 1]."""
    v = np.array(direction[:n])
    v /= np.linalg.norm(v)
    return (v * np.exp(depth * np.log(piece.r_in / piece.r_out)))[None, :]


class TestShellsMatchLibraryMaps:
    """With r_start = 1 the first shell is the library map in the shell's frame."""

    @settings(max_examples=200, deadline=None)
    @given(direction=_directions, depth=st.floats(0.0, 1.0))
    def test_spiral_shell(self, quarter_circle_map, direction, depth):
        rm = quarter_circle_map[0]
        p = rm.pieces[0]
        assert p.kind == "spiral" and p.r_out == 1.0
        x = _first_shell_point(p, rm.n, direction, depth)
        r = np.linalg.norm(x, axis=1)
        want = spiral_stretch(x @ p.frame.T, SpiralSpec(p.K, p.alpha, p.frame))
        assert np.abs(rz._apply_piece(p, x, r) - want).max() <= 1e-13 * r[0]

    @settings(max_examples=200, deadline=None)
    @given(direction=_directions, depth=st.floats(0.0, 1.0))
    def test_interp_shell(self, radial_map, direction, depth):
        p = radial_map.pieces[0]
        assert p.kind == "interp" and p.r_out == 1.0
        x = _first_shell_point(p, radial_map.n, direction, depth)
        r = np.linalg.norm(x, axis=1)
        spec = InterpSpec(p.K, p.L, p.s, p.t, p.frame)
        want = interp_stretch(x @ p.frame.T, spec)
        assert np.abs(rz._apply_piece(p, x, r) - want).max() <= 1e-13 * r[0]


@pytest.fixture(scope="module", params=[3, 4])
def mixed_map(request):
    """Map whose shell stack alternates spiral and interpolation shells:
    arcs at radii 2 and 3 joined by a radial move, swept both ways."""
    n = request.param
    th = np.array([0.0, 0.4, 0.4, 0.8])
    w = np.zeros((4, n))
    w[:, 0] = np.array([2.0, 2.0, 3.0, 3.0]) * np.cos(th)
    w[:, 1] = np.array([2.0, 2.0, 3.0, 3.0]) * np.sin(th)
    rm = rz.build_map(rz.plan_paths(rz.TargetSet(waypoints=w), 2), n=n)
    assert {p.kind for p in rm.pieces} == {"spiral", "interp"}
    return rm


def _stack_radii(rm, depths):
    """Radii at log-depth fractions of [2 r_start, r_end / 2] (0 = outermost)."""
    hi, lo = np.log(2.0 * rm.r_start), np.log(0.5 * rm.r_end)
    return np.exp(hi + np.asarray(depths, dtype=float) * (lo - hi))


_stack_points = st.lists(
    st.tuples(_directions, st.floats(0.0, 1.0)), min_size=1, max_size=24
)


class TestRealizedMapProperties:
    @settings(max_examples=60, deadline=None)
    @given(points=_stack_points)
    def test_batch_matches_single_points(self, mixed_map, points):
        rm = mixed_map
        dirs = np.array([d[: rm.n] for d, _ in points])
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        x = dirs * _stack_radii(rm, [t for _, t in points])[:, None]
        batch = rz.eval_map_batch(rm, x)
        single = np.stack([rz.eval_map_batch(rm, p) for p in x])
        # one-row and many-row matrix products may round differently
        scale = np.linalg.norm(single, axis=1)
        assert np.all(np.abs(batch - single).max(axis=1) <= 8 * np.finfo(float).eps * scale)

    @settings(max_examples=60, deadline=None)
    @given(steps=st.lists(st.integers(0, 4000), min_size=2, max_size=40, unique=True))
    def test_mean_radius_monotone(self, mixed_map, steps):
        # adjacent radii are at least 1/4000 of the log range apart and
        # d ln rho / d ln r > 1/2 in every shell, so rho rises by far more
        # than the quadrature error (~1e-5 relative) by which it can jump at
        # an interpolation shell's sphere
        radii = _stack_radii(mixed_map, np.sort(steps)[::-1] / 4000.0)
        rho = rz.mean_radius_batch(mixed_map, radii)
        assert np.all(np.diff(rho) > 0.0)

    @settings(max_examples=60, deadline=None)
    @given(direction=_directions)
    def test_continuous_across_shell_spheres(self, mixed_map, direction):
        rm = mixed_map
        v = np.array(direction[: rm.n])
        v /= np.linalg.norm(v)
        for r in [p.r_out for p in rm.pieces] + [rm.r_end]:
            above = rz.eval_map_batch(rm, v * r * (1.0 + 1e-12))
            below = rz.eval_map_batch(rm, v * r * (1.0 - 1e-12))
            assert np.abs(above - below).max() <= 1e-9 * r

    @settings(max_examples=60, deadline=None)
    @given(points=_stack_points, data=st.data())
    def test_batch_order_does_not_matter(self, mixed_map, points, data):
        rm = mixed_map
        dirs = np.array([d[: rm.n] for d, _ in points])
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        r = _stack_radii(rm, [t for _, t in points])
        x = dirs * r[:, None]
        perm = np.array(data.draw(st.permutations(range(len(x)))))
        eps = 8 * np.finfo(float).eps
        got, want = rz.eval_map_batch(rm, x[perm]), rz.eval_map_batch(rm, x)[perm]
        codes = rz._locate(rm, r)
        counts = np.bincount(codes + 1)
        if counts[counts > 0].min() >= 2:
            assert np.array_equal(got, want)
        else:
            scale = np.linalg.norm(want, axis=1)
            assert np.all(np.abs(got - want).max(axis=1) <= eps * scale)
        # rho is row-local everywhere, the interpolation-shell quadrature too
        got, want = rz.mean_radius_batch(rm, r[perm]), rz.mean_radius_batch(rm, r)[perm]
        assert np.array_equal(got, want)


class TestRegionDispatch:
    """The sorted-run dispatch against the one-mask-per-region dispatch it
    replaced, copied here as the reference."""

    @staticmethod
    def masked_eval(rm, x):
        a = np.atleast_2d(np.asarray(x, dtype=float))
        r = np.linalg.norm(a, axis=1)
        idx = rz._locate(rm, r)
        out = np.empty_like(a)
        for code in np.unique(idx):
            sel = idx == code
            if code == -1:
                out[sel] = rz._apply_boundary_stretch(a[sel], r[sel], rm.outer_K, rm.outer_frame)
            elif code == len(rm.pieces):
                out[sel] = rz._apply_boundary_stretch(a[sel], r[sel], rm.inner_K, rm.inner_frame)
            else:
                out[sel] = rz._apply_piece(rm.pieces[code], a[sel], r[sel])
        return out

    @staticmethod
    def masked_mean_radius(rm, radii):
        r = np.atleast_1d(np.asarray(radii, dtype=float))
        idx = rz._locate(rm, r)
        n = rm.n
        out = np.empty_like(r)
        for code in np.unique(idx):
            sel = idx == code
            if code == -1:
                out[sel] = rm.outer_K ** (1.0 / n) * r[sel]
            elif code == len(rm.pieces):
                out[sel] = rm.inner_K ** (1.0 / n) * r[sel]
            else:
                p = rm.pieces[code]
                if p.kind == "spiral":
                    out[sel] = p.K ** (1.0 / n) * r[sel]
                else:
                    rs = r[sel]
                    res = np.empty_like(rs)
                    at_out = np.abs(np.log(rs / p.r_out)) <= 1e-9
                    at_in = np.abs(np.log(rs / p.r_in)) <= 1e-9
                    res[at_out] = p.K ** (1.0 / n) * rs[at_out]
                    res[at_in] = p.L ** (1.0 / n) * rs[at_in]
                    mid = ~(at_out | at_in)
                    if np.any(mid):
                        nu = (np.log(rs[mid]) - np.log(p.r_in)) / (p.t - p.s)
                        mean = rz._mean_pow(p, nu, n)
                        res[mid] = mean ** (1.0 / n) * rs[mid]
                    out[sel] = res
        return out

    def assert_matches_masked(self, rm, r):
        dirs = np.random.default_rng(0).standard_normal((len(r), rm.n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        x = dirs * np.asarray(r)[:, None]
        assert np.array_equal(rz.eval_map_batch(rm, x), self.masked_eval(rm, x))
        assert np.array_equal(rz.mean_radius_batch(rm, r), self.masked_mean_radius(rm, r))

    def test_identity_map(self):
        rm = rz.build_map([[]], n=3)
        r = np.geomspace(40.0, 1e-3, 25)
        assert set(rz._locate(rm, r).tolist()) == {-1}
        self.assert_matches_masked(rm, r)

    def test_inside_one_shell(self, mixed_map):
        p = mixed_map.pieces[1]
        assert p.kind == "interp"
        r = np.random.default_rng(1).permutation(np.geomspace(p.r_out, p.r_in, 300)[1:-1])
        assert set(rz._locate(mixed_map, r).tolist()) == {1}
        self.assert_matches_masked(mixed_map, r)

    def test_one_row_per_region(self, mixed_map):
        rm = mixed_map
        bounds = [2.0 * rm.r_start] + [np.sqrt(p.r_out * p.r_in) for p in rm.pieces]
        r = np.array(bounds + [0.5 * rm.r_end])[::-1]
        assert rz._locate(rm, r).tolist() == list(range(len(rm.pieces), -2, -1))
        self.assert_matches_masked(rm, r)

    def test_radii_on_shell_spheres(self, mixed_map):
        rm = mixed_map
        r = np.array([p.r_out for p in rm.pieces] + [rm.r_end])
        self.assert_matches_masked(rm, np.concatenate([r, r[::-1]]))

    @pytest.mark.parametrize("pieces", [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65])
    def test_locate_matches_searchsorted(self, pieces):
        # radii on every shell sphere and one ulp either side, against a
        # two-step form: the shell by np.searchsorted over the negated outer
        # radii, then the inner closure split off by the last r_in
        r_out = np.geomspace(4.0, 0.5, pieces)
        stack = SimpleNamespace(pieces=[
            SimpleNamespace(r_out=r, r_in=r * 0.9) for r in r_out
        ])
        inner = r_out[-1] * 0.9
        spheres = np.append(r_out, inner)
        r = np.concatenate([
            spheres, np.nextafter(spheres, np.inf), np.nextafter(spheres, 0.0),
            [8.0, np.inf, 1e-300],
        ])
        k = np.searchsorted(-r_out, -r, side="left") - 1
        want = np.where((k == pieces - 1) & (r < inner), pieces, k)
        got = rz._locate(stack, r)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert set(got.tolist()) == set(range(-1, pieces + 1))

    def test_codes_beyond_int16(self):
        order, runs = rz._region_runs(np.array([40000, -1, 40000, 5, -1]))
        assert order.tolist() == [1, 4, 3, 0, 2]
        assert runs == [(-1, 0, 2), (5, 2, 3), (40000, 3, 5)]


class TestMeanRadius:
    def test_pure_stretch_k8(self):
        rm = rz.RealizedMap(pieces=(), outer_K=8.0, outer_frame=np.eye(3), n=3)
        assert rz.mean_radius_batch(rm, 0.37)[0] / 0.37 == pytest.approx(2.0, abs=1e-12)

    def test_identity_everywhere(self):
        rm = rz.build_map([[]], n=3)
        r = np.array([0.01, 1.0, 40.0])
        assert np.allclose(rz.mean_radius_batch(rm, r), r, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize(
        "radii", [[np.nan], [0.5, np.inf], []], ids=["nan", "inf", "empty"]
    )
    def test_non_finite_or_empty_rejected(self, quarter_circle_map, radii):
        rm, _, _ = quarter_circle_map
        with pytest.raises(InvalidInputError):
            rz.mean_radius_batch(rm, radii)
        if radii:
            with pytest.raises(InvalidInputError):
                rz.orbit_table(rm, radii)

    @staticmethod
    def _interp_piece(n):
        return rz.ShellPiece(
            r_out=1.0, r_in=float(np.exp(-3.0)), kind="interp", frame=np.eye(n),
            K=1.7, L=5.3, s=-3.0, t=0.0,
        )

    @staticmethod
    def _shell_nu(rows):
        nu = np.random.default_rng(rows).uniform(0.0, 1.0, rows)
        nu[0] = 1.0  # the outer sphere
        if rows > 1:
            nu[-1] = 0.0  # the inner sphere
        return nu

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("count", ["one", "block-1", "block+1", "199"])
    def test_blocked_quadrature_matches_unblocked(self, n, count):
        def unblocked_mean_pow(piece, nu):
            # the whole (rows x distinct nodes) matrix at once
            u2, weights = rz._sphere_rule(n)
            a, b = _interp_pow_tables(u2, piece.K, piece.L, n)
            return np.einsum("ij,j->i", np.exp(nu[:, None] * b + a), weights)

        block = rz._BLOCK // rz._sphere_rule(n)[0].size
        rows = {"one": 1, "block-1": block - 1, "block+1": block + 1, "199": 199}[count]
        piece, nu = self._interp_piece(n), self._shell_nu(rows)
        assert np.array_equal(rz._mean_pow(piece, nu, n), unblocked_mean_pow(piece, nu))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_distinct_nodes_match_full_rule(self, n):
        # the full rule, every node with its own weight, summed by BLAS: the
        # distinct-node quadrature differs from it by rounding only
        if n == 3:
            u = fibonacci_sphere(rz.FIBONACCI_POINTS)[:, 0]
            weights = np.full(u.size, 1.0 / u.size)
        else:
            u, gl_w = np.polynomial.legendre.leggauss(rz.GAUSS_NODES)
            w = gl_w * (1.0 - u * u) ** ((n - 3) / 2.0)
            weights = w / w.sum()
        piece, nu = self._interp_piece(n), self._shell_nu(199)
        logmu = _interp_log_weight((u * u)[None, :], nu[:, None], piece.K, piece.L)
        want = np.exp(n * logmu) @ weights
        got = rz._mean_pow(piece, nu, n)
        assert np.all(np.abs(got - want) <= 1e-14 * want)

    @pytest.mark.parametrize("n, nodes", [(3, 2048), (4, 128), (5, 128)])
    def test_sphere_rule_distinct_nodes(self, n, nodes):
        u2, weights = rz._sphere_rule(n)
        assert u2.size == weights.size == nodes
        assert np.all(np.diff(u2) > 0.0)
        assert weights.sum() == pytest.approx(1.0, abs=1e-14)

    def test_one_radius_alone_matches_batch(self, mixed_map):
        rm = mixed_map
        r = _stack_radii(rm, np.linspace(0.0, 1.0, 301))
        kinds = np.array(["outer"] + [p.kind for p in rm.pieces] + ["inner"])
        assert np.sum(kinds[rz._locate(rm, r) + 1] == "interp") > 50
        alone = np.array([rz.mean_radius_batch(rm, x)[0] for x in r])
        assert np.array_equal(alone, rz.mean_radius_batch(rm, r))

    def test_quadrature_vs_monte_carlo(self):
        seg = rz.RadialSegment(1.0, 2.0, E1)
        rm = rz.build_map([[seg]])
        p = rm.pieces[0]
        r_mid = float(np.sqrt(p.r_in * p.r_out))
        rho = rz.mean_radius_batch(rm, r_mid)[0]
        rng = np.random.default_rng(3)
        dirs = rng.standard_normal((1_000_000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        img = rz.eval_map_batch(rm, r_mid * dirs)
        rho_mc = float(np.mean(np.linalg.norm(img, axis=1) ** 3) ** (1.0 / 3.0))
        assert abs(rho - rho_mc) / rho_mc <= 1e-2


def _raise_recording_buffer(seen):
    """A stand-in for a numpy call or a generator in a scoped loop: it
    records numpy's ufunc buffer size and raises."""

    def boom(*args, **kwargs):
        seen.append(np.getbufsize())
        raise RuntimeError("raised inside the scoped loop")

    return boom


class TestRowBuffer:
    # the quadrature and the Hausdorff scan set numpy's ufunc buffer for
    # their blocks only, and give the caller's size back even when one raises

    def test_quadrature_restores_buffer(self, mixed_map, monkeypatch):
        r = rz.default_orbit_times(mixed_map, per_piece=20)
        before = np.getbufsize()
        assert before != rz._ROW_BUFFER
        rz.mean_radius_batch(mixed_map, r)
        assert np.getbufsize() == before
        seen = []
        monkeypatch.setattr(np, "exp", _raise_recording_buffer(seen))
        with pytest.raises(RuntimeError, match="scoped loop"):
            rz.mean_radius_batch(mixed_map, r)
        assert seen == [rz._ROW_BUFFER]
        assert np.getbufsize() == before

    def test_hausdorff_scan_restores_buffer(self, monkeypatch):
        a, b, starts = _staircase(3)
        before = np.getbufsize()
        assert before != rz._ROW_BUFFER
        rz.hausdorff_by_suffix(a, b, starts)
        assert np.getbufsize() == before
        seen = []
        monkeypatch.setattr(rz, "_kept_rows", _raise_recording_buffer(seen))
        with pytest.raises(RuntimeError, match="scoped loop"):
            rz.hausdorff_by_suffix(a, b, starts)
        assert seen == [rz._ROW_BUFFER]
        assert np.getbufsize() == before


def _gamma(rm, t_values):
    """The orbit curve gamma(t) = f(t e_1) / rho_f(t) at each t."""
    return rz.orbit_table(rm, t_values)["gamma"]


class TestOrbit:
    def test_rescaled_tip_matches_volume_normalization(self):
        # global stretch by K: the e_1 tip rescales to K^{1-1/n} sigma
        rm = rz.RealizedMap(pieces=(), outer_K=8.0, outer_frame=np.eye(3), n=3)
        assert np.allclose(_gamma(rm, [0.11])[0], [4.0, 0, 0], atol=1e-12)

    def test_rescaled_map_homogeneous(self):
        # f(t x) / rho_f(t) does not depend on t for a global stretch
        rm = rz.RealizedMap(pieces=(), outer_K=3.0, outer_frame=np.eye(3), n=3)
        x = np.array([0.3, 0.4, 0.5])
        t = np.array([0.5, 0.01])
        f_t = rz.eval_map_batch(rm, t[:, None] * x) / rz.mean_radius_batch(rm, t)[:, None]
        assert np.abs(f_t[0] - f_t[1]).max() <= 1e-12

    def test_identity_orbit_constant(self):
        rm = rz.build_map([[]], n=3)
        gamma = _gamma(rm, np.geomspace(1.0, 1e-4, 50))
        assert np.abs(gamma - E1).max() <= 1e-12

    def test_radial_plan_checkpoints(self):
        seg = rz.RadialSegment(1.0, 2.0, E1)
        rm = rz.build_map([[seg]])
        p = rm.pieces[0]
        g_out, g_in = _gamma(rm, [p.r_out, p.r_in])
        assert np.linalg.norm(g_out - E1) <= 1e-6
        assert np.linalg.norm(g_in - 2.0 * E1) <= 1e-6

    def test_radial_orbit_direction_and_range(self):
        seg = rz.RadialSegment(1.0, 2.0, E1)
        rm = rz.build_map([[seg, rz.RadialSegment(2.0, 1.0, E1)]])
        ts = rz.default_orbit_times(rm, per_piece=150)
        gamma = _gamma(rm, ts)
        assert np.abs(gamma[:, 1:]).max() <= 1e-6
        radii = gamma[:, 0]
        assert radii.min() >= 1.0 - 1e-6 and radii.max() <= 2.0 + 1e-6
        assert radii.min() <= 1.0 + 1e-3 and radii.max() >= 2.0 - 1e-3

    def test_quarter_circle_checkpoints(self, quarter_circle_map):
        rm, _, _ = quarter_circle_map
        r, u, sig = (np.array(v) for v in zip(*rm.checkpoints))
        errs = np.linalg.norm(_gamma(rm, r) - u[:, None] * sig, axis=1)
        assert errs.max() <= 1e-6

    def test_orbit_in_annulus(self, quarter_circle_map):
        rm, _, _ = quarter_circle_map
        ts = rz.default_orbit_times(rm, per_piece=60)
        radii = np.linalg.norm(_gamma(rm, ts), axis=1)
        assert radii.min() >= 1.0 / 2.5 and radii.max() <= 2.5

    @staticmethod
    def _per_shell_times(rm, per_piece):
        # one np.geomspace per shell: the reference for default_orbit_times
        ts = [np.geomspace(2.0 * rm.r_start, rm.r_start, 4, endpoint=False)]
        for p in rm.pieces:
            ts.append(np.geomspace(p.r_out, p.r_in, per_piece, endpoint=False))
        ts.append(np.array([rm.r_end]))
        return np.concatenate(ts)

    @pytest.mark.parametrize("per_piece", [1, 2, 3, 200, 10000])
    @pytest.mark.parametrize("name", ["arc", "wavy", "4-D", "one shell"])
    def test_orbit_times_match_per_shell_grids(self, orbit_maps, name, per_piece):
        rm = orbit_maps[name]
        got = rz.default_orbit_times(rm, per_piece=per_piece)
        assert got.size == 5 + len(rm.pieces) * per_piece
        assert np.array_equal(got, self._per_shell_times(rm, per_piece))
        # realize takes each sweep's samples, t <= its start radius, as the
        # suffix that one np.searchsorted over -t finds
        assert np.all(np.diff(got) < 0)


@pytest.fixture(scope="module")
def orbit_maps(quarter_circle_map):
    """The quarter-circle and wavy-target maps, a 4-D arc map and a
    one-shell map."""
    maps = {
        "arc": quarter_circle_map[0],
        "wavy": wavy_map(),
        "4-D": rz.build_map(
            rz.plan_paths(rz.TargetSet(waypoints=circle_waypoints(n=4)), 2), n=4
        ),
        "one shell": rz.build_map([[rz.RadialSegment(1.0, 2.0, E1)]]),
    }
    assert len(maps["one shell"].pieces) == 1
    return maps


class TestHausdorff:
    def test_identical_sets(self):
        pts = np.random.default_rng(4).uniform(-1, 1, (50, 3))
        assert rz.hausdorff_distance(pts, pts) == 0.0

    def test_point_pair(self):
        assert rz.hausdorff_distance([[0.0, 0, 0]], [[1.0, 0, 0]]) == 1.0

    def test_concentric_circles(self):
        th = np.linspace(0, 2 * np.pi, 3000, endpoint=False)
        c1 = np.stack([np.cos(th), np.sin(th), 0 * th], axis=1)
        c2 = 2.0 * c1
        assert rz.hausdorff_distance(c1, c2) == pytest.approx(1.0, abs=1e-5)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            rz.hausdorff_distance(np.empty((0, 3)), np.ones((1, 3)))

    def test_symmetric_on_realize_orbit(self, quarter_circle_map):
        # swapping the sets only flips the sign of each coordinate
        # difference, so the distance is the same to the bit
        rm, target, _ = quarter_circle_map
        gamma = _gamma(rm, rz.default_orbit_times(rm, per_piece=60))
        poly = rz._polyline_samples(target.waypoints, target.closed)
        d = rz.hausdorff_distance(gamma, poly)
        assert d > 0.0 and d == rz.hausdorff_distance(poly, gamma)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        # max(0.0, nan) is 0.0, so a NaN sample would read as distance 0
        pts = np.ones((4, 3))
        pts[2, 1] = bad
        with pytest.raises(InvalidInputError):
            rz.hausdorff_distance([[bad, 0.0, 0.0]], [[1.0, 0.0, 0.0]])
        with pytest.raises(InvalidInputError):
            rz.hausdorff_by_suffix(pts, np.zeros((2, 3)), [0])
        with pytest.raises(InvalidInputError):
            rz.hausdorff_by_suffix(np.zeros((2, 3)), pts, [0, 1])


def _hausdorff_reference(a, b):
    """Brute-force Hausdorff distance from explicit coordinate differences."""

    def directed(p, q):
        worst = 0.0
        for x in p:
            diff = x[None, :] - q
            worst = max(worst, float(np.sqrt(np.sum(diff * diff, axis=1).min())))
        return worst

    return max(directed(a, b), directed(b, a))


def _suffix_cases(n, rows=400):
    """(a, b) pairs of n-point samples, keyed by what decides the distance.

    In "receding" the rows of `a` move away from the tiny cloud `b` toward
    index 0, so the a-to-b direction decides and each start changes it.  In
    "spread" `b` densely covers the segment whose far end the suffix of `a`
    leaves behind, so the b-to-a direction decides, again at every start.
    """
    rng = np.random.default_rng(n)
    dirs = rng.standard_normal((rows, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    receding = dirs * (3.0 + 0.01 * np.arange(rows, 0, -1))[:, None]
    line = 1e-4 * rng.standard_normal((rows, n))
    line[:, 0] += 0.1 * np.arange(rows, 0, -1)
    segment = np.zeros((2 * rows, n))
    segment[:, 0] = np.linspace(0.1, 0.1 * rows, 2 * rows)
    return {
        "random": (rng.standard_normal((rows, n)), rng.standard_normal((90, n))),
        "receding": (receding, rng.uniform(-1e-3, 1e-3, (90, n))),
        "spread": (line, segment),
        "one-row-b": (rng.standard_normal((rows, n)), rng.standard_normal((1, n))),
    }


def _staircase(n, sweeps=4, hops=8):
    """Orbit-like samples around a polyline in R^n: (a, b, sweep starts).

    `b` samples the polyline through `hops` + 1 waypoints on r = 2 + 0.3 sin
    2theta.  `a` holds 4 outer samples, then `sweeps` staircases, each hop an
    arc at the entry radius followed by a radial move, jittered by 0.01 / k
    in sweep k so that each sweep start changes the distance.
    """
    th = np.linspace(0.0, np.pi / 2, hops + 1)
    radius = 2.0 + 0.3 * np.sin(2.0 * th)
    lift = 0.1 * np.sin(3.0 * th)
    way = np.zeros((hops + 1, n))
    way[:, 0], way[:, 1], way[:, -1] = radius * np.cos(th), radius * np.sin(th), lift
    b = rz._polyline_samples(way, False)
    rng = np.random.default_rng(n)
    u = np.linspace(0.0, 1.0, 50, endpoint=False)
    parts, starts = [way[0] * np.linspace(2.0, 1.25, 4)[:, None]], []
    for k in range(1, sweeps + 1):
        starts.append(sum(len(p) for p in parts))
        for i in range(hops):
            ang = th[i] + (th[i + 1] - th[i]) * u
            arc = np.zeros((len(u), n))
            arc[:, 0], arc[:, 1] = radius[i] * np.cos(ang), radius[i] * np.sin(ang)
            arc[:, -1] = lift[i] + (lift[i + 1] - lift[i]) * u
            r = radius[i] + (radius[i + 1] - radius[i]) * u
            radial = np.zeros((len(u), n))
            radial[:, 0], radial[:, 1] = r * np.cos(th[i + 1]), r * np.sin(th[i + 1])
            radial[:, -1] = lift[i + 1]
            parts += [arc, radial]
        parts[-2 * hops:] = [p + rng.normal(0.0, 0.01 / k, p.shape) for p in parts[-2 * hops:]]
    return np.concatenate(parts), b, starts


def _lattice(length=200):
    """Points of a length x 2 x 2 integer lattice and the centres of its
    cells, in x-major order: every distance between the sets ties with many
    others, exactly, and the long axis lets the chunk balls cull."""
    axes = np.arange(length, dtype=float), np.arange(2.0), np.arange(2.0)
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    centres = grid[np.all(grid < [length - 1, 1, 1], axis=1)] + 0.5
    return grid, centres, [0, 50, 100, 150, len(grid) - 1]


def _touching_ball(seed):
    """A chunk ball that touches the nearest sample of `b` to x0, and a
    second chunk one rounding step farther away: (a, b).

    `b` is one chunk of 8 antipodal pairs on a sphere whose nearest point to
    x0 lies on the line through its centre, so the ball's lower bound equals
    that distance up to rounding, then 16 copies of the point whose squared
    distance to x0 is the next float up.  `a` is 16 copies of x0 followed by
    copies of both chunks, so the distance is x0's own: the first chunk's.
    """
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-1.0, 1.0, 3)
    v = rng.standard_normal((8, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    gap = rng.uniform(1.0, 3.0)
    radius = rng.uniform(0.1, 0.45) * gap
    ball = x0 + (gap + radius) * v[0] + radius * np.concatenate([-v, v])
    near = ((ball - x0) ** 2).sum(axis=1).min()
    far = x0 + np.array([np.sqrt(near), 0.0, 0.0])
    while ((far - x0) ** 2).sum() <= near:
        far[0] = np.nextafter(far[0], np.inf)
    b = np.concatenate([ball, np.repeat(far[None], 16, axis=0)])
    return np.concatenate([np.repeat(x0[None], 16, axis=0), b]), b


class TestHausdorffBySuffix:
    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("case", ["random", "receding", "spread", "one-row-b"])
    def test_matches_brute_force(self, n, case):
        a, b = _suffix_cases(n)[case]
        last = len(a) - 1
        starts = [0, last, 200, 7, 200, last, 0, 300]  # unsorted, repeated
        got = rz.hausdorff_by_suffix(a, b, starts)
        assert got == [_hausdorff_reference(a[s:], b) for s in starts]

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("case", ["receding", "spread"])
    def test_every_start_matters(self, n, case):
        # guards the cases above: a start off by one changes the reference
        a, b = _suffix_cases(n)[case]
        for s in (1, 7, 200, 300, len(a) - 2):
            ref = _hausdorff_reference(a[s:], b)
            assert ref != _hausdorff_reference(a[s - 1 :], b)
            assert ref != _hausdorff_reference(a[s + 1 :], b)

    def test_whole_set_is_hausdorff_distance(self):
        a, b = _suffix_cases(3)["random"]
        assert rz.hausdorff_by_suffix(a, b, [0]) == [rz.hausdorff_distance(a, b)]
        assert rz.hausdorff_distance(a, b) == _hausdorff_reference(a, b)

    @pytest.mark.parametrize("case", ["receding", "spread", "random"])
    def test_larger_set_scanned_as_a(self, case, monkeypatch):
        a, b = _suffix_cases(3)[case]
        b = b[: len(a) // 3]
        want = rz.hausdorff_distance(a, b)
        calls = []
        scan = rz.hausdorff_by_suffix

        def recorded(x, y, starts):
            calls.append((len(x), len(y)))
            return scan(x, y, starts)

        monkeypatch.setattr(rz, "hausdorff_by_suffix", recorded)
        assert rz.hausdorff_distance(b, a) == want
        assert calls == [(len(a), len(b))]

    @pytest.mark.parametrize(
        "rows_a, rows_b, starts",
        [
            # len(b) above the block size: blocks split the columns of a run
            # of chunks of b
            (6, rz._BLOCK + 5, [0, 5]),
            # starts inside chunks of `a` and on their edges, which leave
            # ragged chunks
            (100, 1000, [0, 99, 37, 4, 68, 5]),
            # one start inside the first chunk of `a`
            (20, 1000, [3, 0]),
        ],
        ids=["one-row-blocks", "ragged", "partial-block"],
    )
    def test_block_edges_match_brute_force(self, rows_a, rows_b, starts):
        rng = np.random.default_rng(rows_a)
        a = rng.standard_normal((rows_a, 3)) * np.linspace(3.0, 1.0, rows_a)[:, None]
        b = rng.standard_normal((rows_b, 3))
        got = rz.hausdorff_by_suffix(a, b, starts)
        assert got == [_hausdorff_reference(a[s:], b) for s in starts]

    def test_no_starts(self):
        assert rz.hausdorff_by_suffix(np.ones((3, 3)), np.zeros((2, 3)), []) == []

    @pytest.mark.parametrize("start", [-1, 3])
    def test_empty_suffix_rejected(self, start):
        with pytest.raises(InvalidInputError):
            rz.hausdorff_by_suffix(np.ones((3, 3)), np.zeros((2, 3)), [start])

    @pytest.mark.parametrize("block", [None, 100])
    @pytest.mark.parametrize("n", [3, 4])
    def test_staircase_matches_brute_force(self, monkeypatch, n, block):
        # orbit-like samples, where most chunk pairs are culled; with blocks
        # of 100 pairs, runs of kept rows are split inside and across sweeps
        if block is not None:
            monkeypatch.setattr(rz, "_BLOCK", block)
        a, b, sweeps = _staircase(n)
        starts = [sweeps[2], 0, *sweeps, len(a) - 1, sweeps[1] + 5]
        got = rz.hausdorff_by_suffix(a, b, starts)
        assert got == [_hausdorff_reference(a[s:], b) for s in starts]

    @pytest.mark.parametrize("offset", [0.0, 1e8])
    @pytest.mark.parametrize("case", ["staircase", "lattice"])
    def test_ties_and_offsets_match_brute_force(self, case, offset):
        # the lattice ties many distances exactly, and an offset of 1e8 makes
        # the chunk centres and radii round at 1e-8 while distances stay O(1)
        a, b, starts = _staircase(3) if case == "staircase" else _lattice()
        shift = offset * np.array([1.0, -1.0, 0.5])
        a, b = a + shift, b + shift
        got = rz.hausdorff_by_suffix(a, b, starts)
        assert got == [_hausdorff_reference(a[s:], b) for s in starts]
        # one suffix is symmetric in the two sets
        assert rz.hausdorff_distance(b, a[starts[0]:]) == got[0]

    @pytest.mark.parametrize("scale", [1.0, 1e-162])
    def test_ball_touching_the_minimum_is_kept(self, scale):
        # the rounding of a ball's centre and radius can put its lower bound
        # above the next chunk's upper bound, a few ulps from a tie; only the
        # slack on the bounds keeps the pair that holds the minimum.  At
        # 1e-162 the squared distances are subnormal, and the relative slack
        # alone culls some of those pairs.
        for seed in range(300):
            a, b = (scale * x for x in _touching_ball(seed))
            assert rz.hausdorff_by_suffix(a, b, [0]) == [_hausdorff_reference(a, b)]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_curves_match_brute_force(self, data):
        n = data.draw(st.sampled_from([3, 4]))
        rows_a, rows_b = data.draw(st.integers(1, 160)), data.draw(st.integers(1, 80))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        offset = data.draw(st.sampled_from([0.0, 1e3, 1e8]))
        a = offset + np.cumsum(rng.standard_normal((rows_a, n)) * rng.uniform(0.01, 1.0), axis=0)
        b = offset + np.cumsum(rng.standard_normal((rows_b, n)) * rng.uniform(0.01, 1.0), axis=0)
        starts = data.draw(st.lists(st.integers(0, rows_a - 1), min_size=1, max_size=6))
        got = rz.hausdorff_by_suffix(a, b, starts)
        assert got == [_hausdorff_reference(a[s:], b) for s in starts]

    def test_overflowing_bounds_keep_every_pair(self):
        # the chunk centres lie 1.4e154 apart, so their squared distance
        # overflows, yet the nearest pair across them is 2e152 apart
        line = np.linspace(0.01e154, 1.39e154, 16)[:, None] * [1.0, 0.0, 0.0]
        a, b = np.concatenate([line, -line]), np.concatenate([-line, line[1:]])
        with np.errstate(over="ignore"):
            # the scan squares the 2.78e154 distances across the chunks too
            assert rz.hausdorff_by_suffix(a, b, [0]) == [_hausdorff_reference(a, b)] == [2e152]

    @pytest.mark.parametrize("case", ["staircase", "cloud"])
    def test_bounds_stream_in_blocks(self, monkeypatch, case):
        # the chunk bounds come in blocks of about _BLOCK entries, and the
        # kept rows of each chunk of b do not depend on where the blocks end;
        # each chunk of b is its own run, and in the cloud it keeps every row
        if case == "staircase":
            a, b, starts = _staircase(3)
        else:
            rng = np.random.default_rng(1)
            a, b, starts = rng.standard_normal((300, 3)), rng.standard_normal((200, 3)), [0]
        a, seg_lo = a[starts[0]:], [s - starts[0] for s in starts]
        cols_a, cols_b = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
        runs = list(rz._kept_rows(cols_a, cols_b, seg_lo))
        chunks = [(c, min(c + rz._CHUNK, len(b))) for c in range(0, len(b), rz._CHUNK)]
        assert [(c0, c1) for c0, c1, _ in runs] == chunks
        if case == "cloud":
            assert all(np.array_equal(rows, np.arange(len(a))) for _, _, rows in runs)
        blocks, chunk_keep = [], rz._chunk_keep

        def spy(*args):
            for j0, keep in chunk_keep(*args):
                blocks.append(keep.shape)
                yield j0, keep

        monkeypatch.setattr(rz, "_chunk_keep", spy)
        monkeypatch.setattr(rz, "_BLOCK", 1)
        small = list(rz._kept_rows(cols_a, cols_b, seg_lo))
        assert len(blocks) > 1
        assert all(rows * cols <= max(rz._BLOCK, cols) for rows, cols in blocks)
        assert [(c0, c1) for c0, c1, _ in small] == [(c0, c1) for c0, c1, _ in runs]
        for (_, _, got), (_, _, want) in zip(small, runs):
            assert np.array_equal(np.arange(len(a))[got], np.arange(len(a))[want])

    def test_orbit_like_scan_is_culled(self, monkeypatch):
        # switching culling off keeps every pair and fails this
        a, b, starts = _staircase(3)
        scanned, kept_rows = [], rz._kept_rows

        def spy(cols_a, cols_b, seg_lo):
            for c0, c1, rows in kept_rows(cols_a, cols_b, seg_lo):
                scanned.append((c1 - c0) * np.arange(cols_a.shape[1])[rows].size)
                yield c0, c1, rows

        monkeypatch.setattr(rz, "_kept_rows", spy)
        got = rz.hausdorff_by_suffix(a, b, starts)
        assert got == [_hausdorff_reference(a[s:], b) for s in starts]
        assert 0 < sum(scanned) < (len(a) - starts[0]) * len(b) / 4


class TestInjectivity:
    def test_expansion_ratio_positive(self, quarter_circle_map):
        rm, _, _ = quarter_circle_map
        ratio = rz.min_expansion_ratio(rm, 20_000, seed=5)
        assert ratio >= 1e-8
