"""Acceptance criteria, one test per criterion, each printing a status line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Criterion 5 asserts the eigenvalue window with its published lower
constant; that constant is twice the true minimum of the displacement form
(attained at the corners x = |y| = pi/2 of the verification region), so the
test fails by design -- see the companion corrected-window test and the
README note.  Everything else passes at the stated tolerances.
"""

import json
import time
import zlib

import numpy as np
import pytest

from conftest import circle_waypoints, last_axis_stretch
from qcmaps import canonical_maps as cm
from qcmaps import cli, distortion, kernels, realizer, zorich
from qcmaps.vecgeom import frame_from_direction, planar_rotation

E1 = np.array([1.0, 0.0, 0.0])
HALF_PI = np.pi / 2


def _report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")


def _axis_frame(n):
    e = np.zeros(n)
    e[-1] = 1.0
    return frame_from_direction(e)


def test_criterion_1_zorich_roundtrip():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (3, 4, 5):
        rng = np.random.default_rng(n)
        y = rng.standard_normal((10_000, n)) * np.exp(rng.uniform(-1, 1, (10_000, 1)))
        back = kernels.zorich_forward_batch(kernels.zorich_inverse_batch(y))
        rel = np.linalg.norm(back - y, axis=1) / np.linalg.norm(y, axis=1)
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    _report(1, ok, f"roundtrip rel err {worst:.2e} (<=1e-12), {elapsed:.2f}s (<5s)")
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_criterion_2_conjugacy():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for n in (3, 4):
        for K in (1.0, 2.0, 5.0):
            # last-axis stretch
            x = zorich.sample_fundamental(rng, 10_000, n)
            lifted = x.copy()
            lifted[:, -1] += cm.stretch_shift_batch(x[:, :-1], K)
            lhs = kernels.zorich_forward_batch(lifted)
            rhs = last_axis_stretch(kernels.zorich_forward_batch(x), K)
            worst = max(worst, float(np.abs(lhs - rhs).max()))

            # last-axis interpolation, L = 2
            L = 2.0
            s = -(2.0 * abs(np.log(K / L)) + 1.0)
            spec = cm.InterpSpec(K=K, L=L, s=s, t=0.0, frame=_axis_frame(n))
            x = zorich.sample_fundamental(rng, 10_000, n, height_range=(s, 0.0))
            lifted = x.copy()
            lifted[:, -1] += cm.interp_shift_batch(x[:, :-1], x[:, -1], spec)
            lhs = kernels.zorich_forward_batch(lifted)
            rhs = cm.interp_stretch(kernels.zorich_forward_batch(x), spec)
            worst = max(worst, float(np.abs(lhs - rhs).max()))

            # first-axis spiral
            alpha = 0.25
            sspec = cm.SpiralSpec(K=K, alpha=alpha, frame=np.eye(n))
            x = zorich.sample_fundamental(rng, 10_000, n, second_box=False)
            x = x[np.max(np.abs(x[:, :-1]), axis=1) > 1e-9]
            lhs = kernels.zorich_forward_batch(kernels.spiral_u_batch(x, K, alpha))
            rhs = cm.spiral_stretch(kernels.zorich_forward_batch(x), sspec)
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    _report(2, ok, f"conjugacy err {worst:.2e} (<=1e-9), {elapsed:.2f}s (<30s)")
    assert worst <= 1e-9
    assert elapsed < 30.0


def test_criterion_3_composition_law():
    spec = cm.StretchSpec(K=2.0, frame=np.eye(3))
    rot = planar_rotation(0.9, 0, 1, 3)
    resid = zorich.composition_residual(
        lambda y: cm.oriented_stretch(y, spec),
        lambda y: y @ rot.T,
        10_000,
        n=3,
        seed=1,
    )
    ok = resid <= 1e-9
    _report(3, ok, f"stretch/rotation composition residual {resid:.2e} (<=1e-9)")
    assert resid <= 1e-9


def test_criterion_4_linear_distortion_bound():
    rng = np.random.default_rng(2)
    pts = zorich.sample_fundamental(rng, 1000, 3, second_box=False)
    pts[:, :2] *= (HALF_PI - 1e-3) / HALF_PI
    worst = distortion.linear_distortion_numeric(
        kernels.zorich_forward_batch, pts, 1e-5, 64
    ).max()
    bound = cli.LINEAR_DISTORTION_BOUND
    ok = worst <= bound
    _report(4, ok, f"linear distortion {worst:.3f} <= 8L^2 = {bound:.1f}")
    assert worst <= bound


def _chart_eigen_extremes(res=200):
    ax = np.linspace(-HALF_PI, HALF_PI, res)
    gx, gy = np.meshgrid(ax, ax, indexing="ij")
    keep = (gx >= np.abs(gy)) & (gx > 0)
    xs, ys = gx[keep], gy[keep]
    q = (xs * xs + ys * ys) ** 2
    s2 = np.sin(xs) ** 2
    a11 = 1.0 + ys * ys * s2 / q
    a22 = xs * xs * s2 / q
    a12 = -xs * ys * s2 / q
    tr = a11 + a22
    disc = np.sqrt((a11 - a22) ** 2 + 4.0 * a12 * a12)
    return 0.5 * (tr - disc), 0.5 * (tr + disc)


def test_criterion_5_chart_eigenvalue_window_as_stated():
    lo, hi = _chart_eigen_extremes(200)
    stated_low = cli.CHART_EIG_LOW_STATED
    ok_hi = hi.max() <= cli.CHART_EIG_HIGH + 1e-9
    ok_lo = lo.min() >= stated_low - 1e-9
    _report(
        5,
        ok_lo and ok_hi,
        f"eigen range [{lo.min():.4f}, {hi.max():.4f}] vs stated window "
        f"[{stated_low:.4f}, {cli.CHART_EIG_HIGH:.4f}]"
        + ("" if ok_lo else " -- stated lower constant is 2x the true minimum"),
    )
    assert ok_hi
    assert ok_lo, (
        "The displacement form's minimum eigenvalue over {x >= |y|} is "
        f"{lo.min():.6f} = 4/(pi^2(2+sqrt6)), attained at the region corners "
        "x = |y| = pi/2; the stated constant 8/(pi^2(2+sqrt6)) doubles it "
        "(a factor 1/2 is dropped between lambda = (p - q)/2 and the bound "
        "on p - q).  The corrected window is verified in the companion test; "
        "see the README section on the acceptance test that fails by design."
    )


def test_criterion_5_corrected_window_and_positivity():
    lo, hi = _chart_eigen_extremes(200)
    ok = (
        lo.min() >= cli.CHART_EIG_LOW - 1e-9
        and hi.max() <= cli.CHART_EIG_HIGH + 1e-9
        and lo.min() > 0
    )
    _report(
        "5 (corrected)",
        ok,
        f"eigen range [{lo.min():.4f}, {hi.max():.4f}] within "
        f"[{cli.CHART_EIG_LOW:.4f}, {cli.CHART_EIG_HIGH:.4f}], positive",
    )
    assert ok


def test_criterion_6_transform_derivative_bounds():
    worst_margin = np.inf
    for K in (1.0, 2.0, 5.0):
        cfg = cli.RunConfig(K=K, grid=17)
        checks = cli._suite_stretch(cfg)
        assert all(c["passed"] for c in checks), checks
        worst_margin = min(worst_margin, min(c["margin"] for c in checks))
    for K in (1.0, 2.0, 5.0):
        for L in (1.0, 3.0):
            cfg = cli.RunConfig(K=K, L=L, grid=17)
            checks = cli._suite_interp(cfg)
            assert all(c["passed"] for c in checks), checks
            worst_margin = min(worst_margin, min(c["margin"] for c in checks))
    _report(
        6,
        True,
        f"slope/norm bounds hold for K in {{1,2,5}}, L in {{1,3}}; "
        f"worst margin {worst_margin:.3e}",
    )


def _region_samples(rng, m, n, alpha, p_kind, d_kind, margin=2e-3):
    out = np.empty((0, n))
    while len(out) < m:
        x = np.empty((50 * m, n))
        x[:, :-1] = rng.uniform(-HALF_PI + 1e-3, HALF_PI - 1e-3, (50 * m, n - 1))
        x[:, -1] = rng.uniform(-30.0, 30.0, 50 * m)
        p, d, pyr, sw = kernels.spiral_region_batch(x, alpha)
        sel = (pyr >= margin) & (sw >= margin)
        sel &= {"first": p == 0, "second": p == 1, "third": p >= 2}[p_kind]
        sel &= {"a": d == 0, "b": d == 1, "c": d >= 2}[d_kind]
        out = np.concatenate([out, x[sel]], axis=0)
    return out[:m]


def _fd_jacobian_batch(x, K, alpha, h=1e-6):
    m, n = x.shape
    jac = np.empty((m, n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        jac[:, :, j] = (
            kernels.spiral_u_batch(x + e, K, alpha)
            - kernels.spiral_u_batch(x - e, K, alpha)
        ) / (2.0 * h)
    return jac


def test_criterion_7_spiral_jacobians():
    K, alpha = 2.0, 0.25
    cases = [
        (3, "first", "a"),
        (3, "first", "b"),
        (3, "second", "a"),  # second-pyramid region via the same dispatch
        (3, "second", "b"),
        (5, "first", "c"),
        (5, "third", "a"),
        (5, "third", "b"),
        (5, "third", "c"),
    ]
    worst = 0.0
    for n, p_kind, d_kind in cases:
        rng = np.random.default_rng(zlib.crc32(repr((n, p_kind, d_kind)).encode()))
        pts = _region_samples(rng, 1000, n, alpha, p_kind, d_kind)
        ana = kernels.spiral_jac_batch(pts, K, alpha)
        fd = _fd_jacobian_batch(pts, K, alpha)
        scale = np.abs(ana).max(axis=(1, 2))
        rel = (np.abs(fd - ana).max(axis=(1, 2)) / scale).max()
        worst = max(worst, float(rel))
    fd_ok = worst <= 1e-5

    floors = []
    for K3 in (1.0, 2.0, 5.0):
        a = cm.select_alpha(K3, 3, grid=17)
        floors.append(cm.spiral_jacobian_scan(K3, 3, a, 17)[0])
    a5 = cm.select_alpha(2.0, 5, grid=9)
    floors5 = cm.spiral_jacobian_scan(2.0, 5, a5, 9)[0]
    det_ok = min(floors) >= 0.25 and floors5 >= 2.0 ** (-3.0)
    ok = fd_ok and det_ok
    _report(
        7,
        ok,
        f"analytic vs FD rel err {worst:.2e} (<=1e-5); "
        f"certified det floors n=3: {min(floors):.3f} (>=0.25), "
        f"n=5: {floors5:.3f} (>=0.125)",
    )
    assert fd_ok and det_ok


def test_criterion_8_mean_radius_lemma():
    # stretch by 8 along e_1 as a degenerate interpolation shell so the star-
    # shaped quadrature path (not the closed form) produces rho
    piece = realizer.ShellPiece(
        r_out=1.0,
        r_in=float(np.exp(-1.0)),
        kind="interp",
        frame=np.eye(3),
        K=8.0,
        L=8.0,
        s=-1.0,
        t=0.0,
    )
    rm_quad = realizer.RealizedMap(
        pieces=(piece,), outer_K=8.0, outer_frame=np.eye(3), n=3
    )
    r_mid = float(np.sqrt(piece.r_in * piece.r_out))
    ratio = realizer.mean_radius_batch(rm_quad, r_mid)[0] / r_mid
    quad_ok = abs(ratio - 2.0) <= 1e-3

    rm = realizer.RealizedMap(pieces=(), outer_K=8.0, outer_frame=np.eye(3), n=3)
    tip = realizer.orbit_table(rm, [0.2])["gamma"][0]
    tip_err = float(np.linalg.norm(tip - 4.0 * E1))
    tip_ok = tip_err <= 1e-6
    ok = quad_ok and tip_ok
    _report(
        8,
        ok,
        f"quadrature rho/r = {ratio:.6f} (2 +- 1e-3); |tip - 4 sigma| = "
        f"{tip_err:.2e} (<=1e-6)",
    )
    assert quad_ok and tip_ok


def test_criterion_9_end_to_end_realization():
    cm._ALPHA_CACHE.clear()  # time a cold, self-contained run
    cm._spiral_grid.cache_clear()
    t0 = time.perf_counter()
    target = realizer.TargetSet(waypoints=circle_waypoints())
    plans = realizer.plan_paths(target, 5)
    rm = realizer.build_map(plans, n=3)
    ts = realizer.default_orbit_times(rm, per_piece=200)
    gamma = realizer.orbit_table(rm, ts)["gamma"]

    errs = [
        float(np.linalg.norm(realizer.orbit_table(rm, [r])["gamma"][0] - u * sig))
        for r, u, sig in rm.checkpoints
    ]
    ck_ok = max(errs) <= 1e-6

    ang = np.linspace(0.0, np.pi / 2, 2000)
    X = np.stack([2 * np.cos(ang), 2 * np.sin(ang), np.zeros_like(ang)], axis=1)
    haus = []
    for k in range(1, 6):
        tail = gamma[ts <= rm.sweep_start_radius(k) * (1 + 1e-12)]
        haus.append(realizer.hausdorff_distance(tail, X))
    haus_ok = all(h <= 2.0 / k for k, h in enumerate(haus, start=1)) and all(
        b <= a + 1e-9 for a, b in zip(haus, haus[1:])
    )

    radii = np.linalg.norm(gamma, axis=1)
    annulus = (float(radii.min()), float(radii.max()))
    ann_ok = annulus[0] > 0 and np.isfinite(annulus[1])
    elapsed = time.perf_counter() - t0
    ok = ck_ok and haus_ok and ann_ok and elapsed < 60.0
    _report(
        9,
        ok,
        f"checkpoints {max(errs):.2e} (<=1e-6); hausdorff "
        f"{', '.join(f'{h:.4f}' for h in haus)} (<=2/k, non-increasing); "
        f"annulus [{annulus[0]:.3f}, {annulus[1]:.3f}]; {elapsed:.1f}s (<60s)",
    )
    assert ck_ok
    assert haus_ok
    assert ann_ok
    assert elapsed < 60.0


def test_criterion_10_continuity_injectivity_sense(quarter_circle_map):
    rm, _, _ = quarter_circle_map
    rng = np.random.default_rng(10)

    worst_gap = 0.0
    for i, p in enumerate(rm.pieces):
        dirs = rng.standard_normal((1000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        x = p.r_in * dirs
        # a spiral piece overwrites the points it is given
        above = realizer._apply_piece(p, x.copy(), np.full(1000, p.r_in))
        if i + 1 < len(rm.pieces):
            below = realizer._apply_piece(rm.pieces[i + 1], x.copy(), np.full(1000, p.r_in))
        else:
            below = realizer._apply_boundary_stretch(
                x, np.full(1000, p.r_in), rm.inner_K, rm.inner_frame
            )
        worst_gap = max(worst_gap, float(np.abs(above - below).max() / p.r_in))
    cont_ok = worst_gap <= 1e-9

    ratio = realizer.min_expansion_ratio(rm, 100_000, seed=11)
    inj_ok = ratio >= 1e-8

    # sense preservation: sampled Jacobians positive inside spiral shells,
    # log-coordinate determinant above the certified floor
    spiral = [p for p in rm.pieces if p.kind == "spiral"]
    jac_ok = True
    for p in spiral[:: max(1, len(spiral) // 8)]:
        for _ in range(16):
            v = rng.standard_normal(3)
            v *= np.sqrt(p.r_in * p.r_out) / np.linalg.norm(v)
            jac = distortion.finite_diff_jacobian(
                lambda y: realizer.eval_map_batch(rm, y), v, h=1e-8 * p.r_out
            )
            jac_ok &= np.linalg.det(jac) > 0
    pts = _region_samples(rng, 1000, 3, spiral[0].alpha, "first", "a")
    dets = np.linalg.det(kernels.spiral_jac_batch(pts, spiral[0].K, spiral[0].alpha))
    jac_ok &= bool(dets.min() >= 0.25)

    ok = cont_ok and inj_ok and jac_ok
    _report(
        10,
        ok,
        f"interface gap {worst_gap:.2e} (<=1e-9); expansion ratio {ratio:.3f} "
        f"(>=1e-8); spiral dets >= {dets.min():.3f}",
    )
    assert cont_ok and inj_ok and jac_ok


def test_criterion_11_probe_dichotomy(tmp_path):
    stretch_out = tmp_path / "stretch"
    assert (
        cli.main(
            ["probe", "--map", "stretch", "--K", "8", "--t", "1,0.2,0.04,0.008",
             "--grid", "32", "--out", str(stretch_out)]
        )
        == 0
    )
    simple = json.loads((tmp_path / "stretch.summary.json").read_text())

    target = tmp_path / "quarter.json"
    target.write_text(json.dumps({"waypoints": circle_waypoints().tolist()}))
    real_out = tmp_path / "real"
    assert (
        cli.main(
            ["probe", "--map", "realized", "--target", str(target), "--kmax", "3",
             "--t", "0.9,0.05,0.002", "--grid", "24", "--out", str(real_out)]
        )
        == 0
    )
    rich = json.loads((tmp_path / "real.summary.json").read_text())

    ok = simple["slice_variation"] <= 1e-9 and rich["slice_variation"] > 0.1
    _report(
        11,
        ok,
        f"stretch slices vary {simple['slice_variation']:.2e} (<=1e-9); "
        f"realized map slices vary {rich['slice_variation']:.3f} (>0.1)",
    )
    assert simple["slice_variation"] <= 1e-9
    assert rich["slice_variation"] > 0.1
