"""Workload op lists and the seeded inputs they run on.

Each workload is a fixed list of op names.  ``verify`` and ``realize`` ops are
CLI commands, each run in a fresh worker process; ``bulk`` ops are library
calls on large seeded batches, all run in one worker after one set-up.

The seed only shapes inputs: it generates the bulk batches and rotates the
realize targets (a rotated target stays on one great circle, so it remains
realizable).  The ``verify`` commands run at CLI defaults and ignore it.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

SUITES = ("zorich", "stretch", "interp", "spiral", "bilipschitz")
REFERENCE_SEED = 0

VERIFY_OPS = tuple(f"verify.{s}.n{d}" for s in SUITES for d in (3, 4))
REALIZE_OPS = ("realize.arc", "realize.wavy", "probe.realized", "probe.spiral")

BULK_ROWS = 200_000
RADIUS_ROWS = 2_000
RESIDUAL_SAMPLES = 20_000
KERNELS = (
    "zorich_forward_batch",
    "zorich_inverse_batch",
    "canonicalize_batch",
    "spiral_u_batch",
    "spiral_jac_batch",
    "spiral_region_batch",
)
BULK_OPS = (
    tuple(f"kernels.{k}.n{d}" for d in (3, 4) for k in KERNELS)
    + (
        "canonical_maps.spiral_stretch",
        "canonical_maps.oriented_stretch",
        "canonical_maps.interp_stretch",
        "realizer.eval_map_batch",
        "realizer.mean_radius_batch",
        "zorich.composition_residual",
    )
)

WORKLOADS = {"verify": VERIFY_OPS, "realize": REALIZE_OPS, "bulk": BULK_OPS}
# The hostspeed loop whose time best tracks each workload's op times: the
# verify suites are per-point Python loops, realize is dominated by array
# scans (hausdorff_distance, select_alpha), bulk by whole-array calls.
SAMPLE_KIND = {"verify": "interp", "realize": "vector", "bulk": "vector"}

# Spiral parameters of the bulk kernel inputs; any admissible pair will do,
# the calls only evaluate.
SPIRAL_K, SPIRAL_ALPHA = 2.0, 0.125


def rotation(seed, n=3):
    """Seeded rotation (det +1) applied to the realize targets."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def arc_waypoints():
    """16 waypoints on the radius-2 quarter circle in the (1,2)-plane."""
    th = np.linspace(0.0, np.pi / 2, 16)
    return np.stack([2.0 * np.cos(th), 2.0 * np.sin(th), np.zeros_like(th)], axis=1)


def wavy_waypoints():
    """12 waypoints on r = 2 + 0.3 sin 2theta, theta in [0, pi/2]."""
    th = np.linspace(0.0, np.pi / 2, 12)
    r = 2.0 + 0.3 * np.sin(2.0 * th)
    return np.stack([r * np.cos(th), r * np.sin(th), np.zeros_like(th)], axis=1)


def write_targets(seed, work):
    """Write the rotated arc and wavy target files; returns their paths."""
    rot = rotation(seed)
    paths = {}
    for name, pts in (("arc", arc_waypoints()), ("wavy", wavy_waypoints())):
        path = Path(work) / f"{name}.target.json"
        path.write_text(json.dumps({"waypoints": (pts @ rot.T).tolist()}))
        paths[name] = str(path)
    return paths


def cli_argv(op, targets, out):
    """The `qcmaps` argument list of a verify or realize op."""
    kind, what, *rest = op.split(".")
    if kind == "verify":
        return ["verify", what, "--dim", rest[0][1:]]
    if op == "realize.arc":
        return ["realize", targets["arc"], "--kmax", "5", "--out", out]
    if op == "realize.wavy":
        return ["realize", targets["wavy"], "--kmax", "3", "--out", out]
    if op == "probe.realized":
        return ["probe", "--map", "realized", "--target", targets["arc"],
                "--t", "0.9,0.05,0.002", "--out", out]
    if op == "probe.spiral":
        return ["probe", "--map", "spiral", "--t", "1,0.1,0.01", "--out", out]
    raise ValueError(f"unknown op {op!r}")


def _log_uniform_points(rng, m, n, lo, hi):
    v = rng.standard_normal((m, n))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v * np.exp(rng.uniform(np.log(lo), np.log(hi), m))[:, None]


def _spiral_box(rng, kernels, m, n, margin=1e-3):
    """First-box samples clear of pyramid faces and rotation switches."""
    half = np.pi / 2
    x = np.empty((4 * m, n))
    x[:, :-1] = rng.uniform(-half + margin, half - margin, (4 * m, n - 1))
    x[:, -1] = rng.uniform(-2.0, 2.0, 4 * m)
    _, _, pyr, sw = kernels.spiral_region_batch(x, SPIRAL_ALPHA)
    return np.ascontiguousarray(x[(pyr >= margin) & (sw >= margin)][:m])


def bulk_setup(seed, qc):
    """Seeded bulk inputs plus the prebuilt wavy map.

    Returns {op name: zero-argument callable}.  Each callable looks its
    function up on the module at call time, so traced wrappers installed
    after set-up still see every call.
    """
    kernels, cm, realizer, zorich = qc.kernels, qc.canonical_maps, qc.realizer, qc.zorich
    rng = np.random.default_rng(seed)
    rot = rotation(seed)
    m = BULK_ROWS
    ops = {}
    for n in (3, 4):
        x = zorich.sample_fundamental(rng, m, n)
        y = rng.standard_normal((m, n)) * np.exp(rng.uniform(-1, 1, (m, 1)))
        wide = rng.uniform(-6.0, 6.0, (m, n))
        box = _spiral_box(rng, kernels, m, n)
        args = {
            "zorich_forward_batch": (x,),
            "zorich_inverse_batch": (y,),
            "canonicalize_batch": (wide,),
            "spiral_u_batch": (box, SPIRAL_K, SPIRAL_ALPHA),
            "spiral_jac_batch": (box, SPIRAL_K, SPIRAL_ALPHA),
            "spiral_region_batch": (box, SPIRAL_ALPHA),
        }
        for k, a in args.items():
            ops[f"kernels.{k}.n{n}"] = (lambda k=k, a=a: getattr(kernels, k)(*a))

    y3 = _log_uniform_points(rng, m, 3, 0.05, 20.0)
    shell = _log_uniform_points(rng, m, 3, np.exp(-2.0), 1.0)
    spiral = cm.SpiralSpec(K=SPIRAL_K, alpha=SPIRAL_ALPHA, frame=rot)
    stretch = cm.StretchSpec(K=2.0, frame=rot)
    interp = cm.InterpSpec(K=2.0, L=3.0, s=-2.0, t=0.0, frame=rot)
    ops["canonical_maps.spiral_stretch"] = lambda: cm.spiral_stretch(y3, spiral)
    ops["canonical_maps.oriented_stretch"] = lambda: cm.oriented_stretch(y3, stretch)
    ops["canonical_maps.interp_stretch"] = lambda: cm.interp_stretch(shell, interp)

    target = realizer.TargetSet(waypoints=wavy_waypoints() @ rot.T)
    rm = realizer.build_map(realizer.plan_paths(target, 3), n=3)
    lo, hi = 0.5 * rm.r_end, 2.0 * rm.r_start
    pts = _log_uniform_points(rng, m, 3, lo, hi)
    radii = np.exp(rng.uniform(np.log(lo), np.log(hi), RADIUS_ROWS))
    ops["realizer.eval_map_batch"] = lambda: realizer.eval_map_batch(rm, pts)
    ops["realizer.mean_radius_batch"] = lambda: realizer.mean_radius_batch(rm, radii)

    turn = np.eye(3)
    turn[:2, :2] = [[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]]
    ops["zorich.composition_residual"] = lambda: zorich.composition_residual(
        lambda v: cm.oriented_stretch(v, stretch),
        lambda v: v @ turn.T,
        RESIDUAL_SAMPLES,
        n=3,
        seed=seed,
    )
    return ops


def bulk_rows():
    """Input rows one bulk pass processes (the numerator of points_per_s)."""
    return (
        2 * len(KERNELS) * BULK_ROWS + 4 * BULK_ROWS + RADIUS_ROWS + RESIDUAL_SAMPLES
    )
