"""Command-line front end: verification suites, orbit realization, probing.

Subcommands:

- ``verify {zorich,stretch,interp,spiral,bilipschitz}``: run the named grid
  suite with the flags ``RunConfig`` declares, write a structured JSON
  report, exit 0 iff every bound holds.
- ``realize TARGET.json``: plan paths to the target polyline, assemble the
  shell map, sample the orbit curve; writes ``<out>.orbit.csv`` and
  ``<out>.summary.json``.
- ``probe``: tabulate rescalings f_t over a direction grid for a list of t
  values; writes ``<out>.probe.csv`` and ``<out>.summary.json`` with the
  max pairwise slice distance.

Each command prints its report after writing its files, and exits 1 naming
a file it cannot write.  Reports are deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import canonical_maps as cm
from . import distortion as dist
from . import kernels, realizer, zorich
from .errors import QcmapsError
from .kernels import HALF_PI
from .vecgeom import planar_rotation, sphere_directions

# Bilipschitz eigenvalue window for the n = 3 cube chart.  The displacement
# form's smallest eigenvalue over {x >= |y|} is 4/(pi^2(2+sqrt6)) ~ 0.0911,
# attained at the corners x = |y| = pi/2; the often-quoted lower constant
# 8/(pi^2(2+sqrt6)) is that value doubled and fails there (a dropped 1/2 in
# lambda = (p - q)/2), so the suite certifies the corrected window.
CHART_EIG_LOW_STATED = 8.0 / (np.pi**2 * (2.0 + np.sqrt(6.0)))
CHART_EIG_LOW = 4.0 / (np.pi**2 * (2.0 + np.sqrt(6.0)))
CHART_EIG_HIGH = 1.0 + np.sqrt(6.0) / 2.0
# Linear-distortion ceiling 8 L^2 with L the chart bilipschitz constant.
CHART_BILIP = np.pi**2 * (2.0 + np.sqrt(6.0)) / 8.0
LINEAR_DISTORTION_BOUND = 8.0 * CHART_BILIP**2
# Tolerance of the zorich suite's roundtrip and radius-identity checks.
DEFAULT_TOL = 1e-12

# Caps on the size flags, checked before anything is allocated, so that an
# oversized value ends in a QcmapsError, not a MemoryError.  Each keeps its
# command's largest array well under 1 GB, and the pyramid cap also bounds
# time; README gives the peak RSS at each.
# Close waypoints on one sphere plan about a shell per waypoint and sweep, so
# the realized orbit, shells x --samples, is capped once the map is built.
MAX_GRID = 256  # verify: the n = 3 spiral refinement holds (2 grid - 1)^2 chart points
MAX_SAMPLES = 10**6  # verify
MAX_SHELL_SAMPLES = 10**4  # realize
MAX_ORBIT_SAMPLES = 10**6  # realize, shells x --samples
MAX_DIRECTIONS = 10**5  # probe --grid
# verify and probe --dim, and the dimension of a target file: the peaks
# behind the size caps were measured up to n = 8 (README), not above
MAX_DIM = 8
# verify stretch and interp: points of the pyramid grid, res (res // 2)^(n-2)
# per height with res = min(--grid, 21), so at most n = 5 at the default grid.
# The Jacobians are formed in blocks, so this cap bounds time, not memory:
# raised, --dim 6 takes 1.4 s and 103 MB (stretch, 420000 points) and 2.7 s
# and 136 MB (interp, 840000 points)
MAX_PYRAMID_POINTS = 10**5
# realize and probe: each sweep with a radial move takes an interpolation
# shell of log-depth >= 1, and radii stop at e^-354, so 354 sweeps at most
MAX_KMAX = 1000


def _alpha_value(alpha, name):
    """'auto', or the finite float that `alpha` spells; a QcmapsError naming
    `name` otherwise."""
    if alpha == "auto":
        return alpha
    try:
        value = float(alpha)
    except (TypeError, ValueError):
        value = np.nan
    if not np.isfinite(value):
        raise QcmapsError(f"{name} must be 'auto' or a finite number")
    return value


class RunConfig(cm._record(
    "RunConfig", "dimension K L alpha grid tol seed samples bound"
)):
    """Knobs shared by the verification suites, and the one declaration of
    the ``verify`` flags: field f is ``--f`` (``--dim`` for `dimension`),
    with f's default and its type (float for `bound`).  `bound` overrides the
    suite bound (negative controls); `alpha` is kept as 'auto' or a float."""

    __slots__ = ()

    def __new__(cls, dimension=3, K=2.0, L=3.0, alpha="auto", grid=33,
                tol=DEFAULT_TOL, seed=0, samples=1000, bound=None):
        for name, v in (("K", K), ("L", L), ("tol", tol)):
            if not np.isfinite(v):
                raise QcmapsError(f"{name} must be finite")
        if bound is not None and not np.isfinite(bound):
            raise QcmapsError("bound must be finite")
        alpha = _alpha_value(alpha, "alpha")
        if samples < 1:
            raise QcmapsError("samples must be at least 1")
        if samples > MAX_SAMPLES:
            raise QcmapsError(f"samples must be at most {MAX_SAMPLES}")
        if seed < 0:
            raise QcmapsError("seed must be non-negative")
        if dimension < 3:
            raise QcmapsError("dimension must be at least 3")
        if dimension > MAX_DIM:
            raise QcmapsError(f"--dim must be at most {MAX_DIM}")
        if tol <= 0:
            raise QcmapsError("tolerance must be positive")
        if grid < 8:
            raise QcmapsError("grid resolution must be at least 8")
        if grid > MAX_GRID:
            raise QcmapsError(f"grid resolution must be at most {MAX_GRID}")
        if K < 1.0 or L < 1.0:
            raise QcmapsError("suite stretch factors require K, L >= 1")
        return super().__new__(
            cls, dimension, K, L, alpha, grid, tol, seed, samples, bound
        )


def _check(name, bound, values, points=None, sense="max"):
    """One report row; sense 'max' bounds from above, 'min' from below.

    The worst of `values` is the first largest ('max') or smallest ('min')
    entry; row i of `points` is where value i was taken.
    """
    values = np.atleast_1d(values)
    i = int(np.argmax(values) if sense == "max" else np.argmin(values))
    worst = values[i]
    margin = bound - worst if sense == "max" else worst - bound
    return {
        "name": name,
        "bound": float(bound),
        "worst": float(worst),
        "margin": float(margin),
        "worst_point": None if points is None else list(map(float, points[i])),
        "passed": bool(margin >= 0.0),
    }


def _pyramid_grid(n, res, margin=1e-3, heights=(0.0,)):
    """Interior grid of the first max-coordinate pyramid region.

    Points satisfy margin <= x_1 <= pi/2 - margin and |x_i| <= x_1 - margin,
    with the requested last-coordinate values appended.
    """
    count = res * max(3, res // 2) ** (n - 2) * len(heights)
    if count > MAX_PYRAMID_POINTS:
        raise QcmapsError(
            f"the pyramid grid at --dim {n} and resolution {res} has {count} points, "
            f"above {MAX_PYRAMID_POINTS}; lower --dim or --grid")
    x1 = np.linspace(margin, HALF_PI - margin, res)
    fracs = np.linspace(-1.0, 1.0, max(3, res // 2))
    grids = np.meshgrid(x1, *([fracs] * (n - 2)), indexing="ij")
    x1v = grids[0].ravel()
    cols = [x1v]
    for g in grids[1:]:
        cols.append(g.ravel() * np.maximum(x1v - margin, 0.0))
    keep = x1v > 2 * margin
    pts = np.stack(cols, axis=1)[keep]
    out = []
    for h in heights:
        blk = np.empty((len(pts), n))
        blk[:, :-1] = pts
        blk[:, -1] = h
        out.append(blk)
    return np.concatenate(out, axis=0)


# =====================================================================
# verify suites
# =====================================================================

def _suite_zorich(cfg):
    n = cfg.dimension
    rng = np.random.default_rng(cfg.seed)
    checks = []

    y = rng.standard_normal((10_000, n)) * np.exp(rng.uniform(-1, 1, (10_000, 1)))
    back = kernels.zorich_forward_batch(kernels.zorich_inverse_batch(y))
    rel = np.sqrt(kernels._sum_sq((back - y).T)) / np.sqrt(kernels._sum_sq(y.T))
    checks.append(_check("roundtrip-relative-error", cfg.tol, rel, y))

    x = zorich.sample_fundamental(rng, 10_000, n)
    z = kernels.zorich_forward_batch(x)
    rad = np.abs(np.sqrt(kernels._sum_sq(z.T)) / np.exp(x[:, -1]) - 1.0)
    checks.append(_check("radius-identity-relative-error", cfg.tol, rad, x))

    if n == 3:
        bound = cfg.bound if cfg.bound is not None else LINEAR_DISTORTION_BOUND
        pts = zorich.sample_fundamental(rng, 1000, n, second_box=False)
        pts[:, :-1] *= (HALF_PI - 1e-3) / HALF_PI
        h = dist.linear_distortion_numeric(
            kernels.zorich_forward_batch, pts, 1e-5, 64, cfg.seed
        )
        checks.append(_check("linear-distortion", bound, h, pts))

    frame = np.eye(n)
    spec = cm.StretchSpec(K=cfg.K, frame=frame)
    rot = planar_rotation(0.7, 0, 1, n)
    resid = zorich.composition_residual(
        lambda v: cm.oriented_stretch(v, spec),
        lambda v: v @ rot.T,
        cfg.samples,
        n=n,
        seed=cfg.seed,
    )
    checks.append(_check("composition-residual", 1e-9, resid))
    return checks


def _lift(shift):
    """The transform x -> x + V(x) e_n on (k, n) batches, V = shift(x)."""

    def fn(coords):
        out = np.array(coords, dtype=float)
        out[:, -1] += shift(out)
        return out

    return fn


def _norm_checks(pts, lift, h1, h2, bound_v1, v1_name, cfg, extra_vn=None):
    """Shared derivative sweep: V-slope bound plus both norm ceilings.

    The Jacobians and their singular values are formed over blocks of at
    most ``kernels._STRIP`` points, so memory does not grow with the grid.
    The lifts are row-local and the step explicit, so a point's values do
    not depend on its block.
    """
    # per point: the V-slope entry, the largest and least singular values
    # and the last diagonal entry
    vals = np.empty((4, len(pts)))
    for lo in range(0, len(pts), kernels._STRIP):
        jac = dist.finite_diff_jacobian(lift, pts[lo:lo + kernels._STRIP], 1e-6)
        sv = np.linalg.svd(jac, compute_uv=False)
        vals[:, lo:lo + len(jac)] = jac[:, -1, 0], sv[:, 0], sv[:, -1], jac[:, -1, -1]
    slope, top, least, vn = vals
    h1 = cfg.bound if cfg.bound is not None else h1
    slack = 1e-9  # finite-difference noise allowance at the K = 1 equality
    checks = [
        _check(v1_name, bound_v1 + slack, np.abs(slope), pts),
        _check("transform-norm", h1 + slack, top, pts),
        _check("inverse-transform-norm", h2 + slack, 1.0 / least, pts),
    ]
    if extra_vn is not None:
        checks.append(_check(extra_vn, 0.5, np.abs(vn - 1.0), pts))
    return checks


def _suite_stretch(cfg):
    n, k = cfg.dimension, cfg.K
    pts = _pyramid_grid(n, min(cfg.grid, 21), heights=(0.0, 0.8))
    h1 = np.sqrt(5.0 / 4.0 + (k * k + 1.0) ** 2 + 3.0 * (k * k + 1.0))
    h2 = 1.0 + k * k + 1.0
    lift = _lift(lambda c: cm.stretch_shift_batch(c[:, :-1], k))
    return _norm_checks(pts, lift, h1, h2, k * k - 1.0, "stretch-slope", cfg)


def _suite_interp(cfg):
    n, k, ell = cfg.dimension, cfg.K, cfg.L
    s = cm.interp_inner_s(k, ell)
    spec = cm.InterpSpec(K=k, L=ell, s=s, t=0.0, frame=np.eye(n))
    heights = np.linspace(s + 0.05, -0.05, 4)
    pts = _pyramid_grid(n, min(cfg.grid, 21), heights=heights)
    kl = k * k + ell * ell
    h1 = np.sqrt(5.0 / 4.0 + kl * kl + 3.0 * kl)
    h2 = 1.0 + kl
    return _norm_checks(
        pts,
        _lift(lambda c: cm.interp_shift_batch(c[:, :-1], c[:, -1], spec)),
        h1,
        h2,
        kl - 2.0,
        "interp-slope",
        cfg,
        extra_vn="interp-vertical-slope",
    )


def _spiral_samples(rng, m, n, alpha, margin=1e-3):
    """Interior first-box samples with pyramid and switch margins enforced."""
    out = np.empty((0, n))
    while len(out) < m:
        x = np.empty((4 * m, n))
        x[:, :-1] = rng.uniform(-HALF_PI + margin, HALF_PI - margin, (4 * m, n - 1))
        x[:, -1] = rng.uniform(-2.0, 2.0, 4 * m)
        _, _, pyr, sw = kernels.spiral_region_batch(x, alpha)
        good = (pyr >= margin) & (sw >= margin)
        out = np.concatenate([out, x[good]], axis=0)
    return out[:m]


def _suite_spiral(cfg):
    n, k = cfg.dimension, cfg.K
    grids = cm.certification_grids(n, cfg.grid)
    alpha = cfg.alpha
    if alpha == "auto":
        alpha = cm.select_alpha(k, n, grid=cfg.grid)
    checks = []

    dets, where = zip(*(cm.spiral_jacobian_scan(k, n, alpha, g) for g in grids))
    bound = cfg.bound if cfg.bound is not None else cm.jacobian_floor(n)
    checks.append(_check("jacobian-floor", bound, dets, where, sense="min"))

    rng = np.random.default_rng(cfg.seed)
    pts = _spiral_samples(rng, min(cfg.samples, 1000), n, alpha)
    # _spiral_samples keeps a 1e-3 region margin, so the analytic Jacobian
    # needs no per-point region check
    ana = kernels.spiral_jac_batch(pts, k, alpha)
    fd = dist.finite_diff_jacobian(
        lambda c: kernels.spiral_u_batch(c, k, alpha), pts, 1e-6
    )
    rel = np.abs(fd - ana).max(axis=(1, 2)) / np.abs(ana).max(axis=(1, 2))
    checks.append(_check("jacobian-fd-relative-error", 1e-5, rel, pts))

    u = kernels.spiral_u_batch(pts, k, alpha)
    dm = np.abs(kernels._abs_max(u.T[:-1]) - kernels._abs_max(pts.T[:-1]))
    checks.append(_check("max-norm-preservation", 1e-12, dm, pts))

    r12 = np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2)
    ang = alpha * pts[:, -1]
    recip = 1.0 / kernels._abs_max(
        kernels._rotate_pair(pts[:, 0], pts[:, 1], np.cos(ang), np.sin(ang)))
    lo = recip - 1.0 / r12
    hi = np.sqrt(2.0) / r12 - recip
    checks.append(_check("reciprocal-sandwich-lower", 0.0, lo, sense="min"))
    checks.append(_check("reciprocal-sandwich-upper", 0.0, hi, sense="min"))
    return checks, alpha


def _suite_bilipschitz(cfg):
    ax = np.linspace(-HALF_PI, HALF_PI, cfg.grid)
    gx, gy = np.meshgrid(ax, ax, indexing="ij")
    keep = (gx >= np.abs(gy)) & (gx > 0)
    xs, ys = gx[keep], gy[keep]
    pts = np.stack([xs, ys], 1)
    a11, a12, a22 = dist.bilipschitz_form(xs, ys)
    tr = a11 + a22
    disc = np.sqrt(np.maximum((a11 - a22) ** 2 + 4.0 * a12 * a12, 0.0))
    lam_hi = 0.5 * (tr + disc)
    lam_lo = 0.5 * (tr - disc)
    slack = 1e-9
    low_bound = cfg.bound if cfg.bound is not None else CHART_EIG_LOW
    return [
        _check("eigenvalue-lower", low_bound - slack, lam_lo, pts, sense="min"),
        _check("eigenvalue-upper", CHART_EIG_HIGH + slack, lam_hi, pts),
        _check("eigenvalue-positive", 0.0, lam_lo, pts, sense="min"),
        {
            **_check(
                "stated-lower-constant-note",
                CHART_EIG_LOW_STATED,
                lam_lo,
                pts,
                sense="min",
            ),
            "passed": True,  # informational: the doubled constant fails at the corners
        },
    ]


SUITES = {
    "zorich": _suite_zorich,
    "stretch": _suite_stretch,
    "interp": _suite_interp,
    "spiral": _suite_spiral,
    "bilipschitz": _suite_bilipschitz,
}
BILIPSCHITZ_GRID = 200  # least points a side that the bilipschitz suite scans


def run_verify(suite, cfg):
    """Run one verification suite; returns the report dict, whose ``config``
    is `cfg` as run: a bilipschitz grid is raised to ``BILIPSCHITZ_GRID``."""
    if suite not in SUITES:
        raise QcmapsError(f"unknown suite {suite!r}")
    if suite == "bilipschitz":
        cfg = cfg._replace(grid=max(cfg.grid, BILIPSCHITZ_GRID))
    checks = SUITES[suite](cfg)
    extra = {}
    if suite == "spiral":
        checks, alpha = checks
        extra["alpha"] = float(alpha)
    config = cfg._asdict()
    config["bound_override"] = config.pop("bound")
    return {
        "suite": suite,
        "config": config,
        **extra,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


# =====================================================================
# realize / probe
# =====================================================================

def load_target(path):
    """Parse a target JSON file: waypoints, closed flag, annulus bound C.
    A target in more than ``MAX_DIM`` dimensions is refused."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise QcmapsError(f"cannot parse target file {path}: {exc}") from exc
    if not isinstance(payload, dict) or "waypoints" not in payload:
        raise QcmapsError("target file must be a JSON object with 'waypoints'")
    target = realizer.TargetSet(
        waypoints=payload["waypoints"],
        closed=payload.get("closed", False),
        annulus_bound=payload.get("C"),
    )
    if target.n > MAX_DIM:
        raise QcmapsError(
            f"target dimension must be at most {MAX_DIM}, got {target.n}")
    return target


# Rows per chunk of ``_write_csv``, measured (README): the write time is
# flat from 384 to 896 rows, and at 768 rows a chunk's byte layout and
# temporaries, about 1 kB a row of six columns, stay below the peak RSS
# that the computation before the write sets.
_CSV_ROWS = 768
# A table of fewer rows is formatted by Python, which is faster there:
# starting the numpy path (compiling ``_g17`` where bytecode is not cached,
# and numpy's first runs of its loops) takes about 3 ms, and Python's '%'
# about 0.5 us a field, so the two meet near 1500 rows of six columns
# (fresh processes, 2-vCPU Xeon).  Each command is one process, so every
# write pays that start: with the probes' 192 rows sent through numpy too,
# `probe --map spiral` took 12.3 -> 15.2 ms (BENCH_25.json).
_CSV_NUMPY_ROWS = 1536


def _write_csv(path, header, columns, row_format):
    """Write equal-length columns under a header, each row as
    `row_format` % row with the CRLF line ends of ``csv.writer``.

    `row_format` joins '%.17g' (float) and '%d' (integer) fields with
    commas.  From ``_CSV_NUMPY_ROWS`` rows up, the bytes are made in numpy
    ``_CSV_ROWS`` rows at a time by ``_g17.fields``: a '%d' column of
    integers within 2^53 is exact as floats, whose '%.17g' is its '%d'
    text.  Every field that path leaves undecided, and every integer beyond
    2^53, is formatted by Python.  Each chunk's (position, field) bytes are
    transposed to row order and their zeros dropped.
    """
    formats = row_format.split(",")
    if len(formats) != len(columns) or set(formats) - {"%.17g", "%d"}:
        raise ValueError(f"unsupported row format {row_format!r}")
    columns = [np.asarray(c) for c in columns]
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        if len(columns[0]) < _CSV_NUMPY_ROWS:
            line = row_format + "\r\n"
            rows = zip(*(c.tolist() for c in columns))
            fh.write("".join(line % row for row in rows).encode())
            return
        # imported here, not with this module, so that the commands that
        # write no long table do not compile it
        from . import _g17

        sep = _g17.SEP
        for lo in range(0, len(columns[0]), _CSV_ROWS):
            chunk = [c[lo:lo + _CSV_ROWS] for c in columns]
            x = np.array(chunk, dtype=float)
            text = np.empty((_g17.WIDTH, *x.shape), np.uint8)
            undecided = _g17.fields(x.reshape(-1), text[:sep].reshape(sep, -1))
            undecided = undecided.reshape(x.shape)
            for col, fmt in enumerate(formats):
                if fmt == "%d":
                    undecided[col] |= (chunk[col] > 2**53) | (chunk[col] < -(2**53))
            for col, row in zip(*np.nonzero(undecided)):
                field = (formats[col] % chunk[col][row]).encode()
                text[:sep, col, row] = 0
                text[:len(field), col, row] = np.frombuffer(field, np.uint8)
            text[sep] = ord(",")
            text[sep, -1] = ord("\r")
            text[sep + 1] = 0
            text[sep + 1, -1] = ord("\n")
            rows = np.ascontiguousarray(text.transpose(2, 1, 0)).tobytes()
            fh.write(rows.translate(None, b"\0"))


def run_realize(target, k_max, samples):
    """Plan, build, and sample the orbit; returns (table, summary, rm)."""
    if samples < 1:
        raise QcmapsError("--samples must be at least 1")
    if samples > MAX_SHELL_SAMPLES:
        raise QcmapsError(f"--samples must be at most {MAX_SHELL_SAMPLES}")
    if k_max > MAX_KMAX:
        raise QcmapsError(f"--kmax must be at most {MAX_KMAX}")
    plans = realizer.plan_paths(target, k_max)
    rm = realizer.build_map(plans, n=target.n)
    if len(rm.pieces) * samples > MAX_ORBIT_SAMPLES:
        raise QcmapsError(f"{len(rm.pieces)} shells at --samples {samples} exceed "
                          f"{MAX_ORBIT_SAMPLES} orbit samples; lower --samples or --kmax")
    ts = realizer.default_orbit_times(rm, per_piece=samples)
    table = realizer.orbit_table(rm, ts)
    gamma = table["gamma"]

    errs = []
    if rm.checkpoints:
        # each checkpoint radius lies in its own region, so the batched
        # rows round as single-point calls would
        r, u, sig = (np.array(v) for v in zip(*rm.checkpoints))
        tips = realizer.eval_map_batch(rm, r[:, None] * realizer._e1(rm.n))
        tips /= realizer.mean_radius_batch(rm, r)[:, None]
        errs = [float(np.linalg.norm(d)) for d in tips - u[:, None] * sig]
    poly = realizer._polyline_samples(target.waypoints, target.closed)
    # t strictly decreases along the table, so each sweep's samples t <= its
    # start radius form a suffix; one pass over the orbit serves every sweep.
    sweeps = sorted({p.sweep for p in rm.pieces})
    limits = [rm.sweep_start_radius(k) * (1 + 1e-12) for k in sweeps]
    starts = np.searchsorted(-table["t"], np.negative(limits))
    haus = dict(zip(sweeps, realizer.hausdorff_by_suffix(gamma, poly, starts)))
    radii = np.linalg.norm(gamma, axis=1)
    summary = {
        "n": rm.n,
        "k_max": k_max,
        "piece_count": len(rm.pieces),
        "r_start": rm.r_start,
        "r_end": rm.r_end,
        "checkpoint_max_error": max(errs) if errs else 0.0,
        "hausdorff_by_k": {str(k): float(v) for k, v in haus.items()},
        "orbit_annulus": [float(radii.min()), float(radii.max())],
        "samples": int(len(gamma)),
    }
    return table, summary, rm


def _probe_map(args):
    n = args.dim
    if args.map == "stretch":
        spec = cm.StretchSpec(K=args.K, frame=np.eye(n))
        fn = lambda x: cm.oriented_stretch(x, spec)  # noqa: E731
        rho = lambda t: args.K ** (1.0 / n) * t  # noqa: E731
    elif args.map == "rotation":
        rot = planar_rotation(args.theta, 0, 1, n)
        fn = lambda x: x @ rot.T  # noqa: E731
        rho = lambda t: t  # noqa: E731
    elif args.map == "spiral":
        alpha = _alpha_value(args.alpha, "--alpha")
        if alpha == "auto":
            alpha = cm.select_alpha(args.K, n)
        spec = cm.SpiralSpec(K=args.K, alpha=alpha, frame=np.eye(n))
        fn = lambda x: cm.spiral_stretch(x, spec)  # noqa: E731
        rho = lambda t: args.K ** (1.0 / n) * t  # noqa: E731
    elif args.map == "realized":
        if not args.target:
            raise QcmapsError("--target is required for --map realized")
        target = load_target(args.target)
        args.dim = target.n  # direction grid must match the target's space
        plans = realizer.plan_paths(target, args.kmax)
        rm = realizer.build_map(plans, n=target.n)
        fn = lambda x: realizer.eval_map_batch(rm, x)  # noqa: E731
        rho = lambda t: float(realizer.mean_radius_batch(rm, [t])[0])  # noqa: E731
    else:
        raise QcmapsError(f"unknown probe map {args.map!r}")
    return fn, rho


def _scales(text):
    """The positive finite scales of a comma list, in order."""
    try:
        t_values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        t_values = []
    if not t_values or not all(np.isfinite(t) and t > 0 for t in t_values):
        raise QcmapsError("--t must be a comma list of positive finite scales")
    return t_values


def run_probe(args):
    """Tabulate f_t over a direction grid; returns (table, summary).

    The table holds the columns t, direction index and the n image
    coordinates, one row per (t, direction).
    """
    t_values = _scales(args.t)
    if args.dim < 3:
        raise QcmapsError("--dim must be at least 3")
    if args.dim > MAX_DIM:
        raise QcmapsError(f"--dim must be at most {MAX_DIM}")
    if args.seed < 0:
        raise QcmapsError("--seed must be non-negative")
    if not np.isfinite(args.theta):
        raise QcmapsError("--theta must be finite")
    if not (np.isfinite(args.K) and args.K >= 1.0):
        raise QcmapsError("--K must be a finite number >= 1")
    if args.grid > MAX_DIRECTIONS:
        raise QcmapsError(f"--grid must be at most {MAX_DIRECTIONS}")
    if args.kmax > MAX_KMAX:
        raise QcmapsError(f"--kmax must be at most {MAX_KMAX}")
    fn, rho = _probe_map(args)
    dirs = sphere_directions(args.dim, max(args.grid, 2 * args.dim), args.seed)
    slices = []
    for t in t_values:
        slices.append(np.atleast_2d(fn(t * dirs)) / rho(t))
    variation = 0.0
    for i in range(len(slices)):
        for j in range(i + 1, len(slices)):
            variation = max(
                variation,
                float(np.linalg.norm(slices[i] - slices[j], axis=1).max()),
            )
    images = np.concatenate(slices)
    table = [
        np.repeat(t_values, len(dirs)),
        np.tile(np.arange(len(dirs)), len(t_values)),
        *images.T,
    ]
    summary = {
        "map": args.map,
        "t_values": t_values,
        "directions": int(len(dirs)),
        "slice_variation": variation,
    }
    return table, summary


# =====================================================================
# entry point
# =====================================================================

def _build_parser():
    ap = argparse.ArgumentParser(prog="qcmaps")
    sub = ap.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=SUITES)
    for field, default in RunConfig()._asdict().items():
        flag = "--dim" if field == "dimension" else f"--{field}"
        pv.add_argument(flag, dest=field, metavar=flag[2:].upper(), default=default,
                        type=float if default is None else type(default))
    pv.add_argument("--out", default=None)

    pr = sub.add_parser("realize", help="realize a target polyline")
    pr.add_argument("target")
    pr.add_argument("--kmax", type=int, default=5)
    pr.add_argument("--samples", type=int, default=200)
    pr.add_argument("--out", required=True)

    pp = sub.add_parser("probe", help="tabulate rescalings f_t")
    pp.add_argument("--map", required=True, choices=("stretch", "rotation", "spiral", "realized"))
    pp.add_argument("--dim", type=int, default=3)
    pp.add_argument("--K", type=float, default=2.0)
    pp.add_argument("--alpha", default="auto")
    pp.add_argument("--theta", type=float, default=np.pi / 4)
    pp.add_argument("--target", default=None)
    pp.add_argument("--kmax", type=int, default=3)
    pp.add_argument("--t", required=True, help="comma list of scales")
    pp.add_argument("--grid", type=int, default=64)
    pp.add_argument("--seed", type=int, default=0)
    pp.add_argument("--out", required=True)
    return ap


def _write_outputs(report, path=None, table=None):
    """Write the CSV `table` (``_write_csv``'s arguments), then `report` to
    `path`, each if given, and print the report.  A file that cannot be
    written ends in a QcmapsError naming it, before anything is printed."""
    text = json.dumps(report, indent=2, sort_keys=True)
    name = None
    try:
        if table is not None:
            name = table[0]
            _write_csv(*table)
        if path:
            name = path
            Path(path).write_text(text + "\n")
    except OSError as exc:
        raise QcmapsError(f"cannot write {name}: {exc.strerror or exc}") from exc
    print(text)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            cfg = RunConfig._make(getattr(args, field) for field in RunConfig._fields)
            report = run_verify(args.suite, cfg)
            _write_outputs(report, args.out)
            return 0 if report["passed"] else 1

        if args.command == "realize":
            target = load_target(args.target)
            table, summary, rm = run_realize(target, args.kmax, args.samples)
            n, kind = rm.n, "orbit"
            header = ["t", *(f"y_{i + 1}" for i in range(n)), "piece_index", "rho"]
            columns = [table["t"], *table["gamma"].T, table["piece"], table["rho"]]
            row_format = ",".join(["%.17g"] * (n + 1) + ["%d", "%.17g"])
        else:
            columns, summary = run_probe(args)
            n, kind = args.dim, "probe"
            header = ["t", "direction", *(f"y_{i + 1}" for i in range(n))]
            row_format = ",".join(["%.17g", "%d"] + ["%.17g"] * n)
        table = (f"{args.out}.{kind}.csv", header, columns, row_format)
        _write_outputs(summary, f"{args.out}.summary.json", table)
        return 0
    except QcmapsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
