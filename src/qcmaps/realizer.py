"""Realize a waypoint polyline as the accumulation set of a rescaled orbit.

The construction plans, for each depth k, a path of radial segments and
great-circle arcs near the target polyline, then assembles a piecewise map of
nested spherical shells:

- an arc from u*sigma_1 to u*sigma_2 becomes a spiral-stretch shell with
  factor K = u^{n/(n-1)} whose rotation angle at the inner boundary is
  exactly the arc angle (shell log-depth theta / |alpha|);
- a radial segment from u_1*sigma to u_2*sigma becomes an interpolation
  shell with outer factor u_1^{n/(n-1)} and inner factor u_2^{n/(n-1)}.

Every shell map is (orthogonal frame) composed with the axis-1 standard map,
so a boundary sphere is sent to an ellipsoid whose long axis K^{1-1/n}
rescales to the planned point u*sigma of the orbit curve t -> f(t e_1) /
rho_f(t).  Frames chain exactly across interfaces (the exit frame of a spiral
shell is the entry frame rotated by the arc angle in its (1,2)-plane), which
keeps the assembled map continuous but confines arc directions to one great
circle; plans whose arcs leave that plane are rejected at build time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .canonical_maps import (
    _interp_log_mix,
    _interp_log_weight,
    _spiral_shell,
    interp_inner_s,
    select_alpha,
    stretch_factor,
)
from .errors import InvalidInputError, OriginError, PlanningError
from .vecgeom import fibonacci_sphere, frame_from_direction, planar_rotation, unit

# Planned hops must chain to this accuracy; arcs must lie in the running
# spiral plane to the same accuracy.
CHAIN_TOL = 1e-9
_LOG_RADIUS_FLOOR = -600.0  # keep shell radii representable in float64


# =====================================================================
# Targets and path segments
# =====================================================================

@dataclass(frozen=True)
class TargetSet:
    """Waypoint polyline inside the annulus 1/C <= |y| <= C."""

    waypoints: np.ndarray
    closed: bool = False
    annulus_bound: Optional[float] = None

    def __post_init__(self):
        w = np.asarray(self.waypoints, dtype=float)
        if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 3:
            raise InvalidInputError("waypoints must be an (m, n>=3) array")
        if not np.all(np.isfinite(w)):
            raise InvalidInputError("waypoints have non-finite coordinates")
        radii = np.linalg.norm(w, axis=1)
        if radii.min() == 0.0:
            raise InvalidInputError("waypoints must avoid the origin")
        pairs = zip(w[:-1], w[1:])
        for i, (a, b) in enumerate(pairs):
            if np.linalg.norm(a - b) <= 1e-12:
                raise InvalidInputError(f"waypoints {i} and {i + 1} coincide")
        if self.closed and len(w) > 1 and np.linalg.norm(w[-1] - w[0]) <= 1e-12:
            raise InvalidInputError("closed polylines must not repeat the start")
        c = self.annulus_bound
        if c is None:
            c = max(radii.max(), 1.0 / radii.min()) * (1.0 + 1e-12)
        elif c < 1.0 or radii.max() > c * (1 + 1e-9) or radii.min() < (1 - 1e-9) / c:
            raise InvalidInputError("waypoints leave the declared annulus")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "waypoints", w)
        object.__setattr__(self, "annulus_bound", float(c))

    @property
    def n(self):
        return self.waypoints.shape[1]


@dataclass(frozen=True)
class RadialSegment:
    """Move along the ray through sigma from radius u1 to u2."""

    u1: float
    u2: float
    sigma: np.ndarray

    def __post_init__(self):
        if self.u1 <= 0 or self.u2 <= 0:
            raise InvalidInputError("radii must be positive")
        object.__setattr__(self, "sigma", unit(self.sigma, "sigma"))


@dataclass(frozen=True)
class ArcSegment:
    """Great-circle arc at radius u from sigma1 to sigma2 (minor arc)."""

    u: float
    sigma1: np.ndarray
    sigma2: np.ndarray

    def __post_init__(self):
        if self.u <= 0:
            raise InvalidInputError("radius must be positive")
        s1 = unit(self.sigma1, "sigma1")
        s2 = unit(self.sigma2, "sigma2")
        if np.linalg.norm(s1 + s2) <= 1e-10:
            raise PlanningError("antipodal arc endpoints: insert a waypoint")
        if np.linalg.norm(s1 - s2) <= 1e-12:
            raise InvalidInputError("arc endpoints coincide")
        object.__setattr__(self, "sigma1", s1)
        object.__setattr__(self, "sigma2", s2)

    @property
    def angle(self):
        return float(np.arccos(np.clip(self.sigma1 @ self.sigma2, -1.0, 1.0)))


def _slerp(s1, s2, taus):
    """Great-circle points from s1 to s2, one row per fraction in `taus`."""
    tau = np.asarray(taus, dtype=float)[:, None]
    theta = np.arccos(np.clip(s1 @ s2, -1.0, 1.0))
    if theta < 1e-14:
        return np.tile(s1, (len(tau), 1))
    return (np.sin((1.0 - tau) * theta) * s1 + np.sin(tau * theta) * s2) / np.sin(theta)


def _decompose(waypoints, closed):
    """Hop decomposition: arc at the entry radius, then a radial move."""
    segs = []
    pts = list(waypoints)
    if closed:
        pts = pts + [waypoints[0]]
    for i in range(len(pts) - 1):
        a, b = pts[i], pts[i + 1]
        ua, ub = np.linalg.norm(a), np.linalg.norm(b)
        sa, sb = a / ua, b / ub
        if np.linalg.norm(sa + sb) <= 1e-10:
            raise PlanningError(
                f"hop {i} -> {i + 1} joins antipodal directions; "
                "insert an intermediate waypoint"
            )
        dot = float(np.clip(sa @ sb, -1.0, 1.0))
        if dot < 1.0 - 1e-12:
            angle = np.arccos(dot)
            parts = max(1, int(np.ceil(angle / (np.pi / 2.0) - 1e-12)))
            dirs = _slerp(sa, sb, np.arange(parts + 1) / parts)
            dirs = [d / np.linalg.norm(d) for d in dirs]
            for j in range(parts):
                segs.append(ArcSegment(ua, dirs[j], dirs[j + 1]))
            sa = dirs[-1]
        else:
            sa = sb
        if abs(ua - ub) > 1e-12 * max(ua, ub):
            segs.append(RadialSegment(ua, ub, sb))
    return segs


def _segment_trace(seg, per=64):
    if isinstance(seg, ArcSegment):
        return seg.u * _slerp(seg.sigma1, seg.sigma2, np.linspace(0.0, 1.0, per))
    taus = np.linspace(seg.u1, seg.u2, per)
    return taus[:, None] * seg.sigma[None, :]


def _polyline_samples(waypoints, closed, per=64):
    pts = list(waypoints)
    if closed:
        pts = pts + [waypoints[0]]
    if len(pts) == 1:
        return np.array(pts)
    out = []
    for a, b in zip(pts[:-1], pts[1:]):
        taus = np.linspace(0.0, 1.0, per)[:, None]
        out.append(a[None, :] * (1 - taus) + b[None, :] * taus)
    return np.concatenate(out, axis=0)


def plan_paths(target, k_max):
    """Segment lists G_1..G_{k_max} tracing the target polyline.

    Each hop becomes an arc at the entry radius followed by a radial move;
    arcs wider than pi/2 are subdivided.  Consecutive plans chain end to
    start by alternating sweep direction (closed targets loop instead).  The
    common trace must sit within 1/(2 k_max) Hausdorff distance of the
    polyline, which bounds it within 1/(2k) for every depth; sparser
    waypoints are rejected.
    """
    if k_max < 1:
        raise InvalidInputError("k_max must be at least 1")
    w = target.waypoints
    if len(w) == 1:
        return [[] for _ in range(k_max)]
    forward = _decompose(w, target.closed)
    if target.closed:
        plans = [list(forward) for _ in range(k_max)]
    else:
        backward = _decompose(w[::-1], False)
        plans = [
            list(forward) if k % 2 == 1 else list(backward)
            for k in range(1, k_max + 1)
        ]
    trace = np.concatenate([_segment_trace(s) for s in forward], axis=0)
    poly = _polyline_samples(w, target.closed)
    gap = hausdorff_distance(trace, poly)
    if gap > 0.5 / k_max:
        raise PlanningError(
            f"plan trace is {gap:.3g} from the polyline; need <= {0.5 / k_max:.3g}. "
            "Add waypoints or lower k_max"
        )
    return plans


# =====================================================================
# Shell assembly
# =====================================================================

@dataclass(frozen=True)
class ShellPiece:
    """One annular shell with its active map formula.

    Spiral shells carry (K, alpha, theta); interpolation shells carry
    (K, L, s, t).  `frame` is the entry frame: first column is the entry
    stretch direction, and for spirals the (1,2)-columns span the rotation
    plane.  `sweep` is the 1-based plan index that produced the piece.
    """

    r_out: float
    r_in: float
    kind: str
    frame: np.ndarray
    K: float
    L: Optional[float] = None
    s: Optional[float] = None
    t: Optional[float] = None
    alpha: Optional[float] = None
    theta: Optional[float] = None
    sweep: int = 1

    def __post_init__(self):
        if not (0 < self.r_in < self.r_out):
            raise InvalidInputError("need 0 < r_in < r_out")
        if self.kind not in ("spiral", "interp"):
            raise InvalidInputError("kind must be 'spiral' or 'interp'")
        f = np.array(self.frame, dtype=float)
        f.setflags(write=False)
        object.__setattr__(self, "frame", f)

    @property
    def exit_frame(self):
        if self.kind == "spiral":
            n = self.frame.shape[0]
            return self.frame @ planar_rotation(self.theta, 0, 1, n)
        return self.frame

    @property
    def exit_K(self):
        return self.K if self.kind == "spiral" else self.L


@dataclass(frozen=True)
class RealizedMap:
    """Piecewise shell map, total on R^n with f(0) = 0.

    Outside the first shell the map is the entry boundary stretch; below the
    last shell it is the exit boundary stretch; in between each shell applies
    its own formula.  Adjacent formulas agree on the shared spheres, so the
    map is continuous and (for certified spiral rates) injective.
    """

    pieces: tuple
    outer_K: float
    outer_frame: np.ndarray
    n: int
    checkpoints: tuple = ()

    def __post_init__(self):
        f = np.array(self.outer_frame, dtype=float)
        f.setflags(write=False)
        object.__setattr__(self, "outer_frame", f)
        object.__setattr__(self, "pieces", tuple(self.pieces))
        radii = [p.r_out for p in self.pieces] + [p.r_in for p in self.pieces[-1:]]
        if any(b >= a for a, b in zip(radii, radii[1:])) or any(
            abs(p.r_in - q.r_out) > 1e-12 * p.r_in
            for p, q in zip(self.pieces, self.pieces[1:])
        ):
            raise InvalidInputError("shells must tile with decreasing radii")

    @property
    def r_start(self):
        return self.pieces[0].r_out if self.pieces else 1.0

    @property
    def r_end(self):
        return self.pieces[-1].r_in if self.pieces else 1.0

    @property
    def inner_K(self):
        return self.pieces[-1].exit_K if self.pieces else self.outer_K

    @property
    def inner_frame(self):
        return self.pieces[-1].exit_frame if self.pieces else self.outer_frame

    def sweep_start_radius(self, k):
        """Outer radius of the first shell produced by plan k (1-based)."""
        for p in self.pieces:
            if p.sweep == k:
                return p.r_out
        raise InvalidInputError(f"no shells from plan {k}")


def _entry_of(seg):
    if isinstance(seg, ArcSegment):
        return seg.u, seg.sigma1, seg.sigma2
    return seg.u1, seg.sigma, None


def build_map(plans, n=None):
    """Assemble the shell map realizing chained segment plans.

    The first shell starts at radius 1.  Empty plans yield the identity map
    in dimension n (3 if not given).  Spiral rates come from the halving
    certification on the default grid of ``select_alpha`` (one per stretch
    factor and orientation, cached); shell radii decrease strictly and are
    rejected before they underflow float64.
    """
    segs = [(k + 1, s) for k, plan in enumerate(plans) for s in plan]
    if not segs:
        dim = 3 if n is None else n
        return RealizedMap(
            pieces=(),
            outer_K=1.0,
            outer_frame=np.eye(dim),
            n=dim,
        )
    first = segs[0][1]
    u0, sigma0, hint = _entry_of(first)
    dim = sigma0.size
    expo = dim / (dim - 1.0)
    frame = frame_from_direction(sigma0, hint)
    outer_k = u0**expo
    outer_frame = frame
    r = 1.0
    pieces = []
    checks = [(r, u0, sigma0.copy())]
    for sweep, seg in segs:
        u_entry, sigma_entry, _ = _entry_of(seg)
        if np.linalg.norm(frame[:, 0] - sigma_entry) > 1e-6:
            raise PlanningError("segments do not chain: entry direction mismatch")
        if isinstance(seg, ArcSegment):
            c2 = float(seg.sigma2 @ frame[:, 0])
            s2 = float(seg.sigma2 @ frame[:, 1])
            resid = np.linalg.norm(seg.sigma2 - (c2 * frame[:, 0] + s2 * frame[:, 1]))
            if resid > CHAIN_TOL:
                raise PlanningError(
                    "arc target leaves the running rotation plane; this "
                    "construction realizes direction sets on one great circle"
                )
            theta = float(np.arctan2(s2, c2))
            kfac = seg.u**expo
            alpha = select_alpha(kfac, dim, orientation=-1 if theta > 0 else 1)
            depth = abs(theta) / abs(alpha)
            r_in = r * np.exp(-depth)
            exit_frame = frame @ planar_rotation(theta, 0, 1, dim)
            piece = ShellPiece(
                r_out=r,
                r_in=r_in,
                kind="spiral",
                frame=frame,
                K=kfac,
                alpha=alpha,
                theta=theta,
                sweep=sweep,
            )
            pieces.append(piece)
            checks.append((r_in, seg.u, exit_frame[:, 0].copy()))
            frame = exit_frame
            r = r_in
        else:
            kfac = seg.u1**expo
            lfac = seg.u2**expo
            s_low = interp_inner_s(kfac, lfac)
            r_in = r * np.exp(s_low)
            pieces.append(
                ShellPiece(
                    r_out=r,
                    r_in=r_in,
                    kind="interp",
                    frame=frame,
                    K=kfac,
                    L=lfac,
                    s=s_low,
                    t=0.0,
                    sweep=sweep,
                )
            )
            checks.append((r_in, seg.u2, frame[:, 0].copy()))
            r = r_in
        if np.log(r) < _LOG_RADIUS_FLOOR:
            raise PlanningError(
                "shell radii underflow float64; reduce k_max or the path length"
            )
    return RealizedMap(
        pieces=tuple(pieces),
        outer_K=outer_k,
        outer_frame=outer_frame,
        n=dim,
        checkpoints=tuple(checks),
    )


# =====================================================================
# Evaluation
# =====================================================================

def _locate(rm, radii):
    """Region code per radius: -1 outer, 0..N-1 shells, N inner closure."""
    if not rm.pieces:
        return np.full(len(radii), -1, dtype=int)
    bounds = np.array([p.r_out for p in rm.pieces])
    k = np.searchsorted(-bounds, -np.asarray(radii), side="left")
    idx = k - 1
    last = len(rm.pieces) - 1
    inner = (idx == last) & (np.asarray(radii) < rm.pieces[last].r_in)
    idx = np.where(inner, last + 1, idx)
    return idx


def _apply_boundary_stretch(x, r, kfac, frame):
    lam = stretch_factor((x[:, 0] / r) ** 2, kfac)
    return lam[:, None] * (x @ frame.T)


def _apply_piece(piece, x, r):
    if piece.kind == "spiral":
        beta = piece.alpha * np.log(r / piece.r_out)
        return _spiral_shell(x, r, piece.K, beta, piece.frame)
    nu = np.clip((np.log(r) - np.log(piece.r_in)) / (piece.t - piece.s), 0.0, 1.0)
    mu = np.exp(_interp_log_weight((x[:, 0] / r) ** 2, nu, piece.K, piece.L))
    return mu[:, None] * (x @ piece.frame.T)


def _region_runs(idx):
    """Stable row order by region code, and the (code, lo, hi) run per region.

    Rows ``order[lo:hi]`` are those of region `code`, in batch order, so a
    region's formula sees the same rows in the same order as a boolean mask
    would give it.  One stable argsort replaces one mask per region: the
    codes are sorted as int16 when they fit, where numpy's stable sort is a
    radix sort, and the run bounds come from one ``np.bincount``.
    """
    key = idx + 1
    if key.max() <= np.iinfo(np.int16).max:
        key = key.astype(np.int16)
    order = np.argsort(key, kind="stable")
    counts = np.bincount(key)
    ends = np.cumsum(counts)
    runs = [
        (code - 1, int(hi - c), int(hi))
        for code, (c, hi) in enumerate(zip(counts, ends))
        if c
    ]
    return order, runs


def eval_map_batch(rm, x):
    """Evaluate the realized map at a non-empty (m, n) batch of finite,
    nonzero points.

    Dispatch takes one stable sort of the region codes (``_region_runs``):
    the points are gathered once into region order, each shell formula runs
    on its contiguous slice, and the images are put back in batch order
    once.  Beyond the shell formulas its cost is one radix sort and two row
    gathers, whatever the number of shells.  The gathers use ``np.take``:
    on (m, 3) rows it is several times faster than fancy indexing.
    """
    a = np.atleast_2d(np.asarray(x, dtype=float))
    if a.size == 0 or not np.all(np.isfinite(a)):
        raise InvalidInputError("points must be a non-empty finite batch")
    r = np.linalg.norm(a, axis=1)
    if r.min() == 0.0:
        raise OriginError("realized map evaluation requires x != 0")
    order, runs = _region_runs(_locate(rm, r))
    a_s, r_s = np.take(a, order, axis=0), r[order]
    out_s = np.empty_like(a_s)
    for code, lo, hi in runs:
        xs, rs = a_s[lo:hi], r_s[lo:hi]
        if code == -1:
            out_s[lo:hi] = _apply_boundary_stretch(xs, rs, rm.outer_K, rm.outer_frame)
        elif code == len(rm.pieces):
            out_s[lo:hi] = _apply_boundary_stretch(xs, rs, rm.inner_K, rm.inner_frame)
        else:
            out_s[lo:hi] = _apply_piece(rm.pieces[code], xs, rs)
    inverse = np.empty_like(order)
    inverse[order] = np.arange(order.size)
    return np.take(out_s, inverse, axis=0)


def eval_map(rm, x):
    """Evaluate the realized map at a single nonzero point."""
    return eval_map_batch(rm, np.asarray(x, dtype=float)[None, :])[0]


# Sizes of the fixed mean-radius rule (see ``mean_radius_batch``).
FIBONACCI_POINTS = 4096
GAUSS_NODES = 256

# The mean-radius quadrature and the Hausdorff scan both run in row blocks of
# about this many elements, 256 KiB per float64 block buffer, so a block
# stays in a core's L2 cache: on a 2 MiB-L2 Xeon, 2^17- and 2^18-pair
# Hausdorff blocks ran a 15k x 960 scan 1.3x and 1.7x slower.
_BLOCK = 1 << 15


@functools.cache
def _sphere_rule(n):
    """Squared first direction cosines u^2 and weights of the mean-radius
    rule on the unit sphere in R^n.

    The n = 3 case uses a Fibonacci lattice whose uniform coordinate is the
    first axis, and higher n reduce to a Gauss-Legendre rule with the
    (1-u^2)^{(n-3)/2} surface weight.
    """
    if n == 3:
        u = fibonacci_sphere(FIBONACCI_POINTS)[:, 0]
        weights = np.full(u.size, 1.0 / u.size)
    else:
        u, gl_w = np.polynomial.legendre.leggauss(GAUSS_NODES)
        w = gl_w * (1.0 - u * u) ** ((n - 3) / 2.0)
        weights = w / w.sum()
    u2 = u * u
    u2.setflags(write=False)
    weights.setflags(write=False)
    return u2, weights


def _interp_mean_pow(piece, nu, n):
    """Mean over the unit sphere of the interpolation profile to the n-th power.

    The profile depends only on the first direction cosine, so ln lambda_K
    and ln lambda_L are taken once at the rule's nodes.  The radii (one nu
    each) are then walked in row blocks of about ``_BLOCK`` elements, the
    same cache-sized blocks as the Hausdorff scan: each block is mixed,
    scaled by n, exponentiated and weighted in place in one buffer.
    """
    u2, weights = _sphere_rule(n)
    log_k = np.log(stretch_factor(u2, piece.K))
    log_l = np.log(stretch_factor(u2, piece.L))
    nu = np.atleast_1d(nu)
    rows = max(1, _BLOCK // u2.size)
    cuts = [*range(0, nu.size, rows), nu.size]
    if len(cuts) > 2 and cuts[-1] - cuts[-2] == 1:
        # a one-row product is a dot product, whose sum order differs from
        # the matrix-vector product's, so a lone last row joins its block
        del cuts[-2]
    buf = np.empty((min(rows + 1, nu.size), u2.size))
    out = np.empty(nu.size)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        blk = _interp_log_mix(nu[lo:hi, None], log_k, log_l, out=buf[: hi - lo])
        blk *= n
        np.exp(blk, out=blk)
        out[lo:hi] = blk @ weights
    return out


def mean_radius_batch(rm, radii):
    """rho_f at each of a non-empty batch of finite positive radii: closed
    ellipsoid form except inside interpolation shells, where the star-shaped
    image radius is integrated.

    The integral uses one fixed rule per dimension: the 4096-point Fibonacci
    lattice at n = 3 and 256-node Gauss-Legendre above (FIBONACCI_POINTS,
    GAUSS_NODES).  ``_interp_mean_pow`` applies it in the same cache-sized
    row blocks as the Hausdorff scan.  Radii are dispatched as in
    ``eval_map_batch``: one stable sort of the region codes, one contiguous
    slice per region, one scatter back.
    """
    r = np.atleast_1d(np.asarray(radii, dtype=float))
    if r.size == 0 or not np.all(np.isfinite(r)):
        raise InvalidInputError("radii must be a non-empty finite batch")
    if r.min() <= 0.0:
        raise InvalidInputError("radii must be positive")
    order, runs = _region_runs(_locate(rm, r))
    n = rm.n
    r_s = r[order]
    out_s = np.empty_like(r_s)
    for code, lo, hi in runs:
        rs = r_s[lo:hi]
        if code == -1:
            out_s[lo:hi] = rm.outer_K ** (1.0 / n) * rs
        elif code == len(rm.pieces):
            out_s[lo:hi] = rm.inner_K ** (1.0 / n) * rs
        else:
            p = rm.pieces[code]
            if p.kind == "spiral":
                out_s[lo:hi] = p.K ** (1.0 / n) * rs
            else:
                res = out_s[lo:hi]
                at_out = np.abs(np.log(rs / p.r_out)) <= 1e-9
                at_in = np.abs(np.log(rs / p.r_in)) <= 1e-9
                res[at_out] = p.K ** (1.0 / n) * rs[at_out]
                res[at_in] = p.L ** (1.0 / n) * rs[at_in]
                mid = ~(at_out | at_in)
                if np.any(mid):
                    nu = (np.log(rs[mid]) - np.log(p.r_in)) / (p.t - p.s)
                    mean = _interp_mean_pow(p, nu, n)
                    res[mid] = mean ** (1.0 / n) * rs[mid]
    out = np.empty_like(r_s)
    out[order] = out_s
    return out


def mean_radius(rm, r):
    """Mean radius rho_f(r): radius of the ball matching the image volume."""
    return float(mean_radius_batch(rm, [r])[0])


def rescaled_map(rm, t, x):
    """f(t x) / rho_f(t), the rescaling whose limits are generalized
    derivatives."""
    if t <= 0:
        raise InvalidInputError("scale t must be positive")
    a = np.asarray(x, dtype=float)
    return eval_map(rm, t * a) / mean_radius(rm, t)


def _e1(n):
    e = np.zeros(n)
    e[0] = 1.0
    return e


def orbit_curve(rm, t_values):
    """Samples of the orbit curve gamma(t) = f(t e_1) / rho_f(t)."""
    return orbit_table(rm, t_values)["gamma"]


def orbit_table(rm, t_values):
    """Orbit samples plus the active region code and rho per sample."""
    t = np.asarray(t_values, dtype=float)
    if t.ndim != 1 or t.size == 0 or not np.all(np.isfinite(t)) or t.min() <= 0:
        raise InvalidInputError("t values must be a nonempty finite positive sequence")
    y = eval_map_batch(rm, t[:, None] * _e1(rm.n)[None, :])
    rho = mean_radius_batch(rm, t)
    return {"t": t, "gamma": y / rho[:, None], "piece": _locate(rm, t), "rho": rho}


def default_orbit_times(rm, per_piece=200):
    """Decreasing t grid: 4 outer samples, then log-spaced samples per shell
    with every boundary radius included exactly."""
    ts = [np.geomspace(2.0 * rm.r_start, rm.r_start, 4, endpoint=False)]
    for p in rm.pieces:
        ts.append(np.geomspace(p.r_out, p.r_in, per_piece, endpoint=False))
    ts.append(np.array([rm.r_end]))
    return np.concatenate(ts)


def hausdorff_by_suffix(a, b, starts):
    """Hausdorff distance between each suffix a[s:] and b, for s in `starts`.

    One pass walks `a` from its end toward index 0 in row blocks of about
    ``_BLOCK`` (row, column) pairs and builds each block's squared-distance
    matrix against `b` once, in two buffers allocated once per call (the
    same cache-sized blocks as the mean-radius quadrature).  The block serves
    both directions: a running max of the row minima gives the a-suffix to b
    distance, a running per-column min gives the b to a-suffix one, and the
    state is read off as the walk passes each start.  The cost is one
    len(a) x len(b) scan however many starts are asked for.

    Squared distances are summed per coordinate from explicit differences,
    (dx*dx + dy*dy) + dz*dz in coordinate order, not from the expanded
    dot-product form: identical samples report exactly zero and, below 8
    coordinates, each value equals ``np.sum`` over the squared differences.
    """
    pa = np.atleast_2d(np.asarray(a, dtype=float))
    pb = np.atleast_2d(np.asarray(b, dtype=float))
    if pa.size == 0 or pb.size == 0:
        raise InvalidInputError("point sets must be non-empty")
    if not (np.all(np.isfinite(pa)) and np.all(np.isfinite(pb))):
        raise InvalidInputError("point sets must be finite")
    if pa.shape[1] != pb.shape[1]:
        raise InvalidInputError("dimension mismatch")
    starts = [int(s) for s in starts]
    if any(not 0 <= s < len(pa) for s in starts):
        raise InvalidInputError("suffix starts must index a non-empty suffix of a")
    rows = max(1, _BLOCK // len(pb))
    # rows before the lowest start belong to no requested suffix
    lowest = min(starts, default=len(pa))
    cuts = sorted(set(starts).union(range(lowest, len(pa), rows)), reverse=True)
    wanted = set(starts)
    row_worst = 0.0
    col_min = np.full(len(pb), np.inf)
    found = {}
    # one contiguous row per coordinate, so each subtract streams
    cols_a = np.ascontiguousarray(pa.T)
    cols_b = np.ascontiguousarray(pb.T)
    d2_buf = np.empty((min(rows, len(pa)), len(pb)))
    sq_buf = np.empty_like(d2_buf)
    hi = len(pa)
    for lo in cuts:
        d2, sq = d2_buf[: hi - lo], sq_buf[: hi - lo]
        np.subtract(cols_a[0, lo:hi, None], cols_b[0], out=d2)
        np.square(d2, out=d2)
        for c in range(1, pa.shape[1]):
            np.subtract(cols_a[c, lo:hi, None], cols_b[c], out=sq)
            np.square(sq, out=sq)
            d2 += sq
        row_worst = max(row_worst, float(np.sqrt(d2.min(axis=1)).max()))
        np.minimum(col_min, d2.min(axis=0), out=col_min)
        if lo in wanted:
            found[lo] = max(row_worst, float(np.sqrt(col_min).max()))
        hi = lo
    return [found[s] for s in starts]


def hausdorff_distance(a, b):
    """Symmetric Hausdorff distance between finite point samples.

    The whole of `a` is the one suffix of ``hausdorff_by_suffix``, so
    distances come from explicit coordinate differences and identical
    samples report exactly zero.
    """
    return hausdorff_by_suffix(a, b, [0])[0]


def min_expansion_ratio(rm, pairs, seed=0):
    """Smallest |f(a) - f(b)| / |a - b| over seeded random pairs.

    Radii are drawn log-uniformly from r_end / 2 to 2 r_start, across the
    shell stack, so the sample spans every piece; a positive result
    certifies injectivity statistically.
    """
    rng = np.random.default_rng(seed)
    lo, hi = np.log(0.5 * rm.r_end), np.log(2.0 * rm.r_start)

    def sample(m):
        v = rng.standard_normal((m, rm.n))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return v * np.exp(rng.uniform(lo, hi, m))[:, None]

    a = sample(pairs)
    b = sample(pairs)
    keep = np.linalg.norm(a - b, axis=1) > 1e-12
    a, b = a[keep], b[keep]
    num = np.linalg.norm(eval_map_batch(rm, a) - eval_map_batch(rm, b), axis=1)
    den = np.linalg.norm(a - b, axis=1)
    return float((num / den).min())
