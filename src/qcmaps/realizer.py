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

import contextlib
import functools
import numbers
import sys

import numpy as np

from . import kernels
from .canonical_maps import (
    _interp_log_weight,
    _interp_pow_tables,
    _read_only,
    _record,
    _scale_rows,
    _spiral_shell,
    _stretch_factor,
    interp_inner_s,
    select_alpha,
)
from .errors import InvalidInputError, OriginError, PlanningError
from .vecgeom import fibonacci_sphere, frame_from_direction, planar_rotation, unit

# Planned hops must chain to this accuracy; arcs must lie in the running
# spiral plane to the same accuracy.
CHAIN_TOL = 1e-9
# ln of the least radius whose square is a normal float64, so that norms
# formed as sqrt(sum x_i^2) neither underflow to 0 nor lose digits
_LOG_RADIUS_FLOOR = 0.5 * np.log(np.finfo(float).tiny)


# =====================================================================
# Targets and path segments
# =====================================================================

def _is_real(v):
    """Whether v is a real number: a ``numbers.Real`` that is not a bool, so
    that a JSON string or true is not read as a coordinate or a bound."""
    return isinstance(v, numbers.Real) and not isinstance(v, (bool, np.bool_))


class TargetSet(_record("TargetSet", "waypoints closed annulus_bound")):
    """Waypoint polyline inside the annulus 1/C <= |y| <= C."""

    __slots__ = ()

    def __new__(cls, waypoints, closed=False, annulus_bound=None):
        try:
            w = np.asarray(waypoints, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(
                f"waypoints must be an (m, n>=3) array of numbers: {exc}") from exc
        if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 3:
            raise InvalidInputError("waypoints must be an (m, n>=3) array")
        if isinstance(waypoints, np.ndarray):
            bad = [] if waypoints.dtype.kind in "iuf" else [f"dtype {waypoints.dtype}"]
        else:
            bad = [repr(v) for row in waypoints for v in row if not _is_real(v)]
        if bad:
            raise InvalidInputError(
                f"waypoints must be an (m, n>=3) array of numbers, got {bad[0]}")
        if not np.all(np.isfinite(w)):
            raise InvalidInputError("waypoints have non-finite coordinates")
        radii = np.linalg.norm(w, axis=1)
        if radii.min() == 0.0:
            raise InvalidInputError("waypoints must avoid the origin")
        pairs = zip(w[:-1], w[1:])
        for i, (a, b) in enumerate(pairs):
            if np.linalg.norm(a - b) <= 1e-12:
                raise InvalidInputError(f"waypoints {i} and {i + 1} coincide")
        if not isinstance(closed, (bool, np.bool_)):
            raise InvalidInputError(f"closed must be true or false, got {closed!r}")
        if closed and len(w) > 1 and np.linalg.norm(w[-1] - w[0]) <= 1e-12:
            raise InvalidInputError("closed polylines must not repeat the start")
        c = annulus_bound
        if c is None:
            c = max(radii.max(), 1.0 / radii.min()) * (1.0 + 1e-12)
        else:
            if not _is_real(c):
                raise InvalidInputError(f"annulus bound C must be a number, got {c!r}")
            # NaN fails both comparisons, and an integer beyond the float
            # range fails the first as an infinite bound does
            if not (abs(c) <= sys.float_info.max and c >= 1.0):
                raise InvalidInputError(f"annulus bound C must be finite and >= 1, got {c!r}")
            if radii.max() > c * (1 + 1e-9) or radii.min() < (1 - 1e-9) / c:
                raise InvalidInputError("waypoints leave the declared annulus")
        return super().__new__(cls, _read_only(w), closed, float(c))

    @property
    def n(self):
        return self.waypoints.shape[1]


class RadialSegment(_record("RadialSegment", "u1 u2 sigma")):
    """Move along the ray through sigma from radius u1 to u2."""

    __slots__ = ()

    def __new__(cls, u1, u2, sigma):
        if u1 <= 0 or u2 <= 0:
            raise InvalidInputError("radii must be positive")
        return super().__new__(cls, u1, u2, unit(sigma, "sigma"))


class ArcSegment(_record("ArcSegment", "u sigma1 sigma2")):
    """Great-circle arc at radius u from sigma1 to sigma2 (minor arc)."""

    __slots__ = ()

    def __new__(cls, u, sigma1, sigma2):
        if u <= 0:
            raise InvalidInputError("radius must be positive")
        s1 = unit(sigma1, "sigma1")
        s2 = unit(sigma2, "sigma2")
        if np.linalg.norm(s1 + s2) <= 1e-10:
            raise PlanningError("antipodal arc endpoints: insert a waypoint")
        if np.linalg.norm(s1 - s2) <= 1e-12:
            raise InvalidInputError("arc endpoints coincide")
        return super().__new__(cls, u, s1, s2)


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
    # the gap is checked before the k_max plans are built, so a k_max far
    # too deep for the waypoints is refused without allocating its plans
    trace = np.concatenate([_segment_trace(s) for s in forward], axis=0)
    poly = _polyline_samples(w, target.closed)
    gap = hausdorff_distance(trace, poly)
    if gap > 0.5 / k_max:
        raise PlanningError(
            f"plan trace is {gap:.3g} from the polyline; need <= {0.5 / k_max:.3g}. "
            "Add waypoints or lower k_max"
        )
    if target.closed:
        return [list(forward) for _ in range(k_max)]
    backward = _decompose(w[::-1], False)
    return [
        list(forward) if k % 2 == 1 else list(backward)
        for k in range(1, k_max + 1)
    ]


# =====================================================================
# Shell assembly
# =====================================================================

class ShellPiece(_record(
    "ShellPiece", "r_out r_in kind frame K L s t alpha theta sweep"
)):
    """One annular shell with its active map formula.

    Spiral shells carry (K, alpha, theta); interpolation shells carry
    (K, L, s, t).  `frame` is the entry frame: first column is the entry
    stretch direction, and for spirals the (1,2)-columns span the rotation
    plane.  `sweep` is the 1-based plan index that produced the piece.
    """

    __slots__ = ()

    def __new__(cls, r_out, r_in, kind, frame, K, L=None, s=None, t=None,
                alpha=None, theta=None, sweep=1):
        if not (0 < r_in < r_out):
            raise InvalidInputError("need 0 < r_in < r_out")
        if kind not in ("spiral", "interp"):
            raise InvalidInputError("kind must be 'spiral' or 'interp'")
        return super().__new__(
            cls, r_out, r_in, kind, _read_only(frame), K, L, s, t, alpha, theta, sweep
        )

    @property
    def exit_frame(self):
        if self.kind == "spiral":
            n = self.frame.shape[0]
            return self.frame @ planar_rotation(self.theta, 0, 1, n)
        return self.frame

    @property
    def exit_K(self):
        return self.K if self.kind == "spiral" else self.L


class RealizedMap(_record(
    "RealizedMap", "pieces outer_K outer_frame n checkpoints"
)):
    """Piecewise shell map, total on R^n with f(0) = 0.

    Outside the first shell the map is the entry boundary stretch; below the
    last shell it is the exit boundary stretch; in between each shell applies
    its own formula.  Adjacent formulas agree on the shared spheres, so the
    map is continuous and (for certified spiral rates) injective.
    """

    __slots__ = ()

    def __new__(cls, pieces, outer_K, outer_frame, n, checkpoints=()):
        outer_frame = _read_only(outer_frame)
        pieces = tuple(pieces)
        radii = [p.r_out for p in pieces] + [p.r_in for p in pieces[-1:]]
        if any(b >= a for a, b in zip(radii, radii[1:])) or any(
            abs(p.r_in - q.r_out) > 1e-12 * p.r_in
            for p, q in zip(pieces, pieces[1:])
        ):
            raise InvalidInputError("shells must tile with decreasing radii")
        return super().__new__(cls, pieces, outer_K, outer_frame, n, checkpoints)

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
            frame = piece.exit_frame
            checks.append((r_in, seg.u, frame[:, 0].copy()))
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
    """Region code per radius: -1 outer, 0..N-1 shells, N inner closure.

    The code is the number of the map's spheres strictly above the radius,
    minus one, counted by one ``np.searchsorted`` over the sphere radii in
    ascending order: the last shell's r_in, then each shell's r_out from
    the innermost out.  A map with no shells has no spheres, so every
    radius is outer.
    """
    spheres = [p.r_out for p in rm.pieces] + [p.r_in for p in rm.pieces[-1:]]
    bounds = np.array(spheres[::-1])
    return len(bounds) - 1 - np.searchsorted(bounds, radii, side="right")


def _apply_boundary_stretch(x, r, kfac, frame, out=None):
    lam = _stretch_factor((x[:, 0] / r) ** 2, kfac)
    return _scale_rows(lam, x @ frame.T, out)


def _apply_piece(piece, x, r, out=None):
    """Images of the points x, |x| = r, inside `piece`, written to `out`
    when it is given.  A spiral piece overwrites x (``_spiral_shell``)."""
    if piece.kind == "spiral":
        beta = piece.alpha * np.log(r / piece.r_out)
        return _spiral_shell(x, r, piece.K, beta, piece.frame, out)
    nu = np.clip((np.log(r) - np.log(piece.r_in)) / (piece.t - piece.s), 0.0, 1.0)
    mu = np.exp(_interp_log_weight((x[:, 0] / r) ** 2, nu, piece.K, piece.L))
    return _scale_rows(mu, x @ piece.frame.T, out)


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
    """Evaluate the realized map at one finite nonzero point (n,) or at a
    non-empty (m, n) batch of them; returns the matching shape.

    Dispatch takes one stable sort of the region codes (``_region_runs``):
    the points are gathered once into region order, each shell formula runs
    on its contiguous slice, and the images are put back in batch order
    once.  Beyond the shell formulas its cost is one radix sort and two row
    gathers, whatever the number of shells.  The gathers use ``np.take``:
    on (m, 3) rows it is several times faster than fancy indexing.
    """
    a = np.asarray(x, dtype=float)
    single = a.ndim == 1
    if single:
        a = a[None, :]
    if a.ndim != 2 or a.shape[1] != rm.n:
        raise InvalidInputError(f"points must be (n,) or (m, n) arrays with n = {rm.n}")
    if a.size == 0 or not np.all(np.isfinite(a)):
        raise InvalidInputError("points must be a non-empty finite batch")
    r = np.sqrt(kernels._sum_sq(a.T))
    if r.min() == 0.0:
        raise OriginError("realized map evaluation requires x != 0")
    order, runs = _region_runs(_locate(rm, r))
    a_s, r_s = np.take(a, order, axis=0), r[order]
    out_s = np.empty_like(a_s)
    for code, lo, hi in runs:
        xs, rs, out = a_s[lo:hi], r_s[lo:hi], out_s[lo:hi]
        if code == -1:
            _apply_boundary_stretch(xs, rs, rm.outer_K, rm.outer_frame, out)
        elif code == len(rm.pieces):
            _apply_boundary_stretch(xs, rs, rm.inner_K, rm.inner_frame, out)
        else:
            _apply_piece(rm.pieces[code], xs, rs, out)
    inverse = np.empty_like(order)
    inverse[order] = np.arange(order.size)
    out = np.take(out_s, inverse, axis=0)
    return out[0] if single else out


# Sizes of the fixed mean-radius rule (see ``mean_radius_batch``).
FIBONACCI_POINTS = 4096
GAUSS_NODES = 256

# The mean-radius quadrature and the Hausdorff scan both run in blocks of
# about this many elements, 256 KiB per float64 block buffer, so that a block
# and the operands read with it stay in a core's L2 cache: on a 2 MiB-L2
# Xeon, 2^17- and 2^18-pair Hausdorff blocks ran a dense 15k x 960 scan 1.3x
# and 1.7x slower.
_BLOCK = 1 << 15
# Elements of numpy's ufunc buffer while those blocks run (``_row_buffer``),
# the quadrature's row length at n >= 4.  Sizes from 16 to 1024 ran the
# realize quadratures and scans equally fast; 1024 ran the n = 4 quadrature
# 10% slower.
_ROW_BUFFER = 128


@contextlib.contextmanager
def _row_buffer():
    """Run the body with numpy's ufunc buffer at ``_ROW_BUFFER`` elements.

    A block broadcasts a column against rows of 16 to 2048 elements.  numpy
    runs such a broadcast through its buffered loop, several times slower
    per element, whenever a row is shorter than the ufunc buffer (8192
    elements by default); with a buffer no longer than a row it runs each
    row in place.  The buffer
    changes only how an element-wise loop is cut, not what it computes, and
    ``np.einsum`` keeps its own buffer, so every result keeps its bits.
    The old size comes back in a ``finally``, since before numpy 2 no
    ``np.errstate`` scopes the buffer size.
    """
    old = np.setbufsize(_ROW_BUFFER)
    try:
        yield
    finally:
        np.setbufsize(old)


@functools.cache
def _sphere_rule(n):
    """Distinct squared first direction cosines u^2 of the mean-radius rule
    on the unit sphere in R^n, and their weights.

    The n = 3 case uses a Fibonacci lattice whose uniform coordinate is the
    first axis, and higher n reduce to a Gauss-Legendre rule with the
    (1-u^2)^{(n-3)/2} surface weight.  Both rules are symmetric in u and
    the interpolation profile depends on u^2 alone, so nodes sharing a u^2
    are taken as one, weighted by the sum of their weights: 2048 nodes at
    n = 3 and 128 above, in increasing order of u^2.
    """
    if n == 3:
        u = fibonacci_sphere(FIBONACCI_POINTS)[:, 0]
        weights = np.full(u.size, 1.0 / u.size)
    else:
        u, gl_w = np.polynomial.legendre.leggauss(GAUSS_NODES)
        w = gl_w * (1.0 - u * u) ** ((n - 3) / 2.0)
        weights = w / w.sum()
    u2, node = np.unique(u * u, return_inverse=True)
    weights = np.bincount(node, weights=weights)
    u2.setflags(write=False)
    weights.setflags(write=False)
    return u2, weights


def _mean_pow(piece, nu, n):
    """The mean over the unit sphere of one interpolation shell's profile to
    the n-th power at the parameters `nu`, one entry per parameter.

    The profile's n-th power at a node is exp(a + nu b), from the node
    tables of ``_interp_pow_tables``.  The radii run in blocks of about
    ``_BLOCK`` entries, one row per radius and one column per node, under
    ``_row_buffer``: each block is nu times the table b, plus the table a,
    exponentiated in place and summed per row against the weights by
    ``np.einsum``, which calls no BLAS.  A row's arithmetic reads only its
    own radius, so each mean has the same bits in any batch, block or order.
    """
    u2, weights = _sphere_rule(n)
    a, b = _interp_pow_tables(u2, piece.K, piece.L, n)
    rows = max(1, _BLOCK // u2.size)
    buf = np.empty((min(rows, nu.size), u2.size))
    out = np.empty(nu.size)
    with _row_buffer():
        for lo in range(0, nu.size, rows):
            hi = min(lo + rows, nu.size)
            blk = np.multiply(nu[lo:hi, None], b, out=buf[:hi - lo])
            blk += a
            np.exp(blk, out=blk)
            out[lo:hi] = np.einsum("ij,j->i", blk, weights)
    return out


def mean_radius_batch(rm, radii):
    """rho_f at each of a non-empty batch of finite positive radii: closed
    ellipsoid form except inside interpolation shells, where the star-shaped
    image radius is integrated.

    The integral uses one fixed rule per dimension: the 4096-point Fibonacci
    lattice at n = 3 and 256-node Gauss-Legendre above (FIBONACCI_POINTS,
    GAUSS_NODES), on its 2048 or 128 distinct values of u^2
    (``_sphere_rule``).  Radii are dispatched as in ``eval_map_batch``: one
    stable sort of the region codes, one contiguous slice per region, one
    scatter back.  Each shell's rule runs inline in the blocks of
    ``_mean_pow``, one row of 2048 or 128 nodes per radius under a ufunc
    buffer no longer than a row (``_row_buffer``), and calls no BLAS, so
    each radius's rho depends on that radius alone: not on the other radii
    of the batch or their order.
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
                    res[mid] = _mean_pow(p, nu, n) ** (1.0 / n) * rs[mid]
    out = np.empty_like(r_s)
    out[order] = out_s
    return out


def _e1(n):
    e = np.zeros(n)
    e[0] = 1.0
    return e


def orbit_table(rm, t_values):
    """Samples of the orbit curve gamma(t) = f(t e_1) / rho_f(t), the
    rescaling whose limits are generalized derivatives, plus the active
    region code and rho per sample."""
    t = np.asarray(t_values, dtype=float)
    if t.ndim != 1 or t.size == 0 or not np.all(np.isfinite(t)) or t.min() <= 0:
        raise InvalidInputError("t values must be a nonempty finite positive sequence")
    y = eval_map_batch(rm, t[:, None] * _e1(rm.n)[None, :])
    rho = mean_radius_batch(rm, t)
    return {"t": t, "gamma": y / rho[:, None], "piece": _locate(rm, t), "rho": rho}


def default_orbit_times(rm, per_piece=200):
    """Decreasing t grid: 4 outer samples, then log-spaced samples per shell
    with every boundary radius included exactly.  One ``np.geomspace`` over
    the shells' radius arrays makes every shell's samples, a row per shell."""
    r_out = np.array([p.r_out for p in rm.pieces])
    r_in = np.array([p.r_in for p in rm.pieces])
    shells = np.geomspace(r_out, r_in, per_piece, endpoint=False, axis=1)
    outer = np.geomspace(2.0 * rm.r_start, rm.r_start, 4, endpoint=False)
    return np.concatenate([outer, shells.ravel(), [rm.r_end]])


# Rows per chunk of the Hausdorff scan's bounding balls.  Smaller chunks cull
# more pairs but make more chunk pairs to bound and more blocks to walk; 16
# scanned the realize orbits fastest among 8, 16, 24 and 32.
_CHUNK = 16
# Relative slack on the chunk bounds, far above their rounding (a few eps of
# the bounded distances), plus an absolute floor that keeps every pair whose
# squared distance could be subnormal, where rounding stops being relative.
_SLACK = 1e-9
_TINY = 1e-150


def _chunk_balls(cols, cuts):
    """Centres (d, k) and radii (k,) of balls around the k chunks of the
    coordinate rows `cols` (d, m) between consecutive `cuts`."""
    lo = cuts[:-1]
    sizes = np.diff(cuts)
    centres = np.add.reduceat(cols, lo, axis=1) / sizes
    r2 = np.zeros(cols.shape[1])
    for c in range(len(cols)):
        diff = cols[c] - np.repeat(centres[c], sizes)
        r2 += np.square(diff, out=diff)
    return centres, np.sqrt(np.maximum.reduceat(r2, lo))


def _ball_gaps(ca, cb):
    """Distances |cI - cJ| between the centres ca (d, k) and cb (d, l), as
    an (l, k) array."""
    gap = np.zeros((cb.shape[1], ca.shape[1]))
    sq = np.empty_like(gap)
    for c in range(len(ca)):
        np.subtract(cb[c][:, None], ca[c], out=sq)
        np.square(sq, out=sq)
        gap += sq
    return np.sqrt(gap, out=gap)


def _chunk_keep(ca, ra, seg_first, cb, rb):
    """keep[J, I]: whether chunk J of b must be scanned against chunk I of a.

    The chunks of `a` have ball centres `ca` (d, k) and radii `ra`, and
    those from index seg_first[g] on form segment g; the chunks of `b` have
    `cb` and `rb`.  A pair of chunks I, J has every distance between lb =
    |cI - cJ| - RI - RJ and ub = |cI - cJ| + RI + RJ.  The nearest sample of
    `b` to a row of I lies within the min over J of ub(I, J), and the
    nearest row of the segment-g suffix of `a` to a sample of J within the
    min of ub(I', J) over the chunks I' of that suffix.  So a pair whose lb
    exceeds both can hold neither minimum.  ``_SLACK`` and ``_TINY`` widen
    the bounds, which can keep a pair but never cull one that holds a
    minimum of the computed squared distances.

    Yields (J0, keep[J0:J1]) for blocks of rows of about ``_BLOCK`` entries:
    a first pass takes the row bounds, a second the column bounds and the
    keep test, so the bounds hold O(_BLOCK + k) floats however many chunk
    pairs there are.
    """
    step = max(1, _BLOCK // len(ra))
    spans = [(j, min(j + step, len(rb))) for j in range(0, len(rb), step)]
    seg_of = np.repeat(np.arange(len(seg_first)), np.diff([*seg_first, len(ra)]))
    row_ub = np.full(len(ra), np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        for j0, j1 in spans:
            ub = _ball_gaps(ca, cb[:, j0:j1])
            ub += rb[j0:j1, None]
            ub += ra
            if not np.isfinite(ub).all():
                # a bound overflowed, so the balls cull nothing
                for k0, k1 in spans:
                    yield k0, np.ones((k1 - k0, len(ra)), dtype=bool)
                return
            np.minimum(row_ub, ub.min(axis=0), out=row_ub)
    row_ub *= 1.0 + _SLACK
    for j0, j1 in spans:
        gap = _ball_gaps(ca, cb[:, j0:j1])
        ub = gap + rb[j0:j1, None]
        ub += ra
        ub *= 1.0 + _SLACK
        seg_ub = np.minimum.reduceat(ub, seg_first, axis=1)
        suffix_ub = np.minimum.accumulate(seg_ub[:, ::-1], axis=1)[:, ::-1]
        reach = np.take(suffix_ub, seg_of, axis=1)
        np.maximum(reach, row_ub, out=reach)
        lb = np.multiply(gap, 1.0 - _SLACK, out=gap)
        lb -= rb[j0:j1, None] * (1.0 + _SLACK)
        lb -= ra * (1.0 + _SLACK) + _TINY
        yield j0, lb <= reach


def _kept_rows(cols_a, cols_b, seg_lo):
    """The rows of `a` that each chunk of `b` is scanned against.

    `a` (coordinate rows `cols_a`, d x m) is cut into chunks of ``_CHUNK``
    rows with a cut at each segment start in `seg_lo`, and `b` into chunks
    of ``_CHUNK`` rows; ``_chunk_keep`` says which chunk pairs to scan.
    Yields (c0, c1, rows) per chunk b[c0:c1], where rows indexes the rows
    of the chunks of `a` it keeps, in increasing order.
    """
    n_rows = cols_a.shape[1]
    cuts_a = []
    for lo, hi in zip(seg_lo, [*seg_lo[1:], n_rows]):
        cuts_a.extend(range(lo, hi, _CHUNK))
    seg_first = np.searchsorted(cuts_a, seg_lo)
    cuts_a = np.array([*cuts_a, n_rows])
    sizes = np.diff(cuts_a)
    cuts_b = np.array([*range(0, cols_b.shape[1], _CHUNK), cols_b.shape[1]])
    with np.errstate(over="ignore", invalid="ignore"):
        ca, ra = _chunk_balls(cols_a, cuts_a)
        cb, rb = _chunk_balls(cols_b, cuts_b)
    for j0, keep in _chunk_keep(ca, ra, seg_first, cb, rb):
        for j, row in enumerate(keep, j0):
            kept = np.flatnonzero(row)
            n_kept = sizes[kept]
            ends = np.cumsum(n_kept)
            rows = np.arange(ends[-1]) + np.repeat(cuts_a[kept] - ends + n_kept, n_kept)
            yield int(cuts_b[j]), int(cuts_b[j + 1]), rows


def hausdorff_by_suffix(a, b, starts):
    """Hausdorff distance between each suffix a[s:] and b, for s in `starts`.

    The suffixes cut the rows of `a` from the lowest start on into segments,
    one per distinct start.  For each row of `a` the scan finds the least
    squared distance to `b`, and for each column (sample of `b`) the least
    one to each segment.  A start's distance is then the larger of the worst
    row minimum over its suffix and the worst column minimum, folded over
    the segments from the last one back to the start's own.

    Only the pairs that can hold such a minimum are computed:
    ``_chunk_keep`` bounds chunks of consecutive samples by balls and culls
    the chunk pairs that are provably farther apart than an alternative
    (Taha and Hanbury's bound-and-prune idea for the exact Hausdorff
    distance).  Samples along curves, such as orbit and polyline samples,
    form small balls, so few pairs are kept; for unordered clouds nothing is
    culled and the loop is a dense blocked scan.  Each chunk of `b` is
    walked against the rows of `a` it keeps in blocks of up to ``_BLOCK``
    pairs, ``_BLOCK // _CHUNK`` kept rows at a time, in two buffers
    allocated once per call (the same cache-sized blocks as the mean-radius
    quadrature).  A block broadcasts the chunk's column of each coordinate
    against a row of kept rows of `a`, so the bounds and the scan run under
    ``_row_buffer``.  Every chunk of `b` costs a fixed number of numpy
    calls, so the scan is fastest with the larger set as `a`, as the orbit
    is in ``realize`` and as ``hausdorff_distance`` orders its sets.

    Squared distances are summed per coordinate from explicit differences,
    (dx*dx + dy*dy) + dz*dz in coordinate order, not from the expanded
    dot-product form: identical samples report exactly zero and, below 8
    coordinates, each value equals ``np.sum`` over the squared differences.
    The result is the one a scan of every pair gives, to the bit.
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
    if not starts:
        return []
    segs = sorted(set(starts))
    # rows before the lowest start belong to no requested suffix
    seg_lo = [s - segs[0] for s in segs]
    # one contiguous row per coordinate, so each subtract streams
    cols_a = np.ascontiguousarray(pa[segs[0]:].T)
    cols_b = np.ascontiguousarray(pb.T)
    n_rows = cols_a.shape[1]
    seg_of_row = np.repeat(np.arange(len(segs)), np.diff([*seg_lo, n_rows]))
    row_min = np.full(n_rows, np.inf)
    col_min = np.full((len(segs), len(pb)), np.inf)
    # a block is one chunk of `b` against up to `step` of its kept rows of `a`
    step = max(1, _BLOCK // _CHUNK)
    buf = np.empty((2, _CHUNK * step))
    with _row_buffer():
        for c0, c1, rows in _kept_rows(cols_a, cols_b, seg_lo):
            ka = np.take(cols_a, rows, axis=1)
            for r0 in range(0, len(rows), step):
                r1 = min(len(rows), r0 + step)
                idx = rows[r0:r1]
                # the segments met in this block's rows, and where each begins
                seg = seg_of_row[idx]
                first = np.ones(len(seg), dtype=bool)
                np.not_equal(seg[1:], seg[:-1], out=first[1:])
                at = np.flatnonzero(first).tolist()
                parts = zip(seg[at].tolist(), at, [*at[1:], r1 - r0])
                d2 = buf[0, :(c1 - c0) * (r1 - r0)].reshape(c1 - c0, r1 - r0)
                sq = buf[1, :d2.size].reshape(d2.shape)
                # (b - a)^2 == (a - b)^2: negation is exact
                np.subtract(cols_b[0, c0:c1, None], ka[0, r0:r1], out=d2)
                np.square(d2, out=d2)
                for c in range(1, pa.shape[1]):
                    np.subtract(cols_b[c, c0:c1, None], ka[c, r0:r1], out=sq)
                    np.square(sq, out=sq)
                    d2 += sq
                row_min[idx] = np.minimum(row_min[idx], d2.min(axis=0))
                for g, lo, hi in parts:
                    col = col_min[g, c0:c1]
                    np.minimum(col, d2[:, lo:hi].min(axis=1), out=col)
    row_worst = np.maximum.accumulate(np.maximum.reduceat(row_min, seg_lo)[::-1])[::-1]
    col_worst = np.minimum.accumulate(col_min[::-1], axis=0)[::-1].max(axis=1)
    found = dict(zip(segs, np.sqrt(np.maximum(row_worst, col_worst)).tolist()))
    return [found[s] for s in starts]


def hausdorff_distance(a, b):
    """Symmetric Hausdorff distance between finite point samples.

    The larger set is the one suffix of ``hausdorff_by_suffix``, whose scan
    runs fastest that way round: the 15005-sample arc orbit against its 960
    polyline samples scans the same 777120 kept pairs in 60 chunks of the
    polyline in 6.1 ms, and in 938 chunks of the orbit in 37 ms the other
    way (2-vCPU Xeon).  The distance is the same either way, to the bit:
    swapping the sets only flips the sign of each coordinate difference.
    Distances come from explicit coordinate differences, so identical
    samples report exactly zero.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if len(b) > len(a):
        a, b = b, a
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
