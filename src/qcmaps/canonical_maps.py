"""Radial stretch, radial interpolation, and spiral stretch map families.

Each family exists in two coordinate systems:

- y-space maps on R^n (minus the origin where noted), one entry per family
  (``oriented_stretch``, ``interp_stretch``, ``spiral_stretch``) that takes
  an (n,) point or an (m, n) batch and a spec.  The stretch scales by
  K / sqrt(K^2 + (1 - K^2) cos^2 phi), with phi the angle from the spec
  frame's first column, so a single frame drives stretch direction and
  spiral plane.  Each checks the whole batch, then forms the images over
  the row strips of ``kernels._each_strip`` (``_map_strips``), which may
  run on several threads.
- log-coordinate transforms on the fundamental set (conjugation by the cube
  chart Zorich map).  The stretch and interpolation transforms keep the
  chart block and shift the last coordinate by V resp. V_I
  (``stretch_shift_batch``, ``interp_shift_batch``); the spiral transform,
  ``kernels.spiral_u_batch``, rescales the chart block through the
  max-norm/reciprocal-min bookkeeping and shifts the last coordinate by the
  log stretch factor.

The spiral transform's closed-form Jacobian, ``kernels.spiral_jac_batch``, is
assembled per differentiability region (which coordinate attains the
max-norm, which candidate attains the min) and is verified against finite
differences in the tests.  Its determinant has the closed form
(m/d)^{n-1} (1 - alpha coef(K) h), where m and d are the chart block's
max-norms before and after the spiral rotation and h and coef(K) do not
depend on the phase (derived in ``select_alpha``).  ``select_alpha``
certifies the floor 2^{-(n+1)/2} from that form on the two grids of
``certification_grids``; since d <= sqrt(2) m, its alpha-free part
(m/d)^{n-1} is at least 2^{-(n-1)/2}.  Each grid is one read-only
``_SpiralGrid``, built by one walk and cached for the two grids built last:
its phases, its chart points with a kept phase, their phase-major
keep-mask and the closed-form factors.  ``spiral_jacobian_scan`` reads the
same grid but computes the determinants directly, without the closed form:
it takes the phase-free part of each Jacobian once per chart point,
assembles the rest entry by entry over a (phase, chart) grid of pairs, with
the entries of ``kernels.spiral_jac_batch``, screens every determinant with
a Laplace expansion and its rounding bound, and calls LAPACK only on the
pairs the screen keeps as candidates for the minimum.
"""

from __future__ import annotations

import functools
from collections import namedtuple

import numpy as np

from . import kernels
from .errors import InvalidInputError, OriginError, OutsideShellError
from .kernels import HALF_PI, TWO_PI
from .vecgeom import check_frame

SHELL_TOL = 1e-9


# =====================================================================
# Specs
# =====================================================================

def _require_stretch_factor(K):
    if not np.isfinite(K) or K < 1.0:
        raise InvalidInputError("stretch factor must satisfy K >= 1")


def _read_only(a):
    """A read-only float copy of the array `a`."""
    f = np.array(a, dtype=float)
    f.setflags(write=False)
    return f


def _read_only_frame(frame):
    """The validated frame as a read-only float copy."""
    return _read_only(check_frame(frame))


def _record(typename, field_names):
    """A namedtuple base for a record whose ``__new__`` checks and normalizes
    its fields.  Its ``_make``, and so its ``_replace``, builds the record
    through that ``__new__``, not around it."""
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, fields: cls(*fields))
    return base


class _FramedSpec:
    """What every spec shares: a validated, read-only frame and its dimension."""

    __slots__ = ()

    @property
    def n(self):
        return self.frame.shape[0]


class StretchSpec(_FramedSpec, _record("StretchSpec", "K frame")):
    """Stretch by K >= 1 along the frame's first column."""

    __slots__ = ()

    def __new__(cls, K, frame):
        _require_stretch_factor(K)
        return super().__new__(cls, K, _read_only_frame(frame))


class InterpSpec(_FramedSpec, _record("InterpSpec", "K L s t frame")):
    """Interpolate between a K-stretch at log-radius t and an L-stretch at s.

    Requires |ln(K/L)| < (t - s) / 2 so the interpolated shells never cross.
    """

    __slots__ = ()

    def __new__(cls, K, L, s, t, frame):
        for name, v in (("K", K), ("L", L)):
            if not np.isfinite(v) or v < 1.0:
                raise InvalidInputError(f"{name} must satisfy {name} >= 1")
        if not (np.isfinite(s) and np.isfinite(t)) or s >= t:
            raise InvalidInputError("need s < t")
        if abs(np.log(K / L)) >= (t - s) / 2.0:
            raise InvalidInputError("need |ln(K/L)| < (t - s)/2")
        return super().__new__(cls, K, L, s, t, _read_only_frame(frame))


def interp_inner_s(K, L):
    """Inner log-radius s = -(2|ln(K/L)| + 1) of an interpolation shell
    whose outer sphere is t = 0; it keeps |ln(K/L)| < (t - s) / 2."""
    return -(2.0 * abs(np.log(K / L)) + 1.0)


class SpiralSpec(_FramedSpec, _record("SpiralSpec", "K alpha frame")):
    """Stretch by K along the frame's first column while rotating the
    frame's (1,2)-plane by alpha per unit log-radius.

    The admissible |alpha| for a sense-preserving map is certified by
    ``select_alpha``; construction does not re-run the certification.
    """

    __slots__ = ()

    def __new__(cls, K, alpha, frame):
        _require_stretch_factor(K)
        if not np.isfinite(alpha):
            raise InvalidInputError("spiral rate must be finite")
        return super().__new__(cls, K, alpha, _read_only_frame(frame))


# =====================================================================
# Stretch factors and y-space maps
# =====================================================================

def _stretch_factor(cos2, K):
    """K / sqrt(K^2 + (1 - K^2) c) for c = cos^2 of the angle from the axis."""
    return K / np.sqrt(K * K + (1.0 - K * K) * cos2)


def _norms(y):
    return np.sqrt(kernels._sum_sq(np.moveaxis(y, -1, 0)))


def _require_nonzero(r):
    if np.min(r) == 0.0:
        raise OriginError("map is undefined at the origin")


def _as_points(y, n):
    """y as finite points of R^n, the space of the spec they are mapped by."""
    a = np.asarray(y, dtype=float)
    if a.ndim == 0 or a.shape[-1] < 3:
        raise InvalidInputError("points need n >= 3 coordinates")
    if a.shape[-1] != n:
        raise InvalidInputError(
            f"points have {a.shape[-1]} coordinates; the map acts on R^{n}"
        )
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("points have non-finite coordinates")
    return a


def _scale_rows(lam, v, out=None):
    """lam[:, None] * v for an (m, n) array v, one multiply per column: a
    broadcast (m, 1) x (m, n) product runs one inner loop of n entries per
    row.  The result is written to `out` when it is given."""
    if out is None:
        out = np.empty_like(v)
    for i in range(v.shape[1]):
        np.multiply(lam, v[:, i], out=out[:, i])
    return out


def _map_strips(a, body, *per_row):
    """A y-space map of the checked points `a`, evaluated strip by strip.

    body(x, *cols, out) writes the images of the rows x of one strip to out,
    with cols the strip's entries of each per-point array in `per_row`.  The
    strips are those of ``kernels._each_strip`` and may run on several
    threads, so a body calls no public function.  A strip's matrix products
    have at most ``kernels._STRIP`` + 1 rows, which up to n = 5 keeps them
    off OpenBLAS's own threads (see ``kernels``); a single point is a
    one-row strip.  Returns the images in the shape of `a`.
    """
    x = a.reshape(-1, a.shape[-1])
    cols = [np.reshape(v, -1) for v in per_row]
    out = np.empty_like(x)
    kernels._each_strip(
        len(x), lambda s: body(x[s], *(c[s] for c in cols), out[s])
    )
    return out.reshape(a.shape)


def oriented_stretch(y, spec):
    """F . S(F^T y), with S the stretch by K along the first coordinate axis.

    Because S is a scalar profile times the identity, the conjugation
    collapses to scaling y by the profile evaluated at the cosine against
    the frame's first column; the direction of y is preserved.

    The whole batch is checked first (finite, then nonzero); the images are
    then formed strip by strip (``_map_strips``), each row scaled by its
    profile with one multiply per column.
    """
    a = _as_points(y, spec.n)
    r = _norms(a)
    _require_nonzero(r)
    sigma, K = spec.frame[:, 0], spec.K

    def body(x, r, out):
        _scale_rows(_stretch_factor((x @ sigma / r) ** 2, K), x, out)

    return _map_strips(a, body, r)


def _interp_log_weight(cos2, nu, K, L):
    """nu ln(lambda_K) + (1 - nu) ln(lambda_L) at the squared direction
    cosines `cos2`, the one home of the interpolation formula.

    The mean-radius quadrature (``realizer._mean_pow``) evaluates the same
    profile to the n-th power, mu^n = lambda_L^n (lambda_K / lambda_L)^{n nu},
    as exp(a + nu b) on the node tables a = n ln lambda_L and
    b = n (ln lambda_K - ln lambda_L) of ``_interp_pow_tables``.  There
    every radius meets every node, so the mix's two products and its
    temporary, about half of a quadrature block's time, become one
    multiply-add per entry.  The two forms differ by rounding only.
    """
    out = np.multiply(nu, np.log(_stretch_factor(cos2, K)))
    out += (1.0 - nu) * np.log(_stretch_factor(cos2, L))
    return out


def _interp_pow_tables(cos2, K, L, n):
    """The node tables (n ln lambda_L, n (ln lambda_K - ln lambda_L)) at the
    squared direction cosines `cos2`, so that the interpolation profile's
    n-th power at nu is exp(a + nu b) (see ``_interp_log_weight``)."""
    log_l = np.log(_stretch_factor(cos2, L))
    return n * log_l, n * (np.log(_stretch_factor(cos2, K)) - log_l)


def interp_stretch(y, spec):
    """Radial interpolation on the shell e^s <= |y| <= e^t.

    Scalar-times-identity: the K-stretch profile at the outer boundary, the
    L-stretch profile at the inner one, geometrically interpolated by
    nu = (ln|y| - s) / (t - s) in between.

    The whole batch is checked first (finite, nonzero, inside the shell, in
    that order, so a batch that fails several checks raises the first); the
    images are then formed strip by strip (``_map_strips``).
    """
    a = _as_points(y, spec.n)
    r = _norms(a)
    _require_nonzero(r)
    lnr = np.log(r)
    if np.min(lnr) < spec.s - SHELL_TOL or np.max(lnr) > spec.t + SHELL_TOL:
        raise OutsideShellError("point outside the interpolation shell")
    sigma = spec.frame[:, 0]

    def body(x, r, lnr, out):
        nu = np.clip((lnr - spec.s) / (spec.t - spec.s), 0.0, 1.0)
        cos2 = (x @ sigma / r) ** 2
        _scale_rows(np.exp(_interp_log_weight(cos2, nu, spec.K, spec.L)), x, out)

    return _map_strips(a, body, r, lnr)


def spiral_stretch(y, spec):
    """F . [lambda(w) . rotate_{(1,2)}(alpha ln|w|) . w] with w = F^T y.

    Spheres map to ellipsoids with one semi-axis K|y| along the rotated image
    of the frame's first column; the unit sphere is not rotated at all.

    The whole batch is checked first (finite, then nonzero); the images are
    then formed strip by strip (``_map_strips``).
    """
    a = _as_points(y, spec.n)
    r = _norms(a)
    _require_nonzero(r)

    def body(x, r, out):
        beta = spec.alpha * np.log(r)
        _spiral_shell(x @ spec.frame, r, spec.K, beta, spec.frame, out)

    return _map_strips(a, body, r)


def _spiral_shell(w, r, K, beta, frame, out=None):
    """lambda(w) . F . rotate_{(1,2)}(beta) . w for the frame coordinates
    w (m, n) of m points, |w| = r.

    The one spiral formula behind ``spiral_stretch`` and the realizer's
    spiral shells; beta is the rotation angle at each point.  w is
    overwritten: lambda is taken first, then the (1,2) pair is rotated in
    place, so callers pass a temporary of their own.  The images are
    written to `out` when it is given.
    """
    lam = _stretch_factor((w[:, 0] / r) ** 2, K)
    w[:, 0], w[:, 1] = kernels._rotate_pair(w[:, 0], w[:, 1], np.cos(beta), np.sin(beta))
    return _scale_rows(lam, w @ frame.T, out)


# =====================================================================
# Log-coordinate transforms
# =====================================================================

def chart_cos2(xb):
    """cos^2 of the image colatitude for arbitrary chart-block coordinates.

    Folds into the cube first, so both fundamental-set boxes (and any other
    representative) evaluate consistently.
    """
    a = np.asarray(xb, dtype=float)
    p, _ = kernels._fold_chart(a.reshape(-1, a.shape[-1]).T)
    return np.cos(kernels._abs_max(p)).reshape(a.shape[:-1]) ** 2


def stretch_shift_batch(xb, K):
    """Vertical shift V = ln of the stretch profile at the chart colatitude."""
    return np.log(_stretch_factor(chart_cos2(xb), K))


def interp_shift_batch(xb, xn, spec):
    """Vertical shift V_I of the interpolation transform (batched).

    Defined on the slab s <= x_n <= t; the chart block is fixed and x_n gains
    V_I = nu ln(K-profile) + (1 - nu) ln(L-profile), nu = (x_n - s) / (t - s).
    The axis-aligned form: the spec's frame plays no role here.
    """
    xn = np.asarray(xn, dtype=float)
    if np.min(xn) < spec.s - SHELL_TOL or np.max(xn) > spec.t + SHELL_TOL:
        raise OutsideShellError("x_n outside the interpolation slab")
    nu = np.clip((xn - spec.s) / (spec.t - spec.s), 0.0, 1.0)
    return _interp_log_weight(chart_cos2(xb), nu, spec.K, spec.L)


# =====================================================================
# Spiral rate selection
# =====================================================================

# Certification grids keep points at least this far from a pyramid face or a
# candidate switch, mirroring the sigma-finite singular set the analysis
# itself removes.
GRID_BAND = 1e-3
# The largest dimension whose spiral rate is certified: the grids hold
# 13^(n-1) and 25^(n-1) chart points above n = 3, 390625 at n = 5, and the
# refinement scan takes 25 phases of each; n = 6 would take 25^6 pairs.
MAX_SPIRAL_DIM = 5
_ALPHA_CACHE: dict = {}
# Grid reductions work in blocks of this many elements: about this many
# (phase, chart) pairs per block of the ``_spiral_grid`` walk, chart points
# per block of its phase-free terms and of the scan's chart terms, and at
# most this many pairs per Jacobian assembly of ``spiral_jacobian_scan``.
# The warm scan at K = 2 and its certified rate with 2^11 / 2^12 / 2^13 /
# 2^14 pairs (2-vCPU Xeon, medians of 7, three rounds): 50-63 / 46-47 /
# 37-40 / 39-43 ms at n = 3, res 65 and 128-131 / 94-101 / 85-98 / 94-102 ms
# at n = 4, res 25.
_BLOCK = 2 ** 13


def jacobian_floor(n):
    """The determinant floor 2^{-(n+1)/2} a certified spiral rate keeps."""
    return 2.0 ** (-(n + 1) / 2.0)


def certification_grids(n, grid=None):
    """The (coarse, refined) certification grid resolutions for dimension n.

    The coarse grid is 33 at n = 3 and 13 above: a grid of resolution res
    has res^n points, and 13^4 stays below 33^3.  A requested `grid` (the
    CLI --grid) is used as given at n = 3 and capped at 13 above.  The
    refined grid, 2 res - 1, holds every coarse grid point; a certified rate
    passes both.  Above ``MAX_SPIRAL_DIM`` it raises ``InvalidInputError``
    before any grid is built.
    """
    if n > MAX_SPIRAL_DIM:
        raise InvalidInputError(
            f"spiral certification is capped at dimension {MAX_SPIRAL_DIM}, "
            f"got dimension {n}")
    res = 33 if grid is None else grid
    if n != 3:
        res = min(res, 13)
    return res, 2 * res - 1


def _phase_free_terms(xb):
    """(h, s^2) at chart points: h = grad(s^2) . (G x - ((G x)_p / x_p) x) with
    G x = (-x_2, x_1, 0, ...) and p the index of the max-norm coordinate."""
    cols = xb.T
    p, xp, ssq, ds = kernels._spiral_ssq(cols)
    gx = [-cols[1], cols[0], *[0.0] * (len(cols) - 2)]
    ratio = kernels._pick(gx, p) / xp
    # from +0.0, as np.sum adds: a row of -0.0 terms sums to +0.0
    h = np.zeros(len(xp))
    for d, g, c in zip(ds, gx, cols):
        h += d * (g - ratio * c)
    return h, ssq


def _closed_form_det(power, h, ssq, K, alpha):
    """det of ``spiral_jac_batch``: power * (1 - alpha * coef(K) * h).

    coef(K) = (K^2 - 1) / (2 g) with g = K^2 + (1 - K^2) s^2 is the last
    row's factor; see the ``select_alpha`` docstring for the derivation.
    """
    g = K * K + (1.0 - K * K) * ssq
    return power * (1.0 - alpha * (K * K - 1.0) / (2.0 * g) * h)


class _SpiralGrid(_record("_SpiralGrid", "phases coords keep power h ssq")):
    """The chart points of a certification grid that have a kept phase.

    `phases` holds the res rotation phases alpha * x_n of the grid, so one
    grid serves every trial rate; `coords` the kept chart points as (n-1, N)
    coordinate rows, in row order; `keep` the (res, N) phase-major mask of
    the (phase, chart) pairs whose pyramid and switch margins are both at
    least GRID_BAND.  Per chart point, the factors of ``_closed_form_det``:
    `power` the min over its kept phases of (m/d)^{n-1}, and `h` and `ssq`
    the phase-free terms.  Every array is a read-only view.
    """

    __slots__ = ()

    def __new__(cls, *arrays):
        views = [np.asarray(a).view() for a in arrays]
        for a in views:
            a.setflags(write=False)
        return super().__new__(cls, *views)


@functools.lru_cache(maxsize=2)
def _spiral_grid(n, res):
    """The _SpiralGrid of resolution res: one walk, shared by the rate
    search (``select_alpha``) and the direct scan (``spiral_jacobian_scan``).

    The walk takes the res^{n-1} chart points in row order, in blocks of
    about ``_BLOCK`` (phase, chart) pairs, and each block forms its chart
    coordinates from their flat indices, so no temporary spans the grid.  It
    is phase-separable: m, the max-norm, and the pyramid margin are computed
    once per chart point, and cos and sin once per phase.  Only the (1,2)
    pair is rotated, once per pair, and that rotation gives both d, the
    max-norm after the rotation, and the switch margin; the other chart
    coordinates do not move.  The phase-free terms h and s^2 follow over
    blocks of ``_BLOCK`` kept chart points.

    A kept pair has d >= GRID_BAND; a chart point with no kept phase, such
    as the origin of an odd res where m = d = 0, is dropped, which keeps 0/0
    out of the factors.  The cache holds the two grids built last, a
    certification's coarse grid and its refinement, until a third grid is
    built or the process exits: n + 2 floats and res flags per chart point
    of the grid, about 32 MB at n = 5 and res 25 and under 1 MB at the n = 3
    and 4 grids.  The scan cuts the arrays into blocks of ``_BLOCK`` when it
    reads them, so its blocks follow the current ``_BLOCK``.
    """
    if res < 8:
        raise InvalidInputError("grid resolution must be at least 8")
    axis = np.linspace(-HALF_PI + GRID_BAND, HALF_PI - GRID_BAND, res)
    phases = np.linspace(0.0, TWO_PI, res, endpoint=False)
    c, s = np.cos(phases)[:, None], np.sin(phases)[:, None]
    size = res ** (n - 1)
    coords = np.empty((n - 1, size))
    keep = np.empty((res, size), dtype=bool)
    power, h, ssq = np.empty(size), np.empty(size), np.empty(size)
    kept = 0
    step = max(1, _BLOCK // res)
    for lo in range(0, size, step):
        flat = np.arange(lo, min(lo + step, size))
        chart = axis[np.array(np.unravel_index(flat, (res,) * (n - 1)))]
        absx = np.abs(chart)
        m, pyr = kernels._max_and_gap(absx)
        x1, x2 = kernels._rotate_pair(chart[:1], chart[1:2], c, s)
        d, switch = kernels._max_and_gap([*absx[2:], np.abs(x1), np.abs(x2)])
        keep_blk = (pyr >= GRID_BAND) & (switch >= GRID_BAND)
        dmax = np.where(keep_blk, d, 0.0).max(axis=0)
        has = dmax > 0.0
        hi = kept + np.count_nonzero(has)
        coords[:, kept:hi] = chart[:, has]
        keep[:, kept:hi] = keep_blk[:, has]
        # the division and the power are monotone, so the min over kept
        # phases of (m/d)^{n-1} is (m / max d)^{n-1}
        power[kept:hi] = (m[has] / dmax[has]) ** (n - 1)
        kept = hi
    if not kept:
        raise InvalidInputError("certification grid is empty")
    for lo in range(0, kept, _BLOCK):
        hi = min(lo + _BLOCK, kept)
        h[lo:hi], ssq[lo:hi] = _phase_free_terms(coords[:, lo:hi].T)
    return _SpiralGrid(
        phases, coords[:, :kept], keep[:, :kept], power[:kept], h[:kept], ssq[:kept]
    )


def spiral_jacobian_scan(K, n, alpha, grid=None):
    """Min analytic Jacobian determinant over a certification grid.

    Direct LAPACK determinants of fully assembled Jacobians at the kept
    points of ``_spiral_grid``, independent of the closed-form factors
    ``select_alpha`` certifies with and of its cache.  Per block of
    ``_BLOCK`` chart points, the phase-free terms of
    ``kernels._spiral_chart_terms`` are computed once per chart point.  A
    sub-block of about ``_BLOCK`` (chart, phase) pairs is laid out phase-major
    as (phase, chart): the chart terms enter as (1, k) rows and cos and sin
    as (P, 1) columns, and ``kernels._spiral_jac_assemble`` broadcasts them
    to the (n, n, P, k) entries ``kernels.spiral_jac_batch`` gives, so no
    term is copied out to the pairs.

    ``kernels._laplace_det`` screens every pair with a determinant S and a
    bound b on |S - LAPACK's det|; an unkept pair gets S = +inf and does not
    count toward max(b).  In a sub-block, every kept pair where LAPACK
    attains its minimum has S within 2 max(b) of the least S, and a pair can
    beat the running worst only if its S is within 2 max(b) of it.  So
    LAPACK runs only on the pairs with S <= min(least S, running worst) +
    2 max(b), and a sub-block with none makes no LAPACK call.  Ties of
    LAPACK's dets (a few pairs at K = 1) all stay candidates and go to the
    first in row order, chart point by chart point, so the result is the one
    LAPACK over every pair gives.

    The grid defaults to the coarse one of ``certification_grids(n)``.
    Returns (min_det, worst_point), the first minimum in row order, with the
    worst point's last coordinate converted back from phase to x_n.  At
    alpha = 0 the Jacobian does not depend on x_n, so each chart point is
    evaluated once, at the single phase 0 and x_n = 0: its kept phases all
    give the same entries.
    """
    _require_stretch_factor(K)
    if n < 3:
        raise InvalidInputError("dimension must be at least 3")
    if not np.isfinite(alpha):
        raise InvalidInputError("spiral rate must be finite")
    if grid is None:
        grid = certification_grids(n)[0]
    K, alpha = float(K), float(alpha)
    sg = _spiral_grid(n, grid)
    if alpha == 0:
        # every chart point of the grid has a kept phase
        xn, keep = np.zeros(1), np.ones((1, sg.power.size), dtype=bool)
    else:
        xn, keep = sg.phases / alpha, sg.keep
    phase = alpha * xn
    cos, sin = np.cos(phase)[:, None], np.sin(phase)[:, None]
    nph = len(xn)
    step = max(1, _BLOCK // nph)
    worst = np.inf
    worst_pt = None
    for lo in range(0, sg.power.size, _BLOCK):
        coords = sg.coords[:, lo:lo + _BLOCK]
        terms = kernels._spiral_chart_terms(coords, K)
        for a in range(0, coords.shape[1], step):
            b = min(a + step, coords.shape[1])
            jac = kernels._spiral_jac_assemble(
                coords[:, None, a:b], cos, sin, alpha, *(t[..., None, a:b] for t in terms)
            )
            screen, bound = kernels._laplace_det(jac)
            mask = keep[:, lo + a:lo + b]
            screen[~mask] = np.inf
            cut = min(screen.min(), worst) + 2.0 * bound.max(where=mask, initial=0.0)
            cand = np.flatnonzero(screen <= cut)
            if not len(cand):
                continue
            dets = np.linalg.det(jac.reshape(n, n, -1)[:, :, cand].transpose(2, 0, 1))
            # a pair's place in row order: chart point, then phase
            ph, ch = np.divmod(cand, screen.shape[1])
            k = np.lexsort((ch * nph + ph, dets))[0]
            if dets[k] < worst:
                worst = float(dets[k])
                worst_pt = np.append(coords[:, a + ch[k]], xn[ph[k]])
    return worst, worst_pt


def select_alpha(K, n, orientation=1, grid=None):
    """Largest spiral rate from a halving search with a certified Jacobian.

    Halves |alpha| from 1/2 until the analytic Jacobian determinant exceeds
    2^{-(n+1)/2} at every interior point of both grids of
    ``certification_grids(n, grid)``, the coarse grid and its 2x refinement.
    The sign of the result is `orientation`.  Rates are cached by
    (K, n, orientation, grid) with `grid` as given, so a cached rate is
    returned before any grid is resolved or built.

    The determinant has a closed form.  At a chart point x_b with phase
    phi = alpha * x_n, let m = max|x_i| (attained at index p) and d the
    max-norm of x_b rotated by phi in the (1,2)-plane.  The chart block of
    the Jacobian is A = d/dx_b of (m/d) R(phi) x_b, a ray-wise rescaling, so
    det A = (m/d)^{n-1}; its phase column is A y with
    y = G x_b - ((G x_b)_p / x_p) x_b and G x_b = (-x_2, x_1, 0, ...).  The
    Schur complement of the last row (coef(K) grad(s^2), 1) then gives

        det J = (m/d)^{n-1} (1 - alpha coef(K) h),   h = grad(s^2) . y,

    with coef(K) = (K^2 - 1) / (2 g) and g = K^2 + (1 - K^2) s^2.  Only
    (m/d) depends on the phase, so each ``_spiral_grid`` holds per chart
    point the min over its kept phases of (m/d)^{n-1} plus h and s^2, and a
    trial rate passes iff the min over chart points of that min times
    (1 - alpha coef(K) h) exceeds the floor (the floor is positive, so a
    chart point with a non-positive second factor fails either way).  Since
    d <= sqrt(2) m, the alpha-free part (m/d)^{n-1} is at least
    2^{-(n-1)/2}, above the floor, so the search always terminates.
    ``spiral_jacobian_scan`` checks the same determinants with LAPACK, on
    the pairs its entry-wise screen keeps as candidates for the minimum.
    """
    _require_stretch_factor(K)
    if n < 3:
        raise InvalidInputError("dimension must be at least 3")
    if orientation not in (-1, 1):
        raise InvalidInputError("orientation must be +1 or -1")
    key = (round(float(K), 12), n, orientation, grid)
    if key in _ALPHA_CACHE:
        return _ALPHA_CACHE[key]
    floor = jacobian_floor(n)
    grids = [_spiral_grid(n, res) for res in certification_grids(n, grid)]
    a = 0.5
    while a >= 1e-12:
        alpha = orientation * a
        if all(
            np.min(_closed_form_det(g.power, g.h, g.ssq, K, alpha)) > floor
            for g in grids
        ):
            _ALPHA_CACHE[key] = alpha
            return alpha
        a *= 0.5
    raise InvalidInputError("no admissible spiral rate found")  # pragma: no cover
