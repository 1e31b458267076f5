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
depend on the phase (derived in ``select_alpha``).  Where the second
factor is positive, the infimum over the phase is (m / max(q, rho))^{n-1}
times it, with rho = |(x_1, x_2)| and q the largest other |x_i|.
``select_alpha`` certifies the floor 2^{-(n+1)/2} from that infimum on the
chart points of the two grids of ``certification_grids``.  Each grid is one
read-only ``_SpiralGrid``, cached for the two grids built last: its chart
points off the pyramid faces and their closed-form factors.
``spiral_jacobian_scan`` pairs the same chart points with the grid's phases
and reports LAPACK's determinants at the pairs ``kernels.spiral_region_batch``
keeps, using the closed form only to skip chart points whose pairs cannot
hold the minimum.  The tests check its result against LAPACK over every
kept pair, which does not use the closed form.
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

# Certification grids keep chart points at least this far from a pyramid
# face and (chart, phase) pairs at least this far from a candidate switch,
# mirroring the sigma-finite singular set the analysis itself removes.
GRID_BAND = 1e-3
# The largest dimension whose spiral rate is certified: the grids hold
# 13^(n-1) and 25^(n-1) chart points above n = 3, 390625 at n = 5; n = 6
# would hold 25^5, about 9.8M chart points and 0.6 GB of grid.
MAX_SPIRAL_DIM = 5
_ALPHA_CACHE: dict = {}
# Grid reductions work in blocks of this many elements: chart points per
# block of the ``_spiral_grid`` build, and at most this many (chart, phase)
# pairs per block of ``spiral_jacobian_scan`` (one chart point's res pairs
# where res is larger).  A warm build of the 25^4 grid (2-vCPU Xeon,
# medians of 5, two rounds) takes 73-77 / 58-63 / 54-57 / 50-54 ms with
# 2^11 / 2^12 / 2^13 / 2^14 chart points per block, and one of the n = 3
# and 4 refinements 0.4-0.7 and 2.2-3.9 ms at any of these sizes.
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


class _SpiralGrid(_record("_SpiralGrid", "coords power h ssq")):
    """The chart points of a certification grid off its pyramid faces.

    `coords` holds the chart points whose pyramid gap is at least GRID_BAND
    as (n-1, N) coordinate rows, in row order.  Per chart point, the
    factors of ``_closed_form_det``, none of which depends on the phase:
    `power` the infimum over all phases of (m/d)^{n-1}, and `h` and `ssq`
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
    """The _SpiralGrid of resolution res, shared by the rate search
    (``select_alpha``) and the direct scan (``spiral_jacobian_scan``).

    The build takes the res^{n-1} chart points in row order, in blocks of
    ``_BLOCK`` whose chart coordinates are formed from their flat indices,
    so no temporary spans the grid.  It keeps the chart points whose
    pyramid gap, between the two largest |x_i|, is at least GRID_BAND: the
    ones with a kept pair, as at phase 0 the rotation is the identity and
    the switch margin is the pyramid gap.  Their m is at least GRID_BAND
    (the origin of an odd res is dropped), and max(q, rho) >= m, so 0/0
    stays out of power = (m / max(q, rho))^{n-1}, with rho = |(x_1, x_2)|
    and q the largest other |x_i| (``select_alpha``).  The cache holds the two
    grids built last, a certification's coarse grid and its refinement,
    until a third is built or the process exits: n + 2 floats per chart
    point of the grid, about 22 MB at n = 5 and res 25 and under 1 MB at
    the n = 3 and 4 grids.
    """
    if res < 8:
        raise InvalidInputError("grid resolution must be at least 8")
    axis = np.linspace(-HALF_PI + GRID_BAND, HALF_PI - GRID_BAND, res)
    size = res ** (n - 1)
    coords = np.empty((n - 1, size))
    power, h, ssq = np.empty(size), np.empty(size), np.empty(size)
    kept = 0
    for lo in range(0, size, _BLOCK):
        flat = np.arange(lo, min(lo + _BLOCK, size))
        chart = axis[np.array(np.unravel_index(flat, (res,) * (n - 1)))]
        m, pyr = kernels._max_and_gap(np.abs(chart))
        has = pyr >= GRID_BAND
        xb = chart[:, has]
        hi = kept + xb.shape[1]
        coords[:, kept:hi] = xb
        rho = np.sqrt(kernels._sum_sq(xb[:2]))
        power[kept:hi] = (m[has] / kernels._abs_max([rho, *xb[2:]])) ** (n - 1)
        h[kept:hi], ssq[kept:hi] = _phase_free_terms(xb.T)
        kept = hi
    return _SpiralGrid(coords[:, :kept], power[:kept], h[:kept], ssq[:kept])


def _scan_margin(n, K, alpha):
    """M = 2^10 n eps r^{n-1} l, the bound on |LAPACK det - closed form| at
    a kept pair derived in ``spiral_jacobian_scan``; +inf where it overflows,
    at a rate the scan refuses."""
    r = 5.0 + TWO_PI * abs(alpha)
    with np.errstate(over="ignore"):
        ell = 1.0 + (K * K - 1.0) * (3.0 + 2.0 * np.sqrt(n - 1.0)) / 2.0
        return 2.0 ** 10 * n * np.finfo(float).eps * np.float64(r) ** (n - 1) * ell


def _factored_pairs(coords, phases, K, alpha):
    """(dets, pts): LAPACK dets of the kept pairs of the chart points
    `coords`, (n-1, k) rows, at the grid `phases`, and the pairs.

    The pairs (chart, phase) are formed in row order, chart point then
    phase, and ``kernels.spiral_region_batch`` classifies them at rate 1,
    whose phase is the grid phase itself.  A pair is kept where its switch
    margin is at least GRID_BAND (its pyramid margin is its chart point's).
    The kept pairs, with x_n = phase / alpha (0 at alpha = 0, whose one
    phase is 0), are one ``kernels.spiral_jac_batch`` call and one
    ``np.linalg.det``.
    """
    k, res = coords.shape[1], len(phases)
    pts = np.empty((k * res, len(coords) + 1))
    pts[:, :-1] = np.repeat(coords.T, res, axis=0)
    pts[:, -1] = np.tile(phases, k)
    pts = pts[kernels.spiral_region_batch(pts, 1.0)[3] >= GRID_BAND]
    if alpha != 0:
        pts[:, -1] /= alpha
    return np.linalg.det(kernels.spiral_jac_batch(pts, K, alpha)), pts


def spiral_jacobian_scan(K, n, alpha, grid=None):
    """Min analytic Jacobian determinant over a certification grid.

    LAPACK determinants of ``kernels.spiral_jac_batch`` at the kept pairs of
    the grid, each chart point of ``_spiral_grid`` at each grid phase
    2 pi j / res (``_factored_pairs``): the first minimum in row order
    (chart point, then phase) over every kept pair, bit for bit.  The closed
    form ``_closed_form_det`` only chooses the chart points whose pairs are
    factored; the tests check the result against LAPACK over every kept
    pair, which does not use it.

    At alpha != 0, per chart point F = 1 - alpha coef(K) h is the phase-free
    factor and cf = P F, with P the grid's `power`.  The anchor is the first
    chart point of least cf; the least LAPACK det v0 of its kept pairs
    bounds the grid's minimum from above.  A chart point with F >= 0 and
    cf > v0 + M, M >= e1 + e2 (below), is skipped: each of its kept pairs
    has a LAPACK det of at least cf - e2 - e1 > v0.  The chart points left,
    every one with F < 0 and the anchor among them, keep their row order;
    none whose cf or F is NaN is skipped.  At alpha = 0 nothing is skipped.

    M = 2^10 n eps r^{n-1} l (``_scan_margin``), with eps the float64
    epsilon, r = 5 + 2 pi |alpha| and l = 1 + (K^2 - 1)(3 + 2 sqrt(n - 1)) / 2.
    The reference at a kept pair is the Jacobian at the grid's phase in
    exact arithmetic, with the scan's float last row (coef(K) grad(s^2), 1).
    Its det D is (m/d)^{n-1} F', with F' the exact phase-free factor against
    that row.  The row shares the floats s^2 and g of ``kernels._spiral_ssq``
    with the grid's h, so the rounding of g, which K^2 / g amplifies, drops
    out.  As d <= max(q, rho), D >= P' F' where F' >= 0, with P' the exact P.

    - Row bounds, a priori.  With |w_i / d| <= 1, m / d <= sqrt(2) and
      d <= pi / sqrt(2), the magnitudes of the terms that
      ``kernels._spiral_jac_rows`` adds up in a chart row sum to at most
      2 (2 + pi |alpha|) + 1 = r.  With g >= 1, coef(K) <= (K^2 - 1) / 2;
      s^2 <= sin^2 m <= m <= rho and |x_1| <= rho bound |grad(s^2)|_1 by
      3 + 2 sqrt(n - 1), so the last row sums to at most l.  So
      B = r^{n-1} l bounds the product of the rows' term sums, and so the
      permanent of |J|.  Also |y|_inf <= 2 m <= pi gives |F| <= r l, and
      (m/d)^{n-1} <= 2^{(n-1)/2} <= r^{n-2}.
    - e1 = (8 + 2^8) n eps B bounds |LAPACK det - D|.  LAPACK rounds by at
      most 8 n eps B: a Laplace expansion rounds by about (n + 1) / 4 n eps
      times the permanent of |J|, and 8 leaves room for the pivoted LU.
      The entries add 2^8 n eps B, up to a factor 1 + 2^-40: each is a
      handful of roundings from its exact value; cos and sin are within an
      ulp; the scan's phase alpha (phase / alpha) is within 2 ulps of a
      grid phase below 2 pi, which moves cos and sin by at most 2 pi eps;
      so w and d move by about 20 eps d, and each entry by at most 2^8 eps
      times its terms' sum.
    - e2 = 2^5 n eps B bounds cf - D at a chart point with F >= 0.  rho,
      two squares, a sum and a square root, is within eps of its exact
      value, relative; the max is exact and the division rounds once; the
      power rounds once, or n - 2 times as products.  So P is within 2 n eps
      of P' <= 1, relative.  F is within 2^5 eps r l of F' (2^5 eps times
      1 + |alpha coef h|, term by term).  Where F' >= 0, cf - D <=
      cf - P' F' <= 2 n eps |F| + 2^5 eps r l <= 2^4 n eps B.  Where
      F' < 0 <= F, F <= 2^5 eps r l, and cf and -D are each at most
      2^{(n-1)/2} 2^5 eps r l, so cf - D <= 2^6 eps B.

    e1 + e2 is about 300 n eps B; M takes 2^10 n eps B.

    The chart points left are taken in row order, in blocks of
    ``_BLOCK`` // res of them (``_BLOCK`` at alpha = 0, with its one phase),
    each one ``_factored_pairs`` call; a block's first minimum replaces the
    running one only where it is strictly lower, so the result is the first
    minimum over all blocks.

    The grid defaults to the coarse one of ``certification_grids(n)``.
    Returns (min_det, worst_point), with the worst point's last coordinate
    converted back from phase to x_n.  At alpha = 0 the Jacobian does not
    depend on x_n, so each chart point is evaluated once, at phase 0 and
    x_n = 0, where it is kept: its kept phases all give the same entries.
    A nonzero rate with 2 pi / alpha not finite is refused: its
    x_n = phase / alpha would overflow.  So is any rate, zero included, at
    which the margin M overflows: the row bound B does too, and the entries
    and determinants may.
    """
    _require_stretch_factor(K)
    if n < 3:
        raise InvalidInputError("dimension must be at least 3")
    if not np.isfinite(alpha):
        raise InvalidInputError("spiral rate must be finite")
    K, alpha = float(K), float(alpha)
    if alpha != 0 and not np.isfinite(TWO_PI / alpha):
        raise InvalidInputError(
            f"spiral rate {alpha!r} is too small: 2 pi / alpha is not finite")
    margin = _scan_margin(n, K, alpha)
    if not np.isfinite(margin):
        raise InvalidInputError(
            f"spiral rate {alpha!r} with K = {K!r} is out of range: the "
            "Jacobian scan's rounding bound overflows")
    if grid is None:
        grid = certification_grids(n)[0]
    sg = _spiral_grid(n, grid)
    coords = sg.coords
    if alpha == 0:
        phases = np.zeros(1)
    else:
        phases = np.linspace(0.0, TWO_PI, grid, endpoint=False)
        factor = _closed_form_det(1.0, sg.h, sg.ssq, K, alpha)
        cf = sg.power * factor
        a = np.argmin(cf)
        v0 = np.min(_factored_pairs(coords[:, a:a + 1], phases, K, alpha)[0])
        coords = coords[:, ~((factor >= 0) & (cf > v0 + margin))]
    step = max(1, _BLOCK // len(phases))
    worst = np.inf
    worst_pt = None
    for lo in range(0, coords.shape[1], step):
        dets, pts = _factored_pairs(coords[:, lo:lo + step], phases, K, alpha)
        k = np.argmin(dets)
        if dets[k] < worst:
            worst, worst_pt = float(dets[k]), pts[k].copy()
    return worst, worst_pt


def select_alpha(K, n, orientation=1, grid=None):
    """Largest spiral rate from a halving search with a certified Jacobian.

    Halves |alpha| from 1/2 until the analytic Jacobian determinant exceeds
    2^{-(n+1)/2} at every phase of every interior chart point of both grids
    of ``certification_grids(n, grid)``, the coarse grid and its 2x
    refinement.  The sign of the result is `orientation`.  Rates are cached
    by (K, n, orientation, grid) with `grid` as given, so a cached rate is
    returned before any grid is resolved or built.  A K at which the scan's
    rounding bound (``_scan_margin``) overflows at rate 1/2 is refused before
    any grid is built; below it, no term of the closed form overflows.

    The determinant has a closed form.  At a chart point x_b with phase
    phi = alpha * x_n, let m = max|x_i| (attained at index p) and d the
    max-norm of x_b rotated by phi in the (1,2)-plane.  The chart block of
    the Jacobian is A = d/dx_b of (m/d) R(phi) x_b, a ray-wise rescaling, so
    det A = (m/d)^{n-1}; its phase column is A y with
    y = G x_b - ((G x_b)_p / x_p) x_b and G x_b = (-x_2, x_1, 0, ...).  The
    Schur complement of the last row (coef(K) grad(s^2), 1) then gives

        det J = (m/d)^{n-1} (1 - alpha coef(K) h),   h = grad(s^2) . y,

    with coef(K) = (K^2 - 1) / (2 g) and g = K^2 + (1 - K^2) s^2.  Only d
    depends on the phase: d = max(q, |R(phi) (x_1, x_2)|_inf), with
    rho = |(x_1, x_2)| and q = max_{i>=3} |x_i| (0 at n = 3).  The rotated
    pair's max-norm is at most rho, with equality where it lies on an axis,
    at four phases per turn, so sup d = max(q, rho) and the infimum over
    phases of (m/d)^{n-1} is P = (m / max(q, rho))^{n-1}, which each
    ``_spiral_grid`` holds per chart point with h and s^2.  A trial rate
    passes iff the min over chart points of P (1 - alpha coef(K) h)
    exceeds the floor: where the second factor is positive that is the
    infimum over phases, and where it is not, no phase is above the floor.
    As rho <= sqrt(2) m and q <= m, P >= 2^{-(n-1)/2}, above the floor, so
    the search always terminates.  ``spiral_jacobian_scan`` checks the same
    determinants with LAPACK at the grid's phases.
    """
    _require_stretch_factor(K)
    if n < 3:
        raise InvalidInputError("dimension must be at least 3")
    if orientation not in (-1, 1):
        raise InvalidInputError("orientation must be +1 or -1")
    key = (round(float(K), 12), n, orientation, grid)
    if key in _ALPHA_CACHE:
        return _ALPHA_CACHE[key]
    if not np.isfinite(_scan_margin(n, K, 0.5)):
        raise InvalidInputError(
            f"stretch factor K = {float(K)!r} is out of range: the spiral "
            "Jacobian's rounding bound overflows")
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
