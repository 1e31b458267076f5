"""Radial stretch, radial interpolation, and spiral stretch map families.

Each family exists in two coordinate systems:

- y-space maps on R^n (minus the origin where noted).  The raw radial
  stretch scales by K / sqrt(K^2 + (1 - K^2) cos^2 phi) with phi the angle
  from the last axis; oriented variants conjugate the e_1-axis form by a
  frame, so a single frame drives stretch direction and spiral plane.
- log-coordinate transforms on the fundamental set (conjugation by the cube
  chart Zorich map).  The stretch and interpolation transforms keep the
  chart block and shift the last coordinate by V resp. V_I; the spiral
  transform rescales the chart block through the max-norm/reciprocal-min
  bookkeeping and shifts the last coordinate by the log stretch factor.

The spiral transform's closed-form Jacobian is assembled per differentiability
region (which coordinate attains the max-norm, which candidate attains the
min) and is verified against finite differences in the tests; its determinant
floor 2^{-(n+1)/2} is certified on sampling grids by ``select_alpha``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (
    ChartSingularityError,
    InvalidInputError,
    NearSingularRegionError,
    OriginError,
    OutsideShellError,
)
from .kernels import HALF_PI, TWO_PI
from .vecgeom import check_frame
from .zorich import FundamentalPoint, _coords_of

SHELL_TOL = 1e-9
REGION_MARGIN = 1e-6


# =====================================================================
# Specs
# =====================================================================

def _require_stretch_factor(K):
    if not np.isfinite(K) or K < 1.0:
        raise InvalidInputError("stretch factor must satisfy K >= 1")


class _FramedSpec:
    """What every spec shares: a validated, read-only frame and its dimension."""

    def _freeze_frame(self):
        f = np.array(check_frame(self.frame), dtype=float)
        f.setflags(write=False)
        object.__setattr__(self, "frame", f)

    @property
    def n(self):
        return self.frame.shape[0]


@dataclass(frozen=True)
class StretchSpec(_FramedSpec):
    """Stretch by K >= 1 along the frame's first column."""

    K: float
    frame: np.ndarray

    def __post_init__(self):
        _require_stretch_factor(self.K)
        self._freeze_frame()


@dataclass(frozen=True)
class InterpSpec(_FramedSpec):
    """Interpolate between a K-stretch at log-radius t and an L-stretch at s.

    Requires |ln(K/L)| < (t - s) / 2 so the interpolated shells never cross.
    """

    K: float
    L: float
    s: float
    t: float
    frame: np.ndarray

    def __post_init__(self):
        for name, v in (("K", self.K), ("L", self.L)):
            if not np.isfinite(v) or v < 1.0:
                raise InvalidInputError(f"{name} must satisfy {name} >= 1")
        if not (np.isfinite(self.s) and np.isfinite(self.t)) or self.s >= self.t:
            raise InvalidInputError("need s < t")
        if abs(np.log(self.K / self.L)) >= (self.t - self.s) / 2.0:
            raise InvalidInputError("need |ln(K/L)| < (t - s)/2")
        self._freeze_frame()


@dataclass(frozen=True)
class SpiralSpec(_FramedSpec):
    """Stretch by K along the frame's first column while rotating the
    frame's (1,2)-plane by alpha per unit log-radius.

    The admissible |alpha| for a sense-preserving map is certified by
    ``select_alpha``; construction does not re-run the certification.
    """

    K: float
    alpha: float
    frame: np.ndarray

    def __post_init__(self):
        _require_stretch_factor(self.K)
        if not np.isfinite(self.alpha):
            raise InvalidInputError("spiral rate must be finite")
        self._freeze_frame()


# =====================================================================
# Stretch factors and y-space maps
# =====================================================================

def stretch_factor(cos2, K):
    """K / sqrt(K^2 + (1 - K^2) c) for c = cos^2 of the angle from the axis."""
    return K / np.sqrt(K * K + (1.0 - K * K) * cos2)


def _norms(y):
    return np.sqrt(np.sum(y * y, axis=-1))


def _require_nonzero(r):
    if np.min(r) == 0.0:
        raise OriginError("map is undefined at the origin")


def _as_points(y):
    a = np.asarray(y, dtype=float)
    if a.shape[-1] < 3:
        raise InvalidInputError("points need n >= 3 coordinates")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("points have non-finite coordinates")
    return a


def _axis_stretch(y, K, axis):
    _require_stretch_factor(K)
    a = _as_points(y)
    r = _norms(a)
    _require_nonzero(r)
    cos2 = (a[..., axis] / r) ** 2
    return stretch_factor(cos2, K)[..., None] * a


def radial_stretch(y, K):
    """Stretch spheres to ellipsoids by K >= 1 along the last axis."""
    return _axis_stretch(y, K, -1)


def stretch_axis1(y, K):
    """The same stretch re-axised to act along the first coordinate axis."""
    return _axis_stretch(y, K, 0)


def oriented_stretch(y, spec):
    """F . stretch_axis1(F^T y).

    Because the axis-1 stretch is a scalar profile times the identity, the
    conjugation collapses to scaling y by the profile evaluated at the cosine
    against the frame's first column; the direction of y is preserved.
    """
    a = _as_points(y)
    r = _norms(a)
    _require_nonzero(r)
    sigma = spec.frame[:, 0]
    cos2 = (a @ sigma / r) ** 2
    return stretch_factor(cos2, spec.K)[..., None] * a


def _interp_log_weight(cos2, nu, K, L):
    return nu * np.log(stretch_factor(cos2, K)) + (1.0 - nu) * np.log(
        stretch_factor(cos2, L)
    )


def interp_stretch(y, spec):
    """Radial interpolation on the shell e^s <= |y| <= e^t.

    Scalar-times-identity: the K-stretch profile at the outer boundary, the
    L-stretch profile at the inner one, geometrically interpolated by
    nu = (ln|y| - s) / (t - s) in between.
    """
    a = _as_points(y)
    r = _norms(a)
    _require_nonzero(r)
    lnr = np.log(r)
    if np.min(lnr) < spec.s - SHELL_TOL or np.max(lnr) > spec.t + SHELL_TOL:
        raise OutsideShellError("point outside the interpolation shell")
    nu = np.clip((lnr - spec.s) / (spec.t - spec.s), 0.0, 1.0)
    sigma = spec.frame[:, 0]
    cos2 = (a @ sigma / r) ** 2
    return np.exp(_interp_log_weight(cos2, nu, spec.K, spec.L))[..., None] * a


def spiral_stretch(y, spec):
    """F . [lambda(w) . rotate_{(1,2)}(alpha ln|w|) . w] with w = F^T y.

    Spheres map to ellipsoids with one semi-axis K|y| along the rotated image
    of the frame's first column; the unit sphere is not rotated at all.
    """
    a = _as_points(y)
    r = _norms(a)
    _require_nonzero(r)
    w = a @ spec.frame
    return _spiral_shell(w, r, spec.K, spec.alpha * np.log(r), spec.frame)


def _spiral_shell(w, r, K, beta, frame):
    """lambda(w) . F . rotate_{(1,2)}(beta) . w for frame coordinates w, |w| = r.

    The one spiral formula behind ``spiral_stretch`` and the realizer's
    spiral shells; beta is the rotation angle at each point.
    """
    lam = stretch_factor((w[..., 0] / r) ** 2, K)
    v = kernels._rotate_12(w, np.cos(beta), np.sin(beta))
    return lam[..., None] * (v @ frame.T)


# =====================================================================
# Log-coordinate transforms
# =====================================================================

def chart_cos2(xb):
    """cos^2 of the image colatitude for arbitrary chart-block coordinates.

    Folds into the cube first, so both fundamental-set boxes (and any other
    representative) evaluate consistently.
    """
    p, _ = kernels._fold_chart(np.asarray(xb, dtype=float))
    m = np.max(np.abs(p), axis=-1)
    return np.cos(m) ** 2


def stretch_shift_batch(xb, K):
    """Vertical shift V = ln of the stretch profile at the chart colatitude."""
    return np.log(stretch_factor(chart_cos2(xb), K))


def radial_stretch_transform(x, K):
    """Lift of the last-axis radial stretch: chart block fixed, x_n += V.

    The shift is additive because the stretch scales the image radius
    e^{x_n} by the profile value, and log-radius is the last coordinate.
    """
    _require_stretch_factor(K)
    coords = _coords_of(x)
    out = coords.copy()
    out[-1] += float(stretch_shift_batch(coords[:-1], K))
    return FundamentalPoint(out)


def interp_shift_batch(xb, xn, spec):
    """Vertical shift V_I of the interpolation transform (batched)."""
    nu = np.clip((np.asarray(xn, dtype=float) - spec.s) / (spec.t - spec.s), 0.0, 1.0)
    return _interp_log_weight(chart_cos2(xb), nu, spec.K, spec.L)


def interp_stretch_transform(x, spec):
    """Lift of the radial interpolation (axis-aligned form).

    Defined for s <= x_n <= t; the chart block is fixed and x_n gains
    V_I = nu ln(K-profile) + (1 - nu) ln(L-profile).  The spec's frame plays
    no role here: oriented variants go through the conjugation evaluator.
    """
    coords = _coords_of(x)
    xn = coords[-1]
    if xn < spec.s - SHELL_TOL or xn > spec.t + SHELL_TOL:
        raise OutsideShellError("x_n outside the interpolation slab")
    out = coords.copy()
    out[-1] += float(interp_shift_batch(coords[:-1], xn, spec))
    return FundamentalPoint(out)


def _first_box_coords(x, what):
    coords = _coords_of(x)
    xb = coords[:-1]
    if np.abs(xb).max() > HALF_PI + SHELL_TOL:
        raise InvalidInputError(
            f"{what} is defined on the first box; use transform_eval for "
            "other representatives"
        )
    if np.max(np.abs(xb)) == 0.0:
        raise ChartSingularityError("chart block vanishes: max/min bookkeeping undefined")
    return coords


def spiral_stretch_transform(x, spec):
    """Lift of the axis-aligned spiral stretch on the first box.

    Chart block becomes M * m * (rotated x_1 x_2 pair, x_3, ...), preserving
    the max-norm; the last coordinate gains ln K minus half the log of the
    direction term.  Oriented specs go through the conjugation evaluator.
    """
    coords = _first_box_coords(x, "spiral transform")
    return FundamentalPoint(kernels.spiral_u_batch(coords, spec.K, spec.alpha))


def spiral_region(x, alpha):
    """(max index, candidate index, pyramid margin, switch margin) at x."""
    coords = np.atleast_2d(np.asarray(
        x.coords if isinstance(x, FundamentalPoint) else x, dtype=float
    ))
    p, d, pyr, switch = kernels.spiral_region_batch(coords, alpha)
    if coords.shape[0] == 1:
        return int(p[0]), int(d[0]), float(pyr[0]), float(switch[0])
    return p, d, pyr, switch


def spiral_transform_jacobian_analytic(x, spec):
    """Closed-form derivative matrix of the spiral transform at x.

    Requires x to sit inside one differentiability region: at least
    REGION_MARGIN away from both the pyramid faces (max-norm ties) and the
    candidate switching surfaces; callers resample on the near-singular error.
    """
    coords = _first_box_coords(x, "spiral transform Jacobian")
    _, _, pyr, switch = spiral_region(coords, spec.alpha)
    if pyr < REGION_MARGIN or switch < REGION_MARGIN:
        raise NearSingularRegionError(
            "point within margin of a non-differentiability surface"
        )
    return kernels.spiral_jac_batch(coords, spec.K, spec.alpha)


# =====================================================================
# Spiral rate selection
# =====================================================================

# Certification grids keep points at least this far from a pyramid face or a
# candidate switch, mirroring the sigma-finite singular set the analysis
# itself removes.
GRID_BAND = 1e-3
_ALPHA_CACHE: dict = {}
# Per-lead keep-masks of each certification grid, keyed by (n, res).  The
# filter depends on neither K nor alpha, so every trial rate and stretch
# factor reuses it; the points themselves are rebuilt per scan, which keeps
# the cache to one byte per grid point.
_GRID_MASKS: dict = {}


def certification_grid(n, grid=None):
    """Coarse certification grid resolution for dimension n.

    33 at n = 3 and 13 above: a grid of resolution res has res^n points,
    and 13^4 stays below 33^3.  A requested `grid` (the CLI --grid) is used
    as given at n = 3 and capped at 13 above.  The halving search
    re-verifies on the 2 * grid - 1 refinement.
    """
    res = 33 if grid is None else grid
    return res if n == 3 else min(res, 13)


def _grid_chunks(n, res):
    """Filtered (chart, phase) grid chunks for Jacobian certification.

    The last coordinate stores the rotation phase alpha * x_n directly, so the
    same filtered grid serves every trial rate.  Points within GRID_BAND of a
    pyramid face or a candidate switch are excluded.  Each chunk is a new
    array that the caller may modify.
    """
    axis = np.linspace(-HALF_PI + GRID_BAND, HALF_PI - GRID_BAND, res)
    phases = np.linspace(0.0, TWO_PI, res, endpoint=False)
    tail_axes = [axis] * (n - 2) + [phases]
    tail = np.stack([g.ravel() for g in np.meshgrid(*tail_axes, indexing="ij")], axis=1)
    key = (n, res)
    cold = key not in _GRID_MASKS
    masks = [] if cold else _GRID_MASKS[key]
    for i, lead in enumerate(axis):
        pts = np.empty((len(tail), n))
        pts[:, 0] = lead
        pts[:, 1:] = tail
        if cold:
            _, _, pyr, switch = kernels.spiral_region_batch(pts, 1.0)
            masks.append((pyr >= GRID_BAND) & (switch >= GRID_BAND))
        if np.any(masks[i]):
            yield pts[masks[i]]
    if cold:
        _GRID_MASKS[key] = masks


def spiral_jacobian_scan(K, n, alpha, grid=None):
    """Min analytic Jacobian determinant over a certification grid.

    The grid defaults to ``certification_grid(n)``.  Returns (min_det,
    worst_point) with the worst point's last coordinate converted back from
    phase to x_n.  At alpha = 0 the Jacobian does not depend on x_n, so every
    grid point is evaluated at x_n = 0.
    """
    if grid is None:
        grid = certification_grid(n)
    if grid < 8:
        raise InvalidInputError("grid resolution must be at least 8")
    worst = np.inf
    worst_pt = None
    for pts in _grid_chunks(n, grid):
        pts[:, -1] = pts[:, -1] / alpha if alpha != 0 else 0.0
        dets = np.linalg.det(kernels.spiral_jac_batch(pts, K, alpha))
        i = int(np.argmin(dets))
        if dets[i] < worst:
            worst = float(dets[i])
            worst_pt = pts[i].copy()
    if worst_pt is None:
        raise InvalidInputError("certification grid is empty")
    return worst, worst_pt


def select_alpha(K, n, orientation=1, grid=None):
    """Largest spiral rate from a halving search with a certified Jacobian.

    Halves |alpha| from 1/2 until the analytic Jacobian determinant exceeds
    2^{-(n+1)/2} at every interior point of the grid (by default
    ``certification_grid(n)``), then re-verifies on a 2x refinement.  The
    alpha-free part of the determinant is at least 2^{-(n-1)/2}, so the
    search always terminates.  The sign of the result is `orientation`.
    """
    _require_stretch_factor(K)
    if n < 3:
        raise InvalidInputError("dimension must be at least 3")
    if orientation not in (-1, 1):
        raise InvalidInputError("orientation must be +1 or -1")
    if grid is None:
        grid = certification_grid(n)
    key = (round(float(K), 12), n, orientation, grid)
    if key in _ALPHA_CACHE:
        return _ALPHA_CACHE[key]
    floor = 2.0 ** (-(n + 1) / 2.0)
    a = 0.5
    while a >= 1e-12:
        alpha = orientation * a
        coarse, _ = spiral_jacobian_scan(K, n, alpha, grid)
        if coarse > floor:
            fine, _ = spiral_jacobian_scan(K, n, alpha, 2 * grid - 1)
            if fine > floor:
                _ALPHA_CACHE[key] = alpha
                return alpha
        a *= 0.5
    raise InvalidInputError("no admissible spiral rate found")  # pragma: no cover
