"""Numerical differentiation and distortion functionals.

The distortion report collects, from a central-difference Jacobian estimate:
operator norm, smallest singular value, Jacobian determinant, the outer and
inner dilatations K_O = ||f'||^n / J and K_I = J / l(f')^n, and the linear
distortion H = ||f'|| ||(f')^{-1}||.  ``finite_diff_jacobian`` and
``linear_distortion_numeric`` take one (n,) point or an (m, n) batch; a batch
goes to the map in one call, which is how every CLI suite runs them, and
the suites reduce the values to report rows themselves.  ``bilipschitz_form``
is the 2x2 quadratic form whose eigenvalue window certifies the cube chart
is infinitesimally bilipschitz in three dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ChartSingularityError,
    DegenerateDerivativeError,
    InvalidInputError,
    StencilError,
)
from .kernels import HALF_PI
from .vecgeom import as_vector, sphere_directions, svd_small

# Default finite-difference step before input-magnitude scaling; balances
# truncation against cancellation at 64-bit precision.
DEFAULT_STEP = 1e-6
JAC_FLOOR = 1e-12


@dataclass(frozen=True)
class DistortionReport:
    """Derivative-based distortion quantities at one point."""

    op_norm: float
    min_sv: float
    jac: float
    k_outer: float
    k_inner: float
    h_linear: float


def _eval_map(f, x):
    try:
        y = np.asarray(f(x), dtype=float)
    except Exception as exc:  # map raised: surface as a stencil failure
        raise StencilError(f"map evaluation failed at {x}: {exc}") from exc
    if y.shape != x.shape or not np.all(np.isfinite(y)):
        raise StencilError(f"map returned malformed output at {x}")
    return y


def _as_points(x):
    """(m, n) finite points from an (n,) point or an (m, n) batch, and the flag."""
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        return as_vector(a, "point")[None, :], True
    if a.size == 0 or not np.all(np.isfinite(a)):
        raise InvalidInputError("points must be a non-empty finite (m, n) array")
    return a, False


def _eval_rows(f, rows, single):
    """f on the (m, k, n) rows: per (n,) point if single, else one (m k, n) call."""
    if single:
        return np.stack([_eval_map(f, p) for p in rows[0]])[None]
    m, k, n = rows.shape
    return _eval_map(f, rows.reshape(m * k, n)).reshape(m, k, n)


def _norms(d):
    """Euclidean norms along the last axis: one dot product per row, as
    np.linalg.norm takes for a vector, so batches match single points."""
    return np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0])


def finite_diff_jacobian(f, x, h=None):
    """Central-difference Jacobian, column j = (f(x + h e_j) - f(x - h e_j)) / 2h.

    For an (n,) point `f` maps (n,) points to (n,) points and the result is
    (n, n).  For an (m, n) batch `f` maps (k, n) batches to (k, n) batches,
    is called once on all 2 n m stencil rows, and the result is (m, n, n).
    The step is scaled by max(1, |x_i|) per point unless given explicitly.
    """
    pts, single = _as_points(x)
    m, n = pts.shape
    if h is None:
        h = DEFAULT_STEP * np.maximum(1.0, _norms(pts))
    elif h <= 0:
        raise InvalidInputError("step must be positive")
    h = np.broadcast_to(h, (m,))[:, None, None]
    step = h * np.eye(n)
    rows = np.concatenate([pts[:, None] + step, pts[:, None] - step], axis=1)
    y = _eval_rows(f, rows, single)
    jac = ((y[:, :n] - y[:, n:]) / (2.0 * h)).swapaxes(1, 2)
    return jac[0] if single else jac


def report_from_jacobian(jac, n=None):
    """Distortion report computed from an explicit derivative matrix."""
    a = np.asarray(jac, dtype=float)
    n = a.shape[0] if n is None else n
    det = float(np.linalg.det(a))
    if abs(det) <= JAC_FLOOR:
        raise DegenerateDerivativeError(
            "Jacobian determinant within 1e-12 of zero; singular-set hit or bug"
        )
    sv = svd_small(a)
    op, small = float(sv[0]), float(sv[-1])
    return DistortionReport(
        op_norm=op,
        min_sv=small,
        jac=det,
        k_outer=op**n / det,
        k_inner=det / small**n,
        h_linear=op / small,
    )


def distortion_report(f, x, h=None):
    """Distortion report for f at x from the finite-difference Jacobian."""
    return report_from_jacobian(finite_diff_jacobian(f, x, h))


def linear_distortion_numeric(f, x, r, directions=64, seed=0):
    """max / min of |f(x + r w) - f(x)| over a deterministic direction set.

    The set always contains the 2n signed axes so diagonal maps attain their
    extremes exactly; the remainder is Fibonacci-lattice (n = 3) or seeded
    Gaussian fill.  For an (n,) point `f` maps (n,) points and the result is
    a float; for an (m, n) batch `f` maps (k, n) batches, is called once on
    the m base points and all m * directions displaced points, and the result
    is an (m,) array.
    """
    pts, single = _as_points(x)
    if r <= 0:
        raise InvalidInputError("radius must be positive")
    dirs = sphere_directions(pts.shape[1], directions, seed)
    rows = np.concatenate([pts[:, None], pts[:, None] + r * dirs], axis=1)
    y = _eval_rows(f, rows, single)
    disp = _norms(y[:, 1:] - y[:, :1])
    lo = disp.min(axis=1)
    if np.any(lo == 0.0):
        raise StencilError("zero displacement on a sampled direction")
    ratio = disp.max(axis=1) / lo
    return float(ratio[0]) if single else ratio


def bilipschitz_form(x, y):
    """The 2x2 quadratic form governing chart displacements at (x, y), n = 3.

    Valid on the region {x >= |y|} of the chart square minus the origin; the
    other pyramid regions follow by symmetry.  Entries:

        [[1 + y^2 sin^2 x / (x^2+y^2)^2,  -x y sin^2 x / (x^2+y^2)^2],
         [-x y sin^2 x / (x^2+y^2)^2,      x^2 sin^2 x / (x^2+y^2)^2]]
    """
    if x == 0.0 and y == 0.0:
        raise ChartSingularityError("form undefined at the chart origin")
    if not (abs(x) <= HALF_PI + 1e-12 and abs(y) <= HALF_PI + 1e-12):
        raise InvalidInputError("(x, y) outside the chart square")
    if x < abs(y):
        raise InvalidInputError("(x, y) outside the region x >= |y|")
    a11, a12, a22 = _bilipschitz_entries(x, y)
    return np.array([[a11, a12], [a12, a22]])


def _bilipschitz_entries(x, y):
    """Entries (a11, a12, a22) of ``bilipschitz_form``, elementwise on arrays."""
    q = (x * x + y * y) ** 2
    s2 = np.sin(x) ** 2
    return 1.0 + y * y * s2 / q, -x * y * s2 / q, x * x * s2 / q
