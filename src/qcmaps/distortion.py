"""Numerical differentiation, linear distortion and the chart bilipschitz form.

``finite_diff_jacobian`` estimates a map's Jacobian by central differences
and ``linear_distortion_numeric`` the ratio max / min of its displacements
on a small sphere.  Both take one (n,) point or an (m, n) batch; a batch
goes to the map in one call, which is how every CLI suite runs them, and
the suites reduce the values to report rows themselves.
``bilipschitz_form`` gives, elementwise, the entries of the 2x2 quadratic
form whose eigenvalue window certifies that the cube chart is
infinitesimally bilipschitz in three dimensions.
"""

from __future__ import annotations

import numpy as np

from .errors import ChartSingularityError, InvalidInputError, StencilError
from .kernels import HALF_PI
from .vecgeom import as_vector, sphere_directions

# Default finite-difference step before input-magnitude scaling; balances
# truncation against cancellation at 64-bit precision.
DEFAULT_STEP = 1e-6


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
    """Entries (a11, a12, a22) of the 2x2 quadratic form governing chart
    displacements at (x, y), n = 3, elementwise on scalars or arrays.

    Valid on the region {x >= |y|} of the chart square minus the origin; the
    other pyramid regions follow by symmetry.  The form is

        [[1 + y^2 sin^2 x / (x^2+y^2)^2,  -x y sin^2 x / (x^2+y^2)^2],
         [-x y sin^2 x / (x^2+y^2)^2,      x^2 sin^2 x / (x^2+y^2)^2]]
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any((x == 0.0) & (y == 0.0)):
        raise ChartSingularityError("form undefined at the chart origin")
    if not np.all((np.abs(x) <= HALF_PI + 1e-12) & (np.abs(y) <= HALF_PI + 1e-12)):
        raise InvalidInputError("(x, y) outside the chart square")
    if np.any(x < np.abs(y)):
        raise InvalidInputError("(x, y) outside the region x >= |y|")
    q = (x * x + y * y) ** 2
    s2 = np.sin(x) ** 2
    return 1.0 + y * y * s2 / q, -x * y * s2 / q, x * x * s2 / q
