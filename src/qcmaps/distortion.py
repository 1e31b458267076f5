"""Numerical differentiation and distortion functionals.

The distortion report collects, from a central-difference Jacobian estimate:
operator norm, smallest singular value, Jacobian determinant, the outer and
inner dilatations K_O = ||f'||^n / J and K_I = J / l(f')^n, and the linear
distortion H = ||f'|| ||(f')^{-1}||.  ``grid_verify`` is a generic
margin-function sweep for library callers (the CLI suites run their own
loops); ``bilipschitz_form`` is the 2x2 quadratic form whose eigenvalue
window certifies the cube chart is infinitesimally bilipschitz in three
dimensions.
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


def finite_diff_jacobian(f, x, h=None):
    """Central-difference Jacobian, column j = (f(x + h e_j) - f(x - h e_j)) / 2h.

    The step is scaled by max(1, |x|) unless given explicitly.
    """
    a = as_vector(x, "point")
    n = a.size
    if h is None:
        h = DEFAULT_STEP * max(1.0, float(np.linalg.norm(a)))
    if h <= 0:
        raise InvalidInputError("step must be positive")
    jac = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        jac[:, j] = (_eval_map(f, a + e) - _eval_map(f, a - e)) / (2.0 * h)
    return jac


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
    Gaussian fill.
    """
    a = as_vector(x, "point")
    if r <= 0:
        raise InvalidInputError("radius must be positive")
    dirs = sphere_directions(a.size, directions, seed)
    base = _eval_map(f, a)
    disp = np.empty(len(dirs))
    for i, w in enumerate(dirs):
        disp[i] = np.linalg.norm(_eval_map(f, a + r * w) - base)
    lo = disp.min()
    if lo == 0.0:
        raise StencilError("zero displacement on a sampled direction")
    return float(disp.max() / lo)


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


@dataclass(frozen=True)
class GridReport:
    """Outcome of a grid sweep: pass/fail with the worst margin and point."""

    passed: bool
    worst_margin: float
    worst_point: np.ndarray
    n_points: int
    n_failures: int

    def __str__(self):
        tag = "pass" if self.passed else "FAIL"
        return (
            f"{tag}: worst margin {self.worst_margin:.6g} at "
            f"{np.array2string(self.worst_point, precision=6)} "
            f"({self.n_points} points, {self.n_failures} evaluation failures)"
        )


def grid_verify(margin_fn, points, batch=False):
    """Evaluate a margin function over grid points; negative margin = violation.

    `margin_fn` returns bound minus value (>= 0 passes).  With batch=True it
    receives the whole (m, k) array and returns (m,) margins.  Evaluation
    failures count as violations at their location.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise InvalidInputError("empty verification grid")
    worst = np.inf
    worst_pt = pts[0]
    failures = 0
    if batch:
        margins = np.asarray(margin_fn(pts), dtype=float)
        bad = ~np.isfinite(margins)
        failures = int(bad.sum())
        margins = np.where(bad, -np.inf, margins)
        i = int(np.argmin(margins))
        worst = float(margins[i])
        worst_pt = pts[i]
    else:
        for p in pts:
            try:
                m = float(margin_fn(p))
            except Exception:
                failures += 1
                m = -np.inf
            if m < worst:
                worst = m
                worst_pt = p
    return GridReport(
        passed=bool(worst >= 0.0 and failures == 0),
        worst_margin=worst,
        worst_point=np.array(worst_pt, dtype=float),
        n_points=len(pts),
        n_failures=failures,
    )
