"""Dimension-generic dense vector/matrix kernel for small n.

Everything here targets the n = 3..8 range used by the map constructions:
norms, singular values, deterministic orthonormal frames, great-circle
angles and planar rotations.  All values are plain float64 ndarrays; all
functions are pure.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    AmbiguousArcError,
    DegenerateHintError,
    InvalidAxesError,
    InvalidInputError,
)

# Frames are accepted as orthogonal (F^T F = I within ORTHO_TOL) with det +1.
ORTHO_TOL = 1e-12
ANTIPODAL_TOL = 1e-10
UNIT_TOL = 1e-12

_GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


def as_vector(v, name="vector"):
    """Return v as a finite 1-d float array, raising on bad input."""
    a = np.asarray(v, dtype=float)
    if a.ndim != 1 or a.size < 1:
        raise InvalidInputError(f"{name} must be a 1-d sequence of reals")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} has non-finite entries")
    return a


def as_matrix(m, name="matrix"):
    """Return m as a finite square 2-d float array."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"{name} must be square")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} has non-finite entries")
    return a


def unit(v, name="vector"):
    """Normalize v to unit length."""
    a = as_vector(v, name)
    r = np.linalg.norm(a)
    if r == 0.0:
        raise InvalidInputError(f"{name} is zero")
    return a / r


def svd_small(m):
    """Singular values of a small square matrix, descending.

    Returns sigma_1 >= ... >= sigma_n >= 0 from LAPACK after checking that m
    is square and finite.
    """
    return np.linalg.svd(as_matrix(m), compute_uv=False)


def frame_from_direction(sigma, hint=None):
    """Orthonormal frame whose first column is sigma, det +1.

    When a hint is given, the second column is the unit component of hint
    orthogonal to sigma.  Remaining columns come from largest-pivot
    Gram-Schmidt over the standard basis (index order breaking ties), and the
    last column's sign is flipped if needed to force det +1.
    """
    s = as_vector(sigma, "sigma")
    n = s.size
    if abs(np.linalg.norm(s) - 1.0) > 1e-9:
        raise InvalidInputError("sigma must be a unit vector")
    s = s / np.linalg.norm(s)
    cols = [s]
    if hint is not None:
        h = as_vector(hint, "hint")
        if h.size != n:
            raise InvalidInputError("hint dimension mismatch")
        h = h - (h @ s) * s
        r = np.linalg.norm(h)
        if r <= ANTIPODAL_TOL:
            raise DegenerateHintError("hint is parallel to sigma")
        cols.append(h / r)
    while len(cols) < n:
        basis = np.column_stack(cols)
        residuals = np.eye(n) - basis @ basis.T
        norms = np.linalg.norm(residuals, axis=0)
        k = int(np.argmax(norms))  # argmax takes the lowest index on ties
        cols.append(residuals[:, k] / norms[k])
    f = np.column_stack(cols)
    # second orthogonalization pass: nearly-parallel hints leave ~1e-11
    # residue after one projection, twice is enough for the 1e-12 invariant
    for j in range(1, n):
        for i in range(j):
            f[:, j] -= (f[:, j] @ f[:, i]) * f[:, i]
        f[:, j] /= np.linalg.norm(f[:, j])
    if np.linalg.det(f) < 0:
        f[:, -1] = -f[:, -1]
    return f


def check_frame(f):
    """Validate that f is orthogonal (within ORTHO_TOL) with det +1."""
    a = as_matrix(f, "frame")
    n = a.shape[0]
    if np.abs(a.T @ a - np.eye(n)).max() > ORTHO_TOL:
        raise InvalidInputError("frame columns are not orthonormal")
    if abs(np.linalg.det(a) - 1.0) > 1e-9:
        raise InvalidInputError("frame must have determinant +1")
    return a


def great_circle_angle(sigma1, sigma2):
    """Minor-arc angle between two directions, in (0, pi)."""
    a = unit(sigma1, "sigma1")
    b = unit(sigma2, "sigma2")
    if a.size != b.size:
        raise InvalidInputError("dimension mismatch")
    if np.linalg.norm(a + b) <= ANTIPODAL_TOL:
        raise AmbiguousArcError("antipodal directions: subdivide the arc")
    d = float(np.clip(a @ b, -1.0, 1.0))
    if d >= 1.0 - 1e-15:
        raise InvalidInputError("directions coincide; no arc to measure")
    return float(np.arccos(d))


def planar_rotation(theta, i, j, n):
    """n x n rotation by theta in the (i, j) coordinate plane (0-based axes).

    Positive theta rotates e_i toward e_j.
    """
    if i == j:
        raise InvalidAxesError("rotation plane axes must differ")
    if not (0 <= i < n and 0 <= j < n):
        raise InvalidAxesError("axis index out of range")
    r = np.eye(n)
    c, s = np.cos(theta), np.sin(theta)
    r[i, i] = c
    r[j, j] = c
    r[i, j] = -s
    r[j, i] = s
    return r


def fibonacci_sphere(count):
    """count deterministic, near-uniform points on S^2.

    The uniform lattice coordinate is the first axis; the golden-angle
    azimuth fills the other two.
    """
    if count < 1:
        raise InvalidInputError("count must be positive")
    i = np.arange(count)
    z = 1.0 - (2.0 * i + 1.0) / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * _GOLDEN_ANGLE
    return np.stack([z, r * np.cos(phi), r * np.sin(phi)], axis=1)


def sphere_directions(n, count, seed=0):
    """count unit directions in R^n: the 2n signed axes first, then fill.

    The fill is the Fibonacci lattice for n = 3 and seeded Gaussian directions
    otherwise, so diagonal maps always see their extreme axes exactly.
    """
    if count < 2 * n:
        raise InvalidInputError(f"need at least {2 * n} directions")
    axes = np.concatenate([np.eye(n), -np.eye(n)], axis=0)
    fill = count - 2 * n
    if fill == 0:
        return axes
    if n == 3:
        extra = fibonacci_sphere(fill)
    else:
        rng = np.random.default_rng(seed)
        extra = rng.standard_normal((fill, n))
        extra /= np.linalg.norm(extra, axis=1, keepdims=True)
    return np.concatenate([axes, extra], axis=0)


def random_unit_vectors(rng, m, n):
    """m seeded uniform directions on S^{n-1}."""
    v = rng.standard_normal((m, n))
    return v / np.linalg.norm(v, axis=1, keepdims=True)
