"""Cube-chart Zorich map, fundamental-set bookkeeping, and conjugation.

The map is Z(x) = e^{x_n} h(x_1, ..., x_{n-1}) where h extends the cube chart

    g(p) = (p * sin(max_i |p_i|) / |p|,  cos(max_i |p_i|))

by reflections in the faces of [-pi/2, pi/2]^{n-1} (each reflection flips the
last image coordinate).  Z restricts to a homeomorphism from the two-box
fundamental set

    B = ([-pi/2, pi/2] x [-pi/2, pi/2]^{n-2}
         union (pi/2, 3pi/2) x (-pi/2, pi/2)^{n-2}) x R

onto R^n minus the origin, once boundary points are identified under the
reflection group; canonical representatives put boundary points in the first
box and wrap x_1 = 3pi/2 to -pi/2.  Conjugating a punctured-space map f by Z
(``transform_eval``) turns radial scalings into vertical translations and is
the workhorse behind the stretch-map log-coordinate forms.

Chart points are plain (n-1,) arrays with max-norm <= pi/2; fundamental-set
points carry the n coordinates (chart block plus free last coordinate).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import kernels
from .errors import InvalidInputError, OriginError, TransformUndefinedError
from .kernels import HALF_PI, TWO_PI
from .vecgeom import as_vector

# Membership slack for validating canonical coordinates.
BOX_TOL = 1e-9


@dataclass(frozen=True)
class FundamentalPoint:
    """A canonical representative in the fundamental set B.

    coords[:-1] is the chart block (x_1 may reach into the second box),
    coords[-1] is the free log-radius coordinate.
    """

    coords: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.coords, dtype=float).copy()
        if a.ndim != 1 or a.size < 3:
            raise InvalidInputError("fundamental point needs n >= 3 coordinates")
        if not np.all(np.isfinite(a)):
            raise InvalidInputError("fundamental point has non-finite coordinates")
        x1 = a[0]
        rest = np.abs(a[1:-1])
        if x1 < -HALF_PI - BOX_TOL or x1 >= 3 * HALF_PI + BOX_TOL:
            raise InvalidInputError("x_1 outside the fundamental set")
        if rest.size and rest.max() > HALF_PI + BOX_TOL:
            raise InvalidInputError("chart coordinate outside the fundamental set")
        if x1 > HALF_PI + BOX_TOL and rest.size and rest.max() >= HALF_PI:
            raise InvalidInputError("second-box points need |x_i| < pi/2")
        a.setflags(write=False)
        object.__setattr__(self, "coords", a)

    @property
    def n(self):
        return self.coords.size

    @property
    def box(self):
        """1 for the closed first box, 2 for the open second box."""
        return 2 if self.coords[0] > HALF_PI else 1

    @property
    def chart(self):
        return self.coords[:-1]

    @property
    def height(self):
        return float(self.coords[-1])


def _coords_of(x):
    if isinstance(x, FundamentalPoint):
        return x.coords
    return FundamentalPoint(np.asarray(x, dtype=float)).coords


def sphere_chart(p):
    """Evaluate the cube chart at p in [-pi/2, pi/2]^{n-1}.

    Returns a unit vector on the closed upper half sphere; the cube center
    goes to the pole by the continuous extension.
    """
    a = as_vector(p, "chart point")
    if a.size < 2:
        raise InvalidInputError("chart point needs n - 1 >= 2 coordinates")
    if np.abs(a).max() > HALF_PI + BOX_TOL:
        raise InvalidInputError("chart point outside the cube")
    return kernels._chart(a)


def zorich_forward(x):
    """Z(x) = e^{x_n} h(chart block); accepts any representative.

    Z is strongly automorphic under the reflection group, so arbitrary
    coordinates (not only canonical ones) evaluate consistently.
    """
    if isinstance(x, FundamentalPoint):
        return kernels.zorich_forward_batch(x.coords)
    a = as_vector(x, "point")
    if a.size < 3:
        raise InvalidInputError("need n >= 3 coordinates")
    return kernels.zorich_forward_batch(a)


def zorich_inverse(y):
    """Canonical preimage of y != 0 under Z."""
    a = as_vector(y, "point")
    if a.size < 3:
        raise InvalidInputError("need n >= 3 coordinates")
    if np.linalg.norm(a) == 0.0:
        raise OriginError("the origin is outside the range of the map")
    return FundamentalPoint(kernels.zorich_inverse_batch(a))


def canonicalize(x):
    """Canonical fundamental-set representative of arbitrary coordinates."""
    a = as_vector(x, "point")
    if a.size < 3:
        raise InvalidInputError("need n >= 3 coordinates")
    return FundamentalPoint(kernels.canonicalize_batch(a))


def transform_eval(f, x):
    """Conjugate evaluation Z^{-1}(f(Z(x))) of a punctured-space map f."""
    coords = _coords_of(x)
    y = kernels.zorich_forward_batch(coords)
    z = np.asarray(f(y), dtype=float)
    if z.shape != y.shape or not np.all(np.isfinite(z)):
        raise InvalidInputError("map returned malformed output")
    if np.linalg.norm(z) == 0.0:
        raise TransformUndefinedError("map sent the sample to the origin")
    return FundamentalPoint(kernels.zorich_inverse_batch(z))


def _rep_options(coords):
    """Per-coordinate orbit candidates adjacent to the fundamental set.

    Each option carries its face-reflection parity: 2*pi translations are two
    reflections (parity 0), single-face reflections parity 1.  Only products
    with even total parity leave the map invariant (odd products flip the
    image hemisphere), so distance candidates are parity-filtered.
    """
    x0 = coords[..., 0]
    opts = [
        (
            np.stack(
                [x0, x0 + TWO_PI, x0 - TWO_PI, np.pi - x0, -np.pi - x0, 3 * np.pi - x0],
                axis=-1,
            ),
            (0, 0, 0, 1, 1, 1),
        )
    ]
    n = coords.shape[-1]
    for i in range(1, n - 1):
        xi = coords[..., i]
        opts.append(
            (np.stack([xi, np.pi - xi, -np.pi - xi], axis=-1), (0, 1, 1))
        )
    return opts


def quotient_distance_batch(a, b):
    """Pairwise quotient distances between canonical coordinate arrays.

    Minimum Euclidean distance from each a-row to the equivalent (even
    reflection parity) representatives of the matching b-row; the free last
    coordinate carries no group action.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    n = a.shape[1]
    opts = _rep_options(b)
    best = np.full(a.shape[0], np.inf)
    ranges = [range(len(par)) for _, par in opts]
    for combo in product(*ranges):
        parity = sum(opts[i][1][c] for i, c in enumerate(combo))
        if parity % 2 == 1:
            continue
        d2 = np.zeros(a.shape[0])
        for i, c in enumerate(combo):
            d2 = d2 + (a[:, i] - opts[i][0][:, c]) ** 2
        best = np.minimum(best, d2)
    return np.sqrt(best + (a[:, -1] - b[:, -1]) ** 2)


def quotient_distance(a, b):
    """Quotient-metric distance between two fundamental-set points."""
    return float(quotient_distance_batch(_coords_of(a), _coords_of(b))[0])


def sample_fundamental(rng, m, n, height_range=(-1.5, 1.5), second_box=True):
    """Seeded samples across the fundamental set (both boxes by default)."""
    hi = 3 * HALF_PI if second_box else HALF_PI
    x = np.empty((m, n))
    x[:, 0] = rng.uniform(-HALF_PI, hi, m)
    for i in range(1, n - 1):
        x[:, i] = rng.uniform(-HALF_PI, HALF_PI, m)
    x[:, n - 1] = rng.uniform(height_range[0], height_range[1], m)
    return x


def composition_residual(f, g, samples, n=3, seed=0):
    """Max quotient-metric gap between lifting f o g and composing the lifts.

    The samples cover both boxes of the fundamental set with x_n in
    [-1.5, 1.5].  Maps must accept batched (m, n) arrays and be nonzero along
    the sampled orbit.  Exact conjugation makes this zero up to roundoff.
    """
    if samples < 1:
        raise InvalidInputError("need at least one sample")
    rng = np.random.default_rng(seed)
    x = sample_fundamental(rng, samples, n)
    y = kernels.zorich_forward_batch(x)

    gy = np.asarray(g(y), dtype=float)
    fgy = np.asarray(f(gy), dtype=float)
    if min(
        np.linalg.norm(gy, axis=1).min(), np.linalg.norm(fgy, axis=1).min()
    ) == 0.0:
        raise TransformUndefinedError("composition hit the origin on a sample")
    lifted_once = kernels.zorich_inverse_batch(fgy)

    xg = kernels.zorich_inverse_batch(gy)
    fzg = np.asarray(f(kernels.zorich_forward_batch(xg)), dtype=float)
    if np.linalg.norm(fzg, axis=1).min() == 0.0:
        raise TransformUndefinedError("composition hit the origin on a sample")
    lifted_twice = kernels.zorich_inverse_batch(fzg)

    return float(quotient_distance_batch(lifted_once, lifted_twice).max())
