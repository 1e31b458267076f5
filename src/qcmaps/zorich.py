"""Cube-chart Zorich map: fundamental set, quotient metric and conjugation.

The map is Z(x) = e^{x_n} h(x_1, ..., x_{n-1}) where h extends the cube chart

    g(p) = (p * sin(max_i |p_i|) / |p|,  cos(max_i |p_i|))

by reflections in the faces of [-pi/2, pi/2]^{n-1} (each reflection flips the
last image coordinate).  Z restricts to a homeomorphism from the two-box
fundamental set

    B = ([-pi/2, pi/2] x [-pi/2, pi/2]^{n-2}
         union (pi/2, 3pi/2) x (-pi/2, pi/2)^{n-2}) x R

onto R^n minus the origin, once boundary points are identified under the
reflection group; canonical representatives put boundary points in the first
box and wrap x_1 = 3pi/2 to -pi/2.  The map, its inverse and the canonical
representative are the batch kernels ``kernels.zorich_forward_batch``,
``kernels.zorich_inverse_batch`` and ``kernels.canonicalize_batch``; this
module adds the seeded samples of B, the quotient metric on B, and
``composition_residual``, which checks that conjugation by Z,
f -> Z^{-1} o f o Z, commutes with composition.  Conjugation turns radial
scalings into vertical translations, which is what the log-coordinate forms
of ``canonical_maps`` rest on.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .errors import InvalidInputError, OriginError, TransformUndefinedError
from .kernels import HALF_PI, TWO_PI


def _rep_options(coords):
    """Per coordinate, its orbit candidates adjacent to the fundamental set,
    as a list of (values, parity) pairs, one coordinate at a time.

    The parity is that of the face reflections: 2*pi translations are two
    reflections (parity 0), single-face reflections parity 1.  Only products
    with even total parity leave the map invariant (odd products flip the
    image hemisphere), so distances are taken over even products only.
    """
    x0 = coords[:, 0]
    yield [(x0, 0), (x0 + TWO_PI, 0), (x0 - TWO_PI, 0),
           (np.pi - x0, 1), (-np.pi - x0, 1), (3 * np.pi - x0, 1)]
    for i in range(1, coords.shape[1] - 1):
        xi = coords[:, i]
        yield [(xi, 0), (np.pi - xi, 1), (-np.pi - xi, 1)]


def quotient_distance_batch(a, b):
    """Pairwise quotient distances between canonical coordinate arrays.

    Minimum Euclidean distance from each a-row to the equivalent (even
    reflection parity) representatives of the matching b-row; the free last
    coordinate carries no group action.

    The minimum separates per coordinate: a two-state recursion keeps, for
    each parity, the least squared sum of the coordinates so far, added left
    to right, and the even one is the answer.  Rounded addition is monotone,
    so min over s of fl(s + t) is fl(min s + t), and the result is the one an
    explicit minimum over every even-parity combination of representatives
    gives, to the bit, in n - 1 passes instead of 3^(n-1).
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    least = [np.zeros(len(a)), np.full(len(a), np.inf)]  # even, odd
    for i, reps in enumerate(_rep_options(b)):
        nxt = [np.full(len(a), np.inf), np.full(len(a), np.inf)]
        for rep, par in reps:
            d2 = (a[:, i] - rep) ** 2
            for q in (0, 1):
                np.minimum(nxt[q ^ par], least[q] + d2, out=nxt[q ^ par])
        least = nxt
    return np.sqrt(least[0] + (a[:, -1] - b[:, -1]) ** 2)


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
    lifted_once = _lift(f(gy))
    fzg = f(kernels.zorich_forward_batch(_lift(gy)))
    lifted_twice = _lift(fzg)

    return float(quotient_distance_batch(lifted_once, lifted_twice).max())


def _lift(y):
    """Z^{-1}(y) for a map's output, where a zero row means the composition
    hit the origin."""
    try:
        return kernels.zorich_inverse_batch(y)
    except OriginError as exc:
        raise TransformUndefinedError("composition hit the origin on a sample") from exc
