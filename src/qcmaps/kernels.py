"""Hot numeric kernels: batched numpy implementations.

Kernels operate on batched float64 arrays of shape (m, n); the ``*_batch``
functions except ``spiral_region_batch`` also accept a single point (n,) and
then return a single result.  Conventions shared by all of them:

- chart coordinates are the first n-1 entries, the free log-radius is last;
- the cube chart maps [-pi/2, pi/2]^{n-1} onto the closed upper half sphere
  through p -> (p * sin(max|p_i|) / |p|, cos(max|p_i|));
- the exponential-type map is Z(x) = e^{x_n} h(chart part), where h extends
  the chart by reflections in the cube faces (each face reflection flips the
  sign of the last image coordinate);
- canonical coordinates live in the two-box fundamental set
  ([-pi/2,pi/2] x [-pi/2,pi/2]^{n-2}  union  (pi/2,3pi/2) x (-pi/2,pi/2)^{n-2})
  cross R, with boundary points assigned to the first box and x_1 = 3pi/2
  wrapped to -pi/2.
"""

from __future__ import annotations

import itertools

import numpy as np

HALF_PI = np.pi / 2.0
TWO_PI = 2.0 * np.pi


def _as_batch(x):
    a = np.asarray(x, dtype=float)
    single = a.ndim == 1
    return (a[None, :] if single else a), single


def _fold_chart(xb):
    """Fold chart coordinates into the cube; return (folded, reflection parity).

    2*pi translations are parity-even (two face reflections); the at-most-one
    remaining face reflection per coordinate is parity-odd.  The rint-based
    wrap leaves already-in-range coordinates bit-exact.
    """
    w = xb - TWO_PI * np.rint(xb / TWO_PI)
    hi = w > HALF_PI
    lo = w < -HALF_PI
    w = np.where(hi, np.pi - w, w)
    w = np.where(lo, -np.pi - w, w)
    parity = (hi.sum(axis=-1) + lo.sum(axis=-1)) % 2
    return w, parity


def _chart(p):
    """Cube chart onto the closed upper half unit sphere."""
    m = np.max(np.abs(p), axis=-1)
    r = np.sqrt(np.sum(p * p, axis=-1))
    safe = r > 0.0
    scale = np.where(safe, np.sin(m) / np.where(safe, r, 1.0), 0.0)
    y = np.empty(p.shape[:-1] + (p.shape[-1] + 1,))
    y[..., :-1] = p * scale[..., None]
    y[..., -1] = np.cos(m)
    return y


def _rotate_pair(a, b, c, s):
    """(a, b) rotated by (cos, sin) = (c, s): (a c - b s, a s + b c).

    The (1,2)-plane rotation shared by the spiral kernels, the spiral shell
    maps and the certification grids.
    """
    return a * c - b * s, a * s + b * c


def _rotate_12(v, c, s):
    """Copy of v with its first two coordinates rotated by (c, s)."""
    w = v.copy()
    w[..., 0], w[..., 1] = _rotate_pair(v[..., 0], v[..., 1], c, s)
    return w


def _max_and_gap(cols):
    """Elementwise largest value of `cols` and its gap to the second largest.

    `cols` is a sequence of at least two broadcastable arrays.  A running
    np.maximum / np.minimum pass keeps the top two exactly, ties included,
    so the result equals the last two entries of a sort.
    """
    first = np.maximum(cols[0], cols[1])
    second = np.minimum(cols[0], cols[1])
    for c in cols[2:]:
        second = np.maximum(second, np.minimum(first, c))
        first = np.maximum(first, c)
    return first, first - second


def zorich_forward_batch(x):
    """Z(x) = e^{x_n} h(x_1..x_{n-1}) for arbitrary points of R^n."""
    a, single = _as_batch(x)
    p, parity = _fold_chart(a[..., :-1])
    y = _chart(p)
    y[..., -1] = np.where(parity == 1, -y[..., -1], y[..., -1])
    out = y * np.exp(a[..., -1])[..., None]
    return out[0] if single else out


def zorich_inverse_batch(y):
    """Canonical fundamental-set coordinates of y != 0.

    The colatitude comes from arctan2 of the transverse/axial parts (stable
    at both the poles and the equator, unlike arccos of the axial cosine).
    """
    a, single = _as_batch(y)
    r = np.sqrt(np.sum(a * a, axis=-1))
    yn = a[..., -1]
    yb = a[..., :-1]
    m = np.arctan2(np.sqrt(np.sum(yb * yb, axis=-1)), np.abs(yn))
    mx = np.max(np.abs(yb), axis=-1)
    safe = mx > 0.0
    scale = np.where(safe, m / np.where(safe, mx, 1.0), 0.0)
    pb = yb * scale[..., None]
    out = np.empty_like(a)
    out[..., :-1] = pb
    out[..., 0] = np.where(yn < 0.0, np.pi - pb[..., 0], pb[..., 0])
    out[..., -1] = np.log(r)
    return out[0] if single else out


def canonicalize_batch(x):
    """Canonical fundamental-set representative of arbitrary coordinates."""
    a, single = _as_batch(x)
    p, parity = _fold_chart(a[..., :-1])
    mx = np.max(np.abs(p), axis=-1)
    # odd parity flips the image hemisphere: represent in the second box,
    # except on the equator preimage (max |p_i| = pi/2) where both agree
    # and the convention assigns the first box.
    odd = (parity == 1) & (mx < HALF_PI)
    out = np.empty_like(a)
    out[..., :-1] = p
    out[..., 0] = np.where(odd, np.pi - p[..., 0], p[..., 0])
    out[..., -1] = a[..., -1]
    return out[0] if single else out


def spiral_u_batch(x, K, alpha):
    """Log-coordinate spiral stretch: first-box chart coordinates only.

    The chart part is M * m * (A, B, x_3, ..., x_{n-1}) with M the max-norm,
    m the reciprocal of the largest candidate magnitude, and (A, B) the
    (x_1, x_2) pair rotated by alpha * x_n; the last coordinate gains the log
    of the direction-dependent stretch factor.
    """
    a, single = _as_batch(x)
    K = float(K)
    xb = a[..., :-1]
    xn = a[..., -1]
    phase = float(alpha) * xn
    w = _rotate_12(xb, np.cos(phase), np.sin(phase))
    m = np.max(np.abs(xb), axis=-1)
    dm = np.max(np.abs(w), axis=-1)
    scale = m / dm
    x1 = xb[..., 0]
    rho2 = np.sum(xb * xb, axis=-1)
    sin2m = np.sin(m) ** 2
    g = K * K + (1.0 - K * K) * (x1 * x1 * sin2m / rho2)
    out = np.empty_like(a)
    out[..., :-1] = w * scale[..., None]
    out[..., -1] = xn + np.log(K) - 0.5 * np.log(g)
    return out[0] if single else out


def _spiral_ssq(xb, p):
    """s^2 = x_1^2 sin^2(x_p) / |x_b|^2 and its gradient in x_b, (m,), (m, n-1).

    s^2 is the squared first coordinate of the chart image of the chart
    points xb, whose max-norm coordinate has index p; the spiral stretch's
    log factor is -ln(K^2 + (1 - K^2) s^2) / 2 plus ln K.
    """
    rows = np.arange(len(xb))
    x1 = xb[:, 0]
    xp = xb[rows, p]
    rho2 = np.sum(xb * xb, axis=1)
    sinp = np.sin(xp)
    sin2p = np.sin(2.0 * xp)
    ssq = x1 * x1 * sinp * sinp / rho2
    ds = -2.0 * ssq[:, None] * xb / rho2[:, None]
    ds[:, 0] += 2.0 * x1 * sinp * sinp / rho2
    ds[rows, p] += x1 * x1 * sin2p / rho2
    return ssq, ds


def _spiral_chart_terms(xb, K):
    """The phase-free part of the spiral Jacobian at chart points xb, (m, n-1).

    Returns (p, x_p, sign(x_p), last): the index and value of each point's
    max-norm coordinate, its sign, and the Jacobian's last row
    (coef(K) grad(s^2), 1) as an (n, m) array of entry vectors, with
    coef(K) = (K^2 - 1) / (2 g) and g = K^2 + (1 - K^2) s^2.
    """
    p = np.argmax(np.abs(xb), axis=1)
    xp = xb[np.arange(len(xb)), p]
    ssq, ds = _spiral_ssq(xb, p)
    g = K * K + (1.0 - K * K) * ssq
    coef = -(1.0 - K * K) / (2.0 * g)
    last = np.empty((xb.shape[1] + 1, len(xb)))
    last[:-1] = coef * ds.T
    last[-1] = 1.0
    return p, xp, np.sign(xp), last


def _spiral_jac_assemble(xb, c, s, alpha, p, xp, sign_p, last):
    """Spiral Jacobians as an (n, n, m) array: entry (i, j) of every point is
    one contiguous vector, so ``jac.transpose(2, 0, 1)`` is the (m, n, n) stack.

    xb is the chart block as (n-1, m) coordinate vectors, c and s the cos and
    sin of each point's phase alpha * x_n, and (p, xp, sign_p, last) its
    ``_spiral_chart_terms``.  With w the (1,2)-rotated chart block,
    d = w_q its max-norm coordinate and dw = dw/dx the rotation's derivative
    (dd its row q), chart row i is ((x_p dw_i) / d - u_i dd + w_i / d e_p)
    times sign(x_p) sign(d), u_i = (x_p w_i / d) / d.  Only the structural
    nonzeros of dw are formed: its first two rows, (c, -s, 0.., -alpha w_2)
    and (s, c, 0.., alpha w_1), and the unit rows e_k beyond them.
    """
    nb, m = xb.shape
    w = np.empty((nb, m))
    w[0], w[1] = _rotate_pair(xb[0], xb[1], c, s)
    w[2:] = xb[2:]
    q = np.argmax(np.abs(w), axis=0)
    cols = np.arange(m)
    dval = w[q, cols]
    sign = sign_p * np.sign(dval)
    w_over_d = w / dval
    u = xp * w_over_d / dval

    # dw's first two rows on their nonzero columns 0, 1 and n-1
    rot = ((c, -s, -alpha * w[1]), (s, c, alpha * w[0]))
    on0, on1 = q == 0, q == 1
    dd = np.zeros((nb + 1, m))
    for j, a, b in zip((0, 1, nb), *rot):
        dd[j] = np.where(on0, a, np.where(on1, b, 0.0))
    for k in range(2, nb):
        dd[k] = q == k

    jac = np.empty((nb + 1, nb + 1, m))
    top = jac[:nb]
    np.multiply(-u[:, None], dd, out=top)
    for i, row in enumerate(rot):
        for j, v in zip((0, 1, nb), row):
            top[i, j] += xp * v / dval
    for k in range(2, nb):
        top[k, k] += xp / dval
    top[:, p, cols] += w_over_d
    top *= sign
    jac[nb] = last
    return jac


# c in the rounding bound c n eps prod_i |row_i|_1 of ``_laplace_det``
_LAPLACE_C = 8.0


def _laplace_det(jac):
    """Determinants of an (n, n, m) entry array with a bound on their rounding.

    Laplace expansion from the bottom row up: every k x k minor of the last
    k rows is formed from the (k-1)-minors of the rows below, along its top
    row, so the table takes n 2^{n-1} products of contiguous length-m
    vectors and holds at most C(n, n/2) minors per level; no matrix is
    transposed, copied or passed to LAPACK.

    Returns (det, bound).  bound = c n eps prod_i |row_i|_1, c = _LAPLACE_C:
    the product of the row 1-norms is at least the permanent of |J|, which
    bounds each expanded term, so it bounds the rounding of the Laplace sum
    (at most about (n + 1)/4 n eps times the permanent for this order).
    c = 8 leaves room for LAPACK's own rounding as well, so that the bound
    also covers the difference to ``np.linalg.det``.
    """
    n, m = jac.shape[0], jac.shape[2]
    minors = {(j,): jac[n - 1, j] for j in range(n)}
    term = np.empty(m)
    for row in range(n - 2, -1, -1):
        top = jac[row]
        level = {}
        for cols in itertools.combinations(range(n), n - row):
            acc = top[cols[0]] * minors[cols[1:]]
            for t in range(1, len(cols)):
                np.multiply(top[cols[t]], minors[cols[:t] + cols[t + 1:]], out=term)
                if t % 2:
                    acc -= term
                else:
                    acc += term
            level[cols] = acc
        minors = level
    norms = np.abs(jac).sum(axis=1).prod(axis=0)
    return minors[tuple(range(n))], _LAPLACE_C * n * np.finfo(float).eps * norms


def spiral_jac_batch(x, K, alpha):
    """Analytic Jacobian of the spiral-stretch log-coordinate map, (m, n, n).

    Valid away from the max-coordinate (pyramid) and candidate-switching
    surfaces; region dispatch is by argmax, so callers must enforce margins.
    The phase-free terms come from ``_spiral_chart_terms`` and the entries
    from ``_spiral_jac_assemble``; the result is a transposed view of its
    (n, n, m) array.
    """
    x, single = _as_batch(x)
    K, alpha = float(K), float(alpha)
    nb = x.shape[1] - 1
    phase = alpha * x[:, nb]
    jac = _spiral_jac_assemble(
        np.ascontiguousarray(x[:, :nb].T), np.cos(phase), np.sin(phase), alpha,
        *_spiral_chart_terms(x[:, :nb], K),
    ).transpose(2, 0, 1)
    return jac[0] if single else jac


def spiral_region_batch(x, alpha):
    """Region classification: (max index, candidate index, both margins).

    Always returns length-m arrays; a single point gives length-1 arrays.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    xb = x[:, :-1]
    phase = float(alpha) * x[:, -1]
    w = _rotate_12(xb, np.cos(phase), np.sin(phase))
    absx = np.abs(xb)
    absw = np.abs(w)
    _, pyr = _max_and_gap(absx.T)
    _, switch = _max_and_gap(absw.T)
    return np.argmax(absx, axis=1), np.argmax(absw, axis=1), pyr, switch
