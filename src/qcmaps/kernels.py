"""Hot numeric kernels: batched numpy implementations.

Every public kernel takes one point (n,) or a batch (m, n) of float64
coordinates with n >= 3 and m >= 1; ``_as_batch`` rejects any other shape
with ``InvalidInputError``.  A single point gives a single result, except
in ``spiral_region_batch``, which always returns length-m arrays.
``zorich_inverse_batch`` also raises ``OriginError`` on a zero row.  Entries
are not scanned for finiteness, which would add a few percent to a large
call: a non-finite row gives non-finite output in its own row.  The
finiteness checks sit where outside input enters (the CLI's ``RunConfig``,
the map specs, ``TargetSet`` and the point-taking public functions of
``canonical_maps``, ``distortion`` and ``realizer``).

Conventions shared by all of them:

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

The kernels work on coordinate columns: every reduction across coordinates
(``_abs_max``, ``_argmax_abs``, ``_sum_sq``), every per-row pick (``_pick``)
and every per-row masked add (``_only_where``) is a chain of elementwise
ufuncs over the column views a[:, i], one call per coordinate over all m
rows.  None reduces along the last axis of an (m, n) array, where numpy runs
one inner loop of only n entries per row.  Sums of squares add the columns
left to right, ((x_1^2 + x_2^2) + x_3^2) + ...; up to 7 coordinates this is
the order np.sum and np.linalg.norm take along a short last axis, so the
sums equal theirs to the bit, while from 8 coordinates on numpy sums
pairwise and the two can differ in the last place.  Masked ufuncs (``where=``)
write only to contiguous vectors, never to a column view: numpy 2.4's masked
np.negative misreads a 64-byte stride, the last column of an (m, 8) array.

The public kernels run over strips of rows: each checks its input once with
``_as_batch``, allocates its output once, and calls its private body
(``_zorich_forward_rows`` and so on) on consecutive strips of ``_STRIP`` =
16384 rows, each body writing its strip's rows of the output.  A body is
row-local (column ufuncs only, no reduction across rows, no BLAS call), so a
row's result does not depend on the strip it falls in and the strips are
exact to the bit.  16384 rows keep a strip's column temporaries, some 40 of
128 KiB, near a 2 MiB L2; a batch of at most 16384 rows, or a single point,
is one strip and is not copied.

The same strip runner serves the y-space maps of ``canonical_maps``, one
matrix product per strip.  A product's bits can depend on its row count, so
the strips are cut by ``_row_cuts``: consecutive runs of the given size,
with a lone last row joined to the run before it.  numpy computes a one-row
product as a dot product, which can round differently from the same row
inside a matrix product: on 20 seeded batches of 2 x 16384 + 1 rows, a
one-row last strip changed 7, 32, 48 and 110 entries of the spiral stretch
at n = 3, 4, 5 and 8, and 3 of the oriented stretch at n = 3, while last
strips of 2, 5 and 9 rows changed none.  A strip's product has at most 16385
rows.  Up to n = 5 that stays below the sizes from which OpenBLAS 0.3.31
runs a product on threads of its own (on a 2-vCPU Xeon: an (m, n) x (n, n)
product from m = 32768 at n = 4 and 5, 65536 at n = 3).  Its workers then
spin on the other CPUs for about 0.13 s after each such call, taking them
from the strips.  The mean-radius quadrature of ``realizer`` runs inline on
blocks of its own and calls no BLAS: it sums each block row with
``np.einsum``, so its results do not depend on a row's block.

The strips of one call may run on several threads (``_each_strip``, the
only code of qcmaps that starts a thread): the calling thread and one
helper per further usable CPU and further full strip, started for the call
and joined before it returns or raises.  numpy releases the GIL inside its
ufunc loops and BLAS calls, so the strips compute side by side.  The bits
still cannot change: each strip writes only its own rows, and a row's
arithmetic is the same on any thread and in any order.  The helpers run
under the caller's numpy error state (``np.errstate`` is per thread), so
ignored floating-point errors stay silent and raised ones raise, from any
strip.  A body calls no public function of qcmaps, so wrappers installed on
public functions (a tracer's spans, say) only ever run on the calling
thread.  There is no knob: the thread count is the number of CPUs the
process may run on, read once at import, and a batch of fewer than two full
strips, or a single CPU, runs inline, starting no thread.
"""

from __future__ import annotations

import itertools
import os
import threading

import numpy as np

from .errors import InvalidInputError, OriginError

HALF_PI = np.pi / 2.0
TWO_PI = 2.0 * np.pi


def _as_batch(x):
    """x as an (m, n) float batch, and whether it was a single (n,) point."""
    a = np.asarray(x, dtype=float)
    if a.ndim not in (1, 2) or a.shape[-1] < 3 or a.size == 0:
        raise InvalidInputError(
            "points must be one (n,) point or a non-empty (m, n) batch, n >= 3"
        )
    single = a.ndim == 1
    return (a[None, :] if single else a), single


# Rows per strip of the public kernels.  A strip's column temporaries, some 40
# of 128 KiB, stay near a 2 MiB L2, and malloc hands the same blocks back strip
# after strip.  The six kernels on the 200k-row bulk inputs (n = 3 and 4,
# 2-vCPU Xeon, median ms), on one thread: 377 at 2^11 rows, 313 at 2^12, 274
# at 2^13, 292 at 2^14, 308 at 2^15, and 433 in one pass over all rows.  With
# both CPUs (median of 9 and of 15 alternating rounds, seeds 0 and 7): 268 and
# 284 at 2^12, 179 and 183 at 2^13, 156 and 164 at 2^14, 163 and 169 at 2^15,
# against 211 and 232 on one thread at 2^13.
_STRIP = 1 << 14

# Threads that run the strips of one call: the calling thread and
# _WORKERS - 1 helpers, never more than there are full strips.
try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:
    _WORKERS = os.cpu_count() or 1


def _row_cuts(m, size):
    """Cuts of m rows into consecutive blocks of `size` rows, as the list
    [0, size, 2 size, ..., m], with a lone last row joined to the block
    before it: a one-row matrix product is a dot product, whose bits can
    differ from the same row's inside a larger product.  The strips of
    ``_each_strip`` are its blocks, and the join serves the matrix products
    of the y-space maps that run on them."""
    cuts = [*range(0, m, size), m]
    if len(cuts) > 2 and cuts[-1] - cuts[-2] == 1:
        del cuts[-2]
    return cuts


def _each_strip(m, body):
    """Call body(s) for the row slice s of every strip of an m-row batch.

    The strips are the blocks of ``_row_cuts(m, _STRIP)``.  A batch of fewer
    than two full strips, or one usable CPU, runs them inline, in order: a
    thread pays for its start and its share of the GIL only with a full strip
    of its own.  Otherwise the calling thread and its helpers take strips in
    order until none is left, so a slow thread takes fewer.  A strip that
    raises stops the hand-out; the call joins every helper, then re-raises
    the exception of the lowest strip that raised, as a serial loop would.
    """
    cuts = _row_cuts(m, _STRIP)
    strips = [slice(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])]
    workers = min(_WORKERS, m // _STRIP)
    if workers <= 1:
        for s in strips:
            body(s)
        return
    todo = iter(strips)
    lock = threading.Lock()
    failed = []

    def work():
        while True:
            with lock:
                s = None if failed else next(todo, None)
            if s is None:
                return
            try:
                body(s)
            except BaseException as exc:
                with lock:
                    failed.append((s.start, exc))
                return

    err, call = np.geterr(), np.geterrcall()

    def helper():
        with np.errstate(call=call, **err):
            work()

    helpers = [threading.Thread(target=helper) for _ in range(workers - 1)]
    for t in helpers:
        t.start()
    try:
        work()
    finally:
        for t in helpers:
            t.join()
    if failed:
        raise min(failed, key=lambda f: f[0])[1]


def _abs_max(cols):
    """Elementwise max of |c| over `cols`, a sequence of at least one array:
    np.max(np.abs(x), axis=-1) for cols = x.T."""
    out = np.abs(cols[0])
    for c in cols[1:]:
        np.maximum(out, np.abs(c), out=out)
    return out


def _argmax_abs(cols):
    """Index of the column of largest |c| in each row, as
    np.argmax(np.abs(x), axis=-1) gives for cols = x.T and finite x.

    The index is the count of leading columns strictly below the row's
    max, so ties give the first index; counting takes no masked writes,
    whose cost grows with how unpredictable the mask is.
    """
    top = _abs_max(cols)
    below = np.abs(cols[0]) < top
    idx = below.astype(np.intp)
    for c in cols[1:-1]:
        below &= np.abs(c) < top
        idx += below
    return idx


def _sum_sq(cols):
    """Elementwise sum of c * c over `cols`, added left to right."""
    out = cols[0] * cols[0]
    for c in cols[1:]:
        out += c * c
    return out


def _pick(cols, idx):
    """cols[idx[k]][k] for every row k: the per-row pick of columns."""
    out = cols[0]
    for i, c in enumerate(cols[1:], 1):
        out = np.where(idx == i, c, out)
    return out


def _only_where(mask, v):
    """v where mask holds, else -0.0: the addend of a masked add.

    -0.0 is the exact additive identity (x + -0.0 is x, -0.0 included, where
    +0.0 would turn a -0.0 into +0.0), so ``a += _only_where(mask, v)`` adds
    v at the masked entries only.  A select costs less than np.add's masked
    loop, whose time grows with how unpredictable the mask is.
    """
    return np.where(mask, v, -0.0)


def _fold_chart(cols):
    """Fold chart coordinate columns into the cube; return (folded, odd).

    2*pi translations are parity-even (two face reflections); the at-most-one
    remaining face reflection per coordinate is parity-odd, so the reflection
    parity `odd` is the XOR of the per-coordinate reflection masks.  The
    rint-based wrap leaves already-in-range coordinates bit-exact.
    """
    folded = []
    odd = np.zeros(np.shape(cols[0]), dtype=bool)
    for x in cols:
        w = x / TWO_PI
        np.rint(w, out=w)
        w *= TWO_PI
        np.subtract(x, w, out=w)
        hi = w > HALF_PI
        lo = w < -HALF_PI
        np.subtract(np.pi, w, out=w, where=hi)
        np.subtract(-np.pi, w, out=w, where=lo)
        odd ^= hi
        odd ^= lo
        folded.append(w)
    return folded, odd


def _chart(cols, out):
    """Cube chart onto the closed upper half unit sphere, written to and
    returned in the (m, n) array out, from the n-1 chart coordinate columns
    of m points."""
    m = _abs_max(cols)
    r = np.sqrt(_sum_sq(cols))
    safe = r > 0.0
    scale = np.where(safe, np.sin(m) / np.where(safe, r, 1.0), 0.0)
    for i, c in enumerate(cols):
        np.multiply(c, scale, out=out[:, i])
    out[:, -1] = np.cos(m)
    return out


def _rotate_pair(a, b, c, s):
    """(a, b) rotated by (cos, sin) = (c, s): (a c - b s, a s + b c).

    The (1,2)-plane rotation shared by the spiral kernels, the spiral shell
    maps and the certification grids.
    """
    return a * c - b * s, a * s + b * c


def _rotated_cols(xb, c, s):
    """The chart columns xb with the first two rotated by (c, s)."""
    return [*_rotate_pair(xb[0], xb[1], c, s), *xb[2:]]


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


def _zorich_forward_rows(a, out):
    p, odd = _fold_chart(a[:, :-1].T)
    _chart(p, out)
    scale = np.exp(a[:, -1])
    for c in out.T[:-1]:
        c *= scale
    # negation commutes with the product exactly
    last = out[:, -1] * scale
    np.negative(last, out=last, where=odd)
    out[:, -1] = last


def zorich_forward_batch(x):
    """Z(x) = e^{x_n} h(x_1..x_{n-1}) for arbitrary points of R^n."""
    a, single = _as_batch(x)
    out = np.empty(a.shape)
    _each_strip(len(a), lambda s: _zorich_forward_rows(a[s], out[s]))
    return out[0] if single else out


def _zorich_inverse_rows(a, out):
    yb, yn = a.T[:-1], a[:, -1]
    # |y|^2 sums the columns left to right, so it extends the transverse sum
    sb = _sum_sq(yb)
    r = np.sqrt(sb + yn * yn)
    # NaN counts as nonzero, so a zero row is found whatever else the batch holds
    if not np.all(r):
        raise OriginError("the origin is outside the range of the map")
    m = np.arctan2(np.sqrt(sb), np.abs(yn))
    mx = _abs_max(yb)
    safe = mx > 0.0
    scale = np.where(safe, m / np.where(safe, mx, 1.0), 0.0)
    for i, c in enumerate(yb[1:], 1):
        np.multiply(c, scale, out=out[:, i])
    p1 = yb[0] * scale
    # the second box is open: a row below the equator whose chart max-norm,
    # mx * scale, rounds to pi/2 is an equator point and keeps the first box
    second = yn < 0.0
    second &= mx * scale < HALF_PI
    np.subtract(np.pi, p1, out=p1, where=second)
    out[:, 0] = p1
    out[:, -1] = np.log(r)


def zorich_inverse_batch(y):
    """Canonical fundamental-set coordinates of y != 0.

    The colatitude comes from arctan2 of the transverse/axial parts (stable
    at both the poles and the equator, unlike arccos of the axial cosine).
    A row whose |y| is 0, or underflows to 0, raises ``OriginError``.
    """
    a, single = _as_batch(y)
    out = np.empty(a.shape)
    _each_strip(len(a), lambda s: _zorich_inverse_rows(a[s], out[s]))
    return out[0] if single else out


def _canonicalize_rows(a, out):
    p, odd = _fold_chart(a[:, :-1].T)
    # odd parity flips the image hemisphere: represent in the second box,
    # except on the equator preimage (max |p_i| = pi/2) where both agree
    # and the convention assigns the first box.
    odd &= _abs_max(p) < HALF_PI
    np.subtract(np.pi, p[0], out=p[0], where=odd)
    for i, c in enumerate(p):
        out[:, i] = c
    out[:, -1] = a[:, -1]


def canonicalize_batch(x):
    """Canonical fundamental-set representative of arbitrary coordinates."""
    a, single = _as_batch(x)
    out = np.empty(a.shape)
    _each_strip(len(a), lambda s: _canonicalize_rows(a[s], out[s]))
    return out[0] if single else out


def _spiral_u_rows(a, out, K, alpha):
    xb, xn = a.T[:-1], a[:, -1]
    phase = alpha * xn
    w = _rotated_cols(xb, np.cos(phase), np.sin(phase))
    m = _abs_max(xb)
    # a zero chart block, the fixed pole, makes both quotients 0/0: it takes
    # the continuous extension (0, ..., 0, x_n), and every other row the formula
    d = _abs_max(w)
    scale = np.where(d > 0.0, m / np.where(d > 0.0, d, 1.0), 0.0)
    x1 = xb[0]
    sin2m = np.sin(m) ** 2
    rho2 = _sum_sq(xb)
    safe = rho2 > 0.0
    ssq = np.where(safe, x1 * x1 * sin2m / np.where(safe, rho2, 1.0), 0.0)
    g = K * K + (1.0 - K * K) * ssq
    for i, c in enumerate(w):
        np.multiply(c, scale, out=out[:, i])
    out[:, -1] = np.where(safe, xn + np.log(K) - 0.5 * np.log(g), xn)


def spiral_u_batch(x, K, alpha):
    """Log-coordinate spiral stretch: first-box chart coordinates only.

    The chart part is M * m * (A, B, x_3, ..., x_{n-1}) with M the max-norm,
    m the reciprocal of the largest candidate magnitude, and (A, B) the
    (x_1, x_2) pair rotated by alpha * x_n; the last coordinate gains the log
    of the direction-dependent stretch factor.  The pole, a zero chart block,
    is fixed: (0, ..., 0, x_n) maps to itself.
    """
    a, single = _as_batch(x)
    out = np.empty(a.shape)
    K, alpha = float(K), float(alpha)
    _each_strip(len(a), lambda s: _spiral_u_rows(a[s], out[s], K, alpha))
    return out[0] if single else out


def _spiral_ssq(xb):
    """Max-norm coordinate, s^2 = x_1^2 sin^2(x_p) / |x_b|^2 and its gradient.

    xb holds the n-1 chart columns of m points.  Returns (p, x_p, s^2, ds):
    the index and value of each point's max-norm coordinate, s^2 as (m,) and
    its gradient in x_b as (n-1, m) rows.  s^2 is the squared first
    coordinate of the chart image of xb; the spiral stretch's log factor is
    -ln(K^2 + (1 - K^2) s^2) / 2 plus ln K.
    """
    p = _argmax_abs(xb)
    xp = _pick(xb, p)
    x1 = xb[0]
    rho2 = _sum_sq(xb)
    sinp = np.sin(xp)
    sin2p = np.sin(2.0 * xp)
    ssq = x1 * x1 * sinp * sinp / rho2
    ds = np.empty((len(xb), len(x1)))
    t = -2.0 * ssq
    for d, c in zip(ds, xb):
        np.multiply(t, c, out=d)
        d /= rho2
    ds[0] += 2.0 * x1 * sinp * sinp / rho2
    t = x1 * x1 * sin2p / rho2
    for i, d in enumerate(ds):
        d += _only_where(p == i, t)
    return p, xp, ssq, ds


def _spiral_chart_terms(xb, K):
    """The phase-free part of the spiral Jacobian at chart points.

    xb is the chart block as (n-1, m) coordinate vectors.  Returns
    (p, x_p, sign(x_p), last): the index and value of each point's max-norm
    coordinate, its sign, and the Jacobian's last row (coef(K) grad(s^2), 1)
    as an (n, m) array of entry vectors, with coef(K) = (K^2 - 1) / (2 g) and
    g = K^2 + (1 - K^2) s^2.
    """
    p, xp, ssq, ds = _spiral_ssq(xb)
    g = K * K + (1.0 - K * K) * ssq
    coef = -(1.0 - K * K) / (2.0 * g)
    last = np.empty((len(xb) + 1, len(xp)))
    np.multiply(coef, ds, out=last[:-1])
    last[-1] = 1.0
    return p, xp, np.sign(xp), last


def _spiral_jac_assemble(xb, c, s, alpha, p, xp, sign_p, last, out=None):
    """Spiral Jacobians as an (n, n, *shape) array: entry (i, j) of every
    point is one contiguous array, so for a flat shape (m,)
    ``jac.transpose(2, 0, 1)`` is the (m, n, n) stack.  The entries are
    written to `out` when it is given.

    The operands broadcast against each other, and `shape` is their
    ``np.broadcast_shapes``: xb is the chart block as n-1 coordinate arrays,
    c and s the cos and sin of each point's phase alpha * x_n, and
    (p, xp, sign_p, last) its ``_spiral_chart_terms``, with `last` as n
    arrays.  So chart terms of shape (1, k) and phases of shape (P, 1) give
    the (P, k) grid of their pairs without copying a term to every pair.
    With w the (1,2)-rotated chart block, d = w_q its max-norm coordinate
    and dw = dw/dx the rotation's derivative (dd its row q), chart row i is
    ((x_p dw_i) / d - u_i dd + w_i / d e_p) times sign(x_p) sign(d),
    u_i = (x_p w_i / d) / d.  Only the structural nonzeros of dw are formed:
    its first two rows, (c, -s, 0.., -alpha w_2) and (s, c, 0.., alpha w_1),
    and the unit rows e_k beyond them.
    """
    nb = len(xb)
    shape = np.broadcast_shapes(np.shape(xb[0]), np.shape(c), np.shape(s), np.shape(xp))
    w = np.empty((nb, *shape))
    w[0], w[1] = _rotate_pair(xb[0], xb[1], c, s)
    w[2:] = xb[2:]
    q = _argmax_abs(w)
    dval = _pick(w, q)
    sign = sign_p * np.sign(dval)
    w_over_d = w / dval
    u = xp * w_over_d / dval

    # dw's first two rows on their nonzero columns 0, 1 and n-1
    rot = ((c, -s, -alpha * w[1]), (s, c, alpha * w[0]))
    dd = np.zeros((nb + 1, *shape))
    for j, a, b in zip((0, 1, nb), *rot):
        dd[j] = _pick((a, b, *[0.0] * (nb - 2)), q)
    for k in range(2, nb):
        dd[k] = q == k

    jac = np.empty((nb + 1, nb + 1, *shape)) if out is None else out
    top = jac[:nb]
    np.multiply(-u[:, None], dd, out=top)
    for i, row in enumerate(rot):
        for j, v in zip((0, 1, nb), row):
            top[i, j] += xp * v / dval
    for k in range(2, nb):
        top[k, k] += xp / dval
    for j in range(nb):
        top[:, j] += _only_where(p == j, w_over_d)
    top *= sign
    jac[nb] = last
    return jac


# c in the rounding bound c n eps prod_i |row_i|_1 of ``_laplace_det``
_LAPLACE_C = 8.0


def _laplace_det(jac):
    """Determinants of an (n, n, *shape) entry array with a bound on their
    rounding, both of the given shape.

    Laplace expansion from the bottom row up: every k x k minor of the last
    k rows is formed from the (k-1)-minors of the rows below, along its top
    row, so the table takes n 2^{n-1} products of contiguous entry arrays
    and holds at most C(n, n/2) minors per level; no matrix is transposed,
    copied or passed to LAPACK.

    Returns (det, bound).  bound = c n eps prod_i |row_i|_1, c = _LAPLACE_C:
    the product of the row 1-norms is at least the permanent of |J|, which
    bounds each expanded term, so it bounds the rounding of the Laplace sum
    (at most about (n + 1)/4 n eps times the permanent for this order).
    c = 8 leaves room for LAPACK's own rounding as well, so that the bound
    also covers the difference to ``np.linalg.det``.
    """
    n = jac.shape[0]
    minors = {(j,): jac[n - 1, j] for j in range(n)}
    term = np.empty(jac.shape[2:])
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


def _spiral_jac_rows(a, out, K, alpha):
    nb = a.shape[1] - 1
    phase = alpha * a[:, nb]
    xb = np.ascontiguousarray(a[:, :nb].T)
    _spiral_jac_assemble(
        xb, np.cos(phase), np.sin(phase), alpha, *_spiral_chart_terms(xb, K), out=out
    )


def spiral_jac_batch(x, K, alpha):
    """Analytic Jacobian of the spiral-stretch log-coordinate map, (m, n, n).

    Valid away from the max-coordinate (pyramid) and candidate-switching
    surfaces; region dispatch is by argmax, so callers must enforce margins.
    The phase-free terms come from ``_spiral_chart_terms`` and the entries
    from ``_spiral_jac_assemble``; the result is a transposed view of its
    (n, n, m) array.
    """
    a, single = _as_batch(x)
    n = a.shape[1]
    jac = np.empty((n, n, len(a)))
    K, alpha = float(K), float(alpha)
    _each_strip(len(a), lambda s: _spiral_jac_rows(a[s], jac[:, :, s], K, alpha))
    jac = jac.transpose(2, 0, 1)
    return jac[0] if single else jac


def _spiral_region_rows(x, out, alpha):
    xb = x.T[:-1]
    phase = alpha * x[:, -1]
    w = _rotated_cols(xb, np.cos(phase), np.sin(phase))
    absx = [np.abs(c) for c in xb]
    p, q, pyr, switch = out
    p[:] = _argmax_abs(xb)
    q[:] = _argmax_abs(w)
    pyr[:] = _max_and_gap(absx)[1]
    switch[:] = _max_and_gap([np.abs(w[0]), np.abs(w[1]), *absx[2:]])[1]


def spiral_region_batch(x, alpha):
    """Region classification: (max index, candidate index, both margins).

    Always returns length-m arrays; a single point gives length-1 arrays.
    """
    a, _ = _as_batch(x)
    m = len(a)
    out = (np.empty(m, np.intp), np.empty(m, np.intp), np.empty(m), np.empty(m))
    alpha = float(alpha)
    _each_strip(m, lambda s: _spiral_region_rows(a[s], [o[s] for o in out], alpha))
    return out
