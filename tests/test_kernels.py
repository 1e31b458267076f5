import warnings

import numpy as np
import pytest

from qcmaps import kernels
from qcmaps.errors import InvalidInputError, OriginError

# every public kernel, as a function of its points alone
PUBLIC_KERNELS = {
    "zorich_forward_batch": kernels.zorich_forward_batch,
    "zorich_inverse_batch": kernels.zorich_inverse_batch,
    "canonicalize_batch": kernels.canonicalize_batch,
    "spiral_u_batch": lambda x: kernels.spiral_u_batch(x, 2.0, 0.25),
    "spiral_jac_batch": lambda x: kernels.spiral_jac_batch(x, 2.0, 0.25),
    "spiral_region_batch": lambda x: kernels.spiral_region_batch(x, 0.25),
}


@pytest.mark.parametrize(
    "bad",
    [np.ones((2, 2)), np.ones(2), np.ones((2, 2, 3)), np.empty((0, 3)), np.empty(0), 1.0],
    ids=["n-2-batch", "n-2-point", "ndim-3", "empty-batch", "empty-point", "scalar"],
)
@pytest.mark.parametrize("name", PUBLIC_KERNELS)
def test_malformed_shapes_rejected(name, bad):
    # without the check, a (2, 2) batch gave values silently
    with pytest.raises(InvalidInputError):
        PUBLIC_KERNELS[name](bad)


def test_region_single_point_gives_length_one_arrays():
    x = np.array([0.3, -0.2, 0.7])
    for single, batch in zip(kernels.spiral_region_batch(x, 0.25),
                             kernels.spiral_region_batch(x[None, :], 0.25)):
        assert single.shape == (1,)
        assert np.array_equal(single, batch)


def test_fold_wraps_box_edge():
    # x_1 = 3pi/2 is the wrap seam: canonical representative sits at -pi/2
    out = kernels.canonicalize_batch(np.array([3 * np.pi / 2, 0.0, 0.0]))
    assert out[0] == pytest.approx(-np.pi / 2, abs=1e-15)


def test_single_point_wrappers():
    x = np.array([0.3, -0.2, 0.7])
    batch = kernels.zorich_forward_batch(x[None, :])
    single = kernels.zorich_forward_batch(x)
    assert single.shape == (3,)
    assert np.array_equal(batch[0], single)


@pytest.mark.parametrize("n", range(3, 10))
def test_batch_rows_match_single_points(n):
    # a batch's column views are strided by n entries, a single point's are
    # not; at n = 8 a masked np.negative on the strided last column misreads
    # its input, so masked writes go to contiguous vectors only
    rng = np.random.default_rng(n)
    x = rng.uniform(-6.0, 6.0, (64, n))
    box = np.clip(x, -1.5, 1.5)
    for f, a in ((kernels.zorich_forward_batch, x), (kernels.zorich_inverse_batch, x),
                 (kernels.canonicalize_batch, x),
                 (lambda v: kernels.spiral_u_batch(v, 2.0, 0.25), box)):
        batch = f(a)
        assert np.array_equal(batch, np.stack([f(row) for row in a]))


def test_max_and_gap_matches_sort():
    rng = np.random.default_rng(3)
    a = np.abs(rng.standard_normal((500, 5)))
    # exact ties: |x_1| = |x_2| at the top, a tie below the top, all equal
    a[:50, 1] = a[:50, 0] = a[:50].max(axis=1) + 1.0
    a[50:100, 3] = a[50:100, 4]
    a[100:110] = 0.7
    for cols in (2, 3, 5):
        top, gap = kernels._max_and_gap(a[:, :cols].T)
        s = np.sort(a[:, :cols], axis=1)
        assert np.array_equal(top, s[:, -1])
        assert np.array_equal(gap, s[:, -1] - s[:, -2])
    assert np.all(gap[:50] == 0.0) and np.all(gap[100:110] == 0.0)


def _tied_rows(n, seed):
    """Random rows of n coordinates, with ties among the largest |x_i|:
    (-a, a) pairs, rows of +-1 and +-0.0, rows of signed zeros only, and
    rows whose first and last |x_i| tie at the top."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3000, n)) * np.exp(rng.uniform(-4.0, 4.0, (3000, n)))
    x[:500, 1] = -x[:500, 0]
    x[500:1000] = rng.choice([-1.0, 1.0, -0.0, 0.0], (500, n))
    x[1000:1100] = rng.choice([-0.0, 0.0], (100, n))
    x[1100:1200, 0] = rng.choice([-1e6, 1e6], 100)
    x[1100:1200, -1] = -x[1100:1200, 0]
    return x


def _bits(a):
    return np.asarray(a).tobytes()


@pytest.mark.parametrize("n", range(2, 8))
def test_column_reductions_match_numpy(n):
    # bit for bit, signed zeros and ties included, up to 7 coordinates
    x = _tied_rows(n, n)
    cols = x.T
    assert _bits(kernels._abs_max(cols)) == _bits(np.max(np.abs(x), axis=1))
    p = kernels._argmax_abs(cols)
    assert np.array_equal(p, np.argmax(np.abs(x), axis=1))
    assert _bits(kernels._pick(cols, p)) == _bits(x[np.arange(len(x)), p])
    assert _bits(kernels._sum_sq(cols)) == _bits(np.sum(x * x, axis=1))
    assert _bits(np.sqrt(kernels._sum_sq(cols))) == _bits(np.linalg.norm(x, axis=1))


def test_only_where_adds_nothing_elsewhere():
    # -0.0 is the additive identity: +0.0 would turn the -0.0 entries to +0.0
    a = np.array([-0.0, 0.0, -0.0, 1.5])
    a += kernels._only_where(np.array([False, False, True, True]), np.array([7.0, 7.0, 0.0, -0.0]))
    assert _bits(a) == _bits([-0.0, 0.0, 0.0, 1.5])


def _fold_reference(xb):
    """The row-layout fold and parity, kept as the reference for the column
    ``_fold_chart``."""
    w = xb - kernels.TWO_PI * np.rint(xb / kernels.TWO_PI)
    hi = w > kernels.HALF_PI
    lo = w < -kernels.HALF_PI
    w = np.where(hi, np.pi - w, w)
    w = np.where(lo, -np.pi - w, w)
    return w, (hi.sum(axis=-1) + lo.sum(axis=-1)) % 2


@pytest.mark.parametrize("nb", [2, 3, 4])
def test_fold_chart_parity_on_cube_faces(nb):
    # coordinates on the faces |w| = pi/2, at their 2 pi translates, on the
    # fold seam pi and just beside the faces
    h = kernels.HALF_PI
    faces = [h, -h, 3 * h, -3 * h, 5 * h, np.pi, -np.pi, 0.0, -0.0,
             np.nextafter(h, 4.0), np.nextafter(-h, -4.0), np.nextafter(h, 0.0)]
    rng = np.random.default_rng(nb)
    xb = rng.choice(faces, (4000, nb))
    xb[:1000, 0] = rng.uniform(-9.0, 9.0, 1000)
    w, odd = kernels._fold_chart(xb.T)
    ref_w, ref_parity = _fold_reference(xb)
    assert _bits(np.stack(w, axis=1)) == _bits(ref_w)
    assert np.array_equal(odd, ref_parity == 1)
    assert odd.any() and not odd.all()


def _dense_spiral_jac(x, K, alpha):
    """The spiral Jacobian assembled from dense (m, n-1, n) dw and (m, n) dd,
    kept as the reference for the entry-wise ``spiral_jac_batch``."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    mpts, n = x.shape
    nb = n - 1
    xb = x[:, :nb]
    c = np.cos(alpha * x[:, nb])
    s = np.sin(alpha * x[:, nb])
    w = kernels._rotate_12(xb, c, s)
    p = np.argmax(np.abs(xb), axis=1)
    d = np.argmax(np.abs(w), axis=1)
    rows = np.arange(mpts)
    xp = xb[rows, p]
    dval = w[rows, d]
    sign = np.sign(xp) * np.sign(dval)
    dw = np.zeros((mpts, nb, n))
    dw[:, 0, 0] = c
    dw[:, 0, 1] = -s
    dw[:, 0, n - 1] = -alpha * w[:, 1]
    dw[:, 1, 0] = s
    dw[:, 1, 1] = c
    dw[:, 1, n - 1] = alpha * w[:, 0]
    for k in range(2, nb):
        dw[:, k, k] = 1.0
    dd = dw[rows, d, :]
    jac = np.zeros((mpts, n, n))
    w_over_d = w / dval[:, None]
    jac[:, :nb, :] = (
        xp[:, None, None] * dw / dval[:, None, None]
        - (xp[:, None] * w_over_d / dval[:, None])[:, :, None] * dd[:, None, :]
    )
    jac[rows, :nb, p] += w_over_d
    jac[:, :nb, :] *= sign[:, None, None]
    _, _, ssq, ds = kernels._spiral_ssq(xb.T)
    g = K * K + (1.0 - K * K) * ssq
    jac[:, n - 1, :nb] = (-(1.0 - K * K) / (2.0 * g))[:, None] * ds.T
    jac[:, n - 1, n - 1] = 1.0
    return jac


def _first_box_points(n, m, seed):
    rng = np.random.default_rng(seed)
    x = np.empty((m, n))
    x[:, :-1] = rng.uniform(-np.pi / 2, np.pi / 2, (m, n - 1))
    x[:, -1] = rng.uniform(-4.0, 4.0, m)
    return x


@pytest.mark.parametrize("K, alpha", [(2.0, 0.25), (2.0, 0.0), (2.0, -0.375), (1.0, 0.5), (12.0, -0.03125)])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_spiral_jac_matches_dense_assembly(n, K, alpha):
    # every entry, and so every LAPACK det, bit-equal to the dense assembly
    x = _first_box_points(n, 4000, n)
    got = kernels.spiral_jac_batch(x, K, alpha)
    ref = _dense_spiral_jac(x, K, alpha)
    assert got.shape == (4000, n, n)
    assert np.array_equal(got, ref)
    assert np.array_equal(np.linalg.det(got), np.linalg.det(ref))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_spiral_jac_single_point(n):
    x = _first_box_points(n, 1, 11)[0]
    got = kernels.spiral_jac_batch(x, 2.0, 0.25)
    ref = _dense_spiral_jac(x, 2.0, 0.25)[0]
    assert got.shape == (n, n)
    assert np.array_equal(got, ref)
    assert np.linalg.det(got) == np.linalg.det(ref)


def _entry_array(mats):
    """An (m, n, n) stack as the (n, n, m) entry array ``_laplace_det`` takes."""
    return np.ascontiguousarray(np.transpose(mats, (1, 2, 0)))


@pytest.mark.parametrize("K, alpha", [(1.0, 0.5), (2.0, -0.25), (12.0, 0.03125), (2.0, 0.0)])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_laplace_det_spiral_jacobians(n, K, alpha):
    # the bound covers the difference to LAPACK at least 10 times over
    jac = kernels.spiral_jac_batch(_first_box_points(n, 4000, 20 + n), K, alpha)
    det, bound = kernels._laplace_det(_entry_array(jac))
    assert det.shape == bound.shape == (4000,)
    assert np.all(np.abs(det - np.linalg.det(jac)) <= bound / 10.0)


def _scaled_and_near_singular(n, m, seed):
    """Random matrices with rows scaled by 10^{-8..8}, and matrices whose
    last row is a combination of the others plus a 1e-12 perturbation."""
    rng = np.random.default_rng(seed)
    scaled = rng.standard_normal((m, n, n)) * 10.0 ** rng.uniform(-8, 8, (m, n, 1))
    near = rng.standard_normal((m, n, n))
    near[:, -1] = np.einsum("mi,mij->mj", rng.standard_normal((m, n - 1)), near[:, :-1])
    near[:, -1] += 1e-12 * rng.standard_normal((m, n))
    return scaled, near


@pytest.mark.parametrize("n", [3, 4, 5])
def test_laplace_det_scaled_and_near_singular(n):
    for mats in _scaled_and_near_singular(n, 2000, n):
        det, bound = kernels._laplace_det(_entry_array(mats))
        assert np.all(np.abs(det - np.linalg.det(mats)) <= bound)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_laplace_det_row_swap(n):
    # swapping the last two rows negates every 2 x 2 minor of the table
    # exactly, and round-to-nearest is odd, so the whole expansion negates;
    # any other swap reorders the sums and negates within the bound
    mats = np.concatenate(_scaled_and_near_singular(n, 500, 10 + n))
    det, bound = kernels._laplace_det(_entry_array(mats))
    swapped = mats[:, [*range(n - 2), n - 1, n - 2]]
    assert np.array_equal(kernels._laplace_det(_entry_array(swapped))[0], -det)
    swapped = mats[:, [1, 0, *range(2, n)]]
    assert np.all(np.abs(kernels._laplace_det(_entry_array(swapped))[0] + det) <= 2 * bound)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_laplace_det_small_integers_exact(n):
    # products and sums of small integers are exact, so is the expansion
    mats = np.random.default_rng(n).integers(-9, 10, (3000, n, n)).astype(float)
    det, _ = kernels._laplace_det(_entry_array(mats))
    assert np.array_equal(det, np.rint(np.linalg.det(mats)))


def test_spiral_u_fixes_the_pole():
    # a zero chart block is the pole (0, ..., 0, x_n), which the spiral fixes
    # as spiral_stretch fixes the e_n axis; a block that underflows |x_b|^2
    # takes the same limit in its last coordinate.  Other rows are unchanged.
    x = _first_box_points(4, 60, 5)
    pole = np.zeros(60, dtype=bool)
    pole[::4] = True
    x[pole, :-1] = np.array([0.0, -0.0, 0.0])
    tiny = np.zeros(60, dtype=bool)
    tiny[2::8] = True
    x[tiny, :-1] = [1e-170, -3e-171, 2e-171]
    regular = ~(pole | tiny)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = kernels.spiral_u_batch(x, 2.0, 0.1)
        single = kernels.spiral_u_batch([0.0, 0.0, 1.0], 2.0, 0.1)
        alone = kernels.spiral_u_batch(x[regular], 2.0, 0.1)
    assert np.array_equal(single, [0.0, 0.0, 1.0])
    assert np.array_equal(out[pole], np.where(np.arange(4) < 3, 0.0, x[pole]))
    assert np.array_equal(out[tiny, -1], x[tiny, -1])
    assert np.all(np.isfinite(out[tiny])) and np.all(np.abs(out[tiny, :-1]) < 1e-169)
    assert np.array_equal(out[regular], alone)


def _kernel_outputs(name, x):
    """A public kernel's outputs on x, as a tuple of arrays."""
    out = PUBLIC_KERNELS[name](x)
    return out if name == "spiral_region_batch" else (out,)


def _assert_same_outputs(got, ref):
    for g, r in zip(got, ref, strict=True):
        assert g.dtype == r.dtype and g.shape == r.shape
        assert np.array_equal(g, r)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("name", PUBLIC_KERNELS)
def test_strips_match_one_pass(monkeypatch, name, n):
    # rows are independent, so any strip length gives the one-pass result bit
    # for bit: batches one short of a strip, one strip, one over, two and more
    strip = 5
    for rows in (strip - 1, strip, strip + 1, 2 * strip + 3):
        x = _first_box_points(n, rows, 100 * n + rows)
        monkeypatch.setattr(kernels, "_STRIP", 1 << 20)
        ref = _kernel_outputs(name, x)
        monkeypatch.setattr(kernels, "_STRIP", strip)
        _assert_same_outputs(_kernel_outputs(name, x), ref)
        # each row alone, the single-point path, is row k of the batch
        if name != "spiral_region_batch":
            for k in range(rows):
                assert np.array_equal(PUBLIC_KERNELS[name](x[k]), ref[0][k])


@pytest.mark.parametrize("name", PUBLIC_KERNELS)
def test_strips_match_one_pass_at_full_size(monkeypatch, name):
    x = _first_box_points(4, 2 * kernels._STRIP + 3, 9)
    got = _kernel_outputs(name, x)
    monkeypatch.setattr(kernels, "_STRIP", 1 << 20)
    _assert_same_outputs(got, _kernel_outputs(name, x))


def test_spiral_jac_strips_fill_one_entry_array(monkeypatch):
    # the (m, n, n) result stays a view of one (n, n, m) entry array
    monkeypatch.setattr(kernels, "_STRIP", 5)
    jac = kernels.spiral_jac_batch(_first_box_points(4, 13, 4), 2.0, 0.25)
    assert jac.shape == (13, 4, 4)
    assert jac.base is not None and jac.base.shape == (4, 4, 13)
    assert jac.transpose(1, 2, 0).flags.c_contiguous


def test_zorich_inverse_origin_in_last_strip(monkeypatch):
    monkeypatch.setattr(kernels, "_STRIP", 5)
    y = _first_box_points(3, 13, 8)
    y[12] = 0.0
    with pytest.raises(OriginError):
        kernels.zorich_inverse_batch(y)
