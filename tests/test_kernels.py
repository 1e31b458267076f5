import numpy as np
import pytest

from qcmaps import kernels


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
