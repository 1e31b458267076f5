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
