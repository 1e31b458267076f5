"""The L1 maps on the strip runner of ``kernels``: every result equals the
one-pass result to the bit, at any thread count, and a bad batch raises the
error the whole-batch checks raise first.  The mean-radius quadrature runs
inline."""

import threading

import numpy as np
import pytest

from conftest import wavy_map
from qcmaps import kernels
from qcmaps import realizer as rz
from qcmaps.canonical_maps import (
    InterpSpec,
    SpiralSpec,
    StretchSpec,
    interp_stretch,
    oriented_stretch,
    spiral_stretch,
)
from qcmaps.errors import InvalidInputError, OriginError, OutsideShellError
from qcmaps.vecgeom import frame_from_direction

# thread counts of a call: inline, and with one and two helper threads
WORKERS = (1, 2, 3)


def _frame(n):
    """A frame that is not the identity, so the products mix coordinates."""
    sigma = np.random.default_rng(n).standard_normal(n)
    return frame_from_direction(sigma / np.linalg.norm(sigma))


def _maps(n):
    """The three y-space maps in R^n, as functions of their points alone."""
    frame = _frame(n)
    stretch = StretchSpec(K=2.0, frame=frame)
    interp = InterpSpec(K=2.0, L=3.0, s=-2.0, t=0.0, frame=frame)
    spiral = SpiralSpec(K=2.0, alpha=0.25, frame=frame)
    return {
        "oriented_stretch": lambda y: oriented_stretch(y, stretch),
        "interp_stretch": lambda y: interp_stretch(y, interp),
        "spiral_stretch": lambda y: spiral_stretch(y, spiral),
    }


def _shell_points(n, rows, seed):
    """Points with |y| log-uniform in [e^-2, 1], inside the interpolation
    shell of ``_maps``, so every map takes them."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((rows, n))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v * np.exp(rng.uniform(-2.0, 0.0, rows))[:, None]


@pytest.mark.parametrize("extra", [1, 2, 3])
@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("name", ["oriented_stretch", "interp_stretch", "spiral_stretch"])
def test_map_strips_match_one_pass(monkeypatch, name, n, extra):
    # at the real strip length, since the bits of a BLAS product depend on
    # its row count: two full strips and a tail of 1, 2 or 3 rows, where a
    # lone last row joins the strip before it
    y = _shell_points(n, 2 * kernels._STRIP + extra, 10 * n + extra)
    f = _maps(n)[name]
    got = []
    for workers in WORKERS:
        monkeypatch.setattr(kernels, "_WORKERS", workers)
        got.append(f(y))
    monkeypatch.setattr(kernels, "_STRIP", 1 << 20)
    ref = f(y)
    for g in got:
        assert g.shape == ref.shape and np.array_equal(g, ref)
    # a single point is a one-row strip
    assert np.array_equal(f(y[-1]), f(y[-1:])[0])


@pytest.mark.parametrize("name", ["oriented_stretch", "interp_stretch", "spiral_stretch"])
def test_map_checks_whole_batch_first(monkeypatch, name):
    # a zero row in the second strip and a row outside the interpolation
    # shell in the first raise the zero row's error, as the one-pass maps
    # do (finite, nonzero, inside the shell); a non-finite row in the last
    # strip comes before both
    y = _shell_points(3, 2 * kernels._STRIP + 3, 5)
    y[100] *= 10.0
    y[kernels._STRIP + 7] = 0.0
    f = _maps(3)[name]
    for workers in WORKERS:
        monkeypatch.setattr(kernels, "_WORKERS", workers)
        with pytest.raises(OriginError):
            f(y)
        bad = y.copy()
        bad[-1, 0] = np.nan
        with pytest.raises(InvalidInputError):
            f(bad)
    if name == "interp_stretch":
        y[kernels._STRIP + 7] = y[0]
        with pytest.raises(OutsideShellError):
            f(y)


def test_mean_radius_starts_no_thread(monkeypatch):
    # the orbit's 6000 interpolation radii make 750 quadrature blocks, which
    # run inline on the calling thread even with CPUs to spare, and give
    # each shell's result integrated alone
    monkeypatch.setattr(kernels, "_WORKERS", 3)

    def no_thread(*args, **kwargs):
        raise AssertionError("mean_radius_batch started a thread")

    monkeypatch.setattr(threading, "Thread", no_thread)
    rm = wavy_map()
    t = rz.default_orbit_times(rm)
    idx = rz._locate(rm, t)
    ref = np.empty_like(t)
    for code in np.unique(idx).tolist():
        sel = idx == code
        ref[sel] = rz.mean_radius_batch(rm, t[sel])
    interp = [k for k, p in enumerate(rm.pieces) if p.kind == "interp"]
    assert np.isin(idx, interp).sum() == 6000
    assert np.array_equal(rz.mean_radius_batch(rm, t), ref)
