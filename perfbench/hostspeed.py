"""Host-speed sampling, and the scaling of op times to a reference host speed.

The measuring host is a shared machine.  A fixed loop, in one process, runs
at two speeds about 1.8x apart, switching between them within a second or so
as other tenants load the cores behind the vCPUs; the share of time spent
slow drifts over minutes.  CPU time tracks wall time, so the loss is slower
execution, not waiting.  A raw op time therefore says as much about the
neighbours as about qcmaps: the same multi-second command varies by 15-25%
(standard deviation of its log) from one fresh process to the next.

A ``Sampler`` times a short fixed loop (a *sample*) just before and just
after every op and, from a SIGALRM handler, every ``INTERVAL_S`` while the op
runs, so the samples see the host as the op saw it.  The worker subtracts the
handler's time from the op timer and reports the mean sample time beside the
op time; ``scaled`` turns the pair into seconds at the host speed at which one
sample takes ``REF_S[kind]``.  Scaled this way, the same command varies by
2-5% between processes.  The loops never change and call nothing in qcmaps,
so a change to qcmaps moves a scaled time by the same factor as it moves the
raw time on a steady host (up to the loop's own sensitivity to the caches the
op leaves behind, a few per cent at most).
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.1

# One sample's time on the reference host (Intel Xeon, 2 vCPUs, Python 3.11,
# numpy 2.4) in its fast state.
REF_S = {"interp": 0.0016, "vector": 0.0012}

_SMALL = np.arange(3.0)
_EYE = np.eye(3)
_WIDE = np.random.default_rng(0).standard_normal(8000)


def _interp():
    """Interpreter-bound work with 3-vectors, like the per-point CLI loops."""
    s = 0.0
    for i in range(250):
        w = _SMALL * (i % 5) + 1.0
        s += float(np.sqrt((w * w).sum())) + (_EYE @ w)[0]
        s += sum(j * 0.5 for j in range(8))
    return s


def _vector():
    """Whole-array ufuncs on cache-resident arrays, like the vectorised ops."""
    s = 0.0
    for _ in range(12):
        y = np.sin(_WIDE)
        y *= _WIDE
        y += 1.0
        s += float(np.sqrt(np.abs(y)).sum())
    return s


LOOPS = {"interp": _interp, "vector": _vector}


class Sampler:
    """Times the ``kind`` loop on demand and, once started, every INTERVAL_S."""

    def __init__(self, kind):
        self.loop = LOOPS[kind]
        self.samples = []  # (start, seconds)
        self.busy = False
        self.loop()  # the first call warms up and is not timed

    def sample(self, *_):
        if self.busy:  # the timer fired during a sample: skip it, do not nest
            return
        self.busy = True
        try:
            t0 = time.perf_counter()
            self.loop()
            self.samples.append((t0, time.perf_counter() - t0))
        finally:
            self.busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def since(self, i, t0=None, t1=None):
        """Sample times from index ``i`` on; only those started in [t0, t1) if given."""
        return [d for s, d in self.samples[i:] if t0 is None or t0 <= s < t1]


def scaled(seconds, sample_s, kind):
    """``seconds`` measured while a sample took ``sample_s``, at reference speed."""
    return seconds * REF_S[kind] / sample_s
