"""One benchmark worker process: set up, run ops, time and check them.

Usage: python3 perfbench/worker.py SPEC_JSON

SPEC_JSON is a file naming the workload, seed, ops, pass count, trace flag,
work directory, result path and (when traced) the directory for the spans.  The worker imports ``qcmaps`` from the
checkout's ``src``, makes its inputs (set-up ends there), then runs each op
with a timer around the call alone: ``cli.main(argv)`` for a CLI op, the
library call for a bulk op.  An untraced worker samples the host speed
throughout (see ``hostspeed.py``) and takes the samples' time out of the op
and set-up times.  Each output is then checked against the reference digest
or the seed-independent invariants.  The result JSON holds the set-up end
time, per-op times with their mean sample time, check outcomes, peak RSS, the
kernel backend and, when traced, the span summary.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import check  # noqa: E402
import hostspeed  # noqa: E402
import ops  # noqa: E402


def _load_reference(path, op):
    with open(Path(path) / f"{op}.json") as fh:
        return json.load(fh)


def _timed(sampler, call):
    """Run ``call`` between two host-speed samples.

    Returns (value, seconds, mean sample): ``seconds`` is the call's time less
    the samples the SIGALRM handler took during it, and the mean covers the
    samples before, during and just after the call.
    """
    i = len(sampler.samples)
    sampler.sample()
    t0 = time.perf_counter()
    value = call()
    t1 = time.perf_counter()
    sampler.sample()
    return value, t1 - t0 - sum(sampler.since(i, t0, t1)), statistics.fmean(sampler.since(i))


def _cli_op(cli, op, targets, work, sampler):
    """Run one CLI op; returns (seconds, mean sample, exit code, outputs, output bytes)."""
    out = str(Path(work) / op)
    argv = ops.cli_argv(op, targets, out)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code, dt, cal = _timed(sampler, lambda: cli.main(argv))
    text = buf.getvalue()
    files = {}
    if not op.startswith("verify."):
        suffix = ".orbit.csv" if op.startswith("realize.") else ".probe.csv"
        files = {"summary": out + ".summary.json", "csv": out + suffix}
    size = len(text.encode()) + sum(os.path.getsize(p) for p in files.values())
    return dt, cal, code, {"stdout": text, **files}, size


def _points(op, out):
    """Report checks of a verify op, data rows of a realize or probe CSV."""
    if op.startswith("verify."):
        return len(json.loads(out["stdout"])["checks"])
    with open(out["csv"]) as fh:
        return sum(1 for _ in fh) - 1


def _check(op, out, spec):
    if spec.get("write_reference"):
        path = Path(spec["reference"]) / f"{op}.json"
        path.write_text(json.dumps(check.digest(op, out), indent=1) + "\n")
        return None
    if spec["seed"] == ops.REFERENCE_SEED or op.startswith(check.SEED_FREE):
        return check.compare(check.digest(op, out), _load_reference(spec["reference"], op))
    return check.invariants(op, out)


def run(spec):
    sampler = hostspeed.Sampler(ops.SAMPLE_KIND[spec["workload"]])
    if not spec["trace"]:
        sampler.start()
    try:
        return _run(spec, sampler)
    finally:
        sampler.stop()


def _run(spec, sampler):
    import qcmaps
    from qcmaps import cli, kernels

    if Path(qcmaps.__file__).resolve().parent != ROOT / "src" / "qcmaps":
        raise RuntimeError(f"qcmaps imported from {qcmaps.__file__}, not this checkout")
    work = spec["work"]
    seed = spec["seed"]
    if spec["workload"] == "bulk":
        calls = ops.bulk_setup(seed, qcmaps)
    else:
        targets = ops.write_targets(seed, work)
    ready = time.perf_counter()
    for _ in range(3):
        sampler.sample()
    setup_hidden = sum(sampler.since(0, 0.0, ready))
    setup_cal = statistics.fmean(sampler.since(0))

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(qcmaps)

    results = []
    for p in range(spec["passes"]):
        for op in spec["ops"]:
            rec = {"op": op, "pass": p, "s": None, "cal": None, "error": None,
                   "bytes": 0, "points": 0}
            if tracer:
                tracer.op = len(results)
            try:
                if spec["workload"] == "bulk":
                    value, rec["s"], rec["cal"] = _timed(sampler, calls[op])
                    out = {"value": value}
                else:
                    rec["s"], rec["cal"], code, out, rec["bytes"] = _cli_op(
                        cli, op, targets, work, sampler
                    )
                    if code != 0:
                        rec["error"] = f"exit code {code}"
                    else:
                        rec["points"] = _points(op, out)
                if tracer:
                    tracer.op = -1
                if rec["error"] is None:
                    rec["error"] = _check(op, out, spec)
            except Exception:  # an op that raises counts as failed
                rec["error"] = traceback.format_exc(limit=3)
            finally:
                if tracer:
                    tracer.op = -1
            results.append(rec)

    result = {
        "ready": ready,
        "setup_hidden": setup_hidden,
        "setup_cal": setup_cal,
        "ops": results,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "backend": "numba" if getattr(kernels, "NUMBA_ACTIVE", False) else "numpy",
    }
    if tracer:
        result["trace"] = tracer.summarize()
        tracer.save(Path(spec["spans"]) / f"spans-{spec['workload']}-{spec['ops'][0]}.npz")
    return result


def main():
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    result = run(spec)
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
