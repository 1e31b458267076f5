"""Layered benchmark of qcmaps: end-to-end times per workload, traced per-layer numbers.

Usage (from the repository root):

    python3 perfbench/run.py --workload {verify,realize,bulk} --seed N \
        --seconds S --trace {0,1}

Workers run one at a time, each a fresh ``python3 perfbench/worker.py``
process (one per CLI command, one per bulk set-up and its passes), so
per-process state such as the spiral-rate cache starts cold, as it does for a
CLI user.  Workers cycle through the workload's op list until S seconds have
passed; at least one full pass runs.

``--trace 0`` reports the end-to-end metrics, every time scaled to a
reference host speed (see ``hostspeed.py``); ``--trace 1`` runs each worker
untraced and then traced and reports the per-layer metrics, in raw seconds,
from the traced ones.  Every op's output is checked (see ``check.py``).  The
last stdout line is one JSON object: correct, attempted, failed, metrics.
The line before it holds the run metadata, which is also saved with every
metric under ``perfbench/out/``.  See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import ops  # noqa: E402
from ops import KERNELS  # noqa: E402
from tracing import LAYERS  # noqa: E402

BULK_PASSES = 3  # passes per bulk worker, after its one set-up
WORKER_TIMEOUT_S = 120


class BenchError(RuntimeError):
    pass


def host_sample(kind, reps=5):
    """Median time of five host-speed samples: host speed at this moment."""
    sampler = hostspeed.Sampler(kind)
    for _ in range(reps):
        sampler.sample()
    return statistics.median(sampler.since(0))


def _read(path, default="unknown"):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return default


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=20,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def metadata(args):
    model = "unknown"
    for line in _read("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "llc": _read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset (OpenBLAS default)"),
        "git_commit": _git_commit(),
    }


class Runner:
    """Spawns workers one at a time and keeps their results."""

    def __init__(self, args, work):
        self.args = args
        self.work = work
        self.count = 0
        if args.workload == "bulk":
            # One worker: one set-up, then BULK_PASSES passes over the op list.
            self.units, self.passes = [list(ops.BULK_OPS)], BULK_PASSES
        else:
            # One worker per CLI command, as a CLI user runs it.
            self.units, self.passes = [[op] for op in ops.WORKLOADS[args.workload]], 1

    def worker(self, op_list, trace):
        self.count += 1
        spec_path = self.work / f"spec-{self.count}.json"
        result_path = self.work / f"result-{self.count}.json"
        spec = {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "ops": list(op_list),
            "passes": self.passes,
            "trace": trace,
            "work": str(self.work),
            "reference": str(HERE / "reference"),
            "result": str(result_path),
            "spans": str(self.work.parent),
        }
        spec_path.write_text(json.dumps(spec))
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec_path)],
                cwd=ROOT, stdout=subprocess.DEVNULL, timeout=WORKER_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker for {op_list[0]} timed out") from exc
        if proc.returncode != 0 or not result_path.exists():
            raise BenchError(f"worker for {op_list[0]} exited with code {proc.returncode}")
        res = json.loads(result_path.read_text())
        res["setup_s"] = res["ready"] - t0 - res["setup_hidden"]
        return res

    def run(self, seconds, trace):
        """Workers in op-list order, cycling, until ``seconds`` have passed.

        At least one full pass runs.  Untraced runs stop at the first worker
        boundary after the deadline; traced runs run each worker untraced and
        then traced, and stop at a pass boundary so every op is traced equally
        often.  Returns (untraced workers, traced workers).
        """
        deadline = time.perf_counter() + seconds
        untraced, traced = [], []
        i = 0
        while True:
            unit = self.units[i % len(self.units)]
            untraced.append(self.worker(unit, trace=False))
            if trace:
                traced.append(self.worker(unit, trace=True))
            i += 1
            full = i >= len(self.units) and (not trace or i % len(self.units) == 0)
            if full and time.perf_counter() >= deadline:
                return untraced, traced


def op_times(workers, kind=None):
    """{op: [time]} over the workers' records, scaled by ``kind`` samples if given."""
    out = {}
    for w in workers:
        for r in w["ops"]:
            if r["s"] is not None:
                s = r["s"] if kind is None else hostspeed.scaled(r["s"], r["cal"], kind)
                out.setdefault(r["op"], []).append(s)
    return out


def pass_time(times):
    """Time of one pass over the op list: the sum of the per-op medians."""
    return sum(statistics.median(v) for v in times.values())


def end_to_end(workers, points, kind):
    """End-to-end metrics, every time scaled to the reference host speed."""
    times = op_times(workers, kind)
    wall = pass_time(times)
    setup = [hostspeed.scaled(w["setup_s"], w["setup_cal"], kind) for w in workers]
    return {
        "wall_s": (wall, "s"),
        "slowest_op_s": (max(statistics.median(v) for v in times.values()), "s"),
        "points_per_s": (points / wall, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(w["rss_mb"] for w in workers), "MB"),
    }


def points_per_pass(workload, workers):
    """Points one pass processes: bulk input rows, CLI output rows or checks."""
    if workload == "bulk":
        return ops.bulk_rows()
    points = {}
    for w in workers:
        for r in w["ops"]:
            points[r["op"]] = max(points.get(r["op"], 0), r["points"])
    return sum(points.values())


def per_layer(traced, untraced, n_ops):
    """Per-layer metrics, per traced pass, from the traced workers' spans."""
    by_name, roots, out_bytes = {}, {}, 0.0
    npass = sum(len(w["ops"]) for w in traced) / n_ops
    for w in traced:
        for name, sums in w["trace"]["by_name"].items():
            acc = by_name.setdefault(name, dict.fromkeys(sums, 0.0))
            for key, v in sums.items():
                acc[key] += v
        for op_idx, _, dur in w["trace"]["roots"]:
            op = w["ops"][op_idx]["op"]
            roots[op] = roots.get(op, 0.0) + dur
        out_bytes += sum(r["bytes"] for r in w["ops"])

    def g(name, key):
        return by_name.get(name, {}).get(key, 0.0) / npass

    m = {}
    k_calls = k_rows = k_self = k_bytes = 0.0
    for k in KERNELS:
        name = f"kernels.{k}"
        m[f"{name}.calls"] = (g(name, "calls"), "count")
        m[f"{name}.rows"] = (g(name, "rows"), "rows")
        m[f"{name}.self_s"] = (g(name, "self_s"), "s")
        k_calls += g(name, "calls")
        k_rows += g(name, "rows")
        k_self += g(name, "self_s")
        k_bytes += g(name, "bytes")
    m["kernels.calls"] = (k_calls, "count")
    m["kernels.rows_per_call"] = (k_rows / k_calls if k_calls else 0.0, "rows/call")
    m["kernels.ns_per_row"] = (1e9 * k_self / k_rows if k_rows else 0.0, "ns/row")
    m["kernels.bytes_computed"] = (k_bytes, "bytes")
    m["kernels.bytes_per_row"] = (k_bytes / k_rows if k_rows else 0.0, "bytes/row")

    m["zorich.zorich_forward.calls"] = (g("zorich.zorich_forward", "calls"), "count")
    m["zorich.zorich_forward.self_s"] = (g("zorich.zorich_forward", "self_s"), "s")
    m["zorich.composition_residual.s"] = (g("zorich.composition_residual", "s"), "s")
    m["zorich.quotient_distance_batch.self_s"] = (g("zorich.quotient_distance_batch", "self_s"), "s")

    sa = "canonical_maps.select_alpha"
    calls, misses = g(sa, "calls"), g(sa, "with_children")
    m[f"{sa}.calls"] = (calls, "count")
    m[f"{sa}.misses"] = (misses, "count")
    m[f"{sa}.hit_ratio"] = ((calls - misses) / calls if calls else 0.0, "ratio")
    m[f"{sa}.s"] = (g(sa, "s"), "s")
    scan = "canonical_maps.spiral_jacobian_scan"
    m[f"{scan}.calls"] = (g(scan, "calls"), "count")
    m[f"{scan}.rows"] = (g(scan, "jac_rows"), "rows")
    m[f"{scan}.self_s"] = (g(scan, "self_s"), "s")
    for fn in ("stretch_shift_batch", "interp_shift_batch", "spiral_transform_jacobian_analytic"):
        m[f"canonical_maps.{fn}.calls"] = (g(f"canonical_maps.{fn}", "calls"), "count")

    for fn in ("finite_diff_jacobian", "linear_distortion_numeric"):
        m[f"distortion.{fn}.calls"] = (g(f"distortion.{fn}", "calls"), "count")
        m[f"distortion.{fn}.self_s"] = (g(f"distortion.{fn}", "self_s"), "s")
    # No CLI command calls these yet; their counts read 0 on every workload.
    for name in ("distortion.distortion_report", "distortion.grid_verify",
                 "vecgeom.svd_small", "vecgeom.svd_small_full"):
        m[f"{name}.calls"] = (g(name, "calls"), "count")
    m["vecgeom.sphere_directions.calls"] = (g("vecgeom.sphere_directions", "calls"), "count")

    for fn in ("plan_paths", "build_map", "orbit_table"):
        m[f"realizer.{fn}.s"] = (g(f"realizer.{fn}", "s"), "s")
    for fn in ("eval_map_batch", "mean_radius_batch"):
        m[f"realizer.{fn}.calls"] = (g(f"realizer.{fn}", "calls"), "count")
        m[f"realizer.{fn}.rows"] = (g(f"realizer.{fn}", "rows"), "rows")
        m[f"realizer.{fn}.self_s"] = (g(f"realizer.{fn}", "self_s"), "s")
    m["realizer.rescaled_map.calls"] = (g("realizer.rescaled_map", "calls"), "count")
    hd = "realizer.hausdorff_distance"
    m[f"{hd}.calls"] = (g(hd, "calls"), "count")
    m[f"{hd}.pairs"] = (g(hd, "rows"), "pairs")
    m[f"{hd}.self_s"] = (g(hd, "self_s"), "s")

    for op in ops.VERIFY_OPS + ops.REALIZE_OPS:
        m[f"cli.{op}.s"] = (roots.get(op, 0.0) / npass, "s")
    run_s = sum(g(f"cli.{fn}", "s") for fn in ("run_verify", "run_realize", "run_probe"))
    m["cli.io_s"] = (g("cli.main", "s") - run_s, "s")
    m["cli.output_bytes"] = (out_bytes / npass, "bytes")

    for layer in LAYERS:
        total = sum(v["self_s"] for n, v in by_name.items() if n.startswith(layer + "."))
        m[f"{layer}.self_s"] = (total / npass, "s")
    m["trace.op_s"] = (sum(roots.values()) / npass, "s")
    m["trace.spans"] = (sum(w["trace"]["spans"] for w in traced) / npass, "count")
    m["trace.overhead_s"] = (pass_time(op_times(traced)) - pass_time(op_times(untraced)), "s")
    return m


def layers_add_up(m):
    """The layer self times must account for the traced op time."""
    total = sum(m[f"{layer}.self_s"][0] for layer in LAYERS)
    return abs(total - m["trace.op_s"][0]) <= 1e-9 + 1e-9 * m["trace.op_s"][0]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(ops.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Turn SIGTERM into an exception, so the running worker is killed and
    # reaped (subprocess.run does both on any exception) and work/ is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "qcmaps" / "__init__.py").is_file():
        print(f"error: no qcmaps sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    meta = metadata(args)
    kind = ops.SAMPLE_KIND[args.workload]
    meta["sample_kind"] = kind
    meta["sample_start_s"] = host_sample(kind)
    try:
        untraced, traced = Runner(args, work).run(args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    meta["sample_end_s"] = host_sample(kind)

    records = [r for w in untraced + traced for r in w["ops"]]
    failed = [r for r in records if r["error"]]
    for r in failed[:5]:
        print(f"failed {r['op']} (pass {r['pass']}): {r['error']}", file=sys.stderr)
    if all(r["s"] is None for r in records):
        print("error: no op completed, nothing to measure", file=sys.stderr)
        return 1
    meta["backend"] = untraced[0]["backend"]
    meta["failed_frac"] = len(failed) / len(records)
    meta["workers"] = {"untraced": len(untraced), "traced": len(traced)}
    meta["raw_wall_s"] = pass_time(op_times(untraced))
    meta["raw_setup_s"] = statistics.median(w["setup_s"] for w in untraced)
    meta["sample_s"] = statistics.median(r["cal"] for r in records if r["cal"] is not None)

    if args.trace:
        metrics = per_layer(traced, untraced, len(ops.WORKLOADS[args.workload]))
        correct = not failed and layers_add_up(metrics)
    else:
        metrics = end_to_end(untraced, points_per_pass(args.workload, untraced), kind)
        correct = not failed
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }
    saved = dict(
        result, meta=meta,
        op_times=[(r["op"], r["pass"], r["s"], r["cal"]) for r in records],
    )
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(saved, indent=1)
    )
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
