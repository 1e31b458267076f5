"""Output checks: digests compared against committed references, or invariants.

At the reference seed every op's output digest must match the committed one
in ``reference/``: strings, booleans, pass/fail flags and shapes exactly, and
every number within ``|a - b| <= ABS_TOL + REL_TOL * |b|``.  Worst points are
numbers too, so a different worst point fails.  The tolerance admits a batched
or reordered implementation of the same arithmetic (ROADMAP item 3 keeps worst
values within 1e-12) and nothing coarser.

The ``verify`` commands and ``probe.spiral`` do not depend on the seed, so
they are compared against the reference at every seed.  The other ops, at
other seeds, are held to seed-independent invariants instead.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

import ops

REL_TOL = 1e-9
ABS_TOL = 1e-12
SAMPLE_ROWS = 64  # rows kept verbatim from each CSV or array digest

SEED_FREE = ("verify.", "probe.spiral")


def compare(got, ref, path="$"):
    """First mismatch between two digests as a message, or None."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return f"{path}: keys differ"
        for key in sorted(ref):
            bad = compare(got[key], ref[key], f"{path}.{key}")
            if bad:
                return bad
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return f"{path}: length differs"
        for i, (g, r) in enumerate(zip(got, ref)):
            bad = compare(g, r, f"{path}[{i}]")
            if bad:
                return bad
        return None
    if isinstance(ref, bool) or isinstance(got, bool) or not isinstance(ref, (int, float)):
        return None if got == ref else f"{path}: {got!r} != {ref!r}"
    if not isinstance(got, (int, float)):
        return f"{path}: {got!r} is not a number"
    if math.isinf(ref) or math.isinf(got):
        return None if got == ref else f"{path}: {got!r} != {ref!r}"
    if abs(got - ref) <= ABS_TOL + REL_TOL * abs(ref):
        return None
    return f"{path}: {got!r} != {ref!r}"


def _stride(count):
    return max(1, count // SAMPLE_ROWS)


def array_digest(a):
    """Shape, column-wise sums of |x| and x^2, extremes, and strided rows."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 0:
        return {"value": float(a)}
    flat = a.reshape(a.shape[0], -1)
    return {
        "shape": list(a.shape),
        "abs_sum": np.abs(flat).sum(axis=0).tolist(),
        "sq_sum": (flat * flat).sum(axis=0).tolist(),
        "min": flat.min(axis=0).tolist(),
        "max": flat.max(axis=0).tolist(),
        "rows": flat[:: _stride(len(flat))].tolist(),
    }


def csv_digest(path):
    """The array digest of a numeric CSV, plus its header."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = np.array([[float(v) for v in row] for row in reader])
    return {"header": header, **array_digest(rows)}


def digest(op, out):
    """Digest of one op's outputs.

    `out` holds "stdout" for verify ops, "summary" and "csv" (paths) for
    realize and probe ops, and "value" for bulk ops.
    """
    if op.startswith("verify."):
        return json.loads(out["stdout"])
    if op.startswith(("realize.", "probe.")):
        with open(out["summary"]) as fh:
            summary = json.load(fh)
        return {"summary": summary, "csv": csv_digest(out["csv"])}
    value = out["value"]
    if isinstance(value, tuple):
        return [array_digest(v) for v in value]
    return array_digest(value)


def invariants(op, out):
    """Seed-independent checks for an op at a non-reference seed; message or None."""
    if op.startswith("realize."):
        with open(out["summary"]) as fh:
            s = json.load(fh)
        if not s["checkpoint_max_error"] <= 1e-6:
            return f"checkpoint_max_error {s['checkpoint_max_error']} > 1e-6"
        haus = [s["hausdorff_by_k"][k] for k in sorted(s["hausdorff_by_k"], key=int)]
        ks = sorted(int(k) for k in s["hausdorff_by_k"])
        if ks != list(range(1, s["k_max"] + 1)):
            return f"hausdorff_by_k has sweeps {ks}"
        for k, h in zip(ks, haus):
            if not h <= 2.0 / k:
                return f"hausdorff_by_k[{k}] = {h} > 2/{k}"
        if any(b > a for a, b in zip(haus, haus[1:])):
            return f"hausdorff_by_k increases: {haus}"
        rows = csv_digest(out["csv"])
        if rows["shape"][0] != s["samples"] or not np.all(np.isfinite(rows["max"])):
            return "orbit CSV rows do not match the summary"
        return None
    if op == "probe.realized":
        with open(out["summary"]) as fh:
            s = json.load(fh)
        # criterion 11: a realized (non-simple) map's slices keep varying
        return None if s["slice_variation"] > 0.1 else f"slice_variation {s['slice_variation']}"
    return _bulk_invariant(op, out["value"])


def _bulk_invariant(op, value):
    if op == "zorich.composition_residual":
        return None if value <= 1e-9 else f"composition residual {value} > 1e-9"
    arrays = value if isinstance(value, tuple) else (value,)
    rows = ops.RADIUS_ROWS if op == "realizer.mean_radius_batch" else ops.BULK_ROWS
    if any(len(a) != rows for a in arrays):
        return f"expected {rows} output rows"
    if not all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays):
        return "non-finite output"
    if op == "realizer.mean_radius_batch" and not np.all(value > 0):
        return "non-positive mean radius"
    return None
