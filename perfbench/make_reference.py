"""Rewrite the committed reference digests in perfbench/reference/.

Usage (from the repository root): python3 perfbench/make_reference.py

Runs every op of every workload once at the reference seed, in this process,
and stores the digest of each output.  Run it only when an intended change
to the outputs has been reviewed; list that change in CHANGES.md.
"""

import shutil
import tempfile
from pathlib import Path

import ops
import worker


def main():
    ref = Path(__file__).resolve().parent / "reference"
    ref.mkdir(exist_ok=True)
    for workload, op_list in ops.WORKLOADS.items():
        (ref.parent / "out").mkdir(exist_ok=True)
        work = tempfile.mkdtemp(dir=ref.parent / "out")
        try:
            result = worker.run({
                "workload": workload,
                "seed": ops.REFERENCE_SEED,
                "ops": list(op_list),
                "passes": 1,
                "trace": False,
                "work": work,
                "reference": str(ref),
                "write_reference": True,
            })
        finally:
            shutil.rmtree(work)
        bad = [(r["op"], r["error"]) for r in result["ops"] if r["error"]]
        if bad:
            raise SystemExit(f"ops failed, reference not complete: {bad}")
        print(f"{workload}: {len(op_list)} digests written")


if __name__ == "__main__":
    main()
