"""Tests of the benchmark itself.

Run from the repository root: python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
OP = "verify.bilipschitz.n3"


def test_compare_tolerates_roundoff_and_rejects_changes():
    ref = json.loads((HERE / "reference" / f"{OP}.json").read_text())
    assert check.compare(ref, ref) is None

    near = json.loads(json.dumps(ref))
    near["checks"][0]["worst"] *= 1 + 1e-13
    assert check.compare(near, ref) is None

    for edit in (
        lambda d: d["checks"][0].__setitem__("worst", d["checks"][0]["worst"] * (1 + 1e-6)),
        lambda d: d["checks"][1]["worst_point"].__setitem__(0, 0.5),
        lambda d: d["checks"][2].__setitem__("passed", False),
        lambda d: d["checks"].pop(),
    ):
        bad = json.loads(json.dumps(ref))
        edit(bad)
        assert check.compare(bad, ref) is not None


def test_perturbed_reference_is_reported_as_failed(tmp_path):
    shutil.copytree(HERE.parent / "src", tmp_path / "src")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    path = tmp_path / "perfbench" / "reference" / f"{OP}.json"
    digest = json.loads(path.read_text())
    digest["checks"][0]["worst"] *= 1 + 1e-6
    path.write_text(json.dumps(digest))

    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "3",
         "--seconds", "0", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (10, 1)
    assert OP in proc.stderr
