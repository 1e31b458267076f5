import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qcmaps
from conftest import circle_waypoints
from qcmaps import canonical_maps as cm
from qcmaps import realizer
from qcmaps.cli import (
    DEFAULT_TOL,
    RunConfig,
    _build_parser,
    _write_csv,
    main,
    run_realize,
)


@pytest.fixture()
def quarter_target(tmp_path):
    path = tmp_path / "quarter.json"
    path.write_text(
        json.dumps(
            {
                "waypoints": circle_waypoints().tolist(),
                "closed": False,
                "C": 2.5,
            }
        )
    )
    return path


def test_verify_bilipschitz_passes(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "bilipschitz", "--grid", "200", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"]
    low = next(c for c in report["checks"] if c["name"] == "eigenvalue-lower")
    assert low["worst"] >= low["bound"]


def test_verify_spiral_auto_reports_alpha(tmp_path):
    out = tmp_path / "spiral.json"
    code = main(
        ["verify", "spiral", "--K", "2", "--grid", "17", "--samples", "100",
         "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"]
    assert abs(report["alpha"]) > 0
    floor = next(c for c in report["checks"] if c["name"] == "jacobian-floor")
    assert floor["worst"] > 0.25


@pytest.mark.parametrize("dim", [3, 4])
def test_verify_spiral_alpha_zero(tmp_path, dim):
    # at alpha = 0 the scan cannot convert phases back to x_n = phase / alpha
    out = tmp_path / "spiral0.json"
    code = main(["verify", "spiral", "--dim", str(dim), "--alpha", "0",
                 "--samples", "100", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    floor = next(c for c in report["checks"] if c["name"] == "jacobian-floor")
    assert floor["passed"] and floor["worst"] == pytest.approx(1.0)


_FINITE_ALPHA = "alpha must be 'auto' or a finite number"


@pytest.mark.parametrize(
    "suite, field, value, message",
    [
        pytest.param("stretch", f, v, f"{f} must be finite", id=f"{v}-{f}")
        for v in ("nan", "inf")
        for f in ("K", "L", "tol")
    ]
    + [
        pytest.param("spiral", "alpha", v, _FINITE_ALPHA, id=f"{v}-alpha")
        for v in ("nan", "inf", "foo")
    ]
    + [
        pytest.param(
            "spiral", "samples", "0", "samples must be at least 1", id="0-samples"
        )
    ],
)
def test_verify_rejects_nonfinite_parameters(capsys, suite, field, value, message):
    # bad values end in a QcmapsError naming the field, never a traceback
    code = main(["verify", suite, "--grid", "9", f"--{field}", value])
    assert code == 1
    assert message in capsys.readouterr().err


def test_tol_default_shared():
    assert RunConfig().tol == DEFAULT_TOL == 1e-12
    assert _build_parser().parse_args(["verify", "zorich"]).tol == DEFAULT_TOL


def test_verify_negative_control(tmp_path):
    code = main(["verify", "stretch", "--bound", "1.0", "--grid", "9",
                 "--out", str(tmp_path / "r.json")])
    assert code == 1


def test_verify_rejects_bad_dimension(capsys):
    code = main(["verify", "zorich", "--dim", "2"])
    assert code == 1
    assert "dimension" in capsys.readouterr().err


def test_verify_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["verify", "stretch", "--grid", "9", "--seed", "3", "--out", str(a)])
    main(["verify", "stretch", "--grid", "9", "--seed", "3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_realize_quarter_circle(tmp_path, quarter_target):
    prefix = tmp_path / "run"
    code = main(
        ["realize", str(quarter_target), "--kmax", "5", "--samples", "60",
         "--out", str(prefix)]
    )
    assert code == 0
    summary = json.loads((tmp_path / "run.summary.json").read_text())
    assert summary["checkpoint_max_error"] <= 1e-6
    haus = [summary["hausdorff_by_k"][str(k)] for k in range(1, 6)]
    assert haus == sorted(haus, reverse=True) or all(
        b <= a + 1e-9 for a, b in zip(haus, haus[1:])
    )
    assert haus[-1] <= 0.4
    lo, hi = summary["orbit_annulus"]
    assert 0 < lo <= hi < np.inf

    with open(f"{prefix}.orbit.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "y_1", "y_2", "y_3", "piece_index", "rho"]
    data = np.array([[float(v) for v in r] for r in rows[1:]])
    assert np.all(np.isfinite(data))
    # 17-significant-digit round trip: re-parsing reproduces the values
    assert data.shape[0] == summary["samples"]


def test_realize_sweep_distances_are_tail_distances():
    target = realizer.TargetSet(waypoints=circle_waypoints())
    table, summary, rm = run_realize(target, 5, samples=60)
    poly = realizer._polyline_samples(target.waypoints, target.closed)
    for k in range(1, 6):
        tail = table["gamma"][table["t"] <= rm.sweep_start_radius(k) * (1 + 1e-12)]
        assert summary["hausdorff_by_k"][str(k)] == realizer.hausdorff_distance(tail, poly)


@pytest.mark.parametrize("n", [3, 4])
def test_realize_checkpoint_error_matches_single_points(n):
    # arcs and radial moves, so the checkpoints sit in spiral and
    # interpolation shells alike
    th = np.linspace(0.0, np.pi / 2, 9)
    w = np.zeros((9, n))
    w[:, 0] = (2 + 0.3 * np.sin(2 * th)) * np.cos(th)
    w[:, 1] = (2 + 0.3 * np.sin(2 * th)) * np.sin(th)
    _, summary, rm = run_realize(realizer.TargetSet(waypoints=w), 2, samples=20)
    e1 = np.eye(n)[0]
    errs = [
        float(np.linalg.norm(realizer.rescaled_map(rm, r, e1) - u * sig))
        for r, u, sig in rm.checkpoints
    ]
    assert summary["checkpoint_max_error"] == max(errs)


def test_realize_singleton_constant_orbit(tmp_path):
    target = tmp_path / "point.json"
    target.write_text(json.dumps({"waypoints": [[2.0, 0.0, 0.0]]}))
    prefix = tmp_path / "pt"
    assert main(["realize", str(target), "--kmax", "3", "--out", str(prefix)]) == 0
    with open(f"{prefix}.orbit.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    gamma = np.array([[float(v) for v in r[1:4]] for r in rows])
    assert np.abs(gamma - gamma[0]).max() <= 1e-12


def test_realize_radial_segment(tmp_path):
    target = tmp_path / "seg.json"
    target.write_text(
        json.dumps({"waypoints": [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]})
    )
    prefix = tmp_path / "seg"
    assert main(["realize", str(target), "--kmax", "4", "--samples", "80",
                 "--out", str(prefix)]) == 0
    with open(f"{prefix}.orbit.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    gamma = np.array([[float(v) for v in r[1:4]] for r in rows])
    assert np.abs(gamma[:, 1:]).max() <= 1e-6  # direction stays e_1
    assert gamma[:, 0].min() >= 1 - 1e-6 and gamma[:, 0].max() <= 2 + 1e-6


def test_realize_leaves_numpy_ma_unimported(tmp_path):
    # np.unique imports numpy.ma on its first call, 18-40 ms of a fresh
    # process; realize must sort points into regions without it.  The wavy
    # target has interpolation shells, so every realize phase runs.
    th = np.linspace(0.0, np.pi / 2, 12)
    r = 2.0 + 0.3 * np.sin(2.0 * th)
    target = tmp_path / "wavy.json"
    target.write_text(json.dumps({"waypoints": np.stack(
        [r * np.cos(th), r * np.sin(th), 0.0 * th], axis=1).tolist()}))
    script = (
        "import sys\n"
        "from qcmaps.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    src = str(Path(qcmaps.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    argv = ["realize", str(target), "--kmax", "2", "--out", str(tmp_path / "w")]
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_realize_antipodal_hop_reports_error(tmp_path, capsys):
    target = tmp_path / "anti.json"
    target.write_text(
        json.dumps({"waypoints": [[2.0, 0.0, 0.0], [-2.0, 0.0, 0.0]]})
    )
    code = main(["realize", str(target), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "antipodal" in capsys.readouterr().err


def test_realize_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["realize", str(bad), "--out", str(tmp_path / "x")]) == 1
    assert "parse" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["probe", "--map", "stretch", "--t", "1,foo"], "--t must be",
                     id="foo-t"),
        pytest.param(["probe", "--map", "stretch", "--t", "nan,1"], "--t must be",
                     id="nan-t"),
        pytest.param(["probe", "--map", "spiral", "--alpha", "foo", "--t", "1"],
                     "--alpha must be 'auto' or a finite number", id="foo-alpha"),
        pytest.param(["probe", "--map", "rotation", "--theta", "nan", "--t", "1"],
                     "--theta must be finite", id="nan-theta"),
        pytest.param(["probe", "--map", "rotation", "--dim", "2", "--t", "1"],
                     "--dim must be at least 3", id="2-dim"),
        pytest.param(["probe", "--map", "rotation", "--K", "nan", "--t", "1,0.5"],
                     "--K must be", id="nan-K"),
        pytest.param(["probe", "--map", "stretch", "--K", "0.5", "--t", "1"],
                     "--K must be", id="0.5-K"),
        pytest.param(["probe", "--map", "spiral", "--K", "inf", "--t", "1"],
                     "--K must be", id="inf-K"),
        pytest.param(["realize", "TARGET", "--samples", "0"],
                     "--samples must be at least 1", id="0-samples"),
        pytest.param(["realize", "TARGET", "--samples", "-3"],
                     "--samples must be at least 1", id="-3-samples"),
    ],
)
def test_probe_and_realize_reject_bad_input(
    tmp_path, capsys, quarter_target, argv, message
):
    # bad values end in a QcmapsError naming the flag, never a traceback,
    # and nothing is written
    argv = [str(quarter_target) if a == "TARGET" else a for a in argv]
    code = main(argv + ["--out", str(tmp_path / "x")])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("x.*"))


def test_write_csv_matches_csv_module(tmp_path):
    # the %-format writer reproduces csv.writer over 17-digit f-strings
    rng = np.random.default_rng(4)
    floats = np.concatenate(
        [rng.standard_normal(50) * 10.0 ** rng.integers(-300, 300, 50),
         [0.0, -0.0, 0.1, 1e16, 123456789.0, np.pi]]
    )
    ints = np.arange(len(floats)) - 3
    _write_csv(tmp_path / "new.csv", ["a", "i", "b"], [floats, ints, -floats],
               "%.17g,%d,%.17g")
    with open(tmp_path / "old.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a", "i", "b"])
        for a, i in zip(floats.tolist(), ints.tolist()):
            writer.writerow([f"{a:.17g}", i, f"{-a:.17g}"])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_probe_spiral_certifies_on_its_dimension_grid(tmp_path, monkeypatch):
    # n = 4 certifies on grid 13 and its refinement 25, not the n = 3 grid
    monkeypatch.setattr(cm, "_ALPHA_CACHE", {})
    built = []
    certified = cm._certified_grid

    def recording(*args):
        built.append(args[1])
        return certified(*args)

    monkeypatch.setattr(cm, "_certified_grid", recording)
    code = main(["probe", "--map", "spiral", "--dim", "4", "--t", "1,0.1",
                 "--out", str(tmp_path / "p")])
    assert code == 0
    assert set(built) == {13, 25}


def test_probe_stretch_t_independent(tmp_path):
    prefix = tmp_path / "ps"
    code = main(
        ["probe", "--map", "stretch", "--K", "8", "--t", "1,0.25,0.01",
         "--grid", "32", "--out", str(prefix)]
    )
    assert code == 0
    summary = json.loads((tmp_path / "ps.summary.json").read_text())
    assert summary["slice_variation"] <= 1e-9


def test_probe_rotation_slices_equal_rotation(tmp_path):
    prefix = tmp_path / "pr"
    assert main(
        ["probe", "--map", "rotation", "--theta", "0.6", "--t", "2,0.5",
         "--grid", "16", "--out", str(prefix)]
    ) == 0
    summary = json.loads((tmp_path / "pr.summary.json").read_text())
    assert summary["slice_variation"] <= 1e-9


def test_probe_realized_map_varies(tmp_path, quarter_target):
    prefix = tmp_path / "pv"
    assert main(
        ["probe", "--map", "realized", "--target", str(quarter_target),
         "--kmax", "3", "--t", "0.9,0.05,0.002", "--grid", "24",
         "--out", str(prefix)]
    ) == 0
    summary = json.loads((tmp_path / "pv.summary.json").read_text())
    assert summary["slice_variation"] > 0.1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense-suite"])
    assert exc.value.code == 2
