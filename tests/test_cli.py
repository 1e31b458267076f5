import csv
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcmaps
from conftest import circle_waypoints
from qcmaps import canonical_maps as cm
from qcmaps import _g17, cli, kernels, realizer
from qcmaps.cli import (
    DEFAULT_TOL,
    RunConfig,
    _build_parser,
    _write_csv,
    main,
    run_realize,
)
from qcmaps.errors import QcmapsError


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
    ]
    # numpy's default_rng raised a bare ValueError on a negative seed, and
    # the stretch suite, which draws no samples, recorded it in its report
    + [
        pytest.param(s, "seed", "-1", "seed must be non-negative", id=f"-1-seed-{s}")
        for s in ("zorich", "spiral", "stretch")
    ]
    # sizes that used to end in a MemoryError traceback
    + [
        pytest.param(s, f, v, m, id=f"{v}-{f}-{s}")
        for s, f, v, m in (
            ("bilipschitz", "grid", "100000", "grid resolution must be at most"),
            ("spiral", "grid", "5000", "grid resolution must be at most"),
            ("zorich", "samples", "2000000000", "samples must be at most"),
            ("zorich", "dim", "100000", "--dim must be at most 8"),
            ("spiral", "dim", "6", "spiral certification is capped at dimension 5"),
            ("interp", "dim", "8", "the pyramid grid at --dim 8"),
        )
    ]
    # run_verify raises a bilipschitz grid to its floor after RunConfig has
    # checked it, so a grid below 8 is refused there as for every suite
    + [
        pytest.param("bilipschitz", "grid", v, "grid resolution must be at least 8",
                     id=f"{v}-grid-bilipschitz")
        for v in ("5", "0", "-5")
    ],
)
def test_verify_rejects_nonfinite_parameters(
    tmp_path, capsys, suite, field, value, message
):
    # bad values end in a QcmapsError naming the field, never a traceback,
    # and no report is printed or written
    report = tmp_path / "report.json"
    code = main(["verify", suite, "--grid", "9", f"--{field}", value, "--out", str(report)])
    out, err = capsys.readouterr()
    assert code == 1
    assert message in err
    assert out == ""
    assert not report.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_verify_rejects_nonfinite_bound(capsys, value):
    # a non-finite bound would print a NaN or infinite margin, which is not
    # strict JSON; it is rejected before any report is written
    code = main(["verify", "spiral", "--dim", "3", "--grid", "9", f"--bound={value}"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "bound must be finite" in err
    assert out == ""


def test_verify_spiral_rejects_subnormal_rate(capsys):
    # x_n = phase / alpha overflows at a subnormal rate, so every det was
    # NaN and the run ended in a traceback; it is refused with one line
    code = main(["verify", "spiral", "--grid", "9", "--alpha", "1e-320"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "error: spiral rate 1e-320 is too small: 2 pi / alpha is not finite\n"


def test_verify_spiral_rejects_overflowing_rate(capsys):
    # the Jacobian entries overflowed at --alpha 1e308, so every det was NaN
    # and the run ended in a traceback; it is refused with one line
    code = main(["verify", "spiral", "--grid", "9", "--alpha", "1e308"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == (
        "error: spiral rate 1e+308 with K = 2.0 is out of range: "
        "the Jacobian scan's rounding bound overflows\n")


@pytest.mark.parametrize(
    "argv, K",
    [
        (["verify", "spiral", "--K", "1e200"], "1e+200"),
        (["verify", "spiral", "--K", "1e154"], "1e+154"),
        (["probe", "--map", "spiral", "--K", "1e200", "--t", "1,0.1", "--out", "p"], "1e+200"),
    ],
    ids=["verify-1e200", "verify-1e154", "probe-1e200"],
)
def test_spiral_rate_search_refuses_huge_stretch(tmp_path, monkeypatch, capsys, argv, K):
    # numpy overflow warnings came before "no admissible spiral rate found"
    # (K = 1e200) or the scan's refusal (K = 1e154); the rate search refuses
    # such a K with one line, before any grid is built
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cm, "_spiral_grid", None)
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == (
        f"error: stretch factor K = {K} is out of range: "
        "the spiral Jacobian's rounding bound overflows\n")
    assert list(tmp_path.iterdir()) == []


def test_verify_spiral_certifies_large_stretch(capsys):
    # K = 1e150 is below the refusal: it certifies alpha = 1/64 and passes
    assert main(["verify", "spiral", "--K", "1e150"]) == 0
    assert '"alpha": 0.015625' in capsys.readouterr().out


def test_tol_default_shared():
    assert RunConfig().tol == DEFAULT_TOL == 1e-12
    args = _build_parser().parse_args(["verify", "zorich"])
    assert args.tol == DEFAULT_TOL
    # RunConfig declares the verify flags: the parser's dests are its fields,
    # and their defaults are its defaults, type included
    assert set(vars(args)) == {*RunConfig._fields, "command", "suite", "out"}
    for field, default in RunConfig()._asdict().items():
        value = getattr(args, field)
        assert (value, type(value)) == (default, type(default)), field


@pytest.mark.parametrize("alpha, value", [("0.25", 0.25), ("1e0", 1.0), ("auto", "auto")])
def test_verify_config_records_alpha_as_run(tmp_path, alpha, value):
    # config.alpha is the rate as parsed, 'auto' or a number, not the flag's text
    assert RunConfig(alpha=alpha).alpha == value
    out = tmp_path / "spiral.json"
    main(["verify", "spiral", "--alpha", alpha, "--grid", "9", "--samples", "100",
          "--out", str(out)])
    report = json.loads(out.read_text())
    assert report["config"]["alpha"] == value
    assert type(report["config"]["alpha"]) is type(value)
    if value != "auto":
        assert report["alpha"] == value


@pytest.mark.parametrize("flags", [[], ["--grid", "40"], ["--grid", "250"]])
def test_verify_bilipschitz_library_report_matches_cli(tmp_path, flags):
    # the grid floor is applied once, in run_verify: the library call and
    # the command scan the same grid, and both report it
    out = tmp_path / "b.json"
    assert main(["verify", "bilipschitz", *flags, "--out", str(out)]) == 0
    cfg = RunConfig(**({"grid": int(flags[1])} if flags else {}))
    report = cli.run_verify("bilipschitz", cfg)
    assert json.loads(out.read_text()) == report
    assert report["config"]["grid"] == max(cfg.grid, cli.BILIPSCHITZ_GRID)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "zorich", "--samples", "10"],
        ["realize", "TARGET", "--kmax", "1", "--samples", "5"],
        ["probe", "--map", "stretch", "--t", "1,0.1", "--grid", "8"],
    ],
    ids=["verify", "realize", "probe"],
)
def test_out_in_missing_directory_is_refused(tmp_path, capsys, quarter_target, argv):
    # the write fails after the computation: one error line naming the file,
    # exit 1, nothing printed and nothing written
    argv = [str(quarter_target) if a == "TARGET" else a for a in argv]
    out = tmp_path / "missing" / "x"
    code = main(argv + ["--out", str(out)])
    stdout, err = capsys.readouterr()
    assert code == 1
    assert stdout == ""
    assert err.startswith(f"error: cannot write {out}") and err.count("\n") == 1
    assert not out.parent.exists()


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


@pytest.mark.parametrize("suite", ["stretch", "interp"])
@pytest.mark.parametrize("dim", [3, 4])
def test_norm_checks_blocks_match_one_block(monkeypatch, suite, dim):
    # the default grids fit one block of kernels._STRIP points; blocks of
    # 100 points must give the same report, bit for bit
    cfg = RunConfig(dimension=dim)
    whole = cli.run_verify(suite, cfg)
    calls = []
    jacobian = cli.dist.finite_diff_jacobian
    monkeypatch.setattr(cli.dist, "finite_diff_jacobian",
                        lambda f, x, h: calls.append(len(x)) or jacobian(f, x, h))
    monkeypatch.setattr(kernels, "_STRIP", 100)
    blocked = cli.run_verify(suite, cfg)
    assert len(calls) > 2 and max(calls) == 100
    assert blocked == whole


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
        float(np.linalg.norm(
            realizer.eval_map_batch(rm, r * e1) / realizer.mean_radius_batch(rm, r)[0]
            - u * sig
        ))
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


def test_import_leaves_dataclasses_unimported():
    # the parameter records are named tuples, which build no methods at import
    src = str(Path(qcmaps.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, qcmaps.cli; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout.split() == ["False"]


def _records(rm, target):
    """One record of every kind, with the fields that hold read-only arrays."""
    frame = np.eye(3)
    grid = cm._spiral_grid.__wrapped__(3, 9)
    return [
        (cm.StretchSpec(K=2.0, frame=frame), ["frame"]),
        (cm.InterpSpec(K=2.0, L=3.0, s=-2.0, t=0.0, frame=frame), ["frame"]),
        (cm.SpiralSpec(K=2.0, alpha=0.25, frame=frame), ["frame"]),
        (grid, list(grid._fields)),
        (target, ["waypoints"]),
        (realizer.RadialSegment(1.0, 2.0, [1.0, 0.0, 0.0]), []),
        (realizer.ArcSegment(2.0, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]), []),
        (rm.pieces[0], ["frame"]),
        (rm, ["outer_frame"]),
        (RunConfig(), []),
    ]


def test_records_refuse_assignment(quarter_circle_map):
    rm, target, _ = quarter_circle_map
    records = _records(rm, target)
    assert len({type(r) for r, _ in records}) == 10
    for record, arrays in records:
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1
        for field in arrays:
            a = getattr(record, field)
            assert not a.flags.writeable, (type(record).__name__, field)
            with pytest.raises(ValueError):
                a.flat[0] = 0


def test_records_make_and_replace_run_the_constructor(quarter_circle_map):
    # _make and _replace build through __new__: a bad field raises the
    # constructor's own error, and _make keeps no writable array
    rm, target, _ = quarter_circle_map
    bad = {
        cm.StretchSpec: ("K", 0.5, "stretch factor must satisfy K >= 1"),
        cm.InterpSpec: ("K", 0.5, "K must satisfy K >= 1"),
        cm.SpiralSpec: ("alpha", np.nan, "spiral rate must be finite"),
        realizer.TargetSet: ("closed", "yes", "closed must be true or false"),
        realizer.RadialSegment: ("u1", -1.0, "radii must be positive"),
        realizer.ArcSegment: ("u", 0.0, "radius must be positive"),
        realizer.ShellPiece: ("kind", "cone", "kind must be 'spiral' or 'interp'"),
        realizer.RealizedMap: ("pieces", rm.pieces[::-1], "shells must tile"),
        RunConfig: ("samples", 0, "samples must be at least 1"),
    }
    records = _records(rm, target)
    assert set(bad) == {type(r) for r, _ in records} - {cm._SpiralGrid}
    for record, arrays in records:
        cls = type(record)
        fields = [np.array(v) if isinstance(v, np.ndarray) else v for v in record]
        made = cls._make(fields)
        assert type(made) is cls
        for field in arrays:
            assert not getattr(made, field).flags.writeable, (cls.__name__, field)
        if cls in bad:
            name, value, message = bad[cls]
            with pytest.raises(QcmapsError, match=re.escape(message)):
                record._replace(**{name: value})
            fields[record._fields.index(name)] = value
            with pytest.raises(QcmapsError, match=re.escape(message)):
                cls._make(fields)


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
    "entry, message",
    [
        ('"C": NaN', "annulus bound C must be finite"),
        ('"C": Infinity', "annulus bound C must be finite"),
        ('"C": "3"', "annulus bound C must be a number"),
        ('"C": true', "annulus bound C must be a number"),
        ('"closed": "false"', "closed must be true or false"),
    ],
    ids=["nan-C", "inf-C", "string-C", "bool-C", "string-closed"],
)
def test_realize_rejects_bad_target_key(tmp_path, capsys, entry, message):
    # json.loads reads NaN and Infinity, and bool("false") is True: each is
    # rejected by name before anything is planned or written
    target = tmp_path / "bad.json"
    waypoints = json.dumps(circle_waypoints().tolist())
    target.write_text(f'{{"waypoints": {waypoints}, {entry}}}')
    code = main(["realize", str(target), "--out", str(tmp_path / "x")])
    out, err = capsys.readouterr()
    assert code == 1
    assert message in err
    assert out == ""
    assert not list(tmp_path.glob("x.*"))


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
        pytest.param(["probe", "--map", "stretch", "--dim", "4", "--seed", "-1", "--t", "1"],
                     "--seed must be non-negative", id="-1-seed"),
        pytest.param(["realize", "TARGET", "--samples", "0"],
                     "--samples must be at least 1", id="0-samples"),
        pytest.param(["realize", "TARGET", "--samples", "-3"],
                     "--samples must be at least 1", id="-3-samples"),
        pytest.param(["realize", "TARGET", "--samples", "1000000000"],
                     "--samples must be at most", id="1e9-samples"),
        pytest.param(["realize", "TARGET", "--kmax", "1000000"],
                     "--kmax must be at most", id="1e6-kmax"),
        # 300 shells of 10^4 samples each
        pytest.param(["realize", "TARGET", "--kmax", "20", "--samples", "10000"],
                     "orbit samples; lower --samples or --kmax", id="orbit-size"),
        pytest.param(["probe", "--map", "stretch", "--t", "1", "--grid", "2000000000"],
                     "--grid must be at most", id="2e9-grid"),
        pytest.param(["probe", "--map", "realized", "--target", "TARGET", "--kmax", "1001",
                      "--t", "1"], "--kmax must be at most", id="1001-kmax"),
        pytest.param(["probe", "--map", "stretch", "--dim", "100000", "--t", "1"],
                     "--dim must be at most 8", id="1e5-dim"),
        pytest.param(["probe", "--map", "spiral", "--dim", "6", "--t", "1"],
                     "spiral certification is capped at dimension 5", id="6-dim-spiral"),
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


def test_size_caps_are_inclusive(tmp_path):
    # the largest value of each size flag is taken; one more is refused
    RunConfig(grid=cli.MAX_GRID, samples=cli.MAX_SAMPLES)
    for field, cap in (("grid", cli.MAX_GRID), ("samples", cli.MAX_SAMPLES)):
        with pytest.raises(QcmapsError, match=f"{field}.* must be at most"):
            RunConfig(**{field: cap + 1})
    # a one-waypoint target plans no shell at any depth
    one = realizer.TargetSet(waypoints=[[2.0, 0.0, 0.0]])
    _, summary, _ = run_realize(one, cli.MAX_KMAX, cli.MAX_SHELL_SAMPLES)
    assert summary["k_max"] == cli.MAX_KMAX
    for k_max, samples in ((cli.MAX_KMAX + 1, 1), (1, cli.MAX_SHELL_SAMPLES + 1)):
        with pytest.raises(QcmapsError, match="must be at most"):
            run_realize(one, k_max, samples)
    target = tmp_path / "one.json"
    target.write_text(json.dumps({"waypoints": [[2, 0, 0]]}))
    argv = ["probe", "--map", "realized", "--target", str(target), "--t", "1",
            "--kmax", str(cli.MAX_KMAX), "--out", str(tmp_path / "p")]
    assert main(argv) == 0
    argv = ["probe", "--map", "stretch", "--t", "1", "--grid", str(cli.MAX_DIRECTIONS + 1),
            "--out", str(tmp_path / "q")]
    assert main(argv) == 1
    argv = ["probe", "--map", "stretch", "--t", "1", "--dim", str(cli.MAX_DIM),
            "--out", str(tmp_path / "d")]
    assert main(argv) == 0
    RunConfig(dimension=cli.MAX_DIM)
    with pytest.raises(QcmapsError, match="--dim must be at most"):
        RunConfig(dimension=cli.MAX_DIM + 1)
    assert cm.certification_grids(cm.MAX_SPIRAL_DIM) == (13, 25)
    with pytest.raises(QcmapsError, match="capped at dimension"):
        cm.certification_grids(cm.MAX_SPIRAL_DIM + 1)
    # 10 x 5^4 x 16 heights is the pyramid cap exactly
    heights = tuple(np.linspace(0.0, 1.0, 16))
    assert len(cli._pyramid_grid(6, 10, heights=heights)) <= cli.MAX_PYRAMID_POINTS
    with pytest.raises(QcmapsError, match="the pyramid grid"):
        cli._pyramid_grid(6, 10, heights=heights + (1.5,))


def test_realize_above_spiral_dimension_cap(tmp_path, capsys):
    # arcs in R^6 need a certified spiral rate, which is capped at n = 5
    w = np.zeros((3, 6))
    w[:, 0], w[:, 1] = 2.0 * np.cos([0.0, 0.4, 0.8]), 2.0 * np.sin([0.0, 0.4, 0.8])
    target = tmp_path / "six.json"
    target.write_text(json.dumps({"waypoints": w.tolist()}))
    assert main(["realize", str(target), "--out", str(tmp_path / "x")]) == 1
    assert "spiral certification is capped at dimension 5" in capsys.readouterr().err
    assert not list(tmp_path.glob("x.*"))


def _target_argv(command, target, out):
    if command == "realize":
        return ["realize", str(target), "--kmax", "1", "--out", str(out)]
    return ["probe", "--map", "realized", "--target", str(target), "--kmax", "1",
            "--t", "1,0.5", "--out", str(out)]


def _radial_target(tmp_path, n):
    # one radial hop: an interpolation shell only, so no spiral rate is
    # certified and no spiral dimension cap applies
    w = np.zeros((2, n))
    w[:, 0] = [2.0, 1.0]
    target = tmp_path / f"radial{n}.json"
    target.write_text(json.dumps({"waypoints": w.tolist()}))
    return target


@pytest.mark.parametrize("command", ["realize", "probe"])
def test_target_dimension_above_cap_is_refused(tmp_path, capsys, monkeypatch, command):
    # the size caps were measured up to MAX_DIM, so a target above it is
    # refused by name before anything is planned or written
    def no_plan(*args):
        raise AssertionError("planned a target above the dimension cap")

    monkeypatch.setattr(realizer, "plan_paths", no_plan)
    target = _radial_target(tmp_path, cli.MAX_DIM + 1)
    assert main(_target_argv(command, target, tmp_path / "x")) == 1
    out, err = capsys.readouterr()
    assert f"target dimension must be at most {cli.MAX_DIM}" in err
    assert out == ""
    assert not list(tmp_path.glob("x.*"))


@pytest.mark.parametrize("command", ["realize", "probe"])
def test_target_dimension_at_cap_runs(tmp_path, command):
    target = _radial_target(tmp_path, cli.MAX_DIM)
    assert main(_target_argv(command, target, tmp_path / "x")) == 0
    (csv_path,) = tmp_path.glob("x.*.csv")
    header = csv_path.read_text().splitlines()[0].split(",")
    assert f"y_{cli.MAX_DIM}" in header and f"y_{cli.MAX_DIM + 1}" not in header
    assert (tmp_path / "x.summary.json").exists()


def _edge_doubles():
    """Doubles where '%.17g' changes layout, rounds across a decade or leaves
    the fast path: every 10^k with its neighbours, the fixed/scientific
    switches, zeros, subnormals, the largest double, the non-finite, and two
    exact ties, which round to even (down, then up)."""
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    switches = np.array([1e-5, 1e-4, 1e16, 1e17])
    return np.concatenate([
        tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
        switches, np.nextafter(switches, 0.0), np.nextafter(switches, np.inf),
        [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072009e-308,
         np.nextafter(2.2250738585072014e-308, 0.0), 1.7976931348623157e308,
         np.nan, np.inf, -np.inf, 0.1, 123456789.0, np.pi,
         2251799813685247.25, 2251799813685247.75],
    ])


def _csv_module_bytes(path, header, columns, formats):
    """The reference: csv.writer over Python's own formatting of each value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*(np.asarray(c).tolist() for c in columns)):
            writer.writerow([f % v for f, v in zip(formats, row)])
    return Path(path).read_bytes()


def test_write_csv_matches_csv_module(tmp_path, monkeypatch):
    # both writers reproduce csv.writer over '%.17g' and '%d': the numpy
    # one in chunks of _CSV_ROWS or of 7 rows, with a short last one, and
    # Python's '%' on a table shorter than _CSV_NUMPY_ROWS
    rng = np.random.default_rng(4)
    floats = np.concatenate(
        [rng.standard_normal(50) * 10.0 ** rng.integers(-300, 300, 50),
         _edge_doubles()]
    )
    floats = np.concatenate([floats, -floats])
    ints = np.arange(len(floats)) - 3
    ints[:12] = [0, -1, 7, -(2**53), 2**53, 2**53 + 1, -(2**53) - 1, 10**16,
                 10**17, -(10**17), -(2**63), 2**63 - 1]
    columns = [floats, ints, -floats]
    assert len(floats) > cli._CSV_NUMPY_ROWS
    want = _csv_module_bytes(tmp_path / "old.csv", ["a", "i", "b"], columns,
                             ["%.17g", "%d", "%.17g"])
    _write_csv(tmp_path / "new.csv", ["a", "i", "b"], columns, "%.17g,%d,%.17g")
    short = [c[:40] for c in columns]
    _write_csv(tmp_path / "short.csv", ["a", "i", "b"], short, "%.17g,%d,%.17g")
    monkeypatch.setattr(cli, "_CSV_ROWS", 7)
    _write_csv(tmp_path / "chunks.csv", ["a", "i", "b"], columns, "%.17g,%d,%.17g")
    assert (tmp_path / "new.csv").read_bytes() == want
    assert (tmp_path / "chunks.csv").read_bytes() == want
    assert (tmp_path / "short.csv").read_bytes() == _csv_module_bytes(
        tmp_path / "old_short.csv", ["a", "i", "b"], short, ["%.17g", "%d", "%.17g"])


def test_write_csv_rounds_up_to_a_power_of_ten(tmp_path, monkeypatch):
    # 14 doubles 10^k lie below 10^k yet round up to it at 17 digits, as
    # the double 1e-305 prints as 1e-305; each other double below 10^k
    # prints in the decade below, as 9.9999999999999997e-305 does
    below = [float(f"1e{k}") for k in range(-323, 309)
             if Fraction(float(f"1e{k}")) < Fraction(10) ** k]
    up = [v for v in below if "%.17g" % v == f"1e{math.log10(v):+03.0f}"]
    assert len(below) == 298 and len(up) == 14 and 1e-305 in up
    monkeypatch.setattr(cli, "_CSV_NUMPY_ROWS", 0)
    _write_csv(tmp_path / "tens.csv", ["x"], [below], "%.17g")
    want = "x\r\n" + "".join("%.17g\r\n" % v for v in below)
    assert (tmp_path / "tens.csv").read_bytes() == want.encode()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_write_csv_matches_percent_format_on_bit_patterns(tmp_path_factory, bits):
    x = np.array(bits, dtype=np.uint64).view(np.float64)
    path = tmp_path_factory.mktemp("csv") / "bits.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_CSV_NUMPY_ROWS", 0)
        _write_csv(path, ["x", "y"], [x, x[::-1]], "%.17g,%.17g")
    want = "x,y\r\n" + "".join(
        "%.17g,%.17g\r\n" % r for r in zip(x.tolist(), x[::-1].tolist()))
    assert path.read_bytes() == want.encode()


def test_g17_fast_path_decides_almost_every_field():
    # the Python fallback takes only near-ties and decades one off: none in
    # a seeded sample over 600 decades, whose doubles near 10^13 hold 163
    # exact ties, with non-finite values and zeros mixed in
    rng = np.random.default_rng(0)
    x = rng.standard_normal(200_000) * 10.0 ** rng.integers(-300, 300, 200_000)
    x[:600] = np.repeat([np.nan, np.inf, -np.inf, -np.nan, 0.0, -0.0], 100)
    out = np.empty((_g17.SEP, len(x)), np.uint8)
    assert np.count_nonzero(_g17.fields(x, out)) <= 3


def test_pow10_table_is_exact_to_2_pow_minus_105():
    # lo = 0 marks the powers the table holds exactly, where ties round in
    # the fast path
    for k in range(-292, 341):
        hi, hh, hl, lo, b = _g17.pow10(k)
        assert 0.5 <= hi < 1.0 and hh + hl == hi
        assert (lo == 0) == (0 <= k <= 22)
        approx = (Fraction(hi) + Fraction(lo)) * Fraction(2) ** b
        exact = Fraction(10) ** k
        assert abs(approx - exact) < exact * Fraction(1, 2**105)


def test_probe_spiral_certifies_on_its_dimension_grid(tmp_path, monkeypatch):
    # n = 4 certifies on grid 13 and its refinement 25, not the n = 3 grid
    monkeypatch.setattr(cm, "_ALPHA_CACHE", {})
    built = []
    grid = cm._spiral_grid

    def recording(*args):
        built.append(args[1])
        return grid(*args)

    monkeypatch.setattr(cm, "_spiral_grid", recording)
    code = main(["probe", "--map", "spiral", "--dim", "4", "--t", "1,0.1",
                 "--out", str(tmp_path / "p")])
    assert code == 0
    assert set(built) == {13, 25}


@pytest.mark.parametrize("dim, grid", [(3, 33), (4, 13)])
def test_verify_spiral_walks_each_grid_once(tmp_path, monkeypatch, dim, grid):
    # the cold rate search and the LAPACK scan read one cached build per grid
    monkeypatch.setattr(cm, "_ALPHA_CACHE", {})
    cm._spiral_grid.cache_clear()
    code = main(["verify", "spiral", "--dim", str(dim), "--samples", "100",
                 "--out", str(tmp_path / "spiral.json")])
    assert code == 0
    assert cm._spiral_grid.cache_info().misses == 2
    # the two grids built are the coarse grid and its refinement
    for res in (grid, 2 * grid - 1):
        cm._spiral_grid(dim, res)
    assert cm._spiral_grid.cache_info().misses == 2


@pytest.mark.parametrize(
    "waypoints",
    [[["a", 1, 2], [0, 2, 0]], [[2, 0, 0], [0, 2]], [["2", "0", "0"], [0, "2", True]]],
    ids=["non-numeric", "ragged", "strings-and-boolean"],
)
def test_realize_rejects_malformed_waypoints(tmp_path, capsys, waypoints):
    # numpy's conversion error, or a coordinate that is not a JSON number,
    # becomes a message naming the waypoints
    target = tmp_path / "bad.json"
    target.write_text(json.dumps({"waypoints": waypoints}))
    code = main(["realize", str(target), "--out", str(tmp_path / "x")])
    out, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error: waypoints must be an (m, n>=3) array of numbers")
    assert out == ""
    assert not list(tmp_path.glob("x.*"))


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
