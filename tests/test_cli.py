import json
import math
import os
import resource
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from fourvertex import analysis, cli, solver
from fourvertex.curvature import TWO_PI, profile_from_function
from fourvertex.integrator import PlanarCurve, integrate_curve
from fourvertex.moebius import NumericallyDegenerate

from conftest import ellipse_curve, limacon_curve


def write_kappa_csv(path, fn, n=256):
    t = TWO_PI * np.arange(n) / n
    rows = ["t,kappa"] + [f"{float(tt)!r},{float(fn(tt))!r}" for tt in t]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def test_synth_constant_circle(tmp_path):
    src = tmp_path / "kappa.csv"
    write_kappa_csv(src, lambda t: 1.0)
    out = tmp_path / "out"
    code = cli.main(["synth", str(src), "--out-dir", str(out), "--grid", "1024",
                     "--svg"])
    assert code == 0
    assert (out / "curve.csv").exists()
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["final_error"] < 1e-9
    ET.fromstring((out / "curve.svg").read_text())


def test_synth_smooth_profile(tmp_path):
    src = tmp_path / "kappa.csv"
    write_kappa_csv(src, lambda t: 1.5 + math.cos(2 * t))
    out = tmp_path / "out"
    code = cli.main(["synth", str(src), "--out-dir", str(out), "--grid", "2048",
                     "--format", "json"])
    assert code == 0
    data = json.loads((out / "curve.json").read_text())
    assert data["closed"] is True
    assert len(data["s"]) == 2049


def test_synth_hypothesis_violated(tmp_path):
    src = tmp_path / "kappa.csv"
    write_kappa_csv(src, lambda t: 1.0 + 0.5 * math.sin(t))
    code = cli.main(["synth", str(src), "--out-dir", str(tmp_path / "o"),
                     "--grid", "1024"])
    assert code == 2


def test_synth_failure_exit_code(tmp_path, capsys, monkeypatch):
    # every zero search fails inside its round; eps halves from 0.1 until it
    # is at most 8*pi/1024, so three rounds fail before the fourth stops
    def degenerate(m, n):
        raise NumericallyDegenerate("lift does not resolve")

    monkeypatch.setattr(solver, "moebius_lift", degenerate)
    src = tmp_path / "kappa.csv"
    write_kappa_csv(src, lambda t: 1.5 + math.cos(2 * t))
    code = cli.main(["synth", str(src), "--out-dir", str(tmp_path / "o"),
                     "--grid", "1024", "--eps0", "0.1"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("synthesis failed: round 1 (eps=0.1): zero search: "
                          "NumericallyDegenerate")
    assert err.count("synthesis failed") == 1 and err.count("NumericallyDegenerate") == 3
    assert "round 4 (eps=0.0125): eps at most 8*pi/1024" in err


def write_magnitude_json(path, e):
    """10^e (1.5 + cos 2t + 0.1 sin 3t) on 64 samples, as a JSON profile."""
    t = TWO_PI * np.arange(64) / 64
    samples = 10.0 ** e * (1.5 + np.cos(2 * t) + 0.1 * np.sin(3 * t))
    path.write_text(json.dumps({"samples": samples.tolist()}), encoding="utf-8")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("e", [-12, -9, 10, 306])
def test_synth_profile_magnitudes_end_in_typed_failure(tmp_path, capsys, e):
    # 10^e (1.5 + cos 2t + 0.1 sin 3t) is realized for e in [-7, 9] on this
    # grid; at these magnitudes the window search or the warp fails instead,
    # each with one stderr line and exit 2 or 3
    src = tmp_path / "kappa.json"
    write_magnitude_json(src, e)
    code = cli.main(["synth", str(src), "--out-dir", str(tmp_path / "o"), "--grid", "512"])
    err = capsys.readouterr().err
    assert code in (cli.EXIT_INPUT, cli.EXIT_FAILED), err
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.filterwarnings("error")
def test_synth_small_magnitude_realized(tmp_path):
    # 10^-3 (1.5 + cos 2t + 0.1 sin 3t) closes on this grid; diagnostics.json
    # carries the closure error and no distance to the step curve
    src = tmp_path / "kappa.json"
    write_magnitude_json(src, -3)
    out = tmp_path / "o"
    code = cli.main(["synth", str(src), "--out-dir", str(out), "--grid", "512"])
    assert code == cli.EXIT_OK
    assert len((out / "curve.csv").read_text().splitlines()) == 514  # header and 513 samples
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["final_error"] < 1e-9
    assert not {"position_distance", "angle_distance"} & diag.keys()


def test_synth_default_rounds_stop_at_four_sample_measure(tmp_path):
    # eps halves each failed round; once it is at most 8*pi/512 no round can
    # pass (see above), so the schedule stops instead of trying rounds that
    # must fail; at eps0 = 0.04 it stops before round 1
    src = tmp_path / "kappa.csv"
    write_kappa_csv(src, lambda t: 1.5 + math.cos(2 * t))
    limit = 1 << 30

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "fourvertex", "synth", str(src),
         "--out-dir", str(tmp_path / "o"), "--grid", "512", "--eps0", "0.04"],
        env=env, capture_output=True, text=True, timeout=30,
        preexec_fn=cap_address_space)
    assert proc.returncode == 3, proc.stderr
    assert "round 1 (eps=0.04): eps at most 8*pi/512" in proc.stderr
    assert proc.stderr.rstrip().endswith("schedule stopped")


@pytest.mark.parametrize("bad", [["--eps0", "0"], ["--eps0", "-0.1"], ["--eps0", "7.0"],
                                 ["--eps0", "nan"]])
def test_synth_bad_schedule_parameters(tmp_path, capsys, bad):
    # eps0 must lie in (0, 2*pi]
    src = tmp_path / "kappa.csv"
    write_kappa_csv(src, lambda t: 1.5 + math.cos(2 * t))
    code = cli.main(["synth", str(src), "--out-dir", str(tmp_path / "o"),
                     "--grid", "1024"] + bad)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: eps0 must lie in") and "Traceback" not in err


def test_synth_missing_file(tmp_path):
    code = cli.main(["synth", str(tmp_path / "nope.csv"),
                     "--out-dir", str(tmp_path / "o")])
    assert code == 1


def test_grid_must_be_power_of_two(tmp_path, capsys):
    src = tmp_path / "kappa.csv"
    write_kappa_csv(src, lambda t: 1.0)
    assert cli.main(["synth", str(src), "--grid", "1000"]) == 2
    capsys.readouterr()
    assert cli.main(["demo", "bicircle", "--grid", "1000",
                     "--out-dir", str(tmp_path / "figs")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["synth", "kappa.csv", "--grid", str(1 << 28)],
                                  ["demo", "bicircle", "--grid", str(cli.MAX_GRID << 1)],
                                  ["demo", "compass", "--panels", "513"],
                                  ["demo", "compass", "--grid", str(cli.MAX_GRID), "--panels", "9"]],
                         ids=["synth_grid", "demo_grid", "panels", "panels_at_max_grid"])
def test_oversized_arguments_rejected_before_any_work(tmp_path, capsys, monkeypatch, argv):
    # the grid and the compass panels' samples are bounded before a file is
    # read or an array is made
    def no_work(*args, **kwargs):
        raise AssertionError("an oversized argument reached the work")

    for name in ("cmd_synth", "cmd_demo"):
        monkeypatch.setattr(cli, name, no_work)
    assert cli.main(argv + ["--out-dir", str(tmp_path / "o")]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: --") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [["synth", "kappa.csv", "--grid", str(cli.MAX_GRID)],
                                  ["demo", "compass", "--panels", "512"],
                                  ["demo", "compass", "--grid", str(cli.MAX_GRID), "--panels", "8"],
                                  ["demo", "bicircle", "--grid", str(cli.MAX_GRID),
                                   "--panels", "1000"]])
def test_largest_arguments_pass_the_bounds(monkeypatch, argv):
    monkeypatch.setattr(cli, "cmd_synth", lambda args: 7)
    monkeypatch.setattr(cli, "cmd_demo", lambda args: 7)
    assert cli.main(argv) == 7


def test_analyze_ellipse(tmp_path):
    curve = ellipse_curve(4096)
    path = tmp_path / "ellipse.csv"
    cli.write_curve_csv(path, curve)
    out = tmp_path / "rep"
    code = cli.main(["analyze", str(path), "--out-dir", str(out), "--svg"])
    assert code == 0
    data = json.loads((out / "analysis.json").read_text())
    assert data["simple"] is True
    assert data["vertex_report"]["count"] == 4
    # the two ends of the major axis touch the circle in single samples, so
    # the strengthened bound, which needs every contact to be an arc, is not judged
    assert [c["kind"] for c in data["osserman"]["components"]] == ["point", "point"]
    assert data["osserman"]["bonus_bound_satisfied"] is None
    ET.fromstring((out / "analysis.svg").read_text())


def test_analyze_limacon_not_simple(tmp_path):
    curve = limacon_curve(2048)
    path = tmp_path / "limacon.csv"
    cli.write_curve_csv(path, curve)
    out = tmp_path / "rep"
    code = cli.main(["analyze", str(path), "--out-dir", str(out)])
    assert code == 0
    data = json.loads((out / "analysis.json").read_text())
    assert data["simple"] is False
    assert data["vertex_report"]["count"] == 2


@pytest.mark.parametrize("name", ["ellipse", "limacon", "circle"])
def test_analyze_builds_one_vertex_report(tmp_path, monkeypatch, name):
    # the check's vertex report serves analysis.json; a curve that is not
    # simple, whose check stops before its vertices, gets its own report
    curve = {"ellipse": lambda: ellipse_curve(512), "limacon": lambda: limacon_curve(512),
             "circle": lambda: integrate_curve(profile_from_function(np.ones_like, n=512)),
             }[name]()
    path = tmp_path / "curve.json"
    cli.write_curve_json(path, curve)
    try:
        expected = cli._vertex_report_json(analysis.detect_vertices(cli.read_curve_file(path)))
    except analysis.ConstantCurvature:
        expected = {"count": 0, "vertices": [], "constant_curvature": True}
    calls = []
    detect = analysis.detect_vertices
    monkeypatch.setattr(analysis, "detect_vertices", lambda c: calls.append(c) or detect(c))
    out = tmp_path / "rep"
    assert cli.main(["analyze", str(path), "--out-dir", str(out), "--svg"]) == 0
    assert len(calls) == 1
    assert json.loads((out / "analysis.json").read_text())["vertex_report"] == expected


def test_analyze_open_arc_rejected(tmp_path):
    t = np.linspace(0, 1, 64)
    rows = ["s,x,y,theta"] + [f"{float(s)!r},{float(s)!r},0.0,0.0" for s in t]
    path = tmp_path / "arc.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert cli.main(["analyze", str(path), "--out-dir", str(tmp_path / "o")]) == 2


def test_analyze_flagged_open_arc_rejected(tmp_path, capsys):
    # three quarters of a circle saved with "closed": true; the endpoints decide
    arc = ellipse_curve(512, a=1.0, b=1.0)
    arc = PlanarCurve(s=arc.s[:385], pos=arc.pos[:385], theta=arc.theta[:385])
    path = tmp_path / "arc.json"
    cli.write_curve_json(path, arc)
    data = json.loads(path.read_text())
    assert data["closed"] is False
    data["closed"] = True
    path.write_text(json.dumps(data), encoding="utf-8")
    assert cli.main(["analyze", str(path), "--out-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: curve is not closed\n"


def test_analyze_short_tags_rejected(tmp_path, capsys):
    path = tmp_path / "ellipse.json"
    cli.write_curve_json(path, ellipse_curve(512))
    data = json.loads(path.read_text())
    data["t"] = data["t"][:2]
    path.write_text(json.dumps(data), encoding="utf-8")
    assert cli.main(["analyze", str(path), "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad curve file") and err.count("\n") == 1


def test_analyze_too_few_samples_rejected(tmp_path, capsys):
    # a unit circle through 1, i, -1, -i: four samples once the duplicated
    # closing one is dropped; its chords agree with s and theta
    k = np.arange(5)
    pos = np.exp(0.5j * math.pi * k)
    pos[-1] = 1.0
    curve = PlanarCurve(s=0.5 * math.pi * k, pos=pos, theta=0.5 * math.pi * (k + 1))
    path = tmp_path / "circle.csv"
    cli.write_curve_csv(path, curve)
    assert cli.main(["analyze", str(path), "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: curve has too few samples") and err.count("\n") == 1


@pytest.mark.parametrize("column, change", [("theta", lambda v: 0.0 * v),
                                            ("s", lambda v: 3.0 * v)],
                         ids=["theta_zero", "s_tripled"])
def test_analyze_columns_contradicting_positions_rejected(tmp_path, capsys, column, change):
    # the positions of a 2:1 ellipse with a tangent angle that never turns,
    # or an arc length three times the perimeter, read as no curve at all
    path = tmp_path / "ellipse.json"
    cli.write_curve_json(path, ellipse_curve(512))
    data = json.loads(path.read_text())
    data[column] = list(change(np.asarray(data[column])))
    path.write_text(json.dumps(data), encoding="utf-8")
    assert cli.main(["analyze", str(path), "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad curve file: chord ") and err.count("\n") == 1


def test_analyze_non_finite_sample_rejected(tmp_path, capsys):
    path = tmp_path / "ellipse.csv"
    cli.write_curve_csv(path, ellipse_curve(512))
    rows = path.read_text().splitlines()
    s, _x, y, theta = rows[100].split(",")
    rows[100] = ",".join((s, "nan", y, theta))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert cli.main(["analyze", str(path), "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad curve file") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["synth", "analyze"])
@pytest.mark.parametrize("text", ["[1, 2, 3]",
                                  '{"samples": {}, "s": {}, "x": {}, "y": {}, "theta": {}}'])
def test_malformed_json_rejected(tmp_path, capsys, command, text):
    # JSON of the wrong shape fails with TypeError, not ValueError, inside the readers
    src = tmp_path / "input.json"
    src.write_text(text + "\n", encoding="utf-8")
    assert cli.main([command, str(src), "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad curv") and err.count("\n") == 1


@pytest.mark.parametrize("command, text", [
    ("synth", "t,kappa"), ("synth", "t,kappa\n0,1,2"),
    ("analyze", "s,x,y,theta"), ("analyze", "s,x,y,theta\n0,0,0\n1,1,0"),
])
def test_malformed_csv_rejected(tmp_path, capsys, command, text):
    # a header without data rows, or rows of the wrong width
    src = tmp_path / "input.csv"
    src.write_text(text + "\n", encoding="utf-8")
    assert cli.main([command, str(src), "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad curv") and err.count("\n") == 1


def test_curve_round_trip_formats(tmp_path):
    curve = ellipse_curve(512)
    csv_path = tmp_path / "c.csv"
    cli.write_curve_csv(csv_path, curve)
    back = cli.read_curve_file(csv_path)
    assert np.max(np.abs(back.pos - curve.pos)) < 1e-15
    json_path = tmp_path / "c.json"
    cli.write_curve_json(json_path, curve)
    back = cli.read_curve_file(json_path)
    assert np.max(np.abs(back.pos - curve.pos)) < 1e-15
    assert back.t is not None


def test_outputs_are_deterministic(tmp_path):
    src = tmp_path / "kappa.csv"
    write_kappa_csv(src, lambda t: 1.5 + math.cos(2 * t))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["synth", str(src), "--out-dir", str(out),
                         "--grid", "1024"]) == 0
        outs.append((out / "curve.csv").read_bytes()
                    + (out / "diagnostics.json").read_bytes())
    assert outs[0] == outs[1]
    diag = json.loads((tmp_path / "a" / "diagnostics.json").read_text())
    assert 0.0 < diag["certificate_h"] <= 0.5
    assert 0.0 < diag["certified_radius"] < 1e-6


@pytest.mark.parametrize("which", ["bicircle", "compass", "tetrahedron"])
def test_demos_emit_wellformed_svg(tmp_path, which):
    out = tmp_path / "demo"
    code = cli.main(["demo", which, "--out-dir", str(out), "--grid", "1024"])
    assert code == 0
    svg = (out / f"{which}.svg").read_text()
    root = ET.fromstring(svg)
    assert "viewBox" in root.attrib


def test_demo_compass_file_size_bounded_on_large_grids(tmp_path):
    # each panel draws about DRAWN_PANEL_SAMPLES of its samples; every
    # sample of all 8 panels at this grid would take ~9 MB
    out = tmp_path / "demo"
    assert cli.main(["demo", "compass", "--grid", "65536", "--out-dir", str(out)]) == 0
    assert (out / "compass.svg").stat().st_size < 1_000_000


@pytest.mark.parametrize("command", ["synth", "analyze", "demo"])
def test_out_dir_naming_a_file_exits_io(tmp_path, capsys, command):
    afile = tmp_path / "afile"
    afile.write_text("")
    if command == "synth":
        src = tmp_path / "kappa.csv"
        write_kappa_csv(src, lambda t: 1.0)
        argv = ["synth", str(src), "--grid", "512"]
    elif command == "analyze":
        src = tmp_path / "ellipse.json"
        cli.write_curve_json(src, ellipse_curve(512))
        argv = ["analyze", str(src)]
    else:
        argv = ["demo", "tetrahedron"]
    assert cli.main(argv + ["--out-dir", str(afile)]) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert afile.read_text() == ""


@pytest.mark.parametrize("args", [["--panels", "2"], ["--radius", "1.5"],
                                  ["--panels", "3", "--radius", "0.9"],
                                  ["--panels", "8", "--radius", "0.95"]],
                         ids=["two_panels", "radius_above_one", "three_panels_at_0.9",
                              "eight_panels_at_0.95"])
def test_demo_compass_bad_arguments_rejected(tmp_path, capsys, args):
    out = tmp_path / "demo"
    assert cli.main(["demo", "compass", "--out-dir", str(out), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_demo_tetrahedron_core_segment_endpoints(tmp_path):
    out = tmp_path / "demo"
    assert cli.main(["demo", "tetrahedron", "--out-dir", str(out)]) == 0
    svg = (out / "tetrahedron.svg").read_text()
    p0 = cli._project((0.0, 0.5, 0.5))
    p1 = cli._project((0.5, 0.5, 1.0))
    assert f"{p0[0]:.6g},{-p0[1]:.6g}" in svg
    assert f"{p1[0]:.6g},{-p1[1]:.6g}" in svg


def test_json_profile_input(tmp_path):
    n = 512
    t = TWO_PI * np.arange(n) / n
    data = {"n": n, "samples": list(1.5 + np.cos(2 * t)), "interp": "linear"}
    src = tmp_path / "kappa.json"
    src.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["synth", str(src), "--out-dir", str(out),
                     "--grid", "2048"]) == 0


def test_json_step_profile_rejected(tmp_path, capsys):
    # profiles interpolate linearly only; a step function is no profile
    n = 512
    t = TWO_PI * np.arange(n) / n
    data = {"samples": list(1.5 + np.cos(2 * t)), "interp": "step"}
    src = tmp_path / "kappa.json"
    src.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["synth", str(src), "--out-dir", str(out), "--grid", "2048"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad curvature file: ") and err.count("\n") == 1
    assert not out.exists()
