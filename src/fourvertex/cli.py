"""Command line surface: synth, analyze and demo subcommands."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, bicircle, moebius, solver
from .curvature import (
    TWO_PI,
    CurvatureProfile,
    HypothesisViolated,
    StepSpec,
    normalize_total,
    profile_from_step,
)
from .integrator import PlanarCurve, TooFewSamples, error_vector, integrate_curve
from .svg import Drawing

EXIT_OK = 0
EXIT_IO = 1
EXIT_INPUT = 2
EXIT_FAILED = 3

MAX_GRID = 1 << 18           # a synthesis at this grid stays under 512 MiB
MAX_PANEL_SAMPLES = 1 << 21  # compass panels keep --grid + 1 samples each, this many in all
DRAWN_PANEL_SAMPLES = 4097   # a compass panel draws about this many, all at the default grid

# the chords of 512-sample corpus curves deviate from their arcs by < 3e-4 in
# angle and relative length, those of synthesized curves by < 1e-10
CHORD_ANGLE_TOL = 0.1    # rad
CHORD_LENGTH_TOL = 0.05  # relative


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def read_curvature_file(path: Path, n: int) -> CurvatureProfile:
    """Read a t,kappa CSV or a JSON profile and resample onto the grid."""
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() == ".json":
        data = json.loads(text)
        samples = np.asarray(data["samples"], dtype=float)
        prof = CurvatureProfile(samples, data.get("interp", "linear"))
        if prof.n == n:
            return prof
        grid = TWO_PI * np.arange(n) / n
        return CurvatureProfile(np.asarray(prof(grid), dtype=float))
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].replace(" ", "") != "t,kappa":
        raise ValueError("curvature CSV must start with header 't,kappa'")
    ts, ks = [], []
    for ln in lines[1:]:
        a, b = ln.split(",")
        ts.append(float(a))
        ks.append(float(b))
    if not ts:
        raise ValueError("curvature CSV has no data rows")
    ts = np.asarray(ts)
    ks = np.asarray(ks)
    if np.any(np.diff(ts) <= 0) or ts[0] < 0 or ts[-1] >= TWO_PI:
        raise ValueError("CSV parameters must increase strictly within [0, 2*pi)")
    grid = TWO_PI * np.arange(n) / n
    samples = np.interp(grid, ts, ks, period=TWO_PI)
    return CurvatureProfile(samples)


def write_curve_csv(path: Path, curve: PlanarCurve):
    rows = ["s,x,y,theta"]
    for s, p, th in zip(curve.s, curve.pos, curve.theta):
        rows.append(f"{_fmt(s)},{_fmt(p.real)},{_fmt(p.imag)},{_fmt(th)}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def write_curve_json(path: Path, curve: PlanarCurve):
    data = {
        "s": [float(v) for v in curve.s],
        "x": [float(p.real) for p in curve.pos],
        "y": [float(p.imag) for p in curve.pos],
        "theta": [float(v) for v in curve.theta],
        "closed": bool(curve.closed),
        "scale": float(curve.scale),
    }
    if curve.t is not None:
        data["t"] = [float(v) for v in curve.t]
    path.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n",
                    encoding="utf-8")


def _check_chords(curve: PlanarCurve) -> PlanarCurve:
    """The curve, if its s and theta columns agree with its positions.

    An arc of length ds turning from theta_j to theta_j+1 has a chord along
    the mid angle, of length ds * sinc(dtheta / 2).  A chord more than
    CHORD_ANGLE_TOL off that angle, or whose length is off by more than
    CHORD_LENGTH_TOL relative, raises ValueError.
    """
    chord = np.diff(curve.pos)
    mid = 0.5 * (curve.theta[1:] + curve.theta[:-1])
    off = np.abs(np.angle(chord * np.exp(-1j * mid)))
    arc = np.diff(curve.s) * np.sinc(np.diff(curve.theta) / TWO_PI)
    stretch = np.abs(np.abs(chord) / arc - 1.0)
    bad = np.flatnonzero((off > CHORD_ANGLE_TOL) | (stretch > CHORD_LENGTH_TOL))
    if bad.size:
        j = int(bad[0])
        raise ValueError(f"chord {j} contradicts the s and theta columns (direction off by "
                         f"{off[j]:.3g} rad, length by {stretch[j]:.3g})")
    return curve


def read_curve_file(path: Path) -> PlanarCurve:
    """Read a curve written by write_curve_csv or write_curve_json.

    The s and theta columns must agree with the positions (_check_chords).
    A JSON ``closed`` key is ignored: the endpoints decide whether the curve
    is closed.
    """
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() == ".json":
        data = json.loads(text)
        pos = np.asarray(data["x"], float) + 1j * np.asarray(data["y"], float)
        return _check_chords(PlanarCurve(
            s=np.asarray(data["s"], float), pos=pos,
            theta=np.asarray(data["theta"], float),
            scale=float(data.get("scale", 1.0)),
            t=np.asarray(data["t"], float) if "t" in data else None))
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].replace(" ", "") != "s,x,y,theta":
        raise ValueError("curve CSV must start with header 's,x,y,theta'")
    cols = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    if cols.ndim != 2 or cols.shape[1] != 4:
        raise ValueError("curve CSV needs data rows of four columns")
    return _check_chords(PlanarCurve(s=cols[:, 0], pos=cols[:, 1] + 1j * cols[:, 2],
                                     theta=cols[:, 3]))


def _curve_svg(curve: PlanarCurve, circle=None, vertices=None) -> str:
    d = Drawing(stroke_width=0.008 * max(1.0, float(np.max(np.abs(curve.pos)))))
    d.path(curve.pos)
    if circle is not None:
        d.circle(circle.center.real, circle.center.imag, circle.radius,
                 color="#3366cc")
    if vertices is not None:
        for (t0, _t1), kind, _v in vertices:
            j = int(np.argmin(np.abs((curve.t if curve.t is not None else curve.s)
                                     - t0)))
            p = curve.pos[j]
            d.dot(p.real, p.imag, 2.5 * d.stroke_width,
                  color="#cc0000" if kind == "max" else "#008800")
    return d.to_string()


def _interval_json(interval) -> dict:
    t0, t1 = interval
    return {"t_start": t0, "t_end": t1, "wraps": bool(t1 < t0)}


def _vertex_report_json(report: analysis.VertexReport) -> dict:
    return {
        "count": report.count,
        "vertices": [
            {"interval": _interval_json(iv), "kind": kind, "value": value}
            for iv, kind, value in report.vertices
        ],
    }


def _osserman_json(rep: analysis.OssermanReport) -> dict:
    return {
        "circle": {"center": [rep.circle.center.real, rep.circle.center.imag],
                   "radius": rep.circle.radius},
        "components": [
            {"interval": _interval_json(c.interval), "kind": c.kind}
            for c in rep.components
        ],
        "n": rep.n,
        "vertex_count": rep.vertex_count,
        "bound_2n_satisfied": rep.bound_2n_satisfied,
        "per_gap_low_points": [list(p) for p in rep.per_gap_low_points],
        "per_component_high_points": [list(p) for p in rep.per_component_high_points],
        "bonus_vertices": rep.bonus_vertices,
        "bonus_bound_satisfied": rep.bonus_bound_satisfied,
        "contact_gap": rep.contact_gap,
    }


def _save(out_dir: Path, write) -> bool:
    """Create out_dir and call write(out_dir); an OSError prints one error line, False."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        write(out_dir)
    except OSError as ex:
        print(f"error: cannot write to {out_dir}: {ex}", file=sys.stderr)
        return False
    return True


def _save_text(out_dir: Path, name: str, text: str) -> bool:
    return _save(out_dir, lambda d: (d / name).write_text(text, encoding="utf-8"))


def cmd_synth(args) -> int:
    out_dir = Path(args.out_dir)
    try:
        profile = read_curvature_file(Path(args.kappa_file), args.grid)
    except OSError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, KeyError, TypeError) as ex:
        print(f"error: bad curvature file: {ex}", file=sys.stderr)
        return EXIT_IO
    try:
        result = solver.synthesize(profile, eps0=args.eps0)
    except HypothesisViolated as ex:
        print(f"hypothesis violated: {ex}", file=sys.stderr)
        return EXIT_INPUT
    except solver.BadParameter as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_INPUT
    except solver.SynthesisFailed as ex:
        print(ex, file=sys.stderr)
        return EXIT_FAILED
    diag = dict(dataclasses.asdict(result.diagnostics),
                beta_star=[result.beta_star.beta.real, result.beta_star.beta.imag],
                eps_used=result.eps_used, scale=result.scale.c,
                sign_flipped=result.sign_flipped)

    def write(d: Path):
        if args.format == "csv":
            write_curve_csv(d / "curve.csv", result.curve)
        else:
            write_curve_json(d / "curve.json", result.curve)
        (d / "diagnostics.json").write_text(
            json.dumps(diag, sort_keys=True, indent=1) + "\n", encoding="utf-8")
        if args.svg:
            (d / "curve.svg").write_text(_curve_svg(result.curve), encoding="utf-8")

    if not _save(out_dir, write):
        return EXIT_IO
    print(f"closed curve written to {out_dir} (|E| = "
          f"{result.diagnostics.final_error:.3e})")
    return EXIT_OK


def cmd_analyze(args) -> int:
    out_dir = Path(args.out_dir)
    try:
        curve = read_curve_file(Path(args.curve_file))
    except OSError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, KeyError, TypeError) as ex:
        print(f"error: bad curve file: {ex}", file=sys.stderr)
        return EXIT_IO
    out: dict = {"simple": True}
    circle = None
    vertices = None
    try:
        try:
            oss = analysis.osserman_check(curve)
        except analysis.NotSimple:
            out["simple"] = False
            circle = analysis.min_enclosing_circle(curve.pos)
            report = analysis.detect_vertices(curve)
        else:
            out["osserman"] = _osserman_json(oss)
            circle = oss.circle
            report = analysis.VertexReport(oss.vertices, oss.vertex_count)
        out["vertex_report"] = _vertex_report_json(report)
        vertices = report.vertices
    except analysis.NotClosed:
        print("error: curve is not closed", file=sys.stderr)
        return EXIT_INPUT
    except analysis.ConstantCurvature:
        out["vertex_report"] = {"count": 0, "vertices": [],
                                "constant_curvature": True}
        if out["simple"]:
            out["osserman"] = {"constant_curvature": True}
    except TooFewSamples as ex:
        print(f"error: curve has too few samples: {ex}", file=sys.stderr)
        return EXIT_INPUT

    def write(d: Path):
        (d / "analysis.json").write_text(
            json.dumps(out, sort_keys=True, indent=1) + "\n", encoding="utf-8")
        if args.svg:
            (d / "analysis.svg").write_text(
                _curve_svg(curve, circle=circle, vertices=vertices), encoding="utf-8")

    if not _save(out_dir, write):
        return EXIT_IO
    print(f"analysis written to {out_dir}")
    return EXIT_OK


def _demo_bicircle(args, out_dir: Path) -> int:
    k0 = profile_from_step(StepSpec(0.5, 2.0), n=args.grid)
    curve = integrate_curve(normalize_total(k0)[0])
    err = error_vector(curve).magnitude
    d = Drawing(stroke_width=0.01)
    d.path(curve.pos, closed=True)
    if not _save_text(out_dir, "bicircle.svg", d.to_string()):
        return EXIT_IO
    print(f"bicircle |E| = {err:.3e}")
    return EXIT_OK


def _demo_compass(args, out_dir: Path) -> int:
    try:
        panels = solver.compass_demo(0.5, 2.0, args.radius, args.panels,
                                     n_grid=args.grid)
    except (ValueError, moebius.NumericallyDegenerate) as ex:
        # a radius outside (0, 1), or too few panels for the error loop
        # to resolve its winding at that radius
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_INPUT
    d = Drawing(stroke_width=0.02)
    spread = 9.0
    for j, (beta, curve, err) in enumerate(panels):
        phi = TWO_PI * j / len(panels)
        anchor = spread * complex(math.cos(phi), math.sin(phi))
        stride = -(-curve.pos.size // DRAWN_PANEL_SAMPLES)
        d.path(np.append(curve.pos[:-1:stride], curve.pos[-1]) + anchor)
        tip = anchor + err.e
        d.arrow(anchor.real, anchor.imag, tip.real, tip.imag)
    winding = solver.winding_number([e.e for _, _, e in panels])
    if not _save_text(out_dir, "compass.svg", d.to_string()):
        return EXIT_IO
    print(f"compass error-loop winding = {winding:+d}")
    return EXIT_OK


def _project(xyz) -> tuple[float, float]:
    x, y, z = xyz
    # oblique projection keeps the tetrahedron legible
    return x + 0.42 * y, z + 0.28 * y


def _demo_tetrahedron(args, out_dir: Path) -> int:
    corners = [(0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 1.0, 1.0), (1.0, 1.0, 1.0)]
    d = Drawing(stroke_width=0.004)
    for i in range(4):
        for j in range(i + 1, 4):
            a, b = _project(corners[i]), _project(corners[j])
            d.polyline([a, b], color="#888888")
    p0 = bicircle.Configuration(1, 1j, -1, -1j)
    radii = np.linspace(0.08, 0.92, 12)
    angles = TWO_PI * np.arange(48) / 48

    def image(beta: complex):
        cfg = moebius.moebius_on_config(beta, p0)
        _, coords = bicircle.to_reduced(cfg)
        return _project((coords.x, coords.y, coords.z))

    for r in radii:
        d.polyline([image(r * np.exp(1j * a)) for a in angles],
                   color="#3366cc", closed=True)
    for a in angles[::4]:
        d.polyline([image(r * np.exp(1j * a)) for r in radii], color="#3366cc")
    core = [_project((0.0, 0.5, 0.5)), _project((0.5, 0.5, 1.0))]
    d.polyline(core, color="#cc0000", width=0.008)
    if not _save_text(out_dir, "tetrahedron.svg", d.to_string()):
        return EXIT_IO
    print("tetrahedron demo written")
    return EXIT_OK


def cmd_demo(args) -> int:
    out_dir = Path(args.out_dir)
    if args.which == "bicircle":
        return _demo_bicircle(args, out_dir)
    if args.which == "compass":
        return _demo_compass(args, out_dir)
    return _demo_tetrahedron(args, out_dir)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fourvertex",
        description="Synthesize plane curves with preassigned curvature and "
                    "analyze vertices of closed curves.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="realize a curvature profile as a closed curve")
    p.add_argument("kappa_file")
    p.add_argument("--eps0", type=float, default=0.1)
    p.add_argument("--grid", type=int, default=4096,
                   help=f"profile grid size (power of two, 512 to {MAX_GRID})")
    p.add_argument("--out-dir", default="out")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("analyze", help="vertex and enclosing-circle report")
    p.add_argument("curve_file")
    p.add_argument("--out-dir", default="out")
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("demo", help="figure demos")
    p.add_argument("which", choices=("bicircle", "compass", "tetrahedron"))
    p.add_argument("--panels", type=int, default=8,
                   help=f"compass panels, at most {MAX_PANEL_SAMPLES} / --grid")
    p.add_argument("--radius", type=float, default=0.2)
    p.add_argument("--grid", type=int, default=4096,
                   help=f"profile grid size (power of two, 512 to {MAX_GRID})")
    p.add_argument("--out-dir", default="out")
    p.set_defaults(func=cmd_demo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if "grid" in args and (not 512 <= args.grid <= MAX_GRID or args.grid & (args.grid - 1)):
        print(f"error: --grid must be a power of two from 512 to {MAX_GRID}", file=sys.stderr)
        return EXIT_INPUT
    if getattr(args, "which", None) == "compass" and args.panels * args.grid > MAX_PANEL_SAMPLES:
        print(f"error: --panels must be at most {MAX_PANEL_SAMPLES // args.grid} "
              f"at --grid {args.grid}", file=sys.stderr)
        return EXIT_INPUT
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
