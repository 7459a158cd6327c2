"""Command-line entry points.

Four subcommands share one JSON project configuration:

  design    synthesize and judge a tank, emit report + gain curves
  simulate  time-domain runs (transient, periodic steady state, load step)
  solve     invert the gain curve for one operating point
  sweep     export a gain-curve family for external tooling

Exit codes: 0 success, 1 configuration error, 2 infeasible or unreachable
operating point, 3 numerical failure.  All runs are deterministic; the
``--seed`` flag is accepted for interface stability but nothing consumes
randomness.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .config import ConfigError, ProjectConfig, SCHEMA_VERSION, load_config
from .control import (
    ControllerConfig,
    baseline_frequency,
    default_controller,
    run_load_step,
)
from .gain import (
    SHORT_CIRCUIT_FN_TOL,
    SHORT_CIRCUIT_QE,
    BelowAsymptote,
    GainError,
    UnreachableGain,
    classify_region,
    gain_magnitude,
    solve_frequency,
)
from .sim import LoadSpec, SimConfig, SimError, run_transient
from .steady_state import NoConvergence, find_pop
from .svgplot import HLine, Series, render_line_plot
from .synthesis import (
    DesignReport,
    check_feasibility,
    choose_turns_ratio,
    round_components,
    search_design_point,
    synthesize_tank,
)
from .tank import NormalizedPoint, effective_load, normalize, series_resonance

__all__ = ["main", "EXIT_OK", "EXIT_CONFIG", "EXIT_INFEASIBLE", "EXIT_NUMERIC"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_NUMERIC = 3

SIM_MODES = ("transient", "pop", "step")


class _Parser(argparse.ArgumentParser):
    # bad usage is a configuration problem, keep it on exit code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _build_parser() -> _Parser:
    p = _Parser(prog="llc",
                description="LLC resonant half-bridge design and simulation")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, metavar="FILE",
                        help="project configuration JSON")
        sp.add_argument("--out", metavar="DIR",
                        help="output directory (default: config output_dir, "
                             "then $LLC_OUT, then the working directory)")
        sp.add_argument("--json", action="store_true",
                        help="print machine-readable results on stdout")
        sp.add_argument("--seed", type=int, default=None,
                        help="reserved; runs are deterministic")

    d = sub.add_parser("design", help="synthesize a tank and judge feasibility")
    common(d)
    d.add_argument("--series", choices=("E12", "E24", "none"),
                   help="component series for rounding (none: exact values)")
    d.set_defaults(func=cmd_design)

    s = sub.add_parser("simulate", help="run the switched-circuit model")
    s.add_argument("mode", choices=SIM_MODES)
    common(s)
    s.set_defaults(func=cmd_simulate)

    v = sub.add_parser("solve", help="frequency for one operating point")
    common(v)
    v.add_argument("--target-vout", type=float, required=True, metavar="V")
    v.add_argument("--vin", type=float, metavar="V",
                   help="input voltage (default: nominal)")
    v.add_argument("--iout", type=float, metavar="A",
                   help="load current (default: maximum)")
    v.set_defaults(func=cmd_solve)

    w = sub.add_parser("sweep", help="export a gain-curve family")
    common(w)
    w.add_argument("--qe", metavar="Q1,Q2,...",
                   help="comma-separated Qe values (default: derived set)")
    w.add_argument("--fn-lo", type=float, default=0.1)
    w.add_argument("--fn-hi", type=float, default=10.0)
    w.add_argument("--samples", type=int, default=480)
    w.set_defaults(func=cmd_sweep)
    return p


def _resolve_out(args, cfg: ProjectConfig) -> Path:
    out = args.out or cfg.output_dir or os.environ.get("LLC_OUT") or "."
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError("output_dir", f"cannot create {path}: {exc}") from exc
    if not os.access(path, os.W_OK):
        raise ConfigError("output_dir", f"not writable: {path}")
    return path


def _design_tank(cfg: ProjectConfig) -> tuple:
    """(tank, n): the configured tank, or one synthesized at the configured
    or searched (Ln, Qe)."""
    ov = cfg.overrides
    req = cfg.requirements
    if ov.tank is not None:
        return ov.tank, ov.tank.n
    n = ov.n if ov.n is not None else choose_turns_ratio(req)
    if ov.Ln is not None:
        ln, qe = ov.Ln, ov.Qe
    else:
        ln, qe = search_design_point(req, n)
    return synthesize_tank(req, n, ln, qe), n


def _build_design(cfg: ProjectConfig, series: str | None) -> DesignReport:
    tank, n = _design_tank(cfg)
    return check_feasibility(
        tank, cfg.requirements, n,
        series=series if series is not None else cfg.overrides.series)


def _sim_report(cfg: ProjectConfig) -> DesignReport:
    """Design report of the components one would actually build.

    Feasibility and frequency solutions must describe the rounded tank the
    simulator integrates, not the exact synthesis values, so the tank is
    rounded first and judged once, as it is.
    """
    tank, n = _design_tank(cfg)
    rounded, _ = round_components(tank, cfg.overrides.series)
    return check_feasibility(rounded, cfg.requirements, n, series="none")


def _assemble_controller(cfg: ProjectConfig, design: DesignReport) -> ControllerConfig:
    base = default_controller(design)
    overrides = {k: v for k, v in asdict(cfg.controller).items() if v is not None}
    if not overrides:
        return base
    try:
        return replace(base, **overrides)
    except ValueError as exc:
        raise ConfigError("controller", str(exc)) from exc


def _sim_inputs(cfg: ProjectConfig, design: DesignReport):
    """(vin, load, fsw, controller) with design-derived defaults filled in."""
    req = cfg.requirements
    vin = cfg.sim.vin if cfg.sim.vin is not None else req.vin_nom
    load = cfg.sim.load if cfg.sim.load is not None else LoadSpec.current(req.iout_max)
    ctrl = _assemble_controller(cfg, design)
    if cfg.sim.fsw is not None:
        fsw = cfg.sim.fsw
    else:
        fsw = baseline_frequency(design, load, ctrl.v_ref)
    return vin, load, fsw, ctrl


def _jnum(x) -> float | None:
    x = float(x)
    return x if math.isfinite(x) else None


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, allow_nan=False)
        f.write("\n")


def _emit(args, doc: dict, human: list[str]) -> None:
    if args.json:
        print(json.dumps(doc, indent=2, allow_nan=False))
    else:
        for line in human:
            print(line)


# --- design -----------------------------------------------------------------

def _curve_qe_set(qe_full: float) -> list[float]:
    qes = [0.0, 0.5 * qe_full, qe_full, 2.0 * qe_full, 5.0 * qe_full]
    return [round(q, 6) for q in qes]


def _gain_table(report: DesignReport, fn: np.ndarray, qes) -> list[tuple[str, np.ndarray]]:
    cols = [(f"Mg_Qe={q:g}", gain_magnitude(report.Ln, q, fn)) for q in qes]
    # short_circuit_gain per sample, inf where it rejects the series resonance
    sc = np.where(np.abs(fn - 1.0) < SHORT_CIRCUIT_FN_TOL, np.inf,
                  gain_magnitude(report.Ln, SHORT_CIRCUIT_QE, fn))
    cols.append(("Mg_short_circuit", sc))
    return cols


def _write_curve_csv(path: Path, fn: np.ndarray, cols) -> None:
    texts = [map(repr, c.tolist()) for c in [fn] + [c for _, c in cols]]
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(["fn"] + [name for name, _ in cols]) + "\n")
        f.writelines(",".join(row) + "\n" for row in zip(*texts))


def _write_curve_svg(path: Path, report: DesignReport, fn: np.ndarray, cols) -> None:
    ymax = max(1.5, 1.15 * report.Mg_peak)
    series = []
    x = tuple(fn.tolist())
    for name, mg in cols:
        short = name == "Mg_short_circuit"
        label = "short circuit" if short else name[3:].replace("=", " = ")
        series.append(Series(label=label, x=x, y=tuple(mg.tolist()),
                             dash="5 4" if short else None,
                             width=1.4 if short else 1.6))
    render_line_plot(
        path, series,
        title="Voltage gain vs normalized frequency",
        xlabel="fn = fsw / f0", ylabel="|Mg|",
        logx=True, xlim=(float(fn[0]), float(fn[-1])), ylim=(0.0, ymax),
        hlines=(HLine(report.band.Mg_max, f"Mg_max = {report.band.Mg_max:.3f}"),
                HLine(report.band.Mg_min, f"Mg_min = {report.band.Mg_min:.3f}")))


def cmd_design(args) -> int:
    cfg = load_config(args.config)
    try:
        report = _build_design(cfg, args.series)
    except ValueError as exc:
        print(f"error: design search failed: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    outdir = _resolve_out(args, cfg)

    doc = {"schema_version": SCHEMA_VERSION}
    doc.update(report.to_dict())
    _write_json(outdir / "design.json", doc)

    fn = np.geomspace(0.1, 10.0, 480)
    cols = _gain_table(report, fn, _curve_qe_set(report.Qe))
    _write_curve_csv(outdir / "gain_curves.csv", fn, cols)
    _write_curve_svg(outdir / "gain_curves.svg", report, fn, cols)

    t = report.tank_rounded
    human = [
        f"feasible: {report.feasible}",
        f"n = {report.n:.4f}, Ln = {report.Ln:.4f}, Qe = {report.Qe:.4f}",
        f"tank: Cr = {t.Cr * 1e9:.2f} nF, Lr = {t.Lr * 1e6:.2f} uH, "
        f"Lm = {t.Lm * 1e6:.2f} uH",
        f"gain band: [{report.band.Mg_min:.4f}, {report.band.Mg_max:.4f}], "
        f"peak {report.Mg_peak:.4f} at fn = {report.fn_peak:.4f}",
    ]
    if report.fsw_band is not None:
        human.append(f"frequency band: {report.fsw_band[0]:.0f} .. "
                     f"{report.fsw_band[1]:.0f} Hz")
    human.extend(f"warning: {w}" for w in report.warnings)
    human.append(f"wrote {outdir / 'design.json'}, gain_curves.csv, gain_curves.svg")
    _emit(args, doc, human)
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


# --- simulate ---------------------------------------------------------------

def _tail_window(t: np.ndarray, fsw: float, t_end: float) -> np.ndarray:
    if t.size == 0:
        return np.zeros(0, dtype=bool)
    span = max(0.1 * t_end, 1.0 / fsw)
    return t >= t_end - span


def _metrics_transient(res, fsw: float, t_end: float) -> dict:
    wf = res.waveform
    sel = _tail_window(wf.t, fsw, t_end)
    v = wf["vOut"][sel]
    e = res.energy
    return {
        "mode": "transient",
        "fsw": fsw,
        "t_end": t_end,
        "periods": res.periods,
        "samples": int(wf.t.size),
        "events": len(res.events),
        "vOut_final": _jnum(wf["vOut"][-1]) if wf.t.size else None,
        "vOut_mean_tail": _jnum(np.mean(v)) if v.size else None,
        "iLr_peak": _jnum(np.max(np.abs(wf["iLr"]))) if wf.t.size else None,
        "zvs": {"edges": len(res.zvs.edges),
                "soft_fraction": res.zvs.soft_fraction,
                "all_soft": res.zvs.all_soft},
        "energy": {"source": e["source"], "load": e["load"]},
    }


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    try:
        design = _sim_report(cfg)
    except ValueError as exc:
        print(f"error: design failed: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    try:
        vin, load, fsw, ctrl = _sim_inputs(cfg, design)
    except GainError as exc:
        print(f"error: operating point unreachable: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    outdir = _resolve_out(args, cfg)
    mode = args.mode
    s = cfg.sim

    try:
        if mode == "transient":
            sim_cfg = SimConfig(tank=design.tank, vin=vin, fsw=fsw, load=load,
                                t_end=s.t_end, dt_max=s.dt_max,
                                record_stride=s.record_stride,
                                soft_start=s.soft_start)
            res = run_transient(sim_cfg)
            wf, metrics = res.waveform, _metrics_transient(res, fsw, s.t_end)
        elif mode == "pop":
            base = LoadSpec(load.kind, (load.points[0],))
            sim_cfg = SimConfig(tank=design.tank, vin=vin, fsw=fsw, load=base,
                                t_end=1.0, dt_max=s.dt_max)
            pr = find_pop(sim_cfg)
            m = pr.metrics
            wf = pr.waveform
            metrics = {
                "mode": "pop",
                "fsw": pr.fsw,
                "method": pr.method,
                "residual": pr.residual,
                "cycles": pr.cycles,
                "vOut_mean": m.vout_mean,
                "vOut_ripple": m.vout_ripple,
                "iLr_rms": m.ilr_rms,
                "iLr_peak": m.ilr_peak,
                "p_source": m.p_source,
                "p_load": m.p_load,
                "zvs_all": m.zvs_all,
            }
        else:
            out, rep = run_load_step(design, load, ctrl=ctrl, t_end=s.t_end,
                                     record_stride=s.record_stride, band=s.band,
                                     dt_max=s.dt_max)
            wf = out.sim.waveform
            metrics = {
                "mode": "step",
                "v_ref": rep.v_ref,
                "band": rep.band,
                "t_step": rep.t_step,
                "vOut_min": _jnum(rep.vout_min),
                "vOut_max": _jnum(rep.vout_max),
                "max_deviation": _jnum(rep.max_deviation),
                "recovery_time": rep.recovery_time,
                "settles": rep.settles,
                "fsw_lo": rep.fsw_lo,
                "fsw_hi": rep.fsw_hi,
                "final_vOut": _jnum(rep.final_vout),
                "final_fsw": rep.final_fsw,
            }
    except NoConvergence as exc:
        t_fail = exc.cycles / fsw
        print(f"error: steady state not reached: {exc} (t = {t_fail:.6e} s)",
              file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        # load-step baseline rejection and kindred pre-run checks
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE

    wf.to_csv(outdir / f"wave_{mode}.csv")
    doc = {"schema_version": SCHEMA_VERSION}
    doc.update(metrics)
    _write_json(outdir / f"metrics_{mode}.json", doc)
    human = [f"{k} = {v}" for k, v in metrics.items() if not isinstance(v, dict)]
    human.append(f"wrote {outdir / f'wave_{mode}.csv'} and metrics_{mode}.json")
    _emit(args, doc, human)
    return EXIT_OK


# --- solve ------------------------------------------------------------------

def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    try:
        design = _sim_report(cfg)
    except ValueError as exc:
        print(f"error: design failed: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    req = cfg.requirements
    tank = design.tank
    vin = args.vin if args.vin is not None else req.vin_nom
    iout = args.iout if args.iout is not None else req.iout_max
    vout = args.target_vout
    # a NaN fails every comparison, so it is rejected too
    if not (0 < vin < math.inf and 0 < vout < math.inf
            and 0 <= iout < math.inf):
        print("error: need finite vin > 0, target vout > 0, iout >= 0",
              file=sys.stderr)
        return EXIT_CONFIG

    rl = math.inf if iout == 0.0 else vout / iout
    re = effective_load(tank.n, rl)
    f0 = series_resonance(tank)
    qe = normalize(tank, re, f0).Qe
    mg = 2.0 * tank.n * vout / vin
    try:
        fn = solve_frequency(tank.Ln, qe, mg)
    except UnreachableGain as exc:
        print(f"error: unreachable operating point: {exc} "
              f"(peak |Mg| = {exc.Mg_peak:.4f} at fn = {exc.fn_peak:.4f})",
              file=sys.stderr)
        return EXIT_INFEASIBLE
    except BelowAsymptote as exc:
        print(f"error: unreachable operating point: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    fsw = fn * f0
    region = classify_region(NormalizedPoint(tank.Ln, qe, fn)).value
    doc = {
        "schema_version": SCHEMA_VERSION,
        "fsw": fsw,
        "fn": fn,
        "f0": f0,
        "Mg": mg,
        "Qe": qe,
        "region": region,
    }
    _emit(args, doc, [f"fsw = {fsw:.3f} Hz (fn = {fn:.6f}, f0 = {f0:.3f} Hz, "
                      f"region = {region})"])
    return EXIT_OK


# --- sweep ------------------------------------------------------------------

def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    try:
        design = _sim_report(cfg)
    except ValueError as exc:
        print(f"error: design failed: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    if args.qe:
        try:
            qes = [float(q) for q in args.qe.split(",") if q.strip()]
        except ValueError:
            print("error: --qe expects comma-separated numbers", file=sys.stderr)
            return EXIT_CONFIG
        if not qes or not all(0 <= q < math.inf for q in qes):
            print("error: --qe values must be finite and non-negative",
                  file=sys.stderr)
            return EXIT_CONFIG
    else:
        qes = _curve_qe_set(design.Qe)
    if not (0 < args.fn_lo < args.fn_hi < math.inf) or args.samples < 2:
        print("error: need 0 < --fn-lo < --fn-hi < inf and --samples >= 2",
              file=sys.stderr)
        return EXIT_CONFIG
    outdir = _resolve_out(args, cfg)

    fn = np.geomspace(args.fn_lo, args.fn_hi, args.samples)
    cols = _gain_table(design, fn, qes)
    csv_path = outdir / "sweep_gain.csv"
    fn_text = list(map(repr, fn.tolist()))
    with open(csv_path, "w", encoding="utf-8") as f:
        f.write("label,fn,Mg\n")
        for name, mg in cols:
            label = "short_circuit" if name == "Mg_short_circuit" else name[3:]
            f.writelines(f"{label},{x},{v!r}\n" for x, v in zip(fn_text, mg.tolist()))
    _write_curve_svg(outdir / "sweep_gain.svg", design, fn, cols)
    doc = {"schema_version": SCHEMA_VERSION, "curves": len(cols),
           "samples": int(fn.size),
           "files": ["sweep_gain.csv", "sweep_gain.svg"]}
    _emit(args, doc, [f"wrote {csv_path} and sweep_gain.svg "
                      f"({len(cols)} curves, {fn.size} samples)"])
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimError as exc:
        print(f"error: simulation failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
