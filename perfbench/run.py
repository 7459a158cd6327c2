#!/usr/bin/env python3
"""llckit benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload pop --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run measures the end-to-end metrics with
tracing off.  With ``--trace 1`` it alternates untraced and traced passes
and reports the per-layer metrics and the tracing overhead.  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

from tracing import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 3
MIN_PASSES = 3
EVENT_KINDS = ("D1_on", "D2_on", "D1_off", "D2_off", "node_clamp_high",
               "node_clamp_low", "gate_HS_on", "gate_HS_off", "gate_LS_on",
               "gate_LS_off")
POP_METHODS = ("shooting", "cycle_iteration")
CLI_COMMANDS = ("design", "simulate", "solve", "sweep")
COUNT_UNITS = ("count", "B")  # per-layer units whose values must repeat
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# per-layer metrics read off the traced run as a whole, not off one pass
TRACE_UNITS = {"sim_periods_per_s": "1/s", "trace.overhead_frac": "ratio"}


def calibrate() -> float:
    """Median time of a fixed pure-Python loop: the host's speed right now."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        s = 0
        for i in range(1_000_000):
            s += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def summary(xs: list[float]) -> dict:
    """Median, quartiles and sample count; p90 once ten samples lie above it."""
    out = {"median": statistics.median(xs), "n": len(xs)}
    if len(xs) >= 2:
        q1, _, q3 = statistics.quantiles(xs, n=4)
        out.update(q1=q1, q3=q3)
    if len(xs) >= 100:
        out["p90"] = statistics.quantiles(xs, n=10)[-1]
    return out


def environment() -> dict:
    import numpy
    import scipy
    from llckit import _accel

    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    arm = "numba" if _accel.JIT_ENABLED else "python"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_imports": numba_imports,
        "jit_enabled": _accel.JIT_ENABLED,
        "nproc": os.cpu_count(),
        "kernel_arm": arm,
        # the JIT choice is made at import, so a run times exactly one arm
        "arms": {"python": "timed" if arm == "python" else "not timed",
                 "numba": ("timed" if arm == "numba" else
                           "not timed" if numba_imports else "unavailable")},
    }


def measure_setup(config_path: Path, repeats: int) -> tuple[list[float], list[str]]:
    """Wall time of ``setup_probe.py`` in fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(config_path)]
    times, failures = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        dt = time.perf_counter() - t0
        if proc.returncode == 0:
            times.append(dt)
        else:
            failures.append(f"setup: exit code {proc.returncode}: "
                            f"{proc.stderr.strip()[-300:]}")
    return times, failures


def layer_metrics(tr: Tracer, pop_solves) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    b, calls, c = tr.busy, tr.calls, tr.counts
    within, within_calls = tr.within, tr.within_calls

    def per(x, n):
        return x / n if n else 0.0

    seg, steps = calls["kernels.integrate_segment"], c["kernels.steps"]
    kernel_s = b["kernels.integrate_segment"]
    periods, period_s = calls["sim.advance_period"], b["sim.advance_period"]
    driver_self = period_s - within["sim.advance_period",
                                    "kernels.integrate_segment"]
    driver_segs = within_calls["sim.advance_period",
                               "kernels.integrate_segment"]
    loop = ("control.run_closed_loop", "sim.advance_period")
    m = {
        "kernels.calls": (seg, "count"),
        "kernels.steps": (steps, "count"),
        "kernels.events": (c["kernels.events"], "count"),
        "kernels.busy_s": (kernel_s, "s"),
        "kernels.us_per_step": (per(1e6 * kernel_s, steps), "us"),
        "sim.periods": (periods, "count"),
        "sim.us_per_period": (per(1e6 * period_s, periods), "us"),
        "sim.driver_self_s": (driver_self, "s"),
        "sim.driver_us_per_segment": (per(1e6 * driver_self, driver_segs), "us"),
    }
    for kind in EVENT_KINDS:
        m[f"sim.events.{kind}"] = (c[f"sim.events.{kind}"], "count")
    m["sim.waveform.rows"] = (c["sim.waveform.rows"], "count")
    m["sim.waveform.bytes"] = (c["sim.waveform.bytes"], "B")
    m["sim.waveform.to_csv_s"] = (b["sim.waveform.to_csv"], "s")
    m["sim.waveform.from_csv_s"] = (b["sim.waveform.from_csv"], "s")
    failed = 0
    pop_seed = 0.0
    for meth in POP_METHODS:
        m[f"steady_state.{meth}.cycles"] = (c[f"steady_state.{meth}.cycles"], "count")
        m[f"steady_state.{meth}.busy_s"] = (b[f"steady_state.{meth}"], "s")
        failed += c[f"steady_state.{meth}.failed"]
        pop_seed += within["control.run_load_step", f"steady_state.{meth}"]
    for point, meth in pop_solves:
        key = f"steady_state.{meth}.{point}.cycles"
        m[key] = (c[key], "count")
    m["steady_state.failed"] = (failed, "count")
    m["control.periods"] = (within_calls[loop], "count")
    m["control.busy_s"] = (tr.layer_busy["control."], "s")
    m["control.self_s"] = (b["control.run_closed_loop"] - within[loop], "s")
    m["control.pop_seed_s"] = (pop_seed, "s")
    for fn in ("gain_magnitude", "peak_gain", "solve_frequency"):
        m[f"gain.{fn}.calls"] = (calls[f"gain.{fn}"], "count")
    m["gain.busy_s"] = (tr.layer_busy["gain."], "s")
    m["synthesis.search_design_point.calls"] = (
        calls["synthesis.search_design_point"], "count")
    m["synthesis.search_design_point.busy_s"] = (
        b["synthesis.search_design_point"], "s")
    m["synthesis.check_feasibility.busy_s"] = (
        b["synthesis.check_feasibility"], "s")
    m["svgplot.render_line_plot.busy_s"] = (b["svgplot.render_line_plot"], "s")
    m["config.load_config_s"] = (b["config.load_config"], "s")
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.wall_s"] = (b[f"cli.{cmd}"], "s")
    return m


def run_passes(wl, seconds: float, trace: bool):
    """Passes until the next one would end after ``seconds``.

    Traced runs alternate untraced and traced passes.  Returns the pass
    walls keyed by traced-or-not, each operation's walls in untraced
    passes, the tracer of each traced pass, the operations attempted and
    the failures.
    """
    walls = {False: [], True: []}
    op_walls = defaultdict(list)
    layers = []
    attempted, failures = 0, []
    t_start = time.perf_counter()
    i = 0
    while True:
        traced = trace and i % 2 == 1
        tr = Tracer() if traced else NullTracer()
        if traced:
            tr.install()
        try:
            t0 = time.perf_counter()
            outcome = wl.run_pass(tr)
            walls[traced].append(time.perf_counter() - t0)
        finally:
            if traced:
                tr.uninstall()
        attempted += outcome.attempted
        failures += outcome.failures
        if traced:
            layers.append(tr)
        else:
            for op, dt in outcome.op_walls.items():
                op_walls[op].append(dt)
        i += 1
        nxt = walls[trace and i % 2 == 1] or walls[False]
        elapsed = time.perf_counter() - t_start
        if i >= MIN_PASSES and elapsed + statistics.median(nxt) > seconds:
            return walls, op_walls, layers, attempted, failures


def traced_metrics(layers: list, walls: dict, pop_solves,
                   failures: list) -> dict:
    """Per-layer metrics of a traced run: counts from the first traced
    pass, which every other traced pass must repeat, times as medians."""
    per_pass = [layer_metrics(tr, pop_solves) for tr in layers]
    counts = [{k: v for k, (v, u) in m.items() if u in COUNT_UNITS}
              for m in per_pass]
    if any(c != counts[0] for c in counts[1:]):
        failures.append("per-layer counts differ between traced passes")
    metrics = {}
    for k, (v, unit) in per_pass[0].items():
        if unit not in COUNT_UNITS:
            v = statistics.median(m[k][0] for m in per_pass)
        metrics[k] = {"value": v, "unit": unit}
    untraced = statistics.median(walls[False])
    extra = {"sim_periods_per_s": metrics["sim.periods"]["value"] / untraced,
             "trace.overhead_frac":
                 statistics.median(walls[True]) / untraced - 1.0}
    for k, v in extra.items():
        metrics[k] = {"value": v, "unit": TRACE_UNITS[k]}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="how long the passes run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "llckit" / "__init__.py").is_file():
        print(f"error: no llckit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    setup, failures = [], []
    try:
        calib_start = calibrate()
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if not args.trace:
            setup, failures = measure_setup(wl.setup_config, SETUP_REPEATS)
        walls, op_walls, layers, attempted, pass_failures = run_passes(
            wl, args.seconds, bool(args.trace))
        calib_end = calibrate()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still has its directory there
            pass
    failures += pass_failures
    if not args.trace:
        attempted += SETUP_REPEATS

    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "environment": environment(),
              "calibration_s": {"start": calib_start, "end": calib_end}}
    if args.trace:
        metrics = traced_metrics(layers, walls, workloads.POP_SOLVES,
                                 failures)
        report["untraced_wall_s"] = summary(walls[False])
        report["traced_wall_s"] = summary(walls[True])
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"setup_s": statistics.median(setup) if setup else 0.0,
                  "wall_s": sum(min(x) for x in op_walls.values()),
                  "peak_rss_mb": rss}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
        report["setup_s"] = summary(setup) if setup else None
        report["pass_wall_s"] = summary(walls[False])
        report["pass_walls_s"] = walls[False]
        report["op_wall_s"] = {op: summary(x) for op, x in op_walls.items()}
    report.update(attempted=attempted, failed=len(failures),
                  ops_failed_frac=len(failures) / attempted,
                  failures=failures[:20])

    env = report["environment"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}; "
          f"kernel arm {env['kernel_arm']} (numba {env['arms']['numba']}); "
          f"Python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, nproc {env['nproc']}")
    print(f"calibration loop: {calib_start:.4f} s at start, "
          f"{calib_end:.4f} s at end")
    for k in ("setup_s", "pass_wall_s", "untraced_wall_s", "traced_wall_s"):
        s = report.get(k)
        if s:
            quart = (f", quartiles {s['q1']:.4f} .. {s['q3']:.4f}"
                     if "q1" in s else "")
            print(f"{k}: median {s['median']:.4f} s of {s['n']}{quart}")
    for k, v in metrics.items():
        print(f"  {k} = {v['value']:.6g} {v['unit']}")
    print(f"ops_failed_frac = {len(failures)}/{attempted} = "
          f"{report['ops_failed_frac']:.6g}")
    for f in failures[:20]:
        print(f"  failed: {f}")
    print("report " + json.dumps(report))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
