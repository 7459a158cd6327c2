"""Periods, solver trace and wall time of the POP solvers on the reference
tank.

    python3 tools/pop_table.py [--baseline ../parent] [--repeat 3]
        [--json table.json]
    python3 tools/pop_table.py --grid [--baseline ../parent]

The tank is the reference one (``synthesize_tank`` of the reference
requirements at n = 1.83, Ln = 2.05, Qe = 0.36).  By default five points
are solved, each by cycle iteration and by shooting at ``find_pop``'s
default tolerance and budget: 0.5 A at the frequency the sinusoidal model
picks for 12 V, 115 kHz into 24 ohm, 110 kHz at 0.1 A, and 73.5 and
70 kHz at 0.5 A.  A solve reports its periods, the crest searches of its
period peaks (the crests ``sim.PeriodPeaks.exact`` located, counted by
wrapping it and reading what it adds to its driver's crest count: a
shooting driver's counts start over every period; a checkout whose
solvers judge their residuals by the step-end peaks alone reads no exact
peaks and reports 0), its ``PopResult.trace`` where the checkout has one,
and the best of ``--repeat`` wall times.

``--grid`` solves 144 points by shooting instead: 62, 65, 68, 71, 75 and
80 to 130 kHz in 5 kHz steps, each into 6, 12, 24, 48 and 200 ohm and at
0.05, 0.25, 0.5 and 0.7 A.  It prints the periods of every point (or the
exception that stopped it), the total over the points every checkout
solves, the failures by exception, and with ``--baseline`` the points
that take more periods than in the baseline.

Each checkout runs in a process of its own, importing llckit from its
``src/``: this one, and with ``--baseline`` another one, whose solves are
listed beside this one's.  Nothing under ``perfbench/`` is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

REQUIREMENTS = dict(vin_min=39.0, vin_nom=48.0, vin_max=48.0, vout_min=12.0,
                    vout_nom=12.0, vout_max=12.0, iout_min=0.0, iout_max=0.5,
                    f0_target=100e3, fsw_min=60e3, fsw_max=130e3)
# (name, fsw in Hz or None for the model's 12 V frequency, load kind, value)
POINTS = (
    ("acceptance", None, "current", 0.5),
    ("115k_24ohm", 115e3, "resistance", 24.0),
    ("110k_0.1A", 110e3, "current", 0.1),
    ("73.5k_0.5A", 73.5e3, "current", 0.5),
    ("70k_0.5A", 70e3, "current", 0.5),
)
GRID_KHZ = (62, 65, 68, 71, 75) + tuple(range(80, 131, 5))
GRID_LOADS = tuple(("resistance", r) for r in (6.0, 12.0, 24.0, 48.0, 200.0)) \
    + tuple(("current", i) for i in (0.05, 0.25, 0.5, 0.7))


def load_label(kind: str, value: float) -> str:
    return f"{value:g} ohm" if kind == "resistance" else f"{value:g} A"


def reference_tank():
    from llckit import synthesis

    req = synthesis.DesignRequirements(**REQUIREMENTS)
    tank = synthesis.synthesize_tank(req, 1.83, 2.05, 0.36)
    return req, tank


def solve_points(repeat: int) -> list[dict]:
    """Every solve of every point, in the checkout llckit comes from."""
    from dataclasses import asdict

    from llckit import sim, steady_state, synthesis
    from llckit.gain import solve_frequency
    from llckit.tank import series_resonance

    searches = 0
    exact = sim.PeriodPeaks.exact

    def counting(self, *args, **kwargs):
        nonlocal searches
        before = self._counter[0]
        try:
            return exact(self, *args, **kwargs)
        finally:
            searches += self._counter[0] - before

    sim.PeriodPeaks.exact = counting
    req, tank = reference_tank()
    design = synthesis.check_feasibility(tank, req, 1.83)
    rows = []
    for name, fsw, kind, value in POINTS:
        if fsw is None:
            mg = 2.0 * 1.83 * req.vout_nom / req.vin_nom
            fsw = (solve_frequency(design.Ln, design.Qe, mg)
                   * series_resonance(tank))
        cfg = sim.SimConfig(tank=tank, vin=req.vin_nom, fsw=fsw,
                            load=sim.LoadSpec(kind, ((0.0, value),)),
                            t_end=1.0)
        for method in ("cycle_iteration", "shooting"):
            best = float("inf")
            for _ in range(repeat):
                searches = 0
                t0 = time.perf_counter()
                res = steady_state.find_pop(cfg, method=method)
                best = min(best, time.perf_counter() - t0)
            trace = getattr(res, "trace", None)
            rows.append({
                "point": name, "fsw": fsw, "method": method,
                "cycles": res.cycles, "searches": searches,
                "residual": res.residual,
                "best_s": best, "vout_mean": res.metrics.vout_mean,
                "trace": None if trace is None else asdict(trace)})
    return rows


def solve_grid() -> list[dict]:
    """Shooting's periods at every grid point, or the exception's name."""
    from llckit import sim, steady_state

    req, tank = reference_tank()
    rows = []
    for khz in GRID_KHZ:
        for kind, value in GRID_LOADS:
            cfg = sim.SimConfig(tank=tank, vin=req.vin_nom, fsw=khz * 1e3,
                                load=sim.LoadSpec(kind, ((0.0, value),)),
                                t_end=1.0)
            row = {"khz": khz, "load": load_label(kind, value),
                   "cycles": None, "error": None}
            try:
                res = steady_state.find_pop(cfg)
                row["cycles"] = res.cycles
                row["vout_mean"] = res.metrics.vout_mean
            except sim.SimError as exc:
                row["error"] = type(exc).__name__
            rows.append(row)
    return rows


def run_checkout(checkout: Path, worker_args: list[str]):
    """The solves of one checkout, from a process of its own."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
           *worker_args]
    r = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if r.returncode != 0:
        raise SystemExit(f"solves failed in {checkout}:\n{r.stderr[-2000:]}")
    return json.loads(r.stdout)


def trace_text(trace: dict | None) -> str:
    if trace is None:
        return "-"
    if not trace["residuals"]:
        return f"plain {trace['plain']}"
    return (f"Newton {len(trace['residuals']) - 1} iterations, "
            f"{trace['halvings']} halvings, plain {trace['plain']}")


def print_table(sides: dict) -> None:
    base = sides.get("baseline")
    head = "| point | solve | periods, crest searches, best wall time |"
    if base is not None:
        head += " baseline |"
    print(head + " trace |")
    print("|---" * head.count("|") + "|")
    for i, row in enumerate(sides["change"]):
        cells = [row["point"], row["method"].replace("_", " ")]
        cells += [f"{r['cycles']}, {r['searches']}, {r['best_s']:.3f} s"
                  for r in ([row] if base is None else [row, base[i]])]
        cells.append(trace_text(row["trace"]))
        print("| " + " | ".join(cells) + " |")


def print_grid(sides: dict) -> None:
    names = list(sides)
    loads = [load_label(*ld) for ld in GRID_LOADS]
    # one cell per point: periods or the exception, checkouts split by "/"
    cell = {}
    for side in names:
        for row in sides[side]:
            key = (row["khz"], row["load"])
            text = row["error"] or str(row["cycles"])
            cell[key] = f"{cell[key]} / {text}" if key in cell else text
    print("periods by shooting, " + " / ".join(names))
    print("| kHz | " + " | ".join(loads) + " |")
    print("|---" * (len(loads) + 1) + "|")
    for khz in GRID_KHZ:
        print(f"| {khz} | "
              + " | ".join(cell[(khz, ld)] for ld in loads) + " |")
    solved = [{(r["khz"], r["load"]): r["cycles"] for r in sides[side]
               if r["cycles"] is not None} for side in names]
    common = set.intersection(*(set(s) for s in solved))
    totals = ", ".join(f"{side} {sum(s[k] for k in common)}"
                       for side, s in zip(names, solved))
    print(f"\ntotal over the {len(common)} points every checkout solves: "
          f"{totals}")
    for side in names:
        failed = Counter(r["error"] for r in sides[side] if r["error"])
        print(f"{side} failures: " + (", ".join(
            f"{name} {count}" for name, count in sorted(failed.items()))
            or "none"))
    if len(names) == 2:
        change, base = solved
        worse = sorted(k for k in common if change[k] > base[k])
        print(f"worse than the baseline: {len(worse)}" + "".join(
            f"\n  {khz} kHz, {ld}: {change[(khz, ld)]} against "
            f"{base[(khz, ld)]}" for khz, ld in worse))


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--baseline", type=Path,
                    help="another checkout to solve the same points in")
    ap.add_argument("--repeat", type=int, default=3,
                    help="timed solves per point and method (best is kept)")
    ap.add_argument("--grid", action="store_true",
                    help="solve the 144-point grid by shooting instead")
    ap.add_argument("--json", type=Path, help="also write the rows here")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        rows = solve_grid() if args.grid else solve_points(args.repeat)
        json.dump(rows, sys.stdout)
        return
    worker_args = ["--grid"] if args.grid else ["--repeat", str(args.repeat)]
    sides = {"change": run_checkout(ROOT, worker_args)}
    if args.baseline is not None:
        sides["baseline"] = run_checkout(args.baseline.resolve(), worker_args)
    (print_grid if args.grid else print_table)(sides)
    if args.json is not None:
        args.json.write_text(json.dumps(sides, indent=1) + "\n")


if __name__ == "__main__":
    main()
