"""Periods, solver trace and wall time of the POP solvers at five points.

    python3 tools/pop_table.py [--baseline ../parent] [--repeat 3]
        [--warm-cycles 20 10 5 2] [--json table.json]

The points are the reference tank's (``synthesize_tank`` of the reference
requirements at n = 1.83, Ln = 2.05, Qe = 0.36): 0.5 A at the frequency
the sinusoidal model picks for 12 V, 115 kHz into 24 ohm, 110 kHz at
0.1 A, and 73.5 and 70 kHz at 0.5 A.  Each point is solved by cycle
iteration and by shooting (once per ``--warm-cycles`` value) at
``find_pop``'s default tolerance and budgets.  A solve reports its
periods, its ``PopResult.trace`` where the checkout has one, and the best
of ``--repeat`` wall times.

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


def solve_points(repeat: int, warm_cycles: list[int]) -> list[dict]:
    """Every solve of every point, in the checkout llckit comes from."""
    from dataclasses import asdict

    from llckit import sim, steady_state, synthesis
    from llckit.gain import solve_frequency
    from llckit.tank import series_resonance

    req = synthesis.DesignRequirements(**REQUIREMENTS)
    tank = synthesis.synthesize_tank(req, 1.83, 2.05, 0.36)
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
        solves = [("cycle_iteration", {})]
        solves += [("shooting", {} if w is None else {"warm_cycles": w})
                   for w in warm_cycles]
        for method, kw in solves:
            best = float("inf")
            for _ in range(repeat):
                t0 = time.perf_counter()
                res = steady_state.find_pop(cfg, method=method, **kw)
                best = min(best, time.perf_counter() - t0)
            trace = getattr(res, "trace", None)
            rows.append({
                "point": name, "fsw": fsw, "method": method,
                "warm_cycles": kw.get("warm_cycles"), "cycles": res.cycles,
                "residual": res.residual, "best_s": best,
                "vout_mean": res.metrics.vout_mean,
                "trace": None if trace is None else asdict(trace)})
    return rows


def run_checkout(checkout: Path, repeat: int, warm_cycles: list[int]):
    """The solves of one checkout, from a process of its own."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
           "--repeat", str(repeat)]
    if warm_cycles != [None]:
        cmd += ["--warm-cycles", *map(str, warm_cycles)]
    r = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if r.returncode != 0:
        raise SystemExit(f"solves failed in {checkout}:\n{r.stderr[-2000:]}")
    return json.loads(r.stdout)


def label(row: dict) -> str:
    if row["method"] == "cycle_iteration":
        return "cycle iteration"
    if row["warm_cycles"] is None:
        return "shooting"
    return f"shooting, warm {row['warm_cycles']}"


def trace_text(trace: dict | None) -> str:
    if trace is None:
        return "-"
    if not trace["residuals"]:
        return f"contraction {trace['contraction']}"
    return (f"warm {trace['warm']}, Newton {len(trace['residuals']) - 1} "
            f"iterations in {trace['newton_periods']} periods, "
            f"{trace['halvings']} halvings, "
            f"contraction {trace['contraction']}")


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--baseline", type=Path,
                    help="another checkout to solve the same points in")
    ap.add_argument("--repeat", type=int, default=3,
                    help="timed solves per point and method (best is kept)")
    ap.add_argument("--warm-cycles", type=int, nargs="+", default=[None],
                    help="shooting's warm-up periods, one solve per value "
                    "(default: find_pop's)")
    ap.add_argument("--json", type=Path, help="also write the rows here")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        json.dump(solve_points(args.repeat, args.warm_cycles), sys.stdout)
        return
    sides = {"change": run_checkout(ROOT, args.repeat, args.warm_cycles)}
    if args.baseline is not None:
        sides["baseline"] = run_checkout(args.baseline.resolve(), args.repeat,
                                         args.warm_cycles)
    head = "| point | solve | periods, best wall time |"
    if args.baseline is not None:
        head += " baseline |"
    print(head + " trace |")
    print("|---" * (head.count("|") - 1 + 1) + "|")
    for i, row in enumerate(sides["change"]):
        cells = [row["point"], label(row),
                 f"{row['cycles']}, {row['best_s']:.3f} s"]
        if args.baseline is not None:
            b = sides["baseline"][i]
            cells.append(f"{b['cycles']}, {b['best_s']:.3f} s")
        cells.append(trace_text(row["trace"]))
        print("| " + " | ".join(cells) + " |")
    if args.json is not None:
        args.json.write_text(json.dumps(sides, indent=1) + "\n")


if __name__ == "__main__":
    main()
