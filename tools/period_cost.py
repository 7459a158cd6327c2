"""What one converged, unrecorded switching period costs at the three
``pop`` points, and where its interpreter work goes.

    python3 tools/period_cost.py [--baseline ../parent] [--repeat 300]
        [--json cost.json]

The points are those of the ``pop`` benchmark workload, on the reference
tank of ``tools/pop_table.py``: 115 kHz into 24 ohm, 110 kHz at 0.1 A and
73.5 kHz at 0.5 A.  At each one the periodic operating point is found by
shooting, and an unrecorded driver, as the solvers run it, is started
there.  From it the tool reports

* the best of ``--repeat`` wall times of one period
  (``PeriodDriver.advance_period``), in us, each period starting where the
  one before ended, so on the operating point;
* where cycle iteration solves the point (``pop`` runs it at the first
  two), the whole solve's best of three wall times over its periods, which
  adds the solver's own work per period;
* the opcodes one such period runs, counted by ``sys.settrace`` with
  opcode events on, with its Python calls and, among them, the
  comprehension frames;
* the calls of the Taylor sums (``modes._series``, and ``kernels._values``,
  ``_values_end`` and ``_peval``) in that period, by call site: the calling
  function and line.

Each checkout runs in a process of its own, importing llckit from its
``src/``: this one, and with ``--baseline`` another one, whose figures are
printed beside this one's.  Nothing under ``perfbench/`` is imported.
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

from pop_table import reference_tank

ROOT = Path(__file__).resolve().parent.parent

# (name, fsw in Hz, load kind, value, cycle iteration solves it in pop)
POINTS = (
    ("115k_24ohm", 115e3, "resistance", 24.0, True),
    ("110k_0.1A", 110e3, "current", 0.1, True),
    ("73.5k_0.5A", 73.5e3, "current", 0.5, False),
)
TAYLOR = ("_series", "_values", "_values_end", "_peval")


def traced_period(drv, fsw: float) -> dict:
    """Opcodes, calls, comprehension frames and Taylor-sum calls by call
    site of one period."""
    count = Counter()
    sites = Counter()

    def local(frame, event, arg):
        if event == "opcode":
            count["opcodes"] += 1
        return local

    def glob(frame, event, arg):
        code = frame.f_code
        count["calls"] += 1
        if code.co_name in ("<listcomp>", "<genexpr>", "<dictcomp>",
                            "<setcomp>"):
            count["comprehensions"] += 1
        if code.co_name in TAYLOR:
            back = frame.f_back
            sites[f"{code.co_name} from {back.f_code.co_name}:"
                  f"{back.f_lineno}"] += 1
        frame.f_trace_opcodes = True
        return local

    sys.settrace(glob)
    try:
        drv.advance_period(fsw)
    finally:
        sys.settrace(None)
    return {**count, "sites": dict(sorted(sites.items()))}


def measure(repeat: int) -> list[dict]:
    """Every point's figures, in the checkout llckit comes from."""
    from dataclasses import replace

    from llckit import sim, steady_state

    req, tank = reference_tank()
    rows = []
    for name, fsw, kind, value, cycle in POINTS:
        cfg = sim.SimConfig(tank=tank, vin=req.vin_nom, fsw=fsw,
                            load=sim.LoadSpec(kind, ((0.0, value),)),
                            t_end=1.0)
        pop = steady_state.find_pop(cfg)
        drv = sim.PeriodDriver(replace(cfg, record_stride=1), pop.state,
                               record=False)
        for _ in range(3):  # mode records and step maps built
            drv.advance_period(fsw)
        best = float("inf")
        for _ in range(repeat):
            t0 = time.perf_counter()
            drv.advance_period(fsw)
            best = min(best, time.perf_counter() - t0)
        row = {"point": name, "period_us": best * 1e6,
               **traced_period(drv, fsw)}
        if cycle:
            solve = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                res = steady_state.find_pop(cfg, method="cycle_iteration")
                solve = min(solve, time.perf_counter() - t0)
            row["cycle_periods"] = res.cycles
            row["cycle_us_per_period"] = solve * 1e6 / res.cycles
        rows.append(row)
    return rows


def run_checkout(checkout: Path, repeat: int) -> list[dict]:
    """The figures of one checkout, from a process of its own."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
           "--repeat", str(repeat)]
    r = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if r.returncode != 0:
        raise SystemExit(f"measuring failed in {checkout}:\n{r.stderr[-2000:]}")
    return json.loads(r.stdout)


def print_tables(sides: dict) -> None:
    names = list(sides)
    print("| point | " + " | ".join(
        f"{side}: us/period, opcodes, calls (comprehensions), cycle "
        f"iteration us/period" for side in names) + " |")
    print("|---" * (len(names) + 1) + "|")
    for i, row in enumerate(sides[names[0]]):
        cells = []
        for side in names:
            r = sides[side][i]
            cyc = (f"{r['cycle_us_per_period']:.0f} ({r['cycle_periods']} "
                   f"periods)" if "cycle_periods" in r else "-")
            cells.append(f"{r['period_us']:.0f}, {r['opcodes']}, "
                         f"{r['calls']} ({r.get('comprehensions', 0)}), {cyc}")
        print(f"| {row['point']} | " + " | ".join(cells) + " |")
    for side in names:
        print(f"\nTaylor-sum calls per period by call site, {side}:")
        for r in sides[side]:
            sites = ", ".join(f"{k} {v}" for k, v in r["sites"].items())
            print(f"  {r['point']}: {sites}")


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--baseline", type=Path,
                    help="another checkout to measure the same points in")
    ap.add_argument("--repeat", type=int, default=300,
                    help="timed periods per point (best is kept)")
    ap.add_argument("--json", type=Path, help="also write the rows here")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    if args.worker:
        json.dump(measure(args.repeat), sys.stdout)
        return
    sides = {"change": run_checkout(ROOT, args.repeat)}
    if args.baseline is not None:
        sides["baseline"] = run_checkout(args.baseline.resolve(), args.repeat)
    print_tables(sides)
    if args.json is not None:
        args.json.write_text(json.dumps(sides, indent=1) + "\n")


if __name__ == "__main__":
    main()
