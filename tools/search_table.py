"""Picks, root solves and wall time of the design-point search.

    python3 tools/search_table.py [--baseline ../parent] [--random 300]
        [--seed 1] [--repeat 5] [--json table.json]

Three kinds of search are run, each on ``search_design_point``'s default
(Ln, Qe) grid unless said otherwise:

* the reference requirements (48 V in with a dip to 39 V, 12 V out,
  0 to 0.5 A, f0 = 100 kHz, 60 to 130 kHz) at the turns ratio
  ``choose_turns_ratio`` gives (2.0) and at 1.83;
* ``--sets`` seeded variants of them, as an ``llc design`` project with
  only the series given would pose them: every voltage scaled by one
  factor within 2 %, the full load within 5 % of 0.5 A, at the turns
  ratio ``choose_turns_ratio`` gives;
* ``--random`` random requirement sets with random (Ln, Qe) grids and
  headroom, drawn from ``--seed``: light loads at and above zero, input
  ranges up to infinity, band limits that cut either edge.

Each search reports its pick (or the message of its ValueError), its
estimated roots (``_peak_estimate`` and ``_branch_bracket`` calls, where
the checkout has them), its exact ones (bisections by ``gain._bisect``),
and the best of ``--repeat`` wall times.  The reference and seeded
searches get a row each, the random ones a summary.

Each checkout runs in a process of its own, importing llckit from its
``src/``: this one, and with ``--baseline`` another one; every search
whose pick or error differs between the two is listed.  Nothing under
``perfbench/`` or ``tests/`` is imported.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

REQUIREMENTS = dict(vin_min=39.0, vin_nom=48.0, vin_max=48.0, vout_min=12.0,
                    vout_nom=12.0, vout_max=12.0, iout_min=0.0, iout_max=0.5,
                    f0_target=100e3, fsw_min=60e3, fsw_max=130e3)


def searches(sets: int, count: int, seed: int):
    """(name, kind, search arguments) of every search, in order."""
    from llckit.synthesis import DesignRequirements, choose_turns_ratio

    req = DesignRequirements(**REQUIREMENTS)
    out = [("reference", "reference", (req, choose_turns_ratio(req))),
           ("reference n=1.83", "reference", (req, 1.83))]
    for i in range(1, sets + 1):
        rng = random.Random(i)
        scale = rng.uniform(0.98, 1.02)
        req = DesignRequirements(**dict(
            REQUIREMENTS, iout_max=0.5 * rng.uniform(0.95, 1.05),
            **{k: REQUIREMENTS[k] * scale for k in (
                "vin_min", "vin_nom", "vin_max",
                "vout_min", "vout_nom", "vout_max")}))
        out.append((f"seeded {i}", "seeded", (req, choose_turns_ratio(req))))
    rng = random.Random(seed)
    for i in range(count):
        out.append((f"random {i}", "random", random_search(rng)))
    return out


def random_search(rng: random.Random):
    """Search arguments (req, n, Ln grid, Qe grid, headroom) drawn from
    ``rng``."""
    from llckit.synthesis import DesignRequirements, choose_turns_ratio

    vin_nom = rng.uniform(20.0, 60.0)
    u = rng.random()
    vin_max = (vin_nom if u < 0.3 else math.inf if u < 0.4
               else vin_nom * rng.uniform(1.0, 1.6))
    vout_nom = rng.uniform(3.0, 30.0)
    iout_max = rng.uniform(0.1, 3.0)
    f0 = rng.uniform(50e3, 200e3)
    req = DesignRequirements(
        vin_min=vin_nom * rng.uniform(0.6, 1.0), vin_nom=vin_nom,
        vin_max=vin_max, vout_min=vout_nom * rng.uniform(0.8, 1.0),
        vout_nom=vout_nom, vout_max=vout_nom * rng.uniform(1.0, 1.2),
        iout_min=0.0 if rng.random() < 0.4 else iout_max * rng.random(),
        iout_max=iout_max, f0_target=f0,
        fsw_min=f0 * rng.uniform(0.4, 0.95),
        fsw_max=f0 * rng.uniform(1.05, 1.8))
    n = choose_turns_ratio(req, rng.uniform(0.85, 1.15))
    ln_values = sorted(rng.uniform(1.1, 10.0) for _ in range(6))
    qe_values = sorted(10.0 ** rng.uniform(-1.5, 0.5) for _ in range(8))
    return req, n, ln_values, qe_values, rng.choice((0.0, 0.1, 0.2, 0.3))


def outcome(search, args):
    """The pick of ``search(*args)`` as a list, or its ValueError's message."""
    try:
        return list(search(*args))
    except ValueError as exc:
        return str(exc)


def counted_solves(args) -> Counter:
    """Estimated and exact root solves of one search."""
    gain = importlib.import_module("llckit.gain")
    synthesis = importlib.import_module("llckit.synthesis")
    counts = Counter()
    saved = []
    for owner, name, key in ((gain, "_bisect", "exact"),
                             (synthesis, "_peak_estimate", "estimated"),
                             (synthesis, "_branch_bracket", "estimated")):
        solve = getattr(owner, name, None)
        if solve is None:
            continue

        def counted(*a, solve=solve, key=key):
            counts[key] += 1
            return solve(*a)
        saved.append((owner, name, solve))
        setattr(owner, name, counted)
    try:
        outcome(synthesis.search_design_point, args)
    finally:
        for owner, name, solve in saved:
            setattr(owner, name, solve)
    return counts


def run_searches(sets: int, count: int, seed: int, repeat: int) -> list[dict]:
    """Every search, in the checkout llckit comes from."""
    from llckit.synthesis import search_design_point

    rows = []
    for name, kind, args in searches(sets, count, seed):
        best = math.inf
        for _ in range(repeat):
            t0 = time.perf_counter()
            got = outcome(search_design_point, args)
            best = min(best, time.perf_counter() - t0)
        counts = counted_solves(args)
        rows.append({"search": name, "kind": kind, "outcome": got,
                     "estimated": counts["estimated"],
                     "exact": counts["exact"], "best_s": best})
    return rows


def run_checkout(checkout: Path, worker_args: list[str]) -> list[dict]:
    """The searches of one checkout, from a process of its own."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
           *worker_args]
    r = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if r.returncode != 0:
        raise SystemExit(f"searches failed in {checkout}:\n{r.stderr[-2000:]}")
    return json.loads(r.stdout)


def outcome_text(outcome) -> str:
    return outcome if isinstance(outcome, str) else f"({outcome[0]!r}, {outcome[1]!r})"


def print_table(sides: dict) -> None:
    names = list(sides)
    head = "| search | pick or error |" + "".join(
        f" {side}: estimated, exact, best wall time |" for side in names)
    print(head)
    print("|---" * (head.count("|") - 1) + "|")
    rows = list(zip(*sides.values()))
    for cells in rows:
        if cells[0]["kind"] == "random":
            continue
        print(f"| {cells[0]['search']} | {outcome_text(cells[0]['outcome'])} |"
              + "".join(f" {r['estimated']}, {r['exact']}, "
                        f"{r['best_s'] * 1e3:.3f} ms |" for r in cells))
    for i, side in enumerate(names):
        rand = [cells[i] for cells in rows if cells[i]["kind"] == "random"]
        if not rand:
            continue
        kinds = Counter("pick" if isinstance(r["outcome"], list)
                        else r["outcome"] for r in rand)
        print(f"\n{side}, {len(rand)} random searches: "
              + ", ".join(f"{k} {v}" for k, v in sorted(kinds.items()))
              + f"; estimated {sum(r['estimated'] for r in rand)}, exact "
              f"{sum(r['exact'] for r in rand)}, best wall times sum to "
              f"{sum(r['best_s'] for r in rand) * 1e3:.1f} ms")
    if len(names) == 2:
        differ = [cells for cells in rows
                  if cells[0]["outcome"] != cells[1]["outcome"]]
        print(f"\npicks or errors that differ: {len(differ)}" + "".join(
            f"\n  {a['search']}: {outcome_text(a['outcome'])} against "
            f"{outcome_text(b['outcome'])}" for a, b in differ))


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--baseline", type=Path,
                    help="another checkout to run the same searches in")
    ap.add_argument("--sets", type=int, default=8,
                    help="seeded variants of the reference requirements")
    ap.add_argument("--random", type=int, default=300,
                    help="random requirement sets and grids")
    ap.add_argument("--seed", type=int, default=1,
                    help="seed of the random requirement sets")
    ap.add_argument("--repeat", type=int, default=5,
                    help="timed runs per search (best is kept)")
    ap.add_argument("--json", type=Path, help="also write the rows here")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        json.dump(run_searches(args.sets, args.random, args.seed,
                               args.repeat), sys.stdout)
        return
    worker_args = ["--sets", str(args.sets), "--random", str(args.random),
                   "--seed", str(args.seed), "--repeat", str(args.repeat)]
    sides = {"change": run_checkout(ROOT, worker_args)}
    if args.baseline is not None:
        sides["baseline"] = run_checkout(args.baseline.resolve(), worker_args)
    print_table(sides)
    if args.json is not None:
        args.json.write_text(json.dumps(sides, indent=1) + "\n")


if __name__ == "__main__":
    main()
