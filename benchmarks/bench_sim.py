#!/usr/bin/env python3
"""Time the switched-circuit integrator on a full-load transient.

Integrates the same warm-started transient on the nominal design a few
times and prints the best wall time with the period driver's counts:
kernel steps, events and event-localization iterations, and the wall time
per step and per switching period.  Then, from the periodic operating
point at the same frequency, it times one period recorded at every grid
instant and one unrecorded, the last thing ``find_pop`` does, and prints
rows, steps and the wall time of each.

    python3 benchmarks/bench_sim.py [--t-end 2e-3] [--repeat 3]
"""

import argparse
import dataclasses
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--t-end", type=float, default=2e-3,
                    help="simulated span per run (s)")
    ap.add_argument("--repeat", type=int, default=3,
                    help="timed repetitions, best-of")
    args = ap.parse_args()

    from llckit import (DesignRequirements, LoadSpec, PeriodDriver,
                        SimConfig, find_pop, run_transient, synthesize_tank,
                        warm_start_state)

    req = DesignRequirements(
        vin_min=39.0, vin_nom=48.0, vin_max=48.0,
        vout_min=12.0, vout_nom=12.0, vout_max=12.0,
        iout_min=0.0, iout_max=0.5,
        f0_target=100e3, fsw_min=60e3, fsw_max=130e3)
    tank = synthesize_tank(req, 1.83, 2.05, 0.36)
    cfg = SimConfig(tank=tank, vin=48.0, fsw=110e3,
                    load=LoadSpec.resistance(24.0), t_end=args.t_end,
                    record_stride=64)
    seed = warm_start_state(cfg)
    # a short untimed run first, so the timed ones start from a warm
    # interpreter
    run_transient(dataclasses.replace(cfg, t_end=5e-5), initial=seed)

    best = float("inf")
    res = None
    for _ in range(args.repeat):
        t0 = time.perf_counter()
        res = run_transient(cfg, initial=seed)
        best = min(best, time.perf_counter() - t0)
    counts = res.counts
    steps = counts["steps"]
    located = sum(n for kind, n in counts["events"].items()
                  if not kind.startswith("gate_"))
    iters = counts["localization_iterations"]
    print(f"transient: {args.t_end * 1e3:g} ms at 110 kHz, {res.periods} "
          f"periods, best of {args.repeat}")
    print(f"  wall   {best:.3f} s, {best / res.periods * 1e6:.1f} us/period")
    print(f"  steps  {steps}, {steps / res.periods:.1f}/period, "
          f"{best / steps * 1e6:.2f} us/step")
    print(f"  events {located} located, {iters / max(located, 1):.2f} "
          f"localization iterations each")

    # one period from the periodic operating point, as find_pop records it
    # and as its solvers run it
    state = find_pop(cfg).state
    period_cfg = dataclasses.replace(cfg, record_stride=1)
    print(f"one period from the operating point, best of {10 * args.repeat}")
    for label, record in (("stride 1", True), ("unrecorded", False)):
        best = float("inf")
        for _ in range(10 * args.repeat):
            drv = PeriodDriver(period_cfg, state, record=record)
            t0 = time.perf_counter()
            drv.advance_period(cfg.fsw)
            best = min(best, time.perf_counter() - t0)
        rows = drv.result().waveform.t.size
        print(f"  {label:<10} {rows} rows, {drv.counts['steps']} steps, "
              f"{best * 1e6:.0f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
