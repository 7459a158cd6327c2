#!/usr/bin/env python3
"""Time the switched-circuit integrator with and without the compiled
kernels.

The dispatch decision is taken at import, so each arm runs in its own
subprocess with ``LLCKIT_JIT`` set accordingly.  Both arms integrate the
same full-load transient on the nominal design and must produce identical
results; the parent checks that before printing the timing table.  When
numba is not importable only the pure-Python arm runs, the numba arm is
reported as unavailable and no speedup is printed.

    python3 benchmarks/bench_sim.py [--t-end 2e-3] [--repeat 3]
"""

import argparse
import json
import os
import subprocess
import sys
import time


def run_case(t_end: float):
    from llckit import (DesignRequirements, LoadSpec, SimConfig,
                        run_transient, synthesize_tank, warm_start_state)

    req = DesignRequirements(
        vin_min=39.0, vin_nom=48.0, vin_max=48.0,
        vout_min=12.0, vout_nom=12.0, vout_max=12.0,
        iout_min=0.0, iout_max=0.5,
        f0_target=100e3, fsw_min=60e3, fsw_max=130e3)
    tank = synthesize_tank(req, 1.83, 2.05, 0.36)
    cfg = SimConfig(tank=tank, vin=48.0, fsw=110e3,
                    load=LoadSpec.resistance(24.0), t_end=t_end,
                    record_stride=64)
    return cfg, run_transient, warm_start_state


def worker(t_end: float, repeat: int) -> None:
    cfg, run_transient, warm_start_state = run_case(t_end)
    seed = warm_start_state(cfg)
    # first run pays any compile cost; do it on a short span and discard
    import dataclasses
    run_transient(dataclasses.replace(cfg, t_end=5e-5), initial=seed)

    best = float("inf")
    res = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        res = run_transient(cfg, initial=seed)
        best = min(best, time.perf_counter() - t0)
    wf = res.waveform
    print(json.dumps({
        "elapsed": best,
        "t_end": t_end,
        "checksum": float(abs(wf["iLr"]).sum() + abs(wf["vOut"]).sum()),
        "samples": int(wf.t.size),
    }))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--t-end", type=float, default=2e-3,
                    help="simulated span per run (s)")
    ap.add_argument("--repeat", type=int, default=3,
                    help="timed repetitions, best-of")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.worker:
        worker(args.t_end, args.repeat)
        return 0

    from llckit._accel import NUMBA_AVAILABLE
    from llckit.sim import STEPS_PER_PERIOD

    arms = (("python", "0"), ("numba", "1")) if NUMBA_AVAILABLE else (
        ("python", "0"),)
    results = {}
    for label, flag in arms:
        env = dict(os.environ, LLCKIT_JIT=flag)
        r = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--worker",
             "--t-end", repr(args.t_end), "--repeat", str(args.repeat)],
            env=env, capture_output=True, text=True)
        if r.returncode != 0:
            print(r.stderr, file=sys.stderr)
            return 1
        results[label] = json.loads(r.stdout)

    if (NUMBA_AVAILABLE
            and results["python"]["checksum"] != results["numba"]["checksum"]):
        print("warning: the two paths disagree, timings are not comparable",
              file=sys.stderr)
        return 1

    steps = args.t_end * 110e3 * STEPS_PER_PERIOD
    print(f"transient: {args.t_end * 1e3:g} ms at 110 kHz, "
          f"~{steps:.0f} integration steps, best of {args.repeat}")
    for label, res in results.items():
        e = res["elapsed"]
        print(f"  {label:6s} {e:8.3f} s   {steps / e / 1e6:7.2f} Msteps/s"
              f"   {e / steps * 1e6:7.3f} us/step")
    if not NUMBA_AVAILABLE:
        print(f"  {'numba':6s} unavailable (not installed)")
        return 0
    speedup = results["python"]["elapsed"] / results["numba"]["elapsed"]
    print(f"  speedup {speedup:.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
