"""Record benchmark runs of two source checkouts as ``BENCH_<workload>.json``.

    python3 tools/bench_record.py --workload design --baseline ../parent \
        --seeds 51 52 53 54 55 56 57 58 59 60

For each seed, ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0``, with T the ``run_seconds`` of ``BENCHMARK.json``, runs once in
the baseline checkout and once in this one, which goes first alternating
from pair to pair so that a drifting host loads both sides alike. The
record keeps, per run, the side, the checkout's git revision (with a dirty
flag and a hash of its ``src/`` tree, which names the code even before it
is committed), the ``report`` line with the calibration readings, and the
result line; and per end-to-end metric of ``BENCHMARK.json``, each side's
median and quartiles, the pairs the change wins and the gap between the
medians against the baseline's quartile distance. Nothing under ``perfbench/`` is changed or imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def revision(checkout: Path) -> dict:
    """Git revision, dirty flag (changes to tracked files other than
    ``BENCH_*.json``) and a SHA-256 over the ``src/`` files."""
    def git(*args):
        r = subprocess.run(["git", "-C", str(checkout), *args],
                           capture_output=True, text=True)
        return r.stdout.strip() if r.returncode == 0 else None
    digest = hashlib.sha256()
    for p in sorted((checkout / "src").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            digest.update(str(p.relative_to(checkout)).encode() + b"\0")
            digest.update(p.read_bytes())
    # the records this tool writes do not make the code they time dirty
    status = git("status", "--porcelain", "--untracked-files=no", "--",
                 ".", ":(exclude)BENCH_*.json")
    return {"rev": git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status),
            "src_sha256": digest.hexdigest()}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run: its report and result lines."""
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = r.stdout.splitlines()
    report = [json.loads(ln[len("report "):]) for ln in lines
              if ln.startswith("report ")]
    if r.returncode != 0 or not report:
        raise SystemExit(f"run failed in {checkout} (seed {seed}, exit "
                         f"{r.returncode}):\n{r.stderr[-2000:]}")
    return {"report": report[0], "result": json.loads(lines[-1])}


def quartiles(xs: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def compare(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's quartiles, change wins, median gap vs IQR."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        base = [p["baseline"]["result"]["metrics"][name]["value"] for p in pairs]
        new = [p["change"]["result"]["metrics"][name]["value"] for p in pairs]
        b, c = quartiles(base), quartiles(new)
        gain = b["median"] - c["median"] if lower else c["median"] - b["median"]
        out[name] = {
            "unit": m["unit"], "better": m["better"],
            "baseline": b, "change": c,
            "change_wins": sum((y < x) if lower else (y > x)
                               for x, y in zip(base, new)),
            "pairs": len(pairs),
            "median_gain": gain,
            "baseline_iqr": b["q3"] - b["q1"],
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--baseline", type=Path, required=True,
                    help="source checkout to compare against")
    ap.add_argument("--seeds", type=int, nargs="+", required=True,
                    help="one baseline/change pair per seed")
    args = ap.parse_args(argv)

    sides = {"baseline": args.baseline.resolve(), "change": ROOT}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ("baseline", "change") if i % 2 == 0 else ("change", "baseline")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(sides[side], args.workload, seed, seconds)
            walls = pair[side]["result"]["metrics"]["wall_s"]["value"]
            print(f"seed {seed} {side}: wall_s {walls:.4f}", file=sys.stderr)
        pairs.append(pair)

    record = {
        "workload": args.workload,
        "command": (f"python3 perfbench/run.py --workload {args.workload} "
                    f"--seed SEED --seconds {seconds:g} --trace 0"),
        "revisions": {side: revision(path) for side, path in sides.items()},
        "summary": compare(pairs, bench["end_to_end"]),
        "pairs": pairs,
    }
    out = ROOT / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for name, s in record["summary"].items():
        print(f"{name}: baseline {s['baseline']['median']:.4g} -> change "
              f"{s['change']['median']:.4g} {s['unit']}, change wins "
              f"{s['change_wins']}/{s['pairs']}, gain {s['median_gain']:.4g} "
              f"vs baseline IQR {s['baseline_iqr']:.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
