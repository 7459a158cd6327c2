"""Tests of the benchmark itself.

    python3 -m pytest perfbench

The per-layer counts (periods, steps, events by kind, POP cycles per method
and point, gain calls, CSV rows and bytes) must repeat exactly between two
runs on the same seed, so that a later change may rest a count claim on
them.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def traced_counts(name: str, seed: int, workdir: Path) -> dict:
    workdir.mkdir()
    wl = workloads.WORKLOADS[name](seed, workdir)
    tr = Tracer()
    tr.install()
    try:
        outcome = wl.run_pass(tr)
    finally:
        tr.uninstall()
    assert outcome.failures == []
    metrics = run.layer_metrics(tr, workloads.POP_SOLVES)
    return {k: v for k, (v, unit) in metrics.items()
            if unit in run.COUNT_UNITS}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_between_runs(name, tmp_path):
    first = traced_counts(name, 7, tmp_path / "a")
    second = traced_counts(name, 7, tmp_path / "b")
    assert first == second
    assert first["gain.peak_gain.calls"] > 0
    if name != "design":
        assert first["sim.periods"] > 0
        assert first["kernels.steps"] >= 2000 * first["sim.periods"] - 2000


def test_uninstall_restores_every_binding():
    from llckit import cli, control, kernels, sim, steady_state

    before = (kernels.integrate_segment, steady_state.find_pop,
              control.find_pop, cli.find_pop, cli.run_load_step,
              sim.PeriodDriver.advance_period, sim.Waveform.from_csv)
    tr = Tracer()
    tr.install()
    assert control.find_pop is cli.find_pop is not before[1]
    tr.uninstall()
    after = (kernels.integrate_segment, steady_state.find_pop,
             control.find_pop, cli.find_pop, cli.run_load_step,
             sim.PeriodDriver.advance_period, sim.Waveform.from_csv)
    assert after == before


def test_nested_spans_give_self_time_and_layer_busy():
    tr = Tracer()
    with tr.span("control.outer"):
        with tr.span("sim.inner"):
            time.sleep(0.02)
        with tr.span("control.helper"):
            pass
    inner = tr.within["control.outer", "sim.inner"]
    assert inner == tr.busy["sim.inner"] >= 0.02
    assert tr.within_calls["control.outer", "sim.inner"] == 1
    # a span inside another of its own layer adds nothing to the layer
    assert tr.layer_busy["control."] == tr.busy["control.outer"]
    assert tr.layer_busy["sim."] == tr.busy["sim.inner"]


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    units = {k: u for k, (_, u) in
             run.layer_metrics(Tracer(), workloads.POP_SOLVES).items()}
    units.update(run.TRACE_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "pop",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
