"""The four benchmark workloads: inputs made from a seed, the operations of
one pass, and the checks on every output.

Each workload owns a work directory inside the checkout.  Its inputs are
written there as llckit project configurations, so the program sees only
the generated inputs.  A pass runs the same operations on the same inputs
every time, which is what lets each operation be timed several times in a
run and lets every output be compared with the first pass's: a wave CSV,
design report or solver state that changes between repeats is counted as
a failed operation.

The seed jitters the operating points by a fraction of a percent to a few
percent.  It moves the numbers, not the regime: which POP regime a point
sits in, whether a design is feasible and how much work a pass does stay
the same, so runs with different seeds measure the same thing.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import llckit
from llckit import cli, config, sim, steady_state, synthesis

VIN = 48.0
REFERENCE_REQUIREMENTS = {
    "vin_min": 39.0, "vin_nom": 48.0, "vin_max": 48.0,
    "vout_min": 12.0, "vout_nom": 12.0, "vout_max": 12.0,
    "iout_min": 0.0, "iout_max": 0.5,
    "f0_target": 100e3, "fsw_min": 60e3, "fsw_max": 130e3,
}
# the reference tank: turns ratio and (Ln, Qe) given, no component rounding
REFERENCE_SHAPE = {"n": 1.83, "Ln": 2.05, "Qe": 0.36, "series": "none"}

# (name, fsw, load kind, load value, methods) of the three POP regimes.
# Above resonance Newton converges in 31 periods; at light load contraction
# is slow (about 190 periods); near the region-1/2 boundary Newton needs
# about 90.  Points closer to the boundary cost more than a pass can hold:
# shooting takes about 210 periods at 72 kHz and falls back to contraction
# at 70 kHz (about 15 s per solve in pure Python), and cycle iteration
# takes about 380 at 73.5 kHz.  Both methods meet, and must agree, at the
# other two points.
POP_POINTS = (
    ("above", 115e3, "resistance", 24.0, ("shooting", "cycle_iteration")),
    ("light", 110e3, "current", 0.1, ("shooting", "cycle_iteration")),
    ("boundary", 73.5e3, "current", 0.5, ("shooting",)),
)
POP_SOLVES = tuple((p[0], m) for p in POP_POINTS for m in p[4])
# find_pop's default tolerance is 1e-6 on the normalized state; the
# acceptance suite lets the two methods differ by ten times that
POP_AGREE_REL = 1e-5


def design_report(cfg: config.ProjectConfig) -> synthesis.DesignReport:
    """The design report an ``llc design`` call builds from a project."""
    ov = cfg.overrides
    req = cfg.requirements
    n = ov.n if ov.n is not None else synthesis.choose_turns_ratio(req)
    if ov.Ln is not None:
        ln, qe = ov.Ln, ov.Qe
    else:
        ln, qe = synthesis.search_design_point(req, n)
    tank = synthesis.synthesize_tank(req, n, ln, qe)
    return synthesis.check_feasibility(tank, req, n, series=ov.series)


def run_cli(tr, argv: list[str]) -> tuple[int, str]:
    """Run one ``llc`` subcommand in this process; (exit code, stdout)."""
    out = io.StringIO()
    with tr.span("cli." + argv[0]), redirect_stdout(out), \
            redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _jitter(rng: random.Random, value: float, frac: float) -> float:
    return value * (1.0 + frac * rng.uniform(-1.0, 1.0))


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def _write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


class Outcome:
    """Operations attempted in one pass, what went wrong in them, and the
    host seconds each took."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.op_walls: dict[str, float] = {}


class Workload:
    """One pass is ``ops()`` run in order.

    Each op returns ``(problems, fingerprint)``.  An op that raises, finds a
    problem or returns a fingerprint other than the first pass's is one
    failed operation.  Later ops read what earlier ones left in
    ``self.state``, so an op after a failed one fails too rather than being
    skipped.
    """

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = Path(workdir)
        self.state: dict = {}
        self._first: dict = {}

    @property
    def setup_config(self) -> Path:
        """The project configuration the set-up time is measured on."""
        return self.workdir / "project.json"

    def ops(self):
        raise NotImplementedError

    def run_pass(self, tr) -> Outcome:
        outcome = Outcome()
        self.state = {}
        for op_name, op in self.ops():
            outcome.attempted += 1
            t0 = time.perf_counter()
            try:
                problems, fingerprint = op(tr)
            except Exception as exc:  # a failed operation is counted, not fatal
                problems, fingerprint = [f"{type(exc).__name__}: {exc}"], None
            outcome.op_walls[op_name] = time.perf_counter() - t0
            first = self._first.setdefault(op_name, fingerprint)
            if first != fingerprint:
                problems.append("output differs from the first pass")
            outcome.failures.extend(f"{op_name}: {p}" for p in problems)
        return outcome

    def load_design(self, tr):
        report = design_report(config.load_config(self.setup_config))
        self.state["tank"] = report.tank
        return [] if report.feasible else ["design reported infeasible"], None


class Transient(Workload):
    """Open-loop transient on the reference tank, wave CSV written and read.

    The kernel and the CSV writer do nearly all the work.  The command
    frequency is a Python float, the baseline ``step`` is compared with.
    """

    name = "transient"
    T_END = 0.5e-3
    STRIDE = 8

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.fsw = _jitter(self.rng, 110e3, 0.002)
        self.r_load = _jitter(self.rng, 24.0, 0.02)
        _write_json(self.setup_config, {
            "schema_version": config.SCHEMA_VERSION,
            "requirements": REFERENCE_REQUIREMENTS,
            "overrides": REFERENCE_SHAPE})
        self.csv = self.workdir / "wave_transient.csv"

    def ops(self):
        return (("design", self.load_design),
                ("transient", self.transient),
                ("csv_write", self.write_csv),
                ("csv_read", self.read_csv))

    def transient(self, tr):
        cfg = sim.SimConfig(tank=self.state["tank"], vin=VIN, fsw=self.fsw,
                            load=sim.LoadSpec.resistance(self.r_load),
                            t_end=self.T_END, record_stride=self.STRIDE)
        res = sim.run_transient(cfg, initial=sim.warm_start_state(cfg))
        self.state["result"] = res
        wf = res.waveform
        problems = []
        if not all(np.all(np.isfinite(wf[c])) for c in ("t",) + wf.names):
            problems.append("non-finite samples")
        if res.periods < math.floor(self.T_END * self.fsw):
            problems.append(f"only {res.periods} periods integrated")
        vout = res.final_state.vOut
        if not 0.0 < vout < 2.0 * REFERENCE_REQUIREMENTS["vout_nom"]:
            problems.append(f"final output {vout!r} V out of range")
        return problems, (repr(res.final_state), res.energy, res.periods,
                          len(res.events))

    def write_csv(self, tr):
        self.state["result"].waveform.to_csv(self.csv)
        return [], _digest(self.csv)

    def read_csv(self, tr):
        back = sim.Waveform.from_csv(self.csv)
        wf = self.state["result"].waveform
        if back.names != wf.names:
            return ["channels differ after read-back"], None
        if not all(np.array_equal(back[c], wf[c]) for c in ("t",) + wf.names):
            return ["samples differ after read-back"], None
        return [], None


class Pop(Workload):
    """Periodic operating point in three regimes.

    The kernel runs unrecorded with a reset every period, and the solver's
    iteration count sets the cost.
    """

    name = "pop"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.points = [(nm, _jitter(self.rng, fsw, 0.001), kind,
                        _jitter(self.rng, value, 0.005), methods)
                       for nm, fsw, kind, value, methods in POP_POINTS]
        _write_json(self.setup_config, {
            "schema_version": config.SCHEMA_VERSION,
            "requirements": REFERENCE_REQUIREMENTS,
            "overrides": REFERENCE_SHAPE})

    def ops(self):
        ops = [("design", self.load_design)]
        for point in self.points:
            for method in point[4]:
                ops.append((f"{point[0]}.{method}",
                            lambda tr, p=point, m=method: self.solve(tr, p, m)))
        return ops

    def solve(self, tr, point, method):
        nm, fsw, kind, value, _ = point
        cfg = sim.SimConfig(tank=self.state["tank"], vin=VIN, fsw=fsw,
                            load=sim.LoadSpec(kind, ((0.0, value),)),
                            t_end=1.0)
        res = steady_state.find_pop(cfg, method=method)
        tr.add(f"steady_state.{method}.{nm}.cycles", res.cycles)
        self.state[nm, method] = res
        problems = []
        if not res.residual < 1e-6:
            problems.append(f"residual {res.residual:.3e} above tolerance")
        if method == "cycle_iteration":
            a = self.state[nm, "shooting"].metrics.vout_mean
            b = res.metrics.vout_mean
            if not abs(a - b) <= POP_AGREE_REL * abs(a):
                problems.append(f"methods disagree on vout_mean: {a!r} vs {b!r}")
        return problems, (repr(res.state), res.cycles, res.residual)


class Step(Workload):
    """Shortened closed-loop load step through ``llc simulate step``.

    The only workload that runs the controller, its POP seed and the
    controller's frequency command, which reaches the period driver as a
    numpy scalar.
    """

    name = "step"
    T_STEP = 0.2e-3
    T_END = 0.6e-3

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # the seed POP at the starting load converges by Newton in 31
        # periods from 0.44 A to 0.495 A; just above 0.5 A Newton gives up
        # and contraction takes 164, which would make the work bimodal
        i0 = _jitter(self.rng, 0.46, 0.02)
        i1 = _jitter(self.rng, 0.7, 0.02)
        self.out = self.workdir / "step"
        _write_json(self.setup_config, {
            "schema_version": config.SCHEMA_VERSION,
            "requirements": REFERENCE_REQUIREMENTS,
            "overrides": {"n": 1.83, "Ln": 2.05, "Qe": 0.36, "series": "E12"},
            "sim": {"vin": VIN, "t_end": self.T_END, "record_stride": 32,
                    "load": {"kind": "current",
                             "points": [[0.0, i0], [self.T_STEP, i1]]},
                    "band": 0.01},
            "controller": {"v_ref": 12.0, "ki": 3e6}})

    def ops(self):
        return (("simulate_step", self.simulate),)

    def simulate(self, tr):
        rc, stdout = run_cli(tr, ["simulate", "step", "--config",
                                  str(self.setup_config), "--out",
                                  str(self.out), "--json"])
        if rc != 0:
            return [f"exit code {rc}"], None
        doc = json.loads(stdout)
        problems = []
        vout = doc["final_vOut"]
        if vout is None or not 0.0 < vout < 2.0 * doc["v_ref"]:
            problems.append(f"final output {vout!r} V out of range")
        if not 0.0 < doc["fsw_lo"] <= doc["fsw_hi"]:
            problems.append("commanded frequency span is empty or negative")
        return problems, _digest(self.out / "wave_step.csv",
                                 self.out / "metrics_step.json")


class Design(Workload):
    """Sinusoidal-approximation design of seeded requirement sets.

    No (Ln, Qe) is given, so each subcommand runs the design-point search.
    The simulator does no work here.
    """

    name = "design"
    SETS = 2
    SWEEP_SAMPLES = 2000

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # imported here so that setup_probe.py, which imports this module,
        # does not time it as part of llckit's set-up
        import jsonschema

        schema = Path(llckit.__file__).parent / "schemas" / "design.schema.json"
        self.validator = jsonschema.Draft202012Validator(
            json.loads(schema.read_text(encoding="utf-8")))
        self.sets = []
        for i in range(self.SETS):
            # scaling the voltages together and the load current leaves the
            # normalized search, and so the work, the same for every seed
            scale = _jitter(self.rng, 1.0, 0.02)
            req = dict(REFERENCE_REQUIREMENTS,
                       **{k: REFERENCE_REQUIREMENTS[k] * scale for k in (
                           "vin_min", "vin_nom", "vin_max",
                           "vout_min", "vout_nom", "vout_max")},
                       iout_max=_jitter(self.rng, 0.5, 0.05))
            path = _write_json(self.workdir / f"project{i}.json", {
                "schema_version": config.SCHEMA_VERSION,
                "requirements": req,
                "overrides": {"series": "E12"}})
            self.sets.append((path, self.workdir / f"design{i}", req))

    @property
    def setup_config(self) -> Path:
        return self.sets[0][0]

    def ops(self):
        ops = []
        for i, s in enumerate(self.sets):
            ops += [(f"design{i}", lambda tr, s=s: self.design(tr, s)),
                    (f"solve{i}", lambda tr, s=s: self.solve(tr, s)),
                    (f"sweep{i}", lambda tr, s=s: self.sweep(tr, s))]
        return ops

    def design(self, tr, s):
        path, out, _ = s
        rc, stdout = run_cli(tr, ["design", "--config", str(path),
                                  "--out", str(out), "--json"])
        doc = json.loads((out / "design.json").read_text(encoding="utf-8"))
        problems = [f"design.json: {e.message}"
                    for e in self.validator.iter_errors(doc)]
        if not doc["feasible"]:
            problems.append("requirement set reported infeasible")
        if rc != (0 if doc["feasible"] else 2):
            problems.append(f"exit code {rc} for feasible={doc['feasible']}")
        return problems, (stdout, _digest(out / "design.json",
                                          out / "gain_curves.csv",
                                          out / "gain_curves.svg"))

    def solve(self, tr, s):
        path, _, req = s
        rc, stdout = run_cli(tr, ["solve", "--config", str(path),
                                  "--target-vout", repr(req["vout_nom"]),
                                  "--json"])
        if rc != 0:
            return [f"exit code {rc}"], None
        fsw = json.loads(stdout)["fsw"]
        problems = []
        if not req["fsw_min"] <= fsw <= req["fsw_max"]:
            problems.append(f"solved frequency {fsw!r} Hz outside the range")
        return problems, stdout

    def sweep(self, tr, s):
        path, out, _ = s
        rc, stdout = run_cli(tr, ["sweep", "--config", str(path), "--out",
                                  str(out), "--samples",
                                  str(self.SWEEP_SAMPLES), "--json"])
        if rc != 0:
            return [f"exit code {rc}"], None
        doc = json.loads(stdout)
        csv = out / "sweep_gain.csv"
        rows = csv.read_text(encoding="utf-8").count("\n") - 1
        problems = []
        if rows != doc["curves"] * self.SWEEP_SAMPLES:
            problems.append(f"{rows} sweep rows for {doc['curves']} curves")
        return problems, (stdout, _digest(csv, out / "sweep_gain.svg"))


WORKLOADS = {w.name: w for w in (Transient, Pop, Step, Design)}
