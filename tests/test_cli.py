"""End-to-end tests for the command-line layer: file outputs, exit codes,
schema validity, and byte-level determinism."""

import hashlib
import json
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llckit import cli, sim
from llckit.cli import (EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_NUMERIC, EXIT_OK,
                        main)
from llckit.config import ConfigError, SimSettings, load_config, parse_config
from llckit.sim import Waveform

REPO = Path(__file__).resolve().parent.parent
REFERENCE_CONFIG = REPO / "configs" / "reference_design.json"
OVERLOAD_CONFIG = REPO / "configs" / "overload.json"

WAVE_HEADER = "t,vsw,iLr,vCr,iLm,vOut,iOut,gateHS,gateLS"


def reference_doc() -> dict:
    return json.loads(REFERENCE_CONFIG.read_text())


def write_cfg(tmp_path: Path, doc: dict, name: str = "cfg.json") -> Path:
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def load_schema() -> dict:
    res = resources.files("llckit") / "schemas" / "design.schema.json"
    return json.loads(res.read_text())


def field_paths(node, prefix=()):
    """Every key/index path into a decoded JSON document, the root first."""
    yield prefix
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from field_paths(child, prefix + (key,))


def replaced(doc, path, value):
    """``doc`` with the value at ``path`` replaced; unchanged when an earlier
    replacement removed the path."""
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        try:
            node = node[key]
        except (KeyError, IndexError, TypeError):
            return doc
    if isinstance(node, dict) or (isinstance(node, list)
                                  and isinstance(path[-1], int)
                                  and path[-1] < len(node)):
        node[path[-1]] = value
    return doc


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=8)
    | st.integers() | st.integers(-10**400, 10**400),
    lambda kids: (st.lists(kids, max_size=4)
                  | st.dictionaries(st.text(max_size=8), kids, max_size=4)),
    max_leaves=8)


class TestConfigParsing:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_mutated_fields_raise_config_errors_only(self, data):
        """Any JSON value in any field of the reference configuration is
        either accepted or rejected with a ConfigError, never a traceback."""
        doc = reference_doc()
        paths = list(field_paths(doc))
        for path in data.draw(st.lists(st.sampled_from(paths), min_size=1,
                                       max_size=3)):
            doc = replaced(doc, path, data.draw(JSON_VALUES))
        try:
            parse_config(doc)
        except ConfigError:
            pass

    @pytest.mark.parametrize("field", [
        ("requirements", "vin_min"), ("requirements", "fsw_max"),
        ("sim", "vin"), ("sim", "t_end"), ("controller", "v_ref"),
        ("controller", "ki")], ids=".".join)
    @pytest.mark.parametrize("value", [10**400, float("nan"), float("inf"),
                                       float("-inf")],
                             ids=["huge_int", "nan", "inf", "-inf"])
    def test_non_finite_number_names_the_field(self, field, value):
        doc = reference_doc()
        doc[field[0]][field[1]] = value
        with pytest.raises(ConfigError, match=r"\.".join(field)
                           + ": must be a finite number"):
            parse_config(doc)

    def test_absent_sim_fields_take_the_settings_defaults(self):
        doc = reference_doc()
        doc["sim"] = {}
        assert parse_config(doc).sim == SimSettings()

    def test_non_finite_load_point_names_the_index(self):
        doc = reference_doc()
        doc["sim"]["load"]["points"][2] = [0.011, float("nan")]
        with pytest.raises(ConfigError, match=r"sim\.load\.points\[2\]: must be"
                                              " a finite number"):
            parse_config(doc)

    def test_missing_schema_version(self):
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config({"requirements": {}})

    def test_wrong_schema_version(self):
        doc = reference_doc()
        doc["schema_version"] = 99
        with pytest.raises(ConfigError, match="expected 1, got 99"):
            parse_config(doc)

    def test_missing_requirements_section(self):
        with pytest.raises(ConfigError, match="requirements"):
            parse_config({"schema_version": 1})

    def test_type_error_names_the_field(self):
        doc = reference_doc()
        doc["requirements"]["vin_min"] = "oops"
        with pytest.raises(ConfigError, match=r"requirements\.vin_min"):
            parse_config(doc)

    def test_unknown_key_rejected(self):
        doc = reference_doc()
        doc["sim"]["dt_mx"] = 1e-8
        with pytest.raises(ConfigError, match=r"sim\.dt_mx"):
            parse_config(doc)

    def test_bad_load_point_names_the_index(self):
        doc = reference_doc()
        doc["sim"]["load"]["points"][1] = [0.001]
        with pytest.raises(ConfigError, match=r"sim\.load\.points\[1\]"):
            parse_config(doc)

    def test_ln_without_qe_rejected(self):
        doc = reference_doc()
        del doc["overrides"]["Qe"]
        with pytest.raises(ConfigError, match="both Ln and Qe"):
            parse_config(doc)

    def test_explicit_tank_excludes_shape_parameters(self):
        doc = json.loads(OVERLOAD_CONFIG.read_text())
        doc["overrides"]["Ln"] = 2.0
        doc["overrides"]["Qe"] = 0.3
        with pytest.raises(ConfigError, match="explicit tank"):
            parse_config(doc)

    def test_defaults_fill_in(self):
        doc = {"schema_version": 1,
               "requirements": reference_doc()["requirements"]}
        cfg = parse_config(doc)
        assert cfg.overrides.series == "E12"
        assert cfg.overrides.tank is None
        assert cfg.sim.t_end == 2e-3
        assert cfg.sim.load is None
        assert cfg.controller.ki is None
        assert cfg.output_dir is None

    def test_invalid_json_reports_position(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"schema_version": 1,,}')
        with pytest.raises(ConfigError, match="line 1"):
            load_config(p)

    def test_reference_config_round_trip(self):
        cfg = load_config(REFERENCE_CONFIG)
        assert cfg.requirements.f0_target == 100e3
        assert cfg.overrides.Ln == 2.05
        assert cfg.sim.load.kind == "current"
        assert cfg.sim.load.switch_times == (0.001, 0.011)
        assert cfg.controller.v_ref == 12.0


@pytest.fixture(scope="module")
def design_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("design")
    rc = main(["design", "--config", str(REFERENCE_CONFIG), "--out", str(out)])
    return rc, out


class TestDesignCommand:
    def test_exit_ok_and_files(self, design_out):
        rc, out = design_out
        assert rc == EXIT_OK
        for name in ("design.json", "gain_curves.csv", "gain_curves.svg"):
            assert (out / name).is_file()

    def test_design_json_matches_schema(self, design_out):
        _, out = design_out
        doc = json.loads((out / "design.json").read_text())
        jsonschema.validate(doc, load_schema())
        assert doc["feasible"] is True

    def test_components_near_reference_build(self, design_out):
        _, out = design_out
        t = json.loads((out / "design.json").read_text())["tank_rounded"]
        for key, ref in (("Cr", 68e-9), ("Lr", 37e-6), ("Lm", 75e-6)):
            assert abs(t[key] / ref - 1.0) < 0.10

    def test_gain_curve_csv_structure(self, design_out):
        _, out = design_out
        lines = (out / "gain_curves.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "fn"
        assert header[-1] == "Mg_short_circuit"
        assert sum(1 for h in header if h.startswith("Mg_Qe=")) == 5
        data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        fn = data[:, 0]
        assert np.all(np.diff(fn) > 0)
        # shorted output: gain falls monotonically above resonance
        sc = data[:, -1]
        above = fn > 1.0
        assert np.all(np.diff(sc[above]) < 0)

    def test_svg_has_curves(self, design_out):
        _, out = design_out
        svg = (out / "gain_curves.svg").read_text()
        assert svg.startswith("<svg")
        assert svg.count("<polyline") >= 6
        assert "Mg_max" in svg

    def test_series_none_gives_exact_components(self, tmp_path, capsys):
        rc = main(["design", "--config", str(REFERENCE_CONFIG), "--out",
                   str(tmp_path), "--series", "none", "--json"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["tank_rounded"] == doc["tank"]

    def test_overload_design_is_infeasible(self, tmp_path):
        rc = main(["design", "--config", str(OVERLOAD_CONFIG), "--out",
                   str(tmp_path)])
        assert rc == EXIT_INFEASIBLE
        doc = json.loads((tmp_path / "design.json").read_text())
        jsonschema.validate(doc, load_schema())
        assert doc["feasible"] is False

    def test_malformed_config_exits_1(self, tmp_path, capsys):
        doc = reference_doc()
        doc["requirements"]["vin_min"] = "oops"
        p = write_cfg(tmp_path, doc)
        rc = main(["design", "--config", str(p), "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert "requirements.vin_min" in capsys.readouterr().err

    def test_missing_required_flag_exits_1(self, capsys):
        assert main(["design"]) == EXIT_CONFIG

    def test_overflowing_qe_exits_2_naming_qe(self, tmp_path, capsys):
        # Qe = 1e200 synthesizes a tank whose full-load Qe is infinite:
        # the design fails on that, and says so
        doc = reference_doc()
        doc["overrides"]["Qe"] = 1e200
        p = write_cfg(tmp_path, doc)
        rc = main(["design", "--config", str(p), "--out", str(tmp_path)])
        assert rc == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert "Qe = inf is out of range" in err
        assert "NaN" not in err


@pytest.fixture(scope="module")
def pop_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("pop")
    rc = main(["simulate", "pop", "--config", str(REFERENCE_CONFIG),
               "--out", str(out)])
    return rc, out


@pytest.fixture(scope="module")
def step_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("step")
    rc = main(["simulate", "step", "--config", str(REFERENCE_CONFIG),
               "--out", str(out)])
    return rc, out


class TestSimulateCommand:
    def test_design_judges_the_rounded_tank_once(self, monkeypatch):
        # the simulator's design report is one check of the rounded tank
        calls = []
        check = cli.check_feasibility

        def counting(tank, req, n, series="E12"):
            calls.append((tank, series))
            return check(tank, req, n, series=series)

        monkeypatch.setattr(cli, "check_feasibility", counting)
        report = cli._sim_report(load_config(REFERENCE_CONFIG))
        assert calls == [(report.tank, "none")]
        assert report.tank_rounded == report.tank

    def test_zero_span_transient(self, tmp_path):
        doc = reference_doc()
        doc["sim"]["t_end"] = 0.0
        p = write_cfg(tmp_path, doc)
        rc = main(["simulate", "transient", "--config", str(p), "--out",
                   str(tmp_path)])
        assert rc == EXIT_OK
        text = (tmp_path / "wave_transient.csv").read_text()
        assert text == WAVE_HEADER + "\n"
        metrics = json.loads((tmp_path / "metrics_transient.json").read_text())
        assert metrics["vOut_final"] is None
        assert metrics["periods"] == 0

    def test_short_transient_waveform(self, tmp_path):
        doc = reference_doc()
        doc["sim"]["t_end"] = 3e-4
        doc["sim"]["record_stride"] = 4
        p = write_cfg(tmp_path, doc)
        rc = main(["simulate", "transient", "--config", str(p), "--out",
                   str(tmp_path)])
        assert rc == EXIT_OK
        wf = Waveform.from_csv(tmp_path / "wave_transient.csv")
        assert wf.names == tuple(WAVE_HEADER.split(",")[1:])
        assert wf.t.size > 100
        assert np.all(np.diff(wf.t) > 0)
        assert set(np.unique(wf["vsw"])) <= {0.0, 48.0}
        assert set(np.unique(wf["gateHS"])) <= {0.0, 1.0}
        metrics = json.loads((tmp_path / "metrics_transient.json").read_text())
        assert metrics["energy"]["source"] > 0

    def test_record_overflow_exits_3(self, tmp_path, monkeypatch, capsys):
        # more grid rows in one span than the cap allows is a numeric
        # failure of the run, not a crash
        monkeypatch.setattr(sim, "_REC_CAP_MAX", 100)
        doc = reference_doc()
        doc["sim"]["t_end"] = 3e-5
        doc["sim"]["record_stride"] = 1
        p = write_cfg(tmp_path, doc)
        rc = main(["simulate", "transient", "--config", str(p), "--out",
                   str(tmp_path)])
        assert rc == EXIT_NUMERIC == 3
        assert "simulation failed" in capsys.readouterr().err
        assert not (tmp_path / "wave_transient.csv").exists()

    def test_pop_metrics(self, pop_out):
        rc, out = pop_out
        assert rc == EXIT_OK
        m = json.loads((out / "metrics_pop.json").read_text())
        assert m["residual"] < 1e-6
        assert abs(m["vOut_mean"] / 12.0 - 1.0) < 0.05
        assert m["zvs_all"] is True
        assert 0 < m["p_load"] <= m["p_source"] * (1 + 1e-3)

    def test_pop_waveform_spans_one_period(self, pop_out):
        _, out = pop_out
        m = json.loads((out / "metrics_pop.json").read_text())
        wf = Waveform.from_csv(out / "wave_pop.csv")
        assert wf.t[0] == 0.0
        assert wf.t[-1] == 1.0 / m["fsw"]

    def test_step_metrics(self, step_out):
        rc, out = step_out
        assert rc == EXIT_OK
        m = json.loads((out / "metrics_step.json").read_text())
        assert m["t_step"] == 0.011
        assert m["settles"] is True
        assert abs(m["final_vOut"] - 12.0) <= m["band"]
        assert 60e3 <= m["fsw_lo"] <= m["fsw_hi"] <= 130e3
        assert m["recovery_time"] < 8e-3

    def test_step_waveform_covers_the_scenario(self, step_out):
        _, out = step_out
        wf = Waveform.from_csv(out / "wave_step.csv")
        assert wf.t[-1] >= 0.0159


class TestSolveCommand:
    def test_nominal_point(self, capsys):
        rc = main(["solve", "--config", str(REFERENCE_CONFIG),
                   "--target-vout", "12", "--json"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["region"] == "inductive"
        assert 1.09 < doc["fn"] < 1.12
        assert abs(doc["fsw"] - 110792.0476) < 1.0

    def test_unity_gain_lands_on_resonance_exactly(self, capsys):
        vout = 48.0 / (2.0 * 1.83)
        rc = main(["solve", "--config", str(REFERENCE_CONFIG),
                   "--target-vout", repr(vout), "--iout", "0", "--json"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["fn"] == 1.0
        assert doc["fsw"] == doc["f0"]

    def test_unreachable_point_exits_2(self, capsys):
        rc = main(["solve", "--config", str(REFERENCE_CONFIG),
                   "--target-vout", "30", "--iout", "5"])
        assert rc == EXIT_INFEASIBLE
        assert "peak" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["--target-vout", "--vin", "--iout"])
    def test_non_finite_number_exits_1(self, flag, value, capsys):
        # these died in effective_load or solve_frequency with a traceback
        argv = ["solve", "--config", str(REFERENCE_CONFIG)]
        if flag != "--target-vout":
            argv.append("--target-vout=12")
        rc = main(argv + [f"{flag}={value}"])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error:")


class TestSweepCommand:
    def test_long_format_csv(self, tmp_path):
        rc = main(["sweep", "--config", str(REFERENCE_CONFIG), "--out",
                   str(tmp_path), "--qe", "0,0.36", "--samples", "101"])
        assert rc == EXIT_OK
        lines = (tmp_path / "sweep_gain.csv").read_text().strip().splitlines()
        assert lines[0] == "label,fn,Mg"
        labels = {ln.split(",")[0] for ln in lines[1:]}
        assert labels == {"Qe=0", "Qe=0.36", "short_circuit"}
        assert len(lines) - 1 == 3 * 101
        assert (tmp_path / "sweep_gain.svg").is_file()

    def test_bad_qe_list_exits_1(self, tmp_path, capsys):
        rc = main(["sweep", "--config", str(REFERENCE_CONFIG), "--out",
                   str(tmp_path), "--qe", "0.2,-1"])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["--qe", "--fn-lo", "--fn-hi"])
    def test_non_finite_number_exits_1(self, flag, value, tmp_path, capsys):
        # a NaN Qe wrote 480 NaN rows, and an infinite --fn-hi a CSV before
        # the plot overflowed; neither writes anything now
        rc = main(["sweep", "--config", str(REFERENCE_CONFIG), "--out",
                   str(tmp_path), f"{flag}={value}"])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "sweep_gain.csv").exists()


class TestOutputDirResolution:
    def test_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LLC_OUT", str(tmp_path / "from_env"))
        rc = main(["sweep", "--config", str(REFERENCE_CONFIG),
                   "--samples", "20"])
        assert rc == EXIT_OK
        assert (tmp_path / "from_env" / "sweep_gain.csv").is_file()

    def test_config_output_dir_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LLC_OUT", str(tmp_path / "from_env"))
        doc = reference_doc()
        doc["output_dir"] = str(tmp_path / "from_cfg")
        p = write_cfg(tmp_path, doc)
        rc = main(["sweep", "--config", str(p), "--samples", "20"])
        assert rc == EXIT_OK
        assert (tmp_path / "from_cfg" / "sweep_gain.csv").is_file()
        assert not (tmp_path / "from_env").exists()

    def test_flag_beats_config(self, tmp_path):
        doc = reference_doc()
        doc["output_dir"] = str(tmp_path / "from_cfg")
        p = write_cfg(tmp_path, doc)
        rc = main(["sweep", "--config", str(p), "--out",
                   str(tmp_path / "from_flag"), "--samples", "20"])
        assert rc == EXIT_OK
        assert (tmp_path / "from_flag" / "sweep_gain.csv").is_file()
        assert not (tmp_path / "from_cfg").exists()


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, tmp_path, run_llc):
        doc = reference_doc()
        doc["sim"]["t_end"] = 2e-4
        p = write_cfg(tmp_path, doc)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            r = run_llc("simulate", "transient", "--config", str(p),
                        "--out", str(out))
            assert r.returncode == 0, r.stderr
            outs.append(out)
        a, b = outs
        assert ((a / "wave_transient.csv").read_bytes()
                == (b / "wave_transient.csv").read_bytes())
        assert ((a / "metrics_transient.json").read_bytes()
                == (b / "metrics_transient.json").read_bytes())

    # SHA-256 of the FHA outputs as commit 6995f58 wrote them, before the
    # scalar gain path and the column-wise CSV and SVG writers
    FHA_OUTPUT_SHA256 = {
        "reference_design": {
            "design.json": "21bfa3c1fef8549e8b8e989d560e61ae579a99b2f99f08b17f86da898e4c1408",
            "gain_curves.csv": "c53cafd093eb86dbfb7e4a207cf88cf700ff24792cf4a3974d0cb0fd0a404165",
            "gain_curves.svg": "bdd327099558e53b80393b54a9e3f1f06b02eda87cf7feac9e8c003f966bf028",
            "sweep_gain.csv": "a67455af69ac4f8242934db8c4d0194a540a6de1af613bb695e67c958dfdc417",
            "sweep_gain.svg": "09d3d855ccceec9bb1de20d72f69f7f65231fa662c34508afab70dfab0cea0d8",
            "solve": "f8a84f4781c2ba9000045967a7d66eb8551fd8932c667a6603e96d0965336f41",
        },
        "overload": {
            "design.json": "63524b792c513d6237c51d9cbcfd73d5f315799ad768db717cdb0b7eed4140e2",
            "gain_curves.csv": "86919553b68c8491022f444270cdc528a26545a50d27def50a020cdab03befbf",
            "gain_curves.svg": "05abb1757720fe1b2d1c1b4a5dc6e54f3df0b5d316f11611d0976e32e54f724c",
            "sweep_gain.csv": "ec7f9df980a16828054e6d3a5856c1c4cd15753860239255d91703efe795974c",
            "sweep_gain.svg": "05abb1757720fe1b2d1c1b4a5dc6e54f3df0b5d316f11611d0976e32e54f724c",
            "solve": "75ffe920800b7f269e935726ee7374b77f5664b5aee276810bd9048fbf1e0e9d",
        },
    }

    # SHA-256 of the same outputs for the reference requirements with
    # (Ln, Qe) left open, so that design, sweep and solve each run the
    # design-point search, as commit 4109fc7 wrote them
    SEARCH_OUTPUT_SHA256 = {
        "design.json": "be3a3bdd0f46418cb8668fef951f34f6180878374516330d75d6f7dc43e993fc",
        "gain_curves.csv": "c5502082732d9df28b57ba09f2fda98b8df5a1d702ee977d991bf8329666924c",
        "gain_curves.svg": "b2a629f728fb057e26b1286392cda0b49dcd5ab6282e04c81d9b1a6906728e4e",
        "sweep_gain.csv": "06db67fb6c4bd2c2837edfb06e004c4c59afe7c81e174bb826731f2089629e71",
        "sweep_gain.svg": "2aed75310340d3f654bab8f71952918bd6aa4eefdb4a6faafd9189ce134115af",
        "solve": "50f9b1a7172f388fc00c203cd4b9aab242cb320c72b04990f66f01f8244de0b5",
    }

    @staticmethod
    def fha_output_sha256(cfg, out, run_llc, design_rc):
        """SHA-256 of what design, sweep and ``solve --json`` write for
        ``cfg``, by the names of the pins."""
        rcs = [run_llc(cmd, "--config", str(cfg), "--out", str(out)).returncode
               for cmd in ("design", "sweep")]
        assert rcs == [design_rc, EXIT_OK]
        solve = run_llc("solve", "--config", str(cfg), "--target-vout", "12",
                        "--json")
        assert solve.returncode == EXIT_OK, solve.stderr
        got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
               for f in ("design.json", "gain_curves.csv", "gain_curves.svg",
                         "sweep_gain.csv", "sweep_gain.svg")}
        got["solve"] = hashlib.sha256(solve.stdout.encode()).hexdigest()
        return got

    @pytest.mark.parametrize("name", sorted(FHA_OUTPUT_SHA256))
    def test_fha_outputs_are_pinned(self, name, tmp_path, run_llc):
        """design, sweep and ``solve --json`` write the same bytes as at
        commit 6995f58, the parent of the scalar gain path."""
        cfg = REPO / "configs" / f"{name}.json"
        rc = EXIT_OK if name == "reference_design" else EXIT_INFEASIBLE
        got = self.fha_output_sha256(cfg, tmp_path, run_llc, rc)
        assert got == self.FHA_OUTPUT_SHA256[name]

    def test_search_driven_outputs_are_pinned(self, tmp_path, run_llc):
        """With only the series given, every command picks (Ln, Qe) by the
        design-point search and writes the bytes it wrote before the search
        decided on estimated roots."""
        doc = reference_doc()
        doc["overrides"] = {"series": "E12"}
        cfg = write_cfg(tmp_path, doc)
        got = self.fha_output_sha256(cfg, tmp_path, run_llc, EXIT_OK)
        assert got == self.SEARCH_OUTPUT_SHA256

    def test_cli_import_leaves_scipy_out(self, run_python):
        """Every ``llc`` start imports llckit.cli; scipy is not part of it."""
        r = run_python("-c", "import llckit.cli, sys; "
                             "print('scipy' in sys.modules)")
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "False"

    def test_module_entry_matches_script(self, tmp_path, run_llc):
        doc = reference_doc()
        doc["sim"]["t_end"] = 2e-4
        p = write_cfg(tmp_path, doc)
        r = run_llc("simulate", "transient", "--config", str(p),
                    "--out", str(tmp_path / "m"))
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "m" / "wave_transient.csv").is_file()
