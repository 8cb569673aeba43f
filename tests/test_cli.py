import dataclasses
import gc
import hashlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
import scipy

from helpers import bisection_gamma, read_matrix
from test_dncs import bench_mode_system
from test_sim_eval import FALLING_WARNING, falling_designs
from wadc import __main__ as entry
from wadc import cli, sampled, sim_eval
from wadc.cli import main, write_matrix
from wadc.config import _REQUIRED, SCHEMA, _parse_positive_int, load_config
from wadc.errors import ConfigError
from wadc.sampled import MAX_IN_FLIGHT, discretize
from wadc.sim_eval import MAX_PERIODS, MAX_SWEEP_IN_FLIGHT

CONFIG = str(pathlib.Path(__file__).resolve().parents[1]
             / "configs/benchmark.cfg")
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
BENCH_REFERENCE = (pathlib.Path(__file__).resolve().parents[1]
                   / "perfbench" / "reference.json")


def run(tmp_path, *argv):
    return main(["--config", CONFIG, "--out", str(tmp_path), *argv])


def trace_digest(out_dir):
    """sha256 of trace.csv, after checking the report's record of it."""
    data = (out_dir / "trace.csv").read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    report = json.loads((out_dir / "report.json").read_text())
    assert report["outputs"][str(out_dir / "trace.csv")] == {
        "sha256": digest}
    assert report["diagnostics"]["trace_bytes"] == len(data)
    return digest


def assert_write_timed(report):
    """The file writes are timed as their own stage."""
    assert "write" in report["timings_s"]


class TestConfig:
    def test_benchmark_loads(self):
        cfg = load_config(CONFIG)
        assert cfg["generators"]["count"] == 2
        assert cfg["sampling"]["h_s"] == 0.02
        assert len(cfg["sampling"]["delay_grid_s"]) == 26

    def test_unknown_key_rejected_with_line(self):
        text = "[generators]\ncount = 2\nmystery_key = 1\n"
        with pytest.raises(ConfigError) as exc:
            load_config(text=text)
        assert "mystery_key" in str(exc.value)
        assert ":3" in str(exc.value)

    def test_config_not_utf8_rejected(self, tmp_path, capsys):
        # a UTF-16 byte-order mark: named, typed and a usage error
        path = tmp_path / "utf16.cfg"
        path.write_bytes(b"\xff\xfe[\x00s\x00")
        with pytest.raises(ConfigError, match="not UTF-8") as exc:
            load_config(path)
        assert str(path) in str(exc.value)
        assert main(["--config", str(path), "--out", str(tmp_path),
                     "linearize"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError) as exc:
            load_config(text="[turbines]\nx = 1\n")
        assert "turbines" in str(exc.value)

    def test_negative_friction_rejected_by_key(self):
        text = pathlib.Path(CONFIG).read_text().replace(
            "B_kgm2_per_s = 10", "B_kgm2_per_s = -10")
        with pytest.raises(ConfigError) as exc:
            load_config(text=text)
        assert "B_kgm2_per_s" in str(exc.value)

    def test_missing_required_key(self):
        text = pathlib.Path(CONFIG).read_text().replace("L_f_mH = 577\n", "")
        with pytest.raises(ConfigError) as exc:
            load_config(text=text)
        assert "L_f_mH" in str(exc.value)

    def test_duplicate_key_rejected(self):
        text = pathlib.Path(CONFIG).read_text().replace(
            "h_s = 0.02", "h_s = 0.02\nh_s = 0.04")
        with pytest.raises(ConfigError):
            load_config(text=text)

    def test_env_override(self):
        cfg = load_config(CONFIG, environ={"WADC_SAMPLING__H_S": "0.04"})
        assert cfg["sampling"]["h_s"] == 0.04

    def test_env_override_unknown_key(self):
        with pytest.raises(ConfigError):
            load_config(CONFIG, environ={"WADC_SAMPLING__NOPE": "1"})

    def test_grid_expansion(self):
        cfg = load_config(CONFIG, environ={
            "WADC_SAMPLING__DELAY_GRID_S": "0:0.1:0.3"})
        np.testing.assert_allclose(cfg["sampling"]["delay_grid_s"],
                                   [0.0, 0.1, 0.2, 0.3])

    def test_grid_stops_at_stop(self):
        # the range is counted in exact rationals: a stop just below a
        # multiple of the step adds no delay beyond it
        cfg = load_config(CONFIG, environ={
            "WADC_SAMPLING__DELAY_GRID_S": "0:0.1:0.2999999999999"})
        assert cfg["sampling"]["delay_grid_s"] == (0.0, 0.1, 0.2)

    @pytest.mark.parametrize("grid", ["0:1e-6:1",
                                      ",".join(["0"] * 10_002)],
                             ids=["range", "list"])
    def test_oversized_grid_is_usage_error(self, tmp_path, monkeypatch,
                                           capsys, grid):
        # a million-delay range is counted, not built, and refused at once
        monkeypatch.setenv("WADC_SAMPLING__DELAY_GRID_S", grid)
        t0 = time.perf_counter()
        assert run(tmp_path, "sweep", "--measure", "lqr") == 2
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert "delay_grid_s" in err
        assert ("1000001" if ":" in grid else "10002") in err
        assert not (tmp_path / "sweep.csv").exists()

    def test_horizon_beyond_period_cap_is_usage_error(self, tmp_path,
                                                      monkeypatch, capsys):
        # 1e7 s is 5e8 periods of 0.02 s: refused after the designs,
        # before any stepping
        monkeypatch.setenv("WADC_SCENARIO__HORIZON_S", "1e7")
        t0 = time.perf_counter()
        assert run(tmp_path, "simulate", "--measure", "lqr") == 3
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert "horizon_s" in err and "500000000" in err
        assert str(MAX_PERIODS) in err and "trace row" in err
        assert not (tmp_path / "trace.csv").exists()

    def test_grid_beyond_in_flight_cap_is_usage_error(self, tmp_path,
                                                      monkeypatch, capsys):
        # a 1e6 s delay would lift each mode to 50 million samples in
        # flight: refused before any design
        monkeypatch.setenv("WADC_SAMPLING__DELAY_GRID_S", "0,1e6")
        t0 = time.perf_counter()
        assert run(tmp_path, "sweep", "--measure", "lqr") == 3
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert "delay_grid_s" in err and "50000000" in err
        assert str(MAX_IN_FLIGHT) in err
        assert not (tmp_path / "sweep.csv").exists()

    def test_grid_beyond_sweep_in_flight_cap_is_usage_error(
            self, tmp_path, monkeypatch, capsys):
        # 10,001 delays up to 2.56 s: each within both caps above, but
        # 645,057 samples in flight over the sweep (645,073 by the bound),
        # designed one by one: refused before any design
        monkeypatch.setenv("WADC_SAMPLING__DELAY_GRID_S", "0:0.000256:2.56")
        t0 = time.perf_counter()
        assert run(tmp_path, "sweep", "--measure", "hinf") == 3
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert "delay_grid_s" in err and "645073" in err
        assert str(MAX_SWEEP_IN_FLIGHT) in err
        assert not (tmp_path / "sweep.csv").exists()

    def test_limits_bind_only_the_commands_they_bound(self, tmp_path,
                                                      monkeypatch):
        # a grid and a horizon over their caps stop sweep and simulate
        # only: linearize and design never use them
        monkeypatch.setenv("WADC_SAMPLING__DELAY_GRID_S", "0,1e6")
        monkeypatch.setenv("WADC_SCENARIO__HORIZON_S", "1e7")
        assert run(tmp_path, "linearize") == 0
        assert run(tmp_path, "design", "--measure", "lqr") == 0

    @pytest.mark.parametrize("key", ["Z_T_OHM", "Z_L_OHM", "Z_C_OHM"])
    def test_zero_impedance_is_usage_error(self, tmp_path, monkeypatch,
                                           capsys, key):
        monkeypatch.setenv(f"WADC_NETWORK__{key}", "0")
        assert run(tmp_path, "linearize") == 2
        err = capsys.readouterr().err
        assert f"env:WADC_NETWORK__{key}" in err and "nonzero" in err
        assert not (tmp_path / "A.txt").exists()

    def test_fine_grid_loads(self):
        cfg = load_config(CONFIG, environ={
            "WADC_SAMPLING__DELAY_GRID_S": "0:0.002:0.5"})
        grid = cfg["sampling"]["delay_grid_s"]
        assert len(grid) == 251 and grid[-1] == 0.5

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            load_config(CONFIG, environ={"WADC_SAMPLING__DELAY_GRID_S": ""})

    @pytest.mark.parametrize("grid", ["-0.02:0.02:0.04", "-0.02,0,0.02"],
                             ids=["range", "list"])
    def test_negative_grid_is_usage_error(self, tmp_path, monkeypatch,
                                          capsys, grid):
        monkeypatch.setenv("WADC_SAMPLING__DELAY_GRID_S", grid)
        assert run(tmp_path, "sweep", "--measure", "lqr") == 2
        err = capsys.readouterr().err
        assert "delay_grid_s" in err and "nonnegative" in err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("env, value, message", [
        ("WADC_GENERATORS__COUNT", "two", "expected an integer"),
        ("WADC_GENERATORS__COUNT", "0", "expected a positive integer"),
        ("WADC_GENERATORS__L_F_MH", "0", "expected a positive number"),
        ("WADC_NETWORK__Z_T_OHM", "0.011+abc", "complex impedance"),
        ("WADC_SCENARIO__DISTURBANCE", "step", "expected one of"),
        ("WADC_SAMPLING__DELAY_GRID_S", "0:0.1", "start:step:stop"),
        ("WADC_SAMPLING__DELAY_GRID_S", "0:0.1:0.2:0.3", "start:step:stop"),
        ("WADC_SAMPLING__DELAY_GRID_S", "0:x:0.2", "bad grid numbers"),
        ("WADC_SAMPLING__DELAY_GRID_S", "0.2:0.1:0", "empty or reversed"),
        ("WADC_SAMPLING__DELAY_GRID_S", "0:0:0.2", "empty or reversed"),
        ("WADC_SAMPLING__DELAY_GRID_S", "0:-0.1:0.2", "empty or reversed"),
    ], ids=["int", "positive-int", "positive", "complex", "choice",
            "grid-two-parts", "grid-four-parts", "grid-number",
            "grid-reversed", "grid-zero-step", "grid-negative-step"])
    def test_malformed_value_refused_by_key(self, env, value, message):
        with pytest.raises(ConfigError, match=message) as exc:
            load_config(CONFIG, environ={env: value})
        assert f"env:{env}" in str(exc.value)

    def test_machine_count_other_than_two_refused(self):
        with pytest.raises(ConfigError, match="two-machine"):
            load_config(CONFIG, environ={"WADC_GENERATORS__COUNT": "3"})

    @pytest.mark.parametrize("text, message", [
        ("count = 2\n[generators]\n", ":1: key outside any section"),
        ("[generators]\ncount\n", ":2: expected key = value"),
    ], ids=["outside-section", "no-equals"])
    def test_malformed_line_refused_with_line(self, text, message):
        with pytest.raises(ConfigError, match=message):
            load_config(text=text, environ={})

    def test_env_override_without_section_refused(self):
        with pytest.raises(ConfigError, match="SECTION__KEY"):
            load_config(CONFIG, environ={"WADC_H_S": "0.04"})

    def test_load_config_needs_a_source(self):
        with pytest.raises(ValueError, match="need a path"):
            load_config()

    def test_omitted_keys_take_schema_defaults(self):
        # the benchmark's required keys alone: every other key is filled
        # in from SCHEMA
        lines, section = [], None
        for raw in pathlib.Path(CONFIG).read_text().splitlines():
            line = raw.split("#", 1)[0].strip()
            if line.startswith("["):
                section = line[1:-1]
                lines.append(line)
            elif line and SCHEMA[section][line.split("=")[0].strip()][1] \
                    is _REQUIRED:
                lines.append(line)
        cfg = load_config(text="\n".join(lines), environ={})
        omitted = [(sec, key, spec[1]) for sec, keys in SCHEMA.items()
                   for key, spec in keys.items() if spec[1] is not _REQUIRED]
        assert len(omitted) == 18
        for sec, key, default in omitted:
            assert not any(line.startswith(f"{key} =") for line in lines)
            assert cfg[sec][key] == default, (sec, key)

    def test_gamma_tolerance_below_norm_accuracy_rejected(self):
        with pytest.raises(ConfigError) as exc:
            load_config(CONFIG, environ={"WADC_TOLERANCES__GAMMA_REL":
                                         "1e-12"})
        assert "gamma_rel" in str(exc.value)

    @pytest.mark.parametrize("env, value", [
        ("WADC_SCENARIO__IMPULSE_AMP_A", "nan"),
        ("WADC_SAMPLING__H_S", "nan"),
        ("WADC_COST__INPUT_WEIGHT", "nan"),
        ("WADC_GAINS__HINF_LOCAL", "544750,inf,-9890"),
        ("WADC_NETWORK__Z_T_OHM", "nan+0.106j"),
        ("WADC_SAMPLING__DELAY_GRID_S", "0,inf"),
        ("WADC_SAMPLING__DELAY_GRID_S", "0:1e400:1e400"),
    ])
    def test_non_finite_number_is_usage_error(self, tmp_path, monkeypatch,
                                              capsys, env, value):
        monkeypatch.setenv("WADC_SCENARIO__DISTURBANCE", "impulse")
        monkeypatch.setenv(env, value)
        assert run(tmp_path, "simulate", "--measure", "hinf",
                   "--delay", "0.1") == 2
        err = capsys.readouterr().err
        key = env.split("__", 1)[1]
        assert f"env:{env}" in err and key.lower() in err.lower()
        assert "finite" in err
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("command", ["design", "simulate"])
    def test_initial_state_needs_three_entries(self, tmp_path, monkeypatch,
                                               capsys, command):
        monkeypatch.setenv("WADC_SCENARIO__INITIAL_STATE", "1,0")
        assert run(tmp_path, command, "--measure", "lqr",
                   "--delay", "0.1") == 2
        assert "[scenario] initial_state must have 3 entries" in \
            capsys.readouterr().err

    def test_every_schema_key_documented(self):
        readme = README.read_text()
        for section, keys in SCHEMA.items():
            assert f"[{section}]" in readme, f"section {section} undocumented"
            for key in keys:
                assert key in readme, f"config key {key} undocumented"


class TestMatrixFormat:
    def test_round_trip_lossless(self, tmp_path):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((5, 3)) * 10.0 ** rng.integers(-8, 8, (5, 3))
        path = tmp_path / "m.txt"
        write_matrix(path, M)
        np.testing.assert_array_equal(read_matrix(path), M)

    def test_header(self, tmp_path):
        path = tmp_path / "m.txt"
        write_matrix(path, np.eye(2))
        assert path.read_text().splitlines()[0] == "2 2"


class TestLinearizeCommand:
    def test_outputs_and_eigenvalues(self, tmp_path, capsys):
        assert run(tmp_path, "linearize") == 0
        A = read_matrix(tmp_path / "A.txt")
        B_u = read_matrix(tmp_path / "B_u.txt")
        B_w = read_matrix(tmp_path / "B_w.txt")
        assert A.shape == (6, 6)
        assert B_u.shape == (6, 2)
        assert B_w.shape == (6, 4)
        out = capsys.readouterr().out
        assert "eig(A):" in out and "eig(A + B_u K[lqr]):" in out
        # the locally closed loops are Hurwitz for both gain sets
        import re
        for K in ("lqr", "hinf"):
            line = next(l for l in out.splitlines() if f"K[{K}]" in l)
            reals = [float(m) for m in re.findall(
                r"([+-][\d.e]+)[+-][\d.e]+j", line.split(": ")[1])]
            assert len(reals) == 6
            assert all(r < 0 for r in reals)

    def test_inconsistent_voltage_target_exit_3(self, tmp_path, monkeypatch,
                                                capsys):
        # 1 % above the terminal voltage that e_f0_V gives: with T_m_Nm
        # fixed no equilibrium exists, and the error says what to change
        monkeypatch.setenv("WADC_EQUILIBRIUM__V_TARGET_V", "9444")
        monkeypatch.setenv("WADC_EQUILIBRIUM__MAX_ITERS", "3")
        assert run(tmp_path, "linearize") == 3
        err = capsys.readouterr().err
        assert err.startswith("error: no convergence after 3 iterations")
        assert "power-consistent" in err
        assert "scripts/make_benchmark_config.py" in err

    def test_loose_equilibrium_tolerance_exit_3(self, tmp_path, monkeypatch,
                                                capsys):
        # Newton stops at a residual the config accepts but linearize
        # cannot take for an equilibrium: a typed error, not a traceback
        monkeypatch.setenv("WADC_TOLERANCES__EQUILIBRIUM", "1e-4")
        assert run(tmp_path, "linearize") == 3
        err = capsys.readouterr().err
        assert err.startswith("error: the operating point's scaled dynamics "
                              "residual ")
        assert "exceeds the 1e-08 linearize accepts" in err
        assert "tighten [tolerances] equilibrium" in err

    def test_deterministic_bytes(self, tmp_path):
        run(tmp_path / "a", "linearize")
        run(tmp_path / "b", "linearize")
        for name in ("A.txt", "B_u.txt", "B_w.txt", "operating_point.txt"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_config_roundtrip_reproduces(self, tmp_path):
        run(tmp_path / "a", "linearize")
        report = json.loads((tmp_path / "a" / "report.json").read_text())
        text = _emit_config(report["resolved_config"])
        regen = tmp_path / "regen.cfg"
        regen.write_text(text)
        assert main(["--config", str(regen), "--out", str(tmp_path / "b"),
                     "linearize"]) == 0
        assert (tmp_path / "a" / "A.txt").read_bytes() == \
            (tmp_path / "b" / "A.txt").read_bytes()


def _emit_config(resolved):
    """Serialize a resolved config back into the file format."""
    lines = []
    for section, keys in resolved.items():
        lines.append(f"[{section}]")
        for key, value in keys.items():
            if value is None:
                value = "auto" if key == "horizon_s" else "none"
            elif isinstance(value, list):
                value = ", ".join(repr(v) for v in value)
            elif isinstance(value, str) and value.startswith("("):
                value = value.strip("()")
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


class TestSweepCommand:
    def test_small_lqr_sweep(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("WADC_SAMPLING__DELAY_GRID_S", "0:0.1:0.2")
        assert run(tmp_path, "sweep", "--measure", "lqr") == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == \
            "delay_s,mode,measure,value,lower_bound,upper_bound,status"
        assert len(lines) == 4
        for row in lines[1:]:
            fields = row.split(",")
            assert fields[1] == "oscillation" and fields[2] == "lqr"
            value, lo, hi = map(float, fields[3:6])
            assert lo <= value <= hi * (1 + 1e-9)
            assert fields[6] == "ok"
        assert_write_timed(
            json.loads((tmp_path / "report.json").read_text()))

    def test_sweep_deterministic_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WADC_SAMPLING__DELAY_GRID_S", "0:0.1:0.1")
        run(tmp_path / "a", "sweep", "--measure", "lqr")
        run(tmp_path / "b", "sweep", "--measure", "lqr")
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == \
            (tmp_path / "b" / "sweep.csv").read_bytes()

    def test_empty_grid_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("WADC_SAMPLING__DELAY_GRID_S", "")
        assert run(tmp_path, "sweep", "--measure", "lqr") == 2
        assert not (tmp_path / "sweep.csv").exists()
        assert "delay_grid_s" in capsys.readouterr().err

    def test_fine_lqr_sweep_golden_digest(self, tmp_path, monkeypatch):
        # sha256 of the 52-row fine-grid sweep.csv as first recorded (numpy
        # 2.4.6, scipy 1.17.1, one BLAS thread); a change to the numerical
        # method of the LQR path must update it explicitly
        monkeypatch.setenv("WADC_SAMPLING__DELAY_GRID_S", "0:0.002:0.05")
        assert run(tmp_path, "sweep", "--measure", "lqr", "--mode",
                   "all") == 0
        digest = hashlib.sha256(
            (tmp_path / "sweep.csv").read_bytes()).hexdigest()
        assert digest == ("06d0f2af853b3fa0e6fa72cc8894f631"
                          "b43434183f5aa039f2a08751b1d715f5")

    def test_benchmark_fine_sweep_matches_its_reference(self, tmp_path,
                                                        monkeypatch):
        # the benchmark's sweep-lqr-fine workload at seed 0 must write the
        # bytes whose sha256 the benchmark's reference pins (read, never
        # written here)
        grid = "0:0.002:0.5"
        ref = json.loads(BENCH_REFERENCE.read_text())["sweep-lqr-fine"][grid]
        monkeypatch.setenv("WADC_SAMPLING__DELAY_GRID_S", grid)
        assert run(tmp_path, "sweep", "--measure", "lqr", "--mode",
                   "all") == 0
        data = (tmp_path / "sweep.csv").read_bytes()
        assert data.count(b"\n") == ref["rows"] + 1   # with the header
        assert hashlib.sha256(data).hexdigest() == ref["sha256"]

    def test_offset_fine_lqr_sweep_golden_digest(self, tmp_path,
                                                 monkeypatch):
        # the benchmark's offset fine grid over a short range: no delay is a
        # multiple of h, so every interval's rows form one full stack of
        # policy-iteration designs; sha256 as first recorded with one design
        # per row (numpy 2.4.6, scipy 1.17.1, one BLAS thread)
        monkeypatch.setenv("WADC_SAMPLING__DELAY_GRID_S",
                           "0.0006:0.002:0.0506")
        assert run(tmp_path, "sweep", "--measure", "lqr", "--mode",
                   "all") == 0
        digest = hashlib.sha256(
            (tmp_path / "sweep.csv").read_bytes()).hexdigest()
        assert digest == ("8c09a2b7c19f6dc2f43f454c4cd86344"
                          "6cfbf7e4432d290a73dc9899a4d47cb8")
        report = json.loads((tmp_path / "report.json").read_text())
        for mode in ("oscillation", "common"):
            assert report["diagnostics"][mode] == {
                "rows_designed": 26, "stacks": 3, "largest_stack": 10,
                "rows_redesigned": 0}

    def test_falling_measure_warns_in_report(self, tmp_path, monkeypatch):
        falling_designs(monkeypatch)
        monkeypatch.setenv("WADC_SAMPLING__DELAY_GRID_S", "0:0.1:0.3")
        assert run(tmp_path, "sweep", "--measure", "lqr") == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["warnings"] == [f"oscillation: {FALLING_WARNING}"]

    def test_all_modes_match_single_mode_runs(self, tmp_path, monkeypatch):
        # each mode's rows are the same whether or not the other mode was
        # swept in the same process
        monkeypatch.setenv("WADC_SAMPLING__DELAY_GRID_S", "0:0.002:0.05")
        for mode in ("all", "oscillation", "common"):
            assert run(tmp_path / mode, "sweep", "--measure", "lqr",
                       "--mode", mode) == 0
        lines = {mode: (tmp_path / mode / "sweep.csv").read_text()
                 .splitlines() for mode in ("all", "oscillation", "common")}
        assert lines["all"] == (lines["oscillation"]
                                + lines["common"][1:])

    def test_hinf_level_counts_per_mode(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WADC_SAMPLING__DELAY_GRID_S", "0:0.1:0.2")
        assert run(tmp_path, "sweep", "--measure", "hinf") == 0
        report = json.loads((tmp_path / "report.json").read_text())
        diag = report["diagnostics"]["oscillation"]
        # the zero-wait row takes no level; the other two one each, as the
        # delay window's gain is within gamma_rel of the optimum
        assert diag["rows_designed"] == 2
        assert diag["levels_accepted"] == diag["levels_tried"] == 2

    def test_config_hinf_sweep_takes_one_level_per_row(self, tmp_path,
                                                       gains_k2, dec_k2):
        # the paper's gamma-against-delay figure on the config's own grid,
        # 0:0.02:0.5: each of the 25 nonzero waits of each mode is settled
        # by one certified level, and every value agrees with the plain
        # bisection from [0, decentralized]; about 3 s on a 2-core host,
        # most of it the bisections' 500 levels
        assert run(tmp_path, "sweep", "--measure", "hinf", "--mode",
                   "all") == 0
        report = json.loads((tmp_path / "report.json").read_text())
        for label in ("oscillation", "common"):
            diag = report["diagnostics"][label]
            assert (diag["levels_tried"] == diag["levels_accepted"]
                    == diag["rows_designed"] == 25)
        rows = [line.split(",") for line in
                (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
        assert len(rows) == 52
        for delay, mode, _, value, *_ in rows:
            if float(delay) == 0.0:
                continue
            disc = discretize(bench_mode_system(
                gains_k2, dec_k2, dec_k2.mode_index(mode)), 0.02,
                float(delay))
            reference, _ = bisection_gamma(disc, 1e-3)
            assert abs(float(value) - reference) <= 1e-3 * reference

    def test_hinf_zero_delay_beats_decentralized(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WADC_SAMPLING__DELAY_GRID_S", "0")
        assert run(tmp_path, "sweep", "--measure", "hinf") == 0
        row = (tmp_path / "sweep.csv").read_text().splitlines()[1].split(",")
        value, upper = float(row[3]), float(row[5])
        assert value < upper  # remote feedback helps at zero delay


@pytest.mark.parametrize("command, delay", [
    ("design", "nan"), ("simulate", "inf"), ("design", "-0.1")])
def test_delay_must_be_finite_and_nonnegative(tmp_path, capsys, command,
                                              delay):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, command, "--delay", delay)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --delay: expected a" in err and repr(delay) in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_unusable_out_is_usage_error(tmp_path, capsys, under):
    # --out names a file (FileExistsError) or a path below one
    # (NotADirectoryError): the message, not a traceback, and exit 2
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "out" if under else blocker
    assert main(["--config", CONFIG, "--out", str(out), "linearize"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert "Traceback" not in err
    assert blocker.read_text() == ""


@pytest.mark.parametrize("command, blocked", [
    (("simulate", "--measure", "lqr"), "trace.csv"),
    (("linearize",), "report.json"),
], ids=["simulate-trace", "linearize-report"])
def test_unwritable_output_file_is_usage_error(tmp_path, monkeypatch, capsys,
                                               command, blocked):
    # an output file that is a directory: the message, not a traceback,
    # and exit 2
    monkeypatch.setenv("WADC_SCENARIO__HORIZON_S", "1.0")
    (tmp_path / blocked).mkdir()
    assert run(tmp_path, *command) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and blocked in err
    assert "Traceback" not in err


def strict_report(out_dir):
    """report.json, read as strict JSON: no NaN or Infinity."""
    return json.loads((out_dir / "report.json").read_text(),
                      parse_constant=pytest.fail)


@pytest.mark.parametrize("command", [
    ("design", "--measure", "lqr"),
    ("sweep", "--measure", "lqr"),
    ("simulate", "--measure", "lqr", "--delay", "0.1"),
], ids=["design", "sweep", "simulate"])
def test_non_finite_cost_refused(tmp_path, monkeypatch, capsys, command):
    # an initial angle of 1e200 rad squares past float64: the cost is
    # refused, typed, before any output file is written
    monkeypatch.setenv("WADC_SCENARIO__INITIAL_STATE", "1e200,0,0")
    assert run(tmp_path, *command) == 3
    err = capsys.readouterr().err
    assert "came out inf" in err and "[scenario] initial_state" in err
    assert strict_report(tmp_path)["outputs"] == {}
    assert sorted(os.listdir(tmp_path)) == ["report.json"]


@pytest.mark.parametrize("env, command, key", [
    # ||C2|| overflows, and inf <= 1e-12 inf would pass the zero-level test
    ({"WADC_OUTPUT__DELTA_WEIGHT": "1e300"},
     ("design", "--measure", "hinf", "--delay", "0.1"),
     "[output] delta_weight"),
    # K' R K overflows in the folded running cost, which only an LQR
    # design reads; at 1e300 the smaller LQR local gains keep it finite
    ({"WADC_COST__INPUT_WEIGHT": "1e305"},
     ("design", "--measure", "lqr", "--delay", "0.1"), "[cost] input_weight"),
    # exp(h A1) over 1e300 s comes out nan
    ({"WADC_SAMPLING__H_S": "1e300"},
     ("design", "--measure", "lqr", "--delay", "0"), "[sampling] h_s"),
    ({"WADC_SAMPLING__H_S": "1e300"},
     ("design", "--measure", "hinf", "--delay", "0"), "[sampling] h_s"),
    # the no-load field flux L_f e_f0 / R_f is 2.9e305 Wb
    ({"WADC_GENERATORS__R_F_MOHM": "1e-300"}, ("linearize",),
     "[generators] R_f_mOhm"),
    # the running cost's Lyapunov factor fails: P comes back near 1e-304
    ({"WADC_COST__INPUT_WEIGHT": "1e300"},
     ("design", "--measure", "lqr", "--delay", "0.1"), "[cost] input_weight"),
    ({"WADC_COST__DELTA_WEIGHT": "1e300"},
     ("design", "--measure", "lqr", "--delay", "0.1"), "[cost] input_weight"),
    # the squared voltage target overflows
    ({"WADC_EQUILIBRIUM__V_TARGET_V": "1e300"}, ("linearize",),
     "[equilibrium] v_target_V"),
    # an admittance of 1e300 squares past float64 in the reduction
    ({"WADC_NETWORK__Z_T_OHM": "1e-300"}, ("linearize",),
     "[network] Z_T_Ohm"),
    ({"WADC_NETWORK__Z_L_OHM": "1e-300"}, ("linearize",),
     "[network] Z_L_Ohm"),
    ({"WADC_NETWORK__Z_C_OHM": "1e-300"}, ("linearize",),
     "[network] Z_C_Ohm"),
], ids=["output-weight", "input-weight", "h-lqr", "h-hinf",
        "field-resistance", "input-weight-lqr", "delta-weight-lqr",
        "voltage-target", "line-impedance", "load-impedance",
        "tie-impedance"])
def test_overflowing_model_refused(tmp_path, monkeypatch, capsys, env,
                                   command, key):
    # typed, with one error line naming the key, before any output file
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert run(tmp_path, *command) == 3
    out = capsys.readouterr()
    assert out.out == ""
    lines = out.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert key in lines[0]
    assert strict_report(tmp_path)["outputs"] == {}
    assert sorted(os.listdir(tmp_path)) == ["report.json"]


def test_hinf_design_reads_no_cost(tmp_path, monkeypatch):
    # K' R K overflows in the folded running cost, which only an LQR design
    # reads: the H-infinity gains are those of the default weight
    assert run(tmp_path / "default", "design", "--measure", "hinf",
               "--delay", "0.1") == 0
    monkeypatch.setenv("WADC_COST__INPUT_WEIGHT", "1e300")
    assert run(tmp_path / "heavy", "design", "--measure", "hinf",
               "--delay", "0.1") == 0
    for label in ("oscillation", "common"):
        name = f"F_{label}.txt"
        assert ((tmp_path / "heavy" / name).read_bytes()
                == (tmp_path / "default" / name).read_bytes())


@pytest.mark.parametrize("command", [
    ("design", "--measure", "hinf", "--mode", "all", "--delay", "0.1"),
    ("sweep", "--measure", "hinf", "--mode", "all"),
    ("simulate", "--measure", "hinf", "--delay", "0.1"),
], ids=["design", "sweep", "simulate"])
def test_hinf_factors_no_cost(tmp_path, monkeypatch, command):
    # the running cost's factorization feeds LQR designs alone
    monkeypatch.setattr(sampled, "solve_pmu",
                        lambda *a: pytest.fail("factored a running cost"))
    monkeypatch.setenv("WADC_SAMPLING__DELAY_GRID_S", "0:0.1:0.1")
    monkeypatch.setenv("WADC_SCENARIO__HORIZON_S", "1")
    assert run(tmp_path, *command) == 0


@pytest.mark.parametrize("weight", ["1e20", "1e40", "1e-300"])
@pytest.mark.parametrize("command", [
    ("design", "--measure", "hinf", "--delay", "0.1"),
    ("sweep", "--measure", "hinf", "--mode", "all"),
    ("simulate", "--measure", "hinf", "--delay", "0.1"),
], ids=["design", "sweep", "simulate"])
def test_uncertified_search_warned(tmp_path, monkeypatch, command, weight):
    # every level of both modes' searches fails: from 1e20 the Riccati
    # solve breaks down (from 1e40 inside SciPy's balancing, which must
    # not warn), at 1e-300 gamma^2 underflows; the printed gamma is then
    # the decentralized level, and the report must say so for each mode
    monkeypatch.setenv("WADC_OUTPUT__DELTA_WEIGHT", weight)
    monkeypatch.setenv("WADC_SAMPLING__DELAY_GRID_S", "0:0.1:0.1")
    monkeypatch.setenv("WADC_SCENARIO__HORIZON_S", "1")
    assert run(tmp_path, *command) == 0
    report = strict_report(tmp_path)
    for label in ("oscillation", "common"):
        warned = [w for w in report["warnings"] if w.startswith(
            f"{label}: the H-infinity search certified none of its")]
        assert len(warned) == 1
        # the bracket the printed value tops: [window bound, decentralized]
        # (the sweep names its first such wait, 0 here, whose bound is 0)
        low, high = (float(v) for v in
                     warned[0].split("lies in [")[1].split("]")[0].split(","))
        assert 0.0 <= low < high
        if command[0] != "sweep":
            diag = report["diagnostics"]
            diag = diag.get("designs", diag)[label]
            assert low == pytest.approx(diag["window_bound"], rel=1e-5)


def test_extreme_value_table(tmp_path):
    # every numeric key at 1e-300 and 1e300 ends in a result or a typed
    # refusal, with no RuntimeWarning and only finite numbers printed
    # (scripts/extreme_values.py runs the full table); the model's keys run
    # on linearize with a short Newton budget, the design keys on both
    # designs and the scenario keys on a short simulation of each measure:
    # 80 runs, about 3 s on a 2-core host
    path = (pathlib.Path(__file__).resolve().parents[1]
            / "scripts/extreme_values.py")
    spec = importlib.util.spec_from_file_location("extreme_values", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    command = {
        "design": [("design", "--measure", m, "--delay", "0.1")
                   for m in ("lqr", "hinf")],
        "simulate": [("simulate", "--measure", m, "--delay", "0.1")
                     for m in ("lqr", "hinf")],
        "model": [("linearize",)],
    }
    kind = {"cost": "design", "output": "design", "gains": "design",
            "sampling": "design", "scenario": "simulate"}
    failures, runs = [], 0
    for sec, key in script.KEYS:
        if SCHEMA[sec][key][0] is _parse_positive_int:
            continue     # an integer key refuses both values as config errors
        which = "design" if key == "gamma_rel" else kind.get(sec, "model")
        for value in ("1e-300", "1e300"):
            env = script.override(sec, key, value)
            env.setdefault("WADC_EQUILIBRIUM__MAX_ITERS", "4")
            env.setdefault("WADC_SCENARIO__HORIZON_S", "1")
            for argv in command[which]:
                out = tmp_path / str(runs)
                code, problems = script.run_case(env, argv, out)
                runs += 1
                if problems:
                    failures.append((sec, key, value, argv, code, problems))
    assert failures == []
    assert runs == 80


class TestDesignCommand:
    def test_delay_beyond_in_flight_cap_refused(self, tmp_path, capsys):
        # typed, and before the lifted system is built
        t0 = time.perf_counter()
        assert run(tmp_path, "design", "--delay", "1e6") == 3
        assert time.perf_counter() - t0 < 1.0
        assert "50000000 input samples in flight" in capsys.readouterr().err

    def test_writes_gains(self, tmp_path, capsys):
        assert run(tmp_path, "design", "--measure", "lqr",
                   "--delay", "0.1") == 0
        F_osc = read_matrix(tmp_path / "F_oscillation.txt")
        F_com = read_matrix(tmp_path / "F_common.txt")
        assert F_osc.shape == (1, 8)  # 3 states + 5 in-flight samples
        assert F_com.shape == (1, 8)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["designs"]["oscillation"]["q"] == 4
        assert_write_timed(report)

    def test_hinf_all_modes(self, tmp_path):
        assert run(tmp_path, "design", "--measure", "hinf", "--mode", "all",
                   "--delay", "0.1") == 0
        report = json.loads((tmp_path / "report.json").read_text())
        for label in ("oscillation", "common"):
            assert read_matrix(tmp_path / f"F_{label}.txt").shape == (1, 8)
            entry = report["designs"][label]
            assert entry["gamma"] > entry["certified_norm"]
            diag = report["diagnostics"][label]
            assert diag["levels_accepted"] == diag["levels_tried"] == 1
            assert "residual_gain" not in diag
            # both sides of the certificate: no gain beats the window's
            bound = diag["window_bound"]
            assert bound < entry["certified_norm"] < entry["gamma"]
            assert entry["gamma"] <= bound * (1 + 1e-3)

    def test_hinf_zero_wait_level_is_exact(self, tmp_path):
        # the static gain F0 = -D_u^+ C cancels the output: level and norm
        # are exactly 0, and the rounding-level rest of C + D_u F0 is
        # reported as a diagnostic, not as a norm
        assert run(tmp_path, "design", "--measure", "hinf", "--mode", "all",
                   "--delay", "0") == 0
        report = json.loads((tmp_path / "report.json").read_text())
        for label in ("oscillation", "common"):
            entry = report["designs"][label]
            assert entry["gamma"] == 0.0 and entry["certified_norm"] == 0.0
            diag = report["diagnostics"][label]
            assert diag["levels_tried"] == diag["levels_accepted"] == 0
            assert diag["window_bound"] == 0.0
            assert 0.0 <= diag["residual_gain"] <= 1e-12

    def test_destabilizing_local_gains_exit_3(self, tmp_path, monkeypatch,
                                              capsys):
        # the sign-flipped gain row leaves A + B_u K with an eigenvalue of
        # real part +3.07
        monkeypatch.setenv("WADC_GAINS__LQR_LOCAL", "-169.6,-201,3.04")
        assert run(tmp_path, "design", "--measure", "lqr") == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "real part" in err
        report = json.loads((tmp_path / "report.json").read_text())
        assert any("real part" in w for w in report["warnings"])


class TestSimulateCommand:
    def test_step_refinement_noted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WADC_SCENARIO__INTEGRATOR_STEP_S", "0.002")
        monkeypatch.setenv("WADC_SCENARIO__HORIZON_S", "2.0")
        assert run(tmp_path, "simulate", "--measure", "lqr",
                   "--delay", "0.013") == 0
        report = json.loads((tmp_path / "report.json").read_text())
        notes = " ".join(report["notes"])
        assert "refined from 0.002 to 0.0005" in notes
        assert_write_timed(report)

    def test_small_step_divides_period(self, tmp_path, monkeypatch):
        # 1e-6 s refines to 0.02 / 2**15; its denominator 1,638,400 must
        # survive the check that the step divides the sampling period
        monkeypatch.setenv("WADC_SCENARIO__INTEGRATOR_STEP_S", "1e-6")
        monkeypatch.setenv("WADC_SCENARIO__HORIZON_S", "0.1")
        assert run(tmp_path, "simulate", "--measure", "lqr",
                   "--delay", "0.1") == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["diagnostics"]["steps_per_period"] == 32768

    def test_fine_delay_grid_refused(self, tmp_path, monkeypatch, capsys):
        # a 0.1 us delay digit needs 1,999,998 steps per period: refused,
        # typed, before any step map is built
        monkeypatch.setattr(sim_eval, "_rk4_affine",
                            lambda *a: pytest.fail("built a step map"))
        monkeypatch.setenv("WADC_SCENARIO__HORIZON_S", "1.0")
        t0 = time.perf_counter()
        assert run(tmp_path, "simulate", "--measure", "lqr",
                   "--delay", "0.1000001") == 3
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert "1999998 integrator steps" in err and "integrator_step_s" in err

    @pytest.mark.parametrize("measure, env, delay, gain, message", [
        # no angle weight: 20 time constants of the slowest sampled mode
        # are 1,623,822 periods
        ("lqr", {"WADC_COST__DELTA_WEIGHT": "0"}, "0.1", 1.0,
         "asks for 1623822 sampling periods"),
        # more periods than a float holds
        ("lqr", {"WADC_SCENARIO__HORIZON_S": "1e308"}, "0.1", 1.0,
         "asks for inf sampling periods"),
        ("lqr", {"WADC_SCENARIO__HORIZON_S": "1.0"}, "0.1000001", 1.0,
         "1999998 integrator steps"),
        # tripled remote gains: the sampled loop has no horizon or cost
        ("lqr", {}, "0.1", 3.0, "spectral radius 1.1156629"),
        # an H-infinity run has no certificate to refuse first: its cost
        # overflows, and is refused before any stepping
        ("hinf", {"WADC_SCENARIO__INITIAL_STATE": "1e308,0,0",
                  "WADC_SCENARIO__HORIZON_S": "10"}, "0.1", 1.0,
         "[scenario] initial_state"),
        # a first period that stays finite and a run whose cost overflows:
        # the run is priced whole before its first row
        ("hinf", {"WADC_SCENARIO__INITIAL_STATE": "8e152,0,0",
                  "WADC_SCENARIO__HORIZON_S": "60"}, "0.1", 1.0,
         "[scenario] initial_state"),
        # the H-infinity design reads no running cost, but the run prices
        # one: K' R K overflows in its period cost form, refused before any
        # stepping and with no RuntimeWarning
        ("hinf", {"WADC_COST__INPUT_WEIGHT": "1e300",
                  "WADC_SCENARIO__HORIZON_S": "10"}, "0.1", 1.0,
         "[cost] input_weight"),
    ], ids=["auto-horizon", "horizon-overflow", "step-grid", "unstable",
            "hinf-cost-overflow", "hinf-run-overflow", "hinf-cost-weight"])
    def test_refused_run_writes_no_trace(self, tmp_path, monkeypatch, capsys,
                                         measure, env, delay, gain, message):
        designed = cli.design_mode

        def design(*args, **kwargs):
            md = designed(*args, **kwargs)
            return dataclasses.replace(md, F=gain * md.F)

        monkeypatch.setattr(cli, "design_mode", design)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert run(tmp_path, "simulate", "--measure", measure,
                   "--delay", delay) == 3
        assert message in capsys.readouterr().err
        report = strict_report(tmp_path)
        assert report["outputs"] == {} and message in report["warnings"][0]
        assert not (tmp_path / "trace.csv").exists()

    def test_zero_state_zero_cost(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WADC_SCENARIO__INITIAL_STATE", "0, 0, 0")
        monkeypatch.setenv("WADC_SCENARIO__HORIZON_S", "1.0")
        assert run(tmp_path, "simulate", "--measure", "lqr") == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["summary"]["J_measured"] == 0.0
        trace = (tmp_path / "trace.csv").read_text().splitlines()
        assert all(float(v) == 0.0 for v in trace[1].split(",")[1:])

    def test_certificate_comparison(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WADC_SCENARIO__HORIZON_S", "600")
        assert run(tmp_path, "simulate", "--measure", "lqr",
                   "--delay", "0.1") == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["summary"]["relative_gap"] <= 5e-3

    @pytest.mark.parametrize("measure,delay,horizon,digest", [
        # 8,001 rows, three of them with a value in exponent form
        ("lqr", "0.1", "160", "59f345d5465285573a049f33977bb6ad"
                              "bc8ad8c151167913ae913fdfb2b1ac3b"),
        ("hinf", "0.1", "2", "39dfd6e07a508ab62e44df52399ffe8d"
                             "3b3b7bba99897e650ba75a69e880af9e"),
        # the benchmark's auto horizon: 126,257 rows
        ("lqr", "0.1", "auto", "9bb5747b36ea992abdc32da6e45d00f8"
                               "cf0afbaca70ddbe1b26a23dbdcd49581"),
        # 2,049 and 2,050 periods: a last period, and a last two, after
        # the first 2,048-row segment; a one-row segment of its own would
        # move bytes here
        ("lqr", "0.04", "40.98", "de3eed5a4782910b72c9462488895df8"
                                 "17ae389a65b441fc58087800a64a85fa"),
        ("lqr", "0.04", "41.0", "8b0452b16b541bf61eed1ed2e2a74433"
                                "80cb2858f5cb7c6469578cc944617f50"),
        # one period: two rows
        ("lqr", "0.1", "0.02", "853e025c1f114cf8a4921ed0fe312f55"
                               "f44729acf047215f62f9fdd53f56fe89"),
    ], ids=["lqr", "hinf", "lqr-auto", "lqr-last-1", "lqr-last-2",
            "lqr-one-period"])
    def test_trace_golden_digest(self, tmp_path, monkeypatch, measure,
                                 delay, horizon, digest):
        # sha256 of trace.csv (numpy 2.4.6, scipy 1.17.1, one BLAS thread);
        # lqr as first recorded, hinf since its gain is read from the one
        # pivot of the gamma-scaled game, the rest as written in one piece
        # before traces were streamed; any change to a number or to the
        # format shows
        monkeypatch.setenv("WADC_SCENARIO__HORIZON_S", horizon)
        assert run(tmp_path, "simulate", "--measure", measure,
                   "--delay", delay) == 0
        assert trace_digest(tmp_path) == digest
        if horizon == "auto":
            # the exact digit path decides all but a few dozen values (0
            # among them); a silent fall back to formatting every value in
            # Python would show here
            diag = json.loads((tmp_path / "report.json").read_text())[
                "diagnostics"]
            assert diag["trace_rows"] == 126257
            assert diag["trace_fmt_values"] <= 64

    def test_streamed_memory_does_not_grow_with_horizon(self, tmp_path,
                                                       monkeypatch):
        # rows go to the file as the recursion makes them: the memory the
        # simulation and the writing take is the same for 5,001 rows and
        # for 50,001, both past one 2,048-row segment.  A trace held whole
        # would differ by 45,000 rows of 13 values, 4.7 MB
        peaks = {}
        simulate = cli.simulate_closed_loop

        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return simulate(*args, **kwargs)
            finally:
                peaks[len(peaks)] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()

        monkeypatch.setattr(cli, "simulate_closed_loop", measured)
        for horizon in ("100", "1000"):
            monkeypatch.setenv("WADC_SCENARIO__HORIZON_S", horizon)
            assert run(tmp_path / horizon, "simulate", "--measure", "lqr",
                       "--delay", "0.1") == 0
        assert abs(peaks[1] - peaks[0]) < 2e6, peaks

    def test_settled_auto_horizon_reported(self, tmp_path, monkeypatch):
        # the H-infinity loop at 0.1 s: 20 time constants of its sampled
        # loop are 29,111 periods, one trace row each and one more
        assert run(tmp_path, "simulate", "--measure", "hinf",
                   "--delay", "0.1") == 0
        report = json.loads((tmp_path / "report.json").read_text())
        diag = report["diagnostics"]
        assert report["summary"]["horizon_s"] == pytest.approx(582.22)
        assert diag["periods"] == 29111 and diag["trace_rows"] == 29112
        assert set(diag) == {"designs", "integrator_step_s", "periods",
                             "steps_per_period", "trace_bytes",
                             "trace_fmt_values", "trace_rows"}
        assert report["warnings"] == []

    def test_impulse_disturbance_trace(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WADC_SCENARIO__DISTURBANCE", "impulse")
        monkeypatch.setenv("WADC_SCENARIO__INITIAL_STATE", "0, 0, 0")
        monkeypatch.setenv("WADC_SCENARIO__HORIZON_S", "5.0")
        assert run(tmp_path, "simulate", "--measure", "hinf",
                   "--delay", "0.04") == 0
        trace = (tmp_path / "trace.csv").read_text().splitlines()
        header = trace[0].split(",")
        assert header[0] == "t_s" and "y_1" in header
        assert trace_digest(tmp_path) == ("56414132c677825bc31b4f0c0fd49613"
                                          "301db92f8f8796b462636b05da17793b")
        report = json.loads((tmp_path / "report.json").read_text())
        for diag in report["diagnostics"]["designs"].values():
            assert 1 <= diag["levels_accepted"] <= diag["levels_tried"]
        data = np.array([[float(v) for v in row.split(",")]
                         for row in trace[1:]])
        assert np.abs(data[:, 1:7]).max() > 0  # pulse excites the grid


class TestProcessEntry:
    """``python -m wadc`` and the ``wadc`` script run ``wadc.__main__.run``,
    which freezes the import heap before ``cli.main`` and after it.
    Importing ``wadc.__main__`` first registers lazy stand-ins for the numpy
    submodules in ``DEFERRED``, which ``import wadc`` alone does not load."""

    # a module that each stand-in's code imports, or that it alone pulls in
    UNRUN = ("numpy.f2py.crackfortran", "numpy.testing._private.utils",
             "unittest", "charset_normalizer", "numpy.ma.core")

    @staticmethod
    def python(*args, **overrides):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", **overrides)
        src = str(README.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, env.get("PYTHONPATH"))))
        return subprocess.run(
            [sys.executable, *args], cwd=README.parent, env=env,
            capture_output=True, text=True, timeout=60)

    @classmethod
    def spawn(cls, out_dir, *argv, flags=(), **overrides):
        return cls.python(*flags, "-m", "wadc", "--config", CONFIG,
                          "--out", str(out_dir), *argv, **overrides)

    @staticmethod
    def digests(out_dir):
        outputs = json.loads((out_dir / "report.json").read_text())["outputs"]
        return {pathlib.Path(path).name: record["sha256"]
                for path, record in outputs.items()}

    def test_linearize_matches_in_process_run(self, tmp_path):
        proc = self.spawn(tmp_path / "entry", "linearize")
        assert proc.returncode == 0, proc.stderr
        assert "eig(A):" in proc.stdout
        assert run(tmp_path / "main", "linearize") == 0
        digests = self.digests(tmp_path / "entry")
        assert sorted(digests) == ["A.txt", "B_u.txt", "B_w.txt",
                                   "operating_point.txt"]
        assert digests == self.digests(tmp_path / "main")

    def test_wadc_error_exits_3(self, tmp_path):
        proc = self.spawn(tmp_path, "design", "--delay", "1e6")
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: ")
        assert "input samples in flight" in proc.stderr

    def test_run_freezes_before_main(self, monkeypatch):
        # and again after it, for the objects of SciPy's import inside it
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(entry, "main", lambda: calls.append("main") or 5)
        assert entry.run() == 5
        assert calls == ["freeze", "main", "freeze"]

    def test_main_leaves_collector_alone(self, tmp_path):
        frozen, enabled = gc.get_freeze_count(), gc.isenabled()
        assert run(tmp_path, "linearize") == 0
        assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)

    # the H-infinity commands ask numpy.ma's isMaskedArray (SciPy's input
    # validator), which its stand-in answers without running
    @pytest.mark.parametrize("argv, overrides", [
        (("linearize",), {}),
        (("simulate", "--measure", "lqr", "--delay", "0.1"),
         {"WADC_SCENARIO__HORIZON_S": "2"}),
        (("simulate", "--measure", "hinf", "--delay", "0.1"),
         {"WADC_SCENARIO__HORIZON_S": "2"}),
        (("sweep", "--measure", "hinf", "--mode", "oscillation"),
         {"WADC_SAMPLING__DELAY_GRID_S": "0:0.1:0.1"}),
    ], ids=["linearize", "simulate-lqr", "simulate-hinf", "sweep-hinf"])
    def test_entry_leaves_deferred_modules_unrun(self, tmp_path, argv,
                                                 overrides):
        proc = self.spawn(tmp_path, *argv, flags=("-X", "importtime"),
                          **overrides)
        assert proc.returncode == 0, proc.stderr
        imported = {line.rpartition("|")[2].strip()
                    for line in proc.stderr.splitlines()
                    if line.startswith("import time:")}
        assert "numpy" in imported              # the timings were read
        # the commands that design load SciPy, whose shim reads the
        # deferred modules; linearize loads none of it
        assert ("scipy.linalg" in imported) == (argv[0] != "linearize")
        assert imported.isdisjoint(self.UNRUN)

    def test_deferred_modules_run_when_touched(self):
        proc = self.python("-c", """if True:
            import sys, types
            import numpy.polynomial
            before = sys.modules["numpy.polynomial"]
            from wadc.__main__ import DEFERRED
            import numpy
            assert sys.modules["numpy.polynomial"] is before
            assert type(before) is types.ModuleType
            lazy = [n for n in DEFERRED
                    if type(sys.modules[n]) is not types.ModuleType]
            assert set(lazy) == set(DEFERRED) - {"numpy.polynomial"}, lazy
            assert not {"unittest", "numpy.testing._private.utils"} \
                & set(sys.modules)
            numpy.testing.assert_equal(1, 1)
            # numpy.ma's predicate answers without running it ...
            early = numpy.ma.isMaskedArray
            assert numpy.ma.isMaskedArray(numpy.zeros(1)) is False
            assert type(sys.modules["numpy.ma"]) is not types.ModuleType
            assert "numpy.ma.core" not in sys.modules
            masked = numpy.ma.masked_array([1, 2], mask=[0, 1])
            assert masked.sum() == 1
            # ... and the real ones answer after it ran, also through a
            # reference taken before
            assert numpy.ma.isMaskedArray is numpy.ma.core.isMaskedArray
            assert numpy.ma.isMaskedArray(masked) and early(masked)
            assert not early(numpy.zeros(1))
            assert numpy.f2py.__name__ == "numpy.f2py"
            for name in ("numpy.testing", "numpy.ma", "numpy.f2py"):
                module = sys.modules[name]
                assert type(module) is types.ModuleType, name
                assert getattr(numpy, name.rpartition(".")[2]) is module
            """)
        assert proc.returncode == 0, proc.stderr

    def test_import_wadc_is_light(self):
        proc = self.python("-c", """if True:
            import sys
            import wadc
            assert not {"numpy", "scipy"} & set(sys.modules)
            assert wadc.grid_model is sys.modules["wadc.grid_model"]
            names = {}
            exec("from wadc import *", names)
            modules = [n for n in wadc.__all__ if n[0].islower()]
            assert len(modules) == 6
            for name in modules:
                assert names[name] is sys.modules["wadc." + name], name
            """)
        assert proc.returncode == 0, proc.stderr

    def test_linearize_loads_no_scipy(self, tmp_path):
        proc = self.python("-c", f"""if True:
            import sys
            sys.argv = ["wadc", "--config", {CONFIG!r}, "--out",
                        {str(tmp_path)!r}, "linearize"]
            from wadc.__main__ import run
            assert run() == 0
            assert "scipy" not in sys.modules
            """)
        assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / "report.json").read_text())
        assert "scipy" not in report["tool"]

    @pytest.mark.parametrize("measure", ["lqr", "hinf"])
    def test_model_setup_loads_no_scipy(self, measure):
        # the benchmark's set-up probe imports wadc.config, wadc.grid_model
        # and wadc.dncs and builds both modes
        probe = README.parent / "perfbench" / "setup_probe.py"
        proc = self.python("-c", f"""if True:
            import runpy, sys
            sys.argv = ["setup_probe.py", {CONFIG!r}, {measure!r}]
            assert runpy.run_path({str(probe)!r})["main"]() == 0
            assert {{"wadc.config", "wadc.grid_model", "wadc.dncs"}} \
                <= set(sys.modules)
            assert "scipy" not in sys.modules
            """)
        assert proc.returncode == 0, proc.stderr

    def test_import_wadc_config_is_light(self):
        # the configuration parser loads neither SciPy nor the pipeline
        proc = self.python("-c", """if True:
            import sys
            import wadc.config
            assert not {"scipy", "wadc.sampled", "wadc.sim_eval"} \
                & set(sys.modules)
            """)
        assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [
    ("design", "--measure", "hinf", "--delay", "0.1"),
    ("sweep", "--measure", "lqr"),
    ("simulate", "--measure", "lqr", "--delay", "0.1"),
], ids=["design", "sweep", "simulate"])
def test_report_records_scipy_version(tmp_path, monkeypatch, argv):
    # the commands that design load SciPy and record its version;
    # test_linearize_loads_no_scipy checks a report without it
    monkeypatch.setenv("WADC_SAMPLING__DELAY_GRID_S", "0:0.1:0.1")
    monkeypatch.setenv("WADC_SCENARIO__HORIZON_S", "1.0")
    assert run(tmp_path, *argv) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["tool"]["scipy"] == scipy.__version__


class TestScripts:
    def test_benchmark_config_script(self, monkeypatch, capsys):
        # a one-state caller of solve_algebraic: it prints the torque it
        # printed before the solve took stacks, and finds the config's
        path = README.parent / "scripts/make_benchmark_config.py"
        spec = importlib.util.spec_from_file_location("config_script", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        monkeypatch.setattr(sys, "argv", [str(path), CONFIG])
        assert script.main() == 0
        out = capsys.readouterr().out
        assert "T_m_Nm = 103294.12737649246\n" in out
        assert "config torque is already consistent." in out

    def test_benchmark_sweep_script(self, tmp_path, monkeypatch, capsys):
        path = README.parent / "scripts/run_benchmark_sweep.py"
        spec = importlib.util.spec_from_file_location("sweep_script", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        assert script.main(["--help"]) == 0
        assert "Usage:" in capsys.readouterr().out
        monkeypatch.setenv("WADC_SAMPLING__DELAY_GRID_S", "0:0.1:0.2")
        assert script.main([str(tmp_path)]) == 0
        for measure in ("lqr", "hinf"):
            lines = (tmp_path / measure / "sweep.csv").read_text().splitlines()
            assert len(lines) == 1 + 3
