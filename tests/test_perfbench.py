"""The benchmark's own probes and output checks, applied in tier-1.

``perfbench/`` is read and never written: its rules (tolerances, required
layers, workload inputs) are taken from ``perfbench/run.py`` by parsing
its source, since importing it would reset the BLAS thread variables and
load its CPU-speed probe, and every expected value comes from
``perfbench/reference.json``.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

from test_cli import BENCH_REFERENCE, CONFIG, run

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


def run_py(*names):
    """The literal values that ``perfbench/run.py`` assigns to NAMES."""
    found = {}
    for node in ast.parse((BENCH / "run.py").read_text()).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in names:
                    found[target.id] = ast.literal_eval(node.value)
    return [found[name] for name in names]


def reference(workload, variant):
    return json.loads(BENCH_REFERENCE.read_text())[workload][variant]


def bench_process(script, *args, env=()):
    """Run a perfbench script from the checkout root against ``src/``."""
    child = dict(os.environ, **dict(env))
    child["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([child["PYTHONPATH"]]
                               if child.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(BENCH / script), *args],
                          cwd=ROOT, env=child, capture_output=True,
                          text=True, timeout=60)


class TestProbes:
    """The set-up probe and the layer tracer still resolve every name they
    import or rebind, so a broken rebinding fails here and not first in a
    ``--trace 1`` benchmark run."""

    def test_setup_probe_prints_its_clock(self):
        proc = bench_process("setup_probe.py", CONFIG, "lqr")
        assert proc.returncode == 0, proc.stderr
        float(proc.stdout.split()[-1])

    @pytest.mark.parametrize("workload, args, env", [
        ("simulate-lqr", ("simulate", "--measure", "lqr", "--delay", "0.1"),
         {"WADC_SCENARIO__HORIZON_S": "2"}),
        ("sweep-hinf", ("sweep", "--measure", "hinf", "--mode",
                        "oscillation"),
         {"WADC_SAMPLING__DELAY_GRID_S": "0:0.1:0.1"}),
    ])
    def test_traced_run_reaches_every_required_layer(self, tmp_path, workload,
                                                     args, env):
        required, setup = run_py("REQUIRED_LAYERS", "SETUP_LAYERS")
        summary = tmp_path / "summary.json"
        proc = bench_process("traced.py", str(summary), "--config", CONFIG,
                             "--out", str(tmp_path / "out"), *args, env=env)
        assert proc.returncode == 0, proc.stderr
        layers = json.loads(summary.read_text())["layers"]
        missing = [name for name in required[workload] + setup
                   if layers.get(name, {}).get("calls", 0) == 0]
        assert missing == []


class TestOutputChecks:
    """The seed-0 variants of the benchmark workloads pass the checks that
    ``perfbench/run.py`` applies to their outputs."""

    def test_sweep_hinf(self, tmp_path, monkeypatch):
        grid, floor_rel = run_py("HINF_GRID", "FLOOR_REL")
        ref = reference("sweep-hinf", grid)
        monkeypatch.setenv("WADC_SAMPLING__DELAY_GRID_S", grid)
        assert run(tmp_path, "sweep", "--measure", "hinf", "--mode",
                   "oscillation") == 0
        rows = [line.split(",") for line in
                (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
        assert len(rows) == len(ref["rows"])
        for row, (delay, gamma, at_floor) in zip(rows, ref["rows"]):
            value, upper = float(row[3]), float(row[5])
            assert float(row[0]) == delay and row[6] == "ok"
            if at_floor:
                assert 0.0 <= value <= floor_rel * upper
            else:
                assert abs(value - gamma) <= 2 * ref["gamma_rel"] * gamma

    def test_simulate_hinf(self, tmp_path, monkeypatch):
        delays, horizon, tol = run_py("SIM_DELAYS", "HINF_HORIZON",
                                      "J_HINF_REL_TOL")
        ref = reference("simulate-hinf", delays[0])
        monkeypatch.setenv("WADC_SCENARIO__HORIZON_S", horizon)
        assert run(tmp_path, "simulate", "--measure", "hinf", "--delay",
                   delays[0]) == 0
        summary = json.loads((tmp_path / "report.json").read_text())[
            "summary"]
        assert summary["horizon_s"] == ref["horizon_s"]
        assert sorted(summary["gamma"]) == ["common", "oscillation"]
        assert all(0 < g < float("inf") for g in summary["gamma"].values())
        assert abs(summary["J_measured"] - ref["J_measured"]) <= (
            tol * ref["J_measured"])

    def test_simulate_lqr(self, tmp_path):
        delays, tol = run_py("SIM_DELAYS", "REL_GAP_TOL")
        assert run(tmp_path, "simulate", "--measure", "lqr", "--delay",
                   delays[0]) == 0
        summary = json.loads((tmp_path / "report.json").read_text())[
            "summary"]
        assert summary["horizon_s"] > 0
        assert summary["relative_gap"] <= tol
