#!/usr/bin/env python3
"""wadc benchmark: four CLI workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Every operation is the ``wadc`` CLI in a fresh ``python -m wadc`` process
run against the checkout's ``src/`` (PYTHONPATH=src), with its own fresh
output directory that is measured, checked and deleted.  The load is a
closed loop with one client: one invocation at a time, ``--threads`` at its
default of 1 and one BLAS thread (see BLAS_THREADS).  A run repeats the
workload's invocation for ``--seconds`` (at least twice) and reports
medians.

Times are reported at the reference CPU speed: this process and every
child are pinned to one CPU, where a probe thread (``speed.py``) measures
how fast that CPU runs while each child runs, and every measured interval
is scaled by it.  The times as measured are printed in ``#`` lines.

``--trace 0`` first times the model set-up in separate fresh processes
(``setup_probe.py``), then prints the end-to-end metrics.  ``--trace 1``
alternates untraced invocations with invocations under ``traced.py``, which
times the calls into each library module from outside, and prints the
per-layer metrics.  Either way every output is checked against
``reference.json`` (recorded at the seed commit by ``make_reference.py``)
or, for checks that need no reference, on its own.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status: 0 when
every output is correct, 1 when a result is printed but an operation
failed, 2 on a harness error (no result printed), e.g. when the checkout
holds no ``src/wadc``.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
CONFIG = "configs/benchmark.cfg"

# --seed picks one of these variants (seed % 3); seed 0 is the documented
# workload.  The simulate delays are grid multiples of h = 0.02 s with
# similar design cost, so the seed moves the inputs, not the run length.
SIM_DELAYS = ("0.1", "0.08", "0.12")
# offsets of the fine LQR grid: almost every delay is off the h grid
LQR_OFFSETS = ("0", "0.0006", "0.0012")
# four delays keep one sweep-hinf invocation near 5 s (the full 26-delay
# grid takes about 38 s, too long to repeat inside one run)
HINF_GRID = "0:0.1:0.3"
# simulate-hinf horizon: the RK4 refinement (0.01 -> 0.00015625 s) still
# applies, with a 100 MB trace instead of the auto horizon's 1.34 GB
HINF_HORIZON = "60"

# One BLAS thread per process.  On two cores a second OpenBLAS thread
# doubles the CPU a run uses without speeding up these small matrices
# (n_z <= 29), and makes its time depend on the load on the other core:
# interleaved sweep-hinf invocations took 4.03 s (IQR 13 % of the median)
# with one thread against 4.36 s (IQR 25 %) with the default.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
# the speed probe runs numpy in this process: one BLAS thread here too
os.environ.update(BLAS_THREADS)
from speed import SpeedProbe  # noqa: E402  (loads numpy)

MIN_INVOCATIONS = 2
SETUP_PROBES = 5
RUN_DEADLINE_S = 165.0   # every child is killed past this point of a run

REL_GAP_TOL = 5e-3       # acceptance criterion 2's tolerance
J_HINF_REL_TOL = 1e-3    # simulate-hinf J_measured against the reference
FLOOR_REL = 1e-6         # a gamma <= FLOOR_REL * upper bound is "at the floor"

SWEEP_HEADER = "delay_s,mode,measure,value,lower_bound,upper_bound,status"

# functions whose calls and share of the traced wall time are reported on
# every workload.  Times in seconds are summed per module, which every
# workload calls, so no reported time is a constant 0 (a function's share
# is 0 where the workload never calls it).
COUNTED_LAYERS = (
    "synthesis.hinf_norm", "synthesis.hinf_design", "synthesis.gamma_min",
    "sampled.discretize", "synthesis.dare_solve", "synthesis.stein_solve",
    "synthesis.lqr_design", "dncs.design_mode",
    "dncs.DistributedController.sample", "sim_eval.simulate_closed_loop",
    "sim_eval.compute_bounds", "config.load_config",
    "grid_model.solve_equilibrium", "grid_model.linearize",
    "dncs.symmetric_modes",
)
MODULES = ("config", "grid_model", "dncs", "sampled", "synthesis", "sim_eval",
           "cli")
SETUP_LAYERS = ("config.load_config", "grid_model.solve_equilibrium",
                "grid_model.linearize", "dncs.symmetric_modes", "cli.main")
# a traced run fails when a layer named for its workload shows no calls,
# so a missed rebinding cannot pass as a fast layer
REQUIRED_LAYERS = {
    "sweep-hinf": ("synthesis.hinf_norm", "synthesis.hinf_design",
                   "synthesis.gamma_min", "sim_eval.compute_bounds",
                   "dncs.design_mode", "sampled.discretize"),
    "sweep-lqr-fine": ("sampled.discretize", "synthesis.dare_solve",
                       "synthesis.stein_solve", "synthesis.lqr_design",
                       "dncs.design_mode", "sim_eval.compute_bounds"),
    "simulate-hinf": ("sim_eval.simulate_closed_loop",
                      "dncs.DistributedController.sample",
                      "synthesis.gamma_min", "synthesis.hinf_design",
                      "synthesis.hinf_norm", "dncs.design_mode"),
    "simulate-lqr": ("sim_eval.simulate_closed_loop",
                     "dncs.DistributedController.sample",
                     "synthesis.lqr_design", "dncs.design_mode"),
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "work_per_s": "work/s",
                    "peak_rss_mb": "MB", "output_mb": "MB"}


class HarnessError(Exception):
    """The benchmark itself cannot run; no result is printed."""


@dataclass(frozen=True)
class Workload:
    name: str
    measure: str
    args: tuple          # subcommand and its options
    env: dict            # WADC_* configuration overrides
    variant: str         # key of this input in reference.json


def workload(name, seed):
    """The CLI arguments and overrides of workload NAME for SEED."""
    v = seed % len(SIM_DELAYS)
    if name == "sweep-hinf":
        return Workload(name, "hinf",
                        ("sweep", "--measure", "hinf", "--mode",
                         "oscillation"),
                        {"WADC_SAMPLING__DELAY_GRID_S": HINF_GRID}, HINF_GRID)
    if name == "sweep-lqr-fine":
        off = LQR_OFFSETS[v]
        grid = f"{off}:0.002:{Decimal(off) + Decimal('0.5')}"
        return Workload(name, "lqr",
                        ("sweep", "--measure", "lqr", "--mode", "all"),
                        {"WADC_SAMPLING__DELAY_GRID_S": grid}, grid)
    if name == "simulate-hinf":
        d = SIM_DELAYS[v]
        return Workload(name, "hinf",
                        ("simulate", "--measure", "hinf", "--delay", d),
                        {"WADC_SCENARIO__HORIZON_S": HINF_HORIZON}, d)
    if name == "simulate-lqr":
        d = SIM_DELAYS[v]
        return Workload(name, "lqr",
                        ("simulate", "--measure", "lqr", "--delay", d),
                        {}, d)
    raise HarnessError(f"unknown workload {name!r}")


WORKLOADS = ("sweep-hinf", "sweep-lqr-fine", "simulate-hinf", "simulate-lqr")


def child_env(wl):
    env = dict(os.environ)
    env.update(BLAS_THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    env.update(wl.env)
    return env


def wadc_args(wl, out_dir):
    return ["--config", CONFIG, "--out", str(out_dir), *wl.args]


def run_child(cmd, env, log_path, timeout):
    """Run CMD from the checkout root; return (spawn time, wall, exit code,
    peak RSS in MB) with the RSS read from this child alone (wait4)."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return t0, wall, proc.returncode, usage.ru_maxrss * 1024 / 1e6


def log_tail(path, lines=15):
    text = Path(path).read_text(encoding="utf-8", errors="replace")
    return "\n".join(text.splitlines()[-lines:])


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ---------------------------------------------------------------- checks

@dataclass
class Outcome:
    attempted: int
    failed: int
    work: float                      # sweep rows, or simulated seconds
    problems: list = field(default_factory=list)


def read_report(out_dir, data_name, problems):
    """report.json, after checking that it records the data file's digest."""
    try:
        report = json.loads((out_dir / "report.json").read_text())
    except (OSError, ValueError) as exc:
        problems.append(f"report.json unreadable: {exc}")
        return None
    digests = {Path(k).name: v["sha256"]
               for k, v in report.get("outputs", {}).items()}
    data = out_dir / data_name
    if not data.is_file():
        problems.append(f"{data_name} missing")
    elif digests.get(data_name) != sha256_file(data):
        problems.append(f"{data_name} does not match its digest in "
                        "report.json")
    return report


def check_sweep(wl, out_dir, code, ref):
    expected = len(ref["rows"]) if wl.measure == "hinf" else ref["rows"]
    problems = []
    read_report(out_dir, "sweep.csv", problems)
    if code != 0:
        problems.append(f"exit code {code}")
    if problems:
        return Outcome(expected, expected, 0, problems)
    text = (out_dir / "sweep.csv").read_text()
    lines = text.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    if lines[:1] != [SWEEP_HEADER] or len(rows) != expected:
        return Outcome(expected, expected, len(rows),
                       [f"sweep.csv has {len(rows)} rows, expected "
                        f"{expected}, or a different header"])
    bad = [r for r in rows if r[6] != "ok"]
    problems += [f"row {','.join(r)}: status {r[6]}" for r in bad[:3]]
    failed = len(bad)
    if wl.measure == "lqr":
        if hashlib.sha256(text.encode()).hexdigest() != ref["sha256"]:
            problems.append("sweep.csv differs from the reference bytes")
            failed = expected
    else:
        tol = 2 * ref["gamma_rel"]
        for row, (delay, gamma, at_floor) in zip(rows, ref["rows"]):
            value, upper = float(row[3]), float(row[5])
            if float(row[0]) != delay:
                ok = False
            elif at_floor:
                ok = 0.0 <= value <= FLOOR_REL * upper
            else:
                ok = abs(value - gamma) <= tol * gamma
            if not ok and row[6] == "ok":
                failed += 1
                problems.append(f"row d={row[0]}: gamma {value!r} vs "
                                f"reference {gamma!r}")
    return Outcome(expected, failed, len(rows), problems)


def check_simulate(wl, out_dir, code, ref):
    problems = []
    report = read_report(out_dir, "trace.csv", problems)
    if code != 0:
        problems.append(f"exit code {code}")
    summary = (report or {}).get("summary", {})
    horizon = summary.get("horizon_s", 0.0)
    if report is None or not horizon > 0:
        problems.append("report.json has no simulated horizon")
    elif wl.measure == "lqr":
        gap = summary.get("relative_gap", math.inf)
        if not gap <= REL_GAP_TOL:
            problems.append(f"relative_gap {gap!r} above {REL_GAP_TOL}")
    else:
        gammas = summary.get("gamma", {})
        if sorted(gammas) != ["common", "oscillation"] or not all(
                0 < g < math.inf for g in gammas.values()):
            problems.append(f"not every mode has a certified gamma: "
                            f"{gammas!r}")
        J, J_ref = summary.get("J_measured", math.nan), ref["J_measured"]
        if not abs(J - J_ref) <= J_HINF_REL_TOL * J_ref:
            problems.append(f"J_measured {J!r} vs reference {J_ref!r}")
    return Outcome(1, 1 if problems else 0, horizon, problems)


def load_reference(wl):
    refs = json.loads((BENCH / "reference.json").read_text())
    try:
        return refs[wl.name][wl.variant]
    except KeyError:
        raise HarnessError(f"reference.json has no entry for {wl.name} "
                           f"variant {wl.variant}") from None


# ------------------------------------------------------------ invocations

@dataclass
class Invocation:
    traced: bool
    wall_s: float                    # as measured
    scaled_wall_s: float             # at the reference CPU speed (speed.py)
    peak_rss_mb: float
    output_bytes: int
    outcome: Outcome
    layers: dict = None              # traced runs: the traced.py summary
    import_s: float = 0.0


def invoke(wl, ref, run_dir, index, traced, deadline, cpu):
    """One CLI invocation in a fresh process and a fresh output directory."""
    # relative to the checkout root, so report.json does not depend on
    # where the checkout lives
    out_dir = (run_dir / f"out{index}").relative_to(ROOT)
    (ROOT / out_dir).mkdir()
    summary_path = run_dir / f"trace{index}.json"
    if traced:
        cmd = [sys.executable, str(BENCH / "traced.py"), str(summary_path)]
    else:
        cmd = [sys.executable, "-m", "wadc"]
    log = run_dir / f"log{index}.txt"
    try:
        t0, wall, code, rss = run_child(cmd + wadc_args(wl, out_dir),
                                       child_env(wl), log,
                                       deadline - time.perf_counter())
        check = check_sweep if wl.args[0] == "sweep" else check_simulate
        outcome = check(wl, ROOT / out_dir, code, ref)
        data = ROOT / out_dir / ("sweep.csv" if wl.args[0] == "sweep"
                                 else "trace.csv")
        size = sum(p.stat().st_size
                   for p in (data, ROOT / out_dir / "report.json")
                   if p.is_file())
    finally:
        shutil.rmtree(ROOT / out_dir, ignore_errors=True)
    inv = Invocation(traced, wall, cpu.scaled(t0, t0 + wall), rss, size,
                     outcome)
    if traced:
        try:
            summary = json.loads(summary_path.read_text())
            inv.layers, inv.import_s = summary["layers"], summary["import_s"]
        except (OSError, ValueError, KeyError) as exc:
            outcome.problems.append(f"no trace summary: {exc}")
            inv.layers = {}
        missing = [name for name in REQUIRED_LAYERS[wl.name] + SETUP_LAYERS
                   if inv.layers.get(name, {}).get("calls", 0) == 0]
        if missing:
            outcome.problems.append(f"traced layers with no calls: "
                                    f"{', '.join(missing)}")
            outcome.failed = outcome.attempted
    if outcome.problems:
        print(f"# invocation {index} failed: {'; '.join(outcome.problems)}"
              f"\n{log_tail(log)}", file=sys.stderr)
    return inv


def measure_setup(wl, run_dir, deadline, cpu):
    """Median of SETUP_PROBES fresh set-up processes after one warm-up, at
    the reference CPU speed; returns it, the times as measured and the
    scaled times."""
    measured, scaled = [], []
    for i in range(SETUP_PROBES + 1):
        log = run_dir / f"setup{i}.txt"
        t0, _, code, _ = run_child(
            [sys.executable, str(BENCH / "setup_probe.py"), CONFIG,
             wl.measure], child_env(wl), log, deadline - time.perf_counter())
        if code != 0:
            raise HarnessError(f"set-up probe exited with {code}:\n"
                               f"{log_tail(log)}")
        built = float(log.read_text().split()[-1])
        if i:
            measured.append(built - t0)
            scaled.append(cpu.scaled(t0, built))
    return median(scaled), measured, scaled


def run_invocations(wl, ref, run_dir, seconds, deadline, with_traced, cpu):
    """Invoke until SECONDS are used; in trace mode untraced and traced
    invocations alternate and are added in pairs."""
    per_round = 2 if with_traced else 1
    invs = []
    start = time.perf_counter()
    while True:
        for k in range(per_round):
            invs.append(invoke(wl, ref, run_dir, len(invs), k == 1,
                               deadline, cpu))
        elapsed = time.perf_counter() - start
        round_s = elapsed / (len(invs) / per_round)
        if len(invs) >= MIN_INVOCATIONS and elapsed + round_s > seconds:
            return invs
        if time.perf_counter() + round_s > deadline:
            return invs


# ---------------------------------------------------------------- metrics

def end_to_end(invs, setup_s):
    return {
        "wall_s": median([i.scaled_wall_s for i in invs]),
        "setup_s": setup_s,
        "work_per_s": median([i.outcome.work / i.scaled_wall_s
                              for i in invs]),
        "peak_rss_mb": median([i.peak_rss_mb for i in invs]),
        "output_mb": median([i.output_bytes / 1e6 for i in invs]),
    }


def layer_values(inv):
    """Per-layer metrics of one traced invocation; times in seconds are
    scaled to the reference CPU speed like the invocation's wall time."""
    speed = inv.scaled_wall_s / inv.wall_s
    empty = {"calls": 0, "ok": 0, "self_s": 0.0, "total_s": 0.0,
             "p50_s": 0.0, "p95_s": 0.0, "extra": {}}

    def get(name):
        return inv.layers.get(name, empty)

    out = {}
    for name in COUNTED_LAYERS:
        out[f"{name}.calls"] = get(name)["calls"]
        out[f"{name}.self_share"] = get(name)["self_s"] / inv.wall_s
    for module in MODULES:
        out[f"{module}.self_s"] = speed * sum(
            agg["self_s"] for name, agg in inv.layers.items()
            if name.split(".")[0] == module)
    hd = get("synthesis.hinf_design")
    out["synthesis.hinf_design.accept_ratio"] = (
        hd["ok"] / hd["calls"] if hd["calls"] else 0.0)
    out["sampled.discretize.max_n_z"] = max(
        get("sampled.discretize")["extra"].get("n_z", [0]))
    out["dncs.design_mode.p50_s"] = speed * get("dncs.design_mode")["p50_s"]
    out["dncs.design_mode.p95_s"] = speed * get("dncs.design_mode")["p95_s"]
    steps = sum(get("sim_eval.simulate_closed_loop")["extra"].get("steps",
                                                                  [0]))
    samples = get("dncs.DistributedController.sample")["calls"]
    out["sim_eval.simulate_closed_loop.steps"] = steps
    out["sim_eval.simulate_closed_loop.steps_per_sample"] = (
        steps / samples if samples else 0)
    out["cli.output_bytes"] = inv.output_bytes
    out["wadc.import_s"] = speed * inv.import_s
    out["trace.unaccounted_s"] = speed * (inv.wall_s - inv.import_s
                                          - get("cli.main")["total_s"])
    return out


def per_layer(invs):
    traced = [i for i in invs if i.traced]
    plain = [i for i in invs if not i.traced]
    rows = [layer_values(i) for i in traced]
    metrics = {name: median([r[name] for r in rows]) for name in rows[0]}
    metrics["trace.overhead_ratio"] = (
        median([i.scaled_wall_s for i in traced])
        / median([i.scaled_wall_s for i in plain]))
    return metrics


def layer_unit(name):
    if name.endswith((".calls", ".steps", ".max_n_z", ".steps_per_sample")):
        return "count"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "s"


# ------------------------------------------------------------ environment

def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(wl, seed):
    import numpy
    import scipy
    blas = {}
    for mod in (numpy, scipy):
        dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[mod.__name__] = f"{dep['name']} {dep['version']}"
    return {
        "git_commit": git_commit(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "workload": wl.name,
        "variant": wl.variant,
        "argv": ["python", "-m", "wadc", *wadc_args(wl, "<fresh dir>")],
        "env_overrides": {"PYTHONPATH": "src", **BLAS_THREADS, **wl.env},
    }


# ------------------------------------------------------------------- main

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_DEADLINE_S

    run_dir = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    # this process, the speed probe's thread and every child share one
    # CPU, so the probe measures the speed the children get (speed.py)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    cpu = SpeedProbe()
    try:
        for needed in ("src/wadc/__init__.py", CONFIG):
            if not (ROOT / needed).is_file():
                raise HarnessError(f"{needed} not found under {ROOT}")
        wl = workload(args.workload, args.seed)
        ref = load_reference(wl)
        print("# env " + json.dumps(environment(wl, args.seed)))
        run_dir.mkdir(parents=True)
        with cpu:
            if args.trace:
                invs = run_invocations(wl, ref, run_dir, args.seconds,
                                       deadline, True, cpu)
                metrics = per_layer(invs)
            else:
                setup_s, setup_measured, setup_scaled = measure_setup(
                    wl, run_dir, deadline, cpu)
                invs = run_invocations(wl, ref, run_dir, args.seconds,
                                       deadline, False, cpu)
                metrics = end_to_end(invs, setup_s)
                print("# set-up as measured (s): " + " ".join(
                    f"{v:.4f}" for v in setup_measured)
                    + "; at the reference CPU speed (s): " + " ".join(
                        f"{v:.4f}" for v in setup_scaled))
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass   # absent, or another run is using it

    attempted = sum(i.outcome.attempted for i in invs)
    failed = sum(i.outcome.failed for i in invs)
    if args.trace:
        metrics["fail_ratio"] = failed / attempted
    units = {name: END_TO_END_UNITS.get(name) or layer_unit(name)
             for name in metrics}
    plain = [i for i in invs if not i.traced]
    print(f"# {len(invs)} invocations; untraced wall times in order, as "
          "measured (s): " + " ".join(f"{i.wall_s:.3f}" for i in plain)
          + "; at the reference CPU speed (s): "
          + " ".join(f"{i.scaled_wall_s:.3f}" for i in plain)
          + f"; mean CPU speed over the run: {cpu.speed():.3f} of the "
          "reference")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
