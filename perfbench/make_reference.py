#!/usr/bin/env python3
"""Record perfbench/reference.json from the current checkout.

Usage, from the repository root: python3 perfbench/make_reference.py

Runs every variant of every workload once (``python -m wadc``, untraced)
and stores what the output checks in run.py compare against:
  sweep-lqr-fine  row count and SHA-256 of sweep.csv (byte-identical check)
  sweep-hinf      per row: delay, gamma and whether it sits at the
                  bisection floor; gamma_rel of the configuration
  simulate-hinf   J_measured
  simulate-lqr    J_measured and horizon (informational; its check,
                  relative_gap <= 5e-3, needs no reference)
Record only at a commit whose outputs are trusted.
"""

import hashlib
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def record(wl, out_dir):
    _, wall, code, _ = run.run_child(
        [sys.executable, "-m", "wadc", *run.wadc_args(wl, out_dir)],
        run.child_env(wl), out_dir / "log.txt", 600)
    if code != 0:
        raise SystemExit(f"{wl.name} {wl.variant}: exit {code}\n"
                         f"{run.log_tail(out_dir / 'log.txt')}")
    report = json.loads((out_dir / "report.json").read_text())
    print(f"{wl.name} {wl.variant}: {wall:.2f} s", file=sys.stderr)
    if wl.args[0] == "simulate":
        summary = report["summary"]
        return {"J_measured": summary["J_measured"],
                "horizon_s": summary["horizon_s"]}
    text = (out_dir / "sweep.csv").read_text()
    rows = [line.split(",") for line in text.splitlines()[1:]]
    if wl.measure == "lqr":
        return {"rows": len(rows),
                "sha256": hashlib.sha256(text.encode()).hexdigest()}
    return {"gamma_rel": report["resolved_config"]["tolerances"]["gamma_rel"],
            "rows": [[float(r[0]), float(r[3]),
                      float(r[3]) <= run.FLOOR_REL * float(r[5])]
                     for r in rows]}


def main():
    refs = {"recorded_at": run.git_commit()}
    work = run.BENCH / ".work" / "reference"
    try:
        for name in run.WORKLOADS:
            refs[name] = {}
            for seed in range(len(run.SIM_DELAYS)):
                wl = run.workload(name, seed)
                if wl.variant in refs[name]:
                    continue
                shutil.rmtree(work, ignore_errors=True)
                work.mkdir(parents=True)
                refs[name][wl.variant] = record(wl, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = run.BENCH / "reference.json"
    path.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
