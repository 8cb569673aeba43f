#!/usr/bin/env python3
"""Run both delay sweeps on the benchmark and print a compact summary.

Produces the plot-ready CSVs behind the cost-vs-delay and the
attenuation-vs-delay studies (one file per measure), plus a terminal
summary with the reference bounds.

Usage: python scripts/run_benchmark_sweep.py [-h | --help] [outdir]

The outdir defaults to sweep_results; the WADC_<SECTION>__<KEY>
environment overrides of wadc apply, e.g. WADC_SAMPLING__DELAY_GRID_S.
"""

import pathlib
import sys
import time

from wadc.cli import main as wadc_main

CONFIG = pathlib.Path(__file__).resolve().parents[1] / "configs/benchmark.cfg"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] in (["-h"], ["--help"]):
        print(__doc__.strip())
        return 0
    outdir = pathlib.Path(argv[0]) if argv else pathlib.Path("sweep_results")
    status = 0
    for measure in ("lqr", "hinf"):
        t0 = time.time()
        out = outdir / measure
        code = wadc_main(["--config", str(CONFIG), "--out", str(out),
                          "sweep", "--measure", measure,
                          "--mode", "oscillation"])
        status = status or code
        print(f"[{measure}] finished in {time.time() - t0:.1f}s -> "
              f"{out / 'sweep.csv'}")
        for line in (out / "sweep.csv").read_text().splitlines()[:4]:
            print("   ", line)
    return status


if __name__ == "__main__":
    sys.exit(main())
