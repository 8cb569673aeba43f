"""Build the wadc model the way every CLI subcommand starts, then stop.

Usage: python perfbench/setup_probe.py CONFIG {lqr|hinf}

Imports wadc, loads the configuration, solves the equilibrium, linearizes
and splits the locally closed loop into its modes.  Prints the
CLOCK_MONOTONIC reading (time.perf_counter) at the moment the model is
built, so the parent can time set-up from its own reading at spawn without
counting interpreter teardown.
"""

import sys
import time

import numpy as np

from wadc.config import (build_generators, build_network, load_config,
                         local_gain_row)
from wadc.dncs import LocalGains, symmetric_modes
from wadc.grid_model import linearize, solve_equilibrium


def main():
    config_path, measure = sys.argv[1], sys.argv[2]
    cfg = load_config(config_path)
    gens, net = build_generators(cfg), build_network(cfg)
    op = solve_equilibrium(gens, net,
                           v_target=cfg["equilibrium"]["v_target_V"],
                           tol=cfg["tolerances"]["equilibrium"],
                           max_iters=cfg["equilibrium"]["max_iters"])
    plant = linearize(gens, net, op)
    row = local_gain_row(cfg, measure)
    dec = symmetric_modes(plant, LocalGains.from_blocks(plant, [row, row]),
                          tol=1e-7)
    built = time.perf_counter()
    if dec.n_modes != 2 or not np.isfinite(plant.A).all():
        return 1
    print(repr(built))
    return 0


if __name__ == "__main__":
    sys.exit(main())
