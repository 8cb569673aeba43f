"""Session-wide benchmark fixtures: the symmetric two-machine grid."""

import os

# One BLAS thread, set before numpy loads: on these few-dozen-row matrices
# a second OpenBLAS thread only spins, doubling the CPU time of the suite.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from wadc.dncs import LocalGains, symmetric_modes
from wadc.grid_model import (
    GeneratorParams,
    build_two_area_network,
    linearize,
    solve_equilibrium,
)

# Generator electrical/mechanical parameters of the shipped benchmark; the
# mechanical torque is the power-consistent value for e_f0 = 500 V at equal
# rotor angles (regenerate with scripts/make_benchmark_config.py).
BENCH_GEN = dict(
    L_a0=4.9e-3, L_a2=46e-6, L_f=0.577, L_af=4e-3,
    R_a=3e-3, R_f=71.5e-3, J_rot=27548.0, B_fric=10.0, p_f=2,
    T_m=103294.12737649248, e_f0=500.0,
)
BENCH_NET = dict(Z_T=0.011 + 0.106j, Z_L=6.2 + 2.1j, Z_C=0.054 + 0.53j,
                 omega0=377.0)
K1 = np.array([[169.6, 201.0, -3.04]])
K2 = np.array([[544750.0, 700010.0, -9890.0]])

# state cost picks the rotor angles; input weight 2.5e-5 on each field drive
Q_COST = np.diag([1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
R_COST = 2.5e-5 * np.eye(2)
# output: rotor angles plus 1e-2-weighted field commands
C_OUT = np.zeros((2, 6))
C_OUT[0, 0] = 1.0
C_OUT[1, 3] = 1.0
DU_OUT = 1e-2 * np.eye(2)
# the cost and output weights in the order simulate_closed_loop takes them
BENCH_WEIGHTS = (Q_COST, R_COST, C_OUT, DU_OUT)


@pytest.fixture(scope="session")
def bench_gens():
    return [GeneratorParams(**BENCH_GEN) for _ in range(2)]


@pytest.fixture(scope="session")
def bench_net():
    return build_two_area_network(**BENCH_NET)


@pytest.fixture(scope="session")
def bench_op(bench_gens, bench_net):
    return solve_equilibrium(bench_gens, bench_net)


@pytest.fixture(scope="session")
def bench_plant(bench_gens, bench_net, bench_op):
    return linearize(bench_gens, bench_net, bench_op)


@pytest.fixture(scope="session")
def gains_k1(bench_plant):
    return LocalGains.from_blocks(bench_plant, [K1, K1])


@pytest.fixture(scope="session")
def gains_k2(bench_plant):
    return LocalGains.from_blocks(bench_plant, [K2, K2])


@pytest.fixture(scope="session")
def dec_k1(bench_plant, gains_k1):
    return symmetric_modes(bench_plant, gains_k1)


@pytest.fixture(scope="session")
def dec_k2(bench_plant, gains_k2):
    return symmetric_modes(bench_plant, gains_k2)
