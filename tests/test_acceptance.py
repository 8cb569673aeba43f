"""Acceptance gate: every criterion at its stated tolerance, one printed
line per criterion (run with `pytest tests/test_acceptance.py -v -s`)."""

import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import BENCH_WEIGHTS, K1
from helpers import (
    grid_hinf_norm,
    quadrature_cost_oracle,
    random_psd_cost,
    random_stable_system,
    rk4_delayed_zoh,
    simulate_collect,
)
from test_dncs import _PatternStub, bench_mode_system, brute_force_delay_map
from test_sim_eval import build_controller
from wadc.dncs import (
    DistributedController,
    LocalGains,
    delay_map,
    design_mode,
    symmetric_modes,
)
from wadc.errors import GammaInfeasible, UnstableLocalLoop
from wadc.grid_model import swap_symmetry_residuals
from wadc.sampled import discretize
from wadc.sim_eval import Scenario, sweep_delays
from wadc.synthesis import gamma_min, hinf_design


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_discretization_exactness():
    """Lifted trajectories and summed costs match independent oracles for
    random stable systems across delay ratios; runtime < 30 s of CPU time
    of the test's own thread.  Neither the host's load nor OpenBLAS helper
    threads spinning while they wait for work (which doubled the process
    time on 2 cores) count against the budget."""
    t0 = time.thread_time()
    rng = np.random.default_rng(101)
    ratios = (0.0, 0.3, 1.0, 1.7, 3.2)
    worst_traj, worst_cost = 0.0, 0.0
    for _ in range(50):
        n_x = int(rng.integers(2, 5))
        n_u = int(rng.integers(1, 3))
        sys = random_stable_system(rng, n_x, n_u)
        cost = random_psd_cost(rng, n_x, n_u)
        h = 0.1
        x0 = rng.normal(size=n_x)
        u_seq = rng.normal(size=(12, n_u))
        for ratio in ratios:
            d = ratio * h
            disc = discretize(replace(sys, cost=cost), h, d)
            z = disc.lift_state(x0)
            total, traj = 0.0, [x0.copy()]
            for k in range(12):
                u = u_seq[k]
                total += (z @ disc.Q2 @ z + 2 * z @ disc.N2 @ u
                          + u @ disc.R2 @ u)
                z = disc.A2 @ z + disc.B2u @ u
                traj.append(z[:n_x].copy())
            oracle = rk4_delayed_zoh(sys, h, d, u_seq, x0, 12, subs=40)
            scale = max(np.abs(oracle).max(), 1e-12)
            worst_traj = max(worst_traj,
                             np.abs(np.array(traj) - oracle).max() / scale)
            quad = quadrature_cost_oracle(sys, cost, h, d, u_seq, x0, 12,
                                          substeps_per_h=400)
            worst_cost = max(worst_cost,
                             abs(total - quad) / max(1.0, abs(quad)))
    cpu = time.thread_time() - t0
    ok = worst_traj <= 1e-8 and worst_cost <= 1e-8 and cpu < 30.0
    _report(1, ok, f"discretization exactness: trajectory residual "
                   f"{worst_traj:.2e} <= 1e-8, cost residual "
                   f"{worst_cost:.2e} <= 1e-8, CPU time {cpu:.1f}s < 30s")


def test_criterion_2_lqr_certificate(bench_plant, gains_k1, dec_k1):
    """Simulated closed-loop cost equals the quadratic certificate within
    0.5% at three delays; any +1% gain perturbation costs strictly more."""
    h = 0.02
    x_hat0 = np.array([1.0, 0, 0, 0, 0, 0])
    worst_gap = 0.0
    perturb_ok = True
    for tau in (0.0, 0.06, 0.14):
        ctrl, designs = build_controller(bench_plant, gains_k1, dec_k1, tau,
                                         h=h)
        md = designs[0]
        # the smallest true cost increase under a +1% gain perturbation is
        # ~1e-5 absolute, so integrator bias and truncated tail must sit
        # well below that
        scn = Scenario(initial_state=x_hat0, integrator_step=0.0025,
                       horizon=1500.0)
        out = simulate_collect(bench_plant, ctrl, scn, *BENCH_WEIGHTS)
        cert = md.J_star(md.disc.lift_state(x_hat0[:3]))
        worst_gap = max(worst_gap, abs(out.J - cert) / cert)
        # entrywise +1% perturbations of the oscillation-mode gain
        for j in range(md.F.shape[1]):
            F_pert = md.F.copy()
            F_pert[0, j] *= 1.01
            designs_p = [replace(md, F=F_pert), designs[1]]
            ctrl_p = DistributedController(
                gains_k1, dec_k1, tau * (np.ones((2, 2)) - np.eye(2)), h,
                designs_p)
            out_p = simulate_collect(bench_plant, ctrl_p, scn,
                                     *BENCH_WEIGHTS)
            if not out_p.J > out.J:
                perturb_ok = False
    ok = worst_gap <= 5e-3 and perturb_ok
    _report(2, ok, f"cost certificate: worst simulation gap "
                   f"{worst_gap:.2e} <= 5e-3; +1% gain perturbations all "
                   f"increase the simulated cost: {perturb_ok}")


def test_criterion_3_hinf_certificate(bench_plant, gains_k2, dec_k2):
    """Every accepted attenuation level is certified by the grid norm
    oracle; the bisection bracket is self-consistent within 2*tol."""
    model2 = bench_mode_system(gains_k2, dec_k2, 0)
    tol = 1e-3
    certified, brackets = [], []
    for tau in (0.1, 0.3):
        md = design_mode(model2, 0.02, tau, method="hinf", gamma_tol=tol)
        norm = grid_hinf_norm(md.disc.A2 + md.disc.B2u @ md.F, md.disc.B2w,
                              md.disc.C2 + md.disc.D2u @ md.F)
        certified.append(norm < md.gamma)
        hinf_design(md.disc, md.gamma * (1 + 2 * tol))  # must be feasible
        try:
            hinf_design(md.disc, md.gamma * (1 - 2 * tol))
            brackets.append(False)  # below the bracket must be infeasible
        except GammaInfeasible:
            brackets.append(True)
    # random systems too
    rng = np.random.default_rng(103)
    for _ in range(5):
        sys = random_stable_system(rng, 3, 1, n_w=1, n_y=2)
        cost = random_psd_cost(rng, 3, 1)
        disc = discretize(replace(sys, cost=cost), 0.1, 0.13)
        res = gamma_min(disc, tol=tol)
        norm = grid_hinf_norm(disc.A2 + disc.B2u @ res.F, disc.B2w,
                              disc.C2 + disc.D2u @ res.F)
        certified.append(norm < res.gamma)
    ok = all(certified) and all(brackets)
    _report(3, ok, f"attenuation certificate: {sum(certified)}/"
                   f"{len(certified)} designs certified below gamma; "
                   f"bracket self-consistency at 2*tol: {all(brackets)}")


@pytest.fixture(scope="module")
def benchmark_sweeps(bench_plant, gains_k1, gains_k2, dec_k1, dec_k2):
    grid = [round(0.02 * i, 10) for i in range(26)]
    t0 = time.time()
    lqr = sweep_delays(bench_mode_system(gains_k1, dec_k1, 0), dec_k1, 0,
                       "lqr", grid, 0.02, z0=np.array([1.0, 0, 0]))
    hinf = sweep_delays(bench_mode_system(gains_k2, dec_k2, 0), dec_k2, 0,
                        "hinf", grid, 0.02, gamma_tol=1e-3)
    return lqr, hinf, time.time() - t0


def test_criterion_4_bound_sandwich(benchmark_sweeps):
    """Whole-grid sweeps of both measures stay between the decentralized
    upper and full-information lower bounds; runtime < 5 min."""
    lqr, hinf, wall = benchmark_sweeps
    slack = 1e-9
    ok = True
    for res in (lqr, hinf):
        for r in res.rows:
            ok = ok and r.status == "ok"
            ok = ok and r.value >= r.lower - slack * abs(r.lower)
            ok = ok and r.value <= r.upper * (1 + slack)
    ok = ok and wall < 300.0
    _report(4, ok, f"bound sandwich: 2x{len(lqr.rows)} rows inside "
                   f"[lower, upper] with 1e-9 slack, runtime "
                   f"{wall:.0f}s < 300s")


def test_criterion_5_delay_map_equivalence():
    """Pattern-driven delay mapping matches brute-force enumeration."""
    rng = np.random.default_rng(105)
    exact = True
    for _ in range(50):
        m = int(rng.integers(1, 5))
        n_modes = int(rng.integers(1, 5))
        pu = rng.random((m, n_modes)) < 0.6
        px = rng.random((n_modes, m)) < 0.6
        d = rng.uniform(0, 1, (m, m))
        d = 0.5 * (d + d.T)
        np.fill_diagonal(d, 0.0)
        d_hat, d_rho = delay_map(_PatternStub(pu, px), d)
        ref_hat, ref_rho = brute_force_delay_map(pu, px, d)
        exact = exact and (d_hat == ref_hat).all() and (d_rho == ref_rho).all()
    _report(5, exact, "delay mapping equals brute-force enumeration on 50 "
                      "random patterns (exact)")


def test_criterion_6_modal_decomposition(bench_plant, gains_k1, gains_k2,
                                         dec_k1, dec_k2):
    """Block-diagonalization residuals and spectrum partition on the
    benchmark for both gain sets."""
    ok = True
    details = []
    for gains, dec in ((gains_k1, dec_k1), (gains_k2, dec_k2)):
        T = dec.M_x_inv @ gains.A_bar @ dec.M_x
        off = max(np.abs(T[:3, 3:]).max(), np.abs(T[3:, :3]).max())
        norm = np.abs(gains.A_bar).max()
        ok = ok and off <= 1e-8 * norm
        eig_all = np.sort_complex(np.linalg.eigvals(gains.A_bar))
        eig_modes = np.sort_complex(np.concatenate(
            [np.linalg.eigvals(bench_mode_system(gains, dec, i).A1)
             for i in range(2)]))
        part = np.abs(eig_all - eig_modes).max() / np.abs(eig_all).max()
        ok = ok and part <= 1e-7
        details.append(f"off-block {off / norm:.2e}, partition {part:.2e}")
    _report(6, ok, "modal decomposition: " + "; ".join(details))


def test_criterion_7_benchmark_realizability(bench_plant):
    """The published parameters and local gains yield a Hurwitz local loop;
    a sign-convention problem fails loudly with a diagnostic."""
    gains = LocalGains.from_blocks(bench_plant, [K1, K1])
    eigs = np.linalg.eigvals(gains.A_bar)
    hurwitz = eigs.real.max() < 0
    swap = max(swap_symmetry_residuals(bench_plant).values()) <= 1e-7
    loud = False
    try:
        bad = -K1
        LocalGains.from_blocks(bench_plant, [bad, bad])
    except UnstableLocalLoop as exc:
        loud = "sign convention" in str(exc) or "operating point" in str(exc)
    ok = hurwitz and swap and loud
    _report(7, ok, f"benchmark realizability: local loop Hurwitz "
                   f"(max Re = {eigs.real.max():.3e}), swap symmetry holds, "
                   f"destabilizing gains raise a diagnostic: {loud}")


def test_criterion_8_trend_report(benchmark_sweeps):
    """Soft expectation: the measure is nondecreasing along >= 90% of
    consecutive delay pairs; shortfalls warn, never fail."""
    lqr, hinf, _ = benchmark_sweeps
    details = []
    reporting_ok = True
    for res in (lqr, hinf):
        vals = [r.value for r in res.rows if r.status == "ok"]
        pairs = sum(1 for a, b in zip(vals, vals[1:]) if b >= a)
        frac = pairs / (len(vals) - 1)
        details.append(f"{res.rows[0].measure}: {frac:.0%} nondecreasing")
        # the sweep must have warned exactly when the trend fell short
        if frac < 0.9:
            reporting_ok = reporting_ok and len(res.warnings) > 0
        else:
            reporting_ok = reporting_ok and not res.warnings
    _report(8, reporting_ok,
            "delay trend (soft): " + "; ".join(details)
            + "; warning reporting consistent")
