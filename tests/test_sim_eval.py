import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from conftest import C_OUT, DU_OUT, DW_OUT, Q_COST, R_COST
from helpers import (
    attenuation_of_mode,
    grid_hinf_norm,
    per_step_closed_loop,
    simulate_collect,
)
from test_dncs import bench_mode_system, synthetic_symmetric_plant
from wadc.dncs import (
    DelaySchedule,
    DistributedController,
    LocalGains,
    design_mode,
    mode_system,
    symmetric_modes,
)
from wadc.errors import EventGridMismatch, HorizonTooLong, NotStabilizable
from wadc.grid_model import LinearPlant
from wadc.sampled import CtsModel
from wadc.sim_eval import (
    MAX_PERIODS,
    Scenario,
    compute_bounds,
    refine_step,
    simulate_closed_loop,
    sweep_delays,
)


def build_controller(plant, gains, dec, tau, h=0.02, method="lqr",
                     zero_gains=False):
    d = tau * (np.ones((2, 2)) - np.eye(2))
    sched = DelaySchedule.from_links(dec, d, h)
    designs = []
    for i in range(2):
        md = design_mode(bench_mode_system(gains, dec, i), h,
                         float(sched.d_hat[i]), method=method)
        if zero_gains:
            md = replace(md, F=np.zeros_like(md.F))
        designs.append(md)
    return DistributedController(gains, dec, sched, designs), designs


class TestRefineStep:
    def test_halved_gcd(self):
        # 13 ms offset against a 20 ms period: events align on a 0.5 ms grid
        assert refine_step(0.002, 0.02, [0.013]) == Fraction(1, 2000)

    def test_simple_divisor(self):
        assert refine_step(0.001, 0.02, [0.1]) == Fraction(1, 1600)

    def test_no_offsets(self):
        assert refine_step(0.01, 0.02, []) == Fraction(1, 100)


class TestSimulate:
    def test_zero_initial_state(self, bench_plant, gains_k1, dec_k1):
        ctrl, _ = build_controller(bench_plant, gains_k1, dec_k1, 0.04)
        scn = Scenario(initial_state=np.zeros(6), schedule=ctrl.schedule,
                       integrator_step=0.01, horizon=5.0)
        out = simulate_collect(bench_plant, ctrl, scn, Q_COST, R_COST)
        assert out.J == 0.0
        np.testing.assert_array_equal(out.x, 0.0)
        np.testing.assert_array_equal(out.u, 0.0)

    def test_event_grid_mismatch(self, bench_plant, gains_k1, dec_k1):
        ctrl, _ = build_controller(bench_plant, gains_k1, dec_k1, 0.03)
        scn = Scenario(initial_state=np.zeros(6), schedule=ctrl.schedule,
                       integrator_step=0.02, horizon=1.0)
        with pytest.raises(EventGridMismatch):
            simulate_collect(bench_plant, ctrl, scn, Q_COST, R_COST)

    def test_decentralized_lyapunov_oracle(self, bench_plant, gains_k1,
                                           dec_k1):
        # remote commands zeroed: the cost over [0, T] equals the Lyapunov
        # quadratic-form difference for the oscillation-mode block
        ctrl, designs = build_controller(bench_plant, gains_k1, dec_k1, 0.0,
                                         zero_gains=True)
        x_hat0 = np.array([1.0, 0, 0, 0, 0, 0])
        T_end = 50.0
        scn = Scenario(initial_state=x_hat0, schedule=ctrl.schedule,
                       integrator_step=0.005, horizon=T_end)
        out = simulate_collect(bench_plant, ctrl, scn, Q_COST, R_COST)
        model = bench_mode_system(gains_k1, dec_k1, 0)
        P = scipy.linalg.solve_continuous_lyapunov(model.sys.A1.T,
                                                   -model.cost.Q1)
        x_hat_T = (dec_k1.M_x_inv @ out.x[-1])[:3]
        expected = x_hat0[:3] @ P @ x_hat0[:3] - x_hat_T @ P @ x_hat_T
        assert abs(out.J - expected) <= 1e-5 * abs(expected)

    def test_decentralized_embedding(self, bench_plant, gains_k1, dec_k1):
        # zero remote gains reproduce the plain pre-stabilized flow
        ctrl, _ = build_controller(bench_plant, gains_k1, dec_k1, 0.04,
                                   zero_gains=True)
        rng = np.random.default_rng(0)
        x0 = rng.normal(size=6) * 0.1
        scn = Scenario(initial_state=dec_k1.M_x_inv @ x0,
                       schedule=ctrl.schedule, integrator_step=0.01,
                       horizon=2.0)
        out = simulate_collect(bench_plant, ctrl, scn, Q_COST, R_COST)
        # independent stage-form RK4 on d/dt x = A_bar x
        A = gains_k1.A_bar
        x = x0.copy()
        dt = 0.01
        n_h = round(ctrl.schedule.h / dt)
        for k in range(1, len(out.t)):
            for _ in range(n_h):
                k1 = A @ x
                k2 = A @ (x + 0.5 * dt * k1)
                k3 = A @ (x + 0.5 * dt * k2)
                k4 = A @ (x + dt * k3)
                x = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            assert np.abs(out.x[k] - x).max() <= 1e-10 * max(
                1.0, np.abs(x).max())
            np.testing.assert_array_equal(out.u_bar[k], 0.0)

    def test_lifted_model_matches_simulation(self, bench_plant, gains_k1,
                                             dec_k1):
        # closed-loop samples x_hat(kh) must follow the designed lifted
        # recursion exactly (up to integrator error)
        tau, h = 0.06, 0.02
        ctrl, designs = build_controller(bench_plant, gains_k1, dec_k1, tau)
        md = designs[0]
        x_hat0 = np.array([0.7, 0.1, -0.2, 0, 0, 0])
        scn = Scenario(initial_state=x_hat0, schedule=ctrl.schedule,
                       integrator_step=0.00125, horizon=4.0)
        out = simulate_collect(bench_plant, ctrl, scn, Q_COST, R_COST)
        z = md.disc.lift_state(x_hat0[:3])
        A_cl = md.disc.A2 + md.disc.B2u @ md.F
        worst, scale = 0.0, 1.0
        for k in range(int(4.0 / h)):
            x_hat_k = (dec_k1.M_x_inv @ out.x[k])[:3]
            worst = max(worst, np.abs(x_hat_k - z[:3]).max())
            scale = max(scale, np.abs(z[:3]).max())
            z = A_cl @ z
        assert worst <= 1e-8 * scale

    @pytest.mark.parametrize("gain_set, measure, tau, step, horizon, impulse", [
        ("k1", "lqr", 0.013, 0.002, 2.0, False),   # switches off the h grid
        ("k1", "lqr", 0.04, 0.01, 5.0, True),      # held disturbance sample
        ("k2", "hinf", 0.1, 0.01, 2.0, False),     # refined to 0.00015625 s
    ])
    def test_matches_per_step_oracle(self, request, bench_plant, gain_set,
                                     measure, tau, step, horizon, impulse):
        gains = request.getfixturevalue(f"gains_{gain_set}")
        dec = request.getfixturevalue(f"dec_{gain_set}")
        ctrl, designs = build_controller(bench_plant, gains, dec, tau,
                                         method=measure)
        sched = ctrl.schedule
        dt = refine_step(step, sched.h, [float(v) for v in sched.d_rho],
                         fastest_rate=np.abs(np.linalg.eigvals(
                             gains.A_bar)).max())
        x_hat0 = np.zeros(6) if impulse else np.array([1.0, 0, 0, 0, 0, 0])
        w = np.zeros((1, 4)) if impulse else None
        if impulse:
            w[0, 0] = 50.0
        periods = round(horizon / sched.h)
        ref = per_step_closed_loop(
            bench_plant, gains, dec, sched, designs, dec.M_x @ x_hat0, dt,
            periods, Q_COST, R_COST, C_OUT, DU_OUT, DW_OUT,
            w_seq=() if w is None else w)

        def run(T):
            scn = Scenario(initial_state=x_hat0, schedule=sched,
                           disturbance=w, integrator_step=dt, horizon=T)
            return simulate_collect(bench_plant, ctrl, scn, Q_COST,
                                    R_COST, C=C_OUT, D_u=DU_OUT,
                                    D_w=DW_OUT)

        out = run(horizon)
        np.testing.assert_array_equal(out.t, ref["t"])
        # u = K x + u_bar cancels under the large H-infinity local gains,
        # so its error is measured against its summands
        scales = {"u": np.abs(ref["x"]) @ np.abs(gains.K.T)
                  + np.abs(ref["u_bar"])}
        for key in ("x", "u", "u_bar", "y"):
            got, want = getattr(out, key), ref[key]
            scale = scales.get(key, np.abs(want)).max(axis=1, keepdims=True)
            assert (np.abs(got - want) <= 1e-10 * scale).all(), key
        assert np.abs(ref["u_bar"]).max() > 0   # the commands do arrive
        J = [run(k * sched.h).J for k in range(1, periods + 1)]
        np.testing.assert_allclose(J, ref["J"][1:], rtol=1e-10, atol=0)

    def test_certificate_against_simulation(self, bench_plant, gains_k1,
                                            dec_k1):
        tau = 0.06
        ctrl, designs = build_controller(bench_plant, gains_k1, dec_k1, tau)
        md = designs[0]
        x_hat0 = np.array([1.0, 0, 0, 0, 0, 0])
        scn = Scenario(initial_state=x_hat0, schedule=ctrl.schedule,
                       integrator_step=0.01, horizon=800.0)
        out = simulate_collect(bench_plant, ctrl, scn, Q_COST, R_COST)
        J_cert = md.result.J_star(md.disc.lift_state(x_hat0[:3]))
        assert abs(out.J - J_cert) <= 5e-3 * J_cert

    def test_integrator_step_halving(self, bench_plant, gains_k1, dec_k1):
        ctrl, _ = build_controller(bench_plant, gains_k1, dec_k1, 0.04)
        x_hat0 = np.array([1.0, 0, 0, 0, 0, 0])
        Js = []
        for dt in (0.01, 0.005):
            scn = Scenario(initial_state=x_hat0, schedule=ctrl.schedule,
                           integrator_step=dt, horizon=100.0)
            out = simulate_collect(bench_plant, ctrl, scn, Q_COST, R_COST)
            Js.append(out.J)
        assert abs(Js[0] - Js[1]) <= 1e-4 * abs(Js[1])

    def test_disturbance_and_outputs(self, bench_plant, gains_k1, dec_k1):
        ctrl, _ = build_controller(bench_plant, gains_k1, dec_k1, 0.02)
        w = np.zeros((1, 4))
        w[0, 0] = 50.0  # one-sample pulse at load bus 1
        scn = Scenario(initial_state=np.zeros(6), schedule=ctrl.schedule,
                       disturbance=w, integrator_step=0.01, horizon=20.0)
        out = simulate_collect(bench_plant, ctrl, scn, Q_COST, R_COST,
                               C=C_OUT, D_u=DU_OUT, D_w=DW_OUT)
        assert np.abs(out.x).max() > 0  # the pulse excites the grid
        assert out.y.shape == (len(out.t), 2)
        assert np.isfinite(out.J)

    def test_auto_horizon_extends_until_cost_settles(self):
        # the slowest time constant of A_bar is 1 s, so the first chunk is
        # 20 s and each extension 5 s; the remote gain slows the sampled
        # loop to a 10 s time constant, so the cost needs many extensions
        # to settle
        plant, ctrl = triangular_loop(1.0)
        tail_rel = 1e-9

        def cost(horizon):
            scn = Scenario(initial_state=np.eye(6)[0],
                           schedule=ctrl.schedule, integrator_step=0.01,
                           horizon=horizon)
            return simulate_collect(plant, ctrl, scn, np.eye(6),
                                    np.eye(2), tail_rel=tail_rel)

        out = cost(None)
        T = out.horizon
        assert out.settled is True
        assert (T - 20.0) / 5.0 == pytest.approx(out.extensions)
        assert T >= 20.0 + 2 * 5.0
        # stopped at the first extension whose increment is below tail_rel
        J_prev, J_prev2 = cost(T - 5.0).J, cost(T - 10.0).J
        assert out.J - J_prev <= tail_rel * out.J
        assert J_prev - J_prev2 > tail_rel * J_prev
        # and what is left beyond the horizon is negligible
        fixed = cost(T + 20.0)
        assert abs(fixed.J - out.J) <= 1e-8 * out.J
        assert fixed.extensions == 0 and fixed.settled is None

    def test_unsettled_auto_horizon_reported(self):
        # with a zero tail tolerance the cost never settles: the extensions
        # run out, and the output says so
        plant, ctrl = triangular_loop(1.0)
        scn = Scenario(initial_state=np.eye(6)[0], schedule=ctrl.schedule,
                       integrator_step=0.01)
        for max_extensions in (1, 3):
            out = simulate_collect(plant, ctrl, scn, np.eye(6), np.eye(2),
                                   max_extensions=max_extensions, tail_rel=0)
            assert out.settled is False
            assert out.extensions == max_extensions - 1
            assert out.horizon == pytest.approx(20.0 + 5.0 * out.extensions)

    def test_auto_horizon_extensions_stop_at_period_cap(self, monkeypatch):
        # a cap of 1,100 periods leaves room for the 1,000-period first span
        # and 100 periods of the first 250-period extension
        import wadc.sim_eval as sim_eval
        monkeypatch.setattr(sim_eval, "MAX_PERIODS", 1100)
        plant, ctrl = triangular_loop(1.0)
        scn = Scenario(initial_state=np.eye(6)[0], schedule=ctrl.schedule,
                       integrator_step=0.01)
        out = simulate_collect(plant, ctrl, scn, np.eye(6), np.eye(2))
        assert out.periods == 1100 and len(out.t) == 1101
        assert out.extensions == 1 and out.settled is False

    @pytest.mark.parametrize("horizon, periods", [(None, 100_000_000),
                                                  (1e7, 500_000_000)],
                             ids=["auto", "fixed"])
    def test_horizon_beyond_period_cap_refused(self, horizon, periods):
        # a local mode decaying at 1e-5 1/s is stable, but its auto
        # horizon of 20 time constants is 2e6 s; both are refused before
        # any period is stepped
        plant, ctrl = triangular_loop(1e-5)
        scn = Scenario(initial_state=np.eye(6)[0], schedule=ctrl.schedule,
                       integrator_step=0.01, horizon=horizon)
        t0 = time.perf_counter()
        with pytest.raises(HorizonTooLong, match="horizon_s") as exc:
            simulate_closed_loop(plant, ctrl, scn, np.eye(6), np.eye(2),
                                 lambda *rows: pytest.fail("stepped"))
        assert time.perf_counter() - t0 < 1.0
        assert exc.value.periods == periods
        assert f"the {MAX_PERIODS} a simulation may step" in str(exc.value)


def triangular_loop(rate):
    """Two uncoupled machines with triangular dynamics driven through
    their first state, whose slowest local mode decays at ``rate`` 1/s,
    under a zero-wait remote gain that puts each machine's sampled first
    state on a 10 s time constant; returns the plant and the controller."""
    X = np.array([[-rate, 0.5, 0.0], [0.0, -2.0, 0.5], [0.0, 0.0, -3.0]])
    Z = np.zeros((3, 3))
    B_u = np.zeros((6, 2))
    B_u[0, 0] = B_u[3, 1] = 1.0
    B_w = np.zeros((6, 4))
    B_w[1:3, 0:2] = B_w[4:6, 2:4] = np.eye(2)
    plant = LinearPlant(A=np.block([[X, Z], [Z, X]]), B_u=B_u, B_w=B_w, m=2)
    gains = LocalGains.from_blocks(plant, [np.zeros((1, 3))] * 2)
    dec = symmetric_modes(plant, gains)
    h = 0.02
    sched = DelaySchedule.from_links(dec, np.zeros((2, 2)), h)
    designs = []
    for i in range(2):
        md = design_mode(mode_system(gains, dec, i, np.eye(6), np.eye(2),
                                     np.eye(6), np.zeros((6, 2)),
                                     np.zeros((6, 4))), h, 0.0)
        F = np.zeros((1, 3))
        F[0, 0] = ((np.exp(-0.1 * h) - md.disc.A2[0, 0])
                   / md.disc.B2u[0, 0])
        designs.append(replace(md, F=F))
    return plant, DistributedController(gains, dec, sched, designs)


class TestAttenuation:
    def test_gamma_increases_with_delay(self, gains_k2, dec_k2):
        model = bench_mode_system(gains_k2, dec_k2, 0)
        g0, _ = attenuation_of_mode(model, 0.02, 0.0)
        g2, _ = attenuation_of_mode(model, 0.02, 0.2)
        assert g0 <= g2

    def test_input_weight_keeps_gamma(self, gains_k2, dec_k2):
        # the output is summed, y = C x + D_u u, so a heavier input weight
        # need not raise the level: on this mode it stays inside the
        # bisection bracket
        model = bench_mode_system(gains_k2, dec_k2, 0)
        tol = 1e-3
        g1, _ = attenuation_of_mode(model, 0.02, 0.06, tol=tol)
        for factor in (2.0, 100.0):
            heavy = CtsModel(replace(model.sys, D1u=factor * model.sys.D1u),
                             model.cost)
            g2, _ = attenuation_of_mode(heavy, 0.02, 0.06, tol=tol)
            assert abs(g2 - g1) <= 2 * tol * g1


class TestBounds:
    def test_lqr_bounds_sandwich_zero_delay(self, gains_k1, dec_k1):
        model = bench_mode_system(gains_k1, dec_k1, 0)
        z0 = np.array([1.0, 0, 0])
        md = design_mode(model, 0.02, 0.0, method="lqr")
        upper, lower = compute_bounds(md, "lqr", z0=z0)
        assert lower <= upper
        value = md.result.J_star(md.disc.lift_state(z0))
        assert lower - 1e-9 * abs(lower) <= value <= upper * (1 + 1e-9)

    def test_hinf_upper_is_open_loop_norm(self, gains_k2, dec_k2):
        model = bench_mode_system(gains_k2, dec_k2, 0)
        md = design_mode(model, 0.02, 0.0, method="hinf")
        upper, lower = compute_bounds(md, "hinf")
        # the reference norm comes from a second, separately made
        # discretization of the same mode
        ref_disc = design_mode(CtsModel(model.sys, model.cost), 0.02, 0.0,
                               method="lqr").disc
        ref = grid_hinf_norm(ref_disc.A2, ref_disc.B2w, ref_disc.C2,
                             ref_disc.D2w)
        assert abs(upper - ref) <= 1e-9 * ref
        assert lower <= upper

    def test_priced_out_remote_control(self):
        # with zero local gains and a huge input weight both bounds collapse
        # to the uncontrolled cost
        rng = np.random.default_rng(1)
        plant, _, _ = synthetic_symmetric_plant(rng)
        gains = LocalGains.from_blocks(plant, [np.zeros((1, 3))] * 2)
        dec = symmetric_modes(plant, gains)
        Q = np.eye(6)
        R_huge = 1e8 * np.eye(2)
        model = mode_system(gains, dec, 0, Q, R_huge, C_OUT, DU_OUT, DW_OUT)
        z0 = np.array([1.0, 0.5, -0.2])
        upper, lower = compute_bounds(
            design_mode(model, 0.02, 0.0, method="lqr"), "lqr", z0=z0)
        assert abs(upper - lower) <= 1e-4 * upper


class TestSweep:
    def test_lqr_sweep_rows(self, gains_k1, dec_k1):
        model = bench_mode_system(gains_k1, dec_k1, 0)
        grid = [0.0, 0.1, 0.3, 0.5]
        res = sweep_delays(model, dec_k1, 0, "lqr", grid, 0.02)
        assert res.all_ok()
        # the zero-delay design is the lower bound itself
        assert res.rows[0].value == res.rows[0].lower
        vals = [r.value for r in res.rows]
        assert all(r.lower <= r.value <= r.upper * (1 + 1e-9)
                   for r in res.rows)
        assert vals == sorted(vals)  # nondecreasing on the benchmark
        assert not res.warnings

    def test_common_mode_sweep(self, gains_k1, dec_k1):
        model = bench_mode_system(gains_k1, dec_k1, 1)
        res = sweep_delays(model, dec_k1, "common", "lqr", [0.0, 0.2], 0.02)
        assert res.all_ok()

    def test_hinf_sweep_rows(self, gains_k2, dec_k2):
        model = bench_mode_system(gains_k2, dec_k2, 0)
        res = sweep_delays(model, dec_k2, 0, "hinf", [0.0, 0.2, 0.4], 0.02)
        assert res.all_ok()
        assert res.rows[0].value == res.rows[0].lower

    def test_hinf_zero_wait_row_is_exact_zero(self, gains_k2, dec_k2):
        # at zero wait F0 = -D2u^+ C2 cancels the summed output with a
        # Schur-stable loop: the row and the lower bound are exactly 0
        model = bench_mode_system(gains_k2, dec_k2, 0)
        res = sweep_delays(model, dec_k2, 0, "hinf", [0.0, 0.02], 0.02)
        assert res.all_ok()
        assert res.rows[0].value == 0.0 and res.rows[0].lower == 0.0
        assert res.rows[1].value > 0.0
        md = design_mode(model, 0.02, 0.0, method="hinf")
        F0 = -np.linalg.pinv(md.disc.D2u) @ md.disc.C2
        np.testing.assert_array_equal(md.F, F0)
        np.testing.assert_allclose(md.F, [[-100.0, 0.0, 0.0]], rtol=1e-14)
        assert md.result.norm <= 1e-12 * res.rows[0].upper

    def test_lqr_rows_of_one_interval_share_a_stack(self, gains_k1, dec_k1):
        model = bench_mode_system(gains_k1, dec_k1, 0)
        grid = [0.0, 0.024, 0.028, 0.032, 0.036, 0.04, 0.044]
        res = sweep_delays(model, dec_k1, 0, "lqr", grid, 0.02)
        assert res.all_ok()
        # (0.02, 0.04] is one stack of five; 0.044 is a stack of its own
        assert res.diagnostics == {"rows_designed": 6, "stacks": 2,
                                   "largest_stack": 5, "rows_redesigned": 0}
        for r in res.rows[1:]:
            md = design_mode(model, 0.02, r.delay, method="lqr")
            assert r.value == md.result.J_star(md.disc.lift_state(
                [1.0, 0.0, 0.0]))

    def test_failed_row_leaves_its_stack_intact(self, gains_k1, dec_k1,
                                                monkeypatch):
        # a design that fails whenever its stack holds d = 0.028: that row
        # alone fails, and the rest of its stack, designed again one row at
        # a time, keeps exactly the values of the stacked design
        import wadc.dncs as dncs
        model = bench_mode_system(gains_k1, dec_k1, 0)
        grid = [0.0, 0.024, 0.028, 0.032, 0.036, 0.044]
        ref = sweep_delays(model, dec_k1, 0, "lqr", grid, 0.02)
        real, bad = dncs.lqr_design, 0.028

        def failing(discs):
            if any(d.d == bad for d in discs):
                raise NotStabilizable("injected failure")
            return real(discs)

        monkeypatch.setattr(dncs, "lqr_design", failing)
        res = sweep_delays(model, dec_k1, 0, "lqr", grid, 0.02)
        for row, ref_row in zip(res.rows, ref.rows):
            if row.delay == bad:
                assert row.status == "failed:NotStabilizable"
                assert np.isnan(row.value)
            else:
                assert row == ref_row
        assert res.diagnostics["rows_redesigned"] == 4
        assert ref.diagnostics["rows_redesigned"] == 0

    def test_bad_grid_rejected(self, gains_k1, dec_k1):
        model = bench_mode_system(gains_k1, dec_k1, 0)
        with pytest.raises(ValueError):
            sweep_delays(model, dec_k1, 0, "lqr", [0.2, 0.1], 0.02)
