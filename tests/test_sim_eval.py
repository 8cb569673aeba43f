import time
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from conftest import BENCH_WEIGHTS, C_OUT, DU_OUT
from helpers import (
    attenuation_of_mode,
    grid_hinf_norm,
    per_step_closed_loop,
    physical_period_map,
    simulate_collect,
    summed_cost,
)
from test_dncs import bench_mode_system, synthetic_symmetric_plant
from wadc.dncs import (
    DistributedController,
    LocalGains,
    delay_map,
    design_mode,
    mode_system,
    symmetric_modes,
)
from wadc.errors import (
    HorizonTooLong,
    InvalidSampling,
    NotStabilizable,
    StepGridTooFine,
    UnstableSystem,
)
from wadc.grid_model import LinearPlant
import wadc.sim_eval as sim_eval
from wadc.sim_eval import (
    MAX_PERIODS,
    MAX_STEPS_PER_PERIOD,
    MAX_SWEEP_IN_FLIGHT,
    Scenario,
    _rk4_affine,
    _step_grid,
    compute_bounds,
    simulate_closed_loop,
    sweep_delays,
)
from wadc.synthesis import hinf_norm


def build_controller(plant, gains, dec, tau, h=0.02, method="lqr",
                     zero_gains=False):
    d = tau * (np.ones((2, 2)) - np.eye(2))
    d_hat, _ = delay_map(dec, d)
    designs = []
    for i in range(2):
        md = design_mode(bench_mode_system(gains, dec, i), h,
                         float(d_hat[i]), method=method)
        if zero_gains:
            md = replace(md, F=np.zeros_like(md.F))
        designs.append(md)
    return DistributedController(gains, dec, d, h, designs), designs


class TestRefineStep:
    def test_halved_gcd(self):
        # 13 ms offset against a 20 ms period: events align on a 0.5 ms grid
        assert _step_grid(0.002, 0.02, [0.013], 1.0) == (Fraction(1, 2000),
                                                         [40, 26])

    def test_simple_divisor(self):
        assert _step_grid(0.001, 0.02, [0.1], 1.0) == (Fraction(1, 1600),
                                                       [32, 160])

    def test_no_offsets(self):
        assert _step_grid(0.01, 0.02, [], 1.0) == (Fraction(1, 100), [2])

    def test_stability_limit(self):
        # |lambda| = 16,000 1/s caps the step at 2.5/16,000 = 1.5625e-4 s,
        # which is 0.02 / 2^7 itself
        assert _step_grid(0.01, 0.02, [0.1], 16_000.0) == (
            Fraction(1, 6400), [128, 640])

    @pytest.mark.parametrize("requested, offset, steps", [
        (0.001, 0.1000001, 1_999_998),
        (0.001, 0.0123456789, 2 ** 58),
        (1e-9, 0.1, 2 ** 25),
    ], ids=["delay-7-decimals", "delay-10-decimals", "step-1ns"])
    def test_steps_per_period_capped(self, requested, offset, steps):
        # a switching offset on a fine decimal grid, or a tiny request,
        # would need millions of steps per period: refused by count
        t0 = time.perf_counter()
        with pytest.raises(StepGridTooFine,
                           match="integrator_step_s") as exc:
            _step_grid(requested, 0.02, [offset], 1.0)
        assert time.perf_counter() - t0 < 1.0
        assert f"needs {steps} integrator steps" in str(exc.value)
        assert f"the {MAX_STEPS_PER_PERIOD} a period" in str(exc.value)

    def test_rk4_contracts_on_the_stability_half_disk(self):
        # R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 is RK4's amplification;
        # on the boundary of {|z| <= 2.5, Re z <= 0} it is at most 1, and 1
        # only at z = 0, so by the maximum principle |R| < 1 at every
        # lambda dt of a Hurwitz loop with |lambda| dt <= 2.5
        def amp(z):
            return np.abs(1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24)

        arc = 2.5 * np.exp(1j * np.linspace(np.pi / 2, 3 * np.pi / 2,
                                            100_001))
        assert amp(arc).max() < 0.874
        # on the imaginary axis (R(-iy) is the conjugate of R(iy)),
        # |R(iy)|^2 = 1 - y^6 (8 - y^2) / 576, below 1 for 0 < y <= 2.5
        y = np.linspace(0.0, 2.5, 100_001)
        np.testing.assert_allclose(amp(1j * y) ** 2,
                                   1 - y ** 6 * (8 - y ** 2) / 576,
                                   rtol=1e-13, atol=0)
        assert (y[1:] ** 6 * (8 - y[1:] ** 2) > 0).all()

    @pytest.mark.parametrize("gain_set", ["k1", "k2"])
    def test_benchmark_steps_stay_stable(self, request, bench_plant,
                                         gain_set):
        # the step simulate picks for each benchmark gain set keeps every
        # lambda dt of A + B_u K on the half-disk, and the RK4 step map
        # Schur stable
        gains = request.getfixturevalue(f"gains_{gain_set}")
        dec = request.getfixturevalue(f"dec_{gain_set}")
        ctrl, _ = build_controller(bench_plant, gains, dec, 0.1)
        scn = Scenario(initial_state=np.zeros(6), integrator_step=0.01,
                       horizon=0.02)
        dt = simulate_collect(bench_plant, ctrl, scn, *BENCH_WEIGHTS).step
        z = np.linalg.eigvals(gains.A_bar) * dt
        assert np.abs(z).max() <= 2.5 and (z.real < 0).all()
        rmap, _ = _rk4_affine(gains.A_bar, dt)
        assert np.abs(np.linalg.eigvals(rmap)).max() < 1


class TestSimulate:
    def test_zero_initial_state(self, bench_plant, gains_k1, dec_k1):
        ctrl, _ = build_controller(bench_plant, gains_k1, dec_k1, 0.04)
        scn = Scenario(initial_state=np.zeros(6), integrator_step=0.01,
                       horizon=5.0)
        out = simulate_collect(bench_plant, ctrl, scn, *BENCH_WEIGHTS)
        assert out.J == 0.0
        np.testing.assert_array_equal(out.x, 0.0)
        np.testing.assert_array_equal(out.u, 0.0)

    def test_off_grid_step_refined_onto_events(self, bench_plant, gains_k1,
                                               dec_k1):
        # a 20 ms request against 30 ms links: every sampling and
        # switching instant lands on an even index of the step taken
        ctrl, _ = build_controller(bench_plant, gains_k1, dec_k1, 0.03)
        scn = Scenario(initial_state=np.zeros(6), integrator_step=0.02,
                       horizon=1.0)
        out = simulate_collect(bench_plant, ctrl, scn, *BENCH_WEIGHTS)
        assert out.step == 0.005 and out.steps_per_period == 4
        for event in (ctrl.h, *ctrl.d_rho):
            k = event / out.step
            assert abs(k - round(k)) < 1e-9 and round(k) % 2 == 0

    def test_decentralized_lyapunov_oracle(self, bench_plant, gains_k1,
                                           dec_k1):
        # remote commands zeroed: the cost over [0, T] equals the Lyapunov
        # quadratic-form difference for the oscillation-mode block
        ctrl, designs = build_controller(bench_plant, gains_k1, dec_k1, 0.0,
                                         zero_gains=True)
        x_hat0 = np.array([1.0, 0, 0, 0, 0, 0])
        T_end = 50.0
        scn = Scenario(initial_state=x_hat0, integrator_step=0.005,
                       horizon=T_end)
        out = simulate_collect(bench_plant, ctrl, scn, *BENCH_WEIGHTS)
        model = bench_mode_system(gains_k1, dec_k1, 0)
        P = scipy.linalg.solve_continuous_lyapunov(model.A1.T,
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
                       integrator_step=0.01, horizon=2.0)
        out = simulate_collect(bench_plant, ctrl, scn, *BENCH_WEIGHTS)
        # independent stage-form RK4 on d/dt x = A_bar x
        A = gains_k1.A_bar
        x = x0.copy()
        dt = 0.01
        n_h = round(ctrl.h / dt)
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
        scn = Scenario(initial_state=x_hat0, integrator_step=0.00125,
                       horizon=4.0)
        out = simulate_collect(bench_plant, ctrl, scn, *BENCH_WEIGHTS)
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
        x_hat0 = np.zeros(6) if impulse else np.array([1.0, 0, 0, 0, 0, 0])
        w = np.zeros((1, 4)) if impulse else None
        if impulse:
            w[0, 0] = 50.0

        def run(T):
            scn = Scenario(initial_state=x_hat0, disturbance=w,
                           integrator_step=step, horizon=T)
            return simulate_collect(bench_plant, ctrl, scn, *BENCH_WEIGHTS)

        out = run(horizon)
        # the oracle steps at the step the simulator picked
        periods = round(horizon / ctrl.h)
        ref = per_step_closed_loop(
            bench_plant, gains, dec, ctrl, designs, dec.M_x @ x_hat0,
            out.step, periods, *BENCH_WEIGHTS, w_seq=() if w is None else w)
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
        J = [run(k * ctrl.h).J for k in range(1, periods + 1)]
        np.testing.assert_allclose(J, ref["J"][1:], rtol=1e-10, atol=0)

    def test_certificate_against_simulation(self, bench_plant, gains_k1,
                                            dec_k1):
        tau = 0.06
        ctrl, designs = build_controller(bench_plant, gains_k1, dec_k1, tau)
        md = designs[0]
        x_hat0 = np.array([1.0, 0, 0, 0, 0, 0])
        scn = Scenario(initial_state=x_hat0, integrator_step=0.01,
                       horizon=800.0)
        out = simulate_collect(bench_plant, ctrl, scn, *BENCH_WEIGHTS)
        J_cert = md.J_star(md.disc.lift_state(x_hat0[:3]))
        assert abs(out.J - J_cert) <= 5e-3 * J_cert

    def test_integrator_step_halving(self, bench_plant, gains_k1, dec_k1):
        ctrl, _ = build_controller(bench_plant, gains_k1, dec_k1, 0.04)
        x_hat0 = np.array([1.0, 0, 0, 0, 0, 0])
        Js = []
        for dt in (0.01, 0.005):
            scn = Scenario(initial_state=x_hat0, integrator_step=dt,
                           horizon=100.0)
            out = simulate_collect(bench_plant, ctrl, scn, *BENCH_WEIGHTS)
            Js.append(out.J)
        assert abs(Js[0] - Js[1]) <= 1e-4 * abs(Js[1])

    def test_disturbance_and_outputs(self, bench_plant, gains_k1, dec_k1):
        ctrl, _ = build_controller(bench_plant, gains_k1, dec_k1, 0.02)
        w = np.zeros((1, 4))
        w[0, 0] = 50.0  # one-sample pulse at load bus 1
        scn = Scenario(initial_state=np.zeros(6), disturbance=w,
                       integrator_step=0.01, horizon=20.0)
        out = simulate_collect(bench_plant, ctrl, scn, *BENCH_WEIGHTS)
        assert np.abs(out.x).max() > 0  # the pulse excites the grid
        assert out.y.shape == (len(out.t), 2)
        assert np.isfinite(out.J)

    @pytest.mark.parametrize("loop", ["triangular", "lqr", "hinf"])
    def test_auto_horizon_cost_is_converged(self, request, loop):
        # 20 time constants of the sampled loop leave a cost tail below
        # rounding: a fixed horizon twice as long adds nothing.  The
        # triangular loop's local time constant is 1 s and its sampled one
        # 10 s, so a horizon sized from the local loop would miss 1.8 % of J
        plant, ctrl, weights = loop_of(request, loop)

        def run(horizon):
            scn = Scenario(initial_state=np.eye(6)[0], integrator_step=0.01,
                           horizon=horizon)
            return simulate_closed_loop(plant, ctrl, scn, *weights[:2],
                                        lambda *rows: None, *weights[2:])

        auto = run(None)
        twice = run(2 * auto.horizon)
        assert twice.periods == 2 * auto.periods
        assert abs(twice.J - auto.J) <= 1e-13 * auto.J
        if loop == "triangular":
            # the sampled first state decays by exp(-0.1 h) a period
            assert auto.horizon == pytest.approx(200.0, rel=1e-9)
            assert run(20.0).J < (1 - 0.018) * auto.J

    @pytest.mark.parametrize("loop, horizon, impulse, scale, rtol", [
        ("lqr", None, False, 1.0, 1e-12),
        ("hinf", None, False, 1.0, 1e-12),
        ("triangular", None, False, 1.0, 1e-12),
        ("triangular", None, False, 1e-20, 1e-12),
        ("lqr", 160.0, False, 1.0, 1e-11),
        ("hinf", 60.0, False, 1.0, 1e-11),
        ("lqr", 0.02, False, 1.0, 1e-11),
        ("hinf", 5.0, True, 1.0, 1e-11),
    ], ids=["lqr-auto", "hinf-auto", "triangular-auto", "tiny-weights",
            "lqr-160s", "hinf-60s", "one-period", "impulse"])
    def test_cost_matches_running_sum(self, request, loop, horizon, impulse,
                                      scale, rtol):
        # the closed-form cost xi0' P xi0 - xiN' P xiN against the sum of
        # the per-period costs over the same run, at any scale of the
        # weights; on a fixed horizon the two forms cancel in part, which
        # costs a digit
        plant, ctrl, weights = loop_of(request, loop,
                                       tau=0.04 if impulse else 0.1)
        weights = (scale * weights[0], scale * weights[1], *weights[2:])
        w = np.zeros((1, 4)) if impulse else None
        if impulse:
            w[0, 0] = 50.0
        scn = Scenario(initial_state=np.eye(6)[0] * (not impulse),
                       disturbance=w, integrator_step=0.01, horizon=horizon)
        out = simulate_closed_loop(plant, ctrl, scn, *weights[:2],
                                   lambda *rows: None, *weights[2:])
        assert out.periods == (1 if horizon == 0.02 else out.periods)
        ref = summed_cost(plant, ctrl, scn, *weights[:2], out.periods)
        assert abs(out.J - ref) <= rtol * ref

    def test_unstable_sampled_loop_has_no_auto_horizon(self):
        # the remote gain pushes each sampled first state out by
        # exp(0.1 h) a period: the loop has neither an auto horizon nor a
        # cost, so a run of any horizon is refused before any row is
        # handed on
        plant, ctrl = triangular_loop(1.0, sampled_rate=-0.1)
        for horizon in (None, 10.0):
            scn = Scenario(initial_state=np.eye(6)[0], integrator_step=0.01,
                           horizon=horizon)
            with pytest.raises(UnstableSystem,
                               match="spectral radius 1.002002"):
                simulate_closed_loop(
                    plant, ctrl, scn, *TRIANGULAR_WEIGHTS[:2],
                    lambda *rows: pytest.fail("handed on a row"),
                    *TRIANGULAR_WEIGHTS[2:])

    @pytest.mark.parametrize("horizon, periods", [(None, 100_000_000),
                                                  (1e7, 500_000_000)],
                             ids=["auto", "fixed"])
    def test_horizon_beyond_period_cap_refused(self, horizon, periods):
        # a sampled loop decaying at 1e-5 1/s is stable, but its auto
        # horizon of 20 time constants is 2e6 s; both are refused before
        # any period is stepped
        plant, ctrl = triangular_loop(1e-5, sampled_rate=1e-5)
        scn = Scenario(initial_state=np.eye(6)[0], integrator_step=0.01,
                       horizon=horizon)
        t0 = time.perf_counter()
        with pytest.raises(HorizonTooLong, match="horizon_s") as exc:
            simulate_closed_loop(plant, ctrl, scn, *TRIANGULAR_WEIGHTS[:2],
                                 lambda *rows: pytest.fail("stepped"),
                                 *TRIANGULAR_WEIGHTS[2:])
        assert time.perf_counter() - t0 < 1.0
        assert exc.value.periods == periods
        assert f"the {MAX_PERIODS} a simulation may step" in str(exc.value)


FALLING_WARNING = ("measure decreased along 67% of consecutive delay "
                   "pairs; expected a nondecreasing trend")


def falling_designs(monkeypatch):
    """Make sweep_delays' LQR rows fall with the waiting time inside the
    bounds [0, 10]: the value is 1 at zero wait and 5 - wait beyond."""
    def design(model, h, waits, method, gamma_tol):
        def one(wait):
            value = 1.0 if wait == 0.0 else 5.0 - wait
            return SimpleNamespace(
                disc=SimpleNamespace(lift_state=lambda z: z),
                J_star=lambda z: value)
        return one(waits) if np.isscalar(waits) else list(map(one, waits))

    monkeypatch.setattr(sim_eval, "design_mode", design)
    monkeypatch.setattr(sim_eval, "compute_bounds",
                        lambda md0, measure, z0=None: (10.0, 0.0))


def loop_of(request, loop, tau=0.1):
    """The plant, controller and weights of a named test loop: the
    triangular loop, or the benchmark's LQR or H-infinity loop at link
    delay ``tau``."""
    if loop == "triangular":
        return (*triangular_loop(1.0), TRIANGULAR_WEIGHTS)
    plant = request.getfixturevalue("bench_plant")
    k = "k1" if loop == "lqr" else "k2"
    ctrl, _ = build_controller(
        plant, request.getfixturevalue(f"gains_{k}"),
        request.getfixturevalue(f"dec_{k}"), tau, method=loop)
    return plant, ctrl, BENCH_WEIGHTS


# cost and output weights of triangular_loop, in simulate_closed_loop's order
TRIANGULAR_WEIGHTS = (np.eye(6), np.eye(2), np.eye(6), np.zeros((6, 2)))


def triangular_loop(rate, sampled_rate=0.1):
    """Two uncoupled machines with triangular dynamics driven through
    their first state, whose slowest local mode decays at ``rate`` 1/s,
    under a zero-wait remote gain that makes each machine's sampled first
    state decay at ``sampled_rate`` 1/s; returns the plant and the
    controller."""
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
    designs = []
    for i in range(2):
        md = design_mode(mode_system(gains, dec, i, *TRIANGULAR_WEIGHTS),
                         h, 0.0)
        F = np.zeros((1, 3))
        F[0, 0] = ((np.exp(-sampled_rate * h) - md.disc.A2[0, 0])
                   / md.disc.B2u[0, 0])
        designs.append(replace(md, F=F))
    return plant, DistributedController(gains, dec, np.zeros((2, 2)), h,
                                        designs)


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
            heavy = replace(model, D1u=factor * model.D1u)
            g2, _ = attenuation_of_mode(heavy, 0.02, 0.06, tol=tol)
            assert abs(g2 - g1) <= 2 * tol * g1

    @pytest.mark.parametrize("tau", [0.02, 0.05, 0.1, 0.13])
    def test_gamma_is_the_physical_sampled_gain(self, bench_plant, gains_k2,
                                                dec_k2, tau):
        # the modal transforms are 1/2 [[I, I], [-I, I]], whose singular
        # values are 1/sqrt(2), and the two modes' outputs are orthogonal;
        # so the physical loop's gain from the held disturbance to the
        # sampled output is sqrt(2) times the larger mode's certified norm.
        # At 0.02 and 0.1 s the switch falls on the instant (r = h)
        ctrl, designs = build_controller(bench_plant, gains_k2, dec_k2, tau,
                                         method="hinf")
        gain = hinf_norm(*physical_period_map(bench_plant, ctrl, C_OUT,
                                              DU_OUT))
        assert gain == pytest.approx(
            np.sqrt(2.0) * max(md.norm for md in designs), rel=1e-9)


class TestBounds:
    def test_lqr_bounds_sandwich_zero_delay(self, gains_k1, dec_k1):
        model = bench_mode_system(gains_k1, dec_k1, 0)
        z0 = np.array([1.0, 0, 0])
        md = design_mode(model, 0.02, 0.0, method="lqr")
        upper, lower = compute_bounds(md, "lqr", z0=z0)
        assert lower <= upper
        value = md.J_star(md.disc.lift_state(z0))
        assert lower - 1e-9 * abs(lower) <= value <= upper * (1 + 1e-9)

    def test_lqr_bounds_need_initial_state(self, gains_k1, dec_k1):
        md = design_mode(bench_mode_system(gains_k1, dec_k1, 0), 0.02, 0.0,
                         method="lqr")
        with pytest.raises(ValueError, match="initial modal state"):
            compute_bounds(md, "lqr")

    def test_hinf_upper_is_open_loop_norm(self, gains_k2, dec_k2):
        model = bench_mode_system(gains_k2, dec_k2, 0)
        md = design_mode(model, 0.02, 0.0, method="hinf")
        upper, lower = compute_bounds(md, "hinf")
        # the reference norm comes from a second, separately made
        # discretization of the same mode
        ref_disc = design_mode(replace(model), 0.02, 0.0,
                               method="lqr").disc
        ref = grid_hinf_norm(ref_disc.A2, ref_disc.B2w, ref_disc.C2)
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
        model = mode_system(gains, dec, 0, Q, R_huge, C_OUT, DU_OUT)
        z0 = np.array([1.0, 0.5, -0.2])
        upper, lower = compute_bounds(
            design_mode(model, 0.02, 0.0, method="lqr"), "lqr", z0=z0)
        assert abs(upper - lower) <= 1e-4 * upper


class TestSweep:
    def test_lqr_sweep_rows(self, gains_k1, dec_k1):
        model = bench_mode_system(gains_k1, dec_k1, 0)
        grid = [0.0, 0.1, 0.3, 0.5]
        res = sweep_delays(model, dec_k1, 0, "lqr", grid, 0.02)
        assert all(r.status == "ok" for r in res.rows)
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
        assert all(r.status == "ok" for r in res.rows)

    def test_hinf_sweep_rows(self, gains_k2, dec_k2):
        model = bench_mode_system(gains_k2, dec_k2, 0)
        res = sweep_delays(model, dec_k2, 0, "hinf", [0.0, 0.2, 0.4], 0.02)
        assert all(r.status == "ok" for r in res.rows)
        assert res.rows[0].value == res.rows[0].lower

    def test_hinf_zero_wait_row_is_exact_zero(self, gains_k2, dec_k2):
        # at zero wait F0 = -D2u^+ C2 cancels the summed output with a
        # Schur-stable loop: the row and the lower bound are exactly 0
        model = bench_mode_system(gains_k2, dec_k2, 0)
        res = sweep_delays(model, dec_k2, 0, "hinf", [0.0, 0.02], 0.02)
        assert all(r.status == "ok" for r in res.rows)
        assert res.rows[0].value == 0.0 and res.rows[0].lower == 0.0
        assert res.rows[1].value > 0.0
        md = design_mode(model, 0.02, 0.0, method="hinf")
        F0 = -np.linalg.pinv(md.disc.D2u) @ md.disc.C2
        np.testing.assert_array_equal(md.F, F0)
        np.testing.assert_allclose(md.F, [[-100.0, 0.0, 0.0]], rtol=1e-14)
        assert md.norm <= 1e-12 * res.rows[0].upper

    def test_lqr_rows_of_one_interval_share_a_stack(self, gains_k1, dec_k1):
        model = bench_mode_system(gains_k1, dec_k1, 0)
        grid = [0.0, 0.024, 0.028, 0.032, 0.036, 0.04, 0.044]
        res = sweep_delays(model, dec_k1, 0, "lqr", grid, 0.02)
        assert all(r.status == "ok" for r in res.rows)
        # (0.02, 0.04] is one stack of five; 0.044 is a stack of its own
        assert res.diagnostics == {"rows_designed": 6, "stacks": 2,
                                   "largest_stack": 5, "rows_redesigned": 0}
        for r in res.rows[1:]:
            md = design_mode(model, 0.02, r.delay, method="lqr")
            assert r.value == md.J_star(md.disc.lift_state(
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

    def test_falling_measure_warns(self, gains_k1, dec_k1, monkeypatch):
        # values inside their bounds that fall along two of three delay
        # pairs: every row is ok, and the sweep warns
        falling_designs(monkeypatch)
        model = bench_mode_system(gains_k1, dec_k1, 0)
        res = sweep_delays(model, dec_k1, 0, "lqr", [0.0, 0.1, 0.2, 0.3],
                           0.02)
        assert all(r.status == "ok" for r in res.rows)
        values = [r.value for r in res.rows]
        assert values[0] < values[1] and values[1:] == sorted(values[1:])[::-1]
        assert res.warnings == (FALLING_WARNING,)

    @pytest.mark.parametrize("grid, message", [
        ([0.0, 1e6], "puts 50000000 input samples in flight"),
        (0.000256 * np.arange(10_001), f"more than the {MAX_SWEEP_IN_FLIGHT}"),
    ], ids=["one-wait", "all-waits"])
    def test_over_cap_grid_refused_before_any_design(
            self, gains_k1, dec_k1, monkeypatch, grid, message):
        # the zero-delay design included
        calls = []
        monkeypatch.setattr(sim_eval, "design_mode",
                            lambda *args, **kwargs: calls.append(args))
        model = bench_mode_system(gains_k1, dec_k1, 0)
        with pytest.raises(InvalidSampling, match="delay_grid_s") as exc:
            sweep_delays(model, dec_k1, 0, "hinf", grid, 0.02)
        assert message in str(exc.value)
        assert calls == []

    def test_bad_grid_rejected(self, gains_k1, dec_k1):
        model = bench_mode_system(gains_k1, dec_k1, 0)
        with pytest.raises(ValueError):
            sweep_delays(model, dec_k1, 0, "lqr", [0.2, 0.1], 0.02)
