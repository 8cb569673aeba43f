import numpy as np
import pytest

from conftest import BENCH_GEN, BENCH_NET
from helpers import algebraic_residuals, fd_plant
import wadc.grid_model as grid_model
from wadc.errors import (
    JacobianInconsistent,
    NoConvergence,
    OffEquilibrium,
    SingularAlgebraicSystem,
    SingularNetwork,
)
from wadc.grid_model import (
    GeneratorParams,
    LinearPlant,
    NetworkModel,
    _equilibrium_residual,
    build_two_area_network,
    dynamics_rhs,
    linearize,
    rhs_scale,
    solve_algebraic,
    solve_equilibrium,
    swap_symmetry_residuals,
)


def make_gens(**overrides):
    params = dict(BENCH_GEN)
    params.update(overrides)
    return [GeneratorParams(**params) for _ in range(2)]


def rk4_nonlinear(gens, net, x, u, w, t_end, n_steps):
    """Independent fixed-step RK4 on the nonlinear dynamics."""
    x = np.asarray(x, dtype=float).copy()
    dt = t_end / n_steps
    for _ in range(n_steps):
        k1 = dynamics_rhs(gens, net, x, u, w)
        k2 = dynamics_rhs(gens, net, x + 0.5 * dt * k1, u, w)
        k3 = dynamics_rhs(gens, net, x + 0.5 * dt * k2, u, w)
        k4 = dynamics_rhs(gens, net, x + dt * k3, u, w)
        x = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


class TestNetworkBuilder:
    def test_benchmark_network(self):
        net = build_two_area_network(**BENCH_NET)
        assert net.Y.shape == (2, 2)
        np.testing.assert_allclose(net.Y, net.Y.T)
        assert abs(net.Y[0, 0] - net.Y[1, 1]) < 1e-12 * abs(net.Y[0, 0])
        assert abs(net.Y[0, 1]) > 0  # tie couples the ports

    def test_singular_internal_block(self):
        # y_T + y_L = 0 makes the load-bus block singular whatever the tie
        with pytest.raises(SingularNetwork):
            build_two_area_network(1j, -1j, 1.0)

    @pytest.mark.parametrize("Y, H, message", [
        (np.eye(2), np.ones((2, 3)), "square with matching shapes"),
        (np.ones((2, 3)), np.ones((2, 3)), "square with matching shapes"),
        ([[1.0, 2.0], [3.0, 1.0]], np.eye(2), "symmetric"),
    ], ids=["H-shape", "Y-not-square", "Y-asymmetric"])
    def test_network_model_checks(self, Y, H, message):
        with pytest.raises(ValueError, match=message):
            NetworkModel(Y=Y, H=H, omega0=1.0)

    def test_zero_impedance_rejected(self):
        with pytest.raises(ValueError):
            build_two_area_network(0.0, 6.2 + 2.1j, 0.054 + 0.53j)


SOLUTION_FIELDS = ("i_d", "i_q", "i_f", "psi_d", "psi_q", "e_d", "e_q",
                   "T_e")


class TestSolveAlgebraic:
    def test_stack_is_one_state_solves(self, bench_gens, bench_net,
                                       bench_op):
        # states and disturbances near the benchmark's operating point, as
        # linearize and the Newton step stack them
        rng = np.random.default_rng(3)
        scale = np.array([1e-3, 1e-2, 1.0] * 2)
        x = bench_op.x + rng.normal(size=(40, 6)) * scale
        w = rng.normal(size=(40, 4)) * 4.0
        for w_stack in (None, w[0], w):
            sol = solve_algebraic(bench_gens, bench_net, x, w_stack)
            rows = [solve_algebraic(bench_gens, bench_net, x[r],
                                    w_stack if w_stack is None
                                    or w_stack.ndim == 1 else w_stack[r])
                    for r in range(len(x))]
            for name in SOLUTION_FIELDS:
                assert getattr(sol, name).shape == (40, 2)
                assert np.array_equal(
                    getattr(sol, name),
                    np.stack([getattr(one, name) for one in rows])), name

    def test_symmetry(self, bench_gens, bench_net):
        x = np.array([0.2, 377.0, 4000.0] * 2)
        sol = solve_algebraic(bench_gens, bench_net, x)
        for name in SOLUTION_FIELDS:
            v = getattr(sol, name)
            assert abs(v[0] - v[1]) <= 1e-9 * (1 + abs(v[0]))

    def test_residuals_random_states(self, bench_gens, bench_net):
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = np.empty(6)
            x[0::3] = rng.uniform(-1.0, 1.0, 2)
            x[1::3] = 377.0 + rng.uniform(-5, 5, 2)
            x[2::3] = rng.uniform(500.0, 6000.0, 2)
            w = rng.uniform(-50, 50, 4)
            sol = solve_algebraic(bench_gens, bench_net, x, w)
            for res in algebraic_residuals(bench_gens, bench_net, x, w, sol):
                assert max(res.values()) <= 1e-9

    def test_network_equation_inline(self, bench_gens, bench_net):
        # recheck one equation completely outside the library helpers
        x = np.array([0.3, 377.0, 3500.0, -0.1, 377.0, 4200.0])
        w = np.array([10.0, -5.0, 2.0, 7.0])
        sol = solve_algebraic(bench_gens, bench_net, x, w)
        i_ph = sol.i_d + 1j * sol.i_q
        e_ph = sol.e_d + 1j * sol.e_q
        w_ph = np.array([10.0 - 5.0j, 2.0 + 7.0j])
        lhs = i_ph - bench_net.Y @ e_ph - bench_net.H @ w_ph
        assert np.abs(lhs).max() <= 1e-9 * np.abs(i_ph).max()

    def test_unexcited_zero_torque(self, bench_gens, bench_net):
        x = np.array([0.4, 377.0, 0.0, -0.2, 377.0, 0.0])
        sol = solve_algebraic(bench_gens, bench_net, x)
        np.testing.assert_allclose(sol.i_f, 0, atol=1e-12)
        np.testing.assert_allclose(sol.T_e, 0, atol=1e-12)
        # torque formula evaluated directly from the solved fields
        g = bench_gens[0]
        te = 1.5 * g.p_f * (sol.psi_d * sol.i_q - sol.psi_q * sol.i_d)
        np.testing.assert_array_equal(sol.T_e, te)


    def test_singular_system_refused(self, bench_gens, bench_net, bench_op,
                                     monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(SingularAlgebraicSystem, match="Singular matrix"):
            solve_algebraic(bench_gens, bench_net, bench_op.x)

    def test_non_finite_solution_refused(self, bench_gens, bench_net,
                                         bench_op):
        x = bench_op.x.copy()
        x[2] = np.inf   # machine 1's field flux
        with pytest.raises(SingularAlgebraicSystem, match="non-finite"):
            solve_algebraic(bench_gens, bench_net, x)


class TestDynamics:
    def test_equilibrium_rhs_small(self, bench_gens, bench_net, bench_op):
        rhs = dynamics_rhs(bench_gens, bench_net, bench_op.x, bench_op.u)
        scaled = rhs / rhs_scale(bench_gens, bench_net)
        assert np.abs(scaled).max() <= 1e-8

    def test_delta_dot_exact(self, bench_gens, bench_net):
        x = np.array([0.5, 377.0, 3000.0, -0.3, 377.0, 5000.0])
        rhs = dynamics_rhs(bench_gens, bench_net, x, [500.0, 500.0])
        assert rhs[0] == 0.0 and rhs[3] == 0.0

    def test_rhs_matches_rk4_slope(self, bench_gens, bench_net, bench_op):
        rng = np.random.default_rng(1)
        x = bench_op.x + rng.normal(size=6) * np.array([0.05, 0.5, 40.0] * 2)
        u = bench_op.u + rng.normal(size=2)
        rhs = dynamics_rhs(bench_gens, bench_net, x, u)
        dt = 1e-4
        xp = rk4_nonlinear(bench_gens, bench_net, x, u, None, dt, 50)
        xm = rk4_nonlinear(bench_gens, bench_net, x, u, None, -dt, 50)
        slope = (xp - xm) / (2 * dt)
        scale = rhs_scale(bench_gens, bench_net) + np.abs(rhs)
        assert (np.abs(slope - rhs) / scale).max() <= 1e-6

    def test_equilibrium_trajectory_drift(self, bench_gens, bench_net, bench_op):
        x_end = rk4_nonlinear(bench_gens, bench_net, bench_op.x, bench_op.u,
                              None, 1.0, 2000)
        drift = (x_end - bench_op.x) / np.array([1.0, 1.0, 4000.0] * 2)
        assert np.abs(drift).max() <= 1e-6


class TestEquilibrium:
    def test_benchmark_symmetric(self, bench_op):
        assert abs(bench_op.x[0] - bench_op.x[3]) <= 1e-9
        assert abs(bench_op.x[2] - bench_op.x[5]) <= 1e-6
        np.testing.assert_array_equal(bench_op.x[1::3], [377.0, 377.0])

    def test_forward_construction(self, bench_net):
        # hand-pick zero-mean rotor angles and fluxes, derive the consistent
        # torques/excitations, then recover the same point
        delta_star = np.array([0.12, -0.12])
        psi_star = np.array([4100.0, 3900.0])
        x = np.empty(6)
        x[0::3], x[1::3], x[2::3] = delta_star, 377.0, psi_star
        probe = make_gens()
        sol = solve_algebraic(probe, bench_net, x)
        gens = [GeneratorParams(**{**BENCH_GEN,
                                   "T_m": sol.T_e[i] + 10.0 * 377.0,
                                   "e_f0": 0.0715 * sol.i_f[i]})
                for i in range(2)]
        op = solve_equilibrium(gens, bench_net)
        np.testing.assert_allclose(op.x[0::3], delta_star, atol=1e-6)
        np.testing.assert_allclose(op.x[2::3], psi_star, rtol=1e-6)

    def test_unexcited_machine(self, bench_net):
        gens = make_gens(e_f0=0.0, T_m=10.0 * 377.0)
        op = solve_equilibrium(gens, bench_net)
        np.testing.assert_allclose(op.x[2::3], 0, atol=1e-8)
        np.testing.assert_allclose(op.sol.T_e, 0, atol=1e-8)

    def test_terminal_voltage_mode(self, bench_gens, bench_net, bench_op):
        v_star = float(np.hypot(bench_op.sol.e_d[0], bench_op.sol.e_q[0]))
        op = solve_equilibrium(bench_gens, bench_net, v_target=v_star)
        np.testing.assert_allclose(op.u, [500.0, 500.0], rtol=1e-6)
        np.testing.assert_allclose(op.x[2::3], bench_op.x[2::3], rtol=1e-6)

    def test_inconsistent_torque_fails(self, bench_net):
        gens = make_gens(T_m=2 * BENCH_GEN["T_m"])
        with pytest.raises(NoConvergence) as exc:
            solve_equilibrium(gens, bench_net, max_iters=30)
        assert exc.value.history  # residual history is reported
        msg = str(exc.value)
        assert "v_target_V" not in msg   # no target was set
        assert "e_f0_V" in msg and "scripts/make_benchmark_config.py" in msg

    def test_inconsistent_voltage_target_says_what_to_change(
            self, bench_gens, bench_net, bench_op):
        # the torque fixes the power, so a voltage target other than the
        # one e_f0 gives has no equilibrium
        v_star = float(np.hypot(bench_op.sol.e_d[0], bench_op.sol.e_q[0]))
        with pytest.raises(NoConvergence) as exc:
            solve_equilibrium(bench_gens, bench_net, v_target=1.01 * v_star,
                              max_iters=3)
        msg = str(exc.value)
        assert f"final scaled residual {exc.value.final_residual:.3e}" in msg
        assert "T_m_Nm" in msg and "power-consistent" in msg
        assert "v_target_V" in msg
        assert "scripts/make_benchmark_config.py" in msg

    def test_stacked_residual_is_one_point_residuals(self, bench_gens,
                                                     bench_net, bench_op):
        # the Newton step differences a stack of points; each row must be
        # the one-point residual the iteration accepts, in both modes
        v_star = float(np.hypot(bench_op.sol.e_d[0], bench_op.sol.e_q[0]))
        rng = np.random.default_rng(4)
        theta = (np.concatenate([bench_op.x[0::3], bench_op.x[2::3]])
                 + rng.normal(size=(4000, 4)) * [1e-2, 1e-2, 50.0, 50.0])
        for v_target in (None, v_star):
            stack, sol = _equilibrium_residual(bench_gens, bench_net, theta,
                                               v_target)
            for row, t in zip(stack[:12], theta):
                one, _ = _equilibrium_residual(bench_gens, bench_net, t,
                                               v_target)
                assert np.array_equal(row, one)
        # the voltage rows square as the scalar ** of the one-point form
        # did (an array's ** 2 rounds differently about once in 1,000)
        v2 = v_target ** 2
        want = [[(sol.e_d[r, i] ** 2 + sol.e_q[r, i] ** 2 - v2) / v2
                 for i in range(2)] for r in range(len(theta))]
        assert np.array_equal(stack[:, 2:], want)

    def test_residual_history_decreases(self, bench_op):
        hist = bench_op.residual_history
        assert hist[-1] <= 1e-10
        assert hist[-1] < hist[0]


class TestLinearize:
    def test_swap_symmetry_needs_two_machines(self):
        plant = LinearPlant(A=-np.eye(9), B_u=np.zeros((9, 3)),
                            B_w=np.zeros((9, 6)), m=3)
        with pytest.raises(ValueError, match="two machines"):
            swap_symmetry_residuals(plant)

    def test_swap_symmetry(self, bench_plant):
        res = swap_symmetry_residuals(bench_plant)
        assert max(res.values()) <= 1e-7

    def test_field_input_column_exact(self, bench_plant):
        np.testing.assert_array_equal(bench_plant.B_u[:, 0],
                                      [0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(bench_plant.B_u[:, 1],
                                      [0.0, 0.0, 0.0, 0.0, 0.0, 1.0])

    def test_delta_dot_row_exact(self, bench_plant):
        np.testing.assert_array_equal(bench_plant.A[0],
                                      [0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(bench_plant.A[3],
                                      [0.0, 0.0, 0.0, 0.0, 1.0, 0.0])

    def test_gauge_zero_eigenvalue(self, bench_plant):
        # no absolute phase reference: a uniform angle shift is invariant
        eigs = np.linalg.eigvals(bench_plant.A)
        assert np.abs(eigs).min() <= 1e-4

    def test_swing_pair_lightly_damped(self, bench_plant):
        eigs = np.linalg.eigvals(bench_plant.A)
        osc = eigs[np.abs(eigs.imag) > 1.0]
        assert len(osc) == 2
        assert 2.0 < abs(osc[0].imag) < 6.0
        assert abs(osc[0].real) < 0.05

    def test_linearization_order(self, bench_gens, bench_net, bench_op,
                                 bench_plant):
        rng = np.random.default_rng(2)
        s_x = np.array([1.0, 1.0, 4000.0] * 2)
        s_f = rhs_scale(bench_gens, bench_net)
        errs = {}
        v = rng.normal(size=6)
        v /= np.linalg.norm(v)
        f0 = dynamics_rhs(bench_gens, bench_net, bench_op.x, bench_op.u)
        for eps in (1e-3, 1e-4):
            dx = eps * s_x * v
            f1 = dynamics_rhs(bench_gens, bench_net, bench_op.x + dx,
                              bench_op.u)
            errs[eps] = np.linalg.norm((f1 - f0 - bench_plant.A @ dx) / s_f)
        order = np.log10(errs[1e-3] / errs[1e-4])
        assert order >= 1.9

    def test_rejects_non_equilibrium(self, bench_gens, bench_net, bench_op):
        from dataclasses import replace
        # a uniform angle shift would still be an equilibrium (gauge
        # direction); perturb one machine only
        bad = replace(bench_op, x=bench_op.x + np.array([0.1, 0, 0, 0, 0, 0]))
        with pytest.raises(OffEquilibrium, match=r"tolerances\] equilibrium"):
            linearize(bench_gens, bench_net, bad)

    def test_non_smooth_dynamics_refused(self, bench_gens, bench_net,
                                         bench_op, monkeypatch):
        # a |d|^1.5 kink in machine 1's speed equation at its equilibrium
        # angle: the central differences shrink like the square root of
        # the step, a step-doubling ratio of sqrt(2), not 4
        smooth, scale = dynamics_rhs, rhs_scale(bench_gens, bench_net)[1]

        def kinked(gens, net, x, u, w=None):
            f = smooth(gens, net, x, u, w)
            d = np.asarray(x)[..., 0] - bench_op.x[0]
            f[..., 1] += 1e3 * scale * np.sign(d) * np.abs(d) ** 1.5
            return f

        monkeypatch.setattr(grid_model, "dynamics_rhs", kinked)
        with pytest.raises(JacobianInconsistent, match="ratio 1.4"):
            linearize(bench_gens, bench_net, bench_op)

    def test_stacked_differences_are_per_column_differences(
            self, bench_gens, bench_net, bench_op, bench_plant):
        oracle = fd_plant(bench_gens, bench_net, bench_op)
        for got, want in zip((bench_plant.A, bench_plant.B_u,
                              bench_plant.B_w), oracle):
            assert np.array_equal(got, want)


class TestGeneratorParams:
    def test_invariants(self):
        with pytest.raises(ValueError):
            GeneratorParams(**{**BENCH_GEN, "L_f": -1.0})
        with pytest.raises(ValueError):
            GeneratorParams(**{**BENCH_GEN, "B_fric": -0.1})
        with pytest.raises(ValueError):
            GeneratorParams(**{**BENCH_GEN, "p_f": 0})
