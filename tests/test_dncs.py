import copy

import numpy as np
import pytest

from conftest import C_OUT, DU_OUT, K1, Q_COST, R_COST
from helpers import closed_loop_cost
from wadc.config import BenchmarkConfig
from wadc.dncs import (
    DistributedController,
    LocalGains,
    delay_map,
    design_mode,
    mode_system,
    symmetric_modes,
)
from wadc.errors import (
    AsymmetricDelays,
    NotBlockDiagonalizable,
    NotSymmetric,
    ScheduleMismatch,
    UnstableLocalLoop,
)
from wadc.grid_model import LinearPlant
from wadc.sim_eval import Scenario, SweepResult
from wadc.synthesis import HinfResult


def synthetic_symmetric_plant(rng, stable=True):
    """Random machine-swap-symmetric two-machine plant with 3 states,
    1 input, 2 disturbances per machine."""
    X = rng.normal(size=(3, 3))
    Y = 0.3 * rng.normal(size=(3, 3))
    if stable:
        shift = max(np.linalg.eigvals(X + Y).real.max(),
                    np.linalg.eigvals(X - Y).real.max())
        X -= (shift + 0.5) * np.eye(3)
    A = np.block([[X, Y], [Y, X]])
    b = rng.normal(size=(3, 1))
    bw = rng.normal(size=(3, 2))
    B_u = np.block([[b, np.zeros((3, 1))], [np.zeros((3, 1)), b]])
    B_w = np.block([[bw, np.zeros((3, 2))], [np.zeros((3, 2)), bw]])
    return LinearPlant(A=A, B_u=B_u, B_w=B_w, m=2), X, Y


def bench_mode_system(gains, dec, i):
    """Continuous model of mode i under the benchmark cost and output."""
    return mode_system(gains, dec, i, Q_COST, R_COST, C_OUT, DU_OUT)


class TestLocalGains:
    def test_benchmark_gains_hurwitz(self, bench_plant):
        for Kvec in (K1, [[544750.0, 700010.0, -9890.0]]):
            gains = LocalGains.from_blocks(bench_plant, [Kvec, Kvec])
            eigs = np.linalg.eigvals(gains.A_bar)
            assert eigs.real.max() < 0

    def test_destabilizing_gains_rejected(self, bench_plant):
        bad = [[-169.6, -201.0, 3.04]]
        with pytest.raises(UnstableLocalLoop):
            LocalGains.from_blocks(bench_plant, [bad, bad])

    def test_dimension_check(self, bench_plant):
        with pytest.raises(ValueError):
            LocalGains.from_blocks(bench_plant, [K1])


class TestSymmetricModes:
    def test_benchmark_residuals(self, bench_plant, gains_k1, dec_k1):
        T = dec_k1.M_x_inv @ gains_k1.A_bar @ dec_k1.M_x
        tol = 1e-8 * np.abs(gains_k1.A_bar).max()
        assert np.abs(T[:3, 3:]).max() <= tol
        assert np.abs(T[3:, :3]).max() <= tol
        assert dec_k1.labels == ("oscillation", "common")

    def test_transform_inverse_exact(self, dec_k1):
        np.testing.assert_array_equal(dec_k1.M_x @ dec_k1.M_x_inv, np.eye(6))

    def test_subspace_projection_oracle(self):
        # the transform splits a swap-symmetric matrix into difference and
        # sum blocks
        rng = np.random.default_rng(3)
        plant, X, Y = synthetic_symmetric_plant(rng)
        gains = LocalGains.from_blocks(plant, [np.zeros((1, 3))] * 2)
        dec = symmetric_modes(plant, gains)
        T = dec.M_x_inv @ plant.A @ dec.M_x
        np.testing.assert_allclose(T[:3, :3], X - Y, atol=1e-12)
        np.testing.assert_allclose(T[3:, 3:], X + Y, atol=1e-12)
        np.testing.assert_allclose(T[:3, 3:], 0, atol=1e-12)

    def test_patterns_dense(self, dec_k1):
        assert dec_k1.pattern_Mu.all()
        assert dec_k1.pattern_Mx_inv.all()

    def test_asymmetric_plant_rejected(self):
        rng = np.random.default_rng(4)
        plant, X, Y = synthetic_symmetric_plant(rng)
        A = np.asarray(plant.A).copy()
        A[0, 3] += 0.5  # break the swap symmetry
        broken = LinearPlant(A=A, B_u=plant.B_u.copy(), B_w=plant.B_w.copy(),
                             m=2)
        gains = LocalGains.from_blocks(broken, [np.zeros((1, 3))] * 2)
        with pytest.raises(NotSymmetric, match="A residual"):
            symmetric_modes(broken, gains)

    def test_asymmetry_message_names_the_matrix(self):
        # the message names the least symmetric of A, B_u and B_w and says
        # what must match
        rng = np.random.default_rng(4)
        plant, _, _ = synthetic_symmetric_plant(rng)
        B_w = np.asarray(plant.B_w).copy()
        B_w[0, 2] += 0.5
        broken = LinearPlant(A=plant.A.copy(), B_u=plant.B_u.copy(),
                             B_w=B_w, m=2)
        gains = LocalGains.from_blocks(broken, [np.zeros((1, 3))] * 2)
        with pytest.raises(NotSymmetric) as exc:
            symmetric_modes(broken, gains)
        msg = str(exc.value)
        assert "B_w residual" in msg
        assert "parameters and local gains must match" in msg

    def test_unequal_local_gains_rejected(self, bench_plant):
        gains = LocalGains.from_blocks(
            bench_plant, [K1, [[170.0, 201.0, -3.04]]])
        with pytest.raises(NotSymmetric, match="local gain rows differ"):
            symmetric_modes(bench_plant, gains)

    @pytest.mark.parametrize("rel, coupled", [(5e-9, False), (2e-8, True),
                                              (5e-8, True)])
    def test_off_block_tolerance(self, rel, coupled):
        # a cross term within the 1e-7 swap tolerance passes the symmetry
        # check; half of it lands in each off-diagonal block of A_hat,
        # which must stay within 1e-8 of max|A| (at least 1).  At 2e-8 the
        # residual sits on the tolerance and exceeds it by the rounding of
        # the nudged entry (1.6637239919e-8 against 1.6637239914e-8).
        rng = np.random.default_rng(4)
        plant, _, _ = synthetic_symmetric_plant(rng)
        A = np.asarray(plant.A).copy()
        A[0, 3] += rel * np.abs(A).max()
        nudged = LinearPlant(A=A, B_u=plant.B_u.copy(), B_w=plant.B_w.copy(),
                             m=2)
        gains = LocalGains.from_blocks(nudged, [np.zeros((1, 3))] * 2)
        if not coupled:
            assert symmetric_modes(nudged, gains).mode_x_dims == (3, 3)
            return
        with pytest.raises(NotBlockDiagonalizable) as exc:
            symmetric_modes(nudged, gains)
        assert exc.value.residual == pytest.approx(
            0.5 * rel * np.abs(plant.A).max(), rel=1e-6)

    def test_input_cross_coupling_rejected(self):
        # machine 2's input driving machine 1's state couples B_u_hat
        rng = np.random.default_rng(4)
        plant, _, _ = synthetic_symmetric_plant(rng)
        B_u = np.asarray(plant.B_u).copy()
        scale = max(1.0, np.abs(B_u).max())
        B_u[0, 1] += 5e-8 * scale
        nudged = LinearPlant(A=plant.A.copy(), B_u=B_u, B_w=plant.B_w.copy(),
                             m=2)
        gains = LocalGains.from_blocks(nudged, [np.zeros((1, 3))] * 2)
        with pytest.raises(NotBlockDiagonalizable) as exc:
            symmetric_modes(nudged, gains)
        assert exc.value.residual > 1e-8 * scale


class TestModalSubsystem:
    def test_spectrum_partition(self, bench_plant, gains_k1, dec_k1):
        eig_all = np.sort_complex(np.linalg.eigvals(gains_k1.A_bar))
        eig_modes = np.concatenate([
            np.linalg.eigvals(bench_mode_system(gains_k1, dec_k1, i).sys.A1)
            for i in range(2)])
        eig_modes = np.sort_complex(eig_modes)
        scale = np.abs(eig_all).max()
        assert np.abs(eig_all - eig_modes).max() <= 1e-7 * scale

    def test_oscillation_mode_shape(self, bench_plant, gains_k1, dec_k1):
        sys = bench_mode_system(gains_k1, dec_k1, "oscillation").sys
        assert sys.A1.shape == (3, 3)
        assert sys.B1u.shape == (3, 1)
        assert sys.B1w.shape == (3, 2)
        eigs = np.linalg.eigvals(sys.A1)
        # lightly damped inter-area pair survives the local loop
        pair = eigs[np.abs(eigs.imag) > 1.0]
        assert len(pair) == 2 and abs(pair[0].imag) > 3.0

class TestModalObjectives:
    def test_zero_gain_identity_transform(self):
        rng = np.random.default_rng(8)
        plant, _, _ = synthetic_symmetric_plant(rng)
        gains = LocalGains.from_blocks(plant, [np.zeros((1, 3))] * 2)
        dec = symmetric_modes(plant, gains)
        Q = np.diag(rng.uniform(0.5, 2.0, 6))
        R = np.diag(rng.uniform(0.5, 2.0, 2))
        cost = mode_system(gains, dec, 0, Q, R, C_OUT, DU_OUT).cost
        # with K = 0 the folded cost has no cross term
        np.testing.assert_allclose(cost.N1, 0, atol=1e-14)

    def test_benchmark_cross_blocks_vanish(self, bench_plant, gains_k1,
                                           dec_k1):
        K = gains_k1.K
        big = np.block([[Q_COST + K.T @ R_COST @ K, K.T @ R_COST],
                        [R_COST @ K, R_COST]])
        Mblk = np.zeros((8, 8))
        Mblk[:6, :6] = dec_k1.M_x
        Mblk[6:, 6:] = dec_k1.M_u
        U = Mblk.T @ big @ Mblk
        # oscillation/common cross blocks in both state and input parts
        assert np.abs(U[:3, 3:6]).max() <= 1e-12 * np.abs(U).max()
        assert np.abs(U[:3, 7:]).max() <= 1e-12 * np.abs(U).max()
        assert np.abs(U[6, 3:6]).max() <= 1e-12 * np.abs(U).max()

    def test_selector_embedding(self, bench_plant, gains_k1, dec_k1):
        # embedding each mode's cost back recovers the block diagonal of
        # the full folded cost
        K = gains_k1.K
        big = np.block([[Q_COST + K.T @ R_COST @ K, K.T @ R_COST],
                        [R_COST @ K, R_COST]])
        Mblk = np.zeros((8, 8))
        Mblk[:6, :6] = dec_k1.M_x
        Mblk[6:, 6:] = dec_k1.M_u
        U = Mblk.T @ big @ Mblk
        for i in range(2):
            cost = bench_mode_system(gains_k1, dec_k1, i).cost
            xs = dec_k1.x_slice(i)
            us = dec_k1.u_slice(i)
            np.testing.assert_allclose(cost.Q1, U[xs, xs], atol=1e-12)
            np.testing.assert_allclose(
                cost.R1, U[6 + us.start:6 + us.stop, 6 + us.start:6 + us.stop],
                atol=1e-12)


class _PatternStub:
    """Minimal decomposition stand-in for the delay-map brute force."""

    def __init__(self, pattern_Mu, pattern_Mx_inv):
        self.pattern_Mu = pattern_Mu
        self.pattern_Mx_inv = pattern_Mx_inv
        self.n_modes = pattern_Mu.shape[1]


def brute_force_delay_map(pattern_Mu, pattern_Mx_inv, d):
    m, n_modes = pattern_Mu.shape
    d_hat = np.zeros(n_modes)
    for i in range(n_modes):
        best = 0.0
        for a in range(m):
            for b in range(m):
                if pattern_Mu[a, i] and pattern_Mx_inv[i, b]:
                    best = max(best, d[a, b])
        d_hat[i] = best
    d_rho = np.zeros(m)
    for rho in range(m):
        best = 0.0
        for i in range(n_modes):
            if pattern_Mu[rho, i]:
                best = max(best, d_hat[i])
        d_rho[rho] = best
    return d_hat, d_rho


class TestDelayMap:
    def test_uniform_delays(self, dec_k1):
        tau = 0.07
        d = tau * (np.ones((2, 2)) - np.eye(2))
        d_hat, d_rho = delay_map(dec_k1, d)
        np.testing.assert_allclose(d_hat, [tau, tau])
        np.testing.assert_allclose(d_rho, [tau, tau])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            m = int(rng.integers(1, 5))
            n_modes = int(rng.integers(1, 5))
            pu = rng.random((m, n_modes)) < 0.6
            px = rng.random((n_modes, m)) < 0.6
            d = rng.uniform(0, 1, (m, m))
            d = 0.5 * (d + d.T)
            np.fill_diagonal(d, 0.0)
            stub = _PatternStub(pu, px)
            d_hat, d_rho = delay_map(stub, d)
            ref_hat, ref_rho = brute_force_delay_map(pu, px, d)
            np.testing.assert_array_equal(d_hat, ref_hat)
            np.testing.assert_array_equal(d_rho, ref_rho)

    def test_asymmetric_rejected(self, dec_k1):
        d = np.array([[0.0, 0.1], [0.2, 0.0]])
        with pytest.raises(AsymmetricDelays):
            delay_map(dec_k1, d)
        with pytest.raises(AsymmetricDelays):
            delay_map(dec_k1, np.array([[0.1, 0.0], [0.0, 0.0]]))


class TestDesignMode:
    def test_zero_delay_gain_shape(self, bench_plant, gains_k1, dec_k1):
        md = design_mode(bench_mode_system(gains_k1, dec_k1, 0), 0.02, 0.0,
                         method="lqr")
        assert md.F.shape == (1, 3)
        assert md.disc.n_z == 3

    def test_lifted_dimension(self, bench_plant, gains_k1, dec_k1):
        md = design_mode(bench_mode_system(gains_k1, dec_k1, 0), 0.02, 0.1,
                         method="lqr")
        assert md.disc.q == 4
        assert md.disc.n_z == 3 + 5 * 1

    def test_certificate_against_simulation(self, bench_plant, gains_k1,
                                            dec_k1):
        md = design_mode(bench_mode_system(gains_k1, dec_k1, 0), 0.02, 0.06,
                         method="lqr")
        z0 = md.disc.lift_state([1.0, 0.0, 0.0])
        J_sim = closed_loop_cost(md.disc, md.F, z0)
        assert abs(J_sim - md.J_star(z0)) <= 1e-5 * md.J_star(z0)

    def test_lqr_stack_solves_no_eigenvalues(self, monkeypatch, gains_k1,
                                             dec_k1):
        # one interval stack of the benchmark's 2 ms grid, the ten waits in
        # (0.1, 0.12]: every closed loop, policy iteration's and the
        # returned gain's, is certified by its own powers
        models = [bench_mode_system(gains_k1, dec_k1, i) for i in range(2)]
        waits = np.round(0.1 + 0.002 * np.arange(1, 11), 3)
        calls = [0]
        eigvals = np.linalg.eigvals

        def counted(*args, **kwargs):
            calls[0] += 1
            return eigvals(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        for model in models:
            results = design_mode(model, 0.02, waits, method="lqr")
            assert [md.disc.q for md in results] == [5] * 10
        assert calls[0] == 0


class TestAssembleController:
    def _designs(self, plant, gains, dec, tau, method="lqr"):
        d = tau * (np.ones((2, 2)) - np.eye(2))
        d_hat, _ = delay_map(dec, d)
        designs = []
        for i in range(2):
            designs.append(design_mode(bench_mode_system(gains, dec, i),
                                       0.02, float(d_hat[i]),
                                       method=method))
        return d, designs

    def test_zero_gain_controller_emits_zero(self, bench_plant, gains_k1,
                                             dec_k1):
        from dataclasses import replace
        d, designs = self._designs(bench_plant, gains_k1, dec_k1, 0.04)
        designs = [replace(md, F=np.zeros_like(md.F)) for md in designs]
        ctrl = DistributedController(gains_k1, dec_k1, d, 0.02, designs)
        rng = np.random.default_rng(11)
        memory = np.zeros(2 * ctrl.n_memory)
        for _ in range(5):
            v, v_hat = ctrl.sample(rng.normal(size=6), memory)
            np.testing.assert_array_equal(v, 0.0)
            np.testing.assert_array_equal(v_hat, 0.0)
            memory = np.concatenate([v_hat, memory[:-2]])

    def test_reconstruction_round_trip(self, bench_plant, gains_k1, dec_k1):
        d, designs = self._designs(bench_plant, gains_k1, dec_k1, 0.04)
        ctrl = DistributedController(gains_k1, dec_k1, d, 0.02, designs)
        rng = np.random.default_rng(12)
        memory = np.zeros(2 * ctrl.n_memory)
        for _ in range(10):
            v, v_hat = ctrl.sample(rng.normal(size=6), memory)
            np.testing.assert_allclose(np.linalg.inv(dec_k1.M_u) @ v, v_hat,
                                       rtol=1e-13, atol=1e-16)
            memory = np.concatenate([v_hat, memory[:-2]])

    def test_columns_are_independent_instants(self, bench_plant, gains_k1,
                                              dec_k1):
        d, designs = self._designs(bench_plant, gains_k1, dec_k1, 0.04)
        ctrl = DistributedController(gains_k1, dec_k1, d, 0.02, designs)
        rng = np.random.default_rng(15)
        X = rng.normal(size=(6, 4))
        memory = rng.normal(size=(2 * ctrl.n_memory, 4))
        v, v_hat = ctrl.sample(X, memory)
        for j in range(4):
            v_j, v_hat_j = ctrl.sample(X[:, j], memory[:, j])
            np.testing.assert_allclose(v[:, j], v_j, rtol=1e-14, atol=1e-14)
            np.testing.assert_allclose(v_hat[:, j], v_hat_j, rtol=1e-14,
                                       atol=1e-14)
        with pytest.raises(ValueError):
            ctrl.sample(X, memory[:-2])

    def test_round_trip_exact_on_dyadic_states(self, bench_plant, gains_k1,
                                               dec_k1):
        # dyadic-scaled states keep every transform product exact in
        # binary floating point
        d, designs = self._designs(bench_plant, gains_k1, dec_k1, 0.0)
        from dataclasses import replace
        F0 = np.array([[0.25, -0.5, 1.0]])
        designs = [replace(md, F=F0) for md in designs]
        ctrl = DistributedController(gains_k1, dec_k1, d, 0.02, designs)
        x = np.array([0.5, 0.25, -0.125, 1.0, -0.5, 0.75])
        v, v_hat = ctrl.sample(x, np.zeros(0))
        np.testing.assert_array_equal(np.linalg.inv(dec_k1.M_u) @ v, v_hat)

    def test_schedule_mismatch(self, bench_plant, gains_k1, dec_k1):
        d, designs = self._designs(bench_plant, gains_k1, dec_k1, 0.04)
        wrong = 0.06 * (np.ones((2, 2)) - np.eye(2))
        with pytest.raises(ScheduleMismatch, match="the link delays require"):
            DistributedController(gains_k1, dec_k1, wrong, 0.02, designs)
        with pytest.raises(ScheduleMismatch, match="h=0.04"):
            DistributedController(gains_k1, dec_k1, d, 0.04, designs)
        with pytest.raises(ScheduleMismatch):
            DistributedController(gains_k1, dec_k1, d, 0.02, designs[:1])

    def test_memory_evolution_matches_lifted_model(self, bench_plant,
                                                   gains_k1, dec_k1):
        # stepping the controller on a frozen state sequence reproduces the
        # lifted-state recursion of the designed mode
        d, designs = self._designs(bench_plant, gains_k1, dec_k1, 0.04)
        ctrl = DistributedController(gains_k1, dec_k1, d, 0.02, designs)
        rng = np.random.default_rng(14)
        xs = rng.normal(size=(6, 6))
        md = designs[0]
        z = np.zeros(md.disc.n_z)
        memory = np.zeros(2 * ctrl.n_memory)
        for x in xs:
            x_hat = dec_k1.M_x_inv @ x
            z[:3] = x_hat[:3]
            v_hat_expected = md.F @ z
            v, v_hat = ctrl.sample(x, memory)
            memory = np.concatenate([v_hat, memory[:-2]])
            assert abs(v_hat[0] - v_hat_expected[0]) <= 1e-12 * (
                1 + abs(v_hat_expected[0]))
            # shift the memory the way the lifted model does
            mem = z[3:].copy()
            z[3:-1] = mem[1:]
            z[-1] = v_hat_expected[0]


def test_array_dataclasses_compare_by_identity(bench_net, bench_op,
                                               bench_plant, gains_k1,
                                               dec_k1):
    # a generated __eq__ would compare ndarray fields, whose truth value is
    # ambiguous, and a generated __hash__ would hash them; every dataclass
    # holding an array compares and hashes as the object it is; so do the
    # frozen ones holding a dict, whose generated __hash__ would raise
    model = bench_mode_system(gains_k1, dec_k1, 0)
    md = design_mode(model, 0.02, 0.0)
    objects = [
        bench_net, bench_op.sol, bench_op, bench_plant, gains_k1, dec_k1,
        md, model.sys, model.cost, md.disc,
        HinfResult(F=np.zeros((1, 3)), gamma=1.0, norm=0.5, disc=md.disc),
        Scenario(initial_state=np.ones(3)),
        SweepResult(rows=(), warnings=(), diagnostics={}),
        BenchmarkConfig(values={}),
    ]
    assert len({type(x) for x in objects}) == 14
    for x in objects:
        twin = copy.copy(x)
        assert x == x and not x != x
        assert x != twin and twin not in [x]
        assert hash(x) == hash(x) and len({x, twin}) == 2
