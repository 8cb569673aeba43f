import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wadc.errors import IllPosedLyapunov, InvalidSampling, NonFiniteModel
from helpers import (
    discretize_per_row,
    quadrature_cost_oracle,
    random_psd_cost,
    random_stable_system,
    rk4_delayed_zoh,
    rk4_segment,
)

from test_dncs import bench_mode_system
from wadc import sampled
from wadc.sampled import (
    CtsCost,
    CtsModel,
    discretize,
    phi_gamma,
    psi_blocks,
    solve_pmu,
    MAX_IN_FLIGHT,
    split_delay,
)


def psi_of(pmu, sys, b):
    return psi_blocks(pmu, sys, b, *phi_gamma(sys.A1, b))


def small_system(**blocks):
    """A two-state, one-input CtsModel without a cost, with ``blocks``
    replacing its own."""
    kw = dict(A1=-np.eye(2), B1u=np.ones((2, 1)), B1w=np.zeros((2, 1)),
              C1=np.eye(2), D1u=np.zeros((2, 1)))
    return CtsModel(**{**kw, **blocks})


class TestModelChecks:
    @pytest.mark.parametrize("blocks, message", [
        ({"A1": np.ones((2, 3))}, "A1 must be square"),
        ({"B1u": np.ones((3, 1))}, "B1u: expected 2 rows, got 3"),
        ({"C1": np.ones((2, 3))}, "C1: expected 2 cols, got 3"),
    ], ids=["A1-not-square", "rows", "cols"])
    def test_system_shapes_refused(self, blocks, message):
        with pytest.raises(ValueError, match=message):
            small_system(**blocks)

    @pytest.mark.parametrize("which", ["Q1", "R1"])
    def test_asymmetric_cost_refused(self, which):
        weights = {"Q1": np.eye(2), "N1": np.zeros((2, 2)), "R1": np.eye(2)}
        weights[which] = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match=f"{which} must be symmetric"):
            CtsCost(**weights)

    @pytest.mark.parametrize("A1, alpha, message", [
        (np.ones((2, 3)), 0.1, "A1 must be square"),
        (-np.eye(2), math.inf, "alpha must be finite"),
        (-np.eye(2), math.nan, "alpha must be finite"),
    ], ids=["A1-not-square", "inf", "nan"])
    def test_phi_gamma_arguments_refused(self, A1, alpha, message):
        with pytest.raises(ValueError, match=message):
            phi_gamma(A1, alpha)

    def test_negative_interval_refused(self):
        sys = small_system()
        cost = CtsCost(Q1=np.eye(2), N1=np.zeros((2, 1)), R1=np.eye(1))
        with pytest.raises(ValueError, match="nonnegative"):
            psi_blocks(solve_pmu(sys, cost), sys, -0.1,
                       *phi_gamma(sys.A1, 0.1))


class TestPhiGamma:
    def test_zero_matrix(self):
        Phi, Gamma = phi_gamma(np.zeros((3, 3)), 0.7)
        np.testing.assert_allclose(Phi, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(Gamma, 0.7 * np.eye(3), atol=1e-15)

    def test_zero_interval(self):
        A = np.array([[0.0, 1.0], [-2.0, -3.0]])
        Phi, Gamma = phi_gamma(A, 0.0)
        np.testing.assert_array_equal(Phi, np.eye(2))
        np.testing.assert_array_equal(Gamma, np.zeros((2, 2)))

    def test_scalar_against_series(self):
        # truncated-series oracle for exp(-1) and 1 - exp(-1)
        a, alpha = -1.0, 1.0
        phi_series = sum((alpha * a) ** k / math.factorial(k)
                         for k in range(30))
        gamma_series = sum(alpha ** (k + 1) * a ** k / math.factorial(k + 1)
                           for k in range(30))
        Phi, Gamma = phi_gamma([[a]], alpha)
        assert abs(Phi[0, 0] - phi_series) < 1e-12
        assert abs(Gamma[0, 0] - gamma_series) < 1e-12
        assert abs(Phi[0, 0] - np.exp(-1)) < 1e-12
        assert abs(Gamma[0, 0] - (1 - np.exp(-1))) < 1e-12

    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_identity_phi_eq_i_plus_a_gamma(self, seed, alpha):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        A = rng.normal(size=(n, n))
        Phi, Gamma = phi_gamma(A, alpha)
        np.testing.assert_allclose(Phi, np.eye(n) + A @ Gamma,
                                   atol=1e-10 * max(1.0, np.abs(Phi).max()))


class TestSolvePmu:
    def test_zero_cost(self):
        rng = np.random.default_rng(1)
        sys = random_stable_system(rng, 3, 2)
        cost = CtsCost(Q1=np.zeros((3, 3)), N1=np.zeros((3, 2)), R1=np.eye(2))
        P, M, U = solve_pmu(sys, cost)
        np.testing.assert_allclose(P, 0, atol=1e-14)
        np.testing.assert_allclose(M, 0, atol=1e-14)
        np.testing.assert_allclose(U, np.eye(2), atol=1e-14)

    def test_scalar(self):
        sys = CtsModel(A1=[[-1.0]], B1u=[[1.0]], B1w=[[0.0]],
                       C1=[[1.0]], D1u=[[0.0]])
        cost = CtsCost(Q1=[[2.0]], N1=[[0.0]], R1=[[1.0]])
        P, _, _ = solve_pmu(sys, cost)
        assert abs(P[0, 0] - (-1.0)) < 1e-14

    def test_residuals_random(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            sys = random_stable_system(rng, 3, 2)
            cost = random_psd_cost(rng, 3, 2)
            P, M, U = solve_pmu(sys, cost)
            A1, B1u = sys.A1, sys.B1u
            nA, nB = np.abs(A1).max(), np.abs(B1u).max()
            nP, nM = np.abs(P).max(), np.abs(M).max()
            r1 = P @ A1 + A1.T @ P - cost.Q1
            r2 = A1.T @ M + P @ B1u - cost.N1
            r3 = B1u.T @ M + M.T @ B1u + U - cost.R1
            # relative against the magnitudes entering each equation
            s1 = 1 + np.abs(cost.Q1).max() + nA * nP
            s2 = 1 + np.abs(cost.N1).max() + nA * nM + nP * nB
            s3 = 1 + np.abs(cost.R1).max() + nB * nM
            for r, s in ((r1, s1), (r2, s2), (r3, s3)):
                assert np.abs(r).max() <= 1e-10 * s

    def test_failed_solve_refused(self):
        # P = -1e300 I solves this, but LAPACK's Sylvester solver scales its
        # solution down rather than overflow and returns P near -4e-303,
        # a Lyapunov residual of all of Q1
        A1 = np.array([[-0.5, 200.0], [-200.0, -0.5]])
        sys = CtsModel(A1=A1, B1u=np.ones((2, 1)), B1w=np.zeros((2, 1)),
                       C1=np.eye(2), D1u=np.zeros((2, 1)))
        cost = CtsCost(Q1=1e300 * np.eye(2), N1=np.zeros((2, 1)),
                       R1=np.eye(1))
        with pytest.raises(NonFiniteModel, match=r"\[cost\] input_weight"):
            solve_pmu(sys, cost)
        P, _, _ = solve_pmu(sys, CtsCost(Q1=1e250 * np.eye(2), N1=cost.N1,
                                         R1=cost.R1))
        assert abs(P[0, 0] + 1e250) <= 1e-14 * 1e250

    def test_singular_a1_rejected(self):
        # an eigenvalue of 0.7e-12 against a scale of 1: its pair sums are
        # at least 1.4e-12, so the singularity test is the one that refuses
        sys = small_system(A1=np.diag([-1.0, -0.7e-12]))
        cost = CtsCost(Q1=np.eye(2), N1=np.zeros((2, 1)), R1=np.eye(1))
        with pytest.raises(IllPosedLyapunov, match="singular"):
            solve_pmu(sys, cost)

    def test_mirrored_eigenvalues_rejected(self):
        sys = CtsModel(A1=np.diag([1.0, -1.0]), B1u=np.zeros((2, 1)),
                       B1w=np.zeros((2, 1)), C1=np.eye(2),
                       D1u=np.zeros((2, 1)))
        cost = CtsCost(Q1=np.eye(2), N1=np.zeros((2, 1)), R1=np.eye(1))
        with pytest.raises(IllPosedLyapunov):
            solve_pmu(sys, cost)


class TestPsiBlocks:
    def test_empty_interval(self):
        rng = np.random.default_rng(3)
        sys = random_stable_system(rng, 2, 1)
        cost = random_psd_cost(rng, 2, 1)
        psi = psi_of(solve_pmu(sys, cost), sys, 0.0)
        np.testing.assert_allclose(psi, 0, atol=1e-14)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(4)
        sys = random_stable_system(rng, 2, 1)
        cost = random_psd_cost(rng, 2, 1)
        b = 0.1
        psi = psi_of(solve_pmu(sys, cost), sys, b)
        x0 = rng.normal(size=2)
        u = rng.normal(size=1)
        v = np.concatenate([x0, u])
        form = v @ psi @ v
        # quadrature oracle: fine trajectory + Simpson on the integrand
        n_sub = 2000
        dt = b / n_sub
        stack = np.block([[cost.Q1, cost.N1], [cost.N1.T, cost.R1]])
        xs = np.empty((n_sub + 1, 2))
        xs[0] = x0
        x = x0.copy()
        for j in range(n_sub):
            x = rk4_segment(sys.A1, sys.B1u, u, x, dt, 1)
            xs[j + 1] = x
        zu = np.hstack([xs, np.tile(u, (n_sub + 1, 1))])
        vals = np.einsum("ij,jk,ik->i", zu, stack, zu)
        integral = dt / 3.0 * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum()
                               + 2 * vals[2:-1:2].sum())
        assert abs(form - integral) <= 1e-8 * max(1.0, abs(integral))

    def test_interval_additivity(self):
        rng = np.random.default_rng(5)
        sys = random_stable_system(rng, 3, 2)
        cost = random_psd_cost(rng, 3, 2)
        pmu = solve_pmu(sys, cost)
        b1, b2 = 0.13, 0.21
        x0 = rng.normal(size=3)
        u = rng.normal(size=2)
        v0 = np.concatenate([x0, u])
        Phi1, Gamma1 = phi_gamma(sys.A1, b1)
        x1 = Phi1 @ x0 + Gamma1 @ sys.B1u @ u
        v1 = np.concatenate([x1, u])
        whole = v0 @ psi_of(pmu, sys, b1 + b2) @ v0
        split = v0 @ psi_of(pmu, sys, b1) @ v0 + v1 @ psi_of(pmu, sys, b2) @ v1
        assert abs(whole - split) <= 1e-10 * max(1.0, abs(whole))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_psd_when_cost_psd(self, seed):
        rng = np.random.default_rng(seed)
        sys = random_stable_system(rng, 3, 1)
        cost = random_psd_cost(rng, 3, 1)
        psi = psi_of(solve_pmu(sys, cost), sys, float(rng.uniform(0.01, 0.5)))
        w = np.linalg.eigvalsh(psi)
        assert w.min() >= -1e-10 * max(1.0, np.abs(psi).max())


class TestSplitDelay:
    @pytest.mark.parametrize("d,h,expect", [
        (0.0, 0.1, (0, 0.0)),
        (0.05, 0.1, (0, 0.05)),
        (0.1, 0.1, (0, 0.1)),
        (0.25, 0.1, (2, 0.05)),
        (0.1, 0.02, (4, 0.02)),
        (0.5, 0.02, (24, 0.02)),
        (5 * 0.02, 0.02, (4, 0.02)),  # float product still exact multiple
    ])
    def test_cases(self, d, h, expect):
        q, r = split_delay(d, h)
        assert q == expect[0]
        assert abs(r - expect[1]) < 1e-12
        if d > 0:
            assert 0 < r <= h + 1e-15
            assert abs(q * h + r - d) < 1e-9

    def test_invalid(self):
        with pytest.raises(InvalidSampling):
            split_delay(0.1, 0.0)
        with pytest.raises(InvalidSampling):
            split_delay(-0.1, 0.1)

    def test_in_flight_cap(self):
        # 2.56 s at 20 ms holds 128 samples in flight, the most allowed;
        # one period more is refused, as is a delay whose lifted state
        # would not fit in memory
        assert split_delay(2.56, 0.02) == (MAX_IN_FLIGHT - 1, 0.02)
        for d in (2.58, 1e6):
            with pytest.raises(InvalidSampling, match="in flight"):
                split_delay(d, 0.02)


class TestDiscretize:
    def test_zero_delay_fields(self):
        rng = np.random.default_rng(6)
        sys = random_stable_system(rng, 3, 2)
        cost = random_psd_cost(rng, 3, 2)
        h = 0.1
        disc = discretize(replace(sys, cost=cost), h, 0.0)
        Phi, Gamma = phi_gamma(sys.A1, h)
        np.testing.assert_allclose(disc.A2, Phi)
        np.testing.assert_allclose(disc.B2u, Gamma @ sys.B1u)
        np.testing.assert_allclose(disc.B2w, Gamma @ sys.B1w)
        np.testing.assert_array_equal(disc.C2, sys.C1)
        np.testing.assert_array_equal(disc.D2u, sys.D1u)
        assert disc.n_z == 3

    def test_delay_equal_h_boundary(self):
        rng = np.random.default_rng(7)
        sys = random_stable_system(rng, 3, 1)
        cost = random_psd_cost(rng, 3, 1)
        h = 0.1
        disc = discretize(replace(sys, cost=cost), h, h)
        assert disc.q == 0 and abs(disc.r - h) < 1e-12
        # input acts with exactly one step of lag
        Phi, Gamma = phi_gamma(sys.A1, h)
        np.testing.assert_allclose(disc.A2[:3, 3:], Gamma @ sys.B1u, atol=1e-12)
        np.testing.assert_allclose(disc.B2u[:3], 0, atol=1e-14)

    def test_lifted_dimension(self):
        rng = np.random.default_rng(8)
        sys = random_stable_system(rng, 3, 1)
        cost = random_psd_cost(rng, 3, 1)
        disc = discretize(replace(sys, cost=cost), 0.02, 0.1)
        assert disc.q == 4
        assert disc.n_z == 3 + 5 * 1

    def test_memory_shift_one_hot(self):
        # multiplying z by A2 must move each stored input exactly one slot
        rng = np.random.default_rng(9)
        sys = random_stable_system(rng, 2, 1)
        cost = random_psd_cost(rng, 2, 1)
        # q = 3, slots u_{k-4..k-1}
        disc = discretize(replace(sys, cost=cost), 0.1, 0.35)
        n_x, n_u, q = disc.n_x, disc.n_u, disc.q
        for slot in range(1, q + 1):
            z = np.zeros(disc.n_z)
            z[n_x + slot * n_u] = 1.0
            z_next = disc.A2 @ z
            mem_next = z_next[n_x:]
            expected = np.zeros_like(mem_next)
            expected[(slot - 1) * n_u] = 1.0
            np.testing.assert_array_equal(mem_next, expected)

    def test_trajectory_and_cost_against_oracles(self):
        rng = np.random.default_rng(10)
        sys = random_stable_system(rng, 3, 1)
        cost = random_psd_cost(rng, 3, 1)
        h, d, n_steps = 0.1, 0.25, 50
        disc = discretize(replace(sys, cost=cost), h, d)
        assert (disc.q, round(disc.r, 12)) == (2, 0.05)
        x0 = rng.normal(size=3)
        u_seq = rng.normal(size=(n_steps, 1))
        z = disc.lift_state(x0)
        traj = [z[:3].copy()]
        total = 0.0
        for k in range(n_steps):
            u = u_seq[k]
            total += z @ disc.Q2 @ z + 2 * z @ disc.N2 @ u + u @ disc.R2 @ u
            z = disc.A2 @ z + disc.B2u @ u
            traj.append(z[:3].copy())
        traj = np.array(traj)
        oracle = rk4_delayed_zoh(sys, h, d, u_seq, x0, n_steps, subs=80)
        scale = np.abs(oracle).max()
        assert np.abs(traj - oracle).max() <= 1e-9 * scale
        quad = quadrature_cost_oracle(sys, cost, h, d, u_seq, x0, n_steps)
        assert abs(total - quad) <= 1e-8 * max(1.0, abs(quad))

    def test_cost_psd_when_inputs_psd(self):
        rng = np.random.default_rng(11)
        for d_over_h in (0.0, 0.4, 1.0, 2.3):
            sys = random_stable_system(rng, 3, 2)
            cost = random_psd_cost(rng, 3, 2, cross=False)
            h = 0.1
            disc = discretize(replace(sys, cost=cost), h, d_over_h * h)
            stack = np.block([[disc.Q2, disc.N2], [disc.N2.T, disc.R2]])
            w = np.linalg.eigvalsh(stack)
            assert w.min() >= -1e-10 * max(1.0, np.abs(stack).max())

    def test_small_delay_limit_matches_zero_delay(self):
        # d -> 0+ keeps q = 0; blocks approach the d = 0 system plus one
        # inert memory slot
        rng = np.random.default_rng(12)
        sys = random_stable_system(rng, 3, 1)
        cost = random_psd_cost(rng, 3, 1)
        h = 0.1
        d0 = discretize(replace(sys, cost=cost), h, 0.0)
        dd = discretize(replace(sys, cost=cost), h, 1e-9 * h)
        assert dd.q == 0
        np.testing.assert_allclose(dd.A2[:3, :3], d0.A2, rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(dd.A2[:3, 3:], 0, atol=1e-6)  # Gamma1 -> 0
        np.testing.assert_allclose(dd.B2u[:3], d0.B2u, rtol=1e-6, atol=1e-9)
        scale = max(1.0, np.abs(d0.Q2).max())
        np.testing.assert_allclose(dd.Q2[:3, :3], d0.Q2, atol=1e-6 * scale)
        np.testing.assert_allclose(dd.R2, d0.R2, atol=1e-6 * scale)
        # cross term now sits against the (inert) memory slot
        np.testing.assert_allclose(dd.Q2[:3, 3:], 0, atol=1e-6 * scale)
        np.testing.assert_allclose(dd.N2[:3], d0.N2, atol=1e-6 * scale)

    def test_invalid_h(self):
        rng = np.random.default_rng(13)
        sys = random_stable_system(rng, 2, 1)
        cost = random_psd_cost(rng, 2, 1)
        with pytest.raises(InvalidSampling):
            discretize(replace(sys, cost=cost), 0.0, 0.0)


class TestCtsModel:
    def test_cached_blocks_match_fresh(self):
        # one model discretized at delays sharing the remainder 0.002 s, at
        # r = h and at d = 0 gives the bits of a fresh model per delay
        rng = np.random.default_rng(18)
        sys = random_stable_system(rng, 3, 1, n_w=2)
        cost = random_psd_cost(rng, 3, 1)
        model, h = replace(sys, cost=cost), 0.02
        for d in (0.002, 0.022, 0.042, 0.0, 0.02, 0.04, 0.022):
            cached = discretize(model, h, d)
            fresh = discretize(replace(sys, cost=cost), h, d)
            for f in dataclasses.fields(cached):
                a, b = getattr(cached, f.name), getattr(fresh, f.name)
                if isinstance(a, np.ndarray):
                    assert np.array_equal(a, b), (d, f.name)
                else:
                    assert a == b, (d, f.name)

    def test_interval_computed_once_and_frozen(self):
        rng = np.random.default_rng(19)
        model = replace(random_stable_system(rng, 2, 1),
                        cost=random_psd_cost(rng, 2, 1))
        blocks = model.interval(0.002)
        assert model.interval(0.002) is blocks
        for a in (*blocks, *model.pmu):
            assert not a.flags.writeable
        assert discretize(model, 0.02).A2 is discretize(model, 0.02).A2


    def test_model_without_cost(self, monkeypatch):
        # no factorization, Psi or W: the lifted systems carry no cost and
        # every other block is the costed model's, bit for bit
        rng = np.random.default_rng(25)
        bare = random_stable_system(rng, 3, 2, n_w=2)
        costed = replace(bare, cost=random_psd_cost(rng, 3, 2))
        monkeypatch.setattr(sampled, "solve_pmu",
                            lambda *a: pytest.fail("factored a cost"))
        bare, h = replace(bare), 0.02
        assert bare.pmu is None
        assert bare.interval(h)[2] is None
        assert bare.remainder(h, 0.002)[2] is None
        for d in (0.0, 0.002, 0.02, 0.042):
            disc, ref = discretize(bare, h, d), discretize(costed, h, d)
            for f in dataclasses.fields(disc):
                a, b = getattr(disc, f.name), getattr(ref, f.name)
                if f.name in ("Q2", "N2", "R2"):
                    assert a is None and b is not None
                elif isinstance(a, np.ndarray):
                    assert np.array_equal(a, b) and not a.flags.writeable
                else:
                    assert a == b


class TestRemainderBlocks:
    def assert_bitwise(self, disc, ref):
        for f in dataclasses.fields(disc):
            a, b = getattr(disc, f.name), getattr(ref, f.name)
            if isinstance(a, np.ndarray):
                assert a.shape == b.shape and np.array_equal(a, b), f.name
            else:
                assert a == b, f.name

    def test_rows_share_one_remainder(self, monkeypatch):
        # 0.002, 0.022 and 0.042 s split into q = 0, 1, 2 and one r, so
        # their rows place the same frozen blocks, built once
        rng = np.random.default_rng(23)
        model = replace(random_stable_system(rng, 3, 2, n_w=2),
                        cost=random_psd_cost(rng, 3, 2))
        h, n_x, n_u = 0.02, 3, 2
        handed = []
        real = CtsModel.remainder

        def recorded(self, *args):
            handed.append(real(self, *args))
            return handed[-1]

        monkeypatch.setattr(CtsModel, "remainder", recorded)
        discs = [discretize(model, h, d) for d in (0.002, 0.022, 0.042)]
        assert [disc.q for disc in discs] == [0, 1, 2]
        assert len({id(b) for b in handed}) == 1
        Gamma1, Gamma0, W = handed[0]
        assert all(not a.flags.writeable for a in handed[0])
        for disc in discs:
            assert np.array_equal(disc.A2[:n_x, n_x:n_x + n_u], Gamma1)
            assert np.array_equal(disc.Q2[:n_x + n_u, :n_x + n_u],
                                  W[:n_x + n_u, :n_x + n_u])
        assert np.array_equal(discs[0].B2u[:n_x], Gamma0)
        assert np.array_equal(discs[1].A2[:n_x, n_x + n_u:n_x + 2 * n_u],
                              Gamma0)

    def test_random_models_match_per_row_assembly(self):
        rng = np.random.default_rng(24)
        delays = (0.0, 0.001, 0.02, 0.0206, 0.04, 0.05, 0.1, 0.133, 0.5)
        for n_x, n_u in ((2, 1), (3, 2), (4, 1)):
            model = replace(random_stable_system(rng, n_x, n_u, n_w=2),
                            cost=random_psd_cost(rng, n_x, n_u))
            # one model at two sampling periods, delays up and down
            for h in (0.02, 0.05):
                for d in delays + delays[::-1]:
                    self.assert_bitwise(discretize(model, h, d),
                                        discretize_per_row(model, h, d))

    def test_benchmark_fine_grid_matches_per_row_assembly(self, gains_k1,
                                                           dec_k1):
        # every row of the benchmark's fine LQR grids, both modes
        for i in range(dec_k1.n_modes):
            model = bench_mode_system(gains_k1, dec_k1, i)
            for off in (0.0, 0.0006):
                for j in range(251):
                    d = off + 0.002 * j
                    self.assert_bitwise(discretize(model, 0.02, d),
                                        discretize_per_row(model, 0.02, d))


class TestQuadratureOracle:
    def test_zero_everything(self):
        rng = np.random.default_rng(14)
        sys = random_stable_system(rng, 2, 1)
        cost = random_psd_cost(rng, 2, 1)
        val = quadrature_cost_oracle(sys, cost, 0.1, 0.0,
                                     np.zeros((5, 1)), np.zeros(2), 5)
        assert val == 0.0

    def test_single_step_matches_psi(self):
        sys = CtsModel(A1=[[-0.7]], B1u=[[1.3]], B1w=[[0.0]],
                       C1=[[1.0]], D1u=[[0.0]])
        cost = CtsCost(Q1=[[1.0]], N1=[[0.2]], R1=[[0.5]])
        h = 0.2
        psi = psi_of(solve_pmu(sys, cost), sys, h)
        x0, u0 = np.array([0.8]), np.array([-0.3])
        v = np.concatenate([x0, u0])
        val = quadrature_cost_oracle(sys, cost, h, 0.0, [u0], x0, 1)
        assert abs(val - v @ psi @ v) <= 1e-8 * max(1.0, abs(val))

    def test_self_convergence(self):
        rng = np.random.default_rng(15)
        sys = random_stable_system(rng, 2, 1)
        cost = random_psd_cost(rng, 2, 1)
        u_seq = rng.normal(size=(10, 1))
        x0 = rng.normal(size=2)
        v1 = quadrature_cost_oracle(sys, cost, 0.1, 0.13, u_seq, x0, 10,
                                    substeps_per_h=1000)
        v2 = quadrature_cost_oracle(sys, cost, 0.1, 0.13, u_seq, x0, 10,
                                    substeps_per_h=2000)
        assert abs(v1 - v2) <= 1e-10 * max(1.0, abs(v1))


class TestExactnessSweep:
    """Random systems across delay ratios: trajectory and cost exactness."""

    def test_random_systems(self):
        rng = np.random.default_rng(16)
        ratios = [0.0, 0.3, 1.0, 1.7, 3.2]
        for i in range(10):
            n_x = int(rng.integers(2, 5))
            n_u = int(rng.integers(1, 3))
            sys = random_stable_system(rng, n_x, n_u)
            cost = random_psd_cost(rng, n_x, n_u)
            h = 0.1
            x0 = rng.normal(size=n_x)
            u_seq = rng.normal(size=(15, n_u))
            for ratio in ratios:
                d = ratio * h
                disc = discretize(replace(sys, cost=cost), h, d)
                z = disc.lift_state(x0)
                total, traj = 0.0, [x0.copy()]
                for k in range(15):
                    u = u_seq[k]
                    total += (z @ disc.Q2 @ z + 2 * z @ disc.N2 @ u
                              + u @ disc.R2 @ u)
                    z = disc.A2 @ z + disc.B2u @ u
                    traj.append(z[:n_x].copy())
                oracle = rk4_delayed_zoh(sys, h, d, u_seq, x0, 15, subs=50)
                scale = max(np.abs(oracle).max(), 1e-12)
                assert np.abs(np.array(traj) - oracle).max() <= 1e-8 * scale
                quad = quadrature_cost_oracle(sys, cost, h, d, u_seq, x0, 15,
                                              substeps_per_h=600)
                assert abs(total - quad) <= 1e-8 * max(1.0, abs(quad))

    def test_disturbance_channel(self):
        # held undelayed disturbance enters through Gamma(h) B1w
        rng = np.random.default_rng(17)
        sys = random_stable_system(rng, 3, 1, n_w=2)
        cost = random_psd_cost(rng, 3, 1)
        h, d = 0.1, 0.17
        disc = discretize(replace(sys, cost=cost), h, d)
        w_seq = rng.normal(size=(12, 2))
        x0 = rng.normal(size=3)
        z = disc.lift_state(x0)
        traj = [x0.copy()]
        for k in range(12):
            z = disc.A2 @ z + disc.B2w @ w_seq[k]
            traj.append(z[:3].copy())
        oracle = rk4_delayed_zoh(sys, h, d, np.zeros((12, 1)), x0, 12,
                                 subs=60, w_seq=w_seq)
        scale = max(np.abs(oracle).max(), 1e-12)
        assert np.abs(np.array(traj) - oracle).max() <= 1e-8 * scale
