import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from wadc.errors import (
    GammaInfeasible,
    IndefiniteCost,
    NonFiniteModel,
    NotStabilizable,
    UnstableSystem,
)
from wadc.sampled import (
    CtsCost,
    DiscretizedSystem,
    discretize,
)
from wadc.synthesis import (
    HinfResult,
    _window_bound,
    dare_solve,
    gamma_min,
    hinf_design,
    hinf_norm,
    lqr_design,
    schur_stable,
    stein_solve,
)

from helpers import (
    bisection_gamma,
    block_elimination_gain,
    closed_loop_cost,
    grid_hinf_norm,
    numeric_window,
    random_psd_cost,
    random_stable_system,
    stein_every_doubling,
    window_gain,
)
from test_dncs import bench_mode_system


def make_disc(A2, B2u, B2w, C2, D2u, Q2, N2, R2, h=0.1, d=0.0, q=0, r=0.0):
    A2 = np.atleast_2d(np.asarray(A2, dtype=float))
    B2u = np.atleast_2d(np.asarray(B2u, dtype=float))
    B2w = np.atleast_2d(np.asarray(B2w, dtype=float))
    return DiscretizedSystem(
        A2=A2, B2u=B2u, B2w=B2w,
        C2=np.atleast_2d(np.asarray(C2, dtype=float)),
        D2u=np.atleast_2d(np.asarray(D2u, dtype=float)),
        Q2=np.atleast_2d(np.asarray(Q2, dtype=float)),
        N2=np.atleast_2d(np.asarray(N2, dtype=float)),
        R2=np.atleast_2d(np.asarray(R2, dtype=float)),
        h=h, d=d, q=q, r=r,
        n_x=A2.shape[0], n_u=B2u.shape[1], n_w=B2w.shape[1])


def random_disc(rng, n_x=3, n_u=1, n_w=1, d_over_h=0.0):
    sys = random_stable_system(rng, n_x, n_u, n_w=n_w, n_y=2)
    cost = random_psd_cost(rng, n_x, n_u)
    h = 0.1
    return discretize(replace(sys, cost=cost), h, d_over_h * h)


class TestDare:
    def test_scalar_quadratic_root(self):
        P, _ = dare_solve([[[0.5]]], [[[1.0]]], [[[1.0]]], [[[0.0]]],
                          [[[1.0]]])
        expected = (0.25 + np.sqrt(4.0625)) / 2.0
        assert abs(P[0, 0, 0] - expected) < 1e-9

    def test_no_control_stein(self):
        P, _ = dare_solve([[[0.5]]], [[[0.0]]], [[[1.0]]], [[[0.0]]],
                          [[[0.0]]])
        assert abs(P[0, 0, 0] - 4.0 / 3.0) < 1e-10

    def test_zero_cost(self):
        rng = np.random.default_rng(0)
        A = 0.5 * rng.normal(size=(3, 3))
        A *= 0.9 / max(1.0, np.abs(np.linalg.eigvals(A)).max())
        B = rng.normal(size=(3, 1))
        P, _ = dare_solve(A[None], B[None], np.zeros((1, 3, 3)),
                          np.zeros((1, 3, 1)), np.eye(1)[None])
        np.testing.assert_allclose(P, 0, atol=1e-12)

    def test_residual_and_stability_random(self):
        # the relative residual is formed here, apart from the library's
        rng = np.random.default_rng(1)
        for _ in range(15):
            disc = random_disc(rng, d_over_h=float(rng.choice([0.0, 0.4, 1.0, 2.3])))
            A, B, Q, N, R = disc.A2, disc.B2u, disc.Q2, disc.N2, disc.R2
            P = dare_solve(A[None], B[None], Q[None], N[None], R[None])[0][0]
            G = A.T @ P @ B + N
            res = (A.T @ P @ A - P + Q
                   - G @ np.linalg.pinv(R + B.T @ P @ B) @ G.T)
            assert np.abs(res).max() <= 1e-9 * (1.0 + np.abs(P).max())
            w = np.linalg.eigvalsh(P)
            assert w.min() >= -1e-9 * (1 + w.max())

    def test_matches_scipy_oracle_pd_r(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            disc = random_disc(rng, d_over_h=0.0)  # d=0 keeps R2 PD
            P = dare_solve(*stacked([disc]))[0][0]
            P_ref = scipy.linalg.solve_discrete_are(
                disc.A2, disc.B2u, disc.Q2, disc.R2, s=disc.N2)
            np.testing.assert_allclose(P, P_ref, rtol=1e-7,
                                       atol=1e-9 * (1 + np.abs(P_ref).max()))

    def test_indefinite_r_rejected(self):
        with pytest.raises(IndefiniteCost):
            dare_solve([[[0.5]]], [[[1.0]]], [[[1.0]]], [[[0.0]]],
                       [[[-1.0]]])

    def test_singular_r_needs_stable_a(self):
        # singular R rules out doubling and an unstable A rules out policy
        # iteration from the zero gain: no solver applies, so it raises
        with pytest.raises(NotStabilizable, match="policy iteration"):
            dare_solve(np.diag([1.5, 0.5])[None], [[[1.0], [0.0]]],
                       np.eye(2)[None], np.zeros((1, 2, 1)), [[[0.0]]])

    def test_unconverged_doubling_fails(self, monkeypatch):
        # a positive-definite R picks doubling, and a slice that has not
        # converged when the doublings run out raises: no other solver
        # takes it over
        import wadc.synthesis as synthesis
        disc = random_disc(np.random.default_rng(2), d_over_h=0.0)
        assert np.linalg.eigvalsh(disc.R2).min() > 0
        monkeypatch.setattr(synthesis, "_MAX_SDA_ITERS", 1)
        with pytest.raises(NotStabilizable, match="doubling"):
            dare_solve(*stacked([disc]))

    def test_singular_r_checks_each_loop_once(self, monkeypatch):
        # policy iteration's closed loops (the first iterate is A itself)
        # are certified by their stein_solve's doubling powers, and the
        # returned gain's loop by schur_stable's squarings: no eigenvalue
        # solve
        import wadc.synthesis as synthesis
        disc = random_disc(np.random.default_rng(7), d_over_h=2.3)
        assert not disc.R2.any()
        calls = {"eigvals": 0, "stein": 0}
        eigvals, stein = np.linalg.eigvals, synthesis.stein_solve

        def counted_eigvals(*args, **kwargs):
            calls["eigvals"] += 1
            return eigvals(*args, **kwargs)

        def counted_stein(*args, **kwargs):
            calls["stein"] += 1
            return stein(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
        monkeypatch.setattr(synthesis, "stein_solve", counted_stein)
        dare_solve(*stacked([disc]))
        assert calls["stein"] >= 2
        assert calls["eigvals"] == 0

    def test_singular_doubling_pivot_fails(self):
        # Q = -1 and G = B R^-1 B' = 1 make the first pivot I + G Q zero
        with pytest.raises(NotStabilizable, match="a singular pivot"):
            dare_solve([[[0.5]]], [[[1.0]]], [[[-1.0]]], [[[0.0]]],
                       [[[1.0]]])

    def test_diverged_doubling_fails(self):
        # B = 0 leaves A = 2 unstable: the doubled cost overflows, and the
        # first iterate that is not finite is refused, with no numpy
        # warning on the way (the suite makes RuntimeWarnings errors)
        with pytest.raises(NotStabilizable, match="a diverged iterate"):
            dare_solve([[[2.0]]], [[[0.0]]], [[[1.0]]], [[[0.0]]],
                       [[[1.0]]])

    def test_policy_iteration_step_cap(self, monkeypatch):
        # a singular R takes policy iteration, which needs more Newton
        # steps here than the cap allows
        import wadc.synthesis as synthesis
        disc = random_disc(np.random.default_rng(7), d_over_h=2.3)
        assert not disc.R2.any()
        monkeypatch.setattr(synthesis, "_MAX_NEWTON", 1)
        with pytest.raises(NotStabilizable, match="did not converge in 1 "):
            dare_solve(*stacked([disc]))

    def test_doubling_residual_checked(self, monkeypatch):
        # a doubling that stops on a P that solves nothing is refused by
        # the Riccati residual
        import wadc.synthesis as synthesis
        disc = random_disc(np.random.default_rng(2), d_over_h=0.0)
        monkeypatch.setattr(synthesis, "_sda",
                            lambda A, G, H: np.zeros_like(H))
        with pytest.raises(NotStabilizable, match="a residual of"):
            dare_solve(*stacked([disc]))

    def test_indefinite_pivot_at_solution_rejected(self):
        # Q = -1 with R = 0.01: the stabilizing P, about -0.9975, leaves
        # the pivot R + B'PB at about -0.9875
        with pytest.raises(IndefiniteCost, match="pivot is indefinite"):
            dare_solve([[[0.5]]], [[[1.0]]], [[[-1.0]]], [[[0.0]]],
                       [[[0.01]]])


def stacked(discs):
    """(A, B, Q, N, R) stacks of equal-size lifted systems."""
    return tuple(np.stack([getattr(d, name) for d in discs])
                 for name in ("A2", "B2u", "Q2", "N2", "R2"))


def counting(monkeypatch, module, name):
    """Patch module.name with a wrapper that counts its calls."""
    calls = [0]
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestStacks:
    """A stack of k systems gives, slice by slice, exactly the arrays of k
    single designs: each slice keeps its own branch and stop tests."""

    def test_stein_stack_equals_singles(self):
        # spectral radii 0.2, 0.6 and 0.95 stop after different numbers of
        # doublings, so slices leave the stack at different steps
        rng = np.random.default_rng(11)
        As, Qs = [], []
        for rho in (0.2, 0.95, 0.6):
            A = rng.normal(size=(5, 5))
            As.append(A * rho / np.abs(np.linalg.eigvals(A)).max())
            Qm = rng.normal(size=(5, 5))
            Qs.append(Qm @ Qm.T)
        P = stein_solve(np.stack(As), np.stack(Qs))
        assert P.shape == (3, 5, 5)
        for j in range(3):
            assert np.array_equal(P[j],
                                  stein_solve(As[j][None], Qs[j][None])[0])

    def test_stein_stack_with_unstable_slice_raises(self):
        A = np.stack([0.5 * np.eye(2), np.diag([1.5, 0.5])])
        with pytest.raises(UnstableSystem):
            stein_solve(A, np.stack([np.eye(2)] * 2))

    def test_policy_iteration_stack_equals_singles(self, monkeypatch):
        # singular R on all three; alone they take 6, 4 and 5 Newton steps
        import wadc.synthesis as synthesis
        discs = [random_disc(np.random.default_rng(seed), d_over_h=2.3)
                 for seed in (0, 2, 4)]
        assert not any(d.R2.any() for d in discs)
        singles, steps = [], []
        for d in discs:
            calls = counting(monkeypatch, synthesis, "stein_solve")
            singles.append(dare_solve(*stacked([d]))[0][0])
            steps.append(calls[0])
            monkeypatch.undo()
        assert len(set(steps)) == 3
        P, _ = dare_solve(*stacked(discs))
        for j in range(3):
            assert np.array_equal(P[j], singles[j])

    def test_doubling_stack_equals_singles(self, monkeypatch):
        # two positive-definite R: the second slice's doubling converges
        # first and is retired while the first doubles on
        import wadc.synthesis as synthesis
        discs = [random_disc(np.random.default_rng(seed), d_over_h=0.4)
                 for seed in (0, 1)]
        assert all(np.linalg.eigvalsh(d.R2).min() > 0 for d in discs)
        singles = [dare_solve(*stacked([d])) for d in discs]
        calls = counting(monkeypatch, synthesis, "_retire")
        P, F = dare_solve(*stacked(discs))
        assert calls[0] == 1
        for j, (P1, F1) in enumerate(singles):
            assert np.array_equal(P[j], P1[0]) and np.array_equal(F[j], F1[0])

    def test_dare_stack_mixes_doubling_and_policy_iteration(self):
        # one system at d = 0.4 h (R positive definite: doubling) and at
        # d = h (R = 0: policy iteration); both lift to the same size
        discs = [random_disc(np.random.default_rng(0), d_over_h=doh)
                 for doh in (0.4, 1.0)]
        assert np.linalg.eigvalsh(discs[0].R2).min() > 0
        assert not discs[1].R2.any()
        P, _ = dare_solve(*stacked(discs))
        for j, d in enumerate(discs):
            assert np.array_equal(P[j], dare_solve(*stacked([d]))[0][0])

    def test_lqr_design_returns_the_checked_gain(self, monkeypatch):
        # the gain is the one whose loop dare_solve checked, formed once
        import wadc.synthesis as synthesis
        disc = random_disc(np.random.default_rng(3), d_over_h=0.4)
        P, F = dare_solve(*stacked([disc]))
        calls = counting(monkeypatch, synthesis, "_gain_from")
        res = lqr_design([disc])[0]
        assert calls[0] == 1
        assert np.array_equal(res.F, F[0]) and np.array_equal(res.P, P[0])
        assert res.disc is disc

    def test_lqr_design_stack_equals_singles(self):
        discs = [random_disc(np.random.default_rng(0), d_over_h=doh)
                 for doh in (0.4, 0.7, 1.0)]
        results = lqr_design(discs)
        assert len(results) == 3
        for res, d in zip(results, discs):
            alone = lqr_design([d])[0]
            assert np.array_equal(res.F, alone.F)
            assert np.array_equal(res.P, alone.P)

    def test_singular_pivot_slice_takes_least_squares(self, monkeypatch):
        # the first slice has no input (B = 0, R = 0: H = 0), so the stacked
        # solve fails and that slice alone goes to least squares
        A = np.array([[[0.5]], [[0.5]]])
        B = np.array([[[0.0]], [[1.0]]])
        Q = np.ones((2, 1, 1))
        zero = np.zeros((2, 1, 1))
        singles = [dare_solve(A[j][None], B[j][None], Q[j][None],
                              zero[j][None], zero[j][None])[0][0]
                   for j in range(2)]
        calls = counting(monkeypatch, np.linalg, "lstsq")
        P, _ = dare_solve(A, B, Q, zero, zero)
        assert calls[0] > 0
        assert abs(P[0, 0, 0] - 4.0 / 3.0) < 1e-10
        for j in range(2):
            assert np.array_equal(P[j], singles[j])

    def test_unstabilizable_slice_fails_the_stack(self):
        # singular R with an unstable A: no solver applies to the second
        # slice, alone or in a stack
        A = np.stack([0.5 * np.eye(2), np.diag([1.5, 0.5])])
        B = np.stack([[[1.0], [1.0]], [[1.0], [0.0]]])
        with pytest.raises(NotStabilizable, match="policy iteration"):
            dare_solve(A, B, np.stack([np.eye(2)] * 2), np.zeros((2, 2, 1)),
                       np.zeros((2, 1, 1)))


class TestLqr:
    def test_zero_state_cost_gives_zero_gain(self):
        rng = np.random.default_rng(3)
        disc = random_disc(rng)
        zeroed = make_disc(disc.A2, disc.B2u, disc.B2w, disc.C2, disc.D2u,
                           np.zeros_like(disc.Q2), np.zeros_like(disc.N2),
                           np.eye(disc.n_u))
        res = lqr_design([zeroed])[0]
        np.testing.assert_allclose(res.F, 0, atol=1e-12)

    def test_indefinite_lifted_cost_rejected(self):
        rng = np.random.default_rng(3)
        disc = random_disc(rng)
        negated = make_disc(disc.A2, disc.B2u, disc.B2w, disc.C2, disc.D2u,
                            -disc.Q2, disc.N2, disc.R2)
        with pytest.raises(IndefiniteCost, match="lifted cost matrix"):
            lqr_design([negated])

    def test_certificate_matches_simulated_cost(self):
        rng = np.random.default_rng(4)
        disc = random_disc(rng, d_over_h=0.0)
        res = lqr_design([disc])[0]
        z0 = rng.normal(size=disc.n_z)
        J = closed_loop_cost(disc, res.F, z0)
        assert abs(J - res.J_star(z0)) <= 1e-6 * max(1.0, res.J_star(z0))

    def test_certificate_with_delay(self):
        rng = np.random.default_rng(5)
        disc = random_disc(rng, d_over_h=2.3)
        res = lqr_design([disc])[0]
        z0 = disc.lift_state(rng.normal(size=disc.n_x))
        J = closed_loop_cost(disc, res.F, z0)
        assert abs(J - res.J_star(z0)) <= 1e-6 * max(1.0, res.J_star(z0))

    def test_perturbed_gain_costs_more(self):
        rng = np.random.default_rng(6)
        disc = random_disc(rng)
        res = lqr_design([disc])[0]
        z0 = rng.normal(size=disc.n_z)
        J_opt = closed_loop_cost(disc, res.F, z0)
        for i in range(res.F.shape[0]):
            for j in range(res.F.shape[1]):
                F = res.F.copy()
                F[i, j] += 0.01
                assert closed_loop_cost(disc, F, z0) > J_opt

    def test_lqr_certificate_many_initial_states(self):
        rng = np.random.default_rng(7)
        disc = random_disc(rng, d_over_h=1.0)
        res = lqr_design([disc])[0]
        for _ in range(20):
            z0 = rng.normal(size=disc.n_z)
            J = closed_loop_cost(disc, res.F, z0)
            assert abs(J - res.J_star(z0)) <= 1e-6 * max(1.0, res.J_star(z0))


class TestHinfNorm:
    def test_scalar_transfer_function(self):
        # peak of |1/(z-0.5)| on the unit circle is at z = 1
        val = hinf_norm([[0.5]], [[1.0]], [[1.0]])
        assert abs(val - 2.0) < 1e-6 * 2.0

    def test_similarity_invariance(self):
        rng = np.random.default_rng(8)
        disc = random_disc(rng, n_x=4, n_w=2)
        n = hinf_norm(disc.A2, disc.B2w, disc.C2)
        T = rng.normal(size=(4, 4)) + 2 * np.eye(4)
        Ti = np.linalg.inv(T)
        n2 = hinf_norm(Ti @ disc.A2 @ T, Ti @ disc.B2w, disc.C2 @ T)
        assert abs(n - n2) <= 1e-8 * n

    def test_unstable_rejected(self):
        with pytest.raises(UnstableSystem):
            hinf_norm([[1.0]], [[1.0]], [[1.0]])

    def test_unstable_rejected_without_disturbance_path(self):
        # B = 0 or C = 0 makes the norm 0, but only for a stable A
        with pytest.raises(UnstableSystem):
            hinf_norm([[1.5]], [[0.0]], [[1.0]])
        with pytest.raises(UnstableSystem):
            hinf_norm([[1.5]], [[1.0]], [[0.0]])

    def test_matches_dense_scan(self):
        rng = np.random.default_rng(9)
        disc = random_disc(rng, n_x=3, n_w=2)
        val = hinf_norm(disc.A2, disc.B2w, disc.C2)
        thetas = np.linspace(0, np.pi, 200001)
        peak = 0.0
        for th in thetas[::1000]:
            M = np.exp(1j * th) * np.eye(3) - disc.A2
            T = disc.C2 @ np.linalg.solve(M, disc.B2w)
            peak = max(peak, np.linalg.svd(T, compute_uv=False)[0])
        assert val >= peak - 1e-9
        assert val <= peak * 1.01  # coarse scan lower-bounds the true peak

    @pytest.mark.parametrize("d", [0.1, 0.3])
    def test_matches_grid_oracle_on_lifted_modes(self, gains_k2, dec_k2, d):
        # the lifted A is defective: the in-flight input samples form a
        # nilpotent shift; open loops and certified closed loops alike
        for i in range(2):
            disc = discretize(bench_mode_system(gains_k2, dec_k2, i), 0.02,
                              d)
            res = gamma_min(disc, tol=1e-3)
            for F in (np.zeros_like(res.F), res.F):
                args = (disc.A2 + disc.B2u @ F, disc.B2w,
                        disc.C2 + disc.D2u @ F)
                ref = grid_hinf_norm(*args)
                assert abs(hinf_norm(*args) - ref) <= 1e-9 * ref

    def test_matches_grid_oracle_on_random_systems(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            n, m, p = (int(v) for v in rng.integers(1, 6, size=3))
            A = rng.normal(size=(n, n))
            A *= rng.uniform(0.2, 0.99) / np.abs(np.linalg.eigvals(A)).max()
            B, C = rng.normal(size=(n, m)), rng.normal(size=(p, n))
            ref = grid_hinf_norm(A, B, C)
            assert abs(hinf_norm(A, B, C) - ref) <= 1e-9 * ref

    def test_peak_at_minus_one(self):
        # |b/(z - a)| with a < 0 peaks at z = -1, the end of the angle range
        for a in (-0.3, -0.9, -0.999):
            val = hinf_norm([[a]], [[1.5]], [[1.0]])
            assert abs(val - 1.5 / (1.0 + a)) <= 1e-12 * val

    def test_no_angle_exceeds_the_norm(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            disc = random_disc(rng, n_x=4, n_w=2)
            A, B, C = disc.A2, disc.B2w, disc.C2
            val = hinf_norm(A, B, C)
            zs = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 1000))
            T = C @ np.linalg.solve(zs[:, None, None] * np.eye(4) - A,
                                    np.broadcast_to(B, (1000, *B.shape)))
            peak = np.linalg.svd(T, compute_uv=False)[:, 0].max()
            # the norm is certified to a relative 2e-10 above the bound
            assert peak <= val * (1 + 2e-10)


class TestHinfDesign:
    def test_large_gamma_always_feasible(self):
        rng = np.random.default_rng(10)
        disc = random_disc(rng, n_w=2)
        open_norm = hinf_norm(disc.A2, disc.B2w, disc.C2)
        res = hinf_design(disc, 1e6 * max(open_norm, 1.0))
        assert res.norm < res.gamma

    @pytest.mark.parametrize("gamma", [0.0, -1.0])
    def test_nonpositive_gamma_infeasible(self, gamma):
        disc = random_disc(np.random.default_rng(10), n_w=2)
        with pytest.raises(GammaInfeasible) as exc:
            hinf_design(disc, gamma)
        assert exc.value.which_condition == "gamma_nonpositive"

    def test_nonfinite_riccati_solution_infeasible(self, monkeypatch):
        disc = random_disc(np.random.default_rng(10), n_w=2)
        monkeypatch.setattr(scipy.linalg, "solve_discrete_are",
                            lambda A, B, Q, R, s: np.full(A.shape, np.inf))
        with pytest.raises(GammaInfeasible) as exc:
            hinf_design(disc, 1e6)
        assert exc.value.which_condition == "riccati_nonfinite"

    def test_singular_control_pivot_accepted(self, monkeypatch):
        # with C2 = 0 and D2u = 0, P = 0 solves the game and leaves the
        # control pivot H_uu = D2u'D2u = 0 singular; SciPy's solver is
        # replaced to supply that P.  The pivot does not decide the level:
        # its least-squares gain F = 0 leaves the stable loop 0.5 with
        # output 0, whose certified norm 0 is below the level
        disc = make_disc([[0.5]], [[1.0]], [[1.0]], [[0.0]], [[0.0]],
                         np.eye(1), np.zeros((1, 1)), np.eye(1))
        monkeypatch.setattr(scipy.linalg, "solve_discrete_are",
                            lambda A, B, Q, R, s: np.zeros_like(A))
        res = hinf_design(disc, 1.0)
        assert np.array_equal(res.F, np.zeros((1, 1)))
        assert res.norm == 0.0 and res.gamma == 1.0

    @pytest.mark.parametrize("gain, B2u", [(np.nan, 1.0), (1e300, 1e10)],
                             ids=["gain", "closed-loop"])
    def test_nonfinite_gain_infeasible(self, monkeypatch, gain, B2u):
        # a gain that is not finite, or whose closed loop overflows, is
        # refused before the norm reads it: no LinAlgError from the
        # eigenvalue solve and no RuntimeWarning (they are errors here)
        import wadc.synthesis as synthesis
        disc = make_disc([[0.5]], [[B2u]], [[1.0]], [[1.0]], [[0.0]],
                         np.eye(1), np.zeros((1, 1)), np.eye(1))
        monkeypatch.setattr(synthesis, "_gain_from",
                            lambda A, B, N, P, H: np.full((1, 2, 1), gain))
        with pytest.raises(GammaInfeasible) as exc:
            hinf_design(disc, 10.0)
        assert exc.value.which_condition == "gain_nonfinite"

    def test_norm_at_gamma_infeasible(self, monkeypatch):
        # a finite, stable design is still refused when its certified norm
        # does not come out below the level
        import wadc.synthesis as synthesis
        disc = random_disc(np.random.default_rng(10), n_w=2)
        gamma = 2.0 * gamma_min(disc, tol=1e-3).gamma
        monkeypatch.setattr(synthesis, "hinf_norm", lambda A, B, C: gamma)
        with pytest.raises(GammaInfeasible) as exc:
            hinf_design(disc, gamma)
        assert exc.value.which_condition == "norm_not_below_gamma"

    def test_norm_certified_below_gamma(self):
        rng = np.random.default_rng(12)
        for d_over_h in (0.0, 1.0, 2.3):
            disc = random_disc(rng, n_x=2, n_w=1, d_over_h=d_over_h)
            res = gamma_min(disc, tol=1e-2)
            gstar = res.gamma
            res2 = hinf_design(disc, 1.2 * gstar)
            assert res2.norm < 1.2 * gstar

    def test_feasibility_is_up_set(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            disc = random_disc(rng, n_x=2, n_w=1)
            gstar = gamma_min(disc, tol=1e-2).gamma
            for factor in (1.1, 2.0, 10.0):
                res = hinf_design(disc, factor * gstar)
                assert res.norm < factor * gstar

    def test_accepted_level_solves_eigenvalues_once(self, monkeypatch):
        # the loop's stability is certified inside hinf_norm, from the one
        # eigenvalue solve that also seeds its angles
        seen = []
        real = np.linalg.eigvals

        def recorded(A):
            seen.append(np.array(A))
            return real(A)

        rng = np.random.default_rng(21)
        disc = random_disc(rng, n_x=3, n_w=2)
        gstar = gamma_min(disc, tol=1e-3).gamma
        monkeypatch.setattr(np.linalg, "eigvals", recorded)
        res = hinf_design(disc, 1.5 * gstar)
        assert len(seen) == 1
        assert np.array_equal(seen[0], disc.A2 + disc.B2u @ res.F)

    @pytest.mark.parametrize("d", [0.1, 0.3])
    @pytest.mark.parametrize("i", [0, 1], ids=["oscillation", "common"])
    def test_gain_matches_block_elimination(self, gains_k2, dec_k2, i, d,
                                            monkeypatch):
        # the first rows of the gamma-scaled game's joint-pivot gain are the
        # gain of the block elimination through H3, from the same P, at
        # levels from just above gamma* to far above it
        disc = discretize(bench_mode_system(gains_k2, dec_k2, i), 0.02, d)
        gstar = gamma_min(disc, tol=1e-3).gamma
        solved = []
        real = scipy.linalg.solve_discrete_are

        def recorded(*args, **kwargs):
            solved.append(real(*args, **kwargs))
            return solved[-1]

        monkeypatch.setattr(scipy.linalg, "solve_discrete_are", recorded)
        for factor in (1.0005, 2.0, 100.0, 1e4):
            F = hinf_design(disc, factor * gstar).F
            P = 0.5 * (solved[-1] + solved[-1].T)
            F_ref = block_elimination_gain(disc, P, factor * gstar)
            assert np.abs(F - F_ref).max() <= 1e-12 * np.abs(F_ref).max()

    def test_unstable_loop_is_infeasible(self, monkeypatch):
        # with C2 = 0, P = 0 solves this game Riccati equation too, but
        # its gain F = 0 leaves the unstable open loop; SciPy returns the
        # stabilizing solution, so P = 0 is supplied to reach the
        # stability check
        disc = make_disc([[2.0]], [[1.0]], [[1.0]], [[0.0]], [[1.0]],
                         np.eye(1), np.zeros((1, 1)), np.eye(1))
        monkeypatch.setattr(scipy.linalg, "solve_discrete_are",
                            lambda A, B, Q, R, s: np.zeros_like(A))
        with pytest.raises(GammaInfeasible) as exc:
            hinf_design(disc, 1.0)
        assert exc.value.which_condition == "closed_loop_unstable"
        assert "spectral radius 2.000000" in str(exc.value)

    def test_large_gamma_approaches_lqr_of_output_cost(self):
        rng = np.random.default_rng(14)
        for d_over_h in (0.0, 1.4):
            disc = random_disc(rng, n_x=2, n_w=1, d_over_h=d_over_h)
            gstar = gamma_min(disc, tol=1e-2).gamma
            res = hinf_design(disc, 1e8 * gstar)
            # same cost structure: Q = C'C, N = C'Du, R = Du'Du
            P = dare_solve(disc.A2[None], disc.B2u[None],
                           (disc.C2.T @ disc.C2)[None],
                           (disc.C2.T @ disc.D2u)[None],
                           (disc.D2u.T @ disc.D2u)[None])[0][0]
            H = disc.D2u.T @ disc.D2u + disc.B2u.T @ P @ disc.B2u
            F_lqr = -np.linalg.lstsq(
                H, disc.B2u.T @ P @ disc.A2 + disc.D2u.T @ disc.C2,
                rcond=None)[0]
            assert np.abs(res.F - F_lqr).max() <= 1e-4


class TestGammaMin:
    def test_no_control_authority_keeps_open_loop_level(self):
        # |1/(z - 0.5)| peaks at 2 on the unit circle; no gain can lower it,
        # so the zero-gain witness at the top of the bracket is returned
        disc = make_disc([[0.5]], [[0.0]], [[1.0]], [[1.0]], [[0.0]],
                         np.eye(1), np.zeros((1, 1)), np.eye(1))
        tol = 1e-3
        res = gamma_min(disc, tol=tol)
        gstar = res.gamma
        assert np.all(res.F == 0.0)
        assert res.norm == hinf_norm(disc.A2, disc.B2w, disc.C2)
        assert 2.0 <= gstar <= 2.0 * (1 + tol)

    def test_cancellable_output_gives_zero_level(self, monkeypatch):
        # y = C2 z + D2u u: u = -D2u^+ C2 z cancels the output
        # and leaves A2 + B2u F0 = 0.3 Schur stable, so gamma* is exactly 0
        C2 = np.array([[2.0]])
        D2u = np.array([[0.5]])
        disc = make_disc([[0.9]], [[0.15]], [[1.0]], C2, D2u, np.eye(1),
                         np.zeros((1, 1)), np.eye(1))
        import wadc.synthesis as synthesis
        calls = counting(monkeypatch, synthesis, "hinf_norm")
        res = gamma_min(disc, tol=1e-3)
        gstar = res.gamma
        assert gstar == 0.0 and res.gamma == 0.0
        np.testing.assert_array_equal(res.F, -np.linalg.pinv(D2u) @ C2)
        assert res.norm == 0.0 and res.levels == 0
        assert calls[0] == 0  # the exact level needs no evaluated norm

    def test_overflowing_output_refused(self):
        # ||C2|| overflows to inf, and inf <= 1e-12 inf would pass the
        # zero-level test with F0 = 0, which leaves C2 + D2u F0 = C2
        disc = make_disc([[0.5]], [[1.0]], [[1.0]], [[1e300], [1e300]],
                         [[0.0], [0.0]], np.eye(1), np.zeros((1, 1)),
                         np.eye(1))
        with pytest.raises(NonFiniteModel, match=r"\[output\]"):
            gamma_min(disc, tol=1e-3)

    def test_unstable_plant_stabilized(self):
        # the window bound 1 tops the first level's design: F = -1.5
        # cancels the unstable pole, and the certified loop is returned
        # without the open-loop level, which does not exist here
        disc = make_disc([[1.5]], [[1.0]], [[1.0]], [[1.0]], [[0.0]],
                         np.eye(1), np.zeros((1, 1)), np.eye(1))
        res = gamma_min(disc, tol=1e-3)
        assert res.bound == 1.0 and res.levels == res.accepted == 1
        assert res.gamma == 1.0 * (1 + 2e-10)
        A_cl = disc.A2 + disc.B2u @ res.F
        assert np.abs(np.linalg.eigvals(A_cl)).max() < 1.0
        ref = grid_hinf_norm(A_cl, disc.B2w, disc.C2 + disc.D2u @ res.F)
        assert abs(ref - res.norm) <= 1e-9 * res.norm

    def test_unstable_plant_without_disturbance_path_rejected(self):
        disc = make_disc([[1.5]], [[1.0]], [[0.0]], [[1.0]], [[0.0]],
                         np.eye(1), np.zeros((1, 1)), np.eye(1))
        with pytest.raises(UnstableSystem):
            gamma_min(disc, tol=1e-3)

    def test_no_disturbance_path_gives_zero_level(self, monkeypatch):
        # B2w = 0: the open-loop norm is exactly 0, so is the level, with
        # the zero gain as its witness and no bisection
        import wadc.synthesis as synthesis
        calls = counting(monkeypatch, synthesis, "hinf_design")
        disc = make_disc([[0.5]], [[1.0]], [[0.0]], [[1.0]], [[0.0]],
                         np.eye(1), np.zeros((1, 1)), np.eye(1))
        res = gamma_min(disc, tol=1e-3)
        gstar = res.gamma
        assert gstar == 0.0 and res.gamma == 0.0 and res.norm == 0.0
        assert np.array_equal(res.F, np.zeros((1, 1)))
        assert calls[0] == 0

    def test_zero_norm_closes_the_bracket(self):
        # D2u = 0, so no static gain cancels y = z2; the gain [-1, -0.8]
        # does, one step later (z2+ = 0.8 z2 + z1 + u = 0), leaving the
        # stable z1+ = -0.5 z1 + w.  The first level's design has norm
        # exactly 0, which ends the search with gamma = 0
        disc = make_disc([[0.5, 0.0], [1.0, 0.8]], [[1.0], [1.0]],
                         [[1.0], [0.0]], [[0.0, 1.0]], [[0.0]], np.eye(2),
                         np.zeros((2, 1)), np.eye(1))
        res = gamma_min(disc, tol=1e-3)
        gstar = res.gamma
        assert gstar == 0.0 and res.gamma == 0.0 and res.norm == 0.0
        assert res.levels == res.accepted == 1
        open_norm = grid_hinf_norm(disc.A2, disc.B2w, disc.C2)
        assert grid_hinf_norm(disc.A2 + disc.B2u @ res.F, disc.B2w,
                              disc.C2 + disc.D2u @ res.F) <= 1e-12 * open_norm

    def test_tolerance_below_norm_accuracy_rejected(self):
        rng = np.random.default_rng(15)
        disc = random_disc(rng, n_x=2, n_w=1)
        with pytest.raises(ValueError):
            gamma_min(disc, tol=1e-10)

    def test_bracketing_property(self):
        rng = np.random.default_rng(15)
        disc = random_disc(rng, n_x=2, n_w=1)
        tol = 1e-2
        gstar = gamma_min(disc, tol=tol).gamma
        hinf_design(disc, gstar * (1 + 2 * tol))  # must not raise
        with pytest.raises(GammaInfeasible):
            hinf_design(disc, gstar * (1 - 2 * tol))

    def test_tolerance_self_consistency(self):
        rng = np.random.default_rng(16)
        disc = random_disc(rng, n_x=2, n_w=1)
        g2 = gamma_min(disc, tol=1e-2).gamma
        g3 = gamma_min(disc, tol=1e-3).gamma
        assert abs(g2 - g3) <= 1e-2 * g2


def check_against_bisection(disc, tol=1e-3):
    """gamma_min against the plain bisection oracle: the same level to tol,
    a certified top, the bracket property and at most one level more.
    The top is a level the search certified or, when the optimum lies
    within tol of the open-loop norm, that norm with the zero gain as its
    witness."""
    res = gamma_min(disc, tol=tol)
    gstar = res.gamma
    g_ref, levels_ref = bisection_gamma(disc, tol)
    assert gstar == res.norm * (1 + 2e-10)
    assert abs(gstar - g_ref) <= tol * g_ref
    if res.uncertified:
        assert not res.F.any()
        assert res.norm == hinf_norm(disc.A2, disc.B2w, disc.C2)
    assert 1 <= res.levels <= levels_ref + 1
    hinf_design(disc, gstar * (1 + 2 * tol))  # must not raise
    with pytest.raises(GammaInfeasible):
        hinf_design(disc, gstar * (1 - 2 * tol))
    return res


class TestGammaSearch:
    """The search finds the bisection's level: in one level where the delay
    window's gain is within tol of the optimum, and otherwise by midpoints
    in at most one level more than the bisection oracle."""

    @pytest.mark.parametrize("d", [0.1, 0.2, 0.3])
    @pytest.mark.parametrize("i", [0, 1], ids=["oscillation", "common"])
    def test_benchmark_modes(self, gains_k2, dec_k2, i, d):
        # the delay window's gain is within tol of the optimum here, so the
        # first level closes the bracket
        disc = discretize(bench_mode_system(gains_k2, dec_k2, i), 0.02, d)
        res = check_against_bisection(disc)
        assert res.levels == res.accepted == 1
        assert res.bound < res.gamma <= res.bound * (1 + 1e-3)

    @pytest.mark.parametrize("i", [0, 1], ids=["oscillation", "common"])
    def test_one_norm_per_benchmark_search(self, gains_k2, dec_k2, i,
                                           monkeypatch):
        # the first level is certified at every wait of 0.02-0.5 s, so its
        # design's norm is the only one evaluated: the open-loop level,
        # the top the bracket never needs, is not computed
        import wadc.synthesis as synthesis
        calls = counting(monkeypatch, synthesis, "hinf_norm")
        model = bench_mode_system(gains_k2, dec_k2, i)
        for k in range(1, 26):
            before = calls[0]
            res = gamma_min(discretize(model, 0.02, 0.02 * k), tol=1e-3)
            assert res.levels == res.accepted == 1
            assert calls[0] - before == 1, f"wait {0.02 * k:g} s"

    def test_oscillation_sweep_rows(self, gains_k2, dec_k2):
        # the nonzero rows of the 0:0.1:0.3 oscillation-mode sweep take
        # 58 levels by bisection; the window bound settles each in one
        levels = 0
        for d in (0.1, 0.2, 0.3):
            disc = discretize(bench_mode_system(gains_k2, dec_k2, 0), 0.02,
                              d)
            levels += gamma_min(disc, tol=1e-3).levels
        assert levels == 3

    def test_loose_window_bound_falls_back(self, monkeypatch):
        # on this delayed random model the window's gain is far below the
        # optimum: the first level, aimed to close the bracket at once,
        # fails and becomes the bottom, and the search goes on from there
        import wadc.synthesis as synthesis
        tried = []
        real = synthesis.hinf_design

        def design(disc, level):
            try:
                res = real(disc, level)
            except GammaInfeasible:
                tried.append((level, False))
                raise
            tried.append((level, True))
            return res

        monkeypatch.setattr(synthesis, "hinf_design", design)
        disc = random_disc(np.random.default_rng(23), n_x=3, n_w=2,
                           d_over_h=1.5)
        bound = _window_bound(disc)
        assert bound > 0.0
        res = check_against_bisection(disc)
        assert res.bound == bound
        assert tried[0] == (pytest.approx(bound * (1 + 1e-3)), False)
        assert res.gamma > 2.0 * bound
        assert res.levels == len(tried) > 1

    def test_slow_norm_curve_within_bisection_levels(self, monkeypatch):
        # norm(gamma) = gamma - 0.3 (gamma - 1)^6 above gamma* = 1 meets
        # the diagonal to sixth order, so no accepted design's norm lands
        # near gamma* early; the midpoints still find it within tol in no
        # more levels than the bisection oracle.  The window bound is set
        # to 0 so that the bracket starts far below gamma*
        import helpers
        import wadc.synthesis as synthesis
        tried = []

        def design(disc, level):
            tried.append(level)
            if level <= 1.0:
                raise GammaInfeasible("norm_not_below_gamma")
            return HinfResult(F=np.zeros((1, 1)), gamma=level,
                              norm=level - 0.3 * (level - 1.0) ** 6,
                              disc=disc)

        for module in (synthesis, helpers):
            monkeypatch.setattr(module, "hinf_design", design)
            monkeypatch.setattr(module, "hinf_norm", lambda *args: 3.0)
        monkeypatch.setattr(synthesis, "_window_bound", lambda disc: 0.0)
        disc = make_disc([[0.5]], [[1.0]], [[1.0]], [[1.0]], [[0.0]],
                         np.eye(1), np.zeros((1, 1)), np.eye(1))
        res = gamma_min(disc, tol=1e-3)
        levels = len(tried)   # the oracle below runs the same stub
        _, levels_ref = bisection_gamma(disc, 1e-3)
        assert res.bound == 0.0
        assert 1.0 < res.gamma <= 1.001
        assert 1 <= res.levels == levels <= levels_ref

    def test_random_systems(self):
        rng = np.random.default_rng(22)
        for _ in range(12):
            disc = random_disc(rng, n_x=int(rng.integers(2, 5)),
                               n_w=int(rng.integers(1, 3)),
                               d_over_h=float(rng.uniform(0.0, 2.5)))
            check_against_bisection(disc)


# waits across the benchmark's h = 0.02 s: inside the first period, at a
# period, past one, and up to 25 samples in flight
WINDOW_WAITS = (0.005, 0.02, 0.03, 0.1, 0.21, 0.5)


def window_models(gains, dec):
    """The benchmark's two modes and two random delayed models."""
    rng = np.random.default_rng(33)
    return ([bench_mode_system(gains, dec, i) for i in (0, 1)]
            + [random_stable_system(rng, 3, 1, n_w=n_w, n_y=2)
               for n_w in (1, 2)])


def stabilizing_perturbations(rng, disc, F, count=10):
    """``count`` random gains near F, each with a Schur-stable loop: a
    draw whose loop is not stable is redrawn at half the size."""
    out, size = [], 0.2 * max(np.abs(F).max(), 1e-3)
    while len(out) < count:
        G = F + size * rng.normal(size=F.shape)
        if np.abs(np.linalg.eigvals(disc.A2 + disc.B2u @ G)).max() < 1.0:
            out.append(G)
        else:
            size *= 0.5
    return out


class TestWindowBound:
    """The delay window's gain bounds every state feedback's closed-loop
    norm from below, checked with the grid oracle on designed and perturbed
    gains, and is built from the window the sparsity patterns give."""

    def test_below_every_closed_loop_norm(self, gains_k2, dec_k2):
        # 4 models x 6 waits x 11 gains, each norm by the grid oracle on a
        # coarse grid: its value is the largest sigma_max it samples, which
        # is below the norm, so the check only gets stricter (it gave the
        # 4,096-point values here to 1e-15, in a fifth of the time); about
        # 3 s on a 2-core host, a third of it the bisections
        rng = np.random.default_rng(34)
        for model in window_models(gains_k2, dec_k2):
            for wait in WINDOW_WAITS:
                disc = discretize(model, 0.02, wait)
                bound = _window_bound(disc)
                assert bound > 0.0
                F = gamma_min(disc, tol=1e-3).F
                for G in [F] + stabilizing_perturbations(rng, disc, F):
                    norm = grid_hinf_norm(disc.A2 + disc.B2u @ G, disc.B2w,
                                          disc.C2 + disc.D2u @ G, n_grid=256)
                    assert bound <= norm, (wait, bound, norm)
                assert bound <= bisection_gamma(disc, 1e-3)[0]

    @pytest.mark.parametrize("wait, window", [(0.1, 5), (0.5, 25)])
    @pytest.mark.parametrize("i", [0, 1], ids=["oscillation", "common"])
    def test_structural_window_is_the_numeric_one(self, gains_k2, dec_k2,
                                                  i, wait, window):
        # the command sent at k reaches the output q + 1 samples later,
        # through the in-flight register the output map reads; one sample
        # more or less would change the bound
        disc = discretize(bench_mode_system(gains_k2, dec_k2, i), 0.02, wait)
        assert numeric_window(disc) == window
        bound = _window_bound(disc)
        assert bound == pytest.approx(window_gain(disc, window), rel=1e-12)
        assert window_gain(disc, window - 1) < bound < window_gain(
            disc, window + 1)

    def test_zero_at_zero_wait(self, gains_k2, dec_k2):
        # D2u != 0: y_1 already sees the command u_1 = F z_1
        disc = discretize(bench_mode_system(gains_k2, dec_k2, 0), 0.02, 0.0)
        assert disc.D2u.any()
        assert _window_bound(disc) == 0.0

    def test_zero_without_disturbance_path(self, gains_k2, dec_k2):
        disc = discretize(bench_mode_system(gains_k2, dec_k2, 0), 0.02, 0.1)
        disc = replace(disc, B2w=np.zeros_like(disc.B2w))
        assert _window_bound(disc) == 0.0

    def test_underflow_does_not_lengthen_the_window(self):
        # u reaches the output z3 through two links of 1e-200, whose
        # product underflows to 0, so by the numbers no command ever
        # reaches it; w reaches it through four unit links.  The structural
        # window is 3 samples, in which w has not arrived: the bound is 0,
        # where the numeric window (capped at n_z = 7) would claim 1
        A2 = np.zeros((7, 7))
        A2[1, 0] = A2[2, 1] = 1e-200                  # u: z1 -> z2 -> z3
        A2[4, 3] = A2[5, 4] = A2[6, 5] = A2[2, 6] = 1.0   # w: z4 -> ... -> z3
        disc = make_disc(A2, np.eye(7)[:, :1], np.eye(7)[:, 3:4],
                         np.eye(7)[2:3], [[0.0]], np.eye(7),
                         np.zeros((7, 1)), np.eye(1), d=0.1, q=4, r=0.1)
        assert numeric_window(disc) == 7
        assert window_gain(disc, 7) == 1.0
        assert _window_bound(disc) == 0.0


def recording(monkeypatch):
    """Patch ``spectral_radius`` in the synthesis module with a wrapper
    that keeps a copy of each stack it is given."""
    import wadc.synthesis as synthesis
    seen = []
    real = synthesis.spectral_radius

    def recorded(A):
        seen.append(np.array(A))
        return real(A)

    monkeypatch.setattr(synthesis, "spectral_radius", recorded)
    return seen


# 2^k for k in [-950, 1000] keeps every nonzero entry of the benchmark's
# lifted Q2 and of its P normal: no power-of-two scale rounds there
STEIN_SCALES = np.arange(-950, 1001)


def assert_stein_scales(A, Q):
    """stein_solve(A, 2^k Q) == 2^k stein_solve(A, Q) bit for bit, for
    every k of STEIN_SCALES, each on its own slice of one stack."""
    P = stein_solve(A[None], Q[None])[0]
    scaled = stein_solve(np.broadcast_to(A, (len(STEIN_SCALES), *A.shape)),
                         np.ldexp(Q, STEIN_SCALES[:, None, None]))
    assert [int(k) for k, Pk in zip(STEIN_SCALES, scaled)
            if not np.array_equal(Pk, np.ldexp(P, k))] == []


@pytest.mark.filterwarnings("error")
class TestStein:
    """Each slice's stability is certified by its own doubling powers,
    n max|A^(2^j)| < 1/2 at the stop, or else by its eigenvalues."""

    def test_matches_scipy(self):
        rng = np.random.default_rng(17)
        A = rng.normal(size=(4, 4))
        A *= 0.85 / np.abs(np.linalg.eigvals(A)).max()
        Qm = rng.normal(size=(4, 4))
        Qm = Qm @ Qm.T
        P = stein_solve(A[None], Qm[None])[0]
        P_ref = scipy.linalg.solve_discrete_lyapunov(A.T, Qm)
        np.testing.assert_allclose(P, P_ref, rtol=1e-9, atol=1e-12)

    def test_unstable_rejected(self):
        with pytest.raises(UnstableSystem):
            stein_solve(np.eye(2)[None], np.eye(2)[None])

    @pytest.mark.parametrize("gains", ["k1", "k2"], ids=["lqr", "hinf"])
    def test_scale_table(self, request, gains):
        # the lifted loop without remote feedback, as compute_bounds
        # solves it, for both modes at waits 0, 5 h and 5.25 h; both gain
        # sets take 0.4 s on a 2-core host
        g = request.getfixturevalue(f"gains_{gains}")
        dec = request.getfixturevalue(f"dec_{gains}")
        for i in (0, 1):
            for d in (0.0, 0.1, 0.105):
                disc = discretize(bench_mode_system(g, dec, i), 0.02, d)
                assert_stein_scales(disc.A2, disc.Q2)

    def test_slow_loop_tiny_cost(self):
        # an absolute stop at 1e-18 (1 + max|Q|) left P 99.6 % short here
        A = np.array([[0.999, 0.01], [0.0, 0.99]])
        assert_stein_scales(A, np.eye(2))
        Q = 1e-20 * np.eye(2)
        P = stein_solve(A[None], Q[None])[0]
        P_ref = np.linalg.solve(np.eye(4) - np.kron(A.T, A.T), Q.ravel())
        np.testing.assert_allclose(P, P_ref.reshape(2, 2), rtol=1e-14,
                                   atol=0.0)

    def test_power_bound_certifies_without_eigenvalues(self, monkeypatch):
        seen = recording(monkeypatch)
        rng = np.random.default_rng(18)
        A = rng.normal(size=(4, 4))
        A *= 0.9 / np.abs(np.linalg.eigvals(A)).max()
        stein_solve(A[None], np.eye(4)[None])
        assert seen == []

    def test_zero_cost_stable_reaches_fallback(self, monkeypatch):
        # Q = 0 passes the stop test at once, where n max|A^2| = 1.62
        seen = recording(monkeypatch)
        A = np.diag([0.9, 0.8])
        P = stein_solve(A[None], np.zeros((1, 2, 2)))[0]
        assert np.array_equal(P, np.zeros((2, 2)))
        assert len(seen) == 1 and np.array_equal(seen[0], A[None])

    def test_zero_cost_unstable_raises(self, monkeypatch):
        seen = recording(monkeypatch)
        with pytest.raises(UnstableSystem):
            stein_solve(np.diag([1.5, 0.5])[None], np.zeros((1, 2, 2)))
        assert len(seen) == 1

    def test_power_bound_counts_the_dimension(self):
        # rho(A) = 1.2, yet max|A^2| = 0.36 < 1/2: only n max|A^2| = 1.44
        # tells that A^2 does not prove stability
        A = np.full((4, 4), 0.3)
        with pytest.raises(UnstableSystem):
            stein_solve(A[None], np.zeros((1, 4, 4)))

    def test_unstable_slice_raises_before_overflow(self, monkeypatch):
        # the unstable slice's powers pass 1e30 after eight doublings; its
        # eigenvalues are checked then, before 1.5^(2^j) overflows
        seen = recording(monkeypatch)
        rng = np.random.default_rng(19)
        A = rng.normal(size=(3, 3, 3))
        A *= 0.5 / np.abs(np.linalg.eigvals(A)).max(axis=-1)[:, None, None]
        A[1] = np.array([[1.5, 1.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.2]])
        with pytest.raises(UnstableSystem):
            stein_solve(A, np.stack([np.eye(3)] * 3))
        assert len(seen) == 1 and np.array_equal(seen[0], A[1:2])

    def test_large_transient_keeps_doubling(self, monkeypatch):
        # max|A^(2^j)| passes 1e30 on the first doublings of this stable A;
        # its eigenvalues are checked once and the doubling goes on to the
        # same P as with an eigenvalue check of A up front
        seen = recording(monkeypatch)
        P = stein_solve(np.array([[[0.5, 1e35], [0.0, 0.5]]]),
                        np.eye(2)[None])[0]
        expected = [float.fromhex(x) for x in (
            "0x1.5555555555555p+0", "0x1.11e8f827844e6p+116",
            "0x1.11e8f827844e6p+116", "0x1.12c189f29055cp+234")]
        assert P.ravel().tolist() == expected
        assert P.max() == 2.962962962962963e+70
        assert len(seen) == 1

    def test_mixed_stack_checks_only_uncertified_slices(self, monkeypatch):
        seen = recording(monkeypatch)
        rng = np.random.default_rng(20)
        A = rng.normal(size=(4, 3, 3))
        A *= 0.7 / np.abs(np.linalg.eigvals(A)).max(axis=-1)[:, None, None]
        A[2] = np.diag([0.9, 0.8, 0.1])
        Q = np.stack([np.eye(3)] * 4)
        Q[2] = 0.0
        P = stein_solve(A, Q)
        assert len(seen) == 1 and np.array_equal(seen[0], A[2:3])
        assert not P[2].any()
        for j in range(4):
            assert np.array_equal(P[j], stein_solve(A[j][None], Q[j][None])[0])


@pytest.mark.filterwarnings("error")
class TestSchurStable:
    """Each slice is certified by its own squarings, n max|A^(2^j)| < 1/2,
    or else by its eigenvalues, in one call on those slices alone."""

    def test_agrees_with_eigenvalues(self, monkeypatch):
        seen = recording(monkeypatch)
        rng = np.random.default_rng(23)
        A = rng.normal(size=(6, 5, 5))
        rho = np.array([0.3, 0.9, 0.999, 0.99999, 1.001, 2.0])
        A *= (rho / np.abs(np.linalg.eigvals(A)).max(axis=-1))[:, None, None]
        assert schur_stable(A[:4])
        assert seen == []
        assert [schur_stable(A[j:j + 1]) for j in range(6)] == [True] * 4 \
            + [False] * 2
        assert not schur_stable(A)
        # the unstable slices pass 1e30 and go to the eigenvalues, alone
        assert [len(S) for S in seen] == [1, 1, 2]
        assert np.array_equal(seen[-1], A[4:])

    def test_large_transient_goes_to_eigenvalues(self, monkeypatch):
        # the first slice is stable, but max|A^(2^j)| passes 1e30 on its
        # first squarings; the second settles by squaring
        seen = recording(monkeypatch)
        A = np.array([[[0.5, 1e35], [0.0, 0.5]], [[0.6, 0.3], [0.0, 0.2]]])
        assert schur_stable(A)
        assert len(seen) == 1 and np.array_equal(seen[0], A[:1])
        A[0, 0, 0] = 1.5
        assert not schur_stable(A)

    def test_unsettled_powers_go_to_eigenvalues(self, monkeypatch):
        # a rotation's powers keep max|T| = 1: it never settles and never
        # grows, so the squarings run out and its eigenvalues decide
        seen = recording(monkeypatch)
        A = np.array([[[0.0, -1.0], [1.0, 0.0]]])
        assert not schur_stable(A)
        assert len(seen) == 1 and np.array_equal(seen[0], A)

    def test_non_finite_slice_is_not_stable(self, monkeypatch):
        seen = recording(monkeypatch)
        A = np.stack([0.5 * np.eye(2), np.full((2, 2), np.nan)])
        assert not schur_stable(A)
        assert seen == []

    def test_destabilized_gain_raises_through_eigenvalues(self, monkeypatch):
        # the returned gain, tripled, makes the first loop 1.5 + 3 F = -1.76
        # unstable; its powers pass 1e30 after seven squarings and its
        # eigenvalues refuse it, before anything overflows
        import wadc.synthesis as synthesis
        seen = recording(monkeypatch)
        gain_from = synthesis._gain_from
        monkeypatch.setattr(synthesis, "_gain_from",
                            lambda *args: 3.0 * gain_from(*args))
        A = np.array([[[1.5]], [[0.5]]])
        with pytest.raises(NotStabilizable, match="not Schur stable"):
            dare_solve(A, np.ones((2, 1, 1)), np.ones((2, 1, 1)),
                       np.zeros((2, 1, 1)), np.ones((2, 1, 1)))
        assert len(seen) == 1 and seen[0].shape == (1, 1, 1)
        assert seen[0][0, 0, 0] < -1.7


def reductions(monkeypatch):
    """Patch ``_max`` in the synthesis module to record, for each of
    ``stein_solve``'s reductions, "T" or "S" by the local it reduces and
    the stack's live size.  T is reduced once before the doubling loop and
    once on each doubling."""
    import wadc.synthesis as synthesis
    seen = []
    real = synthesis._max

    def recorded(X):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "stein_solve":
            name = "T" if X is caller.f_locals.get("T") else "S"
            seen.append((name, len(X)))
        return real(X)

    monkeypatch.setattr(synthesis, "_max", recorded)
    return seen


@pytest.mark.filterwarnings("error")
class TestSteinSkip:
    """``stein_solve`` reduces max|S| only on doublings where a slice can
    stop; the oracle reduces it on every doubling.  P, each slice's
    doubling count and every failure must be the same."""

    def check(self, monkeypatch, A, Q):
        seen = reductions(monkeypatch)
        P = stein_solve(A, Q)
        P_ref, counts = stein_every_doubling(A, Q)
        assert np.array_equal(P, P_ref)
        # the live stack size on each doubling pins every slice's count
        live = [k for name, k in seen if name == "T"][1:]
        assert live == [sum(c >= j for c in counts)
                        for j in range(1, max(counts) + 1)]
        return P, counts, sum(name == "S" for name, _ in seen)

    def test_random_stable_stacks(self, monkeypatch):
        rng = np.random.default_rng(21)
        for k, n in ((1, 3), (4, 5), (7, 9), (10, 13)):
            A = rng.normal(size=(k, n, n))
            rho = rng.uniform(0.2, 0.97, size=k)
            A *= (rho / np.abs(np.linalg.eigvals(A)).max(axis=-1))[:, None,
                                                                  None]
            L = rng.normal(size=(k, n, n))
            Q = L @ L.mT
            _, counts, s_reductions = self.check(monkeypatch, A, Q)
            # the reduction of S is skipped on most doublings
            assert s_reductions < max(counts)

    def test_zero_corner_entry_falls_through(self, monkeypatch):
        # A's first column and Q's first row and column are 0, so S[0, 0]
        # stays 0, its lower bound fails no slice, and every doubling
        # reduces max|S|
        rng = np.random.default_rng(22)
        A = rng.normal(size=(3, 4, 4))
        A *= 0.8 / np.abs(np.linalg.eigvals(A)).max(axis=-1)[:, None, None]
        A[:, :, 0] = 0.0
        L = rng.normal(size=(3, 4, 4))
        Q = L @ L.mT
        Q[:, 0, :] = Q[:, :, 0] = 0.0
        P, counts, s_reductions = self.check(monkeypatch, A, Q)
        assert not P[:, 0, 0].any()
        assert s_reductions == 1 + max(counts)

    def test_zero_cost_stops_at_once(self, monkeypatch):
        A = np.stack([np.diag([0.9, 0.8]), np.diag([0.5, 0.1])])
        P, counts, _ = self.check(monkeypatch, A, np.zeros((2, 2, 2)))
        assert counts == [1, 1] and not P.any()

    def test_large_powers_still_raise(self):
        A = np.stack([np.diag([0.5, 0.3]),
                      np.array([[1.5, 1.0], [0.0, 0.5]])])
        Q = np.stack([np.eye(2)] * 2)
        with pytest.raises(UnstableSystem):
            stein_every_doubling(A, Q)
        with pytest.raises(UnstableSystem):
            stein_solve(A, Q)

    def test_large_stable_transient(self, monkeypatch):
        A = np.array([[[0.5, 1e35], [0.0, 0.5]]])
        self.check(monkeypatch, A, np.eye(2)[None])
