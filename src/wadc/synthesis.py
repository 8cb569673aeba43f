"""Discrete-time gain synthesis on a lifted sampled system.

LQR gains come from the algebraic Riccati equation solved by a
structure-preserving doubling iteration, with a policy-iteration fallback
for the singular input-weight case that arises whenever the delay reaches
a full sampling period (the new input sample then carries no
within-interval cost).  The smallest H-infinity level is exactly 0 when a
static gain cancels the output (zero wait); otherwise it is found by
bisection down from the decentralized level, the open-loop norm that the
zero remote gain certifies.  Each level solves the indefinite game Riccati
equation once, from SciPy's pencil with the disturbance scaled by
1/gamma; every accepted design is certified independently by positivity
pivots, closed-loop stability and the closed-loop norm, so the Riccati
backend cannot silently return a wrong answer.  Norms come from one
evaluator, the level-set iteration on the unit circle in ``hinf_norm``.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    GammaInfeasible,
    IndefiniteCost,
    NotStabilizable,
    UnstableSystem,
)
from .sampled import DiscretizedSystem

__all__ = [
    "LqrResult",
    "HinfResult",
    "stein_solve",
    "dare_solve",
    "dare_residual",
    "lqr_design",
    "hinf_design",
    "gamma_min",
    "hinf_norm",
]

_RESIDUAL_TOL = 1e-9


def spectral_radius(A):
    A = np.asarray(A, dtype=float)
    if A.size == 0:
        return 0.0
    return float(np.abs(np.linalg.eigvals(A)).max())


def stein_solve(A, Q, max_doublings=120):
    """Solve P = A' P A + Q for Schur-stable A by doubling."""
    A = np.asarray(A, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if spectral_radius(A) >= 1.0:
        raise UnstableSystem("Stein equation needs a Schur-stable matrix")
    S = 0.5 * (Q + Q.T)
    T = A.copy()
    scale = 1.0 + np.abs(S).max()
    for _ in range(max_doublings):
        S = S + T.T @ S @ T
        T = T @ T
        if np.abs(T).max() ** 2 * np.abs(S).max() <= 1e-18 * scale:
            break
    return 0.5 * (S + S.T)


def _pinv_solve(H, rhs):
    """Solve H x = rhs, falling back to least squares when H is singular."""
    try:
        x = np.linalg.solve(H, rhs)
        if np.isfinite(x).all():
            return x
    except np.linalg.LinAlgError:
        pass
    return np.linalg.lstsq(H, rhs, rcond=None)[0]


def dare_residual(A, B, Q, N, R, P):
    """Relative residual of the Riccati equation at P."""
    return _residual(A, B, Q, N, P, R + B.T @ P @ B)


def _residual(A, B, Q, N, P, H):
    """``dare_residual`` given H = R + B'PB."""
    G = A.T @ P @ B + N
    res = A.T @ P @ A - P - G @ _pinv_solve(H, G.T) + Q
    return np.abs(res).max() / (1.0 + np.abs(P).max())


def _gain_from(A, B, N, P, H):
    """Gain F = -H^{-1}(B'PA + N') given H = R + B'PB."""
    return -_pinv_solve(H, B.T @ P @ A + N.T)


def _sda(A, G, H, max_iters=120):
    """Doubling iteration for P = A' P (I + G P)^{-1} A + H."""
    n = A.shape[0]
    Ak, Gk, Hk = A.copy(), G.copy(), H.copy()
    for _ in range(max_iters):
        W = np.eye(n) + Gk @ Hk
        try:
            Wia = np.linalg.solve(W, Ak)
            WiG = np.linalg.solve(W, Gk)
        except np.linalg.LinAlgError:
            raise NotStabilizable("doubling iteration pivot breakdown")
        H_new = Hk + Ak.T @ Hk @ Wia
        G_new = Gk + Ak @ WiG @ Ak.T
        A_new = Ak @ Wia
        step = np.abs(H_new - Hk).max()
        Ak, Gk, Hk = A_new, 0.5 * (G_new + G_new.T), 0.5 * (H_new + H_new.T)
        if not np.isfinite(Hk).all():
            raise NotStabilizable("doubling iteration diverged")
        if step <= 1e-16 * (1.0 + np.abs(Hk).max()) and np.abs(Ak).max() < 1e-8:
            break
    return Hk


def _policy_iteration(A, B, Q, N, R, max_iters=200):
    """Newton (policy) iteration from the zero gain; needs stable A.  Each
    closed loop A + B F, A first, is checked once, by its ``stein_solve``."""
    n, m = A.shape[0], B.shape[1]
    F = np.zeros((m, n))
    for _ in range(max_iters):
        A_cl = A + B @ F
        Q_cl = Q + N @ F + F.T @ N.T + F.T @ R @ F
        try:
            P = stein_solve(A_cl, Q_cl)
        except UnstableSystem:
            raise NotStabilizable("policy iteration lost stability") from None
        H = R + B.T @ P @ B
        if _residual(A, B, Q, N, P, H) <= _RESIDUAL_TOL:
            return P
        F = _gain_from(A, B, N, P, H)
    raise NotStabilizable("policy iteration did not converge")


def dare_solve(A, B, Q, N=None, R=None):
    """Stabilizing solution of
    A'PA - P - (A'PB + N)(B'PB + R)^{-1}(B'PA + N') + Q = 0.

    Doubling on the cross-term-reduced form when R is positive definite;
    otherwise policy iteration from the zero gain, so a singular R needs a
    Schur-stable A (the lifted plant here is always pre-stabilized).
    Convergence is declared on the equation residual.  Each closed loop's
    stability is checked once: policy iteration's by its ``stein_solve``,
    the returned gain's here.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if B.shape[0] != A.shape[0]:
        B = B.reshape(A.shape[0], -1)
    n, m = A.shape[0], B.shape[1]
    Q = 0.5 * (np.asarray(Q, dtype=float).reshape(n, n)
               + np.asarray(Q, dtype=float).reshape(n, n).T)
    N = (np.zeros((n, m)) if N is None
         else np.asarray(N, dtype=float).reshape(n, m))
    R = (np.zeros((m, m)) if R is None
         else np.asarray(R, dtype=float).reshape(m, m))
    R = 0.5 * (R + R.T)

    r_eigs = np.linalg.eigvalsh(R)
    r_scale = 1.0 + np.abs(r_eigs).max()
    if r_eigs.min() < -1e-10 * r_scale:
        raise IndefiniteCost("input-weight block has a negative eigenvalue")

    P = None
    if r_eigs.min() > 1e-12 * r_scale:
        # complete the square to remove the cross term, then double
        Rinv_Nt = np.linalg.solve(R, N.T)
        A_red = A - B @ Rinv_Nt
        Q_red = Q - N @ Rinv_Nt
        Q_red = 0.5 * (Q_red + Q_red.T)
        G = B @ np.linalg.solve(R, B.T)
        try:
            P = _sda(A_red, 0.5 * (G + G.T), Q_red)
            if dare_residual(A, B, Q, N, R, P) > _RESIDUAL_TOL:
                P = None
        except NotStabilizable:
            P = None
    if P is None:
        try:
            P = _policy_iteration(A, B, Q, N, R)
        except NotStabilizable:
            raise NotStabilizable(
                "neither the doubling iteration (SDA) nor policy iteration "
                "converged; a singular input weight needs a Schur-stable A"
            ) from None

    P = 0.5 * (P + P.T)
    H = R + B.T @ P @ B
    piv = np.linalg.eigvalsh(0.5 * (H + H.T))
    if piv.min() < -1e-9 * (1.0 + np.abs(piv).max()):
        raise IndefiniteCost("R + B'PB pivot is indefinite at the solution")
    F = _gain_from(A, B, N, P, H)
    if spectral_radius(A + B @ F) >= 1.0:
        raise NotStabilizable("closed loop is not Schur stable")
    return P


@dataclass(frozen=True)
class LqrResult:
    """Optimal sampled state feedback u_k = F z_k with value z0' P z0."""

    F: np.ndarray
    P: np.ndarray

    def J_star(self, z0):
        z0 = np.asarray(z0, dtype=float).reshape(-1)
        return float(z0 @ self.P @ z0)


def lqr_design(disc: DiscretizedSystem) -> LqrResult:
    """Design the cost-minimizing feedback for the lifted discrete system."""
    stacked = np.block([[disc.Q2, disc.N2], [disc.N2.T, disc.R2]])
    w = np.linalg.eigvalsh(0.5 * (stacked + stacked.T))
    if w.min() < -1e-9 * (1.0 + np.abs(w).max()):
        raise IndefiniteCost("lifted cost matrix is not positive semidefinite")
    P = dare_solve(disc.A2, disc.B2u, disc.Q2, disc.N2, disc.R2)
    F = _gain_from(disc.A2, disc.B2u, disc.N2, P,
                   disc.R2 + disc.B2u.T @ P @ disc.B2u)
    return LqrResult(F=F, P=P)


def _sigma_max(A, B, C, D, thetas):
    """sigma_max(C (e^{j theta} I - A)^{-1} B + D) at each angle."""
    zs = np.exp(1j * np.asarray(thetas, dtype=float))
    M = zs[:, None, None] * np.eye(A.shape[0]) - A
    X = np.linalg.solve(M, np.broadcast_to(B, (len(zs), *B.shape)))
    return np.linalg.svd(C @ X + D, compute_uv=False)[:, 0]


def hinf_norm(A, B, C, D):
    """Peak of sigma_max(C (e^{j theta} I - A)^{-1} B + D) on the unit circle.

    Level-set iteration (Boyd, Balakrishnan & Kabamba 1989; Bruinsma &
    Steinbuch 1990) in discrete time.  The lower bound starts as the
    largest sigma_max at the pole angles and at n + 2 equally spaced angles
    in [0, pi], where a nonzero T cannot vanish everywhere.  At the level
    g = (1 + 2e-10) times the bound, the unit-circle eigenvalues of the
    level's symplectic pencil are the angles where g is a singular value;
    sorted, they bracket every arc where sigma_max exceeds g, so the
    largest sigma_max at their midpoints raises the bound past g.  When no
    midpoint reaches g, the bound is the norm to that relative accuracy.
    B and C are balanced by one scalar and the pencil is formed for T / g,
    so loops whose norm is many orders below their data stay well scaled.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    D = np.atleast_2d(np.asarray(D, dtype=float))
    if not B.any() or not C.any():
        return float(np.linalg.svd(D, compute_uv=False).max()) if D.size else 0.0
    n, m = B.shape
    lam = np.linalg.eigvals(A)
    rho = np.abs(lam).max()
    if rho >= 1.0:
        raise UnstableSystem(f"spectral radius {rho:.6f} >= 1")
    s = np.sqrt(np.linalg.norm(C) / np.linalg.norm(B))
    B, C = B * s, C / s
    thetas = np.concatenate([np.linspace(0.0, np.pi, n + 2),
                             np.abs(np.angle(lam))])
    lb = float(_sigma_max(A, B, C, D, thetas).max())
    I, O, Onm = np.eye(n), np.zeros((n, n)), np.zeros((n, m))
    while lb > 0.0:
        g = (1.0 + 2e-10) * lb
        b, d = B / g, D / g
        # pencil M - z N in (x, p, u) for T / g with y = C x + d u:
        # z x = A x + b u, p = z (A' p + C' y), 0 = b' p + d' y - u
        M = np.block([[A, O, b], [O, -I, Onm],
                      [d.T @ C, b.T, d.T @ d - np.eye(m)]])
        N = np.block([[I, O, Onm], [-C.T @ C, -A.T, -C.T @ d],
                      [np.zeros((m, 2 * n + m))]])
        alpha, beta = scipy.linalg.eigvals(M, N, homogeneous_eigvals=True)
        circle = np.abs(np.abs(alpha) - np.abs(beta)) < 1e-8 * np.abs(beta)
        cross = np.unique(np.abs(np.angle(alpha[circle] / beta[circle])))
        if len(cross) < 2:
            break
        top = float(_sigma_max(A, B, C, D,
                               0.5 * (cross[1:] + cross[:-1])).max())
        if top < g:
            break
        lb = top
    return lb


@dataclass(frozen=True)
class HinfResult:
    """Certified attenuation design: u_k = F z_k keeps the closed-loop
    disturbance-to-output norm below gamma."""

    F: np.ndarray
    gamma: float
    norm: float


def _game_blocks(disc, P, gamma):
    """One block elimination of the game Riccati map at P.

    Returns (P_next, X, H1, H3): the map's value at P, the control part X
    of the solution of the stacked pivot system, the control pivot H1 (a
    Schur complement through H3) and the disturbance pivot H3.  The two
    diagonal blocks of the stacked pivot differ by a factor of gamma^2, so
    a joint factorization loses the control block; eliminating through H3
    stays well scaled at any gamma and gives the published gain formula,
    u = -X z.
    """
    PBu, PBw = P @ disc.B2u, P @ disc.B2w
    H2 = disc.B2u.T @ PBw + disc.D2u.T @ disc.D2w
    H3 = gamma ** 2 * np.eye(disc.n_w) - disc.D2w.T @ disc.D2w \
        - disc.B2w.T @ PBw
    H3 = 0.5 * (H3 + H3.T)
    H1 = disc.B2u.T @ PBu + disc.D2u.T @ disc.D2u \
        + H2 @ np.linalg.solve(H3, H2.T)
    H1 = 0.5 * (H1 + H1.T)
    H5u = PBu.T @ disc.A2 + disc.D2u.T @ disc.C2
    H5w = PBw.T @ disc.A2 + disc.D2w.T @ disc.C2
    X = np.linalg.solve(H1, H5u + H2 @ np.linalg.solve(H3, H5w))
    Y = np.linalg.solve(H3, H2.T @ X - H5w)
    P_next = disc.A2.T @ P @ disc.A2 + disc.C2.T @ disc.C2 \
        - H5u.T @ X - H5w.T @ Y
    return 0.5 * (P_next + P_next.T), X, H1, H3


def hinf_design(disc: DiscretizedSystem, gamma) -> HinfResult:
    """State-feedback design guaranteeing closed-loop norm below gamma.

    Solves the game Riccati equation once, from SciPy's pencil with the
    disturbance scaled by 1/gamma (the same solution as the unscaled game,
    with both input blocks of one order), and checks, in order: equation
    residual, P positive semidefinite, disturbance pivot H3 positive
    definite, control pivot H1 positive definite, closed-loop Schur
    stability, and the certified unit-circle norm.  A level that fails
    any of these is infeasible.
    """
    gamma = float(gamma)
    if gamma <= 0.0:
        raise GammaInfeasible("gamma_nonpositive")
    w0 = np.linalg.eigvalsh(
        gamma ** 2 * np.eye(disc.n_w) - disc.D2w.T @ disc.D2w)
    if w0.min() <= 0.0:
        raise GammaInfeasible("H3", "gamma below the static gain of D2w")

    B2 = np.hstack([disc.B2u, disc.B2w / gamma])
    D2 = np.hstack([disc.D2u, disc.D2w / gamma])
    R = D2.T @ D2
    R[disc.n_u:, disc.n_u:] -= np.eye(disc.n_w)
    try:
        P = scipy.linalg.solve_discrete_are(
            disc.A2, B2, disc.C2.T @ disc.C2, R, s=disc.C2.T @ D2)
        P = 0.5 * (P + P.T)
        if not np.isfinite(P).all():
            raise GammaInfeasible("riccati_nonfinite")
        P_next, X, H1, H3 = _game_blocks(disc, P, gamma)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise GammaInfeasible("riccati_pencil", str(exc)) from None
    residual = np.abs(P_next - P).max() / (1.0 + np.abs(P).max())
    if not residual <= 1e-8:
        raise GammaInfeasible("riccati_residual", f"{residual:.3e}")
    if np.linalg.eigvalsh(P).min() < -1e-6 * max(1.0, np.abs(P).max()):
        raise GammaInfeasible("P_not_psd")
    for name, H in (("H3", H3), ("H1", H1)):
        h_min = np.linalg.eigvalsh(H).min()
        if h_min <= 0.0:
            raise GammaInfeasible(name, f"min eigenvalue {h_min:.3e}")

    F = -X
    A_cl = disc.A2 + disc.B2u @ F
    if spectral_radius(A_cl) >= 1.0:
        raise GammaInfeasible("closed_loop_unstable")
    norm = hinf_norm(A_cl, disc.B2w, disc.C2 + disc.D2u @ F, disc.D2w)
    if norm >= gamma:
        raise GammaInfeasible("norm_not_below_gamma")
    return HinfResult(F=F, gamma=gamma, norm=norm)


def gamma_min(disc: DiscretizedSystem, tol=1e-3):
    """Smallest certifiable attenuation level by bisection.

    When the output can be cancelled (D2w = 0 and F0 = -D2u^+ C2 leaves
    C2 + D2u F0 at 1e-12 of C2 with a Schur-stable loop, as at zero wait),
    the level is exactly 0 with F0 as its witness, whose ``norm`` is the
    evaluator's rounding-level value on that loop.  Otherwise the top of
    the bracket is the decentralized level: the open-loop norm of the
    lifted mode, which the zero remote gain certifies, so that no-control
    design is the first witness.  This needs a Schur-stable A2
    (``hinf_norm`` raises ``UnstableSystem`` otherwise); every lifted mode
    has one, since its local loop is Hurwitz and its input memory a
    nilpotent shift.  Bisects down from there against the largest known
    infeasible level until the bracket ratio falls below 1 + tol, or the
    top reaches 1e-12 of where it started.  Returns the top of the bracket
    and the last certified design.
    """
    tol = float(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not disc.D2w.any():
        F0 = -np.linalg.pinv(disc.D2u) @ disc.C2
        A0, C0 = disc.A2 + disc.B2u @ F0, disc.C2 + disc.D2u @ F0
        if (np.linalg.norm(C0) <= 1e-12 * np.linalg.norm(disc.C2)
                and spectral_radius(A0) < 1.0):
            norm = hinf_norm(A0, disc.B2w, C0, disc.D2w)
            return 0.0, HinfResult(F=F0, gamma=0.0, norm=norm)
    base = hinf_norm(disc.A2, disc.B2w, disc.C2, disc.D2w)
    hi = max(base * (1.0 + tol), 1e-12)
    best = HinfResult(F=np.zeros((disc.n_u, disc.n_z)), gamma=hi, norm=base)
    lo = 0.0
    floor = 1e-12 * hi
    for _ in range(200):
        if (lo > 0.0 and hi / lo <= 1.0 + tol) or hi <= floor:
            break
        mid = 0.5 * (lo + hi)
        try:
            best = hinf_design(disc, mid)
            hi = mid
        except GammaInfeasible:
            lo = mid
    return hi, best
