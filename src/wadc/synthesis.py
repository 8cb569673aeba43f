"""Discrete-time gain synthesis on a lifted sampled system.

LQR gains come from the algebraic Riccati equation solved by a
structure-preserving doubling iteration, with a policy-iteration fallback
for the singular input-weight case that arises whenever the delay reaches
a full sampling period (the new input sample then carries no
within-interval cost).

``stein_solve``, ``dare_solve`` and ``lqr_design`` take stacks of
equal-size systems, (k, n, n) arrays as in ``np.linalg``; a 2-D call is
the stack of one.  A sweep designs the delays of one sampling interval,
whose lifted systems have one size, as one stack.  Each slice keeps its
own branch and stop tests and leaves the iteration once they pass.
numpy's ``matmul``, ``solve``, ``eigvals`` and ``eigvalsh`` make the same
BLAS or LAPACK call on each slice of a stack as on the matrix alone, and
the per-slice tests are the same float operations, so a stacked design is
bit-identical to its slices designed one at a time: stacking saves only
the per-call interpreter cost, which dominates on matrices this small.
Stacks are never padded, as other shapes would change the BLAS calls.

The smallest H-infinity level is exactly 0 when a static gain cancels the
output (zero wait); otherwise it is found by bisection down from the
decentralized level, the open-loop norm that the zero remote gain
certifies.  Each level solves the indefinite game Riccati equation once,
from SciPy's pencil with the disturbance scaled by 1/gamma; every
accepted design is certified independently by positivity pivots,
closed-loop stability and the closed-loop norm, so the Riccati backend
cannot silently return a wrong answer.  Norms come from one evaluator,
the level-set iteration on the unit circle in ``hinf_norm``.
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
_MAX_DOUBLINGS = 120   # Stein doublings per slice
_MAX_SDA_ITERS = 120   # Riccati doublings per slice
_MAX_NEWTON = 200      # policy-iteration steps per slice
_LARGE_POWER = 1e30    # max|A^(2^j)| that gets an eigenvalue check


def spectral_radius(A):
    """Largest eigenvalue magnitude of A, or over all slices of a stack."""
    return float(np.abs(np.linalg.eigvals(np.asarray(A, dtype=float))).max())


# Per-slice scalars are Python floats: on stacks of a few slices, float
# arithmetic costs less than numpy calls, and it rounds the same.
def _max(X):
    """Largest magnitude in each slice of a stack, as a list."""
    return np.abs(X).max(axis=(-2, -1)).tolist()


def _spread(w):
    """(smallest, 1 + largest magnitude) of the eigenvalues w of each
    slice."""
    return list(zip(w.min(axis=-1).tolist(),
                    (1.0 + np.abs(w).max(axis=-1)).tolist()))


def _set_aside(parts, done, live, X, *rest):
    """Take the slices flagged ``done`` out of the stack X, keeping them
    with their indices in ``parts``; return what stays of live, X and
    rest."""
    done = np.array(done)
    parts.append((live[done], X[done]))
    return [Y[~done] for Y in (live, X, *rest)]


def _gather(parts, live, X):
    """The stack of the slices set aside in ``parts`` and the live X."""
    if not parts:
        return X
    out = np.empty((len(live) + sum(len(i) for i, _ in parts),) + X.shape[1:])
    for idx, Y in parts + [(live, X)]:
        out[idx] = Y
    return out


def stein_solve(A, Q):
    """Solve P = A' P A + Q for Schur-stable A by Smith doubling.

    The doubling forms S = sum_{i < 2^j} (A^i)' Q A^i and T = A^(2^j); a
    slice stops once max|T|^2 max|S| <= 1e-18 (1 + max|Q|).  The same
    powers certify its stability: rho(A)^(2^j) = rho(T) <= n max|T|
    (Gelfand), so a slice that stops with n max|T| < 1/2 has rho(A) < 1,
    usually by nine orders of magnitude, and needs no eigenvalue solve.
    Only the slices that stop without that bound (Q = 0 stops at once) or
    use up the doublings get ``spectral_radius``, after the loop; a slice
    whose max|T| passes 1e30 gets it at once, so an unstable A raises
    ``UnstableSystem`` before anything overflows, and a stable A with a
    large transient doubles on to its stop.

    A and Q may be (k, n, n) stacks; each slice stops on its own test.
    """
    A = np.asarray(A, dtype=float)
    Q = np.asarray(Q, dtype=float)
    single = A.ndim == 2
    if single:
        A, Q = A[None], Q[None]
    bound = 0.5 / A.shape[-1]   # max|T| below this certifies the slice
    S = 0.5 * (Q + Q.mT)
    T = A.copy()
    tol = [1e-18 * (1.0 + s) for s in _max(S)]
    parts, live = [], np.arange(len(S))
    t = _max(T)
    sure = [False] * len(S)     # eigenvalues checked after a large power
    unsure = []                 # slices that stopped without the bound
    for _ in range(_MAX_DOUBLINGS):
        if max(t) > _LARGE_POWER:
            big = [x > _LARGE_POWER and not ok for x, ok in zip(t, sure)]
            if any(big):
                if spectral_radius(A[live[big]]) >= 1.0:
                    raise UnstableSystem(
                        "Stein equation needs a Schur-stable matrix")
                sure = [ok or b for ok, b in zip(sure, big)]
        S = S + T.mT @ S @ T
        T = T @ T
        # each slice's stop test, in floats as for one matrix; a lone
        # slice takes the whole-array maxima, its own and cheaper
        if len(live) == 1:
            t = [np.abs(T).max()]
            done = [t[0] ** 2 * np.abs(S).max() <= tol[0]]
        else:
            t = _max(T)
            done = [x ** 2 * s <= c for x, s, c in zip(t, _max(S), tol)]
        if any(done):
            unsure += [j for j, x, ok, d in zip(live.tolist(), t, sure, done)
                       if d and not (ok or x < bound)]
            if all(done):
                break
            tol, t, sure = ([v for v, d in zip(L, done) if not d]
                            for L in (tol, t, sure))
            live, S, T = _set_aside(parts, done, live, S, T)
    else:
        unsure += [j for j, ok in zip(live.tolist(), sure) if not ok]
    if unsure and spectral_radius(A[unsure]) >= 1.0:
        raise UnstableSystem("Stein equation needs a Schur-stable matrix")
    P = _gather(parts, live, S)
    P = 0.5 * (P + P.mT)
    return P[0] if single else P


def _solve(W, rhs):
    """``np.linalg.solve`` on each slice of a stack; a slice whose W is
    singular gets NaN instead of failing the whole stack."""
    try:
        return np.linalg.solve(W, rhs)
    except np.linalg.LinAlgError:
        x = np.full(rhs.shape, np.nan)
        for j in range(len(W)):
            try:
                x[j] = np.linalg.solve(W[j], rhs[j])
            except np.linalg.LinAlgError:
                pass
        return x


def _pinv_solve(H, rhs):
    """Solve H x = rhs on each slice of a stack, by least squares on a
    slice whose H is singular."""
    x = _solve(H, rhs)
    if not np.isfinite(x).all():
        for j in np.flatnonzero(~np.isfinite(x).all(axis=(-2, -1))):
            x[j] = np.linalg.lstsq(H[j], rhs[j], rcond=None)[0]
    return x


def dare_residual(A, B, Q, N, R, P):
    """Relative residual of the Riccati equation at P."""
    A, B, Q, N, R, P = (np.asarray(X, dtype=float)[None]
                        for X in (A, B, Q, N, R, P))
    return _residual(A, B, Q, N, P, R + B.mT @ P @ B)[0]


def _residual(A, B, Q, N, P, H):
    """``dare_residual`` of each slice given H = R + B'PB."""
    G = A.mT @ P @ B + N
    res = A.mT @ P @ A - P - G @ _pinv_solve(H, G.mT) + Q
    return [r / (1.0 + p) for r, p in zip(_max(res), _max(P))]


def _gain_from(A, B, N, P, H):
    """Gain F = -H^{-1}(B'PA + N') given H = R + B'PB."""
    return -_pinv_solve(H, B.mT @ P @ A + N.mT)


def _sda(A, G, H):
    """Doubling iteration for P = A' P (I + G P)^{-1} A + H on each slice.

    Returns the last iterates and the list of slices that broke down (a
    singular pivot, or a diverged iterate).
    """
    n = A.shape[-1]
    parts, broke, live = [], [], np.arange(len(H))
    Ak, Gk, Hk = A.copy(), G.copy(), H.copy()
    for _ in range(_MAX_SDA_ITERS):
        W = np.eye(n) + Gk @ Hk
        Wia = _solve(W, Ak)
        WiG = _solve(W, Gk)
        H_new = Hk + Ak.mT @ Hk @ Wia
        G_new = Gk + Ak @ WiG @ Ak.mT
        A_new = Ak @ Wia
        step = _max(H_new - Hk)
        Ak, Gk, Hk = A_new, 0.5 * (G_new + G_new.mT), 0.5 * (H_new + H_new.mT)
        bad = (~np.isfinite(Hk).all(axis=(-2, -1))).tolist()
        broke += [j for j, b in zip(live.tolist(), bad) if b]
        done = [b or (s <= 1e-16 * (1.0 + h) and a < 1e-8) for b, s, h, a
                in zip(bad, step, _max(Hk), _max(Ak))]
        if all(done):
            break
        if any(done):
            live, Hk, Ak, Gk = _set_aside(parts, done, live, Hk, Ak, Gk)
    return _gather(parts, live, Hk), broke


def _policy_iteration(A, B, Q, N, R):
    """Newton (policy) iteration from the zero gain on each slice; needs
    stable A.  Each closed loop A + B F, A first, is checked by the
    ``stein_solve`` that evaluates it: by its doubling's power bound, with
    eigenvalues only as the fallback.  A slice stops once its residual is
    small."""
    k, n, m = B.shape
    F = np.zeros((k, m, n))
    parts, live = [], np.arange(k)
    for _ in range(_MAX_NEWTON):
        A_cl = A + B @ F
        Q_cl = Q + N @ F + F.mT @ N.mT + F.mT @ R @ F
        try:
            P = stein_solve(A_cl, Q_cl)
        except UnstableSystem:
            raise NotStabilizable("policy iteration lost stability") from None
        H = R + B.mT @ P @ B
        done = [r <= _RESIDUAL_TOL for r in _residual(A, B, Q, N, P, H)]
        if all(done):
            return _gather(parts, live, P)
        if any(done):
            live, P, A, B, Q, N, R, H = _set_aside(
                parts, done, live, P, A, B, Q, N, R, H)
        F = _gain_from(A, B, N, P, H)
    raise NotStabilizable("policy iteration did not converge")


def dare_solve(A, B, Q, N=None, R=None):
    """Stabilizing solution of
    A'PA - P - (A'PB + N)(B'PB + R)^{-1}(B'PA + N') + Q = 0.

    Doubling on the cross-term-reduced form when R is positive definite;
    otherwise, or when doubling fails, policy iteration from the zero gain,
    so a singular R needs a Schur-stable A (the lifted plant here is always
    pre-stabilized).  Convergence is declared on the equation residual.
    Policy iteration's closed loops are certified stable by their
    ``stein_solve`` doubling, which computes eigenvalues only when its
    power bound fails; the returned gain's loop gets an eigenvalue check
    here, independent of the solver.  The arguments may be stacks
    of k equations of one size, (k, n, n) and so on; each slice takes its
    own branch, and a failure of any slice raises for the stack.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    single = A.ndim == 2
    if single:
        A = A[None]
    k, n = A.shape[:2]
    B = np.asarray(B, dtype=float).reshape(k, n, -1)
    m = B.shape[2]
    Q = np.asarray(Q, dtype=float).reshape(k, n, n)
    Q = 0.5 * (Q + Q.mT)
    N = (np.zeros((k, n, m)) if N is None
         else np.asarray(N, dtype=float).reshape(k, n, m))
    R = (np.zeros((k, m, m)) if R is None
         else np.asarray(R, dtype=float).reshape(k, m, m))
    R = 0.5 * (R + R.mT)

    r_spread = _spread(np.linalg.eigvalsh(R))
    if any(lo < -1e-10 * top for lo, top in r_spread):
        raise IndefiniteCost("input-weight block has a negative eigenvalue")

    P = np.empty((k, n, n))
    sda = [j for j, (lo, top) in enumerate(r_spread) if lo > 1e-12 * top]
    newton = [j for j in range(k) if j not in sda]
    if sda:
        # complete the square to remove the cross term, then double
        As, Bs, Qs, Ns, Rs = (X[sda] for X in (A, B, Q, N, R))
        Rinv_Nt = np.linalg.solve(Rs, Ns.mT)
        A_red = As - Bs @ Rinv_Nt
        Q_red = Qs - Ns @ Rinv_Nt
        Q_red = 0.5 * (Q_red + Q_red.mT)
        G = Bs @ np.linalg.solve(Rs, Bs.mT)
        Ps, broke = _sda(A_red, 0.5 * (G + G.mT), Q_red)
        newton += [sda[i] for i in broke]
        ok = [i for i in range(len(sda)) if i not in broke]
        As, Bs, Qs, Ns, Rs, Ps = (X[ok] for X in (As, Bs, Qs, Ns, Rs, Ps))
        res = _residual(As, Bs, Qs, Ns, Ps, Rs + Bs.mT @ Ps @ Bs)
        for i, r, Pi in zip(ok, res, Ps):
            if r <= _RESIDUAL_TOL:
                P[sda[i]] = Pi
            else:
                newton.append(sda[i])
    if newton:
        try:
            P[newton] = _policy_iteration(
                *(X[newton] for X in (A, B, Q, N, R)))
        except NotStabilizable:
            raise NotStabilizable(
                "neither the doubling iteration (SDA) nor policy iteration "
                "converged; a singular input weight needs a Schur-stable A"
            ) from None

    P = 0.5 * (P + P.mT)
    H = R + B.mT @ P @ B
    if any(lo < -1e-9 * top
           for lo, top in _spread(np.linalg.eigvalsh(0.5 * (H + H.mT)))):
        raise IndefiniteCost("R + B'PB pivot is indefinite at the solution")
    F = _gain_from(A, B, N, P, H)
    if spectral_radius(A + B @ F) >= 1.0:
        raise NotStabilizable("closed loop is not Schur stable")
    return P[0] if single else P


@dataclass(frozen=True)
class LqrResult:
    """Optimal sampled state feedback u_k = F z_k with value z0' P z0."""

    F: np.ndarray
    P: np.ndarray

    def J_star(self, z0):
        z0 = np.asarray(z0, dtype=float).reshape(-1)
        return float(z0 @ self.P @ z0)


def lqr_design(disc):
    """Design the cost-minimizing feedback for the lifted discrete system.

    ``disc`` is one ``DiscretizedSystem`` or a sequence of them with one
    lifted size, designed as one stack; the result is one ``LqrResult``
    or a list of them, in order.
    """
    discs = [disc] if isinstance(disc, DiscretizedSystem) else list(disc)
    A, B, Q, N, R = (np.array([getattr(d, name) for d in discs])
                     for name in ("A2", "B2u", "Q2", "N2", "R2"))
    stacked = np.concatenate([np.concatenate([Q, N], axis=-1),
                              np.concatenate([N.mT, R], axis=-1)], axis=-2)
    if any(lo < -1e-9 * top for lo, top in
           _spread(np.linalg.eigvalsh(0.5 * (stacked + stacked.mT)))):
        raise IndefiniteCost("lifted cost matrix is not positive semidefinite")
    P = dare_solve(A, B, Q, N, R)
    F = _gain_from(A, B, N, P, R + B.mT @ P @ B)
    results = [LqrResult(F=f, P=p) for f, p in zip(F, P)]
    return results[0] if isinstance(disc, DiscretizedSystem) else results


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
    lam = np.linalg.eigvals(A)
    rho = np.abs(lam).max()
    if rho >= 1.0:
        raise UnstableSystem(f"spectral radius {rho:.6f} >= 1")
    if not B.any() or not C.any():
        return float(np.linalg.svd(D, compute_uv=False).max()) if D.size else 0.0
    n, m = B.shape
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
    design is the first witness; when that norm is exactly 0 (no
    disturbance reaches the output) the level is 0 with the zero gain.
    This needs a Schur-stable A2 (``hinf_norm`` raises ``UnstableSystem``
    otherwise, with or without a disturbance path); every lifted mode
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
    F_zero = np.zeros((disc.n_u, disc.n_z))
    if base == 0.0:
        return 0.0, HinfResult(F=F_zero, gamma=0.0, norm=0.0)
    hi = max(base * (1.0 + tol), 1e-12)
    best = HinfResult(F=F_zero, gamma=hi, norm=base)
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
