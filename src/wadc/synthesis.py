"""Discrete-time gain synthesis on a lifted sampled system.

LQR gains come from the algebraic Riccati equation, solved by doubling
when the input weight R is positive definite and by policy iteration when
R is singular, as whenever the delay reaches a full sampling period (the
new input sample then carries no within-interval cost).  These are
branches, not fallbacks: a failed doubling fails its stack.

``stein_solve``, ``dare_solve`` and ``lqr_design`` take only stacks of
equal-size systems, (k, n, n) arrays as in ``np.linalg``; one system is
a stack of one.  A sweep designs the delays of one sampling interval,
whose lifted systems have one size, as one stack, and designs its rows
again one at a time if the stack fails.  Each slice keeps its own branch
and stop tests and leaves the iteration once they pass.
numpy's ``matmul``, ``solve``, ``eigvals`` and ``eigvalsh`` make the same
BLAS or LAPACK call on each slice of a stack as on the matrix alone, and
the per-slice tests are the same float operations, so a stacked design is
bit-identical to its slices designed one at a time: stacking saves only
the per-call interpreter cost, which dominates on matrices this small.
Stacks are never padded, as other shapes would change the BLAS calls.

The smallest H-infinity level is exactly 0 when a static gain cancels the
output (zero wait); otherwise it is bracketed between the gain of the
delay window, the outputs no command reaches yet, which no feedback can
lower, and the decentralized level, the open-loop norm that the zero
remote gain certifies.  The top of the bracket is always a certified
closed-loop norm; the first level tried is the one that closes the
bracket if it is certified, and midpoints of the bracket follow when it
is not.  Each level solves the indefinite game Riccati equation once,
from SciPy's pencil with the disturbance scaled by 1/gamma, whose
residual and gain the LQR code reads from its one pivot R + B'PB; every
accepted design is certified by the inertia of that pivot, closed-loop
stability and the closed-loop norm, so the Riccati backend cannot
silently return a wrong answer.  Norms come from one evaluator, the
level-set iteration on the unit circle in ``hinf_norm``, which also
certifies stability.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    GammaInfeasible,
    IndefiniteCost,
    NonFiniteCost,
    NonFiniteModel,
    NotStabilizable,
    UnstableSystem,
)
from .sampled import DiscretizedSystem

__all__ = [
    "LqrResult",
    "HinfResult",
    "stein_solve",
    "dare_solve",
    "lqr_design",
    "hinf_design",
    "gamma_min",
    "hinf_norm",
]

_RESIDUAL_TOL = 1e-9
_MAX_DOUBLINGS = 120   # Stein doublings or loop squarings per slice
_MAX_SDA_ITERS = 120   # Riccati doublings per slice
_MAX_NEWTON = 200      # policy-iteration steps per slice
_LARGE_POWER = 1e30    # max|A^(2^j)| that gets an eigenvalue check
_NORM_ACCURACY = 1.0 + 2e-10  # hinf_norm's relative certificate
_SDA_FAILED = ("doubling (SDA) ended with %s: (A, B) is not stabilizable "
               "or Q hides an unstable mode")


def finite_cost(value):
    """``value``, refused unless it is a finite number."""
    if not np.isfinite(value):
        raise NonFiniteCost(f"a cost came out {value!r}; scale down "
                            "[scenario] initial_state or impulse_amp_A")
    return value


def quadratic_cost(z, P):
    """z' P z, refused if it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return finite_cost(float(z @ P @ z))


def spectral_radius(A):
    """Largest eigenvalue magnitude of A, or over all slices of a stack."""
    return float(np.abs(np.linalg.eigvals(np.asarray(A, dtype=float))).max())


def schur_stable(A):
    """Whether every slice of the stack A is Schur stable, certified by its
    own powers: rho(A)^(2^j) = rho(T) <= n max|T| for T = A^(2^j)
    (Gelfand), so squaring T <- T @ T until n max|T| < 1/2 proves
    rho(A) < 1, the rule and bound of ``stein_solve``.  A slice whose
    max|T| passes 1e30 (an unstable one does, long before it overflows),
    is not finite, or has not settled after ``_MAX_DOUBLINGS`` squarings
    leaves the squaring for ``spectral_radius``, called once after the
    loop on those slices alone; a slice of A that is not finite is not
    stable."""
    A = np.asarray(A, dtype=float)
    bound = 0.5 / A.shape[-1]   # max|T| below this certifies the slice
    T, live, unsure = A, list(range(len(A))), []
    for j in range(_MAX_DOUBLINGS + 1):
        t = _max(T)
        keep = [bound <= x <= _LARGE_POWER and j < _MAX_DOUBLINGS
                for x in t]
        if not all(keep):
            unsure += [i for i, x, k in zip(live, t, keep)
                       if not (k or x < bound)]
            live = [i for i, k in zip(live, keep) if k]
            if not live:
                break
            T = T[np.array(keep)]
        T = T @ T
    if not unsure:
        return True
    U = A[sorted(unsure)]
    return bool(np.isfinite(U).all()) and spectral_radius(U) < 1.0


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


def _retire(out, done, live, X, *rest):
    """Write the slices flagged ``done`` of the stack X into ``out`` at
    their indices ``live``; return what stays of live, X and rest."""
    done = np.array(done)
    out[live[done]] = X[done]
    return [Y[~done] for Y in (live, X, *rest)]


def stein_solve(A, Q):
    """Solve P = A' P A + Q for Schur-stable A by Smith doubling.

    Each slice of Q is scaled by 2^-e to max|Q| in [0.5, 1) and its P back
    by 2^e, both exactly; Q below is the scaled one, so the stop is relative
    to Q's scale.  The doubling forms S = sum_{i < 2^j} (A^i)' Q A^i and
    T = A^(2^j); a slice stops once max|T|^2 max|S| <= 1e-18 (1 + max|Q|),
    and max|S| is reduced only on doublings where its lower bound |S[0, 0]|
    does not already fail that test for every slice.  The same
    powers certify its stability: rho(A)^(2^j) = rho(T) <= n max|T|
    (Gelfand), so a slice that stops with n max|T| < 1/2 has rho(A) < 1,
    usually by nine orders of magnitude, and needs no eigenvalue solve.
    Only the slices that stop without that bound (Q = 0 stops at once) or
    use up the doublings get ``spectral_radius``, after the loop; a slice
    whose max|T| passes 1e30 gets it at once, so an unstable A raises
    ``UnstableSystem`` before anything overflows, and a stable A with a
    large transient doubles on to its stop.

    A and Q are (k, n, n) stacks; each slice stops on its own test.
    """
    A = np.asarray(A, dtype=float)
    Q = np.asarray(Q, dtype=float)
    e = np.frexp(np.abs(Q).max(axis=(-2, -1)))[1][:, None, None]
    Q = np.ldexp(Q, -e)
    bound = 0.5 / A.shape[-1]   # max|T| below this certifies the slice
    S = 0.5 * (Q + Q.mT)
    T = A.copy()
    tol = [1e-18 * (1.0 + s) for s in _max(S)]
    P, live = np.empty(S.shape), np.arange(len(S))
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
        # each slice's stop test, in floats as for one matrix.  Rounding is
        # monotone, so a slice that fails it with |S[0, 0]| <= max|S| in
        # place of max|S| fails it with max|S| too; max|S| is needed only
        # when some slice does not fail with |S[0, 0]| (a NaN product
        # does not)
        t = _max(T)
        if all(x ** 2 * abs(s) > c for x, s, c in zip(t, S[:, 0, 0].tolist(),
                                                      tol)):
            continue
        done = [x ** 2 * s <= c for x, s, c in zip(t, _max(S), tol)]
        if any(done):
            unsure += [j for j, x, ok, d in zip(live.tolist(), t, sure, done)
                       if d and not (ok or x < bound)]
            if all(done):
                break
            tol, t, sure = ([v for v, d in zip(L, done) if not d]
                            for L in (tol, t, sure))
            live, S, T = _retire(P, done, live, S, T)
    else:
        unsure += [j for j, ok in zip(live.tolist(), sure) if not ok]
    if unsure and spectral_radius(A[unsure]) >= 1.0:
        raise UnstableSystem("Stein equation needs a Schur-stable matrix")
    P[live] = S
    return np.ldexp(0.5 * (P + P.mT), e)


def _pinv_solve(H, rhs):
    """Solve H x = rhs on each slice of a stack, by least squares on a
    slice whose H is singular or whose solution is not finite."""
    try:
        x = np.linalg.solve(H, rhs)
    except np.linalg.LinAlgError:   # a singular slice fails the whole call
        x = np.full(rhs.shape, np.nan)
        for j in range(len(H)):
            try:
                x[j] = np.linalg.solve(H[j], rhs[j])
            except np.linalg.LinAlgError:
                pass
    for j in np.flatnonzero(~np.isfinite(x).all(axis=(-2, -1))):
        x[j] = np.linalg.lstsq(H[j], rhs[j], rcond=None)[0]
    return x


def _residual(A, B, Q, N, P, H):
    """Relative residual of the Riccati equation at P on each slice, given
    H = R + B'PB."""
    G = A.mT @ P @ B + N
    res = A.mT @ P @ A - P - G @ _pinv_solve(H, G.mT) + Q
    return [r / (1.0 + p) for r, p in zip(_max(res), _max(P))]


def _gain_from(A, B, N, P, H):
    """Gain F = -H^{-1}(B'PA + N') given H = R + B'PB."""
    return -_pinv_solve(H, B.mT @ P @ A + N.mT)


@np.errstate(over="ignore", invalid="ignore")
def _sda(A, G, H):
    """Doubling iteration for P = A' P (I + G P)^{-1} A + H on each slice;
    a singular pivot, a diverged iterate or a slice still unconverged after
    ``_MAX_SDA_ITERS`` doublings raises ``NotStabilizable``.  A diverging
    iterate overflows on its way to that refusal, which is then the only
    report: numpy's floating-point warnings are off here."""
    n = A.shape[-1]
    out, live = np.empty(H.shape), np.arange(len(H))
    Ak, Gk, Hk = A.copy(), G.copy(), H.copy()
    for _ in range(_MAX_SDA_ITERS):
        W = np.eye(n) + Gk @ Hk
        try:
            Wia = np.linalg.solve(W, Ak)
            WiG = np.linalg.solve(W, Gk)
        except np.linalg.LinAlgError:
            raise NotStabilizable(_SDA_FAILED % "a singular pivot") from None
        H_new = Hk + Ak.mT @ Hk @ Wia
        G_new = Gk + Ak @ WiG @ Ak.mT
        A_new = Ak @ Wia
        step = _max(H_new - Hk)
        Ak, Gk, Hk = A_new, 0.5 * (G_new + G_new.mT), 0.5 * (H_new + H_new.mT)
        if not np.isfinite(Hk).all():
            raise NotStabilizable(_SDA_FAILED % "a diverged iterate")
        done = [s <= 1e-16 * (1.0 + h) and a < 1e-8
                for s, h, a in zip(step, _max(Hk), _max(Ak))]
        if all(done):
            out[live] = Hk
            return out
        if any(done):
            live, Hk, Ak, Gk = _retire(out, done, live, Hk, Ak, Gk)
    raise NotStabilizable(
        _SDA_FAILED % f"no convergence in {_MAX_SDA_ITERS} doublings")


def _policy_iteration(A, B, Q, N, R):
    """Newton (policy) iteration from the zero gain on each slice; needs
    stable A.  Each closed loop A + B F, A first, is checked by the
    ``stein_solve`` that evaluates it: by its doubling's power bound, with
    eigenvalues only as the fallback.  A slice stops once its residual is
    small."""
    k, n, m = B.shape
    F, out, live = np.zeros((k, m, n)), np.empty((k, n, n)), np.arange(k)
    for _ in range(_MAX_NEWTON):
        A_cl = A + B @ F
        Q_cl = Q + N @ F + F.mT @ N.mT + F.mT @ R @ F
        try:
            P = stein_solve(A_cl, Q_cl)
        except UnstableSystem:
            raise NotStabilizable(
                "policy iteration lost stability; a singular input weight "
                "needs a Schur-stable A") from None
        H = R + B.mT @ P @ B
        done = [r <= _RESIDUAL_TOL for r in _residual(A, B, Q, N, P, H)]
        if all(done):
            out[live] = P
            return out
        if any(done):
            live, P, A, B, Q, N, R, H = _retire(
                out, done, live, P, A, B, Q, N, R, H)
        F = _gain_from(A, B, N, P, H)
    raise NotStabilizable(f"policy iteration did not converge in "
                          f"{_MAX_NEWTON} steps; make R positive definite")


def dare_solve(A, B, Q, N, R):
    """Stabilizing solution of
    A'PA - P - (A'PB + N)(B'PB + R)^{-1}(B'PA + N') + Q = 0.

    R picks each slice's solver; neither is a fallback for the other.  A
    positive-definite R gets doubling on the cross-term-reduced form, which
    must converge to a residual within ``_RESIDUAL_TOL``; a singular R gets
    policy iteration from the zero gain, which stops on that residual and
    needs a Schur-stable A (the lifted plant here is pre-stabilized).  Its
    closed loops are certified stable by their ``stein_solve`` doubling,
    which computes eigenvalues only when its power bound fails.  The
    returned gain's loop A + B F is certified here by ``schur_stable``,
    from its own squarings, which read only A, B and F and so stay
    independent of the solver; eigenvalues are its fallback.  Returns P
    and that gain F = -(R + B'PB)^{-1}(B'PA + N').
    The arguments are stacks of k equations of one size, (k, n, n) and so
    on; a failure of any slice raises ``NotStabilizable`` for the stack.
    """
    A, B, Q, N, R = (np.asarray(X, dtype=float) for X in (A, B, Q, N, R))
    k, n = A.shape[:2]
    Q = 0.5 * (Q + Q.mT)
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
        Ps = _sda(A_red, 0.5 * (G + G.mT), Q_red)
        res = max(_residual(As, Bs, Qs, Ns, Ps, Rs + Bs.mT @ Ps @ Bs))
        if not res <= _RESIDUAL_TOL:
            raise NotStabilizable(_SDA_FAILED % f"a residual of {res:.3e}")
        P[sda] = Ps
    if newton:
        P[newton] = _policy_iteration(*(X[newton] for X in (A, B, Q, N, R)))

    P = 0.5 * (P + P.mT)
    H = R + B.mT @ P @ B
    if any(lo < -1e-9 * top
           for lo, top in _spread(np.linalg.eigvalsh(0.5 * (H + H.mT)))):
        raise IndefiniteCost("R + B'PB pivot is indefinite at the solution")
    F = _gain_from(A, B, N, P, H)
    if not schur_stable(A + B @ F):
        raise NotStabilizable("closed loop is not Schur stable")
    return P, F


@dataclass(frozen=True, eq=False)
class LqrResult:
    """Optimal sampled state feedback u_k = F z_k on the lifted system
    ``disc``, with value z0' P z0."""

    F: np.ndarray
    P: np.ndarray
    disc: DiscretizedSystem

    def J_star(self, z0):
        return quadratic_cost(np.asarray(z0, dtype=float).reshape(-1), self.P)


def lqr_design(discs):
    """Design the cost-minimizing feedback for each lifted discrete system
    of the sequence ``discs``, all of one lifted size, as one stack; one
    ``LqrResult`` per system, in order.
    """
    A, B, Q, N, R = (np.array([getattr(d, name) for d in discs])
                     for name in ("A2", "B2u", "Q2", "N2", "R2"))
    stacked = np.concatenate([np.concatenate([Q, N], axis=-1),
                              np.concatenate([N.mT, R], axis=-1)], axis=-2)
    if any(lo < -1e-9 * top for lo, top in
           _spread(np.linalg.eigvalsh(0.5 * (stacked + stacked.mT)))):
        raise IndefiniteCost("lifted cost matrix is not positive semidefinite")
    P, F = dare_solve(A, B, Q, N, R)
    return [LqrResult(F=f, P=p, disc=d) for f, p, d in zip(F, P, discs)]


def _sigma_max(A, B, C, thetas):
    """sigma_max(C (e^{j theta} I - A)^{-1} B) at each angle."""
    zs = np.exp(1j * np.asarray(thetas, dtype=float))
    M = zs[:, None, None] * np.eye(A.shape[0]) - A
    X = np.linalg.solve(M, np.broadcast_to(B, (len(zs), *B.shape)))
    return np.linalg.svd(C @ X, compute_uv=False)[:, 0]


def hinf_norm(A, B, C):
    """Peak of sigma_max(C (e^{j theta} I - A)^{-1} B) on the unit circle.

    Level-set iteration (Boyd, Balakrishnan & Kabamba 1989; Bruinsma &
    Steinbuch 1990) in discrete time.  The lower bound starts as the
    largest sigma_max at the pole angles and at n + 2 equally spaced angles
    in [0, pi], where a nonzero T cannot vanish everywhere.  At the level
    g = (1 + 2e-10) times the bound, the unit-circle eigenvalues of the
    level's symplectic pencil are the angles where g is a singular value;
    sorted, they bracket every arc where sigma_max exceeds g, so the
    largest sigma_max at their midpoints raises the bound past g.  When no
    midpoint reaches g, the bound is the norm to that relative accuracy.
    B and C are balanced by one scalar, from their Frobenius norms or, where
    those under- or overflow, their largest entries, and the pencil is
    formed for T / g, so loops whose norm is many orders below their data
    stay well scaled.  Only the pencil's M holds the level; its N is built
    once.  A system with B = 0 or C = 0 has norm 0.
    """
    import scipy.linalg
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    lam = np.linalg.eigvals(A)
    rho = np.abs(lam).max()
    if rho >= 1.0:
        raise UnstableSystem(f"spectral radius {rho:.6f} >= 1")
    if not B.any() or not C.any():
        return 0.0
    n, m = B.shape
    s = np.sqrt(np.linalg.norm(C) / np.linalg.norm(B))
    if not 0.0 < s < np.inf:   # a norm's squares underflowed or overflowed
        s = np.sqrt(np.abs(C).max() / np.abs(B).max())
    B, C = B * s, C / s
    thetas = np.concatenate([np.linspace(0.0, np.pi, n + 2),
                             np.abs(np.angle(lam))])
    lb = float(_sigma_max(A, B, C, thetas).max())
    I, O, Onm = np.eye(n), np.zeros((n, n)), np.zeros((n, m))
    # pencil M - z N in (x, p, u) for T / g with y = C x:
    # z x = A x + b u, p = z (A' p + C' y), 0 = b' p - u, where b = B / g
    N = np.block([[I, O, Onm], [-C.T @ C, -A.T, Onm],
                  [np.zeros((m, 2 * n + m))]])
    while lb > 0.0:
        g = _NORM_ACCURACY * lb
        b = B / g
        M = np.block([[A, O, b], [O, -I, Onm],
                      [np.zeros((m, n)), b.T, -np.eye(m)]])
        alpha, beta = scipy.linalg.eigvals(M, N, homogeneous_eigvals=True)
        circle = np.abs(np.abs(alpha) - np.abs(beta)) < 1e-8 * np.abs(beta)
        cross = np.sort(np.abs(np.angle(alpha[circle] / beta[circle])))
        cross = cross[np.diff(cross, prepend=-1.0) > 0]   # distinct angles
        if len(cross) < 2:
            break
        top = float(_sigma_max(A, B, C, 0.5 * (cross[1:] + cross[:-1])).max())
        if top < g:
            break
        lb = top
    return lb


@dataclass(frozen=True, eq=False)
class HinfResult:
    """Certified attenuation design: u_k = F z_k keeps the closed-loop
    disturbance-to-output norm of the lifted system ``disc`` below
    gamma."""

    F: np.ndarray
    gamma: float
    norm: float
    disc: DiscretizedSystem
    levels: int = 0     # levels tried by the search that found it
    accepted: int = 0   # of which certified
    bound: float = 0.0  # the delay window's gain, below every level

    @property
    def uncertified(self):
        """Whether the search tried levels and certified none, so that
        gamma is the decentralized level (the zero remote gain's norm)."""
        return self.levels > 0 and self.accepted == 0


def hinf_design(disc: DiscretizedSystem, gamma) -> HinfResult:
    """State-feedback design guaranteeing closed-loop norm below gamma.

    Solves the game Riccati equation once, from SciPy's pencil with the
    disturbance scaled by 1/gamma, whose solution is the unscaled game's
    with both input blocks of one order.  The scaled game is an LQR problem
    in (u, w / gamma) with output y = C2 z + D2u u, so its weights R and N
    come from D2u alone and the disturbance block of R is -I; the LQR code
    reads its residual and gain (the first n_u rows) from its one pivot
    H = R + B'PB.  The checks, in order: the residual, P
    positive semidefinite, the inertia of H (Stoorvogel & Weeren 1994):
    H3 = -gamma^2 H_ww and H1 = H_uu + H_uw (-H_ww)^{-1} H_wu positive
    definite, closed-loop Schur stability, and the certified unit-circle
    norm.  A level that fails any of these is infeasible.
    """
    import scipy.linalg
    gamma = float(gamma)
    if gamma <= 0.0:
        raise GammaInfeasible("gamma_nonpositive")

    m = disc.n_u
    B2 = np.hstack([disc.B2u, disc.B2w / gamma])
    R = np.zeros((m + disc.n_w, m + disc.n_w))
    R[:m, :m] = disc.D2u.T @ disc.D2u
    R[m:, m:] = -np.eye(disc.n_w)
    Q = disc.C2.T @ disc.C2
    N = np.hstack([disc.C2.T @ disc.D2u, np.zeros((disc.n_z, disc.n_w))])
    try:
        # a pencil whose balancing overflows breaks down in SciPy's cast
        # of its scale factors; the checks below refuse what comes back
        with np.errstate(over="ignore", invalid="ignore"):
            P = scipy.linalg.solve_discrete_are(disc.A2, B2, Q, R, s=N)
        P = 0.5 * (P + P.T)
        if not np.isfinite(P).all():
            raise GammaInfeasible("riccati_nonfinite")
        H = R + B2.T @ P @ B2
        H = 0.5 * (H + H.T)
        game = [X[None] for X in (disc.A2, B2, Q, N, P, H)]
        residual = _residual(*game)[0]
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise GammaInfeasible("riccati_pencil", str(exc)) from None
    if not residual <= 1e-8:
        raise GammaInfeasible("riccati_residual", f"{residual:.3e}")
    if np.linalg.eigvalsh(P).min() < -1e-6 * max(1.0, np.abs(P).max()):
        raise GammaInfeasible("P_not_psd")
    H3_g = -H[m:, m:]   # H3 / gamma^2
    h3 = np.linalg.eigvalsh(H3_g).min()
    if h3 <= 0.0:
        raise GammaInfeasible("H3", f"min eigenvalue {gamma ** 2 * h3:.3e}")
    H1 = H[:m, :m] + H[:m, m:] @ np.linalg.solve(H3_g, H[m:, :m])
    h1 = np.linalg.eigvalsh(0.5 * (H1 + H1.T)).min()
    if h1 <= 0.0:
        raise GammaInfeasible("H1", f"min eigenvalue {h1:.3e}")

    A, B, _, N, Ps, Hs = game
    F = _gain_from(A, B, N, Ps, Hs)[0, :m]
    try:
        norm = hinf_norm(disc.A2 + disc.B2u @ F, disc.B2w,
                         disc.C2 + disc.D2u @ F)
    except UnstableSystem as exc:
        raise GammaInfeasible("closed_loop_unstable", str(exc)) from None
    if norm >= gamma:
        raise GammaInfeasible("norm_not_below_gamma")
    return HinfResult(F=F, gamma=gamma, norm=norm, disc=disc, levels=1,
                      accepted=1)


def _window_bound(disc: DiscretizedSystem):
    """Lower bound on the closed-loop norm of every state feedback: the
    gain of the delay window, the outputs no command reaches yet.

    From z_0 = 0 the first command u_0 = F z_0 is 0, and a later u_i
    reaches y_k only through C2 A2^(k-1-i) B2u; so while C2 A2^j B2u is
    zero for j < J - 1, the outputs y_1 ... y_J answer w_0 ... w_(J-1)
    alone, through the Markov parameters C2 A2^j B2w, whatever F is.  J is
    one more than the first j at which C2 A2^j B2u is structurally nonzero
    (a boolean product of the sparsity patterns, so an underflow cannot
    lengthen the window), capped at n_z, and the bound is sigma_max of the
    block lower-triangular Toeplitz matrix of those parameters for j < J
    (the finite-impulse-response part of a delayed loop, Mirkin 2003).  It
    is 0 when D2u != 0, as y_1 then sees u_1, or when B2w = 0.
    """
    if disc.D2u.any() or not disc.B2w.any():
        return 0.0
    A, C = disc.A2 != 0, disc.C2 != 0
    reach = disc.B2u != 0   # the pattern of A2^(J-1) B2u
    for J in range(1, disc.n_z + 1):
        if (C @ reach).any():
            break
        reach = A @ reach
    markov, X = [], disc.B2w
    for _ in range(J):
        markov.append(disc.C2 @ X)
        X = disc.A2 @ X
    k = np.arange(J)
    lag = k[:, None] - k   # block (k, i) is the parameter k - i, if k >= i
    T = np.where((lag >= 0)[..., None, None], np.array(markov)[lag], 0.0)
    return float(np.linalg.norm(T.swapaxes(1, 2).reshape(
        J * disc.C2.shape[0], J * disc.n_w), 2))


def gamma_min(disc: DiscretizedSystem, tol=1e-3):
    """Smallest certifiable attenuation level, by bisection on certified
    norms.  An output map C2 whose norm overflows is refused
    (``NonFiniteModel``): every level squares it, and the zero-level test
    below would compare inf with inf.

    Every call first tries the zero level: when F0 = -D2u^+ C2 leaves
    C2 + D2u F0 at 1e-12 of C2 with a Schur-stable loop (as at zero wait),
    the level is exactly 0 with F0 as its witness, and so is the norm
    reported: the rounding-level rest of C2 + D2u F0 is not evaluated.
    Otherwise the bracket (lo, hi] starts from the delay window's gain
    (``_window_bound``), below the norm of every state feedback, and the
    decentralized level: the open-loop norm of the lifted mode, which the
    zero remote gain certifies, so that no-control design is the first
    witness.  This needs a Schur-stable A2 (``hinf_norm`` raises
    ``UnstableSystem`` otherwise, with or without a disturbance path);
    every lifted mode has one, since its local loop is Hurwitz and its
    input memory a nilpotent shift.

    The first level is lo (1 + tol) / (1 + 2e-10), the largest whose
    certified design closes the bracket at once, or the midpoint when lo
    is 0; every later level is the midpoint lo / 2 + hi / 2.  A failed
    level becomes lo.  An accepted level moves hi to its design's certified
    norm times (1 + 2e-10), the accuracy of ``hinf_norm``, not to the level
    tried.  On the benchmark the window's gain is within tol of the optimum
    at every wait, so the first level settles each search and gamma is
    within tol of the optimum over all state feedbacks.  Stops when
    hi / lo <= 1 + tol, which a certified norm of exactly 0 meets at once,
    and returns the result whose ``gamma`` is hi.  Every level passes or
    fails ``hinf_design``'s full certificate.
    """
    tol = float(tol)
    if not tol >= 1e-9:
        raise ValueError("tol must be at least 1e-9, above the accuracy "
                         "of the certified norms")
    with np.errstate(over="ignore"):
        c2 = np.linalg.norm(disc.C2)
    if not np.isfinite(c2):
        raise NonFiniteModel(
            "the lifted output map's norm overflows float64, and every "
            "level squares it; scale down [output] delta_weight or "
            "input_weight")
    F0 = -np.linalg.pinv(disc.D2u) @ disc.C2
    if (np.linalg.norm(disc.C2 + disc.D2u @ F0) <= 1e-12 * c2
            and spectral_radius(disc.A2 + disc.B2u @ F0) < 1.0):
        return HinfResult(F=F0, gamma=0.0, norm=0.0, disc=disc)
    best = HinfResult(F=np.zeros((disc.n_u, disc.n_z)), gamma=0.0,
                      norm=hinf_norm(disc.A2, disc.B2w, disc.C2), disc=disc)
    bound = _window_bound(disc)
    lo, hi = bound, best.norm * _NORM_ACCURACY
    levels = accepted = 0
    while hi / (1.0 + tol) > lo:
        level = 0.5 * (lo + hi)
        if not levels and lo > 0.0:
            # the largest level whose design closes the bracket at once
            level = lo * (1.0 + tol) / _NORM_ACCURACY
        levels += 1
        try:
            best = hinf_design(disc, level)
        except GammaInfeasible:
            lo = level
            continue
        accepted += 1
        hi = best.norm * _NORM_ACCURACY
    return HinfResult(F=best.F, gamma=hi, norm=best.norm, disc=disc,
                      levels=levels, accepted=accepted, bound=bound)
