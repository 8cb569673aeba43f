"""Exact discretization of a linear system and quadratic cost under a
zero-order-hold input with a constant delay d = q*h + r.

The control input is held over sampling intervals, ``u(t) = u_k`` for
``t in (kh, kh+h]``, and acts on the plant delayed by d seconds.  Over one
sampling interval the delayed input is piecewise constant with a single
switch at ``kh + r``, so both the state propagation and the running
quadratic cost have closed forms built from the matrix exponential.  The
lifted discrete state stacks the plant state with the q+1 input samples
still "in flight".

None of these closed forms depends on q.  A ``CtsModel`` computes the cost
factorization (P, M, U) once per mode, Phi, Gamma and Psi once per
interval length (h, each remainder r, h - r), and the two input maps and
the one-interval cost of each remainder once; ``discretize`` only places
them in the lifted matrices.
"""

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import expm, solve_sylvester

from .errors import IllPosedLyapunov, InvalidSampling, NonFiniteModel

# input samples in flight (q + 1) one lifted design may carry: at 128, the
# lifted state of the benchmark's modes is 131 wide and `design --measure
# hinf` at d = 2.56 s, h = 0.02 s spends 8.9 s designing both modes (one
# BLAS thread, 2-core host); the time grows faster than q squared
MAX_IN_FLIGHT = 128

__all__ = [
    "MAX_IN_FLIGHT",
    "CtsSystem",
    "CtsCost",
    "CtsModel",
    "DiscretizedSystem",
    "phi_gamma",
    "solve_pmu",
    "psi_blocks",
    "split_delay",
    "discretize",
]


def _as_matrix(a, rows=None, cols=None, name="matrix"):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if rows is not None and a.shape[0] != rows:
        raise ValueError(f"{name}: expected {rows} rows, got {a.shape[0]}")
    if cols is not None and a.shape[1] != cols:
        raise ValueError(f"{name}: expected {cols} cols, got {a.shape[1]}")
    return a


def _freeze(*arrays):
    for a in arrays:
        a.setflags(write=False)


@dataclass(frozen=True, eq=False)
class CtsSystem:
    """Continuous-time plant with a delayed held control input."""

    A1: np.ndarray
    B1u: np.ndarray
    B1w: np.ndarray
    C1: np.ndarray
    D1u: np.ndarray

    def __post_init__(self):
        A1 = _as_matrix(self.A1, name="A1")
        n = A1.shape[0]
        if A1.shape[1] != n:
            raise ValueError("A1 must be square")
        B1u = _as_matrix(self.B1u, rows=n, name="B1u")
        B1w = _as_matrix(self.B1w, rows=n, name="B1w")
        C1 = _as_matrix(self.C1, cols=n, name="C1")
        D1u = _as_matrix(self.D1u, rows=C1.shape[0], cols=B1u.shape[1], name="D1u")
        for nm, val in (("A1", A1), ("B1u", B1u), ("B1w", B1w),
                        ("C1", C1), ("D1u", D1u)):
            object.__setattr__(self, nm, val)
        _freeze(A1, B1u, B1w, C1, D1u)

    @property
    def n_x(self):
        return self.A1.shape[0]

    @property
    def n_u(self):
        return self.B1u.shape[1]

    @property
    def n_w(self):
        return self.B1w.shape[1]

    @property
    def n_y(self):
        return self.C1.shape[0]


@dataclass(frozen=True, eq=False)
class CtsCost:
    """Quadratic running cost on state and (delayed) input."""

    Q1: np.ndarray
    N1: np.ndarray
    R1: np.ndarray

    def __post_init__(self):
        Q1 = _as_matrix(self.Q1, name="Q1")
        n = Q1.shape[0]
        N1 = _as_matrix(self.N1, rows=n, name="N1")
        R1 = _as_matrix(self.R1, rows=N1.shape[1], cols=N1.shape[1], name="R1")
        if not all(np.isfinite(X).all() for X in (Q1, N1, R1)):
            raise NonFiniteModel(
                "the running cost is not finite (the local gains fold "
                "into it); scale down [cost] input_weight or delta_weight")
        if not np.allclose(Q1, Q1.T, rtol=0, atol=1e-12 * (1 + np.abs(Q1).max())):
            raise ValueError("Q1 must be symmetric")
        if not np.allclose(R1, R1.T, rtol=0, atol=1e-12 * (1 + np.abs(R1).max())):
            raise ValueError("R1 must be symmetric")
        Q1 = 0.5 * (Q1 + Q1.T)
        R1 = 0.5 * (R1 + R1.T)
        object.__setattr__(self, "Q1", Q1)
        object.__setattr__(self, "N1", N1)
        object.__setattr__(self, "R1", R1)
        _freeze(Q1, N1, R1)


@dataclass(frozen=True, eq=False)
class DiscretizedSystem:
    """Lifted discrete-time system, output map and summed quadratic cost.

    The lifted state is ``z_k = [x_k; u_{k-q-1}; u_{k-q}; ...; u_{k-1}]``
    (just ``x_k`` when d = 0).  One step advances the plant state with the
    two in-flight input samples and shifts the memory registers by one slot.
    """

    A2: np.ndarray
    B2u: np.ndarray
    B2w: np.ndarray
    C2: np.ndarray
    D2u: np.ndarray
    Q2: np.ndarray
    N2: np.ndarray
    R2: np.ndarray
    h: float
    d: float
    q: int
    r: float
    n_x: int
    n_u: int
    n_w: int

    def __post_init__(self):
        _freeze(self.A2, self.B2u, self.B2w, self.C2, self.D2u,
                self.Q2, self.N2, self.R2)

    @property
    def n_z(self):
        return self.A2.shape[0]

    @property
    def n_memory(self):
        """Number of stored past-input samples (q+1 for d > 0, else 0)."""
        return 0 if self.d == 0.0 else self.q + 1

    def lift_state(self, x0):
        """Assemble z_0 from a plant state with an all-zero input memory."""
        x0 = np.asarray(x0, dtype=float).reshape(self.n_x)
        return np.concatenate([x0, np.zeros(self.n_memory * self.n_u)])


def phi_gamma(A1, alpha):
    """Return Phi = exp(alpha*A1) and Gamma = int_0^alpha exp(A1 s) ds.

    Both come from one exponential of the augmented block matrix
    [[A1, I], [0, 0]], so Phi = I + A1 @ Gamma holds to machine precision.
    """
    A1 = _as_matrix(A1, name="A1")
    n = A1.shape[0]
    if A1.shape[1] != n:
        raise ValueError("A1 must be square")
    alpha = float(alpha)
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    if alpha == 0.0:
        return np.eye(n), np.zeros((n, n))
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = A1
    aug[:n, n:] = np.eye(n)
    E = expm(alpha * aug)
    return E[:n, :n], E[:n, n:]


def solve_pmu(sys: CtsSystem, cost: CtsCost):
    """Factor the running cost into a frozen triple (P, M, U) against the
    plant dynamics: P solves P A1 + A1' P = Q1, M = A1^{-T} (N1 - P B1u)
    and U = R1 - B1u' M - M' B1u, which turns the cost integral over an
    interval with held input into boundary terms plus b * u' U u.

    Requires A1 invertible with no eigenvalue pair summing to zero; in this
    package A1 is always a locally pre-stabilized (Hurwitz) matrix, which
    satisfies both conditions automatically.  A P whose Lyapunov residual
    exceeds 1e-8 of 1 + max|Q1| + 2 max|A1| max|P| is refused
    (``NonFiniteModel``).
    """
    A1, B1u = sys.A1, sys.B1u
    eig = np.linalg.eigvals(A1)
    scale = max(1.0, np.abs(eig).max())
    pair_sums = np.abs(eig[:, None] + eig[None, :])
    if pair_sums.min() < 1e-12 * scale:
        raise IllPosedLyapunov(
            "A1 has an eigenvalue pair summing to zero; "
            "pre-stabilize with local gains before discretizing")
    if np.abs(eig).min() < 1e-12 * scale:
        raise IllPosedLyapunov("A1 is singular")
    P = solve_sylvester(A1.T, A1, cost.Q1)
    P = 0.5 * (P + P.T)
    # iterative refinement; solve_sylvester alone can leave ~1e-9 residuals
    # on poorly separated spectra
    size = 1 + np.abs(cost.Q1).max()
    for left in (3, 2, 1, 0):
        res = cost.Q1 - (P @ A1 + A1.T @ P)
        err = np.abs(res).max()
        if err <= 1e-14 * size or not left:
            break
        dP = solve_sylvester(A1.T, A1, res)
        P = 0.5 * ((P + dP) + (P + dP).T)
    # LAPACK's Sylvester solver scales its solution down rather than
    # overflow, so a cost near the float64 limit comes back as a P that
    # solves nothing; the residual is judged against the terms it balances
    err /= size + 2 * np.abs(A1).max() * np.abs(P).max()
    if not err <= 1e-8:
        raise NonFiniteModel(
            f"the running cost does not factor in float64: P A1 + A1' P = Q1 "
            f"is left with a relative residual of {err:.3g}; scale down "
            "[cost] input_weight or delta_weight")
    M = np.linalg.solve(A1.T, cost.N1 - P @ B1u)
    res = cost.N1 - (A1.T @ M + P @ B1u)
    M = M + np.linalg.solve(A1.T, res)
    U = cost.R1 - B1u.T @ M - M.T @ B1u
    U = 0.5 * (U + U.T)
    _freeze(P, M, U)
    return P, M, U


def psi_blocks(pmu, sys: CtsSystem, b, Phi, Gamma) -> np.ndarray:
    """Quadratic form Psi(b) giving the cost integral over a length-b interval
    with held input: integral = [x(a); u]' Psi(b) [x(a); u].  Phi and Gamma
    are ``phi_gamma(sys.A1, b)``."""
    b = float(b)
    if b < 0:
        raise ValueError("interval length must be nonnegative")
    P, M, U = pmu
    B1u = sys.B1u
    GB = Gamma @ B1u
    psi1 = Phi.T @ P @ Phi - P
    psi3 = Phi.T @ P @ GB + Phi.T @ M - M
    psi2 = GB.T @ P @ GB + M.T @ GB + GB.T @ M + b * U
    psi = np.block([[psi1, psi3], [psi3.T, psi2]])
    return 0.5 * (psi + psi.T)


class CtsModel:
    """One mode's plant and cost, and the delay-free pieces of its exact
    discretization, each computed once and frozen; one model serves every
    design of its mode."""

    def __init__(self, sys: CtsSystem, cost: CtsCost):
        self.sys, self.cost = sys, cost
        self.pmu = solve_pmu(sys, cost)
        self._intervals = {}
        self._remainders = {}

    def interval(self, b):
        """(Phi, Gamma, Psi) of a held-input interval of length b, refused
        unless all three are finite."""
        if b not in self._intervals:
            Phi, Gamma = phi_gamma(self.sys.A1, b)
            with np.errstate(over="ignore", invalid="ignore"):
                blocks = (Phi, Gamma,
                          psi_blocks(self.pmu, self.sys, b, Phi, Gamma))
            if not all(np.isfinite(X).all() for X in blocks):
                raise NonFiniteModel(
                    f"the exact discretization of a {b:g} s held-input "
                    "interval is not finite; shorten [sampling] h_s")
            _freeze(*blocks)
            self._intervals[b] = blocks
        return self._intervals[b]

    def remainder(self, h, r):
        """(Gamma1, Gamma0, W) of a sampling interval of length h whose
        delayed input switches at r in (0, h]: x_{k+1} = Phi(h) x_k +
        Gamma1 u_{k-q-1} + Gamma0 u_{k-q}, and the interval's cost is
        v' W v with v = [x_k; u_{k-q-1}; u_{k-q}].  The held-input cost
        identity applies on (kh, kh+r] with input u_{k-q-1} and on
        (kh+r, kh+h] with input u_{k-q}.  None of it depends on q, so
        every delay with remainder r shares one frozen triple."""
        key = (h, r)
        if key not in self._remainders:
            sys = self.sys
            n_x, n_u = sys.n_x, sys.n_u
            Phi_r, Gamma_r, psi_r = self.interval(r)
            Phi_hr, Gamma_hr, psi_hr = self.interval(h - r)
            Gamma1 = Phi_hr @ Gamma_r @ sys.B1u
            Gamma0 = Gamma_hr @ sys.B1u
            phi1 = np.zeros((n_x + n_u, n_x + 2 * n_u))
            phi1[:n_x, :n_x] = Phi_r
            phi1[:n_x, n_x:n_x + n_u] = Gamma_r @ sys.B1u
            phi1[n_x:, n_x + n_u:] = np.eye(n_u)
            W = np.zeros((n_x + 2 * n_u, n_x + 2 * n_u))
            W[:n_x + n_u, :n_x + n_u] = psi_r
            W += phi1.T @ psi_hr @ phi1
            W = 0.5 * (W + W.T)
            self._remainders[key] = (Gamma1, Gamma0, W)
            _freeze(Gamma1, Gamma0, W)
        return self._remainders[key]


@functools.lru_cache(maxsize=4096)
def _nice_fraction(x):
    """Snap a float to the fraction its shortest decimal form denotes: the
    nearest with denominator at most 1e6, if within 1e-9 relative.

    Sampling periods and delays are specified as short decimals; arithmetic
    like 5*0.02 must still classify d = 0.1 as an exact multiple of h.
    Memoized: a sweep splits every delay against the same h more than once.
    """
    f = Fraction(x).limit_denominator(10 ** 6)
    if abs(float(f) - x) <= 1e-9 * abs(x):
        return f
    return Fraction(x)


@functools.lru_cache(maxsize=4096)
def split_delay(d, h):
    """Split d = q*h + r with q = max{k integer: k*h < d} and r in (0, h].

    For d = 0 returns (0, 0.0).  Performed in exact rational arithmetic on
    the shortest-decimal reading of d and h so that grid multiples land on
    r = h exactly.  A delay with more than ``MAX_IN_FLIGHT`` input samples
    in flight is refused.  Memoized: a sweep splits each delay once to
    group its rows and again to discretize it.
    """
    if h <= 0:
        raise InvalidSampling(f"sampling period must be positive, got {h}")
    if d < 0:
        raise InvalidSampling(f"delay must be nonnegative, got {d}")
    if d == 0:
        return 0, 0.0
    D, H = _nice_fraction(d), _nice_fraction(h)
    ratio = D / H
    if ratio.denominator == 1:
        q = int(ratio) - 1
        r = float(H)
    else:
        q = int(ratio)  # floor; ratio > 0
        r = float(D - q * H)
    if q + 1 > MAX_IN_FLIGHT:
        raise InvalidSampling(
            f"delay {float(d):g} s puts {q + 1} input samples in flight "
            f"at h = {float(h):g} s, more than the {MAX_IN_FLIGHT} a lifted "
            "design may carry (the H-infinity designs of both benchmark "
            "modes take about 9 s at the cap); shorten the delay or "
            "lengthen h_s")
    return q, r


def discretize(model: CtsModel, h, d=0.0) -> DiscretizedSystem:
    """Discretize a mode's plant, output and cost exactly under sampling
    period h and input delay d.

    With d > 0 the lifted state carries the q+1 input samples in flight,
    and the input maps and per-interval cost are those of the remainder r
    (``CtsModel.remainder``), placed by q.  The disturbance is held and
    undelayed, and the sampled output uses the input sample active just
    after the sampling instant, u_{k-q-1}, which for d > 0 sits inside z_k
    (so D2u = 0 there).
    """
    h = float(h)
    q, r = split_delay(d, h)
    sys = model.sys
    n_x, n_u, n_w, n_y = sys.n_x, sys.n_u, sys.n_w, sys.n_y
    Phi_h, Gamma_h, psi = model.interval(h)

    if d == 0:
        return DiscretizedSystem(
            A2=Phi_h,
            B2u=Gamma_h @ sys.B1u,
            B2w=Gamma_h @ sys.B1w,
            C2=sys.C1.copy(),
            D2u=sys.D1u.copy(),
            Q2=psi[:n_x, :n_x].copy(),
            N2=psi[:n_x, n_x:].copy(),
            R2=psi[n_x:, n_x:].copy(),
            h=h, d=0.0, q=0, r=0.0, n_x=n_x, n_u=n_u, n_w=n_w)

    n_mem = q + 1
    n_z = n_x + n_mem * n_u
    Gamma1, Gamma0, W = model.remainder(h, r)

    A2 = np.zeros((n_z, n_z))
    A2[:n_x, :n_x] = Phi_h
    A2[:n_x, n_x:n_x + n_u] = Gamma1   # multiplies u_{k-q-1}
    B2u = np.zeros((n_z, n_u))
    if q == 0:
        B2u[:n_x] = Gamma0             # multiplies u_{k-q}
        B2u[n_x:] = np.eye(n_u)
    else:
        A2[:n_x, n_x + n_u:n_x + 2 * n_u] = Gamma0
        # shift the memory registers one slot toward the plant
        A2[n_x:n_x + q * n_u, n_x + n_u:] = np.eye(q * n_u)
        B2u[n_x + q * n_u:] = np.eye(n_u)

    B2w = np.zeros((n_z, n_w))
    B2w[:n_x] = Gamma_h @ sys.B1w

    C2 = np.zeros((n_y, n_z))
    C2[:, :n_x] = sys.C1
    C2[:, n_x:n_x + n_u] = sys.D1u  # sampled output sees u_{k-q-1}
    D2u = np.zeros((n_y, n_u))

    # cost over one interval touches x_k, u_{k-q-1} and u_{k-q} only; at
    # q = 0 the last of them is the new input
    big = np.zeros((n_z + n_u, n_z + n_u))
    big[:n_x + 2 * n_u, :n_x + 2 * n_u] = W
    Q2 = big[:n_z, :n_z].copy()
    N2 = big[:n_z, n_z:].copy()
    R2 = big[n_z:, n_z:].copy()

    return DiscretizedSystem(
        A2=A2, B2u=B2u, B2w=B2w, C2=C2, D2u=D2u,
        Q2=Q2, N2=N2, R2=R2,
        h=h, d=float(d), q=q, r=r, n_x=n_x, n_u=n_u, n_w=n_w)
