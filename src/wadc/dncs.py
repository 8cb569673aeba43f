"""Distributed networked controller assembly.

Local continuous gains close each machine's loop; a change of coordinates
splits the pre-stabilized plant into decoupled modes (oscillation and
common for the symmetric two-machine grid); each mode gets its own
sampled, delay-aware gain; and the per-mode commands are mapped back to
per-machine remote commands that switch at the sampling instants shifted
by the per-machine waiting times.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetricDelays,
    NotBlockDiagonalizable,
    NotSymmetric,
    ScheduleMismatch,
    UnstableLocalLoop,
)
from .grid_model import LinearPlant
from .sampled import CtsCost, CtsModel, CtsSystem, DiscretizedSystem, discretize
from .synthesis import gamma_min, lqr_design

__all__ = [
    "LocalGains",
    "ModalDecomposition",
    "DelaySchedule",
    "ModeDesign",
    "DistributedController",
    "symmetric_modes",
    "accept_decomposition",
    "mode_system",
    "delay_map",
    "design_mode",
]

_STRUCTURAL_ZERO = 1e-12


@dataclass(frozen=True)
class LocalGains:
    """Per-machine continuous gains u_i = K_i x_i; the assembled loop
    A + B_u K must be Hurwitz (checked at construction)."""

    K_blocks: tuple
    K: np.ndarray
    A_bar: np.ndarray

    @classmethod
    def from_blocks(cls, plant: LinearPlant, blocks):
        blocks = tuple(np.atleast_2d(np.asarray(b, dtype=float)) for b in blocks)
        if len(blocks) != plant.m:
            raise ValueError(f"expected {plant.m} gain blocks, got {len(blocks)}")
        n_x = sum(b.shape[1] for b in blocks)
        n_u = sum(b.shape[0] for b in blocks)
        if n_x != plant.n_x or n_u != plant.n_u:
            raise ValueError("gain block dimensions do not match the plant")
        K = np.zeros((n_u, n_x))
        ro = co = 0
        for b in blocks:
            K[ro:ro + b.shape[0], co:co + b.shape[1]] = b
            ro += b.shape[0]
            co += b.shape[1]
        A_bar = plant.A + plant.B_u @ K
        eigs = np.linalg.eigvals(A_bar)
        if eigs.real.max() >= 0.0:
            raise UnstableLocalLoop(
                "A + B_u K has an eigenvalue with real part "
                f"{eigs.real.max():.3e} >= 0; check the operating point and "
                "the stator sign conventions before proceeding")
        K.setflags(write=False)
        A_bar.setflags(write=False)
        return cls(K_blocks=blocks, K=K, A_bar=A_bar)

    @property
    def machine_x_dims(self):
        return tuple(b.shape[1] for b in self.K_blocks)

    @property
    def machine_u_dims(self):
        return tuple(b.shape[0] for b in self.K_blocks)


def _offsets(dims):
    out = [0]
    for d in dims:
        out.append(out[-1] + d)
    return out


@dataclass(frozen=True)
class ModalDecomposition:
    """Coordinate change block-diagonalizing the pre-stabilized plant.

    x = M_x x_hat, u_bar = M_u u_hat, w = M_w w_hat; the boolean block
    patterns of M_u and M_x^{-1} drive the delay mapping.  A_hat, B_u_hat
    and B_w_hat are the pre-stabilized plant in modal coordinates.
    """

    M_x: np.ndarray
    M_u: np.ndarray
    M_w: np.ndarray
    M_x_inv: np.ndarray
    M_u_inv: np.ndarray
    M_w_inv: np.ndarray
    A_hat: np.ndarray
    B_u_hat: np.ndarray
    B_w_hat: np.ndarray
    mode_x_dims: tuple
    mode_u_dims: tuple
    mode_w_dims: tuple
    machine_x_dims: tuple
    machine_u_dims: tuple
    machine_w_dims: tuple
    pattern_Mu: np.ndarray        # (machines, modes) structural nonzeros
    pattern_Mx_inv: np.ndarray    # (modes, machines)
    labels: tuple

    def __post_init__(self):
        for name in ("M_x", "M_u", "M_w", "M_x_inv", "M_u_inv", "M_w_inv",
                     "A_hat", "B_u_hat", "B_w_hat", "pattern_Mu",
                     "pattern_Mx_inv"):
            getattr(self, name).setflags(write=False)

    @property
    def n_modes(self):
        return len(self.mode_x_dims)

    def mode_index(self, mode):
        if isinstance(mode, str):
            if mode not in self.labels:
                raise ValueError(f"unknown mode {mode!r}; have {self.labels}")
            return self.labels.index(mode)
        return int(mode)

    def x_slice(self, i):
        off = _offsets(self.mode_x_dims)
        return slice(off[i], off[i + 1])

    def u_slice(self, i):
        off = _offsets(self.mode_u_dims)
        return slice(off[i], off[i + 1])

    def w_slice(self, i):
        off = _offsets(self.mode_w_dims)
        return slice(off[i], off[i + 1])


def _block_pattern(M, row_dims, col_dims):
    thr = _STRUCTURAL_ZERO * max(1.0, np.abs(M).max())
    ro, co = _offsets(row_dims), _offsets(col_dims)
    pat = np.zeros((len(row_dims), len(col_dims)), dtype=bool)
    for a in range(len(row_dims)):
        for b in range(len(col_dims)):
            blk = M[ro[a]:ro[a + 1], co[b]:co[b + 1]]
            pat[a, b] = blk.size > 0 and np.abs(blk).max() > thr
    return pat


def _machine_w_dims(plant, gains):
    m = plant.m
    if plant.n_w % m:
        raise ValueError("disturbance channels do not split evenly per machine")
    return tuple([plant.n_w // m] * m)


def _contiguous_blocks(T, tol_abs):
    """Split indices into the finest contiguous diagonal blocks of T.
    A boundary at p requires no coupling across p anywhere."""
    n = T.shape[0]
    dims, start = [], 0
    for p in range(1, n):
        if np.abs(T[:p, p:]).max() <= tol_abs and np.abs(T[p:, :p]).max() <= tol_abs:
            dims.append(p - start)
            start = p
    dims.append(n - start)
    return tuple(dims)


def _group_columns(Bt, x_dims, tol_abs, what):
    """Assign each column of the transformed input matrix to the x-block it
    feeds; columns must group contiguously per block."""
    xo = _offsets(x_dims)
    n_modes = len(x_dims)
    col_mode = []
    for j in range(Bt.shape[1]):
        touched = [i for i in range(n_modes)
                   if np.abs(Bt[xo[i]:xo[i + 1], j]).max() > tol_abs]
        if len(touched) > 1:
            raise NotBlockDiagonalizable(
                f"{what} column {j} couples modes {touched}",
                float(np.abs(Bt[:, j]).max()))
        col_mode.append(touched[0] if touched else None)
    # fill zero columns from their neighbors, then check contiguity
    for j in range(len(col_mode)):
        if col_mode[j] is None:
            prev = col_mode[j - 1] if j else None
            nxt = next((c for c in col_mode[j + 1:] if c is not None), None)
            col_mode[j] = prev if prev is not None else (nxt if nxt is not None else 0)
    dims = [0] * n_modes
    last = -1
    for j, i in enumerate(col_mode):
        if i < last:
            raise NotBlockDiagonalizable(
                f"{what} columns are not grouped by mode", 0.0)
        dims[i] += 1
        last = i
    return tuple(dims)


def accept_decomposition(plant: LinearPlant, gains: LocalGains,
                         M_x, M_u, M_w, tol=1e-8,
                         labels=None, min_modes=None) -> ModalDecomposition:
    """Validate a user-supplied coordinate change and extract its block
    structure (general constructions are out of scope; the symmetric
    two-machine transform is built in).

    ``min_modes`` defaults to 2 on multi-machine plants, so a transform
    that leaves the dynamics coupled is rejected; pass 1 to accept a
    deliberately centralized (single-mode) coordinate change.
    """
    M_x = np.atleast_2d(np.asarray(M_x, dtype=float))
    M_u = np.atleast_2d(np.asarray(M_u, dtype=float))
    M_w = np.atleast_2d(np.asarray(M_w, dtype=float))
    for name, M, dim in (("M_x", M_x, plant.n_x), ("M_u", M_u, plant.n_u),
                         ("M_w", M_w, plant.n_w)):
        if M.shape != (dim, dim):
            raise ValueError(f"{name} must be {dim}x{dim}")
        if abs(np.linalg.det(M)) < 1e-12:
            raise ValueError(f"{name} is singular")
    M_x_inv = np.linalg.inv(M_x)
    M_u_inv = np.linalg.inv(M_u)
    M_w_inv = np.linalg.inv(M_w)

    A_bar = gains.A_bar
    T = M_x_inv @ A_bar @ M_x
    tol_A = tol * max(1.0, np.abs(A_bar).max())
    x_dims = _contiguous_blocks(T, tol_A)
    if min_modes is None:
        min_modes = 2 if plant.m > 1 else 1
    if len(x_dims) < min_modes:
        # report the least cross-coupling over all single split points
        n = T.shape[0]
        best = min(max(np.abs(T[:p, p:]).max(), np.abs(T[p:, :p]).max())
                   for p in range(1, n))
        raise NotBlockDiagonalizable(
            "state transform (dynamics block-diagonalization)", float(best))
    Bu_t = M_x_inv @ plant.B_u @ M_u
    Bw_t = M_x_inv @ plant.B_w @ M_w
    tol_Bu = tol * max(1.0, np.abs(plant.B_u).max())
    tol_Bw = tol * max(1.0, np.abs(plant.B_w).max())
    u_dims = _group_columns(Bu_t, x_dims, tol_Bu, "control transform")
    w_dims = _group_columns(Bw_t, x_dims, tol_Bw, "disturbance transform")

    w_mach = _machine_w_dims(plant, gains)
    dec = ModalDecomposition(
        M_x=M_x, M_u=M_u, M_w=M_w,
        M_x_inv=M_x_inv, M_u_inv=M_u_inv, M_w_inv=M_w_inv,
        A_hat=T, B_u_hat=Bu_t, B_w_hat=Bw_t,
        mode_x_dims=x_dims, mode_u_dims=u_dims, mode_w_dims=w_dims,
        machine_x_dims=gains.machine_x_dims,
        machine_u_dims=gains.machine_u_dims,
        machine_w_dims=w_mach,
        pattern_Mu=_block_pattern(M_u, gains.machine_u_dims, u_dims),
        pattern_Mx_inv=_block_pattern(M_x_inv, x_dims, gains.machine_x_dims),
        labels=tuple(labels) if labels else
        tuple(f"mode{i + 1}" for i in range(len(x_dims))),
    )
    return dec


def symmetric_modes(plant: LinearPlant, gains: LocalGains,
                    tol=1e-7) -> ModalDecomposition:
    """Oscillation/common decomposition for two identical machines:
    x_hat_1 = x_1 - x_2 (oscillation), x_hat_2 = x_1 + x_2 (common), and
    the same split for inputs and disturbances."""
    if plant.m != 2:
        raise NotSymmetric("built-in decomposition needs exactly 2 machines")
    from .grid_model import swap_symmetry_residuals
    res = swap_symmetry_residuals(plant)
    worst = max(res.values())
    if worst > tol:
        raise NotSymmetric(
            f"plant fails machine-swap symmetry (residual {worst:.3e}); "
            "supply a custom decomposition instead")
    K1, K2 = gains.K_blocks
    if K1.shape != K2.shape or np.abs(K1 - K2).max() > tol * (1 + np.abs(K1).max()):
        raise NotSymmetric("local gains differ across machines")

    def pair(n):
        I = np.eye(n)
        M_inv = np.block([[I, -I], [I, I]])
        M = 0.5 * np.block([[I, I], [-I, I]])
        return M, M_inv

    nx, nu, nw = plant.n_x // 2, plant.n_u // 2, plant.n_w // 2
    M_x, M_x_inv = pair(nx)
    M_u, M_u_inv = pair(nu)
    M_w, M_w_inv = pair(nw)
    dec = accept_decomposition(plant, gains, M_x, M_u, M_w, tol=1e-8,
                               labels=("oscillation", "common"))
    if dec.mode_x_dims != (nx, nx):
        raise NotSymmetric(
            f"unexpected block structure {dec.mode_x_dims} from the "
            "symmetric transform")
    return dec


def mode_system(gains: LocalGains, dec: ModalDecomposition, i,
                Q, R, C, D_u, D_w):
    """Continuous model of mode i: a CtsModel of its plant and cost.

    The system is the mode's diagonal block of the transformed
    pre-stabilized plant with its slice of the output map; the output map
    keeps its published form with the remote command as its input
    argument.  The quadratic cost prices the total input u = K x + u_bar,
    so closing the local loops folds K into the state weight and creates a
    cross term.  Neither depends on the delay: one model serves every
    design of the mode.
    """
    i = dec.mode_index(i)
    n_x = dec.M_x.shape[0]
    n_u = dec.M_u.shape[0]
    Q = np.asarray(Q, dtype=float).reshape(n_x, n_x)
    R = np.asarray(R, dtype=float).reshape(n_u, n_u)
    K = gains.K
    big = np.block([[Q + K.T @ R @ K, K.T @ R],
                    [R @ K, R]])
    Mblk = np.zeros((n_x + n_u, n_x + n_u))
    Mblk[:n_x, :n_x] = dec.M_x
    Mblk[n_x:, n_x:] = dec.M_u
    U = Mblk.T @ big @ Mblk
    U = 0.5 * (U + U.T)
    xs, us, ws = dec.x_slice(i), dec.u_slice(i), dec.w_slice(i)
    u_off = _offsets(dec.mode_u_dims)
    ug = slice(n_x + u_off[i], n_x + u_off[i + 1])
    C = np.atleast_2d(np.asarray(C, dtype=float))
    D_u = np.atleast_2d(np.asarray(D_u, dtype=float))
    D_w = np.atleast_2d(np.asarray(D_w, dtype=float))
    sys = CtsSystem(A1=dec.A_hat[xs, xs], B1u=dec.B_u_hat[xs, us],
                    B1w=dec.B_w_hat[xs, ws], C1=(C @ dec.M_x)[:, xs],
                    D1u=(D_u @ dec.M_u)[:, us], D1w=(D_w @ dec.M_w)[:, ws])
    cost = CtsCost(Q1=U[xs, xs], N1=U[xs, ug], R1=U[ug, ug])
    return CtsModel(sys, cost)


@dataclass(frozen=True)
class DelaySchedule:
    """Link delays with the derived per-mode and per-machine waiting times."""

    d: np.ndarray        # (m, m) link delays, symmetric, zero diagonal
    d_hat: np.ndarray    # per-mode information-gathering delay
    d_rho: np.ndarray    # per-machine command-application delay
    h: float

    def __post_init__(self):
        self.d.setflags(write=False)
        self.d_hat.setflags(write=False)
        self.d_rho.setflags(write=False)

    @classmethod
    def from_links(cls, dec: ModalDecomposition, d, h):
        d_hat, d_rho = delay_map(dec, d)
        return cls(d=np.asarray(d, dtype=float).copy(), d_hat=d_hat,
                   d_rho=d_rho, h=float(h))


def delay_map(dec: ModalDecomposition, d):
    """Per-mode delays (slowest link a mode must wait for) and per-machine
    command delays (slowest mode a machine applies)."""
    m = len(dec.machine_x_dims)
    d = np.asarray(d, dtype=float).reshape(m, m)
    if (d < 0).any():
        raise AsymmetricDelays("link delays must be nonnegative")
    if np.abs(np.diag(d)).max() > 0:
        raise AsymmetricDelays("self-link delays must be zero")
    if np.abs(d - d.T).max() > 0:
        raise AsymmetricDelays("link delays must be symmetric")
    n_modes = dec.n_modes
    d_hat = np.zeros(n_modes)
    for i in range(n_modes):
        vals = [d[a, b]
                for a in range(m) if dec.pattern_Mu[a, i]
                for b in range(m) if dec.pattern_Mx_inv[i, b]]
        d_hat[i] = max(vals) if vals else 0.0
    d_rho = np.zeros(m)
    for rho in range(m):
        vals = [d_hat[i] for i in range(n_modes) if dec.pattern_Mu[rho, i]]
        d_rho[rho] = max(vals) if vals else 0.0
    return d_hat, d_rho


@dataclass(frozen=True)
class ModeDesign:
    """Sampled feedback for one mode plus its certificate."""

    disc: DiscretizedSystem
    F: np.ndarray
    result: object  # LqrResult (value z0' P z0) or HinfResult (gamma)


def design_mode(model: CtsModel, h, d_hat_i, method="lqr",
                gamma_tol=1e-3) -> ModeDesign:
    """Discretize a mode's continuous model with its waiting time and
    design the sampled gain by the requested method.

    ``d_hat_i`` may also be a sequence of waiting times whose lifted
    systems have one size; LQR then designs them as one stack, and one
    ``ModeDesign`` is returned per waiting time, in order.
    """
    discs = [discretize(model, h, float(d)) for d in np.atleast_1d(d_hat_i)]
    if method == "lqr":
        results = lqr_design(discs)
    elif method == "hinf":
        results = [gamma_min(disc, tol=gamma_tol)[1] for disc in discs]
    else:
        raise ValueError(f"unknown design method {method!r}")
    designs = [ModeDesign(disc=disc, F=result.F, result=result)
               for disc, result in zip(discs, results)]
    return designs if np.ndim(d_hat_i) else designs[0]


class DistributedController:
    """Distributed controller as a stateless linear map.

    At each sampling instant the modal states are reconstructed from the
    sampled machine states, each mode applies its gain to its lifted state
    (the reconstructed modal state plus its past commands), and the
    per-mode commands are recombined into per-machine remote commands,
    which the simulator applies after each machine's waiting time.
    """

    def __init__(self, gains: LocalGains, dec: ModalDecomposition,
                 schedule: DelaySchedule, mode_designs):
        mode_designs = list(mode_designs)
        if len(mode_designs) != dec.n_modes:
            raise ScheduleMismatch(
                f"need {dec.n_modes} mode designs, got {len(mode_designs)}")
        d_hat, d_rho = delay_map(dec, schedule.d)
        if np.abs(d_hat - schedule.d_hat).max() > 1e-12:
            raise ScheduleMismatch("schedule per-mode delays disagree with "
                                   "the decomposition patterns")
        for i, md in enumerate(mode_designs):
            if abs(md.disc.h - schedule.h) > 1e-12:
                raise ScheduleMismatch(
                    f"mode {i} designed for h={md.disc.h}, schedule has "
                    f"h={schedule.h}")
            if abs(md.disc.d - d_hat[i]) > 1e-12:
                raise ScheduleMismatch(
                    f"mode {i} designed for delay {md.disc.d}, schedule "
                    f"requires {d_hat[i]}")
        self.gains = gains
        self.dec = dec
        self.schedule = schedule
        self.mode_designs = mode_designs
        self.n_memory = max(md.disc.n_memory for md in mode_designs)

    def sample(self, x_phys, memory):
        """Commands from the machine states sampled at one instant.

        ``memory`` stacks the last L >= ``n_memory`` modal commands, newest
        first, all zero before the first instant.  Both arguments may
        carry columns, one instant each.  Returns (v, v_hat): the
        per-machine remote commands and the per-mode commands; v_hat
        pushed onto the front of ``memory`` is the next instant's memory.
        """
        x_hat = self.dec.M_x_inv @ np.asarray(x_phys, dtype=float)
        memory = np.asarray(memory, dtype=float)
        n_u = self.dec.M_u.shape[0]
        if memory.shape[0] < self.n_memory * n_u:
            raise ValueError(f"memory holds {memory.shape[0] // n_u} "
                             f"commands, the modes need {self.n_memory}")
        v_hat = np.empty((n_u,) + x_hat.shape[1:])
        for i, md in enumerate(self.mode_designs):
            us = self.dec.u_slice(i)
            # the lifted state stores the past commands oldest first
            past = [memory[j * n_u:(j + 1) * n_u][us]
                    for j in reversed(range(md.disc.n_memory))]
            z = np.concatenate([x_hat[self.dec.x_slice(i)], *past])
            v_hat[us] = md.F @ z
        return self.dec.M_u @ v_hat, v_hat
