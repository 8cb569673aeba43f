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
from .grid_model import LinearPlant, swap_symmetry_residuals
from .sampled import CtsCost, CtsModel, CtsSystem, discretize
from .synthesis import gamma_min, lqr_design

__all__ = [
    "LocalGains",
    "ModalDecomposition",
    "DistributedController",
    "symmetric_modes",
    "mode_system",
    "delay_map",
    "design_mode",
]


@dataclass(frozen=True, eq=False)
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
    def machine_u_dims(self):
        return tuple(b.shape[0] for b in self.K_blocks)


def _offsets(dims):
    out = [0]
    for d in dims:
        out.append(out[-1] + d)
    return out


@dataclass(frozen=True, eq=False)
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
    A_hat: np.ndarray
    B_u_hat: np.ndarray
    B_w_hat: np.ndarray
    mode_x_dims: tuple
    mode_u_dims: tuple
    mode_w_dims: tuple
    pattern_Mu: np.ndarray        # (machines, modes)
    pattern_Mx_inv: np.ndarray    # (modes, machines)
    labels: tuple

    def __post_init__(self):
        for name in ("M_x", "M_u", "M_w", "M_x_inv", "A_hat", "B_u_hat",
                     "B_w_hat", "pattern_Mu", "pattern_Mx_inv"):
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


def symmetric_modes(plant: LinearPlant, gains: LocalGains,
                    tol=1e-7) -> ModalDecomposition:
    """Oscillation/common decomposition for two identical machines:
    x_hat_1 = x_1 - x_2 (oscillation), x_hat_2 = x_1 + x_2 (common), and
    the same split for inputs and disturbances.  Every machine applies
    both modes and every mode reads both machines, so both delay patterns
    are dense.

    The plant must commute with the machine swap to ``tol`` (relative) and
    the two local gains must match; the transformed pre-stabilized plant
    must then be block-diagonal at the half split to 1e-8 of each
    matrix's largest entry (at least 1).
    """
    if plant.m != 2:
        raise NotSymmetric("built-in decomposition needs exactly 2 machines")
    res = swap_symmetry_residuals(plant)
    name = max(res, key=res.get)
    if res[name] > tol:
        raise NotSymmetric(
            f"plant fails machine-swap symmetry: {name} residual "
            f"{res[name]:.3e} > {tol:g}; both machines' parameters and "
            "local gains must match")
    K1, K2 = gains.K_blocks
    if K1.shape != K2.shape or np.abs(K1 - K2).max() > tol * (1 + np.abs(K1).max()):
        raise NotSymmetric("local gain rows differ across machines; both "
                           "machines must share one local gain row")

    def split(n):
        I = np.eye(n)
        return 0.5 * np.block([[I, I], [-I, I]])

    nx, nu, nw = plant.n_x // 2, plant.n_u // 2, plant.n_w // 2
    M_x, M_u, M_w = split(nx), split(nu), split(nw)
    M_x_inv = np.linalg.inv(M_x)
    A_hat = M_x_inv @ gains.A_bar @ M_x
    B_u_hat = M_x_inv @ plant.B_u @ M_u
    B_w_hat = M_x_inv @ plant.B_w @ M_w
    for what, T, M, nc in (("A_hat", A_hat, gains.A_bar, nx),
                           ("B_u_hat", B_u_hat, plant.B_u, nu),
                           ("B_w_hat", B_w_hat, plant.B_w, nw)):
        off = max(np.abs(T[:nx, nc:]).max(), np.abs(T[nx:, :nc]).max())
        if off > 1e-8 * max(1.0, np.abs(M).max()):
            raise NotBlockDiagonalizable(what, float(off))
    return ModalDecomposition(
        M_x=M_x, M_u=M_u, M_w=M_w, M_x_inv=M_x_inv,
        A_hat=A_hat, B_u_hat=B_u_hat, B_w_hat=B_w_hat,
        mode_x_dims=(nx, nx), mode_u_dims=(nu, nu), mode_w_dims=(nw, nw),
        pattern_Mu=np.ones((2, 2), dtype=bool),
        pattern_Mx_inv=np.ones((2, 2), dtype=bool),
        labels=("oscillation", "common"),
    )


def mode_system(gains: LocalGains, dec: ModalDecomposition, i,
                Q, R, C, D_u):
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
    Mblk = np.zeros((n_x + n_u, n_x + n_u))
    Mblk[:n_x, :n_x] = dec.M_x
    Mblk[n_x:, n_x:] = dec.M_u
    # a cost that overflows here is refused, typed, by CtsCost
    with np.errstate(over="ignore", invalid="ignore"):
        big = np.block([[Q + K.T @ R @ K, K.T @ R],
                        [R @ K, R]])
        U = Mblk.T @ big @ Mblk
        U = 0.5 * (U + U.T)
    xs, us, ws = dec.x_slice(i), dec.u_slice(i), dec.w_slice(i)
    u_off = _offsets(dec.mode_u_dims)
    ug = slice(n_x + u_off[i], n_x + u_off[i + 1])
    C = np.atleast_2d(np.asarray(C, dtype=float))
    D_u = np.atleast_2d(np.asarray(D_u, dtype=float))
    sys = CtsSystem(A1=dec.A_hat[xs, xs], B1u=dec.B_u_hat[xs, us],
                    B1w=dec.B_w_hat[xs, ws], C1=(C @ dec.M_x)[:, xs],
                    D1u=(D_u @ dec.M_u)[:, us])
    cost = CtsCost(Q1=U[xs, xs], N1=U[xs, ug], R1=U[ug, ug])
    return CtsModel(sys, cost)


def delay_map(dec: ModalDecomposition, d):
    """Per-mode delays (slowest link a mode must wait for) and per-machine
    command delays (slowest mode a machine applies)."""
    m = len(dec.pattern_Mu)
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


def design_mode(model: CtsModel, h, d_hat_i, method="lqr", gamma_tol=1e-3):
    """Discretize a mode's continuous model with its waiting time and
    design the sampled gain by the requested method: an ``LqrResult``
    (value z0' P z0) or a ``HinfResult`` (gamma), carrying the lifted
    system ``disc`` it was designed on.

    ``d_hat_i`` may also be a sequence of waiting times whose lifted
    systems have one size; LQR then designs them as one stack, and one
    result is returned per waiting time, in order.
    """
    discs = [discretize(model, h, float(d)) for d in np.atleast_1d(d_hat_i)]
    if method == "lqr":
        results = lqr_design(discs)
    elif method == "hinf":
        results = [gamma_min(disc, tol=gamma_tol) for disc in discs]
    else:
        raise ValueError(f"unknown design method {method!r}")
    return results if np.ndim(d_hat_i) else results[0]


class DistributedController:
    """Distributed controller as a stateless linear map.

    At each sampling instant the modal states are reconstructed from the
    sampled machine states, each mode applies its gain to its lifted state
    (the reconstructed modal state plus its past commands), and the
    per-mode commands are recombined into per-machine remote commands,
    which the simulator applies after each machine's waiting time
    ``d_rho``.  Each mode's design must be made for its wait in
    ``delay_map`` of the link delays ``d`` and for the sampling period h.
    """

    def __init__(self, gains: LocalGains, dec: ModalDecomposition, d, h,
                 mode_designs):
        mode_designs = list(mode_designs)
        if len(mode_designs) != dec.n_modes:
            raise ScheduleMismatch(
                f"need {dec.n_modes} mode designs, got {len(mode_designs)}")
        d_hat, self.d_rho = delay_map(dec, d)
        self.h = float(h)
        for i, md in enumerate(mode_designs):
            if abs(md.disc.h - self.h) > 1e-12:
                raise ScheduleMismatch(
                    f"mode {i} designed for h={md.disc.h}, controller has "
                    f"h={self.h}")
            if abs(md.disc.d - d_hat[i]) > 1e-12:
                raise ScheduleMismatch(
                    f"mode {i} designed for delay {md.disc.d}, the link "
                    f"delays require {d_hat[i]}")
        self.gains = gains
        self.dec = dec
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
