"""Nonlinear multi-machine grid model, equilibrium solve and small-signal
linearization.

Each synchronous generator keeps the swing states (rotor angle and speed)
plus the field-winding flux; stator transients are neglected, so for fixed
rotor states the stator/network variables satisfy a linear algebraic system
that is assembled and solved directly.  All quantities are in SI physical
units (no per-unit scaling); any scaling needed for Newton steps or
finite-difference stepping happens inside those routines only.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    JacobianInconsistent,
    NoConvergence,
    NonFiniteModel,
    OffEquilibrium,
    SingularAlgebraicSystem,
    SingularNetwork,
)

__all__ = [
    "GeneratorParams",
    "NetworkModel",
    "AlgebraicSolution",
    "OperatingPoint",
    "LinearPlant",
    "build_two_area_network",
    "solve_algebraic",
    "dynamics_rhs",
    "rhs_scale",
    "solve_equilibrium",
    "linearize",
    "swap_symmetry_residuals",
]


# per-machine unknowns in the algebraic solve
_IDX_ID, _IDX_IQ, _IDX_IF, _IDX_PSID, _IDX_PSIQ, _IDX_ED, _IDX_EQ = range(7)
_NVAR = 7


@dataclass(frozen=True)
class GeneratorParams:
    """Physical parameters of one synchronous generator (SI units)."""

    L_a0: float    # stator self-inductance, constant part (H)
    L_a2: float    # stator self-inductance, saliency amplitude (H)
    L_f: float     # field-winding self-inductance (H)
    L_af: float    # stator/field mutual inductance (H)
    R_a: float     # stator resistance (Ohm)
    R_f: float     # field resistance (Ohm)
    J_rot: float   # rotor moment of inertia (kg m^2)
    B_fric: float  # friction coefficient (kg m^2 / s)
    p_f: int       # pole-pair count
    T_m: float     # constant mechanical torque (N m)
    e_f0: float    # nominal field voltage (V)

    def __post_init__(self):
        for name in ("L_a0", "L_a2", "L_f", "L_af", "R_a", "R_f", "J_rot"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.B_fric < 0:
            raise ValueError("B_fric must be nonnegative")
        if int(self.p_f) != self.p_f or self.p_f <= 0:
            raise ValueError("p_f must be a positive integer")

    def stator_inductance(self, delta):
        """Stator inductance matrix at rotor angle ``delta``: shape (2, 2),
        or delta.shape + (2, 2) for an array of angles."""
        c2, s2 = np.cos(2 * delta), np.sin(2 * delta)
        rot = np.empty(np.shape(delta) + (2, 2))
        rot[..., 0, 0], rot[..., 0, 1] = c2, s2
        rot[..., 1, 0], rot[..., 1, 1] = s2, -c2
        return self.L_a0 * np.eye(2) + 1.5 * self.L_a2 * rot


@dataclass(frozen=True, eq=False)
class NetworkModel:
    """Reduced network seen from the generator ports at synchronous speed.

    Y maps port voltage phasors (e_d + j e_q) to port current phasors
    (i_d + j i_q, flowing from machine into network); H maps the load-bus
    disturbance current injections to the same port currents.
    """

    Y: np.ndarray
    H: np.ndarray
    omega0: float

    def __post_init__(self):
        Y = np.atleast_2d(np.asarray(self.Y, dtype=complex))
        H = np.atleast_2d(np.asarray(self.H, dtype=complex))
        if Y.shape[0] != Y.shape[1] or H.shape != Y.shape:
            raise ValueError("Y and H must be square with matching shapes")
        if np.abs(Y - Y.T).max() > 1e-12 * (1 + np.abs(Y).max()):
            raise ValueError("Y must be (complex) symmetric")
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "H", H)
        Y.setflags(write=False)
        H.setflags(write=False)


def build_two_area_network(Z_T, Z_L, Z_C, omega0=377.0) -> NetworkModel:
    """Two generators, each tied through Z_T to its own load bus (shunt
    load Z_L), load buses coupled by the tie impedance Z_C; disturbance
    currents inject at the load buses.  Every impedance is finite and
    nonzero, and none so small that the square of its admittance, which
    the reduction forms, overflows (``NonFiniteModel``)."""
    y = {}
    for name, z in (("Z_T", Z_T), ("Z_L", Z_L), ("Z_C", Z_C)):
        if complex(z) == 0:
            raise ValueError(f"{name} must be nonzero")
        y[name] = 1.0 / complex(z)
    y_T, y_L, y_C = y.values()
    # nodes: [gen1, gen2 | load1, load2]
    Y_GG = np.diag([y_T, y_T]).astype(complex)
    Y_GL = np.diag([-y_T, -y_T]).astype(complex)
    Y_LL = np.array([[y_T + y_L + y_C, -y_C],
                     [-y_C, y_T + y_L + y_C]], dtype=complex)
    with np.errstate(over="ignore"):
        size = np.abs(Y_LL).max() ** 2
    if not np.isfinite(size):
        name = max(y, key=lambda k: abs(y[k]))
        raise NonFiniteModel(
            f"the load-bus admittances square past float64; raise "
            f"[network] {name}_Ohm")
    if abs(np.linalg.det(Y_LL)) <= 1e-14 * max(1.0, size):
        raise SingularNetwork("load-bus admittance block is singular")
    Y_red = Y_GG - Y_GL @ np.linalg.solve(Y_LL, Y_GL.T.copy())
    H_red = Y_GL @ np.linalg.inv(Y_LL)
    Y_red = 0.5 * (Y_red + Y_red.T)
    return NetworkModel(Y=Y_red, H=H_red, omega0=omega0)


@dataclass(frozen=True, eq=False)
class AlgebraicSolution:
    """Stator/network variables for fixed rotor states (arrays over machines)."""

    i_d: np.ndarray
    i_q: np.ndarray
    i_f: np.ndarray
    psi_d: np.ndarray
    psi_q: np.ndarray
    e_d: np.ndarray
    e_q: np.ndarray
    T_e: np.ndarray

    def __post_init__(self):
        for name in ("i_d", "i_q", "i_f", "psi_d", "psi_q", "e_d", "e_q", "T_e"):
            getattr(self, name).setflags(write=False)


def _split_state(x, m):
    x = np.asarray(x, dtype=float)
    return x[..., 0::3], x[..., 1::3], x[..., 2::3]  # delta, omega, psi_f


def solve_algebraic(gens, net: NetworkModel, x, w=None) -> AlgebraicSolution:
    """Solve the stator/network algebraic system for fixed rotor states.

    With the rotor angles fixed the flux, stator-voltage and network
    equations are linear in the currents, fluxes and voltages, so one
    direct solve gives everything; the electrical torque follows from the
    solved fluxes and currents.

    ``x`` is one state, shape (3m,), or a stack of them, shape (k, 3m);
    ``w`` is None (no disturbance), one disturbance (2m,) shared by the
    stack, or a stack (k, 2m).  Each field of the solution then has shape
    (m,) or (k, m).  A stack is one LAPACK call over k systems assembled by
    the one-state expressions, so each of its rows is the one-state solve,
    bit for bit.
    """
    m = len(gens)
    x = np.asarray(x, dtype=float)
    lead = x.shape[:-1]
    delta, _, psi_f = _split_state(x.reshape(-1, 3 * m), m)
    k = delta.shape[0]
    w = (np.zeros((k, 2 * m)) if w is None else
         np.broadcast_to(np.asarray(w, dtype=float).reshape(-1, 2 * m),
                         (k, 2 * m)))
    om0 = net.omega0
    G, Bm = net.Y.real, net.Y.imag
    Hre, Him = net.H.real, net.H.imag

    n = _NVAR * m
    M = np.zeros((n, n))      # the entries no rotor angle moves
    for i, g in enumerate(gens):
        o = _NVAR * i
        # field flux: L_f i_f - 1.5 L_af [c s] [i_d; i_q] = psi_f
        M[o + 0, o + _IDX_IF] = g.L_f
        # stator fluxes: psi + Ls i - L_af [c; s] i_f = 0
        M[o + 1, o + _IDX_PSID] = 1.0
        M[o + 2, o + _IDX_PSIQ] = 1.0
        # stator voltages: e_d = -om0 psi_q - R_a i_d ; e_q = om0 psi_d - R_a i_q
        M[o + 3, o + _IDX_ED] = 1.0
        M[o + 3, o + _IDX_PSIQ] = om0
        M[o + 3, o + _IDX_ID] = g.R_a
        M[o + 4, o + _IDX_EQ] = 1.0
        M[o + 4, o + _IDX_PSID] = -om0
        M[o + 4, o + _IDX_IQ] = g.R_a
        # network: i = Y e + H i_w (real and imaginary rows)
        M[o + 5, o + _IDX_ID] = 1.0
        M[o + 6, o + _IDX_IQ] = 1.0
        for j in range(m):
            oj = _NVAR * j
            M[o + 5, oj + _IDX_ED] -= G[i, j]
            M[o + 5, oj + _IDX_EQ] += Bm[i, j]
            M[o + 6, oj + _IDX_ED] -= Bm[i, j]
            M[o + 6, oj + _IDX_EQ] -= G[i, j]
    M = np.repeat(M[None], k, axis=0)
    b = np.zeros((k, n))
    for i, g in enumerate(gens):
        # the angle entries of the flux rows, and the right-hand sides
        o = _NVAR * i
        c, s = np.cos(delta[:, i]), np.sin(delta[:, i])
        Ls = g.stator_inductance(delta[:, i])
        M[:, o + 0, o + _IDX_ID] = -1.5 * g.L_af * c
        M[:, o + 0, o + _IDX_IQ] = -1.5 * g.L_af * s
        b[:, o + 0] = psi_f[:, i]
        M[:, o + 1, o + _IDX_ID] = Ls[:, 0, 0]
        M[:, o + 1, o + _IDX_IQ] = Ls[:, 0, 1]
        M[:, o + 1, o + _IDX_IF] = -g.L_af * c
        M[:, o + 2, o + _IDX_ID] = Ls[:, 1, 0]
        M[:, o + 2, o + _IDX_IQ] = Ls[:, 1, 1]
        M[:, o + 2, o + _IDX_IF] = -g.L_af * s
        for j in range(m):
            w_re, w_im = w[:, 2 * j], w[:, 2 * j + 1]
            b[:, o + 5] += Hre[i, j] * w_re - Him[i, j] * w_im
            b[:, o + 6] += Him[i, j] * w_re + Hre[i, j] * w_im

    try:
        z = np.linalg.solve(M, b[:, :, None])
    except np.linalg.LinAlgError as exc:
        raise SingularAlgebraicSystem(str(exc)) from None
    if not np.isfinite(z).all():
        raise SingularAlgebraicSystem("non-finite algebraic solution")

    zz = z.reshape(lead + (m, _NVAR))
    i_d, i_q, i_f = zz[..., _IDX_ID], zz[..., _IDX_IQ], zz[..., _IDX_IF]
    psi_d, psi_q = zz[..., _IDX_PSID], zz[..., _IDX_PSIQ]
    e_d, e_q = zz[..., _IDX_ED], zz[..., _IDX_EQ]
    p_f = np.array([g.p_f for g in gens], dtype=float)
    T_e = 1.5 * p_f * (psi_d * i_q - psi_q * i_d)
    return AlgebraicSolution(i_d=i_d.copy(), i_q=i_q.copy(), i_f=i_f.copy(),
                             psi_d=psi_d.copy(), psi_q=psi_q.copy(),
                             e_d=e_d.copy(), e_q=e_q.copy(), T_e=T_e.copy())


def dynamics_rhs(gens, net, x, u, w=None):
    """State derivative [d delta; d omega; d psi_f] per machine, for one
    state or a stack of them (with ``u`` and ``w`` one or a stack each, as
    in ``solve_algebraic``)."""
    m = len(gens)
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    sol = solve_algebraic(gens, net, x, w)
    delta, omega, _ = _split_state(x, m)
    out = np.empty(x.shape)
    for i, g in enumerate(gens):
        out[..., 3 * i] = omega[..., i] - net.omega0
        out[..., 3 * i + 1] = (g.T_m - sol.T_e[..., i]
                               - g.B_fric * omega[..., i]) / g.J_rot
        out[..., 3 * i + 2] = u[..., i] - g.R_f * sol.i_f[..., i]
    return out


def rhs_scale(gens, net):
    """Per-component scale for 'units-scaled' derivative norms."""
    out = np.empty(3 * len(gens))
    for i, g in enumerate(gens):
        out[3 * i] = 1.0
        out[3 * i + 1] = max(1.0, (abs(g.T_m) + g.B_fric * net.omega0) / g.J_rot)
        out[3 * i + 2] = max(1.0, abs(g.e_f0))
    return out


@dataclass(frozen=True, eq=False)
class OperatingPoint:
    """Equilibrium of the nonlinear model (omega_i = omega0 exactly)."""

    x: np.ndarray          # [delta, omega, psi_f] per machine
    u: np.ndarray          # field voltages at equilibrium
    sol: AlgebraicSolution
    residual_history: tuple

    def __post_init__(self):
        self.x.setflags(write=False)
        self.u.setflags(write=False)


def _equilibrium_residual(gens, net, theta, v_target):
    """Scaled residual of the equilibrium conditions at unknowns
    theta = [delta_1..m, psi_f_1..m], or at each row of a stack of them."""
    m = len(gens)
    theta = np.asarray(theta, dtype=float)
    x = np.empty(theta.shape[:-1] + (3 * m,))
    x[..., 0::3] = theta[..., :m]
    x[..., 1::3] = net.omega0
    x[..., 2::3] = theta[..., m:]
    sol = solve_algebraic(gens, net, x, None)
    res = np.empty(theta.shape)
    for i, g in enumerate(gens):
        t_scale = max(1.0, abs(g.T_m), g.B_fric * net.omega0)
        res[..., i] = (g.T_m - sol.T_e[..., i]
                       - g.B_fric * net.omega0) / t_scale
        if v_target is None:
            v_scale = max(1.0, abs(g.e_f0))
            res[..., m + i] = (g.e_f0 - g.R_f * sol.i_f[..., i]) / v_scale
        else:
            # float_power rounds as a scalar's ** does; an array's ** 2
            # squares, which differs in the last bit about once in 1,000
            vmag2 = (np.float_power(sol.e_d[..., i], 2)
                     + np.float_power(sol.e_q[..., i], 2))
            v2 = np.float_power(v_target, 2)   # inf, not OverflowError
            res[..., m + i] = (vmag2 - v2) / max(1.0, v2)
    return res, sol


def solve_equilibrium(gens, net, v_target=None, tol=1e-10, max_iters=100):
    """Damped Newton solve for the working point.

    Unknowns are the rotor angles and field fluxes.  With ``v_target`` the
    field equation is replaced by a terminal-voltage magnitude target and
    the equilibrium field voltages are recovered as R_f * i_f; otherwise
    the nominal field voltages from the generator parameters are enforced.

    A uniform shift of every rotor angle leaves the model invariant (there
    is no absolute phase reference), so the Newton step is taken in the
    minimum-norm sense; the returned angles keep the zero mean of the
    starting angles.  Because of the same invariance the supplied torques
    must be power-consistent with the excitations; otherwise no exact
    equilibrium exists and the iteration reports its best residual.
    """
    m = len(gens)
    theta = np.zeros(2 * m)
    for i, g in enumerate(gens):
        if v_target is None:
            theta[m + i] = g.L_f * g.e_f0 / g.R_f  # no-load relation
        else:
            theta[m + i] = g.L_f * v_target / (net.omega0 * g.L_af)
    # Newton in scaled coordinates (angles O(1), fluxes O(1e3))
    unknown_scale = np.ones(2 * m)
    unknown_scale[m:] = np.maximum(1.0, np.abs(theta[m:]))

    history = []
    with np.errstate(over="ignore", invalid="ignore"):
        res, sol = _equilibrium_residual(gens, net, theta, v_target)
    if not np.isfinite(res).all():
        keys = ("[generators] R_f_mOhm and e_f0_V" if v_target is None else
                "[equilibrium] v_target_V and [generators] L_af_mH")
        raise NonFiniteModel(
            f"the equilibrium conditions overflow float64 at the starting "
            f"field flux {theta[m:].max():.3g} Wb; check {keys}")
    norm = np.abs(res).max()
    history.append(norm)
    for _ in range(max_iters):
        if norm <= tol:
            break
        steps = 1e-7 * unknown_scale
        res_pm, _ = _equilibrium_residual(
            gens, net, _central_points(theta, steps), v_target)
        Jac = _central_columns(res_pm, steps) * unknown_scale
        # minimum-norm step: the common-angle direction is a null direction
        dscaled, *_ = np.linalg.lstsq(Jac, -res, rcond=1e-6)
        dtheta = dscaled * unknown_scale
        # backtracking: halve the step while the residual grows
        lam = 1.0
        for _ in range(40):
            res_new, sol_new = _equilibrium_residual(
                gens, net, theta + lam * dtheta, v_target)
            if np.abs(res_new).max() < norm:
                break
            lam *= 0.5
        theta = theta + lam * dtheta
        res, sol = res_new, sol_new
        norm = np.abs(res_new).max()
        history.append(norm)
    if norm > tol:
        hint = (": with T_m_Nm fixed, an equilibrium exists only where the "
                "torque is power-consistent with ")
        if v_target is None:
            hint += ("the field voltage e_f0_V; recompute T_m_Nm for e_f0_V "
                     "with scripts/make_benchmark_config.py")
        else:
            hint += ("the terminal-voltage target v_target_V; set "
                     "v_target_V = none to hold e_f0_V, or set e_f0_V for "
                     "the voltage wanted and recompute T_m_Nm with "
                     "scripts/make_benchmark_config.py")
        raise NoConvergence(max_iters, norm, history, hint)

    x = np.empty(3 * m)
    x[0::3] = theta[:m]
    x[1::3] = net.omega0
    x[2::3] = theta[m:]
    if v_target is None:
        u = np.array([g.e_f0 for g in gens])
    else:
        u = np.array([g.R_f * sol.i_f[i] for i, g in enumerate(gens)])
    return OperatingPoint(x=x.copy(), u=u, sol=sol,
                          residual_history=tuple(history))


@dataclass(frozen=True, eq=False)
class LinearPlant:
    """Small-signal model d/dt dx = A dx + B_u du + B_w dw.

    State blocks per machine are (delta, omega, psi_f); inputs are the
    field voltages; disturbances stack the two load-bus current components
    per machine.
    """

    A: np.ndarray
    B_u: np.ndarray
    B_w: np.ndarray
    m: int

    def __post_init__(self):
        self.A.setflags(write=False)
        self.B_u.setflags(write=False)
        self.B_w.setflags(write=False)

    @property
    def n_x(self):
        return 3 * self.m

    @property
    def n_u(self):
        return self.m

    @property
    def n_w(self):
        return 2 * self.m


# the largest scaled dynamics residual at which linearize takes a point
# for an equilibrium
_LINEARIZE_RESIDUAL = 1e-8


def _pow2_step(s):
    return 2.0 ** round(np.log2(s))


def _central_points(v0, steps):
    """The 2n points of a central difference at v0 (size n): v0 + steps[j]
    e_j for each j, then v0 - steps[j] e_j."""
    n = v0.size
    plus = np.tile(v0, (n, 1))
    minus = plus.copy()
    diag = np.arange(n)
    plus[diag, diag] += steps
    minus[diag, diag] -= steps
    return np.concatenate([plus, minus])


def _central_columns(f_pm, steps):
    """The central-difference Jacobian from f at ``_central_points``'s
    rows: column j is (f(v0 + steps[j] e_j) - f(v0 - steps[j] e_j)) /
    (2 steps[j])."""
    n = steps.size
    return ((f_pm[:n] - f_pm[n:]) / (2 * steps)[:, None]).T


def linearize(gens, net, op: OperatingPoint) -> LinearPlant:
    """Central-difference Jacobians of the dynamics at the operating point.

    Steps are per-coordinate, proportional to the coordinate magnitude and
    rounded to powers of two (so exactly linear entries difference without
    rounding).  Each Jacobian is validated by step doubling: the
    finite-difference error must shrink consistently with second-order
    convergence, or the point is flagged as non-smooth/mis-scaled.  All
    the perturbed points, three step sizes of the state, input and
    disturbance columns, go through one stacked algebraic solve.
    """
    m = len(gens)
    scaled = rhs_scale(gens, net)
    rhs0 = dynamics_rhs(gens, net, op.x, op.u, None) / scaled
    residual = np.abs(rhs0).max()
    if residual > _LINEARIZE_RESIDUAL:
        raise OffEquilibrium(
            f"the operating point's scaled dynamics residual {residual:.2e} "
            f"exceeds the {_LINEARIZE_RESIDUAL:.0e} linearize accepts; "
            "tighten [tolerances] equilibrium (default 1e-10)")

    centers = (op.x, op.u, np.zeros(2 * m))
    # disturbance currents enter the dynamics at most quadratically, so the
    # central difference has no truncation error; an ampere-scale step
    # avoids the cancellation noise a 1e-6 A step would leave in B_w
    w_floor = 1.0
    plans = []     # (perturbed argument, steps) of J1, J2 and J4 of each
    for arg, floor in enumerate((1e-6, 1e-6, w_floor)):
        steps = np.array([_pow2_step(max(floor, 1e-6 * abs(v)))
                          for v in centers[arg]])
        plans += [(arg, mult * steps) for mult in (1, 2, 4)]
    stacks = ([], [], [])     # x, u and w of every perturbed point
    for arg, steps in plans:
        for i, v0 in enumerate(centers):
            stacks[i].append(_central_points(v0, steps) if i == arg else
                             np.broadcast_to(v0, (2 * steps.size, v0.size)))
    f_pm = dynamics_rhs(gens, net, *(np.concatenate(s) for s in stacks))
    ends = np.cumsum([2 * steps.size for _, steps in plans])
    J = [_central_columns(f, steps)
         for f, (_, steps) in zip(np.split(f_pm, ends[:-1]), plans)]

    blocks = []
    for J1, J2, J4 in zip(J[0::3], J[1::3], J[2::3]):
        d12 = np.linalg.norm((J2 - J1) / scaled[:, None])
        d24 = np.linalg.norm((J4 - J2) / scaled[:, None])
        floor = 1e-5 * (1.0 + np.linalg.norm(J1 / scaled[:, None]))
        if d12 > floor:
            ratio = d24 / d12
            if not (3.6 <= ratio <= 4.4):
                raise JacobianInconsistent(
                    f"step-halving ratio {ratio:.2f} outside [3.6, 4.4] "
                    f"(diff norms {d24:.2e} / {d12:.2e})")
        blocks.append(J1)

    return LinearPlant(A=blocks[0], B_u=blocks[1], B_w=blocks[2], m=m)


def swap_symmetry_residuals(plant: LinearPlant):
    """Relative commutation residuals with the machine-swap permutation
    (two-machine plants only)."""
    if plant.m != 2:
        raise ValueError("swap symmetry is defined for two machines")
    Px = np.zeros((6, 6))
    Px[:3, 3:] = np.eye(3)
    Px[3:, :3] = np.eye(3)
    Pu = np.array([[0.0, 1.0], [1.0, 0.0]])
    Pw = np.zeros((4, 4))
    Pw[:2, 2:] = np.eye(2)
    Pw[2:, :2] = np.eye(2)
    def rel(lhs, M):
        return np.abs(lhs).max() / max(np.abs(M).max(), 1e-300)

    return {"A": rel(Px @ plant.A - plant.A @ Px, plant.A),
            "B_u": rel(Px @ plant.B_u - plant.B_u @ Pu, plant.B_u),
            "B_w": rel(Px @ plant.B_w - plant.B_w @ Pw, plant.B_w)}
