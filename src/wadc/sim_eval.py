"""Closed-loop continuous-time simulation under the distributed-controller
timing semantics, cost/attenuation evaluation, delay sweeps, and the
decentralized/global reference bounds.

Between events the closed loop is linear with constant inputs, so the
fixed-step RK4 update is precomputed once as an affine map; events
(state sampling at kh, remote-command switching at kh + d_rho) land
exactly on the integer step grid by construction.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dncs import (
    DelaySchedule,
    DistributedController,
    ModeDesign,
    delay_map,
    design_mode,
)
from .errors import EventGridMismatch, WadcError
from .grid_model import LinearPlant
from .sampled import _nice_fraction
from .synthesis import hinf_norm, stein_solve

__all__ = [
    "Scenario",
    "SimulationOutput",
    "SweepRow",
    "SweepResult",
    "refine_step",
    "simulate_closed_loop",
    "compute_bounds",
    "sweep_delays",
]

_BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class Scenario:
    """One closed-loop run: initial condition, disturbance and timing."""

    initial_state: np.ndarray
    schedule: DelaySchedule
    initial_coords: str = "modal"          # "modal" or "physical"
    disturbance: np.ndarray = None         # (K, n_w) held samples, or None
    integrator_step: float = 1e-3
    horizon: float = None                  # None: auto-extend on cost tail

    def __post_init__(self):
        object.__setattr__(self, "initial_state",
                           np.asarray(self.initial_state, dtype=float).copy())
        if self.initial_coords not in ("modal", "physical"):
            raise ValueError("initial_coords must be 'modal' or 'physical'")
        if self.disturbance is not None:
            w = np.atleast_2d(np.asarray(self.disturbance, dtype=float))
            object.__setattr__(self, "disturbance", w)


@dataclass(frozen=True)
class SimulationOutput:
    t: np.ndarray
    x: np.ndarray        # physical deviation states, (N+1, n_x)
    u: np.ndarray        # total input K x + u_bar, (N+1, n_u)
    u_bar: np.ndarray    # remote commands as applied, (N+1, n_u)
    y: np.ndarray        # C x + D_u u_bar + D_w w, (N+1, n_y)
    J: float
    step: float
    horizon: float


def _rational_gcd(values):
    fracs = [_nice_fraction(v) for v in values if v > 0]
    if not fracs:
        raise ValueError("no positive spacings to align")
    g = fracs[0]
    for f in fracs[1:]:
        g = Fraction(math.gcd(g.numerator * f.denominator,
                              f.numerator * g.denominator),
                     g.denominator * f.denominator)
    return g


def refine_step(requested, h, offsets=(), fastest_rate=None):
    """Largest step of the form gcd/2^k (k >= 1) not exceeding the request.

    Halving the rational gcd of the sampling period and all switching
    offsets puts every event on an even step index, so composite Simpson
    panels never straddle a command switch.  With ``fastest_rate`` (the
    largest closed-loop eigenvalue magnitude) the step is also kept inside
    the explicit integrator's stability region.
    """
    limit = float(requested)
    if fastest_rate is not None and fastest_rate > 0:
        limit = min(limit, 2.5 / float(fastest_rate))
    g = _rational_gcd([h, *offsets])
    step = g / 2
    while float(step) > limit * (1 + 1e-12):
        step /= 2
    return float(step)


def _exact_multiple(value, step):
    if value == 0:
        return 0
    ratio = _nice_fraction(value) / _nice_fraction(step)
    if ratio.denominator != 1:
        return None
    return int(ratio)


def _rk4_affine(A, dt):
    """RK4 on a linear system with constant forcing is the quartic Taylor
    map; returns (state map, forcing map such that x+ = R x + S c)."""
    n = A.shape[0]
    A2 = A @ A
    A3 = A2 @ A
    A4 = A3 @ A
    R = (np.eye(n) + dt * A + dt ** 2 / 2 * A2 + dt ** 3 / 6 * A3
         + dt ** 4 / 24 * A4)
    S = dt * (np.eye(n) + dt / 2 * A + dt ** 2 / 6 * A2 + dt ** 3 / 24 * A3)
    return R, S


def simulate_closed_loop(plant: LinearPlant, controller: DistributedController,
                         scn: Scenario, Q, R, C=None, D_u=None, D_w=None,
                         tail_rel=1e-9, max_extensions=48):
    """Integrate the closed loop and accumulate the quadratic cost.

    Remote commands computed from the states sampled at kh switch exactly
    at kh + d_rho and hold for one sampling period; the running cost prices
    the state and the total input u = K x + u_bar by composite Simpson at
    integrator resolution.
    """
    dec = controller.dec
    sched = controller.schedule
    h = sched.h
    dt = float(scn.integrator_step)
    n_h = _exact_multiple(h, dt)
    if n_h is None or n_h < 1:
        raise EventGridMismatch(
            f"integrator step {dt} does not divide the sampling period {h}")
    n_rho = []
    for d_rho in sched.d_rho:
        k = _exact_multiple(float(d_rho), dt)
        if k is None:
            raise EventGridMismatch(
                f"integrator step {dt} misses the switching offset {d_rho}")
        n_rho.append(k)
    if n_h % 2 or any(k % 2 for k in n_rho):
        # quadrature pairs must never straddle a command switch
        raise EventGridMismatch(
            "events fall on odd step indices; choose the step with "
            "refine_step so every switching instant lands on a pair boundary")

    A_bar = controller.gains.A_bar
    K = controller.gains.K
    Rmap, Smap = _rk4_affine(A_bar, dt)
    if np.abs(np.linalg.eigvals(Rmap)).max() >= 1.0:
        fastest = np.abs(np.linalg.eigvals(A_bar)).max()
        raise EventGridMismatch(
            f"integrator step {dt} is outside the explicit method's "
            f"stability region for the fastest closed-loop mode "
            f"(|lambda|_max = {fastest:.3g} 1/s); pick the step with "
            "refine_step(..., fastest_rate=...)")
    S_u = Smap @ plant.B_u
    S_w = Smap @ plant.B_w

    Q = np.asarray(Q, dtype=float).reshape(plant.n_x, plant.n_x)
    R = np.asarray(R, dtype=float).reshape(plant.n_u, plant.n_u)

    x0 = scn.initial_state
    if scn.initial_coords == "modal":
        x0 = dec.M_x @ x0
    x0 = x0.reshape(plant.n_x)

    w_seq = scn.disturbance
    if scn.horizon is not None:
        horizon = float(scn.horizon)
        auto = False
    else:
        eigs = np.linalg.eigvals(A_bar)
        slowest = 1.0 / max(1e-6, -eigs.real.max())
        horizon = 20.0 * slowest
        auto = True
    # whole sampling periods; extensions add quarter-chunks until the cost
    # increment dies out
    first_chunk = max(n_h, int(round(horizon / dt / n_h)) * n_h)
    ext_chunk = max(n_h, first_chunk // (4 * n_h) * n_h)

    controller.reset()
    # run-batched stepping: between events the input is constant, so a run
    # of L steps is two tensor contractions with precomputed propagator
    # stacks (P_i = R^i, G_i = sum_{t<i} R^t S)
    boundaries = sorted({0} | {nd % n_h for nd in n_rho})
    run_lens = [b2 - b1 for b1, b2 in zip(boundaries, boundaries[1:])]
    run_lens.append(n_h - boundaries[-1])
    run_lens = [L for L in run_lens if L > 0]
    max_L = max(run_lens)
    P_stack = np.empty((max_L, plant.n_x, plant.n_x))
    G_stack = np.empty_like(P_stack)
    P_stack[0], G_stack[0] = Rmap, Smap
    for i in range(1, max_L):
        P_stack[i] = Rmap @ P_stack[i - 1]
        G_stack[i] = Rmap @ G_stack[i - 1] + Smap
    B_uw = np.hstack([plant.B_u, plant.B_w])

    xs, ubar_runs = [x0[None, :].copy()], []
    x = x0.copy()
    u_bar = np.zeros(plant.n_u)
    pending = {}  # step index -> list of (offset, value)
    j = 0
    chunk_costs = []
    total_steps = 0

    def cost_simpson(traj_x, traj_ubar):
        """Composite Simpson with the command switches on pair boundaries.

        traj_ubar[i] holds the command active on step i-1 -> i, so within
        each Simpson pair (2i, 2i+1, 2i+2) the command traj_ubar[2i+1] is
        constant; the shared boundary nodes are evaluated one-sidedly with
        each pair's own command.
        """
        n = traj_x.shape[0] - 1
        if n < 2:
            return 0.0
        qf = np.einsum("ij,jk,ik->i", traj_x, Q, traj_x)
        u_pair = traj_ubar[1::2]                      # (n/2, n_u)
        x0, x1, x2 = traj_x[0:-2:2], traj_x[1::2], traj_x[2::2]

        def upart(xn):
            u = xn @ K.T + u_pair
            return np.einsum("ij,jk,ik->i", u, R, u)

        total = (qf[0:-2:2] + upart(x0) + 4.0 * (qf[1::2] + upart(x1))
                 + qf[2::2] + upart(x2))
        return dt / 3.0 * float(total.sum())

    zero_w = np.zeros(plant.n_w)
    for ext in range(max_extensions):
        end = total_steps + (first_chunk if ext == 0 else ext_chunk)
        while j < end:
            if j % n_h == 0:
                v, _ = controller.sample(x)
                off = 0
                for rho, nd in enumerate(n_rho):
                    du = dec.machine_u_dims[rho]
                    pending.setdefault(j + nd, []).append(
                        (off, v[off:off + du].copy()))
                    off += du
            k_w = j // n_h
            wk = (w_seq[k_w] if w_seq is not None and k_w < len(w_seq)
                  else zero_w)
            upto = (j // n_h + 1) * n_h
            while j < upto:
                if j in pending:
                    for off, val in pending.pop(j):
                        u_bar[off:off + val.size] = val
                nxt = min((idx for idx in pending if j < idx < upto),
                          default=upto)
                L = nxt - j
                c = B_uw @ np.concatenate([u_bar, wk])
                block = P_stack[:L] @ x + G_stack[:L] @ c
                xs.append(block)
                ubar_runs.append((u_bar.copy(), L))
                x = block[-1]
                j += L
        total_steps = end
        # tail check on the accumulated cost
        traj_x = np.concatenate(xs)
        xs = [traj_x]
        traj_ub = np.concatenate(
            [np.broadcast_to(u, (L, plant.n_u)) for u, L in ubar_runs])
        traj_ub = np.concatenate([np.zeros((1, plant.n_u)), traj_ub])
        J_total = cost_simpson(traj_x, traj_ub)
        chunk_costs.append(J_total)
        if not auto:
            break
        if len(chunk_costs) >= 2:
            inc = chunk_costs[-1] - chunk_costs[-2]
            if abs(inc) <= tail_rel * max(abs(J_total), 1e-300):
                break

    traj_x = np.concatenate(xs) if len(xs) > 1 else xs[0]
    traj_ub = np.concatenate(
        [np.broadcast_to(u, (L, plant.n_u)) for u, L in ubar_runs])
    traj_ub = np.concatenate([np.zeros((1, plant.n_u)), traj_ub])
    J = cost_simpson(traj_x, traj_ub)

    # assemble the reported trace
    n_steps = traj_x.shape[0]
    t = dt * np.arange(n_steps)
    u_tot = traj_x @ K.T + traj_ub
    w_full = np.zeros((n_steps, plant.n_w))
    if w_seq is not None:
        k_idx = np.arange(n_steps) // n_h
        live = k_idx < len(w_seq)
        w_full[live] = w_seq[k_idx[live]]
    if C is not None:
        C = np.atleast_2d(np.asarray(C, dtype=float))
        D_u = np.zeros((C.shape[0], plant.n_u)) if D_u is None \
            else np.atleast_2d(np.asarray(D_u, dtype=float))
        D_w = np.zeros((C.shape[0], plant.n_w)) if D_w is None \
            else np.atleast_2d(np.asarray(D_w, dtype=float))
        # output convention: the published output map takes the remote command
        y = traj_x @ C.T + traj_ub @ D_u.T + w_full @ D_w.T
    else:
        y = np.zeros((n_steps, 0))
    return SimulationOutput(
        t=t, x=traj_x, u=u_tot, u_bar=traj_ub,
        y=y, J=float(J), step=dt, horizon=float(t[-1]))


def compute_bounds(md0: ModeDesign, measure, z0=None):
    """Reference levels for one mode and measure from its zero-delay design.

    Upper: remote commands disabled (local gains only).  Lower: the
    zero-delay design itself, remote feedback with full sampled state
    information; performance with any delay and information pattern lands
    between the two.
    """
    disc0 = md0.disc
    if measure == "lqr":
        if z0 is None:
            raise ValueError("lqr bounds need an initial modal state")
        z0 = disc0.lift_state(z0)
        P_dec = stein_solve(disc0.A2, disc0.Q2)
        return float(z0 @ P_dec @ z0), md0.result.J_star(z0)
    upper = hinf_norm(disc0.A2, disc0.B2w, disc0.C2, disc0.D2w)
    return upper, md0.result.gamma


@dataclass(frozen=True)
class SweepRow:
    delay: float
    mode: str
    measure: str
    value: float
    lower: float
    upper: float
    status: str


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    warnings: tuple
    meta: dict

    def all_ok(self):
        return all(r.status == "ok" for r in self.rows)


def sweep_delays(sys, cost, dec, mode, measure, delay_grid, h, z0=None,
                 gamma_tol=1e-3):
    """Evaluate the distributed design of one mode, whose continuous model
    is (sys, cost), across link delays, with bounds.

    The zero-delay design is made once: it gives the lower bound and the
    value of every row whose waiting time is zero.  Per-row failures are
    recorded and the sweep continues; each surviving row is checked
    against the bound sandwich, and a soft monotonicity warning is emitted
    when the measure decreases along more than 10% of consecutive delay
    pairs.
    """
    i = dec.mode_index(mode)
    delay_grid = [float(t) for t in delay_grid]
    if any(t < 0 for t in delay_grid) or sorted(delay_grid) != delay_grid:
        raise ValueError("delay grid must be nonnegative and ascending")
    if measure == "lqr" and z0 is None:
        z0 = np.zeros(sys.n_x)
        z0[0] = 1.0
    md0 = design_mode(sys, cost, h, 0.0, method=measure, gamma_tol=gamma_tol)
    upper, lower = compute_bounds(md0, measure, z0=z0)
    m = len(dec.machine_x_dims)
    links = ~np.eye(m, dtype=bool)

    def one_row(tau):
        try:
            d_hat, _ = delay_map(dec, np.where(links, tau, 0.0))
            md = md0 if d_hat[i] == 0 else design_mode(
                sys, cost, h, float(d_hat[i]), method=measure,
                gamma_tol=gamma_tol)
            if measure == "lqr":
                value = md.result.J_star(md.disc.lift_state(z0))
            else:
                value = md.result.gamma
            ok = (value >= lower - _BOUND_SLACK * abs(lower)
                  and value <= upper + _BOUND_SLACK * abs(upper))
            status = "ok" if ok else "bound_violation"
        except WadcError as exc:
            value, status = float("nan"), f"failed:{type(exc).__name__}"
        return SweepRow(delay=tau, mode=dec.labels[i], measure=measure,
                        value=value, lower=lower, upper=upper, status=status)

    rows = [one_row(tau) for tau in delay_grid]
    warnings = []
    good = [r for r in rows if r.status == "ok"]
    if len(good) >= 2:
        pairs = sum(1 for a, b in zip(good, good[1:]) if b.value >= a.value
                    * (1 - 1e-12) - 1e-300)
        frac = pairs / (len(good) - 1)
        if frac < 0.9:
            warnings.append(
                f"measure decreased along {1 - frac:.0%} of consecutive "
                "delay pairs; expected a nondecreasing trend")
    meta = {"mode": dec.labels[i], "measure": measure, "h": h,
            "gamma_tol": gamma_tol,
            "z0": None if z0 is None else list(np.asarray(z0, float))}
    return SweepResult(rows=tuple(rows), warnings=tuple(warnings), meta=meta)
