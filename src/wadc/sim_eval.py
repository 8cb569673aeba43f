"""Closed-loop continuous-time simulation under the distributed-controller
timing semantics, cost/attenuation evaluation, delay sweeps, and the
decentralized/global reference bounds.

Between events the closed loop is linear with constant inputs, so the
fixed-step RK4 update is one affine map; the simulator picks its step so
that events (state sampling at kh, remote-command switching at
kh + d_rho) fall on whole, even step counts by construction, and one
sampling period of steps composes into one fixed linear map of the
sampled state and the command memory.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dncs import DistributedController, delay_map, design_mode
from .errors import (
    HorizonTooLong,
    InvalidSampling,
    StepGridTooFine,
    UnstableSystem,
    WadcError,
)
from .grid_model import LinearPlant
from .sampled import _nice_fraction, split_delay
from .synthesis import hinf_norm, quadratic_cost, stein_solve

__all__ = [
    "MAX_PERIODS",
    "MAX_STEPS_PER_PERIOD",
    "MAX_SWEEP_IN_FLIGHT",
    "Scenario",
    "SimulationOutput",
    "SweepRow",
    "SweepResult",
    "simulate_closed_loop",
    "compute_bounds",
    "sweep_delays",
]

_BOUND_SLACK = 1e-9
_BLOCK = 256   # sampling periods advanced by one batched product
_SEGMENT = 8 * _BLOCK   # trace rows handed on together, about 0.3 MB
MAX_PERIODS = 1_000_000   # sampling periods one simulation may step
MAX_STEPS_PER_PERIOD = 2 ** 16   # RK4 steps in one sampling period
# input samples in flight over one sweep's waits: about twice the 8,372
# that the sweep's bound counts on the grid 0:0.02:2.56, whose LQR sweep of
# both modes took 6.7 s; at the cap an H-infinity sweep is 128 designs at
# MAX_IN_FLIGHT, about 10 min per mode
MAX_SWEEP_IN_FLIGHT = 1 << 14


@dataclass(frozen=True, eq=False)
class Scenario:
    """One closed-loop run; the controller's h and d_rho set its timing."""

    initial_state: np.ndarray              # modal: x(0) = M_x x_hat(0)
    disturbance: np.ndarray = None         # (K, n_w) held samples, or None
    integrator_step: float = 1e-3          # requested; simulate refines it
    horizon: float = None                  # None: 20 sampled time constants

    def __post_init__(self):
        object.__setattr__(self, "initial_state",
                           np.asarray(self.initial_state, dtype=float).copy())
        if self.disturbance is not None:
            w = np.atleast_2d(np.asarray(self.disturbance, dtype=float))
            object.__setattr__(self, "disturbance", w)


@dataclass(frozen=True)
class SimulationOutput:
    periods: int         # sampling periods stepped; the trace has one more row
    J: float
    step: float          # RK4 and quadrature step
    steps_per_period: int
    horizon: float

    @property
    def t(self):
        """The sampling instants kh, k = 0 ... periods, of the trace rows."""
        return self.step * (self.steps_per_period
                            * np.arange(self.periods + 1))


def _step_grid(requested, h, offsets, fastest_rate):
    """The RK4 and quadrature step as an exact Fraction, and the whole
    numbers of steps in the sampling period h and in each switching offset.

    The step is the largest g/2^k (k >= 1) not above the request or
    2.5 / ``fastest_rate``, g being the rational gcd of h and the offsets.
    Every event then falls on an even step index, so no composite Simpson
    pair straddles a command switch; and |lambda| dt <= 2.5 keeps each mode
    of a Hurwitz loop where RK4's amplification is below 1 in modulus.
    A period of more than ``MAX_STEPS_PER_PERIOD`` steps is refused.
    """
    limit = min(float(requested), 2.5 / float(fastest_rate))
    lengths = [_nice_fraction(v) for v in (h, *offsets)]
    g = lengths[0]
    for f in lengths[1:]:
        g = Fraction(math.gcd(g.numerator * f.denominator,
                              f.numerator * g.denominator),
                     g.denominator * f.denominator)
    step = g / 2
    while float(step) > limit * (1 + 1e-12):
        step /= 2
    counts = [int(f / step) for f in lengths]
    if counts[0] > MAX_STEPS_PER_PERIOD:
        raise StepGridTooFine(
            f"the sampling period h = {float(h):g} s needs {counts[0]} "
            f"integrator steps of {float(step):.6g} s, more than the "
            f"{MAX_STEPS_PER_PERIOD} a period may take: the step must put "
            "every sampling and switching instant on its grid; give the "
            "delay on a coarser decimal grid (such as 0.1 or 0.013 s) or a "
            "larger integrator_step_s")
    return step, counts


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
                         scn: Scenario, Q, R, trace, C, D_u):
    """Simulate the closed loop at the sampling instants and accumulate the
    quadratic cost.

    Remote commands computed from the states sampled at kh switch exactly
    at kh + d_rho and hold for one sampling period.  ``_step_grid`` refines
    the requested ``scn.integrator_step`` so that every sampling and
    switching instant falls on an even step index.  The loop is linear, so
    one period of RK4 steps is one fixed map M of the period state
    xi_k = [x(kh); V_{k-1}; ...; V_{k-L}], V being the modal commands
    (newest first; L covers the controller memory and the command delay
    line), and the running cost, which prices the state and the total
    input u = K x + u_bar by composite Simpson on the same steps, is one
    quadratic form S of xi_k per period.  Held disturbance samples add an
    affine term to the first periods.

    The trace has one row per sampling instant; u and u_bar are the
    commands held on the step that ends there, and the output is
    y = C x + D_u u_bar.  Its rows are handed to
    ``trace(t, x, u, u_bar, y)`` in order, a segment of consecutive rows at
    a time, as the recursion produces them; of the trajectory only the
    segment being gathered is kept.

    The auto horizon is 20 time constants -h / ln rho(M_xi) of the period
    map itself, after which the cost left is below rounding; a loop with
    rho(M_xi) >= 1 has no such horizon and is refused.  A run longer than
    ``MAX_PERIODS`` sampling periods is refused, and so is a first period
    whose cost overflows (``NonFiniteCost``).  These refusals come before
    any stepping.
    """
    dec = controller.dec
    h = controller.h
    A_bar = controller.gains.A_bar
    K = controller.gains.K
    step, (n_h, *n_rho) = _step_grid(
        scn.integrator_step, h, [float(v) for v in controller.d_rho],
        np.abs(np.linalg.eigvals(A_bar)).max())
    dt = float(step)
    Rmap, Smap = _rk4_affine(A_bar, dt)
    n_x, n_u, n_w = plant.n_x, plant.n_u, plant.n_w
    Q = np.asarray(Q, dtype=float).reshape(n_x, n_x)
    R = np.asarray(R, dtype=float).reshape(n_u, n_u)

    # machine rho applies the command sampled c periods earlier from step
    # e of each period on, and the one before it until then
    lags = [divmod(nd, n_h) for nd in n_rho]
    L = max([controller.n_memory] + [c + (e > 0) for c, e in lags])
    n = n_x + L * n_u
    # maps below act on zeta_k = [xi_k; w_k]
    eye = np.eye(n + n_w)
    _, V = controller.sample(eye[:n_x], eye[n_x:n])

    def past(a):
        return V if a == 0 else eye[n_x + (a - 1) * n_u:n_x + a * n_u]

    rows = np.cumsum((0,) + controller.gains.machine_u_dims)

    def command(s):
        return np.vstack([dec.M_u[rows[i]:rows[i + 1]] @ past(c + (s < e))
                          for i, (c, e) in enumerate(lags)])

    def node_cost(X, U):
        Y = K @ X + U
        return X.T @ Q @ X + Y.T @ R @ Y

    # step the node maps through one period; every Simpson pair holds one
    # command, since switches fall on even steps
    drive_u, drive_w = Smap @ plant.B_u, Smap @ plant.B_w @ eye[n:]
    X = eye[:n_x]
    S = np.zeros((n + n_w, n + n_w))
    for s in range(0, n_h, 2):
        U = command(s)
        X1 = Rmap @ X + drive_u @ U + drive_w
        X2 = Rmap @ X1 + drive_u @ U + drive_w
        S += node_cost(X, U) + 4.0 * node_cost(X1, U) + node_cost(X2, U)
        X = X2
    S *= dt / 3.0
    U_end = U[:, :n]
    M = np.vstack([X, V, eye[n_x:n - n_u]]) if L else X
    M_xi, S_xi = M[:, :n], S[:n, :n]
    if scn.horizon is None:
        rho = np.abs(np.linalg.eigvals(M_xi)).max()
        if not rho < 1.0:
            raise UnstableSystem(
                f"horizon_s = auto needs a Schur-stable sampled closed loop, "
                f"but its period map has spectral radius {rho:.8g}; set a "
                "fixed horizon_s")
        tau = -h / math.log(rho)
        horizon = 20.0 * tau
        asked = (f"horizon_s = auto, 20 times the slowest time constant "
                 f"{tau:.4g} s of the sampled closed loop,")
    else:
        horizon = float(scn.horizon)
        asked = f"horizon_s = {horizon:g} s"
    periods = horizon / dt / n_h
    if math.isfinite(periods):
        periods = max(1, round(periods))   # whole periods
    if not periods <= MAX_PERIODS:   # inf and nan included
        raise HorizonTooLong(asked, periods, h, MAX_PERIODS)
    w_seq = scn.disturbance
    n_dist = 0 if w_seq is None else len(w_seq)
    xi0 = np.zeros(n)
    xi0[:n_x] = (dec.M_x @ scn.initial_state).reshape(n_x)
    # a first period whose cost overflows is refused before any stepping
    if n_dist:
        quadratic_cost(np.concatenate([xi0, w_seq[0]]), S)
    else:
        quadratic_cost(xi0, S_xi)
    powers = np.empty((_BLOCK, n, n))
    powers[0] = M_xi
    for i in range(1, _BLOCK):
        powers[i] = M_xi @ powers[i - 1]

    C, D_u = (np.atleast_2d(np.asarray(X, dtype=float)) for X in (C, D_u))

    # The trace rows are handed on in segments of about _SEGMENT rows.
    # Each row's numbers are products over the rows of its segment: numpy
    # sends a one-row product to gemv, which can round differently from
    # the gemm that takes two rows or more, and gemm rounds a row the same
    # whatever rows come with it.  So a block of one period (a disturbance
    # period, or the last of the run) joins the segment before it, and the
    # rows match those of one product over the whole run bit for bit.
    held, handed = [], 0
    last = xi0    # the state of the row before the held ones

    def hand_on():
        """Hand the held periods' rows on as one segment."""
        nonlocal handed, last
        Z = np.concatenate([last[None], *held])
        held.clear()
        last = Z[-1]
        u_bar = Z[:-1] @ U_end.T
        if handed == 0:   # row 0: the initial state, before any command
            u_bar = np.vstack([np.zeros((1, n_u)), u_bar])
        else:
            Z = Z[1:]
        k = np.arange(handed, handed + len(Z))
        x = Z[:, :n_x]
        # output convention: the published output map takes the remote
        # command
        y = x @ C.T + u_bar @ D_u.T
        trace(dt * (n_h * k), x, x @ K.T + u_bar, u_bar, y)
        handed += len(k)

    def hold(states):
        """Take the states of the next periods for the trace."""
        if len(states) > 1 and sum(map(len, held)) >= _SEGMENT:
            hand_on()
        held.append(states)

    xi, J = xi0, 0.0
    for j in range(min(periods, n_dist)):
        zeta = np.concatenate([xi, w_seq[j]])
        J += float(zeta @ S @ zeta)
        xi = M @ zeta
        hold(xi[None])
    left = periods - min(periods, n_dist)
    while left:
        b = min(_BLOCK, left)
        nxt = powers[:b] @ xi
        starts = np.vstack([xi[None], nxt[:-1]])
        J += float(np.sum((starts @ S_xi) * starts))
        hold(nxt)
        xi = nxt[-1]
        left -= b
    hand_on()
    return SimulationOutput(
        periods=periods, J=J, step=dt, steps_per_period=n_h,
        horizon=float(dt * (n_h * periods)))


def compute_bounds(md0, measure, z0=None):
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
        P_dec = stein_solve(disc0.A2[None], disc0.Q2[None])[0]
        return quadratic_cost(z0, P_dec), md0.J_star(z0)
    upper = hinf_norm(disc0.A2, disc0.B2w, disc0.C2)
    return upper, md0.gamma


@dataclass(frozen=True)
class SweepRow:
    delay: float
    mode: str
    measure: str
    value: float
    lower: float
    upper: float
    status: str


@dataclass(frozen=True, eq=False)
class SweepResult:
    rows: tuple
    warnings: tuple
    diagnostics: dict


def sweep_delays(model, dec, mode, measure, delay_grid, h, z0=None,
                 gamma_tol=1e-3):
    """Evaluate the distributed design of one mode, whose continuous model
    is ``model``, across link delays, with bounds.

    Waits over ``MAX_IN_FLIGHT`` input samples in flight, or over
    ``MAX_SWEEP_IN_FLIGHT`` in all, are refused before any design.  The
    zero-delay design is made once: it gives the lower bound and the
    value of every row whose waiting time is zero.  LQR rows whose waiting
    times fall in one sampling interval (qh, (q+1)h] have lifted systems
    of one size; each run of them is designed as one stack, and again row
    by row if the stack fails, so a failure stays with its row.  Per-row
    failures are recorded and the sweep continues; each surviving row is
    checked against the bound sandwich, and a soft monotonicity warning is
    emitted when the measure decreases along more than 10% of consecutive
    delay pairs.  ``diagnostics`` counts the rows designed, the stacks
    they were designed in, the largest stack and the rows designed again
    one at a time; for H-infinity also the levels the searches tried and
    certified, the zero-delay design's included.
    """
    i = dec.mode_index(mode)
    delay_grid = [float(t) for t in delay_grid]
    if any(t < 0 for t in delay_grid) or sorted(delay_grid) != delay_grid:
        raise ValueError("delay grid must be nonnegative and ascending")
    # every link carries the row's delay, so the mode waits tau times its
    # wait under unit link delays: 1 if any link feeds it, else 0
    unit = float(delay_map(dec, 1 - np.eye(len(dec.pattern_Mu)))[0][i])
    waits = [tau * unit for tau in delay_grid]
    try:
        split_delay(max(waits, default=0.0), h)
    except InvalidSampling as exc:
        raise InvalidSampling(f"[sampling] delay_grid_s: {exc}") from None
    # floor(w/h) + 1 bounds the q + 1 samples in flight at each wait
    in_flight = int(np.sum(np.floor(np.asarray(waits) / h) + 1))
    if in_flight > MAX_SWEEP_IN_FLIGHT:
        raise InvalidSampling(
            f"[sampling] delay_grid_s: the waits put up to {in_flight} input "
            f"samples in flight in all at h = {h:g} s, more than the "
            f"{MAX_SWEEP_IN_FLIGHT} a sweep may design; use fewer or shorter "
            "delays")
    if measure == "lqr" and z0 is None:
        z0 = np.zeros(model.sys.n_x)
        z0[0] = 1.0
    md0 = design_mode(model, h, 0.0, method=measure, gamma_tol=gamma_tol)
    upper, lower = compute_bounds(md0, measure, z0=z0)
    diag = {"rows_designed": 0, "stacks": 0, "largest_stack": 0,
            "rows_redesigned": 0}
    if measure == "hinf":
        diag.update(levels_tried=0, levels_accepted=0)
    uncertified = []    # waits whose search certified none of its levels

    def row_value(md):
        if measure == "lqr":
            return md.J_star(md.disc.lift_state(z0))
        diag["levels_tried"] += md.levels
        diag["levels_accepted"] += md.accepted
        if md.uncertified:
            uncertified.append(md.disc.d)
        return md.gamma

    def design(delays):
        """Values of the rows at these waiting times, or the WadcError of
        each row that fails."""
        diag["stacks"] += 1
        diag["largest_stack"] = max(diag["largest_stack"], len(delays))
        try:
            return [row_value(md) for md in design_mode(
                model, h, delays, method=measure, gamma_tol=gamma_tol)]
        except WadcError as exc:
            if len(delays) == 1:
                return [exc]
        diag["rows_redesigned"] += len(delays)
        return [design(delays[j:j + 1])[0] for j in range(len(delays))]

    def row(tau, outcome):
        if isinstance(outcome, WadcError):
            value, status = float("nan"), f"failed:{type(outcome).__name__}"
        else:
            value = outcome
            ok = (value >= lower - _BOUND_SLACK * abs(lower)
                  and value <= upper + _BOUND_SLACK * abs(upper))
            status = "ok" if ok else "bound_violation"
        return SweepRow(delay=tau, mode=dec.labels[i], measure=measure,
                        value=value, lower=lower, upper=upper, status=status)

    value0 = row_value(md0)

    def stack(j):
        """Consecutive rows with one key are designed together: zero waits
        take the zero-delay design, LQR waits in one sampling interval
        share a stack, as their lifted systems have one size, and each
        H-infinity row is designed alone."""
        if waits[j] == 0.0:
            return None
        return split_delay(waits[j], h)[0] if measure == "lqr" else -1 - j

    values = []
    for key, group in itertools.groupby(range(len(waits)), key=stack):
        delays = [waits[j] for j in group]
        if key is None:
            values += [value0] * len(delays)
        else:
            diag["rows_designed"] += len(delays)
            values += design(delays)
    rows = [row(tau, value) for tau, value in zip(delay_grid, values)]

    warnings = []
    if uncertified:
        warnings.append(
            f"the H-infinity search certified none of its levels at "
            f"{len(uncertified)} of the waits (the first {uncertified[0]:g} "
            "s); each of their values is its wait's decentralized level, the "
            "norm without remote feedback")
    good = [r for r in rows if r.status == "ok"]
    if len(good) >= 2:
        pairs = sum(1 for a, b in zip(good, good[1:]) if b.value >= a.value
                    * (1 - 1e-12) - 1e-300)
        frac = pairs / (len(good) - 1)
        if frac < 0.9:
            warnings.append(
                f"measure decreased along {1 - frac:.0%} of consecutive "
                "delay pairs; expected a nondecreasing trend")
    return SweepResult(rows=tuple(rows), warnings=tuple(warnings),
                       diagnostics=diag)
