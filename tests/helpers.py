"""Shared generators and independent oracles for the test suite."""

import math
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
from scipy.linalg import expm

from wadc.dncs import design_mode
from wadc.errors import GammaInfeasible, UnstableSystem
from wadc.grid_model import _pow2_step, dynamics_rhs
from wadc.sampled import CtsCost, CtsSystem, DiscretizedSystem, split_delay
from wadc.sim_eval import _rk4_affine, _step_grid, simulate_closed_loop
from wadc.synthesis import hinf_design, hinf_norm


def simulate_collect(plant, controller, scn, Q, R, C, D_u):
    """``simulate_closed_loop`` with the trace segments it hands on joined
    into whole arrays: the output's fields plus t, x, u, u_bar and y, one
    row per sampling instant."""
    segments = []
    out = simulate_closed_loop(plant, controller, scn, Q, R,
                               lambda *rows: segments.append(rows), C, D_u)
    t, x, u, u_bar, y = (np.concatenate(c) for c in zip(*segments))
    np.testing.assert_array_equal(t, out.t)   # in order, none missing
    return SimpleNamespace(**asdict(out), t=t, x=x, u=u, u_bar=u_bar, y=y)


def read_matrix(path):
    """The matrix in a file ``write_matrix`` wrote: 'rows cols', then one
    line of values per row."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        rows, cols = int(header[0]), int(header[1])
        out = np.array([[float(v) for v in fh.readline().split()]
                        for _ in range(rows)])
    if out.shape != (rows, cols):
        raise ValueError(f"{path}: malformed matrix file")
    return out


def random_stable_system(rng, n_x, n_u, n_w=1, n_y=None):
    """Random Hurwitz system with eigenvalues in [-2, -0.1]."""
    if n_y is None:
        n_y = n_x
    lam = -rng.uniform(0.1, 2.0, n_x)
    V = rng.normal(size=(n_x, n_x))
    while abs(np.linalg.det(V)) < 1e-3:
        V = rng.normal(size=(n_x, n_x))
    A = V @ np.diag(lam) @ np.linalg.inv(V)
    sys = CtsSystem(
        A1=A,
        B1u=rng.normal(size=(n_x, n_u)),
        B1w=rng.normal(size=(n_x, n_w)),
        C1=rng.normal(size=(n_y, n_x)),
        D1u=rng.normal(size=(n_y, n_u)),
    )
    # one more draw, unused, keeps every later draw (the costs, states and
    # further systems of the seeded tests) at the data their checks were
    # written for
    rng.normal(size=(n_y, n_w))
    return sys


def random_psd_cost(rng, n_x, n_u, cross=True):
    L = rng.normal(size=(n_x + n_u, n_x + n_u))
    S = L @ L.T + 1e-3 * np.eye(n_x + n_u)
    if not cross:
        S[:n_x, n_x:] = 0.0
        S[n_x:, :n_x] = 0.0
    return CtsCost(Q1=S[:n_x, :n_x], N1=S[:n_x, n_x:], R1=S[n_x:, n_x:])


def discretize_per_row(model, h, d):
    """The lifted system of one delay, with its remainder's input maps and
    one-interval cost assembled for this row alone from the model's
    (Phi, Gamma, Psi) intervals: an oracle for ``discretize``, which takes
    them from the model's per-remainder cache."""
    h = float(h)
    q, r = split_delay(d, h)
    sys = model.sys
    n_x, n_u, n_w, n_y = sys.n_x, sys.n_u, sys.n_w, sys.n_y
    Phi_h, Gamma_h, psi = model.interval(h)
    if d == 0:
        return DiscretizedSystem(
            A2=Phi_h, B2u=Gamma_h @ sys.B1u, B2w=Gamma_h @ sys.B1w,
            C2=sys.C1.copy(), D2u=sys.D1u.copy(),
            Q2=psi[:n_x, :n_x].copy(), N2=psi[:n_x, n_x:].copy(),
            R2=psi[n_x:, n_x:].copy(),
            h=h, d=0.0, q=0, r=0.0, n_x=n_x, n_u=n_u, n_w=n_w)
    n_z = n_x + (q + 1) * n_u
    Phi_r, Gamma_r, psi_r = model.interval(r)
    Phi_hr, Gamma_hr, psi_hr = model.interval(h - r)
    A2 = np.zeros((n_z, n_z))
    A2[:n_x, :n_x] = Phi_h
    A2[:n_x, n_x:n_x + n_u] = Phi_hr @ Gamma_r @ sys.B1u
    B2u = np.zeros((n_z, n_u))
    if q == 0:
        B2u[:n_x] = Gamma_hr @ sys.B1u
        B2u[n_x:] = np.eye(n_u)
    else:
        A2[:n_x, n_x + n_u:n_x + 2 * n_u] = Gamma_hr @ sys.B1u
        A2[n_x:n_x + q * n_u, n_x + n_u:] = np.eye(q * n_u)
        B2u[n_x + q * n_u:] = np.eye(n_u)
    B2w = np.zeros((n_z, n_w))
    B2w[:n_x] = Gamma_h @ sys.B1w
    C2 = np.zeros((n_y, n_z))
    C2[:, :n_x] = sys.C1
    C2[:, n_x:n_x + n_u] = sys.D1u
    # the cost of (kh, kh+r] with u_{k-q-1}, then of (kh+r, kh+h] with
    # u_{k-q} from the state reached at kh+r
    phi1 = np.zeros((n_x + n_u, n_x + 2 * n_u))
    phi1[:n_x, :n_x] = Phi_r
    phi1[:n_x, n_x:n_x + n_u] = Gamma_r @ sys.B1u
    phi1[n_x:, n_x + n_u:] = np.eye(n_u)
    W = np.zeros((n_x + 2 * n_u, n_x + 2 * n_u))
    W[:n_x + n_u, :n_x + n_u] = psi_r
    W += phi1.T @ psi_hr @ phi1
    W = 0.5 * (W + W.T)
    big = np.zeros((n_z + n_u, n_z + n_u))
    big[:n_x + 2 * n_u, :n_x + 2 * n_u] = W
    return DiscretizedSystem(
        A2=A2, B2u=B2u, B2w=B2w, C2=C2, D2u=np.zeros((n_y, n_u)),
        Q2=big[:n_z, :n_z].copy(),
        N2=big[:n_z, n_z:].copy(), R2=big[n_z:, n_z:].copy(),
        h=h, d=float(d), q=q, r=r, n_x=n_x, n_u=n_u, n_w=n_w)


def stein_every_doubling(A, Q):
    """Smith doubling for P = A'PA + Q, one slice of a stack at a time,
    reducing max|S| on every doubling: an oracle for ``stein_solve``'s
    stop rule max|T|^2 max|S| <= 1e-18 (1 + max|Q|), which skips that
    reduction on doublings that cannot stop.  As there, each slice of Q
    is scaled by 2^-e to max|Q| in [0.5, 1) and its P by 2^e.

    A and Q are (k, n, n) stacks.  Each slice is doubled as a stack of
    one, so every product is the BLAS call the stack makes on it.  A slice
    whose max|T| passes 1e30 gets an eigenvalue check at once, and one
    that stops without n max|T| < 1/2 or runs out of doublings gets one
    after its loop; an eigenvalue on or outside the unit circle raises
    ``UnstableSystem``.
    Returns P and each slice's number of doublings.
    """
    A = np.asarray(A, dtype=float)
    Q = np.asarray(Q, dtype=float)
    n = A.shape[-1]

    def unstable(a):
        return np.abs(np.linalg.eigvals(a)).max() >= 1.0

    P, counts = np.empty(A.shape), []
    for a, q in zip(A, Q):
        _, e = math.frexp(float(np.abs(q).max()))
        q = np.ldexp(q, -e)
        S, T = 0.5 * (q + q.T)[None], a[None].copy()
        tol = 1e-18 * (1.0 + float(np.abs(S).max()))
        checked, stopped, count = False, False, 0
        while count < 120 and not stopped:
            if not checked and float(np.abs(T).max()) > 1e30:
                if unstable(a):
                    raise UnstableSystem("oracle: unstable slice")
                checked = True
            S = S + T.mT @ S @ T
            T = T @ T
            count += 1
            stopped = (float(np.abs(T).max()) ** 2 * float(np.abs(S).max())
                       <= tol)
        certified = stopped and float(np.abs(T).max()) < 0.5 / n
        if not (checked or certified) and unstable(a):
            raise UnstableSystem("oracle: unstable slice")
        P[len(counts)] = np.ldexp(0.5 * (S[0] + S[0].T), e)
        counts.append(count)
    return P, counts


def rk4_segment(A, Bu, u, x0, length, n_sub):
    """Plain RK4 over one held-input segment; independent of the library."""
    x = np.asarray(x0, dtype=float).copy()
    dt = length / n_sub
    c = Bu @ u
    for _ in range(n_sub):
        k1 = A @ x + c
        k2 = A @ (x + 0.5 * dt * k1) + c
        k3 = A @ (x + 0.5 * dt * k2) + c
        k4 = A @ (x + dt * k3) + c
        x = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


def rk4_delayed_zoh(sys, h, d, u_seq, x0, n_steps, subs=60, w_seq=None):
    """Fine-RK4 trace of x(kh) under the delayed held input.

    Within interval k the delayed input equals u_{k-q-1} on (kh, kh+r] and
    u_{k-q} on (kh+r, kh+h]; samples with negative index are zero.  The
    disturbance, if any, is held undelayed.  Each segment applies its RK4
    step map, found once per segment length by stepping the augmented
    system d/dt [x; u; w] = [A1 B1u B1w; 0] [x; u; w] from the identity;
    RK4 is linear in its start state, so the map gives the stepped state
    up to rounding.
    """
    q, r = split_delay(d, h)
    n_x, n_u, n_w = sys.n_x, sys.n_u, sys.n_w
    n = n_x + n_u + n_w
    aug = np.zeros((n, n))
    aug[:n_x] = np.hstack([sys.A1, sys.B1u, sys.B1w])
    maps = {}

    def step_map(length):
        if length not in maps:
            # the augmented flow carries no forcing term of its own
            maps[length] = rk4_segment(aug, np.zeros((n, 0)), np.zeros(0),
                                       np.eye(n), length, subs)[:n_x]
        return maps[length]

    def u_at(idx):
        if 0 <= idx < len(u_seq):
            return np.asarray(u_seq[idx], dtype=float)
        return np.zeros(n_u)

    xs = [np.asarray(x0, dtype=float).copy()]
    x = xs[0]
    for k in range(n_steps):
        wk = np.zeros(n_w)
        if w_seq is not None and 0 <= k < len(w_seq):
            wk = np.asarray(w_seq[k], dtype=float)
        segs = [(r, k - q - 1), (h - r, k - q)] if d > 0 else [(h, k)]
        for length, idx in segs:
            if length == 0.0:
                continue
            x = step_map(length) @ np.concatenate([x, u_at(idx), wk])
        xs.append(x)
    return np.array(xs)


def per_step_closed_loop(plant, gains, dec, ctrl, designs, x0, dt, periods,
                         Q, R, C, D_u, w_seq=()):
    """Step-by-step oracle of the distributed closed loop.

    Stage-form RK4 on d/dt x = A_bar x + B_u u_bar + B_w w at step dt; at
    each sampling instant every mode advances its own lifted state
    z = [x_hat_i; past commands, oldest first] with its gain md.F, and the
    per-machine commands enter an explicit queue keyed by the step at which
    they switch.  The cost is composite Simpson over step pairs with each
    pair's command.  Returns, at every sampling instant kh (k = 0 ...
    periods), the arrays t, x, u, u_bar, y and the cost J accumulated up to
    kh; u_bar is the command held on the step that ends at kh.
    Independent of the library's simulator; an exact (Fraction) step is
    stepped as its float.
    """
    dt = float(dt)
    A, K = gains.A_bar, gains.K
    n_h = round(ctrl.h / dt)
    n_rho = [round(float(d) / dt) for d in ctrl.d_rho]
    rows = np.cumsum((0,) + gains.machine_u_dims)
    memories = [np.zeros(md.disc.n_memory * md.disc.n_u) for md in designs]
    x = np.asarray(x0, dtype=float).copy()
    u_bar = np.zeros(plant.n_u)
    queue = []                           # [switch step, machine, command]
    J = 0.0
    out = {key: [] for key in ("t", "x", "u", "u_bar", "y", "J")}

    def running(xn, ub):
        u = K @ xn + ub
        return xn @ Q @ xn + u @ R @ u

    for k in range(periods + 1):
        j0 = k * n_h
        w = (np.asarray(w_seq[k], dtype=float) if k < len(w_seq)
             else np.zeros(plant.n_w))
        for key, val in (("t", j0 * dt), ("x", x.copy()),
                         ("u", K @ x + u_bar), ("u_bar", u_bar.copy()),
                         ("y", C @ x + D_u @ u_bar), ("J", J)):
            out[key].append(val)
        if k == periods:
            break
        x_hat = dec.M_x_inv @ x
        v_hat = np.zeros(plant.n_u)
        for i, md in enumerate(designs):
            z = np.concatenate([x_hat[dec.x_slice(i)], memories[i]])
            v_i = md.F @ z
            v_hat[dec.u_slice(i)] = v_i
            if memories[i].size:
                memories[i] = np.concatenate([memories[i][v_i.size:], v_i])
        v = dec.M_u @ v_hat
        for rho, nd in enumerate(n_rho):
            queue.append([j0 + nd, rho, v[rows[rho]:rows[rho + 1]]])
        for s in range(n_h):
            j = j0 + s
            for item in [it for it in queue if it[0] == j]:
                assert s % 2 == 0, "command switch inside a Simpson pair"
                u_bar[rows[item[1]]:rows[item[1] + 1]] = item[2]
                queue.remove(item)
            if s % 2 == 0:
                pair = running(x, u_bar)
            else:
                pair += 4.0 * running(x, u_bar)
            c = plant.B_u @ u_bar + plant.B_w @ w
            k1 = A @ x + c
            k2 = A @ (x + 0.5 * dt * k1) + c
            k3 = A @ (x + 0.5 * dt * k2) + c
            k4 = A @ (x + dt * k3) + c
            x = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            if s % 2 == 1:
                J += dt / 3.0 * (pair + running(x, u_bar))
    return {key: np.array(val) for key, val in out.items()}


def summed_cost(plant, ctrl, scn, Q, R, periods):
    """The cost of ``periods`` sampling periods of a ``simulate_closed_loop``
    run, summed period by period: the running-sum oracle of the
    simulator's closed-form (Stein) cost.

    Builds the simulator's one-period RK4 map M and Simpson cost S of
    zeta_k = [x(kh); past modal commands, newest first; w_k] on the step
    it picks, then sums zeta_k' S zeta_k, the held disturbance samples
    first and the free periods 256 at a time from the powers of M.
    """
    dec, h, K = ctrl.dec, ctrl.h, ctrl.gains.K
    step, (n_h, *n_rho) = _step_grid(
        scn.integrator_step, h, [float(v) for v in ctrl.d_rho],
        np.abs(np.linalg.eigvals(ctrl.gains.A_bar)).max())
    dt = float(step)
    Rmap, Smap = _rk4_affine(ctrl.gains.A_bar, dt)
    n_x, n_u, n_w = plant.n_x, plant.n_u, plant.n_w
    lags = [divmod(nd, n_h) for nd in n_rho]
    L = max([ctrl.n_memory] + [c + (e > 0) for c, e in lags])
    n = n_x + L * n_u
    eye = np.eye(n + n_w)
    _, V = ctrl.sample(eye[:n_x], eye[n_x:n])
    past = [V] + [eye[n_x + a * n_u:n_x + (a + 1) * n_u] for a in range(L)]
    rows = np.cumsum((0,) + ctrl.gains.machine_u_dims)
    drive_u, drive_w = Smap @ plant.B_u, Smap @ plant.B_w @ eye[n:]

    def node_cost(X, U):
        Y = K @ X + U
        return X.T @ Q @ X + Y.T @ R @ Y

    X, S = eye[:n_x], np.zeros((n + n_w, n + n_w))
    for s in range(0, n_h, 2):
        U = np.vstack([dec.M_u[rows[i]:rows[i + 1]] @ past[c + (s < e)]
                       for i, (c, e) in enumerate(lags)])
        X1 = Rmap @ X + drive_u @ U + drive_w
        X2 = Rmap @ X1 + drive_u @ U + drive_w
        S += node_cost(X, U) + 4.0 * node_cost(X1, U) + node_cost(X2, U)
        X = X2
    S *= dt / 3.0
    M = np.vstack([X, V, eye[n_x:n - n_u]]) if L else X
    w_seq = () if scn.disturbance is None else scn.disturbance
    xi = np.zeros(n)
    xi[:n_x] = dec.M_x @ scn.initial_state
    J = 0.0
    for w in w_seq[:periods]:
        zeta = np.concatenate([xi, w])
        J += zeta @ S @ zeta
        xi = M @ zeta
    M_xi, S_xi = M[:, :n], S[:n, :n]
    powers = [np.eye(n)]
    for _ in range(255):
        powers.append(M_xi @ powers[-1])
    powers = np.array(powers)
    left = periods - min(periods, len(w_seq))
    while left:
        starts = powers[:min(256, left)] @ xi
        J += np.sum((starts @ S_xi) * starts)
        xi = M_xi @ starts[-1]
        left -= len(starts)
    return float(J)


def closed_loop_cost(disc, F, z0, tol=1e-12, max_steps=2_000_000):
    """Accumulate the summed quadratic cost under u = F z until increments
    die out; independent of the Riccati machinery."""
    z = np.asarray(z0, dtype=float).copy()
    A_cl = disc.A2 + disc.B2u @ F
    if np.abs(np.linalg.eigvals(A_cl)).max() >= 1.0:
        return np.inf
    total = 0.0
    for _ in range(max_steps):
        u = F @ z
        inc = z @ disc.Q2 @ z + 2 * z @ disc.N2 @ u + u @ disc.R2 @ u
        total += inc
        z = A_cl @ z
        if abs(inc) < tol * max(total, 1e-300) and abs(inc) < 1e-12:
            break
    return total


def _delayed_input_index(k, q, d, segment):
    """Sample index feeding the plant during segment 0 ((kh, kh+r]) or
    segment 1 ((kh+r, kh+h]) of interval k."""
    if d == 0:
        return k
    return k - q - 1 if segment == 0 else k - q


def quadrature_cost_oracle(sys, cost, h, d, u_seq, x0, n_steps,
                           substeps_per_h=1000):
    """Independent evaluation of the continuous running cost.

    Steps the exact trajectory with cached per-substep matrix exponentials
    and integrates the cost integrand with composite Simpson quadrature; no
    use of the assembled discrete cost blocks.  Both are linear in the
    segment's start state and held input, so each held segment applies
    its precomputed flow and Simpson weight.  The input history before
    t = 0 is zero and w = 0 throughout (the cost is defined for zero
    disturbance).
    """
    h = float(h)
    q, r = split_delay(d, h)
    x0 = np.asarray(x0, dtype=float).reshape(sys.n_x)
    u_seq = [np.asarray(u, dtype=float).reshape(sys.n_u) for u in u_seq]
    if len(u_seq) < n_steps:
        raise ValueError("input sequence shorter than the horizon")

    segments = [(r, 0), (h - r, 1)] if d > 0 else [(h, 1)]
    n = sys.n_x + sys.n_u
    stack = np.block([[cost.Q1, cost.N1], [cost.N1.T, cost.R1]])
    aug = np.zeros((n, n))
    aug[:sys.n_x] = np.hstack([sys.A1, sys.B1u])
    maps = {}

    def segment_map(length, n_sub):
        """Flow and Simpson weight of one held segment: from v = [x; u] at
        its start, x at its end is M v and the segment's cost is v' W v,
        with W summing Simpson's weights times the running cost at each of
        the n_sub + 1 nodes, stepped by the substep's exponential."""
        key = (length, n_sub)
        if key not in maps:
            dt = length / n_sub
            step = expm(dt * aug)
            nodes = [np.eye(n)]
            for _ in range(n_sub):
                nodes.append(step @ nodes[-1])
            nodes = np.array(nodes)
            simpson = np.full(n_sub + 1, 2.0)
            simpson[1::2] = 4.0
            simpson[[0, -1]] = 1.0
            vals = nodes.transpose(0, 2, 1) @ stack @ nodes
            W = dt / 3.0 * np.einsum("j,jik->ik", simpson, vals)
            maps[key] = (nodes[-1][:sys.n_x], W)
        return maps[key]

    def u_at(idx):
        if 0 <= idx < len(u_seq):
            return u_seq[idx]
        return np.zeros(sys.n_u)

    x = x0.copy()
    total = 0.0
    for k in range(n_steps):
        for length, seg in segments:
            if length == 0.0:
                continue
            n_sub = max(2, int(np.ceil(substeps_per_h * length / h)))
            if n_sub % 2:
                n_sub += 1
            M, W = segment_map(length, n_sub)
            v = np.concatenate([x, u_at(_delayed_input_index(k, q, d, seg))])
            total += v @ W @ v
            x = M @ v
    return total


def grid_hinf_norm(A, B, C, n_grid=4096, refine_iters=60):
    """Grid oracle for the peak of sigma_max(C (e^{j theta} I - A)^{-1} B)
    on the unit circle, independent of the level-set evaluator.

    Dense grid on [0, pi] (real systems are conjugate-symmetric), augmented
    with clusters around every eigenvalue frequency (lightly damped
    resonances are far narrower than the grid spacing), then golden-section
    refinement around the best candidate.  A Schur-stable A is assumed.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    n = A.shape[0]
    lam = np.linalg.eigvals(A)
    assert np.abs(lam).max() < 1.0, "grid oracle needs a Schur-stable A"

    def sigma_many(thetas):
        zs = np.exp(1j * np.asarray(thetas, dtype=float))
        M = zs[:, None, None] * np.eye(n) - A
        X = np.linalg.solve(M, np.broadcast_to(B, (len(zs), *B.shape)))
        return np.linalg.svd(C @ X, compute_uv=False)[:, 0]

    thetas = [np.linspace(0.0, np.pi, n_grid)]
    spacing = np.pi / (n_grid - 1)
    for ev in lam:
        th0 = abs(np.angle(ev))
        width = max(1e-12, 1.0 - abs(ev))
        local = th0 + width * np.linspace(-4.0, 4.0, 33)
        thetas.append(np.clip(local, 0.0, np.pi))
    thetas = np.unique(np.concatenate(thetas))
    vals = sigma_many(thetas)
    i = int(vals.argmax())
    lo = thetas[max(i - 1, 0)]
    hi = thetas[min(i + 1, len(thetas) - 1)]
    lo, hi = max(0.0, lo - 0.25 * spacing), min(np.pi, hi + 0.25 * spacing)

    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d_ = a + inv_phi * (b - a)
    fc = sigma_many([c])[0]
    fd = sigma_many([d_])[0]
    for _ in range(refine_iters):
        if fc > fd:
            b, d_, fd = d_, c, fc
            c = b - inv_phi * (b - a)
            fc = sigma_many([c])[0]
        else:
            a, c, fc = c, d_, fd
            d_ = a + inv_phi * (b - a)
            fd = sigma_many([d_])[0]
        if b - a < 1e-12:
            break
    return float(max(vals[i], fc, fd))


def bisection_gamma(disc, tol):
    """Plain midpoint bisection of the attenuation level, an oracle for
    the library's search: the bracket (lo, hi] starts from 0 and (1 + tol)
    times the open-loop norm, each level that ``hinf_design`` certifies
    becomes the top and each other level the bottom, until hi / lo <=
    1 + tol.  Returns (hi, number of levels tried)."""
    lo = 0.0
    hi = (1.0 + tol) * hinf_norm(disc.A2, disc.B2w, disc.C2)
    levels = 0
    while not (lo > 0.0 and hi / lo <= 1.0 + tol):
        mid = 0.5 * (lo + hi)
        levels += 1
        try:
            hinf_design(disc, mid)
            hi = mid
        except GammaInfeasible:
            lo = mid
    return hi, levels


def block_elimination_gain(disc, P, gamma):
    """Gain of the H-infinity game at its Riccati solution P by the
    published block elimination through the disturbance pivot
    H3 = gamma^2 I - B2w'PB2w, an oracle for the joint-pivot gain of
    ``hinf_design``: F = -H1^{-1}(H5u + H2 H3^{-1} H5w) with the control
    pivot H1 = B2u'PB2u + D2u'D2u + H2 H3^{-1} H2'."""
    PBu, PBw = P @ disc.B2u, P @ disc.B2w
    H2 = disc.B2u.T @ PBw
    H3 = gamma ** 2 * np.eye(disc.n_w) - disc.B2w.T @ PBw
    H3 = 0.5 * (H3 + H3.T)
    H1 = disc.B2u.T @ PBu + disc.D2u.T @ disc.D2u \
        + H2 @ np.linalg.solve(H3, H2.T)
    H1 = 0.5 * (H1 + H1.T)
    H5u = PBu.T @ disc.A2 + disc.D2u.T @ disc.C2
    H5w = PBw.T @ disc.A2
    return -np.linalg.solve(H1, H5u + H2 @ np.linalg.solve(H3, H5w))


def attenuation_of_mode(model, h, d_hat_i, tol=1e-3):
    """Certified optimal attenuation of one mode's continuous model at one
    waiting time, with the closed-loop norm re-evaluated outside the
    design by the grid oracle.  A level of exactly 0 (cancellable output)
    is checked as a closed-loop norm at most 1e-12 of the open-loop one."""
    md = design_mode(model, h, d_hat_i, method="hinf", gamma_tol=tol)
    disc = md.disc
    cl_norm = grid_hinf_norm(disc.A2 + disc.B2u @ md.F, disc.B2w,
                             disc.C2 + disc.D2u @ md.F)
    if md.gamma == 0.0:
        open_norm = grid_hinf_norm(disc.A2, disc.B2w, disc.C2)
        assert cl_norm <= 1e-12 * open_norm, "zero level not certified"
    else:
        assert cl_norm < md.gamma, "certified norm regression"
    return md.gamma, md


def algebraic_residuals(gens, net, x, w, sol):
    """Relative residuals of every algebraic equation, evaluated directly
    from the model formulas (independent of the assembled solve)."""
    m = len(gens)
    x = np.asarray(x, dtype=float).reshape(3 * m)
    delta, psi_f = x[0::3], x[2::3]
    w = np.zeros(2 * m) if w is None else np.asarray(w, dtype=float).reshape(2 * m)
    om0 = net.omega0
    out = []
    e_ph = sol.e_d + 1j * sol.e_q
    i_ph = sol.i_d + 1j * sol.i_q
    w_ph = w[0::2] + 1j * w[1::2]
    net_res = i_ph - net.Y @ e_ph - net.H @ w_ph
    for i, g in enumerate(gens):
        c, s = np.cos(delta[i]), np.sin(delta[i])
        Ls = g.stator_inductance(delta[i])
        iv = np.array([sol.i_d[i], sol.i_q[i]])
        psi = np.array([sol.psi_d[i], sol.psi_q[i]])
        r_field = (g.L_f * sol.i_f[i]
                   - 1.5 * g.L_af * (c * sol.i_d[i] + s * sol.i_q[i])
                   - psi_f[i])
        s_field = (abs(g.L_f * sol.i_f[i])
                   + 1.5 * g.L_af * np.abs(iv).max() + abs(psi_f[i]) + 1.0)
        r_flux = -Ls @ iv + g.L_af * np.array([c, s]) * sol.i_f[i] - psi
        s_flux = np.abs(Ls @ iv).max() + g.L_af * abs(sol.i_f[i]) + \
            np.abs(psi).max() + 1.0
        e_pred = om0 * np.array([-psi[1], psi[0]]) - g.R_a * iv
        r_volt = e_pred - np.array([sol.e_d[i], sol.e_q[i]])
        s_volt = om0 * np.abs(psi).max() + g.R_a * np.abs(iv).max() + 1.0
        s_net = (np.abs(i_ph).max() + np.abs(net.Y).max() * np.abs(e_ph).max()
                 + np.abs(net.H).max() * (np.abs(w_ph).max() if m else 0.0) + 1.0)
        out.append({
            "field_flux": abs(r_field) / s_field,
            "stator_flux": np.abs(r_flux).max() / s_flux,
            "stator_voltage": np.abs(r_volt).max() / s_volt,
            "network": abs(net_res[i]) / s_net,
        })
    return out


def fd_jacobian(f, x0, steps):
    """Central differences of f at x0, one column at a time: column j is
    (f(x0 + steps[j] e_j) - f(x0 - steps[j] e_j)) / (2 steps[j])."""
    cols = []
    for j in range(x0.size):
        xp, xm = x0.copy(), x0.copy()
        xp[j] += steps[j]
        xm[j] -= steps[j]
        cols.append((f(xp) - f(xm)) / (2 * steps[j]))
    return np.column_stack(cols)


def fd_plant(gens, net, op):
    """A, B_u and B_w at ``op`` by ``fd_jacobian`` of the one-state
    dynamics, at the steps ``linearize`` takes: 1e-6 of each coordinate,
    at least 1e-6 (1 A for a disturbance), rounded to a power of two."""
    w0 = np.zeros(2 * len(gens))

    def steps(v0, floor):
        return np.array([_pow2_step(max(floor, 1e-6 * abs(v))) for v in v0])

    return (fd_jacobian(lambda x: dynamics_rhs(gens, net, x, op.u, w0),
                        op.x, steps(op.x, 1e-6)),
            fd_jacobian(lambda u: dynamics_rhs(gens, net, op.x, u, w0),
                        op.u, steps(op.u, 1e-6)),
            fd_jacobian(lambda w: dynamics_rhs(gens, net, op.x, op.u, w),
                        w0, steps(w0, 1.0)))
