"""Command-line pipeline: linearize -> decompose -> design -> evaluate.

Subcommands
    linearize   write the small-signal matrices and operating point
    design      write per-mode sampled gains and certificates at one delay
    sweep       write the measure-vs-delay CSV with reference bounds
    simulate    write a closed-loop time trace and the measured cost

All numeric file output uses 17 significant digits, so reruns of the same
configuration are byte-identical (timings live only in the JSON report).

Matrices and traces go through one row writer, ``TableWriter``, which
streams blocks of rows to the file and an incremental sha256; ``simulate``
hands it the trace a segment at a time as the simulation makes it, so no
trace is ever held whole.  A block is
formatted in numpy into exactly the bytes of ``"%.17g" % v``, from the 17
digits that ``_candidates`` finds exactly in float64 with Dekker's
error-free product, and with ``FMT % v`` itself for the values that are 0,
inf or nan, exact decimal ties, or next to a power of ten (a few dozen of
a trace's values).
"""

import argparse
import ctypes
import functools
import hashlib
import json
import os
import sys
import time
import types

import numpy as np

from . import __version__
from .config import (
    BenchmarkConfig,
    _parse_nonnegative,
    build_cost,
    build_generators,
    build_network,
    build_output,
    load_config,
    local_gain_row,
)
from .dncs import (
    DistributedController,
    LocalGains,
    delay_map,
    design_mode,
    mode_system,
    symmetric_modes,
)
from .errors import ConfigError, WadcError
from .grid_model import linearize, solve_equilibrium
from .sim_eval import Scenario, simulate_closed_loop, sweep_delays
from .synthesis import finite_cost

FMT = "%.17g"

_E_MIN, _E_END = -325, 310   # exponents of doubles, and one more each side
_SPLIT = 2.0 ** 27 + 1       # Veltkamp's splitter: 53 bits as 26 + 26
_HIGH26 = np.uint64(2 ** 64 - 2 ** 27)   # clears the last 27 mantissa bits
_TIE = 0.5 - 2.0 ** -46      # |fraction| from here on may be a tie: FMT
_BLOCK = 1 << 12   # values formatted per block: 1.5 MB of temporaries
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3   # glibc's mallopt(3) names


@functools.cache
def _tables():
    """The writer's lookup tables, built on the first block formatted.

    Per decimal exponent E in [_E_MIN, _E_END), at E - _E_MIN: T = 10^(16-E)
    2^-P in [1, 2) as the double-double hi + lo (hi correctly rounded, lo
    the rounded rest), hi's Veltkamp halves and P; ``lead``, the digits
    %g puts before the point (1 in exponent form); ``point``, the point's
    place among the digits (17: none, where lead < 1); ``zeros``, the
    "0.000" prefix's length; and ``exp``, slot word 3's bytes 2..6, "e+dd"
    or "e-ddd" where %g uses exponent form.  Then the ASCII of 0000..9999 as
    little-endian words and their trailing zeros, and byte masks."""
    hi, lo, P = [], [], []
    for e in range(_E_MIN, _E_END):
        k = 16 - e
        if k >= 0:   # T = num / den exactly
            p = (10 ** k).bit_length() - 1
            num, den = 10 ** k, 1 << p
        else:
            p = -(10 ** -k).bit_length()
            num, den = 1 << -p, 10 ** -k
        h = num / den   # correctly rounded
        hn, hd = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * hd - hn * den) / (den * hd))
        P.append(p)
    hi = np.array(hi)
    c = hi * _SPLIT
    hh = c - (c - hi)
    t = types.SimpleNamespace(pow10=np.stack([hi, hh, hi - hh, lo], axis=1),
                              P=np.array(P, np.int32))
    E = np.arange(_E_MIN, _E_END)
    t.lead = np.where((E >= -4) & (E < 17), E + 1, 1).astype(np.int8)
    t.point = np.where(t.lead > 0, t.lead, 17).astype(np.int8)
    t.zeros = np.maximum(1 - t.lead, 0).astype(np.int8)
    t.exp = np.array([0 if -4 <= e < 17 else int.from_bytes(
        (b"\0\0" + b"e%+03d" % e).ljust(8, b"\0"), "little")
        for e in range(_E_MIN, _E_END)], np.uint64)
    # small dtypes: built amid a streamed trace, where the heap pages the
    # temporaries touch stay mapped (_hold_freed_heap)
    n = np.arange(10000, dtype=np.uint16)
    digits = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10],
                      axis=1).astype(np.uint8)
    t.digits4 = (digits + 48).view("<u4").ravel().astype(np.uint64)
    t.tz4 = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1).sum(
        axis=1, dtype=np.uint8)
    # low[:, k]: masks of the first k bytes of a 3-word (24-byte) string
    t.low = np.array([[(1 << 8 * min(max(k - 8 * w, 0), 8)) - 1
                       for k in range(25)] for w in range(3)], np.uint64)
    # slot word 0, sign and "0.000" prefix, by 5 * (x < 0) + zeros
    t.prefix = np.array([int.from_bytes(
        (sg + ("0." + "0" * (z - 1) if z else "")).encode().ljust(8, b"\0"),
        "little") for sg in ("", "-") for z in range(5)], np.uint64)
    for table in vars(t).values():   # shared by every caller
        table.flags.writeable = False
    return t


def _candidates(x):
    """(N, E, exact) for the float64 array x: FMT prints each value with
    exact False from the 17 digits of the integer N and decimal exponent E.

    With E = floor(log10 |x|), N rounds m = |x| 10^(16-E), in [1e16, 1e17),
    to an integer.  m is found in plain float64: |x| = f 2^e with f in
    [1/2, 1), and the table holds T = 10^(16-E) 2^-P in [1, 2) as hi + lo,
    within 2^-106 of T.  Dekker's product splits f hi exactly into p + err,
    and r = err + f lo takes at most 2^-107 + 2^-106 of rounding, so p + r
    is within 2.5 * 2^-106 of f T and, scaled by 2^(e + P) < 2e17 to m =
    f T 2^(e + P), within 6.2e-15 of m.  Scaled so, p is an integer and N =
    p + rint(r) is correctly rounded whenever r - rint(r) is further than
    0.5 - _TIE = 1.4e-14 from +-1/2.  Values nearer a tie (exact decimal
    ties among them, which FMT rounds half to even), with N outside (1e16,
    1e17) (log10 rounded across an integer, N carried into an 18th digit,
    or x a power of ten), or that are 0, -0, inf or nan are exact: FMT
    itself formats them.
    """
    t = _tables()
    a = np.abs(x)
    exact = ~np.isfinite(a) | (a == 0)
    a[exact] = 1.0
    E = np.floor(np.log10(a)).astype(np.int32)
    i = E - _E_MIN
    f, e = np.frexp(a)
    hi, hh, hl, lo = t.pow10.take(i, axis=0).T
    fh = (f.view(np.uint64) & _HIGH26).view(float)   # f's first 26 bits
    fl = f - fh
    p = f * hi
    err = ((fh * hh - p) + fh * hl + fl * hh) + fl * hl   # f hi - p exactly
    s = e + t.P.take(i)
    r = np.ldexp(err + f * lo, s)
    n = np.rint(r)
    N = np.ldexp(p, s).astype(np.int64) + n.astype(np.int64)
    exact |= (np.abs(r - n) >= _TIE) | (N <= 10 ** 16) | (N >= 10 ** 17)
    return N, E, exact


def _format_block(X, sep):
    """The bytes of the 2-D float block X as FMT values joined by sep, with
    a newline after each row, and how many of its values FMT formatted.
    Each value fills a 32-byte slot: a word of sign and "0.000" prefix, the
    17 digits with the point inserted and the trailing zeros cleared,
    exponent and separator; deleting the NUL bytes left over gives the
    text."""
    t = _tables()
    x = X.ravel()
    N, E, exact = _candidates(x)
    i = E - _E_MIN
    top = N // 10 ** 8                           # the first 9 digits
    low8 = (N - top * 10 ** 8).astype(np.uint32)  # and the last 8
    top = top.astype(np.uint32)
    d1 = top // 10 ** 8
    g = []                                       # the last 16 in fours
    for v in (top - d1 * 10 ** 8, low8):
        q = v // 10 ** 4
        g += [q, v - q * 10 ** 4]
    # trailing zeros of the last group, then of each group before it where
    # all groups after it are 0 (tz4[0] is 4)
    tz = t.tz4.take(g[3])
    for k in (2, 1, 0):
        z = np.flatnonzero(tz == 4 * (3 - k))
        if not z.size:
            break
        tz[z] += t.tz4.take(g[k][z])
    s = 17 - tz                                  # significant digits
    lead = t.lead.take(i)                        # digits before "."
    p = np.where(s > lead, t.point.take(i), 17)  # "." position, or none
    keep = np.maximum(s, lead) + (p < 17)        # bytes of digits and "."
    digits4 = t.digits4.take
    hi = digits4(g[0]) | digits4(g[1]) << 32
    lo = digits4(g[2]) | digits4(g[3]) << 32
    V = np.stack([(d1 + 48).astype(np.uint64) | hi << 8,
                  hi >> 56 | lo << 8, lo >> 56])
    W = V << 8                                   # the digits one byte on
    W[1:] |= V[:-1] >> 56
    # V below position p, "." at p, W above it: merges under byte masks
    dot = W ^ ((0x2E2E2E2E2E2E2E2E ^ W) & t.low.take(p + 1, axis=1))
    below = t.low.take(p, axis=1)
    words = np.empty((4, x.size), np.uint64)
    words[0] = t.prefix.take(5 * np.signbit(x) + t.zeros.take(i))
    words[1:] = (dot ^ ((V ^ dot) & below)) & t.low.take(keep, axis=1)
    words[3] |= t.exp.take(i)
    ends = np.array([ord(sep)] * (X.shape[1] - 1) + [10], np.uint64) << 56
    words[3].reshape(X.shape)[:] |= ends
    slots = words.T.astype("<u8", order="C")
    idx = np.flatnonzero(exact)
    if idx.size:
        # FMT, space-padded to 31 bytes; FMT prints no spaces: they become NUL
        padded = FMT.replace("%", "%-31") * idx.size % tuple(x[idx].tolist())
        pad = np.frombuffer(padded.encode(), np.uint8).reshape(-1, 31)
        slots.view(np.uint8)[idx, :31] = np.where(pad == 32, 0, pad)
    return slots.tobytes().translate(None, b"\0"), idx.size


class TableWriter:
    """Writes the line ``header`` to ``path``, then one line per row of
    each 2-D float array given to ``rows``, its values as FMT joined by
    ``sep``, creating the file with the first rows.  Rows go to the file
    and to an incremental sha256 in blocks of ``_BLOCK`` values;
    ``fmt_values`` counts the values that FMT itself formatted.  On leaving
    the ``with`` block, ``sha256`` holds the file's hex digest and ``size``
    its length in bytes."""

    def __init__(self, path, header, sep):
        self.path, self.sep = path, sep
        self.fmt_values = 0
        self._fh = None
        self._header = f"{header}\n".encode()
        self._digest = hashlib.sha256()

    def __enter__(self):
        return self

    def _put(self, chunk):
        if self._fh is None:
            self._fh = open(self.path, "wb")
            chunk = self._header + chunk
        self._fh.write(chunk)
        self._digest.update(chunk)

    def rows(self, X):
        X = np.asarray(X, dtype=float)
        step = max(1, _BLOCK // max(1, X.shape[1]))
        for i in range(0, len(X), step):
            text, fmt_values = _format_block(X[i:i + step], self.sep)
            self._put(text)
            self.fmt_values += fmt_values

    def __exit__(self, *exc):
        if self._fh is not None:   # else left before the first rows
            self.sha256, self.size = self._digest.hexdigest(), self._fh.tell()
            self._fh.close()


def _hold_freed_heap():
    """Keep freed heap memory mapped for the rest of the process.

    A streamed trace formats each block of ``_BLOCK`` values in about
    1.5 MB of numpy temporaries and frees them again.  glibc hands the free top of its
    heap back to the kernel once it passes M_TRIM_THRESHOLD, and by default
    raises that threshold, and M_MMAP_THRESHOLD, to the largest mmap-ed
    block freed so far (mallopt(3)).  Whether every segment faulted its
    temporaries in again thus hung on what the run had freed before.
    Setting both thresholds ends that adjustment: blocks under 4 MB come
    from the heap, up to 16 MB of free heap top stays mapped, and every
    segment reuses the pages of the one before.  Without glibc's mallopt
    this does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 4 << 20)
    mallopt(_M_TRIM_THRESHOLD, 16 << 20)


def write_matrix(path, M):
    """Plain text: 'rows cols' then row-major values, 17 significant
    digits; returns the file's sha256 hex digest."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    with TableWriter(path, f"{M.shape[0]} {M.shape[1]}", " ") as table:
        table.rows(M)
    return table.sha256


class RunReport:
    """Reproduction record: resolved config, versions, timings, warnings."""

    def __init__(self, cfg: BenchmarkConfig, args):
        self.data = {
            "tool": {"name": "wadc", "version": __version__,
                     "numpy": np.__version__,
                     "scipy": __import__("scipy").__version__},
            "config_source": cfg.source,
            "resolved_config": cfg.resolved(),
            "command": args,
            "timings_s": {},
            "warnings": [],
            "notes": [],
            "outputs": {},
        }
        self._timings = {}
        self._t0 = time.perf_counter()
        self._last = self._t0

    def stage(self, name):
        """Charge the time since the last stage to ``name``; a stage entered
        more than once accumulates."""
        now = time.perf_counter()
        self._timings[name] = self._timings.get(name, 0.0) + now - self._last
        self._last = now

    def warn(self, msg):
        self.data["warnings"].append(msg)

    def note(self, msg):
        self.data["notes"].append(msg)

    def output(self, path, sha256):
        """Record an output file by the hex digest of its bytes."""
        self.data["outputs"][str(path)] = {"sha256": sha256}

    def write(self, path):
        timings = dict(self._timings, total=time.perf_counter() - self._t0)
        self.data["timings_s"] = {k: round(v, 6) for k, v in timings.items()}
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(self.data, fh, indent=2, sort_keys=True,
                      allow_nan=False)
            fh.write("\n")


class Pipeline:
    """Shared model assembly for every subcommand."""

    def __init__(self, cfg: BenchmarkConfig, report: RunReport):
        self.cfg = cfg
        self.gens = build_generators(cfg)
        self.net = build_network(cfg)
        eq = cfg["equilibrium"]
        self.op = solve_equilibrium(self.gens, self.net,
                                    v_target=eq["v_target_V"],
                                    tol=cfg["tolerances"]["equilibrium"],
                                    max_iters=eq["max_iters"])
        report.stage("equilibrium")
        self.plant = linearize(self.gens, self.net, self.op)
        report.stage("linearize")
        self.Q, self.R = build_cost(cfg)
        self.C, self.D_u = build_output(cfg)
        self._gain_cache = {}

    def gains(self, measure):
        if measure not in self._gain_cache:
            row = local_gain_row(self.cfg, measure)
            gains = LocalGains.from_blocks(self.plant, [row, row])
            dec = symmetric_modes(self.plant, gains, tol=1e-7)
            self._gain_cache[measure] = (gains, dec)
        return self._gain_cache[measure]

    def mode_model(self, measure, i):
        """Continuous model (CtsModel) of mode i under the local gains of
        ``measure``; every design of the mode starts from it."""
        gains, dec = self.gains(measure)
        return mode_system(gains, dec, i, self.Q, self.R, self.C, self.D_u)


def _eig_string(M):
    eigs = sorted(np.linalg.eigvals(M), key=lambda z: (z.real, z.imag))
    return ", ".join(f"{z.real:+.6g}{z.imag:+.6g}j" for z in eigs)


def cmd_linearize(cfg, args, report):
    pipe = Pipeline(cfg, report)
    out = args.out
    for name, M in (("A", pipe.plant.A), ("B_u", pipe.plant.B_u),
                    ("B_w", pipe.plant.B_w)):
        path = f"{out}/{name}.txt"
        report.output(path, write_matrix(path, M))
    op_vec = np.concatenate([pipe.op.x, pipe.op.u])
    path = f"{out}/operating_point.txt"
    report.output(path, write_matrix(path, op_vec.reshape(-1, 1)))
    print(f"eig(A): {_eig_string(pipe.plant.A)}")
    for measure in ("lqr", "hinf"):
        gains, _ = pipe.gains(measure)
        print(f"eig(A + B_u K[{measure}]): {_eig_string(gains.A_bar)}")
    report.stage("write")
    return 0


def _mode_list(dec, mode_arg):
    if mode_arg == "all":
        return list(range(dec.n_modes))
    return [dec.mode_index(mode_arg)]


def _search_diagnostics(report, label, md):
    """Levels an H-infinity search tried and certified; at level 0, also
    the witness's residual output gain ||C2 + D2u F|| (2-norm).  A search
    that certified none of its levels is also a warning."""
    if md.uncertified:
        report.warn(f"{label}: the H-infinity search certified none of its "
                    f"{md.levels} levels; gamma is the decentralized level, "
                    "the norm without remote feedback")
    diag = {"levels_tried": md.levels, "levels_accepted": md.accepted}
    if md.gamma == 0.0:
        diag["residual_gain"] = float(
            np.linalg.norm(md.disc.C2 + md.disc.D2u @ md.F, 2))
    return diag


def cmd_design(cfg, args, report):
    pipe = Pipeline(cfg, report)
    _, dec = pipe.gains(args.measure)
    m = pipe.plant.m
    d_hat, _ = delay_map(dec, args.delay * (np.ones((m, m)) - np.eye(m)))
    gamma_tol = cfg["tolerances"]["gamma_rel"]
    summary = {}
    for i in _mode_list(dec, args.mode):
        md = design_mode(pipe.mode_model(args.measure, i),
                         cfg["sampling"]["h_s"], float(d_hat[i]),
                         method=args.measure, gamma_tol=gamma_tol)
        report.stage("design")
        entry = {"lifted_dim": md.disc.n_z, "q": md.disc.q, "r": md.disc.r,
                 "wait_s": float(d_hat[i])}
        if args.measure == "lqr":
            z0 = md.disc.lift_state(
                np.asarray(cfg["scenario"]["initial_state"], dtype=float))
            entry["cost_certificate"] = md.J_star(z0)
        else:
            entry["gamma"] = md.gamma
            entry["certified_norm"] = md.norm
            report.data.setdefault("diagnostics", {})[dec.labels[i]] = \
                _search_diagnostics(report, dec.labels[i], md)
        path = f"{args.out}/F_{dec.labels[i]}.txt"
        report.output(path, write_matrix(path, md.F))
        summary[dec.labels[i]] = entry
        print(f"{dec.labels[i]}: {entry}")
        report.stage("write")
    report.data["designs"] = summary
    return 0


def cmd_sweep(cfg, args, report):
    pipe = Pipeline(cfg, report)
    _, dec = pipe.gains(args.measure)
    grid = cfg["sampling"]["delay_grid_s"]
    h = cfg["sampling"]["h_s"]
    gamma_tol = cfg["tolerances"]["gamma_rel"]
    z0 = np.asarray(cfg["scenario"]["initial_state"], dtype=float)
    lines = ["delay_s,mode,measure,value,lower_bound,upper_bound,status"]
    ok = True
    for i in _mode_list(dec, args.mode):
        res = sweep_delays(pipe.mode_model(args.measure, i), dec, i,
                           args.measure, grid, h,
                           z0=z0 if args.measure == "lqr" else None,
                           gamma_tol=gamma_tol)
        for w in res.warnings:
            report.warn(f"{dec.labels[i]}: {w}")
        report.data.setdefault("diagnostics", {})[dec.labels[i]] = \
            res.diagnostics
        for r in res.rows:
            lines.append(",".join([
                FMT % r.delay, r.mode, r.measure, FMT % r.value,
                FMT % r.lower, FMT % r.upper, r.status]))
            ok = ok and r.status == "ok"
        report.stage(f"sweep:{dec.labels[i]}")
    payload = "\n".join(lines) + "\n"
    with open(args.out_file, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(payload)
    report.output(args.out_file,
                  hashlib.sha256(payload.encode("utf-8")).hexdigest())
    print(f"wrote {args.out_file} ({len(lines) - 1} rows); "
          f"bounds {'satisfied' if ok else 'VIOLATED'}")
    report.stage("write")
    return 0 if ok else 1


def cmd_simulate(cfg, args, report):
    pipe = Pipeline(cfg, report)
    gains, dec = pipe.gains(args.measure)
    m = pipe.plant.m
    h = cfg["sampling"]["h_s"]
    d = args.delay * (np.ones((m, m)) - np.eye(m))
    d_hat, _ = delay_map(dec, d)
    gamma_tol = cfg["tolerances"]["gamma_rel"]
    designs = [design_mode(pipe.mode_model(args.measure, i), h,
                           float(d_hat[i]), method=args.measure,
                           gamma_tol=gamma_tol)
               for i in range(dec.n_modes)]
    ctrl = DistributedController(gains, dec, d, h, designs)
    report.stage("design")

    scn_cfg = cfg["scenario"]
    mode_i = dec.mode_index(scn_cfg["initial_mode"])
    x_hat0 = np.zeros(pipe.plant.n_x)
    init = np.asarray(scn_cfg["initial_state"], dtype=float)
    x_hat0[dec.x_slice(mode_i)] = init
    disturbance = None
    if scn_cfg["disturbance"] == "impulse":
        disturbance = np.zeros((1, pipe.plant.n_w))
        disturbance[0, 0] = scn_cfg["impulse_amp_A"]

    md = designs[mode_i]
    cert = (md.J_star(md.disc.lift_state(init))
            if args.measure == "lqr" and disturbance is None else None)

    step_req = scn_cfg["integrator_step_s"]
    scn = Scenario(initial_state=x_hat0, disturbance=disturbance,
                   integrator_step=step_req, horizon=scn_cfg["horizon_s"])
    header = (["t_s"]
              + [f"{n}_{i + 1}" for i in range(m)
                 for n in ("d_delta", "d_omega", "d_psi_f")]
              + [f"u_ef_{i + 1}" for i in range(m)]
              + [f"ubar_ef_{i + 1}" for i in range(m)]
              + [f"y_{j + 1}" for j in range(pipe.C.shape[0])])

    def segment(*columns):
        """Write a segment of trace rows, one per sampling instant, as the
        simulation hands it on; the stepping before it is charged to
        ``simulate``, the formatting and writing to ``write``."""
        report.stage("simulate")
        table.rows(np.column_stack(columns))
        report.stage("write")

    _hold_freed_heap()
    with TableWriter(args.out_file, ",".join(header), ",") as table:
        out = simulate_closed_loop(pipe.plant, ctrl, scn, pipe.Q, pipe.R,
                                   segment, pipe.C, pipe.D_u)
    report.output(args.out_file, table.sha256)
    if out.step != step_req:
        report.note(f"integrator step refined from {step_req} to "
                    f"{out.step} to hit every sampling/switching instant "
                    "and stay inside the integrator's stability region")

    summary = {"J_measured": finite_cost(out.J), "horizon_s": out.horizon}
    if cert is not None:
        summary["cost_certificate"] = cert
        summary["relative_gap"] = abs(out.J - cert) / max(cert, 1e-300)
    elif args.measure == "hinf":
        summary["gamma"] = {label: md.gamma
                            for label, md in zip(dec.labels, designs)}
    report.data["summary"] = summary
    report.data["diagnostics"] = {
        "integrator_step_s": out.step,
        "steps_per_period": out.steps_per_period,
        "periods": out.periods,
        "trace_rows": out.periods + 1,
        "trace_bytes": table.size,
        "trace_fmt_values": table.fmt_values,
    }
    if args.measure == "hinf":
        report.data["diagnostics"]["designs"] = {
            label: _search_diagnostics(report, label, md)
            for label, md in zip(dec.labels, designs)}
    print(json.dumps(summary, indent=2, sort_keys=True))
    report.stage("write")
    return 0


def _delay(s):
    """The argparse type of ``--delay``: a finite nonnegative number."""
    try:
        return _parse_nonnegative(s)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="wadc",
        description="Delay-aware distributed damping control of a "
                    "two-machine grid: modeling, design and evaluation.")
    parser.add_argument("--config", required=True, help="configuration file")
    parser.add_argument("--out", default=".", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("linearize", help="write A, B_u, B_w and the "
                                     "operating point")

    p_design = sub.add_parser("design", help="per-mode gains at one delay")
    p_design.add_argument("--measure", choices=("lqr", "hinf"),
                          default="lqr")
    p_design.add_argument("--mode",
                          choices=("oscillation", "common", "all"),
                          default="all")
    p_design.add_argument("--delay", type=_delay, default=0.0,
                          help="link delay [s]")

    p_sweep = sub.add_parser("sweep", help="measure vs delay CSV")
    p_sweep.add_argument("--measure", choices=("lqr", "hinf"),
                         default="lqr")
    p_sweep.add_argument("--mode",
                         choices=("oscillation", "common", "all"),
                         default="oscillation")

    p_sim = sub.add_parser("simulate", help="closed-loop trace and cost")
    p_sim.add_argument("--measure", choices=("lqr", "hinf"), default="lqr")
    p_sim.add_argument("--delay", type=_delay, default=0.0,
                       help="link delay [s]")

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
    except (WadcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command in ("sweep", "simulate"):
        args.out_file = os.path.join(
            args.out, "sweep.csv" if args.command == "sweep" else "trace.csv")
    report = RunReport(cfg, vars(args).copy())
    handlers = {"linearize": cmd_linearize, "design": cmd_design,
                "sweep": cmd_sweep, "simulate": cmd_simulate}
    try:
        try:
            code = handlers[args.command](cfg, args, report)
        except WadcError as exc:
            print(f"error: {exc}", file=sys.stderr)
            report.warn(str(exc))
            code = 3
        report.write(os.path.join(args.out, "report.json"))
    except OSError as exc:   # an output file that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code
