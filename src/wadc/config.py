"""Benchmark configuration: schema, parser, environment overrides, and
assembly of the model objects the pipeline needs.

The file format is INI-style sections of ``key = value`` lines with units
spelled out in the key names (the source material mixes mH / uH / mOhm, so
unit-bearing keys prevent silent scale errors).  Unknown sections or keys
are rejected with line numbers; every key can be overridden through an
environment variable ``WADC_<SECTION>__<KEY>`` (upper-cased).
"""

import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError
from .grid_model import GeneratorParams, build_two_area_network

ENV_PREFIX = "WADC_"
_MAX_GRID_POINTS = 10_001   # delays in one grid, counted before it is built


def _parse_float(s):
    try:
        v = float(s)
    except ValueError:
        v = None
    if v is None or not np.isfinite(v):
        raise ConfigError(f"expected a finite number, got {s!r}")
    return v


def _parse_positive(s):
    v = _parse_float(s)
    if v <= 0:
        raise ConfigError(f"expected a positive number, got {s!r}")
    return v


def _parse_gamma_rel(s):
    v = _parse_float(s)
    if not v >= 1e-9:
        raise ConfigError(f"expected at least 1e-9, above the accuracy of "
                          f"the certified norms, got {s!r}")
    return v


def _parse_nonnegative(s):
    v = _parse_float(s)
    if v < 0:
        raise ConfigError(f"expected a nonnegative number, got {s!r}")
    return v


def _parse_int(s):
    try:
        return int(s)
    except ValueError:
        raise ConfigError(f"expected an integer, got {s!r}") from None


def _parse_positive_int(s):
    v = _parse_int(s)
    if v <= 0:
        raise ConfigError(f"expected a positive integer, got {s!r}")
    return v


def _parse_complex(s):
    try:
        v = complex(s.replace(" ", ""))
    except ValueError:
        v = None
    if v is None or not np.isfinite(v) or v == 0:
        raise ConfigError(f"expected a finite nonzero complex impedance, "
                          f"got {s!r}")
    return v


def _parse_vector(s):
    try:
        return tuple(_parse_float(p) for p in s.split(","))
    except ConfigError:
        raise ConfigError(f"expected comma-separated finite numbers, "
                          f"got {s!r}") from None


def _parse_grid(s):
    """Delay grid: 'start:step:stop' (inclusive, exact rationals) or a
    comma-separated list, of at most ``_MAX_GRID_POINTS`` delays."""
    s = s.strip()
    if ":" in s:
        parts = s.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid must be start:step:stop, got {s!r}")
        try:
            start, step, stop = (Fraction(p.strip()) for p in parts)
        except ValueError:
            raise ConfigError(f"bad grid numbers in {s!r}") from None
        if step <= 0 or stop < start:
            raise ConfigError(f"grid range is empty or reversed: {s!r}")
        if max(abs(start), abs(stop)) > np.finfo(float).max:
            raise ConfigError(f"grid bounds must be finite numbers, got {s!r}")
        count = (stop - start) // step + 1
    else:
        count = s.count(",") + 1
    if count > _MAX_GRID_POINTS:
        raise ConfigError(f"grid has {count} delays, more than the "
                          f"{_MAX_GRID_POINTS} a sweep may design")
    if ":" in s:
        vals = tuple(float(start + i * step) for i in range(count))
    else:
        vals = _parse_vector(s)
    if any(b < a for a, b in zip(vals, vals[1:])) or any(v < 0 for v in vals):
        raise ConfigError("delay grid must be nonnegative and ascending")
    return vals


def _parse_choice(*choices):
    def parse(s):
        if s not in choices:
            raise ConfigError(f"expected one of {choices}, got {s!r}")
        return s
    return parse


def _parse_positive_or(word):
    """A positive number, or ``word`` for None."""
    return lambda s: None if s == word else _parse_positive(s)


# section -> key -> (parser, default or REQUIRED, "description [units]")
_REQUIRED = object()
SCHEMA = {
    "generators": {
        "count": (_parse_positive_int, 2, "number of machines (2 supported) [-]"),
        "L_a0_mH": (_parse_positive, _REQUIRED, "stator self-inductance, constant part [mH]"),
        "L_a2_uH": (_parse_positive, _REQUIRED, "stator saliency inductance amplitude [uH]"),
        "L_f_mH": (_parse_positive, _REQUIRED, "field-winding self-inductance [mH]"),
        "L_af_mH": (_parse_positive, _REQUIRED, "stator/field mutual inductance [mH]"),
        "R_a_mOhm": (_parse_positive, _REQUIRED, "stator resistance [mOhm]"),
        "R_f_mOhm": (_parse_positive, _REQUIRED, "field resistance [mOhm]"),
        "J_kgm2": (_parse_positive, _REQUIRED, "rotor moment of inertia [kg m^2]"),
        "B_kgm2_per_s": (_parse_nonnegative, _REQUIRED, "friction coefficient [kg m^2/s]"),
        "pole_pairs": (_parse_positive_int, _REQUIRED, "pole-pair count [-]"),
        "T_m_Nm": (_parse_float, _REQUIRED, "constant mechanical torque [N m]"),
        "e_f0_V": (_parse_float, _REQUIRED, "nominal field voltage [V]"),
    },
    "network": {
        "omega0_rad_per_s": (_parse_positive, 377.0, "synchronous speed [rad/s]"),
        "Z_T_Ohm": (_parse_complex, _REQUIRED, "generator-to-load-bus line impedance [Ohm]"),
        "Z_L_Ohm": (_parse_complex, _REQUIRED, "shunt load impedance at each load bus [Ohm]"),
        "Z_C_Ohm": (_parse_complex, _REQUIRED, "tie impedance between the load buses [Ohm]"),
    },
    "cost": {
        "delta_weight": (_parse_nonnegative, 1.0, "quadratic weight on each rotor angle [1/rad^2 s]"),
        "input_weight": (_parse_positive, 2.5e-5, "quadratic weight on each field voltage [1/V^2 s]"),
    },
    "output": {
        "delta_weight": (_parse_nonnegative, 1.0, "output weight on each rotor angle [-]"),
        "input_weight": (_parse_nonnegative, 1e-2, "output weight on each remote field command [-]"),
    },
    "gains": {
        "lqr_local": (_parse_vector, _REQUIRED, "local gain row for the cost-based design, shared by both machines [V/rad, V s/rad, V/Wb]"),
        "hinf_local": (_parse_vector, _REQUIRED, "local gain row for the attenuation-based design [V/rad, V s/rad, V/Wb]"),
    },
    "sampling": {
        "h_s": (_parse_positive, 0.02, "sampling period [s]"),
        "delay_grid_s": (_parse_grid, tuple(float(Fraction(i, 50)) for i in range(26)), "link delays to sweep, start:step:stop or list [s]"),
    },
    "equilibrium": {
        "v_target_V": (_parse_positive_or("none"), None, "terminal voltage magnitude target, or 'none' to hold e_f0 [V]"),
        "max_iters": (_parse_positive_int, 100, "Newton iteration cap [-]"),
    },
    "tolerances": {
        "equilibrium": (_parse_positive, 1e-10, "scaled equilibrium residual tolerance [-]"),
        "gamma_rel": (_parse_gamma_rel, 1e-3, "relative bracket tolerance of the attenuation search, at least 1e-9 [-]"),
    },
    "scenario": {
        "initial_mode": (_parse_choice("oscillation", "common"), "oscillation", "mode carrying the initial state [-]"),
        "initial_state": (_parse_vector, (1.0, 0.0, 0.0), "initial modal state (angle, speed, flux components) [rad, rad/s, Wb]"),
        "disturbance": (_parse_choice("none", "impulse"), "none", "disturbance profile [-]"),
        "impulse_amp_A": (_parse_float, 50.0, "held one-sample pulse amplitude at load bus 1 [A]"),
        "integrator_step_s": (_parse_positive, 1e-3, "requested integrator step, refined to hit events [s]"),
        "horizon_s": (_parse_positive_or("auto"), None, "simulation horizon, or 'auto' for 20 time constants of the sampled closed loop [s]"),
    },
}


@dataclass(frozen=True, eq=False)
class BenchmarkConfig:
    """Resolved configuration (defaults filled, units converted to SI)."""

    values: dict
    source: str = "<memory>"

    def __getitem__(self, section):
        return self.values[section]

    def resolved(self):
        """JSON-friendly dump that reproduces this run."""
        def plain(v):
            return (repr(v) if isinstance(v, complex)
                    else list(v) if isinstance(v, tuple) else v)
        return {sec: {k: plain(v) for k, v in keys.items()}
                for sec, keys in self.values.items()}


def _parse_lines(text, source):
    """Section/key/value triples with line numbers."""
    entries = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in SCHEMA:
                raise ConfigError(
                    f"{source}:{lineno}: unknown section [{section}]")
            entries.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key = value")
        if section is None:
            raise ConfigError(f"{source}:{lineno}: key outside any section")
        key, value = (p.strip() for p in line.split("=", 1))
        if key not in SCHEMA[section]:
            raise ConfigError(
                f"{source}:{lineno}: unknown key {key!r} in [{section}]")
        if key in entries[section]:
            raise ConfigError(
                f"{source}:{lineno}: duplicate key {key!r} in [{section}]")
        entries[section][key] = (value, lineno)
    return entries


def _apply_env_overrides(entries, environ):
    key_lookup = {
        (sec.upper(), key.upper()): (sec, key)
        for sec, keys in SCHEMA.items() for key in keys
    }
    for name, value in environ.items():
        if not name.startswith(ENV_PREFIX):
            continue
        body = name[len(ENV_PREFIX):]
        if "__" not in body:
            raise ConfigError(
                f"environment override {name} must look like "
                f"{ENV_PREFIX}SECTION__KEY")
        sec_u, key_u = body.split("__", 1)
        hit = key_lookup.get((sec_u, key_u))
        if hit is None:
            raise ConfigError(f"environment override {name} matches no "
                              "configuration key")
        sec, key = hit
        entries.setdefault(sec, {})[key] = (value, f"env:{name}")
    return entries


def load_config(path=None, text=None, environ=None) -> BenchmarkConfig:
    """Parse, override, validate and fill defaults."""
    if text is None:
        if path is None:
            raise ValueError("need a path or a literal text")
        with open(path, "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
        source = str(path)
    else:
        source = "<memory>"
    entries = _parse_lines(text, source)
    entries = _apply_env_overrides(entries, environ if environ is not None
                                   else os.environ)
    values = {}
    for sec, keys in SCHEMA.items():
        values[sec] = {}
        got = entries.get(sec, {})
        for key, (parser, default, _doc) in keys.items():
            if key in got:
                raw, where = got[key]
                try:
                    values[sec][key] = parser(raw)
                except ConfigError as exc:
                    raise ConfigError(
                        f"{source}:{where}: [{sec}] {key}: {exc}") from None
            elif default is _REQUIRED:
                raise ConfigError(
                    f"{source}: missing required key {key!r} in [{sec}]")
            else:
                values[sec][key] = default
    if values["generators"]["count"] != 2:
        raise ConfigError("only the two-machine benchmark is supported")
    for sec, name in (("gains", "lqr_local"), ("gains", "hinf_local"),
                      ("scenario", "initial_state")):
        if len(values[sec][name]) != 3:
            raise ConfigError(f"[{sec}] {name} must have 3 entries "
                              "(angle, speed, flux)")
    return BenchmarkConfig(values=values, source=source)


def build_generators(cfg: BenchmarkConfig):
    g = cfg["generators"]
    params = GeneratorParams(
        L_a0=g["L_a0_mH"] * 1e-3,
        L_a2=g["L_a2_uH"] * 1e-6,
        L_f=g["L_f_mH"] * 1e-3,
        L_af=g["L_af_mH"] * 1e-3,
        R_a=g["R_a_mOhm"] * 1e-3,
        R_f=g["R_f_mOhm"] * 1e-3,
        J_rot=g["J_kgm2"],
        B_fric=g["B_kgm2_per_s"],
        p_f=g["pole_pairs"],
        T_m=g["T_m_Nm"],
        e_f0=g["e_f0_V"],
    )
    return [params] * g["count"]


def build_network(cfg: BenchmarkConfig):
    n = cfg["network"]
    return build_two_area_network(n["Z_T_Ohm"], n["Z_L_Ohm"], n["Z_C_Ohm"],
                                  omega0=n["omega0_rad_per_s"])


def build_cost(cfg: BenchmarkConfig, m=2):
    """Q weighs each rotor angle, R each field voltage."""
    angles = range(0, 3 * m, 3)
    Q = np.zeros((3 * m, 3 * m))
    Q[angles, angles] = cfg["cost"]["delta_weight"]
    return Q, cfg["cost"]["input_weight"] * np.eye(m)


def build_output(cfg: BenchmarkConfig, m=2):
    """C takes each rotor angle, D_u each remote field command."""
    C = np.zeros((m, 3 * m))
    C[range(m), range(0, 3 * m, 3)] = cfg["output"]["delta_weight"]
    return C, cfg["output"]["input_weight"] * np.eye(m)


def local_gain_row(cfg: BenchmarkConfig, measure):
    name = "lqr_local" if measure == "lqr" else "hinf_local"
    return np.asarray(cfg["gains"][name], dtype=float).reshape(1, 3)
