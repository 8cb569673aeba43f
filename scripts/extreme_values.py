#!/usr/bin/env python3
"""Run wadc with each numeric configuration key at extreme values and check
that every run ends in a result or a typed refusal.

Usage: python scripts/extreme_values.py [-h | --help] [KEY ...]

Each numeric key of the benchmark configuration (the complex impedances
and the vectors included) is set, through its WADC_<SECTION>__<KEY>
override, to each of 0, 1e-300, 1e-12, 1e12, 1e300 and -1, and three
commands run on it in process at a link delay of 0.1 s: ``design
--measure lqr``, ``design --measure hinf`` and ``simulate --measure lqr``
over 2 s.  A vector key takes the value in every entry.  KEY arguments,
given as SECTION.KEY, restrict the table to those keys.

A run passes when it exits 0, 2 or 3, raises no exception other than a
WadcError, emits no RuntimeWarning, prints only finite numbers on stdout
and in report.json, and, for an H-infinity design that exits 0, has either
certified a level in each mode's search or says in report.json's
warnings that it has not.  Prints one line per failing run and a summary;
exits 1 if any run failed.
"""

import contextlib
import io
import json
import os
import re
import sys
import tempfile
import time
import warnings

from wadc.cli import main as wadc_main
from wadc.config import SCHEMA, _parse_complex, _parse_vector

CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      os.pardir, "configs", "benchmark.cfg")
VALUES = ("0", "1e-300", "1e-12", "1e12", "1e300", "-1")
COMMANDS = {
    "design-lqr": ("design", "--measure", "lqr", "--delay", "0.1"),
    "design-hinf": ("design", "--measure", "hinf", "--delay", "0.1"),
    "simulate-lqr": ("simulate", "--measure", "lqr", "--delay", "0.1"),
}
# every key whose value is a number, a complex number or a numeric vector
NON_NUMERIC = {("scenario", "initial_mode"), ("scenario", "disturbance"),
               ("sampling", "delay_grid_s")}
KEYS = [(sec, key) for sec, keys in SCHEMA.items() for key in keys
        if (sec, key) not in NON_NUMERIC]
_NUMBER = re.compile(r"\b(?:inf|nan|Infinity|NaN)\b", re.IGNORECASE)


def override(sec, key, value):
    """The environment override setting [sec] key to ``value``."""
    if SCHEMA[sec][key][0] is _parse_vector:
        value = ",".join([value] * 3)
    elif SCHEMA[sec][key][0] is _parse_complex:
        value = f"{value}+0j"
    return {f"WADC_{sec.upper()}__{key.upper()}": value}


def _search_problems(report):
    """Modes whose H-infinity search tried levels and certified none, with
    no warning that names them."""
    warned = " ".join(report.get("warnings", []))
    out = []
    for label, diag in report.get("diagnostics", {}).items():
        if (isinstance(diag, dict) and diag.get("levels_tried", 0) > 0
                and diag.get("levels_accepted") == 0 and label not in warned):
            out.append(f"{label}'s search certified no level, unwarned")
    return out


def run_case(env, argv, out_dir):
    """Run ``wadc --config CONFIG --out out_dir *argv`` in process under the
    overrides ``env``; return (exit code or None, list of problems)."""
    saved = {k: os.environ.get(k) for k in env}
    os.environ.update(env)
    stdout, stderr = io.StringIO(), io.StringIO()
    code, problems = None, []
    try:
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            try:
                code = wadc_main(["--config", CONFIG, "--out", str(out_dir),
                                  *argv])
            except Exception as exc:   # any traceback is a failure
                problems.append(f"raised {type(exc).__name__}: {exc}")
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    problems += [f"{w.category.__name__}: {w.message}" for w in caught
                 if issubclass(w.category, RuntimeWarning)]
    if code not in (None, 0, 2, 3):
        problems.append(f"exit {code}")
    if _NUMBER.search(stdout.getvalue()):
        problems.append("non-finite number on stdout")
    path = os.path.join(out_dir, "report.json")
    if code in (0, 3) and os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        try:
            report = json.loads(text, parse_constant=_reject)
        except ValueError:
            problems.append("non-finite number in report.json")
        else:
            if code == 0 and "hinf" in argv:
                problems += _search_problems(report)
    return code, problems


def _reject(token):
    raise ValueError(token)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] in (["-h"], ["--help"]):
        print(__doc__.strip())
        return 0
    keys = [k for k in KEYS if not argv or ".".join(k) in argv]
    failed, codes, t0 = 0, {}, time.perf_counter()
    for sec, key in keys:
        for value in VALUES:
            for name, command in COMMANDS.items():
                env = override(sec, key, value)
                if name.startswith("simulate") and key != "horizon_s":
                    env["WADC_SCENARIO__HORIZON_S"] = "2"
                with tempfile.TemporaryDirectory() as out_dir:
                    code, problems = run_case(env, command, out_dir)
                codes[code] = codes.get(code, 0) + 1
                if problems:
                    failed += 1
                    print(f"FAIL [{sec}] {key} = {value}, {name}: "
                          + "; ".join(problems))
    runs = sum(codes.values())
    tally = ", ".join(f"exit {c}: {n}" for c, n in sorted(
        codes.items(), key=lambda kv: (kv[0] is None, kv[0] or 0)))
    print(f"{runs} runs over {len(keys)} keys in "
          f"{time.perf_counter() - t0:.0f} s ({tally}); {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
