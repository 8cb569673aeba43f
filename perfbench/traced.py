"""Run one wadc CLI invocation with its layer boundaries timed from outside.

Usage: python perfbench/traced.py SUMMARY_JSON WADC_ARGS...

The library is imported unmodified from the checkout's ``src/`` (through
PYTHONPATH).  Each public function named in LAYERS is replaced by a timing
wrapper by rebinding module attributes: every ``wadc`` module attribute
that is the original function is rebound, so names imported with
``from .x import f`` (``dncs.discretize``, ``sim_eval.hinf_norm``,
``cli.simulate_closed_loop``, ...) are caught as well as calls inside the
defining module.  Spans (layer, parent span, start, end, outcome) are kept
in memory and reduced to per-layer counts and self times when the run
ends; the summary is written as JSON to SUMMARY_JSON.  The CLI's exit code
is passed through.
"""

import functools
import importlib
import json
import math
import sys
import time

# (module, attribute path) of every wrapped layer boundary
LAYERS = (
    ("config", "load_config"),
    ("grid_model", "solve_equilibrium"),
    ("grid_model", "linearize"),
    ("dncs", "symmetric_modes"),
    ("dncs", "design_mode"),
    ("dncs", "DistributedController.sample"),
    ("sampled", "discretize"),
    ("synthesis", "lqr_design"),
    ("synthesis", "dare_solve"),
    ("synthesis", "stein_solve"),
    ("synthesis", "gamma_min"),
    ("synthesis", "hinf_design"),
    ("synthesis", "hinf_norm"),
    ("sim_eval", "compute_bounds"),
    ("sim_eval", "simulate_closed_loop"),
    ("cli", "main"),
)

# values read from a layer's return value, recorded per successful call
EXTRACT = {
    "sampled.discretize": lambda disc: {"n_z": disc.n_z},
    "sim_eval.simulate_closed_loop": lambda out: {"steps": len(out.t) - 1},
}


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans = []  # [layer, parent index, start, end, ok, extra]
        self._stack = []

    def wrap(self, layer, fn):
        extract = EXTRACT.get(layer)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [layer, stack[-1] if stack else -1, clock(), None, False,
                    None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                span[4] = True
                if extract is not None:
                    span[5] = extract(result)
                return result
            finally:
                span[3] = clock()
                stack.pop()

        return wrapper

    def summary(self):
        covered = [0.0] * len(self.spans)
        for _layer, parent, t0, t1, _ok, _extra in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        layers = {}
        for i, (layer, _parent, t0, t1, ok, extra) in enumerate(self.spans):
            agg = layers.setdefault(layer, {"calls": 0, "ok": 0,
                                            "total_s": 0.0, "self_s": 0.0,
                                            "durations": [], "extra": {}})
            agg["calls"] += 1
            agg["ok"] += ok
            agg["total_s"] += t1 - t0
            agg["self_s"] += t1 - t0 - covered[i]
            agg["durations"].append(t1 - t0)
            for key, value in (extra or {}).items():
                agg["extra"].setdefault(key, []).append(value)
        for agg in layers.values():
            durations = sorted(agg.pop("durations"))
            agg["p50_s"] = _nearest_rank(durations, 0.50)
            agg["p95_s"] = _nearest_rank(durations, 0.95)
        return layers


def _nearest_rank(sorted_values, p):
    return sorted_values[max(1, math.ceil(len(sorted_values) * p)) - 1]


def install(tracer):
    """Rebind every LAYERS function in every loaded wadc module."""
    modules = [m for name, m in sys.modules.items()
               if name == "wadc" or name.startswith("wadc.")]
    for mod_name, attr in LAYERS:
        owner = importlib.import_module(f"wadc.{mod_name}")
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, name)
        wrapper = tracer.wrap(f"{mod_name}.{attr}", original)
        setattr(owner, name, wrapper)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def main():
    summary_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import wadc.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    code = wadc.cli.main(argv)
    layers = tracer.summary()
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "layers": layers}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
