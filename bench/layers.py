"""Per-layer timing of the package, from the benchmark's side.

``Tracer.install`` replaces selected public functions of the ``kvlog``
modules by timing wrappers, in every module namespace that holds them, so
calls between layers (``soundness_fuzz`` calling ``eval_ternary``, the CLI
calling ``check_derivation``) are timed too.  Nothing under ``src/`` is
changed.

Each wrapped call is a span.  A layer's self time is the span's duration
minus the time of the spans it caused; a call into a layer that already
has an open span (recursion, or ``valid_on`` calling ``eval_ternary``)
adds no span.  Counters are read off the call's arguments and result;
the time spent counting is charged to no layer.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import refs

# module -> function -> layer key.  A key's self time is reported as
# "<key>_s" and, for the keys in CALLS, its outermost call count.
LAYERS = {
    "syntax": {"parse": "syntax.parse", "parse_infer": "syntax.parse",
               "random_formula": "syntax.gen", "substitute": "syntax.gen",
               "reduce_r": "syntax.reduce"},
    "models": {"generate_direct": "models.generate",
               "generate_value_induced": "models.generate",
               "validate_ternary": "models.validate",
               "json_to_model": "models.load", "load_model": "models.load"},
    "semantics": {"find_countermodel": "semantics.search",
                  "eval_ternary": "semantics.eval", "eval_fo": "semantics.eval",
                  "valid_on": "semantics.eval"},
    "transform": {"split": "transform.split", "unravel": "transform.unravel",
                  "assign_values": "transform.assign"},
    "bisim": {"greatest_bisim": "bisim.greatest",
              "distinguishing_formula": "bisim.dist"},
    "proof": {"soundness_fuzz": "proof.fuzz",
              "parse_script": "proof.script_parse",
              "check_derivation": "proof.check"},
    "cli": {"main": "cli.self"},
}
CALLS = {"semantics.search": "semantics.search_calls",
         "semantics.eval": "semantics.eval_calls",
         "syntax.parse": "syntax.parse_calls",
         "models.generate": "models.generate_calls",
         "models.validate": "models.validate_calls",
         "bisim.greatest": "bisim.greatest_calls",
         "bisim.dist": "bisim.dist_calls",
         "cli.self": "cli.calls"}


def _count_search(tr, args, out, dt):
    f, max_states = args[0], args[1]
    if out is not None:
        tr.counts["semantics.search_found"] += 1
    else:
        tr.counts["exhaustive_models"] += refs.labeled_space(
            *refs.symbol_counts(f), max_states)
        tr.counts["exhaustive_s"] += dt


def _count_check(tr, args, out, dt):
    steps = args[1].steps
    if out.ok:
        tr.counts["proof.check_steps"] += len(steps)
    else:
        tr.counts["proof.check_steps"] += next(
            (k + 1 for k, step in enumerate(steps) if step.num == out.step),
            len(steps))


COUNTERS = {
    "find_countermodel": _count_search,
    "reduce_r": lambda tr, a, out, dt: tr.add("syntax.reduce_out_nodes",
                                              refs.tree_size(out)),
    "validate_ternary": lambda tr, a, out, dt: tr.add("models.violations",
                                                      len(out)),
    "unravel": lambda tr, a, out, dt: tr.add("transform.tree_states",
                                             len(out.states)),
    "greatest_bisim": lambda tr, a, out, dt: tr.add("bisim.rounds",
                                                    out.rounds),
    "distinguishing_formula": lambda tr, a, out, dt: tr.add(
        "bisim.formula_nodes", 0 if out is None else refs.tree_size(out)),
    "soundness_fuzz": lambda tr, a, out, dt: tr.add("proof.fuzz_checks",
                                                    out.checks),
    "check_derivation": _count_check,
}


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.open = defaultdict(int)     # layer key -> open spans
        self.child = []                  # time of caused spans, per open span
        self.active = True

    def add(self, name, value):
        self.counts[name] += value

    def wrap(self, fn, key, name):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            if not self.active or self.open[key]:
                return fn(*args, **kwargs)
            self.open[key] += 1
            self.child.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - start
                self.open[key] -= 1
                self.self_s[key] += dt - self.child.pop()
                if key in CALLS:
                    self.counts[CALLS[key]] += 1
            if counter is not None:
                t0 = time.perf_counter()
                counter(self, args, out, dt)
                dt += time.perf_counter() - t0
            if self.child:
                self.child[-1] += dt
            return out

        return traced

    def install(self, api):
        """Wrap the functions of LAYERS wherever the package binds them."""
        wrappers = {}
        for module_name, functions in LAYERS.items():
            module = getattr(api, module_name)
            for name, key in functions.items():
                fn = getattr(module, name)
                wrappers[id(fn)] = self.wrap(fn, key, name)
        for module in api.modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and callable(value):
                    setattr(module, attr, wrappers[id(value)])

    @contextlib.contextmanager
    def paused(self):
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def metrics(self) -> dict:
        """Every per-layer metric, by name: (value, unit)."""
        out = {}
        for functions in LAYERS.values():
            for key in functions.values():
                out[f"{key}_s"] = (self.self_s[key], "s")
        for name in CALLS.values():
            out[name] = (self.counts[name], "count")
        for name in ("semantics.search_found", "syntax.reduce_out_nodes",
                     "models.violations", "transform.tree_states",
                     "bisim.rounds", "bisim.formula_nodes",
                     "proof.fuzz_checks", "proof.check_steps"):
            out[name] = (self.counts[name], "count")
        exhaustive_s = self.counts["exhaustive_s"]
        out["semantics.search_models_per_s"] = (
            self.counts["exhaustive_models"] / exhaustive_s
            if exhaustive_s else 0.0, "models/s")
        return out
