"""Spans at gaplab's module boundaries, recorded from outside the package.

The package binds imports with `from .x import f`, so a call from one module
into another goes through a name in the calling module's namespace.  The
tracer replaces those names with wrappers that record a span (name, start,
end, parent) in memory, plus a few counts read from the call's arguments.
A layer's self time is its spans' durations minus their direct children's.

A boundary missing at some commit (the function was renamed, inlined or
removed) is listed in `absent`, and every metric that needs it is reported
as absent (None), neither zero nor an error.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

# (calling module, name called through it).  Calls written as `module.f(...)`
# are looked up in the callee module, so those names are wrapped there.
BOUNDARIES = (
    ("cli", "run_time_series"), ("cli", "spectral_function"),
    ("cli", "exact_diagonalize"), ("cli", "exact_spectrum_oracle"),
    ("cli", "find_gap"), ("cli", "write_table"),
    ("gapfinder", "theta_sweep"), ("gapfinder", "spectral_error_bound"),
    ("gapfinder", "sweep_to_json"), ("gapfinder", "exact_diagonalize"),
    ("gapfinder", "commutator_norm_bounds"), ("gapfinder", "run_time_series"),
    ("gapfinder", "spectral_function"), ("gapfinder", "exact_spectrum_oracle"),
    ("gapfinder", "transform"), ("gapfinder", "find_gap"),
    ("scaling", "extrapolate"), ("scaling", "phase_diagram_to_csv"),
    ("spectral", "transform"), ("spectral", "spectrum_to_csv"),
    ("simulator", "propagator_overlap"), ("simulator", "trotter_propagator"),
    ("simulator", "gate_sequence"), ("simulator", "apply_gates"),
)

_WRITERS = ("_textio.write_table", "scaling.phase_diagram_to_csv",
            "gapfinder.sweep_to_json", "spectral.spectrum_to_csv", "json.dump")


def _propagator_key(tracer, bound):
    a = bound.arguments
    tracer.counts["propagator_evals"] += 1
    tracer.propagator_keys.add((a["model"], a["plan"], float(a["t"])))


def _series_counts(tracer, bound):
    points = 2 * bound.arguments["grid"].length
    tracer.counts["points"] += points
    if bound.arguments.get("shots") is not None:
        tracer.counts["sampling_draws"] += points


def _gate_counts(tracer, bound):
    tracer.counts["gates"] += len(bound.arguments["gates"])


def _transform_ops(tracer, bound):
    # L^2 cosines plus L^2 multiply-adds per call, computed from the grid.
    tracer.counts["transform_ops"] += 2 * bound.arguments["grid"].length ** 2


_COUNTERS = {
    "trotter.trotter_propagator": _propagator_key,
    "simulator.gate_sequence": _propagator_key,
    "simulator.run_time_series": _series_counts,
    "simulator.apply_gates": _gate_counts,
    "spectral.transform": _transform_ops,
}


def _callee_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class _TracedJson:
    """Stands in for the `json` module inside gaplab.cli, tracing `dump`."""

    def __init__(self, module, dump):
        self._module = module
        self.dump = dump

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """In-memory spans and counts of one traced CLI run."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, error]
        self._stack = []
        self.counts = Counter()
        self.propagator_keys = set()
        self.absent = []
        self._callees = {}       # "module.name" boundary -> callee name

    def wrap(self, fn, name):
        counter = _COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counter(self, signature.bind(*args, **kwargs))
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, None])
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                spans[index][4] = type(exc).__name__
                raise
            finally:
                spans[index][1] = start
                spans[index][2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self):
        """Wrap every boundary in the already imported gaplab modules."""
        for module_name, attr in BOUNDARIES:
            label = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(f"gaplab.{module_name}")
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(label)
                continue
            name = _callee_name(fn)
            self._callees[label] = name
            setattr(module, attr, self.wrap(fn, name))
        cli = importlib.import_module("gaplab.cli")
        json_module = getattr(cli, "json", None)
        if json_module is None or not hasattr(json_module, "dump"):
            self.absent.append("cli.json.dump")
        else:
            self._callees["cli.json.dump"] = "json.dump"
            cli.json = _TracedJson(json_module,
                                   self.wrap(json_module.dump, "json.dump"))

    def layer_metrics(self, wall: float) -> dict:
        """Per-layer totals, self times and counts; None where a boundary is absent."""
        total, self_time, calls, errors = (defaultdict(float), defaultdict(float),
                                           Counter(), Counter())
        top_level = 0.0
        for name, start, end, parent, error in self.spans:
            duration = end - start
            total[name] += duration
            self_time[name] += duration
            calls[name] += 1
            if error == "GapSearchError":
                errors[name] += 1
            if parent >= 0:
                self_time[self.spans[parent][0]] -= duration
            else:
                top_level += duration
        c = self.counts
        run_series = total["simulator.run_time_series"]
        evals_keys = len(self.propagator_keys)
        specs = {
            "model.exact_diagonalize_s": (("model.exact_diagonalize",),
                                          total["model.exact_diagonalize"]),
            "model.exact_diagonalize_calls": (("model.exact_diagonalize",),
                                              calls["model.exact_diagonalize"]),
            "model.commutator_norm_bounds_s": (
                ("model.commutator_norm_bounds",),
                total["model.commutator_norm_bounds"]),
            "trotter.propagator_s": (("trotter.trotter_propagator",),
                                     total["trotter.trotter_propagator"]),
            "trotter.propagator_calls": (("trotter.trotter_propagator",),
                                         calls["trotter.trotter_propagator"]),
            "trotter.propagators_per_time": (
                ("trotter.trotter_propagator", "simulator.gate_sequence"),
                c["propagator_evals"] / evals_keys if evals_keys else None),
            "simulator.run_time_series_s": (("simulator.run_time_series",),
                                            run_series),
            "simulator.run_time_series_self_s": (
                ("simulator.run_time_series",),
                self_time["simulator.run_time_series"]),
            "simulator.points": (("simulator.run_time_series",), c["points"]),
            "simulator.points_per_s": (
                ("simulator.run_time_series",),
                c["points"] / run_series if run_series > 0 else None),
            "simulator.sampling_draws": (("simulator.run_time_series",),
                                         c["sampling_draws"]),
            "simulator.gate_path_s": (
                ("simulator.apply_gates", "simulator.gate_sequence"),
                total["simulator.apply_gates"] + total["simulator.gate_sequence"]),
            "simulator.gates_applied": (("simulator.apply_gates",), c["gates"]),
            "spectral.transform_s": (("spectral.transform",),
                                     total["spectral.transform"]),
            "spectral.transform_calls": (("spectral.transform",),
                                         calls["spectral.transform"]),
            "spectral.transform_ops": (("spectral.transform",),
                                       c["transform_ops"]),
            "spectral.oracle_s": (("spectral.exact_spectrum_oracle",),
                                  total["spectral.exact_spectrum_oracle"]),
            "gapfinder.find_gap_s": (("gapfinder.find_gap",),
                                     total["gapfinder.find_gap"]),
            "gapfinder.search_failures": (("gapfinder.find_gap",),
                                          errors["gapfinder.find_gap"]),
            "gapfinder.error_bound_s": (
                ("gapfinder.spectral_error_bound",),
                self_time["gapfinder.spectral_error_bound"]),
            "gapfinder.theta_sweep_s": (("gapfinder.theta_sweep",),
                                        self_time["gapfinder.theta_sweep"]),
            "scaling.extrapolate_s": (("scaling.extrapolate",),
                                      total["scaling.extrapolate"]),
            "cli.write_s": (_WRITERS, sum(total[w] for w in _WRITERS)),
            "trace.wall_s": ((), wall),
            "trace.unattributed_frac": ((), 1.0 - top_level / wall),
        }
        present = set(self._callees.values())
        return {name: (value if not needs or present.intersection(needs) else None)
                for name, (needs, value) in specs.items()}
