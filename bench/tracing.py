"""Layer tracing from outside the program, and fixed-size layer probes.

The traced run wraps every public function of the package's layer modules
and rebinds every fibquad.* module attribute (and module-level dict entry,
such as the claim registry) that refers to one, because the layers import
names from each other. restore() puts every original back. The untraced
run installs nothing.

A span's self time is its duration minus the durations of the wrapped
calls it made. The layers are single-threaded with no queues, so there is
no waiting time to record.
"""

import csv
import functools
import importlib
import inspect
import statistics
import sys
import types
from time import perf_counter

LAYERS = ("fibonacci", "triples", "quadratic", "families", "oracle", "numeric", "svgplot", "cli")

# The cli layer is traced at main only: argument parsing, the subcommand
# handlers and the emitters count as its self time. report does negligible
# work and is folded into its callers.
CLI_TRACED = ("main",)

SELF_MS = (
    "fibonacci.fib", "fibonacci.fib_window", "fibonacci.fib_mod", "fibonacci.verify_fib4n_mod3",
    "families.build_f", "families.build_g", "families.verify_theorem3",
    "quadratic.solve_quadratic", "quadratic.integrate", "quadratic.integral_breakdown",
    "quadratic.evaluate", "quadratic.analyze",
    "oracle.simpson_exact", "oracle.root_check",
    "oracle.claim_window_triples", "oracle.claim_scaling", "oracle.claim_roots",
    "oracle.claim_family345", "oracle.claim_mod3", "oracle.claim_theorem3",
    "triples.triple_from_window", "triples.primitivity",
    "numeric.number_str", "cli.main", "svgplot.render_quadratic_svg",
)
ERRORS = SELF_MS + ("quadratic.build_quadratic", "svgplot.write_quadratic_svg", "oracle.run_claim")
PROBE_SIZES = (100, 1000, 3000)
PROBES = ("families.build_f", "families.build_g", "quadratic.solve_quadratic", "quadratic.integrate",
          "quadratic.integral_breakdown", "oracle.simpson_exact", "fibonacci.fib_window",
          "numeric.number_str")

# Counted per theorem3 sweep window, over the ops that sweep only theorem3.
SWEEP_COUNTED = ("fibonacci.fib", "families.build_f", "families.build_g")

# Spans kept in memory per traced run; later ones are only counted.
SPAN_CAP = 100_000

PER_LAYER = (
    [("fibonacci.fib.calls_per_window", "calls/window"), ("families.builds_per_member", "builds/member"),
     ("numeric.number_str.calls", "calls/op")]
    + [(f"{name}.self_ms", "ms/op") for name in SELF_MS]
    + [(f"{name}.errors", "count") for name in ERRORS]
    + [(f"probe.{name}.i{i}_us", "us") for name in PROBES for i in PROBE_SIZES]
    + [("trace_overhead_ratio", "ratio")]
)


class Tracer:
    """Per-function call counts, self time and escaped exceptions, plus
    raw spans kept in memory up to SPAN_CAP and written out at the end."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.errors = {}
        self.names = []
        self.spans = []  # (id, parent id, op, name index, start, end)
        self.dropped = 0
        self.op = 0
        self.windows = 0
        self.sweep_calls = dict.fromkeys(SWEEP_COUNTED, 0)
        self._op_start = None
        self._stack = []  # [child seconds, span id] per open call
        self._next_id = 0

    def wrap(self, name, fn):
        index = len(self.names)
        self.names.append(name)
        self.calls[name] = self.self_s[name] = self.errors[name] = 0
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [0.0, self._next_id]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((frame[1], parent, self.op, index, start, end))
                else:
                    self.dropped += 1

        return traced

    def begin_op(self, op):
        self.op += 1
        self._op_start = [self.calls.get(name, 0) for name in SWEEP_COUNTED] if op.windows else None

    def end_op(self, op):
        if self._op_start is not None:
            self.windows += op.windows
            for name, start in zip(SWEEP_COUNTED, self._op_start):
                self.sweep_calls[name] += self.calls.get(name, 0) - start

    def snapshot(self):
        return dict(self.calls), dict(self.self_s)

    def write_spans(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "parent", "op", "name", "start_us", "end_us"])
            t0 = self.spans[0][4] if self.spans else 0.0
            for span, parent, op, index, start, end in self.spans:
                out.writerow([span, parent, op, self.names[index],
                              f"{(start - t0) * 1e6:.1f}", f"{(end - t0) * 1e6:.1f}"])


def install(tracer):
    """Wrap the layer functions and rebind every reference; returns the
    patches that restore() undoes."""
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"fibquad.{layer}")
        for name, obj in vars(module).items():
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                    or (layer == "cli" and name not in CLI_TRACED)):
                continue
            wrappers[obj] = tracer.wrap(f"{layer}.{name}", obj)
    patches = []
    for module_name, module in list(sys.modules.items()):
        if module_name != "fibquad" and not module_name.startswith("fibquad."):
            continue
        for name, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                setattr(module, name, wrappers[value])
                patches.append((module, name, value))
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if isinstance(item, types.FunctionType) and item in wrappers:
                        value[key] = wrappers[item]
                        patches.append((value, key, item))
    return patches


def restore(patches):
    for target, key, original in reversed(patches):
        if isinstance(target, dict):
            target[key] = original
        else:
            setattr(target, key, original)


def layer_metrics(tracer, calls, self_s, ops):
    """Per-layer metrics from the timed ops' counts; errors cover the census too."""
    out = {}
    windows, sweep = tracer.windows, tracer.sweep_calls
    builds = sweep["families.build_f"] + sweep["families.build_g"]
    out["fibonacci.fib.calls_per_window"] = sweep["fibonacci.fib"] / windows if windows else 0.0
    out["families.builds_per_member"] = builds / (2 * windows) if windows else 0.0
    out["numeric.number_str.calls"] = calls.get("numeric.number_str", 0) / ops
    for name in SELF_MS:
        out[f"{name}.self_ms"] = self_s.get(name, 0.0) * 1e3 / ops
    for name in ERRORS:
        out[f"{name}.errors"] = tracer.errors.get(name, 0)
    return out


def _time_call(fn, args, budget):
    """Median seconds per call over five timed loops that together take
    about `budget` seconds."""
    n = 1
    while True:
        start = perf_counter()
        for _ in range(n):
            fn(*args)
        elapsed = perf_counter() - start
        if elapsed >= budget / 5 or n >= 1 << 20:
            break
        n *= 2
    per_call = []
    for _ in range(5):
        start = perf_counter()
        for _ in range(n):
            fn(*args)
        per_call.append((perf_counter() - start) / n)
    return statistics.median(per_call)


def probe_metrics(budget=0.02):
    """Per-call time of the key layer functions at windows 100, 1000 and 3000
    (flavor-f member), called untraced."""
    import fibquad.families as families
    import fibquad.fibonacci as fibonacci
    import fibquad.numeric as numeric
    import fibquad.oracle as oracle
    import fibquad.quadratic as quadratic

    out = {}
    for i in PROBE_SIZES:
        member = families.build_f(i)
        poly, roots = member.poly, member.closed_roots
        lo, hi = min(roots.x1, roots.x2), max(roots.x1, roots.x2)
        calls = {
            "families.build_f": (families.build_f, (i,)),
            "families.build_g": (families.build_g, (i,)),
            "quadratic.solve_quadratic": (quadratic.solve_quadratic, (poly,)),
            "quadratic.integrate": (quadratic.integrate, (poly, lo, hi)),
            "quadratic.integral_breakdown": (quadratic.integral_breakdown, (poly, lo, hi)),
            "oracle.simpson_exact": (oracle.simpson_exact, (poly, lo, hi)),
            "fibonacci.fib_window": (fibonacci.fib_window, (i,)),
            "numeric.number_str": (numeric.number_str, (poly.c,)),
        }
        for name in PROBES:
            fn, args = calls[name]
            out[f"probe.{name}.i{i}_us"] = _time_call(fn, args, budget) * 1e6
    return out
