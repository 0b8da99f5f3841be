"""fibquad benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload verify-deep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from src/. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics; --trace 1
reruns the same ops with every layer function wrapped and reports the
per-layer metrics instead. See bench/README.md for the workloads.
"""

import argparse
import io
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

import reference
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"

END_TO_END = (("setup_s", "s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
              ("members_per_s", "1/s"), ("out_mb_per_s", "MB/s"), ("peak_rss_mb", "MB"))

# Fresh-interpreter imports per untraced run; setup_s takes their median.
# They are spread over the run, between blocks, because the host's speed
# drifts in phases of seconds, and a batch taken at one moment would catch
# a single phase.
IMPORTS = 21

# fibquad.cli loads every module a `fibquad` command loads.
IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import fibquad.cli; print(time.perf_counter() - t)")


@dataclass
class Outcome:
    """What one op returned: exit code and captured output, the exception
    that escaped, or the fault op's report."""

    seconds: float
    code: Optional[int] = None
    out: str = ""
    err: str = ""
    exc: Optional[BaseException] = None
    report: Optional[dict] = None


@dataclass(slots=True)
class Result:
    """What a run keeps of one op once its output has been checked: not the
    op itself, so that the benchmark's own memory barely grows with the
    number of ops and peak_rss_mb stays the program's."""

    members: int
    seconds: float
    out_bytes: int
    problem: Optional[str]


def load_program():
    """Import fibquad from this checkout's src/, or exit without a result."""
    if not (SRC / "fibquad" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'fibquad'} not found; run from the root of a fibquad checkout")
    sys.path.insert(0, str(SRC))
    import fibquad.cli
    import fibquad.oracle
    if Path(fibquad.__file__).resolve().parent != SRC / "fibquad":
        sys.exit(f"error: imported fibquad from {fibquad.__file__}, not from {SRC}")
    return fibquad.cli, fibquad.oracle


def time_import():
    """Seconds to import fibquad.cli in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-I", "-c", IMPORT_TIMER, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def start_stream(workload, seed, sizes, tmpdir):
    """This run's op stream, and the seconds taken to start it and draw its
    first block."""
    start = perf_counter()
    stream = workloads.blocks(workload, seed, sizes, tmpdir)
    first = next(stream)
    return itertools.chain([first], stream), perf_counter() - start


def execute(op, cli, oracle):
    """Run one op in process; cli and oracle are looked up at call time so
    that the traced run's wrappers apply."""
    if op.argv is None:
        p = op.params
        config = oracle.SweepConfig(theorem3_max=p["bound"], fault=oracle.PolyFault(
            p["flavor"], p["index"], p["coeff"], p["delta"]))
        start = perf_counter()
        try:
            report = oracle.run_claim("theorem3", config)
        except Exception as exc:  # a crash is a failed op, not a crashed benchmark
            return Outcome(perf_counter() - start, exc=exc)
        return Outcome(perf_counter() - start, code=0, report=report.to_dict())
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(op.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an uncaught exception is what a user would see as a crash
        return Outcome(perf_counter() - start, out=out.getvalue(), err=err.getvalue(), exc=exc)
    return Outcome(perf_counter() - start, code, out.getvalue(), err.getvalue())


def _expected_failure(defect, outcome):
    if defect == "plot-overflow":
        return isinstance(outcome.exc, OverflowError)
    return outcome.code == 2 and reference.INT_STR_LIMIT_MESSAGE in outcome.err


def check(op, outcome):
    """(problem or None, defect still open) for one op."""
    if outcome.exc is not None or outcome.code != 0:
        if op.defect is not None and _expected_failure(op.defect, outcome):
            return None, True
        what = (f"raised {type(outcome.exc).__name__}: {outcome.exc}" if outcome.exc is not None
                else f"exit {outcome.code}: {outcome.err.strip()[:200]}")
        return f"{op.kind} {' '.join(op.argv or ())[:120]}: {what}", False
    with reference.unlimited_int_str():
        return _check_output(op, outcome), False


def _check_output(op, outcome):
    p, out, fmt = op.params, outcome.out, op.fmt
    if op.kind == "verify":
        return reference.check_verify(out, fmt, p["claims"], p["theorem3_bound"])
    if op.kind == "fault":
        return reference.check_fault(outcome.report, p["flavor"], p["index"])
    if op.kind == "fib":
        n, mod = p["n"], p["mod"]
        value = reference.fib_values([n])[n] if mod is None else reference.fib_mod(n, mod)
        return reference.check_fib(out, fmt, n, mod, value)
    if op.kind == "triples":
        fib = reference.fib_values(range(p["lo"], p["hi"] + 2))
        k = p["scale"]
        rows = [(i, *(k * side for side in reference.window_triple(fib[i], fib[i + 1])))
                for i in range(p["lo"], p["hi"] + 1)]
        return reference.check_triples(out, fmt, rows)
    if op.kind == "family":
        return reference.check_family(out, fmt, p["n_max"], p["flavors"])
    if op.kind == "quad":
        return reference.check_analysis(out, fmt, p["coeffs"])
    if op.kind == "plot":
        try:
            return reference.check_plot(out, fmt, p["path"], p["coeffs"])
        finally:
            if os.path.exists(p["path"]):
                os.remove(p["path"])
    raise ValueError(f"unknown op kind {op.kind!r}")


def run_ops(stream, cli, oracle, seconds=None, n_blocks=None, tracer=None, imports=None):
    """Closed loop, one client: the stream's next blocks until `seconds` have
    passed or `n_blocks` blocks have run. Drawing and checking happen between
    ops, untimed. With `imports`, a timed run also appends IMPORTS import
    times to it, taken between blocks as the run goes."""
    results = []
    start = perf_counter()
    b = 0
    while True:
        for op in next(stream):
            if tracer is not None:
                tracer.begin_op(op)
            outcome = execute(op, cli, oracle)
            if tracer is not None:
                tracer.end_op(op)
            problem, _ = check(op, outcome)
            if problem is not None and sum(r.problem is not None for r in results) < 10:
                print(f"FAILED op {len(results) + 1}: {problem}", file=sys.stderr)
            # Outputs are dropped once checked, so they do not inflate peak RSS.
            results.append(Result(op.members, outcome.seconds, len(outcome.out.encode()), problem))
        b += 1
        while imports is not None and len(imports) < IMPORTS * min(1, (perf_counter() - start) / seconds):
            imports.append(time_import())
        if (n_blocks is not None and b >= n_blocks) or (
                n_blocks is None and perf_counter() - start >= seconds):
            return results, b


def run_census(ops, cli, oracle):
    """{defect class: "open" | "fixed" | "broken: ..."} for the census ops."""
    status = {}
    for op in ops:
        problem, still_open = check(op, execute(op, cli, oracle))
        status[op.defect] = f"broken: {problem}" if problem else ("open" if still_open else "fixed")
    return status


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(results, setup_s):
    ok = [r for r in results if r.problem is None]
    # A failed op counts as +inf in the percentiles; JSON gets the largest float.
    latencies = sorted(r.seconds * 1e3 if r.problem is None else math.inf for r in results)
    op_seconds = sum(r.seconds for r in results)
    return {
        "setup_s": setup_s,
        "op_p50_ms": min(nearest_rank(latencies, 0.5), sys.float_info.max),
        "op_p90_ms": min(nearest_rank(latencies, 0.9), sys.float_info.max),
        "members_per_s": sum(r.members for r in ok) / op_seconds,
        "out_mb_per_s": sum(r.out_bytes for r in ok) / op_seconds / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(stream, n_blocks, cli, oracle, census_ops, spans_path):
    """The stream's next `n_blocks` blocks with the layers wrapped; census
    ops also run wrapped so their escaping exceptions count."""
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        results, _ = run_ops(stream, cli, oracle, n_blocks=n_blocks, tracer=tracer)
        calls, self_s = tracer.snapshot()
        census = run_census(census_ops, cli, oracle)
    finally:
        tracing.restore(patches)
    tracer.write_spans(spans_path)
    return tracer, results, calls, self_s, census


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    cli, oracle = load_program()
    sizes = workloads.TINY if args.tiny else workloads.FULL
    OUT.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        stream, start_s = start_stream(args.workload, args.seed, sizes, tmpdir)
        imports = None if args.trace else [time_import()]
        census_ops = (workloads.census(args.seed, tmpdir, args.tiny)
                      if args.workload == "export-wire" else [])
        # The traced run spends half its time untraced, only to time the overhead
        # against as many fresh blocks traced.
        results, n_blocks = run_ops(stream, cli, oracle,
                                    seconds=args.seconds / 2 if args.trace else args.seconds,
                                    imports=imports)
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}-{args.seed}.csv"
            tracer, traced, calls, self_s, census = traced_run(
                stream, n_blocks, cli, oracle, census_ops, spans_path)
            metrics = tracing.layer_metrics(tracer, calls, self_s, len(traced))
            metrics.update(tracing.probe_metrics(0.002 if args.tiny else 0.02))
            metrics["trace_overhead_ratio"] = (sum(r.seconds for r in traced)
                                               / sum(r.seconds for r in results))
            results += traced
            units = dict(tracing.PER_LAYER)
            print(f"spans: {len(tracer.spans)} kept, {tracer.dropped} dropped, in {spans_path}")
        else:
            census = run_census(census_ops, cli, oracle)
            metrics = end_to_end(results, statistics.median(imports) + start_s)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    failed = sum(r.problem is not None for r in results)
    correct = failed == 0 and not any(s.startswith("broken") for s in census.values())
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(results)} ops in {n_blocks} "
          f"blocks, {failed} failed (failed_ratio {failed / len(results):.4f})")
    for name, state in census.items():
        print(f"  defect census {name}: {state}")
    for name, value in metrics.items():
        print(f"  {name:48} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": len(results), "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
