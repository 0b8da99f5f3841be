"""Self-checks of the benchmark at tiny sizes, so the harness cannot rot.

    python3 -m pytest -q bench
"""

import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _run(workload, trace, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7", "--seconds", "0.2",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = dict(tracing.PER_LAYER if trace else run.END_TO_END)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace and workload == "verify-deep":
        assert result["metrics"]["fibonacci.fib.calls_per_window"]["value"] == 16
        assert result["metrics"]["families.builds_per_member"]["value"] == 2.0


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = _run("verify-deep", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert "{" not in proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_op_repeats_within_a_stream(workload):
    blocks = itertools.islice(workloads.blocks(workload, 1, workloads.FULL, "out"), 50)
    keys = [op.argv or tuple(sorted(op.params.items())) for block in blocks for op in block
            if op.argv is None or op.argv[:2] != ("verify", "all")]
    assert len(set(keys)) == len(keys)


def test_tracing_restores_every_binding():
    import fibquad.cli  # noqa: F401  (loads every layer module)

    def bindings():
        return {(name, attr): value for name, mod in sys.modules.items()
                if name == "fibquad" or name.startswith("fibquad.")
                for attr, value in vars(mod).items() if callable(value)}

    import fibquad.oracle as oracle
    before, claims = bindings(), dict(oracle.CLAIMS)
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        assert oracle.families.build_f is not before[("fibquad.families", "build_f")]
        assert oracle.CLAIMS["theorem3"] is not claims["theorem3"]
        oracle.run_claim("theorem3", oracle.SweepConfig(theorem3_max=3))
    finally:
        tracing.restore(patches)
    assert bindings() == before and oracle.CLAIMS == claims
    assert tracer.calls["fibonacci.fib"] == 16 * 3
    assert tracer.calls["families.build_f"] + tracer.calls["families.build_g"] == 2 * 2 * 3


def test_int_str_limit_is_restored_after_checking():
    limit = sys.get_int_max_str_digits()
    with reference.unlimited_int_str():
        assert len(str(10 ** 5000)) == 5001
    assert sys.get_int_max_str_digits() == limit


def test_reference_values():
    fib = reference.fib_values(range(12))
    assert [fib[n] for n in range(12)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    assert all(reference.fib_mod(n, 7) == fib[n] % 7 for n in range(12))
    assert reference.window_triple(1, 1) == (3, 4, 5)
    flat = reference.analysis(3, 30, 27)  # leg 3 of (3, 4, 5)
    assert (flat["x1"], flat["x2"], flat["integral_abs"], flat["p1"]) == ("-1", "-9", "256", "728")
    assert reference.analysis(1, 0, 1)["kind"] == reference.IRRATIONAL
    assert reference.analysis(4, 4, 1)["x1"] == "-1/2"


def test_checks_reject_wrong_output():
    assert reference.check_fib("5\n", "table", 5, None, 5) is None
    assert reference.check_fib("6\n", "table", 5, None, 5) is not None
    rows = [(1, 3, 4, 5)]
    good = "i,leg_a,leg_b,hyp,gcd,primitive\n1,3,4,5,1,True\n"
    assert reference.check_triples(good, "csv", rows) is None
    assert reference.check_triples(good.replace("3,4", "3,5"), "csv", rows) is not None
    table = "PASS  theorem3   (windows 1..9, flavors f and g)  [0.001s]\n"
    assert reference.check_verify(table, "table", ("theorem3",), 9) is None
    assert reference.check_verify(table.replace("PASS", "FAIL"), "table", ("theorem3",), 9) is not None
    assert reference.check_verify(table, "table", ("theorem3",), 10) is not None
    report = {"status": "fail", "counterexamples": [{"i": "4", "flavor": "g"}]}
    assert reference.check_fault(report, "g", 4) is None
    assert reference.check_fault(report, "g", 5) is not None
    assert reference.check_fault({"status": "pass", "counterexamples": []}, "g", 4) is not None
