import argparse
import csv
import io
import itertools
import json
import re
import shlex
import subprocess
import sys
import threading
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from fibquad import cli, families, svgplot
from fibquad.cli import FORMATS, main
from fibquad.numeric import number_str, parse_int, wire
from fibquad.quadratic import analyze


def run_cli(capsys, *argv):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_fib_basic(capsys):
    code, out, _ = run_cli(capsys, "fib", "--n", "4")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run_cli(capsys, "fib", "--n", "0")
    assert code == 0 and out.strip() == "0"


def test_fib_mod(capsys):
    code, out, _ = run_cli(capsys, "fib", "--n", "4000", "--mod", "3")
    assert code == 0 and out.strip() == "0"


@pytest.mark.parametrize("fmt", FORMATS)
def test_fib_mod_at_a_huge_index(capsys, fmt):
    # 10^18 is a multiple of 4 and F(4k) is divisible by 3
    code, out, _ = run_cli(capsys, "fib", "--n", "1000000000000000000", "--mod", "3", "--format", fmt)
    assert code == 0
    assert (out.strip() if fmt == "table" else records(out, fmt)[0]["value"]) == "0"


def test_fib_negative_index_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "fib", "--n", "-1")
    assert code == 2


def test_fib_bad_modulus_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "fib", "--n", "5", "--mod", "1")
    assert code == 2
    assert "error" in err


def test_fib_json_uses_decimal_strings(capsys):
    code, out, _ = run_cli(capsys, "fib", "--n", "300", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == str(222232244629420445529739893461909967206666939096499764990979600)


def test_cell_renders_text_none_bools_and_numbers():
    assert cli._cell("f") == "f"
    assert cli._cell(None) == ""
    assert cli._cell(True) == "True"
    assert cli._cell(12) == "12"
    assert cli._cell(Fraction(6, 3)) == "2"
    assert cli._cell(Fraction(-3, 2)) == "-3/2"
    assert cli._cell(-(10 ** 5000)) == number_str(-(10 ** 5000))


def test_triples_table(capsys):
    code, out, _ = run_cli(capsys, "triples", "--from", "1", "--to", "1")
    assert code == 0
    assert "3" in out and "4" in out and "5" in out and "True" in out


def test_triples_gcd_flag(capsys):
    code, out, _ = run_cli(capsys, "triples", "--from", "3", "--to", "3", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0] == {"i": "3", "leg_a": "16", "leg_b": "30", "hyp": "34",
                       "gcd": "2", "primitive": False}


def test_triples_scaled(capsys):
    code, out, _ = run_cli(capsys, "triples", "--from", "1", "--to", "1",
                           "--scale", "2", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert (rows[0]["leg_a"], rows[0]["leg_b"], rows[0]["hyp"]) == ("6", "8", "10")
    assert rows[0]["primitive"] is False


def test_triples_from_zero_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "triples", "--from", "0", "--to", "1")
    assert code == 2


def test_triples_reversed_range_is_usage_error(capsys):
    # rows print as they are made, so the range is checked before the first
    code, out, err = run_cli(capsys, "triples", "--from", "5", "--to", "2")
    assert code == 2 and out == "" and "error: --from 5 exceeds --to 2" in err


def test_triples_csv_has_header(capsys):
    code, out, _ = run_cli(capsys, "triples", "--from", "1", "--to", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["i", "leg_a", "leg_b", "hyp", "gcd", "primitive"]
    assert rows[1] == ["1", "3", "4", "5", "1", "True"]


def test_quad_build_report(capsys):
    code, out, _ = run_cli(capsys, "quad", "build", "--leg", "3", "--hyp", "5",
                           "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["roots"] == {"kind": "two-distinct", "x1": "-1", "x2": "-9"}
    assert d["integral_abs"] == "256"
    assert d["vertex_y"] == "-48"


def test_quad_build_negative_orientation(capsys):
    code, out, _ = run_cli(capsys, "quad", "build", "--leg", "3", "--hyp", "5",
                           "--neg", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["roots"] == {"kind": "two-distinct", "x1": "1", "x2": "9"}
    assert d["integral_signed"] == "256"


def test_quad_build_invalid_leg_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "quad", "build", "--leg", "2", "--hyp", "5")
    assert code == 2
    assert "perfect square" in err


def test_quad_analyze_irrational(capsys):
    code, out, _ = run_cli(capsys, "quad", "analyze", "--a", "1", "--b", "0",
                           "--c", "1", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["roots"]["kind"] == "irrational-or-complex"
    assert d["integral_signed"] is None
    assert d["breakdown"] is None


def test_quad_analyze_zero_lead_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "quad", "analyze", "--a", "0", "--b", "1", "--c", "1")
    assert code == 2


def test_family_row_n0(capsys):
    code, out, _ = run_cli(capsys, "family", "--n-max", "0", "--flavor", "f",
                           "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    row = rows[0]
    assert row["analysis"]["roots"] == {"kind": "two-distinct", "x1": "-1", "x2": "-9"}
    assert row["analysis"]["vertex_y"] == "-48"
    assert row["closed_form"] == "256"
    assert row["match"] is True


def test_family_g_row(capsys):
    code, out, _ = run_cli(capsys, "family", "--n-max", "0", "--flavor", "g",
                           "--format", "json")
    rows = json.loads(out)
    assert rows[0]["closed_form"] == "144"
    assert rows[0]["analysis"]["integral_abs"] == "144"
    assert rows[0]["analysis"]["vertex_y"] == "-36"


def test_family_third_row_integral(capsys):
    code, out, _ = run_cli(capsys, "family", "--n-max", "2", "--flavor", "f",
                           "--format", "json")
    rows = json.loads(out)
    assert rows[2]["analysis"]["integral_abs"] == "20736"
    assert all(r["match"] for r in rows)


@pytest.mark.parametrize("argv", [("--n-max", "-1"), ("--n-max", "1", "--flavor", "h")])
def test_family_usage_error_prints_nothing(capsys, argv):
    code, out, err = run_cli(capsys, "family", *argv)
    assert code == 2 and out == "" and "error" in err


def test_family_csv_header_prefix(capsys):
    code, out, _ = run_cli(capsys, "family", "--n-max", "1", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:9] == ["n", "a", "b", "c", "x1", "x2", "vx", "vy", "integral_abs"]
    assert all(row[-1] == "True" for row in rows[1:])


def test_verify_mod3(capsys):
    code, out, _ = run_cli(capsys, "verify", "mod3", "--max", "1000")
    assert code == 0
    assert "PASS" in out
    # --max sets the lemma sweep, and the window scan stops at its cap
    assert "(multiples 4n with n in 1..1000; windows 1..500)" in out


def test_verify_theorem3(capsys):
    code, out, _ = run_cli(capsys, "verify", "theorem3", "--max", "20")
    assert code == 0


def test_verify_all(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--max", "30")
    assert code == 0
    assert out.count("PASS") == 6


def test_verify_json_reports(capsys):
    code, out, _ = run_cli(capsys, "verify", "mod3", "--max", "100", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert reports[0]["claim"] == "mod3"
    assert reports[0]["status"] == "pass"
    assert reports[0]["counterexamples"] == []


def test_verify_unknown_claim_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "verify", "theorem9")
    assert code == 2


def test_verify_counterexample_exits_1_with_json(capsys, monkeypatch):
    # a claim returns raw values; verify prints them in wire form
    from fibquad import oracle

    huge = -(10 ** 5000) - 7

    def failing_claim(config):
        return "forced", [{"n": huge, "value": Fraction(-3, 2), "triple": (3, 4, 5),
                           "problem": "forced failure", "residue": None}]

    monkeypatch.setitem(oracle.CLAIMS, "mod3", failing_claim)
    code, out, _ = run_cli(capsys, "verify", "mod3")
    assert code == 1
    assert "FAIL" in out
    payload = json.loads(out.split("\n", 1)[1])
    assert list(payload[0]["counterexamples"][0].items()) == [
        ("n", number_str(huge)), ("value", "-3/2"), ("triple", ["3", "4", "5"]),
        ("problem", "forced failure"), ("residue", None)]


def test_verify_counterexample_without_wire_form_exits_3(capsys, monkeypatch):
    from fibquad import oracle

    monkeypatch.setitem(oracle.CLAIMS, "mod3", lambda config: ("forced", [{"n": 1, "value": 1.5}]))
    code, out, err = run_cli(capsys, "verify", "mod3")
    assert code == 3
    assert out == ""
    assert err == "internal error: TypeError: counterexample holds a float, which has no wire form\n"


def test_unexpected_exception_exits_3_not_1(capsys, monkeypatch):
    from fibquad import oracle

    def broken_claim(name, config=None):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(oracle, "run_claim", broken_claim)
    code, out, err = run_cli(capsys, "verify", "theorem3")
    assert code == 3
    assert out == ""
    assert err == "internal error: ZeroDivisionError: division by zero\n"


def test_keyboard_interrupt_is_not_swallowed(capsys, monkeypatch):
    from fibquad import oracle

    def interrupted(name, config=None):
        raise KeyboardInterrupt

    monkeypatch.setattr(oracle, "run_claim", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["verify", "theorem3"])


def test_verify_csv_has_header(capsys):
    code, out, _ = run_cli(capsys, "verify", "roots", "--max", "10", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["claim", "range", "status", "counterexamples", "elapsed"]


def test_plot_writes_structural_svg(tmp_path, capsys):
    out_path = tmp_path / "fig.svg"
    code, _, _ = run_cli(capsys, "plot", "--leg", "3", "--hyp", "5", "--neg",
                         "--out", str(out_path))
    assert code == 0
    svg = out_path.read_text()
    assert svg.startswith("<svg")
    assert "<polyline" in svg
    assert "<polygon" in svg
    assert svg.count("<line") >= 1
    assert "x1 = 1" in svg and "x2 = 9" in svg
    assert "vertex (5, 48)" in svg
    # 256 samples on the polyline
    polyline = svg.split("<polyline")[1].split('points="')[1].split('"')[0]
    assert len(polyline.split()) == 256


def test_plot_positive_orientation(tmp_path, capsys):
    out_path = tmp_path / "fig_pos.svg"
    code, _, _ = run_cli(capsys, "plot", "--leg", "4", "--hyp", "5", "--out", str(out_path))
    assert code == 0
    svg = out_path.read_text()
    assert "x1 = -2" in svg and "x2 = -8" in svg


def test_plot_invalid_triple_is_usage_error(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "plot", "--leg", "2", "--hyp", "5",
                         "--out", str(tmp_path / "x.svg"))
    assert code == 2


def test_plot_unwritable_path_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "x.svg"
    code, _, err = run_cli(capsys, "plot", "--leg", "3", "--hyp", "5", "--out", str(target))
    assert code == 2


def test_plot_json_metadata(tmp_path, capsys):
    out_path = tmp_path / "fig.svg"
    code, out, _ = run_cli(capsys, "plot", "--leg", "3", "--hyp", "5",
                           "--out", str(out_path), "--format", "json")
    assert code == 0
    meta = json.loads(out)
    assert meta["samples"] == "256"
    assert out_path.exists()


def test_plot_json_escapes_the_output_path(tmp_path, capsys):
    """A path json must escape prints as json.dumps prints it and reads back."""
    out_path = tmp_path / 'fig "q\\ü😀.svg'
    code, out, _ = run_cli(capsys, "plot", "--leg", "3", "--hyp", "5",
                           "--out", str(out_path), "--format", "json")
    assert code == 0 and out_path.exists()
    payload = {"out": str(out_path), "samples": str(svgplot.SAMPLES), "poly": {"a": "3", "b": "30", "c": "27"}}
    assert out == json.dumps(payload, indent=2) + "\n"
    assert json.loads(out) == payload


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "fibquad", "fib", "--n", "10"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "55"


def test_subprocess_exit_codes():
    bad = subprocess.run([sys.executable, "-m", "fibquad", "triples", "--from", "0", "--to", "1"],
                         capture_output=True, text=True)
    assert bad.returncode == 2


# Exact output of each command in each format, captured from the
# per-command emitters that preceded the shared one.
GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text(encoding="utf-8"))


def mask_elapsed(text):
    """Zero verify's wall-clock seconds in table, json and csv output."""
    text = re.sub(r'"elapsed": [0-9.e+-]+', '"elapsed": 0', text)
    text = re.sub(r"\[\d+\.\d{3}s\]", "[0.000s]", text)
    return re.sub(r",\d+\.\d{3}$", ",0.000", text, flags=re.M)


def golden_run(capsys, tmp_path, argv):
    """One golden case's code, stdout and stderr, masked as they are pinned."""
    out = str(tmp_path / "fig.svg")  # the pinned text reads {out}
    code, stdout, stderr = run_cli(capsys, *[out if a == "{out}" else a for a in argv.split()])
    return {"code": code, "stdout": mask_elapsed(stdout).replace(out, "{out}"), "stderr": stderr}


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_output_is_byte_exact(argv, tmp_path, capsys):
    assert golden_run(capsys, tmp_path, argv) == GOLDEN[argv]


def test_one_parser_serves_every_call_and_keeps_no_state(capsys, tmp_path, monkeypatch):
    """The parser is built on the first call only, and no call leaks into the
    next: the goldens replayed in reverse, with usage errors between them,
    print the pinned bytes (fib --n 3 --mod 2 runs just before fib --n 3)."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    usage_errors = ["fib --n x", "verify nope", "quad build --leg 5 --hyp 3"]
    for k, argv in enumerate(sorted(GOLDEN, reverse=True)):
        assert golden_run(capsys, tmp_path, argv) == GOLDEN[argv], argv
        if k % 5 == 0:
            code, out, err = run_cli(capsys, *usage_errors[k // 5 % 3].split())
            assert code == 2 and out == "" and "error" in err
    # 9 parsers (top level and 8 subcommands), each built once over 62 calls;
    # building per call would make 9 a call
    assert len(built) == len(set(built)) <= 9


# Usage and help as argparse prints them at COLUMNS=80 (Python 3.11's
# wording), pinned so that sharing one parser across calls cannot change them.
USAGE_GOLDEN = json.loads(Path(__file__).with_name("cli_usage_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", sorted(USAGE_GOLDEN), ids=lambda argv: argv or "(no arguments)")
def test_usage_and_help_are_byte_exact(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli(capsys, *argv.split())
    assert {"code": code, "stdout": out, "stderr": err} == USAGE_GOLDEN[argv]


def test_help_follows_columns_on_every_call(capsys, monkeypatch):
    helps = []
    for columns in ("60", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        helps.append(run_cli(capsys, "--help")[1])
    narrow, wide = [max(map(len, text.splitlines())) for text in helps]
    assert narrow <= 60 < wide


COUNT_PARSERS_AT_IMPORT = """
import argparse, sys
sys.path.insert(0, sys.argv[1])
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
import fibquad.cli
print(len(built))
fibquad.cli.build_parser()
print(len(built))
"""


def test_import_builds_no_parser():
    """Importing fibquad.cli builds no parser; the first main() call does.
    The bench's setup_s times that import in a fresh interpreter, as here."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-I", "-c", COUNT_PARSERS_AT_IMPORT, src],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    at_import, after_build = map(int, proc.stdout.split())
    assert at_import == 0 and after_build > 0


def test_import_loads_no_dataclasses_or_inspect():
    """Importing fibquad.cli leaves dataclasses and inspect unloaded, which
    would take more than half of the import, json and csv, which only
    some commands need and load when they print, and pickle and threading,
    which only a sweep split across processes loads. -S skips site, so no
    .pth file can load one of them first."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    check = ("import sys; sys.path.insert(0, sys.argv[1]); import fibquad.cli; "
             "print(sorted({'dataclasses', 'inspect', 'json', 'csv', 'pickle', 'threading'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", check, src],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("module", ["fibonacci", "quadratic"])
def test_import_loads_only_the_modules_it_reads(module):
    """The package root re-exports nothing, so importing one module loads
    only the root, that module and numeric, which both read."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    check = (f"import sys; sys.path.insert(0, sys.argv[1]); import fibquad.{module}; "
             "print(sorted(name for name in sys.modules if name.split('.')[0] == 'fibquad'))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", check, src],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{sorted(['fibquad', f'fibquad.{module}', 'fibquad.numeric'])}\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_lazy_format_from_a_fresh_interpreter_is_byte_exact(fmt):
    """json is imported only when a command prints JSON, for its string
    escaper, and csv never, so a cold run must print the golden bytes and
    leave csv unloaded, and json too unless it printed JSON."""
    argv = f"triples --from 1 --to 5 --format {fmt}"
    src = str(Path(cli.__file__).resolve().parent.parent)
    run = ("import sys; sys.path.insert(0, sys.argv[1]); from fibquad.cli import main; code = main(sys.argv[2:]); "
           "print(sorted({'csv', 'json'} & set(sys.modules)), file=sys.stderr); sys.exit(code)")
    proc = subprocess.run([sys.executable, "-I", "-c", run, src, *argv.split()], capture_output=True, timeout=120)
    loaded = [] if fmt == "csv" else ["json"]
    assert (proc.returncode, proc.stderr.decode()) == (0, f"{loaded}\n")
    assert proc.stdout.decode() == GOLDEN[argv]["stdout"]


@pytest.mark.parametrize("stderr", [subprocess.STDOUT, subprocess.PIPE], ids=["stderr-merged", "stderr-apart"])
def test_closed_pipe_exits_2_without_traceback(stderr):
    """`fibquad ... | head -c 10` is an output error, exit 2: never 1, which
    means a counterexample, and no traceback, whether or not stderr goes to
    the closed pipe too. The JSON runs past 64 KB, so a write must fail."""
    with subprocess.Popen([sys.executable, "-m", "fibquad", "family", "--n-max", "200", "--format", "json"],
                          stdout=subprocess.PIPE, stderr=stderr) as proc:
        assert proc.stdout.read(10) == b'[\n  {\n    '
        proc.stdout.close()
        err = b"" if proc.stderr is None else proc.stderr.read()
        assert proc.wait(timeout=120) == 2
    assert b"Traceback" not in err and b"Exception ignored" not in err


# Every `fibquad ...` line of the README's CLI block, comments stripped.
README_CLI = re.search(r"^## CLI\n\n```\n(.*?)^```",
                       Path(__file__).resolve().parent.parent.joinpath("README.md").read_text(encoding="utf-8"),
                       flags=re.M | re.S).group(1)
README_EXAMPLES = [shlex.split(line, comments=True)[1:] for line in README_CLI.splitlines()
                   if line.startswith("fibquad ")]


@pytest.mark.parametrize("argv", README_EXAMPLES, ids=" ".join)
def test_readme_cli_example_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # plot writes fig.svg to the working directory
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err


@pytest.mark.parametrize("text", ["1e5", "nan", "inf", "1.5", ""])
@pytest.mark.parametrize("argv", [("fib", "--n"), ("fib", "--n", "5", "--mod"),
                                  ("triples", "--from", "1", "--to"),
                                  ("quad", "analyze", "--b", "1", "--c", "1", "--a")])
def test_non_integer_argument_is_usage_error(capsys, argv, text):
    code, out, err = run_cli(capsys, *argv, text)
    assert code == 2 and out == "" and "invalid" in err
    assert f"invalid integer value: {text!r}" in err
    assert "_nonneg" not in err and "_positive" not in err and "parse_int" not in err


# --- numbers past the interpreter's 4300-digit int/str limit ----------------

def fib_pair(n):
    """(F(n), F(n+1)) by plain iteration, independent of the package."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a, b


def window_triple(i):
    t0, t1 = fib_pair(i)
    t2, t3 = t0 + t1, t0 + 2 * t1
    return t0 * t3, 2 * t1 * t2, t1 * t1 + t2 * t2


def parse_number(text):
    num, _, den = text.partition("/")
    return Fraction(parse_int(num), parse_int(den or "1"))


def records(out, fmt):
    """Column-layout output as a list of {column: text}."""
    if fmt == "json":
        payload = json.loads(out)
        return payload if isinstance(payload, list) else [payload]
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(out)))
    header, *rows = [line.split() for line in out.splitlines()]
    return [dict(zip(header, row)) for row in rows]


@pytest.mark.parametrize("fmt", FORMATS)
def test_fib_past_the_digit_limit(capsys, fmt):
    code, out, _ = run_cli(capsys, "fib", "--n", "30000", "--format", fmt)
    assert code == 0
    value = out.strip() if fmt == "table" else records(out, fmt)[0]["value"]
    assert len(value) > 6000 and parse_int(value) == fib_pair(30000)[0]


@pytest.mark.parametrize("fmt", FORMATS)
def test_triples_past_the_digit_limit(capsys, fmt):
    code, out, _ = run_cli(capsys, "triples", "--from", "10400", "--to", "10400", "--format", fmt)
    assert code == 0
    [row] = records(out, fmt)
    assert [parse_int(row[k]) for k in ("i", "leg_a", "leg_b", "hyp", "gcd")] == [10400, *window_triple(10400), 1]
    assert len(row["hyp"]) > 4300


def analysis_fields(out, fmt):
    if fmt == "json":
        d = json.loads(out)
        return {**d["poly"], **d["roots"], **d["breakdown"],
                **{k: d[k] for k in ("vertex_x", "vertex_y", "discriminant", "integral_signed", "integral_abs")}}
    if fmt == "csv":
        return records(out, fmt)[0]
    return dict(line.strip().split(": ", 1) for line in out.splitlines())


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("i", [2600, 10400])
def test_quad_build_past_the_digit_limit(capsys, i, fmt):
    # --neg builds the mirror -q(-x): a, c, the roots, the vertex, the
    # signed integral and its parts change sign, b and |integral| do not
    leg_a, leg_b, h = window_triple(i)
    for (l, o), (neg, s) in itertools.product(((leg_a, leg_b), (leg_b, leg_a)), (((), 1), (("--neg",), -1))):
        code, out, _ = run_cli(capsys, "quad", "build", "--leg", number_str(l), "--hyp", number_str(h),
                               *neg, "--format", fmt)
        assert code == 0
        got = analysis_fields(out, fmt)
        assert got.pop("kind") == "two-distinct"
        lo, hi = -h - o, -h + o
        want = {"a": s * l, "b": 2 * l * h, "c": s * l ** 3, "x1": s * hi, "x2": s * lo,
                "vertex_x": -s * h, "vertex_y": -s * l * o * o, "discriminant": (2 * l * o) ** 2,
                "integral_signed": Fraction(-4 * s * l * o ** 3, 3), "integral_abs": Fraction(4 * l * o ** 3, 3),
                "p1": Fraction(s * l * (hi ** 3 - lo ** 3), 3), "p2": s * l * h * (hi * hi - lo * lo),
                "p3": s * l ** 3 * (hi - lo)}
        assert {k: parse_number(v) for k, v in got.items()} == want
        assert len(got["integral_abs"]) > 4300


@pytest.mark.parametrize("i", [300, 3000])
def test_plot_past_the_float_range(capsys, tmp_path, i):
    leg, other, h = window_triple(i)
    out_path = tmp_path / "fig.svg"
    code, _, _ = run_cli(capsys, "plot", "--leg", number_str(leg), "--hyp", number_str(h),
                         "--out", str(out_path))
    assert code == 0
    svg = out_path.read_text()
    assert f"x1 = {number_str(-h + other)}<" in svg and f"x2 = {number_str(-h - other)}<" in svg
    assert f"vertex ({number_str(-h)}, {number_str(-leg * other * other)})" in svg


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_plot_coefficients_past_the_digit_limit(capsys, tmp_path, fmt):
    leg, _, h = window_triple(3600)  # c = leg^3 has 4514 digits
    for neg, s in (((), 1), (("--neg",), -1)):
        code, out, _ = run_cli(capsys, "plot", "--leg", number_str(leg), "--hyp", number_str(h), *neg,
                               "--out", str(tmp_path / "fig.svg"), "--format", fmt)
        assert code == 0
        [row] = records(out, fmt)
        coeffs = row["poly"] if fmt == "json" else row
        assert {k: parse_int(coeffs[k]) for k in "abc"} == {"a": s * leg, "b": 2 * leg * h, "c": s * leg ** 3}
        assert len(coeffs["c"]) == 4514 + (s < 0)
        assert row["samples"] == "256"


def test_plots_of_every_window_share_two_frames(capsys, tmp_path):
    # roots -h +- other lie at least 2 apart, so every CLI figure has w = 1
    # and differs from the others only in its orientation
    svgplot._frame.cache_clear()
    for i in range(1, 41):
        leg_a, leg_b, h = window_triple(i)
        for leg in (leg_a, leg_b):
            for neg in ((), ("--neg",)):
                code, _, _ = run_cli(capsys, "plot", "--leg", str(leg), "--hyp", str(h), *neg,
                                     "--out", str(tmp_path / "fig.svg"))
                assert code == 0
    info = svgplot._frame.cache_info()
    assert (info.misses, info.hits) == (2, 158)


def test_quad_build_error_names_huge_operands(capsys):
    leg, hyp = 7**6000, 7**6000 + 2
    code, out, err = run_cli(capsys, "quad", "build", "--leg", number_str(leg), "--hyp", number_str(hyp))
    assert code == 2 and out == ""
    assert "is not a perfect square" in err and "Exceeds the limit" not in err
    assert number_str(hyp * hyp - leg * leg) in err and f"hyp={number_str(hyp)})" in err
    code, _, err = run_cli(capsys, "quad", "build", "--leg", number_str(hyp), "--hyp", number_str(leg))
    assert code == 2 and f"need leg < hyp, got leg={number_str(hyp)}, hyp={number_str(leg)}" in err


def test_triples_range_error_names_huge_operands(capsys):
    start = 10**5000 + 1
    code, out, err = run_cli(capsys, "triples", "--from", number_str(start), "--to", "3")
    assert code == 2 and out == ""
    assert f"error: --from {number_str(start)} exceeds --to 3" in err


@pytest.mark.parametrize("argv", [("fib", "--n"), ("triples", "--from", "1", "--to")])
def test_range_argument_error_names_huge_operands(capsys, argv):
    value = -(10**5000)
    code, out, err = run_cli(capsys, *argv, number_str(value))
    assert code == 2 and out == "" and f"got {number_str(value)}" in err


# --- rows stream to stdout ----------------------------------------------------

# One row, and counts on each side of 256 and past 512, the batch edges of
# an earlier JSON writer; each array item now prints in a write of its own.
EDGE_COUNTS = [1, 255, 256, 257, 513]


def triples_reference(count):
    """triples --from 1 --to count as whole lists: JSON records and CSV lines."""
    header = ["i", "leg_a", "leg_b", "hyp", "gcd", "primitive"]
    rows = []
    for i in range(1, count + 1):
        sides = window_triple(i)
        g = gcd(*sides)
        rows.append([str(i), *map(str, sides), str(g), g == 1])
    return [dict(zip(header, row)) for row in rows], [header] + [[str(v) for v in row] for row in rows]


def family_reference(n_max, flavors):
    """family --n-max n_max as whole lists, built from the library and the
    per-row renderers: JSON records and CSV lines."""
    header = ["n", "a", "b", "c", "x1", "x2", "vx", "vy", "integral_abs", "flavor", "closed_form", "match"]
    records, lines = [], [header]
    for n in range(n_max + 1):
        t, pair = families.family_345(n)
        for flavor, q, _ in pair:
            if flavor not in flavors:
                continue
            r = analyze(q)
            closed = families.family_345_integral_abs(n, flavor)
            match = r.integral_abs == closed
            triple = dict(zip(cli.TRIPLE_COLUMNS, wire(cli._triple_row(t))))
            records.append({"n": str(n), "flavor": flavor, "triple": triple,
                            "analysis": cli._analysis_json(cli._analysis_row(r)), "closed_form": str(closed),
                            "match": match})
            lines.append([cli._cell(v) for v in (n, *r.poly, r.roots.x1, r.roots.x2, r.vertex_x, r.vertex_y,
                                                  r.integral_abs, flavor, closed, match)])
    return records, lines


def whole_csv(lines):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(lines)
    return buf.getvalue()


def family_args(count):
    """family arguments that make count rows: both flavors when count is even."""
    return (str(count // 2 - 1), "both") if count % 2 == 0 else (str(count - 1), "f")


@pytest.mark.parametrize("count", EDGE_COUNTS)
def test_triples_stream_prints_the_bytes_of_whole_lists(capsys, count):
    records, lines = triples_reference(count)
    for fmt, want in (("json", json.dumps(records, indent=2) + "\n"), ("csv", whole_csv(lines))):
        code, out, _ = run_cli(capsys, "triples", "--from", "1", "--to", str(count), "--format", fmt)
        assert code == 0 and out == want, fmt


@pytest.mark.parametrize("count", EDGE_COUNTS)
def test_family_stream_prints_the_bytes_of_whole_lists(capsys, count):
    n_max, flavor = family_args(count)
    records, lines = family_reference(int(n_max), ["f", "g"] if flavor == "both" else [flavor])
    assert len(records) == count
    for fmt, want in (("json", json.dumps(records, indent=2) + "\n"), ("csv", whole_csv(lines))):
        code, out, _ = run_cli(capsys, "family", "--n-max", n_max, "--flavor", flavor, "--format", fmt)
        assert code == 0 and out == want, fmt


def test_empty_json_array_prints_brackets(capsys):
    cli._emit("json", ["n"], iter([]), lambda: iter([]))
    assert capsys.readouterr().out == json.dumps([], indent=2) + "\n" == "[]\n"


# --- one writer for JSON and CSV text, with the stdlib as its oracle -----------

# ASCII, control characters, quotes and backslashes, non-ASCII and astral
# characters, and lone surrogates, which the C escaper writes as \ud800.
JSON_CHARS = st.one_of(st.characters(max_codepoint=0x7F), st.characters(min_codepoint=0x80),
                       st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\ud800", "\udfff", "\U0001F600"]))
JSON_VALUES = st.recursive(
    st.text(JSON_CHARS) | st.booleans() | st.none() | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(JSON_CHARS, max_size=6), inner, max_size=4),
    max_leaves=24)


@given(JSON_VALUES)
def test_json_text_is_the_bytes_of_json_dumps_at_every_depth(value):
    text = json.dumps(value, indent=2)  # raw newlines in it are layout only: strings escape theirs
    assert cli._json_text(value) == text
    assert cli._json_text(value, 1) == text.replace("\n", "\n  ")


@pytest.mark.parametrize("value", [1, Fraction(1, 2), {"n": [True, 7]}, (1, 2)],
                         ids=["int", "Fraction", "nested", "tuple"])
def test_json_text_rejects_what_wire_never_returns(value):
    with pytest.raises(TypeError):
        cli._json_text(value)


@given(st.lists(st.text(alphabet=',"\n\r\0\';\u00fc0123456789', max_size=8), min_size=2, max_size=6))
def test_csv_line_is_the_bytes_of_csv_writer(row):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(row)
    assert cli._csv_line(row) == buf.getvalue()


# The child reads its peak RSS as VmHWM, the high-water mark of its own
# address space. ru_maxrss would not do: exec keeps the peak of the process
# that started the child, and under pytest that alone read 38 MB.
PEAK_RSS = """
import sys
sys.path.insert(0, sys.argv[1])
from fibquad.cli import main
code = main(sys.argv[2:])
sys.stdout.flush()
with open("/proc/self/status") as status:
    [kb] = [line.split()[1] for line in status if line.startswith("VmHWM:")]
print(code, int(kb) / 1024, file=sys.stderr)
"""


def peak_rss_mb(*argv):
    """Exit code and peak RSS in MB of main(argv) in a fresh interpreter
    whose stdout is devnull."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-I", "-c", PEAK_RSS, src, *argv],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120)
    code, mb = proc.stderr.split()
    return int(code), float(mb)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="VmHWM is read from procfs")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_range_output_holds_bounded_memory(fmt):
    """4000 windows print in about 30 MB of CSV, and building them all
    before printing took 17 MB (csv) and 41 MB (json) more than one row."""
    code_one, one = peak_rss_mb("triples", "--from", "1", "--to", "1", "--format", fmt)
    code_many, many = peak_rss_mb("triples", "--from", "1", "--to", "4000", "--format", fmt)
    assert code_one == code_many == 0
    assert many - one <= 8, (one, many)


def test_closed_pipe_ends_a_long_range_early():
    """A reader that closes the pipe after 100 bytes stops the work: the
    command exits 2 well before it could have built every row. Building
    16000 rows before printing any took 19 s, so the watchdog kills a
    command that does not stop, and its memory never runs away."""
    bound = 10
    start = time.monotonic()
    with subprocess.Popen([sys.executable, "-m", "fibquad", "triples", "--from", "1", "--to", "16000",
                           "--format", "csv"], stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        watchdog = threading.Timer(bound, proc.kill)
        watchdog.start()
        try:
            head = proc.stdout.read(100)
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
    elapsed = time.monotonic() - start
    assert head.startswith(b"i,leg_a,leg_b,hyp,gcd,primitive\n1,3,4,5,1,True\n")
    assert (code, elapsed < bound) == (2, True), (code, elapsed)
    assert err.startswith(b"error: ") and b"Traceback" not in err
