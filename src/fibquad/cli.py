"""Command line front end: term lookup, triple generation, quadratic
analysis, family tables, verification sweeps, and SVG figures.

Exit codes: 0 success (all claims pass), 1 verification counterexample,
2 usage, input or output error (a closed pipe among them), 3 internal error
(an unexpected exception). Every subcommand takes --format json|csv|table
and prints through one emitter, _emit, the only code that writes to
stdout. csv and json print each row as it is made, so a range command
(triples, family) holds one row at a time, and a closed pipe stops the
work as well as the output. Rows printed before a closed pipe or a later
error stay printed; every check of the arguments runs before the first
row. Numbers of any length are emitted and accepted as exact decimal
strings, rationals as "num/den". _json_text and _csv_line print the bytes
of the json and csv writers: csv is never imported, and json only for its
string escaper, when a command prints JSON.

main(argv) may be called any number of times in one process: it returns the
exit code, and it builds its parser on the first call and reuses it after.
Usage errors and --help raise SystemExit, as argparse does.
"""

import argparse
import functools
import os
import sys
from typing import Callable, Iterable, List, Optional

from . import families, oracle
from .fibonacci import fib, fib_mod, windows
from .numeric import number_str, parse_int, wire
from .quadratic import NEGATIVE, POSITIVE, QuadPoly, analyze, build_quadratic
from .svgplot import SAMPLES, render_quadratic_svg
from .triples import primitivity, scale, triple_from_window

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

FORMATS = ("table", "json", "csv")

TRIPLE_COLUMNS = ["leg_a", "leg_b", "hyp", "gcd", "primitive"]

ANALYSIS_COLUMNS = ["a", "b", "c", "kind", "x1", "x2", "vertex_x", "vertex_y", "discriminant",
                    "integral_signed", "integral_abs", "p1", "p2", "p3"]


def _integer(text: str) -> int:
    """Any integer; argparse prints the message of a rejected one."""
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer value: {text!r}") from None


def _nonneg(text: str) -> int:
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {number_str(value)}")
    return value


def _positive(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {number_str(value)}")
    return value


def _cell(value) -> str:
    """Text of one CSV or table cell; None is an empty cell. Text is
    tested by its concrete type, which is cheaper than asking whether it
    is a Fraction."""
    if value is None:
        return ""
    return value if type(value) is str else number_str(value)


def _triple_row(t) -> list:
    is_primitive, g = primitivity(t)
    return [*t, g, is_primitive]


def _analysis_row(r) -> list:
    return [*r.poly, r.roots.kind, r.roots.x1, r.roots.x2, r.vertex_x, r.vertex_y,
            r.discriminant, r.integral_signed, r.integral_abs, *(r.breakdown or [None] * 3)]


def _analysis_json(row: list) -> dict:
    """An analysis row as JSON, which nests the coefficients, the roots and
    the integral's parts; the parts are null when the roots are irrational.
    Unpacked by name, as a loop over groups costs several times as much."""
    a, b, c, kind, x1, x2, vx, vy, disc, signed, absolute, p1, p2, p3 = wire(row)
    return {"poly": {"a": a, "b": b, "c": c}, "roots": {"kind": kind, "x1": x1, "x2": x2},
            "vertex_x": vx, "vertex_y": vy, "discriminant": disc, "integral_signed": signed,
            "integral_abs": absolute, "breakdown": None if p1 is None else {"p1": p1, "p2": p2, "p3": p3}}


def _json_text(value, depth: int = 0) -> str:
    """value as the json module's dumps(value, indent=2) prints it, nested
    depth levels deep (an array item is at depth 1). value holds what
    numeric.wire returns, str, bool, None, lists and dicts with str keys,
    and finite floats, printed as their repr; any other type raises
    TypeError. Strings go through the C escaper dumps uses; with indent
    set, dumps encodes the rest in pure Python, at about twice this cost."""
    from json.encoder import encode_basestring_ascii as quote
    parts = []
    add = parts.append

    def put(value, pad):
        kind = type(value)
        if kind is str:
            add(quote(value))
        elif kind is dict:
            inner = pad + "  "
            sep, comma = "{" + inner, "," + inner
            for key, item in value.items():
                if type(item) is str:  # most values: one append, no call
                    add(sep + quote(key) + ": " + quote(item))
                else:
                    add(sep + quote(key) + ": ")
                    put(item, inner)
                sep = comma
            add(pad + "}" if value else "{}")
        elif kind is list:
            inner = pad + "  "
            sep, comma = "[" + inner, "," + inner
            for item in value:
                add(sep)
                put(item, inner)
                sep = comma
            add(pad + "]" if value else "[]")
        elif kind is float:
            add(repr(value))
        elif value is None or kind is bool:
            add("null" if value is None else "true" if value else "false")
        else:
            raise TypeError(f"{kind.__name__} has no JSON text")

    put(value, "\n" + "  " * depth)
    return "".join(parts)


def _csv_line(cells: List[str]) -> str:
    """cells, two or more, as one csv.writer(lineterminator="\n") line: a
    cell holding a comma, a quote or a newline is quoted, its quotes
    doubled; as in Python 3.11, a carriage return alone does not quote it."""
    return ",".join(['"' + cell.replace('"', '""') + '"' if "," in cell or '"' in cell or "\n" in cell
                     else cell for cell in cells]) + "\n"


def _emit(fmt: str, header: List[str], rows: Iterable[list], payload: Callable[[], object],
          table: Optional[Callable[[], str]] = None) -> None:
    """Print one command's result in fmt, building only what fmt prints.

    json prints payload(), which a command builds from its raw rows
    through numeric.wire, the one renderer of every JSON payload, as
    _json_text writes it: a dict whole, any other iterable as an array
    whose items print one write each, at depth 1. csv prints header, then
    each of rows as it comes, one _csv_line each. table prints table() for
    a command with its own layout, else header and rows as left-aligned
    columns, which holds every row, since the widths come first. rows and
    the items of payload() are iterated once and may share one iterator.
    """
    write = sys.stdout.write
    if fmt == "json":
        data = payload()
        if isinstance(data, dict):
            write(_json_text(data) + "\n")
            return
        sep = "["
        for item in data:
            write(sep + "\n  " + _json_text(item, 1))
            sep = ","
        write("[]\n" if sep == "[" else "\n]\n")
    elif fmt == "csv":
        write(_csv_line(header))
        for row in rows:
            write(_csv_line([_cell(v) for v in row]))
    elif table is not None:
        print(table())
    else:
        lines = [header] + [[_cell(v) for v in row] for row in rows]
        widths = [max(map(len, column)) for column in zip(*lines)]
        for line in lines:
            print("  ".join(v.ljust(w) for v, w in zip(line, widths)))


def cmd_fib(args) -> int:
    value = fib(args.n) if args.mod is None else fib_mod(args.n, args.mod)
    header, row = ["n", "mod", "value"], [args.n, args.mod, value]
    _emit(args.format, header, [row], lambda: dict(zip(header, wire(row))), lambda: number_str(value))
    return EXIT_OK


def cmd_triples(args) -> int:
    if args.i_from > args.i_to:
        raise ValueError(f"--from {number_str(args.i_from)} exceeds --to {number_str(args.i_to)}")
    header = ["i", *TRIPLE_COLUMNS]
    rows = ([i, *_triple_row(scale(t, args.scale) if args.scale > 1 else t)]
            for i, t in enumerate(map(triple_from_window, windows(args.i_from, args.i_to)), args.i_from))
    _emit(args.format, header, rows, lambda: (dict(zip(header, wire(row))) for row in rows))
    return EXIT_OK


def _leg_quadratic(args) -> QuadPoly:
    """The quadratic of --leg and --hyp, mirrored under --neg."""
    return build_quadratic(args.leg, args.hyp, NEGATIVE if args.neg else POSITIVE)


def cmd_quad(args) -> int:
    q = _leg_quadratic(args) if args.quad_cmd == "build" else QuadPoly(args.a, args.b, args.c)
    row = _analysis_row(analyze(q))
    _emit(args.format, ANALYSIS_COLUMNS, [row], lambda: _analysis_json(row),
          lambda: "\n".join(f"{key:>16}: {'-' if v is None else _cell(v)}"
                            for key, v in zip(ANALYSIS_COLUMNS, row)))
    return EXIT_OK


def cmd_family(args) -> int:
    def members():
        for n in range(0, args.n_max + 1):
            t, pair = families.family_345(n)
            for flavor, q, _ in pair:
                if args.flavor in ("both", flavor):
                    r = analyze(q)
                    closed = families.family_345_integral_abs(n, flavor)
                    yield n, flavor, t, r, closed, r.integral_abs == closed

    made = members()
    _emit(args.format,
          ["n", "a", "b", "c", "x1", "x2", "vx", "vy", "integral_abs", "flavor", "closed_form", "match"],
          ([n, *r.poly, r.roots.x1, r.roots.x2, r.vertex_x, r.vertex_y, r.integral_abs, flavor, closed, match]
           for n, flavor, t, r, closed, match in made),
          lambda: ({"n": wire(n), "flavor": flavor, "triple": dict(zip(TRIPLE_COLUMNS, wire(_triple_row(t)))),
                    "analysis": _analysis_json(_analysis_row(r)), "closed_form": wire(closed),
                    "match": match}
                   for n, flavor, t, r, closed, match in made))
    return EXIT_OK


def cmd_verify(args) -> int:
    config = oracle.SweepConfig() if args.max is None else oracle.SweepConfig.uniform(args.max)
    names = None if args.claim == "all" else [args.claim]
    reports = oracle.run_all_claims(config, names)
    failed = [r for r in reports if not r.passed]

    def table():
        lines = [f"{r.status.upper():4}  {r.claim_id:10} ({r.range})  [{r.elapsed:.3f}s]" for r in reports]
        if failed:
            lines.append(_json_text([r.to_dict() for r in failed]))
        return "\n".join(lines)

    _emit(args.format, ["claim", "range", "status", "counterexamples", "elapsed"],
          ([r.claim_id, r.range, r.status, len(r.counterexamples), f"{r.elapsed:.3f}"] for r in reports),
          lambda: (r.to_dict() for r in reports), table)
    return EXIT_COUNTEREXAMPLE if failed else EXIT_OK


def cmd_plot(args) -> int:
    q = _leg_quadratic(args)
    svg = render_quadratic_svg(q)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    row = [args.out, SAMPLES, *q]

    def payload():
        out, samples, a, b, c = wire(row)
        return {"out": out, "samples": samples, "poly": {"a": a, "b": b, "c": c}}

    _emit(args.format, ["out", "samples", "a", "b", "c"], [row], payload, lambda: f"wrote {args.out}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built on the first call and shared by every later one. Parsing never
    changes the parser, and help is laid out when printed, so COLUMNS still
    applies."""
    parser = argparse.ArgumentParser(
        prog="fibquad",
        description="Integer-root quadratics from Pythagorean triples and "
                    "Fibonacci windows, with exact arithmetic throughout.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=FORMATS, default="table",
                       help="output format (default: table)")

    def add_leg(p):
        """The options _leg_quadratic reads."""
        p.add_argument("--leg", type=_positive, required=True)
        p.add_argument("--hyp", type=_positive, required=True)
        p.add_argument("--neg", action="store_true", help="mirror orientation -q(-x)")

    p = sub.add_parser("fib", help="Fibonacci term, optionally reduced modulo m")
    p.add_argument("--n", type=_nonneg, required=True, help="term index (>= 0)")
    p.add_argument("--mod", type=_integer, default=None, help="modulus (>= 2)")
    add_format(p)
    p.set_defaults(func=cmd_fib)

    p = sub.add_parser("triples", help="triples generated from Fibonacci windows")
    p.add_argument("--from", dest="i_from", type=_positive, required=True,
                   help="first window index (>= 1)")
    p.add_argument("--to", dest="i_to", type=_positive, required=True,
                   help="last window index")
    p.add_argument("--scale", type=_positive, default=1, help="scale factor (>= 1)")
    add_format(p)
    p.set_defaults(func=cmd_triples)

    p = sub.add_parser("quad", help="build or analyze a quadratic")
    quad_sub = p.add_subparsers(dest="quad_cmd", required=True)
    pb = quad_sub.add_parser("build", help="build from a triple leg and hypotenuse")
    add_leg(pb)
    add_format(pb)
    pb.set_defaults(func=cmd_quad)
    pa = quad_sub.add_parser("analyze", help="analyze raw coefficients")
    pa.add_argument("--a", type=_integer, required=True)
    pa.add_argument("--b", type=_integer, required=True)
    pa.add_argument("--c", type=_integer, required=True)
    add_format(pa)
    pa.set_defaults(func=cmd_quad)

    p = sub.add_parser("family", help="scaled (3,4,5) family table")
    p.add_argument("--n-max", dest="n_max", type=_nonneg, required=True)
    p.add_argument("--flavor", choices=(families.FLAVOR_F, families.FLAVOR_G, "both"),
                   default="both")
    add_format(p)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("verify", help="run verification sweeps")
    p.add_argument("claim", choices=("all", *oracle.CLAIMS))
    p.add_argument("--max", type=_positive, default=None,
                   help="set every sweep bound of the selected claims; the mod3 window "
                        f"scan stays at {oracle.WITNESS_MAX} or below")
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("plot", help="write an SVG figure of a built quadratic")
    add_leg(p)
    p.add_argument("--out", required=True, help="output SVG path")
    add_format(p)
    p.set_defaults(func=cmd_plot)

    return parser


def _discard(stream) -> None:
    """Point a stream whose reader closed the pipe at devnull, so that neither
    a later write nor the flush at exit raises again (the Python docs' note
    on SIGPIPE)."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _fail(code: int, message: str) -> int:
    """Print message to stderr and return code; a closed stderr only drops the message."""
    try:
        print(message, file=sys.stderr, flush=True)
    except BrokenPipeError:
        _discard(sys.stderr)
    return code


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except (ValueError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):
            _discard(sys.stdout)
        return _fail(EXIT_USAGE, f"error: {exc}")
    except Exception as exc:  # a bug, never a counterexample; Ctrl-C still propagates
        return _fail(EXIT_INTERNAL, f"internal error: {type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
