"""Plain-integer reference values and output checks for benchmark ops.

Nothing here imports fibquad: Fibonacci terms come from iteration, window
triples from (t0*t3, 2*t1*t2, t1^2 + t2^2), quadratic roots from the
discriminant's integer square root, and the root-to-root integral from
the closed form -a*(hi - lo)^3 / 6. A bug in the program therefore cannot
confirm itself through the checker.

Each check returns None when the op's output is right and a one-line
description of the first mismatch otherwise.
"""

import csv
import io
import json
import math
import re
import sys
from contextlib import contextmanager

IRRATIONAL = "irrational-or-complex"
DOUBLE = "double"
TWO_DISTINCT = "two-distinct"

ANALYSIS_KEYS = ("a", "b", "c", "kind", "x1", "x2", "vertex_x", "vertex_y", "discriminant",
                 "integral_signed", "integral_abs", "p1", "p2", "p3")
FAMILY_COLUMNS = ("n", "a", "b", "c", "x1", "x2", "vx", "vy", "integral_abs",
                  "flavor", "closed_form", "match")
TRIPLE_COLUMNS = ("i", "leg_a", "leg_b", "hyp", "gcd", "primitive")

INT_STR_LIMIT_MESSAGE = "Exceeds the limit"


@contextmanager
def unlimited_int_str():
    """Lift the int/str digit cap for reference rendering, then restore it.

    Only the checker runs inside this block, so every timed op sees the
    interpreter's default cap.
    """
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def fib_values(indices):
    """{n: F(n)} for every requested n, from one iterative pass."""
    wanted = set(indices)
    values = {}
    a, b = 0, 1
    for n in range(max(wanted, default=-1) + 1):
        if n in wanted:
            values[n] = a
        a, b = b, a + b
    return values


def fib_mod(n, m):
    """F(n) mod m by fast doubling on residues."""
    a, b = 0, 1
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - a) % m, (a * a + b * b) % m
        if bit == "1":
            a, b = b, (a + b) % m
    return a


def window_triple(f0, f1):
    """Triple from the window starting with terms f0, f1."""
    t0, t1, t2, t3 = f0, f1, f0 + f1, f0 + 2 * f1
    return t0 * t3, 2 * t1 * t2, t1 * t1 + t2 * t2


def render(num, den=1):
    """Wire form of num/den: reduced, sign on the numerator, integers bare."""
    if den < 0:
        num, den = -num, -den
    g = math.gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def analysis(a, b, c):
    """Expected analysis fields of a*x^2 + b*x + c, keyed as ANALYSIS_KEYS."""
    disc = b * b - 4 * a * c
    out = {"a": str(a), "b": str(b), "c": str(c), "kind": IRRATIONAL, "x1": None, "x2": None,
           "vertex_x": render(-b, 2 * a), "vertex_y": render(4 * a * c - b * b, 4 * a),
           "discriminant": str(disc), "integral_signed": None, "integral_abs": None,
           "p1": None, "p2": None, "p3": None}
    r = math.isqrt(disc) if disc >= 0 else -1
    if r < 0 or r * r != disc:
        return out
    # Roots over the common positive denominator d: x1 = n1/d, x2 = n2/d.
    d, n1, n2 = 2 * a, -b + r, -b - r
    if d < 0:
        d, n1, n2 = -d, -n1, -n2
    lo, hi = min(n1, n2), max(n1, n2)
    signed = (-a * (hi - lo) ** 3, 6 * d ** 3)
    out.update(
        kind=DOUBLE if r == 0 else TWO_DISTINCT,
        x1=render(n1, d), x2=render(n2, d),
        integral_signed=render(*signed), integral_abs=render(abs(signed[0]), signed[1]),
        p1=render(a * (hi ** 3 - lo ** 3), 3 * d ** 3),
        p2=render(b * (hi * hi - lo * lo), 2 * d * d),
        p3=render(c * (hi - lo), d),
    )
    return out


def nested_analysis(flat):
    """The JSON shape of an analysis, from its flat fields."""
    return {
        "poly": {"a": flat["a"], "b": flat["b"], "c": flat["c"]},
        "roots": {"kind": flat["kind"], "x1": flat["x1"], "x2": flat["x2"]},
        "vertex_x": flat["vertex_x"], "vertex_y": flat["vertex_y"],
        "discriminant": flat["discriminant"],
        "integral_signed": flat["integral_signed"], "integral_abs": flat["integral_abs"],
        "breakdown": None if flat["p1"] is None else
        {"p1": flat["p1"], "p2": flat["p2"], "p3": flat["p3"]},
    }


def quad_coeffs(leg, hyp, neg):
    """Coefficients of the triple-built quadratic, or of its mirror."""
    if neg:
        return -leg, 2 * leg * hyp, -(leg ** 3)
    return leg, 2 * leg * hyp, leg ** 3


# --- parsing CLI output -------------------------------------------------------

def _csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


def _table_rows(text):
    return [line.split() for line in text.splitlines() if line.strip()]


def _rows(text, fmt):
    return _csv_rows(text) if fmt == "csv" else _table_rows(text)


def _compare(what, got, want):
    if got == want:
        return None
    if isinstance(got, str) and isinstance(want, str):
        got, want = got.splitlines(), want.splitlines()
    if isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        k = next(k for k, (g, w) in enumerate(zip(got, want)) if g != w)
        what, got, want = f"{what}, item {k}", got[k], want[k]
    return f"{what}: got {_clip(got)}, want {_clip(want)}"


def _clip(value):
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


def _check_tabular(text, fmt, header, rows):
    return _compare("rows", _rows(text, fmt), [list(header)] + [[str(v) for v in r] for r in rows])


# --- per-kind checks -------------------------------------------------------------

def check_fib(out, fmt, n, mod, value):
    if fmt == "json":
        return _compare("fib json", json.loads(out),
                        {"n": str(n), "mod": None if mod is None else str(mod), "value": str(value)})
    if fmt == "csv":
        return _check_tabular(out, fmt, ("n", "mod", "value"), [(n, "" if mod is None else mod, value)])
    return _compare("fib table", out, f"{value}\n")


def check_triples(out, fmt, rows):
    """rows: (i, leg_a, leg_b, hyp) already scaled."""
    full = []
    for i, x, y, z in rows:
        g = math.gcd(math.gcd(x, y), z)
        full.append((i, x, y, z, g, g == 1))
    if fmt == "json":
        want = [{"i": str(i), "leg_a": str(x), "leg_b": str(y), "hyp": str(z), "gcd": str(g),
                 "primitive": p} for i, x, y, z, g, p in full]
        return _compare("triples json", json.loads(out), want)
    return _check_tabular(out, fmt, TRIPLE_COLUMNS, full)


def check_analysis(out, fmt, coeffs):
    flat = analysis(*coeffs)
    if fmt == "json":
        return _compare("analysis json", json.loads(out), nested_analysis(flat))
    if fmt == "csv":
        return _check_tabular(out, fmt, ANALYSIS_KEYS,
                              [["" if flat[k] is None else flat[k] for k in ANALYSIS_KEYS]])
    want = "".join(f"{k:>16}: {'-' if flat[k] is None else flat[k]}\n" for k in ANALYSIS_KEYS)
    return _compare("analysis table", out, want)


def family_members(n_max, flavors):
    """(n, flavor, triple sides, coefficients, closed |integral|) per member
    of the (3, 4, 5) family scaled by n + 1."""
    for n in range(n_max + 1):
        k = n + 1
        for flavor in flavors:
            leg = 3 * k if flavor == "f" else 4 * k
            closed = (256 if flavor == "f" else 144) * k ** 4
            yield n, flavor, (3 * k, 4 * k, 5 * k), quad_coeffs(leg, 5 * k, False), closed


def check_family(out, fmt, n_max, flavors):
    members = list(family_members(n_max, flavors))
    if fmt == "json":
        want = []
        for n, flavor, (x, y, z), coeffs, closed in members:
            g = math.gcd(math.gcd(x, y), z)
            want.append({
                "n": str(n), "flavor": flavor,
                "triple": {"leg_a": str(x), "leg_b": str(y), "hyp": str(z), "gcd": str(g),
                           "primitive": g == 1},
                "analysis": nested_analysis(analysis(*coeffs)),
                "closed_form": str(closed), "match": True,
            })
        return _compare("family json", json.loads(out), want)
    rows = []
    for n, flavor, _, coeffs, closed in members:
        f = analysis(*coeffs)
        rows.append((n, f["a"], f["b"], f["c"], f["x1"], f["x2"], f["vertex_x"], f["vertex_y"],
                     f["integral_abs"], flavor, closed, True))
    return _check_tabular(out, fmt, FAMILY_COLUMNS, rows)


def check_plot(out, fmt, path, coeffs):
    """The echoed path and coefficients, then the exact labels in the SVG.
    The sample count is the plot's own choice and is not checked."""
    a, b, c = coeffs
    if fmt == "json":
        got = json.loads(out)
        got.pop("samples", None)
        problem = _compare("plot json", got, {"out": path, "poly": {"a": str(a), "b": str(b), "c": str(c)}})
    elif fmt == "csv":
        rows = _csv_rows(out)
        for row in rows:
            del row[1:2]  # samples
        problem = _compare("plot csv", rows, [["out", "a", "b", "c"], [path, str(a), str(b), str(c)]])
    else:
        problem = _compare("plot table", out, f"wrote {path}\n")
    if problem is not None:
        return problem
    with open(path, encoding="utf-8") as fh:
        svg = fh.read()
    f = analysis(a, b, c)
    for label in (f"x1 = {f['x1']}", f"x2 = {f['x2']}", f"vertex ({f['vertex_x']}, {f['vertex_y']})"):
        if label not in svg:
            return f"plot svg: missing label {_clip(label)}"
    if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")):
        return "plot svg: not a complete svg document"
    return None


def check_verify(out, fmt, claims, theorem3_bound):
    """Every named claim must report pass, and theorem3 must echo its bound."""
    if fmt == "json":
        reports = json.loads(out)
        got = [(r.get("claim"), r.get("status")) for r in reports]
        echoed = [json.dumps(r) for r in reports]
    else:
        rows = _csv_rows(out)[1:] if fmt == "csv" else _table_rows(out)
        if fmt == "csv":
            got = [(r[0], r[2]) for r in rows if len(r) > 2]
        else:
            got = [(r[1], r[0].lower()) for r in rows if len(r) > 1]
        echoed = [" ".join(r) for r in rows]
    problem = _compare("verify claims", got, [(name, "pass") for name in claims])
    if problem is None:
        theorem3 = echoed[claims.index("theorem3")]
        if not re.search(rf"\b1\.\.{theorem3_bound}\b", theorem3):
            return f"verify: theorem3 does not echo its bound 1..{theorem3_bound}"
    return problem


def check_fault(report_dict, flavor, index):
    """An injected fault must fail the sweep and be the only thing named."""
    if report_dict.get("status") != "fail":
        return f"fault at {flavor}/{index}: status {report_dict.get('status')!r}, want 'fail'"
    named = report_dict.get("counterexamples") or []
    if not named:
        return f"fault at {flavor}/{index}: no counterexample"
    for cx in named:
        if (cx.get("i"), cx.get("flavor")) != (str(index), flavor):
            return f"fault at {flavor}/{index}: counterexample names {cx.get('flavor')}/{cx.get('i')}"
    return None
