"""Integer-root quadratics from Pythagorean triples and Fibonacci windows.

Everything is exact: arbitrary-precision integers, canonical rationals,
closed forms verified against independent oracles.
"""

from .families import (
    FLAVOR_F,
    FLAVOR_G,
    FamilyPoly,
    build_f,
    build_g,
    family_345,
    family_345_integral_abs,
    members,
)
from .fibonacci import (
    fib,
    fib_mod,
    fib_window,
    mod3_witness,
    windows,
)
from .numeric import number_str, parse_int
from .oracle import (
    PolyFault,
    SweepConfig,
    VerificationReport,
    enumerate_triples,
    run_all_claims,
    run_claim,
    simpson_exact,
)
from .quadratic import (
    DOUBLE,
    IRRATIONAL,
    NEGATIVE,
    POSITIVE,
    TWO_DISTINCT,
    AnalysisReport,
    QuadPoly,
    RootPair,
    analyze,
    build_quadratic,
    evaluate,
    integral_breakdown,
    integrate,
    solve_quadratic,
    vertex,
)
from .svgplot import render_quadratic_svg
from .triples import Triple, primitivity, scale, triple_from_window

__version__ = "0.1.0"
