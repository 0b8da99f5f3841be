"""Integer-root quadratics from Pythagorean triples and Fibonacci windows.

Everything is exact. The root re-exports nothing: import each name from
its module, as in ``from fibquad.families import members``.
"""

__version__ = "0.1.0"
