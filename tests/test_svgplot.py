import hashlib

import pytest

from fibquad import svgplot
from fibquad.fibonacci import fib_window
from fibquad.quadratic import NEGATIVE, POSITIVE, QuadPoly, build_quadratic
from fibquad.svgplot import render_quadratic_svg
from fibquad.triples import triple_from_window


def window_poly(i, leg_name, orientation):
    t = triple_from_window(fib_window(i))
    return build_quadratic(getattr(t, leg_name), t.hyp, orientation)


# sha256 of the SVG text, captured from the renderer that sampled q in
# x units through exact rationals; drawing in root-span units moves no
# pixel of these figures.
PINNED = [
    (lambda: build_quadratic(3, 5, NEGATIVE), "9fca390a75e6f2ed244c4a39cea618fd78ed5f22b84e8512f6f2d8d0f70ecd06"),
    (lambda: build_quadratic(4, 5, POSITIVE), "9d5e4eaf56b26bf4535025b3373ed402d07d6965aa9aa04b754a3f9d9cde59cd"),
    (lambda: window_poly(20, "leg_b", POSITIVE), "8ce6bad5c14233ef66cd09449cbe8a16fefffe1779a4269d84db3a4e6e72eff9"),
    (lambda: window_poly(200, "leg_a", NEGATIVE), "f29e7ad2f9ff2cefdeff81ef128946f6d171c60f9056708ca1726c3275ad3075"),
    (lambda: QuadPoly(1, -2, 1), "a123463d9a1c505a09c246b2d37583e1e4bf41fbfb734e551e3bbbcfaa007687"),
    (lambda: QuadPoly(6, -5, 1), "61bd4d56176e8ccedcd96f42af64c4bbb192860afe924f4ee64899e754325599"),
    (lambda: QuadPoly(1, -2000001, 1000001000000), "a9983e10bfc05556bd29ae7fe6ecf888331e336589f71f6893be22d1df8255bd"),
    (lambda: QuadPoly(1, 0, -1), "22f1cafae0a053edf80e30ee4f79a9c79db6b75e076e1b6070269789c32488b6"),
    (lambda: QuadPoly(2, -1, -1), "508f981dc6c9ff9324f75c7fcd4af070d99ecf7eca7a57bae8dd7dcc74ca26cc"),
    (lambda: QuadPoly(-5, 0, 20), "58eda8b3b99b941d6a270fd54e3c7f13405ff662b3f2b7ed11babc6815552da9"),
    # a < 0 with w = 1/6 and with a double root (w = 0): a frame cache
    # keyed on the sign alone or on w alone draws one of these wrong
    (lambda: QuadPoly(-6, 5, -1), "99c914d7a06e1dd1fae8fa222c044231f56b2be887bdae33736db102d8d0339a"),
    (lambda: QuadPoly(-1, 2, -1), "a329a46c934cc90836df2a2d98fafef210c0b15ba4b8b5d2d43ef9904a0edbbd"),
]


def svg_digest(q):
    return hashlib.sha256(render_quadratic_svg(q).encode()).hexdigest()


@pytest.mark.parametrize("make, digest", PINNED)
def test_svg_bytes_are_pinned(make, digest):
    assert svg_digest(make()) == digest


def test_pinned_bytes_hold_cold_warm_and_in_reverse_order():
    # the frame is shared by every figure with one orientation and root
    # gap, so no order of renders may leak one figure into another
    svgplot._frame.cache_clear()
    for sweep in (PINNED, PINNED, PINNED[::-1]):
        assert [svg_digest(make()) for make, _ in sweep] == [digest for _, digest in sweep]


def test_frame_cache_stays_at_its_bound():
    # roots +-1/k lie less than 1 apart, so span = 1 and w = 2/k: 100 frames
    svgplot._frame.cache_clear()
    for k in range(3, 103):
        render_quadratic_svg(QuadPoly(k * k, 0, -1))
    info = svgplot._frame.cache_info()
    assert info.misses == 100
    assert info.currsize == info.maxsize < 100


def test_irrational_roots_are_rejected():
    with pytest.raises(ValueError, match="rational roots"):
        render_quadratic_svg(QuadPoly(1, 0, -2))
