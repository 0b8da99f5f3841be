"""The contract every value type keeps: construction by position or by
keyword, the repr, equality and hashing by value, fields that cannot be
assigned, a pickle round trip, and constructor checks on every way the
type offers to build a value (the constructor, _make and _replace;
unpickling and copy rebuild through the constructor from a value that
passed them)."""

import copy
import pickle
from fractions import Fraction

import pytest

from fibquad.families import FamilyPoly, build_f
from fibquad.oracle import PolyFault, SweepConfig, VerificationReport
from fibquad.quadratic import IRRATIONAL, TWO_DISTINCT, AnalysisReport, QuadPoly, RootPair, analyze
from fibquad.triples import Triple


def root_pair():
    return dict(x1=Fraction(-1), x2=Fraction(-9), kind=TWO_DISTINCT)


# Per type, a function that builds a fresh set of field values, in field
# order, and the repr of the value they make, as the earlier dataclass
# types printed it.
CASES = {
    QuadPoly: (lambda: dict(a=1, b=2, c=3), "QuadPoly(a=1, b=2, c=3)"),
    RootPair: (root_pair, "RootPair(x1=Fraction(-1, 1), x2=Fraction(-9, 1), kind='two-distinct')"),
    AnalysisReport: (
        lambda: dict(poly=QuadPoly(1, 0, 1), roots=RootPair(None, None, IRRATIONAL), vertex_x=Fraction(0),
                     vertex_y=Fraction(1), discriminant=-4, integral_signed=None, integral_abs=None,
                     breakdown=None),
        "AnalysisReport(poly=QuadPoly(a=1, b=0, c=1), roots=RootPair(x1=None, x2=None, "
        "kind='irrational-or-complex'), vertex_x=Fraction(0, 1), vertex_y=Fraction(1, 1), discriminant=-4, "
        "integral_signed=None, integral_abs=None, breakdown=None)"),
    FamilyPoly: (
        lambda: dict(flavor="f", poly=QuadPoly(3, 30, 27), closed_roots=RootPair(**root_pair())),
        "FamilyPoly(flavor='f', poly=QuadPoly(a=3, b=30, c=27), closed_roots=RootPair(x1=Fraction(-1, 1), "
        "x2=Fraction(-9, 1), kind='two-distinct'))"),
    Triple: (lambda: dict(leg_a=3, leg_b=4, hyp=5), "Triple(leg_a=3, leg_b=4, hyp=5)"),
    VerificationReport: (
        lambda: dict(claim_id="mod3", range="forced", counterexamples=[{"n": "1"}], elapsed=0.5),
        "VerificationReport(claim_id='mod3', range='forced', counterexamples=[{'n': '1'}], elapsed=0.5)"),
    PolyFault: (lambda: dict(flavor="f", index=3, coeff="b", delta=2),
                "PolyFault(flavor='f', index=3, coeff='b', delta=2)"),
    SweepConfig: (
        lambda: dict(triples_max=200, scale_max=50, roots_max=100, family_max=1000, mod3_max=10_000,
                     theorem3_max=20, fault=PolyFault("g", 5, "a")),
        "SweepConfig(triples_max=200, scale_max=50, roots_max=100, family_max=1000, mod3_max=10000, "
        "theorem3_max=20, fault=PolyFault(flavor='g', index=5, coeff='a', delta=1))"),
}

# Per type, a field change that makes another valid value.
CHANGES = {QuadPoly: {"c": 4}, RootPair: {"x2": Fraction(-8)}, AnalysisReport: {"discriminant": -3},
           FamilyPoly: {"flavor": "g"}, Triple: {"leg_a": 4, "leg_b": 3}, VerificationReport: {"elapsed": 0.25},
           PolyFault: {"delta": 3}, SweepConfig: {"scale_max": 7}}

TYPES = pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)


def sample(cls):
    return cls(**CASES[cls][0]())


@TYPES
def test_positional_and_keyword_construction_agree(cls):
    fields = CASES[cls][0]()
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    assert type(by_position) is cls and by_position == by_keyword
    assert cls._fields == tuple(fields)
    assert {name: getattr(by_keyword, name) for name in fields} == fields


@TYPES
def test_repr_is_unchanged(cls):
    assert repr(sample(cls)) == CASES[cls][1]


def test_samples_are_what_the_library_builds():
    assert analyze(QuadPoly(1, 0, 1)) == sample(AnalysisReport)
    assert build_f(1) == sample(FamilyPoly)


@TYPES
def test_equal_and_hashed_by_value(cls):
    first, second = sample(cls), sample(cls)
    assert first is not second and first == second and not first != second
    other = first._replace(**CHANGES[cls])
    assert type(other) is cls and other != first and not other == first
    if cls is VerificationReport:  # its counterexample list is unhashable, as it always was
        with pytest.raises(TypeError, match="unhashable"):
            hash(first)
    else:
        assert hash(first) == hash(second)
        assert len({first, second, other}) == 2


@TYPES
def test_fields_cannot_be_assigned(cls):
    value = sample(cls)
    for name in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    assert value == sample(cls)


@TYPES
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(cls, protocol):
    value = sample(cls)
    again = pickle.loads(pickle.dumps(value, protocol))
    assert type(again) is cls and again == value and repr(again) == repr(value)


@TYPES
def test_make_replace_and_copy_rebuild_the_type(cls):
    value = sample(cls)
    for again in (cls._make(tuple(value)), value._replace(), copy.copy(value), copy.deepcopy(value)):
        assert type(again) is cls and again == value


# Per checked type, field changes its constructor rejects, and the message.
INVALID = [
    (QuadPoly, {"a": 0}, "leading coefficient must be nonzero"),
    (Triple, {"hyp": 6}, r"not a Pythagorean triple: \(3, 4, 6\)"),
    (Triple, {"leg_a": 0}, r"triple sides must be positive: \(0, 4, 5\)"),
    (PolyFault, {"flavor": "h"}, "fault flavor must be 'f' or 'g'"),
    (PolyFault, {"coeff": "d"}, "fault coeff must be 'a', 'b', or 'c'"),
    (PolyFault, {"index": 0}, "fault index must be >= 1"),
    (PolyFault, {"delta": 0}, "fault delta must be nonzero"),
    (SweepConfig, {"mod3_max": 0}, "mod3_max must be >= 1"),
    (SweepConfig, {"theorem3_max": 4}, "fault index 5 exceeds theorem3_max"),
    (SweepConfig, {"fault": PolyFault("f", 1, "a", -3)}, "fault f/1 zeroes the leading coefficient"),
]


@pytest.mark.parametrize("cls, change, message", INVALID,
                         ids=[f"{cls.__name__}-{next(iter(change))}" for cls, change, _ in INVALID])
def test_every_construction_path_checks(cls, change, message):
    bad = {**CASES[cls][0](), **change}
    valid = sample(cls)
    paths = {
        "keyword": lambda: cls(**bad),
        "position": lambda: cls(*bad.values()),
        "_make": lambda: cls._make(bad.values()),
        "_replace": lambda: valid._replace(**change),
    }
    for path, build in paths.items():
        with pytest.raises(ValueError, match=message):
            build()
            pytest.fail(f"{path} built an invalid {cls.__name__}")


def test_report_default_counterexamples_are_not_shared():
    first, second = VerificationReport("mod3", "forced"), VerificationReport("mod3", "forced")
    first.counterexamples.append({"n": "1"})
    assert second.counterexamples == [] and VerificationReport("a", "b").counterexamples == []
    assert second.passed and not first.passed
    assert second.to_dict() == {"claim": "mod3", "range": "forced", "status": "pass",
                                "counterexamples": [], "elapsed": 0.0}
