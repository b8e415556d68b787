"""The library's records are immutable values: equality, hashing, repr, pickling and validation."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from contextuality.classifier import GlobalDistributionCertificate, Tier, TierVerdict
from contextuality.dutchbook import ConvexityVerdict, DutchBookCertificate
from contextuality.errors import InternalConsistencyError
from contextuality.feasibility import FarkasCertificate, FeasibilityOutcome
from contextuality.model import CompatibilityFailure, CompatibilityReport
from contextuality.quantum import WeakHvReport
from contextuality.record import Failure
from contextuality.scenario import Scenario, Section
from contextuality.violations import (
    CoveredSupportEvent,
    ExtensionVerdict,
    MarginalizationFailure,
    ViolationKind,
    ViolationWitness,
)
from contextuality.wps import ExcisionReport, RepVerdict

SCENARIO = Scenario(("a", "b", "c"), (("a", "b"), ("b", "c")), ("0", "1"))
SECTION = Section(("a", "b"), ("0", "1"), SCENARIO)
FAILURE = CompatibilityFailure(("a", "b"), ("b", "c"), ("b",), Section(("b",), ("1",), SCENARIO),
                               Fraction(1, 2), Fraction(1, 3))

# Each class with its fields, in constructor order, as keyword arguments.
FIELDS = {
    Scenario: dict(measurements=("a", "b"), maximal_contexts=(("a", "b"),), outcomes=("0", "1")),
    Section: dict(domain=("a", "b"), values=("0", "1"), scenario=SCENARIO),
    FarkasCertificate: dict(coefficients=(Fraction(1), Fraction(-1, 2))),
    FeasibilityOutcome: dict(feasible=False, solution=None, certificate=FarkasCertificate((Fraction(1),))),
    GlobalDistributionCertificate: dict(rows=((("a", "b"), SECTION),), coefficients=(Fraction(-3, 4),)),
    TierVerdict: dict(tier=Tier.LOGICAL, logical_witness=SECTION, certificate=None, global_distribution=None),
    CompatibilityFailure: dict(first_context=("a", "b"), second_context=("b", "c"), overlap=("b",),
                               section=FAILURE.section, first_value=Fraction(1, 2), second_value=Fraction(1, 3)),
    CompatibilityReport: dict(ok=False, failures=(FAILURE,)),
    Failure: dict(condition="transfer-injectivity", detail="two sections share an image"),
    WeakHvReport: dict(ok=True, failures=()),
    DutchBookCertificate: dict(stakes=((3, Fraction(-1)), (12, Fraction(-1))), loss_bound=Fraction(1)),
    ConvexityVerdict: dict(strong_violation=False, logical_violation=True, probabilistic_violation=True,
                           convex_weights=None),
    MarginalizationFailure: dict(context=("a", "b"), section=SECTION, event=5, extension_kind="canonical",
                                 certificate=None),
    CoveredSupportEvent: dict(context=("a", "b"), section=SECTION, event=2),
    ViolationWitness: dict(kind=ViolationKind.SUBADDITIVITY, collection=(1, 6), defect=Fraction(1, 4),
                           support_data=None),
    ExtensionVerdict: dict(ok=False, failures=(Failure("monotonicity", "x"),)),
    RepVerdict: dict(ok=True, failures=(), warnings=(Failure("w", "x"),)),
    ExcisionReport: dict(d1=frozenset({1, 6}), d2=frozenset(), z=24),
}
# Section's repr leaves out the scenario.
REPR_FIELDS = {Section: ("domain", "values")}


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_records_are_immutable_values(cls):
    fields = FIELDS[cls]
    record = cls(**fields)
    rebuilt = cls(*fields.values())
    assert record == rebuilt and hash(record) == hash(rebuilt)
    assert all(getattr(record, name) == value for name, value in fields.items())

    # Another class with the same field values is never equal: a subclass, a
    # record class with the same field names, or the tuple of the values.
    twin = type(cls.__name__, (cls,), {"__slots__": ()})(**fields)
    siblings = [other(**fields) for other in FIELDS if other is not cls and FIELDS[other].keys() == fields.keys()]
    for other in [twin, *siblings, tuple(fields.values())]:
        assert record != other and other != record
    with pytest.raises(TypeError):
        iter(record)

    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == rebuilt

    for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(clone) is cls and clone == record and hash(clone) == hash(record)

    shown = REPR_FIELDS.get(cls, tuple(fields))
    assert repr(record) == f"{cls.__name__}(" + ", ".join(f"{name}={fields[name]!r}" for name in shown) + ")"


def test_section_equality_and_hash_ignore_the_scenario():
    other = Scenario(("a", "b"), (("a", "b"),), ("1", "0"))
    moved = Section(SECTION.domain, SECTION.values, other)
    assert moved == SECTION and hash(moved) == hash(SECTION)
    assert Section(("a", "b"), ("1", "1"), SCENARIO) != SECTION != Section(("a", "c"), ("0", "1"), SCENARIO)
    assert moved.scenario is other and pickle.loads(pickle.dumps(moved)).scenario == other


def test_defaults_are_none():
    assert TierVerdict(Tier.STRONG) == TierVerdict(Tier.STRONG, None, None, None)
    assert ViolationWitness(ViolationKind.SUBADDITIVITY, (1,), Fraction(1)).support_data is None
    assert ConvexityVerdict(False, False, False).convex_weights is None


def test_dict_fields_compare_but_do_not_hash():
    outcome = FeasibilityOutcome(True, {0: Fraction(1)}, None)
    assert outcome == FeasibilityOutcome(True, {0: Fraction(1)}, None) != FeasibilityOutcome(True, {1: Fraction(1)}, None)
    with pytest.raises(TypeError):
        hash(outcome)


@pytest.mark.parametrize("build, error, message", [
    (lambda: Section(("a", "b"), ("0",), SCENARIO), ValueError, "domain and values must align"),
    (lambda: DutchBookCertificate(((3, Fraction(-1)),), Fraction(0)), ValueError, "loss bound must be positive"),
    (lambda: DutchBookCertificate(((3, Fraction(-1)),), Fraction(-1)), ValueError, "loss bound must be positive"),
    (lambda: ConvexityVerdict(True, False, True), InternalConsistencyError, "strong convexity-violation without logical"),
    (lambda: ConvexityVerdict(False, True, False), InternalConsistencyError,
     "logical convexity-violation without probabilistic"),
], ids=["section-lengths", "zero-loss-bound", "negative-loss-bound", "strong-without-logical",
        "logical-without-probabilistic"])
def test_construction_checks_still_raise(build, error, message):
    with pytest.raises(error, match=message):
        build()
