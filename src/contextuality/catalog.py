"""Bundled models: the standard two-party and three-party fixtures.

Probability values are exact rationals.  For the perfectly-correlated
two-party model ("bell") the tables are the ones produced by the bundled
singlet experiment after snapping, so the quantum path and the catalog pin
each other.  For the one-failing-edge model ("hardy") the support is the
classic one and the probability values are a rational no-signaling
realization of it chosen for exactness; any realization with that support
occupies the same tier.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from . import classifier
from .distribution import Distribution, random_rational_weights
from .model import EmpiricalModel, deterministic_model, mixture
from .scenario import Scenario, sections_over

if TYPE_CHECKING:
    from .quantum import QuantumExperiment


class CatalogEntry:
    """A named model, read from its cached factory, with its expected tier, notes, and optional experiment."""

    __slots__ = ("name", "model_factory", "tier_value", "notes", "experiment_factory")

    def __init__(self, name: str, model_factory: Callable[[], EmpiricalModel], tier_value: str,
                 notes: str, experiment_factory: Optional[Callable[[], QuantumExperiment]] = None):
        self.name = name
        self.model_factory = model_factory
        self.tier_value = tier_value
        self.notes = notes
        self.experiment_factory = experiment_factory

    @property
    def model(self) -> EmpiricalModel:
        return self.model_factory()

    @property
    def expected_tier(self) -> classifier.Tier:
        return classifier.Tier(self.tier_value)

    @property
    def experiment(self) -> Optional[QuantumExperiment]:
        return self.experiment_factory() if self.experiment_factory else None

    def __repr__(self) -> str:
        return f"CatalogEntry({self.name!r}, expected={self.expected_tier})"


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def two_party_scenario() -> Scenario:
    return Scenario(
        measurements=("a", "b", "a'", "b'"),
        maximal_contexts=(("a", "b"), ("a", "b'"), ("a'", "b"), ("a'", "b'")),
        outcomes=("0", "1"),
    )


@lru_cache(maxsize=None)
def triangle_scenario() -> Scenario:
    return Scenario(
        measurements=("a", "b", "c"),
        maximal_contexts=(("a", "b"), ("b", "c"), ("a", "c")),
        outcomes=("0", "1"),
    )


@lru_cache(maxsize=None)
def three_party_scenario() -> Scenario:
    settings = ("x1", "y1", "x2", "y2", "x3", "y3")
    contexts = tuple(
        (p1, p2, p3)
        for p1 in ("x1", "y1")
        for p2 in ("x2", "y2")
        for p3 in ("x3", "y3")
    )
    return Scenario(settings, contexts, ("0", "1"))


# ---------------------------------------------------------------------------
# Table helpers
# ---------------------------------------------------------------------------


def _pair_table(scenario: Scenario, context, same: Fraction) -> Distribution:
    """Distribution on a two-measurement context with P(equal outcomes) = same."""
    same = Fraction(same)
    weights = {}
    for s in sections_over(scenario, context):
        equal = s.values[0] == s.values[1]
        weights[s] = same / 2 if equal else (1 - same) / 2
    return Distribution(scenario, context, weights)


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def bell_model() -> EmpiricalModel:
    """Singlet-realizable two-party tables: perfectly correlated on (a, b)."""
    s = two_party_scenario()
    same = {
        ("a", "b"): Fraction(1),
        ("a", "b'"): Fraction(3, 4),
        ("b", "a'"): Fraction(3, 4),
        ("a'", "b'"): Fraction(1, 4),
    }
    return EmpiricalModel(s, {c: _pair_table(s, c, same[c]) for c in s.maximal_contexts})


@lru_cache(maxsize=None)
def hardy_model() -> EmpiricalModel:
    """Rational tables whose support has exactly one non-extendable edge."""
    s = two_party_scenario()
    f = Fraction
    tables = {
        ("a", "b"): {
            _key(s, a="0", b="0"): f(1, 8), _key(s, a="0", b="1"): f(1, 4),
            _key(s, a="1", b="0"): f(1, 4), _key(s, a="1", b="1"): f(3, 8),
        },
        ("a", "b'"): {
            _key(s, **{"a": "0", "b'": "0"}): f(0), _key(s, **{"a": "0", "b'": "1"}): f(3, 8),
            _key(s, **{"a": "1", "b'": "0"}): f(9, 16), _key(s, **{"a": "1", "b'": "1"}): f(1, 16),
        },
        ("b", "a'"): {
            _key(s, **{"a'": "0", "b": "0"}): f(0), _key(s, **{"a'": "0", "b": "1"}): f(9, 16),
            _key(s, **{"a'": "1", "b": "0"}): f(3, 8), _key(s, **{"a'": "1", "b": "1"}): f(1, 16),
        },
        ("a'", "b'"): {
            _key(s, **{"a'": "0", "b'": "0"}): f(1, 8), _key(s, **{"a'": "0", "b'": "1"}): f(7, 16),
            _key(s, **{"a'": "1", "b'": "0"}): f(7, 16), _key(s, **{"a'": "1", "b'": "1"}): f(0),
        },
    }
    built = {
        context: Distribution(s, context, rows)
        for context, rows in tables.items()
    }
    return EmpiricalModel(s, built)


def _key(scenario: Scenario, **assignment):
    return scenario.section(assignment)


@lru_cache(maxsize=None)
def pr_box_model() -> EmpiricalModel:
    """Uniform correlations equal on three contexts and unequal on the fourth."""
    s = two_party_scenario()
    same = {
        ("a", "b"): Fraction(1),
        ("a", "b'"): Fraction(1),
        ("b", "a'"): Fraction(1),
        ("a'", "b'"): Fraction(0),
    }
    return EmpiricalModel(s, {c: _pair_table(s, c, same[c]) for c in s.maximal_contexts})


@lru_cache(maxsize=None)
def specker_triangle_model() -> EmpiricalModel:
    """Three pairwise contexts, each perfectly anticorrelated."""
    s = triangle_scenario()
    return EmpiricalModel(s, {c: _pair_table(s, c, Fraction(0)) for c in s.maximal_contexts})


@lru_cache(maxsize=None)
def ghz_model() -> EmpiricalModel:
    """Three parties, two settings each, with the parity constraints of the GHZ state."""
    s = three_party_scenario()
    tables = {}
    for context in s.maximal_contexts:
        y_count = sum(1 for m in context if m.startswith("y"))
        weights = {}
        for section in sections_over(s, context):
            zeros = sum(1 for o in section.values if o == "0")
            if y_count == 0:
                weights[section] = Fraction(1, 4) if zeros % 2 == 0 else Fraction(0)
            elif y_count == 2:
                weights[section] = Fraction(1, 4) if zeros % 2 == 1 else Fraction(0)
            else:
                weights[section] = Fraction(1, 8)
        tables[context] = Distribution(s, context, weights)
    return EmpiricalModel(s, tables)


# ---------------------------------------------------------------------------
# The catalog
# ---------------------------------------------------------------------------


def _singlet_experiment() -> QuantumExperiment:
    from .quantum import singlet_experiment  # quantum loads only when an experiment is asked for
    return singlet_experiment()


def _ghz_experiment() -> QuantumExperiment:
    from .quantum import ghz_experiment
    return ghz_experiment()


@lru_cache(maxsize=None)
def catalog() -> tuple[CatalogEntry, ...]:
    return (
        CatalogEntry(
            "bell", bell_model, "Probabilistic",
            "Two-party tables realized exactly by the bundled singlet experiment "
            "(all values are multiples of 1/8); every support section extends "
            "globally, yet no global distribution matches all four tables.",
            _singlet_experiment,
        ),
        CatalogEntry(
            "hardy", hardy_model, "Logical",
            "Support has exactly one edge with no consistent global extension; "
            "the probability values are a rational no-signaling realization of "
            "that support, pinned by tier reproduction rather than by a "
            "specific quantum state.",
        ),
        CatalogEntry(
            "pr-box", pr_box_model, "Strong",
            "Uniform box with an odd correlation cycle; no global section is "
            "consistent with the support.",
        ),
        CatalogEntry(
            "specker-triangle", specker_triangle_model, "Strong",
            "Three measurements, pairwise co-measurable and perfectly "
            "anticorrelated; a two-coloring of an odd cycle cannot exist.",
        ),
        CatalogEntry(
            "ghz", ghz_model, "Strong",
            "Parity constraints on four of the eight contexts are jointly "
            "unsatisfiable; realized exactly by the bundled three-qubit "
            "experiment with x/y spin measurements.",
            _ghz_experiment,
        ),
    )


def entry(name: str) -> CatalogEntry:
    for e in catalog():
        if e.name == name:
            return e
    known = ", ".join(e.name for e in catalog())
    raise KeyError(f"unknown catalog model {name!r}; known models: {known}")


def names() -> tuple[str, ...]:
    return tuple(e.name for e in catalog())


# ---------------------------------------------------------------------------
# Randomized controls
# ---------------------------------------------------------------------------


def random_deterministic_mixture(scenario: Scenario, rng: random.Random, components: int = 4) -> EmpiricalModel:
    """A random convex mixture of deterministic models; always noncontextual."""
    sections = scenario.global_sections()
    picks = [rng.choice(sections) for _ in range(components)]
    weights = random_rational_weights(rng, components)
    return mixture([deterministic_model(scenario, s) for s in picks], weights)


def perturbed_model(model: EmpiricalModel, rng: random.Random, magnitude: Fraction = Fraction(1, 8),
                    components: int = 3) -> EmpiricalModel:
    """Mix a model with random noncontextual noise; no-signaling is preserved exactly."""
    magnitude = Fraction(magnitude)
    noise = random_deterministic_mixture(model.scenario, rng, components)
    return mixture([model, noise], [1 - magnitude, magnitude])
