"""Shared fixtures: catalog representations, standard paddings and noisy cycles."""

from __future__ import annotations

from fractions import Fraction

import pytest

from contextuality.catalog import catalog
from contextuality.distribution import Distribution
from contextuality.model import EmpiricalModel
from contextuality.scenario import Scenario, sections_over
from contextuality.wps import PadPoint, build_combinatorial_rep, build_padded_rep


def standard_paddings(scenario: Scenario) -> list[PadPoint]:
    """One contradictory-overlap pad and one outcome-free pad, generically.

    The first pad joins both of the first two outcome events of the first
    measurement; the second pad joins no outcome event of the second
    measurement (or the first again, in one-measurement scenarios).  All
    other memberships are the first outcome.
    """
    ms = scenario.measurements
    o0, o1 = scenario.outcomes[0], scenario.outcomes[min(1, len(scenario.outcomes) - 1)]
    first, second = ms[0], ms[min(1, len(ms) - 1)]
    pad1 = {m: (o0,) for m in ms}
    pad1[first] = (o0, o1)
    pad2 = {m: (o0,) for m in ms}
    pad2[second] = ()
    return [PadPoint("pad-overlap", pad1), PadPoint("pad-outcomeless", pad2)]


def noisy_cycle(n: int, p: Fraction) -> EmpiricalModel:
    """The perfectly anticorrelated binary n-cycle mixed with a share p of uniform noise."""
    names = [f"x{i}" for i in range(n)]
    scenario = Scenario(names, [(names[i], names[(i + 1) % n]) for i in range(n)], ("0", "1"))
    tables = {
        context: Distribution(scenario, context, {
            s: p / 4 if s.values[0] == s.values[1] else (1 - p / 2) / 2
            for s in sections_over(scenario, context)
        })
        for context in scenario.maximal_contexts
    }
    return EmpiricalModel(scenario, tables)


@pytest.fixture(scope="session")
def catalog_entries():
    return {entry.name: entry for entry in catalog()}


@pytest.fixture(scope="session")
def catalog_reps(catalog_entries):
    return {
        name: build_combinatorial_rep(entry.model)
        for name, entry in catalog_entries.items()
    }


@pytest.fixture(scope="session")
def padded_catalog_reps(catalog_entries):
    return {
        name: build_padded_rep(entry.model, standard_paddings(entry.model.scenario))
        for name, entry in catalog_entries.items()
    }
