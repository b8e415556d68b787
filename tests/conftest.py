"""Shared fixtures: catalog representations, standard paddings, noisy cycles, the
enumerated global-section system and document fuzz values."""

from __future__ import annotations

import copy
import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import pytest
from hypothesis import strategies as st

from contextuality.catalog import catalog
from contextuality.distribution import Distribution
from contextuality.model import EmpiricalModel
from contextuality.scenario import Scenario, Section, restrict, sections_over
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


class GlobalSectionSystem(NamedTuple):
    """Global sections (the columns) against ``(maximal context, section)`` rows.

    Rows take contexts in scenario order and sections in enumeration order;
    ``incidence[j][k]`` is the row of column ``j`` in the ``k``-th context.
    """

    columns: tuple[Section, ...]
    rows: tuple[tuple[tuple, Section], ...]
    incidence: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def global_section_system(scenario: Scenario) -> GlobalSectionSystem:
    """The enumeration oracle: every global section restricted to every maximal context."""
    rows = tuple((c, s) for c in scenario.maximal_contexts for s in sections_over(scenario, c, cap=math.inf))
    columns = sections_over(scenario, scenario.measurements, cap=math.inf)
    row_of = {label: r for r, label in enumerate(rows)}
    incidence = tuple(tuple(row_of[(c, restrict(g, c))] for c in scenario.maximal_contexts) for g in columns)
    return GlobalSectionSystem(columns, rows, incidence)


def json_paths(node, prefix=()):
    """Every path into a JSON document, the root included."""
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from json_paths(child, prefix + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from json_paths(child, prefix + (index,))


HOSTILE_VALUES = st.one_of(
    st.sampled_from([
        float("nan"), float("inf"), -float("inf"), "NaN", "inf", "-Infinity",
        1e308, -1e308, 10 ** 400, "1e400", "-1e999", "1e-400", "1/0", "",
        "x", "a,x", None, True, False, 0, -1, 2, 0.5, [], {}, [[]], [[[]]],
        [1, 2], ["0", "0", "0"], [[1, 2], [3]], {"label": "a"},
    ]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-10 ** 500, max_value=10 ** 500),
    st.text(max_size=6),
    st.recursive(st.none() | st.booleans() | st.floats() | st.text(max_size=3),
                 lambda children: st.lists(children, max_size=3), max_leaves=6),
)


def mutate(document, data, paths):
    """The document with one to three of its paths set to hostile values drawn from ``data``.

    Each value is a fresh copy: a sampled list or dict set into one document
    must not carry that document's later mutations into another example."""
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        path = data.draw(st.sampled_from(paths), label="path")
        value = copy.deepcopy(data.draw(HOSTILE_VALUES, label="value"))
        if not path:
            document = value
            continue
        target = document
        try:
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed or replaced this path
    return document


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
