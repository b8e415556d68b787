"""Shared fixtures: catalog representations, standard paddings, noisy cycles, the
enumerated global-section system, the dense solver adapter, the numpy Born-rule
oracle and document fuzz values."""

from __future__ import annotations

import copy
import itertools
import math
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import ne
from typing import Mapping, NamedTuple, Sequence

import numpy as np
import pytest
from hypothesis import strategies as st

from contextuality import feasibility
from contextuality.catalog import catalog
from contextuality.distribution import Distribution
from contextuality.errors import DEFAULT_DENOMINATOR_BOUND, DEFAULT_SNAP_TOLERANCE, CompatibilityError, SnapError
from contextuality.feasibility import ExplicitColumns, FarkasCertificate, FeasibilityOutcome
from contextuality.model import EmpiricalModel, check_model
from contextuality.quantum import _real, snap_to_rational
from contextuality.scenario import Scenario, Section, restrict, sections_over
from contextuality.wps import PadPoint, build_combinatorial_rep, build_padded_rep


def standard_paddings(scenario: Scenario) -> list[PadPoint]:
    """One contradictory-overlap pad and one outcome-free pad, generically.

    The first pad joins both of the first two outcome events of the first
    measurement; with a single outcome there is no such pair, and that pad
    would mimic a global section, so it is left out.  The second pad joins
    no outcome event of the second measurement (or the first again, in
    one-measurement scenarios).  All other memberships are the first outcome.
    """
    ms = scenario.measurements
    o0 = scenario.outcomes[0]
    first, second = ms[0], ms[min(1, len(ms) - 1)]
    pads = []
    if len(scenario.outcomes) > 1:
        pad1 = {m: (o0,) for m in ms}
        pad1[first] = (o0, scenario.outcomes[1])
        pads.append(PadPoint("pad-overlap", pad1))
    pad2 = {m: (o0,) for m in ms}
    pad2[second] = ()
    return pads + [PadPoint("pad-outcomeless", pad2)]


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


def dense_outcome(outcome: FeasibilityOutcome, n: int) -> FeasibilityOutcome:
    """The outcome with its sparse primal ``{j: x_j}`` expanded into a tuple over all n columns."""
    if not outcome.feasible:
        return outcome
    return FeasibilityOutcome(True, tuple(outcome.solution.get(j, Fraction(0)) for j in range(n)), None)


def solve_nonnegative(rows: Sequence[Sequence], rhs: Sequence) -> FeasibilityOutcome:
    """The dense reference adapter: find x >= 0 with A x = b, or a Farkas certificate, A given by its rows."""
    rhs = list(rhs)
    if len(rows) != len(rhs):
        raise ValueError("one right-hand side per row required")
    n = len(rows[0]) if rows else 0
    if any(len(row) != n for row in rows):
        raise ValueError("ragged coefficient matrix")
    columns, values = [], []
    for column in zip(*rows):
        support = tuple(i for i, v in enumerate(column) if v)
        columns.append(support)
        values.append(tuple(column[i] for i in support))
    return solve_columns(columns, rhs, values)


def solve_columns(columns: Sequence[Sequence[int]], rhs: Sequence,
                  values: Sequence[Sequence] | None = None) -> FeasibilityOutcome:
    """Find x >= 0 with A x = b, or a Farkas certificate, for A given by its sparse columns.

    ``columns[j]`` lists the rows, each once and in ``range(len(rhs))``, at
    which column j is non-zero; ``values[j]`` holds those entries in the same
    order, or ``values`` is None when every listed entry is one.  Each row is
    scaled once by the lcm of its entries' denominators and handed to
    ``feasibility.solve_source`` as explicit columns; the primal comes back
    dense and the certificate primitive over the unscaled rows.
    """
    b = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in rhs]
    m = len(b)
    if any(rows and (min(rows) < 0 or max(rows) >= m) for rows in columns):
        raise ValueError("column lists a row outside the system")
    if values is None:
        values = [(1,) * len(rows) for rows in columns]
    elif len(values) != len(columns) or any(map(ne, map(len, columns), map(len, values))):
        raise ValueError("one value per listed row required")
    values = [[v if isinstance(v, (int, Fraction)) else Fraction(v) for v in column] for column in values]
    # Each row times the lcm of its entries' denominators: an integer matrix.
    denominator = [1] * m
    for rows, column in zip(columns, values):
        for r, v in zip(rows, column):
            denominator[r] = lcm(denominator[r], v.denominator)
    scaled = [tuple(v.numerator * (denominator[r] // v.denominator) for r, v in zip(rows, column))
              for rows, column in zip(columns, values)]
    outcome = feasibility.solve_source(ExplicitColumns(columns, scaled), [v * s for v, s in zip(b, denominator)])
    if outcome.feasible:
        return dense_outcome(outcome, len(columns))
    # The primitive certificate of the original rows: a positive row scaling keeps every sign.
    y = [int(v) * s for v, s in zip(outcome.certificate.coefficients, denominator)]
    g = gcd(*y)
    return FeasibilityOutcome(False, None, FarkasCertificate(tuple(Fraction(v // g) for v in y)))


# ---------------------------------------------------------------------------
# The numpy oracle for Born-rule ingestion: the dense-matrix implementation
# that ``contextuality.quantum`` replaced, kept to check the plain-Python one.
# ---------------------------------------------------------------------------


class NumpyExperiment:
    """``QuantumExperiment`` on complex128 arrays, with the same checks and messages."""

    def __init__(self, state, projectors, tolerance=DEFAULT_SNAP_TOLERANCE):
        if isinstance(tolerance, bool) or not 0 <= tolerance < math.inf:
            raise ValueError(f"tolerance must be a finite non-negative number, got {tolerance!r}")
        values = []
        for entry in state:
            if isinstance(entry, (tuple, list)) and len(entry) == 2:
                values.append(complex(*map(_real, entry)))
            else:
                values.append(complex(entry))
        self.state = np.asarray(values, dtype=np.complex128)
        self.dimension = self.state.shape[0]
        if not abs(np.vdot(self.state, self.state).real - 1.0) <= tolerance:
            raise ValueError("state vector is not normalized within tolerance")
        items = projectors.items() if isinstance(projectors, Mapping) else projectors
        canonical_list = []
        seen = set()
        for label, matrix in items:
            label = str(label)
            if label in seen:
                raise ValueError(f"duplicate projector label {label!r}")
            seen.add(label)
            p = np.asarray(matrix, dtype=np.complex128)
            if p.shape != (self.dimension, self.dimension):
                raise ValueError(f"projector {label!r} has shape {p.shape}, expected square of dimension {self.dimension}")
            with np.errstate(over="ignore", invalid="ignore"):
                if not np.max(np.abs(p - p.conj().T)) <= tolerance:
                    raise ValueError(f"projector {label!r} is not Hermitian within tolerance")
                if not np.max(np.abs(p @ p - p)) <= tolerance:
                    raise ValueError(f"projector {label!r} is not idempotent within tolerance")
            canonical_list.append((label, p))
        if not canonical_list:
            raise ValueError("an experiment needs at least one projector")
        self.projectors = tuple(canonical_list)
        self.tolerance = tolerance

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.projectors)

    def projector(self, label: str):
        return dict(self.projectors)[label]


def numpy_experiment_scenario(experiment: NumpyExperiment) -> Scenario:
    labels = experiment.labels()
    n = len(labels)
    mats = [experiment.projector(l) for l in labels]
    tol = experiment.tolerance
    commutes = [[np.max(np.abs(mats[i] @ mats[j] - mats[j] @ mats[i])) <= tol for j in range(n)] for i in range(n)]
    cliques = []
    for size in range(n, 0, -1):
        for combo in itertools.combinations(range(n), size):
            if all(commutes[i][j] for i, j in itertools.combinations(combo, 2)):
                if not any(set(combo) < set(c) for c in cliques):
                    cliques.append(set(combo))
    contexts = [tuple(labels[i] for i in sorted(c)) for c in cliques]
    return Scenario(labels, contexts, ("0", "1"))


def numpy_born_values(experiment: NumpyExperiment, scenario: Scenario) -> dict[tuple, dict[Section, complex]]:
    """<psi|P|psi> for every section's operator P, formed as a product of projectors and complements."""
    psi = experiment.state
    identity = np.eye(experiment.dimension, dtype=np.complex128)
    values = {}
    for context in scenario.maximal_contexts:
        values[context] = {}
        for s in sections_over(scenario, context):
            op = identity
            for label, outcome in zip(s.domain, s.values):
                p = experiment.projector(label)
                op = op @ (p if outcome == "1" else identity - p)
            values[context][s] = complex(np.vdot(psi, op @ psi))
    return values


def numpy_quantum_to_empirical(experiment: NumpyExperiment, snap_tolerance=DEFAULT_SNAP_TOLERANCE,
                               denominator_bound=DEFAULT_DENOMINATOR_BOUND) -> EmpiricalModel:
    scenario = numpy_experiment_scenario(experiment)
    tables = {}
    for context, amplitudes in numpy_born_values(experiment, scenario).items():
        weights = {}
        for s, amplitude in amplitudes.items():
            if abs(amplitude.imag) > snap_tolerance:
                raise SnapError(f"Born value for {s} has imaginary part {amplitude.imag}")
            weights[s] = snap_to_rational(amplitude.real, snap_tolerance, denominator_bound)
        tables[context] = Distribution(scenario, context, weights)
    model = EmpiricalModel(scenario, tables)
    report = check_model(model)
    if not report.ok:
        raise CompatibilityError(report)
    return model


def _numpy_pauli():
    return (
        np.eye(2, dtype=np.complex128),
        np.array([[0, 1], [1, 0]], dtype=np.complex128),
        np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
        np.array([[1, 0], [0, -1]], dtype=np.complex128),
    )


def _numpy_spin_projector(angle: float):
    i2, sigma_x, _, sigma_z = _numpy_pauli()
    direction = np.sin(angle) * sigma_x + np.cos(angle) * sigma_z
    return (i2 + direction) / 2


def numpy_singlet_experiment() -> NumpyExperiment:
    i2 = _numpy_pauli()[0]
    psi = np.zeros(4, dtype=np.complex128)
    psi[1] = 1 / np.sqrt(2)
    psi[2] = -1 / np.sqrt(2)
    alice = {"a": 0.0, "a'": np.pi / 3}
    bob = {"b": np.pi, "b'": 2 * np.pi / 3}
    return NumpyExperiment(psi, [
        (label, np.kron(_numpy_spin_projector(alice[label]), i2) if label in alice
         else np.kron(i2, _numpy_spin_projector(bob[label])))
        for label in ("a", "b", "a'", "b'")
    ])


def numpy_ghz_experiment() -> NumpyExperiment:
    i2, sigma_x, sigma_y, _ = _numpy_pauli()
    psi = np.zeros(8, dtype=np.complex128)
    psi[0] = psi[7] = 1 / np.sqrt(2)
    local = {"x": (i2 + sigma_x) / 2, "y": (i2 + sigma_y) / 2}
    projectors = []
    for label in ("x1", "y1", "x2", "y2", "x3", "y3"):
        factors = [local[label[0]] if int(label[1]) == i + 1 else i2 for i in range(3)]
        projectors.append((label, np.kron(np.kron(factors[0], factors[1]), factors[2])))
    return NumpyExperiment(psi, projectors)


def numpy_orthogonal_pair_experiment() -> NumpyExperiment:
    return NumpyExperiment(np.array([1.0, 0.0], dtype=np.complex128), [
        ("up", np.array([[1, 0], [0, 0]], dtype=np.complex128)),
        ("down", np.array([[0, 0], [0, 1]], dtype=np.complex128)),
    ])


def patch_every_layer(monkeypatch, name: str, original, replacement) -> None:
    """Patch ``name`` to ``replacement`` in every contextuality module that holds ``original``.

    Each namespace is read with ``vars``: ``getattr`` on the package would
    resolve a lazy public name, and if its layer was already patched the
    package would keep the patch after the monkeypatch is undone.
    """
    for module in list(sys.modules.values()):
        if module.__name__.startswith("contextuality") and vars(module).get(name) is original:
            monkeypatch.setattr(module, name, replacement)


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
