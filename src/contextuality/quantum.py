"""Quantum experiments, Born-rule ingestion, and weak hidden-variable checks.

An experiment is a finite set of labeled projectors and a state vector.
Maximal pairwise-commuting subsets of the projectors become the maximal
contexts; outcome "1" means a projector fires, "0" that its complement
does.  Born probabilities are computed numerically and then snapped to
exact rationals by continued-fraction best approximation with a bounded
denominator.  Snapped tables that fail the exact no-signaling check are an
error: silent repair could move a model between tiers.

The numerics are plain Python: a vector is a tuple of ``complex`` and a
matrix a tuple of such rows.  Products run over non-zero entries only, so
the local, sparse projectors of spin experiments cost little, and Born
values come from matrix-vector products, one per projector and outcome
suffix, never from operator products.  Dense, unstructured projectors of
dimension 32 or more are slower here than under a BLAS.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Sequence

from .errors import (
    DEFAULT_DENOMINATOR_BOUND,
    DEFAULT_ENUMERATION_CAP,
    DEFAULT_SNAP_TOLERANCE,
    CompatibilityError,
    EnumerationCapError,
    SchemaError,
    SnapError,
)
from .model import EmpiricalModel, check_model
from .distribution import Distribution
from .record import Failure, Record
from .scenario import Scenario, sections_over

if TYPE_CHECKING:
    from .scenario import Section
    from .wps import WpsRepresentation


Vector = tuple[complex, ...]
Matrix = tuple[Vector, ...]
Rows = tuple[tuple[tuple[int, complex], ...], ...]


def _real(part) -> float:
    """A 'p/q' string through its exact fraction; any other string or number through ``float``."""
    return float(Fraction(part)) if isinstance(part, str) and "/" in part else float(part)


def _as_complex_vector(entries: Sequence) -> Vector:
    return tuple(complex(*map(_real, entry)) if isinstance(entry, (tuple, list)) and len(entry) == 2
                 else complex(entry) for entry in entries)


def _shape(value) -> tuple[int, ...]:
    """The shape of an array, or of a regular nested list or tuple."""
    if hasattr(value, "shape"):
        return tuple(value.shape)
    if not isinstance(value, (list, tuple)):
        return ()
    inner = {_shape(item) for item in value}
    return (len(value), *inner.pop()) if len(inner) == 1 else (len(value),)


# ---------------------------------------------------------------------------
# The numeric kernel: a vector is a tuple of complex, a matrix a tuple of rows
# ---------------------------------------------------------------------------

def _nonzero(a: Matrix) -> Rows:
    """Each row of a matrix as its (column, entry) pairs with a non-zero entry."""
    return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in a)


def _product(a: Rows, b: Rows) -> Matrix:
    """The product of two square matrices given by their non-zero entries."""
    product = []
    for row in a:
        out = [0j] * len(b)
        for k, x in row:
            for j, y in b[k]:
                out[j] += x * y
        product.append(tuple(out))
    return tuple(product)


def _apply(rows: Rows, v: Vector) -> Vector:
    return tuple(sum((x * v[j] for j, x in row), 0j) for row in rows)


def _vdot(u: Vector, v: Vector) -> complex:
    return sum((x.conjugate() * y for x, y in zip(u, v)), 0j)


def _within(a: Matrix, b: Matrix, tolerance: float) -> bool:
    """Every entry of ``a`` lies within ``tolerance`` of the same entry of ``b``.

    A NaN difference, or one too large for ``abs``, fails the check.
    """
    try:
        return all(abs(x - y) <= tolerance for ra, rb in zip(a, b) for x, y in zip(ra, rb))
    except OverflowError:
        return False


def _identity(dimension: int) -> Matrix:
    return tuple(tuple(complex(i == j) for j in range(dimension)) for i in range(dimension))


class QuantumExperiment:
    """A state vector and a finite list of labeled projectors.

    Inputs may be nested sequences or arrays; each entry is read with
    ``complex``.  ``state`` is a tuple of complex, and each projector a
    tuple of such rows.
    """

    __slots__ = ("dimension", "state", "projectors", "tolerance")

    def __init__(self, state: Sequence, projectors: Mapping[str, Sequence] | Sequence[tuple[str, Sequence]],
                 tolerance: float = DEFAULT_SNAP_TOLERANCE):
        # Every check is written as `not ... <= tolerance`, so that NaN fails
        # it, as a tolerance or as an error that overflowed; a bool is not a
        # tolerance.
        if isinstance(tolerance, bool) or not 0 <= tolerance < math.inf:
            raise ValueError(f"tolerance must be a finite non-negative number, got {tolerance!r}")
        self.state = _as_complex_vector(state)
        self.dimension = len(self.state)
        if not abs(_vdot(self.state, self.state).real - 1.0) <= tolerance:
            raise ValueError("state vector is not normalized within tolerance")
        items = projectors.items() if isinstance(projectors, Mapping) else projectors
        canonical_list = []
        seen = set()
        for label, matrix in items:
            label = str(label)
            if label in seen:
                raise ValueError(f"duplicate projector label {label!r}")
            seen.add(label)
            shape = _shape(matrix)
            if shape != (self.dimension, self.dimension):
                raise ValueError(f"projector {label!r} has shape {shape}, expected square of dimension {self.dimension}")
            p = tuple(tuple(map(complex, row)) for row in matrix)
            if not _within(p, tuple(tuple(x.conjugate() for x in column) for column in zip(*p)), tolerance):
                raise ValueError(f"projector {label!r} is not Hermitian within tolerance")
            rows = _nonzero(p)
            if not _within(_product(rows, rows), p, tolerance):
                raise ValueError(f"projector {label!r} is not idempotent within tolerance")
            canonical_list.append((label, p))
        if not canonical_list:
            raise ValueError("an experiment needs at least one projector")
        self.projectors = tuple(canonical_list)
        self.tolerance = tolerance

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.projectors)

    def projector(self, label: str) -> Matrix:
        for name, p in self.projectors:
            if name == label:
                return p
        raise KeyError(label)


def _check_snapping(tolerance: float, denominator_bound: int) -> None:
    # Written as `not ...` so that NaN fails, as in QuantumExperiment.
    if isinstance(tolerance, bool) or not 0 <= tolerance < math.inf:
        raise ValueError(f"snap tolerance must be a finite non-negative number, got {tolerance!r}")
    if not denominator_bound >= 1:
        raise ValueError(f"denominator bound must be at least 1, got {denominator_bound!r}")


def snap_to_rational(value: float, tolerance: float = DEFAULT_SNAP_TOLERANCE,
                     denominator_bound: int = DEFAULT_DENOMINATOR_BOUND) -> Fraction:
    """Best rational approximation with bounded denominator, within tolerance."""
    _check_snapping(tolerance, denominator_bound)
    snapped = Fraction(value).limit_denominator(denominator_bound)
    if abs(float(snapped) - value) > tolerance:
        raise SnapError(
            f"{value!r} has no rational within {tolerance} with denominator <= {denominator_bound}"
        )
    return snapped


def experiment_scenario(experiment: QuantumExperiment, cap: int = DEFAULT_ENUMERATION_CAP) -> Scenario:
    """Scenario whose maximal contexts are the maximal commuting projector subsets."""
    labels = experiment.labels()
    n = len(labels)
    if 2 ** n > cap:
        raise EnumerationCapError(2 ** n, cap, what="projector subsets")
    rows = [_nonzero(p) for _, p in experiment.projectors]
    tol = experiment.tolerance
    commutes = {(i, j) for i, j in itertools.combinations(range(n), 2)
                if _within(_product(rows[i], rows[j]), _product(rows[j], rows[i]), tol)}
    cliques = []
    for size in range(n, 0, -1):
        for combo in itertools.combinations(range(n), size):
            if all(pair in commutes for pair in itertools.combinations(combo, 2)):
                if not any(set(combo) < set(c) for c in cliques):
                    cliques.append(set(combo))
    contexts = [tuple(labels[i] for i in sorted(c)) for c in cliques]
    return Scenario(labels, contexts, ("0", "1"))


def _born_values(experiment: QuantumExperiment, scenario: Scenario,
                 cap: int = DEFAULT_ENUMERATION_CAP) -> dict[tuple, dict[Section, complex]]:
    """<psi|P|psi> for the operator P of every section over each maximal context.

    A context's projectors commute, so P applied to psi is reached one
    projector at a time, last measurement first (so P is the product in
    context order even where they commute only within the tolerance): each
    outcome suffix's vector v splits into Pv (outcome "1") and v - Pv ("0").
    """
    psi = experiment.state
    rows = {label: _nonzero(p) for label, p in experiment.projectors}
    values = {}
    for context in scenario.maximal_contexts:
        sections = sections_over(scenario, context, cap=cap)
        branches = {(): psi}
        for label in reversed(sections[0].domain):
            split = {}
            for suffix, v in branches.items():
                pv = _apply(rows[label], v)
                split[("0", *suffix)], split[("1", *suffix)] = tuple(x - y for x, y in zip(v, pv)), pv
            branches = split
        values[context] = {s: _vdot(psi, branches[s.values]) for s in sections}
    return values


def quantum_to_empirical(experiment: QuantumExperiment,
                         snap_tolerance: float = DEFAULT_SNAP_TOLERANCE,
                         denominator_bound: int = DEFAULT_DENOMINATOR_BOUND,
                         cap: int = DEFAULT_ENUMERATION_CAP) -> EmpiricalModel:
    """Born-rule tables for every maximal context, snapped to exact rationals.

    Raises :class:`SnapError` when a probability has no close rational,
    :class:`CompatibilityError` when the snapped tables violate the exact
    no-signaling condition, and ``ValueError`` for a negative or non-finite
    tolerance or a denominator bound below 1.
    """
    _check_snapping(snap_tolerance, denominator_bound)
    scenario = experiment_scenario(experiment, cap=cap)
    tables = {}
    for context, amplitudes in _born_values(experiment, scenario, cap).items():
        weights = {}
        for s, amplitude in amplitudes.items():
            if abs(amplitude.imag) > snap_tolerance:
                raise SnapError(f"Born value for {s} has imaginary part {amplitude.imag}")
            weights[s] = snap_to_rational(amplitude.real, snap_tolerance, denominator_bound)
        tables[context] = Distribution(scenario, context, weights, cap=cap)
    model = EmpiricalModel(scenario, tables)
    report = check_model(model)
    if not report.ok:
        raise CompatibilityError(report)
    return model


# ---------------------------------------------------------------------------
# Weak hidden-variable representation check
# ---------------------------------------------------------------------------


class WeakHvReport(Record):
    __slots__ = ("ok", "failures")

    def __init__(self, ok: bool, failures: tuple[Failure, ...]):
        self._fill(ok, failures)

    def __str__(self) -> str:
        return "weak hidden-variable conditions hold" if self.ok else "; ".join(map(str, self.failures))


def weak_hv_report(rep: WpsRepresentation, experiment: QuantumExperiment,
                   snap_tolerance: float = DEFAULT_SNAP_TOLERANCE,
                   denominator_bound: int = DEFAULT_DENOMINATOR_BOUND) -> WeakHvReport:
    """Check the two weak hidden-variable conditions plus per-basis classicality.

    The representation must represent the experiment's own empirical model;
    firing events must carry the snapped Born weight of their projector;
    orthogonal projectors must fire together with weight zero; and every
    spanning set of mutually orthogonal projectors must generate an algebra
    inside the event family carrying an exact probability measure.
    """
    from .wps import _atoms, _subset_sums

    failures: list[Failure] = []
    induced = quantum_to_empirical(experiment, snap_tolerance, denominator_bound)
    if rep.model != induced:
        failures.append(Failure("model-match", "representation does not represent the experiment's model"))
        return WeakHvReport(False, tuple(failures))
    scenario = rep.model.scenario
    psi = experiment.state
    labels = experiment.labels()
    rows = [_nonzero(p) for _, p in experiment.projectors]

    def firing_event(label: str):
        return rep.event(scenario.section({label: "1"}))

    for label, p_rows in zip(labels, rows):
        born = snap_to_rational(_vdot(psi, _apply(p_rows, psi)).real, snap_tolerance, denominator_bound)
        event = firing_event(label)
        if not rep.in_sigma(event):
            failures.append(Failure("born-weight", f"firing event of {label!r} is outside the event family"))
        elif rep.mu_of(event) != born:
            failures.append(Failure(
                "born-weight", f"firing event of {label!r} carries {rep.mu_of(event)}, Born rule gives {born}"))

    tol = experiment.tolerance
    zero = ((0j,) * experiment.dimension,) * experiment.dimension
    orthogonal = {}
    for i, j in itertools.combinations(range(len(labels)), 2):
        orthogonal[(i, j)] = _within(_product(rows[i], rows[j]), zero, tol)
        if orthogonal[(i, j)]:
            inter = firing_event(labels[i]) & firing_event(labels[j])
            if not rep.in_sigma(inter):
                failures.append(Failure(
                    "orthogonality", f"joint firing of {labels[i]!r}, {labels[j]!r} is outside the event family"))
            elif rep.mu_of(inter) != 0:
                failures.append(Failure(
                    "orthogonality", f"joint firing of {labels[i]!r}, {labels[j]!r} has weight {rep.mu_of(inter)}"))

    identity = _identity(experiment.dimension)
    for size in range(1, len(labels) + 1):
        for combo in itertools.combinations(range(len(labels)), size):
            if not all(orthogonal.get((i, j), False) for i, j in itertools.combinations(combo, 2)):
                continue
            matrices = [experiment.projectors[i][1] for i in combo]
            total = tuple(tuple(map(sum, zip(*same_row))) for same_row in zip(*matrices))
            if not _within(total, identity, tol):
                continue
            atoms = _atoms(rep.sample_space, (firing_event(labels[i]) for i in combo))
            if not all(rep.in_sigma(member) for member in _subset_sums(atoms)):
                failures.append(Failure(
                    "spanning-classicality",
                    f"algebra of spanning set {tuple(labels[i] for i in combo)!r} leaves the event family"))
                continue
            algebra_total = sum(map(rep.mu_of, atoms), Fraction(0))
            if algebra_total != 1:
                failures.append(Failure(
                    "spanning-classicality",
                    f"spanning set {tuple(labels[i] for i in combo)!r} atoms sum to {algebra_total}"))

    return WeakHvReport(not failures, tuple(failures))


def is_weak_hv_representation(rep: WpsRepresentation, experiment: QuantumExperiment,
                              snap_tolerance: float = DEFAULT_SNAP_TOLERANCE,
                              denominator_bound: int = DEFAULT_DENOMINATOR_BOUND) -> bool:
    return weak_hv_report(rep, experiment, snap_tolerance, denominator_bound).ok


# ---------------------------------------------------------------------------
# Experiment documents
# ---------------------------------------------------------------------------

def _complex_entry(value, field: str) -> complex:
    try:
        if isinstance(value, (list, tuple)):
            if len(value) != 2:
                raise ValueError("complex entries are [re, im] pairs")
            entry = complex(*map(_real, value))
        elif isinstance(value, str):
            entry = complex(_real(value))
        else:
            entry = complex(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise SchemaError(f"bad complex entry {value!r}: {exc}", field) from None
    if not cmath.isfinite(entry):
        raise SchemaError(f"complex entry {value!r} is not finite", field)
    return entry


def experiment_from_dict(document) -> QuantumExperiment:
    """Parse a quantum-experiment document (state vector plus labeled projectors)."""
    # Imported here so that ``import contextuality`` does not load the JSON layer.
    from .serialize import KIND_EXPERIMENT, _check_header, _check_label, _expect

    _check_header(document, KIND_EXPERIMENT)
    state = [_complex_entry(v, f"state[{i}]") for i, v in enumerate(_expect(document, "state", kind=list))]
    projectors = []
    for i, item in enumerate(_expect(document, "projectors", kind=list)):
        field = f"projectors[{i}]"
        label = _check_label(_expect(item, "label", field, str), f"{field}.label")
        matrix = _expect(item, "matrix", field, list)
        if not all(isinstance(row, list) and len(row) == len(matrix) for row in matrix):
            raise SchemaError("a matrix must be a square list of rows", f"{field}.matrix")
        projectors.append((label, [
            [_complex_entry(v, f"{field}.matrix[{r}][{c}]") for c, v in enumerate(row)]
            for r, row in enumerate(matrix)
        ]))
    raw_tolerance = document.get("tolerance", DEFAULT_SNAP_TOLERANCE)
    try:
        # JSON true would read as 1.0 and switch every projector check off.
        tolerance = math.nan if isinstance(raw_tolerance, bool) else float(raw_tolerance)
    except (TypeError, ValueError, OverflowError):
        tolerance = math.nan
    if not math.isfinite(tolerance):
        raise SchemaError(f"tolerance must be a finite number, got {raw_tolerance!r}", "tolerance")
    try:
        return QuantumExperiment(state, projectors, tolerance)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def experiment_to_dict(experiment: QuantumExperiment) -> dict:
    from .serialize import KIND_EXPERIMENT, SCHEMA_VERSION

    def pair(z: complex) -> list[str]:
        return [repr(float(z.real)), repr(float(z.imag))]

    return {
        "schema_version": SCHEMA_VERSION,
        "kind": KIND_EXPERIMENT,
        "state": [pair(z) for z in experiment.state],
        "projectors": [
            {"label": label, "matrix": [[pair(z) for z in row] for row in matrix]}
            for label, matrix in experiment.projectors
        ],
        "tolerance": experiment.tolerance,
    }


# ---------------------------------------------------------------------------
# Bundled experiments
# ---------------------------------------------------------------------------

def _kron(a: Matrix, b: Matrix) -> Matrix:
    """The Kronecker product: entry (i*m + k, j*m + l) is a[i][j] * b[k][l], for b of size m."""
    return tuple(tuple(x * y for x in ra for y in rb) for ra in a for rb in b)


def _spin_projector(angle: float) -> Matrix:
    """Projector onto the +1 eigenspace of the spin observable at an angle in the x-z plane.

    That is (I + sin(angle) X + cos(angle) Z) / 2.
    """
    s, c = math.sin(angle), math.cos(angle)
    return ((complex((1 + c) / 2), complex(s / 2)), (complex(s / 2), complex((1 - c) / 2)))


def singlet_experiment() -> QuantumExperiment:
    """Two-qubit singlet with measurement angles chosen to land on dyadic tables.

    One side measures at angles 0 and pi/3, the other at pi and 2*pi/3; all
    Born probabilities are multiples of 1/8.
    """
    i2 = _identity(2)
    psi = (0j, complex(1 / math.sqrt(2)), complex(-1 / math.sqrt(2)), 0j)
    angles = {"a": 0.0, "a'": math.pi / 3}
    bob = {"b": math.pi, "b'": 2 * math.pi / 3}
    projectors = []
    for label in ("a", "b", "a'", "b'"):
        if label in angles:
            projectors.append((label, _kron(_spin_projector(angles[label]), i2)))
        else:
            projectors.append((label, _kron(i2, _spin_projector(bob[label]))))
    return QuantumExperiment(psi, projectors)


def ghz_experiment() -> QuantumExperiment:
    """Three-qubit GHZ state with x and y spin measurements on each qubit.

    The local projectors are (I + X) / 2 and (I + Y) / 2.
    """
    i2 = _identity(2)
    psi = (complex(1 / math.sqrt(2)), *(0j,) * 6, complex(1 / math.sqrt(2)))
    px = ((0.5 + 0j, 0.5 + 0j), (0.5 + 0j, 0.5 + 0j))
    # complex(0, -0.5), not -0.5j, whose real part is -0.0.
    py = ((0.5 + 0j, complex(0, -0.5)), (complex(0, 0.5), 0.5 + 0j))
    slots = {"x1": (px, 0), "y1": (py, 0), "x2": (px, 1), "y2": (py, 1), "x3": (px, 2), "y3": (py, 2)}
    projectors = []
    for label in ("x1", "y1", "x2", "y2", "x3", "y3"):
        local, position = slots[label]
        factors = [local if position == i else i2 for i in range(3)]
        projectors.append((label, _kron(_kron(factors[0], factors[1]), factors[2])))
    return QuantumExperiment(psi, projectors)


def orthogonal_pair_experiment() -> QuantumExperiment:
    """A single qubit measured by both eigenprojectors of one observable.

    The two projectors commute and are orthogonal, so they share a context
    and exercise the joint-firing and spanning-set conditions non-vacuously.
    """
    return QuantumExperiment((1 + 0j, 0j), [("up", ((1 + 0j, 0j), (0j, 0j))), ("down", ((0j, 0j), (0j, 1 + 0j)))])
