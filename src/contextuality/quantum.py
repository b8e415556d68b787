"""Quantum experiments, Born-rule ingestion, and weak hidden-variable checks.

An experiment is a finite set of labeled projectors and a state vector.
Maximal pairwise-commuting subsets of the projectors become the maximal
contexts; outcome "1" means a projector fires, "0" that its complement
does.  Born probabilities are computed numerically and then snapped to
exact rationals by continued-fraction best approximation with a bounded
denominator.  Snapped tables that fail the exact no-signaling check are an
error: silent repair could move a model between tiers.

numpy is imported inside the functions that compute with it, so importing
the package (or running the CLI on a catalog model) does not load numpy or
start its BLAS thread pool.
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
from .record import Record
from .scenario import Scenario, sections_over

if TYPE_CHECKING:
    import numpy as np

    from .wps import WpsRepresentation


def _real(part) -> float:
    """A 'p/q' string through its exact fraction; any other string or number through ``float``."""
    return float(Fraction(part)) if isinstance(part, str) and "/" in part else float(part)


def _as_complex_vector(entries: Sequence) -> np.ndarray:
    import numpy as np

    values = []
    for entry in entries:
        if isinstance(entry, (tuple, list)) and len(entry) == 2:
            values.append(complex(*map(_real, entry)))
        else:
            values.append(complex(entry))
    return np.asarray(values, dtype=np.complex128)


class QuantumExperiment:
    """A state vector and a finite list of labeled projectors."""

    __slots__ = ("dimension", "state", "projectors", "tolerance")

    def __init__(self, state: Sequence, projectors: Mapping[str, np.ndarray] | Sequence[tuple[str, np.ndarray]],
                 tolerance: float = DEFAULT_SNAP_TOLERANCE):
        import numpy as np

        # Every check is written as `not ... <= tolerance`, so that NaN fails
        # it, as a tolerance or as an error that overflowed; a bool is not a
        # tolerance.
        if isinstance(tolerance, bool) or not 0 <= tolerance < math.inf:
            raise ValueError(f"tolerance must be a finite non-negative number, got {tolerance!r}")
        self.state = _as_complex_vector(state)
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

    def projector(self, label: str) -> np.ndarray:
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
    import numpy as np

    labels = experiment.labels()
    n = len(labels)
    if 2 ** n > cap:
        raise EnumerationCapError(2 ** n, cap, what="projector subsets")
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
    import numpy as np

    _check_snapping(snap_tolerance, denominator_bound)
    scenario = experiment_scenario(experiment, cap=cap)
    psi = experiment.state
    identity = np.eye(experiment.dimension, dtype=np.complex128)
    tables = {}
    for context in scenario.maximal_contexts:
        weights = {}
        for s in sections_over(scenario, context, cap=cap):
            op = identity
            for label, outcome in zip(s.domain, s.values):
                p = experiment.projector(label)
                op = op @ (p if outcome == "1" else identity - p)
            amplitude = complex(np.vdot(psi, op @ psi))
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


class WeakHvFailure(Record):
    __slots__ = ("condition", "detail")

    def __init__(self, condition: str, detail: str):
        self._fill(condition, detail)

    def __str__(self) -> str:
        return f"[{self.condition}] {self.detail}"


class WeakHvReport(Record):
    __slots__ = ("ok", "failures")

    def __init__(self, ok: bool, failures: tuple[WeakHvFailure, ...]):
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
    import numpy as np

    from .wps import _atoms, _subset_sums

    failures: list[WeakHvFailure] = []
    induced = quantum_to_empirical(experiment, snap_tolerance, denominator_bound)
    if rep.model != induced:
        failures.append(WeakHvFailure("model-match", "representation does not represent the experiment's model"))
        return WeakHvReport(False, tuple(failures))
    scenario = rep.model.scenario
    psi = experiment.state

    def firing_event(label: str):
        return rep.event(scenario.section({label: "1"}))

    for label, p in experiment.projectors:
        born = snap_to_rational(float(np.vdot(psi, p @ psi).real), snap_tolerance, denominator_bound)
        event = firing_event(label)
        if not rep.in_sigma(event):
            failures.append(WeakHvFailure("born-weight", f"firing event of {label!r} is outside the event family"))
        elif rep.mu_of(event) != born:
            failures.append(WeakHvFailure(
                "born-weight",
                f"firing event of {label!r} carries {rep.mu_of(event)}, Born rule gives {born}",
            ))

    labels = experiment.labels()
    tol = experiment.tolerance
    orthogonal = {}
    for i, j in itertools.combinations(range(len(labels)), 2):
        pi, pj = experiment.projector(labels[i]), experiment.projector(labels[j])
        orthogonal[(i, j)] = np.max(np.abs(pi @ pj)) <= tol
        if orthogonal[(i, j)]:
            inter = firing_event(labels[i]) & firing_event(labels[j])
            if not rep.in_sigma(inter):
                failures.append(WeakHvFailure(
                    "orthogonality", f"joint firing of {labels[i]!r}, {labels[j]!r} is outside the event family"))
            elif rep.mu_of(inter) != 0:
                failures.append(WeakHvFailure(
                    "orthogonality",
                    f"joint firing of {labels[i]!r}, {labels[j]!r} has weight {rep.mu_of(inter)}"))

    identity = np.eye(experiment.dimension)
    for size in range(1, len(labels) + 1):
        for combo in itertools.combinations(range(len(labels)), size):
            if not all(orthogonal.get((i, j), False) for i, j in itertools.combinations(combo, 2)):
                continue
            total = sum(experiment.projector(labels[i]) for i in combo)
            if np.max(np.abs(total - identity)) > tol:
                continue
            atoms = _atoms(rep.sample_space, (firing_event(labels[i]) for i in combo))
            if not all(rep.in_sigma(member) for member in _subset_sums(atoms)):
                failures.append(WeakHvFailure(
                    "spanning-classicality",
                    f"algebra of spanning set {tuple(labels[i] for i in combo)!r} leaves the event family"))
                continue
            algebra_total = sum(map(rep.mu_of, atoms), Fraction(0))
            if algebra_total != 1:
                failures.append(WeakHvFailure(
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
    import numpy as np

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
        rows = [
            [_complex_entry(v, f"{field}.matrix[{r}][{c}]") for c, v in enumerate(row)]
            for r, row in enumerate(matrix)
        ]
        projectors.append((label, np.asarray(rows, dtype=np.complex128)))
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
            {"label": label, "matrix": [[pair(z) for z in row] for row in matrix.tolist()]}
            for label, matrix in experiment.projectors
        ],
        "tolerance": experiment.tolerance,
    }


# ---------------------------------------------------------------------------
# Bundled experiments
# ---------------------------------------------------------------------------

def _pauli() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The 2x2 identity and the Pauli matrices x, y and z."""
    import numpy as np

    return (
        np.eye(2, dtype=np.complex128),
        np.array([[0, 1], [1, 0]], dtype=np.complex128),
        np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
        np.array([[1, 0], [0, -1]], dtype=np.complex128),
    )


def _spin_projector(angle: float) -> np.ndarray:
    """Projector onto the +1 eigenspace of the spin observable at an angle in the x-z plane."""
    import numpy as np

    i2, sigma_x, _, sigma_z = _pauli()
    direction = np.sin(angle) * sigma_x + np.cos(angle) * sigma_z
    return (i2 + direction) / 2


def singlet_experiment() -> QuantumExperiment:
    """Two-qubit singlet with measurement angles chosen to land on dyadic tables.

    One side measures at angles 0 and pi/3, the other at pi and 2*pi/3; all
    Born probabilities are multiples of 1/8.
    """
    import numpy as np

    i2 = _pauli()[0]
    psi = np.zeros(4, dtype=np.complex128)
    psi[1] = 1 / np.sqrt(2)
    psi[2] = -1 / np.sqrt(2)
    angles = {"a": 0.0, "a'": np.pi / 3}
    bob = {"b": np.pi, "b'": 2 * np.pi / 3}
    projectors = []
    for label in ("a", "b", "a'", "b'"):
        if label in angles:
            projectors.append((label, np.kron(_spin_projector(angles[label]), i2)))
        else:
            projectors.append((label, np.kron(i2, _spin_projector(bob[label]))))
    return QuantumExperiment(psi, projectors)


def ghz_experiment() -> QuantumExperiment:
    """Three-qubit GHZ state with x and y spin measurements on each qubit."""
    import numpy as np

    i2, sigma_x, sigma_y, _ = _pauli()
    psi = np.zeros(8, dtype=np.complex128)
    psi[0] = 1 / np.sqrt(2)
    psi[7] = 1 / np.sqrt(2)
    px = (i2 + sigma_x) / 2
    py = (i2 + sigma_y) / 2
    slots = {"x1": (px, 0), "y1": (py, 0), "x2": (px, 1), "y2": (py, 1), "x3": (px, 2), "y3": (py, 2)}
    projectors = []
    for label in ("x1", "y1", "x2", "y2", "x3", "y3"):
        local, position = slots[label]
        factors = [local if position == i else i2 for i in range(3)]
        projectors.append((label, np.kron(np.kron(factors[0], factors[1]), factors[2])))
    return QuantumExperiment(psi, projectors)


def orthogonal_pair_experiment() -> QuantumExperiment:
    """A single qubit measured by both eigenprojectors of one observable.

    The two projectors commute and are orthogonal, so they share a context
    and exercise the joint-firing and spanning-set conditions non-vacuously.
    """
    import numpy as np

    psi = np.array([1.0, 0.0], dtype=np.complex128)
    p_up = np.array([[1, 0], [0, 0]], dtype=np.complex128)
    p_down = np.array([[0, 0], [0, 1]], dtype=np.complex128)
    return QuantumExperiment(psi, [("up", p_up), ("down", p_down)])
