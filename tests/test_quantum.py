"""Born-rule ingestion and weak hidden-variable representation checks."""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from contextuality.catalog import bell_model, ghz_model, hardy_model
from contextuality.classifier import Tier, classify
from contextuality.errors import CompatibilityError, ContextualityError, SnapError
from contextuality.model import EmpiricalModel, deterministic_model
from contextuality.quantum import (
    QuantumExperiment,
    _born_values,
    experiment_from_dict,
    experiment_scenario,
    experiment_to_dict,
    ghz_experiment,
    is_weak_hv_representation,
    orthogonal_pair_experiment,
    quantum_to_empirical,
    singlet_experiment,
    snap_to_rational,
    weak_hv_report,
)
from contextuality.serialize import dumps
from contextuality.wps import WpsRepresentation, build_combinatorial_rep
from conftest import (
    NumpyExperiment,
    json_paths,
    mutate,
    numpy_born_values,
    numpy_experiment_scenario,
    numpy_ghz_experiment,
    numpy_orthogonal_pair_experiment,
    numpy_quantum_to_empirical,
    numpy_singlet_experiment,
)


class TestSnapping:
    def test_snaps_to_exact_dyadics(self):
        assert snap_to_rational(0.375) == Fraction(3, 8)
        assert snap_to_rational(0.0) == 0

    def test_rejects_when_no_close_rational(self):
        with pytest.raises(SnapError):
            snap_to_rational(1 / 3 + 1e-5, tolerance=1e-9, denominator_bound=2)

    def test_tight_tolerance_accepts_floating_error(self):
        assert snap_to_rational(1 / 3, denominator_bound=10) == Fraction(1, 3)

    @pytest.mark.parametrize("tolerance, bound, message", [
        (float("nan"), 4096, "snap tolerance must be"),
        (float("inf"), 4096, "snap tolerance must be"),
        (-1.0, 4096, "snap tolerance must be"),
        (True, 4096, "snap tolerance must be"),
        (1e-9, 0, "denominator bound must be"),
        (1e-9, -1, "denominator bound must be"),
    ], ids=["nan", "inf", "negative", "bool", "bound-0", "bound-minus-1"])
    def test_bad_snapping_parameters_rejected(self, tolerance, bound, message):
        # A NaN or infinite tolerance used to accept every snap; a bound below 1
        # raised from inside Fraction.limit_denominator.
        experiment = singlet_experiment()
        rep = build_combinatorial_rep(bell_model())
        with pytest.raises(ValueError, match=message):
            snap_to_rational(0.375, tolerance, bound)
        with pytest.raises(ValueError, match=message):
            quantum_to_empirical(experiment, tolerance, bound)
        with pytest.raises(ValueError, match=message):
            weak_hv_report(rep, experiment, tolerance, bound)


class TestExperimentScenario:
    def test_singlet_contexts_are_the_four_pairs(self):
        scenario = experiment_scenario(singlet_experiment())
        assert scenario.measurements == ("a", "b", "a'", "b'")
        assert scenario.maximal_contexts == bell_model().scenario.maximal_contexts

    def test_ghz_contexts_are_the_eight_triples(self):
        scenario = experiment_scenario(ghz_experiment())
        assert len(scenario.maximal_contexts) == 8
        assert all(len(c) == 3 for c in scenario.maximal_contexts)

    def test_orthogonal_pair_shares_one_context(self):
        scenario = experiment_scenario(orthogonal_pair_experiment())
        assert scenario.maximal_contexts == (("up", "down"),)


class TestQuantumToEmpirical:
    def test_singlet_reproduces_the_bell_tables_exactly(self):
        assert quantum_to_empirical(singlet_experiment()) == bell_model()

    def test_singlet_classifies_probabilistic(self):
        assert classify(quantum_to_empirical(singlet_experiment())).tier is Tier.PROBABILISTIC

    def test_ghz_reproduces_the_parity_tables_and_classifies_strong(self):
        model = quantum_to_empirical(ghz_experiment())
        assert model == ghz_model()
        assert classify(model).tier is Tier.STRONG

    def test_eigenvector_state_gives_a_deterministic_model(self):
        experiment = orthogonal_pair_experiment()
        model = quantum_to_empirical(experiment)
        expected = deterministic_model(
            model.scenario, model.scenario.section({"up": "1", "down": "0"})
        )
        assert model == expected


class TestWeakHvRepresentation:
    def test_bell_rep_against_the_singlet(self):
        rep = build_combinatorial_rep(bell_model())
        assert is_weak_hv_representation(rep, singlet_experiment())

    def test_orthogonal_pair_rep_checks_joint_firing(self):
        experiment = orthogonal_pair_experiment()
        rep = build_combinatorial_rep(quantum_to_empirical(experiment))
        report = weak_hv_report(rep, experiment)
        assert report.ok

    def test_perturbed_value_fails(self):
        rep = build_combinatorial_rep(bell_model())
        target = rep.event(rep.model.scenario.section({"a": "1"}))
        tampered_mu = dict(rep.mu)
        tampered_mu[target] = tampered_mu[target] + Fraction(1, 64)
        tampered = WpsRepresentation(
            rep.model, rep.points, rep.transfer, tampered_mu
        )
        report = weak_hv_report(tampered, singlet_experiment())
        assert not report.ok

    def test_spanning_sum_is_reported_after_an_earlier_failure(self):
        # Raising the atom alone breaks only the spanning set's sum; raising the
        # firing event of 'up' as well adds a born-weight failure before it.
        experiment = orthogonal_pair_experiment()
        rep = build_combinatorial_rep(quantum_to_empirical(experiment))
        scenario = rep.model.scenario
        atom = rep.event(scenario.section({"up": "1", "down": "0"}))
        for raised, conditions in (([atom], ["spanning-classicality"]),
                                   ([rep.event(scenario.section({"up": "1"})), atom],
                                    ["born-weight", "spanning-classicality"])):
            mu = dict(rep.mu)
            for event in raised:
                mu[event] += Fraction(1, 7)
            tampered = WpsRepresentation(rep.model, rep.points, rep.transfer, mu)
            report = weak_hv_report(tampered, experiment)
            assert [f.condition for f in report.failures] == conditions
            assert report.failures[-1].detail == "spanning set ('up', 'down') atoms sum to 8/7"

    def test_spanning_algebra_outside_the_family_is_reported_without_a_sum(self):
        experiment = orthogonal_pair_experiment()
        rep = build_combinatorial_rep(quantum_to_empirical(experiment))
        atom = rep.event(rep.model.scenario.section({"up": "1", "down": "0"}))
        mu = {event: value for event, value in rep.mu.items() if event != atom}
        tampered = WpsRepresentation(rep.model, rep.points, rep.transfer, mu)
        report = weak_hv_report(tampered, experiment)
        assert [str(f) for f in report.failures] == [
            "[spanning-classicality] algebra of spanning set ('up', 'down') leaves the event family"]

    def test_rep_of_a_different_model_fails(self):
        rep = build_combinatorial_rep(hardy_model())
        report = weak_hv_report(rep, singlet_experiment())
        assert not report.ok
        assert report.failures[0].condition == "model-match"

    def test_ghz_rep_against_the_ghz_experiment(self):
        rep = build_combinatorial_rep(ghz_model())
        assert is_weak_hv_representation(rep, ghz_experiment())


class TestExperimentValidation:
    def test_unnormalized_state_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            QuantumExperiment([1.0, 1.0], [("p", np.eye(2))])

    def test_non_idempotent_projector_rejected(self):
        with pytest.raises(ValueError, match="idempotent"):
            QuantumExperiment([1.0, 0.0], [("p", np.array([[0.5, 0.5], [0.5, 0.8]]))])

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -float("inf"), -1, True],
                             ids=["nan", "inf", "minus-inf", "negative", "bool"])
    def test_bad_tolerance_rejected(self, tolerance):
        # The second matrix is no projector; NaN or True used to let it through.
        projectors = [("p", [[1, 0], [0, 0]]), ("q", [[0.5, 0.5], [0.5, 0.9]])]
        with pytest.raises(ValueError, match="tolerance must be"):
            QuantumExperiment([1, 0], projectors, tolerance)

    def test_overflowing_projector_rejected(self):
        # p @ p - p overflows to NaN, which a `> tolerance` check let through.
        huge = [[1e200, 1e200 + 1e200j], [1e200 - 1e200j, 1e200]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="projector 'p' is not idempotent"):
                QuantumExperiment([1, 0], [("p", huge)])

    def test_state_accepts_exact_string_pairs(self):
        q = QuantumExperiment([("1", "0"), ("0", "0")], [("p", np.array([[1, 0], [0, 0]]))])
        assert q.dimension == 2


_SINGLET_DOCUMENT = json.dumps(experiment_to_dict(singlet_experiment()))
_SINGLET_PATHS = tuple(json_paths(json.loads(_SINGLET_DOCUMENT)))


class TestExperimentDocumentFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_singlet_document_raises_only_library_errors(self, data):
        document = mutate(json.loads(_SINGLET_DOCUMENT), data, _SINGLET_PATHS)
        try:
            quantum_to_empirical(experiment_from_dict(document))
        except ContextualityError:
            pass


# ---------------------------------------------------------------------------
# The plain-Python numerics against the numpy oracle
# ---------------------------------------------------------------------------

BUNDLED = {
    "singlet": (singlet_experiment, numpy_singlet_experiment),
    "ghz": (ghz_experiment, numpy_ghz_experiment),
    "orthogonal-pair": (orthogonal_pair_experiment, numpy_orthogonal_pair_experiment),
}

# sha256 of each bundled experiment's document as ``serialize.dumps`` writes it.
DOCUMENT_SHA256 = {
    "singlet": "2474c1f0b9642caf2a303bba5a174feca0565efc656cbc92f6eec0fac464b91e",
    "ghz": "c7f4ce4c8cd92a542e0e0accf1f3470a8eda4e4502c7184a4d773d476ec3aca5",
    "orthogonal-pair": "40c9bda62fd34b9ca45abbb41e5aeca35d295c204fbaeb60dc5df455065c5003",
}


def assert_matches_oracle(experiment: QuantumExperiment, oracle: NumpyExperiment):
    """Same scenario, raw Born values within 1e-12, and the same model or the same error; returns it."""
    scenario = experiment_scenario(experiment)
    assert scenario == numpy_experiment_scenario(oracle)
    values, expected = _born_values(experiment, scenario), numpy_born_values(oracle, scenario)
    assert list(values) == list(expected)
    for context, amplitudes in values.items():
        assert list(amplitudes) == list(expected[context])
        for s, amplitude in amplitudes.items():
            assert abs(amplitude - expected[context][s]) <= 1e-12, (context, s)
    outcomes = []
    for ingest, source in ((quantum_to_empirical, experiment), (numpy_quantum_to_empirical, oracle)):
        try:
            outcomes.append(ingest(source))
        except (SnapError, CompatibilityError) as exc:
            # A SnapError quotes the float that missed, which may differ in its last bits.
            outcomes.append((type(exc), None if isinstance(exc, SnapError) else str(exc)))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


@st.composite
def local_spin_experiments(draw):
    """(state, projectors) of 1-3 qubits, each measured along one or two Bloch directions."""
    qubits = draw(st.integers(1, 3), label="qubits")
    # Exact angles land many Born values on small dyadics, so both sides
    # snap to a model; arbitrary ones exercise the raw values.
    exact = draw(st.booleans(), label="exact")
    if exact:
        theta = st.sampled_from([0.0, math.pi / 3, math.pi / 2, 2 * math.pi / 3, math.pi])
        phi = st.sampled_from([0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
    else:
        theta, phi = st.floats(0, math.pi), st.floats(0, 2 * math.pi)
    projectors = []
    for qubit in range(qubits):
        for k in range(draw(st.integers(1, 2), label="directions")):
            projectors.append((f"q{qubit}{'ab'[k]}", local_projector(draw(theta), draw(phi), qubit, qubits)))
    return draw(random_state(qubits, exact), label="state"), projectors


def local_projector(theta: float, phi: float, qubit: int, qubits: int) -> list[list[complex]]:
    """(I + n.sigma) / 2 on one qubit for the Bloch direction (theta, phi), identity on the others."""
    n = (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))
    local = np.array([[1 + n[2], n[0] - 1j * n[1]], [n[0] + 1j * n[1], 1 - n[2]]]) / 2
    matrix = np.eye(1)
    for position in range(qubits):
        matrix = np.kron(matrix, local if position == qubit else np.eye(2))
    return matrix.tolist()


def random_state(qubits: int, exact: bool):
    d = 2 ** qubits
    if exact:
        # A basis state, the uniform superposition, or (|0...0> + e^{i k pi/2} |1...1>) / sqrt(2).
        basis = st.integers(0, d - 1).map(lambda k: [complex(i == k) for i in range(d)])
        uniform_state = st.just([complex(1 / math.sqrt(d))] * d)
        cat = st.sampled_from([1, 1j, -1, -1j]).map(
            lambda phase: [1 / math.sqrt(2)] + [0j] * (d - 2) + [phase / math.sqrt(2)] if d > 1 else [1 + 0j])
        return st.one_of(basis, uniform_state, cat)
    part = st.floats(-1, 1)
    return (st.lists(st.tuples(part, part), min_size=d, max_size=d)
            .map(lambda pairs: [complex(*pair) for pair in pairs])
            .filter(lambda v: sum(abs(z) ** 2 for z in v) > 0.01)
            .map(lambda v: [z / math.sqrt(sum(abs(w) ** 2 for w in v)) for z in v]))


class TestNumpyOracle:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_experiments_match_the_oracle(self, name):
        build, oracle = BUNDLED[name]
        assert isinstance(assert_matches_oracle(build(), oracle()), EmpiricalModel)

    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_documents_are_byte_identical_to_the_oracle(self, name):
        build, oracle = BUNDLED[name]
        document = dumps(experiment_to_dict(build()))
        assert document == dumps(experiment_to_dict(oracle()))
        assert hashlib.sha256(document.encode()).hexdigest() == DOCUMENT_SHA256[name]

    def test_entries_are_tuples_of_complex(self):
        experiment = ghz_experiment()
        assert type(experiment.state) is tuple and all(type(z) is complex for z in experiment.state)
        matrix = experiment.projector("y3")
        assert type(matrix) is tuple and len(matrix) == 8
        assert all(type(row) is tuple and all(type(z) is complex for z in row) for row in matrix)

    @settings(max_examples=80, deadline=None)
    @given(case=local_spin_experiments())
    # Directions 1e-9 apart commute only within the tolerance, so they share a
    # context, and the Born value depends on the order of the projector product.
    @example(case=([1j / math.sqrt(2), 1 / math.sqrt(2)],
                   [("q0a", local_projector(0.0, 0.0, 0, 1)), ("q0b", local_projector(1e-9, 0.0, 0, 1))]))
    def test_random_local_spin_experiments_match_the_oracle(self, case):
        state, projectors = case
        assert_matches_oracle(QuantumExperiment(state, projectors), NumpyExperiment(state, projectors))


NAN, INF = float("nan"), float("inf")
HUGE = [[1e200, 1e200 + 1e200j], [1e200 - 1e200j, 1e200]]

# Each invalid experiment as (state, projectors): the parent's checks and messages.
INVALID = {
    "unnormalized": ([1.0, 1.0], [("p", [[1, 0], [0, 0]])]),
    "unnormalized-overflow": ([1e200, 0], [("p", [[1, 0], [0, 0]])]),
    "nan-state": ([NAN, 0], [("p", [[1, 0], [0, 0]])]),
    "non-hermitian": ([1, 0], [("p", [[1, 1], [0, 0]])]),
    "non-idempotent": ([1, 0], [("p", [[0.5, 0.5], [0.5, 0.8]])]),
    "wrong-dimension": ([1, 0], [("p", [[1, 0, 0], [0, 0, 0], [0, 0, 0]])]),
    "rectangular": ([1, 0], [("p", [[1, 0, 0], [0, 0, 0]])]),
    "flat": ([1, 0], [("p", [1, 0])]),
    "cube": ([1, 0], [("p", [[[1, 0], [0, 0]], [[0, 0], [0, 0]]])]),
    "nan-diagonal": ([1, 0], [("p", [[NAN, 0], [0, 0]])]),
    "nan-symmetric": ([1, 0], [("p", [[1, NAN], [NAN, 0]])]),
    "inf-entry": ([1, 0], [("p", [[INF, 0], [0, 0]])]),
    "overflow": ([1, 0], [("p", HUGE)]),
    # Both parts of p - p^H are finite, but its modulus is too large for abs.
    "modulus-overflow": ([1, 0], [("p", [[0, 1.5e308 + 1.5e308j], [0, 0]])]),
    "second-projector": ([1, 0], [("p", [[1, 0], [0, 0]]), ("q", [[0.5, 0.5], [0.5, 0.9]])]),
    "duplicate-label": ([1, 0], [("p", [[1, 0], [0, 0]]), ("p", [[0, 0], [0, 1]])]),
    "no-projector": ([1, 0], []),
}


def raised(build) -> tuple[type, str] | None:
    try:
        build()
    except Exception as exc:
        return type(exc), str(exc)
    return None


class TestValidationParity:
    @pytest.mark.parametrize("form", ["lists", "arrays"])
    @pytest.mark.parametrize("case", INVALID)
    def test_invalid_experiment_raises_as_the_oracle(self, case, form):
        state, projectors = INVALID[case]
        if form == "arrays":
            state = np.asarray(state, dtype=np.complex128)
            projectors = [(label, np.asarray(matrix, dtype=np.complex128)) for label, matrix in projectors]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expected = raised(lambda: NumpyExperiment(state, projectors))
            assert expected is not None and expected[0] is ValueError
            assert raised(lambda: QuantumExperiment(state, projectors)) == expected
