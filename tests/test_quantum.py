"""Born-rule ingestion and weak hidden-variable representation checks."""

from __future__ import annotations

import json
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contextuality.catalog import bell_model, ghz_model, hardy_model
from contextuality.classifier import Tier, classify
from contextuality.errors import ContextualityError, SnapError
from contextuality.model import deterministic_model
from contextuality.quantum import (
    QuantumExperiment,
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
from contextuality.wps import WpsRepresentation, build_combinatorial_rep
from conftest import json_paths, mutate


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
            rep.model, rep.points, rep.transfer, rep.sigma_algebras, tampered_mu, rep.combinatorial
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
            tampered = WpsRepresentation(rep.model, rep.points, rep.transfer, rep.sigma_algebras, mu,
                                         rep.combinatorial)
            report = weak_hv_report(tampered, experiment)
            assert [f.condition for f in report.failures] == conditions
            assert report.failures[-1].detail == "spanning set ('up', 'down') atoms sum to 8/7"

    def test_spanning_algebra_outside_the_family_is_reported_without_a_sum(self):
        experiment = orthogonal_pair_experiment()
        rep = build_combinatorial_rep(quantum_to_empirical(experiment))
        atom = rep.event(rep.model.scenario.section({"up": "1", "down": "0"}))
        mu = {event: value for event, value in rep.mu.items() if event != atom}
        tampered = WpsRepresentation(rep.model, rep.points, rep.transfer, rep.sigma_algebras, mu, rep.combinatorial)
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
