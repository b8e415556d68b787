"""Serialization round trips, exports, and the command-line interface."""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from contextuality import exports, feasibility, wps
from contextuality.catalog import (
    bell_model,
    catalog,
    entry,
    ghz_model,
    hardy_model,
    perturbed_model,
    pr_box_model,
    random_deterministic_mixture,
    three_party_scenario,
    triangle_scenario,
    two_party_scenario,
)
from contextuality.cli import main
from contextuality.classifier import classify
from contextuality.dutchbook import convexity_hierarchy, find_dutch_book
from contextuality.errors import EnumerationCapError, SchemaError
from contextuality.exports import export_bundle_diagram, export_nerve
from contextuality.extensions import EnvelopeExtension, ExplicitExtension
from contextuality.model import check_model
from contextuality.quantum import experiment_from_dict, experiment_to_dict, singlet_experiment
from contextuality.scenario import sections_over
from contextuality.serialize import (
    certificate_from_dict,
    certificate_to_dict,
    dumps,
    extension_from_dict,
    extension_to_dict,
    loads,
    model_from_dict,
    model_to_dict,
    scenario_from_dict,
    scenario_to_dict,
    witness_from_dict,
    witness_to_dict,
)
from contextuality.classifier import Tier
from contextuality.violations import (
    MarginalizationFailure,
    ViolationKind,
    ViolationWitness,
    additivity_violation,
    has_classical_extension,
    logical_subadditivity_violation,
    marginalization_failure,
    strong_subadditivity_violation,
    tier_violation_witness,
    verify_witness,
)
from contextuality.wps import build_combinatorial_rep
from conftest import json_paths, mutate, noisy_cycle


class TestRoundTrips:
    def test_scenario_round_trip(self):
        scenario = bell_model().scenario
        assert scenario_from_dict(scenario_to_dict(scenario)) == scenario

    @pytest.mark.parametrize("name", ["bell", "hardy", "pr-box", "specker-triangle", "ghz"])
    def test_model_round_trip(self, name):
        model = entry(name).model
        again = model_from_dict(loads(dumps(model_to_dict(model))))
        assert again == model

    def test_certificate_round_trip(self):
        rep = build_combinatorial_rep(pr_box_model())
        certificate = find_dutch_book(rep)
        again = certificate_from_dict(rep, certificate_to_dict(rep, certificate))
        assert again.stakes == certificate.stakes
        assert again.loss_bound == certificate.loss_bound

    def test_witness_round_trip(self):
        rep = build_combinatorial_rep(hardy_model())
        witness = tier_violation_witness(rep, Tier.LOGICAL)
        again = witness_from_dict(rep, witness_to_dict(rep, witness))
        assert again.kind == witness.kind
        assert again.collection == witness.collection
        assert again.defect == witness.defect
        assert verify_witness(rep, again)

    @pytest.mark.parametrize("name", ["bell", "ghz"])
    @pytest.mark.parametrize("extension_kind", ["monotonic", "classical"])
    def test_extension_round_trip(self, name, extension_kind):
        rep = build_combinatorial_rep(entry(name).model)
        extension = ExplicitExtension(rep, rep.mu)
        document = loads(dumps(extension_to_dict(rep, extension, extension_kind)))
        assert [item["event"] for item in document["values"]] == [
            list(rep.points_of(e)) for e in rep.sorted_events(rep.mu)
        ]
        again, kind = extension_from_dict(rep, document)
        assert kind == extension_kind
        assert again.values == extension.values

    def test_experiment_round_trip(self):
        experiment = singlet_experiment()
        again = experiment_from_dict(experiment_to_dict(experiment))
        from contextuality.quantum import quantum_to_empirical
        assert quantum_to_empirical(again) == bell_model()


class TestSchemaErrors:
    def test_float_probability_rejected(self):
        document = model_to_dict(bell_model())
        document["tables"]["a,b"]["0,0"] = 0.5
        with pytest.raises(SchemaError, match="strings"):
            model_from_dict(document)

    def test_missing_field_named(self):
        with pytest.raises(SchemaError, match="missing field"):
            model_from_dict({"schema_version": 1, "kind": "empirical-model"})

    def test_bad_section_key_located(self):
        document = model_to_dict(bell_model())
        document["tables"]["a,b"]["0,7"] = document["tables"]["a,b"].pop("0,0")
        with pytest.raises(SchemaError, match="a,b"):
            model_from_dict(document)

    def test_wrong_kind_rejected(self):
        document = scenario_to_dict(bell_model().scenario)
        with pytest.raises(SchemaError, match="kind"):
            model_from_dict(document)


class TestExports:
    def test_bundle_is_deterministic(self):
        a_text, a_data = export_bundle_diagram(hardy_model())
        b_text, b_data = export_bundle_diagram(hardy_model())
        assert a_text == b_text and a_data == b_data

    def test_pr_box_bundle_has_two_support_edges_per_context(self):
        _, data = export_bundle_diagram(pr_box_model())
        per_context: dict[tuple, int] = {}
        for fiber in data["fibers"]:
            key = tuple(fiber["context"])
            per_context[key] = per_context.get(key, 0) + 1
        assert set(per_context.values()) == {2}

    def test_deterministic_model_bundle_is_one_global_loop(self):
        from contextuality.model import deterministic_model
        scenario = bell_model().scenario
        g = scenario.section({"a": "0", "b": "1", "a'": "0", "b'": "1"})
        _, data = export_bundle_diagram(deterministic_model(scenario, g))
        assert len(data["fibers"]) == len(scenario.maximal_contexts)
        for fiber in data["fibers"]:
            for m, o in fiber["section"].items():
                assert g.value(m) == o

    def test_nerve_counts_its_candidates_before_listing_them(self, monkeypatch):
        # GHZ has two positive vertices over each of its six measurements:
        # 3^6 - 1 = 728 candidate simplices, counted before any is listed.
        rep = build_combinatorial_rep(ghz_model())
        _, data = export_nerve(rep, cap=728)
        assert 0 < len(data["simplices"]) <= 728
        monkeypatch.setattr(exports, "glue", None)  # listing any simplex would call it
        with pytest.raises(EnumerationCapError, match="^enumerating 728 nerve simplices exceeds the cap of 727$"):
            export_nerve(rep, cap=727)

    def test_nerve_lists_the_filtered_combinations_in_their_order(self):
        # Oracle: every combination of the positive vertices, by size, kept
        # when its measurements are distinct and its events intersect.
        models = [hardy_model(), ghz_model(),
                  random_deterministic_mixture(triangle_scenario(), random.Random(5), 2),
                  random_deterministic_mixture(two_party_scenario(), random.Random(6), 3)]
        for model in models:
            rep = build_combinatorial_rep(model)
            vertices = [s for m in model.scenario.measurements for s in sections_over(model.scenario, (m,))
                        if rep.in_sigma(rep.event(s)) and rep.mu_of(rep.event(s)) > 0]
            expected = []
            for size in range(1, len(vertices) + 1):
                for combo in itertools.combinations(vertices, size):
                    events = [rep.event(s) for s in combo]
                    if (len({s.domain[0] for s in combo}) == size
                            and functools.reduce(lambda x, y: x & y, events)):
                        expected.append([f"{s.domain[0]}={s.values[0]}" for s in combo])
            _, data = export_nerve(rep)
            assert [s["vertices"] for s in data["simplices"]] == expected

    def test_hardy_nerve_has_the_stranded_edge(self):
        rep = build_combinatorial_rep(hardy_model())
        _, data = export_nerve(rep)
        simplices = {tuple(s["vertices"]): s for s in data["simplices"]}
        edge = simplices[("a=0", "b=0")]
        assert edge["co_measurable"] and Fraction(edge["weight"]) > 0
        # No full-size simplex containing the edge has all its co-measurable
        # faces in the support.
        tops = [s for s in data["simplices"]
                if s["dimension"] == 3 and {"a=0", "b=0"} <= set(s["vertices"])]
        assert tops, "the nerve lists full-dimensional simplices"
        for top in tops:
            names = top["vertices"]
            faces = [
                simplices[tuple(sorted((x, y), key=names.index))]
                for i, x in enumerate(names) for y in names[i + 1:]
                if tuple(sorted((x, y), key=names.index)) in simplices
            ]
            co_measurable_faces = [f for f in faces if f["co_measurable"]]
            assert any(Fraction(f["weight"]) == 0 for f in co_measurable_faces)


class TestCli:
    def test_classify_bell(self, capsys):
        code = main(["classify", "bell"])
        out = capsys.readouterr().out
        assert code == 0
        assert "tier: Probabilistic" in out
        assert "dutch-bookable: yes" in out

    def test_classify_structured(self, capsys):
        code = main(["classify", "pr-box", "--format", "structured"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["tier"] == "Strong"
        assert data["additivity_hierarchy"]["strong_subadditivity_violation"] is True

    def test_classify_model_file(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(dumps(model_to_dict(hardy_model())))
        assert main(["classify", str(path)]) == 0
        assert "tier: Logical" in capsys.readouterr().out

    def test_classify_without_a_model_exits_2(self, capsys):
        assert main(["classify"]) == 2
        assert capsys.readouterr().err == "error: supply a model: a catalog name or a path\n"

    def test_classify_bad_file_exits_2(self, tmp_path, capsys):
        document = model_to_dict(bell_model())
        document["tables"]["a,b"]["0,0"] = "3/8"
        document["tables"]["a,b"]["0,1"] = "1/8"
        path = tmp_path / "bad.json"
        path.write_text(dumps(document))
        code = main(["classify", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "no-signaling" in err

    @pytest.mark.parametrize("argv", [
        ["classify", "{directory}"],
        ["verify", "bell", "--file", "{directory}"],
        ["classify", "bell", "--out", "{directory}"],
        ["classify", "{utf16}"],
        ["verify", "bell", "--file", "{utf16}"],
    ], ids=["model-directory", "file-directory", "out-directory", "model-utf16", "file-utf16"])
    def test_unreadable_path_exits_2(self, argv, tmp_path, capsys):
        # A directory where a file is read or written, and a document that is not UTF-8.
        utf16 = tmp_path / "utf16.json"
        utf16.write_bytes(dumps(model_to_dict(bell_model())).encode("utf-16"))
        paths = {"directory": tmp_path, "utf16": utf16}
        assert main([arg.format(**paths) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command, option, value", [
        ("classify", "--snap-tol", "nan"),
        ("classify", "--snap-tol", "inf"),
        ("classify", "--snap-tol", "-1"),
        ("classify", "--denom-bound", "0"),
        ("classify", "--denom-bound", "-1"),
        ("verify", "--snap-tol", "nan"),
    ])
    def test_bad_snapping_flags_exit_2(self, command, option, value, tmp_path, capsys):
        # NaN and inf used to accept every snap, and a bound below 1 ended in a traceback.
        document = tmp_path / "singlet.json"
        document.write_text(json.dumps(experiment_to_dict(singlet_experiment())))
        argv = ["classify", str(document)] if command == "classify" else ["verify", "bell", "--file", str(document)]
        with pytest.raises(SystemExit) as exit_:
            main([*argv, option, value])
        assert exit_.value.code == 2
        assert f"argument {option}: " in capsys.readouterr().err

    def test_cap_exceeded_exits_3(self, capsys):
        assert main(["classify", "ghz", "--cap", "10"]) == 3

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("argv", [["classify", "bell"], ["witness", "bell"], ["dutchbook", "bell"],
                                      ["verify", "bell", "--file", "cert.json"], ["export", "bell"]])
    def test_a_cap_below_1_is_a_usage_error(self, argv, value, capsys):
        # A cap of -1 used to run and exit 3 as if an enumeration had exceeded it.
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "--cap", value])
        assert exit_.value.code == 2
        assert f"argument --cap: expected an integer of at least 1, got {value!r}" in capsys.readouterr().err

    def test_a_cap_of_1_is_accepted(self, capsys):
        assert main(["classify", "bell", "--cap", "1"]) == 3
        assert capsys.readouterr().err == "error: enumerating 16 global sections exceeds the cap of 1\n"

    @pytest.mark.parametrize("name, cap", [("ghz", "64"), ("ghz", "100"), ("ghz", "255"),
                                           ("specker-triangle", "8"), ("specker-triangle", "15")])
    def test_classify_cap_bounds_the_global_sections(self, name, cap, capsys):
        # classify builds no representation, so its 2^|Y| algebra members (GHZ
        # 256 against 64 global sections, Specker's triangle 16 against 8) no
        # longer count against --cap: the verdict is the default cap's.
        assert main(["classify", name]) == 0
        default = capsys.readouterr().out
        assert main(["classify", name, "--cap", cap]) == 0
        assert capsys.readouterr().out == default

    @pytest.mark.parametrize("argv", [["witness", "ghz"], ["dutchbook", "ghz"], ["export", "ghz", "--kind", "nerve"]])
    def test_commands_that_build_the_representation_keep_its_cap(self, argv, capsys):
        assert main([*argv, "--cap", "100"]) == 3
        assert capsys.readouterr().err == "error: enumerating 256 algebra members exceeds the cap of 100\n"

    @pytest.mark.parametrize("command", ["witness", "dutchbook"])
    def test_representation_cap_names_the_global_sections(self, command, capsys):
        # The representation's points are the global sections, and its cap says so as classify's does.
        assert main([command, "ghz", "--cap", "63"]) == 3
        assert capsys.readouterr().err == "error: enumerating 64 global sections exceeds the cap of 63\n"

    @pytest.mark.parametrize("name", ["bell", "hardy", "pr-box", "specker-triangle", "ghz", "singlet", "cycle-17"])
    def test_classify_builds_no_representation(self, name, monkeypatch, tmp_path, capsys):
        # Every line of classify is read from the tier: on the combinatorial
        # representation the null-cover flags are the support cover's.
        builds = []
        core = wps.build_combinatorial_rep

        def counting(*args, **kwargs):
            builds.append(args)
            return core(*args, **kwargs)

        monkeypatch.setattr(wps, "build_combinatorial_rep", counting)
        documents = {"singlet": lambda: experiment_to_dict(singlet_experiment()),
                     "cycle-17": lambda: model_to_dict(noisy_cycle(17, Fraction(1, 8)))}
        if name in documents:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(documents[name]()))
            name = str(path)
        assert main(["witness", "pr-box"]) == 0 and len(builds) == 1  # the counter sees the CLI's builds
        assert main(["classify", name]) == 0
        assert len(builds) == 1
        assert "tier: " in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["classify", "verify"])
    def test_deeply_nested_document_exits_2(self, command, tmp_path, capsys):
        # json's decoder recurses once per level; past the interpreter's limit it
        # raised RecursionError, which ended in a traceback and exit code 1.
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        argv = ["classify", str(path)] if command == "classify" else ["verify", "bell", "--file", str(path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: not valid JSON: nested too deeply\n"

    def test_nerve_over_its_cap_exits_3(self, tmp_path, capsys):
        assert main(["export", "ghz", "--kind", "nerve", "--cap", "100"]) == 3
        assert capsys.readouterr().err.startswith("error: ")
        # The noisy 6-cycle's representation fits under 700; its 3^6 - 1 = 728
        # candidate simplices do not, and none of them is listed.
        path = tmp_path / "cycle.json"
        path.write_text(dumps(model_to_dict(noisy_cycle(6, Fraction(1, 8)))))
        assert main(["export", str(path), "--kind", "nerve", "--cap", "700"]) == 3
        assert capsys.readouterr().err == "error: enumerating 728 nerve simplices exceeds the cap of 700\n"
        assert main(["export", str(path), "--kind", "nerve", "--cap", "728", "--out", str(tmp_path / "nerve")]) == 0

    def test_cap_counts_the_points_not_every_domain(self, tmp_path, capsys):
        # 2^8 = 256 global sections fit under the cap; the 3^8 sections
        # across all domains do not, and none of them is enumerated.
        path = tmp_path / "cycle.json"
        path.write_text(dumps(model_to_dict(noisy_cycle(8, Fraction(1, 8)))))
        assert main(["classify", str(path)]) == 0
        default = capsys.readouterr().out
        assert main(["classify", str(path), "--cap", "300"]) == 0
        assert capsys.readouterr().out == default

    def test_witness_pr_box_strong(self, capsys):
        code = main(["witness", "pr-box", "--tier", "strong"])
        out = capsys.readouterr().out
        assert code == 0
        assert "defect: 1" in out

    def test_witness_noncontextual_exits_2(self, monkeypatch, tmp_path, capsys):
        # classify's verdict refuses the model before any representation is built.
        from contextuality.model import deterministic_model
        scenario = bell_model().scenario
        g = scenario.section({"a": "0", "b": "0", "a'": "0", "b'": "0"})
        builds = []
        build = wps.build_combinatorial_rep

        def counting(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(wps, "build_combinatorial_rep", counting)
        for name, model in (("det", deterministic_model(scenario, g)), ("cycle6", noisy_cycle(6, Fraction(1, 8)))):
            path = tmp_path / f"{name}.json"
            path.write_text(dumps(model_to_dict(model)))
            assert main(["witness", str(path)]) == 2
            assert capsys.readouterr().err == "error: no violation witness exists for tier Noncontextual\n"
        assert builds == []

    @pytest.mark.parametrize("n, tier, message", [
        (17, "probabilistic", "the model admits a global distribution"),
        (18, "strong", "the model is not strongly contextual"),
    ])
    def test_witness_tier_refusal_builds_nothing(self, n, tier, message, monkeypatch, tmp_path, capsys):
        # The tier's question refuses the Noncontextual noisy cycle before any of its 2^n points is built.
        builds = []
        build = wps.build_combinatorial_rep

        def counting(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(wps, "build_combinatorial_rep", counting)
        path = tmp_path / f"cycle{n}.json"
        path.write_text(dumps(model_to_dict(noisy_cycle(n, Fraction(1, 8)))))
        assert main(["witness", str(path), "--tier", tier]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert builds == []

    def test_dutchbook_noncontextual_builds_nothing(self, monkeypatch, tmp_path, capsys):
        # A model has a book exactly when it is contextual, so classify's verdict answers before
        # any point is built, and --cap bounds only the global sections (the mixture's 64, not its
        # 256 algebra members).
        builds = []
        build = wps.build_combinatorial_rep

        def counting(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(wps, "build_combinatorial_rep", counting)
        mixture = random_deterministic_mixture(three_party_scenario(), random.Random(37))
        for name, model, cap in (("cycle17", noisy_cycle(17, Fraction(1, 8)), []), ("mixture", mixture, []),
                                 ("mixture", mixture, ["--cap", "100"])):
            path = tmp_path / f"{name}.json"
            path.write_text(dumps(model_to_dict(model)))
            assert main(["dutchbook", str(path), *cap]) == 0
            assert capsys.readouterr().out == (f"model: {name}\nno dutch book: the set function is a convex "
                                               "combination of point functionals\n")
        assert builds == []

    def test_dutchbook_noncontextual_structured_is_json(self, tmp_path, capsys):
        path = tmp_path / "cycle17.json"
        path.write_text(dumps(model_to_dict(noisy_cycle(17, Fraction(1, 8)))))
        want = {"model": "cycle17", "tier": "Noncontextual", "dutch_book": None}
        assert main(["dutchbook", str(path), "--format", "structured"]) == 0
        assert json.loads(capsys.readouterr().out) == want
        out = tmp_path / "book.json"
        assert main(["dutchbook", str(path), "--format", "structured", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text()) == want

    def test_dutchbook_prints_payoffs(self, capsys):
        code = main(["dutchbook", "pr-box"])
        out = capsys.readouterr().out
        assert code == 0
        assert "guaranteed loss: 1" in out
        assert "worst case: -1" in out

    def test_verify_certificate_file(self, tmp_path, capsys):
        rep = build_combinatorial_rep(pr_box_model())
        certificate = find_dutch_book(rep)
        path = tmp_path / "cert.json"
        path.write_text(dumps(certificate_to_dict(rep, certificate)))
        assert main(["verify", "pr-box", "--file", str(path)]) == 0

    def test_verify_tampered_certificate_exits_2(self, tmp_path, capsys):
        rep = build_combinatorial_rep(pr_box_model())
        certificate = find_dutch_book(rep)
        document = certificate_to_dict(rep, certificate)
        document["stakes"][0]["stake"] = "1"
        path = tmp_path / "cert.json"
        path.write_text(dumps(document))
        assert main(["verify", "pr-box", "--file", str(path)]) == 2

    @pytest.mark.parametrize("document", [
        {"kind": "dutch-book-certificate", "stakes": 5, "loss_bound": "1"},
        {"kind": "dutch-book-certificate", "stakes": [5], "loss_bound": "1"},
        {"kind": "violation-witness", "violation": "MonotonicAdditivity", "collection": [],
         "defect": "1", "support": {}},
    ], ids=["stakes-not-a-list", "stake-not-an-object", "support-without-context"])
    def test_verify_malformed_document_exits_2(self, document, tmp_path, capsys):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps({"schema_version": 1, **document}))
        assert main(["verify", "bell", "--file", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("field, value", [
        ("section", ["0"]),
        ("extension_kind", ["monotone-envelope"]),
        ("extension_kind", None),
    ], ids=["section-shorter-than-context", "extension-kind-not-a-string", "extension-kind-missing"])
    def test_verify_witness_with_malformed_support_exits_2(self, field, value, tmp_path, capsys):
        # A value of None drops the field.
        rep = build_combinatorial_rep(bell_model())
        document = witness_to_dict(rep, tier_violation_witness(rep, Tier.PROBABILISTIC))
        path = tmp_path / "witness.json"
        path.write_text(dumps(document))
        assert main(["verify", "bell", "--file", str(path)]) == 0
        capsys.readouterr()
        if value is None:
            del document["support"][field]
        else:
            document["support"][field] = value
        path.write_text(dumps(document))
        assert main(["verify", "bell", "--file", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"support.{field}" in err

    @pytest.mark.parametrize("name", ["bell", "singlet"])
    def test_verify_genuine_additivity_witness(self, name, tmp_path, capsys):
        if name == "singlet":
            name = str(tmp_path / "singlet.json")
            (tmp_path / "singlet.json").write_text(json.dumps(experiment_to_dict(singlet_experiment())))
        out = tmp_path / "witness.json"
        assert main(["witness", name, "--format", "structured", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["violation"] == "MonotonicAdditivity"
        assert main(["verify", name, "--file", str(out)]) == 0
        assert "witness verified" in capsys.readouterr().out

    @pytest.mark.parametrize("field, value", [
        ("context", ["a", "a'"]),
        ("context", ["a", "b"]),
        ("section", ["1", "1"]),
    ], ids=["not-a-context", "another-context", "another-section"])
    def test_verify_witness_whose_support_misses_the_collection_exits_2(self, field, value, tmp_path, capsys):
        # The edited record still parses, and the collection and defect are
        # unchanged; only the record no longer names their section.
        rep = build_combinatorial_rep(bell_model())
        document = witness_to_dict(rep, tier_violation_witness(rep, Tier.PROBABILISTIC))
        assert document["support"][field] != value
        document["support"][field] = value
        path = tmp_path / "witness.json"
        path.write_text(dumps(document))
        assert main(["verify", "bell", "--file", str(path)]) == 2
        assert capsys.readouterr().err == "witness failed re-verification\n"

    @staticmethod
    def bell_additivity_document():
        rep = build_combinatorial_rep(bell_model())
        return witness_to_dict(rep, tier_violation_witness(rep, Tier.PROBABILISTIC))

    @pytest.mark.parametrize("drop", [("support",), ("support", "certificate")], ids=["support", "certificate"])
    def test_additivity_witness_without_its_certificate_exits_2(self, drop, tmp_path, capsys):
        document = self.bell_additivity_document()
        target = document
        for key in drop[:-1]:
            target = target[key]
        del target[drop[-1]]
        path = tmp_path / "witness.json"
        path.write_text(dumps(document))
        assert main(["verify", "bell", "--file", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: missing field {drop[-1]!r}")

    def test_additivity_witness_with_a_dropped_coefficient_exits_2(self, tmp_path, capsys):
        document = self.bell_additivity_document()
        del document["support"]["certificate"][-1]
        path = tmp_path / "witness.json"
        path.write_text(dumps(document))
        assert main(["verify", "bell", "--file", str(path)]) == 2
        assert capsys.readouterr().err == "witness failed re-verification\n"

    def test_additivity_witness_with_a_flipped_coefficient_fails(self):
        rep = build_combinatorial_rep(bell_model())
        document = self.bell_additivity_document()
        coefficients = document["support"]["certificate"]
        assert verify_witness(rep, witness_from_dict(rep, document))
        flipped = 0
        for i, value in enumerate(coefficients):
            if value == "0":
                continue
            tampered = json.loads(json.dumps(document))
            tampered["support"]["certificate"][i] = str(-Fraction(value))
            assert not verify_witness(rep, witness_from_dict(rep, tampered)), i
            flipped += 1
        assert flipped == 6

    @pytest.mark.parametrize("certificate", ["none", "bell's"])
    def test_forged_witness_for_a_noncontextual_model_exits_2(self, certificate, tmp_path, capsys):
        # noisy_cycle(4, 1/2) is Noncontextual, yet its envelope fails a marginal by -3/8.
        model = noisy_cycle(4, Fraction(1, 2))
        assert classify(model).tier is Tier.NONCONTEXTUAL
        rep = build_combinatorial_rep(model)
        record, parts, value = marginalization_failure(rep, EnvelopeExtension(rep))
        assert isinstance(record, MarginalizationFailure) and value == Fraction(-3, 8)
        document = witness_to_dict(rep, ViolationWitness(ViolationKind.MONOTONIC_ADDITIVITY, parts, value, record))
        if certificate == "bell's":
            # Bell's certificate has one coefficient for each of the 4-cycle's 16 rows too.
            document["support"]["certificate"] = self.bell_additivity_document()["support"]["certificate"]
        assert len(document["support"].get("certificate", [])) == (16 if certificate == "bell's" else 0)
        model_path, witness_path = tmp_path / "cycle4.json", tmp_path / "witness.json"
        model_path.write_text(dumps(model_to_dict(model)))
        witness_path.write_text(dumps(document))
        assert main(["verify", str(model_path), "--file", str(witness_path)]) == 2
        err = capsys.readouterr().err
        assert err == ("error: missing field 'certificate' (at support)\n" if certificate == "none"
                       else "witness failed re-verification\n")

    @pytest.mark.parametrize("base, path, value", [
        ("bell", ("scenario", "maximal_contexts"), [5]),
        ("specker-triangle", ("scenario", "maximal_contexts"), ["ab", "ac", "bc"]),
        ("singlet", ("state",), 5),
        ("singlet", ("projectors",), [5]),
        ("singlet", ("projectors", 0, "matrix"), 5),
        ("singlet", ("projectors", 0, "matrix", 1), [["0", "0"]]),
        ("singlet", ("tolerance",), "x"),
        ("singlet", ("projectors", 0, "label"), "a,x"),
        ("singlet", ("projectors", 0, "matrix", 0, 0), "1e400"),
        ("singlet", ("state", 0), float("nan")),
        ("singlet", ("tolerance",), float("nan")),
        ("singlet", ("tolerance",), True),
    ], ids=["context-not-a-list", "context-as-string", "state-not-a-list", "projector-not-an-object",
            "matrix-not-a-list", "ragged-matrix", "tolerance-not-a-number", "label-with-comma",
            "overflowing-entry", "nan-state", "nan-tolerance", "tolerance-true"])
    def test_classify_malformed_document_exits_2(self, base, path, value, tmp_path, capsys):
        if base == "singlet":
            document = experiment_to_dict(singlet_experiment())
        else:
            document = model_to_dict(entry(base).model)
        target = document
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        file = tmp_path / "malformed.json"
        file.write_text(json.dumps(document))
        assert main(["classify", str(file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        # The message names the broken field, not a later symptom of it.
        assert [key for key in path if isinstance(key, str)][-1] in err

    @pytest.mark.parametrize("kind, path, field", [
        ("model", ("tables", "a,b", "0,0"), "tables.a,b.0,0"),
        ("certificate", ("loss_bound",), "loss_bound"),
        ("certificate", ("stakes", 0, "stake"), "stakes[0].stake"),
        ("witness", ("defect",), "defect"),
        ("extension", ("values", 0, "value"), "values[0].value"),
        ("experiment", ("state", 0, 0), "state[0]"),
        ("experiment", ("projectors", 0, "matrix", 0, 0), "projectors[0].matrix[0][0]"),
    ])
    def test_exponent_string_exits_2_promptly(self, kind, path, field, tmp_path, capsys):
        # Fraction("1e10000000") would expand 10**10000000 before anything
        # could reject it; a rational field takes only the "p/q" form, and an
        # experiment entry reads as a float, which overflows.
        rep = build_combinatorial_rep(bell_model())
        document = {
            "model": lambda: model_to_dict(bell_model()),
            "certificate": lambda: certificate_to_dict(rep, find_dutch_book(rep)),
            "witness": lambda: witness_to_dict(rep, tier_violation_witness(rep, Tier.PROBABILISTIC)),
            "extension": lambda: extension_to_dict(rep, ExplicitExtension(rep, rep.mu), "monotonic"),
            "experiment": lambda: experiment_to_dict(singlet_experiment()),
        }[kind]()
        target = document
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = "1e10000000"
        file = tmp_path / f"{kind}.json"
        file.write_text(json.dumps(document))
        argv = ["classify", str(file)] if kind in ("model", "experiment") else ["verify", "bell", "--file", str(file)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(f" (at {field})\n")
        assert ("is not finite" if kind == "experiment" else "must be 'p/q' strings, got '1e10000000'") in err

    def test_experiment_entries_in_exponent_form_still_load(self, tmp_path, capsys):
        # The experiment writer emits repr(float); the same floats written
        # with an exponent classify identically.
        def exponent(node):
            if isinstance(node, list):
                return [exponent(v) for v in node]
            return format(float(node), ".17e") if isinstance(node, str) else node

        plain = experiment_to_dict(singlet_experiment())
        rewritten = {**plain, "state": exponent(plain["state"]),
                     "projectors": [{**item, "matrix": exponent(item["matrix"])} for item in plain["projectors"]]}
        assert rewritten["state"] != plain["state"]
        outputs = []
        for folder, document in (("plain", plain), ("exponent", rewritten)):
            (tmp_path / folder).mkdir()
            file = tmp_path / folder / "singlet.json"
            file.write_text(json.dumps(document))
            assert main(["classify", str(file)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and "tier: Probabilistic" in outputs[0]

    def test_classify_overflowing_projector_exits_2(self, tmp_path, capsys):
        # Finite entries whose square overflows; the error names the projector.
        document = experiment_to_dict(singlet_experiment())
        first = document["projectors"][0]
        n = len(first["matrix"])
        first["matrix"] = [
            [["1e200", "0" if r == c else "1e200" if r < c else "-1e200"] for c in range(n)]
            for r in range(n)
        ]
        file = tmp_path / "overflow.json"
        file.write_text(json.dumps(document))
        assert main(["classify", str(file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"projector {first['label']!r}" in err

    @pytest.mark.parametrize("name, count", [
        ("bell", 1), ("singlet", 1), ("hardy", 0), ("pr-box", 0), ("specker-triangle", 0), ("ghz", 0),
    ])
    def test_classify_solves_once_per_side(self, name, count, monkeypatch, tmp_path, capsys):
        # One global-section solve for the tier, which every LP line reads; on a
        # Strong or Logical model the support cover decides every line unsolved.
        solves = []
        core = feasibility.solve_source

        def counting(*args, **kwargs):
            solves.append(args)
            return core(*args, **kwargs)

        monkeypatch.setattr(feasibility, "solve_source", counting)
        if name == "singlet":
            path = tmp_path / "singlet.json"
            path.write_text(json.dumps(experiment_to_dict(singlet_experiment())))
            name = str(path)
        assert main(["classify", name]) == 0
        assert len(solves) == count
        assert "tier: " in capsys.readouterr().out

    @pytest.mark.parametrize("argv, counted", [
        (["witness", "specker-triangle"], "_support_cover"),
        (["witness", "hardy"], "_support_cover"),
        (["witness", "pr-box"], "_support_cover"),
        (["witness", "bell"], "global_distribution"),
        (["witness", "cycle-13"], "global_distribution"),
        (["dutchbook", "hardy"], "_payoffs"),
        (["dutchbook", "bell"], "_payoffs"),
        (["dutchbook", "pr-box"], "_payoffs"),
        (["dutchbook", "cycle-13"], "_payoffs"),
        (["dutchbook", "hardy"], "_support_cover"),
        (["dutchbook", "hardy"], "global_distribution"),
        (["dutchbook", "bell"], "_support_cover"),
        (["dutchbook", "bell"], "global_distribution"),
        (["dutchbook", "cycle-13"], "_support_cover"),
        (["dutchbook", "cycle-13"], "global_distribution"),
        (["dutchbook", "cycle-17"], "_support_cover"),
        (["dutchbook", "cycle-17"], "global_distribution"),
        (["witness", "pr-box", "--tier", "strong"], "_support_cover"),
        (["witness", "pr-box", "--tier", "logical"], "_support_cover"),
        (["witness", "hardy", "--tier", "logical"], "_support_cover"),
        (["witness", "pr-box", "--tier", "probabilistic"], "global_distribution"),
        (["witness", "bell", "--tier", "probabilistic"], "global_distribution"),
    ])
    def test_witness_and_dutchbook_answer_once(self, argv, counted, monkeypatch, tmp_path, capsys):
        # witness builds from classify's verdict, and dutchbook prints the one
        # payoff table it checked: neither asks the tier's question again.
        from contextuality import classifier, dutchbook
        module = dutchbook if counted == "_payoffs" else classifier
        calls = []
        core = getattr(module, counted)

        def counting(*args, **kwargs):
            calls.append(args)
            return core(*args, **kwargs)

        monkeypatch.setattr(module, counted, counting)
        if argv[1].startswith("cycle-"):
            n = int(argv[1].removeprefix("cycle-"))
            path = tmp_path / f"cycle{n}.json"
            path.write_text(dumps(model_to_dict(noisy_cycle(n, Fraction(1, 8)))))
            argv = [argv[0], str(path)]
        assert main(argv) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out.startswith("model: ")

    @pytest.mark.parametrize("name", ["bell", "hardy", "pr-box", "specker-triangle", "ghz", "singlet", "cycle-8"])
    def test_classify_poses_no_explicit_column_system(self, name, monkeypatch, tmp_path, capsys):
        # Every convexity line comes from the global-section source, so no
        # membership system over the representation's points is built.
        def forbidden(*args, **kwargs):
            raise AssertionError("classify posed an explicit-column system")

        monkeypatch.setattr(feasibility, "ExplicitColumns", forbidden)
        documents = {"singlet": lambda: experiment_to_dict(singlet_experiment()),
                     "cycle-8": lambda: model_to_dict(noisy_cycle(8, Fraction(1, 8)))}
        if name in documents:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(documents[name]()))
            name = str(path)
        assert main(["classify", name]) == 0
        assert "tier: " in capsys.readouterr().out

    def test_classify_structured_matches_independent_routines(self, tmp_path, capsys):
        # Drawn as the acceptance pool is: deterministic mixtures on both
        # scenarios, and catalog models mixed with such noise.
        rng = random.Random(909)
        models = [
            random_deterministic_mixture(scenario, rng, components=rng.randint(1, 5))
            for scenario in (two_party_scenario(), triangle_scenario()) * 3
        ]
        for base in ("bell", "hardy", "pr-box", "specker-triangle"):
            models.append(perturbed_model(entry(base).model, rng, magnitude=Fraction(rng.randint(1, 16), 32)))
        tiers = set()
        for i, model in enumerate(models):
            path = tmp_path / f"pool-{i}.json"
            path.write_text(dumps(model_to_dict(model)))
            assert main(["classify", str(path), "--format", "structured"]) == 0
            data = json.loads(capsys.readouterr().out)
            rep = build_combinatorial_rep(model)
            tier = classify(model).tier
            convexity = convexity_hierarchy(rep)
            tiers.add(tier)
            assert data == {
                "model": f"pool-{i}",
                "tier": str(tier),
                "contextual": tier is not Tier.NONCONTEXTUAL,
                "additivity_hierarchy": {
                    "strong_subadditivity_violation": strong_subadditivity_violation(rep)[0],
                    "logical_subadditivity_violation": logical_subadditivity_violation(rep)[0],
                    "additivity_violation_all_monotonic_extensions": additivity_violation(rep)[0],
                },
                "convexity_hierarchy": {
                    "strong": convexity.strong_violation,
                    "logical": convexity.logical_violation,
                    "convexity": convexity.probabilistic_violation,
                },
                "classical_extension_exists": has_classical_extension(rep) is not None,
                "dutch_bookable": find_dutch_book(rep) is not None,
            }, path.name
        assert Tier.NONCONTEXTUAL in tiers and len(tiers) > 1

    def test_export_nerve_to_file(self, tmp_path):
        out = tmp_path / "nerve.txt"
        assert main(["export", "hardy", "--kind", "nerve", "--out", str(out)]) == 0
        assert "simplex" in out.read_text()

    def test_catalog_list(self, capsys):
        assert main(["catalog-list"]) == 0
        out = capsys.readouterr().out
        for e in catalog():
            assert e.name in out


@pytest.fixture(scope="module")
def cli_documents(tmp_path_factory):
    """Bell's model document, Dutch-book certificate and witness, and Hardy's witness, each with its model."""
    folder = tmp_path_factory.mktemp("documents")
    commands = [("bell", "dutchbook"), ("bell", "witness"), ("hardy", "witness")]
    documents = [("bell", model_to_dict(bell_model()))]
    for name, command in commands:
        out = folder / f"{name}-{command}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([command, name, "--format", "structured", "--out", str(out)]) == 0
        documents.append((name, json.loads(out.read_text())))
    return folder / "mutated.json", [(name, document, tuple(json_paths(document))) for name, document in documents]


class TestDocumentFuzz:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_mutated_documents_exit_with_a_message(self, cli_documents, data):
        path, documents = cli_documents
        name, document, paths = data.draw(st.sampled_from(documents), label="document")
        path.write_text(json.dumps(mutate(json.loads(json.dumps(document)), data, paths)))
        for argv in (["classify", str(path)], ["verify", name, "--file", str(path)]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 2, 3), argv
            assert code == 0 or err.getvalue().strip(), argv


class TestCatalogIntegrity:
    def test_every_entry_passes_check_and_matches_expected_tier(self):
        for e in catalog():
            assert check_model(e.model).ok, e.name
            assert classify(e.model).tier is e.expected_tier, e.name
