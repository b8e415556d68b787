"""Dutch-book certificates and the convexity-violation hierarchy."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from contextuality import classifier, feasibility
from contextuality.catalog import (
    bell_model,
    ghz_model,
    hardy_model,
    perturbed_model,
    pr_box_model,
    random_deterministic_mixture,
    specker_triangle_model,
    two_party_scenario,
)
from contextuality.classifier import Tier, classify, global_distribution
from contextuality.cli import main
from contextuality.distribution import Distribution
from contextuality.dutchbook import (
    DutchBookCertificate,
    atomic_functional,
    convexity_hierarchy,
    convexity_membership,
    distribution_to_convex_point,
    dutch_book_table,
    find_dutch_book,
    section_to_functional,
    verify_certificate,
)
from contextuality.errors import InternalConsistencyError, NotAnEventError, TierMismatchError
from contextuality.feasibility import FeasibilityOutcome
from contextuality.model import deterministic_model
from contextuality.scenario import global_section_columns, restrict, sections_over
from contextuality.serialize import certificate_to_dict, dumps, model_to_dict
from contextuality.violations import additivity_violation, has_classical_extension, tier_violation_witness
from contextuality.wps import PadPoint, WpsRepresentation, build_combinatorial_rep, build_padded_rep, excise
from conftest import noisy_cycle, patch_every_layer, solve_nonnegative, standard_paddings


@pytest.fixture(scope="module")
def reps():
    return {
        "bell": build_combinatorial_rep(bell_model()),
        "hardy": build_combinatorial_rep(hardy_model()),
        "pr-box": build_combinatorial_rep(pr_box_model()),
        "specker": build_combinatorial_rep(specker_triangle_model()),
    }


@pytest.fixture(scope="module")
def control_rep():
    rng = random.Random(5)
    return build_combinatorial_rep(random_deterministic_mixture(two_party_scenario(), rng))


class TestConvexityMembership:
    def test_control_rep_weights_match_classical_extension_system(self, control_rep):
        weights = convexity_membership(control_rep)
        assert weights is not None
        for event in control_rep.sigma:
            total = sum((weights[p] for p in control_rep.points_of(event)), Fraction(0))
            assert total == control_rep.mu_of(event)

    def test_bell_fails_on_maximal_context_events(self, reps):
        rep = reps["bell"]
        assert convexity_membership(rep, rep.maximal_context_events()) is None

    def test_membership_solution_is_rechecked(self, control_rep, monkeypatch):
        # The first positive weight handed to the first point outside the support.
        solve = feasibility.solve_source

        def moved(source, rhs):
            outcome = solve(source, rhs)
            (_, x), *rest = outcome.solution.items()
            k = next(i for i in range(len(source)) if i not in outcome.solution)
            return FeasibilityOutcome(outcome.feasible, dict(sorted([(k, x), *rest])), outcome.certificate)
        monkeypatch.setattr(feasibility, "solve_source", moved)
        with pytest.raises(InternalConsistencyError, match="membership weights"):
            convexity_membership(control_rep)

    def test_single_point_space(self):
        scenario_model = random_deterministic_mixture(two_party_scenario(), random.Random(0), components=1)
        rep = build_combinatorial_rep(scenario_model)
        weights = convexity_membership(rep)
        assert weights is not None and sum(weights.values()) == 1


class TestFindDutchBook:
    def test_pr_box_certificate_is_the_null_cover(self, reps):
        certificate = find_dutch_book(reps["pr-box"])
        assert certificate is not None
        assert len(certificate.stakes) == 8
        assert all(stake == Fraction(-1) for _, stake in certificate.stakes)
        assert all(reps["pr-box"].mu_of(e) == 0 for e, _ in certificate.stakes)
        assert certificate.loss_bound == 1

    def test_control_rep_has_no_dutch_book(self, control_rep):
        assert find_dutch_book(control_rep) is None

    def test_bell_certificate_verifies_with_unit_loss(self, reps):
        certificate = find_dutch_book(reps["bell"])
        assert certificate is not None
        assert certificate.loss_bound == 1
        assert verify_certificate(reps["bell"], certificate)

    def test_hardy_certificate_verifies(self, reps):
        certificate = find_dutch_book(reps["hardy"])
        assert certificate is not None
        assert verify_certificate(reps["hardy"], certificate)

    def test_determinism(self, reps):
        a = find_dutch_book(reps["bell"])
        b = find_dutch_book(reps["bell"])
        assert a.stakes == b.stakes and a.loss_bound == b.loss_bound

    @staticmethod
    def _count_solves(monkeypatch):
        """Every layer's ``solve_source`` calls and ``ExplicitColumns`` builds, as two lists."""
        sources, built = [], []
        solve_source, explicit_columns = feasibility.solve_source, feasibility.ExplicitColumns

        def solve(source, rhs):
            sources.append(source)
            return solve_source(source, rhs)

        def columns(*args):
            built.append(explicit_columns(*args))
            return built[-1]
        patch_every_layer(monkeypatch, "solve_source", solve_source, solve)
        patch_every_layer(monkeypatch, "ExplicitColumns", explicit_columns, columns)
        return sources, built

    @pytest.mark.parametrize("name, solves", [
        ("bell", 1), ("hardy", 1), ("pr-box", 0), ("specker-triangle", 0), ("ghz", 0),
    ])
    def test_only_the_global_section_system_is_solved(self, catalog_reps, name, solves, monkeypatch):
        # The null cover is tried first; otherwise the one solve is the model's global-section system.
        rep = catalog_reps[name]
        sources, built = self._count_solves(monkeypatch)
        certificate = find_dutch_book(rep)
        assert certificate is not None and verify_certificate(rep, certificate)
        assert sources == [global_section_columns(rep.model.scenario)] * solves
        assert built == []

    def test_cli_dutchbook_solves_once_on_the_13_cycle(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "cycle13.json"
        path.write_text(dumps(model_to_dict(noisy_cycle(13, Fraction(1, 8)))))
        sources, built = self._count_solves(monkeypatch)
        assert main(["dutchbook", str(path)]) == 0
        assert "worst case: -1" in capsys.readouterr().out
        assert len(sources) == 1 and built == []

    @pytest.mark.parametrize("name, solves", [
        ("bell", 1), ("hardy", 1), ("pr-box", 0), ("specker-triangle", 0), ("ghz", 0),
    ])
    def test_padded_representations_solve_only_the_global_section_system(self, padded_catalog_reps, name, solves,
                                                                         monkeypatch):
        # Padding is excised, so a padded book reads the same verdict as its core: no system over the points.
        rep = padded_catalog_reps[name]
        sources, built = self._count_solves(monkeypatch)
        certificate = find_dutch_book(rep)
        assert certificate is not None and verify_certificate(rep, certificate)
        assert sources == [global_section_columns(rep.model.scenario)] * solves
        assert built == []

    def test_a_pad_that_would_gain_pays_its_excised_stakes(self):
        # The pad lies outside every outcome of a and b', and in b = 0 and a' = 0.
        rep = build_padded_rep(bell_model(), [PadPoint("pad", {"b": {"0"}, "a'": {"0"}})])
        certificate = find_dutch_book(rep)
        assert certificate is not None and verify_certificate(rep, certificate)
        pad = rep.point_index("pad")
        assert certificate.payoffs(rep)[pad] <= -1
        # Under the verdict's functional alone the pad would gain; only the excised stakes make it lose.
        report = excise(rep)
        core = tuple((e, y) for e, y in certificate.stakes if e not in report.d1 | report.d2)
        assert len(core) < len(certificate.stakes)
        assert DutchBookCertificate(core, Fraction(1)).payoffs(rep)[pad] > 0

    @pytest.mark.parametrize("name", ["pr-box", "specker-triangle", "ghz"])
    def test_a_strong_book_stakes_the_strong_witness(self, padded_catalog_reps, name):
        rep = padded_catalog_reps[name]
        certificate = find_dutch_book(rep)
        assert tuple(e for e, _ in certificate.stakes) == tier_violation_witness(rep, Tier.STRONG).collection
        assert all(stake == -1 for _, stake in certificate.stakes)

    def test_a_valued_excised_event_is_refused(self, padded_catalog_reps):
        rep = padded_catalog_reps["bell"]
        report = excise(rep)
        mu = dict(rep.mu)
        mu[min(report.d1 | report.d2)] = Fraction(1, 16)
        tampered = WpsRepresentation(rep.model, rep.points, rep.transfer, rep.sigma_algebras, mu, rep.combinatorial)
        with pytest.raises(InternalConsistencyError, match="not measure zero"):
            dutch_book_table(tampered, classify(rep.model))


class TestPayoffTable:
    @staticmethod
    def oracle(rep, certificate):
        """Each point's payoff as the sum over stakes s on e of s * ([point in e] - mu(e))."""
        return [sum((stake * ((event >> i & 1) - rep.mu_of(event)) for event, stake in certificate.stakes),
                    Fraction(0)) for i in range(len(rep.points))]

    def test_payoffs_match_the_per_point_formula(self, catalog_reps, padded_catalog_reps):
        pool = {f"catalog:{name}": rep for name, rep in catalog_reps.items()}
        pool.update((f"padded:{name}", rep) for name, rep in padded_catalog_reps.items())
        pool.update((f"cycle-{n}:{share}", build_combinatorial_rep(noisy_cycle(n, share)))
                    for n in range(3, 10) for share in (Fraction(1, 8), Fraction(1, 2)))
        books = scaled = 0
        for name, rep in pool.items():
            found = dutch_book_table(rep, classify(rep.model))
            if found is None:
                continue
            # The handed-out table is computed once, for the unscaled stakes, and
            # divided by the loss; recomputed from the scaled stakes it must agree.
            certificate, table = found
            books += 1
            scaled += any(stake not in (-1, 1) for _, stake in certificate.stakes)
            payoffs = certificate.payoffs(rep)
            assert table == payoffs == self.oracle(rep, certificate), name
            assert max(payoffs) == -1, name
        assert books >= 15 and scaled >= 4

    @pytest.mark.parametrize("forge", [lambda y: -y, lambda y: 0 * y])
    def test_stakes_that_lose_nowhere_are_refused(self, reps, forge):
        # A functional that fails to separate gives a table whose largest entry
        # is not negative; the book is refused, not scaled by a non-positive loss.
        rep = reps["bell"]
        certificate = classify(rep.model).certificate
        forged = classifier.GlobalDistributionCertificate(certificate.rows, tuple(map(forge, certificate.coefficients)))
        with pytest.raises(InternalConsistencyError, match="no loss"):
            dutch_book_table(rep, classifier.TierVerdict(Tier.PROBABILISTIC, certificate=forged))

    def test_a_contextual_verdict_on_a_convex_model_is_refused(self, control_rep):
        # A Logical verdict carries no functional, so a model without one ends in a message on either representation.
        model = control_rep.model
        padded = build_padded_rep(model, standard_paddings(model.scenario))
        for rep in (control_rep, padded):
            with pytest.raises(TierMismatchError, match="admits a global distribution"):
                dutch_book_table(rep, classifier.TierVerdict(Tier.LOGICAL))

    @pytest.fixture(scope="class")
    def bell_book(self, catalog_reps):
        return catalog_reps["bell"], find_dutch_book(catalog_reps["bell"])

    @pytest.mark.parametrize("tamper", ["halved", "bound-2"])
    def test_tampered_transported_book_fails(self, bell_book, tamper, tmp_path, capsys):
        rep, certificate = bell_book
        assert verify_certificate(rep, certificate)
        if tamper == "halved":
            bad = DutchBookCertificate(tuple((e, y / 2) for e, y in certificate.stakes), certificate.loss_bound)
        else:
            bad = DutchBookCertificate(certificate.stakes, Fraction(2))
        assert not verify_certificate(rep, bad)
        path = tmp_path / "book.json"
        path.write_text(dumps(certificate_to_dict(rep, bad)))
        assert main(["verify", "bell", "--file", str(path)]) == 2


class TestVerifyCertificate:
    def test_sign_flip_breaks_the_pr_certificate(self, reps):
        rep = reps["pr-box"]
        certificate = find_dutch_book(rep)
        flipped = list(certificate.stakes)
        flipped[0] = (flipped[0][0], -flipped[0][1])
        bad = DutchBookCertificate(tuple(flipped), certificate.loss_bound)
        assert not verify_certificate(rep, bad)

    def test_a_single_winning_point_fails_the_book(self, reps):
        # At a deterministic model, minus one on every null maximal-context event
        # loses at every point but the model's own, wherever that point lies.
        scenario = reps["bell"].model.scenario
        for g in scenario.global_sections():
            rep = build_combinatorial_rep(deterministic_model(scenario, g))
            stakes = tuple((e, Fraction(-1)) for e in rep.maximal_context_events() if rep.mu_of(e) == 0)
            certificate = DutchBookCertificate(stakes, Fraction(1))
            payoffs = certificate.payoffs(rep)
            assert [i for i, payoff in enumerate(payoffs) if payoff > -1] == [rep.event(g).bit_length() - 1]
            assert not verify_certificate(rep, certificate)

    def test_empty_stakes_never_verify(self, reps):
        bad = DutchBookCertificate((), Fraction(1))
        assert not verify_certificate(reps["pr-box"], bad)

    def test_stake_outside_family_rejected(self, reps):
        rep = reps["pr-box"]
        odd = rep.event_of([rep.points[0], rep.points[-1]])
        bad = DutchBookCertificate(((odd, Fraction(-1)),), Fraction(1))
        with pytest.raises(NotAnEventError):
            verify_certificate(rep, bad)


class TestBijections:
    def test_functional_marks_exactly_the_restrictions(self, reps):
        rep = reps["specker"]
        scenario = rep.model.scenario
        for g in scenario.global_sections():
            functional = section_to_functional(rep, g)
            for event, value in functional.values.items():
                section = rep.section_of(event)
                assert value == int(restrict(g, section.domain) == section)

    def test_injective_on_global_sections(self, reps):
        rep = reps["bell"]
        scenario = rep.model.scenario
        images = {tuple(sorted(section_to_functional(rep, g).values.items(), key=lambda kv: rep.event_key(kv[0])))
                  for g in scenario.global_sections()}
        assert len(images) == len(scenario.global_sections())

    def test_point_mass_matches_section_functional(self, reps):
        rep = reps["specker"]
        scenario = rep.model.scenario
        g = scenario.global_sections()[3]
        weights = {s: Fraction(1 if s == g else 0) for s in scenario.global_sections()}
        dist = Distribution(scenario, scenario.measurements, weights)
        pushed = distribution_to_convex_point(rep, dist)
        functional = section_to_functional(rep, g)
        assert pushed == {e: Fraction(v) for e, v in functional.values.items()}

    def test_pushforward_values_are_marginals(self, control_rep):
        verdict = classify(control_rep.model)
        dist = verdict.global_distribution
        pushed = distribution_to_convex_point(control_rep, dist)
        for event, value in pushed.items():
            assert value == control_rep.mu_of(event)

    def test_hull_round_trip_on_sampled_distributions(self, reps):
        # Pushing a random global distribution into the hull, solving the
        # membership system at those values, and pushing the solution back
        # must land on the same hull point (the map is onto its hull, though
        # not injective: different global distributions can share marginals).
        rep = reps["specker"]
        scenario = rep.model.scenario
        rng = random.Random(17)
        from contextuality.distribution import random_rational_weights
        for _ in range(5):
            sections = scenario.global_sections()
            weights = dict(zip(sections, random_rational_weights(rng, len(sections))))
            dist = Distribution(scenario, scenario.measurements, weights)
            pushed = distribution_to_convex_point(rep, dist)
            events = rep.maximal_context_events()
            rows = [[Fraction(1)] * len(rep.points)]
            rhs = [Fraction(1)]
            for event in events:
                rows.append([Fraction(event >> i & 1) for i in range(len(rep.points))])
                rhs.append(pushed[event])
            outcome = solve_nonnegative(rows, rhs)
            assert outcome.feasible
            recovered = {p: w for p, w in zip(rep.points, outcome.solution)}
            for event in events:
                assert sum((recovered[p] for p in rep.points_of(event)), Fraction(0)) == pushed[event]

    def test_membership_system_mirrors_global_distribution_system(self, reps):
        # Columns are in bijection (points vs global sections); a point lies
        # in a maximal-context event exactly when its section restricts to
        # the event's section, so the 0/1 coefficient matrices agree.
        rep = reps["bell"]
        scenario = rep.model.scenario
        events = rep.maximal_context_events()
        for g in scenario.global_sections():
            (point,) = rep.points_of(rep.event(g))
            for event in events:
                section = rep.section_of(event)
                lhs = point in rep.points_of(event)
                rhs = restrict(g, section.domain) == section
                assert lhs == rhs


class TestConvexityHierarchy:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("pr-box", (True, True, True)),
            ("hardy", (False, True, True)),
            ("bell", (False, False, True)),
        ],
    )
    def test_catalog_grades(self, reps, name, expected):
        verdict = convexity_hierarchy(reps[name])
        assert (verdict.strong_violation, verdict.logical_violation, verdict.probabilistic_violation) == expected

    def test_control_rep_has_no_violations(self, control_rep):
        verdict = convexity_hierarchy(control_rep)
        assert not verdict.probabilistic_violation
        assert verdict.convex_weights is not None

    def test_logical_flag_agrees_with_brute_force_boolean_sums(self, reps):
        # The support indicator is a Boolean sum of point functionals iff
        # some subset of points marks exactly the positive-measure events.
        for name in ("specker", "hardy", "bell"):
            rep = reps[name]
            events = rep.maximal_context_events()
            support = [rep.mu_of(e) > 0 for e in events]
            achievable = False
            n = len(rep.points)
            for size in range(1, n + 1):
                if achievable:
                    break
                for combo in itertools.combinations(range(n), size):
                    chosen = sum(1 << i for i in combo)
                    marked = [bool(e & chosen) for e in events]
                    if marked == support:
                        achievable = True
                        break
            verdict = convexity_hierarchy(rep)
            assert verdict.logical_violation == (not achievable)


class TestHierarchyOnTheGlobalSectionSource:
    """``convexity_hierarchy`` solves the global-section system; the membership
    system over the points stays the oracle it must agree with."""

    @pytest.fixture(scope="class")
    def pool(self, catalog_entries, catalog_reps, control_rep):
        rng = random.Random(1717)
        pool = {f"catalog:{name}": rep for name, rep in catalog_reps.items()}
        pool["control"] = control_rep
        for name, entry in catalog_entries.items():
            pool[f"perturbed:{name}"] = build_combinatorial_rep(perturbed_model(entry.model, rng))
        for n in range(3, 9):
            for share in (Fraction(1, 8), Fraction(1, 2)):
                pool[f"cycle-{n}:{share}"] = build_combinatorial_rep(noisy_cycle(n, share))
        pool["reversed:bell"] = build_combinatorial_rep(bell_model(), point_order="reversed")
        return pool

    def test_probabilistic_violation_matches_the_membership_oracle(self, pool):
        verdicts = set()
        for name, rep in pool.items():
            violated = convexity_hierarchy(rep).probabilistic_violation
            assert violated == (convexity_membership(rep, rep.maximal_context_events()) is None), name
            verdicts.add(violated)
        assert verdicts == {False, True}

    def test_convex_weights_reproduce_every_maximal_context_value(self, pool):
        checked = 0
        for name, rep in pool.items():
            weights = convexity_hierarchy(rep).convex_weights
            if weights is None:
                continue
            checked += 1
            assert list(weights) == list(rep.points), name
            assert all(w >= 0 for w in weights.values()), name
            for event in rep.maximal_context_events():
                assert sum((weights[p] for p in rep.points_of(event)), Fraction(0)) == rep.mu_of(event), name
        assert checked >= 10

    def test_transported_solution_is_rechecked(self, control_rep, monkeypatch):
        # Each support section's weight handed to the next support section's point.
        solve = classifier.global_distribution

        def rotated(*args):
            dist = solve(*args)
            sections = [s for s in dist.sections() if s in dist.support]
            weights = dict(zip(sections[1:] + sections[:1], map(dist.weight, sections)))
            return Distribution._from_support(dist.scenario, dist.context, weights)
        monkeypatch.setattr(classifier, "global_distribution", rotated)
        with pytest.raises(InternalConsistencyError, match="transported weights"):
            convexity_hierarchy(control_rep)

    @staticmethod
    def _moved(rep, source, target, amount=Fraction(1, 7)):
        """``rep`` with ``amount`` of the value of ``source``'s image moved onto ``target``'s."""
        mu = dict(rep.mu)
        mu[rep.event(source)] -= amount
        mu[rep.event(target)] += amount
        return WpsRepresentation(rep.model, rep.points, rep.transfer, rep.sigma_algebras, mu, rep.combinatorial)

    def test_event_values_apart_from_the_tables_are_caught(self, reps, control_rep):
        # The model's solve is transported, so a representation whose maximal-context
        # values differ from its model's tables must fail one of the two re-checks.
        certificate = global_distribution(reps["bell"].model)
        y = dict(zip(certificate.rows, certificate.coefficients))
        context = certificate.rows[0][0]
        rows = [(c, s) for c, s in certificate.rows if c == context]
        # The certificate's value falls by (y[source] - y[target]) * amount; pick the largest fall.
        source = max((r for r in rows if reps["bell"].mu_of(reps["bell"].event(r[1])) >= Fraction(1, 7)),
                     key=y.__getitem__)
        target = min(rows, key=y.__getitem__)
        value = sum(y[c, s] * reps["bell"].model.table(c).weight(s) for c, s in certificate.rows)
        # 1/7 takes the value below zero; the second amount takes it to exactly zero.
        tampered = [self._moved(reps["bell"], source[1], target[1], amount)
                    for amount in (Fraction(1, 7), value / (y[source] - y[target]))]
        values = [sum(y[c, s] * rep.mu_of(rep.event(s)) for c, s in certificate.rows) for rep in tampered]
        assert values[0] < 0 == values[1]
        table = control_rep.model.table(control_rep.model.scenario.maximal_contexts[0])
        heavy = max(table.support, key=table.weight)
        control = self._moved(control_rep, heavy, next(s for s in table.sections() if s != heavy))
        cases = [(rep, "separate the event values") for rep in tampered] + [(control, "transported weights")]
        for rep, message in cases:
            for check in (convexity_hierarchy, additivity_violation):
                with pytest.raises(InternalConsistencyError, match=message):
                    check(rep)


class TestDeFinettiTriangle:
    def test_three_procedures_agree_on_catalog_and_controls(self, reps, control_rep):
        rng = random.Random(23)
        pool = dict(reps)
        pool["control"] = control_rep
        pool["ghz"] = build_combinatorial_rep(ghz_model())
        for _ in range(3):
            pool[f"mix-{_}"] = build_combinatorial_rep(
                random_deterministic_mixture(two_party_scenario(), rng)
            )
        for name, rep in pool.items():
            no_book = find_dutch_book(rep) is None
            classical = has_classical_extension(rep) is not None
            convex = convexity_membership(rep) is not None
            assert no_book == classical == convex, name
            assert no_book == (classify(rep.model).tier is Tier.NONCONTEXTUAL), name

    def test_transported_books_agree_with_the_point_side_extension(self, padded_catalog_reps):
        pool = {f"cycle-{n}:{share}": build_combinatorial_rep(noisy_cycle(n, share))
                for n in (5, 7, 9) for share in (Fraction(1, 8), Fraction(1, 2))}
        pool["padded:bell"] = padded_catalog_reps["bell"]
        books = 0
        for name, rep in pool.items():
            certificate = find_dutch_book(rep)
            assert (certificate is None) == (has_classical_extension(rep) is not None), name
            if certificate is not None:
                books += 1
                assert verify_certificate(rep, certificate), name
        assert books == 4
