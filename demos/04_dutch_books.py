"""Dutch books: guaranteed-loss stake certificates and the convexity view.

A stake function over events is a Dutch book against a set function when
its payoff is strictly negative at every sample point.  None exists exactly
when the set function is a convex combination of the point functionals,
which is also exactly when a probability measure extends it.  The
classical extension is the convex weights themselves, so those two checks
share one membership solve over the points.  The Dutch-book search instead
stakes the global-section solve's separating functional on the
maximal-context events, an independent computation that must agree with
them.  Here it does, on contextual models and noncontextual controls alike.
"""

import random

from contextuality import (
    build_combinatorial_rep,
    convexity_hierarchy,
    convexity_membership,
    find_dutch_book,
    has_classical_extension,
    verify_certificate,
)
from contextuality.catalog import (
    bell_model,
    hardy_model,
    pr_box_model,
    random_deterministic_mixture,
    two_party_scenario,
)

print("=" * 72)
print("The canonical book against the uniform odd-cycle box")
print("=" * 72)
rep = build_combinatorial_rep(pr_box_model())
certificate = find_dutch_book(rep)
print(f"stakes: -1 on each of {len(certificate.stakes)} measure-zero context events")
print(f"guaranteed loss at every point: at least {certificate.loss_bound}")
print("payoffs by point:")
for point, payoff in zip(rep.points, certificate.payoffs(rep)):
    print(f"  {point}: {payoff}")
print(f"exhaustive verification: {verify_certificate(rep, certificate)}")

print()
print("=" * 72)
print("Books against the subtler models")
print("=" * 72)
for name, model in (("stranded-edge model", hardy_model()), ("correlated box", bell_model())):
    rep = build_combinatorial_rep(model)
    certificate = find_dutch_book(rep)
    worst = max(certificate.payoffs(rep))
    print(f"{name}: {len(certificate.stakes)} stakes, guaranteed loss {certificate.loss_bound},"
          f" worst payoff {worst}, verified {verify_certificate(rep, certificate)}")

print()
print("=" * 72)
print("Three independent checks, one answer")
print("=" * 72)
rng = random.Random(4)
cases = {
    "odd-cycle box": pr_box_model(),
    "stranded-edge model": hardy_model(),
    "correlated box": bell_model(),
    "random mixture 1": random_deterministic_mixture(two_party_scenario(), rng),
    "random mixture 2": random_deterministic_mixture(two_party_scenario(), rng),
}
print(f"{'model':22} {'dutch book':>10} {'classical ext':>14} {'convex':>7}")
for name, model in cases.items():
    rep = build_combinatorial_rep(model)
    book = find_dutch_book(rep) is not None
    classical = has_classical_extension(rep) is not None
    convex = convexity_membership(rep) is not None
    assert book == (not classical) == (not convex)
    print(f"{name:22} {'yes' if book else 'no':>10} {'yes' if classical else 'no':>14}"
          f" {'yes' if convex else 'no':>7}")

print()
print("=" * 72)
print("Grading the convexity failure over maximal-context events")
print("=" * 72)
for name, model in (("odd-cycle box", pr_box_model()),
                    ("stranded-edge model", hardy_model()),
                    ("correlated box", bell_model())):
    verdict = convexity_hierarchy(build_combinatorial_rep(model))
    print(f"{name:22} strong={verdict.strong_violation!s:5} logical={verdict.logical_violation!s:5}"
          f" convexity={verdict.probabilistic_violation}")
print("\nThe grades of convexity failure coincide with the contextuality tiers.")
