"""Additivity-violation witnesses, one per tier.

A collection of events has a subadditivity defect when its union outweighs
the sum of its members.  Strongly contextual models give the extreme case:
measure-zero events covering the whole space, defect exactly one.  Logically
contextual models give a positive defect equal to the weight of the
stranded section.  Probabilistically contextual models hide the violation
one layer deeper: the family itself can stay coherent on paper, but every
monotonic extension of it to the generated algebra must break additivity on
a disjoint collection, which the feasibility certificate pins down exactly.

A bonus fact uncovered by exact minimum-weight covering: the two-party
model that is only probabilistically contextual still admits a family cover
of the sample space with total weight 3/4, so it violates subadditivity
outright and admits no subadditive extension whatsoever.  The witness is
the familiar four-proposition parity argument, weights 0 + 1/4 + 1/4 + 1/4.
"""

from contextuality import (
    Tier,
    build_combinatorial_rep,
    defect,
    marginalization_failure,
    sample_monotone_extensions,
    subadditivity_violation_by_cover,
    tier_violation_witness,
    verify_witness,
)
from contextuality.catalog import bell_model, hardy_model, pr_box_model

print("=" * 72)
print("Maximal violation: the uniform box with an odd correlation cycle")
print("=" * 72)
pr = build_combinatorial_rep(pr_box_model())
witness = tier_violation_witness(pr, Tier.STRONG)
print(f"collection: {len(witness.collection)} measure-zero events")
print(f"their union is the whole 16-point space; defect = {witness.defect}")
print(f"independent re-verification: {verify_witness(pr, witness)}")

print()
print("=" * 72)
print("Plain violation: the model with one stranded edge")
print("=" * 72)
hardy = build_combinatorial_rep(hardy_model())
witness = tier_violation_witness(hardy, Tier.LOGICAL)
print(f"stranded section: {witness.support_data.section} "
      f"(weight {hardy.mu_of(witness.support_data.event)})")
print(f"cover of the space whose only weighted members are the other three")
print(f"events of that context; defect = {witness.defect}")
print(f"independent re-verification: {verify_witness(hardy, witness)}")

print()
print("=" * 72)
print("Additivity violation in every monotonic extension: the correlated box")
print("=" * 72)
bell = build_combinatorial_rep(bell_model())
witness = tier_violation_witness(bell, Tier.PROBABILISTIC)
failure = witness.support_data
print(f"failing context: {failure.context}, section {failure.section}")
print(f"disjoint collection of {len(witness.collection)} core parts of global-section events")
print(f"defect under the monotone envelope: {witness.defect}")
print(f"feasibility certificate verifies: {failure.certificate.verify(bell.model)}")

print("\nsampling twenty monotone extensions; each must fail somewhere:")
for i, extension in enumerate(sample_monotone_extensions(bell, count=20, seed=11)):
    record, parts, value = marginalization_failure(bell, extension)
    recomputed = defect(bell, parts, extension=extension)
    assert recomputed == value != 0
    if i < 5 or i == 19:
        print(f"  extension {i:2}: fails at {record.context} {record.section}, defect {value}")
    elif i == 5:
        print("  ...")

print()
print("=" * 72)
print("The bonus fact: no subadditive extension exists at all")
print("=" * 72)
cover = subadditivity_violation_by_cover(bell)
print(f"cover of the whole space by {len(cover.collection)} family events")
print(f"total weight {1 - cover.defect}, defect {cover.defect}")
print("any subadditive value for the space would be bounded by the cover's")
print("weight, contradicting its unit measure.")
