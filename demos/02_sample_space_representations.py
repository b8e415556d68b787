"""Sample-space representations: the three-measurement cube, padded variants.

The anticorrelated triangle model has three pairwise-compatible binary
measurements, so its minimal representation is the 8-point cube of global
assignments.  Outcome events are faces, pair events are edges, and the set
function assigns each event the table weight of its section.  Padding adds
points that no global assignment explains; they live in contradictory
overlaps or outside every outcome of some measurement, always at measure
zero, and excision removes exactly them.
"""

from contextuality import (
    PadPoint,
    build_combinatorial_rep,
    build_padded_rep,
    excise,
    extend_event,
    verify_rep,
)
from contextuality.catalog import specker_triangle_model

model = specker_triangle_model()
rep = build_combinatorial_rep(model)
scenario = model.scenario

print("=" * 72)
print("The cube representation of the anticorrelated triangle")
print("=" * 72)
print(f"sample space ({len(rep.points)} points): {', '.join(rep.points)}")
print(f"event family size: {len(rep.sigma)}")

face = rep.event(scenario.section({"c": "0"}))
edge = rep.event(scenario.section({"a": "0", "b": "0"}))
print(f"\nevent of c->0 (a face, 4 points): {list(rep.points_of(face))}")
print(f"event of a->0,b->0 (an edge):      {list(rep.points_of(edge))}")
print(f"its weight: {rep.mu_of(edge)} (the table weight of that pair of outcomes)")

grown = extend_event(rep, edge, ("a",))
print(f"extended to just a (a face again): {list(rep.points_of(grown))}")
# Events are int masks over point indices: the edge lies strictly inside
# the face when it differs from it and has no point outside it.
print(f"strictly contains the edge: {edge != grown and not edge & ~grown}")

print(f"\nfull verification: {verify_rep(rep)}")
report = excise(rep)
print(f"excision on the combinatorial cube: contradictory events {len(report.d1)},"
      f" outcome-free residues {len(report.d2)}, core = whole space: {report.z == rep.sample_space}")

print()
print("=" * 72)
print("Padding: points no global assignment explains")
print("=" * 72)
pads = [
    PadPoint("ghost-both", {"a": ("0", "1"), "b": ("0",), "c": ("0",)}),
    PadPoint("ghost-neither", {"a": ("0",), "b": (), "c": ("0",)}),
]
padded = build_padded_rep(model, pads)
print(f"padded sample space: {len(padded.points)} points, combinatorial: {padded.combinatorial}")
print(f"verification still passes: {verify_rep(padded).ok}")

report = excise(padded)
print(f"contradictory-overlap events: {[list(padded.points_of(e)) for e in padded.sorted_events(report.d1)]}")
print(f"outcome-free residues:        {[list(padded.points_of(e)) for e in padded.sorted_events(report.d2)]}")
print(f"surviving core excludes both ghosts: "
      f"{not report.z & padded.event_of(['ghost-both', 'ghost-neither'])}")
print("every excised event has measure zero:",
      all(padded.mu_of(e) == 0 for e in report.d1 | report.d2))
