"""Deterministic text and structured exports of bundles and nerves.

The bundle export describes a model's support: base vertices are
measurements, base edges join co-measurable measurements, and each support
section appears as a clique of outcome-labeled fiber vertices.  The nerve
export describes a representation's positive-measure structure: vertices
are single-measurement events in the support, and a simplex appears for
every set of vertices over distinct measurements whose events intersect.
Output is byte-identical across runs for the same input.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import TYPE_CHECKING, Optional

from .errors import DEFAULT_ENUMERATION_CAP, EnumerationCapError
from .model import EmpiricalModel
from .scenario import glue, sections_over

if TYPE_CHECKING:
    from .wps import WpsRepresentation


def _dot_quote(text: str) -> str:
    return '"' + text.replace('"', '\\"') + '"'


def export_bundle_diagram(model: EmpiricalModel) -> tuple[str, dict]:
    """DOT text plus a structured mirror of the model's support bundle."""
    scenario = model.scenario
    lines = ["graph bundle {"]
    structured: dict = {
        "kind": "bundle-diagram",
        "base": {
            "vertices": list(scenario.measurements),
            "contexts": [list(c) for c in scenario.maximal_contexts],
        },
        "fibers": [],
    }
    for m in scenario.measurements:
        lines.append(f"  {_dot_quote('m:' + str(m))};")
    for context in scenario.maximal_contexts:
        for x, y in itertools.combinations(context, 2):
            lines.append(
                f"  {_dot_quote('m:' + str(x))} -- {_dot_quote('m:' + str(y))}"
                f" [context={_dot_quote(','.join(context))}];"
            )
    for m in scenario.measurements:
        for o in scenario.outcomes:
            lines.append(f"  {_dot_quote(f'f:{m}={o}')};")
    for context in scenario.maximal_contexts:
        table = model.table(context)
        for section in sections_over(scenario, context):
            weight = table.weight(section)
            if weight == 0:
                continue
            structured["fibers"].append({
                "context": list(context),
                "section": {str(m): str(o) for m, o in zip(section.domain, section.values)},
                "weight": str(weight),
            })
            nodes = [f"f:{m}={o}" for m, o in zip(section.domain, section.values)]
            for a, b in itertools.combinations(nodes, 2):
                lines.append(
                    f"  {_dot_quote(a)} -- {_dot_quote(b)}"
                    f" [context={_dot_quote(','.join(context))},"
                    f" section={_dot_quote(','.join(section.values))},"
                    f" weight={_dot_quote(str(weight))}];"
                )
    lines.append("}")
    return "\n".join(lines) + "\n", structured


def export_nerve(rep: WpsRepresentation, cap: int = DEFAULT_ENUMERATION_CAP) -> tuple[str, dict]:
    """Simplicial-complex text plus a structured mirror of a representation.

    Vertices are the positive-measure single-measurement events.  A simplex
    joins vertices over pairwise-distinct measurements whose events have a
    non-empty intersection; when the vertex measurements form a context the
    simplex carries the exact weight of the intersection event and a
    support flag, otherwise the weight is reported as undefined.  A
    simplex takes at most one of the v_m vertices over each measurement m,
    so there are Π_m (1 + v_m) − 1 candidates; over ``cap`` of them it
    raises :class:`EnumerationCapError` before listing any.  The walk visits
    exactly those candidates, by size, each size in lexicographic order of
    the vertex list.
    """
    scenario = rep.model.scenario
    groups = [[s for s in sections_over(scenario, (m,)) if rep.in_sigma(rep.event(s)) and rep.mu_of(rep.event(s)) > 0]
              for m in scenario.measurements]
    groups = [g for g in groups if g]
    count = math.prod(1 + len(g) for g in groups) - 1
    if count > cap:
        raise EnumerationCapError(count, cap, what="nerve simplices")

    def candidates(size: int, start: int):
        # Vertex tuples of ``size`` over distinct measurements of groups[start:].
        if size == 0:
            yield ()
            return
        for g in range(start, len(groups) - size + 1):
            for s in groups[g]:
                for rest in candidates(size - 1, g + 1):
                    yield (s, *rest)

    lines = []
    structured: dict = {"kind": "nerve", "simplices": []}
    for size in range(1, len(groups) + 1):
        for combo in candidates(size, 0):
            measurements = [s.domain[0] for s in combo]
            intersection = rep.event(combo[0])
            for s in combo[1:]:
                intersection = intersection & rep.event(s)
            if not intersection:
                continue
            names = [f"{s.domain[0]}={s.values[0]}" for s in combo]
            co_measurable = scenario.is_context(measurements)
            weight: Optional[str] = None
            in_support: Optional[bool] = None
            if co_measurable:
                event = rep.event(glue(list(combo)))
                if rep.in_sigma(event):
                    weight = str(rep.mu_of(event))
                    in_support = rep.mu_of(event) > 0
            structured["simplices"].append({
                "dimension": size - 1,
                "vertices": names,
                "co_measurable": co_measurable,
                "weight": weight,
                "in_support": in_support,
            })
            tags = []
            if co_measurable:
                tags.append("co-measurable")
            if weight is not None:
                tags.append(f"weight={weight}")
            suffix = (" " + " ".join(tags)) if tags else ""
            lines.append(f"{size - 1}-simplex {'|'.join(names)}{suffix}")
    return "\n".join(lines) + "\n", structured


def structured_to_text(structured: dict) -> str:
    return json.dumps(structured, indent=2, sort_keys=True) + "\n"
