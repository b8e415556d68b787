"""Command-line workbench.

Subcommands: classify, witness, dutchbook, verify, export, catalog-list.
Models come from the catalog by name or from a JSON document (an empirical
model, or a quantum experiment ingested through the Born rule with the
snapping flags).  Exit codes: 0 success, 2 validation failure or an
unreadable path, 3 enumeration cap exceeded.  Each command is one process,
so each handler imports only the layers it runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import catalog as _catalog
from . import classifier
from .errors import (DEFAULT_DENOMINATOR_BOUND, DEFAULT_ENUMERATION_CAP, DEFAULT_SNAP_TOLERANCE,
                     ContextualityError, EnumerationCapError, SchemaError)
from .model import EmpiricalModel, check_model


def _at_least(low, convert, what: str):
    """An argparse type: ``convert(text)`` when it is finite and at least ``low``; NaN fails too."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        if not low <= value < math.inf:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value
    return parse


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("model", nargs="?", metavar="MODEL",
                        help="catalog name or path to a model/experiment document")
    parser.add_argument("--cap", type=_at_least(1, int, "an integer of at least 1"),
                        default=DEFAULT_ENUMERATION_CAP, help="enumeration cap (default 2^20, >= 1)")
    parser.add_argument("--snap-tol", type=_at_least(0, float, "a finite non-negative number"),
                        default=DEFAULT_SNAP_TOLERANCE, help="snapping tolerance for quantum ingestion (finite, >= 0)")
    parser.add_argument("--denom-bound", type=_at_least(1, int, "an integer of at least 1"),
                        default=DEFAULT_DENOMINATOR_BOUND, help="denominator bound for snapped rationals (>= 1)")


def _resolve_model(args) -> tuple[str, EmpiricalModel]:
    name = args.model
    if not name:
        raise SchemaError("supply a model: a catalog name or a path")
    try:
        return name, _catalog.entry(name).model
    except KeyError:
        pass
    path = Path(name)
    if not path.exists():
        raise SchemaError(f"{name!r} is neither a catalog model nor an existing file")
    from .serialize import KIND_EXPERIMENT, KIND_MODEL, load, model_from_dict
    document = load(path)
    kind = document.get("kind")
    if kind == KIND_MODEL:
        model = model_from_dict(document)
        report = check_model(model)
        if not report.ok:
            raise SchemaError(f"model file fails the no-signaling check: {report}")
        return path.stem, model
    if kind == KIND_EXPERIMENT:
        return path.stem, _snapped(document, args)
    raise SchemaError(f"cannot use a document of kind {kind!r} as a model")


def _snapped(document: dict, args) -> EmpiricalModel:
    """The empirical model of an experiment document, through the Born rule and the snapping flags."""
    from .quantum import experiment_from_dict, quantum_to_empirical
    return quantum_to_empirical(experiment_from_dict(document), snap_tolerance=args.snap_tol,
                                denominator_bound=args.denom_bound, cap=args.cap)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _cmd_classify(args) -> int:
    name, model = _resolve_model(args)
    verdict = classifier.classify(model, cap=args.cap)
    # On the combinatorial representation every line is the tier's question:
    # the strong and logical null-cover flags are the support cover's own, and
    # every LP line is the global-distribution solve.  No representation is built.
    Tier = classifier.Tier
    strong = verdict.tier is Tier.STRONG
    logical = verdict.tier in (Tier.STRONG, Tier.LOGICAL)
    violated = verdict.tier is not Tier.NONCONTEXTUAL
    structured = {
        "model": name,
        "tier": str(verdict.tier),
        "contextual": violated,
        "additivity_hierarchy": {
            "strong_subadditivity_violation": strong,
            "logical_subadditivity_violation": logical,
            "additivity_violation_all_monotonic_extensions": violated,
        },
        "convexity_hierarchy": {
            "strong": strong,
            "logical": logical,
            "convexity": violated,
        },
        "classical_extension_exists": not violated,
        "dutch_bookable": violated,
    }
    if args.format == "structured":
        _emit(json.dumps(structured, indent=2) + "\n", args.out)
        return 0
    lines = [
        f"model: {name}",
        f"tier: {verdict.tier}",
        "",
        "additivity-violation hierarchy (maximal-context events)",
        f"  maximal subadditivity violation : {_yesno(strong)}",
        f"  subadditivity violation         : {_yesno(logical)}",
        f"  additivity violation, every     : {_yesno(violated)}",
        "    monotonic extension",
        "",
        "convexity-violation hierarchy (maximal-context events)",
        f"  strong violation                : {_yesno(strong)}",
        f"  logical violation               : {_yesno(logical)}",
        f"  convexity violation             : {_yesno(violated)}",
        "",
        f"classical extension exists: {_yesno(not violated)}",
        f"dutch-bookable: {_yesno(violated)}",
    ]
    if verdict.logical_witness is not None:
        lines.insert(2, f"non-extendable support section: {verdict.logical_witness}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# The --tier values, each the lower-case name of a contextual Tier member.
_TIER_FLAGS = ("strong", "logical", "probabilistic")


def _cmd_witness(args) -> int:
    from .violations import witness_from_verdict
    from .wps import build_combinatorial_rep
    name, model = _resolve_model(args)
    # The verdict is the witness's evidence; a model without the tier is refused before any representation is built.
    if args.tier:
        verdict = classifier._tier_verdict(model, classifier.Tier[args.tier.upper()], args.cap)
    else:
        verdict = classifier.classify(model, cap=args.cap)
    classifier._refuse_noncontextual(verdict.tier)
    rep = build_combinatorial_rep(model, cap=args.cap)
    witness = witness_from_verdict(rep, verdict)
    if args.format == "structured":
        from .serialize import witness_to_dict
        _emit(json.dumps(witness_to_dict(rep, witness), indent=2) + "\n", args.out)
        return 0
    lines = [
        f"model: {name}",
        f"violation: {witness.kind}",
        f"defect: {witness.defect}",
        f"collection ({len(witness.collection)} events):",
    ]
    for event in witness.collection:
        lines.append("  {" + ",".join(rep.points_of(event)) + "}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_dutchbook(args) -> int:
    name, model = _resolve_model(args)
    # A model has a book exactly when it is contextual, so a Noncontextual verdict builds no representation.
    verdict = classifier.classify(model, cap=args.cap)
    if verdict.tier is classifier.Tier.NONCONTEXTUAL:
        if args.format == "structured":
            _emit(json.dumps({"model": name, "tier": str(verdict.tier), "dutch_book": None}, indent=2) + "\n",
                  args.out)
        else:
            _emit(f"model: {name}\nno dutch book: the set function is a convex "
                  "combination of point functionals\n", args.out)
        return 0
    from .dutchbook import dutch_book_table
    from .wps import build_combinatorial_rep
    rep = build_combinatorial_rep(model, cap=args.cap)
    certificate, payoffs = dutch_book_table(rep, verdict)
    if args.format == "structured":
        from .serialize import certificate_to_dict
        document = certificate_to_dict(rep, certificate)
        document["payoffs"] = {p: str(value) for p, value in zip(rep.points, payoffs)}
        _emit(json.dumps(document, indent=2) + "\n", args.out)
        return 0
    lines = [
        f"model: {name}",
        f"guaranteed loss: {certificate.loss_bound}",
        "stakes:",
    ]
    for event, stake in certificate.stakes:
        lines.append(f"  {str(stake):>6}  on {{{','.join(rep.points_of(event))}}}")
    lines.append("payoff per sample point (all at most the negated loss bound):")
    lines += (f"  {p}: {value}" for p, value in zip(rep.points, payoffs))
    lines.append(f"worst case: {max(payoffs)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    from .serialize import KIND_CERTIFICATE, KIND_EXPERIMENT, KIND_EXTENSION, KIND_MODEL, KIND_WITNESS
    from .serialize import certificate_from_dict, extension_from_dict, load, model_from_dict, witness_from_dict
    document = load(Path(args.file))
    kind = document.get("kind")
    if kind == KIND_MODEL:
        model = model_from_dict(document)
        report = check_model(model)
        if not report.ok:
            sys.stderr.write(str(report) + "\n")
            return 2
        _emit("model document verified: tables are exact distributions "
              "agreeing on overlaps\n", None)
        return 0
    if kind == KIND_EXPERIMENT:
        _snapped(document, args)
        _emit("experiment document verified: snapped tables pass the "
              "no-signaling check\n", None)
        return 0
    from .wps import build_combinatorial_rep
    name, model = _resolve_model(args)
    rep = build_combinatorial_rep(model, cap=args.cap)
    if kind == KIND_CERTIFICATE:
        from .dutchbook import verify_certificate
        certificate = certificate_from_dict(rep, document)
        if verify_certificate(rep, certificate):
            _emit(f"certificate verified against {name}: every point loses at "
                  f"least {certificate.loss_bound}\n", None)
            return 0
        sys.stderr.write("certificate failed: some point does not lose the bound\n")
        return 2
    if kind == KIND_WITNESS:
        from .violations import verify_witness
        witness = witness_from_dict(rep, document)
        if verify_witness(rep, witness):
            _emit(f"witness verified against {name}: defect {witness.defect} recomputed\n", None)
            return 0
        sys.stderr.write("witness failed re-verification\n")
        return 2
    if kind == KIND_EXTENSION:
        from .violations import verify_extension
        extension, extension_kind = extension_from_dict(rep, document)
        verdict = verify_extension(rep, extension, extension_kind, cap=args.cap)
        if verdict.ok:
            _emit(f"extension verified against {name} as {extension_kind}\n", None)
            return 0
        sys.stderr.write(str(verdict) + "\n")
        return 2
    raise SchemaError(f"cannot verify a document of kind {kind!r}")


def _cmd_export(args) -> int:
    from .exports import export_bundle_diagram, export_nerve, structured_to_text
    name, model = _resolve_model(args)
    if args.kind == "bundle":
        text, structured = export_bundle_diagram(model)
    else:
        from .wps import build_combinatorial_rep
        rep = build_combinatorial_rep(model, cap=args.cap)
        text, structured = export_nerve(rep, cap=args.cap)
    if args.format == "structured":
        _emit(structured_to_text(structured), args.out)
    else:
        _emit(text, args.out)
    return 0


def _cmd_catalog_list(args) -> int:
    lines = []
    for entry in _catalog.catalog():
        experiment = " (bundled experiment)" if entry.experiment_factory else ""
        lines.append(f"{entry.name:18} {entry.expected_tier.value:14}{experiment}")
        lines.append(f"    {entry.notes}")
    _emit("\n".join(lines) + "\n", getattr(args, "out", None))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contextuality",
        description="Classify models in the contextuality hierarchy and build "
                    "their additivity-violation and Dutch-book witnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="tier plus both violation hierarchies")
    _add_model_arguments(p)
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("witness", help="violation witness for a tier")
    _add_model_arguments(p)
    p.add_argument("--tier", choices=tuple(_TIER_FLAGS))
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("dutchbook", help="stake certificate and payoff table")
    _add_model_arguments(p)
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_dutchbook)

    p = sub.add_parser("verify", help="re-check a certificate, witness, extension, or model file")
    _add_model_arguments(p)
    p.add_argument("--file", required=True, help="document to verify")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("export", help="bundle or nerve description")
    _add_model_arguments(p)
    p.add_argument("--kind", choices=("bundle", "nerve"), default="bundle")
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_export)

    p = sub.add_parser("catalog-list", help="bundled models and their expected tiers")
    p.set_defaults(handler=_cmd_catalog_list)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except EnumerationCapError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (ContextualityError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
