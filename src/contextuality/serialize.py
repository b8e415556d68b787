"""Versioned JSON documents for scenarios, models, certificates, and reports.

Probabilities travel as "p/q" strings; JSON numbers are rejected for them,
so nothing is ever parsed through floating point.  Measurement and outcome
labels must be comma-free strings (context and section keys are comma
joined).  Every document carries ``schema_version`` and ``kind``.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Mapping

from . import classifier
from .distribution import Distribution
from .errors import DomainError, SchemaError
from .model import EmpiricalModel
from .scenario import Scenario, global_section_columns, sections_over

# Imported where their objects are built, so reading a model document does not load them.
if TYPE_CHECKING:
    from .dutchbook import DutchBookCertificate
    from .extensions import ExplicitExtension
    from .violations import ViolationWitness
    from .wps import WpsRepresentation

SCHEMA_VERSION = 1

KIND_MODEL = "empirical-model"
KIND_SCENARIO = "scenario"
KIND_CERTIFICATE = "dutch-book-certificate"
KIND_WITNESS = "violation-witness"
KIND_EXTENSION = "extension"
KIND_EXPERIMENT = "quantum-experiment"


def _check_label(label: Any, field: str) -> str:
    if not isinstance(label, str) or not label or "," in label:
        raise SchemaError(f"label {label!r} must be a non-empty comma-free string", field)
    return label


def _fraction_from(value: Any, field: str) -> Fraction:
    # Only the written form: Fraction would also read "1e10000000", and take seconds to expand it.
    if not isinstance(value, str) or not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", value):
        raise SchemaError(f"probabilities must be 'p/q' strings, got {value!r}", field)
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"cannot parse rational {value!r}: {exc}", field) from None


def _expect(document: Mapping, key: str, field: str | None = None, kind: type = object) -> Any:
    if not isinstance(document, Mapping):
        raise SchemaError(f"expected an object, got {document!r}", field)
    if key not in document:
        raise SchemaError(f"missing field {key!r}", field)
    if not isinstance(document[key], kind):
        raise SchemaError(f"field {key!r} must be a {kind.__name__}, got {document[key]!r}", field)
    return document[key]


def _check_header(document: Mapping, kind: str) -> None:
    version = _expect(document, "schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {version!r}")
    got = _expect(document, "kind")
    if got != kind:
        raise SchemaError(f"expected kind {kind!r}, found {got!r}")


# ---------------------------------------------------------------------------
# Scenario and model documents
# ---------------------------------------------------------------------------


def scenario_to_dict(scenario: Scenario) -> dict:
    for m in scenario.measurements:
        _check_label(m, "measurements")
    for o in scenario.outcomes:
        _check_label(o, "outcomes")
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": KIND_SCENARIO,
        "measurements": list(scenario.measurements),
        "outcomes": list(scenario.outcomes),
        "maximal_contexts": [list(c) for c in scenario.maximal_contexts],
    }


def scenario_from_dict(document: Mapping) -> Scenario:
    _check_header(document, KIND_SCENARIO)
    return _scenario_from_fields(document, field="")


def _scenario_from_fields(document: Mapping, field: str) -> Scenario:
    measurements = [_check_label(m, field + "measurements") for m in _expect(document, "measurements", field, list)]
    outcomes = [_check_label(o, field + "outcomes") for o in _expect(document, "outcomes", field, list)]
    contexts = []
    for i, context in enumerate(_expect(document, "maximal_contexts", field, list)):
        where = f"{field}maximal_contexts[{i}]"
        if not isinstance(context, list):
            raise SchemaError(f"a maximal context must be a list of measurements, got {context!r}", where)
        contexts.append(tuple(_check_label(m, where) for m in context))
    try:
        return Scenario(measurements, contexts, outcomes)
    except ValueError as exc:
        raise SchemaError(str(exc), field + "maximal_contexts") from None


def model_to_dict(model: EmpiricalModel) -> dict:
    scenario = model.scenario
    header = scenario_to_dict(scenario)
    tables: dict[str, dict[str, str]] = {}
    for context in scenario.maximal_contexts:
        key = ",".join(context)
        table = model.table(context)
        tables[key] = {
            ",".join(s.values): str(table.weight(s))
            for s in sections_over(scenario, context)
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": KIND_MODEL,
        "scenario": {
            "measurements": header["measurements"],
            "outcomes": header["outcomes"],
            "maximal_contexts": header["maximal_contexts"],
        },
        "tables": tables,
    }


def model_from_dict(document: Mapping) -> EmpiricalModel:
    """Parse a model document.  Structure is validated here; the exact
    no-signaling condition is the caller's check to run and report."""
    _check_header(document, KIND_MODEL)
    scenario = _scenario_from_fields(_expect(document, "scenario"), field="scenario.")
    tables_doc = _expect(document, "tables", kind=dict)
    tables = {}
    for key in tables_doc:
        field, rows = f"tables.{key}", _expect(tables_doc, key, "tables", dict)
        context = tuple(key.split(","))
        try:
            context = scenario.canonical_context(context)
        except Exception:
            raise SchemaError(f"unknown context key {key!r}", field) from None
        if context not in scenario.maximal_contexts:
            raise SchemaError(f"{key!r} is not a maximal context", field)
        weights = {}
        for section_key, raw in rows.items():
            outcomes = tuple(section_key.split(","))
            if len(outcomes) != len(context):
                raise SchemaError(f"section key {section_key!r} has wrong arity", field)
            try:
                section = scenario.section(dict(zip(context, outcomes)))
            except Exception:
                raise SchemaError(f"bad section key {section_key!r}", f"{field}.{section_key}") from None
            weights[section] = _fraction_from(raw, f"{field}.{section_key}")
        try:
            tables[context] = Distribution(scenario, context, weights)
        except Exception as exc:
            raise SchemaError(str(exc), field) from None
    try:
        return EmpiricalModel(scenario, tables)
    except Exception as exc:
        raise SchemaError(str(exc), "tables") from None


# ---------------------------------------------------------------------------
# Certificates, witnesses, extensions
# ---------------------------------------------------------------------------


def _event_from_labels(rep: WpsRepresentation, labels, field: str) -> int:
    if not isinstance(labels, list):
        raise SchemaError(f"an event must be a list of sample points, got {labels!r}", field)
    for label in labels:
        if not isinstance(label, str):
            raise SchemaError(f"unknown sample point {label!r}", field)
    try:
        return rep.event_of(labels)
    except DomainError as exc:
        raise SchemaError(str(exc), field) from None


def certificate_to_dict(rep: WpsRepresentation, certificate: DutchBookCertificate) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": KIND_CERTIFICATE,
        "stakes": [
            {"event": list(rep.points_of(event)), "stake": str(stake)}
            for event, stake in certificate.stakes
        ],
        "loss_bound": str(certificate.loss_bound),
    }


def certificate_from_dict(rep: WpsRepresentation, document: Mapping) -> DutchBookCertificate:
    from .dutchbook import DutchBookCertificate

    _check_header(document, KIND_CERTIFICATE)
    stakes = []
    for i, item in enumerate(_expect(document, "stakes", kind=list)):
        event = _event_from_labels(rep, _expect(item, "event", f"stakes[{i}]"), f"stakes[{i}].event")
        stakes.append((event, _fraction_from(_expect(item, "stake", f"stakes[{i}]"), f"stakes[{i}].stake")))
    bound = _fraction_from(_expect(document, "loss_bound"), "loss_bound")
    if bound <= 0:
        raise SchemaError("loss_bound must be positive", "loss_bound")
    return DutchBookCertificate(tuple(stakes), bound)


def witness_to_dict(rep: WpsRepresentation, witness: ViolationWitness) -> dict:
    from .violations import MarginalizationFailure

    document = {
        "schema_version": SCHEMA_VERSION,
        "kind": KIND_WITNESS,
        "violation": witness.kind.value,
        "collection": [list(rep.points_of(e)) for e in witness.collection],
        "defect": str(witness.defect),
    }
    data = witness.support_data
    if isinstance(data, MarginalizationFailure):
        document["support"] = {
            "context": list(data.context),
            "section": list(data.section.values),
            "extension_kind": data.extension_kind,
        }
        if data.certificate is not None:  # one coefficient per global-section row, in row order
            weight_of = dict(zip(data.certificate.rows, data.certificate.coefficients))
            rows = global_section_columns(rep.model.scenario).rows
            document["support"]["certificate"] = [str(weight_of[r]) for r in rows]
    return document


def witness_from_dict(rep: WpsRepresentation, document: Mapping) -> ViolationWitness:
    from .violations import MarginalizationFailure, ViolationKind, ViolationWitness

    _check_header(document, KIND_WITNESS)
    try:
        kind = ViolationKind(_expect(document, "violation"))
    except ValueError:
        raise SchemaError(f"unknown violation kind {document.get('violation')!r}", "violation") from None
    collection = tuple(
        _event_from_labels(rep, labels, f"collection[{i}]")
        for i, labels in enumerate(_expect(document, "collection", kind=list))
    )
    defect = _fraction_from(_expect(document, "defect"), "defect")
    support = None
    if kind is ViolationKind.MONOTONIC_ADDITIVITY:
        raw = _expect(document, "support")
        measurements = tuple(_check_label(m, "support.context") for m in _expect(raw, "context", "support", list))
        values = tuple(_check_label(o, "support.section") for o in _expect(raw, "section", "support", list))
        if len(values) != len(measurements):
            raise SchemaError(f"{len(values)} outcomes for {len(measurements)} measurements", "support.section")
        extension_kind = _expect(raw, "extension_kind", "support.extension_kind", str)
        coefficients = tuple(_fraction_from(v, f"support.certificate[{i}]")
                             for i, v in enumerate(_expect(raw, "certificate", "support", list)))
        scenario = rep.model.scenario
        certificate = classifier.GlobalDistributionCertificate(global_section_columns(scenario).rows, coefficients)
        context = scenario.canonical_context(measurements)
        section = scenario.section(dict(zip(measurements, values)))
        support = MarginalizationFailure(context, section, rep.event(section), extension_kind, certificate)
    return ViolationWitness(kind, collection, defect, support)


def extension_to_dict(rep: WpsRepresentation, extension: ExplicitExtension, extension_kind: str) -> dict:
    if extension_kind not in ("monotonic", "classical"):
        raise SchemaError("extension_kind must be 'monotonic' or 'classical'")
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": KIND_EXTENSION,
        "extension_kind": extension_kind,
        "values": [
            {"event": list(rep.points_of(e)), "value": str(v)}
            for e, v in sorted(extension.values.items(), key=lambda item: rep.event_key(item[0]))
        ],
    }


def extension_from_dict(rep: WpsRepresentation, document: Mapping) -> tuple[ExplicitExtension, str]:
    from .extensions import ExplicitExtension

    _check_header(document, KIND_EXTENSION)
    extension_kind = _expect(document, "extension_kind")
    if extension_kind not in ("monotonic", "classical"):
        raise SchemaError(f"unknown extension_kind {extension_kind!r}", "extension_kind")
    values = {}
    for i, item in enumerate(_expect(document, "values", kind=list)):
        event = _event_from_labels(rep, _expect(item, "event", f"values[{i}]"), f"values[{i}].event")
        if event in values:
            raise SchemaError("an event is listed twice", f"values[{i}].event")
        values[event] = _fraction_from(_expect(item, "value", f"values[{i}]"), f"values[{i}].value")
    return ExplicitExtension(rep, values), extension_kind


# ---------------------------------------------------------------------------
# File plumbing
# ---------------------------------------------------------------------------


def dumps(document: Mapping) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def loads(text: str) -> dict:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise SchemaError("not valid JSON: nested too deeply") from None
    if not isinstance(document, dict):
        raise SchemaError("the top-level JSON value must be an object")
    return document


def load(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        try:
            return loads(handle.read())
        except UnicodeDecodeError as exc:
            raise SchemaError(f"not valid UTF-8: {exc}") from None
