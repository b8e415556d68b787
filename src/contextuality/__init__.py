"""Exact classification of contextual models and their Dutch-book witnesses.

The package works with exact rational probabilities end to end: empirical
models over measurement scenarios, the strong/logical/probabilistic
hierarchy with verified witnesses, weak-probability-space representations,
additivity-violation witnesses, and stake certificates whose guaranteed
loss is checked by exhaustive enumeration.

Importing the package runs no submodule: each layer but the CLI sits in
``sys.modules`` as a lazy module, compiled on first use, so a walk over
``sys.modules`` (a tracer, a patch) still reaches every layer.  A public name
is read from its layer on first use (PEP 562) and kept in this namespace.
A layer that calls another on some paths only binds that lazy module
(``from . import feasibility``) and reads the name at the call site
(``feasibility.solve_source``), so the other compiles only on such a path;
``from .x import name`` is for names a module body uses and layers every path runs.
"""

import importlib.util as _util
import sys as _sys

# Each submodule and the public names it defines (feasibility and record define none).
_EXPORTS = {
    "classifier": "GlobalDistributionCertificate Tier TierVerdict classify consistent_global_sections "
                  "global_distribution is_logically_contextual is_strongly_contextual",
    "distribution": "Distribution marginalize point_mass uniform",
    "dutchbook": "AtomicFunctional ConvexityVerdict DutchBookCertificate atomic_functional convexity_hierarchy "
                 "convexity_membership distribution_to_convex_point find_dutch_book section_to_functional "
                 "verify_certificate",
    "errors": "ContextualityError DEFAULT_ENUMERATION_CAP",
    "extensions": "CoverExtension EnvelopeExtension ExplicitExtension MixedExtension PointMeasureExtension "
                  "canonical_monotone_extension cheapest_cover_of_space sample_monotone_extensions",
    "feasibility": "",
    "model": "CompatibilityReport EmpiricalModel check_model deterministic_model mixture model_from_tables",
    "quantum": "QuantumExperiment ghz_experiment is_weak_hv_representation quantum_to_empirical singlet_experiment "
               "snap_to_rational weak_hv_report",
    "record": "",
    "scenario": "Scenario Section all_contexts glue restrict sections_over",
    "violations": "AdditiveCover MarginalizationFailure ViolationKind ViolationWitness additivity_violation defect "
                  "has_classical_extension logical_subadditivity_violation marginalization_failure "
                  "strong_subadditivity_violation subadditivity_violation_by_cover tier_violation_witness "
                  "verify_extension verify_witness",
    "wps": "ExcisionReport PadPoint WpsRepresentation build_combinatorial_rep build_padded_rep excise extend_event "
           "verify_rep",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_LAYERS = (*_EXPORTS, "catalog", "exports", "serialize")

# Registered, not run: a layer compiles and runs on its first attribute read or import statement.
for _layer in _LAYERS:
    _spec = _util.find_spec(f"{__name__}.{_layer}")
    _spec.loader = _util.LazyLoader(_spec.loader)
    _sys.modules[_spec.name] = _module = _util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)
del _layer, _spec, _module

__all__ = sorted([*_HOME, *_EXPORTS])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _LAYERS:
        value = _sys.modules[f"{__name__}.{name}"]
    elif name in _HOME:
        value = getattr(_sys.modules[f"{__name__}.{_HOME[name]}"], name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
