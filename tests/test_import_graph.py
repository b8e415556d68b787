"""The CLI never loads numpy, dataclasses or inspect.

Importing the package loads no submodule, and each CLI command loads only
the layers it runs.  Each probe runs in a fresh interpreter, because this
suite's own tests import numpy, for the Born-rule oracle, and every layer
into the test process.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import contextuality
from contextuality.quantum import experiment_to_dict, singlet_experiment
from contextuality.serialize import dumps, model_to_dict
from conftest import noisy_cycle, patch_every_layer

SRC = Path(__file__).resolve().parents[1] / "src"

# Each costs a CLI process milliseconds to import: numpy for its BLAS start-up,
# dataclasses and inspect for the ast, dis and tokenize modules they pull in.
WATCHED = ("dataclasses", "inspect", "numpy")

# Every layer of the package.  A CLI process pays for each one it loads by
# compiling it when there is no bytecode cache.
LAYERS = tuple(sorted(f"contextuality.{path.stem}" for path in (SRC / "contextuality").glob("[!_]*.py")))

# A module counts as loaded once it has run.  The package registers each
# layer in sys.modules as an importlib.util lazy module, which stays one
# until its first use runs it.
LOADED = """
import importlib.util, sys
def loaded(names):
    return [m for m in names if m in sys.modules and not isinstance(sys.modules[m], importlib.util._LazyModule)]
"""

PROBE = LOADED + """
import contextlib, io, json
watched = json.loads(sys.argv[2])
import contextuality
from contextuality import cli
report = [("import contextuality", loaded(watched), 0, "")]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    report.append((" ".join(argv), loaded(watched), code, out.getvalue()))
print(json.dumps(report))
"""


def fresh(*args: str) -> str:
    """stdout of a fresh interpreter that imports the package from this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120, check=True,
    )
    return done.stdout


def probe(*argvs: list[str], watched: tuple[str, ...] = WATCHED) -> list[tuple[str, list[str], int, str]]:
    """Run CLI commands in one fresh interpreter; after each, which watched modules are loaded?"""
    return [tuple(step) for step in json.loads(fresh("-c", PROBE, json.dumps(argvs), json.dumps(watched)))]


def test_catalog_commands_do_not_load_numpy():
    # Nor dataclasses or inspect: no watched module loads on a catalog model.
    report = probe(["classify", "bell"], ["export", "ghz", "--kind", "nerve"], ["catalog-list"])
    assert [(step, loaded, code) for step, loaded, code, _ in report] == [
        ("import contextuality", [], 0),
        ("classify bell", [], 0),
        ("export ghz --kind nerve", [], 0),
        ("catalog-list", [], 0),
    ]


def test_experiment_document_loads_no_numpy(tmp_path):
    # Born-rule ingestion is plain Python: the singlet document runs through
    # the quantum layer in classify, witness and verify without numpy.
    document = tmp_path / "singlet.json"
    document.write_text(json.dumps(experiment_to_dict(singlet_experiment())))
    report = probe(["classify", "bell"], ["classify", str(document)], ["witness", str(document)],
                   ["verify", "bell", "--file", str(document)])
    assert [(loaded, code) for _, loaded, code, _ in report] == [([], 0)] * 5
    (_, _, _, bell), (_, _, _, singlet) = report[1:3]
    assert singlet.splitlines()[1] == bell.splitlines()[1] == "tier: Probabilistic"
    assert report[4][3] == "experiment document verified: snapped tables pass the no-signaling check\n"


def layers_after(*argvs: list[str]) -> dict[str, set[str]]:
    """The package's layers loaded after each command, all run in one fresh interpreter."""
    return {step: {m.split(".")[1] for m in loaded} for step, loaded, _, _ in probe(*argvs, watched=LAYERS)}


def test_import_loads_no_submodule():
    loaded, listed = json.loads(fresh("-c", LOADED + "import json, contextuality; "
                                      "print(json.dumps([loaded(sorted(sys.modules)), dir(contextuality)]))"))
    assert [m for m in loaded if m.startswith("contextuality.")] == []
    assert [name for name in listed if not name.startswith("_")] == PUBLIC


def test_every_layer_is_registered_and_runs_when_its_namespace_is_read():
    # Code that wraps or patches layer functions by walking sys.modules before
    # a command runs (a tracer, a monkeypatch) must see, and so load, every
    # layer the command may go on to import.
    walk = LOADED + """
import json, contextuality.cli
registered = sorted(m for m in sys.modules if m.startswith("contextuality."))
before = loaded(registered)
wrappable = {m: sorted(n for n, v in vars(sys.modules[m]).items() if callable(v) and not n.startswith("_"))
             for m in registered}
print(json.dumps([registered, before, loaded(registered), wrappable]))
"""
    registered, before, after, wrappable = json.loads(fresh("-c", walk))
    assert registered == after == list(LAYERS)
    assert "contextuality.wps" not in before and "contextuality.extensions" not in before
    assert "CoverExtension" in wrappable["contextuality.extensions"]
    assert "build_combinatorial_rep" in wrappable["contextuality.wps"]


def test_classify_and_catalog_list_load_no_representation_layer():
    heavy = {"wps", "violations", "dutchbook", "extensions", "serialize", "exports", "quantum"}
    after = layers_after(["classify", "bell"], ["classify", "ghz", "--format", "structured"], ["catalog-list"])
    assert after["classify bell"] == {"catalog", "classifier", "cli", "distribution", "errors", "feasibility",
                                      "model", "record", "scenario"}
    for step, loaded in after.items():
        assert not loaded & heavy, step


def test_nerve_export_loads_only_the_representation():
    after = layers_after(["export", "ghz", "--kind", "nerve"])["export ghz --kind nerve"]
    assert "wps" in after and "exports" in after
    assert not after & {"serialize", "violations", "dutchbook", "extensions", "quantum"}


# The layers every catalog command loads: the CLI, the catalog and the model
# layers beneath it.  A layer that calls another only on some paths binds it
# as a module, so it loads only on a path that reads it.
BASE = {"catalog", "cli", "distribution", "errors", "model", "record", "scenario"}
REPRESENTATION = BASE | {"serialize", "wps"}

# The benchmark's catalog-cli ops on a Strong model (ghz) and a Probabilistic
# one (bell): the support cover decides ghz, so no LP solver loads for it.
CATALOG_OPS = {
    ("classify", "ghz"): BASE | {"classifier"},
    ("classify", "bell"): BASE | {"classifier", "feasibility"},
    ("witness", "ghz"): REPRESENTATION | {"classifier", "violations"},
    ("witness", "bell"): REPRESENTATION | {"classifier", "violations", "feasibility", "extensions"},
    ("verify-witness", "ghz"): REPRESENTATION | {"violations"},
    ("verify-witness", "bell"): REPRESENTATION | {"violations", "extensions", "classifier"},
    ("dutchbook", "ghz"): REPRESENTATION | {"dutchbook", "classifier"},
    ("dutchbook", "bell"): REPRESENTATION | {"dutchbook", "classifier", "feasibility"},
    ("verify-dutchbook", "ghz"): REPRESENTATION | {"dutchbook"},
    ("verify-dutchbook", "bell"): REPRESENTATION | {"dutchbook"},
    ("export-nerve", "ghz"): BASE | {"exports", "wps"},
    ("export-nerve", "bell"): BASE | {"exports", "wps"},
}


@pytest.fixture(scope="module")
def catalog_op_layers(tmp_path_factory) -> dict[tuple[str, str], set[str]]:
    """Each catalog-cli op on ghz and bell, run alone in a fresh interpreter: the layers it leaves loaded."""
    from contextuality.cli import main

    work = tmp_path_factory.mktemp("catalog-ops")
    layers = {}
    for model in ("ghz", "bell"):
        witness, book = str(work / f"{model}-witness.json"), str(work / f"{model}-book.json")
        argvs = {
            "classify": ["classify", model],
            "witness": ["witness", model, "--format", "structured", "--out", witness],
            "verify-witness": ["verify", model, "--file", witness],
            "dutchbook": ["dutchbook", model, "--format", "structured", "--out", book],
            "verify-dutchbook": ["verify", model, "--file", book],
            "export-nerve": ["export", model, "--kind", "nerve"],
        }
        # The documents the verify ops read, written in this process.
        assert main(argvs["witness"]) == main(argvs["dutchbook"]) == 0
        for op, argv in argvs.items():
            (_, loaded, code, _), = probe(argv, watched=LAYERS)[1:]
            assert code == 0, (op, model)
            layers[op, model] = {m.split(".")[1] for m in loaded}
    return layers


@pytest.mark.parametrize("op, model", list(CATALOG_OPS), ids=[f"{op}-{model}" for op, model in CATALOG_OPS])
def test_each_catalog_op_loads_only_the_layers_it_calls(catalog_op_layers, op, model):
    assert catalog_op_layers[op, model] == CATALOG_OPS[op, model]


def test_naming_a_catalog_model_builds_only_that_model():
    count = """
import contextlib, io, json, sys
from contextuality import catalog, cli
factories = json.loads(sys.argv[1])
report = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
    report.append([getattr(catalog, f).cache_info().misses for f in factories])
print(json.dumps(report))
"""
    factories = ["bell_model", "hardy_model", "pr_box_model", "specker_triangle_model", "ghz_model"]
    argvs = [["catalog-list"], ["classify", "bell"], ["witness", "bell"], ["export", "ghz"]]
    assert json.loads(fresh("-c", count, json.dumps(factories), json.dumps(argvs))) == [
        [0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0],
        [1, 0, 0, 0, 1],
    ]


def module_bindings(tree: ast.Module) -> dict[str, str]:
    """The names a module binds to whole layers with ``from . import layer [as name]``: name -> layer."""
    return {alias.asname or alias.name: alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
            for alias in node.names}


def test_every_layer_name_read_in_src_is_defined_by_that_layer():
    # A deferred read, `layer.attr` or a handler's `from .layer import name`,
    # runs only on its own path, so this test checks each against the layer.
    import importlib

    at_call_site, imported = [], []
    for path in sorted((SRC / "contextuality").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = module_bindings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound:
                at_call_site.append((path.stem, bound[node.value.id], node.attr, node.lineno))
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is not None:
                imported += [(path.stem, node.module, alias.name, node.lineno) for alias in node.names]
    missing = [read for read in at_call_site + imported
               if not hasattr(importlib.import_module(f"contextuality.{read[1]}"), read[2])]
    assert missing == []
    # The layers called on some paths only, each bound as a module and named at the call site.
    assert {(home, layer) for home, layer, _, _ in at_call_site} >= {
        ("classifier", "feasibility"), ("dutchbook", "classifier"), ("dutchbook", "feasibility"),
        ("violations", "classifier"), ("violations", "dutchbook"), ("violations", "extensions"),
        ("catalog", "classifier"), ("cli", "classifier"), ("cli", "catalog"),
    }


def test_documents_load_their_reader_and_no_more(tmp_path):
    model, experiment = tmp_path / "cycle.json", tmp_path / "singlet.json"
    model.write_text(dumps(model_to_dict(noisy_cycle(5, Fraction(1, 8)))))
    experiment.write_text(json.dumps(experiment_to_dict(singlet_experiment())))
    after = layers_after(["classify", str(model)], ["classify", str(experiment)])
    assert "serialize" in after[f"classify {model}"] and "quantum" not in after[f"classify {model}"]
    assert "quantum" in after[f"classify {experiment}"]
    for step, loaded in after.items():
        assert not loaded & {"wps", "violations", "dutchbook", "extensions", "exports"}, step


def test_patching_every_layer_leaves_the_package_names(monkeypatch):
    # The package keeps a public name from its first read.  Walked after the
    # layers with its names unresolved, a getattr-based patch loop resolved
    # them to the patch, and the package kept it after the undo.
    from contextuality import scenario

    originals = {"sections_over": scenario.sections_over, "restrict": scenario.restrict}
    for name in originals:
        monkeypatch.delitem(vars(contextuality), name, raising=False)
    # Re-inserted, the package is walked last; the undo puts back the same module.
    monkeypatch.delitem(sys.modules, "contextuality")
    monkeypatch.setitem(sys.modules, "contextuality", contextuality)

    def refuse(*args, **kwargs):
        raise AssertionError("patched")

    with monkeypatch.context() as patch:
        for name, original in originals.items():
            patch_every_layer(patch, name, original, refuse)
        assert scenario.sections_over is scenario.restrict is refuse
    assert contextuality.sections_over is scenario.sections_over is originals["sections_over"]
    assert contextuality.restrict is scenario.restrict is originals["restrict"]


# The parent package's public names before its namespace became lazy: 73
# functions, classes and constants, and the 12 submodules they come from.
PUBLIC = [
    "AdditiveCover", "AtomicFunctional", "CompatibilityReport", "ContextualityError", "ConvexityVerdict",
    "CoverExtension", "DEFAULT_ENUMERATION_CAP", "Distribution", "DutchBookCertificate", "EmpiricalModel",
    "EnvelopeExtension", "ExcisionReport", "ExplicitExtension", "GlobalDistributionCertificate",
    "MarginalizationFailure", "MixedExtension", "PadPoint", "PointMeasureExtension", "QuantumExperiment",
    "Scenario", "Section", "Tier", "TierVerdict", "ViolationKind", "ViolationWitness", "WpsRepresentation",
    "additivity_violation", "all_contexts", "atomic_functional", "build_combinatorial_rep", "build_padded_rep",
    "canonical_monotone_extension", "cheapest_cover_of_space", "check_model", "classifier", "classify",
    "consistent_global_sections", "convexity_hierarchy", "convexity_membership", "defect", "deterministic_model",
    "distribution", "distribution_to_convex_point", "dutchbook", "errors", "excise", "extend_event", "extensions",
    "feasibility", "find_dutch_book", "ghz_experiment", "global_distribution", "glue", "has_classical_extension",
    "is_logically_contextual", "is_strongly_contextual", "is_weak_hv_representation",
    "logical_subadditivity_violation", "marginalization_failure", "marginalize", "mixture", "model",
    "model_from_tables", "point_mass", "quantum", "quantum_to_empirical", "record", "restrict",
    "sample_monotone_extensions", "scenario", "section_to_functional", "sections_over", "singlet_experiment",
    "snap_to_rational", "strong_subadditivity_violation", "subadditivity_violation_by_cover",
    "tier_violation_witness", "uniform", "verify_certificate", "verify_extension", "verify_rep",
    "verify_witness", "violations", "weak_hv_report", "wps",
]

# For each public name: its defining module, whether the package gives the
# same object as that module, and whether the package namespace then keeps it.
HOMES = """
import importlib, json, sys
import contextuality
report = {}
for name in json.loads(sys.argv[1]):
    value = getattr(contextuality, name)
    if isinstance(value, type(contextuality)):
        home, is_home_attribute = value.__name__, value is importlib.import_module(value.__name__)
    else:
        # A constant carries no module of its own; every other name is defined where it is read from.
        home = "contextuality.errors" if name == "DEFAULT_ENUMERATION_CAP" else value.__module__
        is_home_attribute = getattr(importlib.import_module(home), name) is value
    report[name] = [home, is_home_attribute, vars(contextuality)[name] is value]
print(json.dumps(report))
"""


class TestPublicSurface:
    def test_all_is_the_parent_list(self):
        assert contextuality.__all__ == PUBLIC
        assert len(PUBLIC) == 85

    @pytest.fixture(scope="class")
    def homes(self) -> dict[str, list]:
        # A fresh interpreter: this suite's own tests patch layer functions by
        # walking sys.modules, and a name first read during such a patch keeps
        # the patched function in the package namespace.
        return json.loads(fresh("-c", HOMES, json.dumps(PUBLIC)))

    @pytest.mark.parametrize("name", PUBLIC)
    def test_each_name_is_its_defining_module_attribute(self, homes, name):
        home, is_home_attribute, kept = homes[name]
        if (SRC / "contextuality" / f"{name}.py").is_file():
            assert home == f"contextuality.{name}"
        assert home.startswith("contextuality.")
        assert is_home_attribute
        # Resolved once, then a plain lookup in the package namespace.
        assert kept

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from contextuality import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == PUBLIC
        assert all(namespace[name] is getattr(contextuality, name) for name in PUBLIC)

    @pytest.mark.parametrize("name", ["no_such_name", "cli_main", "_EXPORTS_", "__wrapped__"])
    def test_an_unknown_name_is_an_attribute_error(self, name):
        with pytest.raises(AttributeError, match=name):
            getattr(contextuality, name)
        assert not hasattr(contextuality, name)
