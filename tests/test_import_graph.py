"""numpy loads only for quantum experiments, and the CLI never loads dataclasses or inspect.

Each probe runs in a fresh interpreter, because this suite's own quantum
tests import numpy into the test process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from contextuality.quantum import experiment_to_dict, singlet_experiment

SRC = Path(__file__).resolve().parents[1] / "src"

# Each costs a CLI process milliseconds to import: numpy for its BLAS start-up,
# dataclasses and inspect for the ast, dis and tokenize modules they pull in.
WATCHED = ("dataclasses", "inspect", "numpy")

PROBE = """
import contextlib, io, json, sys
watched = json.loads(sys.argv[2])
import contextuality
from contextuality import cli
report = [("import contextuality", [m for m in watched if m in sys.modules], 0, "")]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    report.append((" ".join(argv), [m for m in watched if m in sys.modules], code, out.getvalue()))
print(json.dumps(report))
"""


def probe(*argvs: list[str]) -> list[tuple[str, list[str], int, str]]:
    """Run CLI commands in one fresh interpreter; after each, which watched modules are loaded?"""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argvs), json.dumps(WATCHED)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120, check=True,
    )
    return [tuple(step) for step in json.loads(done.stdout)]


def test_catalog_commands_do_not_load_numpy():
    # Nor dataclasses or inspect: no watched module loads on a catalog model.
    report = probe(["classify", "bell"], ["export", "ghz", "--kind", "nerve"], ["catalog-list"])
    assert [(step, loaded, code) for step, loaded, code, _ in report] == [
        ("import contextuality", [], 0),
        ("classify bell", [], 0),
        ("export ghz --kind nerve", [], 0),
        ("catalog-list", [], 0),
    ]


def test_experiment_document_loads_numpy(tmp_path):
    document = tmp_path / "singlet.json"
    document.write_text(json.dumps(experiment_to_dict(singlet_experiment())))
    _, (_, before, _, bell), (_, loaded, code, singlet) = probe(["classify", "bell"], ["classify", str(document)])
    assert "numpy" not in before
    assert "numpy" in loaded and code == 0
    assert singlet.splitlines()[1] == bell.splitlines()[1] == "tier: Probabilistic"
