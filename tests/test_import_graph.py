"""numpy loads only for quantum experiments.

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

PROBE = """
import contextlib, io, json, sys
import contextuality
from contextuality import cli
report = [("import contextuality", "numpy" in sys.modules, 0, "")]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    report.append((" ".join(argv), "numpy" in sys.modules, code, out.getvalue()))
print(json.dumps(report))
"""


def probe(*argvs: list[str]) -> list[tuple[str, bool, int, str]]:
    """Run CLI commands in one fresh interpreter; after each, was numpy loaded?"""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argvs)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120, check=True,
    )
    return [tuple(step) for step in json.loads(done.stdout)]


def test_catalog_commands_do_not_load_numpy():
    report = probe(["classify", "bell"], ["export", "ghz", "--kind", "nerve"], ["catalog-list"])
    assert [(step, loaded, code) for step, loaded, code, _ in report] == [
        ("import contextuality", False, 0),
        ("classify bell", False, 0),
        ("export ghz --kind nerve", False, 0),
        ("catalog-list", False, 0),
    ]


def test_experiment_document_loads_numpy(tmp_path):
    document = tmp_path / "singlet.json"
    document.write_text(json.dumps(experiment_to_dict(singlet_experiment())))
    _, (_, before, _, bell), (_, loaded, code, singlet) = probe(["classify", "bell"], ["classify", str(document)])
    assert not before
    assert loaded and code == 0
    assert singlet.splitlines()[1] == bell.splitlines()[1] == "tier: Probabilistic"
