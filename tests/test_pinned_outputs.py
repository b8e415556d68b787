"""Byte-exact pins of CLI outputs and demo transcripts.

Each CLI command runs in process on the five catalog models and the bundled
singlet experiment document.  A command that writes a document (``--out``)
is pinned by the document's sha256, every other command by the sha256 of
its stdout.  Demos 01-04 must print exactly their stored transcripts.
Refactors of the representation layers must leave all of these unchanged.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from contextuality.cli import main
from contextuality.quantum import experiment_to_dict, singlet_experiment
from contextuality.serialize import dumps

ROOT = Path(__file__).resolve().parent.parent
TRANSCRIPTS = Path(__file__).resolve().parent / "transcripts"

COMMANDS = {
    "classify": ["classify"],
    "classify-structured": ["classify", "--format", "structured"],
    "witness": ["witness", "--format", "structured", "--out", "{out}"],
    "dutchbook": ["dutchbook", "--format", "structured", "--out", "{out}"],
    "export-nerve": ["export", "--kind", "nerve"],
}

PINNED = {
    ("bell", "classify"): "72b71f5127b716c8b07332032cc30e434d5890f7a683c18520182b5d321df943",
    ("bell", "classify-structured"): "65e1c2947713e7b6502b7340a7b679d741ca2a6971ec4f976b8965c8df88c1b6",
    ("bell", "witness"): "cb2ab19cdfa420e742f975d96d9f4d28f158d018c8a98de6795d7d5030ac77c7",
    ("bell", "dutchbook"): "0299e2c075e53daee19e97f106f6c360a0b216fc3e85753fd5e39dab26a607fd",
    ("bell", "export-nerve"): "ded04d99e97acb70246cd40da4f88279f0c0f30782ca66893f103175992429d9",
    ("hardy", "classify"): "727813861123533b84290058f4675c0b248ad720dc3208a427a6718f6999e3ab",
    ("hardy", "classify-structured"): "4bff5b9a885afbec529b82d35911a80d666bb43c00098390f59d57180abfc187",
    ("hardy", "witness"): "816d5077cd4d8fdab51abb0d814f623c855f3dc4cf284609099d8556499e9f09",
    ("hardy", "dutchbook"): "0f433b074ba02b5d1552a7db86a755b3dd39f296257245ffe61957f7e9c9072d",
    ("hardy", "export-nerve"): "822c96812127583a4e26c67d0e058ebccb7444026d6a08d3ee8726ad8f91a341",
    ("pr-box", "classify"): "ecd09dd459bd17e60ce015a2ccc2f8f3f73a245c2fb0738b8c9b9d412da1c19e",
    ("pr-box", "classify-structured"): "ce59ffd545d71ba06e576d435f63da747f5a01a0a36d154af061018163ad7f7d",
    ("pr-box", "witness"): "6f90a589c574ac93d83a5480cdf5f58e3232f4ce8630cd57535819651668ff91",
    ("pr-box", "dutchbook"): "fc4514900ffb2aeede97d0d2604df0e9bd58d97ba0979c45ec4f84e52c9eec01",
    ("pr-box", "export-nerve"): "ad56df33e15219d871c9a9a6a7a890dc5847655674c103850d1b1d09d82a42f1",
    ("specker-triangle", "classify"): "ae3ed6272ab1d57a90c06c9a0fae70e1669c05293ef66eb31c4372d91961a7b0",
    ("specker-triangle", "classify-structured"): "7e53dc6833c88b48271386d0fad7c91e6327bf6f8d8e2f823f5ef0508ba3a8a4",
    ("specker-triangle", "witness"): "2583833de5532c2860525ca9aea4b8d046a06e1de242b4c16e76263398d69931",
    ("specker-triangle", "dutchbook"): "0dbb9eeb66d7e27000914307504b12249d749f9a28d0c2e328c703c49563d460",
    ("specker-triangle", "export-nerve"): "e930a4a9c0601481bb5ce27b5023ec1b3cfe04d67a077d00fdade5b50e82d834",
    ("ghz", "classify"): "2c18c6ea5e69981e8e5d44b8215febb467953c482b7d5e511e951c9ca8affdee",
    ("ghz", "classify-structured"): "8e67797eca8fe49f26596f846d78a0a0d7ceb33119f471ee4b553a74c8694903",
    ("ghz", "witness"): "e9b964e98f6f7e7f6c73d397aa9a7b53e2d521f20dffd50d2e6c5fc471e70470",
    ("ghz", "dutchbook"): "7978220aab1568cff5fdcc65e1495e3af5f19ece469070a121947c3988ee7b1c",
    ("ghz", "export-nerve"): "9458f2077c51295ca4bc7c8bfbb27b8e889dae80ec8445ea33e58370e45de7ef",
    ("singlet", "classify"): "4ed13b56d9bb760a7e4e0e28f937de1228492b9a2573efe5e44dc066e07ffa34",
    ("singlet", "classify-structured"): "03194ced89cac8735db81826d4dda3bef724c86191867d2fde1bbc0db5f41ac8",
    ("singlet", "witness"): "cb2ab19cdfa420e742f975d96d9f4d28f158d018c8a98de6795d7d5030ac77c7",
    ("singlet", "dutchbook"): "0299e2c075e53daee19e97f106f6c360a0b216fc3e85753fd5e39dab26a607fd",
    ("singlet", "export-nerve"): "ded04d99e97acb70246cd40da4f88279f0c0f30782ca66893f103175992429d9",
}


@pytest.fixture(scope="module")
def singlet_path(tmp_path_factory):
    # The model name printed by the CLI is the document's file stem.
    path = tmp_path_factory.mktemp("documents") / "singlet.json"
    path.write_text(dumps(experiment_to_dict(singlet_experiment())), encoding="utf-8")
    return path


@pytest.mark.parametrize("model, command", sorted(PINNED), ids=lambda v: v)
def test_cli_bytes_are_pinned(model, command, singlet_path, tmp_path):
    target = str(singlet_path) if model == "singlet" else model
    out = tmp_path / "document.json"
    head, *flags = COMMANDS[command]
    argv = [head, target] + [flag.replace("{out}", str(out)) for flag in flags]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    assert code == 0
    written = out.read_bytes() if out.exists() else stdout.getvalue().encode("utf-8")
    assert hashlib.sha256(written).hexdigest() == PINNED[(model, command)]


@pytest.mark.parametrize("transcript", sorted(p.name for p in TRANSCRIPTS.glob("*.txt")))
def test_demo_prints_its_transcript(transcript):
    demo = ROOT / "demos" / transcript.replace(".txt", ".py")
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"},
    )
    assert result.stdout == (TRANSCRIPTS / transcript).read_text(encoding="utf-8")
