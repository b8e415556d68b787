"""Seeded inputs, ops and output checks for the two benchmark workloads.

Every workload is a fixed pool of entries.  An entry's ``run`` is the timed
op; its ``check`` runs untimed afterwards and returns an error message when
the op's output is wrong, so a non-raising op can still count as failed.

* ``catalog-cli``: the CLI as a user types it, one subprocess per op, over
  the five catalog models plus the bundled singlet experiment document.
  Every op pays interpreter start and import; GHZ loads the representation,
  extension and Dutch-book layers while every LP stays at 64 columns or
  fewer.
* ``cycle-classify``: in-process ``classify`` on binary n-cycles.  Its cost
  is the 4n x 2^n global-section system, the exact simplex and the Farkas
  re-verification; no representation is built, so it is the workload on
  which a change to the representation layers should not move.

The library receives only models built through its public constructors;
the seed only decides the random families and the CLI model order.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import contextuality as C
from contextuality import catalog, classifier, quantum

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
VERDICTS = json.loads((BENCH / "verdicts.json").read_text(encoding="utf-8"))

CATALOG_MODELS = ("bell", "hardy", "pr-box", "specker-triangle", "ghz")

# cycle-classify: the box at every n, noisy boxes (the box mixed with 1/8,
# 1/4, 1/3, 1/2 or 3/4 of the uniform model; Probabilistic for odd n when
# the share is below 2/n, else Noncontextual) and one seeded draw of the
# perturbed and mixture families at n = 4, 5 and 7.  One seeded draw's
# simplex cost swings by a factor of two or more with the seed (0.3-0.9 s at
# n = 8, 2-8 s at n = 10), so seeded draws stay at n <= 7, where they are a
# small share of a pass.  n stops at 9: an n = 10 solve takes 2.5-3.5 s, so
# a run could hold only a few of them, and their noise would set ops_per_s.
# The noisy variants per n shape the pool so that its order statistics fall
# inside bands of deterministic entries of one size: the median on the
# middle one of the five n = 6 entries, with as many entries below them as
# above; and, over four passes, the tail (ten samples beyond it) inside the
# twenty samples of the n = 9 solves (about 1.2 s each).  A band of many
# samples keeps the order statistic steady when single ops land in fast or
# slow phases.
CLASSIFY_N = range(4, 10)
NOISE = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4))
_SEEDED = {4: 1, 5: 1, 7: 1}
CLASSIFY_DRAWS = {"noisy-box": {4: 3, 5: 3, 6: 4, 7: 1, 8: 5, 9: 5},
                  "perturbed": _SEEDED, "mixture": _SEEDED}
SMOKE_CLASSIFY_N = range(4, 6)

# The lines of ``contextuality classify`` compared against the stored digest.
DIGEST_KEYS = (
    "tier",
    "maximal subadditivity violation",
    "subadditivity violation",
    "additivity violation, every",
    "strong violation",
    "logical violation",
    "convexity violation",
    "classical extension exists",
    "dutch-bookable",
)


@dataclass
class Entry:
    """One op of a pool: a timed ``run`` and an untimed ``check`` of its result."""

    key: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


@dataclass
class Workload:
    name: str
    entries: list[Entry]
    inputs: dict
    in_process: bool
    # One pass's op time on the seed commit: a run of S seconds makes
    # round(S / pass_s) whole passes, the same number on every commit.
    pass_s: float
    child_peak_kb: list[int] = field(default_factory=lambda: [0])
    tiers: dict = field(default_factory=dict)

    def peak_rss_mb(self) -> float:
        """Peak RSS of the process doing the work: this one, or the largest CLI child."""
        if self.in_process:
            kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            kb = self.child_peak_kb[0]
        return kb / 1024.0

    def note_tier(self, entry_key: str, family: str, tier) -> None:
        self.tiers.setdefault(family, {})[entry_key] = str(tier)

    def tier_counts(self) -> dict:
        """Per family, how many pool entries landed in each tier."""
        out = {}
        for family, by_key in self.tiers.items():
            counts = out.setdefault(family, {})
            for tier in by_key.values():
                counts[tier] = counts.get(tier, 0) + 1
        return out


# ---------------------------------------------------------------------------
# Seeded n-cycle inputs, built only through public constructors
# ---------------------------------------------------------------------------


def cycle_box(n: int):
    """Binary n-cycle with every pair context perfectly anticorrelated.

    Strong for odd n (an odd cycle has no 2-colouring), noncontextual for
    even n.
    """
    measurements = tuple(f"m{i}" for i in range(n))
    contexts = tuple((measurements[i], measurements[(i + 1) % n]) for i in range(n))
    scenario = C.Scenario(measurements, contexts, ("0", "1"))
    half = Fraction(1, 2)
    tables = {
        context: {
            s: (half if s.values[0] != s.values[1] else Fraction(0))
            for s in C.sections_over(scenario, context)
        }
        for context in scenario.maximal_contexts
    }
    return scenario, C.model_from_tables(scenario, tables)


def _rng(seed: int, family: str, n: int, draw: int) -> random.Random:
    # One stream per entry, so changing the pool leaves other entries' inputs alone.
    return random.Random(f"{seed}:{family}:{n}:{draw}")


def cycle_models(seed: int, n_range, draws: dict[str, dict[int, int]]):
    """(family, n, draw, model): the box at every n plus the draws asked for per family."""
    out = []
    for n in n_range:
        scenario, box = cycle_box(n)
        out.append(("box", n, 0, box))
        uniform = C.model_from_tables(scenario, {
            c: {s: Fraction(1, 4) for s in C.sections_over(scenario, c)}
            for c in scenario.maximal_contexts})
        for draw in range(draws.get("noisy-box", {}).get(n, 0)):
            out.append(("noisy-box", n, draw, C.mixture([box, uniform], [1 - NOISE[draw], NOISE[draw]])))
        for draw in range(draws.get("perturbed", {}).get(n, 0)):
            out.append(("perturbed", n, draw, catalog.perturbed_model(box, _rng(seed, "perturbed", n, draw))))
        for draw in range(draws.get("mixture", {}).get(n, 0)):
            out.append(("mixture", n, draw, catalog.random_deterministic_mixture(
                scenario, _rng(seed, "mixture", n, draw))))
    return out


def _expected_tier(family: str, n: int, draw: int):
    """The tier a family must have whatever the seed, or None when it may vary."""
    if family == "box":
        return C.Tier.STRONG if n % 2 else C.Tier.NONCONTEXTUAL
    if family == "noisy-box":
        # Anticorrelation n(1 - p/2) exceeds the noncontextual bound n - 1 of an
        # odd cycle exactly when p < 2/n; full support rules out the logical tier.
        contextual = n % 2 and NOISE[draw] < Fraction(2, n)
        return C.Tier.PROBABILISTIC if contextual else C.Tier.NONCONTEXTUAL
    if family == "mixture" or n % 2 == 0:
        return C.Tier.NONCONTEXTUAL
    return None


def _verdict_problem(model, verdict, family: str, n: int, draw: int) -> Optional[str]:
    """Re-check a classification exactly, independently of how it was reached."""
    expected = _expected_tier(family, n, draw)
    if expected is not None and verdict.tier is not expected:
        return f"tier {verdict.tier}, expected {expected}"
    if verdict.tier is C.Tier.NONCONTEXTUAL:
        try:
            classifier.verify_global_distribution(model, verdict.global_distribution)
        except (AssertionError, C.ContextualityError) as exc:
            return f"global distribution fails to re-marginalize: {exc}"
    elif verdict.tier is C.Tier.PROBABILISTIC:
        if not verdict.certificate.verify(model):
            return "infeasibility certificate fails verification"
    elif verdict.tier is C.Tier.LOGICAL and verdict.logical_witness is None:
        return "logical verdict without a witness section"
    return None


# ---------------------------------------------------------------------------
# cycle-classify
# ---------------------------------------------------------------------------


def cycle_classify(seed: int, smoke: bool = False) -> Workload:
    n_range = SMOKE_CLASSIFY_N if smoke else CLASSIFY_N
    models = cycle_models(seed, n_range, CLASSIFY_DRAWS)
    workload = Workload("cycle-classify", [], {}, in_process=True, pass_s=13.5)

    def entry(family, n, draw, model):
        key = f"classify:{family}:n{n}:{draw}"

        def check(verdict):
            workload.note_tier(key, family, verdict.tier)
            return _verdict_problem(model, verdict, family, n, draw)
        return Entry(key, lambda: C.classify(model), check)

    workload.entries = [entry(*m) for m in models]
    workload.inputs = {"seed": seed, "n": [n_range[0], n_range[-1]],
                       "draws": {family: {str(n): k for n, k in per_n.items() if n in n_range}
                                 for family, per_n in CLASSIFY_DRAWS.items()}}
    return workload


# ---------------------------------------------------------------------------
# catalog-cli
# ---------------------------------------------------------------------------


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], workdir: Path, peak: list[int]):
    """Run one child to completion; returns (exit code, stdout, stderr)."""
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=cli_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    peak[0] = max(peak[0], usage.ru_maxrss)
    return (proc.returncode, out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"))


def write_singlet(workdir: Path) -> Path:
    """The bundled singlet experiment as a document, for ``classify PATH``."""
    path = workdir / "singlet.json"
    path.write_text(json.dumps(quantum.experiment_to_dict(quantum.singlet_experiment())), encoding="utf-8")
    return path


def parse_digest(stdout: str) -> list[str]:
    lines = []
    for raw in stdout.splitlines():
        key, sep, value = raw.partition(":")
        key, value = key.strip(), value.strip()
        if sep and key in DIGEST_KEYS and (key == "tier" or value in ("yes", "no")):
            lines.append(f"{key}: {value}")
    return lines


def catalog_cli(seed: int, workdir: Path, smoke: bool = False,
                command: Optional[Callable[[list[str], Path], list[str]]] = None,
                tamper: Optional[Callable[[Path], None]] = None) -> Workload:
    """The catalog CLI pool.  ``command`` turns CLI args into a child argv;
    ``tamper`` may rewrite each Dutch-book document before it is verified."""
    singlet = write_singlet(workdir)
    if command is None:
        def command(args, _op_dir):
            return [sys.executable, "-m", "contextuality.cli", *args]
    workload = Workload("catalog-cli", [], {}, in_process=False, pass_s=20.0)
    peak = workload.child_peak_kb
    models = list(CATALOG_MODELS[:1] if smoke else CATALOG_MODELS)
    random.Random(seed).shuffle(models)
    expected = {e.name: str(e.expected_tier) for e in catalog.catalog()}
    expected["singlet"] = expected["bell"]

    def entry(key, args, check_output, after=None):
        op_dir = workdir / key.replace(":", "_")
        op_dir.mkdir(parents=True, exist_ok=True)

        def run():
            result = spawn(command(args, op_dir), op_dir, peak)
            if after is not None:
                after()
            return result

        def check(result):
            code, out, err = result
            if code != 0:
                return f"exit {code}: {err.strip()[-200:]}"
            return check_output(out)
        return Entry(key, run, check)

    def classify_check(model):
        def check(out):
            lines = parse_digest(out)
            if not lines or lines[0] != f"tier: {expected[model]}":
                return f"tier line {lines[:1]}, expected {expected[model]}"
            if lines != VERDICTS[model]:
                return "verdict lines differ from the stored digest"
            workload.note_tier(model, "catalog", lines[0].split(": ")[1])
            return None
        return check

    def verified(out):
        return None if "verified" in out else f"not verified: {out.strip()[:200]}"

    def nonempty(out):
        return None if out.strip() else "empty output"

    entries = []
    for model in models:
        w, d = str(workdir / f"{model}-witness.json"), str(workdir / f"{model}-dutchbook.json")
        tamper_d = (lambda path=Path(d): tamper(path)) if tamper else None
        entries += [
            entry(f"classify:{model}", ["classify", model], classify_check(model)),
            entry(f"witness:{model}", ["witness", model, "--format", "structured", "--out", w], lambda out: None),
            entry(f"verify-witness:{model}", ["verify", model, "--file", w], verified),
            entry(f"dutchbook:{model}", ["dutchbook", model, "--format", "structured", "--out", d],
                  lambda out: None, tamper_d),
            entry(f"verify-dutchbook:{model}", ["verify", model, "--file", d], verified),
            entry(f"export-nerve:{model}", ["export", model, "--kind", "nerve"], nonempty),
        ]
    # The experiment document goes through Born-rule ingestion and snapping.
    entries.insert(random.Random(seed + 1).randrange(len(entries) + 1),
                   entry("classify:singlet", ["classify", str(singlet)], classify_check("singlet")))
    workload.entries = entries
    workload.inputs = {"seed": seed, "models": models + ["singlet"]}
    return workload


def build(name: str, seed: int, workdir: Path, smoke: bool = False, **options) -> Workload:
    """The named workload's pool; ``workdir`` receives any documents it writes."""
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "catalog-cli":
        return catalog_cli(seed, workdir, smoke, **options)
    if name == "cycle-classify":
        return cycle_classify(seed, smoke)
    raise KeyError(name)
