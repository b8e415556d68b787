"""Self-tests of the benchmark, at the smallest pool sizes.

    python3 bench/selftest.py

Checks that a smoke run of each workload prints every declared metric with
its unit and passes its output checks, that the traced run's counts repeat
exactly for one seed, that a tampered Dutch-book document fed to a
``verify`` op is counted as a failed op without aborting the run, and that
``BENCHMARK.json`` declares exactly the metrics the harness reports.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

def quiet_execute(*args, **kwargs) -> tuple[dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.execute(*args, **kwargs)
    return result, out.getvalue()


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def test_declared_metrics() -> None:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
          "BENCHMARK.json end_to_end matches the harness")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER),
          "BENCHMARK.json per_layer matches the harness")
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads match the harness")


def test_smoke(name: str) -> None:
    result, text = quiet_execute(name, seed=0, seconds=0, trace=False, smoke=True)
    check(result["correct"] and result["failed"] == 0, f"{name} smoke run passes its checks")
    lines = text.splitlines()
    for metric, unit in run.END_TO_END:
        check(any(line.split()[:1] == [metric] and line.split()[-1] == unit for line in lines),
              f"{name} prints {metric} in {unit}")
        check(result["metrics"][metric]["value"] > 0, f"{name} {metric} is positive")
    check(any(line.startswith("failed_ratio") for line in lines), f"{name} prints failed_ratio")


def test_trace_counts(name: str) -> None:
    first, _ = quiet_execute(name, seed=0, seconds=0, trace=True, smoke=True)
    second, text = quiet_execute(name, seed=0, seconds=0, trace=True, smoke=True)
    check(set(first["metrics"]) == {m for m, _ in run.PER_LAYER}, f"{name} traced run reports every per-layer metric")
    counts = [m for m, unit in run.PER_LAYER if unit == "count"]
    check(all(first["metrics"][m]["value"] == second["metrics"][m]["value"] for m in counts),
          f"{name} traced counts repeat exactly for one seed")
    check(first["metrics"]["trace.spans"]["value"] > 0, f"{name} traced run records spans")


def negate_stakes(path: Path) -> None:
    document = json.loads(path.read_text(encoding="utf-8"))
    for item in document["stakes"]:
        item["stake"] = item["stake"][1:] if item["stake"].startswith("-") else "-" + item["stake"]
    path.write_text(json.dumps(document), encoding="utf-8")


def test_tampered_dutch_book() -> None:
    result, text = quiet_execute("catalog-cli", seed=0, seconds=0, trace=False, smoke=True,
                                 tamper=negate_stakes)
    failed = [line for line in text.splitlines() if line.startswith("FAILED")]
    check(result["failed"] >= 1 and not result["correct"], "a tampered Dutch book counts as a failed op")
    check(all("verify-dutchbook" in line for line in failed),
          "only the verify of the tampered document fails")
    check(result["attempted"] >= 7 and "failed_ratio" in text, "the run goes on to finish its pass")


def main() -> int:
    test_declared_metrics()
    for name in run.WORKLOADS:
        test_smoke(name)
        test_trace_counts(name)
    test_tampered_dutch_book()
    return 0


if __name__ == "__main__":
    sys.exit(main())
