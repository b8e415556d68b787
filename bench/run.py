#!/usr/bin/env python3
"""The repository benchmark: one closed-loop client over a fixed pool of ops.

Run from the root of a checkout:

    python3 bench/run.py --workload cycle-classify --seed 1 --seconds 50 --trace 0

Workloads are ``catalog-cli`` and ``cycle-classify`` (see ``workloads.py``).
One op runs at a time, from this single process; ``catalog-cli`` runs each
op as a CLI child process.

``--trace 0`` makes round(seconds / pass_s) whole passes over the pool,
``pass_s`` being the workload's pass length on the seed commit, so every
run of a given length has the same samples and the same rank for the tail
percentile.  It keeps one sample per entry per pass and reports the
end-to-end metrics.  Their times are scaled to a reference speed of the
machine, sampled during the run with a fixed kernel that calls nothing
of the library (see ``Reference`` and ``reference.py``); the unscaled
figures are in the record line.  ``--trace 1`` makes one warm-up pass, then runs every
op once untraced and once traced and reports the per-layer metrics of the
traced ops.  Both print human-readable lines first (inputs, tier counts,
contention record) and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

The library is imported from ``src/`` next to this directory and nowhere
else; without it the benchmark exits with a non-zero code and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("catalog-cli", "cycle-classify")
SETUP_REPEATS = 7
PROBE_REPEATS = 3
REPEAT_S = 0.15
# A timed run samples the machine's speed with the kernel of
# ``reference.py`` every REFERENCE_EVERY_S of its time.
REFERENCE_EVERY_S = 0.75

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("cpu_s_per_op", "s"),
    ("peak_rss_mb", "MB"),
)

# Modules whose summed self time is reported as a share of traced op time.
LAYERS = ("scenario", "distribution", "model", "feasibility", "classifier", "wps",
          "extensions", "violations", "dutchbook", "quantum", "serialize", "exports", "cli")

# Per-layer metrics of the traced pass.  ``.self_s`` is the span's self
# time summed over the pass; ``.calls`` counts calls in the pass; the
# other counts are read off arguments and results by the tracer's probes.
PER_LAYER = (
    ("cli.startup_s", "s"),
    ("cli.import_s", "s"),
    ("scenario.sections_over.calls", "count"),
    ("scenario.sections_over.sections", "count"),
    ("scenario.restrict.calls", "count"),
    ("model.check_model.calls", "count"),
    ("model.check_model.self_s", "s"),
    ("distribution.marginalize.calls", "count"),
    ("distribution.marginalize.self_s", "s"),
    ("feasibility.solve_nonnegative.calls", "count"),
    ("feasibility.solve_nonnegative.rows", "count"),
    ("feasibility.solve_nonnegative.cols", "count"),
    ("feasibility.solve_nonnegative.cells", "count"),
    ("feasibility.solve_nonnegative.infeasible", "count"),
    ("feasibility.solve_nonnegative.self_s", "s"),
    ("feasibility.FarkasCertificate.verify.self_s", "s"),
    ("classifier.classify.self_s", "s"),
    ("classifier.consistent_global_sections.self_s", "s"),
    ("classifier.global_distribution.self_s", "s"),
    ("classifier.GlobalDistributionCertificate.verify.calls", "count"),
    ("classifier.GlobalDistributionCertificate.verify.self_s", "s"),
    ("classifier.verify_global_distribution.self_s", "s"),
    ("wps.build_combinatorial_rep.self_s", "s"),
    ("wps.verify_rep.calls", "count"),
    ("wps.verify_rep.self_s", "s"),
    ("wps.excise.calls", "count"),
    ("wps.excise.self_s", "s"),
    ("wps.points", "count"),
    ("wps.events", "count"),
    ("wps.transfer", "count"),
    ("extensions.CoverExtension.init.self_s", "s"),
    ("extensions.EnvelopeExtension.value.calls", "count"),
    ("extensions.EnvelopeExtension.value.self_s", "s"),
    ("extensions.cheapest_cover_of_space.self_s", "s"),
    ("violations.additivity_violation.self_s", "s"),
    ("violations.marginalization_failure.self_s", "s"),
    ("violations.tier_violation_witness.self_s", "s"),
    ("violations.has_classical_extension.self_s", "s"),
    ("violations.verify_witness.self_s", "s"),
    ("dutchbook.find_dutch_book.self_s", "s"),
    ("dutchbook.convexity_hierarchy.self_s", "s"),
    ("dutchbook.verify_certificate.calls", "count"),
    ("dutchbook.verify_certificate.self_s", "s"),
    ("quantum.quantum_to_empirical.self_s", "s"),
    ("serialize.load.self_s", "s"),
    ("exports.export_nerve.self_s", "s"),
    *((f"layer.{layer}.share", "1") for layer in LAYERS),
    ("trace.spans", "count"),
    ("trace.op_s", "s"),
    ("trace.overhead_ratio", "1"),
)


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------


def cpu_now() -> float:
    """User plus system CPU of this process and of every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def tail(samples: list[tuple[int, float, float]]) -> tuple[tuple[int, float, float], float, int]:
    """The sample at the highest percentile of wall time with at least ten samples beyond it.

    Returns (sample, percentile, sample count); with ten samples or fewer it
    is the slowest sample, at p100.
    """
    ordered = sorted(samples, key=lambda sample: sample[1])
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def new_loop() -> dict:
    return {"samples": [], "passes": [], "failures": [], "attempted": 0, "measured": 0.0}


def run_op(loop: dict, entry, tracer=None) -> tuple[float, float, bool]:
    """Time one op and check its result untimed; returns (wall, CPU, failed).

    An op that raises, or whose check fails, is a failed op, not a failed run.
    """
    error = None
    c0, t0 = cpu_now(), time.perf_counter()
    if tracer is not None:
        tracer.begin_op(entry.key)
    try:
        result = entry.run()
    except Exception as exc:
        error = f"raised {type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    finally:
        if tracer is not None:
            tracer.end_op()
    wall, cpu = time.perf_counter() - t0, cpu_now() - c0
    if error is None:
        try:
            error = entry.check(result)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
    if error is not None:
        loop["failures"].append(f"{entry.key}: {error}")
    loop["attempted"] += 1
    loop["measured"] += wall
    loop["passes"][-1][0] += wall
    loop["passes"][-1][1] += cpu
    return wall, cpu, error is not None


class Reference:
    """Samples the machine's speed between ops, for scaling a run's times.

    CPU speed on a shared machine shifts by a third and more between runs
    made minutes apart, more than the figures' bounds.  The kernel runs
    untimed by the op figures, every REFERENCE_EVERY_S, so its mean time
    follows the speed the ops ran at over the whole run.  When the ops are
    child processes (``child``), so is the kernel, timed start-up included:
    CLI ops are mostly interpreter start-up, and a kernel timed in this
    process follows their speed less closely.
    """

    def __init__(self, child: bool) -> None:
        self.child = child
        self.samples: list[float] = []
        self.last = time.perf_counter()

    def sample(self) -> None:
        t0 = time.perf_counter()
        if self.child:
            subprocess.run([sys.executable, str(BENCH / "reference.py")], check=True, timeout=60)
        else:
            reference.kernel()
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= REFERENCE_EVERY_S:
            self.sample()

    def slowdown(self) -> float:
        """The run's mean kernel time over the reference one: above 1 on a slower machine."""
        unit = reference.CHILD_SECONDS if self.child else reference.SECONDS
        return statistics.fmean(self.samples) / unit


def run_passes(workload, passes: int, repeat_s: float = REPEAT_S, between=None,
               speed=None) -> dict:
    """Run ``passes`` whole passes over the pool, keeping one sample per entry per pass.

    A pass visits every entry once, in pool order in the first pass,
    because the CLI pool reads back documents it wrote, and in a shuffled
    order after.  An op cheaper than ``repeat_s`` gets further visits, at
    random later points of the same pass, until its visits add up to
    ``repeat_s``; the entry's sample for the pass is the mean wall and CPU
    time of its visits.  So every entry weighs the same in every pass, and
    a cheap op's sample is spread over the pass, like a costly op's time,
    instead of falling in one phase of the machine's swings in CPU speed.
    ``between(i)``, if given, runs untimed before pass ``i`` and, with
    ``i == passes``, after the last pass.  ``speed``, a ``Reference``, if
    given, samples the machine's speed between visits.
    """
    loop = new_loop()
    order = list(range(len(workload.entries)))
    if speed is not None:
        speed.sample()
    for index in range(passes):
        if between is not None:
            between(index)
        rng = random.Random(index)
        if index:
            rng.shuffle(order)
        loop["passes"].append([0.0, 0.0])
        visits = list(order)
        walls: dict[int, list[float]] = {k: [] for k in order}
        cpus: dict[int, list[float]] = {k: [] for k in order}
        position = 0
        while position < len(visits):
            k = visits[position]
            if speed is not None:
                speed.maybe_sample()
            wall, cpu, failed = run_op(loop, workload.entries[k])
            first = not walls[k]
            walls[k].append(wall)
            cpus[k].append(cpu)
            if first and not failed and wall < repeat_s:
                for _ in range(math.ceil(repeat_s / max(wall, 1e-6)) - 1):
                    visits.insert(rng.randint(position + 1, len(visits)), k)
            position += 1
        for k in order:
            loop["samples"].append((k, statistics.fmean(walls[k]), statistics.fmean(cpus[k])))
    if between is not None:
        between(passes)
    if speed is not None:
        speed.sample()
    return loop


def pool_metrics(workload, loop: dict) -> dict:
    """End-to-end figures over the run's samples, one per entry per pass.

    The tail is taken over all samples.  The other figures are taken over
    each entry's median time per op across the passes: a pass of the pool
    counts every entry once, and an entry's time spans several moments of
    the run.  CPU speed on a shared machine swings between a fast and a
    slow phase for seconds at a time, and the median keeps one pass that
    fell in a slow phase from moving an entry's time.
    """
    samples = loop["samples"]
    (tail_k, tail_value, _), tail_pct, tail_n = tail(samples)
    entries = range(len(workload.entries))
    entry_wall = [statistics.median(wall for k, wall, _ in samples if k == i) for i in entries]
    entry_cpu = [statistics.median(cpu for k, _, cpu in samples if k == i) for i in entries]
    return {
        "ops_per_s": len(entry_wall) / sum(entry_wall),
        "op_p50_s": statistics.median(entry_wall),
        "op_tail_s": tail_value,
        "op_tail": f"p{tail_pct:.1f} of {tail_n} samples, at {workload.entries[tail_k].key}",
        "cpu_s_per_op": sum(entry_cpu) / len(entry_cpu),
        "entry_s": {workload.entries[i].key: round(entry_wall[i], 4) for i in entries},
    }


def child_seconds(argv: list[str], env: dict) -> tuple[float, str]:
    """Wall time of one child process run to completion; fails loudly on a non-zero exit."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[:3]}... exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return elapsed, proc.stdout


def setup_seconds(workloads, name: str, seed: int, probe_dir: Path, smoke: bool) -> float:
    """A fresh interpreter that imports the library and builds the workload's inputs."""
    probe_dir.mkdir()
    code = ("import sys; from pathlib import Path; "
            f"sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; import workloads; "
            f"workloads.build({name!r}, {seed}, Path({str(probe_dir)!r}), smoke={smoke})")
    return child_seconds([sys.executable, "-c", code], workloads.cli_env())[0]


def cli_probes(workloads) -> dict:
    """CLI start-up cost in a fresh interpreter: whole ``catalog-list``, and the import alone."""
    env = workloads.cli_env()
    startup = [child_seconds([sys.executable, "-m", "contextuality.cli", "catalog-list"], env)[0]
               for _ in range(PROBE_REPEATS)]
    code = ("import time; t = time.perf_counter(); import contextuality.cli; "
            "print(time.perf_counter() - t)")
    imports = [float(child_seconds([sys.executable, "-c", code], env)[1])
               for _ in range(PROBE_REPEATS)]
    return {"cli.startup_s": statistics.median(startup), "cli.import_s": statistics.median(imports)}


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------


def timed_run(workloads, name: str, seed: int, seconds: float, workdir: Path,
              smoke: bool, options: dict):
    workload = workloads.build(name, seed, workdir / "run", smoke, **options)
    passes = max(1, round(seconds / workload.pass_s))
    setups: list[float] = []

    def setup_probes(slot: int) -> None:
        # The set-up probes are spread over the gaps before, between and after
        # the passes, so that their median does not sit in one phase of the
        # machine's CPU speed.
        for i in range(slot, SETUP_REPEATS, passes + 1):
            setups.append(setup_seconds(workloads, name, seed, workdir / f"setup-{i}", smoke))

    speed = Reference(child=not workload.in_process)
    loop = run_passes(workload, passes, between=setup_probes, speed=speed)
    figures = pool_metrics(workload, loop)
    measured = {
        "setup_s": statistics.median(setups),
        "ops_per_s": figures["ops_per_s"],
        "op_p50_s": figures["op_p50_s"],
        "op_tail_s": figures["op_tail_s"],
        "cpu_s_per_op": figures["cpu_s_per_op"],
    }
    # Times are scaled to the reference speed; memory is not.
    slowdown = speed.slowdown()
    metrics = {metric: value * slowdown if metric == "ops_per_s" else value / slowdown
               for metric, value in measured.items()}
    metrics["peak_rss_mb"] = workload.peak_rss_mb()
    report = {
        "setup_samples_s": [round(s, 4) for s in setups],
        "op_tail": figures["op_tail"],
        "entry_median_s": figures["entry_s"],
        "unscaled": {metric: round(value, 6) for metric, value in measured.items()},
        "reference_slowdown": round(slowdown, 4),
        "reference_samples": len(speed.samples),
        "failed_ratio": len(loop["failures"]) / loop["attempted"],
    }
    return workload, loop, metrics, END_TO_END, report


def traced_run(workloads, name: str, seed: int, workdir: Path, smoke: bool):
    """One warm-up pass, then every op once untraced and once traced, back to back.

    The order of the two alternates from op to op.  The per-layer metrics
    come from the traced ops; ``trace.overhead_ratio`` is the traced ops'
    summed wall time over the untraced ops'.  A CLI op's untraced child is
    started through the same script as its traced child, without the
    wrappers.
    """
    from tracer import Tracer, call_counts, op_wall, self_times

    if name == "catalog-cli":
        traced_cli = BENCH / "cli_traced.py"
        spans_paths: list[Path] = []

        def plain_command(args, _op_dir):
            return [sys.executable, str(traced_cli), "-", *args]

        def traced_command(args, op_dir):
            spans_paths.append(op_dir / "spans.json")
            return [sys.executable, str(traced_cli), str(spans_paths[-1]), *args]

        workload = workloads.build(name, seed, workdir / "run", smoke, command=plain_command)
        traced = workloads.build(name, seed, workdir / "traced", smoke, command=traced_command)
        tracer = None
    else:
        workload = traced = workloads.build(name, seed, workdir / "run", smoke)
        tracer = Tracer()
    loop = run_passes(workload, 1, repeat_s=0.0)
    loop["passes"].append([0.0, 0.0])
    plain_s = traced_s = 0.0
    for i, pair in enumerate(zip(workload.entries, traced.entries)):
        for is_traced in ((False, True) if i % 2 == 0 else (True, False)):
            if not is_traced:
                plain_s += run_op(loop, pair[0])[0]
            elif tracer is None:
                traced_s += run_op(loop, pair[1])[0]
            else:
                tracer.install()
                try:
                    traced_s += run_op(loop, pair[1], tracer)[0]
                finally:
                    tracer.uninstall()

    spans_file = WORK / f"spans-{name}-seed{seed}.json"
    if tracer is not None:
        dumps = {"pool": tracer.dump()}
        tracer.write(spans_file)
    else:
        dumps = {path.parent.name: json.loads(path.read_text(encoding="utf-8")) for path in spans_paths}
        spans_file.write_text(json.dumps(dumps), encoding="utf-8")
    self_s: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    spans_total = 0
    op_total = 0.0
    for dump in dumps.values():
        spans = dump["spans"]
        self_s.update(self_times(spans))
        calls.update(call_counts(spans))
        counts.update(dump["counts"])
        spans_total += len(spans)
        op_total += op_wall(spans)

    module_self: Counter = Counter()
    for span_name, seconds in self_s.items():
        module_self[span_name.split(".")[0]] += seconds
    metrics = {
        **cli_probes(workloads),
        "trace.spans": spans_total,
        "trace.op_s": op_total,
        "trace.overhead_ratio": traced_s / plain_s,
    }
    for metric, unit in PER_LAYER:
        if metric in metrics:
            continue
        if metric.endswith(".self_s"):
            metrics[metric] = self_s.get(metric[:-len(".self_s")], 0.0)
        elif metric.endswith(".calls"):
            # Spanned functions are counted by their spans, count-only ones by the tracer.
            metrics[metric] = calls.get(metric[:-len(".calls")], 0) + counts.get(metric, 0)
        elif metric.startswith("layer."):
            metrics[metric] = module_self[metric.split(".")[1]] / op_total if op_total else 0.0
        else:
            metrics[metric] = counts.get(metric, 0)
    report = {
        "untraced_s": round(plain_s, 4),
        "traced_s": round(traced_s, 4),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "failed_ratio": len(loop["failures"]) / loop["attempted"],
    }
    return workload, loop, metrics, PER_LAYER, report


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def import_library():
    """Import ``contextuality`` and the benchmark modules from this checkout only."""
    if not (SRC / "contextuality" / "__init__.py").is_file():
        raise SystemExit(f"error: no library source at {SRC / 'contextuality'}; "
                         "run the benchmark from a full checkout")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import contextuality
    if Path(contextuality.__file__).resolve().parent != (SRC / "contextuality").resolve():
        raise SystemExit(f"error: imported contextuality from {contextuality.__file__}, not {SRC}")
    import workloads
    return workloads


def execute(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False, **options) -> dict:
    """One run; prints the human-readable record and returns the result object.

    ``smoke`` cuts every pool to its smallest size and ``options`` go to the
    pool builder; both exist for the benchmark's self-tests.
    """
    workloads = import_library()
    load_start = os.getloadavg()
    workdir = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if trace:
            workload, loop, metrics, declared, report = traced_run(workloads, name, seed, workdir, smoke)
        else:
            workload, loop, metrics, declared, report = timed_run(
                workloads, name, seed, seconds, workdir, smoke, options)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {
        "workload": name,
        "trace": int(trace),
        "inputs": workload.inputs,
        "tiers": workload.tier_counts(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg_start": [round(x, 2) for x in load_start],
        "loadavg_end": [round(x, 2) for x in os.getloadavg()],
        "pass_cpu_per_wall": [round(cpu / wall, 3) for wall, cpu in loop["passes"] if wall > 0],
        "passes": len(loop["passes"]),
        "measured_s": round(loop["measured"], 3),
        **report,
    }
    for line in loop["failures"][:20]:
        print(f"FAILED {line}")
    print("record " + json.dumps(record, sort_keys=True))
    for metric, unit in declared:
        print(f"{metric:58} {metrics[metric]:.6g} {unit}")
    print(f"{'failed_ratio':58} {report['failed_ratio']:.6g} 1 "
          f"({len(loop['failures'])} of {loop['attempted']} ops)")
    if not trace:
        print(f"{'op_tail_s percentile':58} {report['op_tail']}")
    return {
        "correct": not loop["failures"],
        "attempted": loop["attempted"],
        "failed": len(loop["failures"]),
        "metrics": {metric: {"value": metrics[metric], "unit": unit} for metric, unit in declared},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
