"""Closed-loop benchmark of the defeasidl pipeline.

Usage, from the repository root:

    python3 perfbench/run.py --workload reach --seed 1 --seconds 25 --trace 0

One process, one thread, one request in flight.  The package is imported
from ``src/`` of the checkout this file sits in, never from an installed
copy.  A run sets up its inputs, then makes passes over them (a pass runs
every input once, in a seeded order) until ``--seconds`` have elapsed, the
first pass whole, and checks every verdict against a reference that does
not come from the compiled pipeline.  End-to-end times are stated at a
reference host speed (see ``hostspeed.py``).

Workloads (see README.md for why each exists):

* ``reach``: ``defeasidl solve`` requests on seeded random digraphs;
  grounding dominates.
* ``succ-chain``: ``defeasidl solve`` requests on a non-stratified
  team-defeat chain; the well-founded alternation dominates.
* ``check-corpus``: ``check.check_theory`` on the acceptance corpus; the
  fixed cost per call of every layer dominates.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` each operation runs once untraced
and once traced, and the object holds the per-layer metrics.  Spans,
verdict digests and summaries go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import random
import resource
import signal
import statistics
import sys
import types
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import hostspeed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

PACKAGE_MODULES = (
    "cli", "parser", "theory", "compiler", "datalog", "evaluator", "oracle", "check", "generator",
)
SOLVE_MODES = (("dpar", "wf"), ("dpar", "hybrid"), ("dpar_star", "stratified"))

# Graphs per reach size: the work per graph varies with its shape, and
# eight per size keep that variation small from seed to seed.
REACH_COPIES = 8
# Chains per succ-chain length: the hybrid solve's work depends on the order
# the constant names hash in, and two name sets per length halve that
# variation's weight in the median.
SUCC_COPIES = 2
SETUP_REPEATS = 9
ACCEPTANCE_SEED = 20260809  # the corpus seed of tests/test_acceptance.py
OP_CAP_S = 30  # wall-time cap of one operation (signal.alarm)
RUN_CAP_S = 120  # no new operation starts after this much measuring
MEMORY_CAP = 2 << 30  # address-space cap of this process (RLIMIT_AS)
# Stops at p95: p99 of check-corpus is its dozen heaviest theories, which
# the seed picks, and it moves by a third from seed to seed.
TAIL_LADDER = (50, 75, 90, 95)
# The package's work depends on the order it iterates its sets in, and so on
# the interpreter's string-hash secret: with a fresh secret in every process
# the same succ-chain run read hybrid solves 15% apart.  A fixed secret makes
# a run repeat; the seeded constant names still vary the order from seed to
# seed.
HASH_SEED = "0"

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ops_ratio": "ratio",
}
PER_LAYER = {
    **{name: "count" if name in tracing.COUNT_METRICS else "s" for name in tracing.LAYER_METRICS},
    "check.skipped_eval": "count",
    "check.failed": "count",
    "trace.overhead_ratio": "ratio",
}


class OpTimeout(Exception):
    """An operation ran past its wall-time cap."""


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    # Maps the output of ``run`` to (agrees with the reference, verdict text).
    verdict: Callable[[object], tuple[bool, str]]


def load_package() -> types.SimpleNamespace:
    """Import (or re-import) ``defeasidl`` from this checkout's ``src/``."""
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "defeasidl" or n.startswith("defeasidl.")]:
        del sys.modules[name]
    pkg = types.SimpleNamespace(
        **{name: importlib.import_module(f"defeasidl.{name}") for name in PACKAGE_MODULES}
    )
    if not Path(pkg.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"defeasidl was imported from {pkg.cli.__file__}, not from {SRC}")
    pkg.modules = tracing.module_list()
    return pkg


def solve_ops(pkg, instances, work_dir: Path) -> list[Op]:
    """One ``defeasidl solve`` request per instance and backend, in that order."""
    ops = []
    for name, text, (delta, defeasible) in instances:
        path = work_dir / f"{name}.dfl"
        path.write_text(text, encoding="utf-8")
        for logic, backend in SOLVE_MODES:
            argv = ["--no-timings", "solve", str(path), "--logic", logic, "--backend", backend]
            tag = "+dpar" if logic == "dpar" else "+dpar*"

            def run(argv=argv):
                buffer = io.StringIO()
                with contextlib.redirect_stdout(buffer):
                    code = pkg.cli.main(argv)
                return code, buffer.getvalue()

            def verdict(out, tag=tag, delta=delta, defeasible=defeasible):
                code, text = out
                lines = sorted(line for line in text.splitlines() if not line.startswith("#"))
                got = {"+Delta": set(), tag: set()}
                for line in lines:
                    kind, _, literal = line.partition(" ")
                    got.setdefault(kind, set()).add(literal)
                ok = code == 0 and got == {"+Delta": delta, tag: defeasible}
                return ok, f"exit {code}\n" + "\n".join(lines)

            ops.append(Op(f"{name} {logic}/{backend}", run, verdict))
    return ops


def build_reach(pkg, seed: int, work_dir: Path) -> list[Op]:
    rng = random.Random(seed)
    instances = []
    for copy in range(REACH_COPIES):
        for n in range(12, 21):
            edges = workloads.random_digraph(rng, n)
            instances.append(
                (f"reach-{n}-{copy}", workloads.reach_theory(edges), workloads.reach_reference(edges))
            )
    return solve_ops(pkg, instances, work_dir)


def build_succ_chain(pkg, seed: int, work_dir: Path) -> list[Op]:
    rng = random.Random(seed)
    instances = []
    for copy in range(SUCC_COPIES):
        for n in range(40, 61):
            names = workloads.chain_names(rng, n)
            instances.append((f"succ-chain-{n}-{copy}", workloads.succ_theory(names),
                              workloads.succ_reference(names)))
    return solve_ops(pkg, instances, work_dir)


def build_check_corpus(pkg, seed: int, work_dir: Path) -> list[Op]:
    """The acceptance corpus: ``defeasidl check --random 1000 --variable 200
    --seed 20260809``.  The run's seed only orders it (see :func:`setup`).

    A corpus drawn from the run's seed would move ``ops_per_s`` by a fifth
    from seed to seed: a handful of variable theories take up to a quarter
    of a pass, and which ones the seed draws decides the total.
    """
    rng = random.Random(ACCEPTANCE_SEED)
    shape = pkg.generator.TheoryShape()
    jobs = [(f"random-ground-{i:04d}", pkg.generator.random_ground_theory(rng, shape))
            for i in range(1000)]
    jobs += [(f"random-variable-{i:04d}", pkg.generator.random_variable_theory(rng, shape))
             for i in range(200)]

    def verdict(result):
        text = f"agree={result.agree} skipped_eval={result.skipped_eval}"
        return result.agree, "\n".join([text, *result.failures])

    return [
        Op(name, lambda theory=theory, name=name: pkg.check.check_theory(theory, name), verdict)
        for name, theory in jobs
    ]


# name -> (input generator, number of leading operations run as warm-up)
WORKLOADS = {
    "reach": (build_reach, len(SOLVE_MODES)),
    "succ-chain": (build_succ_chain, len(SOLVE_MODES)),
    "check-corpus": (build_check_corpus, 30),
}


def _on_alarm(signum, frame):
    raise OpTimeout("operation exceeded its wall-time cap")


def guard_resources() -> None:
    """Cap this process's address space so a blow-up fails one operation
    with MemoryError instead of exhausting the machine."""
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = MEMORY_CAP if hard == resource.RLIM_INFINITY else min(MEMORY_CAP, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    signal.signal(signal.SIGALRM, _on_alarm)


def timed(op: Op, cap_s: int = OP_CAP_S) -> tuple[float, bool, str]:
    """Run one operation under the wall-time cap; returns (seconds, ok, verdict)."""
    signal.alarm(cap_s)
    start = perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a raising operation (OpTimeout, MemoryError too) fails
        signal.alarm(0)
        return perf_counter() - start, False, f"{type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start
    signal.alarm(0)
    ok, text = op.verdict(out)
    return elapsed, ok, text


def setup(workload: str, seed: int, repeats: int, speed: hostspeed.HostSpeed):
    """Import, generate inputs and references, and warm up; ``repeats``
    times.  Returns the package, the operations and the median time, both
    measured and at the reference speed."""
    build, warmup = WORKLOADS[workload]
    work_dir = OUT / "inputs" / f"{workload}-{seed}"
    work_dir.mkdir(parents=True, exist_ok=True)
    spans = []
    speed.sample()
    for _ in range(repeats):
        start = perf_counter()
        pkg = load_package()
        ops = build(pkg, seed, work_dir)
        for op in ops[:warmup]:
            timed(op)
        spans.append((start, perf_counter()))
        speed.sample()
    times = [(end - start, speed.scale(start, end)) for start, end in spans]
    # The host's speed drifts over tens of seconds.  A seeded order spreads
    # each kind of input over the whole run, so that a slow spell slows all
    # kinds alike instead of, say, only the ground theories of check-corpus.
    random.Random(seed).shuffle(ops)
    # Move what set-up left alive (the package, the inputs, the operations:
    # some 68,000 objects on check-corpus) out of the collector's reach.  A
    # full collection that walked them took 30 ms, as long as a heavy
    # check_theory call, and landed on whichever operation ran then; frozen,
    # it takes 2 ms and walks only what the operations allocate.
    gc.collect()
    gc.freeze()
    return (pkg, ops, statistics.median(t for t, _ in times),
            statistics.median(t * scale for t, scale in times))


@dataclass
class Measured:
    # One entry per execution: the index of the operation, its start, its latency.
    indices: list[int] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    # Verdict texts of the first pass; None if the run ended before it did.
    first_pass: list[str] | None = None

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def measure(ops: list[Op], seconds: float, run_one, speed: hostspeed.HostSpeed) -> Measured:
    """Passes over ``ops`` until ``seconds`` have elapsed, the first one
    whole: every operation runs at least once, and the metrics weigh each
    operation alike however often it ran (see :func:`per_operation`).
    ``run_one(index, op)`` returns (seconds, ok, verdict text).  The host's
    speed is sampled between operations."""
    result = Measured()
    start = perf_counter()
    verdicts = []
    for n in itertools.count():
        elapsed = perf_counter() - start
        if elapsed > RUN_CAP_S or (n >= len(ops) and elapsed >= seconds):
            break
        index, op = n % len(ops), ops[n % len(ops)]
        speed.maybe_sample()
        result.indices.append(index)
        result.starts.append(perf_counter())
        latency, ok, text = run_one(index, op)
        result.latencies.append(latency)
        if not ok:
            result.failed += 1
            result.failures.append(f"{op.label}: {text.splitlines()[0] if text else ''}")
        if n < len(ops):
            verdicts.append(f"{op.label}\n{text}")
            if n == len(ops) - 1:
                result.first_pass = verdicts
    speed.sample()
    return result


def percentile(sorted_values: list[float], p: float) -> float:
    k = (len(sorted_values) - 1) * p / 100
    low = math.floor(k)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (k - low)


def per_operation(count: int, indices: list[int], latencies: list[float]):
    """Each operation's median and mean latency, the medians sorted, over
    the operations that ran.  An operation counts once however often it
    ran: on ``check-corpus`` a few theories take a third of a pass, so the
    mix of a part-pass would move every figure."""
    runs: list[list[float]] = [[] for _ in range(count)]
    for index, latency in zip(indices, latencies):
        runs[index].append(latency)
    runs = [r for r in runs if r]
    return (sorted(statistics.median(r) for r in runs),
            [statistics.fmean(r) for r in runs])


def tail_percentile(pass_length: int) -> float:
    """Highest ladder percentile with at least ten samples of one pass beyond it."""
    return max(p for p in TAIL_LADDER if pass_length * (100 - p) / 100 >= 10)


def digest(workload: str, seed: int, measured: Measured, ops: list[Op]) -> dict:
    """Hash of the sorted verdicts of the first pass, with the counts of
    theories whose evaluation ``check_theory`` skipped or that failed it;
    all three must repeat exactly for a workload and seed."""
    verdicts = measured.first_pass or []
    text = "\n\n".join(sorted(verdicts))
    return {
        "workload": workload,
        "seed": seed,
        "operations": len(ops),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "skipped_eval": sum("skipped_eval=True" in v for v in verdicts),
        "check_failed": sum("agree=False" in v for v in verdicts),
    }


def end_to_end(ops, measured: Measured, setup_s: tuple[float, float],
               speed: hostspeed.HostSpeed) -> tuple[dict, list[str]]:
    """The end-to-end metrics, times at the reference speed, and notes that
    give the same times as measured."""
    tail = tail_percentile(len(ops))
    ok = measured.attempted - measured.failed

    def times(latencies, setup):
        medians, means = per_operation(len(ops), measured.indices, latencies)
        return {
            "setup_s": setup,
            "op_p50_s": percentile(medians, 50),
            "op_tail_s": percentile(medians, tail),
            "ops_per_s": ok / measured.attempted * len(means) / sum(means),
        }

    scaled = [latency * speed.scale(start, start + latency)
              for start, latency in zip(measured.starts, measured.latencies)]
    values = {
        **times(scaled, setup_s[1]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ops_ratio": ok / measured.attempted,
    }
    kernel = sorted(speed.kernel_s)
    notes = [f"op_tail_s is p{tail:g} of {len(ops)} operations' median latencies "
             f"({len(scaled)} samples, {len(scaled) / len(ops):.2f} passes)",
             f"host speed: {len(kernel)} kernel samples, median {percentile(kernel, 50):.6f} s "
             f"(p5 {percentile(kernel, 5):.6f}, p95 {percentile(kernel, 95):.6f}); "
             f"reference {hostspeed.REFERENCE_KERNEL_S} s",
             *(f"measured {name} {value}"
               for name, value in times(measured.latencies, setup_s[0]).items())]
    return values, notes


def traced_measure(pkg, ops, seconds: float, speed: hostspeed.HostSpeed):
    """Each operation runs untraced and traced, alternating which goes first."""
    tracer = tracing.Tracer(pkg)
    totals = {"untraced": 0.0, "traced": 0.0}

    def run_traced(op):
        with tracer.operation(op.label):
            return timed(op)

    def run_one(index, op):
        if index % 2:
            traced = run_traced(op)
            untraced = timed(op)
        else:
            untraced = timed(op)
            traced = run_traced(op)
        totals["untraced"] += untraced[0]
        totals["traced"] += traced[0]
        failing = untraced if traced[1] else traced
        return traced[0], untraced[1] and traced[1], failing[2]

    measured = measure(ops, seconds, run_one, speed)
    return tracer, measured, totals["traced"] / totals["untraced"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if argv is None and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Same process, same arguments, fixed hash secret.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})

    guard_resources()
    speed = hostspeed.HostSpeed()
    try:
        pkg, ops, *setup_s = setup(args.workload, args.seed, 1 if args.trace else SETUP_REPEATS,
                                   speed)
    except ImportError as exc:
        print(f"error: cannot import defeasidl from {SRC}: {exc}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-{args.seed}"
    if args.trace:
        tracer, measured, overhead = traced_measure(pkg, ops, args.seconds, speed)
        tracer.dump(OUT / f"spans-{tag}.jsonl")
        rows = tracer.per_operation()
        metrics = tracing.layer_medians(rows, tracing.LAYER_METRICS)
        info = digest(args.workload, args.seed, measured, ops)
        metrics["check.skipped_eval"] = info["skipped_eval"]
        metrics["check.failed"] = info["check_failed"]
        metrics["trace.overhead_ratio"] = overhead
        units = PER_LAYER
        notes = [f"self time {name}: {seconds:.6f} s"
                 for name, seconds in sorted(tracer.self_times().items())]
        wf_total = sum(row.get("evaluator.wf_s", 0) for row in rows)
        if wf_total:
            wf_self = sum(row.get("evaluator.wf_self_s", 0) for row in rows)
            notes.append(f"grounding is {1 - wf_self / wf_total:.1%} of eval_wellfounded time")
    else:
        measured = measure(ops, args.seconds, lambda index, op: timed(op), speed)
        metrics, notes = end_to_end(ops, measured, setup_s, speed)
        info = digest(args.workload, args.seed, measured, ops)
        units = END_TO_END

    complete = measured.first_pass is not None
    (OUT / f"digest-{tag}-trace{args.trace}.json").write_text(json.dumps(info, indent=1) + "\n")
    for line in notes + measured.failures[:20]:
        print(f"# {line}")
    print(f"# digest {json.dumps(info, sort_keys=True)}")
    for name in units:
        print(f"{name} {metrics[name]} {units[name]}")
    print(json.dumps({
        "correct": complete and measured.failed == 0,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
