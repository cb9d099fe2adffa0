"""One-shot traced pass at the ROADMAP baseline sizes.

Usage, from the repository root:

    python3 perfbench/probe.py --seed 1

Solves ``reach`` at 40 edges and ``succ-chain`` at 200 links once per
backend, with tracing on, and prints the per-layer figures of each
request: the sizes at which ROADMAP items 2 (grounding) and 3 (SCC-wise
well-founded evaluation) state their targets.  ``reach`` runs on a seeded
random digraph, as in the workload, and on a path of 40 edges: long paths
make the greatest-fixpoint grounding iterate most, and the path is the
shape of the ROADMAP baseline (about 10 s of grounding).  It is not a
workload of ``BENCHMARK.json`` and gates nothing.  The summary and the
spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

import run
import tracing
import workloads

PROBE_OP_CAP_S = 300
COLUMNS = (
    "evaluator.ground_s",
    "evaluator.wf_s",
    "evaluator.wf_self_s",
    "evaluator.hybrid_s",
    "evaluator.stratified_s",
    "evaluator.ground_clauses",
    "evaluator.herbrand_base",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    run.guard_resources()
    try:
        pkg = run.load_package()
    except ImportError as exc:
        print(f"error: cannot import defeasidl from {run.SRC}: {exc}", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    edges = workloads.random_digraph(rng, 40)
    names = workloads.chain_names(rng, 200)
    path = [(f"n{i}", f"n{i + 1}") for i in range(40)]
    instances = [
        ("reach-40", workloads.reach_theory(edges), workloads.reach_reference(edges)),
        ("reach-path-40", workloads.reach_theory(path), workloads.reach_reference(path)),
        ("succ-chain-200", workloads.succ_theory(names), workloads.succ_reference(names)),
    ]
    work_dir = run.OUT / "inputs" / f"probe-{args.seed}"
    work_dir.mkdir(parents=True, exist_ok=True)
    ops = run.solve_ops(pkg, instances, work_dir)

    tracer = tracing.Tracer(pkg)
    requests = []
    for op in ops:
        with tracer.operation(op.label):
            seconds, ok, text = run.timed(op, PROBE_OP_CAP_S)
        requests.append({"request": op.label, "seconds": seconds, "ok": ok,
                         **({} if ok else {"error": text.splitlines()[0]})})
    for request, layers in zip(requests, tracer.per_operation()):
        request.update({name: layers[name] for name in COLUMNS if name in layers})

    tag = f"probe-{args.seed}"
    tracer.dump(run.OUT / f"spans-{tag}.jsonl")
    (run.OUT / f"{tag}.json").write_text(json.dumps(requests, indent=1) + "\n")
    for request in requests:
        figures = " ".join(f"{k}={v:.4g}" for k, v in request.items() if k in COLUMNS)
        print(f"{request['request']}: {request['seconds']:.3f} s ok={request['ok']} {figures}")
    return 0 if all(r["ok"] for r in requests) else 1


if __name__ == "__main__":
    sys.exit(main())
