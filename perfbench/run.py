"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload hotpot_chain_batch --seed 7 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with tracing on every other episode and prints the per-layer
metrics instead, and writes the spans to ``.perfbench/``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every answer matched its reference.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: working directory under the repository root: snapshot stores and traces.
WORK = ROOT / ".perfbench"
#: environment overrides that would change what the program does
#: (workers, sanitizer, LLM routing); the benchmark pins the defaults.
PINNED_ENV = (
    "REPRO_EXEC_WORKERS", "REPRO_EXEC_BATCH_SIZE", "REPRO_SANITIZE",
    "REPRO_LLM_ROUTING",
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    for var in PINNED_ENV:
        os.environ.pop(var, None)
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    make_inputs, flow = workloads.WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        bench = workloads.Bench(workdir, args.seconds, bool(args.trace))
        flow(bench, inputs)
        if args.trace:
            metrics = bench.per_layer(inputs)
            trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
            trace_file.write_text(
                "".join(line + "\n" for line in bench.recorder.to_jsonl())
            )
        else:
            metrics = bench.end_to_end(inputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    sizes = {**inputs.sizes(), **bench.sizes}
    print(f"workload {args.workload}  seed {args.seed}  "
          + "  ".join(f"{k}={v}" for k, v in sorted(sizes.items())))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {unit}")
    print(f"  {'failed_frac':<42} {bench.failed / bench.attempted:>14.6g} ratio"
          f"  ({bench.failed} of {bench.attempted} operations)")
    if args.trace:
        per_query = sum(v for k, (v, u) in metrics.items()
                        if k in workloads.QUERY_LAYERS and u == "ms")
        per_query += metrics["linegraph.candidates_us"][0] / 1e3
        wall = metrics["core.query_ms"][0]
        untraced = metrics["core.untraced_share"][0] * wall
        print(f"  query accounting: layer self times {per_query:.4f} ms + "
              f"untraced {untraced:.4f} ms = {per_query + untraced:.4f} ms "
              f"of {wall:.4f} ms per traced query")
    correct = bench.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
