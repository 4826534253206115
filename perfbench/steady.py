"""Steadiness check: run workloads many times and report each metric's spread.

Usage, from the repository root::

    python3 perfbench/steady.py --runs 10 --sets 2

Each round runs every workload once, in an order that rotates from round
to round, with the round's seed (``--seed0`` + round).  A second set
repeats the same seeds.  Per workload and end-to-end metric it prints
the median, the quartiles (as ``statistics.quantiles(n=4)`` gives them),
the spread (q3 - q1) / median as a share of the metric's bound in
``BENCHMARK.json``, and, with two sets, how far the second median moved
in the worse direction, also as a share of the bound.  A share above 1
fails the benchmark's steadiness rule; ``setup_s`` is held only to the
shift rule.  The raw results go to ``.perfbench/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in a child process; its final JSON line.

    Raises:
        RuntimeError: if the run exits non-zero or prints no result.
    """
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n"
            f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def worse_shift(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    if not first:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args(argv)
    chosen = args.workloads.split(",")

    results: dict[str, list[list[dict]]] = {w: [] for w in chosen}
    for _ in range(args.sets):
        for w in chosen:
            results[w].append([])
        for r in range(args.runs):
            order = chosen[r % len(chosen):] + chosen[:r % len(chosen)]
            for w in order:
                out = run_once(w, args.seed0 + r, args.seconds)
                results[w][-1].append(out)
                print(f"  set {len(results[w])} run {r} {w}: failed "
                      f"{out['failed']}/{out['attempted']}", file=sys.stderr)

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    (ROOT / ".perfbench" / "steady.json").write_text(json.dumps(results, indent=1))
    worst = 0.0
    print(f"{'workload':<20} {'metric':<22} {'median':>11} {'q1':>11} {'q3':>11}"
          f" {'spread/bound':>12} {'shift/bound':>11}")
    for w in chosen:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [[r["metrics"][name]["value"] for r in runs]
                    for runs in results[w]]
            q1, med, q3 = stats.quartiles(sets[0])
            spread = stats.relative_spread(sets[0]) / bound
            shift = (worse_shift(med, statistics.median(sets[1]), metric["better"])
                     / bound if len(sets) == 2 else float("nan"))
            if name != "setup_s":
                worst = max(worst, spread)
            worst = max(worst, shift if shift == shift else 0.0)
            print(f"{w:<20} {name:<22} {med:>11.5g} {q1:>11.5g} {q3:>11.5g}"
                  f" {spread:>12.3f} {shift:>11.3f}")
    print(f"largest share of a bound: {worst:.3f}")
    return 0 if worst <= 1.0 else 1


if __name__ == "__main__":
    sys.exit(main())
