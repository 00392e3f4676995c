#!/usr/bin/env python3
"""Compare two result files of ``perf/run.py`` against the benchmark's bounds.

    python3 perf/compare.py old.json new.json

One row per (end-to-end metric, workload): both medians with their quartiles,
the ratio new/old with its base, and a verdict against the metric's bound in
``BENCHMARK.json``:

``better`` / ``worse``   the median moved past the bound in that direction
``unchanged``            it stayed within the bound
``unresolved``           either side's inter-quartile spread is wider than
                         the bound, or either run started on a busy box
                         (``noisy``): the runs cannot tell

Exit status 1 on any ``worse`` row or any rise in ``failed_ops / ops``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _end_to_end(path: str) -> dict:
    """``{workload: result}`` for the untraced results of one file."""
    document = json.loads(Path(path).read_text())
    return {
        result["workload"]: result
        for result in document["results"] if "metrics" in result
    }


def verdict(old: dict, new: dict, better: str, bound: float, noisy: bool) -> str:
    """Where *new* stands against *old* for one metric row."""
    spread = max((row["q3"] - row["q1"]) / row["value"] for row in (old, new))
    if noisy or spread > bound:
        return "unresolved"
    change = new["value"] / old["value"] - 1.0
    if better == "lower":
        change = -change
    if change < -bound:
        return "worse"
    return "better" if change > bound else "unchanged"


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    old_results, new_results = _end_to_end(argv[0]), _end_to_end(argv[1])
    failed = False
    for workload in old_results:
        if workload not in new_results:
            continue
        old, new = old_results[workload], new_results[workload]
        noisy = old["env"]["noisy"] or new["env"]["noisy"]
        print(f"== {workload}{'  (noisy box: rows are unresolved)' if noisy else ''}")
        for metric in declared:
            before, after = old["metrics"][metric["name"]], new["metrics"][metric["name"]]
            row = verdict(before, after, metric["better"], metric["bound"], noisy)
            failed |= row == "worse"
            print(
                f"  {metric['name']:<14} {before['value']:>12.6g} "
                f"[{before['q1']:.6g}, {before['q3']:.6g}] -> {after['value']:>12.6g} "
                f"[{after['q1']:.6g}, {after['q3']:.6g}] {metric['unit']:<7} "
                f"x{after['value'] / before['value']:.4f} of {before['value']:.6g}  "
                f"{row} (bound {metric['bound']:g}, {metric['better']} is better)"
            )
        before_rate = old["failed_ops"] / old["ops"]
        after_rate = new["failed_ops"] / new["ops"]
        rose = after_rate > before_rate
        failed |= rose
        print(f"  failed_ops/ops {old['failed_ops']}/{old['ops']} -> "
              f"{new['failed_ops']}/{new['ops']}{'  ROSE' if rose else ''}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
