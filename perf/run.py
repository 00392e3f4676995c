#!/usr/bin/env python3
"""The performance ledger's one command.

    python3 perf/run.py [--workload NAME] [--seed N] [--seconds S]
                        [--traced | --trace 0|1] [--quick] [--out FILE]

Every workload is built and driven in a fresh single-threaded child process
(``python -m perf.harness``); this parent only starts the children one after
the other, prints every metric by name with its unit, and writes the results.
Without ``--workload`` all five run.  ``--traced`` adds the traced run that
gives the per-layer metrics; ``--trace 1`` (the benchmark driver's spelling)
runs only that one.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end metrics,
or with ``--trace 1`` the per-layer ones.

Exit status: 0 when every child ran, whatever it measured (``correct`` says
whether the outputs were right); 1 when a child could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 7


def _child(workload: str, seed: int, seconds: float, traced: bool, quick: bool,
           out_dir: Path) -> dict:
    """Run one workload in its own interpreter; its result is the last line
    the child prints."""
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + ([environment["PYTHONPATH"]] if environment.get("PYTHONPATH") else [])
    )
    # str and bytes hashes decide dict and set layout; pin them so two runs of
    # one commit walk the same tables.
    environment.setdefault("PYTHONHASHSEED", "0")
    completed = subprocess.run(
        [sys.executable, "-m", "perf.harness", workload, str(seed), str(seconds),
         str(int(traced)), str(int(quick)), str(out_dir)],
        cwd=ROOT, env=environment, stdout=subprocess.PIPE, text=True,
    )
    if completed.returncode != 0:
        raise SystemExit(f"{workload}: child exited with {completed.returncode}")
    return json.loads(completed.stdout.splitlines()[-1])


def _print_rows(title: str, rows: dict) -> None:
    print(title)
    for metric, row in rows.items():
        spread = ""
        if row["n"] > 1:
            spread = f"  [q1 {row['q1']:.6g}, q3 {row['q3']:.6g}, n={row['n']}]"
        print(f"  {metric:<46} {row['value']:>14.6g} {row['unit']:<7}{spread}")


def _print_result(result: dict) -> None:
    env = result["env"]
    print(f"== {result['workload']}  seed {result['seed']}"
          f"{'  (quick sizes)' if result['quick'] else ''}")
    print(f"  input_sha256 {result['input_sha256']}")
    print(f"  python {env['python']} on {env['platform']}, {env['cpu_count']} cpus, "
          f"git {env['git_sha'][:12]}, load {env['loadavg_start']:.2f} -> "
          f"{env['loadavg_end']:.2f}{'  NOISY' if env['noisy'] else ''}")
    print(f"  ops {result['ops']}  failed_ops {result['failed_ops']}")
    if result["first_failure"]:
        print(f"  first failure: {result['first_failure']}")
    if "metrics" in result:
        _print_rows(f"  end to end ({result['passes']} passes):", result["metrics"])
        _print_rows("  printed, not metrics:", result["printed_only"])
    else:
        _print_rows(f"  per layer ({result['traced_passes']} traced passes):", result["layers"])


def main(argv: "list | None" = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"],
                        help="how long each workload's timed passes run")
    parser.add_argument("--traced", action="store_true",
                        help="also make the traced run (per-layer metrics)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: the traced run only")
    parser.add_argument("--quick", action="store_true", help="small inputs, for the tests")
    parser.add_argument("--out", type=Path, default=HERE / "out" / "results.json")
    args = parser.parse_args(argv)

    modes = [False, True] if args.traced else [bool(args.trace)]
    results = []
    for name in [args.workload] if args.workload else names:
        for traced in modes:
            result = _child(name, args.seed, args.seconds, traced, args.quick, args.out.parent)
            _print_result(result)
            results.append(result)

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"schema": 1, "results": results}, indent=1) + "\n")

    # The contract line: what the last child measured, names as in BENCHMARK.json.
    last = results[-1]
    declared = benchmark["per_layer" if "layers" in last else "end_to_end"]
    rows = last.get("layers") or last["metrics"]
    print(json.dumps({
        "correct": all(result["failed_ops"] == 0 for result in results),
        "attempted": sum(result["ops"] for result in results),
        "failed": sum(result["failed_ops"] for result in results),
        "metrics": {
            metric["name"]: {"value": rows[metric["name"]]["value"], "unit": metric["unit"]}
            for metric in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
