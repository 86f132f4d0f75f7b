"""Command line of the replay-throughput benchmark.

``run``      measure workloads; the last stdout line is the result JSON
``compare``  ``compare BASE.json... -- NEW.json...`` verdicts
``expect``   rewrite ``expected_counters.json`` at the built-in seeds
``rss``      one pass in this process, print its peak RSS (used by ``run``)
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
from typing import List, Optional

from repro.obs.bench import env_fingerprint

from benchmarks.perf import runner
from benchmarks.perf.compare import compare, load_spec
from benchmarks.perf.suite import WORKLOADS, simulations

RESULTS_DIR = runner.PACKAGE_DIR / "results"


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure workloads")
    run.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="repeat to select several (default: all four)",
    )
    run.add_argument(
        "--seed", type=_seed, default=None,
        help="seed for every generator (default: each one's built-in seed)",
    )
    run.add_argument(
        "--seconds", type=float, default=None,
        help="timed-pass budget per workload (default: BENCHMARK.json)",
    )
    run.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1 pairs each timed pass with a sampled pass, adds a counting "
        "pass and prints the per-layer metrics",
    )
    run.add_argument(
        "--quick", action="store_true",
        help="1/20 scale, one timed pass, no RSS child",
    )
    run.add_argument("--out", type=pathlib.Path, help="result JSON path")
    rss = commands.add_parser("rss", help=argparse.SUPPRESS)
    rss.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    rss.add_argument("--seed", type=_seed, default=None)
    commands.add_parser("expect", help="rewrite expected_counters.json")
    return parser


def _commit() -> Optional[str]:
    # A checkout without .git has no commit; git would search the
    # directories above it instead.
    if not (runner.ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=runner.ROOT,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_benchmark(args: argparse.Namespace) -> int:
    spec = load_spec()
    workloads = args.workload or list(WORKLOADS)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    stem = "-".join(workloads) if args.workload else "all"
    seed_tag = "default" if args.seed is None else str(args.seed)
    out = args.out or RESULTS_DIR / f"run-{stem}-seed{seed_tag}-trace{args.trace}.json"
    document = {
        "commit": _commit(),
        "seed": args.seed,
        "seconds": seconds,
        "quick": args.quick,
        "trace": bool(args.trace),
        "env": env_fingerprint(),
        "keep_freed_memory": runner.keep_freed_memory(),
        "workloads": {},
    }
    for workload in workloads:
        trace_path = out.with_name(f"{out.stem}.{workload}.trace.json")
        document["workloads"][workload] = runner.run_workload(
            workload, args.seed, seconds, bool(args.trace), args.quick,
            trace_path,
        )
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for workload, section in document["workloads"].items():
        found = section["layers"]["metrics"] if args.trace else section["metrics"]
        prefix = "" if len(workloads) == 1 else f"{workload}/"
        for metric in wanted:
            entry = found[metric["name"]]
            metrics[prefix + metric["name"]] = {
                "value": entry["value"], "unit": entry["unit"],
            }
            print(f"{workload:22} {metric['name']:32} "
                  f"{entry['value']:14.6g} {entry['unit']}")
    attempted = sum(s["attempted"] for s in document["workloads"].values())
    failed = sum(s["failed"] for s in document["workloads"].values())
    print(f"result file: {out}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def write_expected() -> int:
    expected = {}
    for workload in WORKLOADS:
        for quick in (False, True):
            for run in runner.run_pass(simulations(workload, quick), None):
                if run.errors:
                    print(f"{run.sim.label}: {run.errors}", file=sys.stderr)
                    return 1
                expected[run.sim.label] = run.counters
    with open(runner.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(expected)} simulations to {runner.EXPECTED_PATH}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        rest = argv[1:]
        split = rest.index("--") if "--" in rest else 0
        if split in (0, len(rest) - 1):
            print("usage: compare BASE.json... -- NEW.json...", file=sys.stderr)
            return 2
        return compare(rest[:split], rest[split + 1:])
    args = _parser().parse_args(argv)
    try:
        runner.check_environment()
    except runner.OverrideError as error:
        print(f"{type(error).__name__}: {error}", file=sys.stderr)
        return 2
    if args.command == "run":
        return run_benchmark(args)
    if args.command == "expect":
        return write_expected()
    runner.run_pass(simulations(args.workload), args.seed)
    print(json.dumps({"peak_rss_mb": runner.peak_rss_self()}))
    return 0
