"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — show registered workloads, policies, and figures.
* ``run`` — simulate one (workload, policy) pair and print the summary;
  ``--trace``/``--metrics`` export a Chrome trace-event JSON (opens in
  Perfetto) and the sampled metric series as JSON-lines.
* ``figure`` — regenerate paper figures (text / JSON / CSV, optional
  disk cache).
* ``sweep`` — tabulate a workload x policy matrix, simulated in this
  process or in a pool of ``--workers`` processes (optionally over a
  shared disk cache); ``--summary-json`` writes per-run result digests.
* ``report`` — write the full markdown reproduction report (+ SVG
  charts).
* ``characterize`` — print a workload's sharing/RW characterization.
* ``dump-trace`` — export a generated trace as ``.npz``.
* ``inspect`` — reconstruct page lifecycles from the structured event
  log (``--vpn N`` for one page, otherwise the busiest pages).
* ``lint`` — run the simlint static-analysis pass over the simulator.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis import sharing_summary
from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.harness.experiment import ExperimentRunner
from repro.harness.figures import FIGURES, run_figure
from repro.harness.report import format_figure, format_table
from repro.policies import available_policies, make_policy
from repro.sim import simulate
from repro.workloads import available_workloads, make_workload


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GRIT reproduction: trace-driven multi-GPU page placement",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads, policies, and figures")

    run = sub.add_parser("run", help="simulate one workload under one policy")
    run.add_argument("workload", choices=available_workloads())
    run.add_argument("policy", choices=available_policies())
    run.add_argument("--gpus", type=int, default=4)
    run.add_argument("--scale", type=float, default=0.3)
    run.add_argument("--page-size", type=int, default=4096)
    run.add_argument(
        "--contention",
        choices=["none", "queued"],
        default="none",
        help="timing-kernel mode: 'queued' models link and DRAM "
        "channel occupancy",
    )
    run.add_argument(
        "--topology",
        default="all-to-all",
        metavar="SPEC",
        help="interconnect fabric shape: all-to-all (default), "
        "nvswitch[:group_size], ring, or multi-node[:nodes]",
    )
    run.add_argument(
        "--fault-batch",
        type=int,
        default=1,
        metavar="N",
        help="local faults the UVM driver services per batch; 1 (the "
        "default) services every fault inline at the faulting access",
    )
    run.add_argument(
        "--no-fast-path",
        action="store_true",
        help="disable the steady-state fast path (fused check and "
        "batched rounds) and run every access through the full "
        "pipeline; results are bit-identical either way",
    )
    run.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="export a Chrome trace-event JSON of the run to PATH",
    )
    run.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="export the sampled metric series to PATH as JSON-lines",
    )

    inspect_cmd = sub.add_parser(
        "inspect",
        help="reconstruct page lifecycles from the simulated event log",
    )
    inspect_cmd.add_argument("workload", choices=available_workloads())
    inspect_cmd.add_argument("policy", choices=available_policies())
    inspect_cmd.add_argument("--gpus", type=int, default=4)
    inspect_cmd.add_argument("--scale", type=float, default=0.3)
    inspect_cmd.add_argument(
        "--vpn",
        type=int,
        default=None,
        help="page to inspect (default: rank the busiest pages)",
    )
    inspect_cmd.add_argument(
        "--limit",
        type=int,
        default=10,
        help="pages shown in the busiest-pages ranking",
    )

    fig = sub.add_parser("figure", help="regenerate a paper figure")
    fig.add_argument("name", choices=[*sorted(FIGURES), "all"])
    fig.add_argument("--scale", type=float, default=0.3)
    fig.add_argument(
        "--format",
        choices=["text", "json", "csv"],
        default="text",
        help="output format (text table, JSON, or CSV)",
    )
    fig.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="persist simulation results under DIR and reuse them",
    )
    fig.add_argument(
        "--artifacts",
        metavar="DIR",
        default=None,
        help="export a trace + metrics file per simulated run into DIR",
    )

    char = sub.add_parser("characterize", help="trace characterization")
    char.add_argument("workload", choices=available_workloads())
    char.add_argument("--gpus", type=int, default=4)
    char.add_argument("--scale", type=float, default=0.3)

    report = sub.add_parser(
        "report", help="regenerate every figure into a markdown report"
    )
    report.add_argument("--output", default="REPORT.md")
    report.add_argument("--scale", type=float, default=0.25)
    report.add_argument(
        "--charts",
        metavar="DIR",
        default=None,
        help="also write an SVG bar chart per figure into DIR",
    )
    report.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="persist simulation results under DIR and reuse them",
    )
    report.add_argument(
        "--artifacts",
        metavar="DIR",
        default=None,
        help="export a trace + metrics file per simulated run into DIR",
    )
    report.add_argument(
        "--workers",
        type=int,
        default=1,
        help="simulate the runs the figures share in a pool of this "
        "many worker processes first (1: each run in this process)",
    )

    dump = sub.add_parser(
        "dump-trace", help="generate a workload trace and save it as .npz"
    )
    dump.add_argument("workload", choices=available_workloads())
    dump.add_argument("output")
    dump.add_argument("--gpus", type=int, default=4)
    dump.add_argument("--scale", type=float, default=0.3)

    sweep = sub.add_parser(
        "sweep", help="run a workload x policy matrix and tabulate it"
    )
    sweep.add_argument(
        "--workloads",
        default="all",
        help="comma-separated workload names, or 'all' for Table II",
    )
    sweep.add_argument(
        "--policies",
        default="on_touch,access_counter,duplication,grit",
        help="comma-separated policy names",
    )
    sweep.add_argument("--gpus", type=int, default=4)
    sweep.add_argument("--scale", type=float, default=0.3)
    sweep.add_argument(
        "--baseline",
        default="on_touch",
        help="policy the table is normalized to",
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="simulate the matrix in a pool of this many worker "
        "processes (1: each run in this process)",
    )
    sweep.add_argument(
        "--metric",
        choices=["speedup", "cycles", "faults"],
        default="speedup",
    )
    sweep.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="persist simulation results under DIR and reuse them "
        "(shared by the sweep workers)",
    )
    sweep.add_argument(
        "--summary-json",
        metavar="PATH",
        default=None,
        help="write each run's total cycles and result digest as JSON "
        "to PATH (the same bytes for any --workers)",
    )

    lint = sub.add_parser(
        "lint", help="run the simlint static-analysis rules"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files to lint (default: the whole repro package)",
    )
    lint.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="findings as a text report or a JSON document",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )

    return parser


def _cmd_list() -> int:
    print("workloads:", ", ".join(available_workloads()))
    print("policies: ", ", ".join(available_policies()))
    print("figures:  ", ", ".join(sorted(FIGURES)))
    return 0


def _warn_dropped_events(result) -> None:
    dropped = result.details.get("dropped_events", 0)
    if dropped:
        print(
            f"warning: event log saturated, {dropped} events dropped "
            f"(raise EventLog capacity for a complete record)",
            file=sys.stderr,
        )


def _cmd_run(args: argparse.Namespace) -> int:
    config = SystemConfig(
        num_gpus=args.gpus,
        page_size=args.page_size,
        fault_batch_size=args.fault_batch,
        contention=args.contention,
        topology=args.topology,
        fast_path=not args.no_fast_path,
    )
    trace = make_workload(args.workload, num_gpus=args.gpus, scale=args.scale)
    observation = None
    if args.trace or args.metrics:
        from repro.obs import RunObservation

        observation = RunObservation()
    result = simulate(
        config, trace, make_policy(args.policy), observation=observation
    )
    rows = {
        key: [value] for key, value in result.summary().items()
    }
    print(format_table(["value"], rows, row_header="metric"))
    if observation is not None:
        if args.trace:
            observation.write_trace(
                args.trace,
                metadata={
                    "workload": result.workload,
                    "policy": result.policy,
                },
            )
            print(f"wrote {args.trace}")
        if args.metrics:
            observation.write_metrics(args.metrics)
            print(f"wrote {args.metrics}")
    _warn_dropped_events(result)
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.obs import busiest_pages, render_lifecycle
    from repro.sim.engine import Engine
    from repro.stats.events import EventLog

    if args.limit < 1:
        print("error: --limit must be at least 1", file=sys.stderr)
        return 2
    config = SystemConfig(num_gpus=args.gpus)
    trace = make_workload(
        args.workload, num_gpus=args.gpus, scale=args.scale
    )
    event_log = EventLog()
    engine = Engine(
        config, trace, make_policy(args.policy), event_log=event_log
    )
    result = engine.run()
    if args.vpn is not None:
        print(render_lifecycle(event_log, args.vpn))
    else:
        ranked = busiest_pages(event_log, limit=args.limit)
        print(
            f"busiest pages of {args.workload}/{args.policy} "
            f"({len(event_log)} events logged):"
        )
        for vpn, count in ranked:
            print(f"  vpn {vpn:<10d} {count:>6d} events")
        print("re-run with --vpn N for a page's full lifecycle")
    _warn_dropped_events(result)
    return 0


def _build_runner(
    scale: float,
    cache_dir: str | None,
    artifacts_dir: str | None = None,
) -> ExperimentRunner:
    if cache_dir:
        from repro.harness.cache import DiskCachedRunner

        return DiskCachedRunner(
            cache_dir, scale=scale, artifacts_dir=artifacts_dir
        )
    return ExperimentRunner(scale=scale, artifacts_dir=artifacts_dir)


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.harness.serialize import figure_to_csv, figure_to_json

    runner = _build_runner(args.scale, args.cache, args.artifacts)
    names = sorted(FIGURES) if args.name == "all" else [args.name]
    for name in names:
        figure = run_figure(name, runner)
        if args.format == "json":
            print(figure_to_json(figure))
        elif args.format == "csv":
            print(figure_to_csv(figure), end="")
        else:
            print(format_figure(figure))
            print()
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.harness.orchestrator import SweepError
    from repro.harness.reproduce import generate_report

    runner = _build_runner(args.scale, args.cache, args.artifacts)
    try:
        text = generate_report(
            scale=args.scale,
            runner=runner,
            charts_dir=args.charts,
            workers=args.workers,
        )
    except SweepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {args.output}")
    return 0


def _cmd_dump_trace(args: argparse.Namespace) -> int:
    from repro.workloads.trace_io import save_trace

    trace = make_workload(args.workload, num_gpus=args.gpus, scale=args.scale)
    save_trace(trace, args.output)
    print(
        f"wrote {args.output}: {trace.total_accesses:,} accesses, "
        f"{trace.footprint_pages:,} pages, {trace.num_gpus} GPUs"
    )
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    trace = make_workload(args.workload, num_gpus=args.gpus, scale=args.scale)
    summary = sharing_summary(trace)
    rows = {
        "total_pages": [summary.total_pages],
        "total_accesses": [summary.total_accesses],
        "private_page_fraction": [summary.private_page_fraction],
        "shared_page_fraction": [summary.shared_page_fraction],
        "private_access_fraction": [summary.private_access_fraction],
        "shared_access_fraction": [summary.shared_access_fraction],
        "read_page_fraction": [summary.read_page_fraction],
        "read_write_page_fraction": [summary.read_write_page_fraction],
        "read_access_fraction": [summary.read_access_fraction],
        "read_write_access_fraction": [summary.read_write_access_fraction],
    }
    print(format_table(["value"], rows, row_header="metric"))
    return 0


def _names(text: str) -> list[str]:
    return [name.strip() for name in text.split(",") if name.strip()]


def _sweep_input_error(
    workloads: list[str], policies: list[str], args: argparse.Namespace
) -> str | None:
    """The first bad ``sweep`` argument, described; None when valid."""
    checks = (
        ("--workloads", workloads, available_workloads()),
        ("--policies", policies, available_policies()),
        ("--baseline", [args.baseline], available_policies()),
    )
    for flag, names, valid in checks:
        for name in names:
            if name not in valid:
                return (
                    f"{flag}: unknown name {name!r} "
                    f"(choose from {', '.join(valid)})"
                )
    if args.workers < 1:
        return f"--workers must be at least 1, got {args.workers}"
    return None


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json

    from repro.harness.cache import result_digest
    from repro.harness.experiment import PAPER_APPS
    from repro.harness.orchestrator import SweepError, warm_runner_parallel

    workloads = (
        list(PAPER_APPS) if args.workloads == "all" else _names(args.workloads)
    )
    policies = _names(args.policies)
    error = _sweep_input_error(workloads, policies, args)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.baseline not in policies:
        policies = [args.baseline, *policies]
    runner = _build_runner(args.scale, args.cache)
    keys = {
        (workload, policy): runner.key(workload, policy, num_gpus=args.gpus)
        for workload in workloads
        for policy in policies
    }
    if args.workers > 1:
        try:
            warm_runner_parallel(runner, keys.values(), workers=args.workers)
        except SweepError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    rows = {}
    for workload in workloads:
        base = runner.run(keys[workload, args.baseline])
        cells = []
        for policy in policies:
            result = runner.run(keys[workload, policy])
            if args.metric == "speedup":
                cells.append(result.speedup_over(base))
            elif args.metric == "cycles":
                cells.append(result.total_cycles)
            else:
                cells.append(result.counters.total_faults)
        rows[workload] = cells
    print(
        format_table(
            policies, rows, row_header=f"{args.metric} @{args.gpus}g"
        )
    )
    if args.summary_json:
        summary = {}
        for (workload, policy), key in keys.items():
            result = runner.run(key)
            summary[f"{workload}/{policy}"] = {
                "total_cycles": result.total_cycles,
                "digest": result_digest(result),
            }
        with open(args.summary_json, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.summary_json}", file=sys.stderr)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.lint import LintEngine, make_rules
    from repro.lint.findings import exit_code
    from repro.lint.report import render_json, render_text

    if args.list_rules:
        for rule in make_rules():
            print(f"{rule.rule_id}  {rule.description}")
        return 0
    package_root = Path(__file__).resolve().parent
    repo_root = package_root.parent.parent
    paths = [Path(p) for p in args.paths] or None
    findings = LintEngine(package_root, repo_root=repo_root).run(paths)
    if args.format == "json":
        print(render_json(findings))
    else:
        print(render_text(findings))
    return exit_code(findings)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point.

    A flag value the config rejects (``--gpus 0``, ``--topology mesh``)
    exits 2 with ``error: <message>`` on stderr, not a traceback.
    """
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "figure":
            return _cmd_figure(args)
        if args.command == "characterize":
            return _cmd_characterize(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "dump-trace":
            return _cmd_dump_trace(args)
        if args.command == "inspect":
            return _cmd_inspect(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "lint":
            return _cmd_lint(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
