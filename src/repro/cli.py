"""Command-line experiment runner.

Usage::

    repro-experiments list
    repro-experiments run fig5
    repro-experiments run all --fast
    repro-experiments export-traces population.csv
    python -m repro.cli run table2

Each experiment prints the same rows/series the paper reports (see
EXPERIMENTS.md for the paper-vs-measured record); ``export-traces``
writes the synthetic Setup-2 population to CSV so it can be inspected or
replaced with real monitoring data.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from collections.abc import Sequence

from repro.experiments import EXPERIMENTS

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of the DATE 2013 paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_parser = sub.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument(
        "experiment",
        choices=[*sorted(EXPERIMENTS), "all"],
        help="experiment id, or 'all'",
    )
    run_parser.add_argument(
        "--fast",
        action="store_true",
        help="shrink workloads for a quick qualitative run",
    )
    run_parser.add_argument(
        "--journal",
        metavar="PATH",
        default=None,
        help="JSONL scenario journal for resumable sweeps "
        "(experiments that run through the scenario runner only)",
    )
    run_parser.add_argument(
        "--resume",
        action="store_true",
        help="skip scenarios already recorded in --journal (and resume "
        "partially replayed scenarios from --checkpoint-dir when set)",
    )
    run_parser.add_argument(
        "--checkpoint-every",
        type=int,
        metavar="K",
        default=None,
        help="write a crash-safe replay checkpoint every K placement "
        "periods (requires --checkpoint-dir)",
    )
    run_parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="directory for per-scenario checkpoint files "
        "(requires --checkpoint-every)",
    )
    run_parser.add_argument(
        "--allocator",
        choices=["exact", "sharded"],
        default=None,
        help="allocation backend for the proposed approach: 'exact' (dense "
        "Fig-2 allocator, the default) or 'sharded' (the approximate-but-"
        "gated two-level 100k-VM tier; experiments that build Setup-2 "
        "scenarios only)",
    )

    serve_parser = sub.add_parser(
        "serve",
        help="run the churn control loop (decide/admit/retire) against an event feed",
    )
    serve_parser.add_argument(
        "--events",
        metavar="PATH",
        default=None,
        help="scripted event feed: one event per line, either JSON "
        '{"time_s": ..., "action": "arrive"|"depart", "vm": ...} or '
        "'time_s,action,vm'; omit (without --stdin) to synthesize a "
        "deterministic feed from the traces",
    )
    serve_parser.add_argument(
        "--stdin",
        action="store_true",
        help="read the event feed from standard input instead of a file",
    )
    serve_parser.add_argument(
        "--num-vms", type=int, default=60, help="synthetic trace population size"
    )
    serve_parser.add_argument(
        "--periods", type=int, default=12, help="placement periods to run"
    )
    serve_parser.add_argument(
        "--samples-per-period",
        type=int,
        default=24,
        help="monitoring samples per placement period",
    )
    serve_parser.add_argument(
        "--seed", type=int, default=0, help="trace/event synthesis seed"
    )
    serve_parser.add_argument(
        "--allocator",
        choices=["exact", "sharded"],
        default="exact",
        help="allocation backend for the loop's decisions",
    )
    serve_parser.add_argument(
        "--report-every",
        type=int,
        metavar="K",
        default=1,
        help="print a decision/energy report line every K periods",
    )
    serve_parser.add_argument(
        "--checkpoint-every",
        type=int,
        metavar="K",
        default=None,
        help="write a crash-safe churn checkpoint every K periods "
        "(requires --checkpoint-dir)",
    )
    serve_parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="directory for churn checkpoint files",
    )
    serve_parser.add_argument(
        "--resume",
        action="store_true",
        help="resume from the newest checkpoint in --checkpoint-dir",
    )
    serve_parser.add_argument(
        "--journal",
        metavar="PATH",
        default=None,
        help="not supported by serve (scenario journals are a 'run' feature)",
    )

    export_parser = sub.add_parser(
        "export-traces", help="write the synthetic Setup-2 population to CSV"
    )
    export_parser.add_argument("path", help="output CSV path")
    export_parser.add_argument(
        "--fine",
        action="store_true",
        help="export the refined 5-second traces instead of the 5-minute ones",
    )
    export_parser.add_argument(
        "--seed", type=int, default=None, help="override the generator seed"
    )
    export_parser.add_argument(
        "--profile-layout",
        choices=["v1", "v2"],
        default="v1",
        help="coarse-generator RNG layout: v1 reproduces legacy populations "
        "byte-identically, v2 draws the whole population in batched blocks "
        "(recommended for large --num-vms)",
    )
    export_parser.add_argument(
        "--num-vms", type=int, default=None, help="override the population size"
    )
    export_parser.add_argument(
        "--num-clusters",
        type=int,
        default=None,
        help="override the service-cluster count (defaults to min(8, num VMs))",
    )
    return parser


def _export_traces(
    path: str,
    fine: bool,
    seed: int | None,
    profile_layout: str,
    num_vms: int | None,
    num_clusters: int | None,
) -> None:
    from repro.experiments.setup2 import Setup2Config, build_fine_traces
    from repro.traces.datacenter import DatacenterTraceConfig, generate_datacenter_traces
    from repro.traces.io import save_trace_set_csv

    overrides = {"profile_layout": profile_layout}
    if seed is not None:
        overrides["seed"] = seed
    if num_vms is not None:
        overrides["num_vms"] = num_vms
        # Keep small populations valid without forcing a second flag.
        overrides["num_clusters"] = min(8, num_vms)
    if num_clusters is not None:
        overrides["num_clusters"] = num_clusters
    try:
        traces_config = DatacenterTraceConfig(**overrides)
    except ValueError as error:
        raise SystemExit(f"repro-experiments export-traces: {error}") from error
    if fine:
        traces = build_fine_traces(Setup2Config(traces=traces_config))
    else:
        traces, _membership = generate_datacenter_traces(traces_config)
    save_trace_set_csv(traces, path)
    print(
        f"wrote {traces.num_traces} traces x {traces.num_samples} samples "
        f"({traces.period_s:.0f}s period) to {path}"
    )


def _parse_event_lines(lines, source: str):
    """Parse a scripted event feed (JSON-object or ``t,action,vm`` lines)."""
    import json

    from repro.sim.churn import ChurnEvent

    events = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if line.startswith("{"):
                payload = json.loads(line)
                event = ChurnEvent(
                    float(payload["time_s"]), str(payload["action"]), str(payload["vm"])
                )
            else:
                time_s, action, vm = (field.strip() for field in line.split(",", 2))
                event = ChurnEvent(float(time_s), action, vm)
        except (ValueError, KeyError, TypeError) as error:
            raise SystemExit(
                f"repro-experiments serve: bad event on line {lineno} of {source}: {error}"
            ) from error
        events.append(event)
    return events


def _serve(args) -> int:
    """The ``serve`` mode: drive the churn loop with periodic reporting."""
    import signal

    if args.journal is not None:
        raise SystemExit(
            "repro-experiments serve: --journal is a 'run' flag (scenario "
            "journals); serve streams events, it does not journal scenarios"
        )
    if args.events is not None and args.stdin:
        raise SystemExit(
            "repro-experiments serve: --events and --stdin are mutually exclusive"
        )
    if args.resume and args.checkpoint_dir is None:
        raise SystemExit("repro-experiments serve: --resume requires --checkpoint-dir")
    if args.checkpoint_every is not None and args.checkpoint_dir is None:
        raise SystemExit(
            "repro-experiments serve: --checkpoint-every requires --checkpoint-dir"
        )
    if args.checkpoint_every is not None and args.checkpoint_every < 1:
        raise SystemExit("repro-experiments serve: --checkpoint-every must be positive")
    for name, value in (("--periods", args.periods), ("--num-vms", args.num_vms),
                        ("--samples-per-period", args.samples_per_period),
                        ("--report-every", args.report_every)):
        if value < 1:
            raise SystemExit(f"repro-experiments serve: {name} must be positive")

    from repro.core.manager import ManagerConfig, PowerManager
    from repro.sim.checkpoint import CheckpointPolicy
    from repro.sim.churn import ChurnEngine, synthesize_churn_events
    from repro.traces.datacenter import DatacenterTraceConfig, generate_datacenter_traces

    try:
        traces_config = DatacenterTraceConfig(
            num_vms=args.num_vms,
            num_clusters=min(8, args.num_vms),
            seed=args.seed,
            profile_layout="v2",
        )
    except ValueError as error:
        raise SystemExit(f"repro-experiments serve: {error}") from error
    traces, _membership = generate_datacenter_traces(traces_config)

    period_duration_s = args.samples_per_period * traces.period_s
    if args.stdin:
        events = _parse_event_lines(sys.stdin, "stdin")
    elif args.events is not None:
        try:
            with open(args.events, encoding="utf-8") as handle:
                events = _parse_event_lines(handle, args.events)
        except OSError as error:
            raise SystemExit(f"repro-experiments serve: cannot read --events: {error}")
    else:
        events = synthesize_churn_events(
            traces.names, args.periods, period_duration_s, seed=args.seed
        )
    unknown = sorted({event.vm for event in events} - set(traces.names))
    if unknown:
        raise SystemExit(
            f"repro-experiments serve: events name VMs absent from the "
            f"{args.num_vms}-VM trace population: {unknown[:5]!r}"
        )

    config = ManagerConfig(
        n_cores=8,
        freq_levels_ghz=(1.2, 1.8, 2.4),
        allocator=args.allocator,
    )
    policy = None
    if args.checkpoint_dir is not None:
        policy = CheckpointPolicy(
            args.checkpoint_dir, every_periods=args.checkpoint_every or 10
        )
    try:
        engine = ChurnEngine(
            PowerManager(config),
            traces,
            events,
            args.samples_per_period,
            checkpoint=policy,
        )
    except ValueError as error:
        raise SystemExit(f"repro-experiments serve: {error}") from error
    if args.resume:
        resumed = engine.resume_latest()
        if resumed is None:
            print("serve: no usable checkpoint, cold start")
        else:
            print(f"serve: resumed at period {resumed}")

    interrupted = False

    def _on_sigterm(_signum, _frame):
        nonlocal interrupted
        interrupted = True

    previous = signal.signal(signal.SIGTERM, _on_sigterm)

    def report(record) -> None:
        if (record.period + 1) % args.report_every == 0:
            print(
                f"period {record.period:4d}: {record.active_vms:5d} active, "
                f"{record.servers:4d} servers, +{record.arrivals}/-{record.departures} "
                f"events, {record.decide_ms:8.2f} ms decide, "
                f"{record.energy_proxy_ghz:8.2f} GHz provisioned"
            )

    try:
        records = engine.run(
            args.periods, should_stop=lambda: interrupted, on_record=report
        )
    finally:
        signal.signal(signal.SIGTERM, previous)
    if interrupted:
        note = (
            " (checkpoint written)" if policy is not None and engine.next_period else ""
        )
        print(f"serve: interrupted at period {engine.next_period}{note}")
    if records:
        latency = engine.latency_ms()
        print(
            f"serve: {len(records)} periods, {len(engine.active_vms)} active, "
            f"decide p50 {latency['p50_ms']:.2f} ms / p99 {latency['p99_ms']:.2f} ms"
        )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for experiment_id in sorted(EXPERIMENTS):
            print(experiment_id)
        return 0

    if args.command == "serve":
        return _serve(args)

    if args.command == "export-traces":
        _export_traces(
            args.path,
            args.fine,
            args.seed,
            args.profile_layout,
            args.num_vms,
            args.num_clusters,
        )
        return 0

    extras = {
        "journal": args.journal,
        "resume": args.resume or None,
        "checkpoint_every": args.checkpoint_every,
        "checkpoint_dir": args.checkpoint_dir,
        "allocator": args.allocator,
    }
    requested = {key: value for key, value in extras.items() if value is not None}
    if "resume" in requested:
        requested["resume"] = True

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        accepted = inspect.signature(EXPERIMENTS[name]).parameters
        unsupported = sorted(set(requested) - set(accepted))
        if unsupported:
            if args.experiment == "all":
                # 'all' mixes runner-backed and plain experiments; only
                # forward the knobs where they exist.
                kwargs = {k: v for k, v in requested.items() if k in accepted}
            else:
                flags = ", ".join("--" + key.replace("_", "-") for key in unsupported)
                raise SystemExit(
                    f"repro-experiments run: experiment {name!r} does not support {flags}"
                )
        else:
            kwargs = dict(requested)
        result = EXPERIMENTS[name](fast=args.fast, **kwargs)
        print(result.render())
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
