"""Command-line entry point: ``python -m repro.experiments <id> [...]``.

Examples::

    python -m repro.experiments list
    python -m repro.experiments table1
    python -m repro.experiments figure4 --ell 3
    python -m repro.experiments all --jobs 4 --out results/
    python -m repro.experiments campaign --jobs 2 --select figure3 --select table2

A single experiment id runs directly and prints its report, exactly as
before.  ``all`` and ``campaign`` route through the campaign runtime
(:mod:`repro.runtime`): runs fan out over ``--jobs`` worker processes,
results are served from / stored into a content-addressed cache (disable
with ``--no-cache``, recompute with ``--refresh``), and two artifacts are
written — a run manifest (``results/manifest.json``) and a timing
trajectory (``BENCH_experiments.json``).

Which ``--P/--ell/--seed`` overrides reach each experiment is declared by
its registry entry (``ExperimentSpec.accepts``); flags an experiment does
not accept are ignored for that experiment rather than passed blindly.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack
from dataclasses import fields
from pathlib import Path
from typing import Sequence

from repro.experiments.registry import REGISTRY, get_spec, run_experiment

__all__ = ["main"]

#: Global override flags the CLI exposes; each experiment receives the
#: subset its registry spec declares in ``accepts``.
OVERRIDE_KEYS = ("P", "ell", "seed")


def _write_report(out: Path, name: str, text: str) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{name}.txt").write_text(text + "\n")


def _run_campaign(args: argparse.Namespace, names: list[str]) -> int:
    from repro.runtime import ResultCache, append_bench_entry, run_campaign_experiments
    from repro.util.tables import format_table

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    overrides = {key: getattr(args, key) for key in OVERRIDE_KEYS}
    outcome = run_campaign_experiments(
        names=names,
        overrides=overrides,
        base_seed=args.campaign_seed,
        jobs=args.jobs,
        cache=cache,
        refresh=args.refresh,
    )
    manifest = outcome.manifest

    # Persist artifacts before printing: a closed stdout (e.g. `| head`)
    # must not lose reports, the manifest, or the bench trajectory.
    if args.out is not None:
        for name in names:
            _write_report(args.out, name, str(outcome.reports[name]))
    manifest.write(args.manifest)
    append_bench_entry(args.bench, manifest)

    if args.experiment == "all":
        for name in names:
            print(outcome.reports[name])
            print()
    else:
        body = [
            [
                r.experiment,
                r.cache_status,
                r.compute_time_s,
                r.worker,
                r.result_digest[:12],
            ]
            for r in manifest.runs
        ]
        print(
            format_table(
                ["experiment", "cache", "compute_s", "worker", "digest"],
                body,
                float_fmt=".3f",
            )
        )
        print(
            f"\n{len(manifest.runs)} runs | jobs={manifest.jobs} | "
            f"wall {manifest.wall_time_s:.2f}s | "
            f"serial-equivalent {manifest.serial_equivalent_s:.2f}s | "
            f"speedup {manifest.speedup_vs_serial:.2f}x | "
            f"cache hit rate {manifest.cache_hit_rate():.0%}"
        )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Run one experiment, ``all``, or a ``campaign``; print/save reports."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=[*sorted(REGISTRY), "all", "campaign", "list"],
        help="experiment id (paper table/figure number), 'all', 'campaign', or 'list'",
    )
    parser.add_argument("--P", type=int, default=None, help="platform size override")
    parser.add_argument("--ell", type=int, default=None, help="Theorem-9 ell override")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed override")
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print aggregated engine performance counters after a single "
        "experiment (events, queue scans, allocator cache traffic)",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="PATH",
        help="record the simulation event stream of a single experiment: "
        "'.jsonl' writes one JSON event per line, anything else a Chrome "
        "trace_event/Perfetto document (open at ui.perfetto.dev)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the unified metrics-registry summary after a single "
        "experiment (engine counters plus event-derived distributions)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="directory to also write each report to (<id>.txt)",
    )
    campaign = parser.add_argument_group("campaign runtime (all / campaign)")
    campaign.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for all/campaign (default: 1)",
    )
    campaign.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="ID",
        help="restrict 'campaign' to this experiment (repeatable)",
    )
    campaign.add_argument(
        "--campaign-seed",
        type=int,
        default=None,
        help="spawn a deterministic per-experiment seed from this base seed",
    )
    campaign.add_argument(
        "--cache-dir",
        type=Path,
        default=Path("results/cache"),
        help="result cache directory (default: results/cache)",
    )
    campaign.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache entirely",
    )
    campaign.add_argument(
        "--refresh",
        action="store_true",
        help="recompute every run and overwrite its cache entry",
    )
    campaign.add_argument(
        "--manifest",
        type=Path,
        default=Path("results/manifest.json"),
        help="run-manifest path (default: results/manifest.json)",
    )
    campaign.add_argument(
        "--bench",
        type=Path,
        default=Path("BENCH_experiments.json"),
        help="timing-trajectory path (default: BENCH_experiments.json)",
    )
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name in sorted(REGISTRY):
            print(name)
        return 0

    if args.select is not None and args.experiment != "campaign":
        parser.error("--select only applies to the 'campaign' subcommand")

    if args.profile and args.experiment in ("all", "campaign"):
        # Campaign workers run in separate processes and do not report
        # their engine counters back; profiling is single-experiment only.
        parser.error("--profile only applies to a single experiment id")

    if (args.trace is not None or args.metrics) and args.experiment in (
        "all",
        "campaign",
    ):
        # A trace file interleaving many experiments' events would be
        # unreadable; per-run campaign metrics already land in the
        # manifest.  Both flags are single-experiment only.
        parser.error("--trace/--metrics only apply to a single experiment id")

    if args.experiment in ("all", "campaign"):
        names = sorted(REGISTRY)
        if args.experiment == "campaign" and args.select:
            unknown = [name for name in args.select if name not in REGISTRY]
            if unknown:
                parser.error(f"unknown experiment(s) in --select: {unknown}")
            names = sorted(set(args.select))
        return _run_campaign(args, names)

    # Single experiment: run directly (no cache, no pool), print the report.
    spec = get_spec(args.experiment)
    kwargs = {
        key: getattr(args, key)
        for key in OVERRIDE_KEYS
        if key in spec.accepts and getattr(args, key) is not None
    }
    registry = None
    sink = None
    with ExitStack() as stack:
        tracers = []
        if args.trace is not None:
            from repro.obs import ChromeTraceSink, JsonlTraceSink

            if args.trace.suffix == ".jsonl":
                sink = JsonlTraceSink(args.trace)
            else:
                sink = ChromeTraceSink(args.trace, P=args.P)
            stack.callback(sink.close)
            tracers.append(sink)
        if args.metrics or args.profile:
            from repro.obs import MetricsRegistry, MetricsTracer, collect_metrics

            # One registry serves --metrics (engine counters plus the
            # event-derived distributions) and --profile (the engine
            # counters alone), so the flags compose.
            registry = stack.enter_context(collect_metrics(MetricsRegistry()))
            if args.metrics:
                tracers.append(MetricsTracer(registry))
        if tracers:
            from repro.obs import MultiTracer, use_tracer

            tracer = tracers[0] if len(tracers) == 1 else MultiTracer(*tracers)
            stack.enter_context(use_tracer(tracer))
        report = run_experiment(args.experiment, **kwargs)
    if args.out is not None:
        _write_report(args.out, args.experiment, str(report))
    print(report)
    print()
    if registry is not None and args.profile:
        from repro.sim.engine import EngineStats

        totals = {f.name: registry.value(f"engine.{f.name}") for f in fields(EngineStats)}
        print(EngineStats.from_dict(totals).summary())
        print()
    if registry is not None and args.metrics:
        print(registry.summary())
        print()
    if sink is not None:
        kind = "JSONL event log" if args.trace.suffix == ".jsonl" else "Chrome trace"
        print(f"{kind} written to {args.trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
