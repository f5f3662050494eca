"""Benchmark entry point.

    python3 perfbench/run.py --workload {distinct,shared,service} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the program under test is imported from
``src/``.  ``--trace 0`` prints the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` its per-layer metrics.  The last line
of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any

ROOT = Path.cwd()

WORKLOADS = ("distinct", "shared", "service")

#: Per-layer metric prefixes a workload never exercises; they read 0 there.
NOT_EXERCISED = {
    "distinct": ("service.", "loadgen."),
    "shared": ("service.", "loadgen."),
    "service": ("core.", "speedup.", "sim.", "graph.", "bounds.", "batch.", "trace."),
}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_spec(root: Path) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no program to measure: {root / 'src' / 'repro'} is missing")
    return spec


def measure(args: argparse.Namespace, root: Path) -> tuple[dict[str, float], Any]:
    """Run one workload; returns its metric values and the check tally."""
    sys.path.insert(0, str(root / "src"))
    from common import Calibrator, Checks, GcProbe, median, peak_rss_mb

    calib = Calibrator()
    checks = Checks()
    with GcProbe() as gc_probe:
        if args.workload == "service":
            import service

            tmp = root / ".perfbench_tmp" / str(os.getpid())
            values = service.run(args.seed, args.seconds, bool(args.trace), calib, checks, tmp)
        else:
            import engine

            values = engine.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                calib, checks)
    if args.trace:
        values["gc.pause_ms"] = gc_probe.pause_s * 1e3
        values["gc.gen2_count"] = gc_probe.gen2
        values["machine.calib_ms"] = median(calib.kernel_ms)
    else:
        values["peak_rss_mb"] = peak_rss_mb()
    if calib.bad_checksums:
        checks.record(["calibration_checksum"] * calib.bad_checksums)
    return values, checks


def report(spec: dict, args: argparse.Namespace, values: dict[str, float],
           checks: Any) -> dict:
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    missing = []
    for entry in section:
        name = entry["name"]
        if name in values:
            value = values[name]
        elif args.trace and name.startswith(NOT_EXERCISED[args.workload]):
            value = 0.0
        elif name == "batch.vs_reference":
            continue  # repro.batch not installed: absent, not failed
        else:
            missing.append(name)
            continue
        metrics[name] = {"value": float(value), "unit": entry["unit"]}
    if missing:
        raise RuntimeError(f"workload {args.workload} produced no value for {missing}")
    if checks.by_kind:
        print("failed checks: " + ", ".join(f"{k}={v}" for k, v in sorted(checks.by_kind.items())),
              flush=True)
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        spec = load_spec(ROOT)
    except (OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    values, checks = measure(args, ROOT)
    result = report(spec, args, values, checks)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
