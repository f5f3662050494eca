"""Shared machinery of the benchmark: calibration, probes, statistics.

Nothing here imports ``repro``: the calibration kernel must cost the same
whatever the program under test does, and the probes only observe.
"""

from __future__ import annotations

import cProfile
import gc
import math
import pstats
import resource
import statistics
import time
from collections import defaultdict
from typing import Any, Callable

#: Median kernel time (ms) on the reference machine, a 2-core VM at its
#: normal speed.  Calibrated values read as if measured there.
REF_KERNEL_MS = 2.0

_KERNEL_N = 6000


def kernel() -> int:
    """Fixed pure-Python work: dict upserts, float sums, a keyed sort.

    The mix mirrors the engine's own inner loops, so a slow spell of the
    machine slows both alike.  Returns a checksum so no step is skipped.
    """
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(_KERNEL_N):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += (i % 13) * 1.0001
    ranked = sorted(table.items(), key=lambda kv: kv[1])
    return len(ranked) + int(acc) + int(ranked[-1][1])


KERNEL_CHECKSUM = kernel()


class Calibrator:
    """Brackets short timed reps with the kernel to cancel machine drift.

    A calibrated duration is ``raw * REF / k`` and a calibrated rate
    ``raw * k / REF``, where ``k`` is the kernel time measured around the
    rep: both read as on the reference machine.
    """

    def __init__(self) -> None:
        self.kernel_ms: list[float] = []
        self.bad_checksums = 0

    def measure(self) -> float:
        """Kernel time now (ms): the faster of two back-to-back runs."""
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            if kernel() != KERNEL_CHECKSUM:
                self.bad_checksums += 1
            best = min(best, time.perf_counter() - t0)
        ms = best * 1e3
        self.kernel_ms.append(ms)
        return ms

    def bracket(self, fn: Callable[[], Any]) -> tuple[Any, float, float]:
        """Run ``fn`` between two kernel measurements.

        Returns ``(result, raw_seconds, scale)`` where ``scale = REF / k``
        multiplies durations (and divides rates) into calibrated units.
        """
        k0 = self.measure()
        t0 = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - t0
        k1 = self.measure()
        return out, raw, REF_KERNEL_MS / ((k0 + k1) / 2)


class GcProbe:
    """Collector pauses seen through ``gc.callbacks`` (never disables gc)."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.gen2 = 0
        self._t0 = 0.0

    def _callback(self, phase: str, info: dict[str, int]) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._t0
            if info.get("generation") == 2:
                self.gen2 += 1

    def __enter__(self) -> "GcProbe":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc: object) -> None:
        gc.callbacks.remove(self._callback)


class Profile:
    """cProfile spans around public calls, attributed to ``repro`` layers.

    Self time of code outside ``repro`` (builtins, numpy) is charged to
    the ``repro`` functions that called it, in proportion to the time
    each caller spent in it, so every profiled second lands in a layer.
    """

    def __init__(self) -> None:
        self.profiler = cProfile.Profile()
        self.wall_s = 0.0

    def call(self, fn: Callable[[], Any]) -> Any:
        t0 = time.perf_counter()
        self.profiler.enable()
        try:
            return fn()
        finally:
            self.profiler.disable()
            self.wall_s += time.perf_counter() - t0

    def attributed(self) -> dict[tuple[str, str], tuple[float, int]]:
        """``{(module, function): (attributed self seconds, calls)}``."""
        raw = pstats.Stats(self.profiler).stats  # type: ignore[attr-defined]
        out: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0.0, 0])
        memo: dict[Any, dict[tuple[str, str], float]] = {}

        def owners(key: Any, depth: int) -> dict[tuple[str, str], float]:
            """Shares of ``key``'s time owned by ``repro`` functions."""
            name = _repro_name(key)
            if name is not None:
                return {name: 1.0}
            if key in memo:
                return memo[key]
            memo[key] = {}
            callers = raw[key][4] if key in raw else {}
            total = sum(c[2] + 1e-12 for c in callers.values())
            shares: dict[tuple[str, str], float] = defaultdict(float)
            if depth < 8 and total > 0:
                for caller, c in callers.items():
                    for owner, share in owners(caller, depth + 1).items():
                        shares[owner] += share * (c[2] + 1e-12) / total
            memo[key] = dict(shares)
            return memo[key]

        for key, (_cc, nc, tt, _ct, _callers) in raw.items():
            name = _repro_name(key)
            if name is not None:
                out[name][1] += nc
            for owner, share in owners(key, 0).items():
                out[owner][0] += tt * share
        return {k: (v[0], int(v[1])) for k, v in out.items()}


def _repro_name(key: tuple[str, int, str]) -> tuple[str, str] | None:
    filename, _line, func = key
    marker = "/repro/"
    idx = filename.replace("\\", "/").rfind(marker)
    if idx < 0 or not filename.endswith(".py"):
        return None
    module = "repro." + filename[idx + len(marker) : -3].replace("/", ".")
    return module.removesuffix(".__init__"), func


def layer_of(module: str) -> str:
    """``repro.sim.engine`` -> ``sim``."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else "repro"


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return statistics.median(values)


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repeated_setup(calib: Calibrator, checks: "Checks", build: Callable[[], Any],
                   fingerprint: Callable[[Any], str], reps: int) -> tuple[Any, list[float], list[float]]:
    """Build the inputs ``reps`` times, each from a freshly collected heap.

    Returns the last build, the calibrated and the raw set-up times.  Every
    build must hash the same; the heap is collected once more at the end
    so no measured phase pays for the set-up's garbage.
    """
    built: Any = None
    calibrated: list[float] = []
    raw_s: list[float] = []
    prints = set()
    for _ in range(reps):
        gc.collect()
        built, raw, scale = calib.bracket(build)
        calibrated.append(raw * scale)
        raw_s.append(raw)
        prints.add(fingerprint(built))
    checks.record([] if len(prints) == 1 else ["nondeterministic_inputs"])
    gc.collect()
    return built, calibrated, raw_s


class Checks:
    """Every operation checked, and every failed check by kind.

    An operation fails when any of its checks fails; each failed check is
    also counted under its kind, so no failure is dropped silently.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.by_kind: dict[str, int] = defaultdict(int)

    def record(self, failed_kinds: list[str]) -> None:
        self.attempted += 1
        if failed_kinds:
            self.failed += 1
        for kind in failed_kinds:
            self.by_kind[kind] += 1
