"""RL002: no wall-clock reads in the simulation/scheduling hot paths.

The engine's event loop and the allocator are pure functions of their
inputs — that is what makes the golden digests of
``tests/perf/test_digest_equivalence.py`` meaningful.  A ``time.time()``
or ``datetime.now()`` anywhere in :mod:`repro.sim` or :mod:`repro.core`
would leak real time into simulated time (or into tie-breaking), which no
test can reliably catch.

``time.perf_counter`` / ``time.monotonic`` are *allowed*: they measure
durations for telemetry (e.g. the campaign manifest's per-run compute
times) and never enter scheduling decisions.  Code outside ``repro.sim`` /
``repro.core`` (e.g. the campaign runtime's manifest timestamps) is out
of scope by design.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.context import FileContext, qualified_name
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

#: Fully-qualified callables that read the wall clock.
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

_SCOPES = ("repro.sim", "repro.core")


@register
class WallClockRule(Rule):
    code = "RL002"
    name = "wall-clock"
    description = (
        "no wall-clock reads (time.time, datetime.now, ...) in repro.sim / "
        "repro.core (reproducible engine)"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_package(*_SCOPES)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qname = qualified_name(node.func, ctx.aliases)
            if qname in _WALL_CLOCK:
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"wall-clock read '{qname}' in a simulation hot path; "
                    "simulated time must be derived from the event loop only",
                )
