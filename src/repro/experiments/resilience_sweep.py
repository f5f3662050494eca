"""Ext-R: processor-fault resilience sweep (MTBF x retry policy x model).

Beyond the end-of-attempt task failures of Ext-D, this experiment subjects
Algorithm 1 to *processor* faults: individual processors fail with
exponential MTBF and recover with exponential MTTR mid-run, killing the
attempts running on them.  The engine re-caps allocations at
:math:`\\lceil\\mu P_t\\rceil` for the live capacity :math:`P_t` and
re-executes killed tasks under a retry policy.

Swept dimensions:

* **speedup model family** — the four Equation (1) families;
* **MTBF** — per-processor mean time between failures, expressed as a
  multiple of the fault-free makespan ``T0`` (lower = harsher);
* **retry policy** — plain restart, exponential backoff, and
  checkpoint/restart (killed tasks resume with the remaining work).

Reported per cell: the makespan degradation ``T/T0`` against the fault-free
run, attempts killed, wasted processor-time area, and the smallest live
capacity reached.  Every run executes with the runtime invariant checker
enabled and is re-validated post-hoc (attempt log vs. capacity timeline),
so this sweep doubles as a stress test of the fault-handling engine paths.
"""

from __future__ import annotations

import numpy as np

from repro.core.constants import MODEL_FAMILIES
from repro.core.scheduler import OnlineScheduler
from repro.experiments.registry import ExperimentReport
from repro.resilience import ExponentialFaultModel, RetryPolicy
from repro.sim.feasibility import validate_result
from repro.speedup.random import RandomModelFactory
from repro.util.tables import format_table
from repro.workflows import cholesky

__all__ = ["run"]

#: Retry policies under test; backoff/checkpoint parameters are scaled to
#: the fault-free makespan inside :func:`run`.
_POLICIES = ("restart", "backoff", "checkpoint")

#: Per-processor MTBF as a multiple of the fault-free makespan.
_MTBF_FACTORS = (4.0, 1.0, 0.25)


def _policy(name: str, T0: float) -> RetryPolicy:
    if name == "restart":
        return RetryPolicy()
    if name == "backoff":
        return RetryPolicy(backoff_base=0.02 * T0, backoff_factor=2.0, backoff_cap=0.2 * T0)
    if name == "checkpoint":
        return RetryPolicy(checkpoint=True)
    raise ValueError(name)


def run(
    P: int = 32,
    tiles: int = 6,
    seed: int = 20220829,
) -> ExperimentReport:
    """Sweep MTBF x retry policy x speedup model under processor faults."""
    rows = []
    data: dict[str, dict[str, float]] = {}
    seed_stream = np.random.SeedSequence(seed)
    for family in MODEL_FAMILIES:
        factory = RandomModelFactory(family=family, seed=seed)
        graph = cholesky(tiles, factory)
        scheduler = OnlineScheduler.for_family(family, P)
        base = scheduler.run(graph, check_invariants=True)
        T0 = base.makespan
        rows.append([family, "none", "-", T0, 1.0, 0, 0.0, P])
        data[f"{family}/mtbf=none"] = {"makespan": T0, "degradation": 1.0}
        for factor in _MTBF_FACTORS:
            mtbf = factor * T0
            for policy_name in _POLICIES:
                child_seed = np.random.default_rng(seed_stream.spawn(1)[0])
                faults = ExponentialFaultModel(
                    mtbf,
                    mttr=0.1 * mtbf,
                    horizon=50.0 * T0,
                    seed=child_seed,
                )
                retry = _policy(policy_name, T0)
                result = scheduler.run(graph, faults=faults, retry=retry)
                validate_result(result, result.graph)
                degradation = result.makespan / T0
                wasted = result.wasted_work()
                rows.append(
                    [
                        family,
                        f"{factor:g}*T0",
                        policy_name,
                        result.makespan,
                        degradation,
                        result.killed_attempts(),
                        wasted,
                        result.min_capacity(),
                    ]
                )
                data[f"{family}/mtbf={factor:g}T0/{policy_name}"] = {
                    "makespan": result.makespan,
                    "degradation": degradation,
                    "killed_attempts": result.killed_attempts(),
                    "wasted_work": wasted,
                    "min_capacity": result.min_capacity(),
                }
    text = format_table(
        [
            "model",
            "mtbf",
            "retry policy",
            "makespan",
            "T / T0",
            "killed",
            "wasted area",
            "min P_t",
        ],
        rows,
        float_fmt=".3f",
        title=(
            f"Ext-R -- processor faults on P={P} (cholesky-{tiles}): per-processor\n"
            "exponential MTBF/MTTR, failures kill running attempts, allocations\n"
            "re-capped at ceil(mu*P_t) for the live capacity.  Makespan\n"
            "degradation T/T0 is measured against the fault-free run; every\n"
            "run passed the runtime invariant checker and post-hoc validation."
        ),
    )
    return ExperimentReport(
        "resilience", "Processor-fault resilience sweep", text, data
    )
