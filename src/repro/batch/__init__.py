"""Batched structure-of-arrays simulation of fault-free runs.

A vectorized NumPy implementation of the fault-free engine loop that
simulates whole batches of independent runs in one pass, bit-identical to
:class:`~repro.sim.engine.ListScheduler` on its supported subset (see
:mod:`repro.batch.adapter` for the exact boundary)::

    from repro.batch import run_batch

    outcome = run_batch([(graph, P) for P in (8, 16, 32)], allocator)

It is not an engine backend: every simulation the library runs goes
through the reference engine.  ``run_batch`` is kept as a measured
comparison point (the benchmark's ``batch.vs_reference``).
"""

from repro.batch.adapter import BatchOutcome, materialize_result, run_batch
from repro.batch.engine import BatchEngine
from repro.batch.layout import (
    BatchCompiler,
    CompiledBatch,
    CompiledRun,
    CompiledStructure,
    compile_batch,
    compile_run,
    compile_structure,
)

__all__ = [
    "BatchCompiler",
    "BatchEngine",
    "BatchOutcome",
    "CompiledBatch",
    "CompiledRun",
    "CompiledStructure",
    "compile_batch",
    "compile_run",
    "compile_structure",
    "materialize_result",
    "run_batch",
]
