"""The batch engine: the vectorized event loop over dense run arrays.

One :class:`BatchEngine` advances ``B`` independent runs to completion.
It allocates the :class:`~repro.batch.kernels.KernelIO` array bundle,
runs the whole-array kernel of :mod:`repro.batch.kernels` and performs
the drain check.

**Bit-identity with the reference engine:**

* durations/allocations come precomputed from :mod:`repro.batch.layout`
  via the same scalar calls (or their proven-identical vectorized forms)
  the reference makes;
* completion grouping uses exact float equality against the running
  minimum, matching the reference heap's equal-time drain;
* simultaneous reveals are ordered by ``(max start-seq among the
  completing predecessors, graph insertion order)`` — provably the order
  in which the reference heap's pops append them to the queue;
* the queue pass starts tasks in queue order under a shrinking free
  count, exactly like ``start_fitting``.
"""

from __future__ import annotations

import numpy as np

from repro.batch.kernels import KernelIO, NumpyKernel, make_io
from repro.batch.layout import CompiledBatch
from repro.exceptions import SimulationError

__all__ = ["BatchEngine"]


class BatchEngine:
    """Vectorized simulation of one :class:`~repro.batch.layout.CompiledBatch`.

    Build, call :meth:`run` once, then read the result arrays
    (``start_t``/``end_t``/``start_seq``/``reveal_seq``/``reveal_t``/
    ``makespans``) or hand the engine to
    :func:`repro.batch.adapter.materialize_result`.
    """

    def __init__(self, compiled: CompiledBatch) -> None:
        self.compiled = compiled
        self.B = compiled.B
        self.N = compiled.N
        self.io: KernelIO = make_io(compiled)
        io = self.io
        # Result/state arrays, aliased for callers and materialization.
        self.free = io.free
        self.start_t = io.start_t
        self.end_t = io.end_t
        self.start_seq = io.start_seq
        self.reveal_seq = io.reveal_seq
        self.reveal_t = io.reveal_t
        self.now = io.now
        self.completed = io.completed
        self.ev_count = io.ev_count
        self.scan_passes = io.scan_passes
        self.scan_elems = io.scan_elems
        self.compactions = io.compactions
        self.block_skips = io.block_skips
        self._ran = False

    def run(self) -> "BatchEngine":
        """Simulate every run to completion; returns ``self``."""
        if self._ran:
            raise SimulationError("BatchEngine.run() may only be called once")
        self._ran = True
        NumpyKernel(self.io).run()
        self._check_drained()
        return self

    # ------------------------------------------------------------------
    def _check_drained(self) -> None:
        """Validate the post-drain state.

        Works purely off the result arrays (revealed = ``reveal_seq >= 0``,
        started = ``start_seq >= 0``); stuck tasks are reported in reveal
        order, which is queue order because queues append in reveal order
        and compaction is stable.
        """
        io = self.io
        started = io.start_seq.reshape(self.B, self.N) >= 0
        waiting = (io.reveal_seq >= 0) & ~started
        rows = waiting.any(axis=1)
        if rows.any():
            b = int(np.argmax(rows))
            cols = np.nonzero(waiting[b])[0]
            order = np.argsort(io.reveal_seq[b, cols], kind="stable")
            ids = self.compiled.runs[b].structure.ids
            stuck = [ids[int(c)] for c in cols[order][:10]]
            raise SimulationError(
                f"deadlock: tasks {stuck!r} can never start "
                f"(free={int(io.free[b])}, P={int(self.P_of(b))})"
            )
        if np.any(io.completed < self.compiled.n_tasks):
            raise SimulationError(
                "source still holds unrevealed tasks after the queue drained; "
                "the revealed graph is disconnected from its sources"
            )

    def P_of(self, b: int) -> int:
        return int(self.compiled.P[b])

    @property
    def makespans(self) -> np.ndarray:
        """Final completion time per run (``float64 [B]``)."""
        return self.io.now.copy()
