"""The batch engine's vectorized event loop.

The whole-array kernel behind :class:`~repro.batch.engine.BatchEngine`:
completion-time resolution, free-slot stack, FIFO block-minimum queue
scan, cumsum-scatter compaction and successor indegree decrement, all
with a leading batch axis so each main-loop iteration advances *every*
active run at once.  It reads and writes plain arrays only
(:class:`KernelIO`); the engine builds the bundle and checks the drain.

Only the observability counters (``ev_count``/``scan_passes``/
``scan_elems``/``compactions``/``block_skips``) describe this
implementation's own work; every other output is bit-identical to the
reference engine and enters result digests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.batch.layout import HUGE_DEMAND, CompiledBatch

__all__ = ["KernelIO", "NumpyKernel", "make_io"]

#: Block size of the queue block-minimum index.
_BK = 64
#: Compact a run's queue once it holds this many holes and they outnumber
#: live entries (amortized O(1) per start).
_COMPACT_MIN_HOLES = 256


# ----------------------------------------------------------------------
# The arrays-in/arrays-out contract
# ----------------------------------------------------------------------
@dataclass
class KernelIO:
    """Everything the kernel reads and writes — arrays in, arrays out.

    Inputs are read-only except ``indeg`` (a scratch copy the kernel
    decrements).  ``demand``/``duration`` alias the compiled batch (no
    copy), so they reflect the compiled arrays at run time.  Outputs are
    preallocated by :func:`make_io`; the kernel fills all of them.  The
    counters are observability only and stay out of digests.
    """

    # --- inputs ---
    B: int
    N: int
    #: ``int64 [B]``: platform size per run.
    P: np.ndarray
    #: ``int64 [B]``: real (unpadded) task count per run.
    n_tasks: np.ndarray
    #: ``int64 [B, N]``: final allocation (``HUGE_DEMAND`` padding).
    demand: np.ndarray
    #: ``float64 [B, N]``: execution times (0 padding).
    duration: np.ndarray
    #: ``int64 [B, N]``: scratch in-degrees (1 padding), decremented in place.
    indeg: np.ndarray
    #: Flattened CSR successors over global indices ``g = b * N + col``.
    succ_indptr: np.ndarray
    succ: np.ndarray
    # --- outputs ---
    #: ``float64 [B, N]``: start/completion instants (NaN = never started).
    start_t: np.ndarray
    end_t: np.ndarray
    #: ``int64 [B * N]``: per-run start sequence number (-1 = never started).
    start_seq: np.ndarray
    #: ``int64 [B, N]``: per-run reveal sequence number (-1 = never revealed).
    reveal_seq: np.ndarray
    #: ``float64 [B, N]``: reveal instants (NaN = never revealed).
    reveal_t: np.ndarray
    #: ``float64 [B]``: final simulation clock per run.
    now: np.ndarray
    #: ``int64 [B]``: free processors at drain (the kernel keeps this live).
    free: np.ndarray
    #: ``int64 [B]``: completed-task count per run.
    completed: np.ndarray
    # --- counters ---
    ev_count: np.ndarray
    scan_passes: np.ndarray
    scan_elems: np.ndarray
    #: ``int64 [B]``: queue compaction passes.
    compactions: np.ndarray
    #: ``int64 [B]``: scan waves ruled out by the block-minimum bound
    #: before any per-entry search.
    block_skips: np.ndarray


def make_io(compiled: CompiledBatch) -> KernelIO:
    """Preallocate a :class:`KernelIO` for one compiled batch."""
    B, N = compiled.B, compiled.N
    return KernelIO(
        B=B,
        N=N,
        P=compiled.P,
        n_tasks=compiled.n_tasks,
        demand=compiled.demand,
        duration=compiled.duration,
        indeg=compiled.indeg.copy(),
        succ_indptr=compiled.succ_indptr,
        succ=compiled.succ,
        start_t=np.full((B, N), np.nan, dtype=np.float64),
        end_t=np.full((B, N), np.nan, dtype=np.float64),
        start_seq=np.full(B * N, -1, dtype=np.int64),
        reveal_seq=np.full((B, N), -1, dtype=np.int64),
        reveal_t=np.full((B, N), np.nan, dtype=np.float64),
        now=np.zeros(B, dtype=np.float64),
        free=compiled.P.astype(np.int64),
        completed=np.zeros(B, dtype=np.int64),
        ev_count=np.zeros(B, dtype=np.int64),
        scan_passes=np.zeros(B, dtype=np.int64),
        scan_elems=np.zeros(B, dtype=np.int64),
        compactions=np.zeros(B, dtype=np.int64),
        block_skips=np.zeros(B, dtype=np.int64),
    )


# ----------------------------------------------------------------------
# The whole-array, batch-parallel event loop
# ----------------------------------------------------------------------
class NumpyKernel:
    """The vectorized batched event loop (structure of arrays).

    Advances ``B`` independent runs simultaneously: every state component
    of the reference loop has an array counterpart with a leading batch
    axis —

    =====================  ==================================================
    reference engine       numpy kernel
    =====================  ==================================================
    event heap             ``end_slot [B, C]`` compact completion slots; the
                           next event of run ``b`` is ``end_slot[b].min()``
    free processor count   ``free [B]``
    FIFO waiting queue     append-only slot arrays ``qdem/qtask [B, W]``
                           with a block-minimum index ``blockmin [B, W/64]``
    per-task allocation    ``demand/initial [B, N]`` (from ``layout``)
    ``source`` indegrees   ``indeg [B * N]`` + flat CSR successor arrays
    =====================  ==================================================

    Each iteration of the main loop advances *every* active run to its own
    next completion instant (runs desynchronize freely), drains all
    equal-time completions per run, decrements successor indegrees through
    one CSR scatter, enqueues newly ready tasks, and replays the reference
    engine's single in-order queue pass with a vectorized first-fit scan.

    The queue scan exploits that a FIFO pass is *almost* one
    cumulative-sum: the maximal queue prefix whose cumulative demand fits
    the free count starts wholesale (one window gather + ``cumsum`` across
    all runs); only at a "blocker" (first entry that does not fit) does
    the scan fall back to a block-minimum search for the next individually
    fitting entry.  Started entries leave a hole (sentinel demand) and
    queues compact lazily once holes dominate, keeping the amortized
    per-event cost near ``O(B * (P + W/64))`` instead of ``O(B * W)``.
    """

    def __init__(self, io: KernelIO) -> None:
        self.io = io
        B, N = io.B, io.N
        self.B = B
        self.N = N
        max_p = int(io.P.max())

        # Queue geometry: W slots under the block index, then a guard
        # region of one scan window so window gathers never wrap.
        self.NB = max(1, -(-N // _BK))
        self.W = self.NB * _BK
        self.C2 = int(max(16, min(max_p, max(N, 1))))
        self.WG = self.W + self.C2

        # Completion slots: one per potentially concurrent task.
        self.C = max(1, min(max_p, max(N, 1)))

        self.free = io.free
        self.indeg = io.indeg.reshape(-1)
        self.demand = io.demand
        self.demand_flat = io.demand.reshape(-1)
        self.duration_flat = io.duration.reshape(-1)

        self.qdem = np.full((B, self.WG), HUGE_DEMAND, dtype=np.int64)
        self.qtask = np.full((B, self.WG), -1, dtype=np.int64)
        self.blockmin = np.full((B, self.NB), HUGE_DEMAND, dtype=np.int64)
        self.qlen = np.zeros(B, dtype=np.int64)
        self.holes = np.zeros(B, dtype=np.int64)
        self.hstart = np.zeros(B, dtype=np.int64)

        self.reveal_seq = io.reveal_seq
        self.reveal_t = io.reveal_t
        self.rcount = np.zeros(B, dtype=np.int64)

        self.start_seq = io.start_seq
        self.sseq = np.zeros(B, dtype=np.int64)
        self.start_t = io.start_t
        self.end_t = io.end_t
        self.step_key = np.full(B * N, -1, dtype=np.int64)

        self.end_slot = np.full((B, self.C), np.inf, dtype=np.float64)
        self.slot_task = np.full((B, self.C), -1, dtype=np.int64)
        self.slot_stack = np.broadcast_to(
            np.arange(self.C, dtype=np.int64), (B, self.C)
        ).copy()
        self.stack_top = np.full(B, self.C, dtype=np.int64)

        self.now = io.now
        self.completed = io.completed

        self.ev_count = io.ev_count
        self.scan_passes = io.scan_passes
        self.scan_elems = io.scan_elems
        self.compactions = io.compactions
        self.block_skips = io.block_skips

    # ------------------------------------------------------------------
    # Queue primitives
    # ------------------------------------------------------------------
    def _enqueue(self, rb: np.ndarray, rc: np.ndarray) -> None:
        """Append tasks ``rc`` of runs ``rb`` (rb ascending, reveal order)."""
        if rb.size == 0:
            return
        # Rank of each append within its run = position - first position
        # of that run in the (sorted) rb array; bincount+repeat beats a
        # million binary searches on the initial bulk admission.
        per_run = np.bincount(rb, minlength=self.B).astype(np.int64)
        first = np.cumsum(per_run) - per_run
        rank = np.arange(rb.size, dtype=np.int64) - np.repeat(first, per_run)
        slots = self.qlen[rb] + rank
        dem = self.demand[rb, rc]
        self.qdem[rb, slots] = dem
        self.qtask[rb, slots] = rc
        # Bulk appends (e.g. the initial admission of a wide batch) make
        # scattered np.minimum.at the bottleneck; past one-eighth of the
        # affected rows' total block cells, a dense per-row recompute of
        # blockmin is cheaper than the scatter.
        urows = rb[np.concatenate(([True], rb[1:] != rb[:-1]))]  # rb ascending
        if rb.size * 8 >= urows.size * self.W:
            self.blockmin[urows] = (
                self.qdem[urows, : self.W].reshape(urows.size, self.NB, _BK).min(axis=2)
            )
        else:
            np.minimum.at(self.blockmin, (rb, slots // _BK), dem)
        self.reveal_seq[rb, rc] = self.rcount[rb] + rank
        self.reveal_t[rb, rc] = self.now[rb]
        self.qlen += per_run
        self.rcount += per_run

    def _compact(self, rows: np.ndarray) -> None:
        """Drop started-entry holes from the queues of ``rows``."""
        # Stable partition via cumsum-scatter (cheaper than an argsort):
        # each live entry's new column is the count of live entries at or
        # before it, minus one; holes and tail collapse to the sentinel.
        # Only the used region [0, qmax) can hold live entries or holes;
        # everything past it is already at the sentinel.
        qmax = int(self.qlen[rows].max())
        nbu = max(1, -(-qmax // _BK))
        wu = nbu * _BK
        if rows.size == self.B:
            # All runs compact at once (the common wide-batch case):
            # operate through basic-slice views, no gather copies.
            dem_view = self.qdem[:, :wu]
            task_view = self.qtask[:, :wu]
            live = dem_view != HUGE_DEMAND
            newc = live.cumsum(axis=1, dtype=np.int64) - 1
            r, c = np.nonzero(live)
            nc = newc[r, c]
            dem_live = dem_view[r, c]
            task_live = task_view[r, c]
            dem_view[...] = HUGE_DEMAND
            task_view[...] = -1
            dem_view[r, nc] = dem_live
            task_view[r, nc] = task_live
            self.blockmin[:, :nbu] = (
                dem_view.reshape(self.B, nbu, _BK).min(axis=2)
            )
        else:
            sub_dem = self.qdem[rows, :wu]
            live = sub_dem != HUGE_DEMAND
            newc = live.cumsum(axis=1, dtype=np.int64) - 1
            r, c = np.nonzero(live)
            nc = newc[r, c]
            new_dem = np.full_like(sub_dem, HUGE_DEMAND)
            new_dem[r, nc] = sub_dem[r, c]
            new_task = np.full_like(sub_dem, -1)
            new_task[r, nc] = self.qtask[rows, :wu][r, c]
            self.qdem[rows, :wu] = new_dem
            self.qtask[rows, :wu] = new_task
            self.blockmin[rows, :nbu] = new_dem.reshape(rows.size, nbu, _BK).min(
                axis=2
            )
        self.blockmin[rows, nbu:] = HUGE_DEMAND
        self.qlen[rows] = self.qlen[rows] - self.holes[rows]
        self.holes[rows] = 0
        self.hstart[rows] = 0

    def _refresh_hstart(self, rows: np.ndarray) -> None:
        """Point ``hstart`` at each row's first possibly-live queue block.

        Block-granular on purpose: up to ``_BK - 1`` leading holes are
        left for the scan window to absorb (holes contribute nothing to
        the prefix sum), which spares a per-row gather here on every
        event.
        """
        bm_live = self.blockmin[rows] < HUGE_DEMAND
        first_blk = np.argmax(bm_live, axis=1)
        self.hstart[rows] = np.where(
            bm_live.any(axis=1), first_blk * _BK, self.qlen[rows]
        )

    # ------------------------------------------------------------------
    # The queue pass (reference start_fitting, vectorized)
    # ------------------------------------------------------------------
    def _scan(self, rows: np.ndarray) -> None:
        rows = rows[(self.qlen[rows] - self.holes[rows]) > 0]
        if rows.size == 0:
            return
        needs_compact = rows[
            (self.holes[rows] > _COMPACT_MIN_HOLES)
            & (2 * self.holes[rows] > self.qlen[rows])
        ]
        if needs_compact.size:
            self._compact(needs_compact)
            self.compactions[needs_compact] += 1
        self.scan_passes[rows] += 1

        C2 = self.C2
        WG = self.WG
        qdem_flat = self.qdem.reshape(-1)
        win = np.arange(C2, dtype=np.int64)

        cur = self.hstart[rows].copy()
        budget = self.free[rows].copy()

        while rows.size:
            # --- cumulative-prefix window -----------------------------
            widx = cur[:, None] + win
            flat = rows[:, None] * WG + widx
            wdem = qdem_flat[flat]
            # Holes/guard carry the sentinel; they contribute 0 demand.
            wcum = np.where(wdem < HUGE_DEMAND, wdem, 0)
            csum = np.cumsum(wcum, axis=1)
            fits = csum <= budget[:, None]
            L = fits.sum(axis=1)
            took = np.where(L > 0, csum[np.arange(rows.size), np.maximum(L - 1, 0)], 0)
            budget -= took
            self.free[rows] = budget
            self.scan_elems[rows] += np.minimum(L + 1, C2)

            started = (wdem < HUGE_DEMAND) & (win[None, :] < L[:, None])
            sr, sc = np.nonzero(started)
            if sr.size:
                srun = rows[sr]
                spos = widx[sr, sc]
                scol = self.qtask[srun, spos]
                self._start(srun, scol, spos)

            # --- blocker / continuation -------------------------------
            qlen = self.qlen[rows]
            b0 = cur + L
            cont = (L == C2) & (b0 < qlen)
            # A blocker search can only succeed if some waiting entry's
            # demand fits the leftover budget; the row minimum of the
            # block index rules most waves out for the cost of one min.
            bm_min = self.blockmin[rows].min(axis=1)
            ruled_out = ~cont & (budget < bm_min)
            self.block_skips[rows[ruled_out]] += 1
            search = ~cont & (budget >= bm_min) & (b0 + 1 < self.W)
            nxt = np.full(rows.size, -1, dtype=np.int64)
            nxt[cont] = b0[cont]
            if search.any():
                sel = np.nonzero(search)[0]
                found = self._next_fit(rows[sel], b0[sel] + 1, budget[sel])
                nxt[sel] = found
            alive = nxt >= 0
            rows = rows[alive]
            cur = nxt[alive]
            budget = budget[alive]

    def _start(self, srun: np.ndarray, scol: np.ndarray, spos: np.ndarray) -> None:
        """Start tasks ``scol`` of runs ``srun`` (ascending, queue order)."""
        per_run = np.bincount(srun, minlength=self.B).astype(np.int64)
        first = np.cumsum(per_run) - per_run
        rank = np.arange(srun.size, dtype=np.int64) - np.repeat(first, per_run)
        g = srun * self.N + scol
        self.start_seq[g] = self.sseq[srun] + rank
        self.sseq += per_run
        t0 = self.now[srun]
        end = t0 + self.duration_flat[g]
        self.start_t[srun, scol] = t0
        self.end_t[srun, scol] = end
        # Punch queue holes and patch the block index.
        self.qdem[srun, spos] = HUGE_DEMAND
        self.holes += per_run
        # (run, block) keys are non-decreasing (srun ascending, spos
        # ascending within a run), so boundary-dedup replaces np.unique.
        key = srun * self.NB + spos // _BK
        touched = key[np.concatenate(([True], key[1:] != key[:-1]))]
        tr, tb = touched // self.NB, touched % self.NB
        idx = (tb * _BK)[:, None] + np.arange(_BK, dtype=np.int64)
        vals = self.qdem.reshape(-1)[tr[:, None] * self.WG + idx]
        self.blockmin[tr, tb] = vals.min(axis=1)
        # Pop completion slots from each run's free-slot stack.
        slots = self.slot_stack[srun, self.stack_top[srun] - 1 - rank]
        self.stack_top -= per_run
        self.end_slot[srun, slots] = end
        self.slot_task[srun, slots] = scol

    def _next_fit(
        self, rr: np.ndarray, start: np.ndarray, f: np.ndarray
    ) -> np.ndarray:
        """First queue index >= ``start`` whose demand fits ``f`` (-1: none)."""
        res = np.full(rr.size, -1, dtype=np.int64)
        qdem_flat = self.qdem.reshape(-1)
        blk = np.arange(_BK, dtype=np.int64)
        bblk = start // _BK
        base = bblk * _BK
        bidx = base[:, None] + blk
        vals = qdem_flat[rr[:, None] * self.WG + bidx]
        ok = (vals <= f[:, None]) & (bidx >= start[:, None])
        hit = ok.any(axis=1)
        if hit.any():
            res[hit] = bidx[hit, np.argmax(ok[hit], axis=1)]
        rem = np.nonzero(~hit)[0]
        if rem.size == 0:
            return res
        rr2 = rr[rem]
        bm_ok = (self.blockmin[rr2] <= f[rem, None]) & (
            np.arange(self.NB, dtype=np.int64)[None, :] > bblk[rem, None]
        )
        bhit = bm_ok.any(axis=1)
        if not bhit.any():
            return res
        sub = rem[bhit]
        blk2 = np.argmax(bm_ok[bhit], axis=1)
        idx2 = (blk2 * _BK)[:, None] + blk
        vals2 = qdem_flat[rr[sub][:, None] * self.WG + idx2]
        ok2 = vals2 <= f[sub, None]
        res[sub] = blk2 * _BK + np.argmax(ok2, axis=1)
        return res

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Simulate every run to completion (drain check is the engine's)."""
        B, N = self.B, self.N

        # Initial admission: indegree-0 tasks in insertion order (padding
        # columns carry indegree 1 and never appear).
        rb, rc = np.nonzero(self.indeg.reshape(B, N) == 0)
        self._enqueue(rb.astype(np.int64), rc.astype(np.int64))
        all_rows = np.arange(B, dtype=np.int64)
        self._scan(all_rows)
        self._refresh_hstart(all_rows)

        indptr = self.io.succ_indptr
        succ = self.io.succ

        while True:
            next_t = self.end_slot.min(axis=1)
            finite = np.isfinite(next_t)
            if finite.all():
                act = all_rows  # common case: every run still has work
            else:
                act = np.nonzero(finite)[0]
                if act.size == 0:
                    break
            tcur = next_t[act]
            self.now[act] = tcur
            self.ev_count[act] += 1

            # Drain every completion at each run's instant (exact float
            # equality, like the reference heap's equal-time drain).
            comp = self.end_slot[act] == tcur[:, None]
            ar, sl = np.nonzero(comp)
            crun = act[ar]
            ccol = self.slot_task[crun, sl]
            g = crun * N + ccol
            self.free += np.bincount(
                crun, weights=self.demand_flat[g], minlength=B
            ).astype(np.int64)
            self.end_slot[crun, sl] = np.inf
            self.slot_task[crun, sl] = -1
            per_run = np.bincount(crun, minlength=B).astype(np.int64)
            self.completed += per_run
            first = np.cumsum(per_run) - per_run
            rank = np.arange(crun.size, dtype=np.int64) - np.repeat(first, per_run)
            self.slot_stack[crun, self.stack_top[crun] + rank] = sl
            self.stack_top += per_run

            # Successor bookkeeping through the flat CSR.
            s0 = indptr[g]
            cnt = indptr[g + 1] - s0
            total = int(cnt.sum())
            if total:
                rep = np.repeat(np.arange(g.size, dtype=np.int64), cnt)
                within = np.arange(total, dtype=np.int64) - np.repeat(
                    np.cumsum(cnt) - cnt, cnt
                )
                tgt = succ[s0[rep] + within]
                np.subtract.at(self.indeg, tgt, 1)
                # Reveal ordering key: max start-seq among the completing
                # predecessors of each newly touched successor.
                self.step_key[tgt] = -1
                np.maximum.at(self.step_key, tgt, self.start_seq[g][rep])
                touched = np.unique(tgt)
                ready = touched[self.indeg[touched] == 0]
                if ready.size:
                    nb = ready // N
                    nc = ready % N
                    order = np.lexsort((nc, self.step_key[ready], nb))
                    self._enqueue(nb[order], nc[order])

            self._scan(act)
            self._refresh_hstart(act)
