"""The columnar kernels: one per bulk-capable algorithm.

Every bulk-engine run executes exactly one entry of :data:`SHARD_KERNELS`
— in-process or sharded, clean or under a crash-stop / message-drop
plan.  The drivers in :mod:`repro.core.bulk` build the kernel params and
call :func:`_execute_kernel`: without a shard session the kernel runs
inline through :class:`~repro.runtime.shard.LocalComm` (a no-op
one-shard comm); under :func:`~repro.runtime.shard.shard_session` the
parent publishes the CSR view and cross-shard state via
:class:`repro.runtime.shard.SharedArrays` and workers run the same
kernel over contiguous vertex ranges.  Bulk == sharded(k) for every k
therefore holds by construction, and the equivalence matrices pin both
to the fast engine.

The owner-computes translation of message passing
-------------------------------------------------
A worker cannot scatter into another shard's state, so every kernel
accounts rounds **receiver-side**: after the round barrier a shard scans
the CSR rows of its own still-relevant vertices (running, crashed or
terminating this round) and counts, per row, the copies its neighbors
broadcast this round.  Undirected adjacency makes these the same
(sender, receiver) pairs the fast engine routes, and every receiver is
owned by exactly one shard, so per-shard partial sums allreduce to
exactly the unsharded totals — including the distinct-receiver count,
which decomposes by ownership.  The per-row counts come from one
cumulative sum over the gathered rows (:func:`_row_sums`), never from a
sort.

Fault draws (crash hazard, message drop) are keyed uniforms of
``(seed, session round, vertex)`` / ``(..., src, dst, k)``
(:mod:`repro.draws`), evaluated over whole arrays with one
:func:`~repro.draws.keyed_uniforms` call, so workers evaluate them
locally, the injected stream is invariant under the shard count, and it
equals the generator engines' scalar draws bit for bit.  A clean run is the
same code with no crash spec and a zero drop rate.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.draws import LUBY, MSG_DROP, keyed_uniforms
from repro.graphs.graph import Graph
from repro.runtime.bulk import BULK_CHUNK, BulkUnsupported, profiled, row_slots
from repro.runtime.shard import (
    LocalComm,
    SharedArrays,
    ShardTask,
    chaos_kill_hook,
    current_shards,
    resolve_bounds,
    run_sharded,
)


def _execute_kernel(
    kernel: str,
    graph: Graph,
    publish: dict[str, Any],
    params: dict[str, Any],
    copy_keys: Sequence[str] = (),
) -> tuple[list[Any], dict[str, np.ndarray]]:
    """Run one kernel sharded *or* in-process, per the active session.

    ``publish`` maps each kernel-visible array to its initial value, or
    to a ``(shape, dtype)`` request for a zero-filled one; ``copy_keys``
    name the arrays copied out after the run.  Returns the per-shard
    payloads and those copies.
    """
    offsets, indices = graph.csr(dtype="auto")
    session = current_shards()
    if session is None:
        n = graph.n
        views: dict[str, np.ndarray] = {"offsets": offsets, "indices": indices}
        for key, val in publish.items():
            if isinstance(val, np.ndarray):
                views[key] = val.copy()
            else:
                shape, dtype = val
                views[key] = np.zeros(shape, dtype=dtype)
        task = ShardTask(
            idx=0,
            lo=0,
            hi=n,
            bounds=[0, n],
            comm=LocalComm(),
            views=views,
            params=params,
        )
        with profiled("kernel"):
            payload = SHARD_KERNELS[kernel](task)
        return [payload], {key: views[key] for key in copy_keys}

    bounds = resolve_bounds(graph, session)
    shared = SharedArrays()
    try:
        # parent-side cost of getting data into shared memory; the
        # workers' attach side lands in their per-shard "publish" slot
        with profiled("publish"):
            shared.publish("offsets", offsets)
            shared.publish("indices", indices)
            for key, val in publish.items():
                if isinstance(val, np.ndarray):
                    shared.publish(key, val)
                else:  # (shape, dtype) request for a zero-filled array
                    shape, dtype = val
                    shared.publish(key, shape=shape, dtype=dtype)
        payloads = run_sharded(kernel, bounds, shared, params)
        copies = {key: shared.views[key].copy() for key in copy_keys}
    finally:
        shared.cleanup()
    return payloads, copies


def _fault_params(injector, n: int, name: str, bus) -> dict[str, Any]:
    """The fault-plan -> kernel-params translation: crash-stop and
    message-drop plans are evaluated inside the kernels via the pure
    counter-based draws; duplicate/delay plans have no receiver-side
    replay and are rejected up front."""
    plan = injector.plan
    mf = plan.messages
    if mf is not None and (mf.duplicate or mf.delay):
        raise BulkUnsupported(
            f"{name} supports crash-stop and message-drop faults only; "
            "duplicate/delay plans need the 'fast' or 'reference' engine"
        )
    pre_crashed = sorted(v for v in injector.begin_run(None) if v < n)
    params: dict[str, Any] = {
        "fault_seed": plan.seed,
        "round_offset": injector._round,
        "pre_crashed": pre_crashed,
    }
    if plan.crashes is not None and plan.crashes.active:
        params["crashes"] = {
            "at": dict(plan.crashes.at),
            "hazard": plan.crashes.hazard,
        }
    if mf is not None and mf.drop:
        params["drop"] = mf.drop
        params["record_drops"] = bus is not None and bus.active
    return params


# ---------------------------------------------------------------------------
# Shared kernel machinery
# ---------------------------------------------------------------------------


class _Adversary:
    """A kernel's view of the fault plan in its params (absent keys: a
    clean run — no crash spec, drop rate 0)."""

    def __init__(self, p: dict[str, Any]) -> None:
        from repro.faults.plan import CrashSpec

        self.seed = p.get("fault_seed", 0)
        self.crashes = CrashSpec(**p["crashes"]) if p.get("crashes") else None
        self.drop = p.get("drop", 0.0)
        self.record = bool(p.get("record_drops"))
        self.offset = p.get("round_offset", 0)

    def strike(
        self, running: np.ndarray, lo: int, rnd: int, records: list, comm
    ) -> tuple[np.ndarray, int]:
        """Draw round ``rnd``'s crashes among the own ``running`` mask,
        retire them and log ``(rnd, v)``; returns their local indices and
        the number crashed across all shards."""
        run = np.flatnonzero(running)
        newly = run[self.crashes.strikes_mask(self.seed, self.offset + rnd, run + lo)]
        running[newly] = False
        records.extend((rnd, lo + i) for i in newly.tolist())
        (crashed,) = comm.allreduce(newly.size)
        return newly, crashed

    def kept(
        self,
        srnd: int,
        us: np.ndarray,
        ws: np.ndarray,
        ks: np.ndarray,
    ) -> np.ndarray:
        """Survival mask of the copies ``us[j] -> ws[j]`` (copy index
        ``ks[j]``) sent in session round ``srnd``."""
        return keyed_uniforms(self.seed, MSG_DROP, srnd, us, ws, ks) >= self.drop

    def survivors(
        self,
        rnd: int,
        k: np.ndarray,
        nbs: np.ndarray,
        owners: np.ndarray,
        log: list | None = None,
    ) -> np.ndarray:
        """Per edge j, how many of the ``k[j]`` copies ``nbs[j] ->
        owners[j]`` sent in round ``rnd`` (copy indices ``0..k[j]-1``)
        get through; each drop is logged to ``log`` as ``(rnd, src,
        dst)`` when drops are recorded."""
        copy, kidx = _copies(k.astype(np.int64))
        keep = self.kept(self.offset + rnd, nbs[copy], owners[copy], kidx)
        if log is not None and self.record:
            lost = copy[~keep]
            log.extend(
                zip([rnd] * lost.size, nbs[lost].tolist(), owners[lost].tolist())
            )
        return np.bincount(copy[keep], minlength=k.size)


def _copies(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expand per-edge copy counts ``k``: each copy's edge and its index
    within the edge's batch."""
    copy = np.repeat(np.arange(k.size), k)
    return copy, np.arange(copy.size) - np.repeat(np.cumsum(k) - k, k)


def _running(p: dict[str, Any], lo: int, hi: int) -> tuple[np.ndarray, int]:
    """The own still-running mask and the global running count, after
    the fault session's earlier crashes."""
    pre = p.get("pre_crashed", ())
    running = np.ones(hi - lo, dtype=bool)
    running[[v - lo for v in pre if lo <= v < hi]] = False
    return running, p["n"] - len(pre)


def _rows(
    offsets: np.ndarray, indices: np.ndarray, rows: np.ndarray, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSR rows of own vertices ``rows`` (sorted global ids in
    ``[lo, hi)``): neighbors, row lengths and edge slots relative to the
    shard's first edge."""
    e_lo = int(offsets[lo])
    if rows.size == hi - lo:  # every own row: one contiguous slice
        e_hi = int(offsets[hi])
        cnt = (offsets[lo + 1 : hi + 1] - offsets[lo:hi]).astype(np.int64)
        return indices[e_lo:e_hi], cnt, np.arange(e_hi - e_lo, dtype=np.int64)
    pos, cnt = row_slots(offsets, rows)
    return indices[pos], cnt, pos - e_lo


def _row_sums(vals: np.ndarray, cnt: np.ndarray) -> np.ndarray:
    """Per-row sums of an edge-aligned array laid out row after row (row
    ``i`` spans the next ``cnt[i]`` entries)."""
    c = np.zeros(vals.size + 1, dtype=np.int64)
    np.cumsum(vals, out=c[1:])
    ends = np.cumsum(cnt)
    return c[ends] - c[ends - cnt]


def _tally(got: np.ndarray, t_rows: np.ndarray) -> tuple[int, int]:
    """A round's accounting from per-receiver delivered counts: copies
    to still-running receivers and the distinct running receivers."""
    g_live = got[t_rows == 0]
    return int(g_live.sum()), int(np.count_nonzero(g_live))


def _close_round(
    task: ShardTask,
    adv: _Adversary,
    rnd: int,
    sent,
    halts_own: int,
    running: np.ndarray,
    log: list,
) -> tuple[tuple[int, int, int, int], int]:
    """Round ``rnd``'s receiver-side accounting over the own rows that
    still receive (running, crashed, or terminating this round), then the
    allreduce.  ``sent(nbs)`` gives the copies each neighbor broadcast
    this round, per edge.  Returns the round's ``(sent, msgs, receivers,
    halts)`` record and the global running count.  ``sent`` counts the
    copies broadcast, before the adversary drops any (the fast engine's
    send events are the senders' intent); ``msgs`` the copies routed."""
    lo, hi = task.lo, task.hi
    own_term = task.views["term"][lo:hi]
    cand = np.flatnonzero((own_term == 0) | (own_term == rnd))
    intent = counted = recv_loc = 0
    if cand.size:
        rows = cand + lo
        nbs, cnt, _slots = _rows(
            task.views["offsets"], task.views["indices"], rows, lo, hi
        )
        k = sent(nbs)
        intent = int(k.sum())
        if adv.drop:
            k = adv.survivors(rnd, k, nbs, np.repeat(rows, cnt), log)
        counted, recv_loc = _tally(_row_sums(k, cnt), own_term[cand])
    g = task.comm.allreduce(
        intent, counted, recv_loc, halts_own, int(running.sum())
    )
    return (g[0], g[1] + g[3], g[2], g[3]), g[4]


def _payload(per_round, crashes, drops, watchdog, rnd) -> dict[str, Any]:
    return {
        "rounds": per_round,
        "crashes": crashes,
        "drops": drops,
        "watchdog": watchdog,
        "session_rounds": rnd,
    }


# ---------------------------------------------------------------------------
# Procedure Partition
# ---------------------------------------------------------------------------


def _kernel_partition(task: ShardTask) -> dict[str, Any]:
    """One shard of Procedure Partition.

    Per round: (A) the degree-threshold join test against ``heard``, own
    terminations written; barrier; (B) count this round's JOIN copies per
    own row — the accounting buckets, and the JOINs the row hears next
    round — in :data:`~repro.runtime.bulk.BULK_CHUNK`-row tiles so the
    gathered temporaries stay bounded at n = 10^7; allreduce the round
    totals.  Streams per-round checkpoints when the executor asks.
    """
    p = task.params
    offsets = task.views["offsets"]
    indices = task.views["indices"]
    term = task.views["term"]
    lo, hi = task.lo, task.hi
    comm = task.comm
    A = p["A"]
    max_rounds = p["max_rounds"]
    adv = _Adversary(p)

    deg_loc = (offsets[lo + 1 : hi + 1] - offsets[lo:hi]).astype(np.int64)
    heard = np.zeros(hi - lo, dtype=np.int64)
    alive, total_active = _running(p, lo, hi)
    dead = np.flatnonzero(~alive)  # local indices of crashed vertices
    crash_records: list[tuple[int, int]] = []
    drop_records: list[tuple[int, int, int]] = []
    per_round: list[tuple[int, int, int, int]] = []
    watchdog = None
    rnd = 0

    def _blob() -> dict[str, Any]:
        # a complete resume point: all shard-local state PLUS this
        # shard's slice of every mutable shared array, so a restart
        # overwrites any stale partial-round writes left by the crash
        return {
            "rnd": rnd,
            "total_active": total_active,
            "heard": heard.copy(),
            "alive": alive.copy(),
            "dead": dead.copy(),
            "crashes": list(crash_records),
            "drops": list(drop_records),
            "per_round": list(per_round),
            "term": term[lo:hi].copy(),
        }

    if task.resume is not None:
        b = task.resume
        rnd = b["rnd"]
        total_active = b["total_active"]
        heard[...] = b["heard"]
        alive[...] = b["alive"]
        dead = b["dead"].copy()
        crash_records = list(b["crashes"])
        drop_records = list(b["drops"])
        per_round = list(b["per_round"])
        term[lo:hi] = b["term"]
    elif task.ckpt is not None:
        task.ckpt(0, _blob())  # genesis: makes restart-from-0 exact

    while total_active > 0:
        rnd += 1
        chaos_kill_hook(p, task.idx, rnd)
        if adv.crashes is not None:
            newly, crashed = adv.strike(alive, lo, rnd, crash_records, comm)
            dead = np.concatenate((dead, newly))
            total_active -= crashed
            if total_active == 0:
                break
        if rnd > max_rounds:
            watchdog = (np.flatnonzero(alive) + lo).tolist()
            break

        # Phase A: join once at most A neighbors are still unjoined.
        act = np.flatnonzero(alive)
        join = (deg_loc[act] - heard[act]) <= A
        joined = act[join]
        term[joined + lo] = rnd
        alive[joined] = False
        comm.sync()

        # Phase B: this round's JOIN copies, per receiving row.
        # (``intent`` counts copies before the adversary drops any, as
        # the fast engine's send events do)
        cand = np.sort(np.concatenate((act, dead))) if dead.size else act
        intent = counted = recv_loc = 0
        for c0 in range(0, cand.size, BULK_CHUNK):
            rows = cand[c0 : c0 + BULK_CHUNK] + lo
            nb, cnt, _slots = _rows(offsets, indices, rows, lo, hi)
            hit = term[nb] == rnd
            intent += int(np.count_nonzero(hit))
            if adv.drop:
                hit = adv.survivors(rnd, hit, nb, np.repeat(rows, cnt), drop_records)
            got = _row_sums(hit, cnt)
            heard[rows - lo] += got
            c, r = _tally(got, term[rows])
            counted, recv_loc = counted + c, recv_loc + r
        g = comm.allreduce(intent, counted, recv_loc, joined.size, int(alive.sum()))
        per_round.append((g[0], g[1] + g[3], g[2], g[3]))
        total_active = g[4]
        if task.ckpt is not None:
            task.ckpt(rnd, _blob())

    return _payload(per_round, crash_records, drop_records, watchdog, rnd)


# ---------------------------------------------------------------------------
# Luby MIS
# ---------------------------------------------------------------------------


def _kernel_luby(task: ShardTask) -> dict[str, Any]:
    """One shard of Luby MIS, one engine round per iteration (crash draws
    happen per round over the still-running set, the fast engine's
    ``on_round`` cadence).  The round parity encodes the protocol: odd
    round 2k-1 delivers the previous attempt's MIS announcements (losers
    leave) and broadcasts attempt-k priorities; even round 2k delivers
    priorities and leave announcements and runs the win check.

    Receiver-owned per-edge state replicates each vertex's accumulated
    :class:`~repro.core.common.LocalView`: ``e_att[j]`` is the attempt of
    the last priority heard over edge j (0 = never; a stale value counts
    as *beaten*, matching the program's ``prios[u][0] < attempt`` test),
    ``disc[j]`` whether the neighbor's leave announcement arrived.  A
    neighbor that crashed before ever announcing a priority blocks its
    survivors forever -- the watchdog converts that into the typed
    round-limit error, the same legitimate non-termination the fast
    engine reports.  Crash-safe, NOT drop-safe: a dropped MIS
    announcement can leave two adjacent winners (see docs/faults.md).

    The attempt-k priorities of a shard's running vertices are one
    vector draw ``keyed_uniforms(seed, LUBY, ids, k)``, bit-identical to
    the generator program's per-vertex ``keyed_uniform(seed, LUBY, id,
    k)`` (:mod:`repro.draws`).
    """
    p = task.params
    offsets = task.views["offsets"]
    indices = task.views["indices"]
    term = task.views["term"]
    rand = task.views["rand"]
    lastp = task.views["lastp"]
    ids_arr = task.views["ids"]
    lo, hi = task.lo, task.hi
    comm = task.comm
    seed = p["seed"]
    max_rounds = p["max_rounds"]
    adv = _Adversary(p)

    m_own = int(offsets[hi]) - int(offsets[lo])
    e_att = np.zeros(m_own, dtype=np.int64)
    disc = np.zeros(m_own, dtype=bool)
    running, total_running = _running(p, lo, hi)
    crash_records: list[tuple[int, int]] = []
    drop_records: list[tuple[int, int, int]] = []
    per_round: list[tuple[int, int, int, int]] = []
    watchdog = None
    rnd = 0

    while total_running > 0:
        rnd += 1
        if adv.crashes is not None:
            _newly, crashed = adv.strike(running, lo, rnd, crash_records, comm)
            total_running -= crashed
            if total_running == 0:
                break
        if rnd > max_rounds:
            watchdog = (np.flatnonzero(running) + lo).tolist()
            break

        run = np.flatnonzero(running)
        halts_own = 0
        if rnd % 2 == 1:
            # Odd round 2k-1: leave on MIS announcements delivered from
            # the round-(2k-2) winners, then draw the attempt-k priority.
            if rnd > 1 and run.size:
                rows = run + lo
                nbs, cnt, _slots = _rows(offsets, indices, rows, lo, hi)
                hit = term[nbs] == rnd - 1
                if adv.drop:
                    hit = adv.survivors(rnd - 1, hit, nbs, np.repeat(rows, cnt))
                leave = _row_sums(hit, cnt) > 0
                if leave.any():
                    term[run[leave] + lo] = rnd
                    running[run[leave]] = False
                    halts_own = int(leave.sum())
                    run = run[~leave]
            attempt = (rnd + 1) // 2
            rand[run + lo] = keyed_uniforms(seed, LUBY, ids_arr[run + lo], attempt)
            lastp[run + lo] = rnd
        elif run.size:
            # Even round 2k: absorb attempt-k priorities and leave
            # announcements sent at 2k-1, then the win check over the
            # accumulated per-edge view.
            k = rnd // 2
            rows = run + lo
            nbs, cnt, ej = _rows(offsets, indices, rows, lo, hi)
            owners = np.repeat(rows, cnt)
            pm = lastp[nbs] == rnd - 1
            fm = term[nbs] == rnd - 1
            if adv.drop:
                pm = adv.survivors(rnd - 1, pm, nbs, owners) > 0
                fm = adv.survivors(rnd - 1, fm, nbs, owners) > 0
            e_att[ej[pm]] = k
            disc[ej[fm]] = True
            ea = e_att[ej]
            rv, iv = rand[owners], ids_arr[owners]
            beaten = (rand[nbs] < rv) | ((rand[nbs] == rv) & (ids_arr[nbs] < iv))
            ok = disc[ej] | ((ea > 0) & (ea < k)) | ((ea == k) & beaten)
            win = _row_sums(~ok, cnt) == 0
            if win.any():
                term[rows[win]] = rnd
                running[run[win]] = False
                halts_own = int(win.sum())
        comm.sync()

        # Phase B: this round's broadcasts are attempt priorities and
        # leave announcements at odd rounds, MIS announcements at even
        # rounds -- every sender is marked: lastp == rnd or term == rnd.
        def sent(nbs):
            hit = term[nbs] == rnd
            if rnd % 2 == 1:
                hit |= lastp[nbs] == rnd
            return hit

        record, total_running = _close_round(
            task, adv, rnd, sent, halts_own, running, drop_records
        )
        per_round.append(record)

    return _payload(per_round, crash_records, drop_records, watchdog, rnd)


# ---------------------------------------------------------------------------
# Cole-Vishkin ring 3-coloring
# ---------------------------------------------------------------------------


def _kernel_cole_vishkin(task: ShardTask) -> dict[str, Any]:
    """One shard of Cole-Vishkin in round lockstep with the fast program.

    Rounds ``1..steps+1`` broadcast the halving chain (round r reduces
    with the successor's round-``r-1`` value), rounds ``steps+2..steps+4``
    process the greedy recolor classes 5, 4, 3; everyone still alive
    terminates at ``steps+4``.  The program *never waits*: a missing
    successor value (crashed sender or dropped copy) skips the reduce and
    keeps the current color -- the fast program's keep-color-on-missing
    rule -- so Cole-Vishkin cannot non-terminate under this adversary,
    only degrade (the validators flag the resulting defects).

    Each halving step is ``diff = c ^ c[succ]``; the lowest set bit index
    comes from ``log2(diff & -diff)`` (exact in float64 for any index
    < 53, far beyond real ID spaces).

    Shared state is parity-disciplined: ``colors[r & 1][v]`` is the value
    v broadcast at round r (written in phase A of round r, read by
    neighbors in phase A of round r+1 -- the other slot), and the
    monotone ``bstamp[v]`` is the last round v broadcast, so receivers
    gate delivery on ``bstamp[u] >= r-1`` without racing the current
    round's stamps.
    """
    p = task.params
    offsets = task.views["offsets"]
    indices = task.views["indices"]
    buf = task.views["colors"]  # (2, n): slot r & 1 = round-r broadcast
    bstamp = task.views["bstamp"]
    term = task.views["term"]
    col = task.views["col"]
    succ = task.views["succ"]
    ids_arr = task.views["ids"]
    lo, hi = task.lo, task.hi
    comm = task.comm
    steps = p["steps"]
    adv = _Adversary(p)

    own_succ = succ[lo:hi]
    running, total_running = _running(p, lo, hi)
    crash_records: list[tuple[int, int]] = []
    drop_records: list[tuple[int, int, int]] = []
    per_round: list[tuple[int, int, int, int]] = []
    rnd = 0

    while total_running > 0 and rnd < steps + 4:
        rnd += 1
        if adv.crashes is not None:
            _newly, crashed = adv.strike(running, lo, rnd, crash_records, comm)
            total_running -= crashed
            if total_running == 0:
                break

        run = np.flatnonzero(running)
        halts_own = 0
        if run.size:
            vg = run + lo
            prev = buf[(rnd - 1) & 1]
            if rnd == 1:
                c_new = ids_arr[vg].astype(np.int64)
            elif rnd <= steps + 1:
                # halving step: reduce with the successor's round-(r-1)
                # value when it arrived and differs (equal is reachable
                # once a step was skipped), keep the color otherwise
                c_new = prev[vg]
                su = own_succ[run]
                got = bstamp[su] >= rnd - 1
                if adv.drop:
                    got = adv.survivors(rnd - 1, got, su, vg) > 0
                cs = prev[su]
                got &= cs != c_new
                c0, cs = c_new[got], cs[got]
                low = (c0 ^ cs) & -(c0 ^ cs)
                i = np.log2(low.astype(np.float64)).astype(np.int64)
                c_new[got] = 2 * i + ((c0 >> i) & 1)
            else:
                # greedy recolor of class 5 / 4 / 3: the smallest of
                # {0, 1, 2} no delivered round-(r-1) neighbor value uses
                c_new = prev[vg]
                mine = np.flatnonzero(c_new == 5 - (rnd - steps - 2))
                rows = vg[mine]
                nbs, cnt, _slots = _rows(offsets, indices, rows, lo, hi)
                got = bstamp[nbs] >= rnd - 1
                if adv.drop:
                    got = adv.survivors(rnd - 1, got, nbs, np.repeat(rows, cnt)) > 0
                nbc = prev[nbs]
                used0 = _row_sums(got & (nbc == 0), cnt) > 0
                used1 = _row_sums(got & (nbc == 1), cnt) > 0
                c_new[mine] = np.where(~used0, 0, np.where(~used1, 1, 2))
            if rnd <= steps + 3:
                buf[rnd & 1][vg] = c_new
                bstamp[vg] = rnd
            else:
                col[vg] = c_new
                term[vg] = rnd
                running[run] = False
                halts_own = int(run.size)
        comm.sync()

        record, total_running = _close_round(
            task, adv, rnd, lambda nbs: bstamp[nbs] == rnd, halts_own,
            running, drop_records,
        )
        per_round.append(record)

    return _payload(per_round, crash_records, drop_records, None, rnd)


# ---------------------------------------------------------------------------
# Defective coloring
# ---------------------------------------------------------------------------


def _kernel_defective(task: ShardTask) -> dict[str, Any]:
    """One shard of the defective-coloring schedule.

    The fast program is *self-synchronizing*: it broadcasts family step k
    and then waits until every neighbor's step k arrived, with no resend.
    Two consequences shape this kernel.  First, a vertex released from a
    long wait catches up by broadcasting several steps in one round, so a
    (src, dst) pair can carry multiple copies per round -- the adversary's
    per-copy index is the step's offset within the sender's round batch.
    Second, one dropped copy (or a crashed neighbor) stalls its receiver
    at that step forever, which cascades; the watchdog reports the same
    legitimate non-termination the fast engine does.  On a clean run this
    is the lockstep schedule: K broadcast rounds (isolated vertices
    finish all their picks in round 1), then one terminating round.

    The cover-free schedule is recomputed locally (a pure function of
    ``(id_space, A, d)``); its ``fam.pick`` decisions stay per-vertex
    Python calls, everything around them is array passes over own rows.

    Shared state: ``ustep[r & 1][v]`` is v's cumulative broadcast count as
    of round r (written every round v is alive, so the previous-parity
    slot is always fresh for delivery), ``ucol[s & 1][v]`` the color value
    of v's step-s broadcast (neighbor step skew is at most one wait, so a
    slot is consumed at least one barrier before it is overwritten), and
    the monotone ``ulast[v]`` stamps v's last live round so accounting
    never counts phantom sends from a parity-frozen dead sender.
    Receiver-owned per-edge state: ``e_seen[j]`` copies fate-processed so
    far, ``e_gap[j]`` the first step not yet delivered (the wait barrier
    -- a drop freezes it permanently).
    """
    from repro.core.defective import defective_schedule

    p = task.params
    offsets = task.views["offsets"]
    indices = task.views["indices"]
    ustep = task.views["ustep"]  # (2, n)
    ucol = task.views["ucol"]  # (2, n)
    ulast = task.views["ulast"]
    term = task.views["term"]
    col = task.views["col"]
    ids_arr = task.views["ids"]
    lo, hi = task.lo, task.hi
    comm = task.comm
    max_rounds = p["max_rounds"]
    adv = _Adversary(p)

    schedule = defective_schedule(p["space"], p["A"], p["d"])
    n_steps = len(schedule)
    m_own = int(offsets[hi]) - int(offsets[lo])
    e_seen = np.zeros(m_own, dtype=np.int64)
    e_gap = np.zeros(m_own, dtype=np.int64)
    running, total_running = _running(p, lo, hi)
    bc = np.zeros(hi - lo, dtype=np.int64)  # steps broadcast so far
    cols = ids_arr[lo:hi].tolist()
    crash_records: list[tuple[int, int]] = []
    drop_records: list[tuple[int, int, int]] = []
    per_round: list[tuple[int, int, int, int]] = []
    watchdog = None
    rnd = 0

    while total_running > 0:
        rnd += 1
        if adv.crashes is not None:
            _newly, crashed = adv.strike(running, lo, rnd, crash_records, comm)
            total_running -= crashed
            if total_running == 0:
                break
        if rnd > max_rounds:
            watchdog = (np.flatnonzero(running) + lo).tolist()
            break

        run = np.flatnonzero(running)
        rows = run + lo
        nbs, cnt, ej = _rows(offsets, indices, rows, lo, hi)
        # Phase A1: fate-process the copies broadcast at round rnd-1;
        # delivery advances each edge's contiguous-prefix gap, and a
        # dropped step freezes it (there are no resends).
        if rnd > 1:
            upto = ustep[(rnd - 1) & 1][nbs]
            new = upto > e_seen[ej]
            e_new, upto = ej[new], upto[new]
            base = e_seen[e_new]
            reach = upto
            if adv.drop and e_new.size:
                # the gap stops at the first dropped copy of the batch
                first = upto - base
                copy, kidx = _copies(first)
                owners = np.repeat(rows, cnt)[new]
                keep = adv.kept(
                    adv.offset + rnd - 1, nbs[new][copy], owners[copy], kidx
                )
                np.minimum.at(first, copy[~keep], kidx[~keep])
                reach = base + first
            fresh = e_gap[e_new] == base
            e_gap[e_new[fresh]] = reach[fresh]
            e_seen[e_new] = upto
        # Phase A2: first activation broadcasts step 0, then every
        # satisfied wait picks and broadcasts the next step (possibly
        # several in one round), terminating after the last pick.
        done = np.zeros(hi - lo, dtype=bool)
        if n_steps == 0:
            done[run] = True
        else:
            first = run[bc[run] == 0]
            ucol[0][first + lo] = [cols[i] for i in first.tolist()]
            bc[first] = 1
            wave, w_nbs, w_cnt, w_ej = run, nbs, cnt, ej
            while wave.size:
                b_e = np.repeat(bc[wave], w_cnt)
                ready = _row_sums(e_gap[w_ej] < b_e, w_cnt) == 0
                if not ready.any():
                    break
                sel = np.repeat(ready, w_cnt)
                vals = ucol[(b_e[sel] - 1) & 1, w_nbs[sel]]
                wave = wave[ready]
                b_w = bc[wave]
                at = 0
                for i, b, c in zip(
                    wave.tolist(), b_w.tolist(), w_cnt[ready].tolist()
                ):
                    nbc = vals[at : at + c].tolist()
                    cols[i] = schedule[b - 1].pick(cols[i], nbc)
                    at += c
                fin = b_w == n_steps
                done[wave[fin]] = True
                wave = wave[~fin]
                ucol[bc[wave] & 1, wave + lo] = [cols[i] for i in wave.tolist()]
                bc[wave] += 1
                w_nbs, w_cnt, w_ej = _rows(offsets, indices, wave + lo, lo, hi)
        ustep[rnd & 1][rows] = bc[run]
        ulast[rows] = rnd
        fin = run[done[run]]
        term[fin + lo] = rnd
        col[fin + lo] = [cols[i] for i in fin.tolist()]
        running[fin] = False
        halts_own = int(fin.size)
        comm.sync()

        # Phase B: this round's batched broadcasts, several copies per
        # edge after a catch-up (ulast gates out parity-frozen dead
        # senders).
        def sent(nbs):
            k = ustep[rnd & 1][nbs] - ustep[(rnd - 1) & 1][nbs]
            return np.where(ulast[nbs] == rnd, k, 0)

        record, total_running = _close_round(
            task, adv, rnd, sent, halts_own, running, drop_records
        )
        per_round.append(record)

    return _payload(per_round, crash_records, drop_records, watchdog, rnd)


#: kernel name -> entry point (resolved inside worker processes too)
SHARD_KERNELS = {
    "partition": _kernel_partition,
    "luby": _kernel_luby,
    "cole_vishkin": _kernel_cole_vishkin,
    "defective": _kernel_defective,
}
