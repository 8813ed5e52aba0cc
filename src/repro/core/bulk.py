"""Columnar (bulk-engine) drivers for the data-parallel zoo algorithms.

Each ``bulk_*`` function is the vectorized twin of a generator driver:
same signature surface, same result type, **bit-identical** outputs and
round accounting (the three-way differential suite pins this).  Every
algorithm has exactly one columnar implementation, its kernel in
:data:`repro.core.shard.SHARD_KERNELS`, and every kind of bulk run goes
through it: in-process (through ``LocalComm``) or sharded under a
:func:`~repro.runtime.shard.shard_session`, clean or under a
:func:`repro.faults.session`.  A driver resolves the IDs and builds the
kernel params, adds the fault plan's params when one is installed,
executes the kernel and finishes through :func:`_finish`.  Crash-stop
and message-drop plans replay bit-identically to the fast engine;
duplicate/delay plans are rejected up front (see
docs/fault_tolerance.md).

The accounting rule every kernel implements (mirroring the fast engine):
at round r, a terminating vertex's broadcast is routed to every neighbor
not yet *known* halted -- i.e. with final termination round 0/unset,
``== r`` (same-round, routed then dropped) or ``> r`` -- and the round's
message total is the delivered copies (``term > r``) plus one halt
notice per vertex terminating this round.

Only :data:`BULK_DRIVERS` entries run on the bulk engine; the zoo
mirrors this registry through ``AlgorithmSpec.bulk_capable`` and
``zoo.check_registry`` fails on any drift.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.core.shard import _execute_kernel, _fault_params
from repro.graphs.graph import Graph
from repro.runtime.bulk import finalize_run, id_space, resolve_ids
from repro.runtime.network import RoundLimitExceeded, RunResult
from repro.runtime.shard import CHECKPOINT_MAX_N, finalize_faulted_run


def _run(
    kernel: str,
    name: str,
    graph: Graph,
    publish: dict[str, Any],
    params: dict[str, Any],
    copy_keys: Sequence[str],
):
    """Add the installed fault plan's params (if any) and execute
    ``kernel``; returns ``(injector or None, payloads, copies)``."""
    import repro.obs as obs
    from repro.faults.plan import current

    injector = current()
    if injector is not None:
        params.update(_fault_params(injector, graph.n, name, obs.current()))
    payloads, copies = _execute_kernel(kernel, graph, publish, params, copy_keys)
    return injector, payloads, copies


def _finish(
    injector,
    params: dict[str, Any],
    payloads: list[dict[str, Any]],
    term: np.ndarray,
    outputs: dict[int, Any],
    max_rounds: int | None,
) -> RunResult:
    """The shared tail of every driver: raise the watchdog, hand the
    session rounds and crashes back to the injector, and fold the
    per-round totals through the clean or the faulted finalize."""
    crashes = [rv for p in payloads for rv in p["crashes"]]
    stuck = [p["watchdog"] for p in payloads if p["watchdog"] is not None]
    if stuck:
        if injector is not None:
            injector.absorb_rounds(
                payloads[0]["session_rounds"], [v for _r, v in crashes]
            )
        raise RoundLimitExceeded(max_rounds, [v for w in stuck for v in w], None)
    rounds = payloads[0]["rounds"]
    sent = [r[0] for r in rounds]
    msgs = [r[1] for r in rounds]
    recv = [r[2] for r in rounds]
    if injector is None:
        return finalize_run(outputs, term, sent, msgs, recv)
    crash_rounds = dict(sorted((v, r) for r, v in crashes))
    injector.absorb_rounds(payloads[0]["session_rounds"], list(crash_rounds))
    return finalize_faulted_run(
        outputs,
        term,
        crash_rounds,
        params["pre_crashed"],
        sent,
        msgs,
        recv,
        crashed_all=[v for v in injector.crashed if v < term.size],
        drops=[d for p in payloads for d in p["drops"]],
    )


def _decided(term: np.ndarray, values: list) -> dict[int, Any]:
    """``{v: values[v]}`` over the vertices that terminated."""
    if term.all():
        return dict(enumerate(values))
    return {v: values[v] for v in np.flatnonzero(term).tolist()}


# ---------------------------------------------------------------------------
# Procedure Partition (Theorem 6.3) -- the n = 10^6 workhorse
# ---------------------------------------------------------------------------


def bulk_partition(
    graph: Graph,
    a: int,
    eps: float = 1.0,
    ids: Sequence[int] | None = None,
    seed: int = 0,
    max_rounds: int | None = None,
):
    """Columnar Procedure Partition: one vectorized degree-threshold test
    per round.  ``heard[v]`` counts neighbors that joined in earlier
    rounds; v joins at the first round with ``deg(v) - heard(v) <= A``.
    """
    from repro.core.common import degree_bound, partition_length_bound
    from repro.core.partition import PartitionResult

    n = graph.n
    resolve_ids(graph, ids)  # IDs only validate; Partition is ID-oblivious
    A = degree_bound(a, eps)
    if max_rounds is None:
        max_rounds = partition_length_bound(n, eps) + 4
    params = {
        "n": n,
        "A": A,
        "max_rounds": max_rounds,
        "checkpoint": n <= CHECKPOINT_MAX_N,
    }
    injector, payloads, copies = _run(
        "partition", "partition", graph, {"term": ((n,), np.int64)}, params, ("term",)
    )
    term = copies["term"]
    h_index = _decided(term, term.tolist())
    res = _finish(injector, params, payloads, term, h_index, max_rounds)
    return PartitionResult(h_index=h_index, A=A, metrics=res.metrics)


# ---------------------------------------------------------------------------
# Luby's randomized MIS (Table 2 baseline)
# ---------------------------------------------------------------------------


def bulk_luby_mis(
    graph: Graph,
    ids: Sequence[int] | None = None,
    seed: int = 0,
    max_rounds: int | None = None,
):
    """Columnar Luby MIS in round lockstep.

    Attempt k: every alive vertex draws its priority
    ``keyed_uniform(seed, LUBY, id, k)`` (:mod:`repro.draws`; the kernel
    draws a whole shard at once with the bit-identical vector form) and
    broadcasts it at round 2k-1; round 2k the vertices beating every
    alive neighbor join the MIS and terminate; round 2k+1 their alive
    neighbors leave and terminate.
    """

    from repro.core.extension import MISResult

    n = graph.n
    ids_arr = resolve_ids(graph, ids)
    if max_rounds is None:
        max_rounds = 64 * (n.bit_length() + 4) + 64
    params = {"n": n, "seed": seed, "max_rounds": max_rounds}
    injector, payloads, copies = _run(
        "luby",
        "luby MIS",
        graph,
        {
            "term": ((n,), np.int64),
            "rand": ((n,), np.float64),
            "lastp": ((n,), np.int64),
            "ids": ids_arr,
        },
        params,
        ("term",),
    )
    term = copies["term"]
    # winners of attempt k terminate at round 2k, losers at 2k+1
    in_mis = _decided(term, (term % 2 == 0).tolist())
    res = _finish(injector, params, payloads, term, in_mis, max_rounds)
    return MISResult(
        in_mis=in_mis,
        h_index=_decided(term, (term // 2).tolist()),
        metrics=res.metrics,
    )


# ---------------------------------------------------------------------------
# Cole-Vishkin ring 3-coloring (log* exhibit)
# ---------------------------------------------------------------------------


def bulk_ring_three_coloring(
    graph: Graph,
    successor: Sequence[int],
    ids: Sequence[int] | None = None,
    seed: int = 0,
):
    """Columnar Cole-Vishkin: the halving steps, then three greedy
    recolor rounds (classes 5, 4, 3) finish the {0..5} -> {0..2}
    reduction.

    ``successor`` must already be validated (the ``run_ring_three_
    coloring`` wrapper dispatches here after its checks).
    """
    from repro.baselines.cole_vishkin import _cv_steps
    from repro.core.coloring import ColoringResult

    n = graph.n
    ids_arr = resolve_ids(graph, ids)
    params = {"n": n, "steps": _cv_steps(id_space(ids_arr))}
    injector, payloads, copies = _run(
        "cole_vishkin",
        "ring 3-coloring",
        graph,
        {
            "colors": ((2, n), np.int64),
            "bstamp": ((n,), np.int64),
            "term": ((n,), np.int64),
            "col": ((n,), np.int64),
            "succ": np.asarray(successor, dtype=np.int64),
            "ids": ids_arr,
        },
        params,
        ("term", "col"),
    )
    term = copies["term"]
    colors = _decided(term, copies["col"].tolist())
    res = _finish(injector, params, payloads, term, colors, None)
    return ColoringResult(
        colors=colors,
        h_index=dict.fromkeys(colors, 1),
        metrics=res.metrics,
        palette_bound=3,
    )


# ---------------------------------------------------------------------------
# Defective coloring (Section 7.8.1 building block)
# ---------------------------------------------------------------------------


def bulk_defective_coloring(
    graph: Graph,
    d: int,
    degree_limit: int | None = None,
    ids: Sequence[int] | None = None,
    seed: int = 0,
):
    """Columnar d-defective coloring: the self-synchronizing schedule of
    cover-free ``fam.pick`` steps, one array pass per round around the
    per-vertex picks."""
    from repro.core.defective import DefectiveColoringResult, defective_schedule

    n = graph.n
    ids_arr = resolve_ids(graph, ids)
    A = degree_limit if degree_limit is not None else graph.max_degree()
    A = max(A, 1)
    space = id_space(ids_arr)
    schedule = defective_schedule(space, A, d)
    bound = schedule[-1].ground_size if schedule else space
    max_rounds = 4 * len(schedule) + 64
    params = {"n": n, "space": space, "A": A, "d": d, "max_rounds": max_rounds}
    injector, payloads, copies = _run(
        "defective",
        "defective coloring",
        graph,
        {
            "ustep": ((2, n), np.int64),
            "ucol": ((2, n), np.int64),
            "ulast": ((n,), np.int64),
            "term": ((n,), np.int64),
            "col": ((n,), np.int64),
            "ids": ids_arr,
        },
        params,
        ("term", "col"),
    )
    term = copies["term"]
    colors = _decided(term, copies["col"].tolist())
    res = _finish(injector, params, payloads, term, colors, max_rounds)
    return DefectiveColoringResult(
        colors=colors,
        metrics=res.metrics,
        palette_bound=bound,
        defect_bound=d,
    )


#: generator driver function name -> columnar twin.  The zoo's
#: ``bulk_capable`` flags must mirror this registry exactly
#: (``zoo.check_registry`` invariant).
BULK_DRIVERS = {
    "run_partition": bulk_partition,
    "run_luby_mis": bulk_luby_mis,
    "run_ring_three_coloring": bulk_ring_three_coloring,
    "run_defective_coloring": bulk_defective_coloring,
}
