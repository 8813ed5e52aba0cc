"""The sharded executor's bit-identity pin.

The sharded bulk executor (:mod:`repro.runtime.shard` +
:mod:`repro.core.shard`) re-runs the columnar drivers across worker
processes over shared-memory CSR; these tests pin the contract that
sharding is *invisible* in every observable:

* the equivalence matrix: each bulk-capable algorithm, over shard counts
  {1, 2, 4, 7} and multiple seeds, produces outputs and the full metrics
  surface bit-identical to the unsharded bulk engine;
* the aggregate event trace is identical too;
* crash-stop / message-drop fault plans on sharded Partition reproduce
  the **fast engine's** faulted run exactly (the fault layer's
  counter-based draws make the injected stream shard-count-invariant),
  including session state (crashed set, session round counter) across
  consecutive runs;
* uneven partitions -- n not divisible by the shard count, shards with
  only isolated vertices, more shards than vertices -- change nothing.
"""

import numpy as np
import pytest

from repro.bench.workloads import WORKLOADS
from repro.graphs import generators as gen
from repro.runtime import (
    ShardError,
    engine_session,
    shard_session,
)
from repro.runtime.shard import resolve_bounds

SHARD_COUNTS = (1, 2, 4, 7)
SEEDS = (0, 1)
N = 120


def _metrics_surface(m):
    return (
        m.rounds,
        m.active_trace,
        m.messages_per_round,
        m.vertex_averaged,
        m.worst_case,
        m.round_sum,
        m.total_messages,
    )


def _instance(family, seed, n=N):
    g, a = WORKLOADS[family](n, seed=seed)
    ids = gen.random_ids(g.n, seed=1000 + seed)
    return g, a, ids


def _bulk(run):
    with engine_session("bulk"):
        return run()


def _sharded(run, shards, partitioner="range"):
    with engine_session("bulk"), shard_session(shards, partitioner):
        return run()


def _assert_identical(got, ref, payload):
    assert payload(got) == payload(ref)
    assert _metrics_surface(got.metrics) == _metrics_surface(ref.metrics)


# ---------------------------------------------------------------------------
# The equivalence matrix: sharded == unsharded bulk, all four algorithms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_matrix_partition(shards, seed):
    import repro

    g, a, ids = _instance("forest_union_a3", seed)
    run = lambda: repro.run_partition(g, a=a, ids=ids)  # noqa: E731
    _assert_identical(_sharded(run, shards), _bulk(run), lambda r: r.h_index)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_matrix_luby_mis(shards, seed):
    import repro

    g, _a, ids = _instance("gnp_sparse", seed)
    run = lambda: repro.run_luby_mis(g, ids=ids, seed=seed)  # noqa: E731
    _assert_identical(
        _sharded(run, shards), _bulk(run), lambda r: (r.in_mis, r.h_index)
    )


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_matrix_cole_vishkin(shards, seed):
    import repro

    g = gen.ring(97)
    ids = gen.random_ids(97, seed=1000 + seed)
    run = lambda: repro.run_ring_three_coloring(g, ids=ids)  # noqa: E731
    _assert_identical(_sharded(run, shards), _bulk(run), lambda r: r.colors)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_matrix_defective_coloring(shards, seed):
    import repro

    g, _a, ids = _instance("star_forest", seed)
    run = lambda: repro.run_defective_coloring(g, d=2, ids=ids)  # noqa: E731
    _assert_identical(
        _sharded(run, shards),
        _bulk(run),
        lambda r: (r.colors, r.palette_bound, r.defect_bound),
    )


def test_edge_partitioner_matches_range():
    """Both partitioners must give identical results -- the seam only
    moves the cut points, never the semantics."""
    import repro

    g, a, ids = _instance("forest_union_a3", 0)
    ref = _bulk(lambda: repro.run_partition(g, a=a, ids=ids))
    for part in ("range", "edge"):
        got = _sharded(lambda: repro.run_partition(g, a=a, ids=ids), 3, part)
        _assert_identical(got, ref, lambda r: r.h_index)


def test_trace_events_identical():
    """The aggregate obs event stream matches the unsharded bulk one."""
    import repro
    import repro.obs as obs
    from repro.obs.sinks import MemorySink

    g, a, ids = _instance("forest_union_a3", 0)

    def trace(shards):
        sink = MemorySink()
        with obs.session(sink):
            if shards is None:
                _bulk(lambda: repro.run_partition(g, a=a, ids=ids))
            else:
                _sharded(lambda: repro.run_partition(g, a=a, ids=ids), shards)
        return sink.events

    ref = trace(None)
    assert ref  # the bulk engine does emit aggregate round events
    for shards in (1, 3):
        assert trace(shards) == ref


# ---------------------------------------------------------------------------
# Uneven partitions and degenerate shapes
# ---------------------------------------------------------------------------


def test_uneven_partition_n_not_divisible():
    """n = 13 across 7 shards: ragged ranges, some of size 1."""
    import repro

    g, a, ids = _instance("forest_union_a3", 3, n=13)
    ref = _bulk(lambda: repro.run_partition(g, a=a, ids=ids))
    got = _sharded(lambda: repro.run_partition(g, a=a, ids=ids), 7)
    _assert_identical(got, ref, lambda r: r.h_index)


def test_shard_of_isolated_vertices():
    """A shard whose entire range is isolated vertices (degree 0)."""
    import repro
    from repro.graphs.graph import Graph

    # vertices 0..9 form a path, 10..19 are isolated: with 2 range shards
    # the second shard is all-isolated
    edges = [(v, v + 1) for v in range(9)]
    g = Graph(20, edges)
    ref = _bulk(lambda: repro.run_partition(g, a=1))
    got = _sharded(lambda: repro.run_partition(g, a=1), 2)
    _assert_identical(got, ref, lambda r: r.h_index)
    mis_ref = _bulk(lambda: repro.run_luby_mis(g, seed=0))
    mis_got = _sharded(lambda: repro.run_luby_mis(g, seed=0), 2)
    _assert_identical(mis_got, mis_ref, lambda r: (r.in_mis, r.h_index))


def test_more_shards_than_vertices():
    """Empty shards (lo == hi) must participate in the barrier protocol
    without perturbing anything."""
    import repro

    g, a, ids = _instance("forest_union_a3", 0, n=5)
    ref = _bulk(lambda: repro.run_partition(g, a=a, ids=ids))
    got = _sharded(lambda: repro.run_partition(g, a=a, ids=ids), 7)
    _assert_identical(got, ref, lambda r: r.h_index)


def test_partitioner_bounds_shapes():
    g, _a, _ids = _instance("forest_union_a3", 0, n=13)
    from repro.runtime.shard import ShardSession

    for part in ("range", "edge"):
        bounds = resolve_bounds(g, ShardSession(7, part))
        assert len(bounds) == 8
        assert bounds[0] == 0 and bounds[-1] == g.n
        assert all(b1 <= b2 for b1, b2 in zip(bounds, bounds[1:]))


# ---------------------------------------------------------------------------
# Fault plans: shard-count-invariant, identical to the fast engine
# ---------------------------------------------------------------------------


def _fault_plan():
    from repro.faults import CrashSpec, FaultPlan, MessageFaults

    return FaultPlan(
        seed=11,
        crashes=CrashSpec(at={3: 1, 17: 2}, hazard=0.02),
        messages=MessageFaults(drop=0.08),
    )


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_faulted_partition_matches_fast_engine(shards):
    """Crash-stop + drop plan: the sharded run reproduces the fast
    engine's faulted execution exactly -- outputs, per-vertex rounds,
    active trace, message totals, and the crashed set."""
    import repro
    from repro import faults as flt

    g, a, ids = _instance("forest_union_a3", 2)
    plan = _fault_plan()

    with flt.session(plan) as inj:
        ref = repro.run_partition(g, a=a, ids=ids)
    ref_crashed = sorted(inj.crashed)
    assert ref_crashed  # the plan actually strikes on this instance

    with engine_session("bulk"), shard_session(shards), flt.session(plan) as inj2:
        got = repro.run_partition(g, a=a, ids=ids)
    assert got.h_index == ref.h_index
    assert _metrics_surface(got.metrics) == _metrics_surface(ref.metrics)
    assert sorted(inj2.crashed) == ref_crashed


def test_faulted_session_state_persists_across_runs():
    """Two runs in one fault session: the second must see the first's
    crashed set and session round counter, exactly like the fast engine."""
    import repro
    from repro import faults as flt
    from repro.faults import CrashSpec, FaultPlan

    g, a, ids = _instance("forest_union_a3", 0)
    plan = FaultPlan(seed=5, crashes=CrashSpec(hazard=0.03))

    def two_runs(shards):
        with flt.session(plan) as inj:
            if shards is None:
                r1 = repro.run_partition(g, a=a, ids=ids)
                r2 = repro.run_partition(g, a=a - 1, ids=ids)
            else:
                with engine_session("bulk"), shard_session(shards):
                    r1 = repro.run_partition(g, a=a, ids=ids)
                    r2 = repro.run_partition(g, a=a - 1, ids=ids)
            return (
                r1.h_index,
                r2.h_index,
                _metrics_surface(r2.metrics),
                sorted(inj.crashed),
                inj._round,
            )

    ref = two_runs(None)
    assert ref[3]  # some vertex crashed across the two runs
    for shards in (1, 3):
        assert two_runs(shards) == ref


def test_faulted_trace_is_shard_count_invariant():
    import repro
    import repro.obs as obs
    from repro import faults as flt
    from repro.obs.sinks import MemorySink

    g, a, ids = _instance("forest_union_a3", 1)
    plan = _fault_plan()

    def trace(shards):
        sink = MemorySink()
        with obs.session(sink), engine_session("bulk"), shard_session(shards):
            with flt.session(plan):
                repro.run_partition(g, a=a, ids=ids)
        return sink.events

    ref = trace(1)
    assert any(e.kind == "fault_crash" for e in ref)
    for shards in (2, 5):
        assert trace(shards) == ref


def test_sharded_rejects_unsupported_fault_plans():
    """Duplicate/delay plans have no sharded seam anywhere in the bulk
    zoo -- crash-stop and drop plans do (see test_fault_matrix.py)."""
    import repro
    from repro import faults as flt
    from repro.faults import FaultPlan, MessageFaults
    from repro.runtime import BulkUnsupported

    g, a, ids = _instance("forest_union_a3", 0, n=40)
    dup = FaultPlan(seed=1, messages=MessageFaults(duplicate=0.1))
    with engine_session("bulk"), shard_session(2), flt.session(dup):
        with pytest.raises(BulkUnsupported, match="duplicate/delay"):
            repro.run_partition(g, a=a, ids=ids)
        with pytest.raises(BulkUnsupported, match="duplicate/delay"):
            repro.run_luby_mis(g, ids=ids, seed=0)
    delay = FaultPlan(seed=1, messages=MessageFaults(delay=0.1, max_delay=2))
    with engine_session("bulk"), shard_session(2), flt.session(delay):
        with pytest.raises(BulkUnsupported, match="duplicate/delay"):
            repro.run_luby_mis(g, ids=ids, seed=0)


# ---------------------------------------------------------------------------
# Cross-process phase profiling
# ---------------------------------------------------------------------------


def test_sharded_run_fills_per_shard_profiler_slots():
    """With a profiler on the bus, every worker reports its (compute,
    barrier, allreduce, publish) seconds through the shared-memory timing
    block and the parent merges them into per-shard slots."""
    import repro
    import repro.obs as obs
    from repro.obs import PhaseProfiler
    from repro.runtime.shard import SHARD_PHASES

    g, a, ids = _instance("forest_union_a3", 0)
    prof = PhaseProfiler()
    with obs.session(profiler=prof):
        _sharded(lambda: repro.run_partition(g, a=a, ids=ids), 2)

    assert sorted(prof.shard_seconds) == [0, 1]
    for idx in (0, 1):
        assert set(prof.shard_seconds[idx]) == set(SHARD_PHASES)
        # every worker synchronises and reduces at least once per round
        assert prof.shard_counts[idx]["barrier"] > 0
        assert prof.shard_counts[idx]["allreduce"] > 0
        assert all(v >= 0.0 for v in prof.shard_seconds[idx].values())
    # the parent-side publish section lands in the flat store
    assert "publish" in prof.seconds
    report = prof.shard_report()
    assert "shard" in report and "barrier" in report and "sum" in report


def test_profiled_sharded_run_stays_bit_identical():
    """Profiling is observation only: the profiled sharded run's outputs
    and metrics match the unprofiled, unsharded bulk reference."""
    import repro
    import repro.obs as obs
    from repro.obs import PhaseProfiler

    g, a, ids = _instance("forest_union_a3", 1)
    ref = _bulk(lambda: repro.run_partition(g, a=a, ids=ids))
    with obs.session(profiler=PhaseProfiler()):
        got = _sharded(lambda: repro.run_partition(g, a=a, ids=ids), 3)
    _assert_identical(got, ref, lambda r: r.h_index)


# ---------------------------------------------------------------------------
# The execute() seam and error paths
# ---------------------------------------------------------------------------


def test_execute_shards_kwarg():
    from repro import zoo

    g, a, ids = _instance("forest_union_a3", 0)
    ref = zoo.execute("partition", g, a, ids, 0, engine="bulk")
    ex = zoo.execute("partition", g, a, ids, 0, engine="bulk", shards=3)
    assert ex.completed
    assert ex.result.h_index == ref.result.h_index
    assert _metrics_surface(ex.result.metrics) == _metrics_surface(
        ref.result.metrics
    )
    assert "OK" in ex.validate(g) or "partition" in ex.validate(g).lower()


def test_execute_shards_requires_bulk_engine():
    from repro import zoo

    g, a, ids = _instance("forest_union_a3", 0, n=20)
    with pytest.raises(ValueError, match="requires engine='bulk'"):
        zoo.execute("partition", g, a, ids, 0, engine="fast", shards=2)


def test_execute_sharded_fault_plan_passes_through():
    """execute() lets a plan through to the bulk/sharded drivers (which
    own the support matrix) -- sharded or not, the fault-aware kernel
    replays the same adversary the fast engine draws."""
    from repro import zoo
    from repro.faults import CrashSpec, FaultPlan

    g, a, ids = _instance("forest_union_a3", 2)
    plan = FaultPlan(seed=11, crashes=CrashSpec(at={3: 1}))
    ref = zoo.execute("partition", g, a, ids, 0, faults=plan)
    ex = zoo.execute("partition", g, a, ids, 0, engine="bulk", shards=2, faults=plan)
    assert ex.completed
    assert ex.crashed == ref.crashed
    assert ex.result.h_index == ref.result.h_index
    # unsharded bulk delegates to the in-process fault kernel and agrees
    unsharded = zoo.execute("partition", g, a, ids, 0, engine="bulk", faults=plan)
    assert unsharded.completed
    assert unsharded.crashed == ref.crashed
    assert unsharded.result.h_index == ref.result.h_index


def test_shard_session_validates_arguments():
    with pytest.raises(ValueError, match="shard count"):
        with shard_session(0):
            pass
    with pytest.raises(ValueError, match="partitioner"):
        with shard_session(2, "nope"):
            pass


def test_worker_exception_propagates_as_shard_error():
    """A worker crash must surface as ShardError with the traceback, not
    a hang."""
    from repro.runtime.shard import SharedArrays, run_sharded

    shared = SharedArrays()
    try:
        with pytest.raises(ShardError, match="no-such-kernel"):
            run_sharded("no-such-kernel", [0, 1, 2], shared, {})
    finally:
        shared.cleanup()


def test_watchdog_fires_identically():
    """RoundLimitExceeded carries the same budget and active set."""
    from repro.core.bulk import bulk_partition
    from repro.runtime import RoundLimitExceeded

    # K_9 with a=1 gives A=3 < deg=8: nobody ever joins, watchdog fires
    g = gen.complete(9)
    with engine_session("bulk"):
        with pytest.raises(RoundLimitExceeded) as bulk_err:
            bulk_partition(g, a=1, max_rounds=3)
    with engine_session("bulk"), shard_session(3):
        with pytest.raises(RoundLimitExceeded) as shard_err:
            bulk_partition(g, a=1, max_rounds=3)
    assert shard_err.value.limit == bulk_err.value.limit
    assert sorted(shard_err.value.active) == sorted(bulk_err.value.active)


def test_large_int32_csr_run_matches():
    """A graph big enough to exercise the int32 CSR view end-to-end."""
    import repro

    g = gen.forest_union_csr(3000, 3, seed=0)
    offsets, indices = g.csr(dtype="auto")
    assert indices.dtype == np.int32
    ref = _bulk(lambda: repro.run_partition(g, a=3))
    got = _sharded(lambda: repro.run_partition(g, a=3), 4)
    _assert_identical(got, ref, lambda r: r.h_index)
