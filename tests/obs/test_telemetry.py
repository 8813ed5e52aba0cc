"""The telemetry layer: metrics registry + exporters, run manifests,
and the timeline renderer.

Three contracts are pinned here:

* the registry's exposition invariants -- kind safety, Prometheus text
  grammar, cumulative histogram buckets whose ``_sum/_count`` recover
  the vertex-averaged complexity T-bar;
* the manifest content address -- stable across repeat runs of the same
  experiment, different the moment any identity field (spec, workload,
  n, seed, fault plan, graph, IDs, ``a``) changes, and *insensitive* to
  mechanics like the engine (all engines are pinned bit-identical);
* the manifest file format -- JSONL appended next to the trace, with
  the same torn-final-line crash tolerance as the event-trace reader.
"""

import json

import pytest

import repro
from repro import obs, zoo
from repro.graphs import generators as gen
from repro.obs.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RunManifest,
    build_manifest,
    latest_manifest,
    manifest_path,
    plan_fingerprint,
    read_manifests,
    registry_from_collector,
    render_timeline,
    spec_fingerprint,
    write_manifest,
)


# ---------------------------------------------------------------------------
# typed metrics
# ---------------------------------------------------------------------------


def test_counter_only_goes_up():
    c = Counter("repro_test_total")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError, match="only go up"):
        c.inc(-1)


def test_gauge_moves_both_ways():
    g = Gauge("repro_rounds")
    g.set(7)
    g.inc(2)
    g.dec(4)
    assert g.value == 5


def test_histogram_mean_quantile_and_bulk_observe():
    h = Histogram("repro_termination_round")
    h.observe(1, count=3)
    h.observe(2, count=1)
    h.observe(2)  # singleton observe merges into the same bucket
    assert h.count == 5
    assert h.sum == 7
    assert h.mean() == 1.4
    assert h.quantile(0.5) == 1
    assert h.quantile(1.0) == 2
    h.observe(9, count=0)  # a zero-count observation is a no-op
    assert 9.0 not in h.buckets


def test_metric_names_follow_prometheus_grammar():
    with pytest.raises(ValueError, match="invalid metric name"):
        Counter("bad-name")
    with pytest.raises(ValueError, match="invalid metric name"):
        Gauge("0starts_with_digit")


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------


def test_registry_get_or_create_is_keyed_by_name_and_labels():
    reg = MetricsRegistry()
    a = reg.counter("repro_msgs_total", labels={"engine": "fast"})
    b = reg.counter("repro_msgs_total", labels={"engine": "fast"})
    c = reg.counter("repro_msgs_total", labels={"engine": "bulk"})
    assert a is b
    assert a is not c
    assert len(reg) == 2


def test_registry_rejects_kind_conflicts():
    reg = MetricsRegistry()
    reg.counter("repro_x")
    with pytest.raises(TypeError, match="already registered as counter"):
        reg.gauge("repro_x")


def test_json_export_round_trips():
    reg = MetricsRegistry()
    reg.counter("repro_msgs_total", labels={"engine": "fast"}).inc(10)
    reg.histogram("repro_rounds_hist").observe(2, count=4)
    data = json.loads(reg.to_json())
    assert data["repro_msgs_total"][0]["value"] == 10
    assert data["repro_rounds_hist"][0]["buckets"] == {"2": 4}
    assert data["repro_rounds_hist"][0]["count"] == 4


def test_prometheus_exposition_format():
    reg = MetricsRegistry()
    reg.counter("repro_msgs_total", "messages", {"engine": "fast"}).inc(3)
    h = reg.histogram("repro_round", "termination rounds")
    h.observe(1, count=2)
    h.observe(3, count=1)
    text = reg.to_prometheus()
    lines = text.splitlines()
    assert "# HELP repro_msgs_total messages" in lines
    assert "# TYPE repro_msgs_total counter" in lines
    assert 'repro_msgs_total{engine="fast"} 3' in lines
    assert "# TYPE repro_round histogram" in lines
    # cumulative buckets over the exact observed values, then +Inf
    assert 'repro_round_bucket{le="1"} 2' in lines
    assert 'repro_round_bucket{le="3"} 3' in lines
    assert 'repro_round_bucket{le="+Inf"} 3' in lines
    assert "repro_round_sum 5" in lines
    assert "repro_round_count 3" in lines
    assert text.endswith("\n")


def test_registry_from_collector_carries_the_tbar_distribution():
    """The exported termination-round histogram *is* Lemma 6.1's
    distribution: count n, sum RoundSum, mean T-bar, max bucket T."""
    g = gen.union_of_forests(200, 3, seed=1)
    with obs.collecting() as col:
        res = repro.run_partition(g, a=3)
    m = res.metrics
    reg = registry_from_collector(col, labels={"algo": "partition"})
    hist = reg.histogram("repro_termination_round", labels={"algo": "partition"})
    assert hist.count == g.n
    assert hist.sum == m.round_sum
    assert hist.mean() == m.vertex_averaged
    assert max(hist.buckets) == m.worst_case
    assert (
        reg.counter(
            "repro_messages_sent_total", labels={"algo": "partition"}
        ).value
        == col.total_sent()
    )
    text = reg.to_prometheus()
    assert 'repro_termination_round_bucket{algo="partition",le=' in text


# ---------------------------------------------------------------------------
# fingerprints and the manifest content address
# ---------------------------------------------------------------------------


def test_spec_fingerprint_distinguishes_baseline_from_averaged():
    spec = zoo.get("partition")
    assert spec_fingerprint(spec) == spec_fingerprint(spec)
    assert spec_fingerprint(spec) != spec_fingerprint(spec, baseline=True)
    assert spec_fingerprint(spec) != spec_fingerprint(zoo.get("mis"))


def test_plan_fingerprint_empty_and_stable():
    from repro.faults import CrashSpec, FaultPlan

    assert plan_fingerprint(None) == ""
    assert plan_fingerprint(FaultPlan(seed=1)) == ""  # empty plan
    plan = FaultPlan(seed=1, crashes=CrashSpec(at={3: 1}))
    assert plan_fingerprint(plan) == plan_fingerprint(plan)
    other = FaultPlan(seed=2, crashes=CrashSpec(at={3: 1}))
    assert plan_fingerprint(plan) != plan_fingerprint(other)


def _execute(seed=0, engine="fast", **kw):
    g = gen.union_of_forests(80, 3, seed=5)
    return zoo.execute("partition", g, 3, None, seed, engine=engine, **kw)


def test_manifest_key_stable_across_repeat_runs():
    assert _execute().manifest.key == _execute().manifest.key


def test_manifest_key_sensitive_to_identity_insensitive_to_engine():
    base = _execute().manifest
    assert _execute(seed=9).manifest.key != base.key
    # engines are bit-identical: same experiment, same content address
    bulk = _execute(engine="bulk").manifest
    assert bulk.key == base.key
    assert bulk.engine == "bulk" and base.engine == "fast"


def test_manifest_key_separates_graphs_of_equal_size():
    """path(64) and star(64) share n, seed and spec but not the result:
    the graph fingerprint keeps their keys apart."""
    path = zoo.execute("partition", gen.path(64), 3).manifest
    star = zoo.execute("partition", gen.star(64), 3).manifest
    assert path.metrics["vertex_averaged"] != star.metrics["vertex_averaged"]
    assert path.n == star.n and path.graph_hash != star.graph_hash
    assert path.key != star.key


def test_manifest_key_separates_a_and_ids():
    g = gen.path(64)
    base = zoo.execute("partition", g, 1).manifest
    assert zoo.execute("partition", g, 3).manifest.key != base.key
    shuffled = zoo.execute("partition", g, 1, gen.random_ids(64, seed=1)).manifest
    assert shuffled.ids_hash != base.ids_hash
    assert shuffled.key != base.key
    # no IDs means the identity assignment the engines default to
    explicit = zoo.execute("partition", g, 1, list(range(64))).manifest
    assert explicit.key == base.key


def test_graph_fingerprint_names_the_topology_not_its_encoding():
    import numpy as np

    g = gen.union_of_forests(50, 2, seed=1)
    offsets, indices = g.csr()
    narrow = repro.Graph.from_csr(offsets.astype(np.int32), indices.astype(np.int32))
    assert narrow.fingerprint() == g.fingerprint()
    assert gen.path(50).fingerprint() != g.fingerprint()


def test_manifest_schema_folds_into_key():
    import dataclasses

    man = _execute().manifest
    assert man.schema == 2
    assert dataclasses.replace(man, schema=1).key != man.key


def test_manifest_mode_folds_into_key_only_when_async():
    from repro.runtime import DelaySpec

    base = _execute().manifest
    assert base.mode == "sync" and base.delays == {}
    # sync keys must not mention the mode: every pre-existing sync
    # content address stays byte-stable across this feature
    assert "mode" not in json.dumps(base.to_record()["key"])
    d = DelaySpec(dist="uniform", scale=2.0, seed=3)
    async_ = _execute(mode="async", delays=d).manifest
    assert async_.mode == "async" and async_.delays == d.to_dict()
    assert async_.key != base.key
    # the delay model is identity for async runs: a different seed is a
    # different experiment
    other = _execute(mode="async", delays=DelaySpec(dist="uniform",
                                                    scale=2.0, seed=4))
    assert other.manifest.key != async_.key
    # round-trip keeps the mode block
    back = RunManifest.from_record(
        json.loads(json.dumps(async_.to_record()))
    )
    assert back == async_


def test_manifest_records_timing_and_metrics_digest():
    ex = _execute(profile=True)
    man = ex.manifest
    assert man.status == "ok"
    assert man.timing["wall_s"] > 0
    assert "phases" in man.timing  # the profiler's flat phase store
    assert man.metrics["vertex_averaged"] == ex.result.metrics.vertex_averaged
    assert man.metrics["total_messages"] == ex.result.metrics.total_messages
    assert man.env["python"]  # runtime env block is populated


def test_manifest_record_round_trip():
    man = _execute().manifest
    rec = man.to_record()
    assert rec["ev"] == "manifest"
    back = RunManifest.from_record(json.loads(json.dumps(rec)))
    assert back == man
    assert back.key == man.key == rec["key"]


# ---------------------------------------------------------------------------
# the manifest file next to the trace
# ---------------------------------------------------------------------------


def test_execute_writes_manifest_next_to_trace(tmp_path):
    trace = str(tmp_path / "run.jsonl")
    ex = _execute(trace=trace)
    mpath = manifest_path(trace)
    assert mpath == trace + ".manifest.jsonl"
    rec = latest_manifest(mpath)
    assert rec is not None
    assert rec["key"] == ex.manifest.key
    assert RunManifest.from_record(rec) == ex.manifest


def test_manifest_file_accumulates_history(tmp_path):
    trace = str(tmp_path / "run.jsonl")
    _execute(trace=trace)
    _execute(seed=9, trace=trace)
    records, truncated = read_manifests(manifest_path(trace))
    assert len(records) == 2 and not truncated
    assert records[0]["key"] != records[1]["key"]
    assert latest_manifest(manifest_path(trace)) == records[1]


def test_read_manifests_tolerates_torn_final_line(tmp_path):
    path = str(tmp_path / "m.jsonl")
    spec = zoo.get("partition")
    write_manifest(build_manifest(spec, n=10, seed=0), path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"ev": "manifest", "torn')  # writer died mid-record
    records, truncated = read_manifests(path)
    assert len(records) == 1 and truncated


def test_read_manifests_rejects_mid_file_corruption(tmp_path):
    path = str(tmp_path / "m.jsonl")
    spec = zoo.get("partition")
    write_manifest(build_manifest(spec, n=10, seed=0), path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("garbage\n")
    write_manifest(build_manifest(spec, n=10, seed=1), path)
    with pytest.raises(ValueError, match="corrupt manifest record on line 2"):
        read_manifests(path)


# ---------------------------------------------------------------------------
# timeline rendering
# ---------------------------------------------------------------------------


def test_render_timeline_with_shard_breakdown():
    timing = {
        "wall_s": 1.25,
        "phases": {"finalize": {"seconds": 0.2, "count": 1}},
        "shards": {
            "0": {
                "compute": {"seconds": 0.5, "count": 1},
                "barrier": {"seconds": 0.1, "count": 8},
            },
            "1": {
                "compute": {"seconds": 0.4, "count": 1},
                "barrier": {"seconds": 0.2, "count": 8},
            },
        },
    }
    text = render_timeline(timing)
    assert "wall" in text and "1.2500" in text
    assert "finalize" in text
    assert "shard" in text and "compute" in text and "barrier" in text
    lines = text.splitlines()
    assert any(line.lstrip().startswith("0 ") for line in lines)
    assert any(line.lstrip().startswith("1 ") for line in lines)
    assert any(line.lstrip().startswith("sum") for line in lines)


def test_render_timeline_empty_points_at_profile_flag():
    assert "--profile" in render_timeline({})
    assert "--profile" in render_timeline({"phases": {}, "shards": {}})
