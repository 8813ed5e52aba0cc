"""Self-tests of the time-to-r(v) benchmark, on reduced-size workloads.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SCALE = 0.02


def _run(workload, trace, tmp_path=None, seed=3):
    spans = tmp_path / "spans.json" if tmp_path is not None else None
    return harness.run(workload, seed, 0, trace, scale=SCALE, spans_path=spans)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(workload):
    report = _run(workload, trace=False)
    assert report.failures == []
    assert report.attempted == len(WORKLOADS[workload](SCALE).cells)
    assert {k: u for k, (_, u) in report.metrics.items()} == harness.END_TO_END
    assert all(v > 0 for v, _ in report.metrics.values())
    line = json.loads(report.result_line())
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == set(harness.END_TO_END)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric_and_spans(workload, tmp_path):
    report = _run(workload, trace=True, tmp_path=tmp_path)
    assert report.failures == []
    assert {k: u for k, (_, u) in report.metrics.items()} == harness.PER_LAYER
    assert report.metrics["graphs.generate_s"][0] > 0
    assert report.metrics["zoo.overhead_s"][0] > 0
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    names = {s["name"] for s in spans}
    expected = {"pass", "setup", "graphs.generate", "zoo.execute", "verify.validate"}
    assert expected <= names
    for s in spans:
        assert s["end"] >= s["start"]
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]


def test_counts_repeat_exactly_across_runs_of_one_seed():
    counted = [
        k for k, u in harness.PER_LAYER.items()
        if u == "count" and not k.startswith("runtime.shard.")
    ]
    first = _run("adversarial", trace=True).metrics
    second = _run("adversarial", trace=True).metrics
    assert first["faults.crashed"][0] > 0
    assert {k: first[k] for k in counted} == {k: second[k] for k in counted}


def _flip_one_output(cell_matches):
    """A ``zoo.execute`` that flips vertex 0's MIS membership in the
    results of the calls ``cell_matches`` selects."""
    real = harness.zoo.execute

    def execute(spec, *args, **kwargs):
        ex = real(spec, *args, **kwargs)
        if cell_matches(spec, kwargs):
            ex.result.in_mis[0] = not ex.result.in_mis[0]
        return ex

    return execute


@pytest.mark.parametrize(
    "workload, cell, matches",
    [
        (
            "columnar",
            "luby-mis/shards2",
            lambda spec, kw: spec == "luby-mis" and kw["shards"] == 2,
        ),
        (
            "adversarial",
            "luby-mis/async",
            lambda spec, kw: spec == "luby-mis" and kw["mode"] == "async",
        ),
    ],
)
def test_a_corrupted_result_is_reported_as_a_failure(
    workload, cell, matches, monkeypatch
):
    monkeypatch.setattr(harness.zoo, "execute", _flip_one_output(matches))
    report = _run(workload, trace=False)
    assert [c for c, _ in report.failures] == [cell]
    assert json.loads(report.result_line())["correct"] is False


def test_benchmark_json_names_exactly_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]]().why


def test_command_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "generator",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def _session_members(sid):
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # fields after the parenthesised command: state ppid pgrp session
        if int(stat.rsplit(")", 1)[1].split()[3]) == sid:
            members.append(int(entry.name))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_command_leaves_no_process_running():
    # columnar's shards=2 cells fork workers and use shared memory, whose
    # tracker process would otherwise outlive the run
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "columnar",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        start_new_session=True,
    )
    out, _ = proc.communicate(timeout=170)
    assert proc.returncode == 0
    assert json.loads(out.strip().splitlines()[-1])["correct"] is True
    assert _session_members(proc.pid) == []
