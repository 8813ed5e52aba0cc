"""Time-to-r(v): run a workload's cells through ``repro.zoo.execute``,
check every result, and reduce the timings to the benchmark's metrics.

A *pass* builds the workload's instances from the seed, executes every
cell, validates it and checks it against its references.  A run repeats
passes until its time is used up and reports, per cell, the median over
passes, so one slow pass does not move a metric.

The untraced run measures the end-to-end metrics.  The traced run
alternates untraced and traced passes; a traced pass records spans at
the boundaries of the calls the benchmark makes into each layer, turns
on the program's existing phase profiler (``profile=True``) and forces
the graph's lazy CSR and object views in spans of their own.  Spans are
written out when the run ends.  No code of the program is changed.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import resource
import statistics
import traceback
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

from repro import zoo
from repro.runtime import shard as shard_runtime

from perfbench.workloads import WORKLOADS, Cell, Workload

#: end-to-end metrics: name -> unit (untraced run)
END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "validate_s": "s",
    "vertex_rounds_per_s": "vertex-rounds/s",
    "peak_rss_mb": "MB",
}

#: specs and problem kinds the per-layer ``core.*`` / ``verify.*``
#: metrics cover: every one some workload runs
CORE_SPECS = tuple(
    dict.fromkeys(c.spec for make in WORKLOADS.values() for c in make().cells)
)
PROBLEMS = tuple(dict.fromkeys(zoo.get(s).problem for s in CORE_SPECS))


def _per_layer_units() -> dict[str, str]:
    units = {
        "graphs.generate_s": "s",
        "graphs.csr_s": "s",
        "graphs.objects_s": "s",
        "runtime.bulk.kernel_s": "s",
        "runtime.bulk.finalize_s": "s",
        "runtime.bulk.unattributed_s": "s",
        "runtime.shard.compute_s": "s",
        "runtime.shard.barrier_s": "s",
        "runtime.shard.allreduce_s": "s",
        "runtime.shard.publish_s": "s",
        "runtime.shard.unattributed_s": "s",
        "runtime.shard.worker_restarts": "count",
        "runtime.shard.barrier_timeouts": "count",
        "runtime.fast.deliver_s": "s",
        "runtime.fast.step_s": "s",
        "runtime.fast.route_s": "s",
        "runtime.fast.unattributed_s": "s",
        "runtime.async.solve_s": "s",
        "runtime.async.slowdown": "ratio",
        "faults.solve_s": "s",
        "faults.crashed": "count",
    }
    for spec in CORE_SPECS:
        units[f"core.{spec}.solve_s"] = "s"
        units[f"core.{spec}.round_sum"] = "count"
        units[f"core.{spec}.messages"] = "count"
    units["zoo.overhead_s"] = "s"
    for problem in PROBLEMS:
        units[f"verify.{problem}.validate_s"] = "s"
    units["obs.trace_overhead_pct"] = "%"
    units["obs.unattributed_pct"] = "%"
    return units


#: per-layer metrics: name -> unit (traced run)
PER_LAYER = _per_layer_units()

SHARD_PHASES = ("compute", "barrier", "allreduce", "publish")
FAST_PHASES = ("deliver", "step", "route")
#: builds of each instance per pass; the pass reports their median
SETUP_REPEATS = 3
#: validations of each result per pass: repeated while their total is
#: under VALIDATE_MIN_S seconds, at most VALIDATE_REPEATS times; the pass
#: reports their median
VALIDATE_REPEATS = 5
VALIDATE_MIN_S = 0.2
#: size of the untimed warm-up pass relative to the measured passes
WARMUP_SCALE = 0.05
#: fields that carry timing or round accounting rather than outputs
_ACCOUNTING_FIELDS = ("metrics", "output_metrics", "times")


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class Span:
    __slots__ = ("seconds",)

    def __init__(self) -> None:
        self.seconds = 0.0


class Recorder:
    """Times every region; when enabled, also keeps it as a span.

    A span is ``[name, start, end, parent index, cell id]``; spans stay
    in memory until :func:`dump_spans` writes them out.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, cell: str | None = None):
        out = Span()
        idx = None
        start = perf_counter()
        if self.enabled:
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, start, None, parent, cell])
            self._stack.append(idx)
        try:
            yield out
        finally:
            end = perf_counter()
            out.seconds = end - start
            if idx is not None:
                self.spans[idx][2] = end
                self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return dict(out)


def dump_spans(path: Path, meta: dict, recorders: list[Recorder]) -> None:
    """Write the spans of several passes to one JSON file.

    Each span gets its pass number; ``parent`` indexes the same file.
    """
    out = []
    for number, rec in enumerate(recorders):
        base = len(out)
        for name, start, end, parent, cell in rec.spans:
            out.append({
                "pass": number,
                "name": name,
                "start": start,
                "end": end,
                "parent": None if parent is None else base + parent,
                "cell": cell,
            })
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"meta": meta, "spans": out}, fh)


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def _same(a, b) -> bool:
    # Outputs may be numpy arrays or mapping views as well as plain dicts.
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if hasattr(a, "keys") and hasattr(b, "keys"):
        return dict(a) == dict(b)
    return a == b


def _fields(result) -> dict:
    if dataclasses.is_dataclass(result):
        return {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    return dict(vars(result))


def result_diff(result, reference) -> list[str]:
    """Names of the outputs (and ``rounds``) on which two results differ."""
    mine, theirs = _fields(result), _fields(reference)
    diff = [
        name
        for name in sorted(set(mine) | set(theirs))
        if name not in _ACCOUNTING_FIELDS
        and not _same(mine.get(name), theirs.get(name))
    ]
    if not np.array_equal(
        np.asarray(result.metrics.rounds), np.asarray(reference.metrics.rounds)
    ):
        diff.append("metrics.rounds")
    return diff


@dataclasses.dataclass
class RunState:
    """What the passes of one run share: references and first counts."""

    seed: int
    #: cell id -> result of the untimed sync run of an async cell
    sync_refs: dict = dataclasses.field(default_factory=dict)
    #: cell id -> (round_sum, total_messages, crashed) of the first pass
    counts: dict = dataclasses.field(default_factory=dict)
    attempted: int = 0
    failures: list = dataclasses.field(default_factory=list)


def check_cell(cell: Cell, ex, state: RunState, twins: dict) -> list[str]:
    """Every reason the cell's result is wrong (empty when it is right).

    Validation (the survivor check under a fault plan) is timed by the
    caller; this covers the comparisons against reference runs and the
    exact repetition of the counts across passes of one seed.
    """
    reasons = []
    if cell.twin is not None:
        ref = twins.get(cell.twin)
        if ref is None:
            reasons.append(f"twin {cell.twin} has no result")
        else:
            diff = result_diff(ex.result, ref)
            if diff:
                reasons.append(f"differs from twin {cell.twin} on {diff}")
    if cell.mode == "async":
        diff = result_diff(ex.result, state.sync_refs[cell.id])
        if diff:
            reasons.append(f"differs from its sync run on {diff}")
    m = ex.result.metrics
    counts = (int(m.round_sum), int(m.total_messages), len(ex.crashed))
    first = state.counts.setdefault(cell.id, counts)
    if counts != first:
        reasons.append(
            f"(round_sum, messages, crashed) = {counts} but {first} in an "
            f"earlier pass of the same seed"
        )
    return reasons


# ---------------------------------------------------------------------------
# One pass
# ---------------------------------------------------------------------------


def _execute(cell: Cell, graph, a, ids, seed: int, profile: bool):
    return zoo.execute(
        cell.spec,
        graph,
        a,
        ids,
        seed,
        engine=cell.engine,
        mode=cell.mode,
        delays=cell.delays(seed) if cell.delays else None,
        shards=cell.shards,
        faults=cell.faults(seed) if cell.faults else None,
        profile=profile,
    )


@dataclasses.dataclass
class PassResult:
    setup: dict  # instance -> seconds (graph + IDs)
    solve: dict  # cell id -> seconds
    validate: dict  # cell id -> seconds
    round_sum: dict  # cell id -> RoundSum
    layers: dict  # per-layer metric -> value (traced passes only)


def run_pass(wl: Workload, state: RunState, rec: Recorder) -> PassResult:
    """Build the instances, then execute, validate and check every cell."""
    traced = rec.enabled
    seed = state.seed
    layers: dict[str, float] = defaultdict(float)
    setup: dict[str, float] = {}
    built = {}
    gc.collect()
    with rec.span("pass"):
        for inst in wl.instances:
            builds, generates = [], []
            for _ in range(SETUP_REPEATS):
                built.pop(inst.name, None)
                g = ids = None
                with rec.span("setup", inst.name) as s:
                    with rec.span("graphs.generate", inst.name) as sg:
                        g = inst.graph(seed)
                    with rec.span("graphs.ids", inst.name):
                        ids = inst.ids(g.n, seed)
                built[inst.name] = (inst, g, ids)
                builds.append(s.seconds)
                generates.append(sg.seconds)
            setup[inst.name] = statistics.median(builds)
            layers["graphs.generate_s"] += statistics.median(generates)
        if traced:
            for inst, g, _ in built.values():
                with rec.span("graphs.csr", inst.name) as sc:
                    g.csr()
                layers["graphs.csr_s"] += sc.seconds
        solve: dict[str, float] = {}
        validate: dict[str, float] = {}
        round_sum: dict[str, int] = {}
        twins: dict = {}
        needed_twins = {c.twin for c in wl.cells if c.twin}
        objects_done: set[str] = set()
        for cell in wl.cells:
            inst, g, ids = built[cell.instance]
            state.attempted += 1
            try:
                with rec.span("cell", cell.id):
                    if cell.mode == "async" and (
                        traced or cell.id not in state.sync_refs
                    ):
                        sync_cell = dataclasses.replace(
                            cell, mode="sync", delays=None
                        )
                        with rec.span("sync_reference", cell.id) as sr:
                            ref = _execute(sync_cell, g, inst.a, ids, seed, False)
                        state.sync_refs[cell.id] = ref.result
                        layers["sync_reference_s"] += sr.seconds
                    gc.collect()
                    with rec.span("zoo.execute", cell.id) as sx:
                        ex = _execute(cell, g, inst.a, ids, seed, traced)
                        if not ex.completed:
                            raise RuntimeError(
                                f"run did not complete: {ex.watchdog or ex.error}"
                            )
                        # Reading the figures is part of solve_s: results
                        # may compute them lazily.
                        m = ex.result.metrics
                        _ = (m.vertex_averaged, m.worst_case, m.total_messages)
                        rs = int(m.round_sum)
                    # The first validation of a CSR-built graph builds its
                    # object layer; that one-time cost is timed on its own
                    # so the validation itself can be repeated.
                    objects_s = 0.0
                    if inst.name not in objects_done:
                        with rec.span("graphs.objects", inst.name) as so:
                            g.edges()
                        objects_s = so.seconds
                        objects_done.add(inst.name)
                    gc.collect()
                    validations: list[float] = []
                    while len(validations) < VALIDATE_REPEATS and (
                        sum(validations) < VALIDATE_MIN_S
                    ):
                        with rec.span("verify.validate", cell.id) as sv:
                            ex.validate(g)
                        validations.append(sv.seconds)
                    validate_s = statistics.median(validations)
                    with rec.span("bench.check", cell.id):
                        reasons = check_cell(cell, ex, state, twins)
            except Exception:  # noqa: BLE001 - a failed cell is a result
                reasons = [traceback.format_exc().strip().splitlines()[-1]]
                state.failures.append((cell.id, reasons))
                continue
            if reasons:
                state.failures.append((cell.id, reasons))
                continue
            if cell.id in needed_twins:
                twins[cell.id] = ex.result
            solve[cell.id] = sx.seconds
            round_sum[cell.id] = rs
            if traced:
                layers["graphs.objects_s"] += objects_s
                validate[cell.id] = validate_s
                _attribute(cell, ex, sx.seconds, validate_s, layers)
            else:
                # what ``repro run`` pays: the object layer is built
                # inside its one validation
                validate[cell.id] = objects_s + validate_s
    return PassResult(setup, solve, validate, round_sum, dict(layers))


def _attribute(cell: Cell, ex, exec_s: float, validate_s: float, layers) -> None:
    """Split one traced cell's time over the layers it ran through."""
    prof = ex.profiler.full_dict()
    flat = {p: d["seconds"] for p, d in prof.get("phases", {}).items()}
    per_shard = [
        {p: d["seconds"] for p, d in phases.items()}
        for phases in prof.get("shards", {}).values()
    ]
    attributed = sum(flat.values())
    if cell.mode == "async":
        layers["runtime.async.solve_s"] += exec_s
    elif cell.engine == "bulk" and cell.shards:
        for p in SHARD_PHASES:
            layers[f"runtime.shard.{p}_s"] += max(
                (s.get(p, 0.0) for s in per_shard), default=0.0
            )
        attributed += max((sum(s.values()) for s in per_shard), default=0.0)
        layers["runtime.shard.unattributed_s"] += exec_s - attributed
    elif cell.engine == "bulk":
        layers["runtime.bulk.kernel_s"] += flat.get("kernel", 0.0)
        layers["runtime.bulk.finalize_s"] += flat.get("finalize", 0.0)
        layers["runtime.bulk.unattributed_s"] += exec_s - attributed
    else:
        for p in FAST_PHASES:
            layers[f"runtime.fast.{p}_s"] += flat.get(p, 0.0)
        layers["runtime.fast.unattributed_s"] += exec_s - attributed
    if cell.faults is not None:
        layers["faults.solve_s"] += exec_s
        layers["faults.crashed"] += len(ex.crashed)
    m = ex.result.metrics
    layers[f"core.{cell.spec}.solve_s"] += exec_s
    layers[f"core.{cell.spec}.round_sum"] += int(m.round_sum)
    layers[f"core.{cell.spec}.messages"] += int(m.total_messages)
    layers["zoo.overhead_s"] += exec_s - ex.manifest.timing["wall_s"]
    layers[f"verify.{ex.spec.problem}.validate_s"] += validate_s
    layers["execute_s"] += exec_s
    layers["attributed_s"] += attributed


# ---------------------------------------------------------------------------
# A run
# ---------------------------------------------------------------------------


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _sum_of_medians(passes: list[dict]) -> float:
    keys = {k for p in passes for k in p}
    return sum(_median([p[k] for p in passes if k in p]) for k in keys)


def _run_passes(wl, state, seconds, schedule):
    """Run ``schedule`` (a tuple of traced flags) repeatedly until the
    next round would overrun ``seconds``; at least once."""
    results: list[tuple[Recorder, PassResult]] = []
    t0 = perf_counter()
    longest = 0.0
    while True:
        r0 = perf_counter()
        for traced in schedule:
            rec = Recorder(traced)
            results.append((rec, run_pass(wl, state, rec)))
        longest = max(longest, perf_counter() - r0)
        if perf_counter() - t0 + longest > seconds:
            return results


def end_to_end(passes: list[PassResult]) -> dict[str, float]:
    solve_s = _sum_of_medians([p.solve for p in passes])
    round_sum = _sum_of_medians([p.round_sum for p in passes])
    return {
        "setup_s": _sum_of_medians([p.setup for p in passes]),
        "solve_s": solve_s,
        "validate_s": _sum_of_medians([p.validate for p in passes]),
        "vertex_rounds_per_s": round_sum / solve_s if solve_s else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(untraced: list[PassResult], traced: list[PassResult]) -> dict:
    values = {}
    for name, unit in PER_LAYER.items():
        values[name] = _median([p.layers.get(name, 0) for p in traced])
        if unit == "count":
            # Counts repeat exactly across passes (check_cell enforces it).
            values[name] = int(values[name])
    plain = _median([sum(p.solve.values()) for p in untraced])
    # In a traced pass the first CSR build is forced out of execute.
    with_trace = _median(
        [p.layers.get("execute_s", 0.0) + p.layers.get("graphs.csr_s", 0.0)
         for p in traced]
    )
    values["obs.trace_overhead_pct"] = (
        100.0 * (with_trace / plain - 1.0) if plain else 0.0
    )
    executed = _median([p.layers.get("execute_s", 0.0) for p in traced])
    attributed = _median([p.layers.get("attributed_s", 0.0) for p in traced])
    values["obs.unattributed_pct"] = (
        100.0 * (1.0 - attributed / executed) if executed else 0.0
    )
    sync_s = _median([p.layers.get("sync_reference_s", 0.0) for p in traced])
    async_s = values["runtime.async.solve_s"]
    values["runtime.async.slowdown"] = async_s / sync_s if sync_s else 0.0
    return values


@dataclasses.dataclass
class Report:
    workload: str
    seed: int
    passes: int
    attempted: int
    failures: list
    metrics: dict  # name -> (value, unit)
    self_times: dict  # span name -> seconds (traced runs)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def result_line(self) -> str:
        return json.dumps(
            {
                "correct": self.failed == 0,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()
                },
            }
        )


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    spans_path: Path | None = None,
) -> Report:
    """Run one workload for about ``seconds`` and reduce it to metrics."""
    wl = WORKLOADS[workload](scale)
    # Load every module and lazy path the cells use before timing.
    warmup = WORKLOADS[workload](scale * WARMUP_SCALE)
    run_pass(warmup, RunState(seed), Recorder(False))
    state = RunState(seed)
    if not trace:
        results = _run_passes(wl, state, seconds, (False,))
        passes = [p for _, p in results]
        metrics = {
            k: (v, END_TO_END[k]) for k, v in end_to_end(passes).items()
        }
        self_times: dict = {}
    else:
        stats0 = shard_runtime.stats_snapshot()
        results = _run_passes(wl, state, seconds, (False, True))
        stats1 = shard_runtime.stats_snapshot()
        untraced = [p for rec, p in results if not rec.enabled]
        traced = [p for rec, p in results if rec.enabled]
        values = per_layer(untraced, traced)
        for name, key in (
            ("runtime.shard.worker_restarts", "worker_restart"),
            ("runtime.shard.barrier_timeouts", "barrier_timeouts"),
        ):
            values[name] = stats1.get(key, 0) - stats0.get(key, 0)
        metrics = {k: (values[k], PER_LAYER[k]) for k in PER_LAYER}
        recs = [rec for rec, _ in results if rec.enabled]
        self_times = defaultdict(float)
        for rec in recs:
            for name, secs in rec.self_times().items():
                self_times[name] += secs / len(recs)
        if spans_path is not None:
            dump_spans(spans_path, {"workload": workload, "seed": seed}, recs)
    return Report(
        workload,
        seed,
        len(results),
        state.attempted,
        state.failures,
        metrics,
        dict(self_times),
    )
