"""Shard-aware telemetry: metrics registry, exporters, and run manifests.

This module is the structured side of the observability stack.  The
event layer (:mod:`repro.obs.events` / :mod:`repro.obs.sinks`) records
*what happened*; telemetry condenses it into three artifacts external
tooling can consume:

* a **metrics registry** -- typed counters / gauges / histograms with
  JSON and Prometheus text exporters.  The registry keeps whole
  distributions, not just scalars: the per-vertex termination-round
  histogram it builds from a :class:`~repro.obs.collect.MetricsCollector`
  is exactly the distribution whose mean is the paper's vertex-averaged
  complexity T-bar and whose max is the worst-case complexity T, so the
  Lemma 6.1 decay story survives export instead of collapsing to a mean;

* a **run manifest** -- one JSON record per ``zoo.execute()`` capturing
  the run's identity (spec hash, workload, n, seed, fault-plan hash,
  graph and ID fingerprints, ``a``),
  its mechanics (engine, shard count, partitioner, env/dtype info), and
  a digest of its results (timing, metrics).  The identity fields are
  folded into a stable content-address :attr:`RunManifest.key` -- the
  lookup key the sweep server (ROADMAP item 5) needs: two runs with the
  same key are the same experiment and may share a cached result;

* a **timeline renderer** -- :func:`render_timeline` turns the
  per-shard x per-phase breakdown recorded by the cross-process
  :class:`~repro.obs.profile.PhaseProfiler` into the table
  ``repro inspect --timeline`` prints.

Manifests are written as JSON *lines* appended to
``<trace>.manifest.jsonl`` next to the event trace, and the reader
(:func:`read_manifests`) mirrors :func:`repro.obs.report.load_records`'s
crash tolerance: a torn final line (the writer died mid-record) is
discarded and flagged, while corruption earlier in the file is a hard
error.
"""

from __future__ import annotations

import hashlib
import json
import platform
import re
import sys
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

#: version of the manifest record and of its key.  Schema 2 added the
#: graph and ID fingerprints and ``a`` to the key; it also marks the
#: switch of every seeded stream (fault plans, link delays, Luby
#: priorities) to the keyed draws of :mod:`repro.draws`, so a schema-1
#: key never names a schema-2 result.
MANIFEST_SCHEMA = 2

#: manifest files sit next to the trace: ``<trace>.manifest.jsonl``
MANIFEST_SUFFIX = ".manifest.jsonl"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _canonical(obj: Any) -> str:
    """Canonical JSON: sorted keys, no whitespace, repr for strays."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)


def _digest(obj: Any) -> str:
    return hashlib.sha256(_canonical(obj).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
class Metric:
    """Base for the three typed metrics.  Names follow the Prometheus
    grammar (``[a-zA-Z_:][a-zA-Z0-9_:]*``) so the text exporter never
    produces an unparseable exposition."""

    kind = "untyped"

    def __init__(
        self, name: str, help: str = "", labels: Mapping[str, str] | None = None
    ) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        self.name = name
        self.help = help
        self.labels: dict[str, str] = dict(labels or {})

    def _label_str(self) -> str:
        if not self.labels:
            return ""
        inner = ",".join(
            f'{k}="{_escape_label(v)}"' for k, v in sorted(self.labels.items())
        )
        return "{" + inner + "}"

    def as_dict(self) -> dict:  # pragma: no cover - overridden
        raise NotImplementedError

    def prometheus_lines(self) -> list[str]:  # pragma: no cover - overridden
        raise NotImplementedError


def _escape_label(value: str) -> str:
    return str(value).replace("\\", r"\\").replace('"', r"\"").replace(
        "\n", r"\n"
    )


class Counter(Metric):
    """Monotonically increasing total (messages sent, faults injected)."""

    kind = "counter"

    def __init__(self, name, help="", labels=None) -> None:
        super().__init__(name, help, labels)
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount

    def as_dict(self) -> dict:
        return {"kind": self.kind, "labels": self.labels, "value": self.value}

    def prometheus_lines(self) -> list[str]:
        return [f"{self.name}{self._label_str()} {_fmt(self.value)}"]


class Gauge(Metric):
    """A point-in-time value that may move either way (rounds, T-bar)."""

    kind = "gauge"

    def __init__(self, name, help="", labels=None) -> None:
        super().__init__(name, help, labels)
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def as_dict(self) -> dict:
        return {"kind": self.kind, "labels": self.labels, "value": self.value}

    def prometheus_lines(self) -> list[str]:
        return [f"{self.name}{self._label_str()} {_fmt(self.value)}"]


class Histogram(Metric):
    """Exact-value histogram: observation -> count.

    The round domain is tiny (termination rounds are small integers), so
    the histogram stores exact observed values instead of fixed bucket
    edges -- no precision is lost, and the Prometheus exporter derives
    cumulative ``_bucket{le=...}`` samples from the sorted value set.
    """

    kind = "histogram"

    def __init__(self, name, help="", labels=None) -> None:
        super().__init__(name, help, labels)
        self.buckets: dict[float, int] = {}
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``count`` observations of ``value`` (bulk-friendly)."""
        if count < 0:
            raise ValueError("observation count must be >= 0")
        if count == 0:
            return
        key = float(value)
        self.buckets[key] = self.buckets.get(key, 0) + count
        self.sum += value * count
        self.count += count

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Exact quantile over the observed values (q in [0, 1])."""
        if not self.count:
            return 0.0
        target = q * self.count
        seen = 0
        for value in sorted(self.buckets):
            seen += self.buckets[value]
            if seen >= target:
                return value
        return max(self.buckets)

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "labels": self.labels,
            "buckets": {
                _fmt(v): c for v, c in sorted(self.buckets.items())
            },
            "sum": self.sum,
            "count": self.count,
        }

    def prometheus_lines(self) -> list[str]:
        lines = []
        cumulative = 0
        base = dict(self.labels)
        for value in sorted(self.buckets):
            cumulative += self.buckets[value]
            labels = {**base, "le": _fmt(value)}
            inner = ",".join(
                f'{k}="{_escape_label(v)}"' for k, v in sorted(labels.items())
            )
            lines.append(f"{self.name}_bucket{{{inner}}} {cumulative}")
        inf_labels = {**base, "le": "+Inf"}
        inner = ",".join(
            f'{k}="{_escape_label(v)}"' for k, v in sorted(inf_labels.items())
        )
        lines.append(f"{self.name}_bucket{{{inner}}} {self.count}")
        suffix = self._label_str()
        lines.append(f"{self.name}_sum{suffix} {_fmt(self.sum)}")
        lines.append(f"{self.name}_count{suffix} {self.count}")
        return lines


def _fmt(value: float) -> str:
    """Render numbers without a trailing ``.0`` for integral values."""
    if isinstance(value, bool):  # bools are ints; be explicit
        return str(int(value))
    f = float(value)
    return str(int(f)) if f.is_integer() else repr(f)


_METRIC_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Get-or-create store of typed metrics with two exporters.

    Metrics are keyed by ``(name, sorted label items)``; asking for an
    existing key with a different kind is a :class:`TypeError` -- the
    exposition format forbids one name carrying two types.
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple, Metric] = {}

    def _get_or_create(self, cls, name, help, labels) -> Metric:
        key = (name, tuple(sorted((labels or {}).items())))
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {cls.kind}"
                )
            return existing
        metric = cls(name, help, labels)
        self._metrics[key] = metric
        return metric

    def counter(self, name, help="", labels=None) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name, help="", labels=None) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(self, name, help="", labels=None) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels)

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    # ------------------------------------------------------------------
    # exporters
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """``{name: [sample, ...]}`` -- one entry per label set."""
        out: dict[str, list] = {}
        for metric in self:
            out.setdefault(metric.name, []).append(metric.as_dict())
        return out

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=indent)

    def to_prometheus(self) -> str:
        """Prometheus text exposition (``# HELP`` / ``# TYPE`` + samples)."""
        by_name: dict[str, list[Metric]] = {}
        for metric in self:
            by_name.setdefault(metric.name, []).append(metric)
        lines: list[str] = []
        for name in sorted(by_name):
            group = by_name[name]
            help_text = next((m.help for m in group if m.help), "")
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {group[0].kind}")
            for metric in group:
                lines.extend(metric.prometheus_lines())
        return "\n".join(lines) + "\n"


def registry_from_collector(
    col,
    registry: MetricsRegistry | None = None,
    labels: Mapping[str, str] | None = None,
) -> MetricsRegistry:
    """Bridge a :class:`~repro.obs.collect.MetricsCollector` into metrics.

    Besides the scalar aggregates, this exports the full per-vertex
    termination-round distribution as ``repro_termination_round`` -- its
    ``_sum / _count`` is the vertex-averaged complexity T-bar and its
    top bucket edge the worst case T, so downstream dashboards can plot
    Lemma 6.1's distribution rather than a single mean.
    """
    reg = registry if registry is not None else MetricsRegistry()
    reg.counter(
        "repro_messages_sent_total",
        "messages routed by programs (send + broadcast)",
        labels,
    ).inc(col.total_sent())
    reg.counter(
        "repro_messages_delivered_total",
        "engine traffic incl. halt notices, net of same-round drops",
        labels,
    ).inc(col.total_delivered())
    reg.counter(
        "repro_messages_dropped_total",
        "messages dropped because the receiver terminated same round",
        labels,
    ).inc(col.total_dropped())
    reg.gauge("repro_vertices", "vertices observed terminating", labels).set(
        col.n
    )
    reg.gauge("repro_rounds", "rounds the execution ran", labels).set(
        col.rounds
    )
    reg.gauge(
        "repro_vertex_averaged_rounds",
        "T-bar: mean termination round (Barenboim-Tzur vertex-averaged)",
        labels,
    ).set(col.vertex_averaged())
    reg.gauge(
        "repro_worst_case_rounds", "T: max termination round", labels
    ).set(col.worst_case())
    hist = reg.histogram(
        "repro_termination_round",
        "per-vertex termination round r(v); mean = T-bar, max = T",
        labels,
    )
    for rnd, count in sorted(col.round_histogram().items()):
        hist.observe(rnd, count)
    if col.faulted:
        reg.counter(
            "repro_fault_crashes_total", "adversary-crashed vertices", labels
        ).inc(col.total_crashed())
        reg.counter(
            "repro_fault_msg_drops_total", "adversary-dropped messages", labels
        ).inc(sum(col.fault_drops))
        reg.counter(
            "repro_fault_msg_dups_total",
            "adversary-duplicated messages",
            labels,
        ).inc(sum(col.fault_dups))
        reg.counter(
            "repro_fault_msg_delays_total",
            "adversary-delayed messages",
            labels,
        ).inc(sum(col.fault_delays))
    return reg


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
def spec_fingerprint(spec, baseline: bool = False) -> str:
    """Stable hash of an :class:`~repro.zoo.spec.AlgorithmSpec`'s identity.

    Covers what the algorithm *is* (name, problem, the driver function
    actually run -- the averaged one or, with ``baseline=True``, the
    worst-case baseline -- and its bound params, randomization), not
    presentation fields like the paper citation: a doc edit must not
    invalidate cached results.
    """
    driver = spec.baseline if baseline else spec.driver
    return _digest(
        {
            "name": spec.name,
            "problem": spec.problem,
            "baseline": baseline,
            "driver": driver.func,
            "params": list(driver.params),
            "passes_a": driver.passes_a,
            "passes_seed": driver.passes_seed,
            "randomized": spec.randomized,
        }
    )


def plan_fingerprint(plan) -> str:
    """Stable hash of a :class:`~repro.faults.plan.FaultPlan` (via its
    canonical ``to_dict``); empty string for no/empty plan."""
    if plan is None or plan.empty:
        return ""
    return _digest(plan.to_dict())


def ids_fingerprint(ids, n: int) -> str:
    """sha256 of an ID assignment as little-endian int64 (JSON for IDs
    beyond int64); ``ids=None`` is the identity assignment the engines
    default to, so it hashes like ``range(n)``."""
    import numpy as np

    if ids is None:
        ids = np.arange(n)
    try:
        arr = np.ascontiguousarray(ids, dtype="<i8")
    except OverflowError:
        return _digest([int(v) for v in ids])
    return hashlib.sha256(arr).hexdigest()


def runtime_env(graph=None) -> dict:
    """Interpreter / platform / dtype info for the manifest ``env`` block."""
    env: dict[str, Any] = {
        "python": platform.python_version(),
        "platform": sys.platform,
        "machine": platform.machine(),
    }
    try:
        import numpy

        env["numpy"] = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is baked in
        pass
    if graph is not None:
        # report which CSR index dtypes the run materialised without
        # forcing a build: peek at the graph's cache
        cached = getattr(graph, "_csr", None)
        if cached:
            env["csr_dtypes"] = sorted(cached)
    return env


# ----------------------------------------------------------------------
# run manifests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunManifest:
    """One run's identity, mechanics, and result digest.

    The **identity** fields (spec_hash, workload, n, seed,
    fault_plan_hash, graph_hash, ids_hash, a, and the schema) are folded
    into :attr:`key` -- the content address: stable across repeat runs
    of the same experiment, different whenever any identity field
    differs.  The spec's bound parameters (``eps``, schedule flags) are
    part of ``spec_hash``.  Mechanics (engine, shards, env) and
    results (timing, metrics, status) are recorded but deliberately kept
    *out* of the key: all engines are pinned bit-identical, so the same
    experiment on a different engine or shard count is the same result.

    The execution *mode* straddles the line: outputs and round counts
    are mode-invariant (the async executor is an alpha-synchronizer),
    but an async run additionally measures virtual time under a specific
    link-delay model, so ``mode`` and ``delays`` join the identity
    **only when the mode is not "sync"** -- every key minted before the
    mode existed, and every future sync key, is byte-for-byte stable.
    """

    algo: str
    spec_hash: str
    workload: str
    n: int
    seed: int
    fault_plan_hash: str = ""
    graph_hash: str = ""
    ids_hash: str = ""
    a: int | None = None
    engine: str = "fast"
    mode: str = "sync"
    delays: dict = field(default_factory=dict)
    shards: int = 0
    partitioner: str = ""
    baseline: bool = False
    env: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    status: str = "ok"
    schema: int = MANIFEST_SCHEMA

    @property
    def key(self) -> str:
        """sha256 content address over the identity fields only."""
        ident = {
            "schema": self.schema,
            "spec": self.spec_hash,
            "workload": self.workload,
            "n": self.n,
            "seed": self.seed,
            "faults": self.fault_plan_hash,
            "graph": self.graph_hash,
            "ids": self.ids_hash,
            "a": self.a,
        }
        if self.mode != "sync":
            ident["mode"] = self.mode
            ident["delays"] = self.delays
        return _digest(ident)

    def to_record(self) -> dict:
        return {
            "ev": "manifest",
            "schema": self.schema,
            "key": self.key,
            "algo": self.algo,
            "spec_hash": self.spec_hash,
            "workload": self.workload,
            "n": self.n,
            "seed": self.seed,
            "fault_plan_hash": self.fault_plan_hash,
            "graph_hash": self.graph_hash,
            "ids_hash": self.ids_hash,
            "a": self.a,
            "engine": self.engine,
            "mode": self.mode,
            "delays": self.delays,
            "shards": self.shards,
            "partitioner": self.partitioner,
            "baseline": self.baseline,
            "env": self.env,
            "timing": self.timing,
            "metrics": self.metrics,
            "status": self.status,
        }

    @classmethod
    def from_record(cls, rec: Mapping) -> "RunManifest":
        return cls(
            algo=rec["algo"],
            spec_hash=rec["spec_hash"],
            workload=rec["workload"],
            n=rec["n"],
            seed=rec["seed"],
            fault_plan_hash=rec.get("fault_plan_hash", ""),
            graph_hash=rec.get("graph_hash", ""),
            ids_hash=rec.get("ids_hash", ""),
            a=rec.get("a"),
            engine=rec.get("engine", "fast"),
            mode=rec.get("mode", "sync"),
            delays=dict(rec.get("delays", {})),
            shards=rec.get("shards", 0),
            partitioner=rec.get("partitioner", ""),
            baseline=rec.get("baseline", False),
            env=dict(rec.get("env", {})),
            timing=dict(rec.get("timing", {})),
            metrics=dict(rec.get("metrics", {})),
            status=rec.get("status", "ok"),
            schema=rec.get("schema", 1),
        )


def build_manifest(
    spec,
    *,
    n: int,
    seed: int,
    workload: str = "",
    engine: str = "fast",
    mode: str = "sync",
    delays=None,
    shards: int = 0,
    partitioner: str = "",
    baseline: bool = False,
    plan=None,
    graph=None,
    a: int | None = None,
    ids=None,
    timing: Mapping | None = None,
    metrics: Mapping | None = None,
    status: str = "ok",
) -> RunManifest:
    """Assemble a :class:`RunManifest` from ``zoo.execute()``'s inputs.

    ``delays`` accepts the :class:`~repro.runtime.async_sched.DelaySpec`
    object itself (canonicalized via its ``to_dict``) or an
    already-serialized mapping.  With a ``graph``, the graph's cached
    fingerprint and the fingerprint of ``ids`` join the identity.
    """
    if delays is None:
        delays_dict: dict = {}
    elif isinstance(delays, Mapping):
        delays_dict = dict(delays)
    else:
        delays_dict = delays.to_dict()
    return RunManifest(
        algo=spec.name + (":baseline" if baseline else ""),
        spec_hash=spec_fingerprint(spec, baseline=baseline),
        workload=workload or "",
        n=n,
        seed=seed,
        fault_plan_hash=plan_fingerprint(plan),
        graph_hash=graph.fingerprint() if graph is not None else "",
        ids_hash=ids_fingerprint(ids, n) if graph is not None else "",
        a=a,
        engine=engine,
        mode=mode,
        delays=delays_dict,
        shards=shards,
        partitioner=partitioner,
        baseline=baseline,
        env=runtime_env(graph),
        timing=dict(timing or {}),
        metrics=dict(metrics or {}),
        status=status,
    )


def manifest_path(trace_path: str) -> str:
    """Where the manifest for a trace lives: ``<trace>.manifest.jsonl``."""
    return f"{trace_path}{MANIFEST_SUFFIX}"


def write_manifest(manifest: RunManifest, path: str) -> str:
    """Append one compact JSON line to ``path`` (flushed immediately).

    Appending (not truncating) makes re-runs against the same trace path
    accumulate a history; :func:`read_manifests` returns them in order.
    """
    line = json.dumps(
        manifest.to_record(), sort_keys=True, separators=(",", ":")
    )
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
        fh.flush()
    return path


def read_manifests(path: str) -> tuple[list[dict], bool]:
    """Read manifest records; tolerate a torn final line.

    Returns ``(records, truncated)``.  Mirroring
    :func:`repro.obs.report.load_records`: a final line that does not
    parse is taken as a write interrupted by a crash and discarded
    (``truncated`` = True); an unparseable line *before* the end means
    real corruption and raises :class:`ValueError`.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    records: list[dict] = []
    truncated = False
    for i, line in enumerate(lines):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                truncated = True
                break
            raise ValueError(
                f"{path}: corrupt manifest record on line {i + 1}"
            ) from None
        if isinstance(rec, dict):
            records.append(rec)
    return records, truncated


def latest_manifest(path: str) -> dict | None:
    """The most recent manifest record in ``path`` (None if empty)."""
    records, _ = read_manifests(path)
    return records[-1] if records else None


# ----------------------------------------------------------------------
# timeline renderer
# ----------------------------------------------------------------------
def render_timeline(timing: Mapping) -> str:
    """Render a manifest's ``timing`` block as the ``--timeline`` table.

    ``timing`` is the shape :meth:`PhaseProfiler.full_dict` produces
    (after a JSON round-trip): flat engine phases under ``"phases"``,
    per-shard slots under ``"shards"``, wall-clock under ``"wall_s"``.
    """
    lines: list[str] = []
    wall = timing.get("wall_s")
    if wall is not None:
        lines.append(f"wall      {float(wall):>10.4f} s")
    phases = timing.get("phases") or {}
    if phases:
        total = sum(p.get("seconds", 0.0) for p in phases.values())
        lines.append(
            f"{'phase':<10} {'seconds':>10} {'count':>8} {'share':>7}"
        )
        for name, p in sorted(
            phases.items(), key=lambda kv: -kv[1].get("seconds", 0.0)
        ):
            secs = p.get("seconds", 0.0)
            share = (secs / total * 100.0) if total else 0.0
            lines.append(
                f"{name:<10} {secs:>10.4f} {p.get('count', 0):>8} "
                f"{share:>6.1f}%"
            )
    shards = timing.get("shards") or {}
    if shards:
        from repro.obs.profile import PhaseProfiler

        prof = PhaseProfiler()
        for idx, per_shard in shards.items():
            for phase, slot in per_shard.items():
                prof.record_shard(
                    int(idx),
                    phase,
                    float(slot.get("seconds", 0.0)),
                    int(slot.get("count", 0)) or 1,
                )
        if lines:
            lines.append("")
        lines.append(prof.shard_report())
    if not lines:
        return "no timing recorded (run with --profile)"
    return "\n".join(lines)
