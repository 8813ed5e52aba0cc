"""Fast and columnar traces agree round by round under live drop plans.

A trace's per-round ``sent`` is what the senders broadcast -- the fast
engine narrates each broadcast's intent before the adversary decides
any copy's fate -- while ``RoundMetrics`` counts the copies actually
routed.  The columnar kernels must report the same intent, so
``repro inspect --diff`` of a fast and a bulk trace under a drop plan
reads *identical*, not off by the dropped copies.
"""

import pytest

from repro import zoo
from repro.faults import CrashSpec, FaultPlan, MessageFaults
from repro.graphs import generators as gen
from repro.obs import report
from repro.obs.report import RunReport

DROP = FaultPlan(seed=7, messages=MessageFaults(drop=0.05))
DROP_AND_CRASH = FaultPlan(
    seed=7, crashes=CrashSpec(hazard=0.01), messages=MessageFaults(drop=0.05)
)


def _trace(tmp_path, algo, g, plan, name, **kw):
    path = str(tmp_path / f"{name}.jsonl")
    ex = zoo.execute(algo, g, 3, None, 1, faults=plan, trace=path, **kw)
    return ex, RunReport.from_path(path).main


@pytest.mark.parametrize("plan", [DROP, DROP_AND_CRASH], ids=["drop", "drop+crash"])
@pytest.mark.parametrize("algo", ["partition", "luby-mis"])
def test_fast_and_bulk_traces_identical_under_drop_plans(tmp_path, algo, plan):
    g = gen.forest_union_csr(3000, 3, seed=1)
    fast, col_fast = _trace(tmp_path, algo, g, plan, "fast")
    runs = {
        "bulk": _trace(tmp_path, algo, g, plan, "bulk", engine="bulk"),
        "shard2": _trace(tmp_path, algo, g, plan, "shard2", engine="bulk", shards=2),
    }
    assert sum(col_fast.fault_drops) > 0  # the adversary did drop copies
    for label, (ex, col) in runs.items():
        if fast.watchdog is not None:
            # a crashed Luby neighbor can block its survivors forever;
            # then both engines must report the same non-termination
            assert ex.watchdog is not None, label
            continue
        assert ex.result.metrics == fast.result.metrics, label
        identical, text = report.diff(col_fast, col, "fast", label)
        assert identical, text
        assert col.sent == col_fast.sent
