"""The benchmark's workloads: instances to build and cells to run on them.

A workload is pure data.  Every instance is built from the run's seed
alone, and every cell names a registry spec plus the ``repro.zoo.execute``
arguments it runs with, so the program only ever sees generated graphs,
IDs and the seed.

``scale`` shrinks every instance for the benchmark's self-tests; the
command line always runs ``scale=1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.faults import CrashSpec, FaultPlan, MessageFaults
from repro.graphs import generators as gen
from repro.runtime import DelaySpec


@dataclass(frozen=True)
class Instance:
    """A graph plus its ID assignment, both derived from the seed."""

    name: str
    graph: Callable[[int], Any]  # seed -> Graph
    ids: Callable[[int, int], Any]  # (n, seed) -> IDs
    a: int  # arboricity bound handed to the drivers


@dataclass(frozen=True)
class Cell:
    """One ``zoo.execute`` call of a workload."""

    id: str
    spec: str
    instance: str
    engine: str = "fast"
    shards: int | None = None
    mode: str = "sync"
    #: seed -> DelaySpec, for async cells
    delays: Callable[[int], Any] | None = None
    #: seed -> FaultPlan, for cells under a live fault plan
    faults: Callable[[int], Any] | None = None
    #: id of an earlier cell whose outputs and rounds this one must equal
    twin: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    instances: tuple[Instance, ...]
    cells: tuple[Cell, ...]


def _size(n: int, scale: float, floor: int) -> int:
    return max(floor, int(n * scale))


def _csr_forest(n: int) -> Instance:
    return Instance(
        f"forest_union_csr_{n}",
        lambda seed: gen.forest_union_csr(n, 3, seed=seed),
        lambda size, seed: gen.permutation_ids(size, seed=seed + 1),
        3,
    )


def _object_forest(n: int) -> Instance:
    return Instance(
        f"forest_union_a3_{n}",
        lambda seed: gen.union_of_forests(n, 3, seed=seed),
        lambda size, seed: gen.random_ids(size, seed=seed + 1),
        3,
    )


def _ring(n: int) -> Instance:
    return Instance(
        f"ring_{n}",
        lambda seed: gen.ring(n),
        lambda size, seed: gen.random_ids(size, seed=seed + 1),
        2,
    )


def _exp_delays(seed: int):
    return DelaySpec(dist="exp", seed=seed)


def _crashes(seed: int):
    return FaultPlan(seed=seed, crashes=CrashSpec(hazard=0.01))


def _drops(seed: int):
    return FaultPlan(seed=seed, messages=MessageFaults(drop=0.01))


def columnar(scale: float = 1.0) -> Workload:
    big = _csr_forest(_size(100_000, scale, 2_000))
    small = _csr_forest(_size(10_000, scale, 1_000))
    return Workload(
        "columnar",
        "the scale path: CSR-direct graphs on the bulk and 2-shard engines, "
        "where the generator engine does no work",
        (big, small),
        (
            Cell("partition/bulk", "partition", big.name, engine="bulk"),
            Cell(
                "partition/shards2", "partition", big.name, engine="bulk",
                shards=2, twin="partition/bulk",
            ),
            Cell("luby-mis/bulk", "luby-mis", small.name, engine="bulk"),
            Cell(
                "luby-mis/shards2", "luby-mis", small.name, engine="bulk",
                shards=2, twin="luby-mis/bulk",
            ),
        ),
    )


#: the Table 1/2 specs the generator workload runs on the fast engine
GENERATOR_SPECS = (
    "partition",
    "a2logn",
    "ka2",
    "one-plus-eta",
    "mis",
    "edge-coloring",
    "rand-delta-plus-one",
    "luby-mis",
)


def generator(scale: float = 1.0) -> Workload:
    forest = _object_forest(_size(5_000, scale, 200))
    return Workload(
        "generator",
        "the coroutine-engine path: eight Table 1/2 algorithms on the fast "
        "engine in sync mode, where bulk, shard and the CSR generator do no "
        "work",
        (forest,),
        tuple(Cell(f"{s}/fast", s, forest.name) for s in GENERATOR_SPECS),
    )


def adversarial(scale: float = 1.0) -> Workload:
    forest = _object_forest(_size(5_000, scale, 200))
    ring = _ring(_size(128, scale, 16))
    csr = _csr_forest(_size(15_000, scale, 1_000))
    async_cells = tuple(
        Cell(f"{s}/async", s, inst.name, mode="async", delays=_exp_delays)
        for s, inst in (
            ("partition", forest),
            ("luby-mis", forest),
            ("a2logn", forest),
            ("leader-election", ring),
        )
    )
    fault_cells = (
        Cell("partition/crash", "partition", csr.name, engine="bulk",
             faults=_crashes),
        Cell("partition/drop", "partition", csr.name, engine="bulk",
             faults=_drops),
        Cell("luby-mis/crash", "luby-mis", csr.name, engine="bulk",
             faults=_crashes),
    )
    return Workload(
        "adversarial",
        "the same layers used differently: async runs under exponential "
        "link delays and bulk runs under live crash and drop plans",
        (forest, ring, csr),
        async_cells + fault_cells,
    )


WORKLOADS: dict[str, Callable[[float], Workload]] = {
    "columnar": columnar,
    "generator": generator,
    "adversarial": adversarial,
}
