"""Differential test: the columnar bulk engine against the fast engine on
arbitrary small graphs.

Every bulk-capable algorithm has one columnar kernel
(``repro.core.shard.SHARD_KERNELS``).  Hypothesis draws graphs with
n = 0..12 -- G(n, p), forests, disconnected unions, isolated vertices --
under adversarial ID assignments, and each run must agree with the fast
generator engine on its outputs and on the complete round accounting:
per-vertex ``rounds``, ``active_trace`` and ``messages_per_round``.
A round-limit watchdog must fire identically too.  Cole-Vishkin runs on
rings of random size; a few examples of every algorithm also run under
``shard_session(2)``.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.runtime import RoundLimitExceeded, engine_session, shard_session

MAX_N = 12


@st.composite
def graphs(draw):
    """G(n, p), a forest, a disconnected union of two G(n, p) pieces, or
    a graph whose upper half is isolated vertices."""
    kind = draw(st.sampled_from(["gnp", "forest", "disconnected", "isolated"]))
    n = draw(st.integers(min_value=0, max_value=MAX_N))
    p = draw(st.floats(min_value=0.0, max_value=1.0))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    if kind == "forest":
        parents = draw(
            st.lists(st.integers(min_value=-1, max_value=MAX_N), min_size=n, max_size=n)
        )
        edges = [(v, q % v) for v, q in enumerate(parents) if v and q >= 0]
        return Graph(n, edges)
    if kind == "disconnected":
        k = n // 2
        left, right = gen.gnp(k, p, seed=seed), gen.gnp(n - k, p, seed=seed + 1)
        edges = list(left.edges()) + [(u + k, v + k) for u, v in right.edges()]
        return Graph(n, edges)
    if kind == "isolated":
        return Graph(n, list(gen.gnp(n // 2, p, seed=seed).edges()))
    return gen.gnp(n, p, seed=seed)


@st.composite
def id_assignments(draw, n):
    """Identity, reversed, a random permutation, or sparse IDs from a
    space much larger than n (``None`` means identity)."""
    kind = draw(st.sampled_from(["identity", "reversed", "permutation", "sparse"]))
    if kind == "identity":
        return None
    if kind == "reversed":
        return list(range(n - 1, -1, -1))
    if kind == "permutation":
        return draw(st.permutations(range(n)))
    return draw(
        st.lists(
            st.integers(min_value=0, max_value=2**20), min_size=n, max_size=n, unique=True
        )
    )


def _outcome(run, fields):
    """Outputs plus round accounting, or the watchdog's budget and the
    vertices it found still active."""
    try:
        res = run()
    except RoundLimitExceeded as err:
        return ("watchdog", err.limit, sorted(err.active))
    m = res.metrics
    return (
        tuple(getattr(res, f) for f in fields),
        m.rounds,
        m.active_trace,
        m.messages_per_round,
    )


def _case(alg, g, ids, a, seed):
    """(driver call, compared result fields) for one drawn instance."""
    if alg == "partition":
        return lambda: repro.run_partition(g, a=a, ids=ids), ("h_index",)
    if alg == "luby-mis":
        return (
            lambda: repro.run_luby_mis(g, ids=ids, seed=seed),
            ("in_mis", "h_index"),
        )
    if alg == "defective":
        return lambda: repro.run_defective_coloring(g, a, ids=ids), ("colors",)
    return lambda: repro.run_ring_three_coloring(g, ids=ids), ("colors", "h_index")


def _assert_bulk_matches_fast(alg, g, ids, a, seed, shards=None):
    run, fields = _case(alg, g, ids, a, seed)
    with engine_session("fast"):
        want = _outcome(run, fields)
    with engine_session("bulk"):
        if shards is None:
            got = _outcome(run, fields)
        else:
            with shard_session(shards):
                got = _outcome(run, fields)
    assert got == want


instances = graphs().flatmap(
    lambda g: st.tuples(st.just(g), id_assignments(g.n))
)
rings = st.integers(min_value=3, max_value=40).map(gen.ring).flatmap(
    lambda g: st.tuples(st.just(g), id_assignments(g.n))
)
small_a = st.integers(min_value=1, max_value=3)


@settings(max_examples=80, deadline=None)
@given(inst=instances, a=small_a)
def test_partition_bulk_matches_fast(inst, a):
    g, ids = inst
    _assert_bulk_matches_fast("partition", g, ids, a, 0)


@settings(max_examples=60, deadline=None)
@given(inst=instances, seed=st.integers(min_value=0, max_value=1000))
def test_luby_bulk_matches_fast(inst, seed):
    g, ids = inst
    _assert_bulk_matches_fast("luby-mis", g, ids, 1, seed)


@settings(max_examples=40, deadline=None)
@given(inst=instances, d=st.integers(min_value=0, max_value=3))
def test_defective_bulk_matches_fast(inst, d):
    g, ids = inst
    _assert_bulk_matches_fast("defective", g, ids, d, 0)


@settings(max_examples=40, deadline=None)
@given(inst=rings)
def test_cole_vishkin_bulk_matches_fast(inst):
    g, ids = inst
    _assert_bulk_matches_fast("cole-vishkin", g, ids, 1, 0)


@pytest.mark.parametrize("alg", ["partition", "luby-mis", "defective"])
@settings(max_examples=2, deadline=None)
@given(inst=instances, seed=st.integers(min_value=0, max_value=1000))
def test_sharded_matches_fast(alg, inst, seed):
    g, ids = inst
    _assert_bulk_matches_fast(alg, g, ids, 2, seed, shards=2)


@settings(max_examples=2, deadline=None)
@given(inst=rings)
def test_sharded_cole_vishkin_matches_fast(inst):
    g, ids = inst
    _assert_bulk_matches_fast("cole-vishkin", g, ids, 1, 0, shards=2)
