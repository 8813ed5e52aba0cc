"""Differential tests for the vectorised H-partition and MIS validators.

The validators run on the graph's CSR view with numpy.  Each one is
compared here against a plain-Python oracle that restates its definition
vertex by vertex and edge by edge: on small drawn graphs -- both
constructor-built and as their ``Graph.from_csr`` twins -- the validator
must accept exactly when the oracle does, and reject with the oracle's
message, which names the lowest offending vertex or the first offending
edge.  Drawn inputs include targeted corruptions: a missing vertex, an
H-index of 0, an extra out-of-range key, an adjacent MIS pair, an
uncovered vertex and a non-vertex MIS member.
"""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.graphs.graph import Graph
from repro.verify import (
    VerificationError,
    assert_h_partition,
    assert_maximal_independent_set,
)
from repro.zoo.checks import check_mis, check_partition


# ---------------------------------------------------------------------------
# the plain-Python oracle
# ---------------------------------------------------------------------------

def _adjacency(n, edges):
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _edge_list(adj):
    return sorted((u, v) for u in adj for v in adj[u] if u < v)


def oracle_h_partition(adj, h_index, bound, subset=None):
    n = len(adj)
    vertices = sorted(range(n) if subset is None else set(subset) & set(range(n)))
    for v in vertices:
        if v not in h_index:
            return f"vertex {v} was never assigned an H-set"
        if h_index[v] < 1:
            return f"vertex {v} has invalid H-index {h_index[v]}"
    inside = set(vertices)
    for v in vertices:
        i = h_index[v]
        later = sum(1 for u in adj[v] if u in inside and h_index[u] >= i)
        if later > bound:
            return (
                f"vertex {v} in H_{i} has {later} neighbors in "
                f"H_{i} u H_{i+1} u ... > bound {bound}"
            )
    return None


def oracle_mis(adj, mis):
    n = len(adj)
    s = set(mis)
    outside = [v for v in s if not 0 <= v < n]
    if outside:
        return f"MIS contains non-vertex {min(outside)}"
    for u, v in _edge_list(adj):
        if u in s and v in s:
            return f"MIS contains adjacent vertices {u}, {v}"
    for v in range(n):
        if v not in s and not adj[v] & s:
            return f"vertex {v} is outside the MIS but has no MIS neighbor"
    return None


def oracle_check_partition(adj, res, alive):
    for v in sorted(alive):
        if v not in res.h_index:
            return f"surviving vertex {v} terminated without an H-index"
    return oracle_h_partition(adj, res.h_index, res.A, subset=alive)


def oracle_check_mis(adj, res, alive):
    for v in sorted(alive):
        if v not in res.in_mis:
            return f"surviving vertex {v} terminated without an MIS decision"
    for u, v in _edge_list(adj):
        if u in alive and v in alive and u in res.mis and v in res.mis:
            return f"surviving MIS vertices {u} and {v} are adjacent"
    return None


def _verdict(check, *args):
    try:
        check(*args)
    except VerificationError as e:
        return str(e)
    return None


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

@st.composite
def instances(draw):
    """(adjacency, [constructor-built graph, its from_csr twin])."""
    n = draw(st.integers(min_value=0, max_value=12))
    edges = []
    if n >= 2:  # duplicates and both orientations on purpose
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges = draw(st.lists(pairs.filter(lambda e: e[0] != e[1]), max_size=3 * n))
    g = Graph(n, edges)
    dtype = draw(st.sampled_from(["int64", "int32"]))
    twin = Graph.from_csr(*g.csr(dtype=dtype))
    return _adjacency(n, edges), [g, twin]


def _subset(draw, n):
    return set(draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=n))) & set(
        range(n)
    )


@st.composite
def h_indices(draw, n):
    h = {v: draw(st.integers(1, 4)) for v in range(n)}
    corruption = draw(st.sampled_from(["none", "missing", "zero", "extra"]))
    if corruption == "missing" and n:
        del h[draw(st.integers(0, n - 1))]
    elif corruption == "zero" and n:
        h[draw(st.integers(0, n - 1))] = 0
    elif corruption == "extra":
        h[draw(st.sampled_from([n, n + 3, -1]))] = draw(st.integers(0, 4))
    return h


@st.composite
def mis_sets(draw, adj):
    n = len(adj)
    order = draw(st.permutations(range(n)))
    mis: set[int] = set()
    for v in order:  # a greedy MIS along a drawn order
        if not adj[v] & mis:
            mis.add(v)
    corruption = draw(
        st.sampled_from(["none", "adjacent", "uncovered", "non-vertex", "random"])
    )
    if corruption == "adjacent":
        pairs = [(u, v) for u in mis for v in adj[u]]
        if pairs:
            mis.add(draw(st.sampled_from(sorted(pairs)))[1])
    elif corruption == "uncovered" and mis:
        mis.discard(draw(st.sampled_from(sorted(mis))))
    elif corruption == "non-vertex":
        mis.add(draw(st.sampled_from([n, n + 5, -2])))
    elif corruption == "random":
        mis = _subset(draw, n)
    return mis


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_assert_h_partition_matches_oracle(data):
    adj, graphs = data.draw(instances())
    n = len(adj)
    h = data.draw(h_indices(n))
    bound = data.draw(st.sampled_from([0, 1, 2, 3, 1.5]))
    subset = None
    if data.draw(st.booleans()):
        # members outside the graph are ignored
        subset = _subset(data.draw, n) | data.draw(st.sampled_from([set(), {n + 1}]))
    want = oracle_h_partition(adj, h, bound, subset)
    for g in graphs:
        assert _verdict(assert_h_partition, g, h, bound, subset) == want


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_assert_maximal_independent_set_matches_oracle(data):
    adj, graphs = data.draw(instances())
    mis = data.draw(mis_sets(adj))
    want = oracle_mis(adj, mis)
    for g in graphs:
        assert _verdict(assert_maximal_independent_set, g, mis) == want
        assert _verdict(assert_maximal_independent_set, g, sorted(mis)) == want


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_check_partition_matches_oracle(data):
    adj, graphs = data.draw(instances())
    n = len(adj)
    res = SimpleNamespace(
        h_index=data.draw(h_indices(n)), A=data.draw(st.integers(0, 3))
    )
    alive = _subset(data.draw, n)
    want = oracle_check_partition(adj, res, alive)
    for g in graphs:
        assert _verdict(check_partition, g, res, alive) == want


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_check_mis_matches_oracle(data):
    adj, graphs = data.draw(instances())
    n = len(adj)
    mis = data.draw(mis_sets(adj)) & set(range(n))
    in_mis = {v: v in mis for v in range(n)}
    for v in _subset(data.draw, n):  # vertices that never decided
        del in_mis[v]
    res = SimpleNamespace(
        in_mis=in_mis, mis={v for v, flag in in_mis.items() if flag}
    )
    alive = _subset(data.draw, n)
    want = oracle_check_mis(adj, res, alive)
    for g in graphs:
        assert _verdict(check_mis, g, res, alive) == want
