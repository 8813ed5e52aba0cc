"""Unit tests for the static graph substrate."""

import pytest

from repro.graphs.graph import Graph, canonical_edge


class TestConstruction:
    def test_empty_graph(self):
        g = Graph(0)
        assert g.n == 0 and g.m == 0
        assert g.max_degree() == 0
        assert list(g.vertices()) == []

    def test_vertices_without_edges(self):
        g = Graph(5)
        assert g.n == 5 and g.m == 0
        assert all(g.degree(v) == 0 for v in g.vertices())

    def test_basic_edges(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.m == 3
        assert g.neighbors(1) == (0, 2)
        assert g.degree(1) == 2 and g.degree(0) == 1

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1
        assert g.degree(0) == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(1, 1)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, [(0, 3)])

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            Graph(-1)

    def test_canonical_edge(self):
        assert canonical_edge(3, 1) == (1, 3)
        assert canonical_edge(1, 3) == (1, 3)

    def test_edges_sorted_canonical(self):
        g = Graph(4, [(3, 2), (1, 0)])
        assert g.edges() == ((0, 1), (2, 3))


class TestAccessors:
    def test_has_edge(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)

    def test_neighbor_set(self):
        g = Graph(4, [(0, 1), (0, 2)])
        assert g.neighbor_set(0) == frozenset({1, 2})

    def test_max_degree(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.max_degree() == 3

    def test_degree_sequence(self):
        g = Graph(3, [(0, 1)])
        assert g.degree_sequence() == [1, 1, 0]

    def test_equality_and_hash(self):
        g1 = Graph(3, [(0, 1)])
        g2 = Graph(3, [(1, 0)])
        g3 = Graph(3, [(0, 2)])
        assert g1 == g2 and hash(g1) == hash(g2)
        assert g1 != g3
        assert g1 != "not a graph"

    def test_repr(self):
        assert repr(Graph(3, [(0, 1)])) == "Graph(n=3, m=1)"


class TestDerived:
    def test_subgraph_reindexes(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        sub, index = g.subgraph([1, 2, 4])
        assert sub.n == 3
        assert index == {1: 0, 2: 1, 4: 2}
        assert sub.edges() == ((0, 1),)  # only (1,2) survives

    def test_subgraph_empty_selection(self):
        g = Graph(3, [(0, 1)])
        sub, index = g.subgraph([])
        assert sub.n == 0 and index == {}

    def test_edge_subgraph_degrees(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        degs = g.edge_subgraph_degrees([0, 1, 2])
        assert degs == {0: 1, 1: 2, 2: 1}

    def test_line_graph_neighbors(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert set(g.line_graph_neighbors((1, 2))) == {(0, 1), (2, 3)}

    def test_connected_components(self):
        g = Graph(5, [(0, 1), (2, 3)])
        comps = g.connected_components()
        assert comps == [[0, 1], [2, 3], [4]]

    def test_is_forest_true(self):
        assert Graph(4, [(0, 1), (1, 2), (1, 3)]).is_forest()
        assert Graph(3).is_forest()

    def test_is_forest_false(self):
        assert not Graph(3, [(0, 1), (1, 2), (0, 2)]).is_forest()


class TestInterop:
    def test_networkx_roundtrip(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert Graph.from_networkx(g.to_networkx()) == g

    def test_from_networkx_relabels(self):
        import networkx as nx

        nxg = nx.Graph()
        nxg.add_edge("b", "a")
        g = Graph.from_networkx(nxg)
        assert g.n == 2 and g.m == 1

    def test_from_adjacency_mapping(self):
        g = Graph.from_adjacency({0: [1], 1: [0, 2], 2: [1]})
        assert g.n == 3 and g.m == 2

    def test_from_adjacency_list(self):
        g = Graph.from_adjacency([[1], [0]])
        assert g.n == 2 and g.m == 1


class TestCSR:
    def test_csr_matches_neighbors(self):
        from repro.graphs import generators as gen

        g = gen.gnp(60, 0.1, seed=2)
        offsets, indices = g.csr()
        assert offsets.shape == (g.n + 1,)
        assert indices.shape == (2 * g.m,)
        assert int(offsets[0]) == 0 and int(offsets[-1]) == 2 * g.m
        for v in range(g.n):
            row = indices[int(offsets[v]) : int(offsets[v + 1])]
            assert tuple(int(u) for u in row) == g.neighbors(v)

    def test_csr_rows_match_and_are_cached(self):
        g = Graph(5, [(0, 1), (0, 2), (3, 4)])
        rows = g.csr_rows()
        assert rows == [list(g.neighbors(v)) for v in range(5)]
        # cached: same objects on repeated access (the engine relies on
        # sharing these rows copy-on-write)
        assert g.csr_rows() is rows
        assert g.csr() is g.csr()

    def test_csr_empty_and_isolated(self):
        empty = Graph(0)
        offsets, indices = empty.csr()
        assert offsets.shape == (1,) and indices.shape == (0,)
        assert empty.csr_rows() == []

        iso = Graph(3, [(0, 1)])
        assert iso.csr_rows() == [[1], [0], []]

    def test_csr_row_ints_are_native(self):
        # object-level engine loops index dicts/lists with these values;
        # they must be plain Python ints, not numpy scalars
        g = Graph(2, [(0, 1)])
        assert all(type(u) is int for row in g.csr_rows() for u in row)


class TestCsrDtype:
    """The int32/int64 CSR layout selection behind the n = 10^7 cell."""

    def test_auto_picks_int32_when_it_fits(self):
        import numpy as np

        from repro.graphs.graph import csr_index_dtype

        assert csr_index_dtype(10, 18, "auto") == np.dtype(np.int32)
        assert csr_index_dtype(2**31, 4, "auto") == np.dtype(np.int64)
        assert csr_index_dtype(4, 2**31, "auto") == np.dtype(np.int64)

    def test_forced_int32_overflow_is_loud(self):
        from repro.graphs.graph import csr_index_dtype

        with pytest.raises(ValueError, match="int32"):
            csr_index_dtype(2**31, 4, "int32")
        with pytest.raises(ValueError, match="unknown CSR dtype"):
            csr_index_dtype(4, 4, "int16")

    def test_graph_csr_dtype_variants_agree(self):
        import numpy as np

        g = Graph(6, [(0, 1), (1, 2), (2, 3), (4, 5)])
        o64, i64 = g.csr()  # default int64
        oa, ia = g.csr(dtype="auto")
        assert o64.dtype == np.int64 and i64.dtype == np.int64
        assert oa.dtype == np.int32 and ia.dtype == np.int32
        assert np.array_equal(o64, oa) and np.array_equal(i64, ia)
        # each dtype is cached independently
        assert g.csr(dtype="auto") is g.csr(dtype="auto")


class TestFromCsr:
    """CSR-direct construction: the object layer stays unmaterialised."""

    def test_roundtrip_matches_object_graph(self):
        import numpy as np

        g = Graph(6, [(0, 1), (1, 2), (2, 3), (4, 5)])
        offsets, indices = g.csr(dtype="auto")
        h = Graph.from_csr(offsets, indices)
        assert h.n == g.n and h.m == g.m
        ho, hi = h.csr(dtype="auto")
        assert np.array_equal(ho, offsets) and np.array_equal(hi, indices)
        # lazy object layer materialises on demand and agrees
        assert [h.neighbors(v) for v in h.vertices()] == [
            g.neighbors(v) for v in g.vertices()
        ]

    def test_object_layer_matches_constructor_twin(self):
        g = Graph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (0, 4)])  # 5, 6 isolated
        offsets, indices = g.csr(dtype="auto")
        h = Graph.from_csr(offsets, indices)
        assert h.edges() == g.edges()
        assert all(type(x) is int for e in h.edges() for x in e)
        for v in g.vertices():
            assert h.neighbors(v) == g.neighbors(v)
            assert h.neighbor_set(v) == g.neighbor_set(v)
            assert h.degree(v) == g.degree(v)
            for u in g.vertices():
                assert h.has_edge(u, v) == g.has_edge(u, v)
        assert h == g and hash(h) == hash(g)
        assert h.connected_components() == g.connected_components()
        assert h.subgraph([0, 2, 4, 6]) == g.subgraph([0, 2, 4, 6])

    def test_edges_builds_only_the_edge_tuple(self):
        from repro.graphs import generators as gen

        g = gen.forest_union_csr(300, 3, seed=4)
        g.edges()
        assert g._adj is None and g._adj_sets is None and g._csr_rows is None
        g.neighbors(0)
        assert g._adj is not None and g._adj_sets is None
        g.has_edge(0, 1)
        assert g._adj_sets is not None and g._csr_rows is None

    def test_invalid_csr_rejected(self):
        import numpy as np

        with pytest.raises(ValueError, match="offsets"):
            Graph.from_csr(np.array([1, 2]), np.array([0, 1]))
        with pytest.raises(ValueError, match="does not match"):
            Graph.from_csr(np.array([0, 1, 3]), np.array([1, 0]))
        with pytest.raises(ValueError, match="even length"):
            Graph.from_csr(np.array([0, 1]), np.array([0]))
        with pytest.raises(ValueError, match="non-decreasing"):
            Graph.from_csr(np.array([0, 2, 1, 4]), np.array([1, 2, 0, 0]))
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_csr(np.array([0, 1, 2]), np.array([1, 5]))
        # a self-loop row would count towards m but not appear in edges()
        with pytest.raises(ValueError, match="self-loop at vertex 0"):
            Graph.from_csr(np.array([0, 1, 2]), np.array([0, 1]))
        # repeated entries would duplicate the edge (Graph(2, [(0, 1)]) has m == 1)
        with pytest.raises(ValueError, match="row 0 is not strictly ascending"):
            Graph.from_csr(np.array([0, 2, 4]), np.array([1, 1, 0, 0]))
        with pytest.raises(ValueError, match="row 1 is not strictly ascending"):
            Graph.from_csr(np.array([0, 1, 3, 4]), np.array([1, 2, 0, 1]))
        # a row may start below where the previous one ended
        g = Graph.from_csr(np.array([0, 1, 3, 4]), np.array([1, 0, 2, 1]))
        assert g.edges() == ((0, 1), (1, 2))
