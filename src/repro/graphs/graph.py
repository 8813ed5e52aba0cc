"""Immutable undirected graphs.

The network graph ``G = (V, E)`` of the distributed message-passing model.
Vertices are the integers ``0 .. n-1``; symmetry-breaking identifiers (the
``ID`` assignment ``I`` over which the vertex-averaged complexity measure
maximizes) are stored separately, so the same topology can be re-run under
many ID assignments.

The representation is optimised for the access pattern of the round
simulator: ``neighbors(v)`` is a tuple lookup, ``degree(v)`` is O(1), and
edge-set membership is O(1) via per-vertex frozensets.  Graphs built with
:meth:`Graph.from_csr` keep only the CSR arrays and build each of those
Python-object structures on first use.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterable, Iterator, Mapping, Sequence

#: largest value an int32 CSR array can address (offsets run to 2m,
#: indices to n - 1)
INT32_MAX = 2**31 - 1


def canonical_edge(u: int, v: int) -> tuple[int, int]:
    """Return the canonical ``(min, max)`` form of the undirected edge."""
    return (u, v) if u < v else (v, u)


#: entries cast per step while hashing the CSR arrays (bounds the int64
#: temporary for int32-indexed graphs at n = 10^7)
_HASH_CHUNK = 1 << 20


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector while a block builds one large
    container of fresh tuples or frozensets: every few hundred such
    allocations would otherwise trigger a collection that rescans them,
    which costs as much as building them (these containers hold only
    ints, so they cannot form cycles)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def csr_sources(offsets):
    """The row of every CSR entry: ``src[k] == v`` for
    ``offsets[v] <= k < offsets[v + 1]``, in the dtype of ``offsets``.

    Paired with ``indices`` it lists every directed edge ``(src, dst)``
    in CSR order, which is what the vectorised edge checks run over.
    """
    import numpy as np

    return np.repeat(
        np.arange(offsets.size - 1, dtype=offsets.dtype), np.diff(offsets)
    )


def csr_index_dtype(n: int, m2: int, dtype: str = "auto"):
    """Resolve a CSR dtype request to a concrete numpy dtype.

    ``"auto"`` selects int32 when both the vertex ids (up to ``n - 1``)
    and the offset values (up to ``m2 = 2m``) fit, int64 otherwise --
    halving the columnar layout's footprint for every graph below ~2^31
    directed edges, which is what makes the n = 10^7 sweep cell fit in
    cache-friendly memory.  Forcing ``"int32"`` on an oversized graph is
    a loud error, never a silent overflow.
    """
    import numpy as np

    fits32 = n <= INT32_MAX and m2 <= INT32_MAX
    if dtype == "auto":
        return np.dtype(np.int32) if fits32 else np.dtype(np.int64)
    if dtype == "int32":
        if not fits32:
            raise ValueError(
                f"int32 CSR forced on an oversized graph: n={n}, 2m={m2} "
                f"exceed the int32 range ({INT32_MAX}); use dtype='auto' "
                "or dtype='int64'"
            )
        return np.dtype(np.int32)
    if dtype == "int64":
        return np.dtype(np.int64)
    raise ValueError(
        f"unknown CSR dtype {dtype!r}; expected 'auto', 'int32' or 'int64'"
    )


class Graph:
    """An immutable, simple, undirected graph on vertices ``0 .. n-1``.

    Parameters
    ----------
    n:
        Number of vertices.
    edges:
        Iterable of ``(u, v)`` pairs.  Self-loops are rejected; duplicate
        edges (in either orientation) are collapsed.
    """

    __slots__ = (
        "_n",
        "_adj",
        "_adj_sets",
        "_edges",
        "_m",
        "_csr",
        "_csr_rows",
        "_fingerprint",
    )

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        self._n = n
        self._csr = {}
        self._csr_rows = None
        self._fingerprint = None
        adj: list[list[int]] = [[] for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u} is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            e = canonical_edge(u, v)
            if e in seen:
                continue
            seen.add(e)
            adj[u].append(v)
            adj[v].append(u)
        self._adj: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(nbrs)) for nbrs in adj
        )
        self._adj_sets: tuple[frozenset[int], ...] = tuple(
            frozenset(nbrs) for nbrs in self._adj
        )
        self._edges: tuple[tuple[int, int], ...] = tuple(sorted(seen))
        self._m = len(self._edges)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._m

    def vertices(self) -> range:
        """The vertex set as a range object."""
        return range(self._n)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges in canonical ``(min, max)`` form, sorted."""
        if self._edges is None:
            offsets, indices = self._csr_view()
            src = csr_sources(offsets)
            upper = src < indices
            with _gc_paused():
                self._edges = tuple(
                    zip(src[upper].tolist(), indices[upper].tolist())
                )
        return self._edges

    def neighbors(self, v: int) -> tuple[int, ...]:
        """The sorted neighbors of ``v``."""
        return self._adjacency()[v]

    def neighbor_set(self, v: int) -> frozenset[int]:
        """The neighbors of ``v`` as a frozenset (O(1) membership)."""
        if self._adj_sets is None:
            with _gc_paused():
                self._adj_sets = tuple(
                    frozenset(row) for row in self._csr_slices()
                )
        return self._adj_sets[v]

    def degree(self, v: int) -> int:
        """deg(v): the number of edges incident on ``v``."""
        if self._adj is None:
            offsets, _ = self._csr_view()
            return int(offsets[v + 1] - offsets[v])
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge."""
        return v in self.neighbor_set(u)

    def max_degree(self) -> int:
        """Delta(G), the maximum degree (0 for the empty graph)."""
        if self._n == 0:
            return 0
        if self._adj is None:
            import numpy as np

            offsets, _ = self._csr_view()
            return int(np.max(np.diff(offsets)))
        return max(len(nbrs) for nbrs in self._adj)

    def degree_sequence(self) -> list[int]:
        """All vertex degrees, indexed by vertex."""
        if self._adj is None:
            import numpy as np

            offsets, _ = self._csr_view()
            return np.diff(offsets).tolist()
        return [len(nbrs) for nbrs in self._adj]

    # ------------------------------------------------------------------
    # CSR adjacency view (the round engine's fast path)
    # ------------------------------------------------------------------
    def csr(self, dtype: str = "int64"):
        """The adjacency structure in CSR form: ``(offsets, indices)``.

        ``offsets`` is an array of length ``n + 1`` and ``indices`` an
        array of length ``2m``; the neighbors of ``v`` are
        ``indices[offsets[v]:offsets[v+1]]``, sorted ascending.  Built
        lazily on first use and cached per index dtype for the lifetime
        of the graph (the graph is immutable), so repeated executions
        over the same topology share one flat adjacency encoding.

        ``dtype`` selects the index width: ``"int64"`` (the default,
        always valid), ``"int32"`` (loud :class:`ValueError` if ``n`` or
        ``2m`` exceed the int32 range), or ``"auto"`` (int32 when it
        fits, int64 otherwise — see :func:`csr_index_dtype`).
        """
        import numpy as np

        want = csr_index_dtype(self._n, 2 * self._m, dtype)
        cached = self._csr.get(want.name)
        if cached is not None:
            return cached
        if self._csr:
            # Cast an already-built view rather than rebuilding from the
            # object layer (which may not exist for from_csr graphs).
            offsets, indices = next(iter(self._csr.values()))
            view = (offsets.astype(want), indices.astype(want))
        else:
            offsets = np.zeros(self._n + 1, dtype=want)
            if self._n:
                offsets[1:] = np.cumsum(
                    np.fromiter(
                        (len(nbrs) for nbrs in self._adj),
                        dtype=want,
                        count=self._n,
                    )
                )
            indices = np.fromiter(
                (u for nbrs in self._adj for u in nbrs),
                dtype=want,
                count=2 * self._m,
            )
            view = (offsets, indices)
        self._csr[want.name] = view
        return view

    def csr_rows(self) -> list[list[int]]:
        """Per-vertex neighbor rows sliced out of :meth:`csr`.

        A cached list-of-lists mirror of the CSR arrays holding plain
        Python ints, which is what the engine's object-level loops
        (broadcast fan-out, halt-notice delivery) iterate: indexing
        containers with native ints is markedly faster than with numpy
        scalars.  The rows are shared -- callers must treat them as
        immutable and copy before mutating.
        """
        if self._csr_rows is None:
            self._csr_rows = list(self._csr_slices())
        return self._csr_rows

    def fingerprint(self) -> str:
        """sha256 hex digest of the graph: the CSR ``offsets`` then
        ``indices``, each as little-endian int64 whatever the cached
        index dtype, so the digest names the topology, not its encoding.
        Computed once and cached (the graph is immutable)."""
        if self._fingerprint is None:
            import hashlib

            import numpy as np

            h = hashlib.sha256()
            for arr in self._csr_view():
                for i in range(0, arr.size, _HASH_CHUNK):
                    h.update(np.ascontiguousarray(arr[i : i + _HASH_CHUNK], "<i8"))
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def _csr_view(self):
        """Whichever CSR view is cached, in its own index dtype (building
        the default one if none is): readers that only need the values
        never pay for a dtype cast."""
        if self._csr:
            return next(iter(self._csr.values()))
        return self.csr()

    def _csr_slices(self) -> Iterator[list[int]]:
        """The neighbor rows as fresh lists of Python ints, vertex by vertex."""
        offsets, indices = self._csr_view()
        off = offsets.tolist()
        idx = indices.tolist()
        return (idx[off[v] : off[v + 1]] for v in range(self._n))

    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        """The per-vertex neighbor tuples, built from CSR on first use."""
        if self._adj is None:
            with _gc_paused():
                self._adj = tuple(tuple(row) for row in self._csr_slices())
        return self._adj

    @classmethod
    def from_csr(cls, offsets, indices) -> "Graph":
        """Build a graph directly from CSR arrays, skipping the object layer.

        ``offsets`` must be non-decreasing with ``offsets[0] == 0`` and
        ``offsets[-1] == len(indices)``; ``indices`` holds both
        orientations of every edge, each row strictly ascending and free
        of its own vertex (the invariants :meth:`csr` guarantees).  Input
        that breaks any of these -- including a self-loop or a repeated
        neighbor -- is a :class:`ValueError`: the vectorised validators
        and :meth:`edges` read the arrays as a simple graph.

        The Python-object layer is built per structure, only when asked
        for: :meth:`edges` builds just the edge tuple (vectorised, from
        the arrays); :meth:`neighbors` and the other adjacency walks the
        neighbor tuples; :meth:`neighbor_set` / :meth:`has_edge` the
        frozensets; :meth:`csr_rows` the row lists.  Columnar-only
        pipelines -- the bulk and sharded engines, H-partition and MIS
        validation -- never build any of them, so an n = 10^7 graph fits
        in a few hundred MB instead of tens of GB of tuples.
        """
        import numpy as np

        offsets = np.ascontiguousarray(offsets)
        indices = np.ascontiguousarray(indices)
        if offsets.ndim != 1 or offsets.size < 1 or offsets[0] != 0:
            raise ValueError("offsets must be 1-D with offsets[0] == 0")
        n = offsets.size - 1
        if int(offsets[-1]) != indices.size:
            raise ValueError(
                f"offsets[-1]={int(offsets[-1])} does not match "
                f"len(indices)={indices.size}"
            )
        if indices.size % 2:
            raise ValueError("indices must hold both orientations (even length)")
        if np.any(np.diff(offsets) < 0):
            raise ValueError("offsets must be non-decreasing")
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise ValueError(f"indices out of range for n={n}")
        loops = np.flatnonzero(indices == csr_sources(offsets))
        if loops.size:
            v = int(np.searchsorted(offsets, loops[0], side="right")) - 1
            raise ValueError(f"self-loop at vertex {v} is not allowed")
        # rows strictly ascending: every step must rise, except the steps
        # from the last entry of one row to the first of the next
        flat = np.diff(indices) <= 0
        starts = offsets[1:-1]
        flat[starts[(starts > 0) & (starts < indices.size)] - 1] = False
        flat = np.flatnonzero(flat)
        if flat.size:
            v = int(np.searchsorted(offsets, flat[0], side="right")) - 1
            raise ValueError(
                f"row {v} is not strictly ascending "
                "(unsorted or repeated neighbor)"
            )
        g = cls.__new__(cls)
        g._n = n
        g._m = indices.size // 2
        g._adj = None
        g._adj_sets = None
        g._edges = None
        g._csr_rows = None
        g._fingerprint = None
        g._csr = {np.dtype(offsets.dtype).name: (offsets, indices)}
        return g

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, vertices: Iterable[int]) -> tuple["Graph", dict[int, int]]:
        """The subgraph induced by ``vertices``.

        Returns the induced graph (re-indexed ``0..k-1``) together with the
        mapping from original vertex to new index.
        """
        vs = sorted(set(vertices))
        index = {v: i for i, v in enumerate(vs)}
        keep = set(vs)
        edges = [
            (index[u], index[v])
            for u, v in self.edges()
            if u in keep and v in keep
        ]
        return Graph(len(vs), edges), index

    def edge_subgraph_degrees(self, vertices: Iterable[int]) -> dict[int, int]:
        """Degrees of ``vertices`` inside the induced subgraph, without
        materialising it."""
        adj = self._adjacency()
        keep = set(vertices)
        return {v: sum(1 for u in adj[v] if u in keep) for v in keep}

    def line_graph_neighbors(self, edge: tuple[int, int]) -> list[tuple[int, int]]:
        """Edges adjacent to ``edge`` in the line graph (sharing an endpoint)."""
        adj = self._adjacency()
        u, v = edge
        out: list[tuple[int, int]] = []
        for w in adj[u]:
            if w != v:
                out.append(canonical_edge(u, w))
        for w in adj[v]:
            if w != u:
                out.append(canonical_edge(v, w))
        return out

    def connected_components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists (iterative DFS)."""
        adj = self._adjacency()
        seen = [False] * self._n
        comps: list[list[int]] = []
        for s in range(self._n):
            if seen[s]:
                continue
            stack = [s]
            seen[s] = True
            comp = []
            while stack:
                v = stack.pop()
                comp.append(v)
                for u in adj[v]:
                    if not seen[u]:
                        seen[u] = True
                        stack.append(u)
            comps.append(sorted(comp))
        return comps

    def is_forest(self) -> bool:
        """Whether the graph is acyclic (a forest)."""
        return self._m == self._n - len(self.connected_components())

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    @classmethod
    def from_networkx(cls, g) -> "Graph":
        """Build from a :mod:`networkx` graph with arbitrary hashable nodes.

        Nodes are relabelled ``0..n-1`` in sorted-by-string order.
        """
        nodes = sorted(g.nodes(), key=str)
        index = {node: i for i, node in enumerate(nodes)}
        return cls(len(nodes), ((index[u], index[v]) for u, v in g.edges()))

    def to_networkx(self):
        """Convert to a :class:`networkx.Graph`."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self._n))
        g.add_edges_from(self.edges())
        return g

    @classmethod
    def from_adjacency(cls, adj: Mapping[int, Sequence[int]] | Sequence[Sequence[int]]) -> "Graph":
        """Build from an adjacency mapping or list."""
        if isinstance(adj, Mapping):
            n = (max(adj) + 1) if adj else 0
            items: Iterator[tuple[int, Sequence[int]]] = iter(adj.items())
        else:
            n = len(adj)
            items = iter(enumerate(adj))
        edges = []
        for v, nbrs in items:
            n = max(n, v + 1, *(u + 1 for u in nbrs)) if nbrs else max(n, v + 1)
            for u in nbrs:
                edges.append((v, u))
        return cls(n, edges)

    # ------------------------------------------------------------------
    # Dunder
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self.edges() == other.edges()

    def __hash__(self) -> int:
        return hash((self._n, self.edges()))

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self._m})"


# ----------------------------------------------------------------------
# Shard partitioners
# ----------------------------------------------------------------------
# A partitioner maps (graph, shards) to a list of ``shards + 1``
# ascending vertex bounds; shard ``i`` owns the contiguous CSR range
# ``bounds[i]:bounds[i+1]``.  Contiguity is load-bearing for the sharded
# executor: per-shard ``np.flatnonzero`` concatenated in shard order
# equals the global one, which keeps watchdog summaries and outputs in
# the exact order the unsharded bulk drivers produce.


def range_partition(graph: "Graph", shards: int) -> list[int]:
    """Vertex-balanced contiguous bounds: shard sizes differ by <= 1."""
    if shards < 1:
        raise ValueError(f"shard count must be >= 1, got {shards}")
    n = graph.n
    return [(i * n) // shards for i in range(shards + 1)]


def edge_balanced_partition(graph: "Graph", shards: int) -> list[int]:
    """Contiguous bounds balancing directed-edge (CSR row) mass.

    Cuts the offsets array at even fractions of ``2m`` so each shard
    scans roughly the same number of adjacency entries per round --
    better than :func:`range_partition` on skewed degree sequences.
    """
    import numpy as np

    if shards < 1:
        raise ValueError(f"shard count must be >= 1, got {shards}")
    offsets, _ = graph.csr()
    n = graph.n
    total = int(offsets[-1])
    bounds = [0]
    for i in range(1, shards):
        target = (i * total) // shards
        cut = int(np.searchsorted(offsets, target, side="left"))
        bounds.append(min(max(cut, bounds[-1]), n))
    bounds.append(n)
    return bounds


PARTITIONERS = {
    "range": range_partition,
    "edge": edge_balanced_partition,
}
