"""Vectorised helpers the validators share: they read a graph through its
CSR view (:meth:`Graph.csr`) with numpy and never build the Python-object
adjacency, so checking a bulk run scales like the bulk kernel does.

Every helper that reports a witness reports the *lowest* one -- the
lowest vertex, or the first edge in :meth:`Graph.edges` order -- so a
failure message is deterministic.
"""

from __future__ import annotations

from typing import Collection

import numpy as np

from repro.graphs.graph import Graph, csr_sources


def directed_edges(g: Graph):
    """``(src, dst)`` arrays over every directed edge, in CSR order."""
    offsets, indices = g.csr(dtype="auto")
    return csr_sources(offsets), indices


def vertex_mask(n: int, vertices: Collection[int]) -> np.ndarray:
    """Boolean mask over ``0..n-1`` marking the members of ``vertices``
    (for a mapping: its keys); members outside that range are ignored."""
    members = np.fromiter(vertices, dtype=np.int64, count=len(vertices))
    mask = np.zeros(n, dtype=bool)
    mask[members[(members >= 0) & (members < n)]] = True
    return mask


def first_set(mask: np.ndarray) -> int | None:
    """The lowest index at which ``mask`` is set, or ``None``."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def first_edge_within(g: Graph, mask: np.ndarray) -> tuple[int, int] | None:
    """The first edge ``(u, v)``, ``u < v``, in :meth:`Graph.edges` order
    with both endpoints in ``mask``, or ``None``."""
    src, dst = directed_edges(g)
    k = first_set((src < dst) & mask[src] & mask[dst])
    return None if k is None else (int(src[k]), int(dst[k]))
