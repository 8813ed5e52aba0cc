"""Validators for maximal independent sets and maximal matchings
(problem definitions: Section 5 of the paper)."""

from __future__ import annotations

from typing import Collection

import numpy as np

from repro.graphs.graph import Graph, canonical_edge
from repro.verify.colorings import VerificationError
from repro.verify.csr import directed_edges, first_edge_within, first_set


def assert_maximal_independent_set(g: Graph, mis: Collection[int]) -> None:
    """I is independent (no edge inside) and maximal (every outside vertex
    has a neighbor inside).  Runs on the CSR view and reports the lowest
    offending member, edge or vertex."""
    n = g.n
    members = np.fromiter(mis, dtype=np.int64, count=len(mis))
    outside = (members < 0) | (members >= n)
    if outside.any():
        raise VerificationError(
            f"MIS contains non-vertex {int(members[outside].min())}"
        )
    in_mis = np.zeros(n, dtype=bool)
    in_mis[members] = True
    pair = first_edge_within(g, in_mis)
    if pair is not None:
        u, v = pair
        raise VerificationError(f"MIS contains adjacent vertices {u}, {v}")
    src, dst = directed_edges(g)
    covered = in_mis.copy()
    covered[src[in_mis[dst]]] = True
    v = first_set(~covered)
    if v is not None:
        raise VerificationError(
            f"vertex {v} is outside the MIS but has no MIS neighbor"
        )


def assert_maximal_matching(g: Graph, matching: Collection[tuple[int, int]]) -> None:
    """M is a matching (pairwise vertex-disjoint edges of G) and maximal
    (every edge of G intersects M)."""
    edges = [canonical_edge(u, v) for u, v in matching]
    if len(set(edges)) != len(edges):
        raise VerificationError("matching contains a repeated edge")
    matched: set[int] = set()
    for u, v in edges:
        if not g.has_edge(u, v):
            raise VerificationError(f"matching edge ({u}, {v}) is not in G")
        if u in matched or v in matched:
            raise VerificationError(
                f"matching edges intersect at ({u}, {v})"
            )
        matched.add(u)
        matched.add(v)
    for u, v in g.edges():
        if u not in matched and v not in matched:
            raise VerificationError(
                f"edge ({u}, {v}) could be added: matching is not maximal"
            )
