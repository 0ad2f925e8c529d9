"""Shared graph builders for the test suite."""

from __future__ import annotations

import random

from arboricity import Multigraph


def edge_list_text(g: Multigraph) -> str:
    """``g`` in the CLI's input format, one "u v" line per edge in id order."""
    return "".join(f"{u} {v}\n" for _, (u, v) in sorted(g.edges.items()))


def triangle() -> Multigraph:
    return Multigraph.from_edge_list([(0, 1), (1, 2), (0, 2)])


def path(m: int) -> Multigraph:
    return Multigraph.from_edge_list([(i, i + 1) for i in range(m)])


def k4_edges(base: int) -> list[tuple[int, int]]:
    v = [base, base + 1, base + 2, base + 3]
    return [(v[i], v[j]) for i in range(4) for j in range(i + 1, 4)]


def k4() -> Multigraph:
    return Multigraph.from_edge_list(k4_edges(0))


def triangle_pendant() -> Multigraph:
    return Multigraph.from_edge_list([(0, 1), (1, 2), (0, 2), (2, 3)])


def two_k4_shared_vertex() -> Multigraph:
    # second K4 on {3,4,5,6}: vertex 3 is shared
    edges = k4_edges(0) + [
        (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6),
    ]
    return Multigraph.from_edge_list(edges)


def two_k4_bridge() -> Multigraph:
    """Two K4s joined by a bundle of two bridge edges.

    The bridges attach at distinct vertices (2-4 and 3-5), so they become
    parallel edges only once both K4s are contracted; edges 12 and 13.
    """
    edges = k4_edges(0) + k4_edges(4) + [(2, 4), (3, 5)]
    return Multigraph.from_edge_list(edges)


def four_k4_chain() -> Multigraph:
    """K4s A,B,C,D; bundles of two between A-B and C-D; singles A-C, B-D.

    Edge ids: 0-23 the K4s, 24-25 the A-B bundle, 26-27 the C-D bundle,
    28 the A-C single, 29 the B-D single.
    """
    edges = k4_edges(0) + k4_edges(4) + k4_edges(8) + k4_edges(12)
    edges += [(0, 4), (1, 5)]
    edges += [(8, 12), (9, 13)]
    edges += [(2, 8)]
    edges += [(6, 14)]
    return Multigraph.from_edge_list(edges)


def k4_tower(levels: int) -> Multigraph:
    """K4 on 0..3, then vertices 4, 5, ... each joined to the previous vertex
    and to 0: af = 2, and each added vertex is a prime set one level up.

    Edges 0-5 are the K4 (level 0); the vertex added at level i >= 1 brings
    edges 4 + 2i and 5 + 2i."""
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for v in range(4, levels + 3):
        edges += [(v - 1, v), (0, v)]
    return Multigraph.from_edge_list(edges)


def random_connected(
    rng: random.Random,
    n_max: int = 8,
    m_max: int = 12,
    parallel: bool = True,
) -> Multigraph:
    """Random connected multigraph: a random tree plus random extra edges."""
    n = rng.randint(2, n_max)
    edges = [(rng.randint(0, v - 1), v) for v in range(1, n)]
    target = rng.randint(n - 1, max(n - 1, m_max))
    while len(edges) < target:
        u = rng.randint(0, n - 1)
        v = rng.randint(0, n - 1)
        if u == v:
            continue
        if not parallel and ((u, v) in edges or (v, u) in edges):
            continue
        edges.append((u, v))
    return Multigraph.from_edge_list(edges)
