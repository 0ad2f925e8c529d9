"""The arboricity game: players are edges, a coalition pays the arboricity of
the subgraph it induces.

Core membership reduces to three checks: nonnegativity, the grand-coalition
budget x(E) = gamma(E), and x(T) <= 1 for every spanning tree T.  The last
family is separated exactly by one maximum-weight spanning tree computation,
which doubles as the separating hyperplane when it fails.  The core is
nonempty precisely when the fractional arboricity is an integer, and is then
the convex hull of the subgraph vectors produced by ``core_vertices``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple

from .density import DensityCertificate, fractional_arboricity
from .errors import (
    DisconnectedGraphError,
    EmptyCoreError,
    GraphInputError,
    ResourceLimitError,
)
from .multigraph import EdgeId, Multigraph, VertexId

Allocation = dict[EdgeId, Fraction]


class CoreStatus(NamedTuple):
    nonempty: bool
    af: Fraction
    arboricity: int


class CoreCheckResult(NamedTuple):
    verdict: str  # "member" | "not-allocation" | "negative-entry" | "violated"
    witness: frozenset[EdgeId] | None


def gamma(g: Multigraph, s: Iterable[EdgeId]) -> int:
    """Cost of coalition ``s``: arboricity of the edge-induced subgraph.

    The empty coalition costs 0.
    """
    sset = set(s)
    if not sset:
        return 0
    sub = g.induced_by_edges(sset)  # raises on unknown edges
    return math.ceil(fractional_arboricity(sub).value)


def core_nonempty(g: Multigraph) -> CoreStatus:
    """Nonempty iff af(G) equals the arboricity, i.e. af(G) is an integer."""
    return _core_status(g)[0]


def _core_status(g: Multigraph) -> tuple[CoreStatus, DensityCertificate]:
    """``core_nonempty`` together with the af certificate it is read from."""
    if not g.is_connected():
        raise DisconnectedGraphError("graph must be connected")
    if g.num_edges() == 0:
        raise GraphInputError("graph has no edges")
    cert = fractional_arboricity(g)
    a = math.ceil(cert.value)
    return CoreStatus(cert.value == a, cert.value, a), cert


def core_membership(g: Multigraph, x: Mapping[EdgeId, Fraction | int]) -> CoreCheckResult:
    """Exact core test with a separating spanning tree on failure."""
    if set(x) != set(g.edge_ids):
        raise GraphInputError("allocation must assign a value to every edge")
    values = {e: Fraction(v) for e, v in x.items()}
    if any(v < 0 for v in values.values()):
        return CoreCheckResult("negative-entry", None)
    status = core_nonempty(g)
    if sum(values.values()) != status.arboricity:
        return CoreCheckResult("not-allocation", None)
    tree, weight = g.max_weight_spanning_tree(values)
    if weight > 1:
        return CoreCheckResult("violated", tree)
    return CoreCheckResult("member", None)


def _connected_vertex_subsets(
    g: Multigraph,
) -> Iterator[tuple[frozenset[VertexId], Multigraph]]:
    """Connected induced vertex sets of size >= 2, each with its induced
    subgraph, in ascending bitmask order of the sorted vertices."""
    verts = sorted(g.vertices)
    n = len(verts)
    for mask in range(3, 1 << n):
        if mask & (mask - 1) == 0:  # singletons: skip
            continue
        subset = frozenset(verts[i] for i in range(n) if mask >> i & 1)
        sub = g.induced_by_vertices(subset)
        if sub.is_connected():
            yield subset, sub


def core_vertices(g: Multigraph, cap: int) -> list[Allocation]:
    """Extreme points of the (nonempty) core, one per densest subgraph.

    Each densest subgraph H contributes 1/(n(H)-1) on E(H) and 0 elsewhere.
    Exhaustive enumeration; raises once more than ``cap`` densest subgraphs
    are found.
    """
    status = core_nonempty(g)
    if not status.nonempty:
        raise EmptyCoreError(
            f"core empty: af={status.af}, a={status.arboricity}"
        )
    out: list[Allocation] = []
    for subset, sub in _connected_vertex_subsets(g):
        if Fraction(sub.num_edges(), sub.num_vertices() - 1) != status.af:
            continue
        if len(out) >= cap:
            raise ResourceLimitError(f"more than {cap} densest subgraphs")
        share = Fraction(1, len(subset) - 1)
        alloc = {e: Fraction(0) for e in g.edge_ids}
        for e in sub.edge_ids:
            alloc[e] = share
        out.append(alloc)
    return out
