"""Prime partition of the edge set, and the ancestor order on prime sets.

The construction contracts, level by level, every minimal densest subgraph of
the current minor.  Edge sets picked up at level k are the prime sets of
level k (recorded in original EdgeIds; contraction never renames edges).
The procedure stops when the contracted graph has no subgraph of density
af(G) left; whatever edges remain form the non-prime set E0.  Every edge in
a prime set lies in some densest minor; no edge of E0 does.

A prime set Q precedes a prime set P when the minor defining P exists only
after Q has been contracted.  That relation is computed by deleting Q's
edges from the graph, replaying the contraction pipeline with the remaining
prime sets, and checking whether P's defining minor keeps its vertex count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .density import _enumerate_mds, fractional_arboricity
from .errors import DisconnectedGraphError, GraphInputError, InternalInvariantError
from .multigraph import EdgeId, Multigraph, VertexId, _UnionFind


@dataclass(frozen=True)
class PrimeSet:
    """One prime set: original edges, its level, and the vertex count n_p of
    the minimal densest subgraph that defined it."""

    id: int
    edges: frozenset[EdgeId]
    level: int
    n_p: int


@dataclass(frozen=True)
class PrimePartition:
    prime_sets: tuple[PrimeSet, ...]
    non_prime: frozenset[EdgeId]
    af: Fraction

    def by_id(self, pid: int) -> PrimeSet:
        return self.prime_sets[pid]


@dataclass(frozen=True)
class AncestorPoset:
    """Partial order on prime sets via parent lists.

    ``parents[p]`` holds the immediate predecessors of prime set ``p``;
    the full ancestor relation is the transitive closure.
    """

    parents: dict[int, frozenset[int]]

    def ancestors_of(self, pid: int) -> frozenset[int]:
        seen: set[int] = set()
        stack = list(self.parents[pid])
        while stack:
            q = stack.pop()
            if q not in seen:
                seen.add(q)
                stack.extend(self.parents[q])
        return frozenset(seen)


def prime_partition(g: Multigraph) -> PrimePartition:
    """Prime sets by levels plus the non-prime set E0."""
    if not g.is_connected():
        raise DisconnectedGraphError("graph must be connected")
    if g.num_edges() == 0:
        raise GraphInputError("graph has no edges")

    af = fractional_arboricity(g).value
    collected: list[tuple[frozenset[EdgeId], int, int]] = []  # (edges, level, n_p)
    contracted: set[EdgeId] = set()
    level = 0
    current = g
    non_prime: frozenset[EdgeId] = frozenset()
    while True:
        found = _enumerate_mds(current, af)
        if not found:
            non_prime = current.edge_ids
            break
        for mds in found:
            edges = current.induced_by_vertices(mds).edge_ids
            collected.append((edges, level, len(mds)))
            contracted |= edges
        current = g.contract(contracted).as_multigraph()
        if current.num_edges() == 0:
            break
        level += 1

    order = sorted(collected, key=lambda item: (item[1], min(item[0])))
    prime_sets = tuple(
        PrimeSet(i, edges, lvl, n_p) for i, (edges, lvl, n_p) in enumerate(order)
    )
    return PrimePartition(prime_sets, non_prime, af)


def _check_partition(g: Multigraph, pp: PrimePartition) -> None:
    covered: set[EdgeId] = set(pp.non_prime)
    total = len(pp.non_prime)
    for ps in pp.prime_sets:
        covered |= ps.edges
        total += len(ps.edges)
    if covered != g.edge_ids or total != g.num_edges():
        raise GraphInputError("prime partition does not match the graph")


def ancestors(g: Multigraph, pp: PrimePartition) -> AncestorPoset:
    """Ancestor order of pp's prime sets, returned via parent lists.

    For a candidate ancestor Q of P (level(Q) < level(P)): delete Q's edges,
    contract the remaining prime sets level by level up to level(P), and
    compare the number of image vertices spanned by P's edges against n(P).
    A mismatch means P's defining minor needs Q contracted first.
    """
    _check_partition(g, pp)
    if pp.af != fractional_arboricity(g).value:
        raise GraphInputError("prime partition does not match the graph")
    return _ancestor_order(g, pp)


def _ancestor_order(g: Multigraph, pp: PrimePartition) -> AncestorPoset:
    """``ancestors`` without its input checks, for a partition built from g."""
    # every ancestor has a lower level, so in this order it comes first
    sets = sorted(pp.prime_sets, key=lambda ps: ps.level)
    max_level = max((ps.level for ps in sets), default=0)
    by_level: dict[int, list[PrimeSet]] = {}
    for ps in sets:
        by_level.setdefault(ps.level, []).append(ps)
    pairs = {ps.id: [g.endpoints(eid) for eid in ps.edges] for ps in sets}

    direct: dict[int, set[int]] = {ps.id: set() for ps in sets}
    for q in sets:
        if q.level >= max_level:
            continue
        uf = _UnionFind(g.vertices)
        for level in range(max_level + 1):
            if level > q.level:
                for p in by_level.get(level, ()):  # test before contracting level
                    images = {uf.find(v) for pair in pairs[p.id] for v in pair}
                    if len(images) != p.n_p:
                        direct[p.id].add(q.id)
            for p in by_level.get(level, ()):
                if p.id == q.id:
                    continue
                for a, b in pairs[p.id]:
                    uf.union(a, b)

    # The pairwise test yields the direct dependences; a prime set can also
    # depend on the ancestors of its ancestors even when the direct test
    # misses them, so the ancestor relation proper is the transitive closure.
    # Every parent is a direct ancestor, and a direct ancestor that lies
    # below another one is not a parent.
    closed: dict[int, frozenset[int]] = {}
    parents: dict[int, frozenset[int]] = {}
    for ps in sets:
        below = frozenset().union(*(closed[d] for d in direct[ps.id]))
        closed[ps.id] = below | direct[ps.id]
        parents[ps.id] = frozenset(direct[ps.id] - below)
    poset = AncestorPoset(parents)
    # the parent lists must regenerate exactly the closed relation
    for ps in sets:
        if poset.ancestors_of(ps.id) != closed[ps.id]:
            raise InternalInvariantError("ancestor relation is not transitive")
    return poset


def decompose_densest_subgraph(
    pp: PrimePartition, h: frozenset[VertexId] | set[VertexId], g: Multigraph
) -> list[int]:
    """Prime-set ids whose union is the edge set of the densest subgraph G[h].

    Verifies the vertex-count identity n(H) = sum(n_p - 1) + 1.
    """
    sub = g.induced_by_vertices(h)
    if not sub.is_connected() or sub.num_vertices() < 2:
        raise GraphInputError("h does not induce a connected subgraph")
    if Fraction(sub.num_edges(), sub.num_vertices() - 1) != pp.af:
        raise GraphInputError("h is not a densest subgraph")
    edges = sub.edge_ids
    chosen: list[int] = []
    covered: set[EdgeId] = set()
    for ps in pp.prime_sets:
        inside = ps.edges & edges
        if not inside:
            continue
        if inside != ps.edges:
            raise InternalInvariantError(
                f"prime set {ps.id} crosses the densest subgraph boundary"
            )
        chosen.append(ps.id)
        covered |= ps.edges
    if covered != edges:
        raise InternalInvariantError("densest subgraph not covered by prime sets")
    if sum(pp.by_id(i).n_p - 1 for i in chosen) + 1 != len(h):
        raise InternalInvariantError("vertex-count identity violated")
    return chosen
