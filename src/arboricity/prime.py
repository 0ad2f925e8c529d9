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
from .multigraph import EdgeId, Multigraph, VertexId


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


def prime_partition(g: Multigraph, af: Fraction | None = None) -> PrimePartition:
    """Prime sets by levels plus the non-prime set E0.

    ``af`` is the fractional arboricity of g when the caller already has it;
    by default it is computed here.  Level 0 proves the value it is given: a
    subgraph denser than ``af`` fails a kernel trial, and an ``af`` above the
    true value leaves level 0 with no minimal densest set; both raise
    ``InternalInvariantError``.
    """
    if not g.is_connected():
        raise DisconnectedGraphError("graph must be connected")
    if g.num_edges() == 0:
        raise GraphInputError("graph has no edges")

    af = fractional_arboricity(g).value if af is None else Fraction(af)
    collected: list[tuple[frozenset[EdgeId], int, int]] = []  # (edges, level, n_p)
    level = 0
    current = g
    while current.num_edges():
        found = _enumerate_mds(current, af)
        if not found:
            if not level:
                raise InternalInvariantError("no subgraph attains the given af")
            break
        level_edges: set[EdgeId] = set()
        for sub in found:
            edges = sub.edge_ids
            collected.append((edges, level, sub.num_vertices()))
            level_edges |= edges
        # contracting the last minor gives the same graph as contracting g
        # by every set so far: images are minimum original ids either way
        current = current.contract(level_edges).as_multigraph()
        level += 1
    non_prime = current.edge_ids

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


def _union_all(parent: list[int], ends: list[int]) -> None:
    """Union the endpoints of each edge, given flattened as ``ends``, in the
    list-based union-find ``parent`` (finds with path halving)."""
    for i in range(0, len(ends), 2):
        a, b = ends[i], ends[i + 1]
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b


def _ancestor_order(g: Multigraph, pp: PrimePartition) -> AncestorPoset:
    """``ancestors`` without its input checks, for a partition built from g.

    One replay per prime set Q, on a list-based union-find over compact
    vertex ids.  Every Q of one level unions the same sets at the levels
    below it, so those levels are unioned once into a shared base, and Q's
    replay starts from a copy of it at level(Q).  The last level is tested
    but never contracted, since no level above it is tested."""
    # every ancestor has a lower level, so in this order it comes first
    sets = sorted(pp.prime_sets, key=lambda ps: ps.level)
    max_level = max((ps.level for ps in sets), default=0)
    by_level: dict[int, list[PrimeSet]] = {}
    for ps in sets:
        by_level.setdefault(ps.level, []).append(ps)
    index = {v: i for i, v in enumerate(g.vertices)}
    # each set's endpoints, flattened: edge j joins ends[2j] and ends[2j + 1]
    ends = {
        ps.id: [index[v] for eid in ps.edges for v in g.endpoints(eid)]
        for ps in sets
    }

    direct: dict[int, set[int]] = {ps.id: set() for ps in sets}
    base = list(range(len(index)))
    base_level = 0  # base holds the unions of every level below this one
    for q in sets:
        if q.level >= max_level:
            break
        while base_level < q.level:
            for p in by_level.get(base_level, ()):
                _union_all(base, ends[p.id])
            base_level += 1
        parent = list(base)

        def find(x: int) -> int:
            while parent[x] != x:  # path halving
                parent[x] = x = parent[parent[x]]
            return x

        for level in range(q.level, max_level + 1):
            if level > q.level:
                for p in by_level.get(level, ()):  # test before contracting level
                    if len({find(v) for v in ends[p.id]}) != p.n_p:
                        direct[p.id].add(q.id)
            if level == max_level:
                break
            for p in by_level.get(level, ()):
                if p.id != q.id:
                    _union_all(parent, ends[p.id])

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
    _check_partition(g, pp)
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
