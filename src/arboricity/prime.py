"""Prime partition of the edge set, and the ancestor order on prime sets.

The construction contracts, level by level, every minimal densest subgraph of
the current minor.  Edge sets picked up at level k are the prime sets of
level k (recorded in original EdgeIds; contraction never renames edges).
The procedure stops when the contracted graph has no subgraph of density
af(G) left; whatever edges remain form the non-prime set E0.  Every edge in
a prime set lies in some densest minor; no edge of E0 does.

The levels run on one union-find over G's compact vertex indices, whose
roots are the smallest index of each class, and a list of the live edges,
those not yet loops.  A level's minor is the live edges between their ends'
roots, numbered in order; no graph object is built for it.

A prime set Q precedes a prime set P when the minor defining P exists only
after Q has been contracted.  That relation is read from the merge forest
of the contraction levels, by a replay per Q along Q's path up the forest.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby

from .density import DensityCertificate, _enumerate_mds, _indices, fractional_arboricity
from .errors import DisconnectedGraphError, GraphInputError, InternalInvariantError
from .multigraph import EdgeId, Multigraph, VertexId, _compact, _find


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


def prime_partition(
    g: Multigraph, af: DensityCertificate | Fraction | None = None
) -> PrimePartition:
    """Prime sets by levels plus the non-prime set E0.

    ``af`` is the fractional arboricity of g when the caller already has it:
    the certificate ``fractional_arboricity(g)``, whose minimal densest sets
    are level 0, or the bare value.  By default the certificate is computed
    here.  Level 0 proves a bare value by one sweep at it: a subgraph denser
    than ``af`` fails a kernel trial, and an ``af`` above the true value
    leaves level 0 with no minimal densest set; both raise
    ``InternalInvariantError``.

    The levels contract on one union-find over g's compact indices, so a
    class's image is its minimum original id, as ``Multigraph.contract``
    names it, and each level sweeps only the edges still live.
    """
    if not g.is_connected():
        raise DisconnectedGraphError("graph must be connected")
    if g.num_edges() == 0:
        raise GraphInputError("graph has no edges")

    if af is None:
        af = fractional_arboricity(g)
    verts, us, vs = _compact(g)
    if isinstance(af, DensityCertificate):
        af, minimal = af.value, _indices(verts, af.minimal)
    else:
        af, minimal = Fraction(af), None
    eids = sorted(g.edges)  # edge j of the compact form is eids[j]
    up: dict[int, int] = {}  # the contraction classes; a root is the smallest index
    live: list[int] = list(range(len(us)))  # the edges not yet loops
    n, mus, mvs = len(verts), us, vs  # the current minor; level 0 is g
    collected: list[tuple[frozenset[EdgeId], int, int]] = []  # (edges, level, n_p)
    level = 0
    while live:
        found = _enumerate_mds(n, mus, mvs, af, minimal)
        minimal = None  # later levels sweep their minor
        if not found:
            if not level:
                raise InternalInvariantError("no subgraph attains the given af")
            break
        for mds, positions in found:
            edges = [live[j] for j in positions]
            collected.append((frozenset(eids[e] for e in edges), level, len(mds)))
            for e in edges:
                a, b = _find(up, us[e]), _find(up, vs[e])
                if a != b:
                    up[max(a, b)] = min(a, b)
        # the next minor: the live edges' ends' roots, numbered in order, so
        # each class keeps the place of its smallest original id
        roots = [(e, _find(up, us[e]), _find(up, vs[e])) for e in live]
        roots = [t for t in roots if t[1] != t[2]]
        number = {r: i for i, r in enumerate(sorted({r for t in roots for r in t[1:]}))}
        live = [e for e, _, _ in roots]
        n = len(number)
        mus = [number[a] for _, a, _ in roots]
        mvs = [number[b] for _, _, b in roots]
        level += 1
    non_prime = frozenset(eids[e] for e in live)

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

    Q is a direct ancestor of P when, with Q's edges left out and the other
    sets contracted level by level, P's edges span more than n_p classes at
    P's level.  Raises ``GraphInputError`` unless pp partitions g's edges at
    g's af, and each set spans n_p >= 2 classes at its level and one after.
    """
    _check_partition(g, pp)
    if pp.af != fractional_arboricity(g).value:
        raise GraphInputError("prime partition does not match the graph")
    return _ancestor_order(g, pp)


def _join(up: dict[int, int], ends: list[int]) -> None:
    """Union, in ``up``, the ends of each edge given flattened as ``ends``."""
    for i in range(0, len(ends), 2):
        a, b = _find(up, ends[i]), _find(up, ends[i + 1])
        if a != b:
            up[a] = b


def _ancestor_order(g: Multigraph, pp: PrimePartition) -> AncestorPoset:
    """``ancestors`` with only the checks the merge forest makes.

    The forest's leaves are g's vertices; each class that a level's unions
    make is a new node, the parent of the classes it merges.

    Q's replay is a union-find on Q's chain: C, the node made from Q, then
    C's ancestors.  At each chain node, the sets that made it, but Q, are
    unioned on units: a class that joined the chain, or for an endpoint
    inside C, its highest ancestor off the chain.  A set that merges C into
    its parent and whose endpoints then span more than n_p roots has Q as a
    direct ancestor.  This is exact: (1) each set lies in one class after
    its level, so every class but C forms without Q; (2) a class that joins
    C later formed without Q too, so it joins whole; (3) so P spans more
    than n_p classes without Q only if its endpoints inside C fall in two
    units; (4) once Q's units share one root, Q joins nothing new and no
    higher set splits, so the replay stops there (the heal stop).
    """
    sets = sorted(pp.prime_sets, key=lambda ps: ps.level)  # ancestors first
    max_level = max((ps.level for ps in sets), default=0)
    index = {v: i for i, v in enumerate(g.vertices)}
    cls: dict[int, int] = {}  # union-find whose roots are the current classes
    parent: dict[int, int] = {}
    lvl: dict[int, int] = {}  # node len(index) + p.id is made at p's level
    merged_by: dict[int, list[PrimeSet]] = {}  # the sets whose unions made a node
    touching: dict[int, list[PrimeSet]] = {}  # the sets that merge a node upwards
    ends: dict[int, list[int]] = {}  # edge j of a set joins ends[2j], ends[2j + 1]
    nodes: dict[int, list[int]] = {}  # per endpoint: its node at the set's level
    for level, group in groupby(sets, key=lambda ps: ps.level):
        batch = list(group)
        for p in batch:
            ends[p.id] = [index[v] for eid in p.edges for v in g.endpoints(eid)]
            nodes[p.id] = [_find(cls, v) for v in ends[p.id]]
            if len(set(nodes[p.id])) != p.n_p or p.n_p < 2:
                raise GraphInputError("prime partition does not match the graph")
            for c in set(nodes[p.id]):
                touching.setdefault(c, []).append(p)
        for p in batch:
            _join(cls, nodes[p.id])
        for p in batch:
            r = _find(cls, nodes[p.id][0])
            if lvl.get(r) != level:  # the level's first set in this class
                cls[r] = r = len(index) + p.id
                lvl[r] = level
            if any(_find(cls, x) != r for x in nodes[p.id]):
                raise GraphInputError("prime partition does not match the graph")
            merged_by.setdefault(r, []).append(p)
            parent.update(dict.fromkeys(nodes[p.id], r))

    direct: dict[int, set[int]] = {ps.id: set() for ps in sets}
    low = list(range(len(index)))  # per vertex: an ancestor made below level k
    for q in sets:
        k, units = q.level, set(nodes[q.id])
        top, chain, up, memo = parent[nodes[q.id][0]], set(), {}, {}

        def units_of(p: PrimeSet) -> list[int]:
            if p.id not in memo:  # the same when tested and when joined
                out = memo[p.id] = []
                for v, x in zip(ends[p.id], nodes[p.id]):
                    if x in chain:  # inside C: the highest ancestor off the chain
                        y = low[v]
                        while lvl[parent[y]] < k:
                            y = parent[y]
                        low[v] = x = y
                        while parent[x] not in chain:
                            x = parent[x]
                    out.append(x)
            return memo[p.id]

        while lvl[top] < max_level:  # no level above the last one is tested
            chain.add(top)
            for p in merged_by[top]:
                if p is not q:
                    _join(up, units_of(p))
            units = {_find(up, u) for u in units}
            if top not in parent or len(units) == 1:
                break
            for p in touching[top]:
                if len({_find(up, u) for u in units_of(p)}) != p.n_p:
                    direct[p.id].add(q.id)
            top = parent[top]

    # The pairwise test yields the direct dependences; a prime set can also
    # depend on the ancestors of its ancestors even when the direct test
    # misses them, so the ancestor relation proper is the transitive closure.
    # Every parent is a direct ancestor, and a direct ancestor that lies
    # below another one is not a parent.  The closure is complete, and the
    # parent lists regenerate it, because every direct ancestor lies at a
    # strictly lower level: its closed set is final when it is read.
    level_of = {ps.id: ps.level for ps in sets}
    closed: dict[int, frozenset[int]] = {}
    parents: dict[int, frozenset[int]] = {}
    for ps in sets:
        if any(level_of[d] >= ps.level for d in direct[ps.id]):
            raise InternalInvariantError("a direct ancestor is not at a lower level")
        below = frozenset().union(*(closed[d] for d in direct[ps.id]))
        closed[ps.id] = below | direct[ps.id]
        parents[ps.id] = frozenset(direct[ps.id] - below)
    return AncestorPoset(parents)


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
