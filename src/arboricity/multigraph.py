"""Loopless multigraph with stable vertex and edge identities.

Vertices and edges are identified by plain integers.  Identities survive
every operation that does not remove the object itself: deleting a vertex
keeps the ids of all remaining edges, and contracting an edge set keeps the
ids of all edges that do not become loops.  This stability is what lets
higher layers report edge sets of minors in terms of the original graph.

All operations are pure: they return new graphs or views and never mutate
their inputs, so values can be shared freely across threads.  A graph fills
its derived data, its components and its compact form, at most once, on
first use; the cached values are immutable, and two threads that fill one at
once compute the same value, so sharing stays safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import DisconnectedGraphError, GraphInputError, ResourceLimitError

VertexId = int
EdgeId = int
# sorted vertices, and per edge in id order its endpoints' indices
_Compact = tuple[tuple[VertexId, ...], tuple[int, ...], tuple[int, ...]]


def _find(up: dict[int, int], x: int) -> int:
    """The root of x in the union-find ``up``, where an item missing from
    ``up`` is a root."""
    while x in up:
        p = up[x]
        up[x] = x = up.get(p, p)  # path halving
    return x


def _join(up: dict[int, int], ends: Sequence[int]) -> int:
    """Union, in ``up``, the ends of each edge given flattened as ``ends``,
    keeping the smaller root; the number of unions made."""
    joins = 0
    for i in range(0, len(ends), 2):
        a, b = _find(up, ends[i]), _find(up, ends[i + 1])
        if a != b:
            up[max(a, b)] = min(a, b)
            joins += 1
    return joins


class Multigraph:
    """Immutable loopless multigraph; parallel edges are distinct EdgeIds."""

    __slots__ = ("_vertices", "_edges", "_components", "_compact")

    def __init__(
        self,
        edges: Mapping[EdgeId, tuple[VertexId, VertexId]],
        vertices: Iterable[VertexId] | None = None,
    ):
        edict: dict[EdgeId, tuple[VertexId, VertexId]] = {}
        vset: set[VertexId] = set(vertices) if vertices is not None else set()
        for eid, (u, v) in edges.items():
            if u == v:
                raise GraphInputError(f"edge {eid} is a loop at vertex {u}")
            edict[eid] = (u, v) if u <= v else (v, u)
            vset.add(u)
            vset.add(v)
        self._edges = edict
        self._vertices = frozenset(vset)
        self._components: tuple[frozenset[VertexId], ...] | None = None
        self._compact: _Compact | None = None

    @classmethod
    def from_edge_list(
        cls, pairs: Iterable[tuple[VertexId, VertexId]]
    ) -> "Multigraph":
        """Build a graph from endpoint pairs; EdgeIds are assigned 0,1,2,...

        Repeated pairs create parallel edges.
        """
        return cls({i: (u, v) for i, (u, v) in enumerate(pairs)})

    # -- basic accessors ---------------------------------------------------

    @property
    def vertices(self) -> frozenset[VertexId]:
        return self._vertices

    @property
    def edges(self) -> Mapping[EdgeId, tuple[VertexId, VertexId]]:
        """Read-only view of EdgeId -> endpoints (smaller id first)."""
        return MappingProxyType(self._edges)

    @property
    def edge_ids(self) -> frozenset[EdgeId]:
        return frozenset(self._edges)

    def endpoints(self, eid: EdgeId) -> tuple[VertexId, VertexId]:
        try:
            return self._edges[eid]
        except KeyError:
            raise GraphInputError(f"unknown edge id {eid}") from None

    def num_vertices(self) -> int:
        return len(self._vertices)

    def num_edges(self) -> int:
        return len(self._edges)

    def num_components(self) -> int:
        return len(self.components())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Multigraph(n={self.num_vertices()}, m={self.num_edges()})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multigraph):
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._vertices, tuple(sorted(self._edges.items()))))

    # -- structure ---------------------------------------------------------

    def components(self) -> list[frozenset[VertexId]]:
        """Maximal connected vertex sets, ordered by ascending minimum id."""
        if self._components is None:
            self._components = _components(_compact(self))
        return list(self._components)

    def is_connected(self) -> bool:
        return self.num_components() <= 1

    # -- derived graphs ----------------------------------------------------

    def induced_by_edges(self, s: Iterable[EdgeId]) -> "Multigraph":
        """Subgraph with edge set ``s`` and exactly the endpoints of ``s``."""
        sset = set(s)
        unknown = sset - self._edges.keys()
        if unknown:
            raise GraphInputError(f"unknown edge ids {sorted(unknown)}")
        sub = {e: self._edges[e] for e in sset}
        return Multigraph(sub)

    def induced_by_vertices(self, u: Iterable[VertexId]) -> "Multigraph":
        """Subgraph on vertex set ``u`` with every edge inside it."""
        uset = set(u)
        unknown = uset - self._vertices
        if unknown:
            raise GraphInputError(f"unknown vertex ids {sorted(unknown)}")
        sub = {
            e: (a, b)
            for e, (a, b) in self._edges.items()
            if a in uset and b in uset
        }
        return Multigraph(sub, vertices=uset)

    def delete_vertices(self, u: Iterable[VertexId]) -> "Multigraph":
        return self.induced_by_vertices(self._vertices - set(u))

    def delete_edges(self, f: Iterable[EdgeId]) -> "Multigraph":
        fset = set(f)
        unknown = fset - self._edges.keys()
        if unknown:
            raise GraphInputError(f"unknown edge ids {sorted(unknown)}")
        sub = {e: uv for e, uv in self._edges.items() if e not in fset}
        return Multigraph(sub, vertices=self._vertices)

    def contract(self, f: Iterable[EdgeId]) -> "ContractionView":
        """Contract the edges in ``f``; loops created by contraction vanish.

        Vertex classes are the connected components of (V, f); the image of a
        class is its minimum original VertexId.  Surviving edges keep their
        original ids, and parallel edges are retained.
        """
        fset = set(f)
        unknown = fset - self._edges.keys()
        if unknown:
            raise GraphInputError(f"unknown edge ids {sorted(unknown)}")
        up: dict[VertexId, VertexId] = {}
        _join(up, [v for e in fset for v in self._edges[e]])
        vertex_map = {v: _find(up, v) for v in self._vertices}
        surviving = {
            e: (vertex_map[a], vertex_map[b])
            for e, (a, b) in self._edges.items()
            if vertex_map[a] != vertex_map[b]
        }
        return ContractionView(self, vertex_map, surviving)

    # -- spanning trees ----------------------------------------------------

    def max_weight_spanning_tree(
        self, w: Mapping[EdgeId, Fraction | int]
    ) -> tuple[frozenset[EdgeId], Fraction]:
        """Maximum-weight spanning tree by greedy matroid choice (Kruskal).

        Weight ties are broken by ascending EdgeId, so the result is unique
        for a given weighting.
        """
        missing = self._edges.keys() - w.keys()
        if missing:
            raise GraphInputError(f"weights missing for edges {sorted(missing)}")
        if not self.is_connected():
            raise DisconnectedGraphError("spanning tree of a disconnected graph")
        order = sorted(self._edges, key=lambda e: (-Fraction(w[e]), e))
        up: dict[VertexId, VertexId] = {}
        tree: set[EdgeId] = set()
        total = Fraction(0)
        for e in order:
            if _join(up, self._edges[e]):
                tree.add(e)
                total += Fraction(w[e])
        return frozenset(tree), total

    def enumerate_spanning_trees(self, cap: int) -> list[frozenset[EdgeId]]:
        """All spanning trees, as edge sets; raises once more than ``cap`` exist."""
        if not self.is_connected():
            raise DisconnectedGraphError("spanning trees of a disconnected graph")
        n = self.num_vertices()
        order = sorted(self._edges)
        endpoints = [self._edges[e] for e in order]
        trees: list[frozenset[EdgeId]] = []

        # Backtracking over edges in ascending id order.  The chosen edges
        # form a forest, so n - 1 - len(chosen) edges are still needed; each
        # branch that takes an edge joins a copy of the classes in ``up``.
        def walk(idx: int, chosen: list[int], up: dict[VertexId, VertexId]) -> None:
            need = n - 1 - len(chosen)
            if need == 0:
                trees.append(frozenset(order[i] for i in chosen))
                if len(trees) > cap:
                    raise ResourceLimitError(f"more than {cap} spanning trees")
                return
            if len(order) - idx < need:
                return
            joined = dict(up)
            if _join(joined, endpoints[idx]):
                chosen.append(idx)
                walk(idx + 1, chosen, joined)
                chosen.pop()
            walk(idx + 1, chosen, up)

        if n <= 1:
            return [frozenset()]
        walk(0, [], {})
        return trees


def _compact(g: Multigraph) -> _Compact:
    """Sorted vertices and, per edge in id order, its endpoints' indices;
    computed once per graph."""
    if g._compact is None:
        verts = sorted(g._vertices)
        index = {v: i for i, v in enumerate(verts)}
        ends = [g._edges[e] for e in sorted(g._edges)]
        g._compact = (
            tuple(verts),
            tuple([index[a] for a, _ in ends]),
            tuple([index[b] for _, b in ends]),
        )
    return g._compact


def _components(compact: _Compact) -> tuple[frozenset[VertexId], ...]:
    """The components of a compact graph, by a union-find whose roots are
    the smallest indices, so they come out by ascending minimum id."""
    verts, us, vs = compact
    up = list(range(len(verts)))
    for a, b in zip(us, vs):
        while a != up[a]:
            up[a] = a = up[up[a]]
        while b != up[b]:
            up[b] = b = up[up[b]]
        if a < b:
            up[b] = a
        elif b < a:
            up[a] = b
    classes: dict[int, list[VertexId]] = {}
    for i, v in enumerate(verts):
        # a parent has a smaller index, whose root is final by now
        r = up[i] = up[up[i]]
        classes.setdefault(r, []).append(v)
    return tuple(frozenset(c) for c in classes.values())


@dataclass(frozen=True)
class ContractionView:
    """Result of contracting an edge set, referred back to the base graph.

    ``vertex_map`` sends every original vertex to its image (the minimum
    original id in its contraction class); ``surviving`` maps each surviving
    original EdgeId to the image endpoints of its original endpoints.
    """

    base: Multigraph
    vertex_map: dict[VertexId, VertexId]
    surviving: dict[EdgeId, tuple[VertexId, VertexId]]

    @property
    def surviving_edges(self) -> frozenset[EdgeId]:
        return frozenset(self.surviving)

    def image_vertices(self) -> frozenset[VertexId]:
        return frozenset(self.vertex_map.values())

    def as_multigraph(self) -> Multigraph:
        """The contracted graph itself, on image vertices, original edge ids."""
        return Multigraph(self.surviving, vertices=self.image_vertices())
