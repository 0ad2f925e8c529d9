"""Density kernel in pure Python: the hot inner loop of the package.

Every exact decision is an integer max flow on one network: the source
feeds each live edge q units, an edge passes them to its two endpoints, and
each vertex drains p units into the sink.  Forcing a root r to be free (its
sink arc gets capacity 0) prices vertex sets containing r by p/q per vertex
*beyond* r, so the maximum of q*m(U) - p*(|U|-1) over U containing r is
positive exactly when the max flow falls short of q times the number of live
edges.  Roots are taken in ascending order; before the first and after each
root is deleted, vertices that no wanted set can contain are peeled by
degree.

``sweep`` asks whether a connected vertex set is denser than p/q.  It peels
vertices of degree <= p/q, runs one flow with no root as a shortcut, then one
per root, and returns the source side of a min cut witnessing the first
successful trial (which may induce several components; the caller picks
one), or None.  A failed root proves no witness contains it.

``minimal_densest`` reads, at p/q = af, every minimal densest vertex set.
At af the min cuts of a root's flow are exactly the cuts of the vertex sets
{}, {r} and the densest sets containing r, and by Picard & Queyranne (1980)
these are the closed sets of the residual graph; so the smallest densest set
containing r and a vertex w is what w reaches in the residual graph, unless
w reaches the sink.  A minimal densest set is found at its first root: no
earlier root lies in it, and every vertex of it has degree >= af inside it,
so the peel (strict here, since a 2-vertex set of af parallel edges has
degree exactly af) keeps it.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterator, Sequence

NAME = "pure"


def _dinic(
    num_nodes: int,
    adj: list[list[int]],
    arc_to: list[int],
    arc_cap: list[int],
    source: int,
    sink: int,
) -> int:
    """Max flow; ``arc_cap`` holds residual capacities and is mutated."""
    flow = 0
    level = [0] * num_nodes
    it = [0] * num_nodes

    while True:
        for i in range(num_nodes):
            level[i] = -1
        level[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for a in adj[u]:
                if arc_cap[a] > 0 and level[arc_to[a]] < 0:
                    level[arc_to[a]] = level[u] + 1
                    queue.append(arc_to[a])
        if level[sink] < 0:
            return flow
        for i in range(num_nodes):
            it[i] = 0

        # walk augmenting paths of the level graph with an explicit stack of
        # arcs: advance along the current arc of u, or retreat from a dead end
        # and move on to the next arc of its predecessor
        while True:
            path: list[int] = []
            u = source
            while u != sink:
                arcs = adj[u]
                while it[u] < len(arcs):
                    a = arcs[it[u]]
                    if arc_cap[a] > 0 and level[arc_to[a]] == level[u] + 1:
                        path.append(a)
                        u = arc_to[a]
                        break
                    it[u] += 1
                else:
                    if not path:
                        break
                    u = arc_to[path.pop() ^ 1]
                    it[u] += 1
            if u != sink:
                break
            pushed = min(arc_cap[a] for a in path)
            for a in path:
                arc_cap[a] -= pushed
                arc_cap[a ^ 1] += pushed
            flow += pushed


def _reach(
    adj: list[list[int]], arc_to: list[int], arc_cap: list[int], start: int, forward: bool
) -> set[int]:
    """Nodes reachable from ``start`` in the residual graph (reaching it if not
    ``forward``)."""
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for a in adj[u]:
            v = arc_to[a]
            if v not in seen and arc_cap[a if forward else a ^ 1] > 0:
                seen.add(v)
                stack.append(v)
    return seen


def _trial(
    n: int,
    us: Sequence[int],
    vs: Sequence[int],
    alive: list[bool],
    p: int,
    q: int,
    root: int,
) -> tuple[bool, Callable[[int], list[int] | None]]:
    """One flow on the live subgraph; ``root`` < 0 means no forced vertex.

    Returns whether the flow falls short of q times the number of live edges,
    and ``side(v)``: the live vertices, ascending, on the source side of the
    smallest min cut (v < 0) or of the smallest min cut that holds vertex v
    there, or None when no min cut does.
    """
    verts = [v for v in range(n) if alive[v]]
    node = [0] * n
    for i, v in enumerate(verts):
        node[v] = 1 + i
    nv = len(verts)
    elist = [i for i in range(len(us)) if alive[us[i]] and alive[vs[i]]]
    me = len(elist)

    num_nodes = 1 + nv + me + 1
    sink = num_nodes - 1
    adj: list[list[int]] = [[] for _ in range(num_nodes)]
    arc_to: list[int] = []
    arc_cap: list[int] = []

    def add_arc(a: int, b: int, cap: int) -> None:
        adj[a].append(len(arc_to))
        arc_to.append(b)
        arc_cap.append(cap)
        adj[b].append(len(arc_to))
        arc_to.append(a)
        arc_cap.append(0)

    for j, i in enumerate(elist):
        enode = 1 + nv + j
        add_arc(0, enode, q)
        add_arc(enode, node[us[i]], q)
        add_arc(enode, node[vs[i]], q)
    for v in verts:
        add_arc(node[v], sink, 0 if v == root else p)

    flow = _dinic(num_nodes, adj, arc_to, arc_cap, 0, sink)
    into_sink: set[int] | None = None  # built on the first call that needs it

    def side(v: int) -> list[int] | None:
        nonlocal into_sink
        if v >= 0:
            if into_sink is None:
                into_sink = _reach(adj, arc_to, arc_cap, sink, False)
            if node[v] in into_sink:
                return None
        seen = _reach(adj, arc_to, arc_cap, node[v] if v >= 0 else 0, True)
        return sorted(verts[x - 1] for x in seen if 0 < x <= nv)

    return flow < q * me, side


def _roots(
    n: int, us: Sequence[int], vs: Sequence[int], keep: Callable[[int], bool], first: int
) -> Iterator[tuple[list[bool], int]]:
    """Yield ``(alive, r)`` for the roots r from ``first`` (-1: no root) up.

    Vertices whose live degree d fails ``keep(d)`` are peeled before the
    first root and after each root, which is deleted once its trial is done.
    Dead vertices are skipped; the walk ends when no live edge is left.
    """
    m = len(us)
    inc: list[list[int]] = [[] for _ in range(n)]
    deg = [0] * n
    for i in range(m):
        inc[us[i]].append(i)
        inc[vs[i]].append(i)
        deg[us[i]] += 1
        deg[vs[i]] += 1
    alive = [True] * n
    queue = deque(v for v in range(n) if not keep(deg[v]))

    def delete(v: int) -> None:
        alive[v] = False
        for i in inc[v]:
            w = vs[i] if us[i] == v else us[i]
            if alive[w]:
                deg[w] -= 1
                if keep(deg[w] + 1) and not keep(deg[w]):  # just failed: queue once
                    queue.append(w)

    for r in range(first, n):
        while queue:
            v = queue.popleft()
            if alive[v]:
                delete(v)
        if r >= 0 and not alive[r]:
            continue
        if not any(alive[us[i]] and alive[vs[i]] for i in range(m)):
            return
        yield alive, r
        if r >= 0:
            delete(r)


def sweep(
    n: int, us: Sequence[int], vs: Sequence[int], p: int, q: int
) -> list[int] | None:
    """Find source-side vertices of a witness for density > p/q, or None."""
    for alive, r in _roots(n, us, vs, lambda d: q * d > p, -1):
        short, side = _trial(n, us, vs, alive, p, q, r)
        if short:
            return side(-1)
    return None


def minimal_densest(
    n: int, us: Sequence[int], vs: Sequence[int], p: int, q: int
) -> list[list[int]] | None:
    """The inclusion-minimal vertex sets of density exactly p/q, ascending by
    their sorted vertex lists; None when some set is denser than p/q."""
    found: set[frozenset[int]] = set()
    for alive, r in _roots(n, us, vs, lambda d: q * d >= p, 0):
        short, side = _trial(n, us, vs, alive, p, q, r)
        if short:
            return None
        for w in range(n):
            if alive[w] and w != r:
                dense = side(w)
                if dense is not None:
                    found.add(frozenset(dense))
    minimal: list[frozenset[int]] = []
    for dense in sorted(found, key=len):
        if not any(m <= dense for m in minimal):
            minimal.append(dense)
    return sorted(sorted(m) for m in minimal)
