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

A call walks its roots on one network, built once over all its vertices and
edges, and carries one max flow on it from trial to trial (Gallo,
Grigoriadis & Tarjan, 1989).  Freeing a root drains its sink flow back to
the source; deleting a vertex or an edge cancels the flow through it and
zeroes its arcs; each trial then re-augments from the residual graph left
by the previous one.  The max-flow value and the closed sets of the
residual graph are the same for every max flow (Picard & Queyranne, 1980),
so no answer depends on where the flow started.

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


class _Walk:
    """One root walk: the network over all n vertices and m edges of the
    call, built once, and the max flow carried on it from trial to trial.

    Edge i is node n + i with arcs source->e, e->us[i] and e->vs[i] at 6i,
    6i + 2 and 6i + 4; vertex v is node v with its sink arc at 6m + 2v.
    Every reverse arc starts at 0, so the flow on arc a is ``cap[a ^ 1]``.
    A deleted edge or vertex has all its arcs at 0 in both directions: no
    residual arc enters or leaves it.
    """

    def __init__(
        self, n: int, us: Sequence[int], vs: Sequence[int], p: int, q: int,
        keep: Callable[[int], bool],
    ) -> None:
        m = len(us)
        self.n, self.us, self.vs, self.q, self.keep = n, us, vs, q, keep
        self.num_nodes = n + m + 2
        self.source, self.sink = n + m, n + m + 1
        self.adj: list[list[int]] = [[] for _ in range(self.num_nodes)]
        self.arc_to: list[int] = []
        self.cap: list[int] = []
        self.inc: list[list[int]] = [[] for _ in range(n)]
        self.deg = [0] * n
        for i in range(m):  # appended in this order, arcs get the indices above
            self._arc(self.source, n + i, q)
            self._arc(n + i, us[i], q)
            self._arc(n + i, vs[i], q)
            for v in (us[i], vs[i]):
                self.inc[v].append(i)
                self.deg[v] += 1
        for v in range(n):
            self._arc(v, self.sink, p)
        self.sink_arc = 6 * m  # vertex v's is sink_arc + 2v
        self.flow = 0
        self.live = m  # edges with both endpoints alive
        self.alive = [True] * n
        self.queue = deque(v for v in range(n) if not keep(self.deg[v]))

    def _arc(self, a: int, b: int, cap: int) -> None:
        self.adj[a].append(len(self.arc_to))
        self.arc_to.append(b)
        self.cap.append(cap)
        self.adj[b].append(len(self.arc_to))
        self.arc_to.append(a)
        self.cap.append(0)

    def free(self, r: int) -> None:
        """Close r's sink arc, first draining its flow back to the source."""
        cap, us = self.cap, self.us
        s = self.sink_arc + 2 * r
        self.flow -= cap[s + 1]
        for i in self.inc[r]:
            a = 6 * i + (2 if us[i] == r else 4)
            f = cap[a + 1]
            if f:
                cap[a] += f
                cap[a + 1] = 0
                cap[6 * i] += f
                cap[6 * i + 1] -= f
        cap[s] = cap[s + 1] = 0

    def delete(self, v: int) -> None:
        """Delete v and its live edges, cancelling the flow through them."""
        cap, us, vs, deg, alive, keep = self.cap, self.us, self.vs, self.deg, self.alive, self.keep
        alive[v] = False
        for i in self.inc[v]:
            w = vs[i] if us[i] == v else us[i]
            if not alive[w]:
                continue
            for end, a in ((us[i], 6 * i + 2), (vs[i], 6 * i + 4)):
                f = cap[a + 1]
                if f:
                    s = self.sink_arc + 2 * end
                    cap[s] += f
                    cap[s + 1] -= f
                    self.flow -= f
            cap[6 * i : 6 * i + 6] = (0, 0, 0, 0, 0, 0)
            self.live -= 1
            deg[w] -= 1
            if keep(deg[w] + 1) and not keep(deg[w]):  # just failed: queue once
                self.queue.append(w)
        s = self.sink_arc + 2 * v
        cap[s] = cap[s + 1] = 0

    def roots(self, first: int) -> Iterator[int]:
        """Yield the roots r from ``first`` (-1: no root) up, each freed.

        Vertices whose live degree d fails ``keep(d)`` are peeled before the
        first root and after each root, which is deleted once its trial is
        done.  Dead vertices are skipped; the walk ends when no live edge is
        left.
        """
        queue, alive = self.queue, self.alive
        for r in range(first, self.n):
            while queue:
                v = queue.popleft()
                if alive[v]:
                    self.delete(v)
            if r >= 0 and not alive[r]:
                continue
            if not self.live:
                return
            if r >= 0:
                self.free(r)
            yield r
            if r >= 0:
                self.delete(r)


def _trial(walk: _Walk) -> tuple[bool, Callable[[int], list[int] | None]]:
    """Re-augment the walk's flow to a max flow on its live subgraph.

    Returns whether the flow falls short of q times the number of live edges,
    and ``side(v)``: the live vertices, ascending, on the source side of the
    smallest min cut (v < 0) or of the smallest min cut that holds vertex v
    there, or None when no min cut does.
    """
    adj, arc_to, cap, n = walk.adj, walk.arc_to, walk.cap, walk.n
    walk.flow += _dinic(walk.num_nodes, adj, arc_to, cap, walk.source, walk.sink)
    into_sink: set[int] | None = None  # built on the first call that needs it

    def side(v: int) -> list[int] | None:
        nonlocal into_sink
        if v >= 0:
            if into_sink is None:
                into_sink = _reach(adj, arc_to, cap, walk.sink, False)
            if v in into_sink:
                return None
        seen = _reach(adj, arc_to, cap, v if v >= 0 else walk.source, True)
        return sorted(x for x in seen if x < n)

    return walk.flow < walk.q * walk.live, side


def sweep(
    n: int, us: Sequence[int], vs: Sequence[int], p: int, q: int
) -> list[int] | None:
    """Find source-side vertices of a witness for density > p/q, or None."""
    walk = _Walk(n, us, vs, p, q, lambda d: q * d > p)
    for _ in walk.roots(-1):
        short, side = _trial(walk)
        if short:
            return side(-1)
    return None


def minimal_densest(
    n: int, us: Sequence[int], vs: Sequence[int], p: int, q: int
) -> list[list[int]] | None:
    """The inclusion-minimal vertex sets of density exactly p/q, ascending by
    their sorted vertex lists; None when some set is denser than p/q."""
    found: set[frozenset[int]] = set()
    walk = _Walk(n, us, vs, p, q, lambda d: q * d >= p)
    alive = walk.alive
    for r in walk.roots(0):
        short, side = _trial(walk)
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
