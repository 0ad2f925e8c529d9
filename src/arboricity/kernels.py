"""The flow kernel: integer max-flow questions on a compact multigraph, the
hot inner loop of the package, in pure Python.

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
by the previous one.  The source's arc list holds only the source arcs that
can still carry flow: each Dinic phase drops the saturated ones, and freeing
a root lists again the arcs it reopens, so a warm trial scans the freed
root's edges at the source instead of all m.  The max-flow value and the
closed sets of the residual graph are the same for every max flow (Picard &
Queyranne, 1980), so no answer depends on where the flow started.

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
w reaches the sink.  A trial at af that is not short saturates every live
source arc, so each edge e = (x, y) passes q units in all to x and y, and
no flow enters r, whose sink arc is closed.  Hence x reaches y through e
exactly when e sends flow to x, and e leads nowhere else but to the source,
where no open arc leaves: reachability among vertices, and their SCCs, can
be read on the vertices alone.  A root's sets are the *bottom* SCCs of the
vertices off the sink side, each with r added: those that hold a live
vertex other than r and reach no other SCC holding one.  Such an SCC plus r
is exactly what each of its vertices reaches: what it reaches holds r,
since a cut whose vertex set is not empty and misses r costs more than the
max flow, q per live edge.  No other set is needed: reach(w) contains
reach(w') exactly when w' lies in reach(w), and from any w the SCCs it
reaches include a bottom one, so every skipped set contains a listed one
and the closing minimality filter returns the same list.  Since every
vertex of a bottom SCC C reaches r, the last vertex before r on such a path
is a neighbour y of r whose edge sends y flow, and y lies in C, the only
SCC that C reaches.  So the bottom SCCs are found by one Tarjan search from
each such y, given up at the first vertex whose sink arc is open or that
an earlier search found; a search not given up ends at its first completed
SCC, which is a bottom one.  A root's work is thus bounded by what its
neighbours reach.  A minimal densest set is found at its first root: no
earlier root lies in it, and every vertex of it has degree >= af inside it,
so the peel (strict here, since a 2-vertex set of af parallel edges has
degree exactly af) keeps it.

``active()`` returns this module and ``NAME`` names it, so code that
inspects the kernel (its ``NAME``, its ``_trial``, called once per flow)
looks it up at call time.
"""

from __future__ import annotations

import sys
from collections import deque
from types import ModuleType
from typing import Callable, Iterator, Sequence

NAME = "pure"


def active() -> ModuleType:
    return sys.modules[__name__]


def _dinic(
    num_nodes: int,
    adj: list[list[int]],
    arc_to: list[int],
    arc_cap: list[int],
    source: int,
    sink: int,
) -> int:
    """Max flow; ``arc_cap`` holds residual capacities and is mutated.

    Each phase first drops from ``adj[source]`` the arcs with no residual
    capacity.  No augmenting path re-enters the source, so a source arc's
    capacity only falls within one call and a dropped arc stays unusable;
    the last phase augments nothing, so on return ``adj[source]`` lists
    exactly the open source arcs, in their old order.

    Each phase's breadth-first search stops once the sink has its level: every
    node one layer before the sink is labelled by then, so the phase's
    shortest augmenting paths, and the blocking flow along them, are those of
    the whole level graph.  Each phase allocates its ``level`` and ``it``
    arrays afresh, which costs O(n) at C speed instead of a Python loop, and
    a node's scan of its arcs keeps its position and target level in locals
    and stores ``it[u]`` once per scan."""
    flow = 0

    while True:
        adj[source] = [a for a in adj[source] if arc_cap[a] > 0]
        level = [-1] * num_nodes
        level[source] = 0
        queue = deque([source])
        while queue and level[sink] < 0:
            u = queue.popleft()
            d = level[u] + 1
            for a in adj[u]:
                if arc_cap[a] > 0:
                    v = arc_to[a]
                    if level[v] < 0:
                        level[v] = d
                        queue.append(v)
        if level[sink] < 0:
            return flow
        it = [0] * num_nodes

        # walk augmenting paths of the level graph with an explicit stack of
        # arcs: advance along the current arc of u, or retreat from a dead end
        # and move on to the next arc of its predecessor
        while True:
            path: list[int] = []
            u = source
            while u != sink:
                arcs, i, want = adj[u], it[u], level[u] + 1
                end = len(arcs)
                while i < end:
                    a = arcs[i]
                    if arc_cap[a] > 0 and level[arc_to[a]] == want:
                        break
                    i += 1
                it[u] = i
                if i < end:
                    path.append(a)
                    u = arc_to[a]
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
    residual arc enters or leaves it.  ``nbrs[x]`` holds, for each edge e
    between x and y, the triple (y, arc e->x, arc e->y); e's arcs start at
    ``a - a % 6`` for either of them.

    ``adj[source]`` lists every source arc that can carry flow, each once:
    all m at first, then what ``_dinic`` keeps, plus the arcs that ``free``
    reopens, which it lists again.  Zeroed arcs of deleted edges may stay
    listed until the next phase drops them.  The one search over the whole
    network, ``sweep``'s from the source, follows only open arcs, so it
    misses none.
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
        self.nbrs: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        for i in range(m):  # appended in this order, arcs get the indices above
            self._arc(self.source, n + i, q)
            self._arc(n + i, us[i], q)
            self._arc(n + i, vs[i], q)
            self.nbrs[us[i]].append((vs[i], 6 * i + 2, 6 * i + 4))
            self.nbrs[vs[i]].append((us[i], 6 * i + 4, 6 * i + 2))
        for v in range(n):
            self._arc(v, self.sink, p)
        self.sink_arc = 6 * m  # vertex v's is sink_arc + 2v
        self.flow = 0
        self.live = m  # edges with both endpoints alive
        self.alive = [True] * n
        self.deg = [len(x) for x in self.nbrs]
        self.queue = deque(v for v in range(n) if not keep(self.deg[v]))

    def _arc(self, a: int, b: int, cap: int) -> None:
        self.adj[a].append(len(self.arc_to))
        self.arc_to.append(b)
        self.cap.append(cap)
        self.adj[b].append(len(self.arc_to))
        self.arc_to.append(a)
        self.cap.append(0)

    def free(self, r: int) -> None:
        """Close r's sink arc, first draining its flow back to the source
        and listing each source arc that this reopens."""
        cap, source_arcs = self.cap, self.adj[self.source]
        s = self.sink_arc + 2 * r
        self.flow -= cap[s + 1]
        for _, a, _ in self.nbrs[r]:
            f = cap[a + 1]
            if f:
                cap[a] += f
                cap[a + 1] = 0
                e = a - a % 6
                if not cap[e]:
                    source_arcs.append(e)
                cap[e] += f
                cap[e + 1] -= f
        cap[s] = cap[s + 1] = 0

    def delete(self, v: int) -> None:
        """Delete v and its live edges, cancelling the flow through them."""
        cap, deg, alive, keep, sink_arc = self.cap, self.deg, self.alive, self.keep, self.sink_arc
        alive[v] = False
        for w, a, b in self.nbrs[v]:
            if not alive[w]:
                continue
            for end, arc in ((v, a), (w, b)):
                f = cap[arc + 1]
                if f:
                    s = sink_arc + 2 * end
                    cap[s] += f
                    cap[s + 1] -= f
                    self.flow -= f
            e = a - a % 6
            cap[e : e + 6] = (0, 0, 0, 0, 0, 0)
            self.live -= 1
            deg[w] -= 1
            if keep(deg[w] + 1) and not keep(deg[w]):  # just failed: queue once
                self.queue.append(w)
        s = sink_arc + 2 * v
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


def _trial(walk: _Walk) -> bool:
    """Re-augment the walk's flow to a max flow on its live subgraph, and
    return whether it falls short of q times the number of live edges."""
    walk.flow += _dinic(walk.num_nodes, walk.adj, walk.arc_to, walk.cap, walk.source, walk.sink)
    return walk.flow < walk.q * walk.live


def _bottoms(walk: _Walk, r: int) -> list[list[int]]:
    """The vertices, ascending, of each bottom SCC of the last trial's
    residual graph with r added, for a trial at af that is not short with
    root r.  A bottom SCC holds live vertices other than r, is off the sink
    side, and reaches no other SCC that holds such vertices.

    x has an arc to y for each edge that sends x flow; arcs into r, which no
    flow enters, are ignored.  One Tarjan search runs from each neighbour y
    of r whose edge sends y flow and that no earlier search found.  It gives
    up at a vertex whose sink arc is open or that an earlier search found:
    every vertex on Tarjan's stack reaches that vertex, so none of them lies
    in a bottom SCC, and all of them stay found.  A search that is not given
    up ends at its first completed SCC: all it reaches lies in it, so it is
    a bottom SCC.  Every bottom SCC holds such a y, so some search meets it,
    and the first to do so finds nothing beyond it and completes it."""
    nbrs, cap, sink_arc = walk.nbrs, walk.cap, walk.sink_arc
    index: dict[int, int] = {}  # order of discovery, over all searches
    low: dict[int, int] = {}
    order: list[int] = []  # the vertices found, in order of discovery
    bottoms: list[list[int]] = []
    for y, _, b in nbrs[r]:
        if not cap[b + 1] or y in index or cap[sink_arc + 2 * y]:
            continue
        # no SCC completes before a search ends, so its Tarjan stack is
        # order[base:], and a vertex found before base is an earlier search's
        base = index[y] = low[y] = len(order)
        order.append(y)
        calls = [(y, iter(nbrs[y]))]
        while calls:
            u, arcs = calls[-1]
            for v, a, _ in arcs:
                if not cap[a + 1] or v == r:
                    continue
                i = index.get(v)
                if i is None and not cap[sink_arc + 2 * v]:
                    index[v] = low[v] = len(order)
                    order.append(v)
                    calls.append((v, iter(nbrs[v])))
                    break
                if i is None or i < base:  # open sink arc, or found earlier
                    calls.clear()
                    break
                if i < low[u]:
                    low[u] = i
            else:
                calls.pop()
                if low[u] == index[u]:  # the first completed SCC
                    bottoms.append(sorted(order[index[u] :] + [r]))
                    break
                t = calls[-1][0]
                if low[u] < low[t]:
                    low[t] = low[u]
    return bottoms


def sweep(
    n: int, us: Sequence[int], vs: Sequence[int], p: int, q: int
) -> list[int] | None:
    """Find source-side vertices of a witness for density > p/q, or None."""
    walk = _Walk(n, us, vs, p, q, lambda d: q * d > p)
    for _ in walk.roots(-1):
        if _trial(walk):
            # the smallest min cut's source side: a short flow leaves source
            # arcs open, so the search runs on the whole network
            seen = _reach(walk.adj, walk.arc_to, walk.cap, walk.source, True)
            return sorted(x for x in seen if x < n)
    return None


def minimal_densest(
    n: int, us: Sequence[int], vs: Sequence[int], p: int, q: int
) -> list[list[int]] | None:
    """The inclusion-minimal vertex sets of density exactly p/q, ascending by
    their sorted vertex lists; None when some set is denser than p/q."""
    found: set[frozenset[int]] = set()
    walk = _Walk(n, us, vs, p, q, lambda d: q * d >= p)
    for r in walk.roots(0):
        if _trial(walk):
            return None
        found.update(frozenset(dense) for dense in _bottoms(walk, r))
    minimal: list[frozenset[int]] = []
    for dense in sorted(found, key=len):
        if not any(m <= dense for m in minimal):
            minimal.append(dense)
    return sorted(sorted(m) for m in minimal)
