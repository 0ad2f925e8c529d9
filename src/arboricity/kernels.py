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
w reaches the sink.  Each root takes one backward search from the sink and
one pass of Tarjan's algorithm over the residual nodes that cannot reach
it, and then one forward search per *bottom* SCC: one that holds a live
vertex other than r, with no such vertex in any SCC it reaches.  No other
search is needed: reach(w) contains reach(w') exactly when w' lies in
reach(w), and from any w the SCCs it reaches include a bottom one, so every
skipped set contains a searched one and the closing minimality filter
returns the same list.  A minimal densest set is found at its first root:
no earlier root lies in it, and every vertex of it has degree >= af inside
it, so the peel (strict here, since a 2-vertex set of af parallel edges has
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
    residual arc enters or leaves it.

    ``adj[source]`` lists every source arc that can carry flow, each once:
    all m at first, then what ``_dinic`` keeps, plus the arcs that ``free``
    reopens, which it lists again.  Zeroed arcs of deleted edges may stay
    listed until the next phase drops them.  Searches that expand the source
    only follow open arcs, so none of them misses an arc; the backward
    search from the sink never reaches the source after a max flow.
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
        self.into_sink: set[int] | None = None  # of the last trial, once built
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

    def reaching_sink(self) -> set[int]:
        """The nodes that reach the sink in the residual graph of the last
        trial, from one backward search built on the first call after it."""
        if self.into_sink is None:
            self.into_sink = _reach(self.adj, self.arc_to, self.cap, self.sink, False)
        return self.into_sink

    def free(self, r: int) -> None:
        """Close r's sink arc, first draining its flow back to the source
        and listing each source arc that this reopens."""
        cap, us, source_arcs = self.cap, self.us, self.adj[self.source]
        s = self.sink_arc + 2 * r
        self.flow -= cap[s + 1]
        for i in self.inc[r]:
            a = 6 * i + (2 if us[i] == r else 4)
            f = cap[a + 1]
            if f:
                cap[a] += f
                cap[a + 1] = 0
                if not cap[6 * i]:
                    source_arcs.append(6 * i)
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
    walk.into_sink = None

    def side(v: int) -> list[int] | None:
        if v >= 0 and v in walk.reaching_sink():
            return None
        seen = _reach(adj, arc_to, cap, v if v >= 0 else walk.source, True)
        return sorted(x for x in seen if x < n)

    return walk.flow < walk.q * walk.live, side


def _bottoms(walk: _Walk, r: int) -> list[int]:
    """One live vertex other than r from each bottom SCC of the last trial's
    residual graph: an SCC that holds such a vertex, with none in any SCC it
    reaches.  Searches the nodes that those vertices reach and that do not
    reach the sink, in one iterative pass of Tarjan's algorithm."""
    adj, arc_to, cap, alive = walk.adj, walk.arc_to, walk.cap, walk.alive
    into_sink = walk.reaching_sink()
    index = [-1] * walk.num_nodes  # order of discovery
    low = [0] * walk.num_nodes
    done = [False] * walk.num_nodes  # its SCC has been emitted
    # emitted: the SCC reaches a live vertex other than r; on the stack: the
    # node has an arc into an emitted SCC that does
    hit = [False] * walk.num_nodes
    stack: list[int] = []
    bottoms: list[int] = []
    count = 0
    for w in range(walk.n):
        if w == r or not alive[w] or index[w] >= 0 or w in into_sink:
            continue
        # no residual arc enters into_sink from outside it, so the search
        # below never enters it
        index[w] = low[w] = count
        count += 1
        stack.append(w)
        calls = [(w, iter(adj[w]))]
        while calls:
            u, arcs = calls[-1]
            for a in arcs:
                if cap[a] > 0:
                    v = arc_to[a]
                    if index[v] < 0:
                        index[v] = low[v] = count
                        count += 1
                        stack.append(v)
                        calls.append((v, iter(adj[v])))
                        break
                    if done[v]:
                        hit[u] = hit[u] or hit[v]
                    elif index[v] < low[u]:
                        low[u] = index[v]
            else:
                calls.pop()
                if low[u] == index[u]:  # u roots an SCC; all it reaches is emitted
                    k = len(stack) - 1
                    while stack[k] != u:
                        k -= 1
                    members = stack[k:]
                    del stack[k:]
                    below = any(hit[x] for x in members)
                    mine = [x for x in members if x < walk.n and x != r]
                    if mine and not below:
                        bottoms.append(mine[0])
                    for x in members:
                        done[x] = True
                        hit[x] = below or bool(mine)
                if calls:
                    t = calls[-1][0]
                    hit[t] = hit[t] or hit[u]
                    if not done[u] and low[u] < low[t]:
                        low[t] = low[u]
    return bottoms


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
    for r in walk.roots(0):
        short, side = _trial(walk)
        if short:
            return None
        for w in _bottoms(walk, r):
            found.add(frozenset(side(w)))
    minimal: list[frozenset[int]] = []
    for dense in sorted(found, key=len):
        if not any(m <= dense for m in minimal):
            minimal.append(dense)
    return sorted(sorted(m) for m in minimal)
