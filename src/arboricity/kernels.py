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

The network is never built: a flow on it is stored per edge and per vertex.
Edge i has two slots, 2i for its flow to ``us[i]`` and 2i + 1 for its flow
to ``vs[i]``; ``ends[s]`` is the vertex of slot s and ``sent[s]`` the flow
on it.  ``room[i]`` is what the source can still feed edge i, q minus both
slots, and ``spare[v]`` what v can still drain, p minus the flow into v, or
0 once v is freed or deleted.  An augmenting path runs source -> edge ->
vertex, then from vertex to vertex through edges, then to the sink, so its
moves read on the vertices alone: the source reaches both ends of an edge
with room (such an edge sends less than q to either end), x moves to y
across an edge that sends x flow (cancelling it lets the edge send y more,
since it sends y less than q), and x reaches the sink when it has spare.
Every other residual step leads back to the source or to where it came
from.

Dinic's phases are those of the network.  Its levels alternate, edge
nodes odd and vertices even, so a vertex at network level 2k + 2 sits in
layer k of a breadth-first search over vertices whose layer 0 is the ends
of the edges with room.  A step x -> e -> y lies in the network's level
graph exactly when y's layer is one more than x's, since e's level is at
most x's plus one and at least y's minus one.  The sink's
level is one more than that of the first layer holding a vertex with spare,
so a phase's shortest paths end in that layer, and the search stops there.
The last phase, which finds no vertex with spare, has labelled exactly the
vertices that the source reaches in the residual network: the source side
of the smallest min cut.

A call walks its roots on one flow, carried from trial to trial (Gallo,
Grigoriadis & Tarjan, 1989).  The first, no-root trial starts from a
greedy fill: one pass sends each live edge's q units to its ends' spare,
``us[i]`` first, which is a feasible flow, and Dinic repairs only what it
left; most short augmenting paths of a cold start are never searched for.
Freeing a root drains the flow into it back to its edges' room; deleting a
vertex cancels the flow on its edges, returning what went to each
neighbour to that neighbour's spare; each trial then re-augments from the
residual graph left by the previous one.
``open`` lists the edges with room: each Dinic phase drops the full ones,
and freeing a root lists again the edges it reopens, so a warm trial scans
the freed root's edges at the source instead of all m.  The max-flow value
and the closed sets of the residual graph are the same for every max flow
(Picard & Queyranne, 1980), so no answer depends on where the flow started,
from zero, from the fill or from an earlier root's flow.

``sweep`` is the kernel's one walk.  It asks whether a connected vertex set
is denser than p/q: it peels vertices of degree <= p/q, which no such set
needs, runs one flow with no root as a shortcut, then one per root, and at
the first short trial returns the source side of its min cut (which may
induce several components; the caller picks one) and no sets.  A trial that
is not short proves that no witness contains its root.  When no trial is
short, p/q >= af, and the walk has read on the way every inclusion-minimal
vertex set of density exactly p/q; there is none when p/q > af.  So the
sweep that proves af also lists the minimal densest sets.

After a root r's trial that is not short, nothing live that contains r is
denser than p/q, so the min cuts of its flow are exactly the cuts of the
vertex sets {}, {r} and the sets of density p/q containing r, and by Picard
& Queyranne (1980) these are the closed sets of the residual graph; so the
smallest such set containing r and a vertex w is what w reaches in the
residual graph, unless w reaches the sink.  The trial leaves no edge with
room, so each live edge e = (x, y) passes q units in all to x and y, and no
flow enters r, which has no spare.  Hence x reaches y through e exactly
when e sends flow to x, and e leads nowhere else but to the source, where
no open arc leaves.  A root's sets are the *bottom* SCCs of the vertices
off the sink side, each with r added: those that hold a live vertex other
than r and reach no other SCC holding one.  Such an SCC plus r is exactly
what each of its vertices reaches: what it reaches holds r, since a cut
whose vertex set is not empty and misses r costs more than the max flow, q
per live edge.  No other set is needed: reach(w) contains reach(w') exactly
when w' lies in reach(w), and from any w the SCCs it reaches include a
bottom one, so every skipped set contains a listed one and the closing
minimality filter returns the same list.  Since every vertex of a bottom
SCC C reaches r, the last vertex before r on such a path is a neighbour y
of r whose edge sends y flow, and y lies in C, the only SCC that C reaches.
So the bottom SCCs are found by one Tarjan search from each such y, given
up at the first vertex with spare or that an earlier search found; a search
not given up ends at its first completed SCC, which is a bottom one.  A
root's work is thus bounded by what its neighbours reach.

A minimal densest set H with |H| >= 3 is found at its first root: no
earlier root lies in it, and the peel keeps it, since each vertex v of H
has inner degree > af.  Were it at most af, H - v would keep at least
af * (|H| - 2) edges on |H| - 1 vertices: connected, it would be denser than
af, or densest and smaller than H; split into c >= 2 components, one of
them would have density at least af * (|H| - 2) / (|H| - 1 - c) > af.  The
only minimal densest sets the peel can drop are pairs: a pair is densest
when it is joined by exactly af parallel edges, and then each of its ends
has inner degree af.  So when q = 1 one O(m) scan adds every pair joined by
exactly p parallel edges before the minimality filter, which then also
drops each listed set that holds such a pair.  No pair has density p/q
when q > 1.

``active()`` returns this module and ``NAME`` names it, so code that
inspects the kernel (its ``NAME``, its ``_trial``, called once per flow)
looks it up at call time.
"""

from __future__ import annotations

import sys
from collections import Counter, deque
from types import ModuleType
from typing import Callable, Iterator, Sequence

NAME = "pure"


def active() -> ModuleType:
    return sys.modules[__name__]


class _Walk:
    """One root walk: the flow over all n vertices and m edges of the call,
    carried from trial to trial, in the slots described above.

    A deleted edge has both slots and its room at 0, and a deleted vertex
    has no spare: no residual move enters or leaves either.  ``nbrs[x]``
    lists the slots into x; the neighbour across slot s is ``ends[s ^ 1]``.

    ``open`` lists every edge with room, each once: all m at first, then
    what ``_dinic`` keeps, plus the edges that ``free`` reopens.  Deleted
    edges may stay listed until the next phase drops them.  ``level`` holds
    the last trial's last phase labels: a vertex's layer, or -1 where the
    source does not reach it.
    """

    def __init__(
        self, n: int, us: Sequence[int], vs: Sequence[int], p: int, q: int,
        keep: Callable[[int], bool],
    ) -> None:
        m = len(us)
        self.n, self.q, self.keep = n, q, keep
        self.ends = [x for edge in zip(us, vs) for x in edge]
        self.sent, self.room, self.spare = [0] * (2 * m), [q] * m, [p] * n
        self.nbrs: list[list[int]] = [[] for _ in range(n)]
        for s, x in enumerate(self.ends):
            self.nbrs[x].append(s)
        self.open = list(range(m))
        self.level: list[int] = []
        self.flow, self.live = 0, m  # live: edges with both endpoints alive
        self.alive = [True] * n
        self.deg = [len(x) for x in self.nbrs]
        self.queue = deque(v for v in range(n) if not keep(self.deg[v]))

    def fill(self) -> None:
        """Send each live edge's room to its ends' spare in one pass, to
        ``us[i]`` first: a feasible flow that Dinic then only repairs."""
        ends, sent, room, spare = self.ends, self.sent, self.room, self.spare
        flow = 0
        for i in self.open:
            left = room[i]
            for s in (2 * i, 2 * i + 1):
                if not left:
                    break
                x = ends[s]
                f = spare[x] if spare[x] < left else left
                sent[s] += f
                spare[x] -= f
                left -= f
            flow += room[i] - left
            room[i] = left
        self.flow += flow

    def free(self, r: int) -> None:
        """Drain the flow into r back to its edges' room, listing each edge
        that this reopens, and take r's spare."""
        for s in self.nbrs[r]:
            i, f = s >> 1, self.sent[s]
            if f and not self.room[i]:
                self.open.append(i)
            self.room[i] += f
            self.sent[s] = 0
            self.flow -= f
        self.spare[r] = 0

    def delete(self, v: int) -> None:
        """Delete v and its live edges, cancelling the flow on them."""
        ends, sent, spare, deg, alive = self.ends, self.sent, self.spare, self.deg, self.alive
        alive[v] = False
        for s in self.nbrs[v]:
            w = ends[s ^ 1]
            if alive[w]:
                spare[w] += sent[s ^ 1]
                self.flow -= sent[s] + sent[s ^ 1]
                sent[s] = sent[s ^ 1] = self.room[s >> 1] = 0
                self.live -= 1
                deg[w] -= 1
                if self.keep(deg[w] + 1) and not self.keep(deg[w]):  # just failed: queue once
                    self.queue.append(w)
        spare[v] = 0

    def roots(self, first: int) -> Iterator[int]:
        """Yield the roots r from ``first`` (-1: no root) up, each freed;
        the no-root trial starts from the greedy ``fill``.

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
            else:
                self.fill()
            yield r
            if r >= 0:
                self.delete(r)


def _dinic(walk: _Walk) -> list[int]:
    """Augment the walk's flow to a max flow, and return its last phase's
    labels: the vertices labelled are those that the source reaches in its
    residual graph.

    Each phase first drops from ``open`` the edges with no room.  No
    augmenting path gives an edge room, so a dropped edge stays full; the
    last phase augments nothing, so on return ``open`` lists exactly the
    edges with room, in their old order.

    Each phase labels the vertices layer by layer, from the ends of the
    edges with room, and stops after the first layer that holds a vertex
    with spare; when no layer does, it has labelled the source's reach.
    A path starts at either end of an edge with room, moves from x to y
    across a slot into x with flow when y is one layer deeper, and ends at
    a vertex with spare, which only the last layer has.  ``it[x]`` is the
    next slot of x to try: a slot passed over stays unusable in the phase.
    A vertex with no slot left loses its label, so no path enters it again
    in the phase; the labels returned are the last phase's, which augments
    nothing.  Each phase allocates its ``level`` and ``it`` arrays of n slots afresh,
    which costs O(n) at C speed instead of a Python loop."""
    ends, nbrs, sent, room, spare = walk.ends, walk.nbrs, walk.sent, walk.room, walk.spare
    while True:
        walk.open = [i for i in walk.open if room[i]]
        starts = [a for i in walk.open for a in (2 * i, 2 * i + 1)]
        level = [-1] * walk.n
        depth, layer = 0, [ends[a] for a in starts]
        while True:
            layer = [x for x in dict.fromkeys(layer) if level[x] < 0]
            if not layer:
                return level
            for x in layer:
                level[x] = depth
            if any(spare[x] for x in layer):
                break
            layer = [ends[s ^ 1] for x in layer for s in nbrs[x] if sent[s]]
            depth += 1
        it = [0] * walk.n

        # walk augmenting paths from each start with an explicit stack of
        # slots: advance along the current slot of x, or retreat from a dead
        # end, which leaves the level graph, to its predecessor
        for a in starts:
            while room[a >> 1] and level[ends[a]] >= 0:
                path, x = [], ends[a]
                while not spare[x]:
                    slots, j, want = nbrs[x], it[x], level[x] + 1
                    end = len(slots)
                    while j < end:
                        s = slots[j]
                        if sent[s] and level[ends[s ^ 1]] == want:
                            break
                        j += 1
                    it[x] = j
                    if j < end:
                        path.append(s)
                        x = ends[s ^ 1]
                    else:
                        level[x] = -1
                        if not path:
                            break
                        x = ends[path.pop()]
                else:
                    pushed = min(room[a >> 1], spare[x], *[sent[s] for s in path])
                    room[a >> 1] -= pushed
                    sent[a] += pushed
                    spare[x] -= pushed
                    walk.flow += pushed
                    for s in path:
                        sent[s] -= pushed
                        sent[s ^ 1] += pushed


def _trial(walk: _Walk) -> bool:
    """Re-augment the walk's flow to a max flow on its live subgraph, and
    return whether it falls short of q times the number of live edges."""
    walk.level = _dinic(walk)
    return walk.flow < walk.q * walk.live


def _bottoms(walk: _Walk, r: int) -> list[list[int]]:
    """The vertices, ascending, of each bottom SCC of the last trial's
    residual graph with r added, for a trial that is not short with root r.
    A bottom SCC holds live vertices other than r, is off the sink side, and
    reaches no other SCC that holds such vertices.

    x has an arc to y for each edge that sends x flow; arcs into r, which no
    flow enters, are ignored.  One Tarjan search runs from each neighbour y
    of r whose edge sends y flow and that no earlier search found.  It gives
    up at a vertex with spare or that an earlier search found: every vertex
    on Tarjan's stack reaches that vertex, so none of them lies in a bottom
    SCC, and all of them stay found.  A search that is not given up ends at
    its first completed SCC: all it reaches lies in it, so it is a bottom
    SCC.  Every bottom SCC holds such a y, so some search meets it, and the
    first to do so finds nothing beyond it and completes it."""
    ends, nbrs, sent, spare = walk.ends, walk.nbrs, walk.sent, walk.spare
    index: dict[int, int] = {}  # order of discovery, over all searches
    low: dict[int, int] = {}
    order: list[int] = []  # the vertices found, in order of discovery
    bottoms: list[list[int]] = []
    for y in [ends[s ^ 1] for s in nbrs[r] if sent[s ^ 1]]:
        if y in index or spare[y]:
            continue
        # no SCC completes before a search ends, so its Tarjan stack is
        # order[base:], and a vertex found before base is an earlier search's
        base = index[y] = low[y] = len(order)
        order.append(y)
        calls = [(y, iter(nbrs[y]))]
        while calls:
            u, slots = calls[-1]
            for t in slots:
                v = ends[t ^ 1]
                if not sent[t] or v == r:
                    continue
                i = index.get(v)
                if i is None and not spare[v]:
                    index[v] = low[v] = len(order)
                    order.append(v)
                    calls.append((v, iter(nbrs[v])))
                    break
                if i is None or i < base:  # spare, or found earlier
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
) -> tuple[list[int] | None, list[list[int]]]:
    """``(witness, [])`` with the source-side vertices of a witness for
    density > p/q, or ``(None, minimal)`` with the inclusion-minimal vertex
    sets of density exactly p/q, ascending by their sorted vertex lists."""
    walk = _Walk(n, us, vs, p, q, lambda d: q * d > p)
    found: set[frozenset[int]] = set()
    for r in walk.roots(-1):
        if _trial(walk):
            return [x for x in range(n) if walk.level[x] >= 0], []
        if r >= 0:
            found.update(frozenset(dense) for dense in _bottoms(walk, r))
    if q == 1:  # the sets the peel can drop: pairs of exactly p parallel edges
        bundles = Counter((min(e), max(e)) for e in zip(us, vs))
        found.update(frozenset(e) for e, k in bundles.items() if k == p)
    return None, sorted(sorted(d) for d in found if not any(m < d for m in found))
