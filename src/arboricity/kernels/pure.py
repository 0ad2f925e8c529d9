"""Density-witness kernel in pure Python: the hot inner loop of the package.

The kernel answers one question: given a multigraph (compact integer arrays)
and a rational threshold p/q, is there a connected vertex set U whose induced
density m(U)/(|U|-1) exceeds p/q?  It returns the source side of a min cut
witnessing the first successful trial (which may induce several components;
the caller picks one), or None.

Procedure: peel vertices of degree <= p/q (cannot belong to a vertex-minimal
witness, and removing them keeps some witness intact); run one flow with no
root as a shortcut; then force each surviving vertex r in ascending order to
be free (its sink arc gets capacity 0), which prices vertex sets containing r
by p/q per vertex *beyond* r.  A witness containing r makes the maximum of
q*m(U) - p*(|U|-1) positive, i.e. the max flow falls short of q times the
number of live edges.  A failed root proves no witness contains it, so it is
deleted before the next trial.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

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
    # no augmenting path carries more than the source can send, so this
    # limit never binds, whatever the size of the capacities
    INF = sum(arc_cap[a] for a in adj[source]) + 1

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

        def dfs(u: int, limit: int) -> int:
            if u == sink:
                return limit
            while it[u] < len(adj[u]):
                a = adj[u][it[u]]
                v = arc_to[a]
                if arc_cap[a] > 0 and level[v] == level[u] + 1:
                    pushed = dfs(v, min(limit, arc_cap[a]))
                    if pushed > 0:
                        arc_cap[a] -= pushed
                        arc_cap[a ^ 1] += pushed
                        return pushed
                it[u] += 1
            return 0

        while True:
            pushed = dfs(source, INF)
            if pushed == 0:
                break
            flow += pushed


def _trial(
    n: int,
    us: Sequence[int],
    vs: Sequence[int],
    alive: list[bool],
    p: int,
    q: int,
    root: int,
) -> list[int] | None:
    """One flow on the live subgraph; ``root`` < 0 means no forced vertex."""
    vidx = [-1] * n
    nv = 0
    for v in range(n):
        if alive[v]:
            vidx[v] = nv
            nv += 1
    elist = [i for i in range(len(us)) if alive[us[i]] and alive[vs[i]]]
    me = len(elist)
    if me == 0:
        return None

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
        add_arc(enode, 1 + vidx[us[i]], q)
        add_arc(enode, 1 + vidx[vs[i]], q)
    for v in range(n):
        if alive[v]:
            add_arc(1 + vidx[v], sink, 0 if v == root else p)

    flow = _dinic(num_nodes, adj, arc_to, arc_cap, 0, sink)
    if flow >= q * me:
        return None

    # Source side of the min cut: nodes reachable from s in the residual.
    seen = [False] * num_nodes
    seen[0] = True
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for a in adj[u]:
            v2 = arc_to[a]
            if arc_cap[a] > 0 and not seen[v2]:
                seen[v2] = True
                queue.append(v2)
    return [v for v in range(n) if alive[v] and seen[1 + vidx[v]]]


def sweep(
    n: int, us: Sequence[int], vs: Sequence[int], p: int, q: int
) -> list[int] | None:
    """Find source-side vertices of a witness for density > p/q, or None."""
    m = len(us)
    if n == 0 or m == 0:
        return None

    inc: list[list[int]] = [[] for _ in range(n)]
    deg = [0] * n
    for i in range(m):
        inc[us[i]].append(i)
        inc[vs[i]].append(i)
        deg[us[i]] += 1
        deg[vs[i]] += 1
    alive = [True] * n
    queued = [False] * n  # each vertex enters the peel queue at most once
    queue: deque[int] = deque()

    def push(v: int) -> None:
        if alive[v] and not queued[v]:
            queued[v] = True
            queue.append(v)

    def drain() -> None:
        while queue:
            v = queue.popleft()
            if not alive[v]:
                continue
            alive[v] = False
            for i in inc[v]:
                w = vs[i] if us[i] == v else us[i]
                if alive[w]:
                    deg[w] -= 1
                    if q * deg[w] <= p:
                        push(w)

    for v in range(n):
        if q * deg[v] <= p:
            push(v)
    drain()

    def have_edges() -> bool:
        return any(alive[us[i]] and alive[vs[i]] for i in range(m))

    if not have_edges():
        return None

    result = _trial(n, us, vs, alive, p, q, -1)
    if result is not None:
        return result

    for r in range(n):
        if not alive[r]:
            continue
        result = _trial(n, us, vs, alive, p, q, r)
        if result is not None:
            return result
        alive[r] = False
        for i in inc[r]:
            w = vs[i] if us[i] == r else us[i]
            if alive[w]:
                deg[w] -= 1
                if q * deg[w] <= p:
                    push(w)
        drain()
        if not have_edges():
            return None
    return None
