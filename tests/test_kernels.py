"""The flow kernel: pinned sweeps and enumerations, extreme thresholds, long
augmenting paths, and the benchmark's hooks."""

import importlib.util
import json
import random
import subprocess
import sys
from collections import deque
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from arboricity import (
    Multigraph,
    exceeds_density,
    fractional_arboricity,
    kernels,
    prime_partition,
)
from arboricity.cli import main as cli_main
from arboricity.density import _compact
from arboricity.oracle import brute_fractional_arboricity

from conftest import k4, random_connected, two_k4_bridge

BIG = 10**30


@pytest.mark.parametrize(
    "p, q, expected",
    [(1, 1, [0, 1, 2, 3]), (3, 2, [0, 1]), (2, 1, None), (5, 3, [0, 1])],
)
def test_sweep_on_parallel_edges(p, q, expected):
    assert kernels.sweep(4, [0, 0, 1, 2, 2], [1, 1, 2, 3, 3], p, q) == expected


@pytest.mark.parametrize(
    "p, q, expected",
    # at af = 2 vertex 0 has degree exactly 2: a peel at degree <= p/q would
    # lose {0, 1}; at 3/2 < af the flow finds a denser set
    [(2, 1, [[0, 1], [2, 3]]), (5, 2, []), (3, 2, None)],
)
def test_minimal_densest_on_parallel_edges(p, q, expected):
    got = kernels.minimal_densest(4, [0, 0, 1, 2, 2], [1, 1, 2, 3, 3], p, q)
    assert got == expected


def test_long_augmenting_paths(tmp_path):
    # a doubled cycle listed cycle-then-cycle gives augmenting paths of about
    # n arcs, far beyond the interpreter's recursion limit
    n = 1500
    graph_file = tmp_path / "cycle.txt"
    graph_file.write_text("".join(f"{i} {(i + 1) % n}\n" for i in range(n)) * 2)
    out = tmp_path / "af.json"
    assert cli_main(["af", str(graph_file), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["af"] == f"{2 * n}/{n - 1}"


# the reference: a generic Dinic and residual search on the explicit
# edge-node network, whose flow the kernel stores per edge and per vertex;
# ``_cold_trial`` builds that network from zero flow, and ``_network``
# rebuilds it from a walk's state


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


def _network(walk):
    """The explicit residual network of the walk's flow, as
    (num_nodes, adj, arc_to, cap, source, sink) for ``_dinic`` and ``_reach``.

    Edge i is node n + i with arcs source->e, e->ends[2i] and e->ends[2i + 1]
    at 6i, 6i + 2 and 6i + 4; vertex v is node v with its sink arc at
    6m + 2v.  Arc a ^ 1 is a's reverse, and its residual capacity is the flow
    on a.  A dead edge or vertex has all its arcs at 0, and so does the
    root's sink arc, which has no spare and no flow into it."""
    n, ends, sent, room, alive = walk.n, walk.ends, walk.sent, walk.room, walk.alive
    m = len(room)
    source, sink = n + m, n + m + 1
    adj = [[] for _ in range(n + m + 2)]
    arc_to, cap = [], []

    def arc(a, b, residual, flow):
        for x, y, c in ((a, b, residual), (b, a, flow)):
            adj[x].append(len(arc_to))
            arc_to.append(y)
            cap.append(c)

    into = [0] * n
    for i in range(m):
        live = alive[ends[2 * i]] and alive[ends[2 * i + 1]]
        arc(source, n + i, room[i], sent[2 * i] + sent[2 * i + 1])
        for s in (2 * i, 2 * i + 1):
            arc(n + i, ends[s], walk.q - sent[s] if live else 0, sent[s])
            into[ends[s]] += sent[s]
    for v in range(n):
        arc(v, sink, walk.spare[v], into[v])
    assert min(cap) >= 0
    return n + m + 2, adj, arc_to, cap, source, sink


def _assert_max_flow(walk):
    # after a trial the source's residual reach excludes the sink, and the
    # original capacity leaving that reach equals the flow: a max flow and a
    # min cut of equal value; the kernel labels that same source side
    _, adj, arc_to, cap, source, sink = _network(walk)
    reach = _reach(adj, arc_to, cap, source, True)
    assert sink not in reach
    leaving = sum(
        cap[a] + cap[a + 1] for a in range(0, len(arc_to), 2)
        if arc_to[a + 1] in reach and arc_to[a] not in reach
    )
    assert leaving == walk.flow == sum(cap[a + 1] for a in adj[source])
    assert {x for x in range(walk.n) if walk.level[x] >= 0} == {x for x in reach if x < walk.n}


def _check_trials(monkeypatch, cases, check):
    """Run ``sweep`` and ``minimal_densest`` on each (n, us, vs, threshold)
    case, calling ``check(walk, short, root, threshold)`` after every trial
    (root -1: no root)."""
    roots = {}
    free, trial = kernels._Walk.free, kernels._trial

    def recording_free(walk, r):
        roots[walk] = r
        free(walk, r)

    lam = None  # the threshold of the current call

    def checked(walk):
        short = trial(walk)
        check(walk, short, roots.get(walk, -1), lam)
        return short

    monkeypatch.setattr(kernels._Walk, "free", recording_free)
    monkeypatch.setattr(kernels, "_trial", checked)
    for n, us, vs, lam in cases:
        kernels.sweep(n, us, vs, lam.numerator, lam.denominator)
        kernels.minimal_densest(n, us, vs, lam.numerator, lam.denominator)


@pytest.mark.parametrize("seed", range(40))
def test_dinic_returns_a_max_flow_on_random_networks(seed, monkeypatch):
    # a seeded multigraph at its af and at a random threshold, from about a
    # quarter to four times its density m/(n - 1): every trial of the four
    # walks, cold or warm, short or not, must leave a max flow
    rng = random.Random(seed)
    m = rng.randint(1, 60)
    g = _random_multigraph(rng, rng.randint(2, min(m + 1, 30)), m)
    _, us, vs = _compact(g)
    n = g.num_vertices()
    lam = Fraction(rng.randint(max(1, m // 2), 2 * m), rng.randint(max(1, n // 2), 2 * n))
    trials = []

    def check(walk, short, root, lam):
        _assert_max_flow(walk)
        trials.append(short)

    af = fractional_arboricity(g).value
    _check_trials(monkeypatch, [(n, us, vs, af), (n, us, vs, lam)], check)
    assert trials


@pytest.mark.parametrize("p, q", [(800, 399), (799, 399), (1, 1), (3, 1)])
def test_dinic_returns_a_max_flow_on_long_augmenting_paths(p, q):
    # the graph of test_long_augmenting_paths on a shorter doubled cycle, at
    # its af = 2n/(n - 1), just below it, and far on either side: a trial
    # with no root, then one with root 0
    n = 400
    us = list(range(n)) * 2
    vs = [(i + 1) % n for i in range(n)] * 2
    walk = kernels._Walk(n, us, vs, p, q, lambda d: True)
    for r in walk.roots(-1):
        kernels._trial(walk)
        _assert_max_flow(walk)
        if r == 0:
            break


def _warm_sides(walk):
    """``side(v)`` for the walk's last trial: the live vertices, ascending, on
    the source side of the smallest min cut (v < 0) or of the smallest min cut
    that holds vertex v there, or None when no min cut does.  Read on the
    whole network, as ``_cold_trial`` reads a fresh one: one backward search
    from the sink, then a forward search per call."""
    _, adj, arc_to, cap, source, sink = _network(walk)
    into_sink = _reach(adj, arc_to, cap, sink, False)

    def side(v):
        if v >= 0 and v in into_sink:
            return None
        seen = _reach(adj, arc_to, cap, v if v >= 0 else source, True)
        return sorted(x for x in seen if x < walk.n)

    return side


def _per_vertex_minimal_densest(n, us, vs, p, q):
    """``kernels.minimal_densest`` with one forward search on the whole
    network per live vertex other than the root, where the kernel reads one
    set per bottom SCC from the vertices alone."""
    found = set()
    walk = kernels._Walk(n, us, vs, p, q, lambda d: q * d >= p)
    for r in walk.roots(0):
        if kernels._trial(walk):
            return None
        side = _warm_sides(walk)
        for w in range(n):
            if walk.alive[w] and w != r:
                dense = side(w)
                if dense is not None:
                    found.add(frozenset(dense))
    minimal = []
    for dense in sorted(found, key=len):
        if not any(m <= dense for m in minimal):
            minimal.append(dense)
    return sorted(sorted(m) for m in minimal)


def _random_multigraph(rng, n, m):
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    while len(edges) < m:
        edges.append(tuple(rng.sample(range(n), 2)))
    return Multigraph.from_edge_list(edges)


def test_minimal_densest_matches_the_per_vertex_searches():
    pairs = []
    for seed in range(3000):
        g = random_connected(random.Random(seed), n_max=9, m_max=16)
        af = fractional_arboricity(g).value
        lams = (af, af + Fraction(1, 7), Fraction(3, 2), Fraction(2))
        pairs += [(g, lam) for lam in lams if lam >= af]
    for seed in range(250):
        rng = random.Random(seed)
        m = rng.randint(20, 60)
        g = _random_multigraph(rng, rng.randint(4, min(m + 1, 30)), m)
        pairs.append((g, fractional_arboricity(g).value))
    nonempty = 0
    for g, lam in pairs:
        _, us, vs = _compact(g)
        n, p, q = g.num_vertices(), lam.numerator, lam.denominator
        got = kernels.minimal_densest(n, us, vs, p, q)
        assert got == _per_vertex_minimal_densest(n, us, vs, p, q)
        nonempty += bool(got)
    assert nonempty > len(pairs) // 3


def _densest_by_edge_flows(n, us, vs, p, q):
    """Test-only reference for ``kernels.minimal_densest`` at p/q = af, with
    its own Edmonds-Karp max flow on a fresh network per distinct edge {u, v}.

    The source feeds each edge q units, an edge passes them on to its two ends
    over uncapped arcs, every vertex but u drains p units into the sink, and
    an uncapped source arc ties v to the source side.  A cut whose vertex set
    U holds u costs q*m - (q*m(U) - p*(|U| - 1)), and one whose U misses u
    costs p more than that.  So the flow falls below q*m only when some set is
    denser than p/q (None), and every denser set holds some edge's ends; a
    flow of exactly q*m means a set of density p/q holds both ends, and the
    smallest min-cut source side, read from the residual graph, holds the
    smallest such set.  The minimal densest sets are the inclusion-minimal
    ones among these."""
    m = len(us)
    big = q * m + p * n + 1
    source, sink = n + m, n + m + 1
    found = set()
    for u, v in sorted({(min(e), max(e)) for e in zip(us, vs)}):
        out = [[] for _ in range(n + m + 2)]
        head, cap = [], []
        for a, b, c in [(source, n + i, q) for i in range(m)] + [
            (n + i, w, big) for i in range(m) for w in (us[i], vs[i])
        ] + [(w, sink, p) for w in range(n) if w != u] + [(source, v, big)]:
            for x, y, z in ((a, b, c), (b, a, 0)):
                out[x].append(len(head))
                head.append(y)
                cap.append(z)
        flow = 0
        while True:
            via = {source: None}  # the arc each reached node was reached by
            queue = deque([source])
            while queue and sink not in via:
                x = queue.popleft()
                for a in out[x]:
                    if cap[a] > 0 and head[a] not in via:
                        via[head[a]] = a
                        queue.append(head[a])
            if sink not in via:
                break
            path, x = [], sink
            while x != source:
                path.append(via[x])
                x = head[via[x] ^ 1]
            pushed = min(cap[a] for a in path)
            for a in path:
                cap[a] -= pushed
                cap[a ^ 1] += pushed
            flow += pushed
        if flow < q * m:
            return None
        if flow == q * m:
            found.add(frozenset(x for x in via if x < n))
    minimal = []
    for dense in sorted(found, key=len):
        if not any(d <= dense for d in minimal):
            minimal.append(dense)
    return sorted(sorted(d) for d in minimal)


def _k4_blocks(rng):
    """4 to 8 K4s, each after the first glued at the lowest vertex of an
    earlier one or joined to one by an edge, plus up to 4 random edges:
    several minimal densest sets, some sharing their lowest vertex, unless
    an extra edge makes a denser set."""
    blocks, edges, n = [], [], 0  # n: the next new vertex
    for b in range(rng.randint(4, 8)):
        if b and rng.random() < 0.5:
            block = [rng.choice(blocks)[0], n, n + 1, n + 2]
        else:
            block = [n, n + 1, n + 2, n + 3]
            if b:
                edges.append((rng.choice(rng.choice(blocks)), n))
        edges += [(block[i], block[j]) for i in range(4) for j in range(i + 1, 4)]
        blocks.append(block)
        n = block[-1] + 1
    edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 4))]
    return Multigraph.from_edge_list(edges)


def test_minimal_densest_matches_an_edmonds_karp_reference():
    # mid-scale graphs, each checked against flows that share no code with
    # the kernel: 40 random multigraphs and 30 K4 block graphs, at af
    graphs = []
    for seed in range(40):
        rng = random.Random(seed)
        m = rng.randint(20, 60)
        graphs.append(_random_multigraph(rng, rng.randint(4, min(m + 1, 30)), m))
    graphs += [_k4_blocks(random.Random(seed)) for seed in range(30)]
    several = 0
    for g in graphs:
        assert 20 <= g.num_edges() <= 60
        _, us, vs = _compact(g)
        af = fractional_arboricity(g).value
        n, p, q = g.num_vertices(), af.numerator, af.denominator
        expected = _densest_by_edge_flows(n, us, vs, p, q)
        assert expected  # af is attained and nothing is denser
        assert kernels.minimal_densest(n, us, vs, p, q) == expected
        several += len(expected) > 1
    assert several >= 15


@pytest.mark.parametrize(
    "lam, expected",
    [
        (Fraction(BIG + 1, BIG), frozenset({0, 1, 2, 3})),
        (Fraction(2 * BIG - 1, BIG), frozenset({0, 1, 2, 3})),
        (Fraction(2 * BIG + 1, BIG), None),
    ],
)
def test_thresholds_beyond_64_bits_terminate(lam, expected):
    # p and q both above 2**62: a flow of about q*m must not be pushed in
    # pieces of a fixed size
    assert exceeds_density(k4(), lam) == expected


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_extreme_thresholds_match_brute_force(seed):
    g = random_connected(random.Random(seed), n_max=8, m_max=8)
    af, _ = brute_fractional_arboricity(g)
    lams = [af + Fraction(s, 10**k) for k in (20, 30) for s in (-1, 1)]
    for lam in [af, *lams, Fraction(10**20, 3)]:
        assert (exceeds_density(g, lam) is not None) == (af > lam)


def _cold_trial(n, us, vs, alive, p, q, root):
    """Max flow value and ``side`` on a network built from zero flow for the
    live subgraph: source 0, live vertices 1.., then live edges, then sink."""
    verts = [v for v in range(n) if alive[v]]
    node = {v: 1 + k for k, v in enumerate(verts)}
    edges = [i for i in range(len(us)) if alive[us[i]] and alive[vs[i]]]
    sink = 1 + len(verts) + len(edges)
    adj = [[] for _ in range(sink + 1)]
    arc_to, cap = [], []

    def arc(a, b, c):
        for x, y, z in ((a, b, c), (b, a, 0)):
            adj[x].append(len(arc_to))
            arc_to.append(y)
            cap.append(z)

    for k, i in enumerate(edges):
        e = 1 + len(verts) + k
        arc(0, e, q)
        arc(e, node[us[i]], q)
        arc(e, node[vs[i]], q)
    for v in verts:
        arc(node[v], sink, 0 if v == root else p)
    flow = _dinic(sink + 1, adj, arc_to, cap, 0, sink)
    into_sink = _reach(adj, arc_to, cap, sink, False)

    def side(v):
        if v >= 0 and node[v] in into_sink:
            return None
        seen = _reach(adj, arc_to, cap, node[v] if v >= 0 else 0, True)
        return sorted(verts[x - 1] for x in seen if 0 < x <= len(verts))

    return flow, side


def test_carried_flow_matches_a_cold_flow(monkeypatch):
    # every trial of a walk re-augments the flow left by the previous root;
    # its value and its min-cut sides must be those of a fresh network
    trials = []

    def check(walk, short, root, lam):
        side = _warm_sides(walk)
        p, q = lam.numerator, lam.denominator
        us, vs = walk.ends[0::2], walk.ends[1::2]
        flow, cold_side = _cold_trial(walk.n, us, vs, walk.alive, p, q, root)
        assert walk.flow == flow
        live = [v for v in range(walk.n) if walk.alive[v]]
        assert walk.live == sum(walk.alive[u] and walk.alive[v] for u, v in zip(us, vs))
        assert short == (flow < q * walk.live)
        for v in [-1, *live]:
            assert side(v) == cold_side(v)
        trials.append(walk)

    _check_trials(monkeypatch, _walk_cases(), check)
    # most trials start from the flow left by an earlier trial of their walk
    warm = len(trials) - len(set(trials))
    assert warm > 1500


def test_flow_is_conserved_on_every_slot(monkeypatch):
    # after every trial: each live edge splits q units between its two slots
    # and its room, each live vertex but the root drains what its slots send
    # it and has the rest of p to spare, and dead edges and vertices, and
    # the root, hold nothing; the walk's flow is what the source sends
    counts = {"trials": 0, "deleted": 0}

    def check(walk, short, root, lam):
        p, q = lam.numerator, lam.denominator
        ends, sent, room, spare, alive = walk.ends, walk.sent, walk.room, walk.spare, walk.alive
        into = [0] * walk.n
        total = 0
        for i in range(len(room)):
            slots = (sent[2 * i], sent[2 * i + 1])
            if alive[ends[2 * i]] and alive[ends[2 * i + 1]]:
                assert min(*slots, room[i]) >= 0 and sum(slots) + room[i] == q
                total += sum(slots)
            else:
                assert slots == (0, 0) and room[i] == 0
            into[ends[2 * i]] += slots[0]
            into[ends[2 * i + 1]] += slots[1]
        for v in range(walk.n):
            if v == root or not alive[v]:
                assert spare[v] == into[v] == 0
            else:
                assert spare[v] >= 0 and spare[v] + into[v] == p
        assert walk.flow == total
        counts["trials"] += 1
        counts["deleted"] += not all(alive)

    _check_trials(monkeypatch, _walk_cases(), check)
    assert counts["trials"] > 4000 and counts["deleted"] > 2000, counts


def _walk_cases():
    """(n, us, vs, threshold) for 300 seeded multigraphs with parallel edges,
    at af - 1/2n, af, af + 1/n^2, the whole graph's density and halfway to
    it: the walks of ``sweep`` and ``minimal_densest`` on these start cold,
    run warm for many roots, and end short or exhausted."""
    cases = []
    for seed in range(300):
        g = random_connected(random.Random(seed), n_max=10, m_max=24)
        af = fractional_arboricity(g).value
        _, us, vs = _compact(g)
        n = g.num_vertices()
        whole = Fraction(len(us), n - 1)  # where the af iteration starts
        for lam in (af - Fraction(1, 2 * n), af, af + Fraction(1, n * n), whole, (whole + af) / 2):
            cases.append((n, us, vs, lam))
    return cases


def test_bottoms_read_the_residual_graph_on_vertices(monkeypatch):
    # after every root trial of minimal_densest that is not short: no flow
    # enters the root, and _bottoms returns exactly the inclusion-minimal
    # sets that a live vertex other than the root reaches on the whole
    # network, over the vertices that do not reach the sink
    bottoms = kernels._bottoms
    counts = {"roots": 0, "sets": 0, "several": 0}

    def checked(walk, r):
        assert all(walk.sent[s] == 0 for s in walk.nbrs[r])
        n = walk.n
        _, adj, arc_to, cap, _, sink = _network(walk)
        into_sink = _reach(adj, arc_to, cap, sink, False)
        reaches = {
            frozenset(x for x in _reach(adj, arc_to, cap, w, True) if x < n)
            for w in range(n)
            if w != r and walk.alive[w] and w not in into_sink
        }
        minimal = sorted(sorted(d) for d in reaches if not any(e < d for e in reaches))
        result = bottoms(walk, r)
        assert sorted(result) == minimal
        counts["roots"] += 1
        counts["sets"] += len(result)
        counts["several"] += len(result) > 1
        return result

    cases = _walk_cases()
    for seed in range(30):
        g = _k4_blocks(random.Random(seed))
        _, us, vs = _compact(g)
        cases.append((g.num_vertices(), us, vs, fractional_arboricity(g).value))
    monkeypatch.setattr(kernels, "_bottoms", checked)
    for n, us, vs, lam in cases:
        kernels.minimal_densest(n, us, vs, lam.numerator, lam.denominator)
    assert counts["roots"] > 1000 and counts["sets"] > 800 and counts["several"] > 100, counts


def test_source_lists_every_open_source_arc(monkeypatch):
    # the walk's open list may skip only full or deleted edges: _dinic drops
    # those at each phase, and free lists an edge again when it reopens it
    checked = []

    def check(walk, short, root, lam):
        listed, m = walk.open, len(walk.room)
        assert len(listed) == len(set(listed))
        assert all(0 <= i < m for i in listed)
        assert {i for i in range(m) if walk.room[i] > 0} <= set(listed)
        checked.append(len(listed) < m)

    _check_trials(monkeypatch, _walk_cases(), check)
    assert len(checked) > 4000 and sum(checked) > len(checked) // 2  # most lists shrank


def test_tracer_counts_the_kernel(monkeypatch):
    # the benchmark's tracer finds the kernel through kernels.sweep,
    # kernels.active()._trial and density._enumerate_mds; a missing hook
    # would read zero, and a flow outside _trial would go uncounted
    flows = []
    dinic = kernels._dinic

    def counted(*args):
        flows.append(1)
        return dinic(*args)

    monkeypatch.setattr(kernels, "_dinic", counted)
    path = Path(__file__).resolve().parents[1] / "pipeline_bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("pipeline_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        prime_partition(two_k4_bridge())
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(1)
    assert kernels.active().NAME == "pure"
    assert metrics["kernels.sweep_calls"][0] > 0
    assert metrics["kernels.trials"][0] == len(flows) > 0
    assert metrics["density.mds_found"][0] == 3  # two K4s, then the bridge bundle


def test_bench_command_runs_traced():
    # one pass of the benchmark's own command: a renamed or removed hook
    # (kernels.sweep, kernels.active()._trial, density._enumerate_mds,
    # prime.prime_partition) fails the run or reads zero here
    root = Path(__file__).resolve().parents[1]
    argv = ["pipeline_bench/run.py", "--workload", "structured", "--seed", "0"]
    proc = subprocess.run(
        [sys.executable, *argv, "--seconds", "0", "--trace", "1"],
        cwd=root, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    for name in ("kernels.trials", "kernels.sweep_calls", "density.mds_found", "prime.levels"):
        assert metrics[name]["value"] > 0, name
    # a nucleolus request computes af once, in its core test
    assert metrics["density.af_calls"]["value"] == 1.0


def test_bench_random_check_passes():
    # one untraced pass of the benchmark's random workload: its check holds
    # each af against scipy's max flow and each level-0 witness against the
    # graph, a check of the flow kernel that shares no code with it
    root = Path(__file__).resolve().parents[1]
    argv = ["pipeline_bench/run.py", "--workload", "random", "--seed", "0"]
    proc = subprocess.run(
        [sys.executable, *argv, "--seconds", "0", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] > 0
