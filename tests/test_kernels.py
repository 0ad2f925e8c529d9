"""The flow kernel: pinned sweeps and enumerations, extreme thresholds, long
augmenting paths, and the benchmark's hooks."""

import importlib.util
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from arboricity import exceeds_density, fractional_arboricity, kernels, prime_partition
from arboricity.cli import main as cli_main
from arboricity.density import _compact
from arboricity.kernels import pure
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
    flow = pure._dinic(sink + 1, adj, arc_to, cap, 0, sink)
    into_sink = pure._reach(adj, arc_to, cap, sink, False)

    def side(v):
        if v >= 0 and node[v] in into_sink:
            return None
        seen = pure._reach(adj, arc_to, cap, node[v] if v >= 0 else 0, True)
        return sorted(verts[x - 1] for x in seen if 0 < x <= len(verts))

    return flow, side


def test_carried_flow_matches_a_cold_flow(monkeypatch):
    # every trial of a walk re-augments the flow left by the previous root;
    # its value and its min-cut sides must be those of a fresh network
    roots = {}
    free, trial = pure._Walk.free, pure._trial

    def recording_free(walk, r):
        roots[walk] = r
        free(walk, r)

    trials = []
    lam = None  # the threshold of the current call

    def checked(walk):
        short, side = trial(walk)
        root = roots.get(walk, -1)
        p, q = lam.numerator, lam.denominator
        flow, cold_side = _cold_trial(walk.n, walk.us, walk.vs, walk.alive, p, q, root)
        assert walk.flow == flow
        live = [v for v in range(walk.n) if walk.alive[v]]
        assert walk.live == sum(walk.alive[u] and walk.alive[v] for u, v in zip(walk.us, walk.vs))
        assert short == (flow < q * walk.live)
        for v in [-1, *live]:
            assert side(v) == cold_side(v)
        trials.append(walk)
        return short, side

    graphs = [random_connected(random.Random(seed), n_max=10, m_max=24) for seed in range(300)]
    afs = [fractional_arboricity(g).value for g in graphs]
    monkeypatch.setattr(pure._Walk, "free", recording_free)
    monkeypatch.setattr(pure, "_trial", checked)
    for g, af in zip(graphs, afs):
        _, us, vs = _compact(g)
        n = g.num_vertices()
        whole = Fraction(len(us), n - 1)  # where the af iteration starts
        for lam in (af - Fraction(1, 2 * n), af, af + Fraction(1, n * n), whole, (whole + af) / 2):
            kernels.sweep(n, us, vs, lam.numerator, lam.denominator)
            kernels.minimal_densest(n, us, vs, lam.numerator, lam.denominator)
    # most trials start from the flow left by an earlier trial of their walk
    warm = len(trials) - len(set(trials))
    assert warm > 1500


def test_tracer_counts_the_kernel(monkeypatch):
    # the benchmark's tracer finds the kernel through kernels.sweep,
    # kernels.active()._trial and density._enumerate_mds; a missing hook
    # would read zero, and a flow outside _trial would go uncounted
    flows = []
    dinic = pure._dinic

    def counted(*args):
        flows.append(1)
        return dinic(*args)

    monkeypatch.setattr(pure, "_dinic", counted)
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
