import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from arboricity import (
    AncestorPoset,
    DisconnectedGraphError,
    GraphInputError,
    InternalInvariantError,
    Multigraph,
    PrimePartition,
    ancestors,
    decompose_densest_subgraph,
    enumerate_minimal_densest_subgraphs,
    fractional_arboricity,
    kernels,
    prime,
    prime_partition,
)
from arboricity.density import _compact
from arboricity.nucleolus import solve_nucleolus
from arboricity.oracle import enumerate_densest_subgraphs
from arboricity.prime import PrimeSet, _ancestor_order

from conftest import (
    four_k4_chain,
    k4,
    k4_edges,
    k4_tower,
    path,
    random_connected,
    triangle_pendant,
    two_k4_bridge,
    two_k4_shared_vertex,
)

# the benchmark's structured generators, read only
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "pipeline_bench"))
import workloads  # noqa: E402


def test_tree_partition():
    g = path(4)
    pp = prime_partition(g)
    assert len(pp.prime_sets) == 4
    assert all(ps.level == 0 and ps.n_p == 2 for ps in pp.prime_sets)
    assert sorted(min(ps.edges) for ps in pp.prime_sets) == [0, 1, 2, 3]
    assert pp.non_prime == frozenset()


def test_triangle_pendant_partition():
    pp = prime_partition(triangle_pendant())
    assert len(pp.prime_sets) == 1
    ps = pp.prime_sets[0]
    assert ps.edges == frozenset({0, 1, 2})
    assert ps.level == 0
    assert ps.n_p == 3
    assert pp.non_prime == frozenset({3})


def test_two_k4_bridge_partition():
    g = two_k4_bridge()
    pp = prime_partition(g)
    assert [ (ps.level, ps.n_p, sorted(ps.edges)) for ps in pp.prime_sets ] == [
        (0, 4, [0, 1, 2, 3, 4, 5]),
        (0, 4, [6, 7, 8, 9, 10, 11]),
        (1, 2, [12, 13]),
    ]
    assert pp.non_prime == frozenset()


def test_single_edge_partition():
    pp = prime_partition(Multigraph.from_edge_list([(0, 1)]))
    assert len(pp.prime_sets) == 1
    assert pp.prime_sets[0].level == 0
    assert pp.prime_sets[0].n_p == 2
    assert pp.non_prime == frozenset()


def test_partition_errors():
    with pytest.raises(DisconnectedGraphError):
        prime_partition(Multigraph.from_edge_list([(0, 1), (2, 3)]))
    with pytest.raises(GraphInputError):
        prime_partition(Multigraph({}, vertices=[0]))


def test_ancestors_tree_empty():
    g = path(3)
    pp = prime_partition(g)
    poset = ancestors(g, pp)
    assert all(not poset.parents[ps.id] for ps in pp.prime_sets)


def test_ancestors_two_k4_bridge():
    g = two_k4_bridge()
    pp = prime_partition(g)
    poset = ancestors(g, pp)
    bridge = next(ps for ps in pp.prime_sets if ps.level == 1)
    assert poset.parents[bridge.id] == frozenset({0, 1})
    assert poset.ancestors_of(bridge.id) == frozenset({0, 1})


def test_ancestors_four_k4_chain():
    g = four_k4_chain()
    pp = prime_partition(g)
    poset = ancestors(g, pp)
    # ids are sorted by (level, min edge): P0..P3 the K4s, P4 the A-B
    # bundle, P5 the C-D bundle, P6 the pair of single cross edges
    assert [(ps.level, sorted(ps.edges)[0]) for ps in pp.prime_sets] == [
        (0, 0), (0, 6), (0, 12), (0, 18), (1, 24), (1, 26), (2, 28),
    ]
    assert poset.parents[4] == frozenset({0, 1})
    assert poset.parents[5] == frozenset({2, 3})
    assert poset.parents[6] == frozenset({4, 5})
    # ancestors of the top set include everything below it
    assert poset.ancestors_of(6) == frozenset(range(6))


def test_ancestors_deep_chain():
    g = k4_tower(120)
    pp = prime_partition(g)
    assert [ps.level for ps in pp.prime_sets] == list(range(120))
    poset = ancestors(g, pp)
    assert poset.parents == {
        i: frozenset({i - 1}) if i else frozenset() for i in range(120)
    }


@pytest.mark.parametrize("make", [two_k4_bridge, four_k4_chain, lambda: k4_tower(8)])
def test_ancestors_ignore_prime_set_order(make):
    g = make()
    pp = prime_partition(g)
    shuffled = PrimePartition(tuple(reversed(pp.prime_sets)), pp.non_prime, pp.af)
    assert ancestors(g, shuffled).parents == ancestors(g, pp).parents


def k4_pairs(rng) -> Multigraph:
    """2 to 6 K4s, merged pairwise by random 2-edge bundles until connected:
    af = 2, and each bundle is a prime set above the two it joins."""
    blocks = [list(range(4 * i, 4 * i + 4)) for i in range(rng.randint(2, 6))]
    edges = [e for i in range(len(blocks)) for e in k4_edges(4 * i)]
    while len(blocks) > 1:
        a, b = rng.sample(range(len(blocks)), 2)
        edges += [(rng.choice(blocks[a]), rng.choice(blocks[b])) for _ in range(2)]
        blocks[a] += blocks[b]
        del blocks[b]
    return Multigraph.from_edge_list(edges)


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_parents_are_incomparable_ancestors(seed):

    rng = random.Random(seed)
    for g in (random_connected(rng, n_max=9, m_max=16), k4_pairs(rng)):
        poset = ancestors(g, prime_partition(g))
        for pid, parents in poset.parents.items():
            assert parents <= poset.ancestors_of(pid)
            for a in parents:
                assert not parents & poset.ancestors_of(a)


def test_ancestors_mismatched_partition():
    g = two_k4_bridge()
    pp = prime_partition(g)
    other = path(3)
    with pytest.raises(GraphInputError):
        ancestors(other, pp)


def test_ancestors_partition_of_other_af():
    # same 14 edge ids, so only the af comparison can reject the partition
    g = two_k4_bridge()
    pp = prime_partition(g)
    cycle = Multigraph.from_edge_list([(i, (i + 1) % 14) for i in range(14)])
    assert cycle.edge_ids == g.edge_ids and fractional_arboricity(cycle).value != pp.af
    with pytest.raises(GraphInputError):
        ancestors(cycle, pp)


def _moved(pp: PrimePartition, pid: int, **change) -> PrimePartition:
    sets = tuple(replace(ps, **change) if ps.id == pid else ps for ps in pp.prime_sets)
    return PrimePartition(sets, pp.non_prime, pp.af)


def test_ancestors_reject_a_partition_of_other_levels():
    # each partition covers g's edges at g's af, but its sets do not span
    # n_p classes at their levels, or do not lie in one class after them
    g = four_k4_chain()
    pp = prime_partition(g)
    top = pp.prime_sets[6]
    assert top.level == 2 and top.n_p == 2
    wrong = [
        _moved(pp, 6, n_p=3),  # the top set's n_p off by one
        _moved(pp, 6, level=0),  # the top set at level 0
        _moved(pp, 0, level=3),  # a K4 at level 3
        _moved(pp, 4, level=2),  # the A-B bundle at level 2
    ]
    for part in wrong:
        with pytest.raises(GraphInputError, match="prime partition does not match the graph"):
            ancestors(g, part)


def test_decompose_shared_k4s():
    g = two_k4_shared_vertex()
    pp = prime_partition(g)
    got = decompose_densest_subgraph(pp, frozenset(g.vertices), g)
    assert sorted(got) == [0, 1]


def test_decompose_single_k4():
    g = k4()
    pp = prime_partition(g)
    assert decompose_densest_subgraph(pp, frozenset(g.vertices), g) == [0]


def test_decompose_two_k4_bridge_whole():
    g = two_k4_bridge()
    pp = prime_partition(g)
    got = decompose_densest_subgraph(pp, frozenset(g.vertices), g)
    assert sorted(got) == [0, 1, 2]


def test_decompose_rejects_a_partition_of_another_graph():
    # the K4's one prime set, edge ids 0-5, is also the bridge graph's first
    # K4: unchecked, h = {4..7} met no prime set and h = {0..3} gave [0]
    pp = prime_partition(k4())
    g = two_k4_bridge()
    for h in ({4, 5, 6, 7}, {0, 1, 2, 3}):
        with pytest.raises(GraphInputError):
            decompose_densest_subgraph(pp, frozenset(h), g)


def test_decompose_rejects_non_densest():
    g = two_k4_bridge()
    pp = prime_partition(g)
    with pytest.raises(GraphInputError):
        decompose_densest_subgraph(pp, frozenset({0, 1, 2}), g)


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_partition_invariants_random(seed):

    rng = random.Random(seed)
    g = random_connected(rng, n_max=7, m_max=11)
    pp = prime_partition(g)
    # partition property
    seen = set(pp.non_prime)
    total = len(pp.non_prime)
    for ps in pp.prime_sets:
        assert ps.n_p >= 2 and ps.edges
        seen |= ps.edges
        total += len(ps.edges)
    assert seen == g.edge_ids and total == g.num_edges()
    # budget
    assert sum(ps.n_p - 1 for ps in pp.prime_sets) <= g.num_vertices() - 1
    assert len(pp.prime_sets) <= g.num_vertices() - 1
    # noncrossing and ancestor inclusion against oracle-enumerated densest
    # subgraphs
    poset = ancestors(g, pp)
    for dense in enumerate_densest_subgraphs(g, edge_cap=12):
        de = g.induced_by_vertices(dense).edge_ids
        for ps in pp.prime_sets:
            assert ps.edges <= de or not (ps.edges & de)
            if ps.edges <= de:
                for anc in poset.ancestors_of(ps.id):
                    assert pp.by_id(anc).edges <= de
    # components of G - E0 are densest subgraphs
    remainder = g.delete_edges(pp.non_prime)
    for comp in remainder.components():
        if len(comp) == 1:
            continue
        sub = remainder.induced_by_vertices(comp)
        assert Fraction(sub.num_edges(), len(comp) - 1) == pp.af
        decompose_densest_subgraph(pp, comp, g)
    # levels strictly decrease along ancestors
    for ps in pp.prime_sets:
        for anc in poset.ancestors_of(ps.id):
            assert pp.by_id(anc).level < ps.level


@pytest.mark.parametrize("make", [triangle_pendant, two_k4_bridge, lambda: k4_tower(5)])
def test_prime_partition_takes_the_callers_af(make):
    g = make()
    cert = fractional_arboricity(g)
    af = cert.value
    assert prime_partition(g, af) == prime_partition(g) == prime_partition(g, cert)
    with pytest.raises(InternalInvariantError, match="no subgraph attains the given af"):
        prime_partition(g, af + Fraction(1, 7))
    with pytest.raises(InternalInvariantError, match="denser than the given af"):
        prime_partition(g, af - Fraction(1, 7))


@pytest.mark.parametrize(
    "inst, levels",
    [
        (workloads.block_tree(random.Random(1), 30), 2),
        (workloads.pair_hierarchy(random.Random(1), 5), 6),
    ],
    ids=["block_tree", "pair_hierarchy"],
)
def test_level_zero_reads_the_af_sweep(inst, levels, monkeypatch):
    # the sweep that proves af also reads level 0: a request sweeps once per
    # step of the af loop and once per level above 0, and level 0 runs no
    # flow of its own
    g = Multigraph.from_edge_list(inst.edges)
    sweeps = []  # the threshold of each kernel sweep
    sweep = kernels.sweep

    def counted(n, us, vs, p, q):
        sweeps.append(Fraction(p, q))
        return sweep(n, us, vs, p, q)

    monkeypatch.setattr(kernels, "sweep", counted)
    af = fractional_arboricity(g).value
    steps = len(sweeps)
    assert sweeps.count(af) == 1 and sweeps[-1] == af
    sweeps.clear()
    assert enumerate_minimal_densest_subgraphs(g)
    assert len(sweeps) == steps and sweeps.count(af) == 1

    per_level = []  # the sweeps inside each level's enumeration
    enumerate_mds = prime._enumerate_mds

    def recorded(*args):
        before = len(sweeps)
        found = enumerate_mds(*args)
        per_level.append(len(sweeps) - before)
        return found

    monkeypatch.setattr(prime, "_enumerate_mds", recorded)
    for run in (prime_partition, solve_nucleolus):
        sweeps.clear()
        per_level.clear()
        run(g)
        assert per_level == [0] + [1] * (levels - 1)
        assert len(sweeps) == steps + levels - 1


def _reference_ancestor_order(
    g: Multigraph, pp: PrimePartition
) -> tuple[AncestorPoset, dict[int, frozenset[int]]]:
    """The ancestor order by one dict-based union-find replay over every
    level per prime set, kept as the reference for ``_ancestor_order``,
    with the transitive closure of its direct dependences."""
    from arboricity.multigraph import _UnionFind

    sets = sorted(pp.prime_sets, key=lambda ps: ps.level)
    max_level = max((ps.level for ps in sets), default=0)
    by_level: dict[int, list] = {}
    for ps in sets:
        by_level.setdefault(ps.level, []).append(ps)
    pairs = {ps.id: [g.endpoints(eid) for eid in ps.edges] for ps in sets}
    direct: dict[int, set[int]] = {ps.id: set() for ps in sets}
    for q in sets:
        if q.level >= max_level:
            continue
        uf = _UnionFind(g.vertices)
        for level in range(max_level + 1):
            if level > q.level:
                for p in by_level.get(level, ()):
                    images = {uf.find(v) for pair in pairs[p.id] for v in pair}
                    if len(images) != p.n_p:
                        direct[p.id].add(q.id)
            for p in by_level.get(level, ()):
                if p.id == q.id:
                    continue
                for a, b in pairs[p.id]:
                    uf.union(a, b)
    closed: dict[int, frozenset[int]] = {}
    parents: dict[int, frozenset[int]] = {}
    for ps in sets:
        below = frozenset().union(*(closed[d] for d in direct[ps.id]))
        closed[ps.id] = below | direct[ps.id]
        parents[ps.id] = frozenset(direct[ps.id] - below)
    return AncestorPoset(parents), closed


def _check_against_the_reference(g: Multigraph, part: PrimePartition) -> None:
    poset = _ancestor_order(g, part)
    ref, closed = _reference_ancestor_order(g, part)
    assert poset.parents == ref.parents
    # the parent lists regenerate exactly the closed relation
    assert {pid: poset.ancestors_of(pid) for pid in closed} == closed


def _layered_graphs() -> list[Multigraph]:
    """360 graphs, most of them with several levels: K4 towers of 1 to 60
    levels, random multigraphs, and K4s joined by 2-edge bundles."""
    rng = random.Random(13)
    graphs = [k4_tower(levels) for levels in range(1, 61)]
    for _ in range(150):
        graphs.append(random_connected(rng, n_max=9, m_max=16))
        graphs.append(k4_pairs(rng))
    return graphs


def _bench_structured_graphs() -> list[Multigraph]:
    """The benchmark's K4 block trees (B = 2..40: one level of bundles over
    the K4s) and pair hierarchies (d = 1..6: d levels of bundles)."""
    rng = random.Random(17)
    insts = [workloads.block_tree(rng, b) for b in range(2, 41)]
    insts += [workloads.pair_hierarchy(rng, d) for d in range(1, 7)]
    return [Multigraph.from_edge_list(inst.edges) for inst in insts]


def test_ancestor_order_matches_the_reference_replay():

    graphs = _layered_graphs()
    layered = 0
    for g in graphs:
        pp = prime_partition(g)
        layered += len({ps.level for ps in pp.prime_sets}) > 1
        flipped = PrimePartition(tuple(reversed(pp.prime_sets)), pp.non_prime, pp.af)
        for part in (pp, flipped):
            _check_against_the_reference(g, part)
    assert len(graphs) == 360 and layered >= 200
    for g in _bench_structured_graphs():
        pp = prime_partition(g)
        assert len({ps.level for ps in pp.prime_sets}) > 1
        flipped = PrimePartition(tuple(reversed(pp.prime_sets)), pp.non_prime, pp.af)
        for part in (pp, flipped):
            _check_against_the_reference(g, part)


def test_replays_union_a_bounded_number_of_edges(monkeypatch):
    # every union-find union of the ancestor order goes through
    # ``prime._join``: the forest build unions each prime edge once, and
    # each replay only the sets on its prime set's path up the forest, so
    # on a wide tree, a deep hierarchy and a tall tower all of them
    # together stay within 4 m; a replay over whole levels would not

    from arboricity import prime

    joined = 0
    join = prime._join

    def counted(up, ends):
        nonlocal joined
        joined += len(ends) // 2
        join(up, ends)

    monkeypatch.setattr(prime, "_join", counted)
    rng = random.Random(5)
    graphs = [
        Multigraph.from_edge_list(workloads.block_tree(rng, 200).edges),
        Multigraph.from_edge_list(workloads.pair_hierarchy(rng, 8).edges),
        k4_tower(300),
    ]
    for g in graphs:
        pp = prime_partition(g)
        joined = 0
        _ancestor_order(g, pp)
        assert sum(len(ps.edges) for ps in pp.prime_sets) <= joined <= 4 * g.num_edges()


def _reference_prime_partition(g: Multigraph) -> PrimePartition:
    """The prime partition by contracting each level's minimal densest
    subgraphs into a new ``Multigraph`` with ``Multigraph.contract``, kept as
    the reference for ``prime_partition``'s levels on one union-find."""
    af = fractional_arboricity(g).value
    collected = []  # (edges, level, n_p)
    level = 0
    current = g
    while current.num_edges():
        verts, us, vs = _compact(current)
        denser, minimal = kernels.sweep(len(verts), us, vs, af.numerator, af.denominator)
        assert denser is None
        if not minimal:
            break
        level_edges: set[int] = set()
        for mds in minimal:
            sub = current.induced_by_vertices(verts[i] for i in mds)
            collected.append((sub.edge_ids, level, sub.num_vertices()))
            level_edges |= sub.edge_ids
        current = current.contract(level_edges).as_multigraph()
        level += 1
    order = sorted(collected, key=lambda item: (item[1], min(item[0])))
    prime_sets = tuple(PrimeSet(i, *item) for i, item in enumerate(order))
    return PrimePartition(prime_sets, current.edge_ids, af)


def doubled_triangle_pairs(rng) -> Multigraph:
    """2 to 5 triangles with doubled sides, merged pairwise by random 3-edge
    bundles until connected: af = 3, and each bundle becomes 3 parallel
    edges, a minimal densest pair, once the triangles it joins contract."""
    blocks = [list(range(3 * i, 3 * i + 3)) for i in range(rng.randint(2, 5))]
    edges = [(a, b) for v, w, x in blocks for a, b in ((v, w), (w, x), (v, x))] * 2
    while len(blocks) > 1:
        a, b = rng.sample(range(len(blocks)), 2)
        edges += [(rng.choice(blocks[a]), rng.choice(blocks[b])) for _ in range(3)]
        blocks[a] += blocks[b]
        del blocks[b]
    return Multigraph.from_edge_list(edges)


def test_levels_on_one_union_find_match_the_contracted_minors():
    # the levels contract on one union-find over compact indices, where the
    # reference builds each level's minor with Multigraph.contract: the same
    # prime sets, levels, n_p and E0 on layered graphs, the benchmark's
    # structured families, and minors whose minimal sets are parallel
    # bundles of exactly af edges (af = 2 and af = 3)
    rng = random.Random(19)
    graphs = _layered_graphs() + _bench_structured_graphs()
    graphs += [doubled_triangle_pairs(rng) for _ in range(60)]
    bundled = 0
    for g in graphs:
        pp = prime_partition(g)
        assert pp == _reference_prime_partition(g)
        bundled += any(ps.level and len(ps.edges) == pp.af for ps in pp.prime_sets)
    assert bundled > 300, bundled


@pytest.mark.parametrize(
    "inst",
    [
        workloads.block_tree(random.Random(1), 30),
        workloads.pair_hierarchy(random.Random(1), 5),
    ],
    ids=["block_tree", "pair_hierarchy"],
)
def test_a_request_builds_no_graph_beyond_its_own(inst, monkeypatch):
    # the af loop, the level loop and the peel read g's cached compact form:
    # no Multigraph is built beyond g, and g's components are computed once
    from arboricity import multigraph

    built, computed = [], []
    init, components = Multigraph.__init__, multigraph._components

    def counted_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def counted_components(compact):
        computed.append(compact)
        return components(compact)

    for run in (prime_partition, solve_nucleolus):
        g = Multigraph.from_edge_list(inst.edges)
        built.clear()
        computed.clear()
        monkeypatch.setattr(Multigraph, "__init__", counted_init)
        monkeypatch.setattr(multigraph, "_components", counted_components)
        run(g)
        monkeypatch.undo()
        assert built == [] and computed == [_compact(g)]
