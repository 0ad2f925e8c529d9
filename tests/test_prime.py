from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arboricity import (
    DisconnectedGraphError,
    GraphInputError,
    Multigraph,
    PrimePartition,
    ancestors,
    decompose_densest_subgraph,
    fractional_arboricity,
    prime_partition,
)
from arboricity.oracle import enumerate_densest_subgraphs

from conftest import (
    four_k4_chain,
    k4,
    k4_edges,
    path,
    random_connected,
    triangle_pendant,
    two_k4_bridge,
    two_k4_shared_vertex,
)


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


def k4_tower(levels: int) -> Multigraph:
    """K4 on 0..3, then vertices 4, 5, ... each joined to the previous vertex
    and to 0: af = 2, and each added vertex is a prime set one level up."""
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for v in range(4, levels + 3):
        edges += [(v - 1, v), (0, v)]
    return Multigraph.from_edge_list(edges)


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
    import random

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


def test_decompose_rejects_non_densest():
    g = two_k4_bridge()
    pp = prime_partition(g)
    with pytest.raises(GraphInputError):
        decompose_densest_subgraph(pp, frozenset({0, 1, 2}), g)


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_partition_invariants_random(seed):
    import random

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
