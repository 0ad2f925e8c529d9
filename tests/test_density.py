from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arboricity import (
    DisconnectedGraphError,
    GraphInputError,
    Multigraph,
    arboricity,
    density,
    enumerate_minimal_densest_subgraphs,
    exceeds_density,
    fractional_arboricity,
    minimal_densest_subgraph,
)
from arboricity.oracle import brute_fractional_arboricity, enumerate_densest_subgraphs

from conftest import (
    k4,
    path,
    random_connected,
    triangle,
    triangle_pendant,
    two_k4_bridge,
    two_k4_shared_vertex,
)


def test_density_values():
    assert density(triangle()) == Fraction(3, 2)
    assert density(k4()) == 2
    assert density(Multigraph({}, vertices=[7])) == 0
    assert density(path(3)) == 1


def test_exceeds_density_triangle():
    assert exceeds_density(triangle(), 1) == frozenset({0, 1, 2})
    assert exceeds_density(triangle(), Fraction(3, 2)) is None


def test_exceeds_density_tree():
    assert exceeds_density(path(4), 1) is None


def test_exceeds_density_validation():
    with pytest.raises(GraphInputError):
        exceeds_density(triangle(), -1)
    with pytest.raises(GraphInputError):
        exceeds_density(Multigraph({}), 1)


def test_exceeds_density_needs_rooting():
    # the densest subgraph here (the triangle, 3/2) beats lambda = 4/3 but
    # no vertex set satisfies m(U) > lambda * n(U); a naive single cut
    # misses it
    g = triangle_pendant()
    w = exceeds_density(g, Fraction(4, 3))
    assert w == frozenset({0, 1, 2})


def test_fractional_arboricity_named():
    assert fractional_arboricity(triangle()).value == Fraction(3, 2)
    assert fractional_arboricity(k4()).value == 2
    assert fractional_arboricity(path(5)).value == 1
    assert fractional_arboricity(two_k4_bridge()).value == 2
    assert fractional_arboricity(triangle_pendant()).value == Fraction(3, 2)


def test_fractional_arboricity_witness_attains_value():
    for g in (triangle(), k4(), two_k4_bridge(), triangle_pendant()):
        cert = fractional_arboricity(g)
        sub = g.induced_by_vertices(cert.witness)
        assert sub.is_connected()
        assert Fraction(sub.num_edges(), sub.num_vertices() - 1) == cert.value


def test_fractional_arboricity_denominator_bound():
    for g in (triangle(), k4(), two_k4_bridge()):
        cert = fractional_arboricity(g)
        assert cert.value.denominator <= g.num_vertices() - 1


def test_fractional_arboricity_edgeless():
    with pytest.raises(GraphInputError):
        fractional_arboricity(Multigraph({}, vertices=[0, 1]))


def test_arboricity_values():
    assert arboricity(triangle()) == 2
    assert arboricity(path(3)) == 1
    assert arboricity(k4()) == 2


def test_minimal_densest_subgraph_named():
    assert minimal_densest_subgraph(k4()) == frozenset({0, 1, 2, 3})
    assert minimal_densest_subgraph(triangle()) == frozenset({0, 1, 2})
    mds = minimal_densest_subgraph(two_k4_shared_vertex())
    assert mds in (frozenset({0, 1, 2, 3}), frozenset({3, 4, 5, 6}))


def test_minimal_densest_subgraph_disconnected():
    with pytest.raises(DisconnectedGraphError):
        minimal_densest_subgraph(Multigraph.from_edge_list([(0, 1), (2, 3)]))


def test_enumerate_mds_named():
    assert enumerate_minimal_densest_subgraphs(k4()) == [frozenset({0, 1, 2, 3})]
    got = enumerate_minimal_densest_subgraphs(two_k4_shared_vertex())
    assert sorted(got, key=min) == [frozenset({0, 1, 2, 3}), frozenset({3, 4, 5, 6})]
    # every edge of a path is its own minimal densest subgraph
    got = enumerate_minimal_densest_subgraphs(path(4))
    assert sorted(got, key=min) == [
        frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4}),
    ]


def test_mds_pairwise_edge_disjoint():
    g = two_k4_bridge()
    got = enumerate_minimal_densest_subgraphs(g)
    edge_sets = [g.induced_by_vertices(u).edge_ids for u in got]
    for i in range(len(edge_sets)):
        for j in range(i + 1, len(edge_sets)):
            assert not (edge_sets[i] & edge_sets[j])


def test_exceeds_at_af_boundary():
    for g in (triangle(), k4(), two_k4_bridge(), triangle_pendant()):
        af = fractional_arboricity(g).value
        n = g.num_vertices()
        assert exceeds_density(g, af) is None
        nudge = af - Fraction(1, (n - 1) * n)
        assert exceeds_density(g, nudge) is not None


@given(st.integers(0, 10**6))
@settings(max_examples=120, deadline=None)
def test_af_matches_brute_force(seed):
    import random

    rng = random.Random(seed)
    g = random_connected(rng, n_max=7, m_max=11)
    fast = fractional_arboricity(g).value
    brute, _ = brute_fractional_arboricity(g, edge_cap=12)
    assert fast == brute


@given(st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_mds_properties_random(seed):
    import random

    rng = random.Random(seed)
    g = random_connected(rng, n_max=6, m_max=10)
    af = fractional_arboricity(g).value
    mds_list = enumerate_minimal_densest_subgraphs(g)
    assert mds_list
    for u in mds_list:
        sub = g.induced_by_vertices(u)
        assert sub.is_connected()
        assert Fraction(sub.num_edges(), sub.num_vertices() - 1) == af
    # exactly the inclusion-minimal densest subgraphs found by the oracle,
    # each once
    dense_all = enumerate_densest_subgraphs(g, edge_cap=12)
    minimal = {d for d in dense_all if not any(e < d for e in dense_all)}
    assert len(set(mds_list)) == len(mds_list)
    assert set(mds_list) == minimal
    # noncrossing against every densest subgraph found by the oracle
    e_mds = [g.induced_by_vertices(u).edge_ids for u in mds_list]
    for dense in dense_all:
        de = g.induced_by_vertices(dense).edge_ids
        for es in e_mds:
            assert es <= de or not (es & de)
    # shared-vertex bound: fewer multiply-covered vertices than subgraphs
    counts: dict[int, int] = {}
    for u in mds_list:
        for v in u:
            counts[v] = counts.get(v, 0) + 1
    shared = sum(1 for c in counts.values() if c >= 2)
    assert shared < len(mds_list)
