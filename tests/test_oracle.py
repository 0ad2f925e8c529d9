import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arboricity import (
    EmptyCoreError,
    Multigraph,
    ResourceLimitError,
    core_nonempty,
    core_vertices,
    fractional_arboricity,
    nucleolus,
)
from arboricity.oracle import (
    brute_core_check,
    brute_fractional_arboricity,
    enumerate_densest_subgraphs,
    excess_vector,
    gamma_table,
    maschler_nucleolus,
)

from conftest import (
    k4,
    path,
    random_connected,
    triangle,
    two_k4_shared_vertex,
)


def test_brute_af_named():
    assert brute_fractional_arboricity(triangle())[0] == Fraction(3, 2)
    assert brute_fractional_arboricity(k4())[0] == 2
    assert brute_fractional_arboricity(path(3))[0] == 1


def test_brute_af_cap():
    g = random_connected(random.Random(0), n_max=8, m_max=16)
    if g.num_edges() > 3:
        with pytest.raises(ResourceLimitError):
            brute_fractional_arboricity(g, edge_cap=3)


def test_enumerate_densest_named():
    assert enumerate_densest_subgraphs(k4()) == [frozenset({0, 1, 2, 3})]
    got = enumerate_densest_subgraphs(two_k4_shared_vertex(), edge_cap=12)
    assert sorted(got, key=lambda s: (len(s), min(s))) == [
        frozenset({0, 1, 2, 3}),
        frozenset({3, 4, 5, 6}),
        frozenset(range(7)),
    ]
    got = enumerate_densest_subgraphs(path(2))
    assert len(got) == 3


def test_gamma_table_triangle():
    table = gamma_table(triangle())
    assert table[0] == 0
    assert table[0b111] == 2
    assert all(table[1 << i] == 1 for i in range(3))
    assert all(table[0b111 ^ (1 << i)] == 1 for i in range(3))


def test_maschler_named():
    assert maschler_nucleolus(path(2)) == {0: Fraction(1, 2), 1: Fraction(1, 2)}
    assert maschler_nucleolus(path(3)) == {e: Fraction(1, 3) for e in range(3)}
    assert maschler_nucleolus(k4()) == {e: Fraction(1, 3) for e in range(6)}


def test_maschler_single_edge():
    assert maschler_nucleolus(Multigraph.from_edge_list([(0, 1)])) == {
        0: Fraction(1)
    }


def test_maschler_empty_core():
    with pytest.raises(EmptyCoreError):
        maschler_nucleolus(triangle())


def test_maschler_cap():
    g = two_k4_shared_vertex()
    with pytest.raises(ResourceLimitError):
        maschler_nucleolus(g, edge_cap=10)


def test_maschler_relabel_invariance():
    # doubled edge plus a pendant edge: af = 2, nucleolus (1, 1, 0)
    base = [(0, 1), (0, 1), (1, 2)]
    g = Multigraph.from_edge_list(base)
    perm = [2, 0, 1]  # vertex relabeling
    relabeled = Multigraph.from_edge_list(
        [(perm[u], perm[v]) for u, v in base]
    )
    a = maschler_nucleolus(g)
    assert a == {0: 1, 1: 1, 2: 0}
    b = maschler_nucleolus(relabeled)
    assert a == b  # edge ids unchanged by vertex relabeling


def test_brute_core_check_named():
    g = k4()
    assert brute_core_check(g, {e: Fraction(1, 3) for e in g.edge_ids})
    t = triangle()
    # empty core: no allocation with total 2 passes every coalition
    assert not brute_core_check(t, {0: 1, 1: 1, 2: 0})
    assert not brute_core_check(t, {e: Fraction(2, 3) for e in range(3)})
    p = path(2)
    assert brute_core_check(p, {0: 1, 1: 0})  # boundary member


def test_excess_vector_lex_optimality():
    g = two_k4_shared_vertex()
    x = nucleolus(g)
    theta_x = excess_vector(g, x, edge_cap=12)
    for y in core_vertices(g, cap=10):
        if y == x:
            continue
        theta_y = excess_vector(g, y, edge_cap=12)
        assert theta_x >= theta_y  # lexicographic comparison on tuples


@given(st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_maschler_matches_fast_nucleolus(seed):
    rng = random.Random(seed)
    g = random_connected(rng, n_max=7, m_max=10)
    if not core_nonempty(g).nonempty:
        return
    assert maschler_nucleolus(g) == nucleolus(g)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_maschler_output_in_core(seed):
    rng = random.Random(seed)
    g = random_connected(rng, n_max=7, m_max=10)
    if not core_nonempty(g).nonempty:
        return
    x = maschler_nucleolus(g)
    assert brute_core_check(g, x)
    theta_x = excess_vector(g, x)
    for y in core_vertices(g, cap=500):
        assert theta_x >= excess_vector(g, y)
