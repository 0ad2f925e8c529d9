from fractions import Fraction

import pytest

from arboricity import (
    AncestorPoset,
    EmptyCoreError,
    GraphInputError,
    InternalInvariantError,
    Multigraph,
    ancestors,
    core_membership,
    is_tight_tree,
    nucleolus,
    peel,
    peel_assignment,
    prime_partition,
    solve_epsilon,
)

from conftest import (
    four_k4_chain,
    k4,
    path,
    triangle,
    triangle_pendant,
    two_k4_bridge,
    two_k4_shared_vertex,
)


def test_peel_antichain():
    poset = AncestorPoset({i: frozenset() for i in range(5)})
    assert peel(poset) == {i: 1 for i in range(5)}


def test_peel_two_k4_bridge_poset():
    poset = AncestorPoset({0: frozenset(), 1: frozenset(), 2: frozenset({0, 1})})
    assert peel(poset) == {0: 2, 1: 2, 2: 1}


def test_peel_long_chain():
    # one set per level: far deeper than the interpreter's recursion limit
    n = 1500
    poset = AncestorPoset({i: frozenset({i + 1}) if i + 1 < n else frozenset() for i in range(n)})
    assert peel(poset) == {i: i + 1 for i in range(n)}


def test_peel_antichain_under_chain():
    # 1,000 incomparable sets, all below the bottom of a 601-set chain
    width, top = 1000, 1600
    parents = {i: frozenset({width}) for i in range(width)}
    parents.update({j: frozenset({j + 1}) for j in range(width, top)})
    parents[top] = frozenset()
    rounds = peel(AncestorPoset(parents))
    assert rounds == {i: 1 if i < width else i - width + 2 for i in range(top + 1)}


def test_peel_rejects_a_cycle():
    poset = AncestorPoset({0: frozenset({1}), 1: frozenset({0}), 2: frozenset()})
    with pytest.raises(InternalInvariantError):
        peel(poset)


def test_peel_four_k4_chain_poset():
    g = four_k4_chain()
    pp = prime_partition(g)
    rounds = peel(ancestors(g, pp))
    by_level = {ps.id: ps.level for ps in pp.prime_sets}
    assert all(rounds[i] == 3 - by_level[i] for i in rounds)


def test_solve_epsilon_tree():
    g = path(5)
    pp = prime_partition(g)
    eps = solve_epsilon(pp, {ps.id: 1 for ps in pp.prime_sets})
    assert eps == Fraction(1, 5)


def test_solve_epsilon_two_k4_bridge():
    g = two_k4_bridge()
    pp = prime_partition(g)
    poset = ancestors(g, pp)
    assignment = peel_assignment(pp, poset)
    assert assignment.epsilon == Fraction(1, 13)
    assert assignment.y_nonprime == 0


def test_solve_epsilon_four_k4_chain():
    g = four_k4_chain()
    pp = prime_partition(g)
    assignment = peel_assignment(pp, ancestors(g, pp))
    assert assignment.epsilon == Fraction(1, 41)


def test_solve_epsilon_empty():
    g = path(2)
    pp = prime_partition(g)
    with pytest.raises(GraphInputError):
        solve_epsilon(
            type(pp)(prime_sets=(), non_prime=pp.non_prime, af=pp.af),
            {},
        )


def test_nucleolus_trees_uniform():
    for m in range(1, 7):
        g = path(m)
        x = nucleolus(g)
        assert x == {e: Fraction(1, m) for e in range(m)}


def test_nucleolus_k4():
    assert nucleolus(k4()) == {e: Fraction(1, 3) for e in range(6)}


def test_nucleolus_two_k4_shared_vertex():
    g = two_k4_shared_vertex()
    assert nucleolus(g) == {e: Fraction(1, 6) for e in range(12)}


def test_nucleolus_two_k4_bridge():
    g = two_k4_bridge()
    x = nucleolus(g)
    for e in range(12):
        assert x[e] == Fraction(2, 13)
    assert x[12] == x[13] == Fraction(1, 13)
    assert sum(x.values()) == 2
    assert core_membership(g, x).verdict == "member"


def test_nucleolus_empty_core():
    with pytest.raises(EmptyCoreError) as exc:
        nucleolus(triangle())
    assert "af=3/2" in str(exc.value)
    assert "a=2" in str(exc.value)


def test_nucleolus_variant_mode():
    g = triangle()
    x = nucleolus(g, variant=True)
    # one prime set (the whole triangle): y = epsilon = 1/2 on each edge
    assert x == {e: Fraction(1, 2) for e in range(3)}
    assert sum(x.values()) == Fraction(3, 2)  # the fractional-arboricity cost
    y = nucleolus(triangle_pendant(), variant=True)
    assert y[3] == 0
    assert sum(y.values()) == Fraction(3, 2)


def test_is_tight_tree_bridge_graph():
    g = two_k4_bridge()
    pp = prime_partition(g)
    # 3 edges in each K4 plus one bridge edge
    t1 = {0, 1, 2, 6, 7, 8, 12}
    assert g.induced_by_edges(t1).is_connected()
    assert is_tight_tree(g, pp, t1)
    # 2 edges in the first K4 and both bridges cannot be tight
    t2 = {0, 1, 6, 7, 8, 12, 13}
    if len(t2) == g.num_vertices() - 1 and g.induced_by_edges(t2).is_connected():
        assert not is_tight_tree(g, pp, t2)


def test_is_tight_tree_on_tree_graph():
    g = path(3)
    pp = prime_partition(g)
    assert is_tight_tree(g, pp, {0, 1, 2})


def test_is_tight_tree_rejects_non_tree():
    g = two_k4_bridge()
    pp = prime_partition(g)
    with pytest.raises(GraphInputError):
        is_tight_tree(g, pp, {0, 1, 2})
    with pytest.raises(GraphInputError):
        is_tight_tree(g, pp, {0, 1, 2, 3, 6, 7, 8})  # cycle, right size


def test_tight_tree_dichotomy_two_k4_bridge():
    g = two_k4_bridge()
    pp = prime_partition(g)
    x = nucleolus(g)
    eps = Fraction(1, 13)
    for t in g.enumerate_spanning_trees(5000):
        weight = sum(x[e] for e in t)
        if is_tight_tree(g, pp, t):
            assert weight == 1
        else:
            assert weight <= 1 - eps


def test_tightness_supported_from_below():
    # every prime set is either at the bottom payoff or exactly epsilon
    # above one of its descendants
    for g in (two_k4_bridge(), four_k4_chain(), two_k4_shared_vertex()):
        pp = prime_partition(g)
        poset = ancestors(g, pp)
        assignment = peel_assignment(pp, poset)
        below = {ps.id: set() for ps in pp.prime_sets}
        for ps in pp.prime_sets:
            for anc in poset.ancestors_of(ps.id):
                below[anc].add(ps.id)
        for ps in pp.prime_sets:
            y = assignment.y[ps.id]
            if y == assignment.epsilon:
                assert not below[ps.id]
            else:
                assert any(
                    assignment.y[c] + assignment.epsilon == y
                    for c in below[ps.id]
                )


def test_ancestor_monotone_payoffs():
    for g in (two_k4_bridge(), four_k4_chain()):
        pp = prime_partition(g)
        poset = ancestors(g, pp)
        assignment = peel_assignment(pp, poset)
        for ps in pp.prime_sets:
            for anc in poset.ancestors_of(ps.id):
                assert (
                    assignment.y[ps.id] + assignment.epsilon
                    <= assignment.y[anc]
                )
