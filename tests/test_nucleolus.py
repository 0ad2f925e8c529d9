import json
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

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
from arboricity.cli import main as cli_main
from arboricity.nucleolus import solve_nucleolus

from conftest import (
    four_k4_chain,
    k4,
    k4_tower,
    path,
    triangle,
    triangle_pendant,
    two_k4_bridge,
    two_k4_shared_vertex,
)

# the benchmark's structured generators and closed-form checks, read only
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "pipeline_bench"))
import checks  # noqa: E402
import workloads  # noqa: E402


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


def test_k4_tower_closed_form():
    # a tower of L levels peels the top vertex's 2 edges at epsilon, each
    # level below at one epsilon more, and the K4 at L * epsilon; the total
    # 6L + L(L - 1) epsilons is the arboricity 2.  300 levels make a deep
    # contraction hierarchy: one minimal-densest enumeration per level.
    levels = 300
    sol = solve_nucleolus(k4_tower(levels))
    eps = Fraction(2, levels * (levels + 5))
    assert sol.epsilon == eps == Fraction(1, 45750)
    expected = {e: levels * eps for e in range(6)}
    for i in range(1, levels):
        expected[4 + 2 * i] = expected[5 + 2 * i] = (levels - i) * eps
    assert sol.allocation == expected


@pytest.mark.parametrize("seed", [1, 2])
def test_structured_closed_forms_at_scale(tmp_path, seed):
    # K4 block trees (B = 200) and pair hierarchies (d = 8: 256 K4s over 9
    # levels), far beyond the brute-force oracles: the CLI's nucleolus meets
    # the construction's closed form and the core, and the prime partition
    # has the prime sets per level that the construction fixes
    rng = random.Random(seed)
    for inst in (workloads.block_tree(rng, 200), workloads.pair_hierarchy(rng, 8)):
        graph_file = tmp_path / f"{inst.family}.txt"
        graph_file.write_text("".join(f"{u} {v}\n" for u, v in inst.edges))
        out = tmp_path / f"{inst.family}.json"
        assert cli_main(["nucleolus", str(graph_file), "--output", str(out)]) == 0
        checks.check_structured(inst, json.loads(out.read_text()))
        g = Multigraph.from_edge_list(inst.edges)
        pp = prime_partition(g)
        assert Counter(ps.level for ps in pp.prime_sets) == checks.expected_levels(inst)
        assert not pp.non_prime
        parents = ancestors(g, pp).parents
        if inst.family == "block_tree":
            # each bundle's parents are the two K4s that its edges touch
            k4_of = {
                v: ps.id for ps in pp.prime_sets if ps.level == 0
                for e in ps.edges for v in g.endpoints(e)
            }
            for ps in pp.prime_sets:
                if ps.level == 1:
                    touched = {k4_of[v] for e in ps.edges for v in g.endpoints(e)}
                    assert parents[ps.id] == touched and len(touched) == 2
        else:
            # each set above the K4s has two parents one level down, and each
            # set below the top is the parent of exactly one set
            level = {ps.id: ps.level for ps in pp.prime_sets}
            children = Counter(a for ps in parents.values() for a in ps)
            for pid, above in parents.items():
                assert [level[a] for a in above] == [level[pid] - 1] * (2 if level[pid] else 0)
                assert children[pid] == (level[pid] < inst.size)


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


def test_is_tight_tree_rejects_a_partition_of_another_graph():
    # t is a spanning tree of g, but pp's prime sets cover only g's first K4
    pp = prime_partition(k4())
    g = two_k4_bridge()
    with pytest.raises(GraphInputError):
        is_tight_tree(g, pp, {0, 1, 2, 6, 7, 8, 12})


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
