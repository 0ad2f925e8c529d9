from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arboricity import (
    DisconnectedGraphError,
    GraphInputError,
    Multigraph,
    ResourceLimitError,
)

from arboricity.density import _compact

from conftest import k4, triangle, two_k4_bridge


def test_loops_rejected():
    with pytest.raises(GraphInputError):
        Multigraph.from_edge_list([(0, 0)])


def test_counts_and_components():
    g = Multigraph.from_edge_list([(0, 1), (1, 2), (0, 2), (5, 6)])
    assert g.num_vertices() == 5
    assert g.num_edges() == 4
    assert g.num_components() == 2
    assert g.components() == [frozenset({0, 1, 2}), frozenset({5, 6})]
    assert Multigraph({}).components() == []


def test_cached_structure_is_safe_to_share():
    # components and the compact form are computed once per graph and kept:
    # a caller that edits the components' list leaves the next call intact,
    # and the compact form is tuples, which no caller can edit
    g = Multigraph({4: (9, 7), 1: (3, 7), 2: (1, 2)}, vertices={5})
    comps = g.components()
    comps.append(frozenset({99}))
    comps[0] = frozenset()
    assert g.components() == [frozenset({1, 2}), frozenset({3, 7, 9}), frozenset({5})]
    assert g.components() is not g.components()
    compact = _compact(g)
    assert compact == ((1, 2, 3, 5, 7, 9), (2, 0, 4), (4, 1, 5))
    assert all(type(part) is tuple for part in compact)
    assert _compact(g) is compact


def test_induced_by_edges_triangle_single_edge():
    g = triangle()
    sub = g.induced_by_edges({0})
    assert sub.num_vertices() == 2
    assert sub.num_edges() == 1


def test_induced_by_edges_empty():
    g = triangle()
    sub = g.induced_by_edges(set())
    assert sub.num_vertices() == 0
    assert sub.num_edges() == 0


def test_induced_by_edges_k4_block():
    g = two_k4_bridge()
    sub = g.induced_by_edges(set(range(6)))
    assert sub.vertices == frozenset({0, 1, 2, 3})
    assert sub.num_edges() == 6
    assert sub.is_connected()


def test_induced_by_edges_unknown_edge():
    with pytest.raises(GraphInputError):
        triangle().induced_by_edges({99})


def test_contract_one_triangle_edge():
    g = triangle()
    view = g.contract({0})  # edge (0,1)
    h = view.as_multigraph()
    assert h.num_vertices() == 2
    assert h.num_edges() == 2  # two parallel survivors
    assert view.surviving_edges == frozenset({1, 2})


def test_contract_everything():
    g = triangle()
    view = g.contract({0, 1, 2})
    h = view.as_multigraph()
    assert h.num_vertices() == 1
    assert h.num_edges() == 0


def test_contract_one_k4_of_shared_pair():
    from conftest import two_k4_shared_vertex

    g = two_k4_shared_vertex()
    # the same graph on negative, non-contiguous ids, whose first K4's
    # minimum is its vertex 2
    label = [5, 40, -17, 3, -2, 11, -30]
    relabelled = Multigraph({e: (label[u], label[v]) for e, (u, v) in g.edges.items()})
    for h, first_k4 in ((g, (0, 1, 2, 3)), (relabelled, (5, 40, -17, 3))):
        view = h.contract(set(range(6)))  # first K4's edges
        minor = view.as_multigraph()
        assert minor.num_vertices() == 4
        assert minor.num_edges() == 6
        # the image of the contracted K4 is its minimum vertex id
        assert all(view.vertex_map[v] == min(first_k4) for v in first_k4)
        assert all(view.vertex_map[v] == v for v in h.vertices - set(first_k4))


def test_contract_endpoint_images_consistent():
    g = two_k4_bridge()
    view = g.contract(set(range(6)))
    for e, (iu, iv) in view.surviving.items():
        u, v = g.endpoints(e)
        assert (view.vertex_map[u], view.vertex_map[v]) in ((iu, iv), (iv, iu))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_contraction_composes(data):
    import random

    from conftest import random_connected

    seed = data.draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    g = random_connected(rng)
    ids = sorted(g.edge_ids)
    cut = data.draw(st.integers(0, len(ids)))
    first = set(ids[:cut])
    second_pool = set(ids[cut:])
    # one-step contraction of the union
    direct = g.contract(first | second_pool)
    # two-step: contract first, then the second set's survivors on the image
    step1 = g.contract(first)
    inter = step1.as_multigraph()
    step2 = inter.contract(second_pool & inter.edge_ids)
    composed = {
        v: step2.vertex_map[step1.vertex_map[v]] for v in g.vertices
    }
    assert composed == direct.vertex_map


def test_max_weight_spanning_tree_uniform_triangle():
    g = triangle()
    w = {e: Fraction(1, 3) for e in g.edge_ids}
    tree, weight = g.max_weight_spanning_tree(w)
    assert weight == Fraction(2, 3)
    assert len(tree) == 2


def test_max_weight_spanning_tree_k4_uniform():
    g = k4()
    tree, weight = g.max_weight_spanning_tree({e: Fraction(1, 3) for e in g.edge_ids})
    assert weight == 1
    assert len(tree) == 3


def test_max_weight_spanning_tree_path_weights():
    g = Multigraph.from_edge_list([(0, 1), (1, 2), (2, 3)])
    tree, weight = g.max_weight_spanning_tree(
        {0: Fraction(1, 2), 1: Fraction(1, 4), 2: Fraction(1, 4)}
    )
    assert tree == frozenset({0, 1, 2})
    assert weight == 1


def test_max_weight_spanning_tree_tie_break_by_edge_id():
    g = Multigraph.from_edge_list([(0, 1), (0, 1)])
    tree, _ = g.max_weight_spanning_tree({0: 1, 1: 1})
    assert tree == frozenset({0})


def test_max_weight_spanning_tree_disconnected():
    g = Multigraph.from_edge_list([(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError):
        g.max_weight_spanning_tree({0: 1, 1: 1})


def test_enumerate_spanning_trees_counts():
    assert len(triangle().enumerate_spanning_trees(10)) == 3
    assert len(k4().enumerate_spanning_trees(100)) == 16
    path = Multigraph.from_edge_list([(0, 1), (1, 2)])
    assert path.enumerate_spanning_trees(10) == [frozenset({0, 1})]


def _kirchhoff_count(g: Multigraph) -> int:
    """The number of spanning trees: the determinant of g's Laplacian with
    its first row and column removed, by exact Fraction elimination."""
    verts = sorted(g.vertices)
    index = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    lap = [[Fraction(0)] * n for _ in range(n)]
    for u, v in g.edges.values():
        a, b = index[u], index[v]
        lap[a][a] += 1
        lap[b][b] += 1
        lap[a][b] -= 1
        lap[b][a] -= 1
    m = [row[1:] for row in lap[1:]]
    det = Fraction(1)
    for c in range(n - 1):
        pivot = next((r for r in range(c, n - 1) if m[r][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n - 1):
            f = m[r][c] / m[c][c]
            for k in range(c, n - 1):
                m[r][k] -= f * m[c][k]
    assert det.denominator == 1
    return int(det)


def test_enumerate_spanning_trees_matches_the_matrix_tree_theorem():
    import random

    from conftest import random_connected

    rng = random.Random(11)
    parallel = 0
    for _ in range(80):
        g = random_connected(rng, n_max=6, m_max=10)
        parallel += len(set(g.edges.values())) < g.num_edges()
        trees = g.enumerate_spanning_trees(10**6)
        assert len(trees) == len(set(trees)) == _kirchhoff_count(g)
        for t in trees:
            assert len(t) == g.num_vertices() - 1
            assert g.delete_edges(g.edge_ids - t).is_connected()
    assert parallel >= 40


def test_enumerate_spanning_trees_cap():
    with pytest.raises(ResourceLimitError):
        k4().enumerate_spanning_trees(15)


def test_enumerate_trees_have_right_size():
    g = two_k4_bridge()
    trees = g.enumerate_spanning_trees(5000)
    assert all(len(t) == g.num_vertices() - 1 for t in trees)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_max_tree_matches_enumeration(seed):
    import random

    from conftest import random_connected

    rng = random.Random(seed)
    g = random_connected(rng, n_max=5, m_max=6)
    w = {e: Fraction(rng.randint(0, 8), rng.randint(1, 5)) for e in g.edge_ids}
    try:
        trees = g.enumerate_spanning_trees(16)
    except ResourceLimitError:
        return
    best = max(sum(w[e] for e in t) for t in trees)
    _, weight = g.max_weight_spanning_tree(w)
    assert weight == best
