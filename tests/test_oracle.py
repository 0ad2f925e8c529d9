import math
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import pytest
from hypothesis import given, settings, strategies as st

from arboricity import (
    EmptyCoreError,
    GraphInputError,
    Multigraph,
    ResourceLimitError,
    core_nonempty,
    core_vertices,
    fractional_arboricity,
    nucleolus,
)
from arboricity import oracle
from arboricity.game import _connected_vertex_subsets
from arboricity.multigraph import EdgeId, VertexId
from arboricity.oracle import (
    DEFAULT_GAME_CAP,
    ZERO,
    _Echelon,
    _prune,
    _subset_sums,
    brute_core_check,
    brute_fractional_arboricity,
    enumerate_densest_subgraphs,
    excess_vector,
    gamma_table,
    maschler_nucleolus,
)

from conftest import (
    UnionFind,
    k4,
    path,
    random_connected,
    triangle,
    two_k4_shared_vertex,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "pipeline_bench"))
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# test-only references: a union-find per edge mask, a bit loop per coalition
# sum, a pair loop per prune, the Fraction gamma table, the elimination of
# every row again per hull direction, and the affine hull that tries every
# direction with two LPs from an empty start


def _edge_ends(g: Multigraph) -> tuple[list[EdgeId], list[tuple[int, int]]]:
    """Edges in id order and their endpoints as indices of sorted vertices."""
    order = sorted(g.edge_ids)
    vindex = {v: i for i, v in enumerate(sorted(g.vertices))}
    return order, [(vindex[u], vindex[v]) for u, v in map(g.endpoints, order)]


def _reference_subset_density(
    ends: Sequence[tuple[int, int]], mask: int
) -> Fraction | None:
    """Density of the edge subset, or None if it is not connected."""
    verts: set[int] = set()
    edges = []
    for i, (u, v) in enumerate(ends):
        if mask >> i & 1:
            verts.add(u)
            verts.add(v)
            edges.append((u, v))
    if not edges:
        return None
    uf = UnionFind(verts)
    for u, v in edges:
        uf.union(u, v)
    if len({uf.find(v) for v in verts}) != 1:
        return None
    return Fraction(len(edges), len(verts) - 1)


def _reference_brute_fractional_arboricity(
    g: Multigraph,
) -> tuple[Fraction, frozenset[VertexId]]:
    """Maximum of m(H)/(n(H)-1) over all connected edge subsets, with witness."""
    m = g.num_edges()
    order, ends = _edge_ends(g)
    best: Fraction | None = None
    best_mask = 0
    for mask in range(1, 1 << m):
        d = _reference_subset_density(ends, mask)
        if d is not None and (best is None or d > best):
            best, best_mask = d, mask
    assert best is not None
    verts = {
        w
        for i, e in enumerate(order)
        if best_mask >> i & 1
        for w in g.endpoints(e)
    }
    return best, frozenset(verts)


def _reference_enumerate_densest_subgraphs(g: Multigraph) -> list[frozenset[VertexId]]:
    """All connected induced subgraphs attaining the maximum density."""
    af, _ = _reference_brute_fractional_arboricity(g)
    return [
        subset
        for subset, sub in _connected_vertex_subsets(g)
        if Fraction(sub.num_edges(), len(subset) - 1) == af
    ]


def _reference_coalition_sum(x: Sequence[Fraction], mask: int) -> Fraction:
    total = ZERO
    i = 0
    while mask:
        if mask & 1:
            total += x[i]
        mask >>= 1
        i += 1
    return total


def _reference_prune_round_one(table: list[int], m: int) -> list[int]:
    """Coalitions whose constraint is not implied by an equal-cost superset."""
    full = (1 << m) - 1
    kept = []
    for mask in range(1, full):
        implied = False
        for i in range(m):
            if not mask >> i & 1:
                sup = mask | 1 << i
                if sup != full and table[sup] == table[mask]:
                    implied = True
                    break
        if not implied:
            kept.append(mask)
    return kept


def _reference_prune_within(masks: list[int], table: list[int], full: int) -> list[int]:
    kept = []
    for s in masks:
        implied = any(
            s2 != s and s2 != full and s | s2 == s2 and table[s2] <= table[s]
            for s2 in masks
        )
        if not implied:
            kept.append(s)
    return kept


def _reference_gamma_table(g: Multigraph, edge_cap: int = DEFAULT_GAME_CAP) -> list[int]:
    """gamma(S) for every edge-subset bitmask, in sorted-EdgeId bit order.

    gamma(S) is the ceiling of the maximum density over connected subsets of
    S, computed by dynamic programming over the subset lattice.
    """
    m = g.num_edges()
    if m > edge_cap:
        raise ResourceLimitError(f"{m} edges exceeds oracle cap {edge_cap}")
    _, ends = _edge_ends(g)
    best: list[Fraction] = [ZERO] * (1 << m)
    table = [0] * (1 << m)
    for mask in range(1, 1 << m):
        b = ZERO
        for i in range(m):
            if mask >> i & 1:
                prev = best[mask & ~(1 << i)]
                if prev > b:
                    b = prev
        d = _reference_subset_density(ends, mask)
        if d is not None and d > b:
            b = d
        best[mask] = b
        table[mask] = math.ceil(b)
    return table


def _reference_nullspace_direction(
    rows: list[tuple[Fraction, ...]], m: int
) -> tuple[Fraction, ...] | None:
    """A deterministic nonzero vector orthogonal to all rows, or None."""
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    rank = 0
    for col in range(m):
        sel = -1
        for i in range(rank, len(mat)):
            if mat[i][col] != 0:
                sel = i
                break
        if sel < 0:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        inv = Fraction(1) / mat[rank][col]
        mat[rank] = [a * inv for a in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        pivots.append(col)
        rank += 1
    free = [c for c in range(m) if c not in pivots]
    if not free:
        return None
    c = free[0]
    d = [ZERO] * m
    d[c] = Fraction(1)
    for i, pc in enumerate(pivots):
        d[pc] = -mat[i][c]
    return tuple(d)


def _reference_fraction_free_direction(
    rows: list[tuple[Fraction | int, ...]], m: int
) -> tuple[Fraction, ...] | None:
    """The same direction as ``_reference_nullspace_direction``, by a
    fraction-free elimination of all the rows from scratch, as the hull did
    for every direction before it kept one echelon basis."""
    basis: list[tuple[int, list[int]]] = []  # (pivot column, integer row)

    def primitive(row: list[int]) -> list[int]:
        g = math.gcd(*row)
        return row if g <= 1 else [a // g for a in row]

    for r in dict.fromkeys(rows):
        k = math.lcm(*[a.denominator for a in r])
        row = [a.numerator * (k // a.denominator) for a in r]
        for pc, prow in basis:
            f = row[pc]
            if f:
                p = prow[pc]
                row = [p * a - f * b for a, b in zip(row, prow)]
        col = next((j for j, a in enumerate(row) if a), -1)
        if col < 0:
            continue
        row = primitive(row)
        p = row[col]
        for i, (pc, prow) in enumerate(basis):
            f = prow[col]
            if f:
                basis[i] = (pc, primitive([p * a - f * b for a, b in zip(prow, row)]))
        basis.append((col, row))
        if len(basis) == m:
            return None
    pivots = dict(basis)
    c = next(j for j in range(m) if j not in pivots)
    d = [ZERO] * m
    d[c] = Fraction(1)
    for pc, prow in pivots.items():
        d[pc] = Fraction(-prow[c], prow[pc])
    return tuple(d)


def _reference_affine_hull(
    face,
) -> tuple[tuple[Fraction, ...], list[tuple[Fraction, ...]]]:
    """A point of the face plus directions spanning its affine hull."""
    m = face.m
    _, x0 = face.optimize([ZERO] * m)
    span: list[tuple[Fraction, ...]] = []  # hull directions found so far
    fixed: list[tuple[Fraction, ...]] = []  # directions with constant x.d
    while True:
        d = _reference_nullspace_direction(span + fixed, m)
        if d is None:
            return x0, span
        hi, x_hi = face.optimize(d)
        lo_neg, x_lo = face.optimize([-a for a in d])
        if hi + lo_neg == 0:  # max d.x == min d.x
            fixed.append(d)
        else:
            span.append(
                tuple([a - b for a, b in zip(x_hi, x_lo)])
            )


def _rank(rows) -> int:
    rank = 0
    mat = [list(map(Fraction, r)) for r in rows]
    for col in range(len(mat[0]) if mat else 0):
        sel = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if sel is None:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        for i in range(rank + 1, len(mat)):
            f = mat[i][col] / mat[rank][col]
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


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


def test_gamma_table_matches_the_fraction_reference():
    rng = random.Random(11)
    for k in range(1000):
        g = random_connected(rng, n_max=7, m_max=3 + k % 6)
        assert gamma_table(g) == _reference_gamma_table(g)


def test_densest_masks_match_the_union_find_references():
    """brute af, its witness and the densest list, read off the lattice,
    equal a union-find per edge mask and a scan of the induced vertex
    subsets, on contiguous and scattered vertex labels."""
    rng = random.Random(23)
    scattered = 0
    for k in range(2000):
        g = random_connected(rng, n_max=7, m_max=2 + k % 7)
        if k % 3 == 0:  # labels in random order with gaps
            labels = rng.sample(range(100), 7)
            g = Multigraph.from_edge_list(
                [(labels[u], labels[v]) for u, v in map(g.endpoints, sorted(g.edge_ids))]
            )
            scattered += 1
        assert brute_fractional_arboricity(g) == _reference_brute_fractional_arboricity(g)
        assert enumerate_densest_subgraphs(g) == _reference_enumerate_densest_subgraphs(g)
    assert scattered > 600


def test_subset_sums_match_the_bit_loop():
    rng = random.Random(29)
    for _ in range(300):
        x = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(rng.randint(0, 7))]
        sums = _subset_sums(x)
        assert sums == [_reference_coalition_sum(x, mask) for mask in range(1 << len(x))]


def test_prune_matches_both_references():
    """One superset-minimum prune equals the round-one scan when every
    coalition is active, and the pair loop on any active list."""
    rng = random.Random(31)
    for k in range(300):
        g = random_connected(rng, n_max=7, m_max=3 + k % 6)
        m = g.num_edges()
        table = gamma_table(g)
        full = (1 << m) - 1
        every = list(range(1, full))
        kept = _prune(every, table, m)
        assert kept == _reference_prune_round_one(table, m)
        assert kept == _reference_prune_within(every, table, full)
        for _ in range(3):
            active = [s for s in every if rng.random() < 0.5]
            assert _prune(active, table, m) == _reference_prune_within(active, table, full)


def test_excess_vector_checks_the_allocation_keys():
    t = triangle()
    with pytest.raises(GraphInputError, match="every edge"):
        excess_vector(t, {0: 1, 1: 1})
    with pytest.raises(GraphInputError, match="every edge"):
        excess_vector(t, {0: 1, 1: 0, 2: 0, 7: 1})
    assert excess_vector(t, {0: 1, 1: 1, 2: 0}) == (-1, 0, 0, 0, 0, 1)


def test_nullspace_direction_matches_the_reference():
    """The echelon basis, grown one row at a time, gives after every row the
    direction of both references, which eliminate all the rows so far."""
    rng = random.Random(5)
    for _ in range(1000):
        m = rng.randint(1, 6)
        rows = [
            tuple([Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(m)])
            for _ in range(rng.randint(0, m + 1))
        ]
        rows += rng.sample(rows, len(rows) // 2)  # repeats and reorders
        basis = _Echelon(m)
        for k in range(len(rows) + 1):
            d = basis.direction()
            assert d == _reference_nullspace_direction(rows[:k], m)
            assert d == _reference_fraction_free_direction(rows[:k], m)
            if d is None:
                break
            if k < len(rows):
                basis.add(rows[k])


def _hull_corpus() -> tuple[int, int, int]:
    """Run the scheme on 300 random graphs of at most 7 edges; returns how
    many have an empty core, a fractional af, and a solved round."""
    rng = random.Random(3)
    empty = fractional = solved = 0
    for _ in range(300):
        g = random_connected(rng, n_max=6, m_max=7)
        fractional += fractional_arboricity(g).value.denominator != 1
        try:
            maschler_nucleolus(g)
        except EmptyCoreError:
            empty += 1
        else:
            solved += g.num_edges() > 1  # one edge takes no round
    return empty, fractional, solved


def test_seeded_hull_matches_the_two_lp_reference(monkeypatch):
    """Every round of the scheme finds the same hull, by the same fixed
    coalitions, as the reference that seeds nothing and spends two LPs on
    every direction; a face that is a point is the same point.  Every unit
    row seeded from a positive reduced cost is 0 at x0 and on every
    direction of the reference hull."""
    seeded = oracle._affine_hull
    round_lp = oracle._Face.epsilon_lp
    rounds = points = pinned = 0
    zeros: list[tuple[int, ...]] = []

    def recorded(face, masks, table):
        eps, x0, tight, found = round_lp(face, masks, table)
        zeros[:] = found
        return eps, x0, tight, found

    def checked(face, x0, fixed):
        nonlocal rounds, points, pinned
        span = seeded(face, x0, fixed)
        ref_x0, ref_span = _reference_affine_hull(face)
        assert _rank(span) == _rank(ref_span) == _rank(span + ref_span)
        masks = range(1, (1 << face.m) - 1)
        assert [s for s in masks if any(_reference_coalition_sum(d, s) for d in span)] == [
            s for s in masks if any(_reference_coalition_sum(d, s) for d in ref_span)
        ]
        for row in zeros:
            assert sorted(row) == [0] * (face.m - 1) + [1] and row in fixed
            j = row.index(1)
            assert x0[j] == 0 and all(d[j] == 0 for d in ref_span)
            pinned += 1
        if not span:
            points += 1
            assert tuple(x0) == ref_x0
        rounds += 1
        return span

    monkeypatch.setattr(oracle._Face, "epsilon_lp", recorded)
    monkeypatch.setattr(oracle, "_affine_hull", checked)
    empty, fractional, solved = _hull_corpus()
    assert empty > 0 and fractional > 0 and points == solved
    assert rounds > points  # some faces take more than one round
    assert pinned > 0


def test_echelon_basis_matches_the_elimination_at_every_step(monkeypatch):
    """On the hull corpus, each direction the growing basis offers is the one
    that eliminating every row added so far from scratch gives."""
    offered = ends = 0

    class Checked(_Echelon):
        def __init__(self, m):
            super().__init__(m)
            self.added = []

        def add(self, r):
            self.added.append(r)
            super().add(r)

        def direction(self):
            nonlocal offered, ends
            d = super().direction()
            assert d == _reference_fraction_free_direction(self.added, self.m)
            offered += d is not None
            ends += d is None
            return d

    monkeypatch.setattr(oracle, "_Echelon", Checked)
    _hull_corpus()
    assert offered > 100 and ends > 100


def test_lp_count_per_nucleolus(monkeypatch):
    """One round LP, then one LP per hull direction and two only for a
    direction that proves constant: two LPs for every direction, as a hull
    with nothing seeded spends, would raise these counts.  Edges pinned to 0
    by a positive reduced cost take no LP: the 7-edge graph needs 7 LPs
    without them, and the benchmark's 78 seed-1 graphs 449."""
    calls = 0
    solve = oracle.simplex_solve

    def counting(lp):
        nonlocal calls
        calls += 1
        return solve(lp)

    monkeypatch.setattr(oracle, "simplex_solve", counting)
    counts = []
    pinned = Multigraph.from_edge_list([(0, 1), (1, 2), (2, 3), (1, 4), (1, 5), (2, 3), (2, 3)])
    for g in (k4(), path(3), two_k4_shared_vertex(), pinned):
        calls = 0
        maschler_nucleolus(g, edge_cap=12)
        counts.append(calls)
    assert counts == [9, 1, 21, 1]
    calls = 0
    for inst in workloads.oracle_batch(random.Random("oracle:1")):
        maschler_nucleolus(Multigraph.from_edge_list(inst.edges))
    assert calls == 337
