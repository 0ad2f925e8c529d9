"""Independent brute-force oracles for small instances.

Nothing in this module consults the decomposition machinery: fractional
arboricity is recomputed by exhaustive enumeration, core checks iterate over
all coalitions, and the nucleolus is obtained by the classical scheme of
recursively solved linear programs over the full coalition lattice.  These
are the reference answers the fast algorithms are tested against.

Coalition costs come from ``gamma_table``, an int dynamic program over the
subset lattice that finds each coalition's vertex set and connectivity with
bit masks.

The scheme maximizes, round by round, the minimum excess over coalitions not
yet fixed, then restricts to the optimal face.  Faces are carried as exact
H-representations; which coalitions a face fixes is decided exactly by
computing the face's affine hull and testing each coalition's indicator
against the hull directions.  The hull search starts from rows already known
to be constant on the new face:

- the face's equality rows;
- the indicators of coalitions fixed in earlier rounds, which are constant
  on the earlier faces and so on this one, which lies inside them;
- the x-part of every row of the round LP with a positive dual price.  By
  complementary slackness such a row is tight at every optimum of the round
  LP, and the new face is exactly the set of optima, so the row is constant
  on it.

The round LP's optimal point lies on the new face and serves as its base
point x0.  Each direction d orthogonal to the rows and directions found so
far then costs one LP, max d.x, whenever that exceeds d.x0, which makes
x_hi - x0 a hull direction; only otherwise does a second LP, min d.x, tell a
direction from a constant row.  The face, every epsilon and every fixed
coalition are unique, so none depends on the directions tried.  Constraints
implied by monotonicity of the cost function (a superset with the same cost)
are omitted from the LPs; they cannot change the feasible set.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import (
    EmptyCoreError,
    GraphInputError,
    InternalInvariantError,
    ResourceLimitError,
)
from .game import Allocation, _connected_vertex_subsets
from .multigraph import EdgeId, Multigraph, VertexId, _UnionFind
from .simplex import EQ, LE, make_lp, simplex_solve

ZERO = Fraction(0)

DEFAULT_AF_CAP = 14
DEFAULT_GAME_CAP = 10


# ---------------------------------------------------------------------------
# exhaustive density oracles


def _edge_order(g: Multigraph) -> list[EdgeId]:
    return sorted(g.edge_ids)


def _edge_ends(g: Multigraph) -> tuple[list[EdgeId], list[tuple[int, int]]]:
    """Edges in id order and their endpoints as indices of sorted vertices."""
    order = _edge_order(g)
    vindex = {v: i for i, v in enumerate(sorted(g.vertices))}
    return order, [(vindex[u], vindex[v]) for u, v in map(g.endpoints, order)]


def _subset_density(
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
    uf = _UnionFind(verts)
    for u, v in edges:
        uf.union(u, v)
    if len({uf.find(v) for v in verts}) != 1:
        return None
    return Fraction(len(edges), len(verts) - 1)


def brute_fractional_arboricity(
    g: Multigraph, edge_cap: int = DEFAULT_AF_CAP
) -> tuple[Fraction, frozenset[VertexId]]:
    """Maximum of m(H)/(n(H)-1) over all connected edge subsets, with witness."""
    m = g.num_edges()
    if m == 0:
        raise GraphInputError("graph has no edges")
    if m > edge_cap:
        raise ResourceLimitError(f"{m} edges exceeds oracle cap {edge_cap}")
    order, ends = _edge_ends(g)
    best: Fraction | None = None
    best_mask = 0
    for mask in range(1, 1 << m):
        d = _subset_density(ends, mask)
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


def enumerate_densest_subgraphs(
    g: Multigraph, edge_cap: int = DEFAULT_AF_CAP
) -> list[frozenset[VertexId]]:
    """All connected induced subgraphs attaining the maximum density."""
    af, _ = brute_fractional_arboricity(g, edge_cap)
    return [
        subset
        for subset, sub in _connected_vertex_subsets(g)
        if Fraction(sub.num_edges(), len(subset) - 1) == af
    ]


# ---------------------------------------------------------------------------
# coalition costs


def gamma_table(g: Multigraph, edge_cap: int = DEFAULT_GAME_CAP) -> list[int]:
    """gamma(S) for every edge-subset bitmask, in sorted-EdgeId bit order.

    gamma(S) is the ceiling of the maximum density over connected subsets of
    S.  The ceiling is monotone, so gamma(S) is the largest of gamma(S - e)
    over e in S and, when S is connected, ceil(|S| / (n(S) - 1)): a dynamic
    program over the subset lattice in ints.  Vertex sets are bit masks, and
    S is connected when some e in S touches a connected S - e (remove an
    edge on a cycle, or a pendant edge of a spanning tree).
    """
    m = g.num_edges()
    if m > edge_cap:
        raise ResourceLimitError(f"{m} edges exceeds oracle cap {edge_cap}")
    _, ends = _edge_ends(g)
    touch = {1 << i: 1 << u | 1 << v for i, (u, v) in enumerate(ends)}
    size = 1 << m
    table = [0] * size
    verts = [0] * size
    connected = [False] * size
    for mask in range(1, size):
        low = mask & -mask
        rest = mask ^ low
        verts[mask] = verts[rest] | touch[low]
        conn = not rest
        best = 0
        bits = mask
        while bits:
            bit = bits & -bits
            bits ^= bit
            sub = mask ^ bit
            if table[sub] > best:
                best = table[sub]
            if not conn and connected[sub] and touch[bit] & verts[sub]:
                conn = True
        if conn:
            connected[mask] = True
            ceil = -(-mask.bit_count() // (verts[mask].bit_count() - 1))
            if ceil > best:
                best = ceil
        table[mask] = best
    return table


def _coalition_sum(x: Sequence[Fraction], mask: int) -> Fraction:
    total = ZERO
    i = 0
    while mask:
        if mask & 1:
            total += x[i]
        mask >>= 1
        i += 1
    return total


def brute_core_check(
    g: Multigraph,
    x: Mapping[EdgeId, Fraction | int],
    edge_cap: int = DEFAULT_GAME_CAP,
) -> bool:
    """x >= 0, x(E) = gamma(E), and x(S) <= gamma(S) for every coalition."""
    if set(x) != set(g.edge_ids):
        raise GraphInputError("allocation must assign a value to every edge")
    table = gamma_table(g, edge_cap)
    order = _edge_order(g)
    vals = [Fraction(x[e]) for e in order]
    if any(v < 0 for v in vals):
        return False
    full = (1 << len(order)) - 1
    if sum(vals) != table[full]:
        return False
    for mask in range(1, full):
        if _coalition_sum(vals, mask) > table[mask]:
            return False
    return True


def excess_vector(
    g: Multigraph,
    x: Mapping[EdgeId, Fraction | int],
    edge_cap: int = DEFAULT_GAME_CAP,
) -> tuple[Fraction, ...]:
    """All nontrivial excesses gamma(S) - x(S), sorted non-decreasingly."""
    table = gamma_table(g, edge_cap)
    order = _edge_order(g)
    vals = [Fraction(x[e]) for e in order]
    full = (1 << len(order)) - 1
    exc = [table[mask] - _coalition_sum(vals, mask) for mask in range(1, full)]
    return tuple(sorted(exc))


# ---------------------------------------------------------------------------
# the classical nucleolus scheme


def _prune_round_one(table: list[int], m: int) -> list[int]:
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


def _prune_within(masks: list[int], table: list[int], full: int) -> list[int]:
    kept = []
    for s in masks:
        implied = any(
            s2 != s and s2 != full and s | s2 == s2 and table[s2] <= table[s]
            for s2 in masks
        )
        if not implied:
            kept.append(s)
    return kept


def _indicator(mask: int, m: int) -> tuple[int, ...]:
    # built from a list, as the note above ``simplex.make_lp`` explains
    return tuple([mask >> j & 1 for j in range(m)])


class _Face:
    """H-representation of the current optimal face, over x in Q^m."""

    def __init__(self, m: int, grand: int):
        self.m = m
        # coalition rows are int 0/1 indicators, which the simplex reads
        # without converting them to Fraction
        self.eq_rows: list[tuple[tuple[int, ...], Fraction | int]] = [
            ((1,) * m, grand)
        ]
        self.ineq_rows: list[tuple[tuple[int, ...], Fraction | int]] = []

    def add_coalition_bound(self, mask: int, bound: Fraction) -> None:
        self.ineq_rows.append((_indicator(mask, self.m), bound))

    def optimize(self, direction: Sequence[Fraction]) -> tuple[Fraction, tuple[Fraction, ...]]:
        rows = [(row, EQ, b) for row, b in self.eq_rows]
        rows += [(row, LE, b) for row, b in self.ineq_rows]
        lp = make_lp(direction, rows, [True] * self.m)
        res = simplex_solve(lp)
        if res.status != "optimal":
            raise InternalInvariantError(f"face LP is {res.status}")
        assert res.value is not None and res.point is not None
        return res.value, res.point

    def epsilon_lp(
        self, masks: list[int], table: list[int]
    ) -> tuple[Fraction, tuple[Fraction, ...], list[tuple[int, ...]]]:
        """max eps s.t. x in face and x(S) + eps <= gamma(S) for S in masks.

        Returns eps, the x-part of an optimal point, and the x-parts of the
        rows whose dual price is positive.  By complementary slackness such a
        row is tight at every optimum, so its x-part is constant on the face
        that the optimal eps cuts out.
        """
        m = self.m
        rows = []
        for row, b in self.eq_rows:
            rows.append((row + (0,), EQ, b))
        for row, b in self.ineq_rows:
            rows.append((row + (0,), LE, b))
        for mask in masks:
            rows.append((_indicator(mask, m) + (1,), LE, table[mask]))
        objective = [0] * m + [1]
        lp = make_lp(objective, rows, [True] * m + [False])
        res = simplex_solve(lp)
        if res.status != "optimal":
            raise InternalInvariantError(f"round LP is {res.status}")
        assert res.value is not None and res.point is not None and res.prices is not None
        point = res.point
        tight = []
        for (row, _, b), price in zip(rows, res.prices):
            if price > 0:
                if _dot(row, point) != b:
                    raise InternalInvariantError("a row with a positive price is slack")
                tight.append(row[:m])
        return res.value, point[:m], tight


def _dot(row: Sequence[Fraction | int], x: Sequence[Fraction]) -> Fraction:
    return sum([a * v for a, v in zip(row, x) if a], ZERO)


def _primitive(row: list[int]) -> list[int]:
    g = math.gcd(*row)
    return row if g <= 1 else [a // g for a in row]


def _nullspace_direction(
    rows: list[tuple[Fraction | int, ...]], m: int
) -> tuple[Fraction, ...] | None:
    """A deterministic nonzero vector orthogonal to all rows, or None.

    The vector comes from the reduced row echelon form, which depends on the
    row space alone: 1 at the first free column c, and minus column c's
    entry of each pivot row at that row's pivot.  Distinct rows are scaled
    to integers and added one at a time, fraction-free: a new row is cleared
    at the pivot columns, and its own pivot is cleared from the pivot rows.
    """
    basis: list[tuple[int, list[int]]] = []  # (pivot column, integer row)
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
        row = _primitive(row)
        p = row[col]
        for i, (pc, prow) in enumerate(basis):
            f = prow[col]
            if f:
                basis[i] = (pc, _primitive([p * a - f * b for a, b in zip(prow, row)]))
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


def _affine_hull(
    face: _Face, x0: Sequence[Fraction], fixed: list[tuple[Fraction | int, ...]]
) -> list[tuple[Fraction, ...]]:
    """Directions spanning the affine hull of the face, which holds x0.

    ``fixed`` holds rows known to be constant on the face.  Each direction d
    orthogonal to the directions and rows found so far costs one LP, max
    d.x, when that exceeds d.x0: then x_hi - x0 is a hull direction.  Only
    when it does not does a second LP, min d.x, tell a hull direction from a
    constant row.
    """
    span: list[tuple[Fraction, ...]] = []  # hull directions found so far
    fixed = list(fixed)
    while True:
        d = _nullspace_direction(span + fixed, face.m)
        if d is None:
            return span
        at_x0 = _dot(d, x0)
        hi, x_hi = face.optimize(d)
        if hi != at_x0:
            span.append(tuple([a - b for a, b in zip(x_hi, x0)]))
            continue
        lo_neg, x_lo = face.optimize([-a for a in d])
        if lo_neg + at_x0 == 0:  # max d.x == min d.x
            fixed.append(d)
        else:
            span.append(tuple([a - b for a, b in zip(x_lo, x0)]))


def maschler_nucleolus(
    g: Multigraph, edge_cap: int = DEFAULT_GAME_CAP
) -> Allocation:
    """The nucleolus by the classical recursive-LP scheme.

    Round r maximizes the minimum excess over coalitions not fixed by the
    previous optimal face; a coalition is fixed when its total is constant
    on the face.  Stops when the face is a single point.
    """
    m = g.num_edges()
    if m == 0:
        raise GraphInputError("graph has no edges")
    if m > edge_cap:
        raise ResourceLimitError(f"{m} edges exceeds oracle cap {edge_cap}")
    order = _edge_order(g)
    table = gamma_table(g, edge_cap)
    full = (1 << m) - 1

    if m == 1:
        return {order[0]: Fraction(table[full])}

    face = _Face(m, table[full])
    active = list(range(1, full))
    pruned = _prune_round_one(table, m)
    # indicators of the coalitions fixed in earlier rounds: constant on the
    # earlier faces, hence on every later one
    fixed_before: list[tuple[int, ...]] = []
    epsilons: list[Fraction] = []  # one per round; they never decrease
    while True:
        if len(epsilons) > m + 2:
            raise InternalInvariantError("scheme failed to terminate")
        eps, x0, tight = face.epsilon_lp(pruned, table)
        if not epsilons and eps < 0:
            raise EmptyCoreError(f"core empty: least core epsilon = {eps}")
        if epsilons and eps < epsilons[-1]:
            raise InternalInvariantError("epsilon decreased between rounds")
        for mask in pruned:
            face.add_coalition_bound(mask, Fraction(table[mask]) - eps)
        seed = [row for row, _ in face.eq_rows] + fixed_before + tight
        span = _affine_hull(face, x0, seed)
        if not span:
            return {order[j]: x0[j] for j in range(m)}
        still = []
        for mask in active:
            if any(_coalition_sum(d, mask) != 0 for d in span):
                still.append(mask)
            else:
                fixed_before.append(_indicator(mask, m))
        if len(still) == len(active):
            raise InternalInvariantError("no coalition became fixed")
        epsilons.append(eps)
        active = still
        pruned = _prune_within(active, table, full)
