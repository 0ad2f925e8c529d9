"""Independent brute-force oracles for small instances.

Nothing in this module consults the decomposition machinery: fractional
arboricity is recomputed by exhaustive enumeration, core checks iterate over
all coalitions, and the nucleolus is obtained by the classical scheme of
recursively solved linear programs over the full coalition lattice.  These
are the reference answers the fast algorithms are tested against.

The scheme maximizes, round by round, the minimum excess over coalitions not
yet fixed, then restricts to the optimal face.  Faces are carried as exact
H-representations; which coalitions a face fixes is decided exactly by
computing the face's affine hull (direction by direction, two LPs each) and
testing each coalition's indicator against the hull directions.  Constraints
implied by monotonicity of the cost function (a superset with the same cost)
are omitted from the LPs; they cannot change the feasible set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import (
    EmptyCoreError,
    GraphInputError,
    InternalInvariantError,
    ResourceLimitError,
)
from .game import Allocation
from .multigraph import EdgeId, Multigraph, VertexId, _UnionFind
from .simplex import EQ, LE, make_lp, simplex_solve

ZERO = Fraction(0)

DEFAULT_AF_CAP = 14
DEFAULT_GAME_CAP = 10


# ---------------------------------------------------------------------------
# exhaustive density oracles


def _edge_order(g: Multigraph) -> list[EdgeId]:
    return sorted(g.edge_ids)


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
    order = _edge_order(g)
    vorder = sorted(g.vertices)
    vindex = {v: i for i, v in enumerate(vorder)}
    ends = [
        (vindex[g.endpoints(e)[0]], vindex[g.endpoints(e)[1]]) for e in order
    ]
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
    verts = sorted(g.vertices)
    n = len(verts)
    out: list[frozenset[VertexId]] = []
    for mask in range(1, 1 << n):
        if mask & (mask - 1) == 0:
            continue
        subset = frozenset(verts[i] for i in range(n) if mask >> i & 1)
        sub = g.induced_by_vertices(subset)
        if not sub.is_connected():
            continue
        if Fraction(sub.num_edges(), len(subset) - 1) == af:
            out.append(subset)
    return out


# ---------------------------------------------------------------------------
# coalition costs


def gamma_table(g: Multigraph, edge_cap: int = DEFAULT_GAME_CAP) -> list[int]:
    """gamma(S) for every edge-subset bitmask, in sorted-EdgeId bit order.

    gamma(S) is the ceiling of the maximum density over connected subsets of
    S, computed by dynamic programming over the subset lattice.
    """
    m = g.num_edges()
    if m > edge_cap:
        raise ResourceLimitError(f"{m} edges exceeds oracle cap {edge_cap}")
    order = _edge_order(g)
    vorder = sorted(g.vertices)
    vindex = {v: i for i, v in enumerate(vorder)}
    ends = [
        (vindex[g.endpoints(e)[0]], vindex[g.endpoints(e)[1]]) for e in order
    ]
    best: list[Fraction] = [ZERO] * (1 << m)
    table = [0] * (1 << m)
    for mask in range(1, 1 << m):
        b = ZERO
        for i in range(m):
            if mask >> i & 1:
                prev = best[mask & ~(1 << i)]
                if prev > b:
                    b = prev
        d = _subset_density(ends, mask)
        if d is not None and d > b:
            b = d
        best[mask] = b
        table[mask] = math.ceil(b)
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


@dataclass(frozen=True)
class MaschlerState:
    """Snapshot of one scheme round: its optimal epsilon and the coalitions
    still unfixed afterwards.  Epsilons never decrease and the unfixed set
    strictly shrinks from round to round."""

    round: int
    epsilon: Fraction
    unfixed: int


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
    ) -> tuple[Fraction, tuple[Fraction, ...]]:
        """max eps s.t. x in face and x(S) + eps <= gamma(S) for S in masks."""
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
        assert res.value is not None and res.point is not None
        return res.value, res.point[:m]


def _nullspace_direction(
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


def _affine_hull(
    face: _Face,
) -> tuple[tuple[Fraction, ...], list[tuple[Fraction, ...]]]:
    """A point of the face plus directions spanning its affine hull."""
    m = face.m
    _, x0 = face.optimize([ZERO] * m)
    span: list[tuple[Fraction, ...]] = []  # hull directions found so far
    fixed: list[tuple[Fraction, ...]] = []  # directions with constant x.d
    while True:
        d = _nullspace_direction(span + fixed, m)
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
    history: list[MaschlerState] = []
    while True:
        if len(history) > m + 2:
            raise InternalInvariantError("scheme failed to terminate")
        eps, _ = face.epsilon_lp(pruned, table)
        if not history and eps < 0:
            raise EmptyCoreError(f"core empty: least core epsilon = {eps}")
        if history and eps < history[-1].epsilon:
            raise InternalInvariantError("epsilon decreased between rounds")
        for mask in pruned:
            face.add_coalition_bound(mask, Fraction(table[mask]) - eps)
        x0, span = _affine_hull(face)
        if not span:
            return {order[j]: x0[j] for j in range(m)}
        still = []
        for mask in active:
            if any(_coalition_sum(d, mask) != 0 for d in span):
                still.append(mask)
        if len(still) == len(active):
            raise InternalInvariantError("no coalition became fixed")
        history.append(MaschlerState(len(history) + 1, eps, len(still)))
        active = still
        pruned = _prune_within(active, table, full)
