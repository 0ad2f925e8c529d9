"""Independent brute-force oracles for small instances.

Nothing in this module consults the decomposition machinery: fractional
arboricity is recomputed by exhaustive enumeration, core checks iterate over
all coalitions, and the nucleolus is obtained by the classical scheme of
recursively solved linear programs over the full coalition lattice.  These
are the reference answers the fast algorithms are tested against.

Every per-coalition quantity comes from one recurrence over the subset
lattice of edge bit masks, which builds each mask S from S without its
lowest bit: ``_lattice`` gives S's vertex mask and whether S is connected,
which price every coalition (``gamma_table``) and find the densest
subgraphs, and ``_subset_sums`` gives x(S) for every S.  A maximum over
subsets (``gamma_table``) or a minimum over supersets (``_prune``) takes
one pass per bit.

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
  on it;
- the unit row e_j of every edge j whose variable has a positive reduced
  cost under those prices.  By complementary slackness x_j = 0 at every
  optimum, so on the whole new face.

The round LP's optimal point lies on the new face and serves as its base
point x0.  The hull keeps one fraction-free echelon basis of these rows and
of each hull direction or constant row found since.  Each direction d
orthogonal to that basis then costs one LP, max d.x, whenever that exceeds
d.x0, which makes x_hi - x0 a hull direction; only otherwise does a second
LP, min d.x, tell a direction from a constant row.  The LPs over one face
share their converted rows and the transpose that the simplex's dual route
needs; each direction supplies only its objective.  The face, every epsilon
and every fixed coalition are unique, so none depends on the directions
tried.  Constraints implied by monotonicity of the cost function (a superset
with the same cost) are omitted from the LPs; they cannot change the
feasible set.
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
from .game import Allocation
from .multigraph import EdgeId, Multigraph, VertexId, _compact
from .simplex import EQ, LE, make_lp, objective_family, simplex_solve

ZERO = Fraction(0)

DEFAULT_AF_CAP = 14
DEFAULT_GAME_CAP = 10


# ---------------------------------------------------------------------------
# the subset lattice


def _lattice(g: Multigraph) -> tuple[list[int], list[bool]]:
    """Per edge mask S of g, in sorted-EdgeId bit order: its vertex mask, in
    sorted-vertex bit order, and whether S is nonempty and connected.

    ``comp[S]`` is the component of S that holds its lowest edge e.  The
    components of S - e are read off it one by one, each as ``comp`` of what
    is left; e joins those it touches, and S is connected if that is all S.
    """
    _, us, vs = _compact(g)
    touch = [1 << u | 1 << v for u, v in zip(us, vs)]
    size = 1 << len(us)
    verts = [0] * size
    comp = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        rest = mask ^ low
        t = touch[low.bit_length() - 1]
        verts[mask] = verts[rest] | t
        c = low
        while rest:
            part = comp[rest]
            if verts[part] & t:
                c |= part
            rest ^= part
        comp[mask] = c
    return verts, [c == mask != 0 for mask, c in enumerate(comp)]


def _subset_sums(x: Sequence[Fraction]) -> list[Fraction]:
    """x(S) for every bit mask S, each from S without its lowest bit."""
    sums = [ZERO] * (1 << len(x))
    for mask in range(1, len(sums)):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + x[low.bit_length() - 1]
    return sums


# ---------------------------------------------------------------------------
# exhaustive density oracles


def _size(g: Multigraph, edge_cap: int) -> int:
    """g's edge count, checked to be at least 1 and at most ``edge_cap``."""
    m = g.num_edges()
    if m == 0:
        raise GraphInputError("graph has no edges")
    if m > edge_cap:
        raise ResourceLimitError(f"{m} edges exceeds oracle cap {edge_cap}")
    return m


def _densest(g: Multigraph, edge_cap: int) -> tuple[Fraction, list[int]]:
    """af by enumeration, and the vertex mask of each connected edge mask of
    density af, in ascending edge-mask order."""
    m = _size(g, edge_cap)
    verts, connected = _lattice(g)
    k, n, hits = 0, 1, []  # the best density so far is k / n
    for mask in range(1, 1 << m):
        if connected[mask]:
            k2, n2 = mask.bit_count(), verts[mask].bit_count() - 1
            if k2 * n > k * n2:
                k, n, hits = k2, n2, []
            if k2 * n == k * n2:
                hits.append(verts[mask])
    return Fraction(k, n), hits


def _vertex_set(g: Multigraph, vmask: int) -> frozenset[VertexId]:
    return frozenset([v for i, v in enumerate(_compact(g)[0]) if vmask >> i & 1])


def brute_fractional_arboricity(
    g: Multigraph, edge_cap: int = DEFAULT_AF_CAP
) -> tuple[Fraction, frozenset[VertexId]]:
    """Maximum of m(H)/(n(H)-1) over all connected edge subsets, with the
    vertices of the first edge mask, in ascending order, that attains it."""
    af, hits = _densest(g, edge_cap)
    return af, _vertex_set(g, hits[0])


def enumerate_densest_subgraphs(
    g: Multigraph, edge_cap: int = DEFAULT_AF_CAP
) -> list[frozenset[VertexId]]:
    """All connected induced subgraphs attaining the maximum density, in
    ascending bit-mask order of the sorted vertices.

    A connected edge set of maximum density is induced, since an edge it
    left out would raise its density; so these are the distinct vertex
    masks of the densest connected edge masks.
    """
    _, hits = _densest(g, edge_cap)
    return [_vertex_set(g, h) for h in sorted(set(hits))]


# ---------------------------------------------------------------------------
# coalition costs


def gamma_table(g: Multigraph, edge_cap: int = DEFAULT_GAME_CAP) -> list[int]:
    """gamma(S) for every edge-subset bitmask, in sorted-EdgeId bit order.

    gamma(S) is the ceiling of the maximum density over connected subsets of
    S.  The ceiling is monotone, so gamma(S) is the largest
    ceil(|T| / (n(T) - 1)) over connected T within S: that value on each
    connected mask, then a maximum over subsets, one pass per bit, in ints.
    """
    m = g.num_edges()
    if m > edge_cap:
        raise ResourceLimitError(f"{m} edges exceeds oracle cap {edge_cap}")
    verts, connected = _lattice(g)
    table = [
        -(-mask.bit_count() // (v.bit_count() - 1)) if conn else 0
        for mask, (v, conn) in enumerate(zip(verts, connected))
    ]
    for i in range(m):
        bit = 1 << i
        for mask in range(1 << m):
            if mask & bit and table[mask ^ bit] > table[mask]:
                table[mask] = table[mask ^ bit]
    return table


def _allocation(g: Multigraph, x: Mapping[EdgeId, Fraction | int]) -> list[Fraction]:
    """x's values in edge-id order, once x is checked to price exactly g's edges."""
    if set(x) != set(g.edge_ids):
        raise GraphInputError("allocation must assign a value to every edge")
    return [Fraction(x[e]) for e in sorted(g.edge_ids)]


def brute_core_check(
    g: Multigraph,
    x: Mapping[EdgeId, Fraction | int],
    edge_cap: int = DEFAULT_GAME_CAP,
) -> bool:
    """x >= 0, x(E) = gamma(E), and x(S) <= gamma(S) for every coalition."""
    vals = _allocation(g, x)
    table = gamma_table(g, edge_cap)
    if any(v < 0 for v in vals):
        return False
    sums = _subset_sums(vals)
    return sums[-1] == table[-1] and all(s <= t for s, t in zip(sums, table))


def excess_vector(
    g: Multigraph,
    x: Mapping[EdgeId, Fraction | int],
    edge_cap: int = DEFAULT_GAME_CAP,
) -> tuple[Fraction, ...]:
    """All nontrivial excesses gamma(S) - x(S), sorted non-decreasingly."""
    vals = _allocation(g, x)
    table = gamma_table(g, edge_cap)
    sums = _subset_sums(vals)
    return tuple(sorted([t - s for t, s in zip(table[1:-1], sums[1:-1])]))


# ---------------------------------------------------------------------------
# the classical nucleolus scheme


def _prune(active: list[int], table: list[int], m: int) -> list[int]:
    """The active coalitions whose constraint no active strict superset of
    the same cost implies.

    ``least[T]`` is the least cost of an active superset of T, by a minimum
    over supersets, one pass per bit.  Costs are monotone, so an active
    strict superset of S costs gamma(S) exactly when a one-bit extension of
    S has least cost gamma(S).
    """
    none = m + 1  # above every cost, since gamma(S) <= |S|
    least = [none] * (1 << m)
    for s in active:
        least[s] = table[s]
    for i in range(m):
        bit = 1 << i
        for mask in range(1 << m):
            if not mask & bit and least[mask | bit] < least[mask]:
                least[mask] = least[mask | bit]
    return [
        s
        for s in active
        if all(least[s | 1 << i] != table[s] for i in range(m) if not s >> i & 1)
    ]


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
        self._lp = None  # the face's LP per objective, built on first use

    def add_coalition_bound(self, mask: int, bound: Fraction) -> None:
        self.ineq_rows.append((_indicator(mask, self.m), bound))
        self._lp = None

    def optimize(self, direction: Sequence[Fraction]) -> tuple[Fraction, tuple[Fraction, ...]]:
        if self._lp is None:
            rows = [(row, EQ, b) for row, b in self.eq_rows]
            rows += [(row, LE, b) for row, b in self.ineq_rows]
            self._lp = objective_family(rows, [True] * self.m)
        res = simplex_solve(self._lp(direction))
        if res.status != "optimal":
            raise InternalInvariantError(f"face LP is {res.status}")
        assert res.value is not None and res.point is not None
        return res.value, res.point

    def epsilon_lp(
        self, masks: list[int], table: list[int]
    ) -> tuple[Fraction, tuple[Fraction, ...], list[tuple[int, ...]], list[tuple[int, ...]]]:
        """max eps s.t. x in face and x(S) + eps <= gamma(S) for S in masks.

        Returns eps, the x-part of an optimal point, and two lists of rows
        that are constant on the face the optimal eps cuts out, read off the
        dual prices by complementary slackness:

        - the x-part of each row with a positive price, which is tight at
          every optimum;
        - the unit row e_j of each x_j with a positive reduced cost (the
          prices times column j, as x_j has no objective term), which is 0
          at every optimum.
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
        priced = [(row, b, y) for (row, _, b), y in zip(rows, res.prices) if y]
        k = math.lcm(*[y.denominator for _, _, y in priced])
        tight = []
        reduced = [0] * m  # k times the reduced costs
        for row, b, y in priced:
            if y > 0:
                if _dot(row, point) != b:
                    raise InternalInvariantError("a row with a positive price is slack")
                tight.append(row[:m])
            ky = y.numerator * (k // y.denominator)
            reduced = [r + ky * a if a else r for r, a in zip(reduced, row)]
        zeros = []
        for j, r in enumerate(reduced):
            if r > 0:
                if point[j]:
                    raise InternalInvariantError("an edge with a positive reduced cost is not 0")
                zeros.append(_indicator(1 << j, m))
        return res.value, point[:m], tight, zeros


def _dot(row: Sequence[Fraction | int], x: Sequence[Fraction]) -> Fraction:
    return sum([a * v for a, v in zip(row, x) if a], ZERO)


def _primitive(row: list[int]) -> list[int]:
    g = math.gcd(*row)
    return row if g <= 1 else [a // g for a in row]


class _Echelon:
    """A row space over Q^m held as a fraction-free reduced echelon basis,
    grown one row at a time.

    Each row is scaled to integers and cleared at the pivot columns; a row
    left nonzero is made primitive, its own pivot is cleared from the pivot
    rows, and it joins them.  The reduced echelon form depends on the row
    space alone, so ``direction`` does too.
    """

    def __init__(self, m: int):
        self.m = m
        self.rows: list[tuple[int, list[int]]] = []  # (pivot column, integer row)

    def add(self, r: Sequence[Fraction | int]) -> None:
        k = math.lcm(*[a.denominator for a in r])
        row = [a.numerator * (k // a.denominator) for a in r]
        for pc, prow in self.rows:
            f = row[pc]
            if f:
                p = prow[pc]
                row = [p * a - f * b for a, b in zip(row, prow)]
        col = next((j for j, a in enumerate(row) if a), -1)
        if col < 0:
            return
        row = _primitive(row)
        p = row[col]
        for i, (pc, prow) in enumerate(self.rows):
            f = prow[col]
            if f:
                self.rows[i] = (pc, _primitive([p * a - f * b for a, b in zip(prow, row)]))
        self.rows.append((col, row))

    def direction(self) -> tuple[Fraction, ...] | None:
        """A nonzero vector orthogonal to the row space, or None if it is
        all of Q^m: 1 at the first free column c, and minus column c's entry
        of each pivot row at that row's pivot."""
        if len(self.rows) == self.m:
            return None
        pivots = dict(self.rows)
        c = next(j for j in range(self.m) if j not in pivots)
        d = [ZERO] * self.m
        d[c] = Fraction(1)
        for pc, prow in self.rows:
            d[pc] = Fraction(-prow[c], prow[pc])
        return tuple(d)


def _affine_hull(
    face: _Face, x0: Sequence[Fraction], fixed: list[tuple[Fraction | int, ...]]
) -> list[tuple[Fraction, ...]]:
    """Directions spanning the affine hull of the face, which holds x0.

    ``fixed`` holds rows known to be constant on the face.  One echelon
    basis holds them and each hull direction or constant row found since.
    Each direction d orthogonal to that basis costs one LP, max d.x, when
    that exceeds d.x0: then x_hi - x0 is a hull direction.  Only when it
    does not does a second LP, min d.x, tell a hull direction from a
    constant row.
    """
    span: list[tuple[Fraction, ...]] = []  # hull directions found so far
    basis = _Echelon(face.m)
    for row in dict.fromkeys(fixed):
        basis.add(row)
    while True:
        d = basis.direction()
        if d is None:
            return span
        at_x0 = _dot(d, x0)
        hi, x_hi = face.optimize(d)
        if hi != at_x0:
            found = tuple([a - b for a, b in zip(x_hi, x0)])
            span.append(found)
        else:
            lo_neg, x_lo = face.optimize([-a for a in d])
            if lo_neg + at_x0 == 0:  # max d.x == min d.x
                found = d
            else:
                found = tuple([a - b for a, b in zip(x_lo, x0)])
                span.append(found)
        basis.add(found)


def maschler_nucleolus(
    g: Multigraph, edge_cap: int = DEFAULT_GAME_CAP
) -> Allocation:
    """The nucleolus by the classical recursive-LP scheme.

    Round r maximizes the minimum excess over coalitions not fixed by the
    previous optimal face; a coalition is fixed when its total is constant
    on the face.  Stops when the face is a single point.
    """
    m = _size(g, edge_cap)
    order = sorted(g.edge_ids)
    table = gamma_table(g, edge_cap)
    full = (1 << m) - 1

    if m == 1:
        return {order[0]: Fraction(table[full])}

    face = _Face(m, table[full])
    active = list(range(1, full))
    # indicators of the coalitions fixed in earlier rounds: constant on the
    # earlier faces, hence on every later one
    fixed_before: list[tuple[int, ...]] = []
    epsilons: list[Fraction] = []  # one per round; they never decrease
    while True:
        if len(epsilons) > m + 2:
            raise InternalInvariantError("scheme failed to terminate")
        pruned = _prune(active, table, m)
        eps, x0, tight, zeros = face.epsilon_lp(pruned, table)
        if not epsilons and eps < 0:
            raise EmptyCoreError(f"core empty: least core epsilon = {eps}")
        if epsilons and eps < epsilons[-1]:
            raise InternalInvariantError("epsilon decreased between rounds")
        for mask in pruned:
            face.add_coalition_bound(mask, Fraction(table[mask]) - eps)
        seed = [row for row, _ in face.eq_rows] + fixed_before + tight + zeros
        span = _affine_hull(face, x0, seed)
        if not span:
            return {order[j]: x0[j] for j in range(m)}
        sums = [_subset_sums(d) for d in span]
        still = []
        for mask in active:
            if any(s[mask] for s in sums):
                still.append(mask)
            else:
                fixed_before.append(_indicator(mask, m))
        if len(still) == len(active):
            raise InternalInvariantError("no coalition became fixed")
        epsilons.append(eps)
        active = still
