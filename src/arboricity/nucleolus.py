"""Nucleolus of the arboricity game by peeling the prime-set order.

With a nonempty core, every core allocation is constant on each prime set
and zero on the non-prime set, so the game collapses to one variable per
prime set.  The optimal assignment gives each prime set an integer multiple
of a common epsilon: peel the minimal elements of the ancestor order round
by round; a set removed in round k is worth k*epsilon.  Epsilon itself is
fixed by the tight-tree normalization sum((n_p - 1) * y_P) = 1.

The multiplier of a prime set equals its height in the ancestor order; both
the round simulation and a depth-first height computation are run and
compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import EmptyCoreError, GraphInputError, InternalInvariantError
from .game import Allocation, CoreStatus, core_nonempty
from .multigraph import EdgeId, Multigraph
from .prime import AncestorPoset, PrimePartition, _ancestor_order, prime_partition


@dataclass(frozen=True)
class PeelAssignment:
    """Peeling result: integer multipliers, epsilon, and per-set payoffs."""

    multipliers: dict[int, int]
    epsilon: Fraction
    y: dict[int, Fraction]

    @property
    def y_nonprime(self) -> Fraction:
        return Fraction(0)


@dataclass(frozen=True)
class NucleolusSolution:
    """The nucleolus allocation with the core status and epsilon behind it."""

    status: CoreStatus
    epsilon: Fraction
    allocation: Allocation


def peel(poset: AncestorPoset) -> dict[int, int]:
    """Round number at which each prime set becomes minimal and is removed."""
    parents = poset.parents
    children: dict[int, list[int]] = {pid: [] for pid in parents}
    for pid, ps in parents.items():
        for par in ps:
            children[par].append(pid)

    # a set is minimal once its last child is removed: every descendant lies
    # below some child, and a child goes only after all of its own
    waiting = {pid: len(c) for pid, c in children.items()}
    minimal = [pid for pid, c in waiting.items() if not c]
    rounds: dict[int, int] = {}
    k = 0
    while minimal:
        k += 1
        for p in minimal:
            rounds[p] = k
        freed = []
        for p in minimal:
            for par in parents[p]:
                waiting[par] -= 1
                if not waiting[par]:
                    freed.append(par)
        minimal = freed
    if len(rounds) != len(parents):
        raise InternalInvariantError("ancestor order contains a cycle")

    if _heights(children) != rounds:
        raise InternalInvariantError("peeling rounds disagree with poset heights")
    return rounds


def _heights(children: dict[int, list[int]]) -> dict[int, int]:
    """1 + the longest chain of children below each set of an acyclic order,
    by depth-first post-order with an explicit stack."""
    height: dict[int, int] = {}
    for start in children:
        stack = [start]
        while stack:
            p = stack[-1]
            if p in height:
                stack.pop()
                continue
            pending = [c for c in children[p] if c not in height]
            if pending:
                stack.extend(pending)
            else:
                stack.pop()
                height[p] = 1 + max((height[c] for c in children[p]), default=0)
    return height


def solve_epsilon(pp: PrimePartition, multipliers: dict[int, int]) -> Fraction:
    """epsilon = 1 / sum over prime sets of (n_p - 1) * k_P."""
    if not pp.prime_sets:
        raise GraphInputError("partition has no prime sets")
    total = sum((ps.n_p - 1) * multipliers[ps.id] for ps in pp.prime_sets)
    return Fraction(1, total)


def peel_assignment(pp: PrimePartition, poset: AncestorPoset) -> PeelAssignment:
    multipliers = peel(poset)
    eps = solve_epsilon(pp, multipliers)
    y = {pid: k * eps for pid, k in multipliers.items()}
    return PeelAssignment(multipliers, eps, y)


def nucleolus(g: Multigraph, variant: bool = False) -> Allocation:
    """The unique nucleolus allocation, keyed by original EdgeId.

    Requires a nonempty core (integral fractional arboricity) unless
    ``variant`` is set, in which case the coalition cost is taken to be the
    fractional arboricity itself and the same peeling formulas apply.
    """
    return solve_nucleolus(g, variant).allocation


def solve_nucleolus(g: Multigraph, variant: bool = False) -> NucleolusSolution:
    """``nucleolus`` together with the core status and epsilon.

    The core test comes first, so an empty core fails after one fractional
    arboricity computation instead of after the whole prime partition.
    """
    status = core_nonempty(g)
    if not status.nonempty and not variant:
        raise EmptyCoreError(
            f"core empty: af={status.af}, a={status.arboricity}"
        )
    pp = prime_partition(g)
    assignment = peel_assignment(pp, _ancestor_order(g, pp))
    alloc: Allocation = {e: Fraction(0) for e in g.edge_ids}
    for ps in pp.prime_sets:
        for e in ps.edges:
            alloc[e] = assignment.y[ps.id]
    return NucleolusSolution(status, assignment.epsilon, alloc)


def is_tight_tree(
    g: Multigraph, pp: PrimePartition, t: Iterable[EdgeId]
) -> bool:
    """True iff ``t`` meets every prime set P in exactly n_p - 1 edges.

    Such trees have weight exactly 1 under every core allocation.
    """
    tset = set(t)
    unknown = tset - set(g.edge_ids)
    if unknown:
        raise GraphInputError(f"unknown edge ids {sorted(unknown)}")
    tree = g.induced_by_edges(tset)
    spanning = tree.num_vertices() == g.num_vertices() == len(tset) + 1
    if not spanning or not tree.is_connected():
        raise GraphInputError("t is not a spanning tree")
    return all(len(tset & ps.edges) == ps.n_p - 1 for ps in pp.prime_sets)
