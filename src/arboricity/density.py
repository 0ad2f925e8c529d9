"""Exact graph density, fractional arboricity, and densest-subgraph extraction.

Density of a connected graph H is m(H)/(n(H)-1); a single vertex has density
zero.  The fractional arboricity af(G) is the maximum density over connected
subgraphs, and the arboricity (minimum number of forests covering all edges)
is its ceiling.  Everything here is exact: densities are ``Fraction`` values
and every decision reduces to integer max-flow through the kernel layer.

The flow decision procedure answers "is there a connected vertex set with
density > p/q".  A single source/edge/vertex/sink network cannot answer this
directly because the empty set always yields the trivial cut; the kernel
therefore prices one vertex of the candidate set as free (a "root") and
sweeps roots over the graph, peeling and deleting as it goes.  Witness
extraction follows a fixed rule: from the min-cut source side, keep the
connected component of maximum density, ties broken by minimum VertexId.

The minimal densest subgraphs come with af itself.  The last sweep of the
af loop, at lambda = af, proves that nothing is denser by one flow per root,
whose residual graph holds every densest set containing that root, and the
certificate keeps the minimal ones that the sweep reads; so listing them, or
a prime partition's level 0, costs no flow beyond af.  A contraction minor's
are read by one sweep at af, on the minor's compact arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import kernels
from .errors import DisconnectedGraphError, GraphInputError, InternalInvariantError
from .multigraph import Multigraph, VertexId, _compact, _find


@dataclass(frozen=True)
class DensityCertificate:
    """Exact fractional arboricity, a connected vertex set attaining it, and
    the minimal densest vertex sets, ordered by their sorted vertex lists."""

    value: Fraction
    witness: frozenset[VertexId]
    minimal: tuple[frozenset[VertexId], ...]


def density(g: Multigraph) -> Fraction:
    """m(G)/(n(G)-c(G)); zero when the graph has no edges."""
    n = g.num_vertices()
    c = g.num_components()
    if n == c:
        return Fraction(0)
    return Fraction(g.num_edges(), n - c)


def _best_component(g: Multigraph) -> tuple[frozenset[VertexId], Fraction]:
    """The component of g of maximum density, and that density.

    Ties broken by minimum VertexId; this is the pinned witness-extraction
    rule for every flow-based decision.
    """
    comps = g.components()  # ordered by min id, so first win = tie rule
    label = {v: k for k, comp in enumerate(comps) for v in comp}
    inside = [0] * len(comps)
    for u, _ in g.edges.values():
        inside[label[u]] += 1
    best, best_d = comps[0], Fraction(-1)
    for comp, m in zip(comps, inside):
        d = Fraction(m, len(comp) - 1) if len(comp) > 1 else Fraction(0)
        if d > best_d:
            best, best_d = comp, d
    return best, best_d


def _sweep(
    g: Multigraph, p: int, q: int
) -> tuple[
    tuple[frozenset[VertexId], Fraction] | None, tuple[frozenset[VertexId], ...]
]:
    """One kernel sweep at p/q: a connected vertex set with density > p/q,
    with its density, and no sets, or None and the minimal vertex sets of
    density exactly p/q."""
    verts, us, vs = _compact(g)
    raw, minimal = kernels.sweep(len(verts), us, vs, p, q)
    if raw is None:
        return None, tuple(frozenset(verts[i] for i in mds) for mds in minimal)
    witness, d = _best_component(g.induced_by_vertices([verts[i] for i in raw]))
    if d * q <= p:
        raise InternalInvariantError("flow witness does not exceed the threshold")
    return (witness, d), ()


def exceeds_density(
    g: Multigraph, lam: Fraction | int
) -> frozenset[VertexId] | None:
    """A connected vertex set of density > lam, or None if none exists."""
    lam = Fraction(lam)
    if lam < 0:
        raise GraphInputError("density threshold must be nonnegative")
    if g.num_edges() == 0:
        raise GraphInputError("graph has no edges")
    denser = _sweep(g, lam.numerator, lam.denominator)[0]
    return None if denser is None else denser[0]


def fractional_arboricity(g: Multigraph) -> DensityCertificate:
    """Exact af(G) with a connected witness attaining it and the minimal
    densest sets.

    Iterates the density improvement step: starting from the density of the
    graph itself, repeatedly ask the decision oracle for a strictly denser
    connected subgraph and move the threshold to its density.  Each iterate
    is a strictly larger rational with denominator at most n-1, so the loop
    terminates at the exact maximum.  The last sweep, which proves that
    nothing is denser, reads the minimal densest sets.
    """
    if g.num_edges() == 0:
        raise GraphInputError("graph has no edges")
    witness, lam = _best_component(g)
    while True:
        better, minimal = _sweep(g, lam.numerator, lam.denominator)
        if better is None:
            return DensityCertificate(lam, witness, minimal)
        witness, lam = better


def arboricity(g: Multigraph) -> int:
    """Minimum number of forests covering all edges: the ceiling of af(G)."""
    return math.ceil(fractional_arboricity(g).value)


def minimal_densest_subgraph(g: Multigraph) -> frozenset[VertexId]:
    """A vertex-minimal connected subgraph of density af(G): the first of
    ``enumerate_minimal_densest_subgraphs(g)``, i.e. the one whose sorted
    vertex list is lexicographically smallest."""
    return enumerate_minimal_densest_subgraphs(g)[0]


def _enumerate_mds(
    n: int,
    us: Sequence[int],
    vs: Sequence[int],
    lam: Fraction,
    minimal: Iterable[Iterable[int]] | None = None,
) -> list[tuple[list[int], list[int]]]:
    """The minimal connected induced subgraphs of density lam >= af of the
    compact graph whose edge j joins vertices us[j] and vs[j] of 0..n-1 (the
    minimal densest subgraphs when lam = af), each as its vertices, ascending,
    and its edge positions; ordered by their vertex lists, and empty when no
    subgraph attains lam.

    ``minimal`` gives their vertex sets, in that order, when the caller has
    them already, as a certificate of ``fractional_arboricity`` does; by
    default one sweep at lam reads them.  Either way each set is checked
    here: its edges connect it, and m/(n - 1) = lam."""
    if minimal is None:
        denser, minimal = kernels.sweep(n, us, vs, lam.numerator, lam.denominator)
        if denser is not None:
            raise InternalInvariantError("a subgraph is denser than the given af")
    found: list[tuple[list[int], list[int]]] = [(sorted(mds), []) for mds in minimal]
    # each set's induced edges in one pass over the edges; distinct minimal
    # densest sets share at most one vertex, so an edge lies in at most one
    member: dict[int, list[int]] = {}
    for k, (mds, _) in enumerate(found):
        for v in mds:
            member.setdefault(v, []).append(k)
    for j, (a, b) in enumerate(zip(us, vs)):
        if a in member and b in member:
            for k in member[a]:
                if k in member[b]:
                    found[k][1].append(j)
    for mds, edges in found:
        # the edges connect the set when they join it n - 1 times
        up: dict[int, int] = {}
        joins = 0
        for j in edges:
            a, b = _find(up, us[j]), _find(up, vs[j])
            if a != b:
                up[a] = b
                joins += 1
        size = len(mds)
        if size < 2 or joins != size - 1 or Fraction(len(edges), size - 1) != lam:
            raise InternalInvariantError("minimal densest subgraph extraction failed")
    return found


def enumerate_minimal_densest_subgraphs(
    g: Multigraph,
) -> list[frozenset[VertexId]]:
    """All minimal densest subgraphs, ordered by their sorted vertex lists."""
    if not g.is_connected():
        raise DisconnectedGraphError("graph must be connected")
    if g.num_edges() == 0:
        raise GraphInputError("graph has no edges")
    cert = fractional_arboricity(g)
    verts, us, vs = _compact(g)
    found = _enumerate_mds(len(verts), us, vs, cert.value, _indices(verts, cert.minimal))
    return [frozenset(verts[i] for i in mds) for mds, _ in found]


def _indices(
    verts: Sequence[VertexId], sets: Iterable[Iterable[VertexId]]
) -> list[list[int]]:
    """Each vertex set in compact indices, for the sorted vertices ``verts``."""
    index = {v: i for i, v in enumerate(verts)}
    return [[index[v] for v in s] for s in sets]
