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
are read by one sweep at af.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import kernels
from .errors import DisconnectedGraphError, GraphInputError, InternalInvariantError
from .multigraph import EdgeId, Multigraph, VertexId


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


def _component_density(g: Multigraph, comp: frozenset[VertexId]) -> Fraction:
    if len(comp) <= 1:
        return Fraction(0)
    m = sum(1 for u, v in g.edges.values() if u in comp)
    return Fraction(m, len(comp) - 1)


def _best_component(g: Multigraph, vertices: list[VertexId]) -> frozenset[VertexId]:
    """Max-density component of the subgraph induced by ``vertices``.

    Ties broken by minimum VertexId; this is the pinned witness-extraction
    rule for every flow-based decision.
    """
    sub = g.induced_by_vertices(vertices)
    comps = sub.components()
    best = None
    best_d = None
    for comp in comps:  # components() is ordered by min id, so first win = tie rule
        d = _component_density(sub, comp)
        if best_d is None or d > best_d:
            best, best_d = comp, d
    assert best is not None
    return best


def _compact(g: Multigraph) -> tuple[list[VertexId], list[int], list[int]]:
    """Sorted vertices and, per edge in id order, its endpoints' indices."""
    verts = sorted(g.vertices)
    index = {v: i for i, v in enumerate(verts)}
    us: list[int] = []
    vs: list[int] = []
    for eid in sorted(g.edges):
        a, b = g.endpoints(eid)
        us.append(index[a])
        vs.append(index[b])
    return verts, us, vs


def _sweep(
    g: Multigraph, p: int, q: int
) -> tuple[frozenset[VertexId] | None, tuple[frozenset[VertexId], ...]]:
    """One kernel sweep at p/q: a connected vertex set with density > p/q and
    no sets, or None and the minimal vertex sets of density exactly p/q."""
    verts, us, vs = _compact(g)
    raw, minimal = kernels.sweep(len(verts), us, vs, p, q)
    if raw is None:
        return None, tuple(frozenset(verts[i] for i in mds) for mds in minimal)
    witness = _best_component(g, [verts[i] for i in raw])
    if _component_density(g.induced_by_vertices(witness), witness) * q <= p:
        raise InternalInvariantError("flow witness does not exceed the threshold")
    return witness, ()


def exceeds_density(
    g: Multigraph, lam: Fraction | int
) -> frozenset[VertexId] | None:
    """A connected vertex set of density > lam, or None if none exists."""
    lam = Fraction(lam)
    if lam < 0:
        raise GraphInputError("density threshold must be nonnegative")
    if g.num_edges() == 0:
        raise GraphInputError("graph has no edges")
    return _sweep(g, lam.numerator, lam.denominator)[0]


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
    comps = g.components()
    witness = None
    lam = Fraction(-1)
    for comp in comps:
        d = _component_density(g, comp)
        if d > lam:
            lam, witness = d, comp
    assert witness is not None
    while True:
        better, minimal = _sweep(g, lam.numerator, lam.denominator)
        if better is None:
            return DensityCertificate(lam, witness, minimal)
        witness = better
        lam = _component_density(g.induced_by_vertices(better), better)


def arboricity(g: Multigraph) -> int:
    """Minimum number of forests covering all edges: the ceiling of af(G)."""
    return math.ceil(fractional_arboricity(g).value)


def minimal_densest_subgraph(g: Multigraph) -> frozenset[VertexId]:
    """A vertex-minimal connected subgraph of density af(G): the first of
    ``enumerate_minimal_densest_subgraphs(g)``, i.e. the one whose sorted
    vertex list is lexicographically smallest."""
    return enumerate_minimal_densest_subgraphs(g)[0]


def _enumerate_mds(
    g: Multigraph,
    lam: Fraction,
    minimal: tuple[frozenset[VertexId], ...] | None = None,
) -> list[Multigraph]:
    """The minimal connected induced subgraphs of ``g`` of density
    lam >= af(g) (the minimal densest subgraphs when lam = af(g)), ordered by
    their sorted vertex lists; empty when no subgraph attains lam.

    ``minimal`` gives their vertex sets when the caller has them already, as
    a certificate of ``fractional_arboricity(g)`` does; by default one sweep
    at lam reads them.  Either way each set is checked here."""
    if minimal is None:
        denser, minimal = _sweep(g, lam.numerator, lam.denominator)
        if denser is not None:
            raise InternalInvariantError("a subgraph is denser than the given af")
    # each set's induced edges in one pass over the level's edges; distinct
    # minimal densest sets share at most one vertex, so the intersection
    # below names at most one set
    member: dict[VertexId, set[int]] = {}
    for k, mds in enumerate(minimal):
        for v in mds:
            member.setdefault(v, set()).add(k)
    inside: list[dict[EdgeId, tuple[VertexId, VertexId]]] = [{} for _ in minimal]
    for eid, (a, b) in g.edges.items():
        if a in member and b in member:
            for k in member[a] & member[b]:
                inside[k][eid] = (a, b)
    found = [
        Multigraph(edges, vertices=mds) for edges, mds in zip(inside, minimal)
    ]
    for sub in found:
        # one components() pass: connected means one component, and then the
        # density is m/(n - 1)
        n, m = sub.num_vertices(), sub.num_edges()
        if len(sub.components()) != 1 or n < 2 or Fraction(m, n - 1) != lam:
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
    return [sub.vertices for sub in _enumerate_mds(g, cert.value, cert.minimal)]
