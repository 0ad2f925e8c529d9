"""Seeded inputs for the pipeline benchmark.

Every generator takes a ``random.Random`` and returns ``Instance`` values:
an edge list (edge id = list position, as the CLI assigns them) plus what
the construction fixes about the answer.  The same seed gives the same
instances.  Nothing here calls the ``arboricity`` package.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from checks import brute_force_af

Edge = tuple[int, int]


@dataclass
class Instance:
    """One graph and the CLI subcommand the benchmark sends it to.

    ``family`` names the construction; ``role`` gives, per edge id, what the
    construction made that edge (``"k4"``, ``"bundle"``, or a bundle level);
    ``size`` is B for block trees and d for pair hierarchies; ``af`` is the
    fractional arboricity where the construction or the generator fixes it.
    """

    family: str
    command: tuple[str, ...]
    edges: list[Edge]
    size: int = 0
    role: list = field(default_factory=list)
    af: Fraction | None = None


def relabel(rng: random.Random, edges: list[Edge], role: list) -> tuple[list[Edge], list]:
    """Random vertex labels, random edge order and random endpoint order.

    The pipeline visits vertices and edges in id order, so this changes the
    work a little from seed to seed while the structure stays fixed.
    """
    verts = sorted({v for e in edges for v in e})
    labels = list(range(len(verts)))
    rng.shuffle(labels)
    name = dict(zip(verts, labels))
    order = list(range(len(edges)))
    rng.shuffle(order)
    out = []
    for i in order:
        u, v = name[edges[i][0]], name[edges[i][1]]
        out.append((u, v) if rng.random() < 0.5 else (v, u))
    return out, [role[i] for i in order]


# -- random: Tier-1 perf-smoke generator -------------------------------------


def random_multigraph(rng: random.Random, n: int, m: int) -> list[Edge]:
    """Random tree on n vertices plus random extra edges up to m (parallel
    edges allowed); the generator of Tier-1's performance smoke test."""
    edges = [(rng.randint(0, v - 1), v) for v in range(1, n)]
    while len(edges) < m:
        u = rng.randint(0, n - 1)
        v = rng.randint(0, n - 1)
        if u != v:
            edges.append((u, v))
    return edges


RANDOM_N, RANDOM_M, RANDOM_COUNT = 60, 300, 16


def random_batch(rng: random.Random) -> list[Instance]:
    return [
        Instance("random", ("prime-partition",), random_multigraph(rng, RANDOM_N, RANDOM_M))
        for _ in range(RANDOM_COUNT)
    ]


# -- structured: K4 block trees and pair hierarchies --------------------------


def _k4(base: int) -> list[Edge]:
    return [(base + i, base + j) for i in range(4) for j in range(i + 1, 4)]


def _bundle(rng: random.Random, left: list[int], right: list[int]) -> list[Edge]:
    """Two edges from two distinct vertices of ``left`` to two distinct
    vertices of ``right``; they become parallel only once both sides are
    contracted."""
    a, b = rng.sample(left, 2)
    c, d = rng.sample(right, 2)
    return [(a, c), (b, d)]


def block_tree(rng: random.Random, blocks: int) -> Instance:
    """B K4 blocks on a random tree, neighbours joined by 2-edge bundles.

    af = 2; level 0 holds the B K4s and level 1 the B-1 bundles.  The
    nucleolus gives K4 edges 2*eps and bundle edges eps, eps = 1/(7B-1).
    """
    edges: list[Edge] = []
    role: list = []
    for i in range(blocks):
        edges += _k4(4 * i)
        role += ["k4"] * 6
        if i:
            j = rng.randrange(i)
            edges += _bundle(rng, list(range(4 * j, 4 * j + 4)), list(range(4 * i, 4 * i + 4)))
            role += ["bundle"] * 2
    edges, role = relabel(rng, edges, role)
    return Instance("block_tree", ("nucleolus",), edges, blocks, role, Fraction(2))


def pair_hierarchy(rng: random.Random, depth: int) -> Instance:
    """2^d K4s paired up level by level, generalising the four-K4 chain.

    The group of level l joins two groups of level l-1 with two edges: one
    between their first halves and one between their second halves (for
    l = 1, between distinct vertices of the two K4s).  So a level-l bundle
    becomes a parallel pair exactly when all of level l-1 is contracted.
    ``role`` holds each edge's level (0 for K4 edges); its nucleolus
    multiplier is d + 1 - level.
    """
    edges: list[Edge] = []
    role: list = []
    for i in range(1 << depth):
        edges += _k4(4 * i)
        role += [0] * 6

    def verts(first: int, count: int) -> list[int]:
        return list(range(4 * first, 4 * (first + count)))

    for level in range(1, depth + 1):
        size = 1 << level
        half = size >> 1
        for start in range(0, 1 << depth, size):
            left, right = start, start + half
            if level == 1:
                edges += _bundle(rng, verts(left, 1), verts(right, 1))
            else:
                quarter = half >> 1
                edges.append(_pick_edge(rng, verts(left, quarter), verts(right, quarter)))
                edges.append(
                    _pick_edge(rng, verts(left + quarter, quarter), verts(right + quarter, quarter))
                )
            role += [level, level]
    edges, role = relabel(rng, edges, role)
    return Instance("pair_hierarchy", ("nucleolus",), edges, depth, role, Fraction(2))


def _pick_edge(rng: random.Random, left: list[int], right: list[int]) -> Edge:
    return rng.choice(left), rng.choice(right)


STRUCTURED_BLOCKS, STRUCTURED_DEPTH, STRUCTURED_EACH = 30, 5, 3


def structured_batch(rng: random.Random) -> list[Instance]:
    """Block trees and pair hierarchies, alternating; the two sizes are
    chosen so that both take about as long, so the median request is one of
    either family rather than the gap between them."""
    out = []
    for _ in range(STRUCTURED_EACH):
        out += [block_tree(rng, STRUCTURED_BLOCKS), pair_hierarchy(rng, STRUCTURED_DEPTH)]
    return out


# -- oracle: small multigraphs with integral af -------------------------------

ORACLE_EDGES = 7
ORACLE_COUNT = 78


def oracle_batch(rng: random.Random) -> list[Instance]:
    """ORACLE_COUNT connected multigraphs with ORACLE_EDGES edges and an
    integral af, vertex counts cycling through 3..ORACLE_EDGES + 1.

    Draws with fractional af are rejected and redrawn; af is decided by the
    benchmark's own exhaustive search.
    """
    out = []
    sizes = list(range(3, ORACLE_EDGES + 2))
    while len(out) < ORACLE_COUNT:
        n = sizes[len(out) % len(sizes)]
        edges = random_multigraph(rng, n, ORACLE_EDGES)
        af = brute_force_af(edges)
        if af.denominator == 1:
            out.append(Instance("oracle", ("oracle", "nucleolus"), edges, af=af))
    return out


BATCHES = {
    "random": random_batch,
    "structured": structured_batch,
    "oracle": oracle_batch,
}
