"""Output checks that do not use the ``arboricity`` package.

Each ``check_*`` function takes an instance and the parsed JSON the CLI
printed for it, and raises ``CheckFailed`` on the first property that does
not hold.  The references are computed here: an exhaustive density search
for small graphs, an integer max-flow formulation (scipy) for the "no
denser subgraph" half of af, a Kruskal spanning tree for core membership,
and the closed forms that the structured constructions fix.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

Edge = tuple[int, int]


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _find(parent: dict[int, int], v: int) -> int:
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def is_connected(edges: list[Edge]) -> bool:
    verts = {v for e in edges for v in e}
    parent = {v: v for v in verts}
    for u, v in edges:
        parent[_find(parent, u)] = _find(parent, v)
    return len({_find(parent, v) for v in verts}) == 1


# -- fractional arboricity -----------------------------------------------------


def brute_force_af(edges: list[Edge]) -> Fraction:
    """max m(U)/(|U|-1) over vertex sets U inducing a connected subgraph."""
    verts = sorted({v for e in edges for v in e})
    best = Fraction(0)
    for mask in range(1, 1 << len(verts)):
        if mask & (mask - 1) == 0:
            continue
        inside = {v for i, v in enumerate(verts) if mask >> i & 1}
        sub = [(u, v) for u, v in edges if u in inside and v in inside]
        if sub and {v for e in sub for v in e} == inside and is_connected(sub):
            best = max(best, Fraction(len(sub), len(inside) - 1))
    return best


def denser_than(edges: list[Edge], lam: Fraction) -> bool:
    """True iff some connected vertex set U has m(U) > lam * (|U| - 1).

    For a root r, max over U containing r of q*m(U) - p*(|U|-1) equals
    q*m - cut/2 in the network s->v (q*deg v), v->t (2p, 0 for r), u<->v
    (q per edge), s->r uncapped, where cut is the minimum s-t cut.  Roots
    are tried in turn and deleted once they fail; vertices of degree at most
    lam are deleted first, as no minimal denser set contains one.
    """
    # imported here so that set-up time and peak memory leave scipy out
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    p, q = lam.numerator, lam.denominator
    mult = Counter((min(u, v), max(u, v)) for u, v in edges)
    alive = {v for e in edges for v in e}

    def degrees() -> Counter:
        deg: Counter = Counter()
        for (u, v), c in mult.items():
            if u in alive and v in alive:
                deg[u] += c
                deg[v] += c
        return deg

    def peel() -> Counter:
        while True:
            deg = degrees()
            low = {v for v in alive if q * deg[v] <= p}
            if not low:
                return deg
            alive.difference_update(low)

    deg = peel()
    for r in sorted(alive):
        if r not in alive:
            continue
        index = {v: i for i, v in enumerate(sorted(alive))}
        s, t = len(index), len(index) + 1
        m_alive = sum(deg.values()) // 2
        big = 2 * q * m_alive + 1
        rows, cols, caps = [], [], []
        for (u, v), c in mult.items():
            if u in alive and v in alive:
                rows += [index[u], index[v]]
                cols += [index[v], index[u]]
                caps += [q * c, q * c]
        for v, i in index.items():
            rows += [s, i]
            cols += [i, t]
            caps += [big if v == r else q * deg[v], 0 if v == r else 2 * p]
        graph = csr_matrix(
            (np.array(caps, dtype=np.int64), (rows, cols)), shape=(t + 1, t + 1)
        )
        if maximum_flow(graph, s, t).flow_value < 2 * q * m_alive:
            return True
        alive.discard(r)
        deg = peel()
        if not alive:
            break
    return False


def check_prime_partition(edges: list[Edge], doc: dict) -> None:
    """af is the maximum density, level-0 prime sets are connected witnesses
    of density exactly af, prime sets and E0 partition the edges, and every
    prime set P satisfies q*|P| = p*(n_p - 1) for af = p/q."""
    af = Fraction(doc["af"])
    p, q = af.numerator, af.denominator
    _require(not denser_than(edges, af), f"a subgraph is denser than af={af}")
    seen = Counter(doc["non_prime"])
    for ps in doc["prime_sets"]:
        seen.update(ps["edges"])
        _require(
            q * len(ps["edges"]) == p * (ps["n_p"] - 1),
            f"prime set {ps['id']}: {len(ps['edges'])} edges, n_p={ps['n_p']}, af={af}",
        )
        if ps["level"] == 0:
            sub = [edges[e] for e in ps["edges"]]
            _require(
                len({v for e in sub for v in e}) == ps["n_p"] and is_connected(sub),
                f"prime set {ps['id']} is not a connected witness on n_p vertices",
            )
    _require(
        seen == Counter(range(len(edges))),
        "prime sets and E0 do not partition the edge set",
    )
    _require(
        any(ps["level"] == 0 for ps in doc["prime_sets"]),
        "no level-0 prime set witnesses af",
    )


# -- nucleolus -------------------------------------------------------------------


def max_spanning_tree_weight(edges: list[Edge], x: list[Fraction]) -> Fraction:
    """Kruskal, heaviest edges first."""
    parent = {v: v for e in edges for v in e}
    total = Fraction(0)
    for i in sorted(range(len(edges)), key=lambda i: (-x[i], i)):
        a, b = (_find(parent, v) for v in edges[i])
        if a != b:
            parent[a] = b
            total += x[i]
    return total


def check_core(edges: list[Edge], x: list[Fraction], a: int) -> None:
    """x >= 0, x(E) = a(G), and the heaviest spanning tree weighs exactly 1."""
    _require(len(x) == len(edges), f"{len(x)} entries for {len(edges)} edges")
    _require(all(v >= 0 for v in x), "negative allocation entry")
    _require(sum(x) == a, f"allocation sums to {sum(x)}, a(G)={a}")
    w = max_spanning_tree_weight(edges, x)
    _require(w == 1, f"maximum-weight spanning tree weighs {w}")


def _allocation(doc: dict) -> list[Fraction]:
    return [Fraction(v) for v in doc["allocation"]]


def _check_closed_form(inst, doc: dict, eps: Fraction, multiplier) -> None:
    _require(Fraction(doc["af"]) == 2 and doc["arboricity"] == 2, "af is not 2")
    _require(doc["core_nonempty"] is True and Fraction(doc["gamma"]) == 2, "gamma is not 2")
    _require(Fraction(doc["epsilon"]) == eps, f"epsilon {doc['epsilon']} != {eps}")
    x = _allocation(doc)
    check_core(inst.edges, x, 2)
    for e, role in enumerate(inst.role):
        _require(x[e] == multiplier(role) * eps, f"edge {e} ({role}) gets {x[e]}")


def block_tree_epsilon(blocks: int) -> Fraction:
    return Fraction(1, 7 * blocks - 1)


def pair_hierarchy_epsilon(depth: int) -> Fraction:
    total = 3 * (1 << depth) * (depth + 1)
    total += sum((1 << (depth - lvl)) * (depth + 1 - lvl) for lvl in range(1, depth + 1))
    return Fraction(1, total)


def check_structured(inst, doc: dict) -> None:
    if inst.family == "block_tree":
        eps = block_tree_epsilon(inst.size)
        _check_closed_form(inst, doc, eps, lambda role: 2 if role == "k4" else 1)
    else:
        depth = inst.size
        _check_closed_form(inst, doc, pair_hierarchy_epsilon(depth), lambda lvl: depth + 1 - lvl)


def expected_levels(inst) -> dict[int, int]:
    """Prime sets per level that the structured construction fixes."""
    if inst.family == "block_tree":
        return {0: inst.size, 1: inst.size - 1}
    return {lvl: 1 << (inst.size - lvl) for lvl in range(inst.size + 1)}


def check_oracle(inst, doc: dict, peeled: list[Fraction]) -> None:
    """The LP nucleolus equals the peeling nucleolus and lies in the core."""
    x = _allocation(doc)
    _require(Fraction(doc["gamma"]) == inst.af, f"gamma {doc['gamma']} != a(G)={inst.af}")
    _require(x == peeled, "LP nucleolus differs from the peeling nucleolus")
    check_core(inst.edges, x, int(inst.af))
