import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from arboricity.simplex import (
    EQ,
    LE,
    SimplexResult,
    make_lp,
    objective_family,
    simplex_solve,
)
from arboricity.simplex import _dual_of, _solve_direct, _solve_via_dual, _Tableau


def test_single_bound():
    lp = make_lp([1], [(([1]), LE, 1)], [False])
    res = simplex_solve(lp)
    assert res.status == "optimal"
    assert res.value == 1


def test_box_corner():
    lp = make_lp(
        [1, 1],
        [([1, 0], LE, 1), ([0, 1], LE, 1)],
        [True, True],
    )
    res = simplex_solve(lp)
    assert res.status == "optimal"
    assert res.value == 2
    assert res.point == (1, 1)


def test_two_edge_path_least_core_lp():
    # max eps st x1+x2 = 1, x_i + eps <= 1, x >= 0: optimum 1/2 at (1/2,1/2)
    lp = make_lp(
        [0, 0, 1],
        [
            ([1, 1, 0], EQ, 1),
            ([1, 0, 1], LE, 1),
            ([0, 1, 1], LE, 1),
        ],
        [True, True, False],
    )
    res = simplex_solve(lp)
    assert res.status == "optimal"
    assert res.value == Fraction(1, 2)
    assert res.point == (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))


def test_infeasible():
    lp = make_lp([1], [([1], LE, 1), ([-1], LE, -3)], [True])
    assert simplex_solve(lp).status == "infeasible"


def test_unbounded():
    lp = make_lp([1], [([-1], LE, 0)], [False])
    assert simplex_solve(lp).status == "unbounded"


def test_equality_with_free_variable():
    lp = make_lp([1], [([1], EQ, 5)], [False])
    res = simplex_solve(lp)
    assert res.status == "optimal"
    assert res.value == 5
    assert res.point == (5,)


def _frac(rng: random.Random, lo: int, hi: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, 4))


def _random_lp(rng: random.Random, duplicate_eq: bool = False):
    n = rng.randint(1, 4)
    rows = []
    # a box keeps everything bounded, so statuses are optimal/infeasible
    for j in range(n):
        row = [0] * n
        row[j] = 1
        rows.append((row, LE, _frac(rng, 0, 4)))
        row2 = [0] * n
        row2[j] = -1
        rows.append((row2, LE, _frac(rng, 0, 3)))
    for _ in range(rng.randint(0, 3)):
        rows.append(
            (
                [_frac(rng, -3, 3) for _ in range(n)],
                rng.choice([LE, EQ]),
                _frac(rng, -4, 6),
            )
        )
    if duplicate_eq:
        # a multiple of an equality row: redundant, so phase 1 leaves an
        # artificial basic in it, to be driven out or its row dropped
        row = [_frac(rng, -3, 3) for _ in range(n)]
        b = _frac(rng, -4, 6)
        f = rng.choice([Fraction(-1), Fraction(2), Fraction(-3, 2)])
        rows.insert(rng.randint(0, len(rows)), (row, EQ, b))
        rows.insert(rng.randint(0, len(rows)), ([a * f for a in row], EQ, b * f))
    obj = [_frac(rng, -3, 3) for _ in range(n)]
    nonneg = [rng.random() < 0.5 for _ in range(n)]
    return make_lp(obj, rows, nonneg)


@given(st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_dual_route_matches_direct(seed):
    rng = random.Random(seed)
    lp = _random_lp(rng)
    direct_status, direct_value, _direct_point, _ = _solve_direct(lp)
    res = _solve_via_dual(lp)
    if res is None:
        # ambiguous through the dual; the boxed feasible set rules out an
        # unbounded primal, so this would mean infeasible either way
        assert direct_status in ("infeasible", "unbounded")
        return
    assert res.status == direct_status
    if direct_status == "optimal":
        assert res.value == direct_value
        # points may differ between routes; both must be feasible and optimal
        point = res.point
        assert point is not None
        assert sum(c * x for c, x in zip(lp.objective, point)) == direct_value
        for row, sense, b in zip(lp.lhs, lp.senses, lp.rhs):
            lhs = sum(a * x for a, x in zip(row, point))
            assert lhs == b if sense == EQ else lhs <= b
        for j, flag in enumerate(lp.nonneg):
            if flag:
                assert point[j] >= 0


def test_optimal_tableau_certifies_strong_duality(monkeypatch):
    """Every optimum comes with dual prices that prove it, in Fraction
    arithmetic: primal and dual feasibility and equal objective values."""
    negative_pivots = 0
    pivot = _Tableau._pivot

    def counting_pivot(tab, obj, r, c):
        nonlocal negative_pivots
        negative_pivots += tab.T[r][c] < 0
        pivot(tab, obj, r, c)

    monkeypatch.setattr(_Tableau, "_pivot", counting_pivot)
    rng = random.Random(7)
    optima = dropped = 0
    for k in range(1500):
        lp = _random_lp(rng, duplicate_eq=k % 2 == 1)
        tab = _Tableau(lp)
        status, value, point = tab.solve()
        if status != "optimal":
            continue
        optima += 1
        dropped += bool(tab.dropped)
        y = tab.dual_prices()
        assert all(type(v) is Fraction for v in (value, *point, *y))
        for row, sense, b, yi in zip(lp.lhs, lp.senses, lp.rhs, y):
            lhs = sum(a * x for a, x in zip(row, point))
            assert lhs == b if sense == EQ else lhs <= b
            if sense == LE:
                assert yi >= 0
        for j, (c, flag) in enumerate(zip(lp.objective, lp.nonneg)):
            reduced = sum(row[j] * yi for row, yi in zip(lp.lhs, y)) - c
            assert reduced >= 0 if flag else reduced == 0
            if flag:
                assert point[j] >= 0
        assert sum(b * yi for b, yi in zip(lp.rhs, y)) == value
        assert sum(c * x for c, x in zip(lp.objective, point)) == value
    # the corpus reaches the redundant-row drop and negative pivots
    assert optima > 300 and dropped > 0 and negative_pivots > 0


def test_prices_certify_both_routes():
    """Each route's optimum carries dual prices that prove it: >= 0 on <=
    rows, rhs . prices == value, A^T y >= c on nonnegative variables and
    == c on free ones, and every row with a positive price tight at the
    returned point."""
    rng = random.Random(13)
    optima = 0
    for k in range(600):
        lp = _random_lp(rng, duplicate_eq=k % 2 == 1)
        via_dual = _solve_via_dual(lp)
        for res in (SimplexResult(*_solve_direct(lp)), via_dual):
            if res is None or res.status != "optimal":
                assert res is None or res.prices is None
                continue
            optima += 1
            y, point = res.prices, res.point
            assert len(y) == len(lp.rhs)
            assert all(yi >= 0 for yi, sense in zip(y, lp.senses) if sense == LE)
            assert sum(b * yi for b, yi in zip(lp.rhs, y)) == res.value
            for j, (c, flag) in enumerate(zip(lp.objective, lp.nonneg)):
                reduced = sum(row[j] * yi for row, yi in zip(lp.lhs, y)) - c
                assert reduced >= 0 if flag else reduced == 0
            for row, b, yi in zip(lp.lhs, lp.rhs, y):
                if yi > 0:
                    assert sum(a * x for a, x in zip(row, point)) == b
    assert optima > 300


def test_objective_family_states_each_lp_and_its_dual_as_make_lp_would():
    """An LP of a family equals the one ``make_lp`` builds, carries the dual
    that ``_dual_of`` states for it, and solves to the same result."""
    rng = random.Random(17)
    optima = 0
    for k in range(300):
        lp = _random_lp(rng, duplicate_eq=k % 2 == 1)
        rows = list(zip(lp.lhs, lp.senses, lp.rhs))
        family = objective_family(rows, lp.nonneg)
        for _ in range(3):
            obj = [_frac(rng, -3, 3) for _ in lp.objective]
            built = make_lp(obj, rows, lp.nonneg)
            shared = family(obj)
            assert shared == built and shared.dual == _dual_of(built)
            res = simplex_solve(shared)
            assert res == simplex_solve(built)
            optima += res.status == "optimal"
    assert optima > 300
