"""Exact linear programming over rationals, deterministic two-phase simplex.

Built for oracle-scale problems: a dense tableau with Bland's smallest-index
anti-cycling rule.  Problems are stated in "maximize" form with ``<=`` and
``==`` rows and per-variable nonnegativity flags.  Coefficients go in as
``int`` or ``Fraction`` and every value comes out as a ``Fraction``; inside,
the tableau holds integers over one common denominator and pivots
fraction-free, so there are no tolerances and no rational arithmetic per
entry.

The game oracle produces LPs with few variables and many constraints, so
``simplex_solve`` transparently solves the dual in that regime and recovers
the primal point from the dual's shadow prices; both routes give identical
answers and the direct route remains the fallback whenever the dual route is
inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import GraphInputError

LE = "<="
EQ = "=="

ZERO = Fraction(0)


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective . x  subject to  lhs x (<= | ==) rhs.

    Variables with ``nonneg[j]`` True are constrained to x_j >= 0; the rest
    are free.  Coefficients are ``int`` or ``Fraction``.
    """

    objective: tuple[Fraction | int, ...]
    lhs: tuple[tuple[Fraction | int, ...], ...]
    senses: tuple[str, ...]
    rhs: tuple[Fraction | int, ...]
    nonneg: tuple[bool, ...]

    def __post_init__(self):
        n = len(self.objective)
        if len(self.nonneg) != n:
            raise GraphInputError("nonneg flags do not match variable count")
        if not (len(self.lhs) == len(self.senses) == len(self.rhs)):
            raise GraphInputError("constraint blocks have mismatched lengths")
        for row in self.lhs:
            if len(row) != n:
                raise GraphInputError("constraint row has wrong arity")
        for s in self.senses:
            if s not in (LE, EQ):
                raise GraphInputError(f"unknown sense {s!r}")


def _exact(v: Fraction | int) -> Fraction | int:
    """``int`` and ``Fraction`` as they are (both immutable), else ``Fraction``."""
    return v if type(v) in (int, Fraction) else Fraction(v)


# Tuples on the LP path are built from lists, not generators.  CPython sizes
# a tuple built from a list exactly and takes it from its free list; one
# built from a generator is grown by resizing, so once freed it joins a free
# list it was never drawn from.  Those lists are emptied only by a full
# garbage collection, which integer LPs rarely trigger, so they would fill
# and raise peak memory.
def make_lp(
    objective: Sequence[Fraction | int],
    rows: Sequence[tuple[Sequence[Fraction | int], str, Fraction | int]],
    nonneg: Sequence[bool],
) -> LinearProgram:
    return LinearProgram(
        tuple([_exact(c) for c in objective]),
        tuple([tuple([_exact(a) for a in row]) for row, _, _ in rows]),
        tuple([sense for _, sense, _ in rows]),
        tuple([_exact(b) for _, _, b in rows]),
        tuple([bool(f) for f in nonneg]),
    )


@dataclass(frozen=True)
class SimplexResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None
    point: tuple[Fraction, ...] | None


class _Tableau:
    """Dense simplex tableau in integers over one common denominator.

    The rational tableau is ``T[i][j] / d``.  Row i of the input is scaled
    by ``k_i``, the lcm of its denominators, and the objective by ``Lc``;
    pivots are fraction-free (Edmonds 1967, Bareiss 1968), so every entry
    stays an exact integer and ``d`` is the absolute value of the basis
    determinant.  Bland pivoting throughout: the scalings are positive, so
    each sign and ratio comparison, and hence each pivot, is that of the
    rational tableau.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        n = len(lp.objective)
        # free variables are split x_j = pos_j - neg_j
        self.split: list[int] = [j for j in range(n) if not lp.nonneg[j]]
        self.n_struct = n + len(self.split)

        rows: list[list[int]] = []
        senses: list[str] = []
        rhs: list[int] = []
        self.row_sign: list[int] = []
        self.row_scale: list[int] = []
        for row, sense, b in zip(lp.lhs, lp.senses, lp.rhs):
            k = math.lcm(b.denominator, *[a.denominator for a in row])
            ext = [a.numerator * (k // a.denominator) for a in row]
            ext += [-ext[j] for j in self.split]
            b = b.numerator * (k // b.denominator)
            if b < 0:
                ext = [-a for a in ext]
                b = -b
                sense = {LE: ">=", EQ: EQ}[sense]
                self.row_sign.append(-1)
            else:
                self.row_sign.append(1)
            rows.append(ext)
            senses.append(sense)
            rhs.append(b)
            self.row_scale.append(k)

        r = len(rows)
        self.num_rows = r
        n_slack = sum(1 for s in senses if s == LE)
        n_surplus = sum(1 for s in senses if s == ">=")
        self.slack0 = self.n_struct
        self.art0 = self.n_struct + n_slack + n_surplus
        self.num_cols = self.art0 + r  # one artificial column per row
        self.art_col = [self.art0 + i for i in range(r)]

        self.d = 1
        self.T: list[list[int]] = []
        self.basis: list[int] = []
        si = self.slack0
        for i in range(r):
            line = rows[i] + [0] * (self.num_cols - self.n_struct) + [rhs[i]]
            # every row gets a unit artificial column so dual prices can be
            # read from reduced costs; only >=/== rows start with it basic
            line[self.art_col[i]] = 1
            if senses[i] == LE:
                line[si] = 1
                self.basis.append(si)
                si += 1
            elif senses[i] == ">=":
                line[si] = -1
                si += 1
                self.basis.append(self.art_col[i])
            else:
                self.basis.append(self.art_col[i])
            self.T.append(line)
        self.alive_rows = list(range(r))
        self.dropped: set[int] = set()

    # -- pivoting ----------------------------------------------------------

    def _pivot(self, obj: list[int], r: int, c: int) -> None:
        T = self.T
        d = self.d
        p = T[r][c]
        if p < 0:
            # negating the pivot equation keeps the new denominator positive
            T[r] = [-a for a in T[r]]
            p = -p
        rowr = T[r]
        for i in self.alive_rows:
            if i != r:
                T[i] = _eliminate(T[i], rowr, c, p, d)
        obj[:] = _eliminate(obj, rowr, c, p, d)
        self.d = p
        self.basis[r] = c

    def _optimize(self, obj: list[int]) -> str:
        """Bland simplex to optimality on the current basis; returns status.

        Artificial columns may leave the basis but never enter it.
        """
        T = self.T
        while True:
            enter = -1
            for j in range(self.art0):
                if obj[j] > 0:
                    enter = j
                    break
            if enter < 0:
                return "optimal"
            leave = -1
            for i in self.alive_rows:
                a = T[i][enter]
                if a <= 0:
                    continue
                if leave >= 0:
                    # ratio T[i][-1]/a against the best, cross-multiplied;
                    # ties go to the smaller basic column
                    lhs = T[i][-1] * T[leave][enter]
                    rhs = T[leave][-1] * a
                    if lhs > rhs or (lhs == rhs and self.basis[i] > self.basis[leave]):
                        continue
                leave = i
            if leave < 0:
                return "unbounded"
            self._pivot(obj, leave, enter)

    # -- phases --------------------------------------------------------------

    def solve(self) -> tuple[str, Fraction | None, tuple[Fraction, ...] | None]:
        # phase 1: maximize -(sum of artificials).  Row i's artificial is
        # k_i times that of the unscaled row, so weighting it by L / k_i
        # makes this L times the unscaled objective: the same signs, hence
        # the same Bland choices
        big_l = math.lcm(*self.row_scale)
        weight = [big_l // k for k in self.row_scale]
        obj1 = [0] * (self.num_cols + 1)
        for i, c in enumerate(self.art_col):
            obj1[c] = -weight[i]
        for i in self.alive_rows:
            if self.basis[i] >= self.art0:
                w = weight[i]
                obj1 = [a + w * b for a, b in zip(obj1, self.T[i])]
        status = self._optimize(obj1)
        assert status == "optimal"  # phase 1 is always bounded
        if obj1[-1] != 0:
            return "infeasible", None, None

        # drive leftover artificials out of the basis; drop redundant rows
        for i in list(self.alive_rows):
            if self.basis[i] >= self.art0:
                target = -1
                for j in range(self.art0):
                    if self.T[i][j] != 0:
                        target = j
                        break
                if target >= 0:
                    self._pivot(obj1, i, target)
                else:
                    self.alive_rows.remove(i)
                    self.dropped.add(i)

        # phase 2: original objective, scaled by Lc to integers
        objective = self.lp.objective
        n = len(objective)
        self.obj_scale = math.lcm(*[c.denominator for c in objective])
        ext_c = [0] * self.num_cols
        for j, c in enumerate(objective):
            ext_c[j] = c.numerator * (self.obj_scale // c.denominator)
        for k, j in enumerate(self.split):
            ext_c[n + k] = -ext_c[j]
        d = self.d
        obj2 = [d * c for c in ext_c] + [0]
        for i in self.alive_rows:
            f = ext_c[self.basis[i]]
            if f != 0:
                obj2 = [a - f * b for a, b in zip(obj2, self.T[i])]
        status = self._optimize(obj2)
        if status == "unbounded":
            return "unbounded", None, None

        value = Fraction(-obj2[-1], self.d * self.obj_scale)
        self.final_obj = obj2
        point = self._extract_point()
        return "optimal", value, point

    def _extract_point(self) -> tuple[Fraction, ...]:
        col_val = [0] * self.num_cols
        for i in self.alive_rows:
            col_val[self.basis[i]] = self.T[i][-1]
        n = len(self.lp.objective)
        x = col_val[:n]
        for k, j in enumerate(self.split):
            x[j] -= col_val[n + k]
        return tuple([Fraction(a, self.d) for a in x])

    def dual_prices(self) -> tuple[Fraction, ...]:
        """Optimal dual multipliers for the original constraint rows.

        Rows dropped as redundant get multiplier zero (the reduced system's
        dual extends with zeros; the stale artificial column of a dropped
        row carries no meaningful reduced cost).
        """
        prices = []
        scale = self.d * self.obj_scale
        for i in range(self.num_rows):
            if i in self.dropped:
                prices.append(ZERO)
                continue
            y = -self.final_obj[self.art_col[i]] * self.row_scale[i]
            prices.append(Fraction(y * self.row_sign[i], scale))
        return tuple(prices)


def _eliminate(row: list[int], rowr: list[int], c: int, p: int, d: int) -> list[int]:
    """``row`` after a pivot on column c of ``rowr``, with p = rowr[c] > 0.

    The update ``(p * row - row[c] * rowr) / d`` is exact in integers: d
    divides it because d and p are consecutive basis determinants.
    """
    f = row[c]
    if f == 0:
        return row if p == d else [a * p // d for a in row]
    return [(p * a - f * b) // d for a, b in zip(row, rowr)]


def _solve_direct(
    lp: LinearProgram,
) -> tuple[str, Fraction | None, tuple[Fraction, ...] | None, tuple[Fraction, ...] | None]:
    tab = _Tableau(lp)
    status, value, point = tab.solve()
    if status != "optimal":
        return status, None, None, None
    return status, value, point, tab.dual_prices()


def _dual_of(lp: LinearProgram) -> LinearProgram:
    """Dual in "maximize" form: max -rhs.y with one row per primal variable."""
    n = len(lp.objective)
    rows = []
    senses = []
    rhs = []
    for j in range(n):
        col = [row[j] for row in lp.lhs]
        if lp.nonneg[j]:
            rows.append(tuple([-a for a in col]))
            senses.append(LE)
            rhs.append(-lp.objective[j])
        else:
            rows.append(tuple(col))
            senses.append(EQ)
            rhs.append(lp.objective[j])
    nonneg = tuple([s == LE for s in lp.senses])
    return LinearProgram(
        tuple([-b for b in lp.rhs]), tuple(rows), tuple(senses), tuple(rhs), nonneg
    )


def _solve_via_dual(lp: LinearProgram) -> SimplexResult | None:
    """Solve through the dual; None when that leaves the status ambiguous.

    The primal point is recovered from the dual's shadow prices (the dual of
    the dual); a dual-infeasible outcome cannot distinguish an unbounded
    primal from an infeasible one, hence the None.
    """
    dual = _dual_of(lp)
    status, value, _point, prices = _solve_direct(dual)
    if status == "optimal":
        assert prices is not None and value is not None
        x = tuple([p if lp.nonneg[j] else -p for j, p in enumerate(prices)])
        return SimplexResult("optimal", -value, x)
    if status == "unbounded":
        return SimplexResult("infeasible", None, None)
    return None


def simplex_solve(lp: LinearProgram) -> SimplexResult:
    """Exact optimum, or infeasible/unbounded, deterministically.

    Tall problems (many more rows than variables) are solved through the
    dual; the direct tableau is the fallback whenever that is inconclusive.
    """
    if len(lp.rhs) >= 3 * max(1, len(lp.objective)):
        res = _solve_via_dual(lp)
        if res is not None:
            return res
    status, value, point, _ = _solve_direct(lp)
    return SimplexResult(status, value, point)
