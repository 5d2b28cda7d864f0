"""Exact capacity computation.

The capacity of an instance (W, E) is the reciprocal of the minimum total
download cost over the feasible region

    sum_t min( sum_{s in E(t)} D_{t,s},  2 * sum_{s in E(t) ^ W(k)} D_{t,s} ) >= 1
    for every stream k,  D >= 0.

Each min of two linear forms is concave, so the region is a polyhedron; the
LP below linearizes it with one epigraph variable m_{t,k} per (clique,
stream) pair with non-empty overlap (an empty overlap pins the term to 0).
Everything is exact rational arithmetic; closed forms for the fully
entangled, unentangled and symmetric families are provided and cross-checked
against the LP in the test suite.

Every LP is a list of its nonzeros, and one function, _solve, solves it
with lp.solve_min and certifies the result before it is returned: the
witness lies in the region and costs the optimal value, and the LP's dual
point y proves that no point costs less (y <= 0, A^T y <= c and b.y = the
optimal value, by weak duality).  solve_min hands both points over as
integers over their least common denominators, read off its final tableau,
and the checker, _certified, runs every check on those integers for
capacity_lp and both per-server LPs: it sums A^T y over the nonzeros in
Python ints, never reads a dense A, compares with the optimal value by
cross-multiplication and builds no Fraction.  Its checks raise
AssertionError, so they also run under python -O.  CapacityResult keeps the
integers; its `witness` gives the Fractions the CLI prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm

import numpy as np

from . import lp
from .model import (MAX_LP_VARS, LpSizeError, Problem, ProblemError, full_clique,
                    singleton_cliques, split_costs)


@dataclass(frozen=True)
class CapacityResult:
    """The certified optimum: its cost, and the witness and the dual point as
    integers over their least common denominators; `witness` is the
    witness as Fractions."""
    optimal_cost: Fraction
    witness_num: tuple[int, ...]  # download costs * witness_den, (t, ascending s) order
    witness_den: int
    dual_num: tuple[int, ...]     # optimal dual point * dual_den, one entry per LP row
    dual_den: int

    @property
    def capacity(self) -> Fraction:
        return 1 / self.optimal_cost

    @property
    def witness(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.witness_den) for v in self.witness_num)


def region_values(W, E, D) -> list:
    """sum_t min(total_t, 2 * sum_{s in E(t) ^ W(k)} D_{t,s}) for each stream
    W(k), from a cost tuple D listing each clique of E by ascending server."""
    cliques = [(c, sum(c.values())) for c in split_costs(E, D)]
    return [sum([min(total, 2 * sum(map(c.__getitem__, c.keys() & w))) for c, total in cliques])
            for w in W]


def common_denominator(values) -> tuple[list[int], int]:
    """Integers n_i and the least L >= 1 with values[i] == n_i / L (Fractions or ints)."""
    L = lcm(*(v.denominator for v in values))
    return [v.numerator * (L // v.denominator) for v in values], L


def in_region(W, E, N: list[int], L: int) -> bool:
    """Region membership, for streams W and cliques E, of the download-cost
    tuple N / L, given as integers N (length gamma, (t,s) order) and L >= 1."""
    values = region_values(W, E, N)  # a length other than gamma raises ProblemError
    return all(v >= 0 for v in N) and min(values) >= L


def feasible(P: Problem, D) -> bool:
    """Region membership of a download-cost tuple (length gamma, (t,s) order)."""
    return in_region(P.W, P.E, *common_denominator([Fraction(v) for v in D]))


def _certified(W, E, c, rows, b, value: Fraction, witness, dual) -> CapacityResult:
    """The result of the LP min c.x, A x <= b, x >= 0 of the region of
    streams W and cliques E, A given by its nonzeros rows = (i, j, a_ij),
    after an exact check that witness = (w, L), the download-cost part of x
    as w / L, is in the region at cost `value` and that dual = (y, d), the
    dual point y / d, proves the minimum.  Every check runs on the integers:
    A^T y is summed over the nonzeros in Python ints, and `value` is compared
    by cross-multiplication."""
    (w, L), (y, d) = witness, dual
    if L < 1:
        raise AssertionError("LP witness has a nonpositive denominator")
    if not in_region(W, E, w, L):
        raise AssertionError("LP witness fails region membership")
    if sum(w) * value.denominator != value.numerator * L:
        raise AssertionError("LP witness does not cost the optimal value")
    if d < 1:
        raise AssertionError("dual certificate has a nonpositive denominator")
    if any(v > 0 for v in y):
        raise AssertionError("dual certificate has a positive entry")
    if len(y) != len(b):
        raise AssertionError("dual certificate does not have one entry per LP row")
    aty = [0] * len(c)
    for i, j, a in zip(*rows):
        aty[j] += a * y[i]
    if any(v > cj * d for v, cj in zip(aty, c)):
        raise AssertionError("dual certificate violates A^T y <= c")
    if sum(bi * v for bi, v in zip(b, y)) * value.denominator != value.numerator * d:
        raise AssertionError("dual certificate does not attain the optimal value")
    return CapacityResult(value, tuple(w), L, tuple(y), d)


def _solve(W, E, c, rows, b) -> CapacityResult:
    """Solve min c.x, A x <= b, x >= 0, A given by its nonzeros rows = (i, j,
    a_ij) (no (i, j) twice, no a_ij == 0), and certify it in the region of
    streams W and cliques E.  The first gamma variables are E's cost tuple
    (t, ascending s); the witness is them over their least denominator."""
    A = np.zeros((len(b), len(c)), dtype=np.int64)
    A[rows[0], rows[1]] = rows[2]
    value, (x, L), dual = lp.solve_min(c, A, b)
    gamma = sum(map(len, E))
    g = gcd(L, *x[:gamma])  # L // g is the least denominator of x[:gamma]
    return _certified(W, E, c, rows, b, value, ([v // g for v in x[:gamma]], L // g), dual)


def capacity_lp(P: Problem) -> CapacityResult:
    """Exact LP solve of the capacity region; returns the optimum, a witness
    vertex and the dual point that certifies it."""
    gamma = P.gamma
    pairs = [(t, k) for t in range(P.T) for k in range(P.K) if P.E[t] & P.W[k]]
    uncovered = set(range(P.K)).difference(k for _, k in pairs)
    if uncovered:
        raise ProblemError(f"stream {P.stream_names[min(uncovered)]} is not covered "
                           "by any clique; capacity is zero")
    nvars = gamma + len(pairs)
    _check_lp_size(nvars)
    # variable layout: gamma download costs then one m per active (t, k) pair
    cost_pos = {ts: j for j, ts in enumerate(P.cost_index())}

    # rows: m <= sum over E(t) and m <= 2 * sum over E(t) ^ W(k) for each
    # pair i (rows 2i, 2i+1), then sum_t m_{t,k} >= 1 for each stream k;
    # the nonzero entries are listed (row, column, value)
    ri, ci, vi = [], [], []
    for i, (t, k) in enumerate(pairs):
        e, w, m = P.E[t], P.W[k], gamma + i
        both = e & w
        ri += [2 * i] * len(e) + [2 * i + 1] * len(both) + [2 * i, 2 * i + 1, 2 * len(pairs) + k]
        ci += [cost_pos[(t, s)] for s in e] + [cost_pos[(t, s)] for s in both] + [m, m, m]
        vi += [-1] * len(e) + [-2] * len(both) + [1, 1, -1]
    b = [0] * (2 * len(pairs)) + [-1] * P.K
    return _solve(P.W, P.E, [1] * gamma + [0] * len(pairs), (ri, ci, vi), b)


def _check_lp_size(nvars: int):
    if nvars > MAX_LP_VARS:
        raise LpSizeError(f"{nvars} LP variables exceed the guard {MAX_LP_VARS}")


def capacity_fullent(P: Problem) -> CapacityResult:
    """Capacity when all S servers share one entangled system (only W is used).

    Per-server LP: sum_s D_s >= 1 and 2 * sum_{s in W(k)} D_s >= 1 for all k.
    Variable s - 1 is D_s, so the variables are the full clique's cost tuple.
    """
    _check_lp_size(P.S)
    rows = ([0] * P.S + [k for k, w in enumerate(P.W, 1) for _ in w],
            [*range(P.S)] + [s - 1 for w in P.W for s in w],
            [-1] * P.S + [-2] * sum(map(len, P.W)))
    return _solve(P.W, full_clique(P.S), [1] * P.S, rows, [-1] * (1 + P.K))


def capacity_unent(P: Problem) -> CapacityResult:
    """Capacity with no entanglement (all singleton cliques; only W is used).

    Per-server LP: sum_{s in W(k)} D_s >= 1 for all k.
    Variable s - 1 is D_s, so the variables are the singletons' cost tuple.
    """
    _check_lp_size(P.S)
    rows = ([k for k, w in enumerate(P.W) for _ in w], [s - 1 for w in P.W for s in w],
            [-1] * sum(map(len, P.W)))
    return _solve(P.W, singleton_cliques(P.S), [1] * P.S, rows, [-1] * P.K)


def maximal_dsc_gain(P: Problem) -> Fraction:
    """Best possible gain for the replication map: min(2, 1/C_unent).

    Computed as the ratio C_fullent / C_unent and asserted equal to the
    closed form before returning.
    """
    c_un = capacity_unent(P).capacity
    ratio = capacity_fullent(P).capacity / c_un
    closed = min(Fraction(2), 1 / c_un)
    if ratio != closed:
        raise AssertionError(f"gain ratio {ratio} != closed form {closed}")
    return ratio


# ---------------------------------------------------------------------------
# symmetric family closed form


def _sym_forms(S: int, alpha: int, beta: int) -> tuple[Fraction, Fraction, Fraction]:
    T = comb(S, beta)
    denom = beta * T

    def cnt(g):
        return comb(alpha, g) * comb(S - alpha, beta - g)

    lo = max(0, alpha + beta - S)
    hi = min(alpha, beta)
    form0 = Fraction(sum(min(beta, 2 * g) * cnt(g) for g in range(lo, hi + 1)), denom)
    lo1 = max(alpha + beta - S, (beta + 1) // 2)
    form1 = Fraction(2 * alpha, S) - Fraction(
        sum((2 * g - beta) * cnt(g) for g in range(lo1, hi + 1)), denom)
    hi2 = min(alpha, beta // 2)
    form2 = 1 - Fraction(sum((beta - 2 * g) * cnt(g) for g in range(lo, hi2 + 1)), denom)
    return form0, form1, form2


def capacity_symmetric(S: int, alpha: int, beta: int) -> Fraction:
    """Capacity with every alpha-subset replicated and every beta-subset entangled.

    Three equivalent closed forms are evaluated and must agree.
    """
    if not 1 <= alpha <= S or not 1 <= beta <= S:
        raise ProblemError("alpha, beta must lie in 1..S")
    f0, f1, f2 = _sym_forms(S, alpha, beta)
    if not f0 == f1 == f2:
        raise AssertionError(
            f"closed forms disagree at (S={S}, a={alpha}, b={beta}): {f0}, {f1}, {f2}")
    return f0


def beta_star(S: int, alpha: int) -> int:
    """Smallest clique size whose symmetric capacity already equals the full-clique one."""
    if not 1 <= alpha <= S:
        raise ProblemError("alpha must lie in 1..S")
    if alpha == S:
        return 1
    if alpha <= S // 2:
        return 2 * alpha
    return 2 * (S - alpha)
