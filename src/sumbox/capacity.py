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

Every LP result is certified before it is returned: the witness lies in the
region and costs the optimal value, and the LP's dual point y proves that no
point costs less (y <= 0, A^T y <= c and b.y = the optimal value, by weak
duality).  solve_min hands both points over as integers over their least
common denominators, read off its final tableau, and one checker,
_certified, runs every check on those integers for capacity_lp and both
per-server LPs: it compares with the optimal value by cross-multiplication
and builds no Fraction.  Its checks raise AssertionError, so they also run
under python -O.  CapacityResult keeps the integers; its `witness` gives the
Fractions the CLI prints.
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


def stream_values(P: Problem, D) -> list:
    """region_values of P's streams and cliques, D in cost_index() order."""
    return region_values(P.W, P.E, D)


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


def _row_combination(coeffs: list[int], A: np.ndarray) -> list[int]:
    """sum_i coeffs[i] * A[i] exactly: in int64 when no sum can overflow it."""
    bound = max(map(abs, coeffs), default=0) * int(np.abs(A).sum(axis=0).max(initial=0))
    if bound < 1 << 63:
        return (np.array(coeffs, dtype=np.int64) @ A).tolist()
    return (np.array(coeffs, dtype=object) @ A.astype(object)).tolist()


def _certified(W, E, c, A: np.ndarray, b, value: Fraction, witness, dual) -> CapacityResult:
    """The result of the LP min c.x, A x <= b, x >= 0 of the region of
    streams W and cliques E, after an exact check that witness = (w, L), the
    download-cost part of x as w / L, is in the region at cost `value` and
    that dual = (y, d), the dual point y / d, proves the minimum.  Every
    check runs on the integers, comparing with `value` by
    cross-multiplication."""
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
    if any(v > cj * d for v, cj in zip(_row_combination(y, A), c)):
        raise AssertionError("dual certificate violates A^T y <= c")
    if sum(bi * v for bi, v in zip(b, y)) * value.denominator != value.numerator * d:
        raise AssertionError("dual certificate does not attain the optimal value")
    return CapacityResult(value, tuple(w), L, tuple(y), d)


def _active_pairs(P: Problem) -> list[tuple[int, int]]:
    return [(t, k) for t in range(P.T) for k in range(P.K) if P.E[t] & P.W[k]]


def capacity_lp(P: Problem) -> CapacityResult:
    """Exact LP solve of the capacity region; returns the optimum, a witness
    vertex and the dual point that certifies it."""
    for k, w in enumerate(P.W):
        if not any(e & w for e in P.E):
            raise ProblemError(
                f"stream {P.stream_names[k]} is not covered by any clique; capacity is zero"
            )
    gamma = P.gamma
    pairs = _active_pairs(P)
    nvars = gamma + len(pairs)
    _check_lp_size(nvars)
    # variable layout: gamma download costs then one m per active (t, k) pair
    cost_pos = {ts: j for j, ts in enumerate(P.cost_index())}

    # rows: m <= sum over E(t) and m <= 2 * sum over E(t) ^ W(k) for each
    # pair i (rows 2i, 2i+1), then sum_t m_{t,k} >= 1 for each stream k;
    # the nonzero entries are listed (row, column, value) and written at once
    ri, ci, vi = [], [], []
    for i, (t, k) in enumerate(pairs):
        e, w, m = P.E[t], P.W[k], gamma + i
        both = e & w
        ri += [2 * i] * len(e) + [2 * i + 1] * len(both) + [2 * i, 2 * i + 1, 2 * len(pairs) + k]
        ci += [cost_pos[(t, s)] for s in e] + [cost_pos[(t, s)] for s in both] + [m, m, m]
        vi += [-1] * len(e) + [-2] * len(both) + [1, 1, -1]
    A = np.zeros((2 * len(pairs) + P.K, nvars), dtype=np.int64)
    A[ri, ci] = vi
    b = [0] * (2 * len(pairs)) + [-1] * P.K
    c = [1] * gamma + [0] * len(pairs)

    value, (x, L), dual = lp.solve_min(c, A, b)
    g = gcd(L, *x[:gamma])  # L // g is the least denominator of x[:gamma]
    return _certified(P.W, P.E, c, A, b, value, ([v // g for v in x[:gamma]], L // g), dual)


def _check_lp_size(nvars: int):
    if nvars > MAX_LP_VARS:
        raise LpSizeError(f"{nvars} LP variables exceed the guard {MAX_LP_VARS}")


def _incidence(P: Problem, value: int, skip: int = 0) -> np.ndarray:
    """(skip + K) x S matrix, zero in its first `skip` rows: entry (skip + k,
    s - 1) is `value` when server s stores stream k.  One scatter."""
    inc = np.zeros((skip + P.K, P.S), dtype=np.int64)
    inc[[k for k, w in enumerate(P.W, skip) for _ in w], [s - 1 for w in P.W for s in w]] = value
    return inc


def _per_server_result(P: Problem, E, A: np.ndarray) -> CapacityResult:
    """Solve min sum_s D_s s.t. A D <= -1 (S per-server variables), certified
    in the region of P's streams with cliques E.

    E is the full clique or the singletons: either lists servers 1..S in
    order, so the per-server witness is E's cost tuple as it stands."""
    c, b = [1] * P.S, [-1] * len(A)
    value, witness, dual = lp.solve_min(c, A, b)
    return _certified(P.W, E, c, A, b, value, witness, dual)


def capacity_fullent(P: Problem) -> CapacityResult:
    """Capacity when all S servers share one entangled system (only W is used).

    Per-server LP: sum_s D_s >= 1 and 2 * sum_{s in W(k)} D_s >= 1 for all k.
    """
    _check_lp_size(P.S)
    A = _incidence(P, -2, skip=1)
    A[0] = -1
    return _per_server_result(P, full_clique(P.S), A)


def capacity_unent(P: Problem) -> CapacityResult:
    """Capacity with no entanglement (all singleton cliques; only W is used).

    Per-server LP: sum_{s in W(k)} D_s >= 1 for all k.
    """
    _check_lp_size(P.S)
    return _per_server_result(P, singleton_cliques(P.S), _incidence(P, -1))


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
