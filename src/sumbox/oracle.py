"""Independent brute-force verifiers for the main computation paths.

* lp_vertex_enum re-derives the optimal download cost by enumerating every
  basic solution of the linearized feasibility system (subsets of tight
  constraints of size = variable count), with exact rational arithmetic —
  no simplex involved.
* exhaustive_decode_check replays a coding scheme against every possible
  data realization.
* check_identities runs the capacity identity families on seeded random
  instances plus the named worked instances.

Reports render as TAP lines for CI consumption.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Any

import numpy as np

from .capacity import (capacity_fullent, capacity_lp, capacity_symmetric,
                       capacity_unent, maximal_dsc_gain)
from .model import (Problem, beta_cliques, concat_problems, full_clique,
                    merged_map, singleton_cliques, symmetric_problem,
                    triangle_substitute)
from .scheme import CodingScheme, simulate_batch
from .vecops import VecOps

VERTEX_ENUM_GUARD = 14          # max gamma + K*T
DECODE_GUARD = 1 << 24          # max q^(K*R) realizations
DECODE_BATCH = 1 << 13  # realizations per simulate_batch call


class GuardExceeded(ValueError):
    pass


@dataclass(frozen=True)
class OracleReport:
    instance: str
    main_value: Any
    oracle_value: Any
    agree: bool
    counterexample: Any = None


def tap_lines(reports) -> list[str]:
    out = []
    for i, rep in enumerate(reports, start=1):
        status = "ok" if rep.agree else "not ok"
        line = f"{status} {i} - {rep.instance}"
        if not rep.agree:
            line += f" (main={rep.main_value}, oracle={rep.oracle_value}"
            if rep.counterexample is not None:
                line += f", witness={rep.counterexample}"
            line += ")"
        out.append(line)
    return out


# ---------------------------------------------------------------------------
# LP vertex enumeration


def _linearized_rows(P: Problem):
    """The region as integer rows (g, h) meaning g . x >= h.

    Variables: gamma download costs then one m per (t, k) pair with
    non-empty overlap.
    """
    gamma = P.gamma
    pairs = [(t, k) for t in range(P.T) for k in range(P.K) if P.E[t] & P.W[k]]
    nvars = gamma + len(pairs)
    cost_pos = {ts: i for i, ts in enumerate(P.cost_index())}
    m_pos = {pair: gamma + i for i, pair in enumerate(pairs)}
    rows = []
    for (t, k) in pairs:
        g = [0] * nvars
        g[m_pos[(t, k)]] = -1
        for s in P.E[t]:
            g[cost_pos[(t, s)]] += 1
        rows.append((g, 0))
        g = [0] * nvars
        g[m_pos[(t, k)]] = -1
        for s in P.E[t] & P.W[k]:
            g[cost_pos[(t, s)]] += 2
        rows.append((g, 0))
    for k in range(P.K):
        g = [0] * nvars
        for (t, kk) in pairs:
            if kk == k:
                g[m_pos[(t, kk)]] = 1
        if not any(g):
            raise ValueError(f"stream {k + 1} not covered by any clique")
        rows.append((g, 1))
    for i in range(nvars):
        g = [0] * nvars
        g[i] = 1
        rows.append((g, 0))
    return rows, nvars, gamma


def lp_vertex_enum(P: Problem) -> Fraction:
    """Minimum total download cost by exhaustive basic-solution enumeration."""
    if P.gamma + P.K * P.T > VERTEX_ENUM_GUARD:
        raise GuardExceeded(
            f"gamma + K*T = {P.gamma + P.K * P.T} exceeds guard {VERTEX_ENUM_GUARD}")
    rows, nvars, gamma = _linearized_rows(P)
    nrows = len(rows)
    best: Fraction | None = None

    # DFS over row subsets with an incremental exact echelon; a row that is
    # dependent on the chosen prefix prunes the whole branch below it.
    echelon: list[list[Fraction]] = []   # reduced rows, each with rhs appended
    pivcols: list[int] = []

    def reduce(vec):
        vec = vec[:]
        for prow, pcol in zip(echelon, pivcols):
            f = vec[pcol]
            if f:
                for j in range(nvars + 1):
                    vec[j] -= f * prow[j]
        for j in range(nvars):
            if vec[j]:
                inv = Fraction(1) / vec[j]
                return [v * inv for v in vec], j
        return None, None

    def solve_point():
        # back-substitution over the echelon rows
        x = [Fraction(0)] * nvars
        for prow, pcol in reversed(list(zip(echelon, pivcols))):
            acc = prow[nvars]
            for j in range(nvars):
                if j != pcol and prow[j]:
                    acc -= prow[j] * x[j]
            x[pcol] = acc
        return x

    def feasible_point(x) -> bool:
        for g, h in rows:
            tot = sum(gi * xi for gi, xi in zip(g, x) if gi)
            if tot < h:
                return False
        return True

    def dfs(start: int):
        nonlocal best
        if len(echelon) == nvars:
            x = solve_point()
            if feasible_point(x):
                val = sum(x[:gamma], Fraction(0))
                if best is None or val < best:
                    best = val
            return
        if nrows - start < nvars - len(echelon):
            return
        for i in range(start, nrows):
            g, h = rows[i]
            red, pcol = reduce([Fraction(v) for v in g] + [Fraction(h)])
            if red is None:
                continue
            echelon.append(red)
            pivcols.append(pcol)
            dfs(i + 1)
            echelon.pop()
            pivcols.pop()

    dfs(0)
    if best is None:
        raise ValueError("no feasible vertex found")
    return best


# ---------------------------------------------------------------------------
# exhaustive decode oracle


def exhaustive_decode_check(sch: CodingScheme) -> OracleReport:
    """Replay the scheme on every data realization; report the first mismatch."""
    q = sch.ext.big.order
    K, R = sch.problem.K, sch.R
    total = q ** (K * R)
    if total > DECODE_GUARD:
        raise GuardExceeded(f"q^(K*R) = {total} exceeds guard {DECODE_GUARD}")
    ops = VecOps(sch.ext.big)
    name = f"exhaustive decode ({total} realizations, q={q}, K={K}, R={R})"
    for lo in range(0, total, DECODE_BATCH):
        hi = min(lo + DECODE_BATCH, total)
        # realization idx has data[k, i] = base-q digit k*R + i of idx
        idx = np.arange(lo, hi, dtype=np.int64)
        data = (idx // q ** np.arange(K * R, dtype=np.int64)[:, None] % q).reshape(K, R, hi - lo)
        got = simulate_batch(sch, data)
        want = ops.sum(data)
        if not np.array_equal(got, want):
            bad = int(np.nonzero((got != want).any(axis=0))[0][0])
            witness = data[:, :, bad].tolist()
            return OracleReport(name, got[:, bad].tolist(), want[:, bad].tolist(),
                                False, witness)
    return OracleReport(name, total, total, True)


# ---------------------------------------------------------------------------
# capacity identity families


def random_replication(rng: random.Random, S: int, K: int) -> tuple[frozenset[int], ...]:
    out = []
    for _ in range(K):
        size = rng.randint(1, S)
        out.append(frozenset(rng.sample(range(1, S + 1), size)))
    return tuple(out)


def _covered(P: Problem) -> bool:
    return all(any(e & w for e in P.E) for w in P.W)


def random_problem_with_triangle(rng: random.Random, max_s: int = 5) -> tuple[Problem, int]:
    while True:
        S = rng.randint(3, max_s)
        K = rng.randint(1, 4)
        W = random_replication(rng, S, K)
        T = rng.randint(1, 3)
        cliques = []
        tri_at = rng.randrange(T)
        for t in range(T):
            if t == tri_at:
                cliques.append(frozenset(rng.sample(range(1, S + 1), 3)))
            else:
                size = rng.randint(1, S)
                cliques.append(frozenset(rng.sample(range(1, S + 1), size)))
        P = Problem(S, W, tuple(cliques))
        if _covered(P):
            return P, tri_at + 1


def check_triangle_substitution(seed: int, cases: int = 100, max_s: int = 5):
    rng = random.Random(seed)
    reports = []
    for i in range(cases):
        P, t = random_problem_with_triangle(rng, max_s)
        lhs = capacity_lp(P).capacity
        rhs = capacity_lp(triangle_substitute(P, t)).capacity
        reports.append(OracleReport(
            f"triangle substitution #{i + 1} (S={P.S}, K={P.K}, T={P.T}, t={t})",
            lhs, rhs, lhs == rhs))
    return reports


def check_bipartite_merge(seed: int, cases: int = 100, max_s: int = 5):
    rng = random.Random(seed)
    reports = []
    for i in range(cases):
        S = rng.randint(2, max_s)
        K = rng.randint(1, 4)
        P = Problem(S, random_replication(rng, S, K), beta_cliques(S, min(2, S)))
        lhs = capacity_lp(P).capacity
        rhs = capacity_unent(merged_map(P)).capacity
        reports.append(OracleReport(
            f"pair-server merge #{i + 1} (S={S}, K={K})", lhs, rhs, lhs == rhs))
    return reports


def check_disjoint_data(max_s: int = 8):
    reports = []
    for S in range(2, max_s + 1):
        W = tuple(frozenset([s]) for s in range(1, S + 1))
        P_full = Problem(S, W, full_clique(S))
        P_beta2 = Problem(S, W, beta_cliques(S, 2))
        c_full = capacity_lp(P_full).capacity
        c_2 = capacity_lp(P_beta2).capacity
        ok = c_full == c_2 == Fraction(2, S)
        reports.append(OracleReport(
            f"disjoint data S={S}: fullent = 2-party = 2/S",
            (c_full, c_2), Fraction(2, S), ok))
    return reports


def check_dsc_gain(seed: int, cases: int = 200, max_s: int = 5):
    rng = random.Random(seed)
    reports = []
    for i in range(cases):
        S = rng.randint(1, max_s)
        K = rng.randint(1, 4)
        P = Problem(S, random_replication(rng, S, K), full_clique(S))
        c_un = capacity_unent(P).capacity
        gain = maximal_dsc_gain(P)
        closed = min(Fraction(2), 1 / c_un)
        reports.append(OracleReport(
            f"maximal gain #{i + 1} (S={S}, K={K})", gain, closed, gain == closed))
    return reports


def check_separability(seed: int, cases: int = 50, max_s: int = 4):
    rng = random.Random(seed)
    reports = []
    for i in range(cases):
        S1, S2 = rng.randint(1, max_s), rng.randint(1, max_s)
        P1 = Problem(S1, random_replication(rng, S1, rng.randint(1, 3)), full_clique(S1))
        P2 = Problem(S2, random_replication(rng, S2, rng.randint(1, 3)), full_clique(S2))
        P3 = concat_problems(P1, P2)
        c1, c2 = capacity_fullent(P1).capacity, capacity_fullent(P2).capacity
        c3 = capacity_fullent(P3).capacity
        additive = (1 / c3) == (1 / c1) + (1 / c2)
        both_max = maximal_dsc_gain(P1) == 2 and maximal_dsc_gain(P2) == 2
        reports.append(OracleReport(
            f"separability #{i + 1} (S1={S1}, S2={S2})",
            f"additive={additive}", f"both gains 2: {both_max}", additive == both_max))
    return reports


def named_instances() -> list[OracleReport]:
    """The worked capacity values: strict multiparty gap and (in)separable pairs."""
    reports = []
    # five servers, streams ABC/ABD/ACD/BCD on 1..4 plus a lone stream on 5
    W = (frozenset({1, 2, 3}), frozenset({1, 2, 4}), frozenset({1, 3, 4}),
         frozenset({2, 3, 4}), frozenset({5}))
    P = Problem(5, W, full_clique(5), ("A", "B", "C", "D", "E"))
    c5 = capacity_fullent(P).capacity
    c4 = capacity_lp(P.with_cliques(beta_cliques(5, 4))).capacity
    reports.append(OracleReport("5-server full-entanglement capacity = 6/7",
                                c5, Fraction(6, 7), c5 == Fraction(6, 7)))
    reports.append(OracleReport("5-server 4-party capacity = 5/6",
                                c4, Fraction(5, 6), c4 == Fraction(5, 6)))
    reports.append(OracleReport("strict gap: 6/7 > 5/6", (c5, c4), "c5 > c4", c5 > c4))
    # inseparable pair: three pairwise-overlapping streams + a lone stream
    W1 = Problem(3, (frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3})),
                 full_clique(3), ("a", "b", "c"))
    W2 = Problem(1, (frozenset({1}),), full_clique(1), ("d",))
    P3 = concat_problems(W1, W2)
    cost3 = 1 / capacity_fullent(P3).capacity
    reports.append(OracleReport("inseparable pair: total cost 5/4 != 1 + 1",
                                cost3, Fraction(5, 4),
                                cost3 == Fraction(5, 4) and cost3 != 2))
    # separable pair: disjoint single-server streams
    Q1 = Problem(2, (frozenset({1}), frozenset({2})), full_clique(2), ("a", "b"))
    Q2 = Problem(2, (frozenset({1}), frozenset({2})), full_clique(2), ("c", "d"))
    Q3 = concat_problems(Q1, Q2)
    cost3 = 1 / capacity_fullent(Q3).capacity
    reports.append(OracleReport("separable pair: total cost 2 = 1 + 1",
                                cost3, Fraction(2), cost3 == Fraction(2)))
    return reports


def check_identities(seed: int = 0, cases: int = 100, max_s: int = 5) -> list[OracleReport]:
    reports = []
    reports += check_triangle_substitution(seed, cases, max_s)
    reports += check_bipartite_merge(seed + 1, cases, max_s)
    reports += check_disjoint_data()
    reports += check_dsc_gain(seed + 2, 2 * cases, max_s)
    reports += check_separability(seed + 3, max(1, cases // 2), min(4, max_s))
    reports += named_instances()
    return reports


# ---------------------------------------------------------------------------
# agreement suites


def random_small_problem(rng: random.Random) -> Problem:
    """Tiny random instances sized for the vertex-enumeration guard."""
    while True:
        S = rng.randint(1, 3)
        K = rng.randint(1, 2)
        T = rng.randint(1, 2)
        W = random_replication(rng, S, K)
        E = tuple(frozenset(rng.sample(range(1, S + 1), rng.randint(1, min(2, S))))
                  for _ in range(T))
        P = Problem(S, W, E)
        if P.gamma + K * T > VERTEX_ENUM_GUARD:
            continue
        if all(any(e & w for e in P.E) for w in P.W):
            return P


def check_lp_oracle(seed: int = 0, cases: int = 200) -> list[OracleReport]:
    rng = random.Random(seed)
    reports = []
    for i in range(cases):
        P = random_small_problem(rng)
        main = capacity_lp(P).optimal_cost
        orc = lp_vertex_enum(P)
        reports.append(OracleReport(
            f"vertex enumeration #{i + 1} (S={P.S}, K={P.K}, E={sorted(map(sorted, P.E))})",
            main, orc, main == orc))
    return reports
