"""Independent brute-force verifiers for the main computation paths.

* lp_vertex_enum re-derives the optimal download cost by enumerating every
  basic solution of the linearized feasibility system (subsets of tight
  constraints of size = variable count) — no simplex involved.  The subsets
  are solved a block at a time by fraction-free (Bareiss) Gauss-Jordan
  elimination in integers: int64 when a Hadamard bound shows nothing can
  overflow, Python big ints otherwise, and Fractions only for the candidate
  optima, so the result is exact.
* exhaustive_decode_check replays a coding scheme against every possible
  data realization, in index order, reading each batch's digits off a
  tiled grid of the low digits.
* check_identities runs the capacity identity families on seeded random
  instances plus the named worked instances.
* check_beta_star and check_lp_oracle compare beta* and the LP against a
  scan of the symmetric closed form and against vertex enumeration.

Reports render as TAP lines for CI consumption.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, islice
from math import prod
from typing import Any

import numpy as np

from .capacity import (beta_star, capacity_fullent, capacity_lp, capacity_symmetric,
                       capacity_unent)
from .model import (Problem, beta_cliques, concat_problems, full_clique, merged_map,
                    triangle_substitute)
from .scheme import CodingScheme, simulate_batch
from .vecops import field_ops

VERTEX_ENUM_GUARD = 14          # max gamma + K*T
DECODE_GUARD = 1 << 24          # max q^(K*R) realizations
DECODE_BATCH = 1 << 13  # realizations per simulate_batch call
VERTEX_CHUNK_ELEMS = 1 << 15   # matrix entries per block of row subsets
_HADAMARD_SQ_MAX = 1 << 62     # int64 elimination while H^2 stays below this


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


def _vertex_dtype(Gh: list[list[int]], n: int):
    """int64 when no intermediate of the elimination can leave it, else object.

    Every entry the elimination forms is a minor of [G | h] of size at most
    n + 1, so at most H, the product of the n + 1 largest row norms
    (Hadamard).  A Bareiss cross term is a difference of two products of
    minors (at most 2 H^2), and a feasibility entry g . N or D * h is at most
    |[g | h]|_1 * H; both must stay below 2^63.
    """
    h2 = prod(sorted((sum(v * v for v in row) for row in Gh), reverse=True)[:n + 1])
    l1 = max(sum(map(abs, row)) for row in Gh)
    if h2 < _HADAMARD_SQ_MAX and h2 * l1 * l1 < _HADAMARD_SQ_MAX ** 2:
        return np.int64
    return object


def _bareiss_solve(M: np.ndarray):
    """Fraction-free Gauss-Jordan on a (B, n, n+1) block of systems [A | b].

    Returns (D, N) for the nonsingular systems only: D = det of the
    row-permuted A, N = D * x with A x = b (the Cramer numerators).  After
    step k every entry is a (k+1)-minor of [A | b], so each division by the
    previous pivot is exact.  A system with no pivot in some column is
    singular and leaves the block at that step.
    """
    n = M.shape[1]
    prev = np.ones(len(M), dtype=M.dtype)
    for k in range(n):
        nz = M[:, k:, k] != 0
        has = nz.any(axis=1)
        if not has.all():
            M, prev, nz = M[has], prev[has], nz[has]
            if not len(M):
                break
        piv = k + nz.argmax(axis=1)
        swap = np.nonzero(piv != k)[0]
        if len(swap):
            rows = M[swap, k].copy()
            M[swap, k] = M[swap, piv[swap]]
            M[swap, piv[swap]] = rows
        p = M[:, k, k].copy()
        pivot_row = M[:, k, k + 1:].copy()
        M[:, :, k + 1:] = ((p[:, None, None] * M[:, :, k + 1:]
                            - M[:, :, k, None] * pivot_row[:, None, :])
                           // prev[:, None, None])
        M[:, k, k + 1:] = pivot_row
        prev = p
    return prev, M[:, :, n]


def lp_vertex_enum(P: Problem) -> Fraction:
    """Minimum total download cost by exhaustive basic-solution enumeration.

    Visits every nvars-subset of the rows of `_linearized_rows` whose system
    is nonsingular, solves it as the tight set, and keeps the least
    objective over the solutions that satisfy every row.  The subsets come
    in lexicographic blocks of at most VERTEX_CHUNK_ELEMS matrix entries,
    each solved by `_bareiss_solve`; the feasibility test and the objective
    are exact integer and Fraction arithmetic on (D, N).
    """
    if P.gamma + P.K * P.T > VERTEX_ENUM_GUARD:
        raise GuardExceeded(
            f"gamma + K*T = {P.gamma + P.K * P.T} exceeds guard {VERTEX_ENUM_GUARD}")
    rows, nvars, gamma = _linearized_rows(P)
    Gh = [g + [h] for g, h in rows]
    A = np.array(Gh, dtype=_vertex_dtype(Gh, nvars))
    G, h = A[:, :nvars], A[:, nvars]
    lows: list[Fraction] = []   # the least feasible value of each block
    subsets = combinations(range(len(rows)), nvars)
    block = max(1, VERTEX_CHUNK_ELEMS // (nvars * (nvars + 1)))
    while True:
        idx = np.fromiter(chain.from_iterable(islice(subsets, block)), dtype=np.intp)
        if not len(idx):
            break
        D, N = _bareiss_solve(A[idx.reshape(-1, nvars)])
        sign = np.where(D < 0, -1, 1).astype(A.dtype)
        D, N = D * sign, N * sign[:, None]
        ok = (N @ G.T >= D[:, None] * h).all(axis=1)
        values = set(zip(N[ok, :gamma].sum(axis=1).tolist(), D[ok].tolist()))
        if values:
            lows.append(min(Fraction(num, den) for num, den in values))
    if not lows:
        raise ValueError("no feasible vertex found")
    return min(lows)


# ---------------------------------------------------------------------------
# exhaustive decode oracle


def exhaustive_decode_check(sch: CodingScheme) -> OracleReport:
    """Replay the scheme on every data realization; report the first mismatch.

    Realization idx has data[k, i] = base-q digit k*R + i of idx.  They run
    in index order, in batches [lo, lo + DECODE_BATCH), each one
    simulate_batch call compared with the field sum of its data.  A batch
    is filled without dividing every index: with q^a the largest power of q
    that is at most DECODE_BATCH (a run), the a low digits are a window,
    starting at lo mod q^a, of the grid of all q^a low-digit tuples tiled
    once per check, and each higher digit is a digit of the run index,
    repeated over its run.  For q > DECODE_BATCH, a = 0 and a run is one
    realization.
    """
    q = sch.ext.big.order
    K, R = sch.problem.K, sch.R
    n = K * R
    total = q ** n
    if total > DECODE_GUARD:
        raise GuardExceeded(f"q^(K*R) = {total} exceeds guard {DECODE_GUARD}")
    ops = field_ops(sch.ext.big)
    name = f"exhaustive decode ({total} realizations, q={q}, K={K}, R={R})"
    a = 0
    while a < n and q ** (a + 1) <= DECODE_BATCH:
        a += 1
    run = q ** a
    # row j is digit j (np.indices varies its last axis fastest), tiled
    # to cover any window of a batch that starts inside the first run
    low = np.indices((q,) * a, dtype=np.int64)[::-1].reshape(a, run)
    low = np.tile(low, -(-(run - 1 + min(DECODE_BATCH, total)) // run))
    for lo in range(0, total, DECODE_BATCH):
        hi = min(lo + DECODE_BATCH, total)
        data = np.empty((n, hi - lo), dtype=np.int64)
        data[:a] = low[:, lo % run:lo % run + hi - lo]
        # the high digits of each run this batch meets, one divmod per digit
        runs = np.arange(lo // run, (hi - 1) // run + 1, dtype=np.int64)
        lengths = np.minimum(runs * run + run, hi) - np.maximum(runs * run, lo)
        high = np.empty((n - a, len(runs)), dtype=np.int64)
        for j in range(n - a):
            runs, high[j] = np.divmod(runs, q)
        data[a:] = np.repeat(high, lengths, axis=1)
        data = data.reshape(K, R, hi - lo)
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


def random_problem_with_triangle(rng: random.Random, max_s: int) -> tuple[Problem, int]:
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


def check_triangle_substitution(seed: int, cases: int, max_s: int):
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


def check_bipartite_merge(seed: int, cases: int, max_s: int):
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


def check_disjoint_data():
    reports = []
    for S in range(2, 9):
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


def check_dsc_gain(seed: int, cases: int, max_s: int):
    rng = random.Random(seed)
    reports = []
    for i in range(cases):
        S = rng.randint(1, max_s)
        K = rng.randint(1, 4)
        P = Problem(S, random_replication(rng, S, K), full_clique(S))
        c_un = capacity_unent(P).capacity
        gain = capacity_fullent(P).capacity / c_un
        closed = min(Fraction(2), 1 / c_un)
        reports.append(OracleReport(
            f"maximal gain #{i + 1} (S={S}, K={K})", gain, closed, gain == closed))
    return reports


def check_separability(seed: int, cases: int, max_s: int):
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
        both_max = (c1 / capacity_unent(P1).capacity == 2
                    and c2 / capacity_unent(P2).capacity == 2)
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


def check_identities(seed: int, cases: int, max_s: int) -> list[OracleReport]:
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


def check_beta_star(max_s: int) -> list[OracleReport]:
    """beta*(S, alpha) against a scan for the smallest beta whose symmetric
    capacity equals the fully entangled one, for every alpha <= S <= max_s."""
    reports = []
    for S in range(1, max_s + 1):
        for alpha in range(1, S + 1):
            c_full = capacity_symmetric(S, alpha, S)
            scanned = next(b for b in range(1, S + 1)
                           if capacity_symmetric(S, alpha, b) == c_full)
            formula = beta_star(S, alpha)
            reports.append(OracleReport(f"beta* S={S} alpha={alpha}", scanned, formula,
                                        scanned == formula))
    return reports


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
        if P.gamma + K * T <= VERTEX_ENUM_GUARD and _covered(P):
            return P


def check_lp_oracle(seed: int, cases: int) -> list[OracleReport]:
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
