import dataclasses
import random
from fractions import Fraction

import mat_reference as ref
import numpy as np
import pytest

from sumbox.capacity import capacity_lp
from sumbox.matrix import Mat
from sumbox.model import Problem, full_clique
from sumbox import oracle
from sumbox.oracle import (GuardExceeded, OracleReport, _linearized_rows,
                           _vertex_dtype, check_identities, check_lp_oracle,
                           exhaustive_decode_check, lp_vertex_enum,
                           named_instances, random_small_problem, tap_lines)
from sumbox.scheme import (build_scheme, worked_reference_scheme,
                           reference_problem, simulate, true_sum)


def dfs_vertex_enum(P):
    """Reference for lp_vertex_enum: a depth-first search over row subsets
    with an incremental Fraction echelon, pruning a branch at the first
    dependent row."""
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


# (variables, rows) classes of the benchmark's verify workload, plus the
# larger classes random_small_problem reaches that it leaves out
SIZE_CLASSES = {(2, 5), (3, 6), (3, 9), (4, 7), (4, 9), (4, 10), (5, 8),
                (5, 10), (5, 11), (5, 13), (6, 11), (6, 12),
                (6, 14), (6, 16), (7, 15)}


def one_per_class(seed=0, max_draws=50_000):
    rng = random.Random(seed)
    found = {}
    for _ in range(max_draws):
        P = random_small_problem(rng)
        rows, nvars, _ = _linearized_rows(P)
        key = (nvars, len(rows))
        if key in SIZE_CLASSES and key not in found:
            found[key] = P
            if len(found) == len(SIZE_CLASSES):
                return found
    raise AssertionError(f"classes not reached: {SIZE_CLASSES - set(found)}")


fs = frozenset
# Duplicate cliques repeat rows of the region, so many row subsets are
# singular.  Each instance comes with its optimum.
DUPLICATE_CLIQUES = [
    (Problem(1, (fs({1}),), full_clique(1) * 3), 1),
    (Problem(2, (fs({1, 2}),), full_clique(2) * 2), 1),
    (Problem(2, (fs({2}), fs({1})), (fs({1}), fs({2}), fs({1}))), 2),
    (Problem(3, (fs({3}), fs({2})), (fs({2}), fs({1, 3}), fs({2}))), 2),
]
# a fractional optimum: (6, 15)
THREE_HALVES = Problem(4, (fs({3}), fs({1, 4}), fs({1, 2})), (fs({2, 3, 4}),))


def test_vertex_enum_matches_dfs_on_every_size_class():
    for key, P in sorted(one_per_class().items()):
        assert lp_vertex_enum(P) == dfs_vertex_enum(P), key


def test_vertex_enum_matches_dfs_on_hand_built_instances():
    for P, want in DUPLICATE_CLIQUES + [(THREE_HALVES, Fraction(3, 2))]:
        got = lp_vertex_enum(P)
        assert type(got) is Fraction
        assert got == dfs_vertex_enum(P) == want


def test_vertex_enum_object_path(monkeypatch):
    cases = [P for P, _ in DUPLICATE_CLIQUES] + [THREE_HALVES]
    cases += [one_per_class()[key] for key in ((5, 13), (6, 12))]
    want = [lp_vertex_enum(P) for P in cases]
    rows, nvars, _ = _linearized_rows(THREE_HALVES)
    Gh = [g + [h] for g, h in rows]
    assert _vertex_dtype(Gh, nvars) is np.int64
    monkeypatch.setattr(oracle, "_HADAMARD_SQ_MAX", 1)
    assert _vertex_dtype(Gh, nvars) is object
    assert [lp_vertex_enum(P) for P in cases] == want


def test_vertex_enum_across_chunks(monkeypatch):
    cases = [P for P, _ in DUPLICATE_CLIQUES[:2]] + [THREE_HALVES]
    want = [lp_vertex_enum(P) for P in cases]
    # 42 entries per subset (6 variables): blocks of 1, 2 and 5 subsets
    for elems in (1, 100, 250):
        monkeypatch.setattr(oracle, "VERTEX_CHUNK_ELEMS", elems)
        assert [lp_vertex_enum(P) for P in cases] == want


def test_vertex_enum_reference():
    assert lp_vertex_enum(reference_problem()) == Fraction(5, 4)


def test_vertex_enum_single_server():
    P = Problem(1, (frozenset({1}),), full_clique(1))
    assert lp_vertex_enum(P) == 1


def test_vertex_enum_agrees_with_simplex():
    reports = check_lp_oracle(seed=42, cases=25)
    assert all(r.agree for r in reports)


def test_vertex_enum_guard():
    # 6 servers, 4 streams, 3 full cliques: gamma + K*T = 18 + 12 > 14
    W = tuple(frozenset({s}) for s in range(1, 5))
    P = Problem(6, W, full_clique(6) * 3)
    with pytest.raises(GuardExceeded):
        lp_vertex_enum(P)


def test_vertex_enum_sensitive_to_dropped_constraint():
    # dropping the coverage constraint of one stream must lower the optimum
    # (the all-zero point becomes reachable for that stream's cost share)
    P = reference_problem()
    P_dropped = Problem(P.S, P.W[:3], P.E, P.stream_names[:3])
    assert lp_vertex_enum(P_dropped) < lp_vertex_enum(P)


def test_exhaustive_decode_reference():
    rep = exhaustive_decode_check(worked_reference_scheme())
    assert rep.agree
    assert rep.counterexample is None


def test_exhaustive_decode_trivial_scheme():
    P = Problem(1, (frozenset({1}),), full_clique(1))
    rep = exhaustive_decode_check(build_scheme(P))
    assert rep.agree


def test_exhaustive_decode_guard():
    sch = build_scheme(reference_problem())  # q = 128, K*R = 16
    with pytest.raises(GuardExceeded):
        exhaustive_decode_check(sch)


def _recorded_batches(monkeypatch, batch):
    """The data of every simulate_batch call the oracle makes, at DECODE_BATCH = batch."""
    seen, run = [], oracle.simulate_batch

    def record(s, data):
        seen.append(data.copy())
        return run(s, data)

    monkeypatch.setattr(oracle, "DECODE_BATCH", batch)
    monkeypatch.setattr(oracle, "simulate_batch", record)
    return seen


def _digit_order(q, K, R):
    """Every realization in index order, by dividing each index: idx has
    data[k, i] = base-q digit k*R + i of idx."""
    idx = np.arange(q ** (K * R))
    return (idx // q ** np.arange(K * R)[:, None] % q).reshape(K, R, -1)


def _corrupted_last_datum(sch):
    """The scheme with stream b's last datum (digit K*R - 1) through a
    corrupted precoder column."""
    f = sch.ext.big
    rows = [list(r) for r in sch.precoders[1].array.tolist()]
    rows[0][-1] = ref.add(f, rows[0][-1], 1)
    return dataclasses.replace(sch, precoders=(sch.precoders[0], Mat(f, rows)))


def _first_failure(bad, want):
    f, K = bad.ext.big, bad.problem.K

    def cols(i):
        return [Mat(f, want[k, :, i:i + 1]) for k in range(K)]

    first = next(i for i in range(want.shape[2])
                 if simulate(bad, cols(i)) != true_sum(bad, cols(i)))
    return first, [row[0] for row in simulate(bad, cols(first)).array.tolist()]


@pytest.mark.parametrize("batch, sizes", [
    (3, [3] * 85 + [1]),      # q = 4 exceeds the batch: runs of one realization
    (7, [7] * 36 + [4]),      # runs of 4 straddle batches
    (16, [16] * 16),          # the batch is exactly q^2
    (256, [256]),             # one batch holds every realization
], ids=["3", "7", "16", "256"])
def test_exhaustive_decode_enumerates_in_digit_order(monkeypatch, batch, sizes):
    # batches cross the base-q digit boundaries and may leave a partial last
    # batch (256 = 36 * 7 + 4); realization idx has data[k, i] = digit k*R + i
    P = Problem(2, (frozenset({1}), frozenset({2})), full_clique(2), ("a", "b"))
    sch = build_scheme(P, z=2)
    q, K, R = sch.ext.big.order, P.K, sch.R
    assert (q, K * R) == (4, 4)
    seen = _recorded_batches(monkeypatch, batch)
    assert exhaustive_decode_check(sch).agree
    assert [d.shape[2] for d in seen] == sizes
    want = _digit_order(q, K, R)
    assert np.array_equal(np.concatenate(seen, axis=2), want)
    # stream b's last datum (digit 3) goes through a corrupted precoder column:
    # the counterexample is the first failing realization, inside a later
    # batch unless one batch holds them all
    bad = _corrupted_last_datum(sch)
    first, decoded = _first_failure(bad, want)
    assert first == q ** 3  # 64 = 9 * 7 + 1
    rep = exhaustive_decode_check(bad)
    assert not rep.agree
    assert rep.counterexample == want[:, :, first].tolist()
    assert rep.main_value == decoded


def test_exhaustive_decode_enumerates_odd_characteristic(monkeypatch):
    # over F_9 (a field 3 file at z = 2) runs of 81 realizations
    # (9^2 <= 100 < 9^3) straddle batches of 100: 6561 = 65 * 100 + 61
    P = Problem(2, (frozenset({1}), frozenset({2})), full_clique(2), ("a", "b"), (3, 1))
    sch = build_scheme(P, z=2)
    q, K, R = sch.ext.big.order, P.K, sch.R
    assert (q, K * R) == (9, 4)
    seen = _recorded_batches(monkeypatch, 100)
    assert exhaustive_decode_check(sch).agree
    assert [d.shape[2] for d in seen] == [100] * 65 + [61]
    want = _digit_order(q, K, R)
    assert np.array_equal(np.concatenate(seen, axis=2), want)
    bad = _corrupted_last_datum(sch)
    first, decoded = _first_failure(bad, want)
    assert first == q ** 3  # 729 = 7 * 100 + 29: the eighth batch
    seen.clear()
    rep = exhaustive_decode_check(bad)
    assert not rep.agree
    assert len(seen) == 8
    assert rep.counterexample == want[:, :, first].tolist()
    assert rep.main_value == decoded


def test_exhaustive_decode_detects_corrupted_decoder():
    sch = worked_reference_scheme()
    f = sch.ext.big
    rows = [list(r) for r in sch.decoder.array.tolist()]
    rows[0][0] = ref.add(f, rows[0][0], 1)  # flip one decoder entry
    bad = dataclasses.replace(sch, decoder=Mat(f, rows))
    rep = exhaustive_decode_check(bad)
    assert not rep.agree
    assert rep.counterexample is not None


def test_exhaustive_decode_detects_corrupted_precoder():
    sch = worked_reference_scheme()
    f = sch.ext.big
    rows = [list(r) for r in sch.precoders[1].array.tolist()]
    rows[0][0] = ref.add(f, rows[0][0], 1)
    bad = dataclasses.replace(
        sch, precoders=(sch.precoders[0], Mat(f, rows)) + sch.precoders[2:])
    rep = exhaustive_decode_check(bad)
    assert not rep.agree


def test_named_instances_all_agree():
    assert all(r.agree for r in named_instances())


def test_identity_suite_small():
    reports = check_identities(seed=1, cases=10, max_s=4)
    assert all(r.agree for r in reports)


def test_random_small_problem_within_guard():
    rng = random.Random(0)
    for _ in range(50):
        P = random_small_problem(rng)
        assert P.gamma + P.K * P.T <= 14
        capacity_lp(P)  # coverage holds, LP solvable


# (S, W, E, t) of the first 20 draws of random_problem_with_triangle(Random(0), 5),
# servers sorted: the RNG calls and their order fix every seeded triangle report
TRIANGLE_DRAWS = [
    (4, ((3,), (1, 2, 3, 4), (2, 4), (1, 3)), ((1, 3, 4), (1, 3, 4)), 1),
    (4, ((2, 3, 4), (1, 2, 3, 4), (1, 2, 3, 4), (3, 4)), ((1, 2, 3),), 1),
    (4, ((1, 3), (1, 2), (1, 3, 4)), ((1, 2, 3), (1, 2, 3, 4), (1, 2, 3, 4)), 1),
    (3, ((1, 2, 3), (1,), (3,)), ((1, 2, 3), (2,)), 1),
    (4, ((2,),), ((1, 3, 4), (1,), (1, 2)), 1),
    (3, ((1,), (1, 2, 3), (1, 2, 3)), ((1, 2, 3), (1, 2, 3), (1,)), 1),
    (5, ((1, 2, 4), (1, 2, 3, 4, 5), (3, 5)), ((1, 2, 3, 4, 5), (1, 3, 5), (1, 2, 3, 4, 5)), 2),
    (5, ((1, 3, 4), (1, 2, 3, 4, 5), (5,)), ((2, 4, 5), (1, 2, 3, 4, 5)), 1),
    (4, ((1,), (1, 3), (2, 3), (1, 2, 3, 4)), ((2,), (1, 2, 4)), 2),
    (5, ((1, 3, 4, 5), (4,)), ((1, 3, 4, 5), (1, 2, 5)), 2),
    (3, ((1,), (1, 3), (1,)), ((1, 2, 3), (1, 2, 3), (1, 2, 3)), 2),
    (3, ((1, 2, 3), (2,), (2, 3), (1, 2, 3)), ((1, 2, 3),), 1),
    (4, ((1, 3), (1, 2, 3, 4), (3,), (1, 2, 3, 4)), ((2, 3, 4),), 1),
    (3, ((3,), (1, 2), (1, 2), (3,)), ((1, 2, 3), (1, 2, 3), (1, 3)), 2),
    (3, ((1, 2, 3),), ((1, 3), (1, 2, 3)), 2),
    (3, ((1, 2), (3,), (1, 2), (1, 2, 3)), ((1, 2), (1, 2, 3), (2, 3)), 2),
    (4, ((3, 4),), ((2, 3, 4),), 1),
    (3, ((1, 2, 3),), ((1, 2, 3),), 1),
    (4, ((2, 4), (1, 2, 3, 4)), ((3, 4), (2, 3, 4), (1, 3)), 2),
    (3, ((2, 3), (1, 2)), ((2, 3), (1, 2, 3)), 2),
]


def test_random_problem_with_triangle_draws_are_pinned():
    rng = random.Random(0)
    draws = []
    for _ in TRIANGLE_DRAWS:
        P, t = oracle.random_problem_with_triangle(rng, 5)
        draws.append((P.S, tuple(tuple(sorted(w)) for w in P.W),
                      tuple(tuple(sorted(e)) for e in P.E), t))
    assert draws == TRIANGLE_DRAWS


def test_tap_rendering():
    reports = [OracleReport("first", 1, 1, True),
               OracleReport("second", 2, 3, False, "w")]
    lines = tap_lines(reports)
    assert lines[0] == "ok 1 - first"
    assert lines[1].startswith("not ok 2 - second")
    assert "witness=w" in lines[1]
