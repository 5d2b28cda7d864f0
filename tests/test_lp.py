import random
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import lp_reference
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sumbox import lp
from sumbox.capacity import capacity_fullent, capacity_lp, capacity_unent
from sumbox.lp import LpError, LpInfeasible, LpUnbounded, solve_min
from sumbox.model import parse_problem, symmetric_problem
from sumbox.oracle import random_small_problem
from sumbox.tables import table1_problems

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def F(a, b=1):
    return Fraction(a, b)


def as_fractions(result):
    """solve_min's integer form (value, (x, L), (y, d)) as the (value, x, y) of
    Fractions that lp_reference returns, once both denominators are checked
    least: the CLI prints reduced Fractions and the scheme pins use L."""
    value, (x, L), (y, d) = result
    assert L >= 1 and gcd(L, *x) == 1, (x, L)
    assert d >= 1 and gcd(d, *y) == 1, (y, d)
    return value, [F(v, L) for v in x], [F(v, d) for v in y]


def solve(c, A, b):
    return as_fractions(solve_min(c, A, b))


def test_simple_2d():
    # min x + y s.t. -x - y <= -1 (i.e. x + y >= 1)
    val, x, _ = solve([1, 1], [[-1, -1]], [-1])
    assert val == 1
    assert sum(x) == 1


def test_bounded_above():
    # min -x - 2y s.t. x <= 3, y <= 2, x + y <= 4
    val, x, _ = solve([-1, -2], [[1, 0], [0, 1], [1, 1]], [3, 2, 4])
    assert val == -6
    assert x == [F(2), F(2)]


def test_fractional_optimum():
    # min x + y s.t. 2x + y >= 1, x + 3y >= 1
    val, _, _ = solve([1, 1], [[-2, -1], [-1, -3]], [-1, -1])
    assert val == Fraction(3, 5)


def test_infeasible():
    # x >= 1 and x <= 0
    with pytest.raises(LpInfeasible):
        solve_min([1], [[-1], [1]], [-1, 0])


def test_unbounded():
    with pytest.raises(LpUnbounded):
        solve_min([-1], [[-1]], [0])


def degenerate_instance(n=6):
    """Classic degenerate instance: many redundant tight constraints at the origin."""
    c = [-1] * n
    A = []
    b = []
    for i in range(n):
        row = [0] * n
        row[i] = 1
        A.append(row)
        b.append(1)
        A.append(list(row))
        b.append(1)
    A.append([1] * n)
    b.append(3)
    return c, A, b


def test_degenerate_does_not_cycle():
    val, _, _ = solve(*degenerate_instance())
    assert val == -3


def test_exactness_with_awkward_rationals():
    # optimum forced to a vertex with large denominators: the rows
    # 7/3 x + 2/5 y >= 1 and 1/9 x + 11/4 y >= 1, each scaled by its lcm
    val, x, _ = solve([1, 1], [[-35, -6], [-4, -99]], [-15, -36])
    # verify the returned point exactly satisfies both constraints with equality
    assert F(7, 3) * x[0] + F(2, 5) * x[1] == 1
    assert F(1, 9) * x[0] + F(11, 4) * x[1] == 1
    assert val == x[0] + x[1]


def test_random_lps_certified():
    # the reported optimum is attained by the witness, which is feasible, and
    # by the dual point, which is dual feasible (y <= 0, A^T y <= c)
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(2, 4)
        m = rng.randint(2, 5)
        c = [rng.randint(1, 5) for _ in range(n)]
        A = [[-rng.randint(0, 3) for _ in range(n)] for _ in range(m)]
        b = [-rng.randint(1, 4) for _ in range(m)]
        if any(all(v == 0 for v in row) for row in A):
            continue  # a zero row with negative rhs is trivially infeasible
        try:
            val, x, y = solve(c, A, b)
        except LpInfeasible:
            continue
        assert all(v >= 0 for v in x)
        assert sum(ci * xi for ci, xi in zip(c, x)) == val
        for row, bi in zip(A, b):
            assert sum(ai * xi for ai, xi in zip(row, x)) <= bi
        assert all(v <= 0 for v in y)
        assert sum(bi * yi for bi, yi in zip(b, y)) == val
        for j, cj in enumerate(c):
            assert sum(row[j] * yi for row, yi in zip(A, y)) <= cj


@pytest.mark.parametrize("A, b, value", [
    ([[-(1 << 70)]], [-1], F(1, 1 << 70)),  # a coefficient beyond int64
    ([[-1]], [-(1 << 70)], F(1 << 70)),     # a right-hand side beyond int64
])
def test_entries_beyond_int64_start_on_big_ints(A, b, value):
    val, x, _ = solve([1], A, b)
    assert val == value
    assert x == [value]


# An LP with <= rows, >= rows (artificials) and a fractional optimum: the
# dual point (1, 0, 1, 0) on the >= rows also attains 2.
FORMS_C = [2, 3, 2]
FORMS_A = [[-2, -1, 0], [-1, -3, -1], [1, 1, 1], [0, -1, -2]]
FORMS_B = [-1, -1, 5, -1]


@pytest.mark.parametrize("form", [
    lambda A, b: (A, b),                                              # int lists
    lambda A, b: (np.array(A, dtype=np.int64), b),                    # int64 ndarray
    lambda A, b: (np.array(A, dtype=object), np.array(b, dtype=object)),  # object ints
], ids=["ints", "int64", "object"])
def test_input_forms_give_identical_results(form):
    result = solve_min(FORMS_C, *form(FORMS_A, FORMS_B))
    assert result == solve_min(FORMS_C, FORMS_A, FORMS_B)
    assert result[:2] == (2, ([1, 0, 1], 2))


@pytest.mark.parametrize("where", ["c", "A", "b"])
@pytest.mark.parametrize("bad", [F(1, 2), 1.0, "1"], ids=["fraction", "float", "str"])
def test_non_integer_entries_are_refused(where, bad):
    args = {"c": list(FORMS_C), "A": [list(r) for r in FORMS_A], "b": list(FORMS_B)}
    if where == "A":
        args["A"][0][0] = bad
    else:
        args[where][0] = bad
    with pytest.raises(LpError, match="LP entries must be integers"):
        solve_min(args["c"], args["A"], args["b"])


def test_dual_reads_the_same_on_negated_rows():
    # min 2x + 3y s.t. x + y >= 1 (negated, an artificial row), x <= 4: the
    # dual of the >= row is -2, with the sign of a <= row's dual
    val, x, y = solve([2, 3], [[-1, -1], [1, 0]], [-1, 4])
    assert (val, x, y) == (2, [1, 0], [-2, 0])
    # min -x s.t. x <= 3: a <= row with a binding constraint
    assert solve_min([-1], [[1]], [3]) == (-3, ([3], 1), ([-1], 1))


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


# Phase 1 ends with an artificial basic at value 0, and the entry it is
# driven out on is negative, so both the drive-out and its row negation run.
DRIVE_OUT = ([0, 2, 1, 1], [[1, 0, 1, -1], [2, 2, 0, -1], [0, 2, 1, -1], [0, 2, 1, 1]],
             [-1, -1, -1, 1])


def test_phase1_drives_a_degenerate_artificial_out_on_a_negated_row():
    c, A, b = DRIVE_OUT
    val, x, y = solve(c, A, b)
    assert (val, x, y) == (1, [0, 0, 0, 1], [0, -1, 0, 0])
    assert all(dot(row, x) <= bi for row, bi in zip(A, b)) and dot(c, x) == val
    assert all(v <= 0 for v in y)
    assert all(dot(col, y) <= cj for col, cj in zip(zip(*A), c))
    assert dot(b, y) == val


def recorded_lps(run) -> list:
    """(c, A, b) of every LP that run() solves through sumbox.lp.solve_min."""
    solve, lps = lp.solve_min, []

    def record(c, A, b):
        lps.append((c, A, b))
        return solve(c, A, b)

    lp.solve_min = record
    try:
        run()
    finally:
        lp.solve_min = solve
    return lps


# (alpha, beta) of the 27 S = 6 cells of the bench capacity ladder, which
# leaves out the nine slowest: the cells where a pivot updates up to about
# 100 rows and the gcd division of the updated rows runs ((6,2,2): 97 rows a
# pivot, a division on 50 of 217 pivots)
S6_LADDER = ((1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 1), (2, 2), (2, 5),
             (2, 6), (3, 1), (3, 6), (4, 1), (4, 5), (4, 6), (5, 1), (5, 2), (5, 3),
             (5, 4), (5, 5), (5, 6), (6, 1), (6, 2), (6, 3), (6, 4), (6, 5), (6, 6))


def per_server_lps():
    rng = random.Random(0)
    for _ in range(100):
        P = random_small_problem(rng)
        capacity_unent(P)
        capacity_fullent(P)


@pytest.mark.parametrize("run", [
    lambda: [capacity_lp(P) for _, P, _ in table1_problems()],
    lambda: [capacity_lp(symmetric_problem(S, a, b))
             for S in range(1, 6) for a in range(1, S + 1) for b in range(1, S + 1)],
    lambda: [capacity_lp(symmetric_problem(6, a, b)) for a, b in S6_LADDER],
    lambda: [capacity_lp(parse_problem(p.read_text())) for p in sorted(PROBLEMS.glob("*.prob"))],
    per_server_lps,
], ids=["table1", "symmetric-s5", "symmetric-s6-ladder", "problem-files", "per-server"])
def test_condensed_tableau_takes_the_full_tableau_path(run):
    # the same pivots give the same vertex: value, x and y are identical, and
    # the integer form's denominators are least
    lps = recorded_lps(run)
    assert lps
    for args in lps:
        assert solve(*args) == lp_reference.solve_min(*args)


def outcome(solve, c, A, b):
    try:
        return solve(c, A, b)
    except (LpInfeasible, LpUnbounded) as e:
        return type(e)


@st.composite
def degenerate_lps(draw):
    """Small LPs with many zero and negative right-hand sides and duplicated rows."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                                   st.integers(-2, 2)), min_size=1, max_size=5))
    rows += [rows[i] for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))]
    rows = draw(st.permutations(rows))
    c = draw(st.lists(st.integers(-2, 3), min_size=n, max_size=n))
    return c, [list(r) for r, _ in rows], [bi for _, bi in rows]


@settings(max_examples=300, deadline=None)
@given(case=degenerate_lps(), degenerate_run=st.sampled_from([lp._DEGENERATE_RUN, 0]))
@example(case=degenerate_instance(), degenerate_run=lp._DEGENERATE_RUN)
@example(case=degenerate_instance(), degenerate_run=0)
@example(case=DRIVE_OUT, degenerate_run=lp._DEGENERATE_RUN)
def test_degenerate_lps_take_the_full_tableau_path(case, degenerate_run):
    # degenerate_run 0 switches to Bland's rule after the first degenerate pivot
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "_DEGENERATE_RUN", degenerate_run)
        mp.setattr(lp_reference, "_DEGENERATE_RUN", degenerate_run)
        assert outcome(solve, *case) == outcome(lp_reference.solve_min, *case)


@pytest.fixture(scope="module")
def ladder_lps():
    """((c, A, b), exact result) of every LP that capacity_lp solves on table
    1, problems/*.prob and the symmetric cells with S <= 4."""
    problems = [P for _, P, _ in table1_problems()]
    problems += [parse_problem(p.read_text()) for p in sorted(PROBLEMS.glob("*.prob"))]
    problems += [symmetric_problem(S, a, b)
                 for S in range(1, 5) for a in range(1, S + 1) for b in range(1, S + 1)]
    lps = recorded_lps(lambda: [capacity_lp(P) for P in problems])
    return [(args, solve_min(*args)) for args in lps]


def tableau_dtypes(run) -> list[list[str]]:
    """The tableau's dtype after each pivot, one list per solve_min call in run()."""
    solves = []

    def on_return(frame, event, arg):
        if event == "return":
            solves[-1].append(frame.f_locals["T"].dtype.name)
        return on_return

    def on_call(frame, event, arg):
        if frame.f_code.co_filename != lp.__file__:
            return None
        if frame.f_code.co_name == "solve_min":
            solves.append([])
        return on_return if frame.f_code.co_name == "pivot" else None

    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(None)
    return solves


@pytest.mark.parametrize("safe, gcd_threshold", [
    (0, lp._GCD_THRESHOLD),   # every solve on big ints from the start
    (0, 0),                   # the same, with every updated row gcd-reduced
    (16, lp._GCD_THRESHOLD),  # int64 at first, big ints once an entry passes 16
    (lp._INT64_SAFE, 0),      # int64 throughout, every updated row gcd-reduced
], ids=["object", "object-eager-gcd", "promoted", "int64-eager-gcd"])
def test_ladder_results_do_not_depend_on_dtype_or_gcd(monkeypatch, ladder_lps, safe,
                                                        gcd_threshold):
    monkeypatch.setattr(lp, "_INT64_SAFE", safe)
    monkeypatch.setattr(lp, "_GCD_THRESHOLD", gcd_threshold)
    results = []
    dtypes = tableau_dtypes(lambda: results.extend(
        solve_min(*args) for args, _ in ladder_lps))
    assert results == [expected for _, expected in ladder_lps]
    assert all(dtypes)  # every solve pivots
    if safe == 0:
        assert all(set(d) == {"object"} for d in dtypes)
    elif safe == 16:  # 27 of the 45 solves promote mid-run
        assert any(d[0] == "int64" and d[-1] == "object" for d in dtypes)
    else:
        assert all(set(d) == {"int64"} for d in dtypes)
