import random
from fractions import Fraction

import numpy as np
import pytest

from sumbox.lp import LpInfeasible, LpUnbounded, solve_min


def F(a, b=1):
    return Fraction(a, b)


def test_simple_2d():
    # min x + y s.t. -x - y <= -1 (i.e. x + y >= 1)
    val, x = solve_min([F(1), F(1)], [[F(-1), F(-1)]], [F(-1)])
    assert val == 1
    assert sum(x) == 1


def test_bounded_above():
    # min -x - 2y s.t. x <= 3, y <= 2, x + y <= 4
    val, x = solve_min([F(-1), F(-2)],
                       [[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]],
                       [F(3), F(2), F(4)])
    assert val == -6
    assert x == [F(2), F(2)]


def test_fractional_optimum():
    # min x + y s.t. 2x + y >= 1, x + 3y >= 1
    val, _ = solve_min([F(1), F(1)],
                       [[F(-2), F(-1)], [F(-1), F(-3)]],
                       [F(-1), F(-1)])
    assert val == Fraction(3, 5)


def test_infeasible():
    # x >= 1 and x <= 0
    with pytest.raises(LpInfeasible):
        solve_min([F(1)], [[F(-1)], [F(1)]], [F(-1), F(0)])


def test_unbounded():
    with pytest.raises(LpUnbounded):
        solve_min([F(-1)], [[F(-1)]], [F(0)])


def test_degenerate_does_not_cycle():
    # classic degenerate instance: many redundant tight constraints at origin
    n = 6
    c = [F(-1)] * n
    A = []
    b = []
    for i in range(n):
        row = [F(0)] * n
        row[i] = F(1)
        A.append(row)
        b.append(F(1))
        A.append(list(row))
        b.append(F(1))
    A.append([F(1)] * n)
    b.append(F(3))
    val, _ = solve_min(c, A, b)
    assert val == -3


def test_exactness_with_awkward_rationals():
    # optimum forced to a vertex with large denominators
    val, x = solve_min([F(1), F(1)],
                       [[F(-7, 3), F(-2, 5)], [F(-1, 9), F(-11, 4)]],
                       [F(-1), F(-1)])
    # verify the returned point exactly satisfies both constraints with equality
    assert F(7, 3) * x[0] + F(2, 5) * x[1] == 1
    assert F(1, 9) * x[0] + F(11, 4) * x[1] == 1
    assert val == x[0] + x[1]


def test_random_lps_certified():
    # feasibility + complementary-slackness-free sanity: the reported optimum
    # is attained by the witness and no coordinate is negative
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(2, 4)
        m = rng.randint(2, 5)
        c = [F(rng.randint(1, 5)) for _ in range(n)]
        A = [[F(-rng.randint(0, 3)) for _ in range(n)] for _ in range(m)]
        b = [F(-rng.randint(1, 4)) for _ in range(m)]
        if any(all(v == 0 for v in row) for row in A):
            continue  # a zero row with negative rhs is trivially infeasible
        try:
            val, x = solve_min(c, A, b)
        except LpInfeasible:
            continue
        assert all(v >= 0 for v in x)
        assert sum(ci * xi for ci, xi in zip(c, x)) == val
        for row, bi in zip(A, b):
            assert sum(ai * xi for ai, xi in zip(row, x)) <= bi


@pytest.mark.parametrize("A, b, value", [
    ([[-(1 << 70)]], [-1], F(1, 1 << 70)),   # cleared entry beyond int64
    ([[F(-1, 1 << 70)]], [-1], F(1 << 70)),  # lcm clearing beyond int64
])
def test_entries_beyond_int64_start_on_big_ints(A, b, value):
    val, x = solve_min([1], A, b)
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
    lambda A, b: ([[F(v) for v in r] for r in A], [F(v) for v in b]),  # denominator 1
    lambda A, b: ([[F(v, 3) for v in r] for r in A], [F(v, 3) for v in b]),  # rows / 3
], ids=["ints", "int64", "fractions", "thirds"])
def test_input_forms_give_identical_results(form):
    val, x = solve_min(FORMS_C, *form(FORMS_A, FORMS_B))
    assert (val, x) == solve_min(FORMS_C, FORMS_A, FORMS_B)
    assert val == 2
    assert x == [F(1, 2), F(0), F(1, 2)]
