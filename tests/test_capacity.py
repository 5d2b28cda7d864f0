import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from sumbox import capacity
from sumbox.capacity import (beta_star, capacity_fullent, capacity_lp,
                             capacity_symmetric, capacity_unent, feasible,
                             maximal_dsc_gain)
from sumbox.model import (Problem, ProblemError, beta_cliques, full_clique, parse_problem,
                          singleton_cliques, symmetric_problem)
from sumbox.oracle import random_replication
from sumbox.scheme import reference_problem
from sumbox.tables import table1_problems

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def F(a, b=1):
    return Fraction(a, b)


def test_reference_fullent():
    res = capacity_fullent(reference_problem())
    assert res.capacity == F(4, 5)
    assert res.optimal_cost == F(5, 4)
    assert res.witness == (F(1, 4), F(1, 4), F(1, 4), F(1, 2))


def test_reference_lp_matches_fullent():
    P = reference_problem()
    assert capacity_lp(P).capacity == F(4, 5)


def test_reference_unent():
    assert capacity_unent(reference_problem()).capacity == F(2, 5)


def test_reference_two_cliques():
    P = replace(reference_problem(), E=(frozenset({1, 2}), frozenset({2, 3, 4})))
    assert capacity_lp(P).capacity == F(2, 3)


def test_witness_is_feasible():
    for cliques in (full_clique(4), beta_cliques(4, 2),
                    (frozenset({1}), frozenset({2, 3, 4}))):
        P = replace(reference_problem(), E=cliques)
        res = capacity_lp(P)
        assert feasible(P, res.witness)
        assert res.capacity * res.optimal_cost == 1


def test_feasible_rejects_negative_and_short():
    P = reference_problem()
    assert not feasible(P, (F(-1), F(1), F(1), F(1)))
    # the optimal vertex is feasible; a hair below it, on a huge denominator, is not
    assert feasible(P, (F(1, 4), F(1, 4), F(1, 4), F(1, 2)))
    assert feasible(P, ("1/4", 0.25, F(1, 4), F(1, 2)))
    assert not feasible(P, (F(1, 4), F(1, 4), F(1, 4), F(1, 2) - F(1, 10**30)))
    with pytest.raises(ValueError):
        feasible(P, (F(1),))


# Each mutation takes the dual point y / d as solve_min returns it, as
# integers (y, d), and returns the changed pair.

def _negate(dual, b):
    y, d = dual
    i = next(i for i, v in enumerate(y) if v)
    return y[:i] + [-y[i]] + y[i + 1:], d


def _scale(dual, b):
    # a pair row where the LP has one: its entry only enters A^T y, on
    # columns with nonpositive A; every per-server row has b_i = -1 and
    # A <= 0, so there any nonzero entry does
    y, d = dual
    nonzero = [i for i, v in enumerate(y) if v]
    i = next((i for i in nonzero if b[i] == 0), nonzero[0])
    return y[:i] + [1000 * y[i]] + y[i + 1:], d


def _halve_on_stream_row(dual, b):
    # a stream row: A^T y stays <= c, but b.y moves off the optimum; the
    # entry is halved exactly by doubling d and every other numerator
    y, d = dual
    i = next(i for i, v in enumerate(y) if v and b[i] != 0)
    return [v if k == i else 2 * v for k, v in enumerate(y)], 2 * d


def _double_denominator(dual, b):
    # every entry halved: A^T y stays <= c (c >= 0), but b.y halves
    y, d = dual
    return y, 2 * d


def _negate_denominator(dual, b):
    # every entry's sign flipped by the denominator alone
    y, d = dual
    return y, -d


def _extra_entry(dual, b):
    # an entry for a row the LP does not have
    y, d = dual
    return y + [-1], d


def _dropped_entry(dual, b):
    y, d = dual
    return y[:-1], d


@pytest.mark.parametrize("solve", [capacity_lp, capacity_unent, capacity_fullent],
                         ids=["lp", "unent", "fullent"])
@pytest.mark.parametrize("mutate, error", [
    (_negate, "has a positive entry"),
    (_scale, r"violates A\^T y <= c"),
    (_halve_on_stream_row, "does not attain the optimal value"),
    (_double_denominator, "does not attain the optimal value"),
    (_negate_denominator, "has a nonpositive denominator"),
    (_extra_entry, "does not have one entry per LP row"),
    (_dropped_entry, "does not have one entry per LP row"),
], ids=["positive", "scaled", "halved", "doubled-denominator", "negated-denominator",
        "extra-entry", "dropped-entry"])
def test_mutated_dual_is_rejected(monkeypatch, mutate, error, solve):
    solve_min = capacity.lp.solve_min

    def mutated(c, A, b):
        value, x, y = solve_min(c, A, b)
        return value, x, mutate(y, b)

    P = reference_problem()
    monkeypatch.setattr(capacity.lp, "solve_min", mutated)
    with pytest.raises(AssertionError, match="dual certificate " + error):
        solve(P)


def test_lowered_witness_at_a_binding_stream_is_rejected(monkeypatch):
    # the witness (1, 1, 1, 2) / 4 meets every stream with equality, so one
    # numerator less leaves a stream short of L
    solve_min = capacity.lp.solve_min

    def lowered(c, A, b):
        value, (x, L), y = solve_min(c, A, b)
        return value, ([x[0] - 1] + x[1:], L), y

    P = reference_problem()
    assert min(capacity.region_values(P.W, P.E, [0, 1, 1, 2])) < 4
    monkeypatch.setattr(capacity.lp, "solve_min", lowered)
    with pytest.raises(AssertionError, match="LP witness fails region membership"):
        capacity_lp(P)


@pytest.mark.parametrize("solve", [capacity_unent, capacity_fullent],
                         ids=["unent", "fullent"])
def test_per_server_witness_out_of_region_is_rejected(monkeypatch, solve):
    # an optimal witness w / L meets some stream with equality (a point with
    # every stream above L would cost less scaled down), so w / 2L leaves it
    # at L / 2L: outside the region
    P = reference_problem()
    res = solve(P)
    E = full_clique(P.S) if solve is capacity_fullent else singleton_cliques(P.S)
    assert min(capacity.region_values(P.W, E, res.witness_num)) == res.witness_den
    solve_min = capacity.lp.solve_min

    def halved(c, A, b):
        value, (x, L), y = solve_min(c, A, b)
        return value, (x, 2 * L), y

    monkeypatch.setattr(capacity.lp, "solve_min", halved)
    with pytest.raises(AssertionError, match="LP witness fails region membership"):
        solve(P)


def test_per_server_lps_build_no_second_problem(monkeypatch):
    # the per-server certificate checks against P's streams and the clique
    # tuple; it constructs (and re-validates) no lifted Problem
    P = reference_problem()

    def refused(self):
        raise AssertionError("a Problem was constructed")

    monkeypatch.setattr(Problem, "__post_init__", refused)
    assert capacity_unent(P).capacity == F(2, 5)
    assert capacity_fullent(P).capacity == F(4, 5)


def test_nonpositive_witness_denominator_is_rejected(monkeypatch):
    solve_min = capacity.lp.solve_min

    def negated(c, A, b):
        value, (x, L), y = solve_min(c, A, b)
        return value, (x, -L), y

    monkeypatch.setattr(capacity.lp, "solve_min", negated)
    with pytest.raises(AssertionError, match="LP witness has a nonpositive denominator"):
        capacity_lp(reference_problem())


def test_capacity_lp_builds_no_fraction_per_entry(monkeypatch):
    # the certificate stays in integers from solve_min to the checker: one
    # capacity_lp builds as few Fractions at (6,2,2) (gamma 30) as at
    # (4,2,1) (gamma 4)
    built = []

    def counted(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(capacity, "Fraction", counted)
    monkeypatch.setattr(capacity.lp, "Fraction", counted)
    counts = []
    for cell in ((4, 2, 1), (6, 2, 2)):
        built.clear()
        capacity_lp(symmetric_problem(*cell))
        counts.append(len(built))
    assert counts[0] == counts[1] <= 2


def test_dual_check_is_exact_past_int64(monkeypatch):
    # the optimal dual y / d scaled to (2^62 y) / (2^62 d) is the same point,
    # and A^T y, on entries past 2^62, must come out exact: one numerator
    # moved one unit on a column where A^T y = c pushes that column past c
    P = reference_problem()
    res = capacity_lp(P)
    scale = 1 << 62
    solve_min = capacity.lp.solve_min

    def scaled(move):
        def solve(c, A, b):
            value, x, (y, d) = solve_min(c, A, b)
            y = [scale * v for v in y]
            if move:
                aty = [sum(int(A[i, j]) * v for i, v in enumerate(y)) for j in range(len(c))]
                j = next(j for j, v in enumerate(aty) if v == c[j] * d * scale)
                i = next(i for i in range(len(b)) if A[i, j] < 0)
                y[i] -= 1
            return value, x, (y, scale * d)
        return solve

    monkeypatch.setattr(capacity.lp, "solve_min", scaled(False))
    big = capacity_lp(P)
    assert min(-v for v in big.dual_num if v) >= scale
    assert big.dual_num == tuple(scale * v for v in res.dual_num)
    assert big.dual_den == scale * res.dual_den
    assert big.optimal_cost == res.optimal_cost
    monkeypatch.setattr(capacity.lp, "solve_min", scaled(True))
    with pytest.raises(AssertionError, match=r"dual certificate violates A\^T y <= c"):
        capacity_lp(P)


def _random_per_server_lps():
    rng = random.Random(0)
    for _ in range(200):
        S = rng.randint(1, 8)
        P = Problem(S, random_replication(rng, S, rng.randint(1, 5)), full_clique(S))
        capacity_unent(P)
        capacity_fullent(P)


@pytest.mark.parametrize("run", [
    lambda: [capacity_lp(P) for _, P, _ in table1_problems()],
    lambda: [capacity_lp(parse_problem(p.read_text())) for p in sorted(PROBLEMS.glob("*.prob"))],
    lambda: [capacity_lp(symmetric_problem(S, a, b))
             for S in range(1, 7) for a in range(1, S + 1) for b in range(1, S + 1)],
    _random_per_server_lps,
], ids=["table1", "problem-files", "symmetric-s6", "per-server"])
def test_lp_nonzeros_are_distinct_and_nonzero(monkeypatch, run):
    # the scatter into solve_min's A and the checker's A^T y read the same
    # matrix only when no (row, column) repeats and no listed value is 0;
    # _solve is replaced by a recorder, so no LP is solved
    lps = []
    monkeypatch.setattr(capacity, "_solve", lambda W, E, c, rows, b: lps.append((rows, b, c)))
    run()
    assert lps
    for (ri, ci, vi), b, c in lps:
        assert len(ri) == len(ci) == len(vi)
        assert len(set(zip(ri, ci))) == len(vi)
        assert 0 not in vi
        assert all(0 <= i < len(b) for i in ri) and all(0 <= j < len(c) for j in ci)


def test_every_result_carries_its_dual():
    # the rows with a nonzero right-hand side all have b_i = -1: the last K
    # (stream) rows of capacity_lp's LP and every row of the per-server LPs
    P = reference_problem()
    pairs = sum(1 for e in P.E for w in P.W if e & w)
    for res, rows, b_rows in ((capacity_lp(P), 2 * pairs + P.K, P.K),
                              (capacity_fullent(P), 1 + P.K, 1 + P.K),
                              (capacity_unent(P), P.K, P.K)):
        assert len(res.dual_num) == rows
        assert all(v <= 0 for v in res.dual_num)
        assert F(-sum(res.dual_num[-b_rows:]), res.dual_den) == res.optimal_cost


def test_capacity_single_stream_single_server():
    P = Problem(1, (frozenset({1}),), full_clique(1))
    res = capacity_lp(P)
    assert res.capacity == 1
    assert res.optimal_cost == 1


def test_uncovered_stream_raises():
    P = Problem(2, (frozenset({2}),), (frozenset({1}),))
    with pytest.raises(ProblemError):
        capacity_lp(P)


def test_dsc_gain_reference():
    P = reference_problem()
    assert capacity_lp(P).capacity / capacity_unent(P).capacity == F(4, 5) / F(2, 5)
    assert maximal_dsc_gain(P) == 2


def test_maximal_gain_when_unent_is_already_one():
    # single stream on a single server: unentangled capacity is already 1,
    # so entanglement buys nothing: gain = min(2, 1/1) = 1
    P = Problem(1, (frozenset({1}),), full_clique(1))
    assert maximal_dsc_gain(P) == 1


def test_maximal_gain_two_for_disjoint_streams():
    P = Problem(2, (frozenset({1}), frozenset({2})), full_clique(2))
    assert maximal_dsc_gain(P) == 2


def test_symmetric_closed_form_known_cells():
    assert capacity_symmetric(8, 2, 2) == F(13, 28)
    assert capacity_symmetric(8, 4, 4) == F(61, 70)
    assert capacity_symmetric(8, 1, 1) == F(1, 8)
    assert capacity_symmetric(8, 5, 4) == F(27, 28)


def test_symmetric_matches_lp_small():
    for S in range(1, 5):
        for alpha in range(1, S + 1):
            for beta in range(1, S + 1):
                lp = capacity_lp(symmetric_problem(S, alpha, beta)).capacity
                assert lp == capacity_symmetric(S, alpha, beta), (S, alpha, beta)


def test_beta_star_formula():
    assert beta_star(5, 1) == 2
    assert beta_star(5, 2) == 4
    assert beta_star(5, 3) == 4
    assert beta_star(5, 4) == 2
    assert beta_star(5, 5) == 1


def test_beta_star_definitional_small():
    for S in range(1, 7):
        for alpha in range(1, S + 1):
            full = capacity_symmetric(S, alpha, S)
            scanned = next(b for b in range(1, S + 1)
                           if capacity_symmetric(S, alpha, b) == full)
            assert scanned == beta_star(S, alpha), (S, alpha)


def test_monotone_in_beta():
    for alpha in range(1, 7):
        vals = [capacity_symmetric(6, alpha, b) for b in range(1, 7)]
        assert vals == sorted(vals)
