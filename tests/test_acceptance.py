"""End-to-end acceptance suite: exact reproduction of every published value
and certificate this package is built around.  All comparisons are exact
rational equality — no tolerances anywhere.
"""

import dataclasses
import random
import time
from fractions import Fraction

import mat_reference as ref
import numpy as np
import pytest
from box_reference import is_half_mds

from sumbox.capacity import (beta_star, capacity_lp, capacity_symmetric,
                             _sym_forms)
from sumbox.field import field_construct
from sumbox.matrix import Mat
from sumbox.model import symmetric_problem
from sumbox.nsumbox import build_half_mds_box, is_valid_box
from sumbox.oracle import (DECODE_GUARD, check_identities, check_lp_oracle,
                           exhaustive_decode_check)
from sumbox.scheme import (build_scheme, worked_reference_scheme,
                           simulate_batch)
from sumbox.tables import TABLE2, check_table1
from sumbox.vecops import VecOps


def F(a, b=1):
    return Fraction(a, b)


def test_table1_reproduction():
    """All eleven entanglement maps of the running example, via the LP."""
    start = time.monotonic()
    rows = check_table1()
    assert len(rows) == 11
    assert [golden for _, _, golden in rows] == [
        F(4, 5), F(3, 4), F(3, 4), F(2, 3), F(2, 3), F(2, 3), F(2, 3),
        F(1, 2), F(1, 2), F(1, 2), F(2, 5)]
    for label, got, golden in rows:
        assert got == golden, label
    assert time.monotonic() - start < 5


def test_table2_reproduction_and_three_forms():
    start = time.monotonic()
    for alpha in range(1, 9):
        for beta in range(1, 9):
            assert capacity_symmetric(8, alpha, beta) == TABLE2[alpha - 1][beta - 1]
    # the three equivalent closed forms agree everywhere up to S = 10
    for S in range(1, 11):
        for alpha in range(1, S + 1):
            for beta in range(1, S + 1):
                a, b, c = _sym_forms(S, alpha, beta)
                assert a == b == c, (S, alpha, beta)
    assert time.monotonic() - start < 5


def test_lp_equals_closed_form_up_to_s6():
    start = time.monotonic()
    for S in range(1, 7):
        for alpha in range(1, S + 1):
            for beta in range(1, S + 1):
                lp = capacity_lp(symmetric_problem(S, alpha, beta)).capacity
                assert lp == capacity_symmetric(S, alpha, beta), (S, alpha, beta)
    assert time.monotonic() - start < 300


def test_reference_scheme_exhaustive_and_determinants():
    start = time.monotonic()
    sch = worked_reference_scheme()
    assert sch.rate == F(4, 5)
    rep = exhaustive_decode_check(sch)  # all 2^16 realizations over F_2
    assert rep.agree
    # determinant fingerprint of decoder x stream bundles: +1, -1, +1, -1,
    # which over F_3 reads (1, 2, 1, 2)
    f3 = field_construct(3)
    sch3 = worked_reference_scheme(f3)
    dets = [ref.det(f3, m.array.tolist()) for m in sch3.channel.through(sch3.decoder)]
    assert dets == [1, 2, 1, 2]
    assert time.monotonic() - start < 10


def _batch_check(sch, trials, seed):
    """trials seeded random realizations decoded in one numpy batch."""
    rng = np.random.default_rng(seed)
    q = sch.ext.big.order
    K, R = sch.problem.K, sch.R
    data = rng.integers(0, q, size=(K, R, trials), dtype=np.int64)
    got = simulate_batch(sch, data)
    ops = VecOps(sch.ext.big)
    want = data[0]
    for k in range(1, K):
        want = ops.add(want, data[k])
    return np.array_equal(got, want)


def test_capacity_achieving_construction():
    from sumbox.tables import table1_problems

    start = time.monotonic()
    instances = [(label, P) for label, P, _ in table1_problems()]
    for S in range(1, 6):
        for alpha in range(1, S + 1):
            for beta in range(1, S + 1):
                instances.append((f"symmetric S={S} a={alpha} b={beta}",
                                  symmetric_problem(S, alpha, beta)))
    trials = -(-10_000 // len(instances))  # >= 10^4 simulations in total
    for i, (label, P) in enumerate(instances):
        sch = build_scheme(P)
        assert sch.rate == capacity_lp(P).capacity, label
        assert sch.certificate_ok(), label
        assert _batch_check(sch, trials, seed=1000 + i), label
        q = sch.ext.big.order
        if q ** (P.K * sch.R) <= DECODE_GUARD:
            assert exhaustive_decode_check(sch).agree, label
    assert time.monotonic() - start < 120


def test_identity_suites():
    reports = check_identities(seed=20240, cases=100, max_s=5)
    failures = [r for r in reports if not r.agree]
    assert not failures, failures[:5]
    # the suite covers: substitution (100), pair-merge (100), disjoint data
    # S=2..8, maximal gain (200), separability, and the named instances
    kinds = {r.instance.split(" #")[0].split(":")[0] for r in reports}
    assert any("triangle" in k for k in kinds)
    assert any("merge" in k for k in kinds)
    assert any("disjoint" in k for k in kinds)
    assert any("gain" in k for k in kinds)
    assert any("separability" in k for k in kinds)
    assert any("strict gap" in k for k in kinds)
    assert sum("triangle" in r.instance for r in reports) == 100
    assert sum("merge" in r.instance for r in reports) == 100
    assert sum("maximal gain" in r.instance for r in reports) == 200
    assert sum("disjoint data" in r.instance for r in reports) == 7


def test_beta_star_scan():
    for S in range(1, 11):
        for alpha in range(1, S + 1):
            full = capacity_symmetric(S, alpha, S)
            scanned = next(b for b in range(1, S + 1)
                           if capacity_symmetric(S, alpha, b) == full)
            assert scanned == beta_star(S, alpha), (S, alpha)


def test_half_mds_construction_validity_suite():
    for N in range(1, 9):
        # smallest binary field admitting the construction, and one larger
        r_min = max(1, (N - 1).bit_length())
        for f in (field_construct(2, r_min), field_construct(2, r_min + 2)):
            M = build_half_mds_box(N, f)
            assert M.rows == N and M.cols == 2 * N
            assert is_valid_box(M), (N, f.order)
            ok, witness = is_half_mds(M)
            assert ok, (N, f.order, witness)
    # the published discrimination example
    f2 = field_construct(2)
    m1 = Mat(f2, [[1, 1, 0, 0], [0, 0, 1, 1]])
    m2 = Mat(f2, [[1, 0, 1, 0], [0, 1, 0, 0]])
    assert is_half_mds(m1) == (True, None)
    ok2, w2 = is_half_mds(m2)
    assert not ok2 and w2 is not None
    assert Mat(f2, m2.array[:, [1, 3]]).rank() == 1  # columns 2 and 4


def test_oracle_agreement_200_instances():
    reports = check_lp_oracle(seed=20240, cases=200)
    assert len(reports) == 200
    failures = [r for r in reports if not r.agree]
    assert not failures, failures[:5]


def test_oracle_mutation_sensitivity():
    # the decode oracle must notice seeded corruptions of every scheme block
    sch = worked_reference_scheme()
    f = sch.ext.big
    rng = random.Random(20240)
    caught = 0
    for trial in range(10):
        kind = trial % 2
        if kind == 0:
            rows = [list(r) for r in sch.decoder.array.tolist()]
            i, j = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
            rows[i][j] = ref.add(f, rows[i][j], 1)
            bad = dataclasses.replace(sch, decoder=Mat(f, rows))
        else:
            k = rng.randrange(len(sch.precoders))
            rows = [list(r) for r in sch.precoders[k].array.tolist()]
            i, j = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
            rows[i][j] = ref.add(f, rows[i][j], 1)
            pre = list(sch.precoders)
            pre[k] = Mat(f, rows)
            bad = dataclasses.replace(sch, precoders=tuple(pre))
        if not exhaustive_decode_check(bad).agree:
            caught += 1
    assert caught == 10
