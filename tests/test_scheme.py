import os
import random
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import mat_reference as ref
import numpy as np
import pytest
from box_reference import is_half_mds

from sumbox import scheme, vecops
from sumbox.capacity import capacity_lp, capacity_symmetric
from sumbox.field import field_construct
from sumbox.matrix import Mat, MatrixError
from sumbox.model import Problem, ProblemError, full_clique, parse_problem, symmetric_problem
from sumbox.nsumbox import is_valid_box
from sumbox.scheme import (Allocation, RetriesExhausted, SchemeError, assemble_channel,
                           build_scheme, find_encoders, worked_reference_scheme,
                           parse_scheme, rate_numerator, reference_problem,
                           render_scheme, simulate, simulate_batch, true_sum)

PROBLEMS = os.path.join(os.path.dirname(__file__), "..", "problems")


def random_data(sch, rng):
    q = sch.ext.big.order
    return [Mat(sch.ext.big, [[rng.randrange(q)] for _ in range(sch.R)])
            for _ in range(sch.problem.K)]


def mat_simulate(sch, cols):
    """One channel use in the per-element reference arithmetic: D * stack(M_t * x_t),
    with each box input x_t scattered from the precoded streams P_k * data_k."""
    f = sch.ext.big
    ch = sch.channel
    x = [0] * (2 * ch.n)  # the box inputs, stacked clique after clique
    for k, c in enumerate(cols):
        v = ref.mul(f, sch.precoders[k].array.tolist(), c.array.tolist(), 1)
        for i, row in enumerate(ch.rows[k].tolist()):
            x[row] = ref.add(f, x[row], v[i][0])
    ys, start = [], 0
    for _, M in ch.boxes:
        ys.extend(ref.mul(f, M.array.tolist(), [[v] for v in x[start:start + M.cols]], 1))
        start += M.cols
    decoded = ref.mul(f, sch.decoder.array.tolist(), ys, 1)
    return Mat(f, np.array(decoded, dtype=np.int64).reshape(-1, 1))


@pytest.mark.parametrize("source", sorted(f for f in os.listdir(PROBLEMS) if f.endswith(".prob"))
                         + [(5, 2, 3), (6, 2, 2)], ids=str)
def test_through_is_the_product_with_the_stack_at_rows(source):
    """through(D) is D . Mbar_k for every stream k, where Mbar_k is the columns
    rows[k] of the block-diagonal stack of the box matrices, so the certificate
    and simulate_batch read one wiring table."""
    if isinstance(source, tuple):
        P = symmetric_problem(*source)
    else:
        with open(os.path.join(PROBLEMS, source)) as fh:
            P = parse_problem(fh.read())
    sch = build_scheme(P)
    ch, f = sch.channel, sch.ext.big
    stack = ref.block_diag([(M.array.tolist(), M.cols) for _, M in ch.boxes])
    D = Mat.random(f, 3, ch.n, random.Random(11))
    for m, rows in zip(ch.through(D), ch.rows):
        rows = rows.tolist()
        assert len(set(rows)) == len(rows) and all(0 <= r < 2 * ch.n for r in rows)
        mbar = ref.select_columns(stack, [r + 1 for r in rows])
        assert m.array.tolist() == ref.mul(f, D.array.tolist(), mbar, len(rows))
    assert sch.certificate_ok()


def test_rank_deficient_stream_is_named_after_the_search_fails():
    # stream a reads box columns 1 and 3, which are equal: rank 1 < R = 2, so
    # no decoder exists and the search ends in the rank diagnostic
    P = Problem(2, (frozenset({1}), frozenset({2})), full_clique(2), ("a", "b"))
    a = Allocation((1, 1))
    M = Mat(field_construct(2), [[1, 0, 1, 1], [0, 1, 0, 1]])
    ch = assemble_channel(P, a, ((0, M),))
    with pytest.raises(SchemeError, match="^R = 2 exceeds rank 1 of stream a$") as exc:
        find_encoders(P, ch, rate_numerator(P, a), seed=0)
    assert not isinstance(exc.value, RetriesExhausted)


def test_rank_diagnostic_names_the_first_stream_below_r():
    # stream b reads all four box columns (rank 2), stream a only server 1's
    # equal columns 1 and 3 (rank 1): the streams' Mbar_k differ in width
    P = Problem(2, (frozenset({1, 2}), frozenset({1})), full_clique(2), ("b", "a"))
    a = Allocation((1, 1))
    M = Mat(field_construct(2), [[1, 0, 1, 1], [0, 1, 0, 1]])
    ch = assemble_channel(P, a, ((0, M),))
    with pytest.raises(SchemeError, match="^R = 2 exceeds rank 1 of stream a$"):
        find_encoders(P, ch, rate_numerator(P, a), seed=0)


def test_successful_encoder_search_computes_no_rank(monkeypatch):
    # the search eliminates only [(D . Mbar_k)^T | I] matrices, whose width is
    # R plus their height; the rank diagnostic would eliminate Mbar_k
    def no_rank(self):
        raise AssertionError("rank() called")
    monkeypatch.setattr(Mat, "rank", no_rank)
    shapes = []
    rref = vecops.VecOps.rref
    monkeypatch.setattr(vecops.VecOps, "rref", lambda self, a: shapes.append(a.shape) or rref(self, a))
    sch = build_scheme(reference_problem())
    assert sch.certificate_ok()
    assert shapes and all(cols == sch.R + rows for rows, cols in shapes)


def test_uniform_scheme_at_s7_reaches_capacity():
    # (7, 3, 3): 35 streams, 35 three-server cliques, one qudit per (clique,
    # server); every server feeds 15 streams, so the selections share columns
    P = symmetric_problem(7, 3, 3)
    sch = build_scheme(P, Allocation((1,) * P.gamma))
    assert P.gamma == 105
    assert sch.rate == capacity_symmetric(7, 3, 3) == Fraction(5, 7)
    assert sch.certificate_ok()
    f, B = sch.ext.big, 8
    data = np.random.default_rng(7).integers(0, f.order, size=(P.K, sch.R, B), dtype=np.int64)
    want = [[0] * B for _ in range(sch.R)]
    for block in data.tolist():
        want = [[ref.add(f, w, v) for w, v in zip(wrow, vrow)] for wrow, vrow in zip(want, block)]
    assert simulate_batch(sch, data).tolist() == want


def test_default_allocation_is_the_scaled_witness():
    P = reference_problem()
    res = capacity_lp(P)
    a = build_scheme(P).allocation
    # witness (1/4, 1/4, 1/4, 1/2) over its least denominator 4 -> (1, 1, 1, 2)
    assert (res.witness_num, res.witness_den) == ((1, 1, 1, 2), 4)
    assert a.counts == (1, 1, 1, 2)
    assert Fraction(rate_numerator(P, a), a.total) == res.capacity


def test_a_witness_off_capacity_fails_the_build(monkeypatch):
    # the witness doubled is in the region at twice the optimal cost: it has
    # the same counts (1, 1, 1, 2) over L = 2, against R = 4
    real = scheme.capacity_lp

    def doubled(P):
        res = real(P)
        return replace(res, witness_den=res.witness_den // 2)

    monkeypatch.setattr(scheme, "capacity_lp", doubled)
    with pytest.raises(AssertionError, match="scaled witness does not achieve capacity"):
        build_scheme(reference_problem())


def test_allocation_validation():
    P = reference_problem()
    bad = Allocation((1,))  # wrong arity for this problem
    with pytest.raises(ProblemError, match=r"cost tuple length 1 != gamma 4"):
        rate_numerator(P, bad)


def test_worked_reference_scheme_properties():
    sch = worked_reference_scheme()
    assert sch.rate == Fraction(4, 5)
    assert sch.certificate_ok()
    for _, M in sch.channel.boxes:
        assert is_valid_box(M)


def test_reference_scheme_simulation():
    sch = worked_reference_scheme()
    rng = random.Random(123)
    for _ in range(200):
        data = random_data(sch, rng)
        assert simulate(sch, data) == true_sum(sch, data)


def test_reference_determinants_over_f3():
    # the decoder times each stream's column bundle has determinant
    # alternating +1/-1 in stream order (1, 2, 1, 2 over F_3)
    f3 = field_construct(3)
    sch = worked_reference_scheme(f3)
    dets = [ref.det(f3, m.array.tolist()) for m in sch.channel.through(sch.decoder)]
    assert dets == [1, 2, 1, 2]


def test_build_scheme_reference_rate():
    P = reference_problem()
    sch = build_scheme(P)
    assert sch.rate == capacity_lp(P).capacity
    assert sch.certificate_ok()
    for _, M in sch.channel.boxes:
        assert is_valid_box(M)
        ok, _ = is_half_mds(M)
        assert ok


def test_build_scheme_simulates_correctly():
    sch = build_scheme(reference_problem())
    rng = random.Random(77)
    for _ in range(100):
        data = random_data(sch, rng)
        assert simulate(sch, data) == true_sum(sch, data)


def test_build_scheme_symmetric_instance():
    P = symmetric_problem(3, 2, 2)
    sch = build_scheme(P)
    assert sch.rate == capacity_lp(P).capacity
    rng = random.Random(5)
    for _ in range(50):
        data = random_data(sch, rng)
        assert simulate(sch, data) == true_sum(sch, data)


def test_build_scheme_single_stream():
    P = Problem(1, (frozenset({1}),), full_clique(1))
    sch = build_scheme(P)
    assert sch.rate == 1
    rng = random.Random(1)
    data = random_data(sch, rng)
    assert simulate(sch, data) == true_sum(sch, data)


def test_build_scheme_disjoint_data_rate_one():
    P = Problem(2, (frozenset({1}), frozenset({2})), full_clique(2), base_field=(3, 1))
    sch = build_scheme(P)
    assert sch.rate == 1
    assert len(sch.channel.boxes) == 1


def test_build_scheme_symmetric_4_1_2():
    P = symmetric_problem(4, 1, 2)
    sch = build_scheme(P)
    assert sch.rate == Fraction(1, 2)


def test_build_scheme_odd_characteristic():
    P = replace(reference_problem(), base_field=(3, 1))
    sch = build_scheme(P)
    assert sch.rate == Fraction(4, 5)
    rng = random.Random(9)
    for _ in range(50):
        data = random_data(sch, rng)
        assert simulate(sch, data) == true_sum(sch, data)


def test_simulate_batch_matches_simulate():
    for base_field in ((2, 1), (3, 1)):
        sch = build_scheme(replace(reference_problem(), base_field=base_field))
        f = sch.ext.big
        rng = random.Random(31)
        B = 40
        data = np.array([[[rng.randrange(f.order) for _ in range(B)]
                          for _ in range(sch.R)] for _ in range(sch.problem.K)],
                        dtype=np.int64)
        out = simulate_batch(sch, data)
        for b in range(B):
            cols = [Mat(f, [[int(data[k, i, b])] for i in range(sch.R)])
                    for k in range(sch.problem.K)]
            want = mat_simulate(sch, cols)
            assert [row[0] for row in want.array.tolist()] == out[:, b].tolist()
            assert simulate(sch, cols) == want


def _example(name):
    with open(os.path.join(PROBLEMS, name)) as fh:
        return parse_problem(fh.read())


@pytest.mark.parametrize("make, sizes, blocks", [
    (lambda: build_scheme(_example("example-beta3.prob")), [2, 4, 2], [(4, 1, 2), (2, 2, 4)]),
    (lambda: build_scheme(_example("example-unent.prob")), [1, 1, 1, 2], [(3, 1, 1), (2, 1, 2)]),
    (lambda: build_scheme(symmetric_problem(5, 2, 3)), [6, 4, 2, 4, 2, 2],
     [(6, 1, 2), (4, 2, 4), (2, 3, 6)]),
    (lambda: build_scheme(_example("example.prob"), Allocation((0, 0, 0, 1))), [1], [(1, 1, 1)]),
    (lambda: build_scheme(replace(reference_problem(), base_field=(3, 1))), [5],
     [(1, 2, 5), (1, 3, 5)]),
    (worked_reference_scheme, [5], [(1, 5, 10)]),
], ids=["beta3", "unent", "5-2-3", "R0", "F3", "reference"])
def test_simulate_batch_matches_mat_simulate(make, sizes, blocks):
    # unequal box sizes, no decoded sum (R = 0), odd characteristic and the
    # F_2 worked scheme, for B = 0, 1 and a batch that crosses the (shrunk)
    # block size of every product.  A half-MDS box is multiplied as its two
    # diagonal blocks (N = 1: one, its other block has no rows); the worked
    # scheme's box is not block-diagonal and stays whole.
    sch = make()
    f, K, R = sch.ext.big, sch.problem.K, sch.R
    assert [M.rows for _, M in sch.channel.boxes] == sizes
    assert [M.shape for M in sch.plan.blocks] == blocks
    rng = np.random.default_rng(41)
    for B in (0, 1, 13):
        data = rng.integers(0, f.order, size=(K, R, B))
        with mock.patch.object(vecops, "CHUNK_ELEMS", 12):
            out = simulate_batch(sch, data)
        assert out.shape == (R, B)
        for b in range(B):
            cols = [Mat(f, data[k, :, b:b + 1]) for k in range(K)]
            assert out[:, b].tolist() == [row[0] for row in mat_simulate(sch, cols).array.tolist()]


@pytest.mark.parametrize("half", ["top right", "bottom left"])
def test_simulate_batch_keeps_a_box_whole_when_its_off_diagonal_is_nonzero(half):
    # example-beta3's N = 4 box with one entry set outside its diagonal
    # blocks is multiplied whole, and that entry reaches the output
    sch = build_scheme(_example("example-beta3.prob"))
    f, K, R, ch = sch.ext.big, sch.problem.K, sch.R, sch.channel
    (t, M), = [box for box in ch.boxes if box[1].rows == 4]
    a = M.array.copy()
    if half == "top right":
        a[0, 4] = ref.add(f, int(a[0, 4]), 1)
    else:
        a[3, 0] = ref.add(f, int(a[3, 0]), 1)
    boxes = tuple((t, Mat(f, a)) if box[1] is M else box for box in ch.boxes)
    bad = replace(sch, channel=replace(ch, boxes=boxes))
    assert [S.shape for S in bad.plan.blocks] == [(4, 1, 2), (1, 4, 8)]
    data = np.random.default_rng(43).integers(0, f.order, size=(K, R, 13))
    with mock.patch.object(vecops, "CHUNK_ELEMS", 12):
        got = simulate_batch(bad, data)
    cols = [[Mat(f, data[k, :, b:b + 1]) for k in range(K)] for b in range(13)]
    assert got.T.tolist() == [[row[0] for row in mat_simulate(bad, c).array.tolist()] for c in cols]
    assert not np.array_equal(got, simulate_batch(sch, data))


@pytest.mark.parametrize("P, z", [(symmetric_problem(5, 2, 3), 10),
                                  (replace(symmetric_problem(4, 2, 2), base_field=(3, 1)), None)],
                         ids=["5-2-3-q1024", "4-2-2-F3"])
def test_simulate_batch_skips_zero_precoder_rows(P, z):
    # every precoder here has more rows than R, and some of them are zero:
    # the plan stacks only the others, R per stream, and simulate_batch must
    # still match the per-element reference on every column
    sch = build_scheme(P, z=z)
    f, K, R, B = sch.ext.big, P.K, sch.R, 6
    assert all(pk.rows > R for pk in sch.precoders)
    zero = [np.flatnonzero(~pk.array.any(axis=1)) for pk in sch.precoders]
    assert all(len(rows) for rows in zero)
    assert sch.plan.precoders.shape == (K, R, R)
    for pk, live in zip(sch.precoders, sch.plan.precoders):
        assert live.tolist() == [row for row in pk.array.tolist() if any(row)]
    data = np.random.default_rng(23).integers(0, f.order, size=(K, R, B), dtype=np.int64)
    cols = [[Mat(f, data[k, :, b:b + 1]) for k in range(K)] for b in range(B)]
    out = simulate_batch(sch, data)
    assert out.T.tolist() == [[row[0] for row in mat_simulate(sch, c).array.tolist()] for c in cols]
    # a zero row made nonzero in a copy of the scheme reaches that copy's
    # output: the copy derives its own plan, with R + 1 rows for stream 0
    # and a zero row padding every other stream
    rows = [list(r) for r in sch.precoders[0].array.tolist()]
    rows[zero[0][0]][0] = ref.add(f, rows[zero[0][0]][0], 1)
    bad = replace(sch, precoders=(Mat(f, rows),) + sch.precoders[1:])
    assert bad.plan is not sch.plan and bad.plan.precoders.shape == (K, R + 1, R)
    want = np.hstack([true_sum(bad, c).array for c in cols])
    assert np.array_equal(out, want)
    got = simulate_batch(bad, data)
    assert got.T.tolist() == [[row[0] for row in mat_simulate(bad, c).array.tolist()] for c in cols]
    assert not np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.int64, np.int16, np.uint8])
def test_simulate_batch_refuses_entries_outside_the_field(dtype):
    # example.prob decodes over F_128: -1 is no element (a table lookup would
    # read it as 127) and neither is 128
    sch = build_scheme(_example("example.prob"))
    q, K, R = sch.ext.big.order, sch.problem.K, sch.R
    assert q == 128
    data = np.random.default_rng(5).integers(0, q, size=(K, R, 9)).astype(dtype)
    want = simulate_batch(sch, data)
    assert np.array_equal(want, simulate_batch(sch, data.astype(np.int64)))
    bad_values = [128, 255] if dtype == np.uint8 else [-1, 128, -129]
    for v in bad_values:
        bad = data.copy()
        bad[2, 1, 7] = v
        with pytest.raises(SchemeError, match=rf"^data entry {v} at \(stream c, row 1, "
                                              rf"column 7\) is not an element of F128$"):
            simulate_batch(sch, bad)
    with pytest.raises(SchemeError, match="integer array"):
        simulate_batch(sch, data.astype(float))


def test_simulate_rejects_bad_shapes():
    sch = worked_reference_scheme()
    f = sch.ext.big
    good = random_data(sch, random.Random(2))
    bad_inputs = (good[:-1], [Mat(f, [[1], [0], [1]])] + good[1:],
                  [Mat(field_construct(3), [[1], [0], [1], [1]])] + good[1:],
                  Mat(f, np.zeros((sch.R, sch.problem.K + 1), dtype=np.int64)),
                  # the same columns as one R x K matrix: simulate takes columns only
                  Mat(f, [[c.array.tolist()[i][0] for c in good] for i in range(sch.R)]),
                  # K columns that are not Mats
                  [[1]] * sch.problem.K, [None] * sch.problem.K)
    for bad in bad_inputs:
        for fn in (simulate, true_sum):
            with pytest.raises(SchemeError):
                fn(sch, bad)
    assert simulate(sch, good) == mat_simulate(sch, good)


@pytest.mark.parametrize("field_line", ["field 2 2", "field 3 2"])
def test_base_d_packing_carries_stream_sums(field_line):
    # z F_d symbols a_j pack into the F_q int sum(a_j * d^j); the decoded F_q
    # sum unpacks base d into the z per-symbol F_d sums of the streams
    with open(os.path.join(PROBLEMS, "example.prob")) as fh:
        text = fh.read().replace("field 2\n", field_line + "\n")
    P = parse_problem(text)
    sch = build_scheme(P)
    base, z = sch.ext.base, sch.ext.z
    d = base.order
    assert base.r == 2 and z > 1 and d ** z == sch.ext.big.order
    K, R, B = P.K, sch.R, 100
    rng = random.Random(17)
    streams = [[[[rng.randrange(d) for _ in range(z)] for _ in range(B)]
                for _ in range(R)] for _ in range(K)]
    packed = np.array([[[sum(a * d ** j for j, a in enumerate(sym)) for sym in row]
                        for row in stream] for stream in streams], dtype=np.int64)
    out = simulate_batch(sch, packed)
    for i in range(R):
        for b in range(B):
            x = int(out[i, b])
            got = []
            for _ in range(z):
                x, digit = divmod(x, d)
                got.append(digit)
            want = []
            for j in range(z):
                acc = 0
                for k in range(K):
                    acc = ref.add(base, acc, streams[k][i][b][j])
                want.append(acc)
            assert got == want


def test_two_sum_reduction_fixture():
    # pairwise entanglement map from the tabled example: four 2-sum boxes,
    # 6 decoded sums per 8 downloaded qudits, rate 3/4
    P = replace(reference_problem(),
                E=(frozenset({1, 2}), frozenset({1, 4}), frozenset({2, 4}), frozenset({3, 4})))
    assert capacity_lp(P).capacity == Fraction(3, 4)
    sch = build_scheme(P)
    assert sch.allocation.total == 8
    assert sch.R == 6
    assert all(M.rows == 2 for _, M in sch.channel.boxes)
    assert sch.rate == Fraction(3, 4)
    rng = random.Random(64)
    for _ in range(50):
        data = random_data(sch, rng)
        assert simulate(sch, data) == true_sum(sch, data)


def sym_4_2_2():
    with open(os.path.join(PROBLEMS, "sym-4-2-2.prob")) as fh:
        return build_scheme(parse_problem(fh.read()))


@pytest.mark.parametrize("make, sizes", [
    (sym_4_2_2, [2, 2, 2, 2, 2, 2]),
    (lambda: build_scheme(symmetric_problem(5, 2, 3)), [6, 4, 2, 4, 2, 2]),
], ids=["sym-4-2-2", "sym-5-2-3"])
def test_cliques_of_one_size_share_one_box(make, sizes):
    """A build makes one box per distinct clique size, and a parse reads one
    per distinct box text: cliques of one size hold the same Mat."""
    sch = make()
    for s in (sch, parse_scheme(render_scheme(sch))):
        boxes = [M for _, M in s.channel.boxes]
        assert [M.rows for M in boxes] == sizes
        assert [boxes[sizes.index(n)] is M for n, M in zip(sizes, boxes)] == [True] * len(sizes)


@pytest.mark.parametrize("cliques, named", [((3,), 3), ((1, 2, 3, 4, 5, 6), 1), ((5, 6), 5)])
def test_an_invalid_box_is_named_by_its_first_clique(cliques, named):
    # sym-4-2-2's six boxes are one N = 2 box; zeroing the top-left entry of
    # some of them leaves rank 2 but breaks M J M^T = 0
    lines = render_scheme(sym_4_2_2()).splitlines()
    for t in cliques:
        row = lines.index(f"clique {t}") + 3  # past the box and matrix headers
        assert lines[row].startswith("[1,0,0,0,0,0,0,0] ")
        lines[row] = "[0" + lines[row][2:]
    with pytest.raises(SchemeError, match=f"^serialized box for clique {named} is not a valid box$"):
        parse_scheme("\n".join(lines) + "\n")


def test_certificate_checks_every_member_of_a_stacked_group():
    # sym-4-2-2's six precoders are all 12 x 10, so one stacked product checks them
    sch = sym_4_2_2()
    assert len({p.array.shape for p in sch.precoders}) == 1 and sch.certificate_ok()
    f = sch.ext.big
    for k in range(len(sch.precoders)):
        a = sch.precoders[k].array.copy()
        a[3, 2] = ref.add(f, int(a[3, 2]), 1)
        bad = sch.precoders[:k] + (Mat(f, a),) + sch.precoders[k + 1:]
        assert not replace(sch, precoders=bad).certificate_ok()
    short = (Mat._of(f, sch.precoders[0].array[1:]),) + sch.precoders[1:]
    with pytest.raises(MatrixError, match="^dimension mismatch in mul: 10x12 by 11x10$"):
        replace(sch, precoders=short).certificate_ok()


def test_scheme_serialization_roundtrip():
    for sch in (worked_reference_scheme(), build_scheme(reference_problem())):
        text = render_scheme(sch)
        again = parse_scheme(text)
        assert again.problem == sch.problem
        assert again.R == sch.R
        assert again.decoder == sch.decoder
        assert again.precoders == sch.precoders
        assert again.certificate_ok()
        assert render_scheme(again) == text


def test_seed_determinism():
    a = build_scheme(reference_problem(), seed=4)
    b = build_scheme(reference_problem(), seed=4)
    assert render_scheme(a) == render_scheme(b)
