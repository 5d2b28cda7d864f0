import random
import re
from itertools import combinations

import numpy as np
import pytest
from box_reference import is_half_mds

from sumbox.field import field_construct
from sumbox.matrix import Mat
from sumbox.nsumbox import (BoxError, box_from_text, box_to_text,
                            build_half_mds_box, grs_dual_multipliers, grs_matrix,
                            is_valid_box)
from sumbox.vecops import field_ops

F2 = field_construct(2)
F3 = field_construct(3)
F8 = field_construct(2, 3)


def hstack(a, b):
    return Mat(a.field, np.hstack([a.array, b.array]))


def columns(m, idx):
    """The given 1-based columns of m, in the given order."""
    return Mat(m.field, m.array[:, [j - 1 for j in idx]])


def test_grs_row_of_multipliers():
    assert grs_matrix(F3, (0, 1, 2), (1, 1, 1), 1).array.tolist() == [[1, 1, 1]]


def test_grs_known_matrix():
    assert grs_matrix(F3, (0, 1, 2), (1, 1, 1), 2).array.tolist() == [[1, 1, 1], [0, 1, 2]]


def test_grs_is_mds():
    # every k-column subset of a GRS generator is independent
    f = F8
    alpha = tuple(range(6))
    u = (1, 3, 1, 7, 2, 5)
    for k in range(1, 6):
        m = grs_matrix(f, alpha, u, k)
        for cols in combinations(range(1, 7), k):
            assert columns(m, cols).rank() == k


@pytest.mark.parametrize("p, r", [(2, 3), (3, 2), (67, 1)])
def test_dual_orthogonality_all_k(p, r):
    rng = random.Random(2)
    f = field_construct(p, r)
    n = 5
    alpha = tuple(rng.sample(range(f.order), n))
    u = tuple(rng.choice(range(1, f.order)) for _ in range(n))
    v = grs_dual_multipliers(f, alpha, u)
    assert all(x != 0 for x in v)
    for k in range(1, n):
        a = grs_matrix(f, alpha, u, k)
        b = grs_matrix(f, alpha, v, n - k)
        assert not (a * b.transpose()).array.any()


def test_identity_plus_symmetric_is_valid():
    rng = random.Random(4)
    for f in (F3, F8):
        n = 3
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randrange(f.order)
        s = Mat(f, rows)
        assert s.array.any()
        m = hstack(Mat.identity(f, n), s)
        assert is_valid_box(m)


def test_identity_plus_nonsymmetric_is_invalid():
    s = Mat(F3, [[0, 1], [2, 0]])
    m = hstack(Mat.identity(F3, 2), s)
    assert not is_valid_box(m)


def test_half_mds_discrimination_example():
    m1 = Mat(F2, [[1, 1, 0, 0], [0, 0, 1, 1]])
    m2 = Mat(F2, [[1, 0, 1, 0], [0, 1, 0, 0]])
    ok1, w1 = is_half_mds(m1)
    ok2, w2 = is_half_mds(m2)
    assert ok1 and w1 is None
    assert not ok2 and w2 is not None
    # the pair (column 2, column 4) of m2 spans only one dimension
    assert columns(m2, [2, 4]).rank() == 1


def test_paired_identity_fails_half_mds():
    for n in (2, 3):
        m = hstack(Mat.identity(F3, n), Mat.identity(F3, n))
        ok, witness = is_half_mds(m)
        assert not ok
        assert witness == (1,)


def test_build_small_boxes_certified():
    for N in range(1, 7):
        for f in (field_construct(2, max(1, (N - 1).bit_length())), F8):
            if f.order < N:
                continue
            M = build_half_mds_box(N, f)
            assert (M.rows, M.cols, M.field) == (N, 2 * N, f)
            assert is_valid_box(M)
            ok, _ = is_half_mds(M)
            assert ok


def test_build_rejects_small_field():
    with pytest.raises(BoxError):
        build_half_mds_box(3, F2)


def test_box_eval_linearity_and_zero():
    rng = random.Random(8)
    M = build_half_mds_box(4, F8)
    add = field_ops(F8).add
    assert not (M * Mat(F8, np.zeros((8, 1), dtype=np.int64))).array.any()
    for _ in range(10):
        x1 = Mat.random(F8, 8, 1, rng)
        x2 = Mat.random(F8, 8, 1, rng)
        y = M * Mat(F8, add(x1.array, x2.array))
        assert y.array.tolist() == add((M * x1).array, (M * x2).array).tolist()


def test_box_serialization_roundtrip():
    M = build_half_mds_box(5, F8)
    text = box_to_text(M)
    assert text.startswith("box 5 8\n5 10 F8\n")
    assert box_from_text(text, F8) == M


@pytest.mark.parametrize("edit, error", [
    (lambda t: t.split("\n", 1)[1], "missing box header"),
    (lambda t: t.replace("box 5 8", "box 5"), "bad box header 'box 5'"),
    (lambda t: t.replace("5 10 F8", "5 10 F16"), "field mismatch: header F16, expected F8"),
    (lambda t: t.replace("box 5 8", "box 4 8"), "transfer matrix must be 4 x 8"),
    (lambda t: t.replace("box 5 8", "box 5 16"), "field order mismatch in box header"),
])
def test_box_from_text_refusals(edit, error):
    text = edit(box_to_text(build_half_mds_box(5, F8)))
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        box_from_text(text, F8)


def test_half_mds_size_guard():
    m = hstack(Mat.identity(F2, 13), Mat.identity(F2, 13))
    with pytest.raises(BoxError, match="exceeds the exhaustive bound 12"):
        is_half_mds(m)


@pytest.mark.parametrize("p, r", [(2, 11), (3, 4), (2, 17)])
def test_elements_lex_is_the_sorted_order(p, r):
    f = field_construct(p, r)
    want = sorted(range(f.order), key=f.coeffs)
    assert f.elements_lex(f.order) == want
    assert f.elements_lex(5) == want[:5]

