import random
import re

import mat_reference as ref
import pytest
from hypothesis import given, settings, strategies as st

from sumbox.field import FieldError, field_construct
import numpy as np

from sumbox.matrix import Mat, MatrixError, block_diag
from sumbox.vecops import field_ops

F2 = field_construct(2)
F8 = field_construct(2, 3)
F9 = field_construct(3, 2)


def zeros(f, rows, cols):
    return Mat(f, np.zeros((rows, cols), dtype=np.int64))


def test_identity_and_zeros():
    I = Mat.identity(F8, 4)
    Z = zeros(F8, 4, 4)
    assert I * I == I
    assert I * Z == Z
    assert not Z.array.any()


def test_mul_known_values():
    a = Mat(F2, [[1, 0], [1, 1]])
    b = Mat(F2, [[1, 1], [0, 1]])
    assert (a * b).array.tolist() == [[1, 1], [1, 0]]


def test_square_right_inverse_is_two_sided():
    rng = random.Random(11)
    for f in (F2, F8, F9):
        for _ in range(20):
            m = Mat.random(f, 4, 4, rng)
            if m.rank() == 4:
                assert m * m.right_inverse() == Mat.identity(f, 4)
                assert m.right_inverse() * m == Mat.identity(f, 4)
            else:
                with pytest.raises(MatrixError):
                    m.right_inverse()


def test_right_inverse():
    rng = random.Random(3)
    # a random 2x4 over F_8 has full row rank with high probability
    for _ in range(10):
        m = Mat.random(F8, 2, 4, rng)
        if m.rank() < 2:
            continue
        assert m * m.right_inverse() == Mat.identity(F8, 2)


def test_random_draws_row_major():
    rng, again = random.Random(9), random.Random(9)
    m = Mat.random(F9, 3, 4, rng)
    assert m.array.tolist() == [[again.randrange(9) for _ in range(4)] for _ in range(3)]
    assert Mat.random(F9, 0, 4, rng).array.shape == (0, 4)
    assert Mat.random(F9, 3, 0, rng).array.shape == (3, 0)


def test_transpose_involution():
    m = Mat(F9, [[1, 2, 3], [4, 5, 6]])
    assert m.transpose().transpose() == m


def test_stacking():
    a = Mat(F2, [[1, 0]])
    b = Mat(F2, [[0, 1]])
    d = block_diag(F2, [a, b])
    assert d.array.tolist() == [[1, 0, 0, 0], [0, 0, 0, 1]]


def test_zero_dimension_product():
    a = zeros(F2, 2, 0)
    b = zeros(F2, 0, 3)
    assert (a * b) == zeros(F2, 2, 3)


def test_serialization_roundtrip():
    rng = random.Random(17)
    for f in (F2, F8, F9):
        m = Mat.random(f, 3, 5, rng)
        again = Mat.from_text(m.to_text(), f)
        assert again == m
        assert again.field.order == f.order


def test_field_mismatch():
    a = Mat.identity(F2, 2)
    b = Mat.identity(F8, 2)
    with pytest.raises(MatrixError):
        a * b


@pytest.mark.parametrize("rows, err", [
    ([[2**70]], FieldError), ([[1.0]], FieldError), ([[-1]], FieldError),
    ([[1, 0], [1]], MatrixError),
])
def test_constructor_rejects(rows, err):
    with pytest.raises(err):
        Mat(F2, rows)


def test_entries_are_read_only():
    m = Mat(F8, [[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        m.array[0, 0] = 5
    m.data[0][0] = 5  # a fresh list: the matrix keeps its entries
    assert m.data == [[1, 2], [3, 4]]


@pytest.mark.parametrize("body, where", [
    ("[1,0] [1]", "'[1]' in row 2"), ("[1,0] [1,0,1]", "'[1,0,1]' in row 2"),
    ("[1,0] [-1,0]", "'[-1,0]' in row 2"), ("[1,0] [1,x]", "'[1,x]' in row 2"),
    ("[1,0] [1,2]", "'[1,2]': a coefficient is not below 2"),
])
def test_from_text_names_the_bad_entry(body, where):
    with pytest.raises(MatrixError, match=re.escape(where)):
        Mat.from_text(f"2 2 F4\n[0,0] [1,1]\n{body}", field_construct(2, 2))


@pytest.mark.parametrize("text", [
    "1 2 F4\n[0,0] [1,1]\n[1,0] [0,1]",  # a row past the header's count
    "2 2 F4\n[0,0] [1,1]",               # a row short of it
    "2 0 F4\n[1,0]",                     # any row of a 0-column matrix
])
def test_from_text_refuses_a_row_count_other_than_the_header(text):
    with pytest.raises(MatrixError, match="^row count mismatch$"):
        Mat.from_text(text, field_construct(2, 2))


# F_2, F_3, F_4, F_9, F_2^11 and F_2^17
FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2), (2, 11), (2, 17)]


def same_or_both_raise(got, want, shape):
    try:
        w = want()
    except MatrixError:
        with pytest.raises(MatrixError):
            got()
        return
    g = got()
    assert (g.rows, g.cols) == shape and g.array.tolist() == w


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(0, 5), st.integers(0, 5), st.integers(0, 4),
       st.booleans(), st.integers(0, 2**32))
def test_core_matches_reference(pr, rows, cols, k, full, seed):
    f = field_construct(*pr)
    rng = random.Random(seed)
    # a product through an inner dimension below min(rows, cols) is rank deficient
    inner = min(rows, cols) if full else rng.randrange(min(rows, cols) + 1)
    a = ref.mul(f, [[rng.randrange(f.order) for _ in range(inner)] for _ in range(rows)],
                [[rng.randrange(f.order) for _ in range(cols)] for _ in range(inner)], cols)
    b = [[rng.randrange(f.order) for _ in range(k)] for _ in range(cols)]
    m = Mat(f, np.array(a, dtype=np.int64).reshape(rows, cols))
    mb = Mat(f, np.array(b, dtype=np.int64).reshape(cols, k))
    prod = m * mb
    assert (prod.rows, prod.cols) == (rows, k) and prod.array.tolist() == ref.mul(f, a, b, k)
    assert m.rank() == ref.rank(f, a)
    same_or_both_raise(m.right_inverse, lambda: ref.right_inverse(f, a, cols), (cols, rows))
    t = m.transpose()
    assert (t.rows, t.cols) == (cols, rows) and t.array.tolist() == ref.transpose(a, cols)
    diag = block_diag(f, [m, mb])
    assert (diag.rows, diag.cols) == (rows + cols, cols + k)
    assert diag.array.tolist() == ref.block_diag([(a, cols), (b, k)])
    text = m.to_text()
    assert text == ref.to_text(f, a, cols)
    assert Mat.from_text(text, f) == m


# one field per kernel dtype: F_2 (uint8), F_3, F_8, F_9, F_256 and F_65521
# (uint16; two elements of F_65521 sum past 2^16), F_2^17 and F_65537 (uint32)
KERNEL_FIELDS = [(2, 1), (2, 3), (2, 8), (2, 17), (3, 1), (3, 2), (65521, 1), (65537, 1)]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), st.integers(0, 4), st.integers(0, 4), st.integers(1, 4),
       st.integers(0, 2**32))
def test_stacked_elimination_matches_reference(pr, rows, cols, G, seed):
    """VecOps.rref on each of G matrices, each of full rank or rank
    deficient at random, zero rows or columns included: each gets the
    reference's reduced form and pivots, and its Mat the reference's rank and
    right inverse, or the same MatrixError."""
    f = field_construct(*pr)
    ops = field_ops(f)
    rng = random.Random(seed)
    grids = []
    for _ in range(G):
        inner = rng.choice([min(rows, cols), rng.randrange(min(rows, cols) + 1)])
        grids.append(ref.mul(f, [[rng.randrange(f.order) for _ in range(inner)] for _ in range(rows)],
                             [[rng.randrange(f.order) for _ in range(cols)] for _ in range(inner)], cols))
    stack = np.array(grids, dtype=np.int64).reshape(G, rows, cols)
    for grid, m in zip(grids, stack):
        a, pivots = ops.rref(m)
        assert a.dtype == ops.dtype and a.shape == (rows, cols)
        want, want_pivots, _ = ref.echelon(f, grid, reduced=True)
        assert a.tolist() == want and pivots == want_pivots
        assert Mat(f, m).rank() == len(pivots)
        same_or_both_raise(Mat(f, m).right_inverse, lambda: ref.right_inverse(f, grid, cols), (cols, rows))
