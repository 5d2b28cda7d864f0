import random

import pytest

from sumbox.field import field_construct
from sumbox.matrix import Mat, MatrixError, block_diag, hstack

F2 = field_construct(2)
F8 = field_construct(2, 3)
F9 = field_construct(3, 2)


def test_identity_and_zeros():
    I = Mat.identity(F8, 4)
    Z = Mat.zeros(F8, 4, 4)
    assert I * I == I
    assert I + Z == I
    assert Z.is_zero()


def test_mul_known_values():
    a = Mat(F2, [[1, 0], [1, 1]])
    b = Mat(F2, [[1, 1], [0, 1]])
    assert (a * b).data == [[1, 1], [1, 0]]


def test_rank_det_inverse():
    rng = random.Random(11)
    for f in (F2, F8, F9):
        for _ in range(20):
            m = Mat.random(f, 4, 4, rng)
            r = m.rank()
            if r == 4:
                assert m.det() != 0
                assert m * m.inverse() == Mat.identity(f, 4)
                assert m.inverse() * m == Mat.identity(f, 4)
            else:
                assert m.det() == 0
                with pytest.raises(MatrixError):
                    m.inverse()


def test_det_multiplicative():
    rng = random.Random(5)
    for _ in range(15):
        a = Mat.random(F9, 3, 3, rng)
        b = Mat.random(F9, 3, 3, rng)
        assert (a * b).det() == F9.mul(a.det(), b.det())


def test_left_right_inverse():
    rng = random.Random(3)
    # a random 2x4 over F_8 has full row rank with high probability
    for _ in range(10):
        m = Mat.random(F8, 2, 4, rng)
        if m.rank() < 2:
            continue
        r = m.right_inverse()
        assert m * r == Mat.identity(F8, 2)
        t = m.transpose()
        l = t.left_inverse()
        assert l * t == Mat.identity(F8, 2)


def test_transpose_involution():
    m = Mat(F9, [[1, 2, 3], [4, 5, 6]])
    assert m.transpose().transpose() == m


def test_select_columns_one_based():
    m = Mat(F2, [[1, 0, 1], [0, 1, 1]])
    s = m.select_columns([3, 1])
    assert s.data == [[1, 1], [1, 0]]
    with pytest.raises(MatrixError):
        m.select_columns([1, 1])
    with pytest.raises(MatrixError):
        m.select_columns([0])


def test_stacking():
    a = Mat(F2, [[1, 0]])
    b = Mat(F2, [[0, 1]])
    assert hstack(a, b).data == [[1, 0, 0, 1]]
    d = block_diag(F2, [a, b])
    assert d.data == [[1, 0, 0, 0], [0, 0, 0, 1]]


def test_zero_dimension_product():
    a = Mat.zeros(F2, 2, 0)
    b = Mat.zeros(F2, 0, 3)
    assert (a * b) == Mat.zeros(F2, 2, 3)


def test_serialization_roundtrip():
    rng = random.Random(17)
    for f in (F2, F8, F9):
        m = Mat.random(f, 3, 5, rng)
        again = Mat.from_text(m.to_text())
        assert again == m
        assert again.field.order == f.order


def test_field_mismatch():
    a = Mat.identity(F2, 2)
    b = Mat.identity(F8, 2)
    with pytest.raises(MatrixError):
        a * b
