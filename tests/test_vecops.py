import random
from math import isqrt
from unittest import mock

import mat_reference as ref
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sumbox import vecops
from sumbox.field import Field, FieldError, field_construct, is_prime
from sumbox.matrix import Mat, MatrixError
from sumbox.vecops import VecOps, field_ops

# F_2, F_3, F_4, F_9, F_2^11 and F_2^17 (past the old 2^16 table bound)
FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2), (2, 11), (2, 17)]

# F_2^14 is the largest order whose log sums, up to 4(q-1) = 65532, fit in
# uint16; F_2^15 keeps intp logs; F_3^8 has uint16 logs in odd characteristic
LOG_BOUNDARY = [(2, 14), (2, 15), (3, 8)]

# every extension field of order up to 2^12, the log-table boundaries and two
# fields past 2^16
EXTENSIONS = sorted({(p, r) for p in filter(is_prime, range(2, 65)) for r in range(2, 13)
                     if p ** r <= 1 << 12} | set(LOG_BOUNDARY) | {(2, 17), (2, 20)})

# prime fields on the tables: F_2 (generator 1), F_67 and the largest prime
# order up to MAX_ORDER = 2^20
PRIMES = [(2, 1), (67, 1), (1048573, 1)]

# the largest prime below 2^16, whose uint16 elements sum past 2^16, the
# least prime above it, whose kernel dtype is uint32, and the largest prime
# order up to MAX_ORDER = 2^20, whose sums of two elements stay in uint32
WIDE_PRIMES = [(65521, 1), (65537, 1), (1048573, 1)]

# matmul's block size, shrunk so that batches on both sides of a chunk
# boundary stay small enough for the per-element reference
SMALL_CHUNK = 12


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(0, 4), st.integers(0, 4),
       st.sampled_from(["1", "chunk-1", "chunk", "chunk+1"]), st.integers(0, 2**32))
def test_matmul_matches_mat_product(pr, rows, cols, batch, seed):
    f = field_construct(*pr)
    rng = random.Random(seed)
    chunk = SMALL_CHUNK // max(1, rows)  # batch columns per block
    B = {"1": 1, "chunk-1": chunk - 1, "chunk": chunk, "chunk+1": chunk + 1}[batch]
    A = [[rng.randrange(f.order) for _ in range(cols)] for _ in range(rows)]
    X = np.array([rng.randrange(f.order) for _ in range(cols * B)],
                 dtype=np.int64).reshape(cols, B)
    with mock.patch.object(vecops, "CHUNK_ELEMS", SMALL_CHUNK):
        got = VecOps(f).matmul(np.array(A, dtype=np.int64).reshape(rows, cols), X)
    assert got.shape == (rows, B)
    assert got.tolist() == ref.mul(f, A, X.tolist(), B)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(2, 1), (3, 1), (2, 3), (3, 2)]), st.sampled_from([1, 3]),
       st.integers(0, 4), st.integers(0, 3),
       st.sampled_from(["0", "1", "chunk-1", "chunk", "chunk+1"]), st.integers(0, 2**32))
def test_stacked_matmul_is_one_product_per_matrix(pr, G, rows, cols, batch, seed):
    # A (G, rows, cols) times X (G, cols, B) equals the G separate 2-D
    # products, over F_2, F_3, F_8 and F_9, for empty row, column and batch
    # axes and for batches on both sides of a block boundary
    f = field_construct(*pr)
    rng = np.random.default_rng(seed)
    chunk = SMALL_CHUNK // max(1, rows)  # batch columns per block of one matrix
    B = {"0": 0, "1": 1, "chunk-1": chunk - 1, "chunk": chunk, "chunk+1": chunk + 1}[batch]
    A = rng.integers(0, f.order, size=(G, rows, cols))
    X = rng.integers(0, f.order, size=(G, cols, B))
    ops = VecOps(f)
    with mock.patch.object(vecops, "CHUNK_ELEMS", SMALL_CHUNK):
        got = ops.matmul(A, X)
        each = [ops.matmul(A[g], X[g]) for g in range(G)]
        out = np.full((G, rows, B), 1, dtype=ops.dtype)
        assert ops.matmul(A, X, out=out) is out
    assert got.shape == (G, rows, B) and got.dtype == ops.dtype
    for g in range(G):
        want = ref.mul(f, A[g].tolist(), X[g].tolist(), B)
        assert got[g].tolist() == each[g].tolist() == out[g].tolist() == want


def test_matmul_refuses_mismatched_shapes():
    ops = VecOps(field_construct(2))
    for A, X in ((np.zeros((2, 3)), np.zeros((2, 4))), (np.zeros((2, 2, 3)), np.zeros((3, 3, 4))),
                 (np.zeros((2, 3)), np.zeros((1, 3, 4)))):
        with pytest.raises(FieldError, match="does not match matrix shape"):
            ops.matmul(A.astype(np.int64), X.astype(np.int64))


@pytest.mark.parametrize("pr", FIELDS)
@pytest.mark.parametrize("G, flat", [(1, True), (1, False), (3, False)])
@pytest.mark.parametrize("rows, cols, B", [(3, 4, 5), (1, 1, 1), (0, 4, 5), (3, 0, 5), (3, 4, 0)])
def test_one_block_product_matches_blocked_product(pr, G, flat, rows, cols, B):
    # the same product with every block one element (CHUNK_ELEMS = 1) and as
    # one expression (CHUNK_ELEMS = 2^30), over FIELDS (F_9 among them), 2-D
    # and stacked, with empty row, column and batch axes; out= is returned
    # itself, as simulate_batch's 2-D decoder product relies on
    f = field_construct(*pr)
    rng = np.random.default_rng(rows * 100 + cols * 10 + B)
    A = rng.integers(0, f.order, size=(G, rows, cols))
    X = rng.integers(0, f.order, size=(G, cols, B))
    if flat:
        A, X = A[0], X[0]
    ops = VecOps(f)
    want = [ref.mul(f, a.tolist(), x.tolist(), B) for a, x in zip(A.reshape(G, rows, cols),
                                                                  X.reshape(G, cols, B))]
    shape = (rows, B) if flat else (G, rows, B)
    for chunk in (1, 1 << 30):
        with mock.patch.object(vecops, "CHUNK_ELEMS", chunk):
            got = ops.matmul(A, X)
            out = np.full(shape, 1, dtype=ops.dtype)
            assert ops.matmul(A, X, out=out) is out
        assert got.shape == shape and got.dtype == ops.dtype
        assert got.reshape(G, rows, B).tolist() == out.reshape(G, rows, B).tolist() == want


@pytest.mark.parametrize("pr", [(p, r) for p, r in EXTENSIONS if p > 2])
def test_digits_are_the_base_p_coefficients(pr):
    # digits[a] lists a's coefficients low to high, in the narrowest dtype
    # that holds p - 1, one C-contiguous row per element
    f = field_construct(*pr)
    digits = VecOps(f)._digits
    assert digits.dtype == np.min_scalar_type(f.p - 1) and digits.flags.c_contiguous
    assert list(map(tuple, digits.tolist())) == [f.coeffs(a) for a in range(f.order)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(1, 4), st.integers(0, 2**32))
def test_sum_and_add_match_field(pr, n, seed):
    f = field_construct(*pr)
    rng = random.Random(seed)
    a = np.array([[rng.randrange(f.order) for _ in range(3)] for _ in range(n)], dtype=np.int64)
    ops = VecOps(f)
    want = []
    for j in range(3):
        acc = 0
        for i in range(n):
            acc = ref.add(f, acc, int(a[i, j]))
        want.append(acc)
    assert ops.sum(a).tolist() == want
    assert ops.add(a[0], a[-1]).tolist() == [ref.add(f, int(x), int(y))
                                             for x, y in zip(a[0], a[-1])]


@pytest.mark.parametrize("pr", [(2, 20)] + LOG_BOUNDARY + PRIMES)
def test_tables_cover_every_order(pr):
    # every nonzero element is a power of the generator, the zero-padded
    # tables multiply by 0 without a mask, and the log table is uint16
    # exactly when the largest log sum 4(q-1) fits in it; the kernel
    # product is the table lookup, except F_2's AND
    f = field_construct(*pr)
    ops = VecOps(f)
    exp, log = ops._exp, ops._log
    q, n = f.order, f.order - 1
    assert (log.dtype == np.uint16) == (4 * n < 1 << 16)
    assert np.array_equal(np.sort(exp[:n]), np.arange(1, q))
    assert log[0] == 2 * n and not exp[2 * n:].any()
    rng = random.Random(5)
    pairs = ([(rng.randrange(q), rng.randrange(q)) for _ in range(200)]
             + [(0, 7 % q), (9 % q, 0), (0, 0), (n, 0), (n, n)])
    a, b = (np.array(v, dtype=np.int64) for v in zip(*pairs))
    want = [ref.mul_direct(f, x, y) for x, y in pairs]
    assert exp[log[a] + log[b]].tolist() == ops.mul_scalar(a, b).tolist() == want
    A = [[rng.randrange(q) for _ in range(3)] for _ in range(3)] + [[0, n, 0]]
    X = [[rng.randrange(q) for _ in range(4)] for _ in range(2)] + [[0, n, n, 1]]
    got = ops.matmul(np.array(A, dtype=np.int64), np.array(X, dtype=np.int64))
    assert got.tolist() == ref.mul(f, A, X, 4)


@pytest.mark.parametrize("pr", PRIMES + EXTENSIONS)
def test_tables_share_nothing_with_the_reference(pr):
    # the reference product and power live in the tests alone, and the
    # tables' generator is the least element of order q - 1 under them
    f = field_construct(*pr)
    assert not hasattr(Field, "_mul_direct") and not hasattr(Field, "pow")
    exp = VecOps(f)._exp
    n = f.order - 1
    divisors = {d for j in range(1, isqrt(n) + 1) if n % j == 0 for d in (j, n // j)}
    tests = [n // d for d in divisors if is_prime(d)]
    g = next(g for g in range(1, f.order) if all(ref.power(f, g, e) != 1 for e in tests))
    assert exp[1] == g
    ks = [0, 1, n - 1] + random.Random(11).sample(range(n), min(n, 20))
    assert [int(exp[k]) for k in ks] == [ref.power(f, g, k) for k in ks]


@pytest.mark.parametrize("pr", WIDE_PRIMES)
def test_wide_prime_fields_match_the_reference_at_the_top(pr):
    # add, sum, matmul (one expression and blocked), rref and right_inverse on
    # the largest elements, p - 1 and p - 2, with 0 and 1 among them: every
    # sum is formed past the kernel dtype and reduced mod p
    f = field_construct(*pr)
    p, ops = f.p, field_ops(f)
    assert ops.dtype == (np.uint16 if p < 1 << 16 else np.uint32)
    top = np.array([p - 1, p - 2, 1, 0], dtype=ops.dtype)
    a, b = np.repeat(top, 4), np.tile(top, 4)
    assert ops.add(a, b).tolist() == [ref.add(f, int(x), int(y)) for x, y in zip(a, b)]
    column = np.array([p - 1] * 7 + [p - 2, 1, 0], dtype=ops.dtype)
    acc = 0
    for x in column.tolist():
        acc = ref.add(f, acc, x)
    assert ops.sum(column[:, None]).tolist() == [acc]
    rng = np.random.default_rng(p)
    A = rng.choice(top, size=(2, 5, 6))
    X = rng.choice(top, size=(2, 6, 3))
    for chunk in (1, 1 << 30):
        with mock.patch.object(vecops, "CHUNK_ELEMS", chunk):
            got = ops.matmul(A, X)
        assert got.dtype == ops.dtype
        assert got.tolist() == [ref.mul(f, a.tolist(), x.tolist(), 3) for a, x in zip(A, X)]
    for grid in ([[p - 1, p - 1, 1], [p - 2, p - 1, 0]], [[p - 1, 1], [1, p - 1]],
                 A[0].tolist(), A[1].T.tolist()):
        m = Mat(f, grid)
        reduced, pivots = ops.rref(m.array)
        want, want_pivots, _ = ref.echelon(f, grid, reduced=True)
        assert reduced.tolist() == want and pivots == want_pivots
        try:
            want = ref.right_inverse(f, grid, m.cols)
        except MatrixError:
            with pytest.raises(MatrixError):
                m.right_inverse()
        else:
            assert m.right_inverse().array.tolist() == want


@pytest.mark.parametrize("pr", FIELDS + [(67, 1)] + LOG_BOUNDARY)
def test_inv_is_the_fermat_inverse(pr):
    # every nonzero element (a sample past q = 2^11), against a^(q-2) by squaring
    f = field_construct(*pr)
    q = f.order
    a = range(1, q) if q <= 1 << 11 else random.Random(7).sample(range(1, q), 300)
    assert field_ops(f).inv(np.array(a)).tolist() == [ref.inv(f, x) for x in a]
    assert field_ops(f).inv(0) == 0


@pytest.mark.parametrize("pr", FIELDS + [(67, 1)] + LOG_BOUNDARY)
def test_neg_is_the_additive_inverse(pr):
    # every element (a sample past q = 2^11), against the reference's -a
    f = field_construct(*pr)
    q = f.order
    a = range(q) if q <= 1 << 11 else random.Random(7).sample(range(q), 300)
    assert field_ops(f).neg(np.array(a)).tolist() == [ref.neg(f, x) for x in a]


def test_field_ops_follows_the_field_object():
    # the kernels live on the Field object: a new canonical field gets new
    # kernels, and asking again returns the same ones
    old = field_ops(field_construct(2, 5))
    field_construct.cache_clear()
    f = field_construct(2, 5)
    ops = field_ops(f)
    assert ops is not old and ops.field is f
    assert field_ops(f) is ops
