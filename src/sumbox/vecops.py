"""Vectorized finite-field arithmetic on numpy int arrays.

The one F_q arithmetic: `Mat` multiplies, eliminates and serialises on these
kernels, boxes are built on them, and simulation runs its batches on them.
`VecOps.matmul` multiplies a stack of matrices by a stack of batches, one
product per stack entry, in one call; a plain matrix product is a stack of one.
A product that fits `CHUNK_ELEMS` elements is one expression; a larger one
goes in blocks of at most that size.
`VecOps.rref`, the one Gaussian elimination, reduces one matrix.
Elements keep the int encoding of `field`.  Over every field a product is
one lookup exp[log a + log b] in the zero-padded tables of `_tables`, built
from multiplication by x alone; `Field` has no arithmetic of its own, and
the tests' polynomial-product reference lives in tests/mat_reference.py.
Only F_2 multiplies by AND on bytes instead.  Addition is XOR in
characteristic 2, mod p in a prime field and digit-wise otherwise.  Subtraction adds the negative: a - b is
add(a, neg(b)).  A negative and an inverse are lookups in tables of q
entries, the inverse of a being exp[q - 1 - log a].
The log table is uint16 when the largest log sum 4(q-1) is below 2^16, that
is for q <= 2^14, and intp above; exp, and with it the kernel dtype, is
uint16 for q <= 2^16 and uint32 above, except that F_2 computes in uint8.
A prime field adds two elements in uint32 and sums over an axis in int64,
as two uint16 elements may wrap and that axis may be long.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .field import Field, FieldError, is_prime

# Most elements in one block of products (matrix columns x stacked matrices x
# rows x batch columns) that matmul forms at a time: a product that fits is one
# expression, a larger one is taken in blocks of this size.
CHUNK_ELEMS = 1 << 16


def _tables(field: Field) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """numpy (exp, log, digits) tables of field, of any order.

    log[a] is the discrete log of a != 0 to the smallest primitive element
    and log[0] = 2(q-1); exp holds two periods of the powers and zeros up
    to index 4(q-1), so exp[log a + log b] = a*b for every a and b, 0
    included.  log is uint16 when that largest sum 4(q-1) fits in 16 bits
    (q <= 2^14), so a product adds 2-byte logs; intp above that.  digits[a]
    lists a's base-p digits (odd p only).

    Every product here is built from multiplication by x, a digit shift
    minus the top digit times the modulus: a*b = sum_i b_i (x^i a).  A
    prime field is the case r = 1, where a*b = b_0 a."""
    p, r, q = field.p, field.r, field.order
    n = q - 1
    # the smallest g of order n; past F_p the search starts at g = p, as an
    # element of F_p has order dividing p - 1 < n
    start = p if r > 1 else 1
    # the index grid of (p,) * r in C order counts in base p, highest digit first
    digits = None if p == 2 else np.ascontiguousarray(
        np.indices((p,) * r, dtype=np.min_scalar_type(p - 1)).reshape(r, q)[::-1].T)
    if p == 2:  # an element is its int: its digits are bits, x*u is a shift
        modulus = sum(c << i for i, c in enumerate(field.modulus))
        one, candidates = 1, range(start, q)

        def times_x(u):
            u <<= 1
            return u ^ modulus if u & q else u

        def mul(u, v):
            out = 0
            while v:
                if v & 1:
                    out ^= u
                u, v = times_x(u), v >> 1
            return out
    else:  # an element is its tuple of r digits, low to high
        low = field.modulus[:r]
        one, candidates = field.coeffs(1), map(field.coeffs, range(start, q))

        def times_x(u):
            top, u = u[-1], (0,) + u[:-1]
            return tuple((c - top * m) % p for c, m in zip(u, low)) if top else u

        def mul(u, v):
            out = (0,) * r
            for d in v:
                if d:
                    out = tuple((o + d * c) % p for o, c in zip(out, u))
                u = times_x(u)
            return out

    def power(u, e):
        out = one
        while e:
            if e & 1:
                out = mul(out, u)
            u, e = mul(u, u), e >> 1
        return out

    # a -> g*a is F_p-linear: its image of digit i is g*x^i
    divisors = [d for f in range(1, isqrt(n) + 1) if n % f == 0 for d in (f, n // f)]
    tests = [n // f for f in divisors if is_prime(f)]
    g = next(g for g in candidates if all(power(g, e) != one for e in tests))
    gx = [g]
    while len(gx) < r:
        gx.append(times_x(gx[-1]))
    if p == 2:  # the map on [0, 2^(i+1)) is the map on [0, 2^i), XOR g*x^i
        step = np.zeros(q, dtype=np.int64)
        for i, v in enumerate(gx):
            step[1 << i:2 << i] = step[:1 << i] ^ v
    else:
        step = ((digits @ np.array(gx, dtype=np.int32)) % p) @ (p ** np.arange(r, dtype=np.int64))
    # the powers of g, doubling: with step = the map a -> g^k a, the next
    # k powers are step[powers of the first k], and step squares to g^2k
    powers = np.ones(1, dtype=np.int64)
    while len(powers) < n:
        powers = np.concatenate([powers, step[powers]])
        step = step[step]
    powers = powers[:n]
    exp = np.zeros(4 * n + 1, dtype=np.uint16 if q <= 1 << 16 else np.uint32)
    exp[:n] = exp[n:2 * n] = powers
    log = np.full(q, 2 * n, dtype=np.uint16 if 4 * n < 1 << 16 else np.intp)
    log[powers] = np.arange(n)
    return exp, log, digits


class VecOps:
    def __init__(self, field: Field):
        self.field = field
        self.p = field.p
        self.r = field.r
        self._exp, self._log, self._digits = _tables(field)
        self._powers = self.p ** np.arange(self.r, dtype=np.int64)
        # of what matmul returns: F_2 multiplies by AND on bytes
        self.dtype = np.dtype(np.uint8) if field.order == 2 else self._exp.dtype
        n = field.order - 1
        self._inv = np.zeros_like(self._exp, shape=field.order)
        self._inv[1:] = self._exp[n - self._log[1:]]  # g^(n - log a) = 1/a, n - log a >= 1
        # -a = (p - 1) a, as -1 = p - 1 in F_p
        self._neg = None if self.p == 2 else self.mul_scalar(self.p - 1, np.arange(field.order))

    def inv(self, a):
        """1/a for a nonzero element or array of them; 0 maps to 0."""
        return self._inv[a]

    def neg(self, a):
        """-a for an element or array of them: a itself in characteristic 2."""
        return a if self.p == 2 else self._neg[a]

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self.r == 1:  # exact in uint32: each term, an int64 sum too, is below p <= 2^20
            return np.add(a, b, dtype=np.uint32, casting="unsafe") % self.p
        return (np.add(self._digits[a], self._digits[b], dtype=np.int64) % self.p) @ self._powers

    def sum(self, a: np.ndarray) -> np.ndarray:
        """Field sum of `a` over its first axis."""
        if len(a) == 1:
            return a[0]
        if self.p == 2:
            return np.bitwise_xor.reduce(a, axis=0)
        if self.r == 1:
            return a.sum(axis=0, dtype=np.int64) % self.p
        return (self._digits[a].sum(axis=0, dtype=np.int64) % self.p) @ self._powers

    def mul_scalar(self, c, a: np.ndarray) -> np.ndarray:
        """Elementwise product; `c` is an element or an array broadcasting against `a`."""
        if self.field.order == 2:
            return np.asarray(c, np.uint8) & np.asarray(a, np.uint8)
        return self._exp.take(self._log.take(c) + self._log.take(a))

    def matmul(self, A: np.ndarray, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """A stack of G products: A (G, rows, cols) times X (G, cols, B) -> (G, rows, B),
        written to `out` if given, else to a new array of dtype.  A 2-D
        product, A (rows, cols) times X (cols, B) -> (rows, B), is the case G = 1.

        A product of at most CHUNK_ELEMS elements (matrix columns x stacked
        matrices x rows x batch columns) is one expression, summed over
        matrix columns.  A larger one goes in blocks of at most CHUNK_ELEMS,
        each a run of matrix columns, a group of stacked matrices and a slice
        of the batch."""
        shapes, flat = (A.shape, X.shape), A.ndim == 2
        if flat:
            A, X = A[None], X[None]
        G, rows, cols = A.shape
        if X.ndim != 3 or X.shape[:2] != (G, cols):
            raise FieldError("batch shape {1} does not match matrix shape {0}".format(*shapes))
        B = X.shape[2]
        At = A.transpose(2, 0, 1)[..., None]  # (cols, G, rows, 1)
        Xt = X.transpose(1, 0, 2)[:, :, None]  # (cols, G, 1, B)
        if out is None:
            out = np.empty((rows, B) if flat else (G, rows, B), dtype=self.dtype)
        if cols * G * rows * B <= CHUNK_ELEMS:
            out[...] = self.sum(self.mul_scalar(At, Xt))
            return out
        # past one block no axis is empty
        width = max(1, min(B, CHUNK_ELEMS // rows))
        stack = max(1, min(G, CHUNK_ELEMS // (rows * width)))
        depth = max(1, CHUNK_ELEMS // (stack * rows * width))
        dest = out[None] if flat else out
        for g in range(0, G, stack):
            Ag, Xg = At[:, g:g + stack], Xt[:, g:g + stack]
            for lo in range(0, B, width):
                Xs = Xg[..., lo:lo + width]
                acc = self.sum(self.mul_scalar(Ag[:depth], Xs[:depth]))
                for j in range(depth, cols, depth):
                    acc = self.add(acc, self.sum(self.mul_scalar(Ag[j:j + depth], Xs[j:j + depth])))
                dest[g:g + stack, :, lo:lo + width] = acc
        return out

    def rref(self, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """The reduced row echelon form of a matrix a (rows, cols), in dtype, and
        its pivot columns, whose count is its rank.

        It pivots on the first nonzero entry at or below the next pivot row,
        columns left to right; the form itself is unique.  A pivot row is zero
        left of its pivot column, so only the columns from there on are
        updated."""
        m = np.array(a, dtype=self.dtype)
        rows, cols = m.shape
        pivots = []
        for col in range(cols):
            prow = len(pivots)
            if prow == rows:
                break
            below = m[prow:, col].nonzero()[0]
            if not below.size:
                continue
            piv = prow + int(below[0])
            live = m[:, col:]
            row = self.mul_scalar(self.inv(m[piv, col]), live[piv])
            # clear the column in every row, the pivot row too, then put the
            # scaled pivot row at prow and the old row prow (zero there) at piv
            live[...] = self.add(live, self.mul_scalar(m[:, col, None], self.neg(row)))
            m[piv] = m[prow]
            live[prow] = row
            pivots.append(col)
        return m, pivots


def field_ops(field: Field) -> VecOps:
    """The kernels of `field`, built once per Field object and kept on it."""
    if field._ops is None:
        field._ops = VecOps(field)
    return field._ops
