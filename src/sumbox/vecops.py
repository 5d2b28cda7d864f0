"""Vectorized finite-field arithmetic on numpy int arrays.

The one F_q array core: `Mat` multiplies, eliminates and serialises on these
kernels, and simulation runs its batches on them.  Elements keep the int
encoding of `field`.  Over F_{p^r}, r > 1, a product is one lookup
exp[log a + log b] in the zero-padded tables of `Field.arrays`, and addition
is XOR in characteristic 2 and digit-wise otherwise; a prime field
multiplies and adds mod p.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .field import Field, FieldError

# Most elements in one block of products (matrix columns x rows x batch columns)
# that matmul forms at a time; a larger batch is taken in slices of the batch axis.
CHUNK_ELEMS = 1 << 16


class VecOps:
    def __init__(self, field: Field):
        self.field = field
        self.p = field.p
        self.r = field.r
        if self.r > 1:
            self._exp, self._log, self._digits = field.arrays()
            self._powers = self.p ** np.arange(self.r, dtype=np.int64)
            self.dtype = self._exp.dtype  # of what matmul returns
        else:
            # a product of two elements fits; odd p stays signed so sub can go negative
            self.dtype = np.dtype(np.uint8) if self.p == 2 else np.dtype(np.int64)

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self.r == 1:
            return (a + b) % self.p
        return (np.add(self._digits[a], self._digits[b], dtype=np.int64) % self.p) @ self._powers

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self.r == 1:
            return np.subtract(a, b, dtype=np.int64) % self.p
        return (np.subtract(self._digits[a], self._digits[b], dtype=np.int64) % self.p) @ self._powers

    def sum(self, a: np.ndarray) -> np.ndarray:
        """Field sum of `a` over its first axis."""
        if len(a) == 1:
            return a[0]
        if self.p == 2:
            return np.bitwise_xor.reduce(a, axis=0)
        if self.r == 1:
            return a.sum(axis=0) % self.p
        return (self._digits[a].sum(axis=0, dtype=np.int64) % self.p) @ self._powers

    def mul_scalar(self, c, a: np.ndarray) -> np.ndarray:
        """Elementwise product; `c` is an element or an array broadcasting against `a`."""
        if self.r > 1:
            return self._exp.take(self._log.take(c) + self._log.take(a))
        c, a = np.asarray(c, self.dtype), np.asarray(a, self.dtype)
        return c & a if self.p == 2 else (c * a) % self.p

    def matmul(self, A: np.ndarray, X: np.ndarray) -> np.ndarray:
        """A (rows x cols) applied to X of shape (cols, B) -> (rows, B) of dtype.

        Products come in blocks of at most CHUNK_ELEMS (matrix columns, rows,
        batch columns), summed over matrix columns: one block for a small
        batch, one per matrix column and batch slice for a large one."""
        rows, cols = A.shape
        if X.shape[0] != cols:
            raise FieldError(f"batch shape {X.shape} does not match {cols} columns")
        B = X.shape[1]
        At = A.T[:, :, None]
        width = max(1, min(B, CHUNK_ELEMS // max(1, rows)))
        depth = max(1, CHUNK_ELEMS // (max(1, rows) * width))
        out = np.empty((rows, B), dtype=self.dtype)
        for lo in range(0, B, width):
            Xs = X[:, None, lo:lo + width]
            acc = self.sum(self.mul_scalar(At[:depth], Xs[:depth]))
            for j in range(depth, cols, depth):
                acc = self.add(acc, self.sum(self.mul_scalar(At[j:j + depth], Xs[j:j + depth])))
            out[:, lo:lo + width] = acc
        return out


@lru_cache(maxsize=None)
def field_ops(field: Field) -> VecOps:
    """The kernels of `field`, built once per field."""
    return VecOps(field)
