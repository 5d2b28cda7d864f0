"""Dense linear algebra over finite fields.

Matrices are immutable value objects: a Field plus a read-only 2-D int64
numpy array of int-encoded elements, operated on by the whole-array kernels
of `vecops`.  A scheme needs products, rank, a right inverse, block-diagonal
stacking and the text form, and nothing more is kept.
"""

from __future__ import annotations

import re
from typing import Sequence

import numpy as np

from .field import Field, FieldError, parse_decimal
from .vecops import field_ops


class MatrixError(ValueError):
    pass


class Mat:
    __slots__ = ("field", "array")

    def __init__(self, field: Field, data: Sequence[Sequence[int]] | np.ndarray):
        """A matrix from a list of rows of ints, or from a 2-D integer array."""
        if isinstance(data, np.ndarray):
            if data.ndim != 2 or data.dtype.kind not in "iu":
                raise MatrixError(f"need a 2-D integer array, got {data.ndim}-D {data.dtype}")
            if data.size and not (data.min() >= 0 and data.max() < field.order):
                raise FieldError(f"array entries are not all elements of {field.name}")
            array = data.astype(np.int64)
        else:
            rows = [list(r) for r in data]
            width = len(rows[0]) if rows else 0
            if any(len(r) != width for r in rows):
                raise MatrixError("ragged rows")
            for r in rows:
                for v in r:
                    field.check(v)
            array = np.array(rows, dtype=np.int64).reshape(len(rows), width)
        self._set(field, array)

    def _set(self, field: Field, array: np.ndarray):
        array.flags.writeable = False
        self.field = field
        self.array = array

    @classmethod
    def _of(cls, field: Field, array: np.ndarray) -> "Mat":
        """Wrap a 2-D array already known to hold elements of field."""
        m = object.__new__(cls)
        m._set(field, array.astype(np.int64, copy=False))
        return m

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    @property
    def data(self) -> list[list[int]]:
        """The entries as a fresh list of rows of Python ints."""
        return self.array.tolist()

    # -- constructors ----------------------------------------------------------
    @classmethod
    def identity(cls, field: Field, n: int) -> "Mat":
        return cls._of(field, np.eye(n, dtype=np.int64))

    @classmethod
    def random(cls, field: Field, rows: int, cols: int, rng) -> "Mat":
        """Entries rng.randrange(q), drawn row by row."""
        q = field.order
        draws = [rng.randrange(q) for _ in range(rows * cols)]
        return cls._of(field, np.array(draws, dtype=np.int64).reshape(rows, cols))

    # -- value semantics ---------------------------------------------------------
    def __eq__(self, other):
        return (isinstance(other, Mat) and self.field == other.field
                and np.array_equal(self.array, other.array))

    def __repr__(self):
        return f"Mat({self.field.name}, {self.rows}x{self.cols})"

    # -- arithmetic ---------------------------------------------------------------
    def __mul__(self, other: "Mat") -> "Mat":
        check_mul(self, other)
        return Mat._of(self.field, field_ops(self.field).matmul(self.array, other.array))

    def transpose(self) -> "Mat":
        return Mat._of(self.field, self.array.T)

    # -- elimination ------------------------------------------------------------
    def rank(self) -> int:
        return len(field_ops(self.field).rref(self.array)[1])

    def right_inverse(self) -> "Mat":
        """V with self * V = I_rows; requires full row rank.

        Eliminates [self^T | I]: its first rows(self) rows end as [I | V^T].
        """
        m = self.rows
        aug = np.hstack([self.array.T, np.eye(self.cols, dtype=np.int64)])
        a, pivots = field_ops(self.field).rref(aug)
        if sum(p < m for p in pivots) < m:
            raise MatrixError("rank deficient: no right inverse")
        return Mat._of(self.field, a[:m, m:].T)

    # -- serialization -------------------------------------------------------------
    def to_text(self) -> str:
        """Header "rows cols field", then row-major entries as coefficient lists."""
        f = self.field
        digits = self.array[:, :, None] // f.p ** np.arange(f.r, dtype=np.int64) % f.p
        entry = "[" + ",".join(["{}"] * f.r) + "]"
        row = " ".join([entry] * self.cols)
        return "\n".join([f"{self.rows} {self.cols} {f.name}"] + [row] * self.rows).format(
            *digits.ravel().tolist())

    @classmethod
    def from_text(cls, text: str, field: Field) -> "Mat":
        """Inverse of to_text for a matrix over field; the header must name it."""
        lines = [ln for ln in (l.strip() for l in text.splitlines()) if ln]
        if not lines:
            raise MatrixError("empty matrix text")
        try:
            rows, cols, name = lines[0].split()
            rows, cols = parse_decimal(rows), parse_decimal(cols)
        except ValueError:
            raise MatrixError(f"bad matrix header {lines[0]!r}") from None
        if field.name != name:
            raise MatrixError(f"field mismatch: header {name}, expected {field.name}")
        body = lines[1:]  # a 0-column matrix writes no row lines
        if len(body) != (rows if cols else 0):
            raise MatrixError("row count mismatch")
        if any(ln.count("[") != cols for ln in body):
            raise MatrixError("row width mismatch")
        return cls._of(field, _parse_entries(body, field).reshape(rows, cols))


def check_mul(a: Mat, b: Mat):
    """Raise MatrixError unless a * b is defined: one field, and a.cols == b.rows."""
    if a.field != b.field:
        raise MatrixError("field mismatch")
    if a.cols != b.rows:
        raise MatrixError(f"dimension mismatch in mul: {a.rows}x{a.cols} by {b.rows}x{b.cols}")


def _parse_entries(body: list[str], f: Field) -> np.ndarray:
    """The elements of space- or tab-separated "[c_0,...,c_{r-1}]" entries, each
    coefficient a decimal number below p, low-to-high."""
    entry = r"\[[0-9]{1,7}(?:,[0-9]{1,7}){%d}\]" % (f.r - 1)
    for i, ln in enumerate(body):
        if not re.fullmatch(rf"{entry}(?:[ \t]+{entry})*", ln):
            tok = next((t for t in ln.split() if not re.fullmatch(entry, t)), ln)
            raise MatrixError(f"bad entry {tok!r} in row {i + 1}")
    text = "\n".join(body)
    coeffs = np.fromstring(text.translate(_UNBRACKET), dtype=np.int64, sep=" ").reshape(-1, f.r)
    bad = np.flatnonzero((coeffs >= f.p).any(axis=1))
    if bad.size:
        raise MatrixError(f"bad entry {text.split()[bad[0]]!r}: a coefficient is not below {f.p}")
    return coeffs @ f.p ** np.arange(f.r, dtype=np.int64)


_UNBRACKET = str.maketrans("[],", "   ")


# -- block assembly ------------------------------------------------------------

def block_diag(field: Field, mats: Sequence[Mat]) -> Mat:
    """Block-diagonal assembly; zero-width or zero-height blocks still occupy space."""
    out = np.zeros((sum(m.rows for m in mats), sum(m.cols for m in mats)), dtype=np.int64)
    r0 = c0 = 0
    for m in mats:
        if m.field != field:
            raise MatrixError("block_diag field mismatch")
        out[r0:r0 + m.rows, c0:c0 + m.cols] = m.array
        r0 += m.rows
        c0 += m.cols
    return Mat._of(field, out)
