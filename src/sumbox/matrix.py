"""Dense linear algebra over finite fields.

Matrices are immutable-by-convention value objects: a Field plus a row-major
grid of int-encoded elements.  Column indices at public boundaries are
1-based (select_columns); internal storage is 0-based.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .field import Field, parse_field_name


class MatrixError(ValueError):
    pass


class Mat:
    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, data: Sequence[Sequence[int]], cols: int | None = None):
        self.field = field
        rows = [list(r) for r in data]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise MatrixError("ragged rows")
        else:
            width = cols or 0
        if cols is not None and rows and width != cols:
            raise MatrixError("cols mismatch")
        for r in rows:
            for v in r:
                field.check(v)
        self.rows = len(rows)
        self.cols = width
        self.data = rows

    # -- constructors ----------------------------------------------------------
    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Mat":
        return cls(field, [[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Mat":
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def random(cls, field: Field, rows: int, cols: int, rng) -> "Mat":
        q = field.order
        return cls(field, [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)], cols=cols)

    # -- value semantics ---------------------------------------------------------
    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        return f"Mat({self.field.name}, {self.rows}x{self.cols})"

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.data for v in row)

    # -- arithmetic ---------------------------------------------------------------
    def _check_same_field(self, other: "Mat"):
        if self.field != other.field:
            raise MatrixError("field mismatch")

    def __add__(self, other: "Mat") -> "Mat":
        self._check_same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise MatrixError("dimension mismatch in add")
        f = self.field
        return Mat(
            f,
            [[f.add(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)],
            cols=self.cols,
        )

    def __mul__(self, other: "Mat") -> "Mat":
        self._check_same_field(other)
        if self.cols != other.rows:
            raise MatrixError(
                f"dimension mismatch in mul: {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        f = self.field
        if self.cols == 0 or other.cols == 0:
            return Mat.zeros(f, self.rows, other.cols)
        bt = list(zip(*other.data))
        out = []
        for ra in self.data:
            row = []
            for cb in bt:
                acc = 0
                for a, b in zip(ra, cb):
                    if a and b:
                        acc = f.add(acc, f.mul(a, b))
                row.append(acc)
            out.append(row)
        return Mat(f, out, cols=other.cols)

    def transpose(self) -> "Mat":
        return Mat(self.field, [list(r) for r in zip(*self.data)] if self.data else [], cols=self.rows)

    # -- elimination core ------------------------------------------------------
    def _echelon(self, reduced: bool = False):
        """Row echelon form.  Returns (grid, pivot column list, det_sign_tracker).

        Pivot choice: first nonzero entry scanning rows top-down within each
        column, columns left to right (fixed for reproducibility).
        """
        f = self.field
        a = [row[:] for row in self.data]
        m, n = self.rows, self.cols
        pivots = []
        det = 1  # product of pivots * swap signs, meaningful for square full-rank
        prow = 0
        for col in range(n):
            piv = None
            for i in range(prow, m):
                if a[i][col]:
                    piv = i
                    break
            if piv is None:
                continue
            if piv != prow:
                a[prow], a[piv] = a[piv], a[prow]
                det = f.neg(det)
            pv = a[prow][col]
            det = f.mul(det, pv)
            inv = f.inv(pv)
            a[prow] = [f.mul(inv, v) for v in a[prow]]
            rng = range(m) if reduced else range(prow + 1, m)
            for i in rng:
                if i != prow and a[i][col]:
                    c = a[i][col]
                    a[i] = [f.sub(vi, f.mul(c, vp)) for vi, vp in zip(a[i], a[prow])]
            pivots.append(col)
            prow += 1
            if prow == m:
                break
        return a, pivots, det

    def rank(self) -> int:
        return len(self._echelon()[1])

    def det(self) -> int:
        if self.rows != self.cols:
            raise MatrixError("det of non-square matrix")
        _, pivots, det = self._echelon()
        if len(pivots) < self.rows:
            return 0
        return det

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise MatrixError("inverse of non-square matrix")
        aug = hstack(self, Mat.identity(self.field, self.rows))
        grid, pivots, _ = aug._echelon(reduced=True)
        if len(pivots) < self.rows or any(p >= self.rows for p in pivots):
            raise MatrixError("singular matrix")
        return Mat(self.field, [row[self.rows:] for row in grid], cols=self.rows)

    def left_inverse(self) -> "Mat":
        """U with U * self = I_cols; requires full column rank."""
        aug = hstack(self, Mat.identity(self.field, self.rows))
        grid, pivots, _ = aug._echelon(reduced=True)
        lead = [p for p in pivots if p < self.cols]
        if len(lead) < self.cols:
            raise MatrixError("rank deficient: no left inverse")
        return Mat(self.field, [row[self.cols:] for row in grid[: self.cols]], cols=self.rows)

    def right_inverse(self) -> "Mat":
        """V with self * V = I_rows; requires full row rank."""
        return self.transpose().left_inverse().transpose()

    # -- shaping ------------------------------------------------------------------
    def select_columns(self, idx: Iterable[int]) -> "Mat":
        """Submatrix of the given 1-based columns, in the given order."""
        idx = list(idx)
        if len(set(idx)) != len(idx):
            raise MatrixError(f"duplicate column index in {idx}")
        for j in idx:
            if not 1 <= j <= self.cols:
                raise MatrixError(f"column index {j} out of range 1..{self.cols}")
        return Mat(self.field, [[row[j - 1] for j in idx] for row in self.data], cols=len(idx))

    # -- serialization -------------------------------------------------------------
    def to_text(self) -> str:
        """Header "rows cols field", then row-major entries as coefficient lists."""
        lines = [f"{self.rows} {self.cols} {self.field.name}"]
        for row in self.data:
            lines.append(" ".join(
                "[" + ",".join(map(str, self.field.coeffs(v))) + "]" for v in row
            ))
        return "\n".join(lines)

    @classmethod
    def from_text(cls, text: str, field: Field | None = None) -> "Mat":
        lines = [ln for ln in (l.strip() for l in text.splitlines()) if ln]
        if not lines:
            raise MatrixError("empty matrix text")
        head = lines[0].split()
        if len(head) != 3:
            raise MatrixError(f"bad matrix header {lines[0]!r}")
        rows, cols = int(head[0]), int(head[1])
        f = field if field is not None else parse_field_name(head[2])
        if f.name != head[2]:
            raise MatrixError(f"field mismatch: header {head[2]}, expected {f.name}")
        data = []
        for ln in lines[1 : 1 + rows]:
            row = []
            for tok in ln.split():
                if not (tok.startswith("[") and tok.endswith("]")):
                    raise MatrixError(f"bad entry {tok!r}")
                cs = [int(c) for c in tok[1:-1].split(",")] if tok != "[]" else []
                row.append(f.element(cs))
            if len(row) != cols:
                raise MatrixError("row width mismatch")
            data.append(row)
        if len(data) != rows:
            raise MatrixError("row count mismatch")
        return cls(f, data, cols=cols)


# -- block assembly ------------------------------------------------------------

def hstack(*mats: Mat) -> Mat:
    mats = [m for m in mats]
    if not mats:
        raise MatrixError("hstack of nothing")
    f = mats[0].field
    rows = mats[0].rows
    for m in mats:
        if m.field != f or m.rows != rows:
            raise MatrixError("hstack mismatch")
    data = [sum((m.data[i] for m in mats), []) for i in range(rows)]
    return Mat(f, data, cols=sum(m.cols for m in mats))


def block_diag(field: Field, mats: Sequence[Mat]) -> Mat:
    """Block-diagonal assembly; zero-width or zero-height blocks still occupy space."""
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    out = [[0] * cols for _ in range(rows)]
    r0 = c0 = 0
    for m in mats:
        if m.field != field:
            raise MatrixError("block_diag field mismatch")
        for i, row in enumerate(m.data):
            out[r0 + i][c0 : c0 + m.cols] = row
        r0 += m.rows
        c0 += m.cols
    return Mat(field, out, cols=cols)
