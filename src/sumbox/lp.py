"""Exact rational linear programming via a fraction-free tableau simplex.

Solves  minimize c.x  subject to  A x <= b,  x >= 0  in exact arithmetic.

The tableau is kept as an integer matrix T plus a positive integer
denominator `den`: the rational tableau is T/den.  A pivot on entry (r, s)
replaces every other row i by (T[r,s]*T[i] - T[i,s]*T[r]) / den (the division
is exact: tableau entries scaled by the basis determinant are integers, and
den tracks that determinant), then sets den = T[r,s].  Entries stay small in
practice, so the tableau lives in an int64 numpy array; if magnitudes ever
approach overflow it is promoted to an exact big-integer (object dtype)
array and the run continues unchanged.

Input contract: c, A and b hold integers only: Python or numpy ints, in
lists or integer numpy arrays, with big ints in object arrays; A has shape
(len(b), len(c)).  Any other entry (a Fraction, a float, a string) raises
LpError.  The tableau starts as int64 when every entry is at most
_INT64_SAFE in magnitude, and as an object (big-int) array otherwise.

Pivot rules: Dantzig (most negative reduced cost) by default, with
deterministic index tie-breaks.  More than _DEGENERATE_RUN degenerate pivots
in a row switch to Bland's rule, which holds until the objective strictly
improves or phase 2 starts; each Bland stretch terminates and a strict
improvement never revisits a basis, so the hybrid terminates.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

_INT64_SAFE = 1 << 30  # entries above this trigger promotion to exact big ints
_DEGENERATE_RUN = 150
_MAX_PIVOTS = 500_000


class LpError(RuntimeError):
    pass


class LpInfeasible(LpError):
    pass


class LpUnbounded(LpError):
    pass


def _integer_array(v, shape) -> np.ndarray:
    """v as an integer array of the given shape: numpy ints as they are, anything
    else as Python ints in an object array.  LpError on a non-integer entry."""
    a = np.asarray(v)
    if a.dtype.kind not in "bi":
        vals = a.ravel().tolist()
        bad = next((x for x in vals if not isinstance(x, (int, np.integer))), None)
        if bad is not None:
            raise LpError(f"LP entries must be integers, got {bad!r}")
        a = np.array([int(x) for x in vals], dtype=object)
    return a.reshape(shape)


def solve_min(c: Sequence[int], A: Sequence[Sequence[int]] | np.ndarray, b: Sequence[int]):
    """Exact simplex.  Returns (optimal value, x) as Fractions.

    Raises LpInfeasible / LpUnbounded accordingly.
    """
    n = len(c)
    m = len(b)
    c_int = _integer_array(c, n).tolist()
    Ab = np.hstack([_integer_array(A, (m, n)), _integer_array(b, (m, 1))])
    big = (max(map(abs, c_int), default=0) > _INT64_SAFE
           or Ab.min(initial=0) < -_INT64_SAFE or Ab.max(initial=0) > _INT64_SAFE)

    # rows with a negative rhs are negated into >= rows and get artificials
    neg = Ab[:, n] < 0
    art_rows = np.nonzero(neg)[0]
    n_art = len(art_rows)
    art_cols = np.arange(n + m, n + m + n_art)

    width = n + m + n_art + 1
    rhs_col = width - 1
    # rows 0..m-1 constraints, row m real objective, row m+1 phase-1 objective
    T = np.zeros((m + 2, width), dtype=object if big else np.int64)
    T[:m, :n] = Ab[:, :n]
    T[:m, rhs_col] = Ab[:, n]
    T[art_rows] = -T[art_rows]
    T[m, :n] = c_int
    rows = np.arange(m)
    T[rows, n + rows] = np.where(neg, -1, 1)  # surplus on >= rows, slack otherwise
    T[art_rows, art_cols] = 1
    basis = n + rows
    basis[art_rows] = art_cols
    basis = basis.tolist()
    # phase-1 objective: sum of artificials, reduced against the artificial basis
    T[m + 1] = -T[art_rows].sum(axis=0)
    T[m + 1, art_cols] = 0

    den = 1
    enterable = np.ones(width, dtype=bool)
    enterable[rhs_col] = False
    enterable[art_cols] = False  # artificials never (re-)enter

    bland = False
    degen_run = 0
    pivots = 0

    def promote_if_needed():
        nonlocal T
        if T.dtype == np.int64 and int(np.abs(T).max(initial=0)) > _INT64_SAFE:
            T = T.astype(object)

    def pivot(r: int, s: int):
        nonlocal T, den, pivots
        piv = int(T[r, s])
        if piv <= 0:
            raise AssertionError(f"pivot entry {piv} is not positive")
        promote_if_needed()
        col = T[:, s].copy()
        row = T[r, :].copy()
        if piv == den:
            # rows with a zero multiplier are unchanged; update only the rest
            nz = np.nonzero(col)[0]
            sub = T[nz, :] * piv
            sub -= np.outer(col[nz], row)
            sub //= den
            T[nz, :] = sub
        else:
            T *= piv
            T -= np.outer(col, row)
            T //= den
        T[r, :] = row
        den = piv
        basis[r] = s
        pivots += 1

    def choose_entering(obj_row: int, active_cols: np.ndarray) -> int | None:
        row = T[obj_row, :]
        neg = active_cols & (row < 0)
        if not neg.any():
            return None
        if bland:
            return int(np.nonzero(neg)[0][0])
        vals = np.where(active_cols, row, 0)
        return int(np.argmin(vals))

    def choose_leaving(s: int, nrows: int) -> int | None:
        col = T[:nrows, s]
        cand = np.nonzero(col > 0)[0]
        best_i = None
        bn = bd = None  # best ratio bn/bd
        for i in cand:
            i = int(i)
            a = int(col[i])
            r_num = int(T[i, rhs_col])
            if best_i is None or r_num * bd < bn * a or (
                r_num * bd == bn * a and basis[i] < basis[best_i]
            ):
                best_i, bn, bd = i, r_num, a
        return best_i

    def run_phase(obj_row: int, active_cols: np.ndarray, nrows: int):
        # Dantzig by default; a long degenerate run switches to Bland's rule,
        # which stays on only until the objective strictly improves (each
        # Bland stretch terminates on its own, and strict improvements can
        # never revisit a basis, so the hybrid terminates).
        nonlocal bland, degen_run
        bland_ref = None
        while True:
            if pivots > _MAX_PIVOTS:
                raise LpError("pivot limit exceeded")
            if bland and Fraction(int(T[obj_row, rhs_col]), den) != bland_ref:
                bland = False
                degen_run = 0
            s = choose_entering(obj_row, active_cols)
            if s is None:
                return
            r = choose_leaving(s, nrows)
            if r is None:
                raise LpUnbounded("LP is unbounded")
            if int(T[r, rhs_col]) == 0:
                degen_run += 1
                if degen_run > _DEGENERATE_RUN and not bland:
                    bland = True
                    bland_ref = Fraction(int(T[obj_row, rhs_col]), den)
            else:
                degen_run = 0
            pivot(r, s)

    # ---- phase 1 ----
    if n_art:
        run_phase(m + 1, enterable, m)
        if int(T[m + 1, rhs_col]) != 0:
            raise LpInfeasible("no feasible point")
        # drive any degenerate artificials out of the basis
        art_set = set(art_cols.tolist())
        drop_rows = []
        for i in range(m):
            if basis[i] in art_set:
                s = None
                for j in range(n + m):
                    if enterable[j] and T[i, j] != 0:
                        s = j
                        break
                if s is None:
                    drop_rows.append(i)  # redundant row
                    continue
                if int(T[i, s]) < 0:
                    # rhs is 0 here, so negating the row is harmless
                    T[i, :] = -T[i, :]
                pivot(i, s)
        if drop_rows:
            keep = [i for i in range(m) if i not in set(drop_rows)]
            T = np.vstack([T[keep, :], T[m:, :]])
            basis = [basis[i] for i in keep]
            m = len(keep)

    # ---- phase 2 ----
    run_phase(m, enterable, m)

    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(int(T[i, rhs_col]), den)
    value = sum((cj * xj for cj, xj in zip(c_int, x)), Fraction(0))
    return value, x
