"""Full-tableau reference for sumbox.lp, used by the tests only.

This is the simplex sumbox.lp ran before its tableau kept only the nonbasic
columns.  Every variable has a column here: the LP's n variables, a slack
(a surplus on a row negated into >= form) per row and an artificial per
negated row, then the right-hand side and the row denominators.  The pivot
rules are the ones sumbox.lp states: Dantzig and Bland's rule pick the least
column index, which is the least variable index, and the ratio test breaks
ties by the index of the leaving variable.  So both take the same pivots and
return the same (value, x, y).  A row left with a basic artificial and no
nonzero to drive it out on would be dropped here; sumbox.lp shows that no
such row exists.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from sumbox.lp import LpError, LpInfeasible, LpUnbounded, PivotLimitExceeded

_INT64_SAFE = 1 << 30
_GCD_THRESHOLD = 1 << 12
_DEGENERATE_RUN = 150
_MAX_PIVOTS = 500_000


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
    """Exact simplex.  Returns (optimal value, x, y) as Fractions: x an optimal
    point and y the optimal dual point (one entry per row of A, y <= 0,
    A^T y <= c, b.y = optimal value).

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

    width = n + m + n_art + 2
    rhs_col = width - 2
    den_col = width - 1  # the row denominators d_i
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
    T[:, den_col] = 1
    if T.dtype == np.int64 and max(T.max(), -T.min()) > _INT64_SAFE:
        T = T.astype(object)

    # Pivot scratch of T's shape, reused by every pivot: blocks allocated per
    # pivot map fresh pages whenever one outgrows the last (100k page faults
    # on a first (6,4,2) capacity LP), and one block of twice T's size left
    # later allocations on the heap once freed (+5.8 MB peak RSS on simulate).
    work = [np.empty_like(T), np.empty_like(T)]

    enterable = np.ones(width, dtype=bool)
    enterable[rhs_col:] = False
    enterable[art_cols] = False  # artificials never (re-)enter

    bland = False
    degen_run = 0
    pivots = 0

    def pivot(r: int, s: int):
        nonlocal T, work, pivots
        row = T[r].copy()
        piv = int(row[s])
        if piv <= 0:
            raise AssertionError(f"pivot entry {piv} is not positive")
        row[den_col] = 0  # so that the update multiplies each d_i by piv
        T[r, s] = 0       # so that row r is not among the rows updated
        nz = T[:, s].nonzero()[0]
        sub, prod = work[0][:len(nz)], work[1][:len(nz)]
        np.take(T, nz, axis=0, out=sub, mode="clip")
        sub *= piv
        np.multiply(T[nz, s][:, None], row, out=prod)
        sub -= prod
        top = max(sub.max(initial=0), -sub.min(initial=0))
        if top > _GCD_THRESHOLD:
            sub //= np.gcd.reduce(sub, axis=1)[:, None]
            if top > _INT64_SAFE:
                top = max(sub.max(), -sub.min())
        if top > _INT64_SAFE and T.dtype == np.int64:
            T = T.astype(object)
            work = [np.empty_like(T), np.empty_like(T)]
        T[nz] = sub
        row[den_col] = piv
        T[r] = row
        basis[r] = s
        pivots += 1

    def choose_entering(obj_row: int, active_cols: np.ndarray) -> int | None:
        row = T[obj_row]
        if bland:
            neg = np.flatnonzero(active_cols & (row < 0))
            return int(neg[0]) if len(neg) else None
        vals = np.where(active_cols, row, 0)
        s = int(vals.argmin())
        return s if vals[s] < 0 else None

    def choose_leaving(s: int, nrows: int) -> int | None:
        col = T[:nrows, s]
        cand = (col > 0).nonzero()[0].tolist()
        col = col.tolist()
        rhs = T[:nrows, rhs_col].tolist()
        best_i = None
        bn = bd = None  # best ratio bn/bd
        for i in cand:
            a, r_num = col[i], rhs[i]
            if best_i is None or r_num * bd < bn * a or (
                r_num * bd == bn * a and basis[i] < basis[best_i]
            ):
                best_i, bn, bd = i, r_num, a
        return best_i

    def objective(obj_row: int) -> Fraction:
        return Fraction(-int(T[obj_row, rhs_col]), int(T[obj_row, den_col]))

    def run_phase(obj_row: int, active_cols: np.ndarray, nrows: int):
        # Dantzig by default; a long degenerate run switches to Bland's rule,
        # which stays on only until the objective strictly improves (each
        # Bland stretch terminates on its own, and strict improvements can
        # never revisit a basis, so the hybrid terminates).
        nonlocal bland, degen_run
        bland_ref = None
        while True:
            if pivots > _MAX_PIVOTS:
                raise PivotLimitExceeded("pivot limit exceeded")
            if bland and objective(obj_row) != bland_ref:
                bland = False
                degen_run = 0
            s = choose_entering(obj_row, active_cols)
            if s is None:
                return
            r = choose_leaving(s, nrows)
            if r is None:
                raise LpUnbounded("LP is unbounded")
            if T[r, rhs_col] == 0:
                degen_run += 1
                if degen_run > _DEGENERATE_RUN and not bland:
                    bland = True
                    bland_ref = objective(obj_row)
            else:
                degen_run = 0
            pivot(r, s)

    # ---- phase 1 ----
    if n_art:
        run_phase(m + 1, enterable, m)
        if T[m + 1, rhs_col] != 0:
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
                if T[i, s] < 0:
                    # rhs is 0 here, so negating the row is harmless
                    T[i, :den_col] = -T[i, :den_col]
                pivot(i, s)
        if drop_rows:
            keep = [i for i in range(m) if i not in set(drop_rows)]
            T = np.vstack([T[keep, :], T[m:, :]])
            basis = [basis[i] for i in keep]
            m = len(keep)

    # ---- phase 2 ----
    T = T[:m + 1]  # the phase-1 objective is not needed any more
    run_phase(m, enterable, m)

    rhs = T[:m, rhs_col].tolist()
    dens = T[:m, den_col].tolist()
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(rhs[i], dens[i])
    d_obj = int(T[m, den_col])
    y = [Fraction(-v, d_obj) for v in T[m, n:n + len(b)].tolist()]
    return objective(m), x, y
