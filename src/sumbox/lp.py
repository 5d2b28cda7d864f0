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

Pivot rules: Dantzig (most negative reduced cost) by default, with
deterministic index tie-breaks; after a long run of degenerate pivots the
solver switches permanently to Bland's rule, which guarantees termination.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
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


def _clear_denominators(fr: list[Fraction]) -> list[int]:
    """Scale a rational vector by the lcm of its denominators."""
    mult = lcm(*(f.denominator for f in fr))
    return [int(f * mult) for f in fr]


def solve_min(c: Sequence, A: Sequence[Sequence], b: Sequence, *, max_pivots: int = _MAX_PIVOTS):
    """Exact simplex.  Returns (optimal value, x) as Fractions.

    Raises LpInfeasible / LpUnbounded accordingly.
    """
    n = len(c)
    m = len(A)
    cf = [Fraction(v) for v in c]
    rows = [_clear_denominators([Fraction(v) for v in (*row, rhs)]) for row, rhs in zip(A, b)]
    Ai = [r[:-1] for r in rows]
    bi = [r[-1] for r in rows]

    # normalize rows to nonnegative rhs; >= rows (after negation) get artificials
    art_rows = []
    for i in range(m):
        if bi[i] < 0:
            Ai[i] = [-v for v in Ai[i]]
            bi[i] = -bi[i]
            art_rows.append(i)
    n_art = len(art_rows)
    art_col_of_row = {}
    for a_idx, i in enumerate(art_rows):
        art_col_of_row[i] = n + m + a_idx

    width = n + m + n_art + 1
    rhs_col = width - 1
    # rows 0..m-1 constraints, row m real objective, row m+1 phase-1 objective
    T = np.zeros((m + 2, width), dtype=np.int64)
    for j, v in enumerate(_clear_denominators(cf)):
        T[m, j] = v
    basis = [0] * m
    for i in range(m):
        for j, v in enumerate(Ai[i]):
            T[i, j] = v
        T[i, rhs_col] = bi[i]
        if i in art_col_of_row:
            T[i, n + i] = -1          # surplus
            T[i, art_col_of_row[i]] = 1
            basis[i] = art_col_of_row[i]
        else:
            T[i, n + i] = 1           # slack
            basis[i] = n + i
    # phase-1 objective: sum of artificials, reduced against the artificial basis
    for i in art_rows:
        T[m + 1, :] -= T[i, :]
    for i in art_rows:
        T[m + 1, art_col_of_row[i]] += 1

    den = 1
    enterable = np.ones(width, dtype=bool)
    enterable[rhs_col] = False
    for i in art_rows:
        enterable[art_col_of_row[i]] = False  # artificials never (re-)enter

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
            if pivots > max_pivots:
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
        art_set = set(art_col_of_row.values())
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
        for j in art_set:
            enterable[j] = False

    # ---- phase 2 ----
    run_phase(m, enterable, m)

    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(int(T[i, rhs_col]), den)
    value = sum((cj * xj for cj, xj in zip(cf, x)), Fraction(0))
    return value, x
