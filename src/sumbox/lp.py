"""Exact rational LP by a row-scaled fraction-free simplex, condensed tableau.

Solves  minimize c.x  subject to  A x <= b,  x >= 0  in exact arithmetic.

Variables j < n are the LP's, n+i is row i's slack (a surplus on a row
negated into >= form) and n+m+k the k-th artificial.  The integer tableau T
keeps only the nonbasic columns, in n + n_art slots (var[slot] names each
slot's variable: at the start the LP's variables and the surpluses), then
the rhs and a positive denominator d_i per row; the rational row i is
T[i] / d_i.  A basic column, d_i in its own row and 0 elsewhere, is implied.

A pivot on entry (r, s) swaps var[s] with row r's basic variable.  Row r
keeps its integers and sets d_r = T[r,s]; every other row i with
T[i,s] != 0 becomes T[r,s]*T[i] - T[i,s]*T[r], with d_i *= T[r,s].  Slot s
then holds the leaving variable's column, d_r in row r and -T[i,s]*d_r in
row i, which the same update yields when row r's slot s holds T[r,s] + d_r.
A leaving artificial gets a zero column instead, and a zero column never
enters.  Rows with a zero in the pivot column are not touched.  The row
denominators cancel in the entering choice (one objective row) and in the
ratio test (rhs_i / T[i,s] lies in one row), so the pivot sequence is the
one a full tableau with a common denominator would take.

A pivot gathers the rows it updates into a scratch block, reads their
multipliers T[i,s] from that block's column s before scaling it, and forms
T[r,s]*T[i] - T[i,s]*T[r] in place; one pass over the absolute values of
the result bounds its entries.  Entries are kept small lazily: when an
entry of the rows a pivot just updated passes _GCD_THRESHOLD, each of those
rows is divided by the gcd of its entries and its denominator.  An int64
tableau keeps its entries at most _INT64_SAFE in magnitude, so a pivot's
products cannot overflow; when an updated row still passes that bound after
its gcd division, the tableau is promoted to an exact big-integer (object
dtype) array and the run goes on.

Input contract: c, A and b hold integers only: Python or numpy ints, in
lists or integer numpy arrays, with big ints in object arrays; A has shape
(len(b), len(c)).  Any other entry (a Fraction, a float, a string) raises
LpError.  The tableau starts as int64 when every entry is at most
_INT64_SAFE in magnitude, and as an object (big-int) array otherwise.

Dual: the objective row m holds the reduced costs c_j - (A^T y)_j, and
slack n+i has cost 0 and column e_i (a surplus keeps s_i = b_i - A_i x), so
y_i = -T[m, slot of n+i] / d_m, or 0 when n+i is basic.  At an optimum
y <= 0, A^T y <= c and b.y is the optimal value, -T[m, rhs] / d_m.  Both
points are read off the final tableau as integers over their least common
denominators, with no Fraction per entry: x_j is rhs_i / d_i on the row
where j is basic, each ratio reduced and scaled to L, the lcm of the reduced
d_i; y's numerators -T[m, slot of n+i] and d_m are divided by their gcd.

Pivot rules: Dantzig (most negative reduced cost) by default.  More than
_DEGENERATE_RUN degenerate pivots in a row switch to Bland's rule until the
objective strictly improves or phase 2 starts; each Bland stretch terminates
and a strict improvement never revisits a basis, so the hybrid terminates.
Ties go to the least variable index (never the slot), in the ratio test to
the least index of the leaving variable.

Phase 1 drives each artificial still basic in a row i out on the slot of
least variable index with a nonzero in row i (negating the row, whose rhs
is 0, when that entry is negative).  Such a slot always exists, so no row is
redundant: row i of B^-1 is nonzero, a slack or surplus j with
(B^-1)_ij != 0 has the tableau entry +-(B^-1)_ij in row i, and so is
nonbasic, since a basic column is zero off its own row.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

import numpy as np

# int64 entries stay at most this in magnitude, so a pivot's products (below
# 2^61) cannot overflow; an entry above it promotes the tableau to big ints
_INT64_SAFE = 1 << 30
_GCD_THRESHOLD = 1 << 12  # updated rows with an entry above this are gcd-reduced
_DEGENERATE_RUN = 150
_MAX_PIVOTS = 500_000


class LpError(RuntimeError):
    pass


class LpInfeasible(LpError):
    pass


class LpUnbounded(LpError):
    pass


class PivotLimitExceeded(LpError):
    """More than _MAX_PIVOTS pivots: a resource limit, not a wrong input."""


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
    """Exact simplex.  Returns (value, (x, L), (y, d)): the optimal value as a
    Fraction, an optimal point x / L and the optimal dual point y / d (one
    entry per row of A, y <= 0, A^T y <= c, b.y = value).  x and y are lists
    of ints over their least common denominators L, d >= 1:
    gcd(L, *x) == gcd(d, *y) == 1.

    Raises LpInfeasible / LpUnbounded accordingly.
    """
    n = len(c)
    m = len(b)
    c_int = _integer_array(c, n).tolist()
    A_int = _integer_array(A, (m, n))
    b_int = _integer_array(b, m).tolist()
    # the largest magnitude of an input entry, checked per input
    top = max(*map(abs, c_int + b_int), -int(A_int.min(initial=0)), int(A_int.max(initial=0)))
    big = top > _INT64_SAFE

    # rows with a negative rhs are negated into >= rows and get artificials
    art_rows = np.array([i for i, v in enumerate(b_int) if v < 0], dtype=np.intp)
    n_art = len(art_rows)
    nvar = n + m + n_art
    slots = n + n_art
    rhs_col, den_col = slots, slots + 1  # den_col holds the row denominators d_i
    # rows 0..m-1 constraints, row m real objective, row m+1 phase-1 objective
    T = np.zeros((m + 2, slots + 2), dtype=object if big else np.int64)
    T[:m, :n] = A_int
    T[:m, rhs_col] = b_int
    T[art_rows] = -T[art_rows]
    T[art_rows, np.arange(n, slots)] = -1  # the surplus of each >= row
    T[m, :n] = c_int
    # phase-1 objective: sum of artificials, reduced against the artificial basis
    T[m + 1] = -T[art_rows].sum(axis=0)
    T[:, den_col] = 1
    # only the phase-1 row, a sum of n_art rows, can pass the bound: every
    # other entry is an input's or +-1
    if not big and n_art * top > _INT64_SAFE and np.abs(T[m + 1]).max() > _INT64_SAFE:
        T = T.astype(object)
    var = np.arange(slots)  # the variable in each slot
    var[n:] = n + art_rows
    basis = list(range(n, n + m))  # the basic variable of each row
    for j, i in enumerate(art_rows.tolist(), n + m):
        basis[i] = j

    # Pivot scratch of T's shape, reused by every pivot: blocks allocated per
    # pivot map fresh pages whenever one outgrows the last (100k page faults
    # on a first (6,4,2) capacity LP), and one block of twice T's size left
    # later allocations on the heap once freed (+5.8 MB peak RSS on simulate).
    work = [np.empty_like(T), np.empty_like(T)]

    bland = False
    degen_run = 0
    pivots = 0

    def pivot(r: int, s: int):
        nonlocal T, work, pivots
        row = T[r].copy()
        piv = int(row[s])
        if piv <= 0:
            raise AssertionError(f"pivot entry {piv} is not positive")
        # the leaving variable's new column in row r: d_r, or 0 for an artificial
        out = 0 if basis[r] >= n + m else int(row[den_col])
        row[s] = piv + out  # so that the update puts -T[i,s]*out in each row i
        row[den_col] = 0    # so that the update multiplies each d_i by piv
        T[r, s] = 0         # so that row r is not among the rows updated
        nz = T[:, s].nonzero()[0]
        sub, prod = work[0][:len(nz)], work[1][:len(nz)]
        T.take(nz, 0, out=sub, mode="clip")
        np.multiply(sub[:, s, None], row, out=prod)  # T[i,s] read before sub is scaled
        sub *= piv
        sub -= prod
        top = np.abs(sub, out=prod).max(initial=0)
        if top > _GCD_THRESHOLD:
            sub //= np.gcd.reduce(sub, axis=1)[:, None]
            if top > _INT64_SAFE:
                top = np.abs(sub, out=prod).max()
        if top > _INT64_SAFE and T.dtype == np.int64:
            T = T.astype(object)
            work = [np.empty_like(T), np.empty_like(T)]
        T[nz] = sub
        row[s], row[den_col] = out, piv
        T[r] = row
        basis[r], var[s] = int(var[s]), basis[r]
        pivots += 1

    def choose_entering(obj_row: int) -> int | None:
        row = T[obj_row, :slots]
        if not slots:
            return None
        # ties go to the least variable index (module docstring)
        key = np.where(row < 0, var, nvar) if bland else row * nvar + var
        s = int(key.argmin())
        return s if row[s] < 0 else None

    def choose_leaving(s: int) -> tuple[int | None, int | None]:
        """The leaving row and its ratio's numerator rhs_r, (None, None) if none."""
        col = T[:m, s]
        cand = (col > 0).nonzero()[0].tolist()
        col = col.tolist()
        rhs = T[:m, rhs_col].tolist()
        best_i = None
        bn = bd = None  # best ratio bn/bd
        for i in cand:
            a, r_num = col[i], rhs[i]
            if best_i is None or r_num * bd < bn * a or (
                r_num * bd == bn * a and basis[i] < basis[best_i]
            ):
                best_i, bn, bd = i, r_num, a
        return best_i, bn

    def objective(obj_row: int) -> tuple[int, int]:
        """The row's objective value as (numerator, positive denominator)."""
        return -int(T[obj_row, rhs_col]), int(T[obj_row, den_col])

    def run_phase(obj_row: int):
        # Dantzig by default; a long degenerate run switches to Bland's rule,
        # which stays on only until the objective strictly improves (each
        # Bland stretch terminates on its own, and strict improvements can
        # never revisit a basis, so the hybrid terminates).
        nonlocal bland, degen_run
        bland_ref = None
        while True:
            if pivots > _MAX_PIVOTS:
                raise PivotLimitExceeded("pivot limit exceeded")
            if bland:
                # off once the objective moved, and at the start of phase 2
                num, den = objective(obj_row)
                if bland_ref is None or num * bland_ref[1] != bland_ref[0] * den:
                    bland = False
                    degen_run = 0
            s = choose_entering(obj_row)
            if s is None:
                return
            r, rhs_r = choose_leaving(s)
            if r is None:
                raise LpUnbounded("LP is unbounded")
            if rhs_r == 0:
                degen_run += 1
                if degen_run > _DEGENERATE_RUN and not bland:
                    bland = True
                    bland_ref = objective(obj_row)
            else:
                degen_run = 0
            pivot(r, s)

    # ---- phase 1 ----
    if n_art:
        run_phase(m + 1)
        if T[m + 1, rhs_col] != 0:
            raise LpInfeasible("no feasible point")
        # drive any degenerate artificials out of the basis (module docstring)
        for i in range(m):
            if basis[i] >= n + m:
                key = np.where(T[i, :slots] != 0, var, nvar)
                s = int(key.argmin())
                if key[s] == nvar:
                    raise AssertionError(f"row {i} has no nonbasic entry to pivot on")
                if T[i, s] < 0:
                    # rhs is 0 here, so negating the row is harmless
                    T[i, :den_col] = -T[i, :den_col]
                pivot(i, s)

    # ---- phase 2 ----
    T = T[:m + 1]  # the phase-1 objective is not needed any more
    run_phase(m)

    # x_j = rhs_i / d_i on the row where j is basic, each ratio reduced and
    # scaled to L, the lcm of the reduced denominators
    rhs = T[:m, rhs_col].tolist()
    dens = T[:m, den_col].tolist()
    basic = []
    for i, j in enumerate(basis):
        if j < n:
            g = gcd(rhs[i], dens[i])
            basic.append((j, rhs[i] // g, dens[i] // g))
    L = lcm(*(den for _, _, den in basic))
    x = [0] * n
    for j, num, den in basic:
        x[j] = num * (L // den)
    reduced = np.zeros(nvar, dtype=T.dtype)  # basic variables' reduced costs are 0
    reduced[var] = T[m, :slots]
    y = (-reduced[n:n + m]).tolist()
    d_m = int(T[m, den_col])
    g = gcd(d_m, *y)
    num, den = objective(m)
    return Fraction(num, den), (x, L), ([v // g for v in y], d_m // g)
