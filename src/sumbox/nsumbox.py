"""N-sum-box transfer matrices.

An N-sum box is a classical channel y = M x with M an N x 2N matrix over
F_q that is strongly self-orthogonal: rank(M) = N and M J M^T = 0 where J is
the symplectic form [[0, -I], [I, 0]].  The boxes built here are also
half-MDS — every subset of n paired (left, right) columns spans
min(2n, N) dimensions — via a CSS-style assembly of a Generalized
Reed-Solomon generator with the generator of its dual code.  A box is its
transfer matrix: a Mat with N = M.rows, over the field M.field.
"""

from __future__ import annotations

import numpy as np

from .field import Field, parse_decimal
from .matrix import Mat, block_diag
from .vecops import field_ops


class BoxError(ValueError):
    pass


def grs_matrix(field: Field, alpha, u, k: int) -> Mat:
    """k x n generator with entry (i, j) = u_j * alpha_j^(i-1), n = len(alpha)."""
    ops = field_ops(field)
    out = np.empty((k, len(alpha)), dtype=np.int64)
    powers, alpha = np.array(u, dtype=np.int64), np.array(alpha, dtype=np.int64)
    for i in range(k):
        out[i] = powers
        powers = ops.mul_scalar(powers, alpha)
    return Mat(field, out)


def grs_dual_multipliers(field: Field, alpha, u) -> tuple[int, ...]:
    """Multipliers v making the dual of GRS(alpha, u) again GRS(alpha, v).

    v_i = ( u_i * prod_{j != i} (alpha_i - alpha_j) )^(-1).  For distinct
    alpha_i and nonzero u_i they are all nonzero, and
    GRS_{k,n}(alpha, u) . GRS_{n-k,n}(alpha, v)^T = 0 for every k.
    """
    n = len(alpha)
    ops = field_ops(field)
    a = np.array(alpha, dtype=np.int64)
    diff = ops.add(a[:, None], ops.neg(a[None, :]))  # alpha_i - alpha_j
    np.fill_diagonal(diff, 1)
    prod = np.array(u, dtype=np.int64)
    for j in range(n):
        prod = ops.mul_scalar(prod, diff[:, j])
    return tuple(ops.inv(prod).tolist())


def box_to_text(M: Mat) -> str:
    """The box text form: a "box N q" header, then the matrix."""
    return f"box {M.rows} {M.field.order}\n" + M.to_text()


def box_from_text(text: str, field: Field) -> Mat:
    """Inverse of box_to_text for a box over field; checks the header's N and q."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("box "):
        raise BoxError("missing box header")
    try:
        _, n, order = lines[0].split()
        n, order = parse_decimal(n), parse_decimal(order)
    except ValueError:
        raise BoxError(f"bad box header {lines[0]!r}") from None
    M = Mat.from_text("\n".join(lines[1:]), field)
    if M.rows != n or M.cols != 2 * n:
        raise BoxError(f"transfer matrix must be {n} x {2*n}")
    if order != field.order:
        raise BoxError("field order mismatch in box header")
    return M


def is_valid_box(M: Mat) -> bool:
    """Strong self-orthogonality: rank N and M J M^T = 0.

    For M = [L | R] with N x N blocks, M J M^T = R L^T - L R^T.
    """
    if M.cols != 2 * M.rows:
        raise BoxError(f"expected N x 2N matrix, got {M.rows} x {M.cols}")
    N = M.rows
    L, R = Mat._of(M.field, M.array[:, :N]), Mat._of(M.field, M.array[:, N:])
    return M.rank() == N and L * R.transpose() == R * L.transpose()


def build_half_mds_box(N: int, field: Field) -> Mat:
    """CSS-style box: top block a GRS generator, bottom block its dual's.

    M = [[GRS_{ceil(N/2)}(alpha, u), 0], [0, GRS_{floor(N/2)}(alpha, v)]]
    with alpha = the first N field elements in coefficient order, u = all
    ones, v the dual multipliers.  Requires q >= N.
    """
    if N < 1:
        raise BoxError("N must be >= 1")
    if field.order < N:
        raise BoxError(f"field order {field.order} < N = {N}")
    alpha = tuple(field.elements_lex(N))
    u = (1,) * N
    v = grs_dual_multipliers(field, alpha, u)
    k_top = (N + 1) // 2
    k_bot = N // 2
    top = grs_matrix(field, alpha, u, k_top)
    bot = grs_matrix(field, alpha, v, k_bot)
    return block_diag(field, [top, bot])
