"""Per-element reference for sumbox.field's arithmetic and sumbox.matrix,
used by the tests only.

A matrix here is a list of rows of ints.  Sums go digit-wise through
`Field.coeffs` and `element`, products through the polynomial multiply
`mul_direct` and inverses through `power`, so nothing shares the log/exp
tables or the numpy kernels under test.  The elimination is the one `Mat`
had before it moved onto arrays: pivot on the first nonzero entry top-down,
columns left to right.
"""

from sumbox.field import FieldError, _poly_mod, _poly_trim
from sumbox.matrix import MatrixError


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def element(f, coeffs):
    """The element of f with coefficient vector coeffs, low-to-high."""
    cs = list(coeffs)
    if len(cs) > f.r:
        raise FieldError(f"too many coefficients for {f.name}")
    return sum(int(c) % f.p * f.p ** i for i, c in enumerate(cs))


def mul_direct(f, a, b):
    """a * b by polynomial multiplication modulo f's modulus."""
    if f.r == 1:
        return (a * b) % f.p
    prod = _poly_mul(f.coeffs(a), f.coeffs(b), f.p)
    return element(f, _poly_mod(prod, f.modulus, f.p))


def power(f, a, e):
    """a^e, e >= 0, by squaring on `mul_direct`; it shares nothing with the tables."""
    f.check(a)
    if e < 0:
        raise FieldError(f"negative exponent {e}")
    out = 1
    base = a
    while e:
        if e & 1:
            out = mul_direct(f, out, base)
        base = mul_direct(f, base, base)
        e >>= 1
    return out


def add(f, a, b):
    return element(f, (x + y for x, y in zip(f.coeffs(a), f.coeffs(b))))


def neg(f, a):
    return element(f, (-c for c in f.coeffs(a)))


def sub(f, a, b):
    return add(f, a, neg(f, b))


def inv(f, a):
    """1/a for a != 0: a^(q-2)."""
    return power(f, a, f.order - 2)


def mul(f, a, b, cols):
    """a (m x n) times b (n x cols)."""
    out = []
    for row in a:
        out.append([])
        for j in range(cols):
            acc = 0
            for x, brow in zip(row, b):
                acc = add(f, acc, mul_direct(f, x, brow[j]))
            out[-1].append(acc)
    return out


def transpose(a, cols):
    return [[row[j] for row in a] for j in range(cols)]


def echelon(f, grid, reduced=False):
    """(row echelon grid, pivot columns, det) of grid."""
    a = [row[:] for row in grid]
    m, n = len(a), len(a[0]) if a else 0
    pivots, det, prow = [], 1, 0
    for col in range(n):
        piv = next((i for i in range(prow, m) if a[i][col]), None)
        if piv is None:
            continue
        if piv != prow:
            a[prow], a[piv] = a[piv], a[prow]
            det = neg(f, det)
        pv = a[prow][col]
        det = mul_direct(f, det, pv)
        pinv = inv(f, pv)
        a[prow] = [mul_direct(f, pinv, v) for v in a[prow]]
        for i in range(m) if reduced else range(prow + 1, m):
            if i != prow and a[i][col]:
                c = a[i][col]
                a[i] = [sub(f, vi, mul_direct(f, c, vp)) for vi, vp in zip(a[i], a[prow])]
        pivots.append(col)
        prow += 1
        if prow == m:
            break
    return a, pivots, det


def rank(f, a):
    return len(echelon(f, a)[1])


def det(f, a):
    _, pivots, d = echelon(f, a)
    return d if len(pivots) == len(a) else 0


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def left_inverse(f, a, cols):
    grid, pivots, _ = echelon(f, hstack(a, identity(len(a))), reduced=True)
    if len([p for p in pivots if p < cols]) < cols:
        raise MatrixError("rank deficient: no left inverse")
    return [row[cols:] for row in grid[:cols]]


def right_inverse(f, a, cols):
    return transpose(left_inverse(f, transpose(a, cols), len(a)), cols)


def select_columns(a, idx):
    return [[row[j - 1] for j in idx] for row in a]


def hstack(*mats):
    return [sum(rows, []) for rows in zip(*mats)]


def block_diag(blocks):
    """blocks: (grid, cols) pairs."""
    width = sum(c for _, c in blocks)
    out, c0 = [], 0
    for grid, cols in blocks:
        out += [[0] * c0 + row + [0] * (width - c0 - cols) for row in grid]
        c0 += cols
    return out


def to_text(f, a, cols):
    lines = [f"{len(a)} {cols} {f.name}"]
    for row in a:
        lines.append(" ".join("[" + ",".join(map(str, f.coeffs(v))) + "]" for v in row))
    return "\n".join(lines)
