"""Prime-power finite fields F_{p^r} and their extensions.

A Field describes its field; the arithmetic on elements, and the log/exp
tables it runs on, live in `vecops`.  Elements are plain ints in [0, p^r):
the integer sum(c_i * p^i) encodes the polynomial c_0 + c_1*x + ... +
c_{r-1}*x^{r-1} over F_p, reduced modulo a fixed monic irreducible
polynomial.  The modulus is always the lexicographically smallest monic
irreducible of the right degree (coefficients compared low-to-high), so
every downstream matrix is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Iterable, Sequence

MAX_ORDER = 1 << 20


class FieldError(ValueError):
    pass


class FieldOrderError(FieldError):
    """A field order above MAX_ORDER: a resource guard, not a malformed input."""


def parse_decimal(token: str) -> int:
    """A non-negative integer written in ASCII digits only; ValueError otherwise.

    The one reader for every integer taken from a command line, a problem
    file or a scheme file.  int() alone also takes a sign, underscores,
    surrounding blanks and non-ASCII digits (int('\u0664') == 4), so a
    malformed token would be read as some other number instead of refused.
    """
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"not a decimal integer: {token!r}")
    return int(token)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (coefficient tuples, low-to-high, no padding rules)

def _poly_trim(c: Sequence[int]) -> tuple[int, ...]:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mod(a: Sequence[int], m: Sequence[int], p: int) -> tuple[int, ...]:
    """Remainder of a modulo the monic polynomial m, over F_p."""
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1] % p
        if lead:
            shift = len(a) - 1 - dm
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * mi) % p
        a.pop()
    return _poly_trim(a)


def _not_divisible_by_x(p: int, d: int) -> Iterable[tuple[int, ...]]:
    """The monic polynomials of degree d >= 1 over F_p with a nonzero constant
    term, in lex order of (c_0, ..., c_{d-1}), c_0 most significant."""
    return (low + (1,) for low in product(range(1, p), *[range(p)] * (d - 1)))


def _is_irreducible(m: Sequence[int], p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg(m)/2; those
    divisible by x are left out, as they divide m only if x does."""
    deg = len(m) - 1
    if deg < 1 or m[-1] != 1:
        return False
    if deg == 1:
        return True
    if m[0] == 0:  # divisible by x
        return False
    return all(_poly_mod(m, h, p) for d in range(1, deg // 2 + 1) for h in _not_divisible_by_x(p, d))


def _lex_smallest_irreducible(p: int, r: int) -> tuple[int, ...]:
    """Lexicographically smallest (low-to-high coeffs) monic irreducible of degree r."""
    if r == 1:
        return (0, 1)  # x
    # a polynomial with c_0 = 0 is divisible by x, so the search starts at c_0 = 1
    return next(m for m in _not_divisible_by_x(p, r) if _is_irreducible(m, p))


@dataclass(unsafe_hash=True, slots=True)
class Field:
    """The finite field F_{p^r} with a fixed canonical modulus polynomial.

    Elements are ints in range(order).  The encoding of the polynomial
    sum c_i x^i is the integer sum c_i p^i; in particular 0 and 1 are the
    additive and multiplicative identities and (for r > 1) `p` encodes x.
    Two fields are equal when p and r are, as those fix the modulus.
    """

    p: int
    r: int = 1
    order: int = field(init=False, repr=False, compare=False)
    modulus: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # this field's vecops.VecOps, built on first use
    _ops: object = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        p, r = self.p, self.r
        if r < 1:
            raise FieldError(f"extension degree r = {r} must be >= 1")
        if p > MAX_ORDER or p ** min(r, MAX_ORDER.bit_length()) > MAX_ORDER:  # before is_prime(p)
            raise FieldOrderError(f"field order {p}^{r} exceeds bound {MAX_ORDER}")
        if not is_prime(p):
            raise FieldError(f"p = {p} is not prime")
        self.order = p ** r
        self.modulus = _lex_smallest_irreducible(p, r)

    @property
    def name(self) -> str:
        return f"F{self.order}"

    # -- element plumbing -----------------------------------------------------
    def check(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.order:
            raise FieldError(f"{a!r} is not an element of {self.name}")
        return a

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Length-r coefficient vector of a, low-to-high."""
        self.check(a)
        return tuple(a // self.p ** i % self.p for i in range(self.r))

    def elements_lex(self, n: int) -> list[int]:
        """The first n elements ordered by coefficient tuple, lexicographically
        low-to-high: the i-th is i with its r base-p digits reversed."""
        out = []
        for i in range(n):
            a = 0
            for _ in range(self.r):
                i, d = divmod(i, self.p)
                a = a * self.p + d
            out.append(a)
        return out


@lru_cache(maxsize=None)
def field_construct(p: int, r: int = 1) -> Field:
    """Canonical F_{p^r}: lexicographically smallest irreducible modulus, cached."""
    return Field(p, r)


# ---------------------------------------------------------------------------
# extensions


@dataclass(frozen=True)
class Extension:
    """A degree-z extension F_q of a base field F_d, q = d^z.

    The coding field is the canonical F_{p^(r*z)}; nothing maps F_d into it.
    A sum of F_d streams is carried by packing z base symbols a_0..a_{z-1}
    into the big-field int sum(a_j * d^j): both encodings are base-p digit
    strings and addition is digit-wise, so the F_q sum unpacks base d into
    the z F_d sums.
    """

    base: Field
    z: int
    big: Field = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.z < 1:
            raise FieldError(f"z = {self.z} must be >= 1")
        object.__setattr__(self, "big", field_construct(self.base.p, self.base.r * self.z))


@lru_cache(maxsize=None)
def extend_field(base: Field, z: int) -> Extension:
    return Extension(base, z)
