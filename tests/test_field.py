from itertools import product

import mat_reference as ref
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sumbox.field import (FieldError, _is_irreducible, _lex_smallest_irreducible, _poly_mod,
                          field_construct, is_prime, parse_decimal)
from sumbox.vecops import field_ops


def test_is_prime():
    primes = [2, 3, 5, 7, 11, 13, 101]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(n) for n in [0, 1, 4, 6, 9, 15, 100])


def test_parse_decimal_reads_ascii_digits():
    assert [parse_decimal(t) for t in ("0", "7", "007", "1048576")] == [0, 7, 7, 1048576]


# int() takes a sign, underscores, blanks and non-ASCII digits; an integer
# token of a command line, problem file or scheme file is ASCII digits only
@pytest.mark.parametrize("token", ["1_6", "+4", " 4", "4 ", "\u0664", "", "-1", "x", "4.0"])
def test_parse_decimal_refuses_malformed_tokens(token):
    with pytest.raises(ValueError, match="not a decimal integer"):
        parse_decimal(token)


@pytest.mark.parametrize("p, r, error", [
    (6, 1, "p = 6 is not prime"), (1, 1, "p = 1 is not prime"),
    (4, 1, "p = 4 is not prime"), (2, 0, "r = 0 must be >= 1"),
])
def test_field_construct_refuses_a_non_prime_power(p, r, error):
    with pytest.raises(FieldError, match=error):
        field_construct(p, r)


def test_prime_field_basics():
    f = field_construct(5)
    ops = field_ops(f)
    assert f.order == 5
    assert ops.add(np.array([3]), np.array([4])).tolist() == [2]
    assert ops.mul_scalar(3, np.array([4])).tolist() == [2]
    # a - b is a + (p - 1) * b
    assert ops.add(np.array([0]), ops.mul_scalar(4, np.array([2]))).tolist() == [3]
    assert ops.inv(3) == 2
    assert ops.add(np.array([1]), ops.mul_scalar(4, np.array([4]))).tolist() == [2]


def test_canonical_modulus_f4():
    # lex-smallest monic irreducible of degree 2 over F_2 is x^2 + x + 1
    f = field_construct(2, 2)
    assert f.modulus == (1, 1, 1)


def test_canonical_modulus_f8():
    # x^3 + x^2 + 1 = (1,0,1,1) precedes x^3 + x + 1 = (1,1,0,1) in
    # low-to-high coefficient order
    f = field_construct(2, 3)
    assert f.modulus == (1, 0, 1, 1)


def _monic(p, d):
    return (low + (1,) for low in product(range(p), repeat=d))


def _irreducible_by_full_trial_division(m, p):
    return len(m) == 2 or all(_poly_mod(m, h, p)
                              for d in range(1, (len(m) - 1) // 2 + 1) for h in _monic(p, d))


def _small_orders(bound):
    return [(p, r) for p in filter(is_prime, range(2, bound + 1))
            for r in range(1, bound.bit_length()) if p ** r <= bound]


def test_modulus_search_skips_only_multiples_of_x():
    # the search starts at c_0 = 1, as a zero constant term means a factor x;
    # it finds the modulus of the full lex-order enumeration for every p^r <= 2^12
    for p, r in _small_orders(1 << 12):
        full = next(m for m in _monic(p, r) if _irreducible_by_full_trial_division(m, p))
        assert _lex_smallest_irreducible(p, r) == full, (p, r)


def test_irreducibility_skips_only_divisors_divisible_by_x():
    # trial division leaves out divisors with a zero constant term; every
    # monic polynomial of order p^r <= 2^8 is classified as by all divisors
    for p, r in _small_orders(1 << 8):
        for m in _monic(p, r):
            assert _is_irreducible(m, p) == _irreducible_by_full_trial_division(m, p), (p, m)


def test_element_coeffs_roundtrip():
    f = field_construct(3, 2)
    for a in range(f.order):
        assert ref.element(f, f.coeffs(a)) == a


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 1), (3, 1), (2, 3), (5, 2), (7, 1)]),
       st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
def test_field_axioms(pr, x, y, z):
    f = field_construct(*pr)
    a, b, c = x % f.order, y % f.order, z % f.order
    add, mul = (lambda u, v: ref.add(f, u, v)), (lambda u, v: ref.mul_direct(f, u, v))
    assert add(a, b) == add(b, a)
    assert mul(a, b) == mul(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, ref.neg(f, a)) == 0
    if a:
        assert mul(a, ref.inv(f, a)) == 1
    # the kernels agree with the reference
    ops, A, B = field_ops(f), np.array([a]), np.array([b])
    assert ops.add(A, B).tolist() == [add(a, b)]
    assert ops.add(A, ops.mul_scalar(f.p - 1, B)).tolist() == [ref.sub(f, a, b)]
    assert ops.mul_scalar(A, B).tolist() == [mul(a, b)]
    if a:
        assert ops.inv(a) == ref.inv(f, a)


def test_pow_matches_repeated_mul():
    f = field_construct(2, 4)
    ops = field_ops(f)
    for a in range(1, f.order):
        acc = 1
        for e in range(5):
            assert ref.power(f, a, e) == acc
            acc = int(ops.mul_scalar(acc, a))
    with pytest.raises(FieldError, match="negative exponent"):
        ref.power(f, 3, -1)


def test_order_guard():
    with pytest.raises(FieldError):
        field_construct(2, 21)


def test_check_bounds():
    f = field_construct(2, 3)
    for a in range(f.order):
        assert f.check(a) == a
    with pytest.raises(FieldError):
        f.check(8)
    with pytest.raises(FieldError):
        f.check(-1)
