import pytest
from hypothesis import given, settings, strategies as st

from sumbox.field import FieldError, field_construct, parse_field_name, is_prime


def test_is_prime():
    primes = [2, 3, 5, 7, 11, 13, 101]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(n) for n in [0, 1, 4, 6, 9, 15, 100])


def test_prime_field_basics():
    f = field_construct(5)
    assert f.order == 5
    assert f.add(3, 4) == 2
    assert f.mul(3, 4) == 2
    assert f.neg(2) == 3
    assert f.inv(3) == 2
    assert f.sub(1, 4) == 2


def test_canonical_modulus_f4():
    # lex-smallest monic irreducible of degree 2 over F_2 is x^2 + x + 1
    f = field_construct(2, 2)
    assert f.modulus == (1, 1, 1)


def test_canonical_modulus_f8():
    # x^3 + x^2 + 1 = (1,0,1,1) precedes x^3 + x + 1 = (1,1,0,1) in
    # low-to-high coefficient order
    f = field_construct(2, 3)
    assert f.modulus == (1, 0, 1, 1)


def test_parse_field_name():
    assert parse_field_name("F8").order == 8
    assert parse_field_name("F9").p == 3
    with pytest.raises(FieldError):
        parse_field_name("F12")
    with pytest.raises(FieldError):
        parse_field_name("8")


def test_element_coeffs_roundtrip():
    f = field_construct(3, 2)
    for a in f.elements():
        assert f.element(f.coeffs(a)) == a


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 1), (3, 1), (2, 3), (5, 2), (7, 1)]),
       st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
def test_field_axioms(pr, x, y, z):
    f = field_construct(*pr)
    a, b, c = x % f.order, y % f.order, z % f.order
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == 0
    if a:
        assert f.mul(a, f.inv(a)) == 1


def test_pow_matches_repeated_mul():
    f = field_construct(2, 4)
    for a in range(1, f.order):
        acc = 1
        for e in range(5):
            assert f.pow(a, e) == acc
            acc = f.mul(acc, a)


def test_order_guard():
    with pytest.raises(FieldError):
        field_construct(2, 21)


def test_check_bounds():
    f = field_construct(2, 3)
    for a in f.elements():
        assert f.check(a) == a
    with pytest.raises(FieldError):
        f.check(8)
    with pytest.raises(FieldError):
        f.check(-1)
