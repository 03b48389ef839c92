import pytest

from cycloskew import (
    a2_2b2_rep,
    build_field,
    class_of,
    prime_power_decompose,
    two_is_quartic_residue,
    two_squares_rep,
    x2_4y2_rep,
)
from cycloskew.constructions import prime_powers
from cycloskew.errors import NotOneMod4, NotPrimePower, OrderDoesNotDivide


def test_prime_power_decompose():
    assert prime_power_decompose(125) == (5, 3)
    assert prime_power_decompose(13) == (13, 1)
    assert prime_power_decompose(51529) == (227, 2)
    with pytest.raises(NotPrimePower):
        prime_power_decompose(12)
    with pytest.raises(NotPrimePower):
        prime_power_decompose(1)


def test_two_squares_gf13(gf13, gf13_7):
    assert two_squares_rep(gf13) == (-3, -2)
    assert two_squares_rep(gf13_7) == (-3, 2)


def test_two_squares_gf29():
    f = build_field(29)
    s, t = two_squares_rep(f)
    assert s == 5 and abs(t) == 2


def test_two_squares_degenerate(gf9, gf81):
    assert two_squares_rep(gf9) == (-3, 0)
    assert two_squares_rep(gf81) == (9, 0)


def test_two_squares_requires_1_mod_4():
    with pytest.raises(NotOneMod4):
        two_squares_rep(build_field(7))


def test_x2_4y2_examples():
    assert x2_4y2_rep(361, 19, 2) == (-19, 0)
    assert x2_4y2_rep(89, 89, 1) == (5, 4)
    assert x2_4y2_rep(41, 41, 1) == (5, 2)
    assert x2_4y2_rep(625, 5, 4) == (-7, 12)  # proper representation avoids 25


def test_a2_2b2_examples():
    assert a2_2b2_rep(361, 19, 2) == (17, 6)
    assert a2_2b2_rep(89, 89, 1) == (9, 2)
    assert a2_2b2_rep(41, 41, 1) == (-3, 4)
    assert a2_2b2_rep(729, 3, 6) == (-23, 10)  # 21^2 + 2*12^2 is improper
    assert a2_2b2_rep(625, 5, 4) == (25, 0)


def test_quartic_residues(gf13, gf17, gf81):
    assert class_of(gf81, 4, gf81.element(2)) == 0
    assert class_of(gf13, 4, 3) == 0  # 3 = 2^4
    # exponent-table oracle: 2 = 3^k in GF(17)
    cur, k = 1, 0
    while cur != 2:
        cur = cur * 3 % 17
        k += 1
    assert k == 14 and k % 4 != 0
    assert class_of(gf17, 4, 2) != 0
    with pytest.raises(OrderDoesNotDivide):
        class_of(build_field(7), 4, 2)


def test_two_is_quartic_residue_needs_no_generator():
    # the fourth powers are the one subgroup of index 4, so the arithmetic
    # test agrees with the discrete log under any generator
    for q, p, m in prime_powers(5, 3000):
        if q % 4 != 1:
            continue
        f = build_field(p, m)
        other = f.with_generator(int(f.generator_codes()[1]))
        expect = two_is_quartic_residue(q, p)
        assert (class_of(f, 4, 2) == 0) == expect == (class_of(other, 4, 2) == 0), q
    for q, p in ((7, 7), (27, 3), (11**3, 11)):
        with pytest.raises(OrderDoesNotDivide):
            two_is_quartic_residue(q, p)


def test_representation_invariants():
    for q, p, m in prime_powers(5, 200):
        if q % 4 != 1:
            continue
        field = build_field(p, m)
        s, t = two_squares_rep(field)
        assert s * s + t * t == q
        assert s % 4 == 1
        if p % 4 == 1:
            assert s % p != 0
            # defining congruence: t * g^((q-1)/4) = s (mod p)
            i = int(field.exp[(q - 1) // 4])
            assert (t * i - s) % p == 0
        x, y = x2_4y2_rep(q, p, m)
        assert x * x + 4 * y * y == q and x % 4 == 1 and y >= 0
        if p % 8 in (1, 3) or m % 2 == 0:
            a, b = a2_2b2_rep(q, p, m)
            assert a * a + 2 * b * b == q and a % 4 == 1 and b >= 0


def test_generator_equivariance():
    # another generator can only flip the sign of t
    for q, p, m in prime_powers(5, 200):
        if q % 4 != 1:
            continue
        base = build_field(p, m)
        s0, t0 = two_squares_rep(base)
        for g in base.generator_codes():
            s, t = two_squares_rep(base.with_generator(int(g)))
            assert s == s0 and abs(t) == abs(t0)
