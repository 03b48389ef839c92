import itertools
import json
import operator
from math import gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cycloskew import build_field, default_poly
from cycloskew import field as field_module
from cycloskew.field import _build_tables, _is_irreducible, _is_primitive_poly, factorize, is_prime
from cycloskew.errors import (
    DivisionByZero,
    FieldTooLarge,
    NotPrime,
    NotPrimitiveElement,
    NotPrimitivePolynomial,
    ZeroHasNoLog,
)


def poly_mul_mod(a, b, poly, p):
    """Independent reduction oracle: coefficient lists, low degree first."""
    m = len(poly) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    for k in range(len(prod) - 1, m - 1, -1):
        c = prod[k]
        prod[k] = 0
        for i in range(m):
            prod[k - m + i] = (prod[k - m + i] - c * poly[i]) % p
    return prod[:m] + [0] * (m - len(prod[:m]))


def test_build_explicit_generators(gf13, gf13_7):
    assert gf13.generator == 2
    assert list(gf13.exp[:4]) == [1, 2, 4, 8]
    assert gf13_7.generator == 7
    assert list(gf13_7.exp[:3]) == [1, 7, 10]


def test_default_poly_is_deterministic():
    f1 = build_field(13)
    f2 = build_field(13)
    assert f1.spec == f2.spec
    # lexicographically smallest primitive polynomial of degree 2 over GF(3)
    assert default_poly(3, 2) == (2, 1, 1)


def test_gf9_alpha_squared(gf9):
    # alpha^2 reduces to 2*alpha + 1 modulo x^2 + x + 2
    alpha = 3
    assert gf9.mul(alpha, alpha) == 7
    oracle = poly_mul_mod([0, 1], [0, 1], [2, 1, 1], 3)
    assert oracle == [1, 2]  # code 1 + 2*3 = 7


def test_gf25_alpha_squared(gf25):
    oracle = poly_mul_mod([0, 1], [0, 1], [3, 2, 1], 5)
    code = oracle[0] + 5 * oracle[1]
    assert gf25.mul(5, 5) == code


def test_inverse_pair(gf13):
    assert gf13.mul(7, 2) == 1
    assert gf13.inv(7) == 2


def test_add_neg(gf9):
    for x in range(gf9.q):
        assert gf9.add(x, gf9.neg(x)) == 0
    assert gf9.add(4, 8) == 0  # (alpha+1) + (2*alpha+2)


def test_discrete_log(gf13, gf9):
    assert gf13.dlog(8) == 3
    assert gf13.dlog(1) == 0
    # repeated-multiplication oracle for dlog(2) in GF(9)
    cur, k = 1, 0
    while cur != 2:
        cur = gf9.mul(cur, 3)
        k += 1
    assert k == 4
    assert gf9.dlog(2) == 4


def test_exp_log_roundtrip(gf13, gf9, gf25, gf81):
    for f in (gf13, gf9, gf25, gf81):
        ks = np.arange(f.q - 1)
        assert np.array_equal(f.log[f.exp], ks)
        nz = np.arange(1, f.q)
        assert np.array_equal(f.exp[f.log[nz]], nz)


def test_exp_homomorphism(gf25, gf81):
    rng = np.random.default_rng(7)
    for f in (gf25, gf81):
        js = rng.integers(0, f.q - 1, size=1200)
        ks = rng.integers(0, f.q - 1, size=1200)
        for j, k in zip(js, ks):
            lhs = f.mul(int(f.exp[j]), int(f.exp[k]))
            assert lhs == int(f.exp[(j + k) % (f.q - 1)])


def test_wilson_product():
    for args in ((13, 1), (3, 2), (5, 2), (3, 4), (5, 3), (11, 2), (9973, 1)):
        f = build_field(*args)
        prod = 1
        for x in range(1, f.q):
            prod = f.mul(prod, x)
        assert prod == f.neg(1)


def test_vectorized_matches_scalar(gf81):
    rng = np.random.default_rng(3)
    a = rng.integers(0, gf81.q, size=200)
    b = rng.integers(0, gf81.q, size=200)
    subs = gf81.sub_codes(a, b)
    adds = gf81.add_codes(a, b)
    succ = gf81.succ_codes(a)
    for i in range(len(a)):
        assert subs[i] == gf81.sub(int(a[i]), int(b[i]))
        assert adds[i] == gf81.add(int(a[i]), int(b[i]))
        assert succ[i] == gf81.add(int(a[i]), 1)
    assert gf81.sum_codes(a) == int(
        np.frompyfunc(gf81.add, 2, 1).reduce(a.astype(object))
    )


@pytest.mark.parametrize("m", range(1, 9))
def test_char2_codes_match_digitwise(m):
    # p = 2 subtracts and negates by XOR and the identity; every pair of
    # codes against the digit-wise arithmetic every other p uses
    f = build_field(2, m)
    a, b = np.meshgrid(np.arange(f.q), np.arange(f.q))
    for got, expect in [(f.sub_codes(a, b), f._digitwise(operator.sub, a, b)),
                        (f.add_codes(a, b), f._digitwise(operator.add, a, b)),
                        (f.neg_codes(a), f._digitwise(operator.neg, a))]:
        assert got.dtype == np.int64 and np.array_equal(got, expect)
    neg = f.neg_codes(a)
    neg[0, 0] = 1  # a copy: the caller's array is untouched
    assert a[0, 0] == 0


@pytest.mark.parametrize("p, m", [(13, 1), (3, 4), (2, 7)])
def test_mul_codes_matches_scalar(p, m):
    f = build_field(p, m)
    codes = np.arange(f.q)
    for b in range(1, f.q):
        got = f.mul_codes(codes, b)
        assert got.dtype == np.int64
        assert got.tolist() == [f.mul(a, b) for a in range(f.q)], b


@given(st.integers(0, 360), st.integers(0, 360), st.integers(0, 360))
def test_field_axioms_gf361(a, b, c):
    f = build_field(19, 2)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.mul(a, b) == f.mul(b, a)
    assert f.add(a, f.neg(a)) == 0


def test_errors():
    with pytest.raises(NotPrime):
        build_field(12)
    with pytest.raises(NotPrimitivePolynomial):
        build_field(3, 2, poly=[1, 0, 1])  # x^2 + 1 has a root of order 4
    with pytest.raises(FieldTooLarge):
        build_field(2, 35)
    with pytest.raises(NotPrimitiveElement):
        build_field(13, 1, generator=4)  # 4 has order 6 mod 13
    f = build_field(13)
    # codes outside [1, q) are no elements, even where they reduce to a generator
    for code in (-2, 0, 13):
        with pytest.raises(NotPrimitiveElement):
            f.with_generator(code)
    for p, m, code in ((3, 2, -1), (3, 2, 9), (13, 1, -11), (13, 1, 15)):
        with pytest.raises(NotPrimitiveElement):
            build_field(p, m, generator=code)
    with pytest.raises(DivisionByZero):
        f.inv(0)
    with pytest.raises(ZeroHasNoLog):
        f.dlog(0)


def test_with_generator_permutation(gf13):
    f7 = gf13.with_generator(7)
    assert f7.generator == 7
    assert list(f7.exp[:3]) == [1, 7, 10]
    assert sorted(int(g) for g in gf13.generator_codes()) == [2, 6, 7, 11]


def test_generator_codes_of_gf2():
    assert build_field(2).generator_codes().tolist() == [1]


# ---- field construction ----

GOLDEN_POLYS = json.loads((Path(__file__).parent / "default_poly_golden.json").read_text())


def test_default_poly_golden():
    # recorded before the search was filtered: every (p, m) with m >= 2 and
    # q <= 6*10^5, and every prime p < 10^4
    assert len(GOLDEN_POLYS) == 1429
    for p, m, poly in GOLDEN_POLYS:
        assert list(default_poly(p, m)) == poly, (p, m)


def prime_powers(limit):
    return [(p, m) for p in range(2, limit + 1) if is_prime(p) for m in range(1, 32) if p**m <= limit]


def test_default_poly_is_first_primitive():
    # no candidate that sorts before the answer passes the full order test,
    # so the filters in front of it never skip a primitive polynomial
    for p, m in prime_powers(2000):
        want = default_poly(p, m)
        factors = factorize(p**m - 1)
        assert _is_primitive_poly(want, p, m, factors)
        for coeffs in itertools.product(range(p), repeat=m):
            f = coeffs + (1,)
            if f == want:
                break
            assert not _is_primitive_poly(f, p, m, factors), (p, m, f)


def has_monic_factor(f, p, degree):
    # trial division by every monic polynomial of the given degree
    for low in itertools.product(range(p), repeat=degree):
        g = list(low) + [1]
        r = list(f)
        for k in range(len(r) - 1, degree - 1, -1):
            c = r[k]
            for i in range(degree + 1):
                r[k - degree + i] = (r[k - degree + i] - c * g[i]) % p
        if not any(r[:degree]):
            return True
    return False


@pytest.mark.parametrize(
    "p, m", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)]
)
def test_irreducibility_test_matches_trial_division(p, m):
    for coeffs in itertools.product(range(p), repeat=m):
        f = coeffs + (1,)
        reducible = any(has_monic_factor(f, p, d) for d in range(1, m // 2 + 1))
        assert _is_irreducible(f, p, m) == (not reducible), f


def scalar_tables(p, m, poly):
    """The tables by the one-step recurrence x^(k+1) = x * x^k mod poly."""
    q = p**m
    exp = np.empty(q - 1, dtype=np.int64)
    if m == 1:
        g = (-poly[0]) % p
        cur = 1
        for k in range(q - 1):
            exp[k] = cur
            cur = cur * g % p
    else:
        mults = [p**i for i in range(m)]
        cur = [0] * m
        cur[0] = 1
        for k in range(q - 1):
            exp[k] = sum(c * mu for c, mu in zip(cur, mults))
            top = cur[m - 1]
            new = [(-top * poly[0]) % p]
            for i in range(1, m):
                new.append((cur[i - 1] - top * poly[i]) % p)
            cur = new
    log = np.full(q, -1, dtype=np.int64)
    log[exp] = np.arange(q - 1, dtype=np.int64)
    return exp, log


def primitive_polys(p, m):
    factors = factorize(p**m - 1)
    polys = (coeffs + (1,) for coeffs in itertools.product(range(p), repeat=m))
    return [f for f in polys if _is_primitive_poly(f, p, m, factors)]


@pytest.mark.parametrize(
    "p, m",
    [(2, 1), (3, 1), (13, 1), (9973, 1), (2, 2), (2, 5), (2, 10), (2, 13), (3, 2), (3, 3), (3, 5), (3, 9),
     (5, 2), (5, 4), (7, 3), (7, 4), (11, 3), (101, 2)],
)
def test_tables_match_scalar_recurrence(p, m):
    # every primitive polynomial in small fields, the default one in larger fields
    polys = primitive_polys(p, m) if p**m <= 125 else [default_poly(p, m)]
    for poly in polys:
        exp, log = _build_tables(p, m, poly)
        want_exp, want_log = scalar_tables(p, m, poly)
        assert exp.dtype == log.dtype == np.int32
        assert np.array_equal(exp, want_exp) and np.array_equal(log, want_log), poly


def test_tables_in_small_blocks(monkeypatch):
    # blocks smaller than a doubling step give the same tables, and the
    # same re-based tables
    monkeypatch.setattr(field_module, "_BLOCK", 7)
    for p, m in ((2, 9), (3, 6), (5, 3), (257, 1)):
        poly = default_poly(p, m)
        exp, log = _build_tables(p, m, poly)
        want_exp, want_log = scalar_tables(p, m, poly)
        assert np.array_equal(exp, want_exp) and np.array_equal(log, want_log)
        f = build_field(p, m)
        j = next(j for j in range(5, f.q) if gcd(j, f.q - 1) == 1)
        g = f.with_generator(int(f.exp[j]))
        ks = np.arange(f.q - 1) * j % (f.q - 1)
        assert np.array_equal(g.exp, want_exp[ks]) and np.array_equal(g.log[g.exp], np.arange(f.q - 1))


@pytest.mark.parametrize(
    "p, m, poly",
    [
        (3, 2, [1, 0, 1]),  # irreducible, but its root has order 4
        (3, 2, [1, 2, 1]),  # (x + 1)^2
        (3, 2, [0, 1, 1]),  # x (x + 1)
        (2, 4, [1, 1, 1, 1, 1]),  # irreducible, root of order 5
        (5, 3, [0, 0, 0, 1]),  # x^3
        (13, 1, [0, 1]),  # x
        (13, 1, [10, 1]),  # root 3 has order 3
    ],
)
def test_explicit_non_primitive_poly_rejected(p, m, poly):
    with pytest.raises(NotPrimitivePolynomial):
        build_field(p, m, poly=poly)
    if poly[0]:
        # the tables' own coverage check rejects it too
        with pytest.raises(NotPrimitivePolynomial):
            _build_tables(p, m, tuple(poly))


def test_tables_are_int32():
    f = build_field(3, 4)
    g = f.with_generator(int(f.generator_codes()[1]))
    for t in (f.exp, f.log, g.exp, g.log):
        assert t.dtype == np.int32
    assert np.array_equal(g.log[g.exp], np.arange(f.q - 1))


def test_huge_degree_is_rejected_at_once():
    with pytest.raises(FieldTooLarge):
        build_field(13, 10**9)
