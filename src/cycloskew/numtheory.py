"""Prime power recognition, quadratic form representations, quartic residues.

Three binary quadratic forms drive the closed-form cyclotomic number
tables: q = s^2 + t^2, q = x^2 + 4y^2 and q = a^2 + 2b^2.  The first
coordinate of each is normalized to 1 mod 4; the sign of t is pinned by
a congruence against the field's chosen generator, while y and b are
returned as magnitudes (their signs are resolved downstream against a
brute-force table).
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple

from .errors import (
    CycloskewError,
    NoRepresentation,
    NotOneMod4,
    NotPrimePower,
    OrderDoesNotDivide,
)
from .field import Field, is_prime


class QuadRepST(NamedTuple):
    s: int
    t: int


class QuadRepXY(NamedTuple):
    x: int
    y: int


class QuadRepAB(NamedTuple):
    a: int
    b: int


def prime_power_decompose(q: int) -> tuple[int, int]:
    """Write q = p^m with p prime, or raise NotPrimePower."""
    if q < 2:
        raise NotPrimePower(f"{q} < 2")
    if is_prime(q):
        return q, 1
    d = 2
    while d * d <= q:
        if q % d == 0:
            n, m = q, 0
            while n % d == 0:
                n //= d
                m += 1
            if n != 1:
                raise NotPrimePower(f"{q} has at least two prime factors")
            return d, m
        d += 1 if d == 2 else 2
    raise NotPrimePower(f"{q} is not a prime power")


def is_prime_power(q: int) -> bool:
    try:
        prime_power_decompose(q)
        return True
    except NotPrimePower:
        return False


def _norm_1_mod_4(c: int) -> int:
    return c if c % 4 == 1 else -c


def _proper_rep(q: int, p: int, k: int, form: str) -> tuple[int, int]:
    """(c, y) with q = c^2 + k y^2 for the first odd c <= sqrt(q) that p
    does not divide, c normalized to 1 mod 4 and y >= 0; NoRepresentation
    when there is none."""
    for c in range(1, isqrt(q) + 1, 2):
        y = isqrt((q - c * c) // k)
        if c % p and k * y * y == q - c * c:
            return _norm_1_mod_4(c), y
    raise NoRepresentation(f"{q} has no proper {form} representation")


def two_squares_rep(field: Field) -> QuadRepST:
    """q = s^2 + t^2 with the classical sign conventions.

    For p = 3 mod 4 (m even) this degenerates to ((-p)^(m/2), 0).  For
    p = 1 mod 4, s is the unique odd value with p not dividing s and
    s = 1 mod 4, and the sign of t satisfies g^((q-1)/4) = s/t mod p
    for the field's generator g.  The result is generator-dependent by
    design: changing the generator can only flip the sign of t.
    """
    q, p, m = field.q, field.p, field.m
    if q % 4 != 1:
        raise NotOneMod4(f"q = {q} is not 1 mod 4")
    if p % 4 == 3:
        return QuadRepST((-p) ** (m // 2), 0)
    s, t0 = _proper_rep(q, p, 1, "two-squares")
    i = int(field.exp[(q - 1) // 4])
    if i >= p:
        # the primitive 4th root of unity must lie in the prime subfield
        raise CycloskewError(f"g^((q-1)/4) = code {i} is outside GF({p})")
    for t in (t0, -t0):
        if (t * i - s) % p == 0:
            return QuadRepST(s, t)
    raise CycloskewError("no sign of t satisfies the defining congruence")


def x2_4y2_rep(q: int, p: int, m: int) -> QuadRepXY:
    """q = x^2 + 4y^2 with x = 1 mod 4; y returned non-negative.

    Proper (p does not divide x) when p = 1 mod 4; otherwise the
    degenerate (+-p^(m/2), 0), still normalized to x = 1 mod 4.
    """
    if q % 4 != 1:
        raise NoRepresentation(f"q = {q} is not 1 mod 4")
    if p % 4 == 1:
        return QuadRepXY(*_proper_rep(q, p, 4, "x^2+4y^2"))
    return QuadRepXY(_norm_1_mod_4(p ** (m // 2)), 0)


def a2_2b2_rep(q: int, p: int, m: int) -> QuadRepAB:
    """q = a^2 + 2b^2 with a = 1 mod 4; b returned non-negative.

    Proper when p = 1 or 3 mod 8; for p = 5, 7 mod 8 (m even) the
    degenerate (+-p^(m/2), 0) is normalized to a = 1 mod 4 as well, so
    applicability predicates stay deterministic.
    """
    if p % 8 in (1, 3):
        return QuadRepAB(*_proper_rep(q, p, 2, "a^2+2b^2"))
    if m % 2 == 0:
        return QuadRepAB(_norm_1_mod_4(p ** (m // 2)), 0)
    raise NoRepresentation(f"{q} is not representable as a^2 + 2b^2")


def two_is_quartic_residue(q: int, p: int) -> bool:
    """Whether 2 is a fourth power in GF(q), q = 1 mod 4.  The fourth powers
    are the one subgroup of index 4, whatever the generator, and 2 lies in
    GF(p), so this is Euler's criterion computed mod p."""
    if q % 4 != 1:
        raise OrderDoesNotDivide(f"4 does not divide q-1 = {q - 1}")
    return pow(2, (q - 1) // 4, p) == 1
