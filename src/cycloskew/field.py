"""Finite field GF(p^m) with dense exp/log tables.

Elements are integer codes in [0, q).  The code of
c_0 + c_1*g + ... + c_{m-1}*g^{m-1}, where g is the residue class of x
modulo the defining polynomial, is the base-p integer
c_0 + c_1*p + ... + c_{m-1}*p^{m-1}.  Code 0 is the additive identity,
code 1 the multiplicative identity, and prime-subfield elements are
exactly the codes below p.

Multiplication, inversion, powers and discrete logs go through the
exp/log tables (O(1) per operation); addition works digit-wise on the
codes.  Fields are immutable after construction and safe to share
between threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import (
    DivisionByZero,
    FieldTooLarge,
    NotPrime,
    NotPrimitiveElement,
    NotPrimitivePolynomial,
    ZeroHasNoLog,
)

MAX_ORDER = 2**31


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with bases 2,3,5,7 (exact below 3.2e9)."""
    if n < 2:
        return False
    for a in (2, 3, 5, 7):
        if n % a == 0:
            return n == a
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (n <= 2^31 keeps this cheap)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@dataclass(frozen=True)
class FieldSpec:
    """Defining data of a field: characteristic, degree, monic defining
    polynomial (constant term first) and the code of the chosen
    primitive element."""

    p: int
    m: int
    poly: tuple[int, ...]
    generator: int

    @property
    def q(self) -> int:
        return self.p**self.m

    def as_dict(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "poly": list(self.poly),
            "generator": self.generator,
        }


def _poly_mul_mod(a: list[int], b: list[int], f: tuple[int, ...], p: int) -> list[int]:
    # product of residue polynomials, reduced mod the monic f of degree m
    m = len(f) - 1
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    for k in range(len(res) - 1, m - 1, -1):
        c = res[k]
        if c:
            res[k] = 0
            for i in range(m):
                res[k - m + i] = (res[k - m + i] - c * f[i]) % p
    res = res[:m]
    res += [0] * (m - len(res))
    return res


def _x_pow_mod(e: int, f: tuple[int, ...], p: int) -> list[int]:
    m = len(f) - 1
    result = [1] + [0] * (m - 1)
    base = ([0, 1] + [0] * (m - 2)) if m > 1 else [(-f[0]) % p]
    while e:
        if e & 1:
            result = _poly_mul_mod(result, base, f, p)
        base = _poly_mul_mod(base, base, f, p)
        e >>= 1
    return result


def _is_primitive_poly(f: tuple[int, ...], p: int, m: int, q1_factors: dict[int, int]) -> bool:
    # the root of f generates the multiplicative group iff its order is q-1
    q = p**m
    one = [1] + [0] * (m - 1)
    if f[0] == 0:
        return False
    if _x_pow_mod(q - 1, f, p) != one:
        return False
    for r in q1_factors:
        if _x_pow_mod((q - 1) // r, f, p) == one:
            return False
    return True


def default_poly(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic primitive polynomial of degree m,
    compared by coefficient tuple with the constant term first."""
    q1_factors = factorize(p**m - 1)
    for coeffs in itertools.product(range(p), repeat=m):
        if coeffs[0] == 0:
            continue
        f = coeffs + (1,)
        if _is_primitive_poly(f, p, m, q1_factors):
            return f
    raise NotPrimitivePolynomial(f"no primitive polynomial of degree {m} over GF({p})")


class Field:
    """GF(p^m) with exp/log tables over integer element codes."""

    def __init__(self, spec: FieldSpec, exp: np.ndarray, log: np.ndarray):
        self.spec = spec
        self.p = spec.p
        self.m = spec.m
        self.q = spec.q
        self.exp = exp
        self.log = log
        self.generator = spec.generator

    def __repr__(self) -> str:
        return f"Field(p={self.p}, m={self.m}, poly={list(self.spec.poly)}, generator={self.generator})"

    # ---- scalar arithmetic on codes ----

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        p, out, mult = self.p, 0, 1
        for _ in range(self.m):
            out += ((a % p + b % p) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        p, out, mult = self.p, 0, 1
        for _ in range(self.m):
            out += ((-(a % p)) % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.exp[(int(self.log[a]) + int(self.log[b])) % (self.q - 1)])

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("0 has no multiplicative inverse")
        return int(self.exp[(-int(self.log[a])) % (self.q - 1)])

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            if n == 0:
                return 1
            if n < 0:
                raise DivisionByZero("negative power of 0")
            return 0
        return int(self.exp[(int(self.log[a]) * n) % (self.q - 1)])

    def dlog(self, a: int) -> int:
        if a == 0:
            raise ZeroHasNoLog("discrete log of 0 is undefined")
        return int(self.log[a])

    def element(self, n: int) -> int:
        """Code of the prime-subfield element n (the n-fold sum of 1)."""
        return n % self.p

    # ---- vectorized code arithmetic ----

    def sub_codes(self, a, b) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.m == 1:
            return (a - b) % self.p
        out = 0
        mult = 1
        for _ in range(self.m):
            out = out + ((a % self.p - b % self.p) % self.p) * mult
            a = a // self.p
            b = b // self.p
            mult *= self.p
        return out

    def add_codes(self, a, b) -> np.ndarray:
        return self.sub_codes(a, self.neg_codes(b))

    def neg_codes(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        if self.m == 1:
            return (-a) % self.p
        out = 0
        mult = 1
        for _ in range(self.m):
            out = out + ((-(a % self.p)) % self.p) * mult
            a = a // self.p
            mult *= self.p
        return out

    def succ_codes(self, a) -> np.ndarray:
        """Codes of x + 1 for an array of codes x (only the constant base-p
        digit changes)."""
        a = np.asarray(a, dtype=np.int64)
        c0 = a % self.p
        return a - c0 + (c0 + 1) % self.p

    def sum_codes(self, arr) -> int:
        """Field sum of all elements in the array."""
        arr = np.asarray(arr, dtype=np.int64)
        p, out, mult = self.p, 0, 1
        for _ in range(self.m):
            out += int((arr % p).sum() % p) * mult
            arr = arr // p
            mult *= p
        return out

    def nonzero_codes(self) -> np.ndarray:
        return np.arange(1, self.q, dtype=np.int64)

    # ---- generator changes ----

    def with_generator(self, code: int) -> "Field":
        """Same field, re-based on another primitive element.  The exp/log
        tables are re-derived by permutation, not rebuilt."""
        if code == 0:
            raise NotPrimitiveElement("0 does not generate the multiplicative group")
        j = self.dlog(code)
        if gcd(j, self.q - 1) != 1:
            raise NotPrimitiveElement(f"code {code} has order {(self.q - 1) // gcd(j, self.q - 1)}")
        if code == self.generator:
            return self
        ks = (np.arange(self.q - 1, dtype=np.int64) * j) % (self.q - 1)
        exp = self.exp[ks]
        log = np.full(self.q, -1, dtype=np.int64)
        log[exp] = np.arange(self.q - 1, dtype=np.int64)
        spec = FieldSpec(self.p, self.m, self.spec.poly, code)
        return Field(spec, exp, log)

    def generator_codes(self) -> np.ndarray:
        """Codes of every primitive element, in exponent order."""
        js = np.array(
            [j for j in range(1, self.q - 1) if gcd(j, self.q - 1) == 1],
            dtype=np.int64,
        )
        return self.exp[js]


def _build_tables(p: int, m: int, poly: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
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
    if int((log[1:] >= 0).sum()) != q - 1:
        raise NotPrimitivePolynomial(f"{list(poly)} does not define GF({p}^{m})")
    return exp, log


def build_field(
    p: int,
    m: int = 1,
    poly: list[int] | tuple[int, ...] | None = None,
    generator: int | None = None,
) -> Field:
    """Construct GF(p^m).

    When poly is omitted the lexicographically smallest monic primitive
    polynomial is used, so the default field is deterministic across
    runs.  An explicit generator code re-bases the exp/log tables on
    that element; worked examples in the literature depend on the
    choice, so both knobs are exposed.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if m < 1:
        raise NotPrimitivePolynomial("extension degree must be >= 1")
    q = p**m
    if q > MAX_ORDER:
        raise FieldTooLarge(f"q = {q} exceeds 2^31")

    if poly is None and m == 1 and generator is not None:
        if generator % p == 0 or any(
            pow(generator, (p - 1) // r, p) == 1 for r in factorize(p - 1)
        ):
            raise NotPrimitiveElement(f"{generator} is not a primitive root mod {p}")
        poly = ((p - generator) % p, 1)
    if poly is None:
        poly = default_poly(p, m)
    poly = tuple(int(c) for c in poly)
    if len(poly) != m + 1 or poly[m] != 1 or any(not 0 <= c < p for c in poly):
        raise NotPrimitivePolynomial(f"{list(poly)} is not monic of degree {m} over GF({p})")
    if not _is_primitive_poly(poly, p, m, factorize(q - 1)):
        raise NotPrimitivePolynomial(f"{list(poly)} is not primitive over GF({p})")

    root = (-poly[0]) % p if m == 1 else p
    exp, log = _build_tables(p, m, poly)
    field = Field(FieldSpec(p, m, poly, root), exp, log)
    if generator is not None and generator != root:
        field = field.with_generator(generator)
    return field
