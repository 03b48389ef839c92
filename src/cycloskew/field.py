"""Finite field GF(p^m) with dense exp/log tables.

Elements are integer codes in [0, q).  The code of
c_0 + c_1*g + ... + c_{m-1}*g^{m-1}, where g is the residue class of x
modulo the defining polynomial, is the base-p integer
c_0 + c_1*p + ... + c_{m-1}*p^{m-1}.  Code 0 is the additive identity,
code 1 the multiplicative identity, and prime-subfield elements are
exactly the codes below p.

Multiplication, inversion, powers and discrete logs go through the
exp/log tables (O(1) per operation); addition works digit-wise on the
codes, and is XOR on arrays of codes when p = 2.  Both tables are int32,
8 bytes per code.  A field of order above MAX_ORDER = 10^8, the largest
whose memory use is bounded and known, is refused with FieldTooLarge
before its polynomial is searched or any table allocated.

The default polynomial is the lexicographically smallest monic primitive
one.  Its search skips every constant term whose norm (-1)^m f(0) is not
a primitive root mod p, and tests irreducibility before the order of x.
The tables are filled by doubling: the base-p digits of x^(k+n) are the
digits of x^k times the m x m matrix of "multiply by x^n mod f", so
exp[n:2n] is one integer matmul over exp[:n], taken in blocks.  Fields
are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import itertools
import operator
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

MAX_ORDER = 10**8  # 800 MB of tables


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


def _x_mod(f: tuple[int, ...], p: int) -> list[int]:
    # x as a residue mod f; for m = 1 that is the constant -f(0)
    m = len(f) - 1
    return ([0, 1] + [0] * (m - 2)) if m > 1 else [(-f[0]) % p]


def _pow_mod(base: list[int], e: int, f: tuple[int, ...], p: int) -> list[int]:
    result = [1] + [0] * (len(f) - 2)
    while e:
        if e & 1:
            result = _poly_mul_mod(result, base, f, p)
        base = _poly_mul_mod(base, base, f, p)
        e >>= 1
    return result


def _coprime(a: list[int], b: list[int], p: int) -> bool:
    """Whether two polynomials over GF(p) (coefficient lists, constant
    term first) have gcd 1, by Euclid's algorithm."""

    def trim(c: list[int]) -> list[int]:
        while c and c[-1] == 0:
            c.pop()
        return c

    a, b = trim(list(a)), trim(list(b))
    while b:
        inv = pow(b[-1], p - 2, p)
        while len(a) >= len(b):
            c, shift = a[-1] * inv % p, len(a) - len(b)
            for i, bi in enumerate(b):
                a[shift + i] = (a[shift + i] - c * bi) % p
            trim(a)
        a, b = b, a
    return len(a) == 1


def _is_irreducible(f: tuple[int, ...], p: int, m: int) -> bool:
    """Rabin's irreducibility test in Ben-Or's form: f is irreducible iff
    gcd(x^(p^k) - x, f) = 1 for every k <= m/2, since a reducible f has an
    irreducible factor of some degree k <= m/2 and that factor divides
    x^(p^k) - x.  The k = 1 step is the test that f has no root in GF(p).
    Most reducible f fail at a small k, after k Frobenius powers."""
    x = h = _x_mod(f, p)
    for _ in range(m // 2):
        h = _pow_mod(h, p, f, p)
        if not _coprime([(a - b) % p for a, b in zip(h, x)], list(f), p):
            return False
    return True


def _is_primitive_root(c: int, p: int, p1_factors: dict[int, int]) -> bool:
    return c % p != 0 and all(pow(c, (p - 1) // r, p) != 1 for r in p1_factors)


def _is_primitive_poly(f: tuple[int, ...], p: int, m: int, q1_factors: dict[int, int]) -> bool:
    # the root of f generates the multiplicative group iff its order is q-1
    q = p**m
    one = [1] + [0] * (m - 1)
    if f[0] == 0:
        return False
    x = _x_mod(f, p)
    if _pow_mod(x, q - 1, f, p) != one:
        return False
    for r in q1_factors:
        if _pow_mod(x, (q - 1) // r, f, p) == one:
            return False
    return True


def default_poly(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic primitive polynomial of degree m,
    compared by coefficient tuple with the constant term first.

    Two exact necessary conditions run before the order test.  A
    primitive root a of f has norm a^((q-1)/(p-1)) = (-1)^m f(0), and that
    is a primitive root mod p; every other constant term is skipped, with
    its p^(m-1) candidates.  And f must be irreducible.  Neither drops a
    primitive polynomial, so the answer is the one the order test alone
    would find first."""
    q1_factors = factorize(p**m - 1)
    p1_factors = factorize(p - 1)
    for c0 in range(1, p):
        if not _is_primitive_root((-1) ** m * c0, p, p1_factors):
            continue
        for rest in itertools.product(range(p), repeat=m - 1):
            f = (c0, *rest, 1)
            if _is_irreducible(f, p, m) and _is_primitive_poly(f, p, m, q1_factors):
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

    def _digitwise(self, op, *codes):
        """op applied to the base-p digits of the codes, one digit place at
        a time, each result reduced mod p and put back in its place.  The
        codes are ints or int64 arrays alike.  op is a sum or a negation,
        so the digits above a place drop out mod p and need no masking."""
        p = self.p
        out, mult = op(*codes) % p, 1
        for _ in range(1, self.m):
            mult *= p
            out += op(*(c // mult for c in codes)) % p * mult
        return out

    def add(self, a: int, b: int) -> int:
        return self._digitwise(operator.add, a, b)

    def neg(self, a: int) -> int:
        return self._digitwise(operator.neg, a)

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

    def dlog(self, a: int) -> int:
        if a == 0:
            raise ZeroHasNoLog("discrete log of 0 is undefined")
        return int(self.log[a])

    def element(self, n: int) -> int:
        """Code of the prime-subfield element n (the n-fold sum of 1)."""
        return n % self.p

    # ---- vectorized code arithmetic ----

    def sub_codes(self, a, b) -> np.ndarray:
        """Codes of a - b, elementwise; digit-wise mod 2 that is a XOR b."""
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        return a ^ b if self.p == 2 else self._digitwise(operator.sub, a, b)

    def add_codes(self, a, b) -> np.ndarray:
        return self.sub_codes(a, self.neg_codes(b))

    def neg_codes(self, a) -> np.ndarray:
        """Codes of -a, elementwise: a copy of a when p = 2."""
        a = np.asarray(a, dtype=np.int64)
        return a.copy() if self.p == 2 else self._digitwise(operator.neg, a)

    def mul_codes(self, a, b) -> np.ndarray:
        """Codes of a * b, elementwise.  The int32 logs are summed in int64:
        two logs can pass 2^31."""
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        prod = self.exp[(self.log[a].astype(np.int64) + self.log[b]) % (self.q - 1)]
        return np.where((a == 0) | (b == 0), 0, prod).astype(np.int64)

    def succ_codes(self, a) -> np.ndarray:
        """Codes of x + 1 for an array of codes x (only the constant base-p
        digit changes)."""
        a = np.asarray(a, dtype=np.int64)
        c0 = a % self.p
        return a - c0 + (c0 + 1) % self.p

    def sum_codes(self, arr) -> int:
        """Field sum of all elements in the array."""
        return int(self._digitwise(np.sum, np.asarray(arr, dtype=np.int64)))

    # ---- generator changes ----

    def with_generator(self, code: int) -> "Field":
        """Same field, re-based on another primitive element.  The exp/log
        tables are re-derived by permutation, not rebuilt."""
        if not 1 <= code < self.q:
            raise NotPrimitiveElement(f"code {code} is not a nonzero code below q = {self.q}")
        j = self.dlog(code)
        if gcd(j, self.q - 1) != 1:
            raise NotPrimitiveElement(f"code {code} has order {(self.q - 1) // gcd(j, self.q - 1)}")
        if code == self.generator:
            return self
        exp = np.empty(self.q - 1, dtype=np.int32)
        for lo in range(0, self.q - 1, _BLOCK):
            ks = np.arange(lo, min(lo + _BLOCK, self.q - 1), dtype=np.int64) * j % (self.q - 1)
            exp[lo : lo + len(ks)] = self.exp[ks]
        spec = FieldSpec(self.p, self.m, self.spec.poly, code)
        return Field(spec, exp, _log_table(exp, self.q))

    def generator_codes(self) -> np.ndarray:
        """Codes of every primitive element, in exponent order."""
        js = np.arange(self.q - 1)
        return self.exp[js[np.gcd(js, self.q - 1) == 1]]


_BLOCK = 2**20  # int64 digits per numpy pass while the tables are built


def _build_tables(p: int, m: int, poly: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """exp[k] is the code of x^k mod poly for k < q - 1, and log its inverse
    (-1 at code 0), both int32.  Raises NotPrimitivePolynomial unless log
    covers every nonzero code, which proves poly primitive.

    Row i of step holds the digits of x^(n+i) mod poly, so the digits of
    exp[:n] times step are those of exp[n:2n]; squaring step doubles n.
    For m = 1 this is exp[n:2n] = exp[:n] * g^n % p.  The digits are read
    back from the codes block by block, so the transient stays near
    _BLOCK int64s whatever q is."""
    q = p**m
    # each matmul entry sums m products of two digits, each below p
    assert m * (p - 1) ** 2 < 2**62
    step = np.zeros((m, m), dtype=np.int64)
    step[:-1, 1:] = np.eye(m - 1, dtype=np.int64)
    step[-1] = [(-c) % p for c in poly[:m]]
    pows = p ** np.arange(m, dtype=np.int64)
    rows = max(1, _BLOCK // m)
    exp = np.empty(q - 1, dtype=np.int32)
    exp[0] = 1
    n = 1
    while n < q - 1:
        stop = min(2 * n, q - 1)
        for lo in range(n, stop, rows):
            hi = min(lo + rows, stop)
            src = exp[lo - n : hi - n].astype(np.int64)
            digits = np.empty((m, hi - lo), dtype=np.int64)
            for i in range(m - 1):
                src, digits[i] = np.divmod(src, p)
            digits[-1] = src
            new = step.T @ digits
            new %= p
            exp[lo:hi] = pows @ new
        step = step @ step % p
        n *= 2
    log = _log_table(exp, q)
    if log[1:].min() < 0:
        raise NotPrimitivePolynomial(f"{list(poly)} does not define GF({p}^{m})")
    return exp, log


def _log_table(exp: np.ndarray, q: int) -> np.ndarray:
    """log[exp[k]] = k, and -1 at every code that exp misses."""
    log = np.full(q, -1, dtype=np.int32)
    for lo in range(0, q - 1, _BLOCK):
        log[exp[lo : lo + _BLOCK]] = np.arange(lo, min(lo + _BLOCK, q - 1), dtype=np.int32)
    return log


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
    if m > 31 or p**m > MAX_ORDER:  # m first: for a huge m, p**m alone would stall
        raise FieldTooLarge(f"q = {p}^{m} exceeds {MAX_ORDER}")
    q = p**m

    if poly is None and m == 1 and generator is not None:
        if not 1 <= generator < p or not _is_primitive_root(generator, p, factorize(p - 1)):
            raise NotPrimitiveElement(f"{generator} is not a primitive root mod {p}")
        poly = ((p - generator) % p, 1)
    if poly is None:
        poly = default_poly(p, m)
    else:
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
