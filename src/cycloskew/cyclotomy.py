"""Cyclotomic class partitions and cyclotomic number tables.

C_i^e = g^i<g^e> is the slice exp[i::e] of the field's exp table, so a
union of classes is sorted exp slices (class_union), and the class of a
nonzero code is its log mod e (class_of).  bruteforce_table counts the
class pairs of z and z + 1 in one pass over the codes z in code order.
closed_form_table assembles the table for e = 2, 4, 8 from the quadratic
form representations of q.  Its cells fall into the orbits of two
relations, (i,j)_e = (-i, j-i)_e and (i,j)_e = (j,i)_e when f is even or
(j+e/2, i+e/2)_e when f is odd; lettered A, B, ... in row-major order of
their first cell, each orbit takes one numerator.

The order-8 closed form determines y and b only up to sign.  Signs are
resolved by evaluating every candidate table and keeping the one that
reproduces the brute-force table; CalibrationAmbiguous means no sign
assignment works, i.e. a mistyped numerator, and is never expected.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (
    CalibrationAmbiguous,
    IndexOutOfRange,
    NotOneMod4,
    NotOneMod8,
    OrderDoesNotDivide,
)
from .field import Field
from .numtheory import (
    a2_2b2_rep,
    two_is_quartic_residue,
    two_squares_rep,
    x2_4y2_rep,
)


@dataclass
class ClassPartition:
    """Partition of the nonzero elements into the e cyclotomic classes."""

    field: Field
    e: int
    f: int
    members: list[np.ndarray]  # e arrays of f codes each, ascending


def _check_order(field: Field, e: int) -> None:
    if e < 1 or (field.q - 1) % e != 0:
        raise OrderDoesNotDivide(f"e = {e} does not divide q-1 = {field.q - 1}")


def class_union(field: Field, e: int, indices) -> np.ndarray:
    """Sorted int64 codes of the union of the classes C_i^e, i in indices,
    each code once; no index gives the empty slice exp[:0]."""
    _check_order(field, e)
    idx = sorted(set(indices))
    if not all(0 <= i < e for i in idx):
        raise IndexOutOfRange(f"class indices {idx} out of range for e={e}")
    codes = np.concatenate([field.exp[:0]] + [field.exp[i::e] for i in idx], dtype=np.int64)
    codes.sort()
    return codes


def class_of(field: Field, e: int, codes):
    """Class index of one nonzero code, or of each code of an array: its
    discrete log mod e.  IndexOutOfRange for any code outside [1, q)."""
    _check_order(field, e)
    arr = np.asarray(codes)  # a float array when codes is []; index with codes itself
    if arr.size and (arr.min() < 1 or arr.max() >= field.q):
        raise IndexOutOfRange(f"codes must be nonzero codes below q = {field.q}; 0 is in no class")
    cls = field.log[codes] % e
    return int(cls) if np.ndim(cls) == 0 else cls


def classes(field: Field, e: int) -> ClassPartition:
    _check_order(field, e)
    return ClassPartition(field, e, (field.q - 1) // e, [class_union(field, e, (i,)) for i in range(e)])


@dataclass
class CycNumTable:
    e: int
    counts: np.ndarray  # e x e matrix of (i,j)_e
    reps: dict = dc_field(default_factory=dict)  # s,t,x,y,a,b actually used


_BLOCK = 2**14  # codes per numpy pass over the log table


def bruteforce_table(field: Field, e: int) -> CycNumTable:
    """All e x e cyclotomic numbers: one bincount of the class pairs
    (log z mod e, log(z + 1) mod e) over the nonzero codes z in code
    order, which keeps the log lookups local; z + 1 = 0 is dropped.
    A block is _BLOCK codes, or e^2 when that is larger."""
    _check_order(field, e)
    counts = np.zeros(e * e, dtype=np.int64)
    step = max(_BLOCK, e * e)
    for lo in range(1, field.q, step):
        hi = min(lo + step, field.q)
        z1 = field.succ_codes(np.arange(lo, hi))
        pairs = field.log[lo:hi] % e * np.int64(e) + field.log[z1] % e
        counts += np.bincount(pairs[z1 != 0], minlength=e * e)
    return CycNumTable(e, counts.reshape(e, e))


# ---- closed forms ----

@functools.cache
def _layout(e: int, f_odd: bool) -> np.ndarray:
    """The e x e array of each cell's orbit index under the two relations
    of _fill, the orbits numbered 0, 1, ... in row-major order of their
    first cell; computed once per (e, parity of f)."""
    h = e // 2 if f_odd else 0
    which = np.full((e, e), -1, dtype=np.intp)
    for cell in np.ndindex(e, e):
        todo, k = [cell], which.max() + 1
        while todo:
            i, j = todo.pop()
            if which[i, j] < 0:
                which[i, j] = k
                todo += [(-i % e, (j - i) % e), ((j + h) % e, (i + h) % e)]
    return which


def _fill(e: int, f_odd: bool, nums: dict[str, int], denom: int) -> np.ndarray | None:
    """The e x e table of (i,j)_e from one numerator over denom per orbit
    of the relations (i,j)_e = (-i, j-i)_e and (i,j)_e = (j,i)_e when f is
    even or (j+e/2, i+e/2)_e when f is odd.  The orbits are lettered A, B,
    ... in row-major order of their first cell, and every cell of orbit L
    holds nums[L] // denom.  None when some numerator is not a count;
    otherwise one gather of the letters' values."""
    if any(num % denom or num < 0 for num in nums.values()):
        return None
    values = np.array([nums[letter] // denom for letter in sorted(nums)], dtype=np.int64)
    return values[_layout(e, f_odd)]


def _order4_numerators(q: int, s: int, t: int, f_odd: bool) -> dict[str, int]:
    if f_odd:
        return {
            "A": q - 7 + 2 * s,
            "B": q + 1 + 2 * s - 4 * t,
            "C": q + 1 - 6 * s,
            "D": q + 1 + 2 * s + 4 * t,
            "E": q - 3 - 2 * s,
        }
    return {
        "A": q - 11 - 6 * s,
        "B": q - 3 + 2 * s + 4 * t,
        "C": q - 3 + 2 * s,
        "D": q - 3 + 2 * s - 4 * t,
        "E": q + 1 - 2 * s,
    }


def cyclotomic_numbers_order4(field: Field) -> CycNumTable:
    """Closed-form 4x4 table from the two-squares representation."""
    q = field.q
    if q % 4 != 1:
        raise NotOneMod4(f"q = {q} is not 1 mod 4")
    s, t = two_squares_rep(field)
    f_odd = ((q - 1) // 4) % 2 == 1
    nums = _order4_numerators(q, s, t, f_odd)
    counts = _fill(4, f_odd, nums, 16)
    if counts is None:
        raise CalibrationAmbiguous(f"order-4 numerators {nums} over 16 are not all counts")
    return CycNumTable(4, counts, reps={"s": s, "t": t})


def _order8_numerators(q, x, y, a, b, two_qr: bool, f_odd: bool) -> dict[str, int]:
    if f_odd:
        if two_qr:
            return {
                "A": q - 15 - 2 * x,
                "B": q + 1 + 2 * x - 4 * a + 16 * y,
                "C": q + 1 + 6 * x + 8 * a - 16 * y,
                "D": q + 1 + 2 * x - 4 * a - 16 * y,
                "E": q + 1 - 18 * x,
                "F": q + 1 + 2 * x - 4 * a + 16 * y,
                "G": q + 1 + 6 * x + 8 * a + 16 * y,
                "H": q + 1 + 2 * x - 4 * a - 16 * y,
                "I": q - 7 + 2 * x + 4 * a,
                "J": q - 7 + 2 * x + 4 * a,
                "K": q + 1 - 6 * x + 4 * a + 16 * b,
                "L": q + 1 + 2 * x - 4 * a,
                "M": q + 1 - 6 * x + 4 * a - 16 * b,
                "N": q - 7 - 2 * x - 8 * a,
                "O": q + 1 + 2 * x - 4 * a,
            }
        return {
            "A": q - 15 - 10 * x - 8 * a,
            "B": q + 1 + 2 * x - 4 * a - 16 * b,
            "C": q + 1 - 2 * x + 16 * y,
            "D": q + 1 + 2 * x - 4 * a - 16 * b,
            "E": q + 1 + 6 * x + 24 * a,
            "F": q + 1 + 2 * x - 4 * a + 16 * b,
            "G": q + 1 - 2 * x - 16 * y,
            "H": q + 1 + 2 * x - 4 * a + 16 * b,
            "I": q - 7 + 2 * x + 4 * a + 16 * y,
            "J": q - 7 + 2 * x + 4 * a - 16 * y,
            "K": q + 1 + 2 * x - 4 * a,
            "L": q + 1 - 6 * x + 4 * a,
            "M": q + 1 + 2 * x - 4 * a,
            "N": q - 7 + 6 * x,
            "O": q + 1 - 6 * x + 4 * a,
        }
    if two_qr:
        return {
            "A": q - 23 - 18 * x - 24 * a,
            "B": q - 7 + 2 * x + 4 * a + 16 * y + 16 * b,
            "C": q - 7 + 6 * x + 16 * y,
            "D": q - 7 + 2 * x + 4 * a - 16 * y + 16 * b,
            "E": q - 7 - 2 * x + 8 * a,
            "F": q - 7 + 2 * x + 4 * a + 16 * y - 16 * b,
            "G": q - 7 + 6 * x - 16 * y,
            "H": q - 7 + 2 * x + 4 * a - 16 * y - 16 * b,
            "I": q + 1 + 2 * x - 4 * a,
            "J": q + 1 - 6 * x + 4 * a,
            "K": q + 1 + 2 * x - 4 * a,
            "L": q + 1 + 2 * x - 4 * a,
            "M": q + 1 - 6 * x + 4 * a,
            "N": q + 1 - 2 * x,
            "O": q + 1 + 2 * x - 4 * a,
        }
    return {
        "A": q - 23 + 6 * x,
        "B": q - 7 + 2 * x + 4 * a,
        "C": q - 7 - 2 * x - 8 * a - 16 * y,
        "D": q - 7 + 2 * x + 4 * a,
        "E": q - 7 - 10 * x,
        "F": q - 7 + 2 * x + 4 * a,
        "G": q - 7 - 2 * x - 8 * a + 16 * y,
        "H": q - 7 + 2 * x + 4 * a,
        "I": q + 1 - 6 * x + 4 * a,
        "J": q + 1 + 2 * x - 4 * a - 16 * b,
        "K": q + 1 + 2 * x - 4 * a + 16 * y,
        "L": q + 1 + 2 * x - 4 * a - 16 * y,
        "M": q + 1 + 2 * x - 4 * a + 16 * b,
        "N": q + 1 + 6 * x + 8 * a,
        "O": q + 1 - 6 * x + 4 * a,
    }


def cyclotomic_numbers_order8(field: Field) -> CycNumTable:
    """Closed-form 8x8 table with the signs of y and b calibrated against
    the brute-force table for this field and generator."""
    q, p, m = field.q, field.p, field.m
    if q % 8 != 1:
        raise NotOneMod8(f"q = {q} is not 1 mod 8")
    x, y_mag = x2_4y2_rep(q, p, m)
    a, b_mag = a2_2b2_rep(q, p, m)
    two_qr = two_is_quartic_residue(q, p)
    f_odd = ((q - 1) // 8) % 2 == 1
    brute = bruteforce_table(field, 8)

    ys = [y_mag] if y_mag == 0 else [y_mag, -y_mag]
    bs = [b_mag] if b_mag == 0 else [b_mag, -b_mag]
    for y in ys:
        for b in bs:
            nums = _order8_numerators(q, x, y, a, b, two_qr, f_odd)
            cand = _fill(8, f_odd, nums, 64)
            if cand is not None and np.array_equal(cand, brute.counts):
                return CycNumTable(8, cand, reps={"x": x, "y": y, "a": a, "b": b})
    raise CalibrationAmbiguous(
        f"no sign assignment of (y, b) = (+-{y_mag}, +-{b_mag}) reproduces the "
        f"brute-force order-8 table for q = {q}"
    )


def closed_form_table(field: Field, e: int) -> CycNumTable:
    _check_order(field, e)
    if e == 2:
        q = field.q
        f_odd = q % 4 == 3
        nums = {"A": q - 3, "B": q + 1} if f_odd else {"A": q - 5, "B": q - 1}
        return CycNumTable(2, _fill(2, f_odd, nums, 4))
    if e == 4:
        return cyclotomic_numbers_order4(field)
    if e == 8:
        return cyclotomic_numbers_order8(field)
    raise OrderDoesNotDivide(f"no closed form for e = {e}")


def delta_via_cycnums(table: CycNumTable, j: int, l: int | None = None) -> np.ndarray:
    """Predicted classwise multiplicities: entry c is the multiplicity of
    each element of C_c in Delta(C_j) (l omitted) or in
    Delta(C_{j+l}, C_l), for the classes of order table.e."""
    e = table.e
    if not 0 <= j < e or (l is not None and not 0 <= l < e):
        raise IndexOutOfRange(f"class index out of range for e={e}")
    col, shift = (0, j) if l is None else (j, l)
    return np.roll(table.counts[:, col], shift).astype(np.int64)

