"""Difference multisets and the certification layer.

A difference multiset is a length-q integer count vector indexed by
element code.  Every classifier below recomputes counts from scratch
through one entry, diff_counts, which picks the method per set:

* inputs of at most q pairs are counted pair by pair;
* two sets that are unions of cyclotomic classes of one order s up to
  ceil(log2 q), 0 aside, are counted by orbit: multiplication by g^s
  fixes both, so the counts are constant on each class of order s and s
  direct counts |X & (Y + g^c)| plus |X & Y| at 0 give all of them.
  The guard is exact: every class the logs of a set hit mod s must be hit
  (q - 1)/s times;
* any other set goes to a transform of indicator vectors over the
  additive group (Z_p)^m, picked by (p, m) alone and guarded.  Transforms
  are linear, so the sets of one profile are transformed once each,
  their products summed in the spectrum and inverted once; Ext's union
  is the sum of its sets' spectra.  A sum that fails its guard is
  counted set by set, and a set whose own transform fails it pair by
  pair.  A prime field's is a float64 FFT correlation zero-padded to the
  smallest c 2^k >= 2q - 1 with c in {1, 3, 5}, folded; for m >= 2 it is
  a float64 product of each block axis (at most 32 points) with its
  character matrix when p <= 5, and an FFT on the (p,)*m grid when
  p >= 7; rounded.  With |D| = (q - 1)/2 one Delta(D) takes about 0.7 ms
  at q = 20011 and 0.13 ms at q = 2^14 (one core).

Nothing is inferred from formulas, so a certificate is an independent
witness.

Every PDS and family kind is read off one two-valued profile by _split:
lambda on a reference set, mu on the rest of G*.  A profile's values are
tested by min and max, never by np.unique, which hashes every entry and
imports numpy.ma on its first call.  certify is the one dispatch from a
mode (pds, skew, ads, internal, external) to its check, and
verify_certificate maps each kind to its mode.

Certificate kinds: PDS, SkewPDS, TrivialSkewPDS, ADS, DDF, EDF, DPDF,
EPDF, RelativeDPDF, RelativeEPDF, or None on failure.  All counts are
exact integers; there are no tolerances anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cache
from itertools import chain
from math import expm1, isqrt, log, log1p, log2, sqrt

import numpy as np
from numpy.fft import irfftn, rfftn

from .errors import (
    ContainsZero,
    DuplicateElement,
    IndexOutOfRange,
    InvalidElementCode,
    NotDisjoint,
    ParseError,
    UnknownMode,
)
from .field import Field, FieldSpec

_CHUNK = 1 << 20  # ordered pairs per pair-count chunk
_DENSE = 32  # most points of one block axis of the dense transform
_SCRATCH = 1 << 13  # values per block of a dense pass or of the rounding
_PROBED = 1 << 10  # codes in a set from which a probe costs less than a pass over its logs
SET_MODES = ("pds", "skew", "ads")  # the certify modes that classify one set


def as_element_set(field: Field, codes) -> np.ndarray:
    """Sorted array of distinct element codes.  Every entry must be an
    integer: bool, float, str and nested entries are rejected, as are
    duplicates."""
    try:
        raw = np.asarray(codes)
    except ValueError as exc:  # ragged nesting
        raise InvalidElementCode(f"element codes must be integers: {exc}") from exc
    if raw.ndim != 1 or (not isinstance(codes, np.ndarray) and bool in map(type, codes)):
        raise InvalidElementCode("element codes must be integers, not bool, float, str or nested")
    return _sorted_rows(field, raw[None])[0]


def _sorted_rows(field: Field, raw: np.ndarray) -> np.ndarray:
    """An int64 copy of the 2-D array raw with each row sorted: a
    non-integer dtype raises first, then a code out of range, then a code
    repeated within a row."""
    if raw.dtype.kind not in "iu" and raw.size:
        raise InvalidElementCode("element codes must be integers, not bool, float, str or nested")
    rows = raw.astype(np.int64)  # a copy: the caller's array is never sorted
    rows.sort(axis=1)
    if rows.size and (rows[:, 0].min() < 0 or rows[:, -1].max() >= field.q):
        raise IndexOutOfRange(f"element code out of range [0, {field.q})")
    if np.count_nonzero(rows[:, 1:] == rows[:, :-1]):
        raise DuplicateElement("set contains a repeated element")
    return rows


def _pair_counts(field: Field, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Counts of x - y over the pairs of row i of X with row i of Y, summed
    over the rows.  A chunk is at most _CHUNK pairs, or one row of Y when
    that is longer: whole rows when a row fits, else a slice of a row of X
    against the row of Y."""
    counts = np.zeros(field.q, dtype=np.int64)
    rows = max(1, _CHUNK // max(1, X.shape[1] * Y.shape[1]))
    cols = max(1, _CHUNK // max(1, Y.shape[1]))
    for lo in range(0, len(X), rows):
        for c in range(0, X.shape[1], cols):
            x = X[lo : lo + rows, c : c + cols]
            y = np.tile(Y[lo : lo + rows], (1, x.shape[1])).ravel()
            x = np.repeat(x, Y.shape[1], axis=1).ravel()
            counts += np.bincount(field.sub_codes(x, y), minlength=field.q)
    return counts


def _fast_length(n: int) -> int:
    """The smallest c * 2^k >= n with c in {1, 3, 5}: a length at which
    pocketfft runs radix-2, -3, -4 and -5 stages only."""
    return min(c << (-(-n // c) - 1).bit_length() for c in (1, 3, 5))


def _error_bound(q: int, axes: tuple[int, ...] | None, norm: float, terms: int) -> float:
    """Max-norm error bound of a float64 correlation over a group of q
    elements, inverted once from a sum of terms spectra: by FFT when axes
    is None, else by _dense on block axes of those sizes.

    FFT: Percival, Math. Comp. 72 (2003), Thm 5.1, bounds one correlation
    of x and y by |x| |y| ((1+e)^3n (1+e sqrt5)^(3n+1) (1+b)^3n - 1) for
    length 2^n, e the unit roundoff, b the twiddle error.  The theorem is
    for radix 2.  A prime field's correlation runs at L = c 2^k < 4q, c in
    {1, 3, 5}: its one radix-c stage forms each output as a sum of c
    inputs times constants of modulus at most 1, in at most c rounding
    steps, so it errs at most as c radix-2 stages do, and k + c <= log2(4q)
    + 3 stages are over-counted by n = 3 log2(4q).  On (Z_p)^m, m >= 2 and
    p >= 7, n also over-counts pocketfft's mixed-radix stages and its
    Bluestein passes (three inner transforms below 4p per axis).  Zero
    padding leaves |x| and |y| unchanged.

    Dense: a pass applies the computed character matrix V of n points to
    each fiber x.  An entry of V is one root exp(-i t), t = 2 pi r / p
    within 15e of the exact angle, and cos and sin are within 1 ulp, so it
    is within b = 2^-48 of W's.  By Higham, Accuracy and Stability of
    Numerical Algorithms (2nd ed., 2002), 3.5-3.6, the complex dot products
    err by at most sqrt2 g(n+2) |V| |x|, g(k) = ke / (1 - ke).  With
    || |V| |x| ||_2 <= n (1+b) ||x||_2, ||(V - W) x||_2 <= nb ||x||_2 and
    ||Wx||_2 = sqrt(n) ||x||_2, a pass errs by a relative 2-norm eta =
    sqrt(n) (sqrt2 g(n+2) (1+b) + b), about sqrt(n) g(n).  The passes
    compose as Percival's stages do, and the inverse, whose outputs each
    sum all q inputs, errs at most as much against their 1-norm: one
    correlation errs by |x| |y| (prod (1+eta)^3 (1 + sqrt2 g(2)) (1+e)^2
    - 1), the last factors for the product and the scaling by 1/q.  For
    p = 2 the entries are +-1, so every intermediate is a signed sum of
    distinct inputs: an integer of size at most q forward, and at most
    sum |S| <= 2q^2 in the inverse of a spectrum S (sum |F(1_X)|^2 is
    q |X|, and Ext's S is |F(1_U)|^2 less such sums), and the counts are
    exact for 2q^2 <= 2^53, q <= 2^26.

    A sum: the transforms are linear, so the error of a sum of spectra is
    at most the sum of the terms' errors, each bounded as above, and the
    error of the inverse grows with the norm of the sum, at most the sum
    of the norms: norm is sum |x_i| |y_i|, |D_i| for a term |F(1_D_i)|^2.
    Accumulating the terms rounds once per term, counted by terms more
    factors (1+e).  Ext's spectrum |F(1_U)|^2 - sum |F_i|^2 is such a sum,
    of norm 2|U| were F(1_U) a transform of its own; summed as F(1_U) =
    sum F_i over the K sets (the rest of U, when transformed, is one more),
    it errs as a transform of a vector of norm sum |x_i| would, so norm is
    (sum |x_i|)^2 + |U|, at most (K + 1) |U|."""
    e = 2.0**-53
    if axes is None:  # b = e
        n = 3 * log2(4 * q)
        stages, product = n * (2 * log1p(e) + log1p(e * sqrt(5))), log1p(e * sqrt(5))
    else:
        b = 2.0**-48
        stages = sum(log1p(sqrt(n) * (sqrt(2) * (n + 2) * e / (1 - (n + 2) * e) * (1 + b) + b)) for n in axes)
        product = log1p(2 * sqrt(2) * e / (1 - 2 * e)) + 2 * log1p(e)
    return norm * expm1(3 * stages + product + terms * log1p(e))


@cache
def _dense_axes(p: int, m: int) -> tuple[int, ...] | None:
    """Points per block axis of _dense: the m digits in as few blocks of at
    most _DENSE points as hold them, as even as can be.  None for m = 1 and
    where a block holds one digit (p >= 7): pocketfft's passes beat that."""
    digits = 1
    while p ** (digits + 1) <= _DENSE:
        digits += 1
    r = -(-m // digits)
    return None if m == 1 or digits == 1 else tuple(p ** (m // r + (i < m % r)) for i in range(r))


@cache
def _characters(p: int, n: int) -> np.ndarray:
    """The symmetric character matrix of (Z_p)^b, n = p^b: entry (j, k) is
    zeta_p^-<j, k>, j and k read as b digits, each one root computed once;
    real +-1 for p = 2.  Read-only, as callers share it."""
    digits = np.array(np.unravel_index(np.arange(n), (p,) * round(log(n, p))))
    W = np.exp(-1j * (2 * np.pi * np.arange(p) / p))[digits.T @ digits % p]
    W = W.real.copy() if p == 2 else W
    W.flags.writeable = False
    return W


def _indicator(field: Field, S: np.ndarray, dtype) -> np.ndarray:
    """1_S on the grid of (Z_p)^m: codes put digit m-1 on axis 0, so the
    C-order reshape to (p,)*m is that grid."""
    ind = np.zeros(field.q, dtype=dtype)
    ind[S] = 1
    return ind.reshape((field.p,) * field.m)


def _dense(p: int, v: np.ndarray, sizes: tuple[int, ...], inverse: bool = False) -> np.ndarray:
    """v, a float (p = 2) or complex vector over the codes, transformed
    over (Z_p)^m in place and returned: on the C-order grid of shape sizes,
    each fiber along an axis is multiplied by its character matrix,
    conjugated and scaled by 1/q for the inverse.  Digits keep their
    places, so forward this is fftn on the (p,)*m grid.  Scratch is
    _SCRATCH values: whole rows while they fit, else a slice of one row."""
    q, pre = len(v), 1
    for n in sizes:
        W = _characters(p, n).conj() if inverse else _characters(p, n)
        grid = v.reshape(pre, n, -1)
        post = grid.shape[2]
        rows, cols = max(1, _SCRATCH // (n * post)), max(1, _SCRATCH // n)
        for lo in range(0, pre, rows):
            for c in range(0, post, cols):
                blk = grid[lo : lo + rows, :, c : c + cols]
                if post == 1:  # the last axis: the rows times W, which is symmetric
                    blk[..., 0] = blk[..., 0] @ W
                else:
                    blk[...] = W @ blk
        pre *= n
    if inverse:
        v *= 1 / q
    return v


def _power(f: np.ndarray) -> np.ndarray:
    """|f|^2 in place: a real spectrum f (p = 2) is squared and returned; a
    complex one gets |f|^2 in its real part, 0 in its imaginary part, and
    its real part is returned."""
    if f.dtype.kind != "c":
        return np.multiply(f, f, out=f)
    re, im = f.real, f.imag
    np.square(re, out=re)
    re += np.square(im, out=im)
    im[...] = 0
    return re


def _add(total: np.ndarray | None, part: np.ndarray) -> np.ndarray:
    """total + part, summed into total; a first part is the total, not a
    copy, which would add 8 bytes per code to a one-row count's peak."""
    return part if total is None else np.add(total, part, out=total)


def _summed_spectrum(field: Field, rows: list, union: np.ndarray | None, shape: tuple) -> np.ndarray:
    """The spectrum _transform_counts inverts: the sum of F(1_x) conj(F(1_y))
    over the rows, or with union |F(1_union)|^2 minus that sum, F(1_union)
    being the sum of the rows' spectra and, when union holds more, the
    spectrum of the rest.  F is _dense where _dense_axes has axes (real
    for p = 2), else rfftn at shape, and the rows are all (x, x) or all
    (x, y), y not x: a sum of |F(1_x)|^2 is real.  At most three spectra
    are held at once, whatever the number of rows: the sum, the union's
    and one row's."""
    def forward(S):
        if (axes := _dense_axes(field.p, field.m)) is not None:
            return _dense(field.p, _indicator(field, S, float if field.p == 2 else complex).ravel(), axes)
        # with out, the passes over axes m-2, ..., 0 run in place
        out = np.empty((*shape[:-1], shape[-1] // 2 + 1), dtype=complex)
        return rfftn(_indicator(field, S, float), s=shape, axes=tuple(range(field.m)), out=out)

    acc = whole = None
    for x, y in rows:
        fx = forward(x)
        if union is not None:
            whole = fx.copy() if whole is None else np.add(whole, fx, out=whole)
        if y is x:
            term = _power(fx)
        else:
            fy = forward(y)
            term = np.multiply(fx, np.conj(fy, out=fy), out=fx)
            del fy
        acc = np.ascontiguousarray(term) if acc is None else np.add(acc, term, out=acc)
        del fx, term  # before the next row's spectrum is made
    if union is None:
        return acc
    if len(union) > sum(len(x) for x, _ in rows):
        rest = np.setdiff1d(union, np.concatenate([x for x, _ in rows]), assume_unique=True) if rows else union
        whole = _add(whole, forward(rest))
    spec = _power(whole)
    if acc is not None:
        spec -= acc
    return whole


def _transform_counts(field: Field, rows: list, union: np.ndarray | None = None) -> np.ndarray | None:
    """The sum of Delta(x, y), zero hits included, over the pairs (x, y) of
    sorted sets in rows, by transform, or None when it cannot be trusted.
    With union, a sorted set that holds the rows' sets, which are disjoint
    with y is x: Delta(union) minus that sum.  Transforms are linear, so
    each set is transformed once, the rows' products are summed in the
    spectrum (see _summed_spectrum) and inverted once.  The algorithm
    depends on (p, m) alone:

    * m = 1: irfftn of the summed rfftn products at L = _fast_length(2q - 1),
      so the correlation is linear: lags 0..q-1 sit at the front, lags
      -(q-1)..-1 at the back and are folded mod q, and the padded middle
      (empty when L = 2q - 1) must round to 0;
    * m >= 2, p <= 5: _dense, real for p = 2 (where x - y is x XOR y);
    * m >= 2, p >= 7: irfftn of the summed rfftn products on the (p,)*m grid.

    The a-priori bound (_error_bound) and each float's distance to the
    count it rounds to, written block by block over the float's own bytes,
    must be below 1/4.  Every path then needs no negative count, the count
    at 0 and the total that the set sizes give: sum |x & y| and sum |x| |y|,
    or with union |union| - sum |x| and |union|^2 - sum |x|^2."""
    q, p, m = field.q, field.p, field.m
    if union is None:
        zero = sum(len(x) if y is x else len(np.intersect1d(x, y, assume_unique=True)) for x, y in rows)
        total = sum(len(x) * len(y) for x, y in rows)
        norm = sum(sqrt(len(x) * len(y)) for x, y in rows)
        terms = len(rows)
    else:
        sizes = [len(x) for x, _ in rows]
        zero = len(union) - sum(sizes)  # the rest of union, transformed when not empty
        total = len(union) ** 2 - sum(k * k for k in sizes)
        norm = sum(sizes) + (sum(map(sqrt, sizes)) + sqrt(zero)) ** 2
        terms = len(rows) + (zero > 0)
    axes = _dense_axes(p, m)
    shape = (_fast_length(2 * q - 1),) if m == 1 else (p,) * m  # of rfftn, when axes is None
    if _error_bound(q, axes, norm, terms) >= 0.25:
        return None
    spec = _summed_spectrum(field, rows, union, shape)
    if p != 2:  # both inverses take a complex spectrum; the real sum is freed
        spec = spec.astype(complex, copy=False)
    if axes is None:
        raw = irfftn(spec, s=shape, axes=tuple(range(m))).ravel()
    else:
        raw = _dense(p, spec, axes, inverse=True).real
    del spec  # with the in-place steps, keeps the peak near two spectra
    ints = raw.view(np.int64)
    for lo in range(0, len(raw), _SCRATCH):
        blk = raw[lo : lo + _SCRATCH]
        near = np.rint(blk)
        blk -= near
        if np.abs(blk, out=blk).max() >= 0.25:
            return None
        ints[lo : lo + _SCRATCH] = near
    if m == 1:  # lag z - q is at index z - q, from the back; no lag reaches the middle
        if np.count_nonzero(ints[q : 1 - q]):
            return None
        ints[1:q] += ints[1 - q :]
    counts = ints if ints.shape == (q,) and ints.flags.c_contiguous else ints[:q].copy()
    if counts.min() < 0 or counts[0] != zero or counts.sum() != total:
        return None
    return counts


def _orbit_order(field: Field, X: np.ndarray, Y: np.ndarray) -> int | None:
    """The smallest divisor s of q - 1 such that the sorted sets X and Y,
    0 dropped, are unions of classes of order s, or None when there is
    none up to ceil(log2 q): s passes over q bytes then stay well under
    the transform's O(q log q).  A set is such a union exactly when every
    class its logs hit mod s is hit f = (q - 1)/s times; only an f
    dividing both sizes can pass, so the others need no log lookup, and
    g^s must map the first 8 codes of a set of more than _PROBED codes
    into the set, so most others need no pass over its logs either."""
    q1 = field.q - 1
    x, y = X[int(X[0] == 0) :], Y[int(Y[0] == 0) :]
    heads = [(S, field.log[S[:8]]) for S in ([x] if Y is X else [x, y]) if len(S) > _PROBED]
    logs = None
    for s in range(1, q1.bit_length() + 1):
        f, rem = divmod(q1, s)
        if rem or len(x) % f or len(y) % f:
            continue
        moved = [(S, field.exp[(head + s) % q1]) for S, head in heads]
        if moved and not all((S.take(np.searchsorted(S, mv), mode="clip") == mv).all() for S, mv in moved):
            continue
        if logs is None:
            logs = [field.log[x]] if Y is X else [field.log[x], field.log[y]]
        if all(np.count_nonzero(np.bincount(lg % s, minlength=s)) * f == len(lg) for lg in logs):
            return s
    return None


def _orbit_counts(field: Field, X: np.ndarray, Y: np.ndarray) -> np.ndarray | None:
    """Delta(X, Y) with zero hits, for sorted sets that are unions of
    classes of order s (0 aside, s from _orbit_order), or None when they
    are not.  Multiplication by g^s fixes both sets and so the counts,
    which are therefore constant on each class C_c: the value there is
    |X & (Y + g^c)|, counted directly for c < s as the overlap of the mask
    of X with the mask of Y rolled by the digits of g^c on the (p,)*m grid
    of codes, and the value at 0 is |X & Y|."""
    s = _orbit_order(field, X, Y)
    if s is None:
        return None
    in_x = _indicator(field, X, bool)
    in_y = in_x if Y is X else _indicator(field, Y, bool)
    vals = np.zeros(s, dtype=np.int64)
    for c, r in enumerate(field.exp[:s]):
        shifted = in_y  # rolled to in_y[x - r] at x, one axis (one digit of r) at a time
        for axis, shift in enumerate(np.unravel_index(r, in_y.shape)):
            if shift:
                shifted = np.roll(shifted, shift, axis=axis)
        vals[c] = np.count_nonzero(np.logical_and(shifted, in_x, out=shifted))  # r != 0: a rolled copy
    overlap = len(X) if Y is X else np.count_nonzero(in_x & in_y)
    if overlap + int(vals.sum()) * (field.q - 1) // s != len(X) * len(Y):
        return None
    counts = np.empty(field.q, dtype=np.int64)
    counts[0] = overlap
    for lo in range(1, field.q, _CHUNK):  # code z takes the value of its class, log z mod s
        # the indices are in range; mode "raise" would copy through a buffer
        np.take(vals, field.log[lo : lo + _CHUNK] % s, out=counts[lo : lo + _CHUNK], mode="wrap")
    return counts


def _row_counts(field: Field, x: np.ndarray, y: np.ndarray, transform: bool) -> np.ndarray:
    """Delta(x, y) of one row: by a transform of its own when asked and
    trusted, else pair by pair."""
    row = _transform_counts(field, [(x, y)]) if transform else None
    return _pair_counts(field, x[None], y[None]) if row is None else row


def diff_counts(field: Field, pairs: list, union: np.ndarray | None = None) -> np.ndarray:
    """Counts of x - y, x == y hits at 0 included, over row i of X against
    row i of Y, summed over the rows of every pair (X, Y) of 2-D stacks of
    sorted sets; with union, the sorted union of the rows, which are then
    disjoint with Y is X, Delta(union) minus that sum.

    One pair count for a stack of rows of at most q pairs, else per row an
    orbit count when both sets are class unions, and the rest of the rows
    go into one transform sum.  The union is a pair count when it has at
    most q pairs, an orbit count when it is a class union, and otherwise
    joins the sum, which then needs no transform of it.  When the sum is
    not trusted, each of its terms, rows and union, is counted on its own:
    by transform when the sum had more than one term, and pair by pair
    when that is not trusted either."""
    q = field.q
    whole = counts = None
    if union is not None:
        u = union[None]
        whole = _pair_counts(field, u, u) if len(union) ** 2 <= q else _orbit_counts(field, union, union)
    rows = []
    for X, Y in pairs:
        if len(X) == 0 or X.shape[1] * Y.shape[1] <= q:
            counts = _add(counts, _pair_counts(field, X, Y))
            continue
        for i, x in enumerate(X):
            y = x if Y is X else Y[i]
            row = _orbit_counts(field, x, y)
            if row is None:
                rows.append((x, y))
            else:
                counts = _add(counts, row)
    summed_union = union if union is not None and whole is None else None
    if rows or summed_union is not None:
        summed = _transform_counts(field, rows, summed_union)
        if summed is None:
            several = len(rows) + (summed_union is not None) > 1
            for x, y in rows:
                counts = _add(counts, _row_counts(field, x, y, several))
            if summed_union is not None:
                whole = _row_counts(field, union, union, several)
        elif summed_union is not None:
            whole = summed  # the transformed rows are subtracted already
        else:
            counts = _add(counts, summed)
    if union is None:
        return counts
    return whole if counts is None else np.subtract(whole, counts, out=whole)


def internal_differences(field: Field, D) -> np.ndarray:
    """Delta(D): counts of x - y over distinct x, y in D."""
    return _delta(field, as_element_set(field, D))


def _delta(field: Field, d: np.ndarray) -> np.ndarray:
    """Delta(d) of a set that is already sorted, distinct and in range."""
    return _family_profile(field, d[None], d, "internal")


def cross_differences(field: Field, D1, D2) -> np.ndarray:
    """Delta(D1, D2): counts of x - y over x in D1, y in D2.  Zero hits are
    included; callers working with disjoint sets never see any."""
    return diff_counts(field, [(as_element_set(field, D1)[None], as_element_set(field, D2)[None])])


def _validated_family(field: Field, family) -> tuple[np.ndarray | tuple[np.ndarray, ...], np.ndarray]:
    """The family's sets and their sorted union.  A 2-D array is a family
    of one set per row and is checked in one pass; any other family is a
    tuple of sets checked one at a time.  Each set is checked as by
    as_element_set, then 0 in a set raises, then a code shared by two
    sets."""
    if isinstance(family, np.ndarray) and family.ndim == 2:
        fam = _sorted_rows(field, family)
        allc = fam.ravel()
    else:
        fam = tuple(as_element_set(field, s) for s in family)
        allc = np.concatenate(fam) if fam else np.empty(0, dtype=np.int64)
    union = np.sort(allc)  # np.unique hashes, and is far slower on many codes
    if len(union) and union[0] == 0:
        raise ContainsZero("family and reference sets must avoid 0")
    if np.count_nonzero(union[1:] == union[:-1]):
        raise NotDisjoint("family sets are not pairwise disjoint")
    return fam, union


def _family_profile(field: Field, fam: np.ndarray | tuple[np.ndarray, ...], union: np.ndarray,
                    mode: str) -> np.ndarray:
    """Int or Ext of a validated family in one diff_counts call, over one
    stack of equal-size sets per size: a 2-D family is one stack, the
    empty family the empty row of its union.  Ext is Delta(union) minus
    the sum of Delta(D_i): the zero hits cancel."""
    if isinstance(fam, np.ndarray):
        stacks = [fam]
    else:
        stacks = [np.stack([s for s in fam if len(s) == k]) for k in {*map(len, fam)}] or [union[None]]
    counts = diff_counts(field, [(X, X) for X in stacks], union if mode == "external" else None)
    if mode == "internal":
        counts[0] = 0
    return counts


def family_internal(field: Field, family) -> np.ndarray:
    """Int: the sum of the internal difference multisets of the family."""
    return _family_profile(field, *_validated_family(field, family), "internal")


def family_external(field: Field, family) -> np.ndarray:
    """Ext: the sum of Delta(D_i, D_j) over ordered pairs i != j."""
    return _family_profile(field, *_validated_family(field, family), "external")


# ---- certificates ----


@dataclass(eq=False)
class Certificate:
    """A classifier's verdict.  In memory, sets is one 2-D int64 array, a
    set per row, or a tuple of sorted int64 arrays, and reference_set a
    sorted int64 array; in JSON both are lists of codes."""

    kind: str
    field: FieldSpec
    sets: np.ndarray | tuple[np.ndarray, ...]
    reference_set: np.ndarray | None
    params: dict = dc_field(default_factory=dict)
    pds_type: str | None = None
    pds_type_args: tuple[int, int] | None = None
    regular: bool | None = None
    trivial: bool = False
    translate_offset: int | None = None

    @property
    def ok(self) -> bool:
        return self.kind != "None"

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "field": self.field.as_dict(),
            "sets": sets_json(self.sets),
            "reference_set": None if self.reference_set is None else self.reference_set.tolist(),
            "params": dict(self.params),
            "pds_type": self.pds_type,
            "pds_type_args": None if self.pds_type_args is None else list(self.pds_type_args),
            "regular": self.regular,
            "trivial": self.trivial,
            "translate_offset": self.translate_offset,
        }

    @staticmethod
    def from_json(d: dict) -> "Certificate":
        """Inverse of to_json, which writes every key read here.  ParseError
        when a value has the wrong JSON type; KeyError, TypeError or
        AttributeError when d does not have the shape of a certificate."""
        pds_type_args, offset = d["pds_type_args"], d["translate_offset"]
        return Certificate(
            kind=json_typed(d["kind"], str, "kind"),
            field=spec_from_json(d["field"]),
            sets=json_sets(d["sets"], "sets", "set"),
            reference_set=None if d["reference_set"] is None else json_codes(d["reference_set"], "reference_set"),
            params=params_from_json(d["params"]),
            pds_type=json_typed(d["pds_type"], (str, type(None)), "pds_type"),
            pds_type_args=None if pds_type_args is None else tuple(json_ints(pds_type_args, "pds_type_args")),
            regular=json_typed(d["regular"], (bool, type(None)), "regular"),
            trivial=json_typed(d["trivial"], bool, "trivial"),
            translate_offset=None if offset is None else json_typed(offset, int, "translate_offset"),
        )


# ---- reading entries back from JSON ----


def json_typed(value, types, what: str):
    """value when its exact type is one of types, else ParseError.  The
    match is exact, so JSON true is not read as the integer 1."""
    types = types if isinstance(types, tuple) else (types,)
    if type(value) not in types:
        raise ParseError(f"{what} is {value!r}, not of type {' or '.join(t.__name__ for t in types)}")
    return value


def json_ints(value, what: str) -> list[int]:
    """value when it is a JSON array of integers, else ParseError."""
    if not {*map(type, json_typed(value, list, what))} <= {int}:
        raise ParseError(f"{what} holds a value that is not an integer")
    return value


def json_codes(value, what: str) -> np.ndarray:
    """value, a JSON array of integers, as an int64 array, else ParseError."""
    try:
        return np.array(json_ints(value, what), dtype=np.int64)
    except OverflowError as exc:
        raise ParseError(f"{what} holds a code outside int64") from exc


def json_sets(value, what: str, set_what: str) -> np.ndarray | tuple[np.ndarray, ...]:
    """value, a JSON array of sets of integers, as one 2-D int64 array
    when every set has the same non-zero size, else as a tuple of int64
    arrays; ParseError when a value has the wrong JSON type."""
    sets = json_typed(value, list, what)
    if {*map(type, sets)} <= {list}:
        sizes = {*map(len, sets)}
        if len(sizes) == 1 and 0 not in sizes:
            return json_codes(list(chain.from_iterable(sets)), set_what).reshape(len(sets), -1)
    return tuple(json_codes(s, set_what) for s in sets)


def spec_from_json(d: dict) -> FieldSpec:
    return FieldSpec(
        json_typed(d["p"], int, "field p"),
        json_typed(d["m"], int, "field m"),
        tuple(json_ints(d["poly"], "field poly")),
        json_typed(d["generator"], int, "field generator"),
    )


def params_from_json(d: dict) -> dict:
    """Params: ks (the set sizes, see family_params) is an array of
    integers, every other value an integer."""
    return {
        k: json_ints(v, "param ks") if k == "ks" else json_typed(v, int, f"param {k}")
        for k, v in json_typed(d, dict, "params").items()
    }


def _levels(vals: np.ndarray) -> tuple[int, ...] | None:
    """The distinct values of the non-empty vals, ascending, when there are
    at most two, else None.  Read off the min and the max: every caller
    asks only for one value or two, and np.unique would hash (and import
    numpy.ma)."""
    lo, hi = int(vals.min()), int(vals.max())
    if lo == hi:
        return (lo,)
    return (lo, hi) if np.count_nonzero(vals == lo) + np.count_nonzero(vals == hi) == len(vals) else None


def _split(field: Field, prof: np.ndarray, inside: np.ndarray) -> tuple[int, int] | None:
    """(lambda, mu): the single value of prof on inside minus 0, and the
    single value on the rest of G*.  A side with no elements takes the
    other side's value; None when either side holds more than one value."""
    rest = np.ones(field.q, dtype=bool)
    rest[inside] = False
    rest[0] = False
    sides = [v for v in (prof[inside[inside != 0]], prof[rest]) if len(v)]
    if any(v.min() != v.max() for v in sides):
        return None
    return int(sides[0][0]), int(sides[-1][0])


def set_sizes(family) -> list[int]:
    """The sizes of the family's sets; a 2-D family's are read off its shape."""
    return [family.shape[1]] * len(family) if isinstance(family, np.ndarray) else [len(s) for s in family]


def sets_json(family) -> list[list[int]]:
    """The family's sets as lists of codes, one tolist() for a 2-D family."""
    return family.tolist() if isinstance(family, np.ndarray) else [s.tolist() for s in family]


def family_params(q: int, family, lam: int, mu: int | None = None) -> dict:
    """Params of the family: v, m, k (ks, the set sizes, when they
    differ), lambda, and mu unless the family is a DDF/EDF."""
    ks = set_sizes(family)
    params = {"v": q, "m": len(ks), **({"k": ks[0]} if len(set(ks)) == 1 else {"ks": ks}), "lambda": lam}
    if mu is not None:
        params["mu"] = mu
    return params


def _is_symmetric(field: Field, A: np.ndarray) -> bool:
    return np.array_equal(np.sort(field.neg_codes(A)), A)


def _pds_type(v: int, k: int, lam: int, mu: int, regular: bool):
    if lam != mu and regular and v % 4 == 1 and (k, lam, mu) == ((v - 1) // 2, (v - 5) // 4, (v - 1) // 4):
        return "Paley", None
    if lam == mu:
        return "DS", None
    n = isqrt(v)
    if n * n == v:
        if n > 1 and k % (n - 1) == 0:
            r = k // (n - 1)
            if (lam, mu) == (n + r * r - 3 * r, r * r - r):
                return "LatinSquare", (n, r)
        if k % (n + 1) == 0:
            r = k // (n + 1)
            if (lam, mu) == (-n + r * r + 3 * r, r * r + r):
                return "NegativeLatinSquare", (n, r)
    return "Other", None


def _pds_certificate(field: Field, kind: str, d: np.ndarray, ref: np.ndarray, lam: int, mu: int,
                     offset: int | None = None) -> Certificate:
    """Certificate of the set d whose profile is that of the PDS ref, with
    the regularity and the parameter type of ref."""
    regular = bool(0 not in ref and _is_symmetric(field, ref))
    ptype, pargs = _pds_type(field.q, len(ref), lam, mu, regular)
    params = {"v": field.q, "k": len(d), "lambda": lam, "mu": mu}
    return Certificate(kind, field.spec, (d,), ref, params, pds_type=ptype, pds_type_args=pargs,
                       regular=regular, trivial=offset is not None, translate_offset=offset)


def check_pds(field: Field, A) -> Certificate:
    """Certify A as a (v, k, lambda, mu) partial difference set."""
    a = as_element_set(field, A)
    lam_mu = _split(field, _delta(field, a), a)
    if lam_mu is None:
        return Certificate("None", field.spec, (a,), None)
    return _pds_certificate(field, "PDS", a, a, *lam_mu)


def _translate_offset(field: Field, D: np.ndarray, A: np.ndarray) -> int | None:
    """Offset a with D == a + A, or None, for sets of one size |A| > 0.  When
    p does not divide |A| the candidate is pinned by the field sums;
    otherwise every d - A[0] is tried."""
    kmod = len(A) % field.p
    if kmod:
        diff = field.sub(field.sum_codes(D), field.sum_codes(A))
        cands = [field.mul(diff, field.inv(field.element(kmod)))]
    else:
        cands = field.sub_codes(D, A[0])
    for cand in cands:
        if np.array_equal(np.sort(field.add_codes(A, cand)), D):
            return int(cand)
    return None


def check_skew_pds(field: Field, D) -> Certificate:
    """Certify D as a skew PDS: its difference profile must be two-valued
    and match the profile of an actual PDS of the same size, recovered
    from the profile itself (the support of either value, with or
    without 0 adjoined)."""
    d = as_element_set(field, D)
    prof = _delta(field, d)
    vals = _levels(prof[1:])
    if vals is None or len(vals) != 2:
        return Certificate("None", field.spec, (d,), None)
    for lam, mu in (vals, vals[::-1]):
        cand = np.flatnonzero(prof[1:] == lam)
        cand += 1
        if len(cand) + 1 == len(d):  # 0 sorts first
            cand = np.concatenate(([0], cand))
        if len(cand) != len(d) or not np.array_equal(_delta(field, cand), prof):
            continue
        offset = _translate_offset(field, d, cand)
        kind = "SkewPDS" if offset is None else "TrivialSkewPDS"
        return _pds_certificate(field, kind, d, cand, lam, mu, offset)
    return Certificate("None", field.spec, (d,), None)


def check_family(field: Field, family, mode: str, reference=None) -> Certificate:
    """Certify a disjoint family as a (relative) DPDF/EPDF or DDF/EDF.

    mode "internal" classifies Int, mode "external" classifies Ext.  The
    two-valued profile must be constant on the reference T and on G*
    minus T; without a reference, T is the union of the family.  A
    constant nonzero profile is the lambda == mu degeneration and is
    reported as DDF/EDF; an empty difference multiset certifies nothing.
    """
    if mode not in ("internal", "external"):
        raise UnknownMode(f"unknown family mode {mode!r}")
    fam, union = _validated_family(field, family)
    prof = _family_profile(field, fam, union, mode)
    vals = _levels(prof[1:])
    if prof.sum() == 0 or vals is None:
        return Certificate("None", field.spec, fam, None)
    if len(vals) == 1:
        kind = "DDF" if mode == "internal" else "EDF"
        return Certificate(kind, field.spec, fam, None, family_params(field.q, fam, vals[0]))

    t = union if reference is None else _validated_family(field, [reference])[1]  # a one-set family
    lam_mu = _split(field, prof, t)
    if lam_mu is None:
        return Certificate("None", field.spec, fam, None)
    kind = ("Relative" if reference is not None else "") + ("DPDF" if mode == "internal" else "EPDF")
    # t is G* minus the union exactly when the two fill G* and share no code
    trivial = reference is not None and (np.array_equal(t, union) or (
        len(t) + len(union) == field.q - 1
        and np.array_equal(np.searchsorted(union, t), np.searchsorted(union, t, side="right"))))
    return Certificate(kind, field.spec, fam, t, family_params(field.q, fam, *lam_mu), trivial=trivial)


def check_ads(field: Field, D) -> Certificate:
    """Certify D as an almost difference set: nonzero counts are lambda on
    some t-subset and lambda + 1 elsewhere."""
    d = as_element_set(field, D)
    prof = _delta(field, d)
    vals = _levels(prof[1:])
    if vals is None or vals[-1] > vals[0] + 1:
        return Certificate("None", field.spec, (d,), None)
    lam = vals[0]
    t_set = np.flatnonzero(prof[1:] == lam)
    t_set += 1
    return Certificate(
        "ADS",
        field.spec,
        (d,),
        t_set,
        {"v": field.q, "k": len(d), "lambda": lam, "t": len(t_set)},
    )


def certify(field: Field, mode: str, sets, reference=None) -> Certificate:
    """Classify sets in a mode: pds, skew and ads take exactly one set,
    internal and external the family (and the reference, if any)."""
    if mode in ("internal", "external"):
        return check_family(field, sets, mode, reference=reference)
    if mode not in SET_MODES:
        raise UnknownMode(f"mode {mode!r} is not one of pds|skew|ads|internal|external")
    if len(sets) != 1:
        raise ParseError(f"mode {mode} classifies one set, not {len(sets)}")
    return {"pds": check_pds, "skew": check_skew_pds, "ads": check_ads}[mode](field, sets[0])


_KIND_MODE = {
    "PDS": "pds", "SkewPDS": "skew", "TrivialSkewPDS": "skew", "ADS": "ads",
    "DDF": "internal", "DPDF": "internal", "RelativeDPDF": "internal",
    "EDF": "external", "EPDF": "external", "RelativeEPDF": "external",
}


def verify_certificate(field: Field, cert: Certificate) -> bool:
    """Recompute the certificate from its stored sets and compare exactly."""
    mode = _KIND_MODE.get(cert.kind)
    if mode is None:
        return False
    reference = cert.reference_set if cert.kind.startswith("Relative") else None
    return certify(field, mode, cert.sets, reference).to_json() == cert.to_json()
