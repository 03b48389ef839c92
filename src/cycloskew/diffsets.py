"""Difference multisets and the certification layer.

A difference multiset is a length-q integer count vector indexed by
element code.  Every classifier below recomputes counts from scratch
with one exact kernel, an FFT correlation of indicator vectors over the
additive group (Z_p)^m rounded to integers and guarded; inputs of at
most q pairs, and any result that fails its guard, are counted pair by
pair.  Nothing is inferred from formulas, so a certificate is an
independent witness.

Certificate kinds: PDS, SkewPDS, TrivialSkewPDS, ADS, DDF, EDF, DPDF,
EPDF, RelativeDPDF, RelativeEPDF, or None on failure.  All counts are
exact integers; there are no tolerances anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import expm1, isqrt, log1p, log2, sqrt

import numpy as np
from numpy.fft import irfftn, rfftn

from .errors import ContainsZero, DuplicateElement, IndexOutOfRange, NotDisjoint
from .field import Field, FieldSpec

_CHUNK = 1 << 20  # ordered pairs per pair-count chunk


def as_element_set(field: Field, codes) -> np.ndarray:
    """Sorted array of distinct element codes; duplicates are rejected."""
    arr = np.asarray(sorted(int(c) for c in codes), dtype=np.int64)
    if len(arr) == 0:
        return arr
    if arr[0] < 0 or arr[-1] >= field.q:
        raise IndexOutOfRange(f"element code out of range [0, {field.q})")
    if (arr[1:] == arr[:-1]).any():
        raise DuplicateElement("set contains a repeated element")
    return arr


def _pair_counts(field: Field, blocks) -> np.ndarray:
    """Counts of x - y summed over the (X, Y) blocks, in chunks of about
    _CHUNK pairs.  X and Y are 2-D with as many rows; row i pairs each
    element of X[i] with each element of Y[i]."""
    counts = np.zeros(field.q, dtype=np.int64)
    for X, Y in blocks:
        step = max(1, _CHUNK // max(1, X.shape[1] * Y.shape[1]))
        for lo in range(0, len(X), step):
            x = np.repeat(X[lo : lo + step], Y.shape[1], axis=1).ravel()
            y = np.tile(Y[lo : lo + step], (1, X.shape[1])).ravel()
            counts += np.bincount(field.sub_codes(x, y), minlength=field.q)
    return counts


def _fft_error_bound(q: int, nx: int, ny: int) -> float:
    """Max-norm error bound of the float64 FFT correlation of two 0/1
    vectors of length q with nx and ny ones: Percival, Math. Comp. 72
    (2003), Thm 5.1, |x| |y| ((1+e)^3n (1+e sqrt5)^(3n+1) (1+b)^3n - 1) for
    length 2^n, e the unit roundoff, b the twiddle error.  The theorem is
    for radix 2; n = 3 log2(4q) over-counts pocketfft's mixed-radix stages
    and its Bluestein passes (three inner transforms below 4p per axis)."""
    e = b = 2.0**-53
    n = 3 * log2(4 * q)
    return sqrt(nx * ny) * expm1(3 * n * (log1p(e) + log1p(b)) + (3 * n + 1) * log1p(e * sqrt(5)))


def _transform_counts(field: Field, X: np.ndarray, Y: np.ndarray) -> np.ndarray | None:
    """Delta(X, Y) with zero hits as irfftn(rfftn(1_X) * conj(rfftn(1_Y)))
    rounded, or None when it cannot be trusted.  Codes put digit m-1 on
    axis 0, so the C-order reshape to (p,)*m is the grid of (Z_p)^m."""
    q, shape, axes = field.q, (field.p,) * field.m, tuple(range(field.m))
    if _fft_error_bound(q, len(X), len(Y)) >= 0.25:
        return None

    def spectrum(S):
        ind = np.zeros(q)
        ind[S] = 1.0
        return rfftn(ind.reshape(shape), axes=axes)

    fx = spectrum(X)
    fx *= np.conj(fx if Y is X else spectrum(Y))
    raw = irfftn(fx, s=shape, axes=axes).ravel()
    del fx  # with the in-place steps, keeps the peak near 24 bytes per code
    rounded = np.rint(raw)
    raw -= rounded
    if np.abs(raw, out=raw).max() >= 0.25:
        return None
    counts = rounded.astype(np.int64)
    overlap = len(X) if Y is X else len(np.intersect1d(X, Y, assume_unique=True))
    if counts.min() < 0 or counts[0] != overlap or counts.sum() != len(X) * len(Y):
        return None
    return counts


def diff_counts(field: Field, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Counts of x - y over all ordered pairs, including x == y hits at 0.
    X and Y are sorted arrays of distinct codes."""
    if len(X) * len(Y) > field.q:
        counts = _transform_counts(field, X, Y)
        if counts is not None:
            return counts
    return _pair_counts(field, [(X[:, None], np.broadcast_to(Y, (len(X), len(Y))))])


def internal_differences(field: Field, D) -> np.ndarray:
    """Delta(D): counts of x - y over distinct x, y in D."""
    d = as_element_set(field, D)
    counts = diff_counts(field, d, d)
    counts[0] = 0
    return counts


def cross_differences(field: Field, D1, D2) -> np.ndarray:
    """Delta(D1, D2): counts of x - y over x in D1, y in D2.  Zero hits are
    included; callers working with disjoint sets never see any."""
    return diff_counts(field, as_element_set(field, D1), as_element_set(field, D2))


def _validated_family(field: Field, family) -> tuple[list[np.ndarray], np.ndarray]:
    """The family's sets and their sorted union."""
    fam = [as_element_set(field, s) for s in family]
    if any(len(s) and s[0] == 0 for s in fam):
        raise ContainsZero("family sets must avoid 0")
    allc = np.concatenate(fam) if fam else np.empty(0, dtype=np.int64)
    union = np.unique(allc)
    if len(union) != len(allc):
        raise NotDisjoint("family sets are not pairwise disjoint")
    return fam, union


def _family_profile(field: Field, fam: list[np.ndarray], union: np.ndarray, mode: str) -> np.ndarray:
    """Int or Ext of a validated family.  Sets of at most q pairs are
    stacked by size into one pair count, larger ones get a transform each.
    Ext is Delta(union) minus the sum of Delta(D_i): the zero hits of the
    two cancel."""
    groups: dict[int, list[np.ndarray]] = {}
    for s in fam:
        groups.setdefault(len(s), []).append(s)
    counts = _pair_counts(field, [(np.stack(g),) * 2 for k, g in groups.items() if k * k <= field.q])
    for s in fam:
        if len(s) * len(s) > field.q:
            counts += diff_counts(field, s, s)
    if mode == "internal":
        counts[0] = 0
        return counts
    return diff_counts(field, union, union) - counts


def family_internal(field: Field, family) -> np.ndarray:
    """Int: the sum of the internal difference multisets of the family."""
    return _family_profile(field, *_validated_family(field, family), "internal")


def family_external(field: Field, family) -> np.ndarray:
    """Ext: the sum of Delta(D_i, D_j) over ordered pairs i != j."""
    return _family_profile(field, *_validated_family(field, family), "external")


# ---- certificates ----


@dataclass
class Certificate:
    kind: str
    field: FieldSpec
    sets: list[list[int]]
    reference_set: list[int] | None
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
            "sets": [[int(c) for c in s] for s in self.sets],
            "reference_set": None
            if self.reference_set is None
            else [int(c) for c in self.reference_set],
            "params": {k: (list(v) if isinstance(v, (list, tuple)) else int(v)) for k, v in self.params.items()},
            "pds_type": self.pds_type,
            "pds_type_args": None if self.pds_type_args is None else list(self.pds_type_args),
            "regular": self.regular,
            "trivial": self.trivial,
            "translate_offset": self.translate_offset,
        }

    @staticmethod
    def from_json(d: dict) -> "Certificate":
        fs = d["field"]
        return Certificate(
            kind=d["kind"],
            field=FieldSpec(fs["p"], fs["m"], tuple(fs["poly"]), fs["generator"]),
            sets=[list(s) for s in d["sets"]],
            reference_set=None if d["reference_set"] is None else list(d["reference_set"]),
            params={k: (list(v) if isinstance(v, list) else v) for k, v in d["params"].items()},
            pds_type=d.get("pds_type"),
            pds_type_args=None if d.get("pds_type_args") is None else tuple(d["pds_type_args"]),
            regular=d.get("regular"),
            trivial=d.get("trivial", False),
            translate_offset=d.get("translate_offset"),
        )


def _none_cert(field: Field, sets: list[np.ndarray]) -> Certificate:
    return Certificate("None", field.spec, [[int(c) for c in s] for s in sets], None)


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


def check_pds(field: Field, A) -> Certificate:
    """Certify A as a (v, k, lambda, mu) partial difference set."""
    a = as_element_set(field, A)
    prof = internal_differences(field, a)
    q = field.q
    a_star = a[a != 0]
    off = np.ones(q, dtype=bool)
    off[a] = False
    off[0] = False
    lam_vals = np.unique(prof[a_star]) if len(a_star) else np.empty(0, dtype=np.int64)
    mu_vals = np.unique(prof[off]) if off.any() else np.empty(0, dtype=np.int64)
    if len(lam_vals) > 1 or len(mu_vals) > 1:
        return _none_cert(field, [a])
    lam = int(lam_vals[0]) if len(lam_vals) else (int(mu_vals[0]) if len(mu_vals) else 0)
    mu = int(mu_vals[0]) if len(mu_vals) else lam
    regular = bool(0 not in a and _is_symmetric(field, a))
    ptype, pargs = _pds_type(q, len(a), lam, mu, regular)
    return Certificate(
        "PDS",
        field.spec,
        [[int(c) for c in a]],
        [int(c) for c in a],
        {"v": q, "k": len(a), "lambda": lam, "mu": mu},
        pds_type=ptype,
        pds_type_args=pargs,
        regular=regular,
    )


def _translate_offset(field: Field, D: np.ndarray, A: np.ndarray) -> int | None:
    """Offset a with D == a + A, or None.  When p does not divide |A| the
    candidate is pinned by the field sums; otherwise every d - A[0] is
    tried."""
    if len(D) != len(A) or len(A) == 0:
        return None
    kmod = len(A) % field.p
    if kmod:
        diff = field.sub(field.sum_codes(D), field.sum_codes(A))
        cands = [field.mul(diff, field.inv(field.element(kmod)))]
    else:
        cands = [int(c) for c in field.sub_codes(D, int(A[0]))]
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
    prof = internal_differences(field, d)
    vals = np.unique(prof[1:])
    if len(vals) != 2:
        return _none_cert(field, [d])
    for val in vals:
        supp = np.flatnonzero(prof == val)
        supp = supp[supp != 0]
        for with_zero in (False, True):
            cand = np.sort(np.concatenate([supp, [0]])) if with_zero else supp
            if len(cand) != len(d):
                continue
            if not np.array_equal(internal_differences(field, cand), prof):
                continue
            lam = int(val)
            mu = int(vals[0] if vals[1] == val else vals[1])
            regular = bool(0 not in cand and _is_symmetric(field, cand))
            ptype, pargs = _pds_type(field.q, len(cand), lam, mu, regular)
            offset = _translate_offset(field, d, cand)
            return Certificate(
                "TrivialSkewPDS" if offset is not None else "SkewPDS",
                field.spec,
                [[int(c) for c in d]],
                [int(c) for c in cand],
                {"v": field.q, "k": len(d), "lambda": lam, "mu": mu},
                pds_type=ptype,
                pds_type_args=pargs,
                regular=regular,
                trivial=offset is not None,
                translate_offset=offset,
            )
    return _none_cert(field, [d])


def check_family(field: Field, family, mode: str, reference=None) -> Certificate:
    """Certify a disjoint family as a (relative) DPDF/EPDF or DDF/EDF.

    mode "internal" classifies Int, mode "external" classifies Ext.
    Without a reference the two-valued profile must align with the union
    S; with a reference T it must be constant on T and on G* minus T.
    A constant nonzero profile is the lambda == mu degeneration and is
    reported as DDF/EDF; an empty difference multiset certifies nothing.
    """
    if mode not in ("internal", "external"):
        raise ValueError(f"unknown family mode {mode!r}")
    fam, union = _validated_family(field, family)
    prof = _family_profile(field, fam, union, mode)
    q = field.q
    sets_out = [[int(c) for c in s] for s in fam]
    ks = [len(s) for s in fam]
    params: dict = {"v": q, "m": len(fam)}
    if len(set(ks)) == 1:
        params["k"] = ks[0]
    else:
        params["ks"] = ks

    if prof.sum() == 0:
        return _none_cert(field, fam)
    vals = np.unique(prof[1:])
    if len(vals) == 1:
        params["lambda"] = int(vals[0])
        kind = "DDF" if mode == "internal" else "EDF"
        return Certificate(kind, field.spec, sets_out, None, params)
    if len(vals) != 2:
        return _none_cert(field, fam)

    if reference is not None:
        t = as_element_set(field, reference)
        if len(t) and t[0] == 0:
            raise ContainsZero("reference set must avoid 0")
        off = np.ones(q, dtype=bool)
        off[t] = False
        off[0] = False
        lam_vals = np.unique(prof[t])
        mu_vals = np.unique(prof[off])
        if len(lam_vals) != 1 or len(mu_vals) != 1:
            return _none_cert(field, fam)
        params["lambda"] = int(lam_vals[0])
        params["mu"] = int(mu_vals[0])
        kind = "RelativeDPDF" if mode == "internal" else "RelativeEPDF"
        comp = np.setdiff1d(field.nonzero_codes(), union, assume_unique=True)
        trivial = bool(np.array_equal(t, union) or np.array_equal(t, comp))
        return Certificate(
            kind, field.spec, sets_out, [int(c) for c in t], params, trivial=trivial
        )

    off = np.ones(q, dtype=bool)
    off[union] = False
    off[0] = False
    lam_vals = np.unique(prof[union])
    mu_vals = np.unique(prof[off])
    if len(lam_vals) != 1 or len(mu_vals) != 1:
        return _none_cert(field, fam)
    params["lambda"] = int(lam_vals[0])
    params["mu"] = int(mu_vals[0])
    kind = "DPDF" if mode == "internal" else "EPDF"
    return Certificate(kind, field.spec, sets_out, [int(c) for c in union], params)


def check_ads(field: Field, D) -> Certificate:
    """Certify D as an almost difference set: nonzero counts are lambda on
    some t-subset and lambda + 1 elsewhere."""
    d = as_element_set(field, D)
    prof = internal_differences(field, d)
    vals = np.unique(prof[1:])
    if len(vals) == 1:
        lam = int(vals[0])
    elif len(vals) == 2 and vals[1] == vals[0] + 1:
        lam = int(vals[0])
    else:
        return _none_cert(field, [d])
    t_set = np.flatnonzero(prof == lam)
    t_set = t_set[t_set != 0]
    return Certificate(
        "ADS",
        field.spec,
        [[int(c) for c in d]],
        [int(c) for c in t_set],
        {"v": field.q, "k": len(d), "lambda": lam, "t": len(t_set)},
    )


def verify_certificate(field: Field, cert: Certificate) -> bool:
    """Recompute the certificate from its stored sets and compare exactly."""
    kind = cert.kind
    if kind == "PDS":
        redo = check_pds(field, cert.sets[0])
    elif kind in ("SkewPDS", "TrivialSkewPDS"):
        redo = check_skew_pds(field, cert.sets[0])
    elif kind == "ADS":
        redo = check_ads(field, cert.sets[0])
    elif kind in ("DDF", "DPDF"):
        redo = check_family(field, cert.sets, "internal")
    elif kind in ("EDF", "EPDF"):
        redo = check_family(field, cert.sets, "external")
    elif kind == "RelativeDPDF":
        redo = check_family(field, cert.sets, "internal", reference=cert.reference_set)
    elif kind == "RelativeEPDF":
        redo = check_family(field, cert.sets, "external", reference=cert.reference_set)
    else:
        return False
    return redo.to_json() == cert.to_json()
