import hashlib
import json
import os
import subprocess
import sys
from functools import cache
from math import isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cycloskew import (
    Certificate,
    build_field,
    check_ads,
    check_family,
    check_pds,
    check_skew_pds,
    class_union,
    classes,
    cross_differences,
    diffsets,
    family_external,
    family_internal,
    internal_differences,
    iter_applicable,
    verify_certificate,
)
from cycloskew.cli import main
from cycloskew.constructions import Construction, apply, get_recipe, recheck
from cycloskew.diffsets import certify
from cycloskew.errors import (
    ContainsZero,
    CycloskewError,
    DuplicateElement,
    IndexOutOfRange,
    InvalidElementCode,
    NotDisjoint,
    UnknownMode,
)


def naive_internal(field, D):
    counts = np.zeros(field.q, dtype=np.int64)
    for x in D:
        for y in D:
            if x != y:
                counts[field.sub(x, y)] += 1
    return counts


def naive_cross(field, X, Y):
    """Reference Delta(X, Y): every ordered pair, zero hits included."""
    X, Y = np.asarray(X, dtype=np.int64), np.asarray(Y, dtype=np.int64)
    return np.bincount(field.sub_codes(X[:, None], Y[None, :]).ravel(), minlength=field.q)


def naive_family(field, family, mode):
    """Reference Int (i == j, zero hits dropped) or Ext (i != j)."""
    counts = np.zeros(field.q, dtype=np.int64)
    for i, Di in enumerate(family):
        for j, Dj in enumerate(family):
            if (i == j) == (mode == "internal"):
                counts += naive_cross(field, Di, Dj)
    if mode == "internal":
        counts[0] = 0
    return counts


def test_internal_small(gf13):
    counts = internal_differences(gf13, [1, 2])
    expect = np.zeros(13, dtype=np.int64)
    expect[1] = expect[12] = 1
    assert np.array_equal(counts, expect)


def test_internal_matches_naive(gf13, gf9, gf25):
    rng = np.random.default_rng(11)
    for f in (gf13, gf9, gf25):
        for _ in range(5):
            size = rng.integers(2, f.q // 2)
            D = rng.choice(f.q, size=size, replace=False)
            assert np.array_equal(internal_differences(f, D), naive_internal(f, D))


def test_internal_rejects_duplicates(gf13):
    with pytest.raises(DuplicateElement):
        internal_differences(gf13, [1, 1, 2])


@pytest.mark.parametrize(
    "codes",
    [[1.9, 3, 4, 9, 10, 12], [True, 3], [True, False], ["1", 3], [None], [[1], 3], [[1, 2]]],
)
def test_non_integer_codes_rejected(gf13, capsys, codes):
    with pytest.raises(InvalidElementCode):
        diffsets.as_element_set(gf13, codes)
    argv = ["verify", "--p", "13", "--gen", "2", "--sets", json.dumps([codes]), "--mode", "pds"]
    assert main(argv) == 2
    assert "InvalidElementCode" in capsys.readouterr().err


@pytest.mark.parametrize(
    "codes",
    [np.array([1.0, 3.0]), np.array([True, False]), np.array([[1, 3]]), {1, 3}],
)
def test_non_integer_arrays_rejected(gf13, codes):
    with pytest.raises(InvalidElementCode):
        diffsets.as_element_set(gf13, codes)


@pytest.mark.parametrize(
    "codes, expect",
    [
        ([3, 1], [1, 3]),
        ((3, 1), [1, 3]),
        (range(1, 4, 2), [1, 3]),
        (np.array([3, 1]), [1, 3]),
        (np.array([3, 1], dtype=np.uint8), [1, 3]),
        ([np.int64(3), 1], [1, 3]),
        ([], []),
        (np.array([], dtype=np.int64), []),
    ],
)
def test_integer_codes_accepted(gf13, codes, expect):
    assert diffsets.as_element_set(gf13, codes).tolist() == expect


def test_paley_profile(gf13):
    p2 = classes(gf13, 2)
    counts = internal_differences(gf13, p2.members[0])
    assert set(int(counts[c]) for c in p2.members[0]) == {2}
    assert set(int(counts[c]) for c in p2.members[1]) == {3}


def test_gf9_skew_paley_profile(gf9_alt):
    # D = {1, a, a+1, 2a} has two copies of the nonsquares, one of the squares
    D = [1, 3, 4, 6]
    counts = internal_differences(gf9_alt, D)
    p2 = classes(gf9_alt, 2)
    assert set(int(counts[c]) for c in p2.members[1]) == {2}
    assert set(int(counts[c]) for c in p2.members[0]) == {1}


def test_cross_differences(gf13):
    counts = cross_differences(gf13, [1, 2], [3, 6])
    assert sorted(np.flatnonzero(counts)) == [8, 9, 11, 12]
    assert counts.sum() == 4
    counts = cross_differences(gf13, [5, 9], [3, 6])
    assert sorted(np.flatnonzero(counts)) == [2, 3, 6, 12]
    one = cross_differences(gf13, [5], [5])
    assert one[0] == 1 and one.sum() == 1


def test_family_ops(gf13):
    family = [[1, 2], [3, 6], [5, 9]]
    p2 = classes(gf13, 2)
    internal = family_internal(gf13, family)
    assert set(int(internal[c]) for c in p2.members[0]) == {1}
    assert set(int(internal[c]) for c in p2.members[1]) == {0}
    external = family_external(gf13, family)
    assert set(int(external[c]) for c in range(1, 13)) == {2}
    assert family_external(gf13, [[1, 2]]).sum() == 0


def test_family_validation(gf13):
    with pytest.raises(NotDisjoint):
        family_internal(gf13, [[1, 2], [2, 3]])
    with pytest.raises(ContainsZero):
        family_internal(gf13, [[0, 1], [2, 3]])
    # the reference is checked as a one-set family once Int is two-valued
    for reference, error in [([0, 1], ContainsZero), ([1, 1], DuplicateElement), ([13], IndexOutOfRange)]:
        with pytest.raises(error):
            check_family(gf13, [[1, 2], [3, 6], [5, 9]], "internal", reference=reference)


def test_int_plus_ext_is_delta_of_union(gf13, gf25):
    rng = np.random.default_rng(5)
    for f in (gf13, gf25):
        for _ in range(20):
            pool = list(rng.permutation(np.arange(1, f.q)))
            family = []
            for _ in range(rng.integers(2, 5)):
                size = int(rng.integers(1, 4))
                family.append([int(pool.pop()) for _ in range(size)])
            union = [c for s in family for c in s]
            lhs = family_internal(f, family) + family_external(f, family)
            assert np.array_equal(lhs, internal_differences(f, union))


@given(st.data())
@settings(max_examples=80)
def test_delta_symmetry(data):
    f = build_field(13, 1, generator=2)
    size = data.draw(st.integers(2, 12))
    D = data.draw(st.lists(st.integers(0, 12), min_size=size, max_size=size, unique=True))
    counts = internal_differences(f, D)
    assert np.array_equal(counts, counts[f.neg_codes(np.arange(13))])


def test_check_pds_examples(gf13, gf9, gf81):
    cert = check_pds(gf13, classes(gf13, 2).members[0])
    assert cert.kind == "PDS" and cert.params == {"v": 13, "k": 6, "lambda": 2, "mu": 3}
    assert cert.pds_type == "Paley" and cert.regular

    cert9 = check_pds(gf9, classes(gf9, 4).members[0])
    assert cert9.params == {"v": 9, "k": 2, "lambda": 1, "mu": 0}
    assert cert9.pds_type == "LatinSquare" and cert9.pds_type_args == (3, 1)

    cert81 = check_pds(gf81, classes(gf81, 4).members[0])
    assert cert81.params == {"v": 81, "k": 20, "lambda": 1, "mu": 6}
    assert cert81.pds_type == "NegativeLatinSquare" and cert81.pds_type_args == (9, 2)


def test_check_pds_failure(gf13):
    assert check_pds(gf13, [1, 2, 3]).kind == "None"


def test_counting_identity(gf13, gf9, gf81):
    for f, A in (
        (gf13, classes(gf13, 2).members[0]),
        (gf9, classes(gf9, 4).members[0]),
        (gf81, classes(gf81, 4).members[0]),
    ):
        cert = check_pds(f, A)
        v, k = cert.params["v"], cert.params["k"]
        lam, mu = cert.params["lambda"], cert.params["mu"]
        assert k * (k - 1) == lam * k + mu * (v - 1 - k)


def test_check_skew_examples(gf13, gf361):
    cert = check_skew_pds(gf13, [1, 3, 7, 8, 9, 11])
    assert cert.kind == "SkewPDS" and not cert.trivial
    assert cert.params == {"v": 13, "k": 6, "lambda": 2, "mu": 3}
    assert cert.reference_set.tolist() == [1, 3, 4, 9, 10, 12]

    trivial = check_skew_pds(gf13, classes(gf13, 2).members[0])
    assert trivial.kind == "TrivialSkewPDS" and trivial.translate_offset == 0

    shifted = check_skew_pds(gf13, [(c + 5) % 13 for c in [1, 3, 4, 9, 10, 12]])
    assert shifted.kind == "TrivialSkewPDS" and shifted.translate_offset == 5

    cert361 = check_skew_pds(gf361, class_union(gf361, 8, (3, 5)))
    assert cert361.kind == "SkewPDS"
    assert cert361.params == {"v": 361, "k": 90, "lambda": 29, "mu": 20}
    assert cert361.reference_set.tolist() == [int(c) for c in classes(gf361, 4).members[0]]


def test_translate_offset_when_p_divides_size(gf9):
    # |A| = 3 = p: the field sums do not pin the offset, so every d - A[0]
    # is tried; [0, 1, 2] is the additive subgroup GF(3)
    for D, offset in (([3, 4, 5], 3), ([0, 1, 2], 0)):
        cert = check_skew_pds(gf9, D)
        assert cert.kind == "TrivialSkewPDS" and cert.trivial and cert.translate_offset == offset
        assert cert.reference_set.tolist() == [0, 1, 2]
        assert cert.params == {"v": 9, "k": 3, "lambda": 3, "mu": 0}


def test_check_skew_failure(gf13):
    assert check_skew_pds(gf13, [1, 2, 3]).kind == "None"
    # a DS profile (one value) is rejected as skew
    f7 = build_field(7)
    assert check_skew_pds(f7, classes(f7, 2).members[0]).kind == "None"


def test_prop22_negation_closure():
    # a certified PDS with distinct frequencies is symmetric
    for q in (13, 17, 25, 29, 37, 41, 81):
        from cycloskew.numtheory import prime_power_decompose

        f = build_field(*prime_power_decompose(q))
        for e in (2, 4):
            if (q - 1) % e:
                continue
            cert = check_pds(f, classes(f, e).members[0])
            if cert.ok and cert.params["lambda"] != cert.params["mu"]:
                assert cert.regular or 0 in cert.sets[0]


def test_prop22_derived_sets():
    # symmetric PDS: removing/adjoining 0 and complementing stay PDSs
    from cycloskew.constructions import prime_powers

    for q, p, m in prime_powers(5, 200):
        if q % 4 != 1:
            continue
        f = build_field(p, m)
        A = classes(f, 2).members[0]
        assert check_pds(f, A).ok
        with_zero = sorted([0] + [int(c) for c in A])
        comp = sorted(set(range(q)) - set(int(c) for c in A))
        comp_no_zero = sorted(set(comp) - {0})
        for derived in (with_zero, comp, comp_no_zero, sorted(set(comp) | {0})):
            assert check_pds(f, derived).ok, (q, derived)


def test_complement_law(gf13, gf361):
    for f, D in ((gf13, [1, 3, 7, 8, 9, 11]), (gf361, class_union(gf361, 8, (3, 5)))):
        cert = check_skew_pds(f, D)
        v, k = cert.params["v"], cert.params["k"]
        lam, mu = cert.params["lambda"], cert.params["mu"]
        comp = sorted(set(range(f.q)) - set(int(c) for c in np.asarray(D)))
        comp_cert = check_skew_pds(f, comp)
        assert comp_cert.ok
        assert comp_cert.params == {
            "v": v,
            "k": v - k,
            "lambda": v - 2 * k + mu,
            "mu": v - 2 * k + lam,
        }
        expect_ref = sorted(set(range(f.q)) - set(cert.reference_set))
        assert comp_cert.reference_set.tolist() == expect_ref


def test_check_family_examples(gf25, gf13):
    p2 = classes(gf25, 2)
    fam = [class_union(gf25, 8, (0, 3)), class_union(gf25, 8, (1, 6))]
    cert = check_family(gf25, fam, "internal", reference=p2.members[0])
    assert cert.kind == "RelativeDPDF"
    assert cert.params == {"v": 25, "m": 2, "k": 6, "lambda": 2, "mu": 3}
    assert not cert.trivial

    f89 = build_field(89)
    p8_89 = classes(f89, 8)
    cert89 = check_family(
        f89, [p8_89.members[0], p8_89.members[2]], "internal", reference=classes(f89, 2).members[0]
    )
    assert cert89.kind == "RelativeDPDF"
    assert cert89.params == {"v": 89, "m": 2, "k": 11, "lambda": 1, "mu": 4}

    f41 = build_field(41)
    p8_41 = classes(f41, 8)
    cert41 = check_family(f41, [p8_41.members[0], p8_41.members[2]], "internal")
    assert cert41.kind == "DDF"
    assert cert41.params == {"v": 41, "m": 2, "k": 5, "lambda": 1}

    edf = check_family(gf13, [[1, 2], [3, 6], [5, 9]], "external")
    assert edf.kind == "EDF" and edf.params == {"v": 13, "m": 3, "k": 2, "lambda": 2}


def test_check_family_trivial_flag(gf13):
    squares, nonsquares = classes(gf13, 2).members
    # the reference is the union, then G* minus the union
    for reference in (squares, nonsquares):
        cert = check_family(gf13, [squares], "internal", reference=reference)
        assert (cert.kind, cert.trivial) == ("RelativeDPDF", True)
    # R14's pairs {i, 2i} cover C_0^4 u C_1^4, neither the squares nor the nonsquares
    internal = apply(get_recipe("R14"), gf13)[0].certificate
    assert (internal.kind, internal.trivial) == ("RelativeDPDF", False)


def test_check_family_empty_profile(gf13):
    assert check_family(gf13, [[1]], "internal").kind == "None"


def test_check_ads_examples(gf13, gf9):
    p2 = classes(gf13, 2)
    cert = check_ads(gf13, p2.members[0])
    assert cert.params == {"v": 13, "k": 6, "lambda": 2, "t": 6}
    skew = check_ads(gf13, [1, 3, 7, 8, 9, 11])
    assert skew.params == {"v": 13, "k": 6, "lambda": 2, "t": 6}
    cert9 = check_ads(gf9, classes(gf9, 4).members[0])
    assert cert9.params == {"v": 9, "k": 2, "lambda": 0, "t": 6}
    assert check_ads(gf13, [1, 2, 3, 4]).kind == "None"
    assert check_ads(gf9, [0, 1, 2, 3]).kind == "None"  # two-valued, but 1 and 3


SQUARES_13 = [1, 3, 4, 9, 10, 12]  # C_0^2 of GF(13); C_0^4 = {1, 3, 9}, C_3^4 = {7, 8, 11}
KIND_EXAMPLES = [
    ("PDS", "pds", [SQUARES_13], None),
    ("SkewPDS", "skew", [[1, 3, 7, 8, 9, 11]], None),
    ("TrivialSkewPDS", "skew", [SQUARES_13], None),
    ("ADS", "ads", [[1, 3, 7, 8, 9, 11]], None),
    ("DDF", "internal", [[1, 3, 9], [7, 8, 11]], None),
    ("EDF", "external", [[1, 2], [3, 6], [5, 9]], None),
    ("DPDF", "internal", [[1, 4], [3, 12], [9, 10]], None),
    ("EPDF", "external", [[1, 4], [3, 12], [9, 10]], None),
    ("RelativeDPDF", "internal", [[1, 2], [3, 6], [5, 9]], SQUARES_13),
    ("RelativeEPDF", "external", [[1, 3, 9], [7, 8, 11]], SQUARES_13),
]


def test_kind_examples_cover_every_kind():
    assert sorted(k for k, *_ in KIND_EXAMPLES) == sorted(diffsets._KIND_MODE)


@pytest.mark.parametrize("kind, mode, sets, reference", KIND_EXAMPLES)
def test_verify_certificate_every_kind(gf13, kind, mode, sets, reference):
    cert = certify(gf13, mode, sets, reference)
    assert cert.kind == kind
    back = Certificate.from_json(cert.to_json())
    for c in (cert, back):  # sorted int64 arrays in memory, lists only in JSON
        for s in [*c.sets, *([] if c.reference_set is None else [c.reference_set])]:
            assert s.dtype == np.int64 and (np.diff(s) > 0).all()
    assert verify_certificate(gf13, back)
    tampered = Certificate.from_json(cert.to_json())
    tampered.params["lambda"] += 1
    assert not verify_certificate(gf13, tampered)


def test_unknown_mode_is_typed(gf13):
    with pytest.raises(UnknownMode):
        certify(gf13, "bogus", [[1, 3, 9]])
    with pytest.raises(UnknownMode):
        check_family(gf13, [[1, 3, 9]], "pds")


def test_certificate_roundtrip(gf13):
    cert = check_skew_pds(gf13, [1, 3, 7, 8, 9, 11])
    back = Certificate.from_json(cert.to_json())
    assert back.to_json() == cert.to_json()
    assert verify_certificate(gf13, cert)
    tampered = Certificate.from_json(cert.to_json())
    tampered.params["lambda"] = 5
    assert not verify_certificate(gf13, tampered)


# prime fields (20011 is a large prime length for the transform), p = 2
# up to m = 14, and odd p with m >= 2
DIFF_FIELDS = [(13, 1), (97, 1), (20011, 1), (2, 1), (2, 4), (2, 9), (2, 14), (5, 2), (3, 9), (101, 2)]


@cache
def _diff_field(p, m):
    return build_field(p, m)


@st.composite
def sized_subset(draw, rng, pool, q, large):
    """A random subset of pool on one side of the |X| |Y| <= q switch
    (for |X| == |Y|): at most isqrt(q) elements, or more."""
    q_root = isqrt(q)
    lo, hi = (q_root + 1, min(len(pool), 3 * q_root + 2)) if large else (0, min(len(pool), q_root))
    return rng.choice(pool, size=draw(st.integers(min(lo, hi), hi)), replace=False)


@pytest.mark.parametrize("p, m", DIFF_FIELDS)
@given(data=st.data())
@settings(max_examples=15)
def test_kernels_match_naive_pair_count(p, m, data):
    f = _diff_field(p, m)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    everything = np.arange(f.q)
    X = data.draw(sized_subset(rng, everything, f.q, data.draw(st.booleans())))
    assert np.array_equal(internal_differences(f, X), naive_cross(f, X, X) * (everything != 0))

    # Y shares a drawn number of elements with X
    Y = data.draw(sized_subset(rng, everything, f.q, data.draw(st.booleans())))
    shared = data.draw(st.integers(0, min(len(X), len(Y))))
    Y = np.union1d(X[:shared], Y[: len(Y) - shared])
    assert np.array_equal(cross_differences(f, X, Y), naive_cross(f, X, Y))

    pool, family = everything[1:], []
    for _ in range(data.draw(st.integers(1, 4))):
        family.append(data.draw(sized_subset(rng, pool, f.q, data.draw(st.booleans()))))
        pool = np.setdiff1d(pool, family[-1], assume_unique=True)
    for mode, kernel in (("internal", family_internal), ("external", family_external)):
        assert np.array_equal(kernel(f, family), naive_family(f, family, mode))


# ceil(log2 q) >= 8, so a union of classes of any order e in {1, 2, 4, 8}
# dividing q - 1 is in the orbit count's reach.  q = 1 (mod 8) has every
# order; in GF(3^5) a class of order 2 has an odd number of codes, so -1
# is in no class subgroup and Delta(X, Y) differs from Delta(Y, X)
ORBIT_FIELDS = [(257, 1), (17, 2), (5, 4), (3, 6), (3, 5), (2, 8)]


@st.composite
def class_union_set(draw, f):
    """A union of classes of a drawn order e in {1, 2, 4, 8}, 0 adjoined or not."""
    e = draw(st.sampled_from([e for e in (1, 2, 4, 8) if (f.q - 1) % e == 0]))
    S = class_union(f, e, draw(st.sets(st.integers(0, e - 1))))
    return np.concatenate(([0], S)) if draw(st.booleans()) else S


def _spy_kernels(mp):
    """Record (name, result is not None) for every orbit, transform and pair count."""
    seen = []
    for name in ("_orbit_counts", "_transform_counts", "_pair_counts"):
        def spy(*args, name=name, real=getattr(diffsets, name)):
            out = real(*args)
            seen.append((name, out is not None))
            return out

        mp.setattr(diffsets, name, spy)
    return seen


@pytest.mark.parametrize("p, m", ORBIT_FIELDS)
@given(data=st.data())
@settings(max_examples=15)
def test_orbit_count_matches_naive_pair_count(p, m, data):
    # X and Y are class unions, of orders drawn apart; a nudged X has one
    # nonzero code removed or added, so no class order fits it and its
    # counts must go to the transform or the pair count
    f = _diff_field(p, m)
    X, Y = data.draw(class_union_set(f)), data.draw(class_union_set(f))
    nudged = data.draw(st.booleans())
    if nudged:
        z = data.draw(st.integers(1, f.q - 1))
        X = np.setdiff1d(X, [z]) if z in X else np.union1d(X, [z])
    e = data.draw(st.sampled_from([e for e in (1, 2, 4, 8) if (f.q - 1) % e == 0]))
    idx = data.draw(st.permutations(range(e)))
    cut = data.draw(st.integers(0, e))
    family = [class_union(f, e, idx[:cut]), class_union(f, e, idx[cut:])]
    with pytest.MonkeyPatch.context() as mp:
        seen = _spy_kernels(mp)
        assert np.array_equal(internal_differences(f, X), naive_cross(f, X, X) * (np.arange(f.q) != 0))
        assert np.array_equal(cross_differences(f, X, Y), naive_cross(f, X, Y))
        assert np.array_equal(cross_differences(f, Y, X), naive_cross(f, Y, X))
        if not nudged:
            for mode, kernel in (("internal", family_internal), ("external", family_external)):
                assert np.array_equal(kernel(f, family), naive_family(f, family, mode))
    orbit = [ok for name, ok in seen if name == "_orbit_counts"]
    if nudged:
        assert not any(orbit)
        assert len(seen) > len(orbit)
    else:
        # every row of more than q pairs was counted by orbit
        assert all(orbit) and "_transform_counts" not in dict(seen)
        assert orbit or len(X) * max(len(X), len(Y)) <= f.q


@pytest.mark.parametrize("p, m", ORBIT_FIELDS)
def test_orbit_probe_keeps_the_order(monkeypatch, p, m):
    # mapping a few codes by g^s is a necessary condition: probing every
    # set (_PROBED = 0) finds the order that the pass over the logs alone
    # (_PROBED = q) finds, for class unions, nudged ones and cross pairs
    f = _diff_field(p, m)
    rng = np.random.default_rng(f.q)
    sets = []
    for e in (e for e in (1, 2, 4, 8, 16) if (f.q - 1) % e == 0):
        for _ in range(4):
            S = class_union(f, e, np.flatnonzero(rng.random(e) < 0.5))
            sets += [S, np.union1d(S, [0]), np.setdiff1d(S, S[rng.integers(len(S)):][:1])] if len(S) else []
    pairs = [(X, X) for X in sets] + [(sets[i], sets[j]) for i, j in rng.integers(len(sets), size=(40, 2))]

    def orders(probed):
        monkeypatch.setattr(diffsets, "_PROBED", probed)
        return [diffsets._orbit_order(f, X, Y) for X, Y in pairs]

    found = orders(f.q)
    assert orders(0) == found and None in found and 1 in found


@pytest.mark.parametrize("p, m", ORBIT_FIELDS)
def test_orbit_count_of_every_class_pair(monkeypatch, p, m):
    # Delta(C_i, C_j) for all classes of the largest order e <= 8 dividing
    # q - 1, each by orbit: in GF(3^5) it tells x - y from y - x
    f = _diff_field(p, m)
    e = max(e for e in (1, 2, 4, 8) if (f.q - 1) % e == 0)
    seen = _spy_kernels(monkeypatch)
    for i in range(e):
        for j in range(e):
            X, Y = class_union(f, e, (i,)), class_union(f, e, (j,))
            assert np.array_equal(cross_differences(f, X, Y), naive_cross(f, X, Y))
    assert seen == [("_orbit_counts", True)] * e * e


def test_r10_certifies_by_two_orbit_counts(monkeypatch):
    # the skew PDS and the PDS recovered from its profile are class unions
    seen = _spy_kernels(monkeypatch)
    (con,) = apply(get_recipe("R10"), build_field(83, 2))
    assert con.certificate.kind == "SkewPDS"
    assert seen == [("_orbit_counts", True)] * 2


@pytest.mark.parametrize("p, m", ORBIT_FIELDS)
@given(data=st.data())
@settings(max_examples=15)
def test_compact_profile_spreads_to_naive_pair_count(p, m, data):
    # the orbit count is compact in class space, and so is the sum of two
    # of different orders (a family's Int and Ext); spread, each is the
    # naive pair count
    f = _diff_field(p, m)
    X, Y = data.draw(class_union_set(f)), data.draw(class_union_set(f))
    if len(X) and len(Y):
        prof = diffsets._orbit_counts(f, X, Y)
        assert isinstance(prof, list) and (f.q - 1) % len(prof[1]) == 0
        assert np.array_equal(diffsets._spread(f, prof), naive_cross(f, X, Y))
    family = [S[S != 0] for S in (X, np.setdiff1d(Y, X))]
    for mode in ("internal", "external"):
        counts = diffsets._family_profile(f, *diffsets._validated_family(f, family), mode)
        assert np.array_equal(diffsets._spread(f, counts), naive_family(f, family, mode))


def _one_class_off(field, prof, v):
    """The support of v in a compact profile of order s, its first class
    swapped for the first class of order s outside it."""
    s = len(prof[1])
    held = np.flatnonzero(prof[1] == v).tolist()
    return class_union(field, s, [*held[1:], next(c for c in range(s) if c not in held)])


@pytest.mark.parametrize("p, m", ORBIT_FIELDS)
def test_compact_comparison_of_a_candidate_one_class_off(p, m):
    # a candidate one class off the support of a value of D's compact
    # profile compares equal in class space exactly when it does by the
    # naive pair count
    f = _diff_field(p, m)
    e = max(e for e in range(2, 9) if (f.q - 1) % e == 0)
    rng = np.random.default_rng(f.q)
    for _ in range(6):
        D = class_union(f, e, np.flatnonzero(rng.random(e) < 0.5))
        prof = diffsets._delta(f, D)
        if not isinstance(prof, list):
            continue
        for v in {*prof[1].tolist()}:
            if np.count_nonzero(prof[1] == v) == len(prof[1]):
                continue
            cand = _one_class_off(f, prof, v)
            left = diffsets._add(f, diffsets._delta(f, cand), prof, -1)
            same = np.array_equal(naive_cross(f, cand, cand), naive_cross(f, D, D))
            assert (left[0] == 0 and not diffsets._nonzero(left).any()) == same


def test_check_skew_pds_rejects_a_recovered_pds_one_class_off(monkeypatch):
    # R10's D at q = 729, whose profile is compact: the oracle rejects the
    # PDS it recovers when that is one class off
    field = build_field(3, 6)
    (plan,) = get_recipe("R10").plans(field)
    assert isinstance(diffsets._delta(field, plan.family[0]), list)
    assert check_skew_pds(field, plan.family[0]).kind == "SkewPDS"
    monkeypatch.setattr(diffsets, "_support", _one_class_off)
    assert check_skew_pds(field, plan.family[0]).kind == "None"


def test_check_skew_pds_memory_at_q_51529():
    # R10's D at q = 51529 (|D| = 25764): the orbit profiles stay in class
    # space, so the tracemalloc peak is the recovered PDS and the checks on
    # it, about 16 bytes per code; two length-q int64 profiles took it to 38
    import tracemalloc

    field = build_field(227, 2)
    (plan,) = get_recipe("R10").plans(field)
    tracemalloc.start()
    try:
        cert = check_skew_pds(field, plan.family[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.kind == "SkewPDS"
    assert peak / field.q < 20


def test_classifiers_leave_the_callers_arrays_unchanged(gf13, gf361):
    # a sorted int64 set is passed through unsorted and uncopied, any other
    # is sorted in a copy; neither is written to
    for f in (gf13, gf361):
        squares = class_union(f, 2, [0])
        sets = [squares, squares[::-1].copy(), squares.astype(np.int32), np.concatenate(([0], squares))]
        for S in sets:
            given = S.copy()
            for check in (check_pds, check_skew_pds, check_ads, internal_differences):
                check(f, S)
            cross_differences(f, S, S)
            assert np.array_equal(S, given) and S.dtype == given.dtype
        assert np.shares_memory(diffsets.as_element_set(f, squares), squares)
        halves = np.stack([squares[: len(squares) // 2], squares[len(squares) // 2 :]])
        fam = [halves.copy(), halves[:, ::-1].copy(), list(halves)]
        for family in fam:
            given = [np.array(x) for x in family]
            for mode in ("internal", "external"):
                check_family(f, family, mode, reference=squares)
            family_internal(f, family)
            family_external(f, family)
            assert all(np.array_equal(a, b) for a, b in zip(family, given))


def test_certifying_r10_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma (13-20 ms) on its first call; no
    # classifier on R10's path calls it
    code = """if True:
        import sys, numpy, cycloskew
        from cycloskew.constructions import apply, get_recipe
        if "numpy.ma" in sys.modules:
            print("preloaded")
        else:
            (con,) = apply(get_recipe("R10"), cycloskew.build_field(227, 2))
            print(con.certificate.kind, "numpy.ma" in sys.modules)
    """
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    if done.stdout.split() == ["preloaded"]:
        pytest.skip("importing numpy and cycloskew alone loads numpy.ma")
    assert done.stdout.split() == ["SkewPDS", "False"]


# k^2 <= q takes the stacked pair count, k^2 > q a transform per set
FAMILY_FIELDS = [(13, 1), (2, 4), (5, 2), (3, 4), (97, 1)]


@st.composite
def rectangular_family(draw):
    """A field and a disjoint family of equal-size sets avoiding 0 as an
    (n, k) integer array, its rows unsorted; k on either side of isqrt(q)."""
    f = _diff_field(*draw(st.sampled_from(FAMILY_FIELDS)))
    k = draw(st.integers(1, min(f.q - 1, 2 * isqrt(f.q) + 1)))
    n = draw(st.integers(0, min(8, (f.q - 1) // k)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = rng.permutation(np.arange(1, f.q))[: n * k]
    return f, codes.reshape(n, k).astype(draw(st.sampled_from([np.int64, np.int32, np.uint16])))


@given(data=st.data())
def test_family_array_matches_its_rows(data):
    f, fam = data.draw(rectangular_family())
    rows, given = list(fam), fam.copy()
    union = np.sort(fam.ravel())
    some = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).random(f.q) < 0.5
    some[0] = False
    complement = np.setdiff1d(np.arange(1, f.q), union)
    reference = data.draw(st.sampled_from([None, union, complement, np.flatnonzero(some)]))
    for mode, kernel in (("internal", family_internal), ("external", family_external)):
        counts = kernel(f, fam)
        assert np.array_equal(counts, kernel(f, rows))
        assert np.array_equal(counts, naive_family(f, rows, mode))
        cert = check_family(f, fam, mode, reference=reference)
        assert cert.to_json() == check_family(f, rows, mode, reference=reference).to_json()
        assert cert.sets.shape == fam.shape and cert.sets.dtype == np.int64
    assert np.array_equal(fam, given)  # the caller's array is not sorted in place


def _family_error(check, f, family):
    try:
        check(f, family)
    except CycloskewError as exc:
        return type(exc)
    return None


@given(data=st.data())
def test_family_array_defects_match_its_rows(data):
    f, fam = data.draw(rectangular_family())
    fam = fam.astype(np.int64)
    n, k = fam.shape
    defects = ["high", "negative", "float", "bool"] if n else []
    defects += ["repeat"] * (n > 0 and k > 1) + ["zero"] * (n > 0) + ["shared"] * (n > 1)
    if not defects:
        return
    defect = data.draw(st.sampled_from(defects))
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, k - 1))
    expect = {"high": IndexOutOfRange, "negative": IndexOutOfRange, "float": InvalidElementCode,
              "bool": InvalidElementCode, "repeat": DuplicateElement, "zero": ContainsZero,
              "shared": NotDisjoint}[defect]
    if defect in ("high", "negative", "zero"):
        fam[i, j] = {"high": f.q, "negative": -1, "zero": 0}[defect]
    elif defect == "repeat":
        fam[i, j] = fam[i, (j + 1) % k]
    elif defect == "shared":
        fam[i, j] = fam[(i + 1) % n, data.draw(st.integers(0, k - 1))]
    else:
        fam = fam.astype(float if defect == "float" else bool)
    for check in (family_internal, family_external, lambda f, s: check_family(f, s, "internal")):
        assert _family_error(check, f, fam) == _family_error(check, f, list(fam)) == expect


@pytest.mark.parametrize(
    "codes, expect",
    [
        (np.array([1.0, 3.0]), InvalidElementCode),
        (np.array([True, False]), InvalidElementCode),
        (np.array(["1", "3"]), InvalidElementCode),
        (np.array([13, 1]), IndexOutOfRange),
        (np.array([1, 255], dtype=np.uint8), IndexOutOfRange),
        (np.array([-1, 2]), IndexOutOfRange),
        (np.array([2, 5, 2]), DuplicateElement),
        (np.array([9, 3, 1]), None),
        # already sorted: a repeat is still found, a valid set passes through
        (np.array([2, 2, 5]), DuplicateElement),
        (np.array([1, 3, 9]), None),
    ],
)
def test_element_set_checked_as_one_row_family(gf13, codes, expect):
    family_check = lambda f, s: check_family(f, s, "internal")  # noqa: E731
    assert _family_error(diffsets.as_element_set, gf13, codes) is expect
    assert _family_error(family_check, gf13, np.array([codes])) is expect
    if expect is None:
        row = check_family(gf13, np.array([codes]), "internal").sets[0]
        assert np.array_equal(diffsets.as_element_set(gf13, codes), row)


def test_family_array_error_precedence(gf13):
    # range, then repeats within a row, then 0, then disjointness
    for fam, expect in [([[13, 0], [2, 2]], IndexOutOfRange), ([[0, 1], [2, 2]], DuplicateElement),
                        ([[0, 1], [1, 2]], ContainsZero), ([[3, 1], [1, 2]], NotDisjoint)]:
        with pytest.raises(expect):
            family_internal(gf13, np.array(fam))


def test_r24_construction_roundtrip_is_an_array(gf13):
    con = next(c for c in apply(get_recipe("R24"), gf13) if c.plan.label == "in-sq-external")
    back = Construction.from_json(json.loads(json.dumps(con.to_json())))
    assert back.to_json() == con.to_json()
    for fam in (back.plan.family, back.certificate.sets):
        assert isinstance(fam, np.ndarray) and fam.shape == (3, 2) and fam.dtype == np.int64
    fs = back.field
    field = build_field(fs.p, fs.m, poly=fs.poly, generator=fs.generator)
    assert recheck(back, field) == []
    back.plan.family[0, 0] = back.plan.family[1, 0]
    assert "family differs from the certificate's sets" in recheck(back, field)


# the padded length L = _fast_length(2q - 1) of a prime field is 2q - 1
# itself, with no padded middle, at q = 3 (L = 5), a power of 2 at 7, 509
# and 1021 (16, 1024, 2048), 3 * 2^k at 367 (768) and 5 * 2^k at 5, 17,
# 257 and 2477 (10, 40, 640, 5120); p = 2 and the odd grids with p <= 5
# take the dense transform, on one block axis up to 2^5, 3^3 and 5^2 and
# on several above, and GF(7^2) and GF(19^2) take rfftn on the (p, p) grid
TRANSFORM_FIELDS = ([(3, 1), (5, 1), (7, 1), (17, 1), (257, 1), (367, 1), (509, 1), (1021, 1), (2477, 1)]
                    + [(2, m) for m in range(1, 13)]
                    + [(3, 2), (3, 5), (3, 7), (5, 3), (5, 4), (7, 2), (19, 2)])

# every (p, m) that takes the dense transform with q <= 3^7
DENSE_FIELDS = [(2, m) for m in range(2, 12)] + [(3, m) for m in range(2, 8)] + [(5, m) for m in range(2, 5)]


def test_fast_length_matches_brute_force():
    lengths = sorted(c << k for c in (1, 3, 5) for k in range(15))
    for n in range(1, 10**4):
        assert diffsets._fast_length(n) == next(L for L in lengths if L >= n)
    assert [diffsets._fast_length(2 * q - 1) for q in (3, 367, 2477, 20011)] == [5, 768, 5120, 40960]


@pytest.mark.parametrize("p, m", TRANSFORM_FIELDS)
@given(data=st.data())
@settings(max_examples=15)
def test_transform_counts_match_naive_pair_count(p, m, data):
    # the transform alone, with no pair-count switch in front of it: sets of
    # any size up to q (600 codes at most), Y is X and a Y sharing a drawn
    # number of codes with X
    f = _diff_field(p, m)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    X, Y = (np.sort(rng.choice(f.q, size=data.draw(st.integers(1, min(f.q, 600))), replace=False))
            for _ in range(2))
    shared = data.draw(st.integers(0, min(len(X), len(Y))))
    Y = np.union1d(X[:shared], np.setdiff1d(Y, X)[: len(Y) - shared])
    for y in (X, Y):
        counts = diffsets._transform_counts(f, [(X, y)])
        assert counts is not None
        assert counts.dtype == np.int64 and np.array_equal(counts, naive_cross(f, X, y))


def test_dense_axes_cut_digits_evenly():
    axes = {(p, m): diffsets._dense_axes(p, m) for p in (2, 3, 5, 7, 47) for m in (1, 2, 9, 13, 14, 20)}
    assert axes[2, 14] == (32, 32, 16) and axes[2, 20] == (32,) * 4 and axes[3, 9] == (27,) * 3
    assert axes[3, 13] == (27, 27, 27, 9, 9) and axes[5, 9] == (25, 25, 25, 25, 5)
    assert axes[3, 2] == (9,) and axes[2, 2] == (4,)
    assert all(axes[p, 1] is None for p in (2, 3, 5)) and all(axes[p, m] is None for p in (7, 47) for m in (2, 20))


@pytest.mark.parametrize("p, m", DENSE_FIELDS)
def test_dense_forward_is_fftn(p, m):
    # the blocked passes keep every digit in its place: the forward
    # transform is fftn on the (p,)*m grid, and the inverse undoes it
    f = _diff_field(p, m)
    axes = diffsets._dense_axes(p, m)
    v = np.random.default_rng(m).random(f.q)
    fwd = diffsets._dense(p, v.astype(float if p == 2 else complex), axes)
    assert np.allclose(fwd, np.fft.fftn(v.reshape((p,) * m)).ravel(), rtol=0, atol=1e-9)
    assert np.allclose(diffsets._dense(p, fwd, axes, inverse=True), v, rtol=0, atol=1e-12)


@pytest.mark.parametrize("p, m", [(2, 11), (3, 5), (3, 7), (5, 4)])
def test_dense_error_bound_holds(p, m):
    # the correlation of random integer vectors, with entries below 2^10 so
    # that the exact one is an exact float64 sum, errs by at most the bound
    f = _diff_field(p, m)
    axes, rng = diffsets._dense_axes(p, m), np.random.default_rng(p * m)
    x, y = rng.integers(0, 1 << 10, f.q), rng.integers(0, 1 << 10, f.q)
    codes = np.arange(f.q)
    exact = np.bincount(f.sub_codes(codes[:, None], codes[None, :]).ravel(),
                        weights=np.outer(x, y).ravel().astype(float), minlength=f.q)
    dtype = float if p == 2 else complex
    fx, fy = (diffsets._dense(p, v.astype(dtype), axes) for v in (x, y))
    raw = diffsets._dense(p, fx * np.conj(fy), axes, inverse=True).real
    err = np.abs(raw - exact).max()
    bound = diffsets._error_bound(f.q, axes, float(np.linalg.norm(x) * np.linalg.norm(y)), 1)
    assert err <= bound < 1e-4 * np.abs(exact).max()  # and far from vacuous
    assert p != 2 or err == 0  # +-1 entries: every float is an exact integer


def test_dense_error_bound_below_quarter_at_large_q():
    # |D| = (q - 1)/2 at the largest q <= 10^8 of each dense p, from the
    # formula alone: no field is built and no transform runs
    for p, m in ((2, 26), (3, 16), (5, 11)):
        q = p**m
        axes = diffsets._dense_axes(p, m)
        assert diffsets._error_bound(q, axes, (q - 1) / 2, 1) < 0.25
        assert diffsets._error_bound(q, axes, 4 * (q - 1) / 2, 4) < 0.25  # Ext of three sets


# ids without a prefix are GF(19^2), on rfftn/irfftn over the grid; "prime"
# is GF(367), on rfftn/irfftn zero-padded to 768; "dense2" is GF(2^9) and
# "dense3" GF(3^5), on the dense transform
GUARD_CASES = (
    [pytest.param(19, 2, trip, id=trip) for trip in ("none", "residual", "sum", "bound")]
    + [pytest.param(367, 1, trip, id=f"prime-{trip}") for trip in ("none", "residual", "sum", "bound", "middle")]
    + [pytest.param(p, m, trip, id=f"dense{p}-{trip}") for p, m in ((2, 9), (3, 5))
       for trip in ("none", "residual", "sum", "bound")]
)


@pytest.mark.parametrize("p, m, trip", GUARD_CASES)
def test_transform_guard_falls_back(monkeypatch, p, m, trip):
    f = _diff_field(p, m)
    dense = diffsets._dense_axes(p, m) is not None
    inverse = "_dense" if dense else "irfftn"  # the dense passes run forward too
    real_inverse, real_pair_counts = getattr(diffsets, inverse), diffsets._pair_counts
    real_transform = diffsets._transform_counts

    def inverse_off_by(delta, at=7):
        def patched(*args, **kwargs):
            out = real_inverse(*args, **kwargs)
            if not dense or kwargs.get("inverse"):
                out.flat[at] += delta
            return out

        return patched

    if trip == "residual":
        monkeypatch.setattr(diffsets, inverse, inverse_off_by(0.4))
    elif trip == "sum":
        monkeypatch.setattr(diffsets, inverse, inverse_off_by(1.0))
    elif trip == "middle":  # lag q cannot occur, and is not folded into any count
        monkeypatch.setattr(diffsets, inverse, inverse_off_by(1.0, at=f.q))
    elif trip == "bound":
        monkeypatch.setattr(diffsets, "_error_bound", lambda q, axes, norm, terms: 1.0)
    fallbacks, sums = [], []

    # every set below has more than q pairs, so a pair count over more
    # than q pairs is a fallback
    def spy(field, X, Y):
        fallbacks.append(X.size * Y.shape[1] > field.q)
        return real_pair_counts(field, X, Y)

    def transform_spy(field, rows, union=None):
        sums.append((len(rows), union is not None))
        return real_transform(field, rows, union)

    monkeypatch.setattr(diffsets, "_pair_counts", spy)
    monkeypatch.setattr(diffsets, "_transform_counts", transform_spy)
    rng = np.random.default_rng(3)
    D = rng.choice(np.arange(1, f.q), size=120, replace=False)
    family = [D[:30], D[30:70], D[70:]]  # three sizes, three stacks, one sum
    cases = [
        (lambda: internal_differences(f, D), naive_family(f, [D], "internal"), (1, False)),
        (lambda: cross_differences(f, D[:60], D[30:]), naive_cross(f, D[:60], D[30:]), (1, False)),
        (lambda: family_internal(f, family), naive_family(f, family, "internal"), (3, False)),
        (lambda: family_external(f, family), naive_family(f, family, "external"), (3, True)),
    ]
    for count, expect, first in cases:
        fallbacks.clear()
        sums.clear()
        assert np.array_equal(count(), expect)
        assert any(fallbacks) == (trip != "none")
        # a tripped sum of several terms retries each term by a transform of its own
        retries = [(1, False)] * (first[0] + first[1]) if trip != "none" and sum(first) > 1 else []
        assert sums == [first] + retries


# prime fields, (Z_p)^m grids and p = 2, each with room for six disjoint
# sets of distinct sizes above the pair-count switch
SUM_FIELDS = [(97, 1), (367, 1), (2477, 1), (11, 2), (5, 3), (3, 5), (2, 8), (2, 9)]


@pytest.mark.parametrize("p, m", SUM_FIELDS)
@given(data=st.data())
@settings(max_examples=10)
def test_family_sum_matches_naive_family(p, m, data):
    # 0-6 disjoint sets of distinct sizes k, k^2 > q, and maybe an empty set:
    # the rows, and Ext's union, go into one transform sum and one inverse,
    # and the certificates are those of the naive profile
    f = _diff_field(p, m)
    n = data.draw(st.integers(0, 6))
    low = isqrt(f.q) + 1
    sizes = data.draw(st.lists(st.integers(low, min(2 * low, (f.q - 1) // 6)), min_size=n, max_size=n, unique=True))
    codes = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).permutation(np.arange(1, f.q))
    cuts = np.cumsum([0, *sizes])
    family = [codes[a:b] for a, b in zip(cuts, cuts[1:])]
    if data.draw(st.booleans()):
        family.insert(data.draw(st.integers(0, n)), codes[:0])
    real_transform, sums = diffsets._transform_counts, []

    def transform_spy(field, rows, union=None):
        sums.append((len(rows), union is not None))
        return real_transform(field, rows, union)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diffsets, "_transform_counts", transform_spy)
        for mode, kernel in (("internal", family_internal), ("external", family_external)):
            sums.clear()
            assert np.array_equal(kernel(f, family), naive_family(f, family, mode))
            assert sums == ([(n, mode == "external")] if n else [])
        certs = [check_family(f, family, mode).to_json() for mode in ("internal", "external")]
        mp.setattr(diffsets, "_family_profile", lambda field, fam, union, mode: naive_family(field, fam, mode))
        assert certs == [check_family(f, family, mode).to_json() for mode in ("internal", "external")]


def test_pair_count_chunks_are_bounded(monkeypatch, gf361):
    # every set below has at most q pairs, so each is counted pair by pair:
    # one set, a stack of two, a stack of 30 pairs, and two cross counts
    rng = np.random.default_rng(5)
    D = rng.choice(np.arange(1, 361), size=138, replace=False)
    A, B, pairs = D[:19], D[19:38], D[38:98].reshape(30, 2)
    cases = [
        (lambda: internal_differences(gf361, A), naive_family(gf361, [A], "internal"), 19),
        (lambda: family_internal(gf361, [A, B]), naive_family(gf361, [A, B], "internal"), 19),
        (lambda: family_internal(gf361, pairs), naive_family(gf361, list(pairs), "internal"), 2),
        (lambda: cross_differences(gf361, A, B), naive_cross(gf361, A, B), 19),
        (lambda: cross_differences(gf361, D[:3], D[38:]), naive_cross(gf361, D[:3], D[38:]), 100),
    ]
    real_bincount, seen = np.bincount, []
    monkeypatch.setattr(diffsets, "_CHUNK", 64)
    monkeypatch.setattr(np, "bincount", lambda x, *a, **kw: seen.append(len(x)) or real_bincount(x, *a, **kw))
    for count, expect, ny in cases:
        seen.clear()
        assert np.array_equal(count(), expect)
        assert seen and max(seen) <= max(64, ny)


def _classifier_lines(field):
    """One JSON line per classifier call on edge inputs of the field: the
    certificate, or the type of the error raised."""
    q, c2, c4 = field.q, classes(field, 2), classes(field, 4)
    star, every = list(range(1, q)), list(range(q))
    sets = [[], [0], star, every, [1], [q - 1], [0, 1], c2.members[0], class_union(field, 2, (1,)),
            [0, *c2.members[0]], class_union(field, 4, (0, 3)), class_union(field, 4, (0, 1)),
            [0, *class_union(field, 4, (1, 2))]]
    families = [[], [[]], [[1]], [star], [[c] for c in star], [[1], [2]], list(c4.members), [c4.members[0]],
                [c4.members[0], c4.members[3]], [c2.members[0]], [[0, 1]], [[1, 2], [2, 3]],
                [[int(i), field.mul(2, int(i))] for i in c4.members[0]]]
    refs = [None, [], star, c2.members[0], c2.members[1], [0, 1]]

    def line(check, *args, **kwargs):
        try:
            return json.dumps(check(field, *args, **kwargs).to_json())
        except CycloskewError as exc:
            return json.dumps({"error": type(exc).__name__})

    out = [line(check, s) for s in sets for check in (check_pds, check_skew_pds, check_ads)]
    for fam in families:
        union = sorted(c for s in fam for c in s)
        for ref in refs + [union, sorted(set(star) - set(union))]:
            out += [line(check_family, fam, mode, reference=ref) for mode in ("internal", "external")]
    return out


def test_classifier_outputs_pinned(gf13, gf9, gf25):
    # every classifier on the edge inputs above and every certificate of
    # the q <= 400 sweep, byte for byte as recorded before the lambda/mu
    # split and the mode dispatch were shared
    lines = [x for f in (gf13, gf9, gf25) for x in _classifier_lines(f)]
    lines += [json.dumps(c.certificate.to_json()) for c in iter_applicable(2, 400, certify_cap=400)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (
        1010,
        "5a3d8a52cfe4070fa27275ed8fa12efdafbaef30b1643d451718a8d98cc7fb9a",
    )
