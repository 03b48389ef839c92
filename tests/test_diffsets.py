from functools import cache
from math import isqrt

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
    classes,
    cross_differences,
    diffsets,
    family_external,
    family_internal,
    internal_differences,
    verify_certificate,
)
from cycloskew.errors import ContainsZero, DuplicateElement, NotDisjoint


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
    assert cert.reference_set == [1, 3, 4, 9, 10, 12]

    trivial = check_skew_pds(gf13, classes(gf13, 2).members[0])
    assert trivial.kind == "TrivialSkewPDS" and trivial.translate_offset == 0

    shifted = check_skew_pds(gf13, [(c + 5) % 13 for c in [1, 3, 4, 9, 10, 12]])
    assert shifted.kind == "TrivialSkewPDS" and shifted.translate_offset == 5

    p8 = classes(gf361, 8)
    cert361 = check_skew_pds(gf361, p8.union(3, 5))
    assert cert361.kind == "SkewPDS"
    assert cert361.params == {"v": 361, "k": 90, "lambda": 29, "mu": 20}
    assert cert361.reference_set == [int(c) for c in classes(gf361, 4).members[0]]


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
    for f, D in ((gf13, [1, 3, 7, 8, 9, 11]), (gf361, classes(gf361, 8).union(3, 5))):
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
        assert comp_cert.reference_set == expect_ref


def test_check_family_examples(gf25, gf13):
    p8 = classes(gf25, 8)
    p2 = classes(gf25, 2)
    fam = [p8.union(0, 3), p8.union(1, 6)]
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
    p2 = classes(gf13, 2)
    fam = [[1, 3], [4, 9], [10, 12]]
    cert = check_family(gf13, fam, "internal", reference=p2.members[0])
    if cert.ok:
        assert cert.trivial  # reference equals the union


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


@pytest.mark.parametrize("trip", ["none", "residual", "sum", "bound"])
def test_transform_guard_falls_back(monkeypatch, gf361, trip):
    real_irfftn, real_pair_counts = diffsets.irfftn, diffsets._pair_counts

    def irfftn_off_by(delta):
        def patched(*args, **kwargs):
            out = real_irfftn(*args, **kwargs)
            out.flat[7] += delta
            return out

        return patched

    if trip == "residual":
        monkeypatch.setattr(diffsets, "irfftn", irfftn_off_by(0.4))
    elif trip == "sum":
        monkeypatch.setattr(diffsets, "irfftn", irfftn_off_by(1.0))
    elif trip == "bound":
        monkeypatch.setattr(diffsets, "_fft_error_bound", lambda q, nx, ny: 1.0)
    fallbacks = []

    # every set below has more than q pairs, so a pair count over more
    # than q pairs is a fallback
    def spy(field, blocks):
        fallbacks.append(sum(X.size * Y.shape[1] for X, Y in blocks) > field.q)
        return real_pair_counts(field, blocks)

    monkeypatch.setattr(diffsets, "_pair_counts", spy)
    rng = np.random.default_rng(3)
    D = rng.choice(np.arange(1, 361), size=120, replace=False)
    family = [D[:40], D[40:80], D[80:]]
    cases = [
        (lambda: internal_differences(gf361, D), naive_family(gf361, [D], "internal")),
        (lambda: cross_differences(gf361, D[:60], D[30:]), naive_cross(gf361, D[:60], D[30:])),
        (lambda: family_internal(gf361, family), naive_family(gf361, family, "internal")),
        (lambda: family_external(gf361, family), naive_family(gf361, family, "external")),
    ]
    for count, expect in cases:
        fallbacks.clear()
        assert np.array_equal(count(), expect)
        assert any(fallbacks) == (trip != "none")
