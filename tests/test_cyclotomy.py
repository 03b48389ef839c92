from itertools import combinations

import numpy as np
import pytest

from cycloskew import (
    build_field,
    bruteforce_table,
    class_of,
    class_union,
    classes,
    closed_form_table,
    cyclotomic_numbers_order4,
    cyclotomic_numbers_order8,
    delta_via_cycnums,
    internal_differences,
)
from cycloskew import cyclotomy as cyclotomy_module
from cycloskew.constructions import prime_powers
from cycloskew.errors import IndexOutOfRange, NotOneMod4, NotOneMod8, OrderDoesNotDivide


def spread(field, e, prof):
    """The class profile prof over the nonzero codes: entry c - 1 is
    prof[class of c]."""
    return prof[class_of(field, e, np.arange(1, field.q))]


def count_pairs(field, part, i, j):
    """Independent oracle: enumerate all pairs z_i + 1 = z_j directly."""
    ci = set(int(c) for c in part.members[i])
    cj = set(int(c) for c in part.members[j])
    return sum(1 for z in ci if field.add(z, 1) in cj)


def test_classes_gf13(gf13, gf13_7):
    p4 = classes(gf13, 4)
    assert [list(m) for m in p4.members] == [[1, 3, 9], [2, 5, 6], [4, 10, 12], [7, 8, 11]]
    p47 = classes(gf13_7, 4)
    assert list(p47.members[1]) == [7, 8, 11]
    assert list(p47.members[3]) == [2, 5, 6]


def test_classes_order_one(gf13):
    p1 = classes(gf13, 1)
    assert list(p1.members[0]) == list(range(1, 13))


def test_classes_errors(gf13):
    for e in (5, 0, -4):
        with pytest.raises(OrderDoesNotDivide):
            classes(gf13, e)
        with pytest.raises(OrderDoesNotDivide):
            class_union(gf13, e, (0,))
        # the cyclotomic numbers take (field, e) and check the order themselves
        for call in (
            lambda: bruteforce_table(gf13, e),
            lambda: class_of(gf13, e, 1),
        ):
            with pytest.raises(OrderDoesNotDivide):
                call()
    for idx in ((4,), (-1,), (0, 4)):
        with pytest.raises(IndexOutOfRange):
            class_union(gf13, 4, idx)


def test_class_union_is_a_set(gf13):
    assert class_union(gf13, 4, (1, 1)).tolist() == [2, 5, 6]
    assert class_union(gf13, 4, (3, 1, 3)).tolist() == [2, 5, 6, 7, 8, 11]
    empty = class_union(gf13, 4, ())
    assert empty.dtype == np.int64 and empty.size == 0


def _index_subsets(e, rng):
    if e <= 4:
        return [s for r in range(e + 1) for s in combinations(range(e), r)]
    return [tuple(rng.choice(e, size=rng.integers(0, e + 1), replace=False).tolist()) for _ in range(24)]


def test_class_union_matches_partition_and_log_mask(gf13_7, gf25):
    # the exp slices against the partition's members and against a mask
    # of the log table, on a default field and two non-default generators
    rng = np.random.default_rng(20261018)
    for f in (build_field(41), gf13_7, gf25):
        for e in (1, 2, 4, 8):
            if (f.q - 1) % e:
                continue
            part = classes(f, e)
            for idx in _index_subsets(e, rng):
                union = class_union(f, e, idx)
                by_part = np.sort(np.concatenate([np.empty(0, np.int64)] + [part.members[i] for i in idx]))
                by_log = np.flatnonzero(np.isin(f.log % e, list(idx)))
                assert union.dtype == np.int64
                assert np.array_equal(union, by_part), (f.q, e, idx)
                assert np.array_equal(union, by_log[by_log != 0]), (f.q, e, idx)


def test_bruteforce_entries_gf13(gf13):
    p4 = classes(gf13, 4)
    counts = bruteforce_table(gf13, 4).counts
    assert counts[0, 0] == 0 == count_pairs(gf13, p4, 0, 0)
    assert counts[0, 2] == 2 == count_pairs(gf13, p4, 0, 2)
    assert counts.shape == (4, 4)  # no cell (0, 4)
    assert bruteforce_table(gf13, 1).counts[0, 0] == gf13.q - 2


def test_bruteforce_table_matches_entrywise(gf13, gf25, gf17):
    gf41_6 = build_field(41, generator=6)
    cases = [(gf13, 4), (gf25, 8)] + [(f, e) for f in (gf17, gf41_6) for e in (2, 4, 8)]
    for f, e in cases:
        part = classes(f, e)
        table = bruteforce_table(f, e)
        for i in range(e):
            for j in range(e):
                assert table.counts[i, j] == count_pairs(f, part, i, j)


def test_cyclotomy_in_small_blocks(monkeypatch):
    # blocks of a few codes put the base-p carry (z = -1 mod p) and the
    # dropped z = p - 1, whose z + 1 is 0, on block edges
    for block in (1, 2, 3, 5):
        monkeypatch.setattr(cyclotomy_module, "_BLOCK", block)
        for p, m in ((3, 3), (3, 4), (5, 3), (13, 1)):
            f = build_field(p, m)
            for e in (1, 2, 3, 4):
                if (f.q - 1) % e:
                    continue
                part = classes(f, e)
                want = [[count_pairs(f, part, i, j) for j in range(e)] for i in range(e)]
                assert bruteforce_table(f, e).counts.tolist() == want, (f.q, e, block)


def test_class_of_is_log_mod_e(gf25):
    for e in (1, 2, 4, 8):
        codes = np.arange(1, 25)
        assert np.array_equal(class_of(gf25, e, codes), gf25.log[codes] % e)
        assert [class_of(gf25, e, int(c)) for c in codes] == [int(gf25.log[c]) % e for c in codes]
        for i, mem in enumerate(classes(gf25, e).members):
            assert set(class_of(gf25, e, mem).tolist()) == {i}
        assert class_of(gf25, e, []).tolist() == []
        # 0 is in no class, and numpy would wrap -1 to code q - 1
        for bad in (0, -1, 25, np.array([3, 0, 5]), np.array([3, -1]), [3, 25]):
            with pytest.raises(IndexOutOfRange):
                class_of(gf25, e, bad)
    with pytest.raises(OrderDoesNotDivide):
        class_of(gf25, 5, 1)


def test_order4_gf13_letters(gf13):
    table = cyclotomic_numbers_order4(gf13)
    # with s = -3, t = -2 and f odd the five letter values are 0,1,2,0,1
    assert table.counts[0, 0] == 0
    assert table.counts[0, 1] == 1
    assert table.counts[0, 2] == 2
    assert table.counts[0, 3] == 0
    assert table.counts[1, 0] == 1
    assert np.array_equal(table.counts, bruteforce_table(gf13, 4).counts)


def test_order4_row_sums():
    f = build_field(29)
    table = cyclotomic_numbers_order4(f)
    sums = table.counts.sum(axis=1)
    assert set(int(v) for v in sums) <= {6, 7}


def test_order4_gf9(gf9):
    assert np.array_equal(
        cyclotomic_numbers_order4(gf9).counts, bruteforce_table(gf9, 4).counts
    )
    with pytest.raises(NotOneMod4):
        cyclotomic_numbers_order4(build_field(7))


def test_order8_gf9_gf17(gf9, gf17):
    for f in (gf9, gf17):
        table = cyclotomic_numbers_order8(f)
        assert np.array_equal(table.counts, bruteforce_table(f, 8).counts)
        assert table.reps["y"] is not None and table.reps["b"] is not None
    with pytest.raises(NotOneMod8):
        cyclotomic_numbers_order8(build_field(13))


def test_order8_row_sums():
    f = build_field(41)
    table = cyclotomic_numbers_order8(f)
    sums = table.counts.sum(axis=1)
    assert set(int(v) for v in sums) == {4, 5}


def test_symmetry_spot_checks():
    # f odd: (1,0)_4 = (3,3)_4; q = 9 (mod 16): (0,0)_8 = (4,0)_8 = (4,4)_8
    for q, p, m in prime_powers(5, 300):
        if q % 4 != 1:
            continue
        f = build_field(p, m)
        t4 = bruteforce_table(f, 4).counts
        if ((q - 1) // 4) % 2 == 1:
            assert t4[1, 0] == t4[3, 3]
        if q % 16 == 9:
            t8 = bruteforce_table(f, 8).counts
            assert t8[0, 0] == t8[4, 0] == t8[4, 4]


def test_delta_profiles_match_lemma(gf13):
    p4 = classes(gf13, 4)
    table = bruteforce_table(gf13, 4)
    for j in range(4):
        predicted = delta_via_cycnums(table, j)
        assert np.array_equal(internal_differences(gf13, p4.members[j])[1:], spread(gf13, 4, predicted))


def test_delta_profile_order2(gf13):
    predicted = delta_via_cycnums(bruteforce_table(gf13, 2), 0)
    assert list(predicted) == [2, 3]


def test_delta_cross_part_two(gf13):
    from cycloskew import cross_differences

    p4 = classes(gf13, 4)
    table = bruteforce_table(gf13, 4)
    for j in range(4):
        for l in range(4):
            predicted = delta_via_cycnums(table, j, l)
            counts = cross_differences(gf13, p4.members[(j + l) % 4], p4.members[l])
            assert np.array_equal(counts[1:], spread(gf13, 4, predicted))


def test_closed_form_order2():
    parities = set()
    for q, p, m in prime_powers(3, 500):
        if p == 2:
            continue
        f = build_field(p, m)
        assert np.array_equal(closed_form_table(f, 2).counts, bruteforce_table(f, 2).counts), q
        parities.add(q % 4)  # f = (q-1)/2 is even when q = 1 (mod 4)
    assert parities == {1, 3}


def test_row_sum_invariant_generic():
    for q, p, m in prime_powers(5, 200):
        f = build_field(p, m)
        for e in (2, 4, 8):
            if (q - 1) % e:
                continue
            part = classes(f, e)
            table = bruteforce_table(f, e)
            heavy = (f.dlog(f.neg(1))) % e
            for i in range(e):
                expect = part.f - (1 if i == heavy else 0)
                assert int(table.counts[i].sum()) == expect
