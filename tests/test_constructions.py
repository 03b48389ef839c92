import dataclasses
from collections import Counter

import pytest

from cycloskew import (
    apply,
    build_field,
    check_family,
    class_of,
    class_union,
    classes,
    get_recipe,
    iter_applicable,
    registry,
    skew_from_families,
    swap_combinator,
)
from cycloskew.constructions import (
    Plan,
    Recipe,
    field_facts,
    prime_powers,
    r24_admissible_gammas,
    r25_admissible_gammas,
)
from cycloskew.errors import (
    ContainsZero,
    CycloskewError,
    DeltaNotConstant,
    DuplicateElement,
    HypothesisNotMet,
    IndexOutOfRange,
    InvalidElementCode,
    NotApplicable,
    NotDisjoint,
    PredictionMismatch,
    ProfileNotTwoValued,
)


def by_label(cons, label):
    return next(c for c in cons if c.plan.label == label)


def test_registry_shape():
    recipes = registry()
    assert len(recipes) == 25
    assert [r.id for r in recipes] == [f"R{i}" for i in range(1, 26)]
    assert {r.id for r in recipes if r.suspect} == {"R11", "R13", "R24"}
    for r in recipes:
        desc = r.describe()
        assert desc["conditions"] and desc["formulas"]


def test_r1_gf13_both_generators(gf13, gf13_7):
    cons = apply(get_recipe("R1"), gf13)[0]
    assert cons.plan.family[0].tolist() == [1, 3, 7, 8, 9, 11]
    assert cons.certificate.kind == "SkewPDS"
    assert cons.certificate.reference_set.tolist() == [1, 3, 4, 9, 10, 12]

    cons7 = apply(get_recipe("R1"), gf13_7)[0]
    assert cons7.plan.family[0].tolist() == [1, 2, 3, 5, 6, 9]
    assert cons7.certificate.reference_set.tolist() == [2, 5, 6, 7, 8, 11]


def test_r2_exchange(gf13, gf13_7):
    # changing the generator flips which square class the skew PDS matches
    c2 = apply(get_recipe("R2"), gf13)[0]
    assert c2.certificate.reference_set.tolist() == [2, 5, 6, 7, 8, 11]
    c7 = apply(get_recipe("R2"), gf13_7)[0]
    assert c7.certificate.reference_set.tolist() == [1, 3, 4, 9, 10, 12]


def test_r1_r2_all_generators_small():
    for q in (13, 29, 53, 125, 173, 229, 293):
        from cycloskew.numtheory import prime_power_decompose

        base = build_field(*prime_power_decompose(q))
        for g in base.generator_codes():
            f = base.with_generator(int(g))
            t = field_facts(f).t
            p2 = classes(f, 2)
            c1 = apply(get_recipe("R1"), f)[0]
            expect = p2.members[0] if t == -2 else p2.members[1]
            assert c1.certificate.reference_set.tolist() == [int(c) for c in expect]
            c2 = apply(get_recipe("R2"), f)[0]
            expect2 = p2.members[1] if t == -2 else p2.members[0]
            assert c2.certificate.reference_set.tolist() == [int(c) for c in expect2]


def test_r5_shift_family(gf361):
    # every C_i^8 u C_{i+2}^8 is a skew PDS matching C_{i+1}^4
    from cycloskew import check_skew_pds

    p4 = classes(gf361, 4)
    for i in range(8):
        cert = check_skew_pds(gf361, class_union(gf361, 8, (i, (i + 2) % 8)))
        assert cert.ok
        assert cert.params == {"v": 361, "k": 90, "lambda": 29, "mu": 20}
        assert cert.reference_set.tolist() == [int(c) for c in p4.members[(i + 1) % 4]]


def test_r4_complement_with_zero(gf13):
    cons = apply(get_recipe("R4"), gf13)[0]
    assert 0 in cons.plan.family[0]
    assert cons.certificate.params == {"v": 13, "k": 7, "lambda": 4, "mu": 3}
    assert 0 in cons.certificate.reference_set


def test_r10_at_121():
    f = build_field(11, 2)
    cons = apply(get_recipe("R10"), f)[0]
    assert cons.certificate.params == {"v": 121, "k": 60, "lambda": 29, "mu": 30}


def test_r7_applicability():
    assert get_recipe("R7").applicable(build_field(3, 2))
    assert get_recipe("R7").applicable(build_field(19, 2))
    assert not get_recipe("R7").applicable(build_field(11, 2))  # 2(l-1) = 20


def test_r14_gf13(gf13, gf13_7):
    for f in (gf13, gf13_7):
        cons = apply(get_recipe("R14"), f)
        internal = by_label(cons, "internal")
        assert internal.certificate.kind == "RelativeDPDF"
        assert internal.certificate.params == {"v": 13, "m": 3, "k": 2, "lambda": 1, "mu": 0}
        external = by_label(cons, "external")
        assert external.certificate.kind == "EDF"
        assert external.certificate.params == {"v": 13, "m": 3, "k": 2, "lambda": 2}
    assert by_label(apply(get_recipe("R14"), gf13), "internal").plan.family.tolist() == [
        [1, 2],
        [3, 6],
        [5, 9],
    ]


def test_r14_ext_is_always_an_edf():
    # 2 lies in C_{-t/2}^4 for every generator (Gauss's criterion, with
    # s = 1 mod 4 and the sign of t pinned by g^((q-1)/4) = s/t), so Ext is
    # always an EDF: every R14 field below 300, under every generator
    qs = []
    for q, p, m in prime_powers(2, 300):
        if not get_recipe("R14").precheck(q, p, m):
            continue
        qs.append(q)
        f0 = build_field(p, m)
        for g in f0.generator_codes():
            f = f0.with_generator(int(g))
            assert class_of(f, 4, f.element(2)) == (-field_facts(f).t // 2) % 4
            external = by_label(apply(get_recipe("R14"), f), "external")
            assert external.certificate.kind == "EDF"
            assert external.certificate.params == {"v": q, "m": (q - 1) // 4, "k": 2, "lambda": (q - 5) // 4}
    assert qs == [13, 29, 53, 125, 173, 229, 293]


def test_r22_gf17(gf17):
    cons = apply(get_recipe("R22"), gf17)
    ext = by_label(cons, "D")
    assert [s.tolist() for s in ext.plan.family] == [[1, 16], [3, 14], [4, 13], [5, 12]]
    assert ext.certificate.kind == "RelativeEPDF"
    assert ext.certificate.params == {"v": 17, "m": 4, "k": 2, "lambda": 4, "mu": 2}


def test_r23_gf9(gf9):
    cons = apply(get_recipe("R23"), gf9)[0]
    assert cons.certificate.kind == "RelativeEPDF"
    assert cons.certificate.params == {"v": 9, "m": 2, "ks": [1, 2], "lambda": 0, "mu": 1}


def test_r24_gf13(gf13):
    in_sq, out_sq = r24_admissible_gammas(gf13)
    assert 4 in in_sq and 12 in out_sq
    cons = apply(get_recipe("R24"), gf13)
    in_int = by_label(cons, "in-sq-internal")
    assert in_int.certificate.kind == "DPDF"
    assert in_int.certificate.params == {"v": 13, "m": 3, "k": 2, "lambda": 1, "mu": 0}
    ext = by_label(cons, "in-sq-external")
    assert ext.certificate.kind == "EPDF"
    assert ext.certificate.params == {"v": 13, "m": 3, "k": 2, "lambda": 1, "mu": 3}
    out_int = by_label(cons, "out-sq-internal")
    assert out_int.certificate.params == {"v": 13, "m": 3, "k": 2, "lambda": 0, "mu": 1}
    out_ext = by_label(cons, "out-sq-external")
    assert out_ext.certificate.kind == "EDF"


def test_r24_gamma_minus_one_partitions_into_even_classes(gf13):
    # D_i = {i, -i} over i in C_0^4 are the even classes of order (q-1)/2
    gamma = gf13.neg(1)
    assert class_of(gf13, 4, gamma) == 2
    fam = {tuple(sorted((int(i), gf13.mul(gamma, int(i))))) for i in class_union(gf13, 4, (0,))}
    p6 = classes(gf13, 6)
    evens = {tuple(int(c) for c in p6.members[i]) for i in (0, 2, 4)}
    assert fam == evens


def test_r25_gf25(gf25):
    gammas = r25_admissible_gammas(gf25)
    assert 3 in gammas  # the documented choice for this polynomial
    cons = apply(get_recipe("R25"), gf25)
    internal = by_label(cons, "internal")
    assert internal.certificate.kind == "DPDF"
    assert internal.certificate.params == {"v": 25, "m": 3, "k": 4, "lambda": 3, "mu": 0}
    external = by_label(cons, "external")
    assert external.certificate.params == {"v": 25, "m": 3, "k": 4, "lambda": 2, "mu": 6}
    # the documented gamma = 3 family also certifies directly
    fam = [[1, 2, 3, 4], [8, 11, 19, 22], [9, 13, 17, 21]]
    assert check_family(gf25, fam, "internal").kind == "DPDF"


def test_admissible_gammas_match_loops():
    # the vectorized searches against the per-gamma loops they replaced;
    # at q = 5 (mod 8), gamma = -1 lies in C_2^4 and 1 + gamma = 0 is in no
    # class, so that gamma is never admissible for R25
    for q, p, m in prime_powers(5, 2000):
        if q % 8 not in (1, 5):
            continue
        f = build_field(p, m)
        in_sq, out_sq, r25 = [], [], []
        for g in map(int, class_union(f, 4, (2,))):
            (in_sq if class_of(f, 2, f.sub(1, g)) == 0 else out_sq).append(g)
            if g != f.neg(1) and {class_of(f, 4, f.sub(1, g)), class_of(f, 4, f.add(1, g))} == {0, 2}:
                r25.append(g)
        assert [g.tolist() for g in r24_admissible_gammas(f)] == [in_sq, out_sq], q
        assert r25_admissible_gammas(f).tolist() == r25, q
    assert r25_admissible_gammas(build_field(13)).tolist() == []


def test_recipes_build_no_partition(monkeypatch):
    # recipes and the order-8 calibration read one class union at a time
    # off the exp table, and R25 searches its gammas once per field with
    # q = 1 (mod 8)
    import cycloskew.constructions as cons
    from cycloskew.cyclotomy import ClassPartition

    made, built, searched = [], [], []
    init, build, gammas = ClassPartition.__init__, cons.build_field, cons.r25_admissible_gammas

    def counting_init(self, *args):
        made.append(args[1])
        init(self, *args)

    def recording_build(p, m):
        built.append(p**m)
        return build(p, m)

    def recording_gammas(field):
        searched.append(field.q)
        return gammas(field)

    monkeypatch.setattr(ClassPartition, "__init__", counting_init)
    monkeypatch.setattr(cons, "build_field", recording_build)
    monkeypatch.setattr(cons, "r25_admissible_gammas", recording_gammas)
    assert sum(1 for _ in iter_applicable(2, 2500, certify_cap=0)) > 0
    assert made == []
    assert searched == [q for q in built if q % 8 == 1]


def test_iter_applicable_runs_each_precheck_once(monkeypatch):
    # the range filter decides applicability; the recipes that pass it are
    # not checked again on the way to their plans
    import cycloskew.constructions as cons

    calls = Counter()

    def counted(recipe):
        def precheck(q, p, m):
            calls[recipe.id, q] += 1
            return recipe.precheck(q, p, m)

        return dataclasses.replace(recipe, precheck=precheck)

    monkeypatch.setattr(cons, "_REGISTRY", [counted(r) for r in registry()])
    built = sum(1 for _ in iter_applicable(2, 1000, certify_cap=0))
    assert built > 0
    assert len(calls) == len(registry()) * sum(1 for _ in prime_powers(2, 1000))
    assert set(calls.values()) == {1}


def test_swap_combinator(gf13, gf361):
    p2 = classes(gf13, 2)
    single = swap_combinator(gf13, [([1, 3, 7, 8, 9, 11], p2.members[0])])
    assert single.certificate.kind == "RelativeDPDF"
    assert single.certificate.params == {"v": 13, "m": 1, "k": 6, "lambda": 2, "mu": 3}

    p4 = classes(gf361, 4)
    pairs = [(class_union(gf361, 8, (3, 5)), p4.members[0]), (class_union(gf361, 8, (2, 6)), p4.members[2])]
    x = field_facts(gf361).x
    combo = swap_combinator(gf361, pairs)
    q = 361
    assert combo.certificate.params == {
        "v": q,
        "m": 2,
        "k": 90,
        "lambda": (q - 7 - 2 * x) // 8,
        "mu": (q - 3 + 2 * x) // 8,
    }
    ref = sorted(set(int(c) for c in p4.members[0]) | set(int(c) for c in p4.members[2]))
    assert combo.certificate.reference_set.tolist() == ref


def test_swap_combinator_errors(gf13):
    p2 = classes(gf13, 2)
    with pytest.raises(ProfileNotTwoValued):
        swap_combinator(gf13, [([1, 2, 3], [1, 12])])
    with pytest.raises(DeltaNotConstant):
        swap_combinator(gf13, [(p2.members[0], p2.members[0]), ([2, 7], [5, 8])])
    with pytest.raises(NotDisjoint):
        swap_combinator(gf13, [([1, 2], [1, 12]), ([2, 3], [2, 11])])


def test_skew_from_families(gf13):
    p2 = classes(gf13, 2)
    cert = skew_from_families(gf13, [[1, 2], [3, 6], [5, 9]], p2.members[0])
    assert cert.kind == "SkewPDS"
    assert cert.reference_set.tolist() == [2, 5, 6, 7, 8, 11]

    trivial = skew_from_families(gf13, [p2.members[0]], p2.members[0])
    assert trivial.kind == "TrivialSkewPDS"

    with pytest.raises(HypothesisNotMet):
        skew_from_families(gf13, [[1, 2], [3, 4], [5, 6]], p2.members[0])


def _with_defect(family, defect):
    """A copy of the family with one defect in its first set."""
    fam = [list(s) for s in family]
    if defect == "repeat":
        fam[0][1] = fam[0][0]
    else:
        fam[0][0] = {"float": 1.5, "high": 13, "zero": 0, "shared": fam[1][0]}[defect]
    return fam


def _error(call):
    try:
        call()
    except CycloskewError as exc:
        return type(exc)
    return None


@pytest.mark.parametrize(
    "defect, expect",
    [("float", InvalidElementCode), ("high", IndexOutOfRange), ("repeat", DuplicateElement),
     ("zero", ContainsZero), ("shared", NotDisjoint)],
)
def test_combinators_reject_set_defects_as_check_family(gf13, defect, expect):
    # the skew_from_families family is a DPDF relative to the squares
    fam, other = [[1, 2], [3, 6], [5, 9]], [[4, 10], [7, 8], [11, 12]]
    bad = _with_defect(fam, defect)
    assert _error(lambda: check_family(gf13, bad, "internal")) is expect
    assert _error(lambda: swap_combinator(gf13, list(zip(bad, other)))) is expect
    assert _error(lambda: swap_combinator(gf13, list(zip(fam, _with_defect(other, defect))))) is expect
    assert _error(lambda: skew_from_families(gf13, bad, classes(gf13, 2).members[0])) is expect


def test_skew_from_families_gf25(gf25):
    # the R19 family: Int is a DPDF relative to the squares; the union is a
    # skew PDS iff Ext also lines up, which the oracle decides
    p2 = classes(gf25, 2)
    fam = [class_union(gf25, 8, (0, 3)), class_union(gf25, 8, (1, 6))]
    from cycloskew import family_external

    ext = family_external(gf25, fam)
    sq = p2.members[0]
    nsq = p2.members[1]
    two_valued = len(set(int(ext[c]) for c in sq)) == 1 and len(set(int(ext[c]) for c in nsq)) == 1
    if two_valued:
        assert skew_from_families(gf25, fam, p2.members[0]).ok
    else:
        with pytest.raises(HypothesisNotMet):
            skew_from_families(gf25, fam, p2.members[0])


def test_not_applicable(gf9):
    with pytest.raises(NotApplicable):
        apply(get_recipe("R1"), gf9)
    # R25 applies at every q = 1 (mod 8); GF(9) has no admissible gamma
    assert apply(get_recipe("R25"), build_field(3, 2)) == []


def test_prediction_mismatch_surfaces(gf13):
    good = get_recipe("R1")
    bad = Recipe(
        id="RX",
        name="deliberately wrong",
        kind_built="SkewPDS",
        conditions=good.conditions,
        formulas="",
        precheck=good.precheck,
        build=lambda f, facts: [
            Plan("D", "skew", p.family, p.reference, p.kind, {**p.params, "lambda": 99})
            for p in good.build(f, facts)
        ],
    )
    with pytest.raises(PredictionMismatch):
        apply(bad, gf13)


def test_enumerate_ranges():
    assert list(iter_applicable(14, 16)) == []
    r1 = list(iter_applicable(5, 500, recipe_ids=["R1"], certify_cap=0))
    assert sorted({c.field.q for c in r1}) == [13, 29, 53, 125, 173, 229, 293]
    assert all(c.certificate is None and not c.oracle_verified for c in r1)


def test_enumerate_certified_deterministic():
    a = list(iter_applicable(5, 120, certify_cap=120))
    b = list(iter_applicable(5, 120, certify_cap=120))
    assert [c.to_json() for c in a] == [c.to_json() for c in b]
