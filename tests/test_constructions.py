import dataclasses
from collections import Counter

import numpy as np
import pytest

import cycloskew.constructions
from cycloskew import (
    apply,
    build_field,
    check_family,
    check_pds,
    check_skew_pds,
    class_of,
    class_union,
    classes,
    cyclotomic_numbers_order8,
    get_recipe,
    iter_applicable,
    registry,
    two_squares_rep,
    x2_4y2_rep,
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
    DuplicateElement,
    IndexOutOfRange,
    InvalidElementCode,
    NotApplicable,
    NotDisjoint,
    PredictionMismatch,
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


def test_skew_pds_from_dpdf_epdf_pairs_across_the_registry():
    """The relation of skew PDSs to DPDF/EPDF pairs, over every registry
    family whose union has (q - 1)/2 codes, q <= 1500, q = 1 (mod 4).
    Relative to a Paley PDS T = C_0^2 or C_1^2 the hypothesis holds when
    Int is a relative DPDF or a DDF and Ext a relative EPDF or an EDF (a
    one-set family's Ext is vacuously uniform), not both plain.  The union
    of such a family must be a skew PDS, and a non-trivial one the set of
    a registry skew plan in that field."""
    met, failed, sources = Counter(), Counter(), {}
    for q, p, m in prime_powers(5, 1500):
        recipes = [r for r in registry() if q % 4 == 1 and r.precheck(q, p, m)]
        if not recipes:
            continue
        field = build_field(p, m)
        plans = [(r.id, plan) for r in recipes for plan in r.plans(field)]
        skew_sets = [(rid, plan.family[0]) for rid, plan in plans if plan.mode == "skew"]
        paley = [class_union(field, 2, (i,)) for i in (0, 1)]
        assert all(check_pds(field, t).kind == "PDS" for t in paley), q
        for rid, plan in plans:
            union = np.sort(np.concatenate(plan.family))
            if plan.mode == "skew" or len(union) != (q - 1) // 2:
                continue
            for t in paley:
                int_kind, ext_kind = (check_family(field, plan.family, mode, reference=t).kind
                                      for mode in ("internal", "external"))
                if ext_kind == "None" and len(plan.family) == 1:
                    ext_kind = "EDF"
                if (int_kind not in ("RelativeDPDF", "DDF") or ext_kind not in ("RelativeEPDF", "EDF")
                        or (int_kind, ext_kind) == ("DDF", "EDF")):
                    failed[rid] += 1
                    continue
                kind = check_skew_pds(field, union).kind
                assert kind in ("SkewPDS", "TrivialSkewPDS"), (q, rid, plan.label, kind)
                met[rid, plan.mode, kind] += 1
                if kind == "SkewPDS":
                    sources[q, rid, plan.label] = tuple(s for s, d in skew_sets if np.array_equal(d, union))
    assert met == {
        **{(rid, mode, "SkewPDS"): 22 for rid in ("R13", "R14") for mode in ("internal", "external")},
        **{("R24", mode, "TrivialSkewPDS"): 244 for mode in ("internal", "external")},
        **{("R25", mode, "TrivialSkewPDS"): 124 for mode in ("internal", "external")},
    }
    assert Counter((rid, src) for (_, rid, _), src in sources.items()) == {
        ("R13", ("R1",)): 22, ("R14", ("R1",)): 18, ("R14", ("R2",)): 4,
    }
    assert failed == {"R12": 8, "R16": 2, "R17": 70, "R18": 140, "R19": 16, "R20": 16, "R22": 8}


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
def test_check_family_rejects_set_defects(gf13, defect, expect):
    fam = [[1, 2], [3, 6], [5, 9]]  # a DPDF relative to the squares
    assert _error(lambda: check_family(gf13, _with_defect(fam, defect), "internal")) is expect


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


def test_facts_are_computed_on_first_use(monkeypatch):
    # R8-R10 predict from q alone, so applying R10 computes no fact; a
    # fact read later is the one the eager facts held
    field = build_field(83, 2)
    facts = field_facts(field)

    def never(*args):
        raise AssertionError("a fact was computed")

    for name in ("two_squares_rep", "x2_4y2_rep", "a2_2b2_rep", "cyclotomic_numbers_order8"):
        monkeypatch.setattr(cycloskew.constructions, name, never)
    (con,) = apply(get_recipe("R10"), field)
    assert con.certificate.kind == "SkewPDS"
    monkeypatch.undo()
    reps = cyclotomic_numbers_order8(field).reps
    assert (facts.t, facts.x, facts.y, facts.b) == (two_squares_rep(field).t, x2_4y2_rep(83**2, 83, 2).x,
                                                    reps["y"], reps["b"])
