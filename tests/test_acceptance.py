"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is exact integer comparison; the only tolerances are the
stated wall-clock budgets, asserted generously against this machine.
"""

import hashlib
import json
import re
import time

import numpy as np

from cycloskew import (
    apply,
    build_field,
    bruteforce_table,
    check_pds,
    check_skew_pds,
    class_of,
    class_union,
    classes,
    cyclotomic_numbers_order4,
    cyclotomic_numbers_order8,
    delta_via_cycnums,
    family_external,
    family_internal,
    get_recipe,
    internal_differences,
    registry,
    two_squares_rep,
    verify_certificate,
)
from cycloskew.cli import main, table1_rows, table2_rows
from cycloskew.constructions import prime_powers
from cycloskew.diffsets import Certificate
from cycloskew.errors import PredictionMismatch
from cycloskew.numtheory import prime_power_decompose

TABLE1 = [
    (13, -3), (29, 5), (53, -7), (125, -11), (173, 13), (229, -15), (293, 17),
    (733, -27), (1093, 33), (1229, -35), (1373, 37), (2029, 45), (2213, -47),
    (3253, 57), (4229, 65), (4493, -67), (5333, 73), (7229, 85), (7573, -87),
    (9029, -95), (9413, 97),
]
TABLE2 = [
    (9, 3, 1), (121, 11, 3), (729, 27, 5), (6889, 83, 9), (51529, 227, 15),
    (196249, 443, 21), (1190281, 1091, 33), (2319529, 1523, 39),
    (4108729, 2027, 45), (10569001, 3251, 57), (43072969, 6563, 81),
    (96098809, 9803, 99),
]

_cache: dict = {}


def _report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, name


def _paley(q):
    return (q, (q - 1) // 2, (q - 5) // 4, (q - 1) // 4)


def _collect_skew(con):
    _cache.setdefault("skew", []).append(con)


def _table1_constructions():
    if "t1" not in _cache:
        cons = []
        for q, _ in TABLE1:
            field = build_field(*prime_power_decompose(q))
            cons.extend(apply(get_recipe("R1"), field))
        _cache["t1"] = cons
    return _cache["t1"]


def _table2_constructions():
    if "t2" not in _cache:
        cons = []
        for q, ell, d in TABLE2:
            if q > 10**5:
                continue
            field = build_field(*prime_power_decompose(q))
            cons.extend(c for c in apply(get_recipe("R10"), field) if c.plan.label == "D")
        _cache["t2"] = cons
    return _cache["t2"]


def _sweep_constructions():
    if "sweep" not in _cache:
        t0 = time.time()
        mismatches = []
        cons = []
        recipes = registry()
        for q, p, m in prime_powers(2, 5000):
            if not any(r.precheck(q, p, m) for r in recipes):
                continue
            field = build_field(p, m)
            for recipe in recipes:
                if not recipe.applicable(field):
                    continue
                try:
                    cons.extend(apply(recipe, field))
                except PredictionMismatch as exc:
                    mismatches.append(str(exc))
        _cache["sweep"] = cons
        _cache["sweep_mismatches"] = mismatches
        _cache["sweep_time"] = time.time() - t0
    return _cache["sweep"]


def test_criterion_1_table1():
    t0 = time.time()
    rows = table1_rows(10000)
    got = [(r["q"], r["params"]) for r in rows]
    expect = [(q, _paley(q)) for q, _ in TABLE1]
    assert got == expect
    for row, (q, s) in zip(rows, TABLE1):
        srep = str(s) if s > 0 else f"({s})"
        assert row["rep"] == f"{srep}²+(±2)²"
    cons = _table1_constructions()
    assert len(cons) == 21
    for con in cons:
        assert con.certificate.kind == "SkewPDS"
        q = con.field.q
        assert (
            con.certificate.params["v"],
            con.certificate.params["k"],
            con.certificate.params["lambda"],
            con.certificate.params["mu"],
        ) == _paley(q)
        _collect_skew(con)
    dt = time.time() - t0
    assert dt < 60
    _report("criterion 1: Table 1 reproduction + oracle certification", True, f"{dt:.1f}s")


def test_criterion_2_table2(capsys):
    t0 = time.time()
    rows = table2_rows(10**8)
    got = [(r["q"], r["params"]) for r in rows]
    expect = [(q, _paley(q)) for q, _, _ in TABLE2]
    assert got == expect
    for row, (q, ell, d) in zip(rows, TABLE2):
        assert row["rep"] == f"{ell}={d}²+2"
    cons = _table2_constructions()
    assert sorted(c.field.q for c in cons) == [9, 121, 729, 6889, 51529]
    for con in cons:
        assert con.certificate.kind in ("SkewPDS", "TrivialSkewPDS")
        assert (
            con.certificate.params["v"],
            con.certificate.params["k"],
            con.certificate.params["lambda"],
            con.certificate.params["mu"],
        ) == _paley(con.field.q)
        _collect_skew(con)
    with capsys.disabled():
        pass
    code = main(["tables", "2", str(10**8), "--certify-cap", "100000"])
    out = capsys.readouterr().out
    for line in out.strip().splitlines():
        q = int(line.split("\t")[0])
        status = line.split("\t")[3]
        assert status == ("certified" if q <= 10**5 else "not-oracle-verified")
    assert code == 0
    dt = time.time() - t0
    assert dt < 120
    _report("criterion 2: Table 2 reproduction + oracle certification", True, f"{dt:.1f}s")


def test_criterion_3_worked_examples():
    t0 = time.time()
    # GF(13), both generators
    f13 = build_field(13, 1, generator=2)
    c = check_skew_pds(f13, [1, 3, 7, 8, 9, 11])
    assert c.kind == "SkewPDS" and c.reference_set.tolist() == [1, 3, 4, 9, 10, 12]
    assert (c.params["v"], c.params["k"], c.params["lambda"], c.params["mu"]) == (13, 6, 2, 3)
    _collect_skew_cert(f13, c)
    f13b = build_field(13, 1, generator=7)
    c = check_skew_pds(f13b, [1, 2, 3, 5, 6, 9])
    assert c.kind == "SkewPDS" and c.reference_set.tolist() == [2, 5, 6, 7, 8, 11]
    _collect_skew_cert(f13b, c)

    # GF(9): Latin square PDS, skew Paley, unequal-size EPDF
    f9 = build_field(3, 2, poly=[2, 1, 1])
    pds = check_pds(f9, classes(f9, 4).members[0])
    assert pds.params == {"v": 9, "k": 2, "lambda": 1, "mu": 0}
    assert pds.pds_type == "LatinSquare"
    f9b = build_field(3, 2, poly=[2, 2, 1])
    skew9 = check_skew_pds(f9b, [1, 3, 4, 6])  # {1, a, a+1, 2a}
    assert skew9.ok and skew9.params == {"v": 9, "k": 4, "lambda": 1, "mu": 2}
    assert skew9.reference_set.tolist() == [int(x) for x in classes(f9b, 2).members[0]]
    _collect_skew_cert(f9b, skew9)
    epdf = apply(get_recipe("R23"), f9)[0].certificate
    assert epdf.kind == "RelativeEPDF"
    assert epdf.params == {"v": 9, "m": 2, "ks": [1, 2], "lambda": 0, "mu": 1}

    # GF(361)
    f361 = build_field(19, 2)
    c361 = check_skew_pds(f361, class_union(f361, 8, (3, 5)))
    assert c361.kind == "SkewPDS"
    assert c361.params == {"v": 361, "k": 90, "lambda": 29, "mu": 20}
    _collect_skew_cert(f361, c361)

    # GF(25) DPDF, GF(17) EPDF, GF(89) DPDF, GF(41) DDF, GF(1801) DPDF
    f25 = build_field(5, 2, poly=[3, 2, 1])
    d1 = next(c for c in apply(get_recipe("R19"), f25) if c.plan.label == "D1")
    assert d1.certificate.params == {"v": 25, "m": 2, "k": 6, "lambda": 2, "mu": 3}
    f17 = build_field(17, 1, generator=3)
    e17 = apply(get_recipe("R22"), f17)[0].certificate
    assert e17.params == {"v": 17, "m": 4, "k": 2, "lambda": 4, "mu": 2}
    f89 = build_field(89)
    d89 = apply(get_recipe("R15"), f89)[0].certificate
    assert d89.kind == "RelativeDPDF"
    assert d89.params == {"v": 89, "m": 2, "k": 11, "lambda": 1, "mu": 4}
    f41 = build_field(41)
    d41 = apply(get_recipe("R15"), f41)[0].certificate
    assert d41.kind == "DDF" and d41.params == {"v": 41, "m": 2, "k": 5, "lambda": 1}
    f1801 = build_field(1801)
    d1801 = apply(get_recipe("R11"), f1801)[0].certificate
    assert d1801.kind == "RelativeDPDF"
    assert d1801.params == {"v": 1801, "m": 1, "k": 225, "lambda": 29, "mu": 27}
    dt = time.time() - t0
    assert dt < 10
    _report("criterion 3: worked-example suite", True, f"{dt:.1f}s")


def _collect_skew_cert(field, cert):
    _cache.setdefault("skew_direct", []).append((field, cert))


def test_criterion_4_cyclotomic_equivalence():
    t0 = time.time()
    n4 = n8 = 0
    for q, p, m in prime_powers(5, 2000):
        if q % 4 != 1:
            continue
        base = build_field(p, m)
        for g in base.generator_codes():
            f = base.with_generator(int(g))
            closed = cyclotomic_numbers_order4(f)
            brute = bruteforce_table(f, 4)
            assert np.array_equal(closed.counts, brute.counts), (q, int(g))
            n4 += 1
            if q % 8 == 1:
                closed8 = cyclotomic_numbers_order8(f)  # raises on calibration failure
                assert np.array_equal(
                    closed8.counts, bruteforce_table(f, 8).counts
                )
                n8 += 1
    # difference profile prediction identity for e in {2, 4, 8}, q <= 1000
    for q, p, m in prime_powers(5, 1000):
        if q % 2 == 0:
            continue
        f = build_field(p, m)
        for e in (2, 4, 8):
            if (q - 1) % e:
                continue
            part = classes(f, e)
            table = bruteforce_table(f, e)
            for j in range(e):
                predicted = delta_via_cycnums(table, j)
                by_class = predicted[class_of(f, e, np.arange(1, q))]
                assert np.array_equal(internal_differences(f, part.members[j])[1:], by_class)
    dt = time.time() - t0
    assert dt < 300
    _report(
        "criterion 4: closed-form tables equal brute force for every generator",
        True,
        f"{n4} order-4 and {n8} order-8 instances, {dt:.1f}s",
    )


def test_criterion_5_recipe_sweep():
    cons = _sweep_constructions()
    mismatches = _cache["sweep_mismatches"]
    assert mismatches == [], mismatches
    fired = {c.recipe_id for c in cons}
    assert fired == {f"R{i}" for i in range(1, 26)}
    assert all(c.oracle_verified for c in cons)
    # the three source-flagged recipes certify from the oracle side
    for rid in ("R11", "R13", "R24"):
        assert get_recipe(rid).suspect
        assert any(c.recipe_id == rid for c in cons)
    for con in cons:
        if con.plan.mode == "skew":
            _collect_skew(con)
    dt = _cache["sweep_time"]
    assert dt < 600
    _report(
        "criterion 5: full recipe sweep to q = 5000",
        True,
        f"{len(cons)} constructions, 0 mismatches, {dt:.1f}s",
    )


def test_recipe_outputs_pinned():
    # every plan and certificate of the criterion 5 sweep, and the registry
    # dump, byte for byte
    cons = _sweep_constructions()
    catalog = "".join(json.dumps(c.to_json()) + "\n" for c in cons)
    assert hashlib.sha256(catalog.encode()).hexdigest() == (
        "c70c8fa75017894496bbe8e20a86f2fe062f750838de9f63684303421336e18e"
    )
    dump = "".join(json.dumps(r.describe()) + "\n" for r in registry())
    assert hashlib.sha256(dump.encode()).hexdigest() == (
        "d6f1ddd740229b516bf2b7947d5d37018c961bb849eca709061a556a9aa2df00"
    )


def test_criterion_6a_no_class_is_skew_for_another():
    t0 = time.time()
    # no cyclotomic class is a skew PDS matching C_0^e
    for q, p, m in prime_powers(5, 1000):
        if q % 2 == 0:
            continue
        f = build_field(p, m)
        for e in (2, 4, 8):
            if (q - 1) % e:
                continue
            part = classes(f, e)
            base = check_pds(f, part.members[0])
            if not base.ok or base.params["lambda"] == base.params["mu"]:
                continue
            c0 = set(int(c) for c in part.members[0])
            for i in range(1, e):
                cert = check_skew_pds(f, part.members[i])
                assert not (cert.ok and set(cert.reference_set) == c0), (q, e, i)
    _report(
        "criterion 6a: no class is a skew PDS for C_0^e (q <= 1000)",
        True,
        f"{time.time() - t0:.1f}s",
    )


def test_criterion_6b_quartic_union_never_pds_mod8():
    # Criterion 6b, as the oracle and the order-4 cyclotomic numbers prove
    # it: for every prime power q = p^m = 1 (mod 8), q <= 2000, the union
    # D = C_0^4 u C_3^4 is never a non-trivial skew PDS, and it is a PDS
    # exactly when p = 3 (mod 4) and m is even.  That is the semiprimitive
    # case t = 0 in q = s^2 + t^2, where every order-4 class is uniform
    # (Baumert, Mills & Ward, "Uniform cyclotomy", 1982), so D is a regular
    # PDS with Paley parameters.  -1 lies in C_0^4, so D = -D and the skew
    # check can only find D itself as the partner PDS (TrivialSkewPDS at
    # translate offset 0).
    #
    # The exception is derived from (p, m) and cross-checked against the
    # two-squares representation and the closed-form order-4 table; the
    # oracle is then asserted to agree, never consulted to decide.
    t0 = time.time()

    # q = 9 by hand, with poly x^2 + x + 2 and g = x (code 3): x^2 = 2x + 1,
    # so g^3 = 2x + 2 (code 8) and g^4 = -1.  Each order-4 class is
    # {y, -y} = F_3^* y, so D = (F_3 * 1 u F_3 * g^3) \ {0}: two lines
    # through 0, the (9, 4, 1, 2) Paley PDS.
    f9 = build_field(3, 2, poly=[2, 1, 1])
    assert f9.generator == 3 and f9.mul(f9.mul(3, 3), 3) == 8 and f9.mul(8, 3) == f9.element(-1)
    lines = {f9.mul(c, 1) for c in range(3)} | {f9.mul(c, 8) for c in range(3)}
    assert lines - {0} == {1, 2, 4, 8}
    d9 = class_union(f9, 4, (0, 3))
    assert [int(c) for c in d9] == [1, 2, 4, 8]
    cert9 = check_pds(f9, d9)
    assert cert9.kind == "PDS" and cert9.params == {"v": 9, "k": 4, "lambda": 1, "mu": 2}

    n_fields = n_none = n_paley = 0
    for q, p, m in prime_powers(9, 2000):
        if q % 8 != 1:
            continue
        n_fields += 1
        f = build_field(p, m)
        d = class_union(f, 4, (0, 3))
        exception = p % 4 == 3 and m % 2 == 0
        # closed form: Delta(D) = Delta(C_0) + Delta(C_3) + Delta(C_0, C_3) + Delta(C_3, C_0)
        table = cyclotomic_numbers_order4(f)
        predicted = (
            delta_via_cycnums(table, 0)
            + delta_via_cycnums(table, 3)
            + delta_via_cycnums(table, 1, 3)
            + delta_via_cycnums(table, 3, 0)
        )
        assert exception == (two_squares_rep(f).t == 0), q
        assert exception == (len(np.unique(predicted)) == 2), (q, predicted)
        by_class = predicted[class_of(f, 4, np.arange(1, q))]
        assert np.array_equal(internal_differences(f, d)[1:], by_class), q
        pds = check_pds(f, d)
        skew = check_skew_pds(f, d)
        assert skew.kind != "SkewPDS", q
        if not exception:
            assert pds.kind == "None" and skew.kind == "None", (q, pds.kind, skew.kind)
            n_none += 1
            continue
        v, k, lam, mu = _paley(q)
        assert list(predicted) == [lam, mu, mu, lam], (q, predicted)
        assert pds.kind == "PDS", q
        assert pds.params == {"v": v, "k": k, "lambda": lam, "mu": mu}, q
        assert pds.regular and pds.pds_type == "Paley", q
        assert skew.kind == "TrivialSkewPDS" and skew.translate_offset == 0, q
        assert skew.reference_set.tolist() == [int(c) for c in d], q
        n_paley += 1
    assert (n_fields, n_none, n_paley) == (84, 75, 9)
    _report(
        "criterion 6b: C_0^4 u C_3^4 for q = 1 (mod 8) is never a non-trivial "
        "skew PDS, and a PDS exactly when p = 3 (mod 4), m even",
        True,
        f"{n_fields} fields: {n_none} neither, {n_paley} Paley at t = 0, "
        f"{time.time() - t0:.1f}s",
    )


def test_criterion_6c_complement_law():
    t0 = time.time()
    # complement law for every skew PDS certified in criteria 1-5
    if "skew" not in _cache:
        for con in _table1_constructions() + _table2_constructions():
            _collect_skew(con)
        for con in _sweep_constructions():
            if con.plan.mode == "skew":
                _collect_skew(con)
    seen = set()
    jobs = []
    for con in _cache.get("skew", []):
        jobs.append((con.field, tuple(con.plan.family[0]), con.certificate))
    for field, cert in _cache.get("skew_direct", []):
        jobs.append((field.spec, tuple(cert.sets[0]), cert))
    checked = 0
    for spec, d, cert in jobs:
        key = (spec.p, spec.m, spec.poly, spec.generator, d)
        if key in seen:
            continue
        seen.add(key)
        f = build_field(spec.p, spec.m, poly=spec.poly, generator=spec.generator)
        comp = np.setdiff1d(np.arange(f.q), np.asarray(d))
        comp_cert = check_skew_pds(f, comp)
        v, k = cert.params["v"], cert.params["k"]
        lam, mu = cert.params["lambda"], cert.params["mu"]
        assert comp_cert.ok, (spec.p, spec.m)
        assert comp_cert.params == {
            "v": v,
            "k": v - k,
            "lambda": v - 2 * k + mu,
            "mu": v - 2 * k + lam,
        }
        assert comp_cert.reference_set.tolist() == sorted(set(range(f.q)) - set(cert.reference_set))
        checked += 1
    assert checked >= 25
    _report(
        "criterion 6c: complement law for every certified skew PDS",
        True,
        f"{checked} complements, {time.time() - t0:.1f}s",
    )


def test_criterion_7_property_suites(tmp_path, capsys):
    t0 = time.time()
    rng = np.random.default_rng(20260808)
    fields = [
        build_field(13, 1, generator=2),
        build_field(3, 2, poly=[2, 1, 1]),
        build_field(5, 2, poly=[3, 2, 1]),
        build_field(3, 4),
        build_field(101),
    ]

    # difference multiset symmetry
    for f in fields:
        for _ in range(40):
            size = int(rng.integers(2, max(3, f.q // 2)))
            d = rng.choice(f.q, size=size, replace=False)
            counts = internal_differences(f, d)
            assert np.array_equal(counts, counts[f.neg_codes(np.arange(f.q))])

    # PDS counting identity and symmetry of proper PDSs
    pds_checked = 0
    for q, p, m in prime_powers(5, 500):
        if q % 4 != 1:
            continue
        f = build_field(p, m)
        for e in (2, 4):
            if (q - 1) % e:
                continue
            cert = check_pds(f, classes(f, e).members[0])
            if not cert.ok:
                continue
            v, k = cert.params["v"], cert.params["k"]
            lam, mu = cert.params["lambda"], cert.params["mu"]
            assert k * (k - 1) == lam * k + mu * (v - 1 - k)
            if lam != mu:
                assert cert.regular  # negation closure, 0 not in C_0^e
            pds_checked += 1

    # adjoining/removing 0 and complementation preserve the PDS property
    for q, p, m in prime_powers(5, 200):
        if q % 4 != 1:
            continue
        f = build_field(p, m)
        a = [int(c) for c in classes(f, 2).members[0]]
        comp = sorted(set(range(q)) - set(a))
        for derived in (a, sorted([0] + a), comp, sorted(set(comp) - {0}), sorted(set(comp) | {0})):
            assert check_pds(f, derived).ok

    # Int + Ext = Delta(S) over 1000 random disjoint families
    for i in range(1000):
        f = fields[i % len(fields)]
        pool = list(rng.permutation(np.arange(1, f.q)))
        family = []
        for _ in range(int(rng.integers(2, 5))):
            size = min(int(rng.integers(1, 4)), len(pool) - 1)
            if size < 1:
                break
            family.append([int(pool.pop()) for _ in range(size)])
        union = [c for s in family for c in s]
        together = family_internal(f, family) + family_external(f, family)
        assert np.array_equal(together, internal_differences(f, union))

    # catalog round trip: byte-identical modulo timestamps, and re-verification
    out1, out2 = tmp_path / "c1.jsonl", tmp_path / "c2.jsonl"
    for out in (out1, out2):
        assert main(["scan", "5", "150", "--certify-cap", "150", "--out", str(out)]) == 0
    capsys.readouterr()
    strip = lambda text: re.sub(r'"timestamp": "[^"]*"', "", text)
    assert strip(out1.read_text()) == strip(out2.read_text())
    assert main(["catalog", str(out1)]) == 0
    capsys.readouterr()
    entries = [json.loads(l) for l in out1.read_text().splitlines()]
    for entry in entries[:20]:
        fs = entry["field"]
        f = build_field(fs["p"], fs["m"], poly=fs["poly"], generator=fs["generator"])
        assert verify_certificate(f, Certificate.from_json(entry["certificate"]))

    dt = time.time() - t0
    _report(
        "criterion 7: invariant property suites",
        True,
        f"{pds_checked} PDS identities, 1000 families, {dt:.1f}s",
    )
