"""Construction recipes and generic combinators.

Each recipe couples an applicability predicate with a family builder and
the predicted certificate (kind, parameters, reference set).  Applying a
recipe always re-certifies the built family against the difference
multiset oracle; a disagreement raises PredictionMismatch and is never
silently corrected.

Prechecks are arithmetic-only (q, p, m and the quadratic form
representations), so ranges can be filtered without building fields.
Full applicability may also need field facts: the sign of t, the
calibrated signs of y and b, and whether 2 is a quartic residue, all of
which depend on the chosen generator.

Recipes carrying suspect=True have frequency formulas that needed
re-derivation from the underlying counting argument; the oracle is
authoritative for them.  Plans whose predicted difference multiset would
be empty are dropped (there is nothing to classify).
"""

from __future__ import annotations

import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import isqrt
from typing import Callable

import numpy as np

from .cyclotomy import ClassPartition, classes, cyclotomic_numbers_order8
from .diffsets import (
    Certificate,
    as_element_set,
    check_family,
    check_pds,
    check_skew_pds,
    internal_differences,
)
from .errors import (
    DeltaNotConstant,
    HypothesisNotMet,
    NoRepresentation,
    NotApplicable,
    NotDisjoint,
    NotPrimePower,
    PredictionMismatch,
    ProfileNotTwoValued,
)
from .field import Field, FieldSpec, build_field
from .numtheory import (
    a2_2b2_rep,
    prime_power_decompose,
    two_is_quartic_residue,
    two_squares_rep,
    x2_4y2_rep,
)


@dataclass
class FieldFacts:
    """Derived representation data for one field and generator choice."""

    q: int
    p: int
    m: int
    s: int | None = None
    t: int | None = None
    x: int | None = None
    y_mag: int | None = None
    a: int | None = None
    b_mag: int | None = None
    y: int | None = None  # calibrated sign, q = 1 mod 8 only
    b: int | None = None
    two_qr: bool | None = None


_FACTS_CACHE: "weakref.WeakKeyDictionary[Field, FieldFacts]" = weakref.WeakKeyDictionary()


def field_facts(field: Field) -> FieldFacts:
    cached = _FACTS_CACHE.get(field)
    if cached is not None:
        return cached
    q, p, m = field.q, field.p, field.m
    facts = FieldFacts(q, p, m)
    if q % 4 == 1:
        facts.s, facts.t = two_squares_rep(field)
        facts.x, facts.y_mag = x2_4y2_rep(q, p, m)
        try:
            facts.a, facts.b_mag = a2_2b2_rep(q, p, m)
        except NoRepresentation:
            pass
        facts.two_qr = two_is_quartic_residue(field)
    if q % 8 == 1:
        table = cyclotomic_numbers_order8(field)
        facts.y = table.resolved_y
        facts.b = table.resolved_b
    _FACTS_CACHE[field] = facts
    return facts


@dataclass(frozen=True)
class Plan:
    """One predicted certificate for a built family."""

    label: str
    mode: str  # "skew" | "internal" | "external"
    family: tuple[tuple[int, ...], ...]
    reference: tuple[int, ...] | None
    kind: str
    params: dict
    note: str = ""


@dataclass(frozen=True)
class Recipe:
    id: str
    name: str
    kind_built: str
    conditions: str
    formulas: str
    precheck: Callable[[int, int, int], bool]
    extra: Callable[[Field, FieldFacts], bool]
    build: Callable[[Field, FieldFacts], list[Plan]]
    suspect: bool = False

    def applicable(self, field: Field) -> bool:
        facts = field_facts(field)
        return self.precheck(facts.q, facts.p, facts.m) and self.extra(field, facts)

    def plans(self, field: Field) -> list[Plan]:
        if not self.applicable(field):
            raise NotApplicable(f"{self.id} does not apply to GF({field.q})")
        return self.build(field, field_facts(field))

    def describe(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "kind": self.kind_built,
            "conditions": self.conditions,
            "formulas": self.formulas,
            "suspect": self.suspect,
        }


# ---- helpers ----


def _u(part: ClassPartition, *idx: int) -> tuple[int, ...]:
    return tuple(int(c) for c in part.union(*idx))


def _with_zero(codes: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted((0,) + codes))


def _paley(q: int) -> dict:
    return {"v": q, "k": (q - 1) // 2, "lambda": (q - 5) // 4, "mu": (q - 1) // 4}


def _mode_total(mode: str, family: tuple[tuple[int, ...], ...]) -> int:
    ks = [len(s) for s in family]
    if mode in ("skew",):
        return ks[0] * (ks[0] - 1)
    if mode == "internal":
        return sum(k * (k - 1) for k in ks)
    s = sum(ks)
    return s * s - sum(k * k for k in ks)


def _plan(label, mode, family, reference, kind, params, note="") -> list[Plan]:
    if _mode_total(mode, family) == 0:
        return []
    return [Plan(label, mode, family, reference, kind, params, note)]


def _fam_params(q: int, family, lam: int, mu: int | None) -> dict:
    ks = [len(s) for s in family]
    params: dict = {"v": q, "m": len(ks)}
    if len(set(ks)) == 1:
        params["k"] = ks[0]
    else:
        params["ks"] = ks
    params["lambda"] = lam
    if mu is not None:
        params["mu"] = mu
    return params


def _is_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


# ---- prechecks ----


def _pre_t2(q: int, p: int, m: int) -> bool:
    return q % 8 == 5 and q > 5 and _is_square(q - 4)


def _xa(q: int, p: int, m: int) -> tuple[int, int] | None:
    if p % 8 != 3 or m % 4 != 2:
        return None
    x, _ = x2_4y2_rep(q, p, m)
    a, _ = a2_2b2_rep(q, p, m)
    return x, a


def _pre_x_plus_a(q, p, m):
    xa = _xa(q, p, m)
    return xa is not None and xa[0] + xa[1] == -2


def _pre_a_is_x4(q, p, m):
    xa = _xa(q, p, m)
    return xa is not None and xa[1] == xa[0] + 4


def _pre_r7(q, p, m):
    if m % 2 != 0:
        return False
    ell = p ** (m // 2)
    return ell % 8 == 3 and _is_square(2 * (ell - 1))


def _pre_r10(q, p, m):
    if m % 2 != 0:
        return False
    ell = p ** (m // 2)
    return ell % 8 == 3 and _is_square(ell - 2)


def _a_value(q, p, m) -> int | None:
    try:
        return a2_2b2_rep(q, p, m).a
    except NoRepresentation:
        return None


def _true(field: Field, facts: FieldFacts) -> bool:
    return True


def _needs_2qr(field: Field, facts: FieldFacts) -> bool:
    return bool(facts.two_qr)


def _needs_2nqr(field: Field, facts: FieldFacts) -> bool:
    return facts.two_qr is False


def _has_r25_gamma(field: Field, facts: FieldFacts) -> bool:
    return len(r25_admissible_gammas(field)) > 0


# ---- builders ----


def _build_r1(field, facts):
    p4, p2 = classes(field, 4), classes(field, 2)
    ref = _u(p2, 0) if facts.t == -2 else _u(p2, 1)
    return _plan("D", "skew", (_u(p4, 0, 3),), ref, "SkewPDS", _paley(facts.q))


def _build_r2(field, facts):
    p4, p2 = classes(field, 4), classes(field, 2)
    ref = _u(p2, 1) if facts.t == -2 else _u(p2, 0)
    return _plan("D", "skew", (_u(p4, 0, 1),), ref, "SkewPDS", _paley(facts.q))


def _build_r3(field, facts):
    p4, p2 = classes(field, 4), classes(field, 2)
    ref = _u(p2, 0) if facts.t == -2 else _u(p2, 1)
    return _plan("negative", "skew", (_u(p4, 1, 2),), ref, "SkewPDS", _paley(facts.q))


def _build_r4(field, facts):
    q = facts.q
    p4, p2 = classes(field, 4), classes(field, 2)
    ref = _with_zero(_u(p2, 1) if facts.t == -2 else _u(p2, 0))
    d = _with_zero(_u(p4, 1, 2))
    params = {"v": q, "k": (q + 1) // 2, "lambda": (q + 3) // 4, "mu": (q - 1) // 4}
    return _plan("complement", "skew", (d,), ref, "SkewPDS", params)


def _r5_params(q: int, x: int) -> dict:
    return {"v": q, "k": (q - 1) // 4, "lambda": (q - 11 - 6 * x) // 16, "mu": (q - 3 + 2 * x) // 16}


def _build_r5(field, facts):
    p8, p4 = classes(field, 8), classes(field, 4)
    return _plan("D", "skew", (_u(p8, 3, 5),), _u(p4, 0), "SkewPDS", _r5_params(facts.q, facts.x))


def _build_r6(field, facts):
    q, x = facts.q, facts.x
    p8, p4 = classes(field, 8), classes(field, 4)
    comp = tuple(int(c) for c in np.setdiff1d(np.arange(q), np.asarray(_u(p8, 3, 5))))
    comp_params = {
        "v": q,
        "k": (3 * q + 1) // 4,
        "lambda": (9 * q + 5 + 2 * x) // 16,
        "mu": (9 * q - 3 - 6 * x) // 16,
    }
    plans = _plan("complement", "skew", (comp,), _with_zero(_u(p4, 1, 2, 3)), "SkewPDS", comp_params)
    plans += _plan("negative", "skew", (_u(p8, 1, 7),), _u(p4, 0), "SkewPDS", _r5_params(q, x))
    return plans


def _build_r7(field, facts):
    q = facts.q
    ell = facts.p ** (facts.m // 2)
    p8, p4 = classes(field, 8), classes(field, 4)
    params = {"v": q, "k": (q - 1) // 4, "lambda": (q - 11 + 6 * ell) // 16, "mu": (q - 3 - 2 * ell) // 16}
    return _plan("D", "skew", (_u(p8, 3, 5),), _u(p4, 0), "SkewPDS", params)


def _build_r8(field, facts):
    p8, p2 = classes(field, 8), classes(field, 2)
    return _plan("D", "skew", (_u(p8, 0, 1, 2, 5),), _u(p2, 0), "SkewPDS", _paley(facts.q))


def _build_r9(field, facts):
    q = facts.q
    p8, p2 = classes(field, 8), classes(field, 2)
    comp = _with_zero(_u(p8, 3, 4, 6, 7))
    comp_params = {"v": q, "k": (q + 1) // 2, "lambda": (q + 3) // 4, "mu": (q - 1) // 4}
    plans = _plan("complement", "skew", (comp,), _with_zero(_u(p2, 1)), "SkewPDS", comp_params)
    plans += _plan("negative", "skew", (_u(p8, 1, 4, 5, 6),), _u(p2, 0), "SkewPDS", _paley(q))
    return plans


def _build_r10(field, facts):
    p8, p2 = classes(field, 8), classes(field, 2)
    return _plan("D", "skew", (_u(p8, 0, 1, 2, 5),), _u(p2, 0), "SkewPDS", _paley(facts.q))


def _build_r11(field, facts):
    q, x = facts.q, facts.x
    p8, p2 = classes(field, 8), classes(field, 2)
    fam = (_u(p8, 0),)
    lam = (q - 15 - 2 * x) // 64
    mu = (q - 3 + 2 * x) // 64
    if lam == mu:
        return _plan("D", "internal", fam, None, "DDF", _fam_params(q, fam, lam, None), "degenerate branch")
    return _plan("D", "internal", fam, _u(p2, 0), "RelativeDPDF", _fam_params(q, fam, lam, mu))


def _build_r12(field, facts):
    q, x = facts.q, facts.x
    p8, p2 = classes(field, 8), classes(field, 2)
    hi = (q - 7 - 2 * x) // 8
    lo = (q - 3 + 2 * x) // 8
    ref = _u(p2, 0)
    d1 = (_u(p8, 3, 5), _u(p8, 2, 6))
    d2 = (_u(p8, 0, 2), _u(p8, 3, 7))
    plans = _plan("D1", "internal", d1, ref, "RelativeDPDF", _fam_params(q, d1, hi, lo))
    plans += _plan("D2", "internal", d2, ref, "RelativeDPDF", _fam_params(q, d2, lo, hi))
    return plans


def _build_r13(field, facts):
    q, t = facts.q, facts.t
    p4, p2 = classes(field, 4), classes(field, 2)
    fam = (_u(p4, 0), _u(p4, 3))
    plans = _plan("internal", "internal", fam, None, "DDF", _fam_params(q, fam, (q - 5) // 8, None))
    lam, mu = ((q - 5) // 8, (q + 3) // 8) if t == -2 else ((q + 3) // 8, (q - 5) // 8)
    plans += _plan(
        "external", "external", fam, _u(p2, 0), "RelativeEPDF", _fam_params(q, fam, lam, mu)
    )
    return plans


def _build_r14(field, facts):
    q, t = facts.q, facts.t
    p4, p2 = classes(field, 4), classes(field, 2)
    two = field.element(2)
    fam = tuple(tuple(sorted((int(i), field.mul(two, int(i))))) for i in p4.members[0])
    plans = _plan("internal", "internal", fam, _u(p2, 0), "RelativeDPDF", _fam_params(q, fam, 1, 0))
    cls2 = p4.class_of(two)
    if (cls2 == 1 and t == -2) or (cls2 == 3 and t == 2):
        plans += _plan("external", "external", fam, None, "EDF", _fam_params(q, fam, (q - 5) // 4, None))
    else:
        plans += _plan(
            "external",
            "external",
            fam,
            _u(p2, 0),
            "RelativeEPDF",
            _fam_params(q, fam, (q - 9) // 4, (q - 1) // 4),
        )
    return plans


def _build_r15(field, facts):
    q, x, a = facts.q, facts.x, facts.a
    p8, p2 = classes(field, 8), classes(field, 2)
    fam = (_u(p8, 0), _u(p8, 2))
    if x + 2 * a == -1:
        return _plan("D", "internal", fam, None, "DDF", _fam_params(q, fam, (q - 9) // 32, None))
    lam = (q - 11 - 2 * x - 4 * a) // 32
    mu = (q - 7 + 2 * x + 4 * a) // 32
    return _plan("D", "internal", fam, _u(p2, 0), "RelativeDPDF", _fam_params(q, fam, lam, mu))


def _build_r16(field, facts):
    q, x = facts.q, facts.x
    p8, p2 = classes(field, 8), classes(field, 2)
    fam = (_u(p8, 0), _u(p8, 1), _u(p8, 4), _u(p8, 6))
    if x == -3:
        return _plan(
            "D", "internal", fam, None, "DDF", _fam_params(q, fam, (q - 9) // 16, None), "degenerate branch"
        )
    lam, mu = (q - 12 - x) // 16, (q - 6 + x) // 16
    return _plan("D", "internal", fam, _u(p2, 0), "RelativeDPDF", _fam_params(q, fam, lam, mu))


def _build_r17(field, facts):
    q, y, b = facts.q, facts.y, facts.b
    p8, p2 = classes(field, 8), classes(field, 2)
    fam = (_u(p8, 0, 1), _u(p8, 2, 3))
    if y == b:
        return _plan("D", "internal", fam, None, "DDF", _fam_params(q, fam, (q - 5) // 8, None))
    lam = (q - 5 + 2 * y - 2 * b) // 8
    mu = (q - 5 - 2 * y + 2 * b) // 8
    return _plan("D", "internal", fam, _u(p2, 0), "RelativeDPDF", _fam_params(q, fam, lam, mu))


def _build_r18(field, facts):
    q, y, b = facts.q, facts.y, facts.b
    p8, p2 = classes(field, 8), classes(field, 2)
    d1 = (_u(p8, 0, 3), _u(p8, 1, 6))
    d2 = (_u(p8, 0, 5), _u(p8, 2, 7))
    if y == -b:
        lam = (q - 5) // 8
        return _plan("D1", "internal", d1, None, "DDF", _fam_params(q, d1, lam, None)) + _plan(
            "D2", "internal", d2, None, "DDF", _fam_params(q, d2, lam, None)
        )
    lo = (q - 5 - 2 * y - 2 * b) // 8
    hi = (q - 5 + 2 * y + 2 * b) // 8
    ref = _u(p2, 0)
    return _plan("D1", "internal", d1, ref, "RelativeDPDF", _fam_params(q, d1, lo, hi)) + _plan(
        "D2", "internal", d2, ref, "RelativeDPDF", _fam_params(q, d2, hi, lo)
    )


def _build_r19(field, facts):
    q, y = facts.q, facts.y
    p8, p2 = classes(field, 8), classes(field, 2)
    d1 = (_u(p8, 0, 3), _u(p8, 1, 6))
    d2 = (_u(p8, 0, 5), _u(p8, 2, 7))
    lo, hi = (q - 5 - 2 * y) // 8, (q - 5 + 2 * y) // 8
    ref = _u(p2, 0)
    return _plan("D1", "internal", d1, ref, "RelativeDPDF", _fam_params(q, d1, lo, hi)) + _plan(
        "D2", "internal", d2, ref, "RelativeDPDF", _fam_params(q, d2, hi, lo)
    )


def _build_r20(field, facts):
    q, y = facts.q, facts.y
    p8, p2 = classes(field, 8), classes(field, 2)
    d1 = (_u(p8, 0, 1), _u(p8, 2, 7))
    d2 = (_u(p8, 0, 1), _u(p8, 3, 6))
    lam, mu = (q - 5 + 2 * y) // 8, (q - 5 - 2 * y) // 8
    ref = _u(p2, 0)
    return _plan("D1", "internal", d1, ref, "RelativeDPDF", _fam_params(q, d1, lam, mu)) + _plan(
        "D2", "internal", d2, ref, "RelativeDPDF", _fam_params(q, d2, lam, mu)
    )


def _build_r21(field, facts):
    q, x = facts.q, facts.x
    p8, p2 = classes(field, 8), classes(field, 2)
    fam = (_u(p8, 0), _u(p8, 4))
    lam, mu = (q + 1 - 2 * x) // 32, (q - 3 + 2 * x) // 32
    return _plan("D", "external", fam, _u(p2, 0), "RelativeEPDF", _fam_params(q, fam, lam, mu))


def _build_r22(field, facts):
    q, y = facts.q, facts.y
    p8, p2 = classes(field, 8), classes(field, 2)
    fam = (_u(p8, 0), _u(p8, 1), _u(p8, 4), _u(p8, 5))
    if y == 0:
        return _plan("D", "external", fam, None, "EDF", _fam_params(q, fam, (3 * q - 3) // 16, None))
    lam, mu = (3 * q - 3 + 8 * y) // 16, (3 * q - 3 - 8 * y) // 16
    return _plan("D", "external", fam, _u(p2, 0), "RelativeEPDF", _fam_params(q, fam, lam, mu))


def _build_r23(field, facts):
    q, x = facts.q, facts.x
    p8, p2 = classes(field, 8), classes(field, 2)
    fam = (_u(p8, 0), _u(p8, 2, 6))
    if x == 1:
        return _plan("D", "external", fam, None, "EDF", _fam_params(q, fam, (q - 1) // 16, None))
    lam, mu = (q - 3 + 2 * x) // 16, (q + 1 - 2 * x) // 16
    return _plan("D", "external", fam, _u(p2, 0), "RelativeEPDF", _fam_params(q, fam, lam, mu))


def r24_admissible_gammas(field: Field) -> tuple[list[int], list[int]]:
    """Codes gamma in C_2^4 split by whether 1 - gamma is a square."""
    p4, p2 = classes(field, 4), classes(field, 2)
    in_sq, out_sq = [], []
    for g in p4.members[2]:
        u = field.sub(1, int(g))
        (in_sq if p2.class_of(u) == 0 else out_sq).append(int(g))
    return in_sq, out_sq


def _pair_family(field: Field, gamma: int, part4: ClassPartition) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(sorted((int(i), field.mul(gamma, int(i))))) for i in part4.members[0]
    )


def _build_r24(field, facts):
    q = facts.q
    p4, p2 = classes(field, 4), classes(field, 2)
    in_sq, out_sq = r24_admissible_gammas(field)
    plans: list[Plan] = []
    if in_sq:
        fam = _pair_family(field, in_sq[0], p4)
        note = f"gamma={in_sq[0]}, derived branch"
        plans += _plan("in-sq-internal", "internal", fam, None, "DPDF", _fam_params(q, fam, 1, 0), note)
        plans += _plan(
            "in-sq-external",
            "external",
            fam,
            None,
            "EPDF",
            _fam_params(q, fam, (q - 9) // 4, (q - 1) // 4),
            note,
        )
    if out_sq:
        fam = _pair_family(field, out_sq[0], p4)
        note = f"gamma={out_sq[0]}"
        plans += _plan("out-sq-internal", "internal", fam, None, "DPDF", _fam_params(q, fam, 0, 1), note)
        plans += _plan(
            "out-sq-external", "external", fam, None, "EDF", _fam_params(q, fam, (q - 5) // 4, None), note
        )
    return plans


def r25_admissible_gammas(field: Field) -> list[int]:
    """Codes gamma in C_2^4 with one of 1 -+ gamma in C_0^4, the other in C_2^4."""
    p4 = classes(field, 4)
    out = []
    for g in p4.members[2]:
        u, v = field.sub(1, int(g)), field.add(1, int(g))
        if {p4.class_of(u), p4.class_of(v)} == {0, 2}:
            out.append(int(g))
    return out


def _build_r25(field, facts):
    q = facts.q
    p4 = classes(field, 4)
    gamma = r25_admissible_gammas(field)[0]
    reps = [int(i) for i in p4.members[0] if int(i) < field.neg(int(i))]
    fam = tuple(
        tuple(sorted({i, field.neg(i), field.mul(gamma, i), field.neg(field.mul(gamma, i))}))
        for i in reps
    )
    note = f"gamma={gamma}"
    plans = _plan("internal", "internal", fam, None, "DPDF", _fam_params(q, fam, 3, 0), note)
    plans += _plan(
        "external", "external", fam, None, "EPDF", _fam_params(q, fam, (q - 17) // 4, (q - 1) // 4), note
    )
    return plans


def _recipes() -> list[Recipe]:
    R = Recipe
    items = [
        R("R1", "skew C0^4 u C3^4", "SkewPDS", "q = 5 (mod 8), q = s^2 + 4, q > 5",
          "(q,(q-1)/2,(q-5)/4,(q-1)/4)", _pre_t2, _true, _build_r1),
        R("R2", "skew C0^4 u C1^4", "SkewPDS", "q = 5 (mod 8), q = s^2 + 4, q > 5",
          "(q,(q-1)/2,(q-5)/4,(q-1)/4)", _pre_t2, _true, _build_r2),
        R("R3", "negative of R1", "SkewPDS", "q = 5 (mod 8), q = s^2 + 4, q > 5",
          "(q,(q-1)/2,(q-5)/4,(q-1)/4)", _pre_t2, _true, _build_r3),
        R("R4", "complement of R1 with 0", "SkewPDS", "q = 5 (mod 8), q = s^2 + 4, q > 5",
          "(q,(q+1)/2,(q+3)/4,(q-1)/4)", _pre_t2, _true, _build_r4),
        R("R5", "skew C3^8 u C5^8", "SkewPDS", "p = 3 (mod 8), m = 2 (mod 4), x + a = -2",
          "(q,(q-1)/4,(q-11-6x)/16,(q-3+2x)/16)", _pre_x_plus_a, _true, _build_r5),
        R("R6", "complement and negative of R5", "SkewPDS", "p = 3 (mod 8), m = 2 (mod 4), x + a = -2",
          "(q,(3q+1)/4,(9q+5+2x)/16,(9q-3-6x)/16); (q,(q-1)/4,(q-11-6x)/16,(q-3+2x)/16)",
          _pre_x_plus_a, _true, _build_r6),
        R("R7", "R5 via l = c^2/2 + 1", "SkewPDS", "q = l^2, l = 3 (mod 8) prime power, l = c^2/2 + 1",
          "(q,(q-1)/4,(q-11+6l)/16,(q-3-2l)/16)", _pre_r7, _true, _build_r7),
        R("R8", "skew Paley C0^8 u C1^8 u C2^8 u C5^8", "SkewPDS",
          "p = 3 (mod 8), m = 2 (mod 4), a = x + 4",
          "(q,(q-1)/2,(q-5)/4,(q-1)/4)", _pre_a_is_x4, _true, _build_r8),
        R("R9", "complement and negative of R8", "SkewPDS", "p = 3 (mod 8), m = 2 (mod 4), a = x + 4",
          "(q,(q+1)/2,(q+3)/4,(q-1)/4); (q,(q-1)/2,(q-5)/4,(q-1)/4)", _pre_a_is_x4, _true, _build_r9),
        R("R10", "R8 via l = d^2 + 2", "SkewPDS", "q = l^2, l = d^2 + 2 = 3 (mod 8) prime power",
          "(q,(q-1)/2,(q-5)/4,(q-1)/4)", _pre_r10, _true, _build_r10),
        R("R11", "one-set DPDF C0^8", "RelativeDPDF", "q = 9 (mod 16), 2 quartic residue, a = 1",
          "(q,1,(q-1)/8;(q-15-2x)/64,(q-3+2x)/64)",
          lambda q, p, m: q % 16 == 9 and _a_value(q, p, m) == 1, _needs_2qr, _build_r11,
          suspect=True),
        R("R12", "DPDF pairs from skew swap", "RelativeDPDF", "p = 3 (mod 8), m = 2 (mod 4), x + a = -2",
          "(q,2,(q-1)/4;(q-7-2x)/8,(q-3+2x)/8)", _pre_x_plus_a, _true, _build_r12),
        R("R13", "family {C0^4, C3^4}", "RelativeEPDF", "q = 5 (mod 8), q = s^2 + 4, q > 5",
          "DDF (q,2,(q-1)/4,(q-5)/8); EPDF (q,2,(q-1)/4;(q-5)/8,(q+3)/8)",
          _pre_t2, _true, _build_r13, suspect=True),
        R("R14", "pair family {i, 2i}, i in C0^4", "RelativeDPDF", "q = 5 (mod 8), q = s^2 + 4, q > 5",
          "DPDF (q,(q-1)/4,2;1,0); EDF (q,(q-1)/4,2,(q-5)/4) or EPDF (q,(q-1)/4,2;(q-9)/4,(q-1)/4)",
          _pre_t2, _true, _build_r14),
        R("R15", "family {C0^8, C2^8}", "RelativeDPDF", "q = 9 (mod 16)",
          "(q,2,(q-1)/8;(q-11-2x-4a)/32,(q-7+2x+4a)/32), DDF (q-9)/32 when x+2a = -1",
          lambda q, p, m: q % 16 == 9, _true, _build_r15),
        R("R16", "family {C0^8, C1^8, C4^8, C6^8}", "RelativeDPDF",
          "q = 9 (mod 16), 2 quartic residue, a = 1",
          "(q,4,(q-1)/8;(q-12-x)/16,(q-6+x)/16)",
          lambda q, p, m: q % 16 == 9 and _a_value(q, p, m) == 1, _needs_2qr, _build_r16),
        R("R17", "family {C0^8 u C1^8, C2^8 u C3^8}", "RelativeDPDF", "q = 9 (mod 16)",
          "(q,2,(q-1)/4;(q-5+2y-2b)/8,(q-5-2y+2b)/8), DDF (q-5)/8 when y = b",
          lambda q, p, m: q % 16 == 9, _true, _build_r17),
        R("R18", "families {C0^8 u C3^8, C1^8 u C6^8} and {C0^8 u C5^8, C2^8 u C7^8}", "RelativeDPDF",
          "q = 9 (mod 16)",
          "(q,2,(q-1)/4;(q-5-2y-2b)/8,(q-5+2y+2b)/8) and swapped, DDFs when y = -b",
          lambda q, p, m: q % 16 == 9, _true, _build_r18),
        R("R19", "R18 at q = p^2, p = 5 (mod 8)", "RelativeDPDF", "q = p^2, p = 5 (mod 8) prime",
          "(q,2,(q-1)/4;(q-5-2y)/8,(q-5+2y)/8) and swapped",
          lambda q, p, m: m == 2 and p % 8 == 5, _true, _build_r19),
        R("R20", "families {C0^8 u C1^8, C2^8 u C7^8} and {C0^8 u C1^8, C3^8 u C6^8}", "RelativeDPDF",
          "p = 5 (mod 8), m = 2 (mod 4)",
          "(q,2,(q-1)/4;(q-5+2y)/8,(q-5-2y)/8)",
          lambda q, p, m: p % 8 == 5 and m % 4 == 2, _true, _build_r20),
        R("R21", "external family {C0^8, C4^8}", "RelativeEPDF",
          "q = 1 (mod 16), 2 quartic residue, a = 1",
          "(q,2,(q-1)/8;(q+1-2x)/32,(q-3+2x)/32)",
          lambda q, p, m: q % 16 == 1 and _a_value(q, p, m) == 1, _needs_2qr, _build_r21),
        R("R22", "external family {C0^8, C1^8, C4^8, C5^8}", "RelativeEPDF",
          "q = 1 (mod 16), 2 not a quartic residue, a = -3",
          "(q,4,(q-1)/8;(3q-3+8y)/16,(3q-3-8y)/16), EDF (3q-3)/16 when y = 0",
          lambda q, p, m: q % 16 == 1 and _a_value(q, p, m) == -3, _needs_2nqr, _build_r22),
        R("R23", "external family {C0^8, C2^8 u C6^8}", "RelativeEPDF", "q = 9 (mod 16)",
          "(q,2;(q-1)/8,(q-1)/4;(q-3+2x)/16,(q+1-2x)/16), EDF (q-1)/16 when x = 1",
          lambda q, p, m: q % 16 == 9, _true, _build_r23),
        R("R24", "pair family {i, gamma*i}, gamma in C2^4", "DPDF", "q = 5 (mod 8), q > 5",
          "DPDF (q,(q-1)/4,2;1,0) or (0,1); EPDF (q,(q-1)/4,2;(q-9)/4,(q-1)/4) or EDF (q-5)/4",
          lambda q, p, m: q % 8 == 5 and q > 5, _true, _build_r24, suspect=True),
        R("R25", "quadruple family {i, -i, gamma*i, -gamma*i}", "DPDF",
          "q = 1 (mod 8), admissible gamma in C2^4",
          "DPDF (q,(q-1)/8,4;3,0); EPDF (q,(q-1)/8,4;(q-17)/4,(q-1)/4)",
          lambda q, p, m: q % 8 == 1, _has_r25_gamma, _build_r25),
    ]
    return items


_REGISTRY = _recipes()
_BY_ID = {r.id: r for r in _REGISTRY}


def registry() -> list[Recipe]:
    return list(_REGISTRY)


def get_recipe(recipe_id: str) -> Recipe:
    if recipe_id not in _BY_ID:
        raise KeyError(f"unknown recipe id {recipe_id!r}")
    return _BY_ID[recipe_id]


# ---- certification pipeline ----


@dataclass
class Construction:
    recipe_id: str
    plan: Plan
    field: FieldSpec
    certificate: Certificate | None = None
    oracle_verified: bool = False
    suspect: bool = False

    def to_json(self) -> dict:
        return {
            "q": self.field.q,
            "recipe": self.recipe_id,
            "label": self.plan.label,
            "field": self.field.as_dict(),
            "mode": self.plan.mode,
            "family": [list(s) for s in self.plan.family],
            "reference": None if self.plan.reference is None else list(self.plan.reference),
            "predicted_kind": self.plan.kind,
            "predicted_params": dict(self.plan.params),
            "suspect": self.suspect,
            "note": self.plan.note,
            "certificate": None if self.certificate is None else self.certificate.to_json(),
            "oracle_verified": self.oracle_verified,
        }


def certify_plan(field: Field, plan: Plan) -> Certificate:
    if plan.mode == "skew":
        return check_skew_pds(field, plan.family[0])
    return check_family(field, plan.family, plan.mode, reference=plan.reference)


def _match_problem(plan: Plan, cert: Certificate) -> str | None:
    if not cert.ok:
        return "certifier returned kind None"
    if plan.mode == "skew":
        if cert.kind not in ("SkewPDS", "TrivialSkewPDS"):
            return f"kind {cert.kind} is not a skew PDS"
    elif cert.kind != plan.kind:
        return f"kind {cert.kind} != predicted {plan.kind}"
    got = {k: (list(v) if isinstance(v, list) else int(v)) for k, v in cert.params.items()}
    want = {k: (list(v) if isinstance(v, (list, tuple)) else int(v)) for k, v in plan.params.items()}
    if got != want:
        return f"params {got} != predicted {want}"
    if plan.reference is not None:
        if cert.reference_set is None or sorted(cert.reference_set) != sorted(plan.reference):
            return "reference set does not match prediction"
    return None


def apply(recipe: Recipe, field: Field, certify: bool = True) -> list[Construction]:
    """Build every plan of the recipe and certify it against the oracle."""
    plans = recipe.plans(field)
    out = []
    for plan in plans:
        cert = None
        verified = False
        if certify:
            cert = certify_plan(field, plan)
            problem = _match_problem(plan, cert)
            if problem is not None:
                raise PredictionMismatch(f"{recipe.id}[{plan.label}] at q={field.q}: {problem}")
            verified = True
        out.append(Construction(recipe.id, plan, field.spec, cert, verified, recipe.suspect))
    return out


# ---- generic combinators ----


def swap_combinator(field: Field, pairs) -> Construction:
    """Certify {D_i} as a DPDF relative to the union of the A_i, given that
    each Delta(D_i) is two-valued over (A_i*, G* minus A_i) with a common
    difference of frequencies."""
    q = field.q
    ds = [as_element_set(field, d) for d, _ in pairs]
    as_ = [as_element_set(field, a) for _, a in pairs]
    for group, label in ((ds, "D"), (as_, "A")):
        allc = np.concatenate(group) if group else np.empty(0, dtype=np.int64)
        if len(np.unique(allc)) != len(allc):
            raise NotDisjoint(f"{label} sets are not pairwise disjoint")
    deltas, mus = [], []
    for d, a in zip(ds, as_):
        prof = internal_differences(field, d)
        a_star = a[a != 0]
        off = np.ones(q, dtype=bool)
        off[a] = False
        off[0] = False
        lam_vals = np.unique(prof[a_star])
        mu_vals = np.unique(prof[off])
        if len(lam_vals) != 1 or len(mu_vals) != 1 or lam_vals[0] == mu_vals[0]:
            raise ProfileNotTwoValued(f"Delta(D) is not two-valued over the given A split")
        deltas.append(int(lam_vals[0]) - int(mu_vals[0]))
        mus.append(int(mu_vals[0]))
    if len(set(deltas)) != 1:
        raise DeltaNotConstant(f"lambda - mu differs across pairs: {deltas}")
    ref = np.sort(np.concatenate(as_))
    lam = deltas[0] + sum(mus)
    mu = sum(mus)
    plan = Plan(
        "swap",
        "internal",
        tuple(tuple(int(c) for c in d) for d in ds),
        tuple(int(c) for c in ref),
        "RelativeDPDF",
        _fam_params(q, ds, lam, mu),
    )
    cert = certify_plan(field, plan)
    problem = _match_problem(plan, cert)
    if problem is not None:
        raise PredictionMismatch(f"swap combinator at q={q}: {problem}")
    return Construction("swap", plan, field.spec, cert, True)


def skew_from_families(field: Field, family, reference) -> Certificate:
    """If the family is a DPDF/EPDF pair relative to a PDS T (with at most
    one side degenerating to a DDF/EDF), certify the union as a skew PDS.
    The corresponding PDS is recovered from the union's own profile."""
    t = as_element_set(field, reference)
    t_cert = check_pds(field, t)
    fam = [as_element_set(field, s) for s in family]
    if not t_cert.ok or len(t) != sum(len(s) for s in fam):
        raise HypothesisNotMet("reference is not a PDS of the union's size")
    int_cert = check_family(field, fam, "internal", reference=t)
    ext_cert = check_family(field, fam, "external", reference=t)
    int_kind = int_cert.kind
    ext_kind = ext_cert.kind
    if ext_kind == "None" and len(fam) == 1:
        ext_kind = "EDF"  # a one-set family has a vacuously uniform Ext
    int_ok = int_kind in ("RelativeDPDF", "DDF")
    ext_ok = ext_kind in ("RelativeEPDF", "EDF")
    both_plain = int_kind == "DDF" and ext_kind == "EDF"
    if not (int_ok and ext_ok) or both_plain:
        raise HypothesisNotMet(
            f"family is Int={int_kind}, Ext={ext_kind} relative to the reference"
        )
    union = np.sort(np.concatenate(fam))
    return check_skew_pds(field, union)


# ---- range enumeration ----


def prime_powers(lo: int, hi: int):
    for q in range(max(2, lo), hi + 1):
        try:
            p, m = prime_power_decompose(q)
        except NotPrimePower:
            continue
        yield q, p, m


def _enumerate_one(q: int, p: int, m: int, recipes: list[Recipe], certify_cap: int) -> list[Construction]:
    if not any(r.precheck(q, p, m) for r in recipes):
        return []
    field = build_field(p, m)
    out: list[Construction] = []
    for recipe in recipes:
        if not recipe.applicable(field):
            continue
        if q <= certify_cap:
            out.extend(apply(recipe, field))
        else:
            out.extend(
                Construction(recipe.id, plan, field.spec, None, False, recipe.suspect)
                for plan in recipe.plans(field)
            )
    return out


def enumerate_applicable(
    q_min: int,
    q_max: int,
    recipe_ids: list[str] | None = None,
    certify_cap: int = 5000,
    jobs: int = 1,
) -> list[Construction]:
    """Evaluate recipes over every prime power in range, certifying where
    q <= certify_cap.  Output is ordered by (q, registry order, plan)."""
    recipes = _REGISTRY if recipe_ids is None else [get_recipe(r) for r in recipe_ids]
    qs = list(prime_powers(q_min, q_max))
    if jobs <= 1:
        chunks = [_enumerate_one(q, p, m, recipes, certify_cap) for q, p, m in qs]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(lambda t: _enumerate_one(*t, recipes, certify_cap), qs))
    return [c for chunk in chunks for c in chunk]
