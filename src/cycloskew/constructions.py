"""Construction recipes and the certification pipeline.

Each recipe couples an applicability predicate with a family builder and
the predicted certificate (kind, parameters, reference set).  Applying a
recipe always re-certifies the built family against the difference
multiset oracle, through diffsets.certify in the plan's mode; a
disagreement raises PredictionMismatch and is never silently corrected.
Predicted family params come from diffsets.family_params, the builder of
the certified ones.

Most recipes are rows of data (UnionPlan): sets and reference as unions
of cyclotomic classes, 0 adjoined for skew complements, and the
predicted parameters as closed forms in q and the field facts.  One
builder turns them into plans; a family whose predicted lambda equals
its mu is predicted as a DDF/EDF.  Only the pair and quadruple families
of R14, R24 and R25 have builders of their own.

Applicability is decided from (q, p, m) alone: congruences, the
quadratic form representations and whether 2 is a quartic residue (the
fourth powers are the one subgroup of index 4, so no generator enters).
Ranges are filtered without building fields.  The field facts that do
depend on the generator, the sign of t and the calibrated signs of y
and b, only shape the predicted parameters and references.

Recipes carrying suspect=True have frequency formulas that needed
re-derivation from the underlying counting argument; the oracle is
authoritative for them.  Plans whose predicted difference multiset would
be empty are dropped (there is nothing to classify).

No builder combines families into a skew PDS: the union of a DPDF/EPDF
pair relative to a Paley PDS is certified by check_skew_pds like any
other set, and the test suite checks that relation over the registry's
families with the classifiers alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import isqrt
from typing import Callable, Iterator

import numpy as np

from .cyclotomy import class_of, class_union, cyclotomic_numbers_order8
from .diffsets import (
    Certificate,
    certify,
    family_params,
    json_codes,
    json_sets,
    json_typed,
    params_from_json,
    set_sizes,
    sets_json,
    spec_from_json,
    verify_certificate,
)
from .errors import (
    NoRepresentation,
    NotApplicable,
    NotPrimePower,
    ParseError,
    PredictionMismatch,
    UnknownRecipe,
)
from .field import Field, FieldSpec, build_field
from .numtheory import (
    a2_2b2_rep,
    prime_power_decompose,
    two_is_quartic_residue,
    two_squares_rep,
    x2_4y2_rep,
)


class FieldFacts:
    """Derived representation data for one field and generator choice.
    Each fact is computed the first time it is read: t, x and a when
    q = 1 (mod 4), the calibrated signs y and b (from the order-8
    cyclotomic numbers) when q = 1 (mod 8), else None.  A recipe whose
    predictions read only q, such as R8-R10, computes none."""

    def __init__(self, field: Field):
        self.field, self.q, self.p, self.m = field, field.q, field.p, field.m

    @functools.cached_property
    def t(self) -> int | None:
        return two_squares_rep(self.field).t if self.q % 4 == 1 else None

    @functools.cached_property
    def x(self) -> int | None:
        return x2_4y2_rep(self.q, self.p, self.m).x if self.q % 4 == 1 else None

    @functools.cached_property
    def a(self) -> int | None:
        return _a_value(self.q, self.p, self.m) if self.q % 4 == 1 else None

    @functools.cached_property
    def _order8(self) -> dict:
        return cyclotomic_numbers_order8(self.field).reps if self.q % 8 == 1 else {"y": None, "b": None}

    @property
    def y(self) -> int | None:
        return self._order8["y"]

    @property
    def b(self) -> int | None:
        return self._order8["b"]


def field_facts(field: Field) -> FieldFacts:
    return FieldFacts(field)


@dataclass(frozen=True, eq=False)
class Plan:
    """One predicted certificate for a built family.  The reference is a
    sorted int64 array; a family of pairs or quadruples, and a family read
    back from JSON whose sets share one non-zero size, is one 2-D array, a
    set per row, and any other family a tuple of sorted arrays."""

    label: str
    mode: str  # "skew" | "internal" | "external"
    family: np.ndarray | tuple[np.ndarray, ...]
    reference: np.ndarray | None
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
    build: Callable[[Field, FieldFacts], list[Plan]]
    suspect: bool = False

    def applicable(self, field: Field) -> bool:
        return self.precheck(field.q, field.p, field.m)

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


def _mode_total(mode: str, family) -> int:
    ks = np.array(set_sizes(family), dtype=np.int64)
    if mode != "external":  # a skew family is one set
        return int((ks * (ks - 1)).sum())
    return int(ks.sum() ** 2 - (ks * ks).sum())


def _plan(label, mode, family, reference, kind, params, note="") -> list[Plan]:
    if _mode_total(mode, family) == 0:
        return []
    return [Plan(label, mode, family, reference, kind, params, note)]


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


# ---- builders ----


@dataclass(frozen=True)
class UnionPlan:
    """One plan of a class-union recipe.  Each set is the union of the given
    classes of order e, the reference the union of the classes ref[1:] of
    order ref[0].  zero adjoins 0 to the set and to the reference (skew
    complements); by_t takes the other order-2 reference class unless
    t = -2.  params gives (k, lambda, mu) of a skew PDS, or (lambda, mu) of
    a family, mu None for a family predicted as a DDF/EDF."""

    label: str
    mode: str  # "skew" | "internal" | "external"
    e: int
    sets: tuple[tuple[int, ...], ...]
    params: Callable[[FieldFacts], tuple]
    ref: tuple[int, ...] = (2, 0)
    zero: bool = False
    by_t: bool = False


def _union_plans(rows: tuple[UnionPlan, ...], note: str, field: Field, facts: FieldFacts) -> list[Plan]:
    """Plans of a class-union recipe.  A family whose lambda equals its mu,
    or that has no mu, is predicted as a DDF/EDF with no reference (none is
    built) and carries the recipe's note."""
    q = facts.q
    plans: list[Plan] = []
    for row in rows:
        family = tuple(class_union(field, row.e, idx) for idx in row.sets)
        params = row.params(facts)
        if row.mode != "skew" and (params[1] is None or params[0] == params[1]):
            kind = "DDF" if row.mode == "internal" else "EDF"
            plans += _plan(row.label, row.mode, family, None, kind, family_params(q, family, params[0]), note)
            continue
        ref_idx = row.ref[1:] if not row.by_t or facts.t == -2 else tuple(1 - i for i in row.ref[1:])
        ref = class_union(field, row.ref[0], ref_idx)
        if row.zero:  # 0 is below every other code
            family, ref = (np.concatenate(([0], family[0])),), np.concatenate(([0], ref))
        if row.mode == "skew":
            k, lam, mu = params
            plans += _plan(row.label, "skew", family, ref, "SkewPDS", {"v": q, "k": k, "lambda": lam, "mu": mu})
        else:
            kind = "RelativeDPDF" if row.mode == "internal" else "RelativeEPDF"
            plans += _plan(row.label, row.mode, family, ref, kind, family_params(q, family, *params))
    return plans


def _union(*rows: UnionPlan, note: str = "") -> Callable[[Field, FieldFacts], list[Plan]]:
    return functools.partial(_union_plans, rows, note)


def _paley(f: FieldFacts) -> tuple[int, int, int]:
    return (f.q - 1) // 2, (f.q - 5) // 4, (f.q - 1) // 4


def _paley_complement(f: FieldFacts) -> tuple[int, int, int]:
    return (f.q + 1) // 2, (f.q + 3) // 4, (f.q - 1) // 4


def _r5(f: FieldFacts) -> tuple[int, int, int]:
    return (f.q - 1) // 4, (f.q - 11 - 6 * f.x) // 16, (f.q - 3 + 2 * f.x) // 16


def _r7(f: FieldFacts) -> tuple[int, int, int]:
    ell = f.p ** (f.m // 2)
    return (f.q - 1) // 4, (f.q - 11 + 6 * ell) // 16, (f.q - 3 - 2 * ell) // 16


def _r12_hi_lo(f: FieldFacts) -> tuple[int, int]:
    return (f.q - 7 - 2 * f.x) // 8, (f.q - 3 + 2 * f.x) // 8


def _r18_lo_hi(f: FieldFacts) -> tuple[int, int]:
    return (f.q - 5 - 2 * f.y - 2 * f.b) // 8, (f.q - 5 + 2 * f.y + 2 * f.b) // 8


def _r19_lo_hi(f: FieldFacts) -> tuple[int, int]:
    return (f.q - 5 - 2 * f.y) // 8, (f.q - 5 + 2 * f.y) // 8


def _swapped(params: Callable[[FieldFacts], tuple[int, int]]) -> Callable[[FieldFacts], tuple[int, int]]:
    return lambda f: params(f)[::-1]


def _pair_family(field: Field, gamma: int) -> np.ndarray:
    """The pairs {i, gamma*i} over i in C_0^4, one sorted row each."""
    ones = class_union(field, 4, (0,))
    return np.sort(np.stack([ones, field.mul_codes(ones, gamma)], axis=1), axis=1)


def _build_r14(field, facts):
    q = facts.q
    fam, squares = _pair_family(field, field.element(2)), class_union(field, 2, (0,))
    plans = _plan("internal", "internal", fam, squares, "RelativeDPDF", family_params(q, fam, 1, 0))
    # Ext is an EDF when 2 lies in C_{-t/2}^4, which by Gauss's criterion it always does, as
    # s = 1 (mod 4) and g^((q-1)/4) = s/t pins the sign of t
    return plans + _plan("external", "external", fam, None, "EDF", family_params(q, fam, (q - 5) // 4))


def r24_admissible_gammas(field: Field) -> tuple[np.ndarray, np.ndarray]:
    """Codes gamma in C_2^4 split by whether 1 - gamma is a square, that
    is in an even class of order 4."""
    gammas = class_union(field, 4, (2,))
    square = class_of(field, 4, field.sub_codes(1, gammas)) % 2 == 0
    return gammas[square], gammas[~square]


def _build_r24(field, facts):
    q = facts.q
    in_sq, out_sq = r24_admissible_gammas(field)
    plans: list[Plan] = []
    if len(in_sq):
        fam = _pair_family(field, in_sq[0])
        note = f"gamma={in_sq[0]}, derived branch"
        plans += _plan("in-sq-internal", "internal", fam, None, "DPDF", family_params(q, fam, 1, 0), note)
        plans += _plan(
            "in-sq-external",
            "external",
            fam,
            None,
            "EPDF",
            family_params(q, fam, (q - 9) // 4, (q - 1) // 4),
            note,
        )
    if len(out_sq):
        fam = _pair_family(field, out_sq[0])
        note = f"gamma={out_sq[0]}"
        plans += _plan("out-sq-internal", "internal", fam, None, "DPDF", family_params(q, fam, 0, 1), note)
        plans += _plan(
            "out-sq-external", "external", fam, None, "EDF", family_params(q, fam, (q - 5) // 4), note
        )
    return plans


def r25_admissible_gammas(field: Field) -> np.ndarray:
    """Codes gamma in C_2^4 with one of 1 -+ gamma in C_0^4, the other in C_2^4."""
    gammas = class_union(field, 4, (2,))
    gammas = gammas[gammas != field.neg(1)]  # 1 + gamma = 0 lies in no class; -1 is in C_2^4 if q = 5 (mod 8)
    u, v = class_of(field, 4, field.sub_codes(1, gammas)), class_of(field, 4, field.add_codes(1, gammas))
    return gammas[((u == 0) & (v == 2)) | ((u == 2) & (v == 0))]


def _build_r25(field, facts):
    q = facts.q
    gammas = r25_admissible_gammas(field)
    if not len(gammas):
        return []
    gamma = gammas[0]
    ones = class_union(field, 4, (0,))
    reps = ones[ones < field.neg_codes(ones)]
    gamma_reps = field.mul_codes(reps, gamma)
    # gamma is not -1, which lies in C_0^4, so each orbit has four codes
    fam = np.sort(np.stack([reps, field.neg_codes(reps), gamma_reps, field.neg_codes(gamma_reps)], axis=1), axis=1)
    note = f"gamma={gamma}"
    plans = _plan("internal", "internal", fam, None, "DPDF", family_params(q, fam, 3, 0), note)
    plans += _plan(
        "external", "external", fam, None, "EPDF", family_params(q, fam, (q - 17) // 4, (q - 1) // 4), note
    )
    return plans


def _recipes() -> list[Recipe]:
    R, U = Recipe, UnionPlan
    items = [
        R("R1", "skew C0^4 u C3^4", "SkewPDS", "q = 5 (mod 8), q = s^2 + 4, q > 5",
          "(q,(q-1)/2,(q-5)/4,(q-1)/4)", _pre_t2,
          _union(U("D", "skew", 4, ((0, 3),), _paley, by_t=True))),
        R("R2", "skew C0^4 u C1^4", "SkewPDS", "q = 5 (mod 8), q = s^2 + 4, q > 5",
          "(q,(q-1)/2,(q-5)/4,(q-1)/4)", _pre_t2,
          _union(U("D", "skew", 4, ((0, 1),), _paley, (2, 1), by_t=True))),
        R("R3", "negative of R1", "SkewPDS", "q = 5 (mod 8), q = s^2 + 4, q > 5",
          "(q,(q-1)/2,(q-5)/4,(q-1)/4)", _pre_t2,
          _union(U("negative", "skew", 4, ((1, 2),), _paley, by_t=True))),
        R("R4", "complement of R1 with 0", "SkewPDS", "q = 5 (mod 8), q = s^2 + 4, q > 5",
          "(q,(q+1)/2,(q+3)/4,(q-1)/4)", _pre_t2,
          _union(U("complement", "skew", 4, ((1, 2),), _paley_complement, (2, 1), zero=True, by_t=True))),
        R("R5", "skew C3^8 u C5^8", "SkewPDS", "p = 3 (mod 8), m = 2 (mod 4), x + a = -2",
          "(q,(q-1)/4,(q-11-6x)/16,(q-3+2x)/16)", _pre_x_plus_a,
          _union(U("D", "skew", 8, ((3, 5),), _r5, (4, 0)))),
        R("R6", "complement and negative of R5", "SkewPDS", "p = 3 (mod 8), m = 2 (mod 4), x + a = -2",
          "(q,(3q+1)/4,(9q+5+2x)/16,(9q-3-6x)/16); (q,(q-1)/4,(q-11-6x)/16,(q-3+2x)/16)",
          _pre_x_plus_a,
          _union(U("complement", "skew", 8, ((0, 1, 2, 4, 6, 7),),
                   lambda f: ((3 * f.q + 1) // 4, (9 * f.q + 5 + 2 * f.x) // 16, (9 * f.q - 3 - 6 * f.x) // 16),
                   (4, 1, 2, 3), zero=True),
                 U("negative", "skew", 8, ((1, 7),), _r5, (4, 0)))),
        R("R7", "R5 via l = c^2/2 + 1", "SkewPDS", "q = l^2, l = 3 (mod 8) prime power, l = c^2/2 + 1",
          "(q,(q-1)/4,(q-11+6l)/16,(q-3-2l)/16)", _pre_r7,
          _union(U("D", "skew", 8, ((3, 5),), _r7, (4, 0)))),
        R("R8", "skew Paley C0^8 u C1^8 u C2^8 u C5^8", "SkewPDS",
          "p = 3 (mod 8), m = 2 (mod 4), a = x + 4",
          "(q,(q-1)/2,(q-5)/4,(q-1)/4)", _pre_a_is_x4, _union(U("D", "skew", 8, ((0, 1, 2, 5),), _paley))),
        R("R9", "complement and negative of R8", "SkewPDS", "p = 3 (mod 8), m = 2 (mod 4), a = x + 4",
          "(q,(q+1)/2,(q+3)/4,(q-1)/4); (q,(q-1)/2,(q-5)/4,(q-1)/4)", _pre_a_is_x4,
          _union(U("complement", "skew", 8, ((3, 4, 6, 7),), _paley_complement, (2, 1), zero=True),
                 U("negative", "skew", 8, ((1, 4, 5, 6),), _paley))),
        R("R10", "R8 via l = d^2 + 2", "SkewPDS", "q = l^2, l = d^2 + 2 = 3 (mod 8) prime power",
          "(q,(q-1)/2,(q-5)/4,(q-1)/4)", _pre_r10, _union(U("D", "skew", 8, ((0, 1, 2, 5),), _paley))),
        R("R11", "one-set DPDF C0^8", "RelativeDPDF", "q = 9 (mod 16), 2 quartic residue, a = 1",
          "(q,1,(q-1)/8;(q-15-2x)/64,(q-3+2x)/64)",
          lambda q, p, m: q % 16 == 9 and _a_value(q, p, m) == 1 and two_is_quartic_residue(q, p),
          _union(U("D", "internal", 8, ((0,),), lambda f: ((f.q - 15 - 2 * f.x) // 64, (f.q - 3 + 2 * f.x) // 64)),
                 note="degenerate branch"), suspect=True),
        R("R12", "DPDF pairs from skew swap", "RelativeDPDF", "p = 3 (mod 8), m = 2 (mod 4), x + a = -2",
          "(q,2,(q-1)/4;(q-7-2x)/8,(q-3+2x)/8)", _pre_x_plus_a,
          _union(U("D1", "internal", 8, ((3, 5), (2, 6)), _r12_hi_lo),
                 U("D2", "internal", 8, ((0, 2), (3, 7)), _swapped(_r12_hi_lo)))),
        R("R13", "family {C0^4, C3^4}", "RelativeEPDF", "q = 5 (mod 8), q = s^2 + 4, q > 5",
          "DDF (q,2,(q-1)/4,(q-5)/8); EPDF (q,2,(q-1)/4;(q-5)/8,(q+3)/8)", _pre_t2,
          _union(U("internal", "internal", 4, ((0,), (3,)), lambda f: ((f.q - 5) // 8, None)),
                 U("external", "external", 4, ((0,), (3,)),
                   lambda f: ((f.q - 5) // 8, (f.q + 3) // 8) if f.t == -2 else ((f.q + 3) // 8, (f.q - 5) // 8))),
          suspect=True),
        R("R14", "pair family {i, 2i}, i in C0^4", "RelativeDPDF", "q = 5 (mod 8), q = s^2 + 4, q > 5",
          "DPDF (q,(q-1)/4,2;1,0); EDF (q,(q-1)/4,2,(q-5)/4)",
          _pre_t2, _build_r14),
        R("R15", "family {C0^8, C2^8}", "RelativeDPDF", "q = 9 (mod 16)",
          "(q,2,(q-1)/8;(q-11-2x-4a)/32,(q-7+2x+4a)/32), DDF (q-9)/32 when x+2a = -1",
          lambda q, p, m: q % 16 == 9,
          _union(U("D", "internal", 8, ((0,), (2,)),
                   lambda f: ((f.q - 11 - 2 * f.x - 4 * f.a) // 32, (f.q - 7 + 2 * f.x + 4 * f.a) // 32)))),
        R("R16", "family {C0^8, C1^8, C4^8, C6^8}", "RelativeDPDF",
          "q = 9 (mod 16), 2 quartic residue, a = 1",
          "(q,4,(q-1)/8;(q-12-x)/16,(q-6+x)/16)",
          lambda q, p, m: q % 16 == 9 and _a_value(q, p, m) == 1 and two_is_quartic_residue(q, p),
          _union(U("D", "internal", 8, ((0,), (1,), (4,), (6,)),
                   lambda f: ((f.q - 12 - f.x) // 16, (f.q - 6 + f.x) // 16)),
                 note="degenerate branch")),
        R("R17", "family {C0^8 u C1^8, C2^8 u C3^8}", "RelativeDPDF", "q = 9 (mod 16)",
          "(q,2,(q-1)/4;(q-5+2y-2b)/8,(q-5-2y+2b)/8), DDF (q-5)/8 when y = b",
          lambda q, p, m: q % 16 == 9,
          _union(U("D", "internal", 8, ((0, 1), (2, 3)),
                   lambda f: ((f.q - 5 + 2 * f.y - 2 * f.b) // 8, (f.q - 5 - 2 * f.y + 2 * f.b) // 8)))),
        R("R18", "families {C0^8 u C3^8, C1^8 u C6^8} and {C0^8 u C5^8, C2^8 u C7^8}", "RelativeDPDF",
          "q = 9 (mod 16)",
          "(q,2,(q-1)/4;(q-5-2y-2b)/8,(q-5+2y+2b)/8) and swapped, DDFs when y = -b",
          lambda q, p, m: q % 16 == 9,
          _union(U("D1", "internal", 8, ((0, 3), (1, 6)), _r18_lo_hi),
                 U("D2", "internal", 8, ((0, 5), (2, 7)), _swapped(_r18_lo_hi)))),
        R("R19", "R18 at q = p^2, p = 5 (mod 8)", "RelativeDPDF", "q = p^2, p = 5 (mod 8) prime",
          "(q,2,(q-1)/4;(q-5-2y)/8,(q-5+2y)/8) and swapped",
          lambda q, p, m: m == 2 and p % 8 == 5,
          _union(U("D1", "internal", 8, ((0, 3), (1, 6)), _r19_lo_hi),
                 U("D2", "internal", 8, ((0, 5), (2, 7)), _swapped(_r19_lo_hi)))),
        R("R20", "families {C0^8 u C1^8, C2^8 u C7^8} and {C0^8 u C1^8, C3^8 u C6^8}", "RelativeDPDF",
          "p = 5 (mod 8), m = 2 (mod 4)",
          "(q,2,(q-1)/4;(q-5+2y)/8,(q-5-2y)/8)",
          lambda q, p, m: p % 8 == 5 and m % 4 == 2,
          _union(U("D1", "internal", 8, ((0, 1), (2, 7)), _swapped(_r19_lo_hi)),
                 U("D2", "internal", 8, ((0, 1), (3, 6)), _swapped(_r19_lo_hi)))),
        R("R21", "external family {C0^8, C4^8}", "RelativeEPDF",
          "q = 1 (mod 16), 2 quartic residue, a = 1",
          "(q,2,(q-1)/8;(q+1-2x)/32,(q-3+2x)/32)",
          lambda q, p, m: q % 16 == 1 and _a_value(q, p, m) == 1 and two_is_quartic_residue(q, p),
          _union(U("D", "external", 8, ((0,), (4,)),
                   lambda f: ((f.q + 1 - 2 * f.x) // 32, (f.q - 3 + 2 * f.x) // 32)))),
        R("R22", "external family {C0^8, C1^8, C4^8, C5^8}", "RelativeEPDF",
          "q = 1 (mod 16), 2 not a quartic residue, a = -3",
          "(q,4,(q-1)/8;(3q-3+8y)/16,(3q-3-8y)/16), EDF (3q-3)/16 when y = 0",
          lambda q, p, m: q % 16 == 1 and _a_value(q, p, m) == -3 and not two_is_quartic_residue(q, p),
          _union(U("D", "external", 8, ((0,), (1,), (4,), (5,)),
                   lambda f: ((3 * f.q - 3 + 8 * f.y) // 16, (3 * f.q - 3 - 8 * f.y) // 16)))),
        R("R23", "external family {C0^8, C2^8 u C6^8}", "RelativeEPDF", "q = 9 (mod 16)",
          "(q,2;(q-1)/8,(q-1)/4;(q-3+2x)/16,(q+1-2x)/16), EDF (q-1)/16 when x = 1",
          lambda q, p, m: q % 16 == 9,
          _union(U("D", "external", 8, ((0,), (2, 6)),
                   lambda f: ((f.q - 3 + 2 * f.x) // 16, (f.q + 1 - 2 * f.x) // 16)))),
        R("R24", "pair family {i, gamma*i}, gamma in C2^4", "DPDF", "q = 5 (mod 8), q > 5",
          "DPDF (q,(q-1)/4,2;1,0) or (0,1); EPDF (q,(q-1)/4,2;(q-9)/4,(q-1)/4) or EDF (q-5)/4",
          lambda q, p, m: q % 8 == 5 and q > 5, _build_r24, suspect=True),
        R("R25", "quadruple family {i, -i, gamma*i, -gamma*i}", "DPDF",
          "q = 1 (mod 8), admissible gamma in C2^4",
          "DPDF (q,(q-1)/8,4;3,0); EPDF (q,(q-1)/8,4;(q-17)/4,(q-1)/4)",
          lambda q, p, m: q % 8 == 1, _build_r25),
    ]
    return items


_REGISTRY = _recipes()
_BY_ID = {r.id: r for r in _REGISTRY}


def registry() -> list[Recipe]:
    return list(_REGISTRY)


def get_recipe(recipe_id: str) -> Recipe:
    if recipe_id not in _BY_ID:
        raise UnknownRecipe(f"unknown recipe id {recipe_id!r}")
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

    def to_json(self, spliced=(), mark: str | None = None) -> dict:
        """The entry as JSON values; an array whose key (the certificate's
        included) is in spliced is not listed but written as mark."""
        return {
            "q": self.field.q,
            "recipe": self.recipe_id,
            "label": self.plan.label,
            "field": self.field.as_dict(),
            "mode": self.plan.mode,
            "family": mark if "family" in spliced else sets_json(self.plan.family),
            "reference": None if self.plan.reference is None
            else mark if "reference" in spliced else self.plan.reference.tolist(),
            "predicted_kind": self.plan.kind,
            "predicted_params": dict(self.plan.params),
            "suspect": self.suspect,
            "note": self.plan.note,
            "certificate": None if self.certificate is None else self.certificate.to_json(spliced, mark),
            "oracle_verified": self.oracle_verified,
        }

    @staticmethod
    def from_json(d: dict) -> "Construction":
        """Inverse of to_json.  ParseError when a value has the wrong JSON
        type or q is not the order of the field; KeyError, TypeError or
        AttributeError when d does not have the shape of an entry."""
        spec = spec_from_json(d["field"])
        q = json_typed(d["q"], int, "q")  # checked, not kept: the field spec gives q
        # m first, as in build_field: for a huge m, p**m alone would stall
        if not 1 <= spec.m <= 31 or spec.q != q:
            raise ParseError(f"q is {q}, not the order of the field {spec.p}^{spec.m}")
        s = {k: json_typed(d[k], str, k) for k in ("recipe", "label", "mode", "predicted_kind", "note")}
        family = json_sets(d["family"], "family", "family set")
        ref = None if d["reference"] is None else json_codes(d["reference"], "reference")
        params = params_from_json(d["predicted_params"])
        plan = Plan(s["label"], s["mode"], family, ref, s["predicted_kind"], params, s["note"])
        cert = None if d["certificate"] is None else Certificate.from_json(d["certificate"])
        flags = [json_typed(d[k], bool, k) for k in ("oracle_verified", "suspect")]
        return Construction(s["recipe"], plan, spec, cert, *flags)


def _match_problem(plan: Plan, cert: Certificate) -> str | None:
    if not cert.ok:
        return "certifier returned kind None"
    if plan.mode == "skew" and plan.kind == "SkewPDS":
        if cert.kind not in ("SkewPDS", "TrivialSkewPDS"):
            return f"kind {cert.kind} is not a skew PDS"
    elif cert.kind != plan.kind:
        return f"kind {cert.kind} != predicted {plan.kind}"
    if cert.params != plan.params:
        return f"params {cert.params} != predicted {plan.params}"
    if plan.reference is not None:
        if cert.reference_set is None or not np.array_equal(cert.reference_set, plan.reference):
            return "reference set does not match prediction"
    return None


def _certified(recipe_id: str, plan: Plan, field: Field, suspect: bool = False) -> Construction:
    """The plan's construction with its oracle certificate; PredictionMismatch
    when the certificate disagrees with the plan."""
    cert = certify(field, plan.mode, plan.family, plan.reference)
    problem = _match_problem(plan, cert)
    if problem is not None:
        raise PredictionMismatch(f"{recipe_id}[{plan.label}] at q={field.q}: {problem}")
    return Construction(recipe_id, plan, field.spec, cert, True, suspect)


def same_sets(family, sets) -> bool:
    """Whether two families, each a 2-D array or a sequence of arrays, hold
    the same sets in the same order, compared as arrays, shapes first."""
    if isinstance(family, np.ndarray) and isinstance(sets, np.ndarray):
        return np.array_equal(sets, family)
    return len(sets) == len(family) and all(map(np.array_equal, sets, family))


def recheck(con: Construction, field: Field) -> list[str]:
    """Why a construction read back from a catalog no longer holds: its
    certificate must be over its field, hold its family, recompute from
    its own sets in field (the field con.field defines) and still match
    its prediction.  Empty when it holds."""
    cert, fs = con.certificate, con.field
    if cert is None:
        return ["no certificate"]
    problems = []
    if cert.field != fs:
        problems.append("field differs from the certificate's")
    if not same_sets(con.plan.family, cert.sets):
        problems.append("family differs from the certificate's sets")
    if not verify_certificate(field, cert):
        problems.append("certificate does not recompute from its sets")
    mismatch = _match_problem(con.plan, cert)
    return problems if mismatch is None else problems + [mismatch]


def apply(recipe: Recipe, field: Field) -> list[Construction]:
    """Build every plan of the recipe and certify it against the oracle."""
    return [_certified(recipe.id, plan, field, recipe.suspect) for plan in recipe.plans(field)]


# ---- range enumeration ----


def prime_powers(lo: int, hi: int):
    for q in range(max(2, lo), hi + 1):
        try:
            p, m = prime_power_decompose(q)
        except NotPrimePower:
            continue
        yield q, p, m


def iter_applicable(
    q_min: int,
    q_max: int,
    recipe_ids: list[str] | None = None,
    certify_cap: int = 5000,
) -> Iterator[Construction]:
    """Evaluate recipes over every prime power in range, certifying where
    q <= certify_cap.  Constructions are yielded as each field is done,
    ordered by (q, registry order, plan)."""
    recipes = _REGISTRY if recipe_ids is None else [get_recipe(r) for r in recipe_ids]
    for q, p, m in prime_powers(q_min, q_max):
        passed = [r for r in recipes if r.precheck(q, p, m)]
        if not passed:
            continue
        field = build_field(p, m)
        facts = field_facts(field)
        for recipe in passed:  # its precheck has passed, so Recipe.plans' guard is skipped
            for plan in recipe.build(field, facts):
                yield (_certified(recipe.id, plan, field, recipe.suspect) if q <= certify_cap
                       else Construction(recipe.id, plan, field.spec, suspect=recipe.suspect))

