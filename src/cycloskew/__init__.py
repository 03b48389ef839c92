"""Cyclotomic constructions of skew partial difference sets and
disjoint/external partial difference families over finite fields, with
an exact brute-force certification oracle."""

__version__ = "0.1.0"

from .constructions import (
    Construction,
    Plan,
    Recipe,
    apply,
    field_facts,
    get_recipe,
    iter_applicable,
    registry,
)
from .cyclotomy import (
    ClassPartition,
    CycNumTable,
    bruteforce_table,
    class_of,
    class_union,
    classes,
    closed_form_table,
    cyclotomic_numbers_order4,
    cyclotomic_numbers_order8,
    delta_via_cycnums,
)
from .diffsets import (
    Certificate,
    check_ads,
    check_family,
    check_pds,
    check_skew_pds,
    cross_differences,
    family_external,
    family_internal,
    internal_differences,
    verify_certificate,
)
from .field import Field, FieldSpec, build_field, default_poly, is_prime
from .numtheory import (
    QuadRepAB,
    QuadRepST,
    QuadRepXY,
    a2_2b2_rep,
    is_prime_power,
    prime_power_decompose,
    two_is_quartic_residue,
    two_squares_rep,
    x2_4y2_rep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
