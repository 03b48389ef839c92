import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_tour_runs():
    # the tour calls the public API by name, so a changed signature breaks it
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", blocks[0]], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr


def test_public_names_pinned():
    # adding or removing a public name is an edit of this list
    import cycloskew

    assert sorted(cycloskew.__all__) == [
        "Certificate", "ClassPartition", "Construction", "CycNumTable", "Field", "FieldSpec", "Plan",
        "QuadRepAB", "QuadRepST", "QuadRepXY", "Recipe", "a2_2b2_rep", "apply", "bruteforce_table",
        "build_field", "check_ads", "check_family", "check_pds", "check_skew_pds", "class_of",
        "class_union", "classes", "closed_form_table", "constructions", "cross_differences",
        "cyclotomic_numbers_order4", "cyclotomic_numbers_order8", "cyclotomy", "default_poly",
        "delta_via_cycnums", "diffsets", "errors", "family_external", "family_internal", "field",
        "field_facts", "get_recipe", "internal_differences", "is_prime", "is_prime_power",
        "iter_applicable", "numtheory", "prime_power_decompose", "registry", "two_is_quartic_residue",
        "two_squares_rep", "verify_certificate", "x2_4y2_rep",
    ]
