import io
import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cycloskew.cli
import cycloskew.constructions
import cycloskew.field
from cycloskew import errors
from cycloskew.cli import SPLICE_MARK, construction_entry, entry_line, main, table1_rows, table2_rows
from cycloskew.constructions import Construction, iter_applicable
from cycloskew.diffsets import SET_MODES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tables_empty_range(capsys):
    code, out, err = run(capsys, "tables", "1", "10")
    assert code == 0
    assert out.strip() == ""
    assert "0 rows" in err


def test_tables_small(capsys):
    code, out, err = run(capsys, "tables", "1", "100")
    assert code == 0
    lines = [l for l in out.strip().splitlines()]
    assert len(lines) == 3
    assert lines[0].startswith("13\t") and "certified" in lines[0]
    assert "(13,6,2,3)" in lines[0]


def test_tables_two_small(capsys):
    code, out, err = run(capsys, "tables", "2", "200")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t")[:3] == ["9", "3=1²+2", "(9,4,1,2)"]
    assert lines[1].startswith("121\t")


def test_tables_bound_too_large(capsys):
    code, out, err = run(capsys, "tables", "1", str(10**9))
    assert code == 2
    assert "BoundTooLarge" in err


def test_table_row_generators():
    t1 = [r["q"] for r in table1_rows(300)]
    assert t1 == [13, 29, 53, 125, 173, 229, 293]
    t2 = [r["q"] for r in table2_rows(10**6)]
    assert t2 == [9, 121, 729, 6889, 51529, 196249]


def test_verify_skew(tmp_path, capsys):
    sets = tmp_path / "sets.json"
    sets.write_text("[[1,3,7,8,9,11]]")
    code, out, _ = run(
        capsys, "verify", "--p", "13", "--gen", "2", "--sets", f"@{sets}", "--mode", "skew"
    )
    assert code == 0
    cert = json.loads(out)
    assert cert["kind"] == "SkewPDS"
    assert cert["params"] == {"v": 13, "k": 6, "lambda": 2, "mu": 3}
    assert cert["field"] == {"p": 13, "m": 1, "poly": [11, 1], "generator": 2}


def test_verify_sets_inline_even_when_a_file_has_that_name(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "[[1,3,4,9,10,12]]").write_text("[[1,2]]")
    code, out, _ = run(capsys, "verify", "--p", "13", "--gen", "2", "--sets", "[[1,3,4,9,10,12]]", "--mode", "pds")
    assert code == 0 and json.loads(out)["kind"] == "PDS"


def test_verify_external_family(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--p", "13", "--gen", "2",
        "--sets", "[[1,2],[3,6],[9,5]]", "--mode", "external",
    )
    assert code == 0
    cert = json.loads(out)
    assert cert["kind"] == "EDF"
    assert cert["params"] == {"v": 13, "m": 3, "k": 2, "lambda": 2}


def test_verify_singleton_is_none(capsys):
    code, out, _ = run(
        capsys, "verify", "--p", "13", "--gen", "2", "--sets", "[[1]]", "--mode", "internal"
    )
    assert code == 1
    assert json.loads(out)["kind"] == "None"


def test_verify_with_reference(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--p", "13", "--gen", "2",
        "--sets", "[[1,2],[3,6],[9,5]]", "--mode", "internal",
        "--reference", "[1,3,4,9,10,12]",
    )
    assert code == 0
    assert json.loads(out)["kind"] == "RelativeDPDF"


def test_verify_unknown_mode(capsys):
    code, _, err = run(
        capsys, "verify", "--p", "13", "--sets", "[[1]]", "--mode", "bogus"
    )
    assert code == 2
    assert "UnknownMode" in err


def test_verify_parse_error(capsys):
    code, _, err = run(
        capsys, "verify", "--p", "13", "--sets", "not json", "--mode", "skew"
    )
    assert code == 2
    assert "ParseError" in err


@pytest.mark.parametrize("field_args", [["--p", "2147483647"], ["--p", "2", "--m", "30"], ["--p", "10007", "--m", "2"]])
def test_verify_refuses_a_field_above_the_order_bound(monkeypatch, capsys, field_args):
    # q = 2^31 - 1 once asked numpy for 8 GiB of tables, and GF(2^30) sat in
    # the table build for minutes; both, and the first square above 10^8,
    # exit 2 before any polynomial search or table
    def never(*args):
        raise AssertionError("a refused field was searched or allocated")

    monkeypatch.setattr(cycloskew.field, "default_poly", never)
    monkeypatch.setattr(cycloskew.field, "_build_tables", never)
    code, _, err = run(capsys, "verify", *field_args, "--sets", "[[1]]", "--mode", "pds")
    assert code == 2
    assert "FieldTooLarge" in err and str(10**8) in err


def test_cycnum_compare(capsys):
    code, out, _ = run(capsys, "cycnum", "--p", "13", "--gen", "2", "--e", "4", "--compare")
    assert code == 0
    assert out.strip().endswith("MATCH")
    assert "s=-3 t=-2" in out.replace("  ", " ")


def test_cycnum_single_variant(capsys):
    # one table alone prints what --compare prints before its verdict;
    # q = 11 = 3 (mod 4) takes the order-2 closed form with f odd
    for args in (("--p", "13", "--gen", "2", "--e", "4"), ("--p", "11", "--e", "2")):
        code, compared, _ = run(capsys, "cycnum", *args, "--compare")
        assert code == 0 and compared.endswith("\nMATCH\n")
        for variant in ("--closed-form", "--brute-force"):
            code, out, _ = run(capsys, "cycnum", *args, variant)
            assert code == 0
            assert out == compared.removesuffix("MATCH\n")


def test_cycnum_order8_extension(capsys):
    code, out, _ = run(
        capsys, "cycnum", "--p", "3", "--m", "2", "--poly", "2,1,1", "--e", "8", "--compare"
    )
    assert code == 0
    assert "resolved_y=" in out


def test_cycnum_bad_order(capsys):
    code, _, err = run(capsys, "cycnum", "--p", "13", "--e", "5")
    assert code == 2
    assert "OrderDoesNotDivide" in err


def test_cycnum_order_too_large(capsys, monkeypatch):
    # an e x e table for e = q - 1 would need tens of GB; the order is
    # rejected before the field or any table is built
    def no_build(*args, **kwargs):
        raise AssertionError("built before the order was checked")

    monkeypatch.setattr(cycloskew.cli, "build_field", no_build)
    monkeypatch.setattr(cycloskew.cli, "bruteforce_table", no_build)
    for e in ("100002", "1025"):
        code, out, err = run(capsys, "cycnum", "--p", "100003", "--e", e, "--brute-force")
        assert code == 2 and out == ""
        assert "BoundTooLarge" in err
    monkeypatch.undo()
    code, _, err = run(capsys, "cycnum", "--p", "13", "--e", "1024")  # at the cap: checked as usual
    assert code == 2
    assert "OrderDoesNotDivide" in err


def test_scan_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    for out in (out1, out2):
        code, _, _ = run(
            capsys, "scan", "5", "120", "--certify-cap", "120", "--out", str(out)
        )
        assert code == 0
    strip = lambda text: re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', text)
    assert strip(out1.read_text()) == strip(out2.read_text())
    entries = [json.loads(l) for l in out1.read_text().splitlines()]
    assert all(e["oracle_verified"] for e in entries)
    keys = [(e["q"], int(e["recipe"][1:])) for e in entries]
    assert keys == sorted(keys)


def test_scan_beyond_certify_cap(capsys):
    # predictions above the cap are emitted without oracle verification
    code, out, _ = run(capsys, "scan", "26569", "26569", "--recipes", "R7")
    assert code == 0
    entry = json.loads(out.strip().splitlines()[0])
    assert entry["q"] == 26569 and entry["recipe"] == "R7"
    assert entry["predicted_params"] == {"v": 26569, "k": 6642, "lambda": 1721, "mu": 1640}
    assert entry["certificate"] is None and not entry["oracle_verified"]


def test_scan_mismatch_leaves_no_catalog(tmp_path, capsys, monkeypatch):
    # a mismatch at q = 53 stops the scan after the entries of smaller q were written
    match = cycloskew.constructions._match_problem
    monkeypatch.setattr(
        cycloskew.constructions,
        "_match_problem",
        lambda plan, cert: "forced" if cert.field.p == 53 else match(plan, cert),
    )
    out = tmp_path / "cat.jsonl"
    code, _, err = run(capsys, "scan", "5", "120", "--certify-cap", "120", "--out", str(out))
    assert code == 2 and "PredictionMismatch" in err
    assert list(tmp_path.iterdir()) == []

    code, out_text, err = run(capsys, "scan", "5", "120", "--certify-cap", "120")
    assert code == 2 and "PredictionMismatch" in err
    qs = [json.loads(line)["q"] for line in out_text.splitlines()]
    assert qs and max(qs) < 53


def blank_timestamp(line: str) -> str:
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', line)


def _one_code_off(sets, q: int):
    """sets (an array, or a tuple of arrays) with its first code moved on by one, mod q."""
    first = sets if isinstance(sets, np.ndarray) else sets[0]
    changed = first.copy()
    changed.flat[0] = (changed.flat[0] + 1) % q
    return changed if isinstance(sets, np.ndarray) else (changed, *sets[1:])


def _hand_built(cons: list[Construction]) -> list[Construction]:
    """Certified constructions whose certificate differs from the plan, or
    whose note holds a placeholder's text."""
    with_ref = next(c for c in cons if c.plan.reference is not None)
    pairs = next(c for c in cons if isinstance(c.certificate.sets, np.ndarray))  # a 2-D family
    cert, q = with_ref.certificate, with_ref.field.q
    notes = [SPLICE_MARK + "family", 'x"' + SPLICE_MARK + "reference", f"see {SPLICE_MARK}family here",
             f'"family": "{SPLICE_MARK}"', f'"sets": "{SPLICE_MARK}"']
    return [
        replace(with_ref, certificate=replace(cert, sets=_one_code_off(cert.sets, q))),
        replace(with_ref, certificate=replace(cert, reference_set=_one_code_off(cert.reference_set, q))),
        replace(pairs, certificate=replace(pairs.certificate, sets=_one_code_off(pairs.certificate.sets, pairs.field.q))),
        *(replace(c, plan=replace(c.plan, note=note)) for c in (with_ref, pairs) for note in notes),
    ]


def test_scan_lines_are_the_json_of_their_entries(tmp_path, capsys):
    out = tmp_path / "cat.jsonl"
    code, stdout, _ = run(capsys, "scan", "2", "400", "--certify-cap", "400")
    assert code == 0
    assert run(capsys, "scan", "2", "400", "--certify-cap", "400", "--out", str(out))[0] == 0
    cons = list(iter_applicable(2, 400, certify_cap=400))
    want = [blank_timestamp(json.dumps(construction_entry(c))) for c in cons]
    assert [blank_timestamp(line) for line in stdout.splitlines()] == want
    assert [blank_timestamp(line) for line in out.read_text().splitlines()] == want

    uncertified = list(iter_applicable(300, 400, certify_cap=0))
    assert uncertified and all(c.certificate is None for c in uncertified)
    for con in uncertified + _hand_built(cons):
        line = entry_line(con)
        assert blank_timestamp(line) == blank_timestamp(json.dumps(construction_entry(con)))
        assert Construction.from_json(json.loads(line)).to_json() == con.to_json()


def test_scan_encodes_a_repeated_array_once(monkeypatch):
    cons = list(iter_applicable(2, 400, certify_cap=400))
    con = next(c for c in cons if c.plan.reference is not None)
    encoded, dumps = [], json.dumps
    monkeypatch.setattr(cycloskew.cli.json, "dumps", lambda obj: encoded.append(dumps(obj)) or encoded[-1])
    line = entry_line(con)
    family, reference = dumps(con.to_json()["family"]), dumps(con.to_json()["reference"])
    assert [text for text in encoded if text in (family, reference)] == [family, reference]
    assert line.count(family) == line.count(reference) == 2 and SPLICE_MARK not in line


@pytest.mark.parametrize("target", ["missing/cat.jsonl", "directory"])
def test_scan_out_unwritable_is_a_typed_error(tmp_path, capsys, target):
    (tmp_path / "directory").mkdir()  # a file cannot be renamed over it
    code, _, err = run(capsys, "scan", "13", "13", "--recipes", "R1", "--out", str(tmp_path / target))
    assert code == 2
    assert err.startswith(f"error: ParseError: cannot write catalog {tmp_path / target}: ")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["directory"]


def test_cached_parser_keeps_no_state(capsys, monkeypatch):
    cycloskew.cli.build_parser.cache_clear()
    calls = []
    monkeypatch.setattr(cycloskew.cli, "iter_applicable", lambda *a, **kw: calls.append((a, kw)) or iter(()))
    assert run(capsys, "scan", "13", "30", "--recipes", "R7", "--certify-cap", "10")[0] == 0
    assert run(capsys, "scan", "13", "30")[0] == 0
    assert calls == [((13, 30, ["R7"]), {"certify_cap": 10}), ((13, 30, None), {"certify_cap": 5000})]

    code, single, _ = run(capsys, "cycnum", "--p", "13", "--e", "4", "--brute-force")
    assert code == 0 and "MATCH" not in single
    code, compared, _ = run(capsys, "cycnum", "--p", "13", "--e", "4")
    assert code == 0 and compared == single + "MATCH\n"

    monkeypatch.setattr(cycloskew.cli, "cmd_scan", lambda args: 7)
    assert run(capsys, "scan", "13", "30")[0] == 7
    assert cycloskew.cli.build_parser.cache_info().misses == 1


@pytest.mark.parametrize(
    "argv, error",
    [
        (["verify", "--p", "13", "--gen", "2", "--sets", "[[1.9, 3, 4, 9, 10, 12]]", "--mode", "pds"],
         "InvalidElementCode"),
        (["verify", "--p", "13", "--sets", '[["x", 3]]', "--mode", "pds"], "InvalidElementCode"),
        (["verify", "--p", "13", "--sets", "[]", "--mode", "pds"], "ParseError"),
        (["verify", "--p", "13", "--sets", "[[1, 2]]", "--mode", "internal", "--reference", "5"], "ParseError"),
        (["verify", "--p", "13", "--sets", "[[1, 2]]", "--mode", "internal", "--reference", "[1.5, 3]"],
         "InvalidElementCode"),
        (["catalog", "{tmp}/missing.jsonl"], "ParseError"),
        (["catalog", "{tmp}/malformed.jsonl"], "ParseError"),
        (["scan", "5", "50", "--recipes", "RX"], "UnknownRecipe"),
        (["catalog", "{tmp}/partial.jsonl"], "ParseError"),
        (["catalog", "{tmp}/array.jsonl"], "ParseError"),
        (["verify", "--p", "13", "--sets", "[[1, 3, 9], [7, 8, 11]]", "--mode", "external",
          "--reference", "[[1, 3, 4, 9, 10, 12], [2, 5]]"], "ParseError"),
        (["catalog", "{tmp}/one.jsonl", "--limit", "-1"], "ParseError"),
        (["verify", "--p", "13", "--gen", "2", "--sets", "[[1, 3, 4, 9, 10, 12], [2, 5]]", "--mode", "pds"],
         "ParseError"),
        (["verify", "--p", "13", "--gen", "2", "--sets", "[[1, 3, 4, 9, 10, 12]]", "--mode", "skew",
          "--reference", "[1, 3, 9]"], "ParseError"),
        (["catalog", "{tmp}/no-sets.jsonl"], "ParseError"),
        (["verify", "--p", "13", "--sets", "@{tmp}/missing.json", "--mode", "pds"], "ParseError"),
        (["verify", "--p", "13", "--gen", "2", "--sets", "[[1,2],[3,6],[9,5]]", "--mode", "internal",
          "--reference", ""], "ParseError"),
        # generator codes outside [1, q): numpy would wrap a negative code or index past q
        (["verify", "--p", "3", "--m", "2", "--gen", "9", "--sets", "[[1]]", "--mode", "pds"],
         "NotPrimitiveElement"),
        (["verify", "--p", "3", "--m", "2", "--gen", "-1", "--sets", "[[1]]", "--mode", "pds"],
         "NotPrimitiveElement"),
        (["verify", "--p", "13", "--gen", "15", "--sets", "[[1]]", "--mode", "pds"], "NotPrimitiveElement"),
        (["verify", "--p", "13", "--gen", "-11", "--sets", "[[1]]", "--mode", "pds"], "NotPrimitiveElement"),
    ],
)
def test_bad_input_is_a_typed_error(tmp_path, capsys, argv, error):
    (tmp_path / "malformed.jsonl").write_text('{"q": 13,\n')
    (tmp_path / "partial.jsonl").write_text('{"oracle_verified": true}\n')
    (tmp_path / "array.jsonl").write_text("[1, 2]\n")
    run(capsys, "scan", "13", "13", "--recipes", "R1", "--out", str(tmp_path / "one.jsonl"))
    entry = json.loads((tmp_path / "one.jsonl").read_text().splitlines()[0])
    entry["certificate"]["sets"] = []
    (tmp_path / "no-sets.jsonl").write_text(json.dumps(entry) + "\n")
    code, _, err = run(capsys, *[a.format(tmp=tmp_path) for a in argv])
    assert code == 2
    assert err.startswith(f"error: {error}: ")


def test_catalog_reverify(tmp_path, capsys):
    catalog = tmp_path / "cat.jsonl"
    run(capsys, "scan", "5", "50", "--certify-cap", "50", "--out", str(catalog))
    code, _, err = run(capsys, "catalog", str(catalog))
    assert code == 0
    assert "0 failures" in err

    lines = catalog.read_text().splitlines()
    entry = json.loads(lines[0])
    entry["certificate"]["params"]["lambda"] = 99
    lines[0] = json.dumps(entry)
    catalog.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "catalog", str(catalog))
    assert code == 1
    assert "FAIL" in out


def test_catalog_builds_each_field_once(tmp_path, capsys, monkeypatch):
    catalog = tmp_path / "cat.jsonl"
    run(capsys, "scan", "5", "50", "--certify-cap", "50", "--out", str(catalog))
    qs = [json.loads(line)["q"] for line in catalog.read_text().splitlines()]
    built, real_build = [], cycloskew.cli.build_field
    monkeypatch.setattr(cycloskew.cli, "build_field", lambda *a, **kw: built.append(a) or real_build(*a, **kw))
    code, _, err = run(capsys, "catalog", str(catalog))
    assert code == 0 and "re-verified %d certificates, 0 failures" % len(qs) in err
    assert len(built) == len(set(qs)) < len(qs)


def _edit_r1_entry(entry, edit):
    if edit == "family":
        entry["family"] = [[1, 2, 3]]
    elif edit == "prediction":
        entry["predicted_kind"] = "EPDF"
    elif edit == "field":
        entry["field"].update(poly=[6, 1], generator=7)
    elif edit == "certificate":
        entry["certificate"]["params"]["lambda"] = 99
    elif edit == "reference":
        entry["reference"] = [1, 2]
    elif edit == "no-certificate":
        entry["certificate"] = None
    elif edit.startswith("kind-"):
        entry["certificate"]["kind"] = edit.removeprefix("kind-")
    else:  # the hand edit: family, predicted kind and predicted lambda
        entry.update(family=[[1, 2, 3]], predicted_kind="EPDF")
        entry["predicted_params"]["lambda"] = 99


@pytest.mark.parametrize(
    "edit, reasons",
    [
        ("family", ["family differs from the certificate's sets"]),
        ("prediction", ["kind SkewPDS != predicted EPDF"]),
        ("field", ["field differs from the certificate's", "certificate does not recompute from its sets"]),
        ("certificate", ["certificate does not recompute from its sets", "params {"]),
        ("reference", ["reference set does not match prediction"]),
        ("no-certificate", ["no certificate"]),
        ("hand", ["family differs from the certificate's sets", "kind SkewPDS != predicted EPDF"]),
        ("kind-None", ["certificate does not recompute from its sets", "certifier returned kind None"]),
        ("kind-PDS", ["certificate does not recompute from its sets", "kind PDS is not a skew PDS"]),
    ],
)
def test_catalog_checks_entry_against_certificate(tmp_path, capsys, edit, reasons):
    # an unverified copy is skipped and counted; the edited entry fails with its reasons
    entry = json.loads(run(capsys, "scan", "13", "13", "--recipes", "R1")[1])
    _edit_r1_entry(entry, edit)
    catalog = tmp_path / "cat.jsonl"
    catalog.write_text(json.dumps(entry) + "\n" + json.dumps(dict(entry, oracle_verified=False)) + "\n")
    code, out, err = run(capsys, "catalog", str(catalog))
    assert code == 1
    head, _, got = out.rstrip("\n").partition(": ")
    assert head == "FAIL q=13 R1[D]"
    got = got.split("; ")
    assert len(got) == len(reasons) and all(g.startswith(r) for g, r in zip(got, reasons))
    assert "re-verified 1 certificates, 1 failures, 1 skipped" in err


def test_catalog_limit_stops_reading(tmp_path, capsys):
    # the malformed second line lies beyond --limit 1 and is never read
    entry = run(capsys, "scan", "13", "13", "--recipes", "R1")[1]
    catalog = tmp_path / "cat.jsonl"
    catalog.write_text(entry + '{"q": 13,\n')
    code, _, err = run(capsys, "catalog", str(catalog), "--limit", "1")
    assert code == 0 and "re-verified 1 certificates, 0 failures, 0 skipped" in err
    code, _, err = run(capsys, "catalog", str(catalog))
    assert code == 2 and err.startswith("error: ParseError: ")


def test_catalog_malformed_line_after_failing_entry(tmp_path, capsys):
    # each line is checked as it is read: the FAIL line comes before the error
    entry = json.loads(run(capsys, "scan", "13", "13", "--recipes", "R1")[1])
    _edit_r1_entry(entry, "certificate")
    catalog = tmp_path / "cat.jsonl"
    catalog.write_text(json.dumps(entry) + "\n[1, 2]\n")
    code, out, err = run(capsys, "catalog", str(catalog))
    assert code == 2 and err.startswith("error: ParseError: ") and "re-verified" not in err
    assert out.startswith("FAIL q=13 R1[D]: certificate does not recompute from its sets")


def test_catalog_rejects_non_integer_numbers(tmp_path, capsys):
    # every number in an entry is an integer: a stored lambda of 2.5 is rejected
    entry = json.loads(run(capsys, "scan", "13", "13", "--recipes", "R1")[1])
    entry["certificate"]["params"]["lambda"] = 2.5
    catalog = tmp_path / "cat.jsonl"
    catalog.write_text(json.dumps(entry) + "\n")
    code, _, err = run(capsys, "catalog", str(catalog))
    assert code == 2 and err.startswith("error: ParseError: ")


@pytest.mark.parametrize(
    "edit",
    [
        lambda e: e["field"].update(p="13"),
        lambda e: e["certificate"]["field"].update(p="13"),
        lambda e: e["predicted_params"].update({"lambda": "x"}),
        lambda e: e["predicted_params"].update({"v": [13]}),  # only ks is an array
        lambda e: e["certificate"]["params"].update({"lambda": True}),
        lambda e: e["field"].update(poly=[1, "1"]),
        lambda e: e["certificate"].update(translate_offset="0"),
        lambda e: e.update(q=[13]),
        lambda e: e.update(suspect=0),
        lambda e: e.update(note=None),
        lambda e: e["certificate"].update(kind=5),
        # a certificate holds every key to_json writes, and q is the order of the field
        lambda e: e["certificate"].pop("trivial"),
        lambda e: e["certificate"].pop("regular"),
        lambda e: e.update(q=17),
        lambda e: e.update(certificate=None) or e["field"].update(m=10**9),  # 13**m alone would stall
    ],
)
def test_catalog_rejects_wrong_value_types(tmp_path, capsys, edit):
    # hand edits of the entry that parse as JSON but hold a value of the wrong
    # type, or a shape scan never writes
    entry = json.loads(run(capsys, "scan", "13", "13", "--recipes", "R1")[1])
    edit(entry)
    catalog = tmp_path / "cat.jsonl"
    catalog.write_text(json.dumps(entry) + "\n")
    code, _, err = run(capsys, "catalog", str(catalog))
    assert code == 2 and err.startswith("error: ParseError: "), err


def test_recipes_dump(capsys):
    code, out, _ = run(capsys, "recipes")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 25
    first = json.loads(lines[0])
    assert first["id"] == "R1" and "conditions" in first and "formulas" in first


# ---- fuzzing: bad input exits 2 with a typed error, never a traceback ----

MODES = ["pds", "skew", "ads", "internal", "external"]
CODES = st.one_of(
    st.integers(-2, 14),  # GF(13): out of range at both ends, 0 included
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False),
    st.booleans(),
    st.text(max_size=2),
    st.none(),
    st.lists(st.integers(0, 12), max_size=2),
)
JUNK = st.recursive(st.none() | st.booleans() | st.integers() | st.text(max_size=3), st.lists, max_leaves=6)


def run_captured(argv):
    """main's exit code and stderr; safe across Hypothesis examples, unlike capsys."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_clean_exit(code, err, ok_prefix):
    """Exit 2 with `error: <Type>: ...`, Type a CycloskewError, or a clean 0/1."""
    if code == 2:
        name = re.match(r"error: (\w+): ", err)
        assert name and issubclass(getattr(errors, name.group(1)), errors.CycloskewError), err
    else:
        assert code in (0, 1) and err.startswith(ok_prefix), (code, err)


def verify_argv(sets_text, mode, reference_text):
    argv = ["verify", "--p", "13", "--gen", "2", f"--sets={sets_text}", "--mode", mode]
    return argv + ([f"--reference={reference_text}"] if reference_text is not None else [])


@given(
    sets=st.one_of(
        st.text(max_size=12),
        JUNK.map(json.dumps),
        st.lists(st.lists(CODES, max_size=6), max_size=4).map(json.dumps),
    ),
    mode=st.sampled_from(MODES + ["bogus"]),
    reference=st.none() | st.text(max_size=6) | st.lists(CODES, max_size=6).map(json.dumps),
)
@settings(max_examples=150)
def test_verify_fuzz(sets, mode, reference):
    assert_clean_exit(*run_captured(verify_argv(sets, mode, reference)), "")


@given(data=st.data(), mode=st.sampled_from(MODES), with_reference=st.booleans())
@settings(max_examples=60)
def test_verify_fuzz_valid_input(data, mode, with_reference):
    # distinct codes of GF(13)*, split into disjoint sets: always classified;
    # pds, skew and ads take one set and no reference
    one_set = mode in SET_MODES
    codes = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=12, unique=True))
    cuts = [] if one_set else sorted(data.draw(st.lists(st.integers(1, len(codes)), max_size=3)))
    sets = [codes[a:b] for a, b in zip([0] + cuts, cuts + [len(codes)])]
    with_reference = with_reference and not one_set
    reference = data.draw(st.lists(st.integers(1, 12), max_size=12, unique=True)) if with_reference else None
    reference_text = None if reference is None else json.dumps(reference)
    code, err = run_captured(verify_argv(json.dumps(sets), mode, reference_text))
    assert code in (0, 1) and err == ""


@cache
def _small_catalog() -> tuple[str, ...]:
    with tempfile.TemporaryDirectory() as tmp:
        run_captured(["scan", "9", "13", "--certify-cap", "13", "--out", f"{tmp}/cat.jsonl"])
        return tuple(Path(tmp, "cat.jsonl").read_text().splitlines())


TYPED = ["13", "", 13, 0, True, False, None, [13], [], {"v": 13}]


def leaves(value, path=()):
    """(path, value) of every value in a JSON document that is not an array or object."""
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from leaves(item, path + (key,))
    else:
        yield path, value


@st.composite
def edited_catalog(draw):
    """The q in [9, 13] catalog with one line replaced by malformed JSON or
    a non-entry, an entry with keys missing, one with a code of its family
    or of its certificate's sets replaced, duplicated or zeroed, or one
    with any value replaced by a value of another JSON type."""
    lines = list(_small_catalog())
    i = draw(st.integers(0, len(lines) - 1))
    entry = json.loads(lines[i])
    how = draw(st.sampled_from(["junk", "keys", "family", "sets", "both", "type"]))
    if how == "type":
        # one value anywhere in the entry replaced by one of another JSON type;
        # an integer is never replaced by null, which translate_offset allows
        path, old = draw(st.sampled_from(list(leaves(entry))))
        others = [v for v in TYPED if type(v) is not type(old) and not (type(old) is int and v is None)]
        new = draw(st.sampled_from(others))
        parent = entry
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = new
        lines[i] = json.dumps(entry)
        return lines, "int-type" if type(old) is int else how
    if how == "junk":
        lines[i] = draw(st.text(max_size=8) | (JUNK | st.dictionaries(st.text(max_size=3), JUNK)).map(json.dumps))
        return lines, how
    if how == "keys":
        drop = draw(st.lists(st.sampled_from(sorted(entry)), min_size=1, unique=True))
        lines[i] = json.dumps({k: v for k, v in entry.items() if k not in drop})
        return lines, how
    j = draw(st.integers(0, len(entry["family"]) - 1))
    s = entry["family"][j]
    k = draw(st.integers(0, len(s) - 1))
    new = draw(st.sampled_from(["code", "duplicate", "zero"]))
    edited = list(s)
    if new == "code":
        edited[k] = draw(CODES)
    elif new == "duplicate":
        edited.append(s[k])
    else:
        edited[k] = 0
    if how in ("family", "both"):
        entry["family"][j] = edited
    if how in ("sets", "both") and entry["certificate"] is not None:
        entry["certificate"]["sets"][j] = edited
    lines[i] = json.dumps(entry)
    return lines, how


@given(edit=edited_catalog())
@settings(max_examples=80)
def test_catalog_fuzz(edit):
    lines, how = edit
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "cat.jsonl")
        path.write_text("\n".join(lines) + "\n")
        code, err = run_captured(["catalog", str(path)])
    assert_clean_exit(code, err, "# re-verified")
    if how == "family":  # only the stored family changed: a FAIL line, or a float code rejected
        assert code in (0, 1) or err.startswith("error: ParseError: ")
    if how == "int-type":  # every number in an entry is an integer
        assert code == 2 and err.startswith("error: ParseError: "), err
