import json
import re

import pytest

import cycloskew.constructions
from cycloskew.cli import main, table1_rows, table2_rows


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
        capsys, "verify", "--p", "13", "--gen", "2", "--sets", str(sets), "--mode", "skew"
    )
    assert code == 0
    cert = json.loads(out)
    assert cert["kind"] == "SkewPDS"
    assert cert["params"] == {"v": 13, "k": 6, "lambda": 2, "mu": 3}
    assert cert["field"] == {"p": 13, "m": 1, "poly": [11, 1], "generator": 2}


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


def test_cycnum_compare(capsys):
    code, out, _ = run(capsys, "cycnum", "--p", "13", "--gen", "2", "--e", "4", "--compare")
    assert code == 0
    assert out.strip().endswith("MATCH")
    assert "s=-3 t=-2" in out.replace("  ", " ")


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
    ],
)
def test_bad_input_is_a_typed_error(tmp_path, capsys, argv, error):
    (tmp_path / "malformed.jsonl").write_text('{"q": 13,\n')
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


def test_recipes_dump(capsys):
    code, out, _ = run(capsys, "recipes")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 25
    first = json.loads(lines[0])
    assert first["id"] == "R1" and "conditions" in first and "formulas" in first
