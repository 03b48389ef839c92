"""Command line front end.

Subcommands:

  tables   reproduce the two skew-PDS parameter tables, certifying rows
  scan     sweep recipes over a range of prime powers into a JSON-lines catalog
  verify   classify sets given as inline JSON or @FILE; --mode is a mode of
           diffsets.certify (pds, skew, ads: one set; internal, external)
  cycnum   print/compare cyclotomic number tables
  catalog  re-verify a previously written catalog: each oracle-verified
           entry's certificate must be over its field, hold its family,
           recompute from its sets and match its prediction; the other
           entries are counted as skipped.  Each line is parsed and
           checked as it is read, and --limit N reads only N entries

Exit code 0 means success everywhere; verification failures and row
mismatches exit 1, and bad input exits 2 with a typed error.  scan writes
each entry as soon as its field is done; with --out the catalog appears
only when the whole scan succeeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from itertools import islice

import numpy as np

from . import __version__
from .constructions import (
    Construction,
    apply as apply_recipe,
    get_recipe,
    iter_applicable,
    recheck,
    registry,
)
from .cyclotomy import bruteforce_table, closed_form_table
from .diffsets import SET_MODES, certify
from .errors import BoundTooLarge, CycloskewError, ParseError
from .field import build_field
from .numtheory import is_prime_power, prime_power_decompose, two_squares_rep

MAX_TABLE_BOUND = 10**8
MAX_CYCNUM_ORDER = 1024  # an e x e table of int64 counts


# ---- tables ----


def table1_rows(bound: int) -> list[dict]:
    """Paley skew PDS rows: q = s^2 + 4 prime powers, q = 5 (mod 8)."""
    rows = []
    s = 3
    while s * s + 4 <= bound:
        q = s * s + 4
        if is_prime_power(q):
            signed = s if s % 4 == 1 else -s
            rows.append(
                {
                    "q": q,
                    "rep": f"{signed if signed > 0 else f'({signed})'}²+(±2)²",
                    "params": (q, (q - 1) // 2, (q - 5) // 4, (q - 1) // 4),
                    "recipe": "R1",
                }
            )
        s += 2
    return rows


def table2_rows(bound: int) -> list[dict]:
    """Skew Paley rows q = l^2 with l = d^2 + 2 a prime power, d odd: then
    d^2 = 1 (mod 8), so every such l is 3 (mod 8)."""
    rows = []
    d = 1
    while (d * d + 2) ** 2 <= bound:
        ell = d * d + 2
        if is_prime_power(ell):
            q = ell * ell
            rows.append(
                {
                    "q": q,
                    "rep": f"{ell}={d}²+2",
                    "params": (q, (q - 1) // 2, (q - 5) // 4, (q - 1) // 4),
                    "recipe": "R10",
                }
            )
        d += 2
    return rows


def _certify_row(row: dict) -> str:
    p, m = prime_power_decompose(row["q"])
    field = build_field(p, m)
    recipe = get_recipe(row["recipe"])
    cons = apply_recipe(recipe, field)
    main_plan = next(c for c in cons if c.plan.label == "D")
    got = main_plan.certificate.params
    want = row["params"]
    if (got["v"], got["k"], got["lambda"], got["mu"]) != want:
        return f"MISMATCH:{got}"
    return "certified"


def cmd_tables(args) -> int:
    if args.bound > MAX_TABLE_BOUND:
        raise BoundTooLarge(f"bound {args.bound} exceeds {MAX_TABLE_BOUND}")
    rows = table1_rows(args.bound) if args.table == 1 else table2_rows(args.bound)
    to_certify = [r for r in rows if r["q"] <= args.certify_cap]
    statuses = {row["q"]: _certify_row(row) for row in to_certify}
    bad = 0
    for row in rows:
        status = statuses.get(row["q"], "not-oracle-verified")
        if status.startswith("MISMATCH"):
            bad += 1
        params = "(" + ",".join(str(v) for v in row["params"]) + ")"
        print(f"{row['q']}\t{row['rep']}\t{params}\t{status}")
    print(f"# table {args.table}: {len(rows)} rows, {len(to_certify)} certified, {bad} mismatches", file=sys.stderr)
    return 1 if bad else 0


# ---- scan ----


def construction_entry(con: Construction) -> dict:
    entry = con.to_json()
    entry["version"] = __version__
    entry["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return entry


# stands in for an array an entry holds twice, so json.dumps encodes it once
SPLICE_MARK = "cycloskew-spliced"


def entry_line(con: Construction) -> str:
    """The catalog line of con: the bytes json.dumps(construction_entry(con))
    writes.  A certificate that repeats its plan's family as sets, or its
    reference as reference_set, gets SPLICE_MARK in both places, and each
    '"<key>": "<SPLICE_MARK>"' is replaced by the key and the array's text,
    encoded once.  json.dumps escapes every '"' inside a string, so that text
    is found only where the key holds the mark.  Entries hold lists of int
    codes, so lists that compare equal encode to the same text."""
    entry = construction_entry(con)
    cert = entry["certificate"]
    spliced = {}  # key -> text of the array it holds
    for key, cert_key in () if cert is None else (("family", "sets"), ("reference", "reference_set")):
        value = entry[key]
        if value is not None and value == cert[cert_key]:
            spliced[key] = spliced[cert_key] = json.dumps(value)
            entry[key] = cert[cert_key] = SPLICE_MARK
    text = json.dumps(entry)
    for key, array in spliced.items():
        text = text.replace(f'"{key}": "{SPLICE_MARK}"', f'"{key}": {array}', 1)
    return text


def cmd_scan(args) -> int:
    recipe_ids = None if args.recipes == "all" else args.recipes.split(",")
    cons = iter_applicable(args.q_min, args.q_max, recipe_ids, certify_cap=args.certify_cap)
    if not args.out:
        for con in cons:
            print(entry_line(con))
        return 0
    tmp, count = args.out + ".tmp", 0
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            for con in cons:
                fh.write(entry_line(con) + "\n")
                count += 1
        os.replace(tmp, args.out)
    except OSError as exc:
        raise ParseError(f"cannot write catalog {args.out}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    print(f"# wrote {count} entries to {args.out}", file=sys.stderr)
    return 0


# ---- verify ----


def _load_sets(arg: str) -> list[list[int]]:
    try:
        if arg.startswith("@"):
            with open(arg[1:], "r", encoding="utf-8") as fh:
                data = json.load(fh)
        else:
            data = json.loads(arg)
    except (ValueError, OSError) as exc:
        raise ParseError(f"cannot parse sets: {exc}") from exc
    if not isinstance(data, list) or not data or not all(isinstance(s, list) for s in data):
        raise ParseError("sets must be a non-empty JSON array of arrays of element codes")
    return data


def _field_from_args(args):
    poly = None
    if args.poly:
        try:
            poly = [int(c) for c in args.poly.split(",")]
        except ValueError as exc:
            raise ParseError(f"bad polynomial coefficients: {args.poly}") from exc
    return build_field(args.p, args.m, poly=poly, generator=args.gen)


def cmd_verify(args) -> int:
    field = _field_from_args(args)
    sets = _load_sets(args.sets)
    if args.mode in SET_MODES and args.reference is not None:
        raise ParseError(f"mode {args.mode} takes no --reference")
    reference = None
    if args.reference is not None:
        try:
            data = json.loads(args.reference)
        except json.JSONDecodeError as exc:
            raise ParseError(f"cannot parse reference: {exc}") from exc
        if not isinstance(data, list):
            raise ParseError("reference must be a JSON array of element codes")
        if data and isinstance(data[0], list) and len(data) > 1:
            raise ParseError(f"a wrapped reference holds one set, not {len(data)}")
        reference = data[0] if data and isinstance(data[0], list) else data
    cert = certify(field, args.mode, sets, reference)
    print(json.dumps(cert.to_json(), indent=2))
    return 0 if cert.ok else 1


# ---- cycnum ----


def cmd_cycnum(args) -> int:
    if args.e > MAX_CYCNUM_ORDER:
        raise BoundTooLarge(f"order e = {args.e} exceeds {MAX_CYCNUM_ORDER}")
    field = _field_from_args(args)
    tables = {}  # building a table checks that e divides q - 1
    if args.variant in ("brute-force", "compare"):
        tables["brute-force"] = bruteforce_table(field, args.e)
    if args.variant in ("closed-form", "compare"):
        tables["closed-form"] = closed_form_table(field, args.e)
    header = {"q": field.q, "p": field.p, "m": field.m, "e": args.e, "f": (field.q - 1) // args.e}
    if field.q % 4 == 1:
        s, t = two_squares_rep(field)
        header.update({"s": s, "t": t})
    if "closed-form" in tables:
        cf = tables["closed-form"]
        header.update({k: v for k, v in cf.reps.items()})
        if args.e == 8:
            header.update({"resolved_y": cf.reps["y"], "resolved_b": cf.reps["b"]})
    print(" ".join(f"{k}={v}" for k, v in header.items()))
    show = tables.get("closed-form", tables.get("brute-force"))
    for row in show.counts:
        print(" ".join(map(str, row)))
    if args.variant == "compare":
        same = np.array_equal(tables["brute-force"].counts, tables["closed-form"].counts)
        print("MATCH" if same else "MISMATCH")
        return 0 if same else 1
    return 0


# ---- catalog ----


def _no_float(literal: str):
    """Rejects a non-integer number: every number in a catalog entry is an
    integer."""
    raise ValueError(f"{literal} is not an integer")


def _catalog_entries(path: str, limit: int):
    """The catalog's entries as JSON values, each line read and parsed in
    turn; only the first limit entries when limit is not 0."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in islice((line for line in fh if line.strip()), limit or None):
                yield json.loads(line, parse_float=_no_float, parse_constant=_no_float)
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read catalog {path}: {exc}") from exc


def cmd_catalog(args) -> int:
    if args.limit < 0:
        raise ParseError(f"--limit is {args.limit}, not a count of entries")
    verified = skipped = bad = 0
    field = None
    for entry in _catalog_entries(args.file, args.limit):
        try:
            con = Construction.from_json(entry)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ParseError(f"catalog {args.file} holds a line that is not an entry: {exc!r}") from exc
        if not con.oracle_verified:
            skipped += 1
            continue
        verified += 1
        # scan writes the entries of a field together, so each field is built once
        fs = con.field
        if con.certificate is not None and (field is None or field.spec != fs):
            field = build_field(fs.p, fs.m, poly=fs.poly, generator=fs.generator)
        problems = recheck(con, field)
        if problems:
            bad += 1
            print(f"FAIL q={con.field.q} {con.recipe_id}[{con.plan.label}]: {'; '.join(problems)}")
    print(f"# re-verified {verified} certificates, {bad} failures, {skipped} skipped as not oracle-verified",
          file=sys.stderr)
    return 1 if bad else 0


# ---- registry dump ----


def cmd_recipes(args) -> int:
    for recipe in registry():
        print(json.dumps(recipe.describe()))
    return 0


def _add_field_args(sub):
    sub.add_argument("--p", type=int, required=True, help="field characteristic")
    sub.add_argument("--m", type=int, default=1, help="extension degree")
    sub.add_argument("--poly", help="defining polynomial coefficients c0,c1,...,cm")
    sub.add_argument("--gen", type=int, help="generator element code")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and shared after.
    It holds no command function: main looks up cmd_<command> at each call."""
    parser = argparse.ArgumentParser(prog="cycloskew")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    t = subs.add_parser("tables", help="reproduce the skew-PDS parameter tables")
    t.add_argument("table", type=int, choices=(1, 2))
    t.add_argument("bound", type=int)
    t.add_argument("--certify-cap", type=int, default=10**5)

    s = subs.add_parser("scan", help="sweep recipes over a prime power range")
    s.add_argument("q_min", type=int)
    s.add_argument("q_max", type=int)
    s.add_argument("--recipes", default="all", help="comma separated recipe ids, or 'all'")
    s.add_argument("--certify-cap", type=int, default=5000)
    s.add_argument("--out", help="output catalog path (JSON lines); stdout if omitted")

    v = subs.add_parser("verify", help="classify explicit sets")
    _add_field_args(v)
    v.add_argument("--sets", required=True, help="JSON array of arrays, inline or @FILE")
    v.add_argument("--mode", required=True)
    v.add_argument("--reference", help="reference set as a JSON array (wrapped or not)")

    c = subs.add_parser("cycnum", help="cyclotomic number tables")
    _add_field_args(c)
    c.add_argument("--e", type=int, required=True)
    group = c.add_mutually_exclusive_group()
    group.add_argument("--closed-form", dest="variant", action="store_const", const="closed-form")
    group.add_argument("--brute-force", dest="variant", action="store_const", const="brute-force")
    group.add_argument("--compare", dest="variant", action="store_const", const="compare")
    c.set_defaults(variant="compare")

    k = subs.add_parser("catalog", help="re-verify a catalog file")
    k.add_argument("file")
    k.add_argument("--limit", type=int, default=0, help="spot-check only the first N entries")

    subs.add_parser("recipes", help="dump the recipe registry")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except CycloskewError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
