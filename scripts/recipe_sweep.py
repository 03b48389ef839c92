#!/usr/bin/env python3
"""Certify every applicable recipe over a prime power range and summarize.

Usage:
    python scripts/recipe_sweep.py [q_max]

Every construction is checked against the difference multiset oracle;
the exit code is nonzero if any prediction disagrees.  To write the
constructions as a catalog, run `cycloskew scan 2 <q_max> --certify-cap
<q_max> --out catalog.jsonl`, which writes it atomically.
"""

import argparse
import collections
import sys
import time

from cycloskew import enumerate_applicable


def run() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("q_max", type=int, nargs="?", default=5000)
    args = ap.parse_args()

    t0 = time.time()
    cons = enumerate_applicable(2, args.q_max, certify_cap=args.q_max)
    dt = time.time() - t0

    per_recipe = collections.Counter(c.recipe_id for c in cons)
    per_kind = collections.Counter(c.certificate.kind for c in cons if c.certificate)
    print(f"{len(cons)} constructions over q <= {args.q_max} in {dt:.1f}s")
    for rid in sorted(per_recipe, key=lambda r: int(r[1:])):
        qs = sorted({c.field.q for c in cons if c.recipe_id == rid})
        head = ", ".join(str(q) for q in qs[:8]) + (", ..." if len(qs) > 8 else "")
        print(f"  {rid:4} {per_recipe[rid]:4d} constructions at q in [{head}]")
    print("certificate kinds:", dict(sorted(per_kind.items())))
    return 0


if __name__ == "__main__":
    sys.exit(run())
