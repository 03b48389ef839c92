#!/usr/bin/env python3
"""Reproduce both skew-PDS parameter tables with oracle certification.

Usage:
    python scripts/reproduce_tables.py [--certify-cap N]

Table 1 rows (q < 10^4) are all certified; Table 2 rows (q < 10^8) are
certified up to the cap (default 10^5, which covers q = 51529 in well
under a second) and labeled not-oracle-verified beyond it.
"""

import argparse
import sys
import time

from cycloskew.cli import main as cli_main


def run() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--certify-cap", type=int, default=10**5)
    args = ap.parse_args()

    rc = 0
    for table, bound in ((1, 10**4), (2, 10**8)):
        t0 = time.time()
        print(f"== table {table} (bound {bound}) ==")
        rc |= cli_main(
            ["tables", str(table), str(bound), "--certify-cap", str(args.certify_cap)]
        )
        print(f"== table {table} done in {time.time() - t0:.1f}s ==\n")
    return rc


if __name__ == "__main__":
    sys.exit(run())
