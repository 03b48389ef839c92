"""Record golden.json: the digest of every output of every workload.

    python3 certbench/record_golden.py [--size full|tiny] [--workload NAME] [--out PATH]

Run once on the code whose outputs define "correct" (the goldens in the
repository come from the seed code).  For verify-random every one of the
VARIANTS element draws of every slot is recorded, so any seed is
checkable.  Refuses to record an op that raised or exited nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from run import GOLDEN, SRC, WORKLOAD_NAMES, _run_batch

sys.path.insert(0, str(SRC))

import workloads  # noqa: E402


def record(size: str, name: str) -> dict:
    variants = range(workloads.VARIANTS) if name == "verify-random" else [0]
    golden: dict[str, dict[str, str]] = {}
    scratch = SRC.parent / ".certbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for v in variants:
            ops = workloads.ops_for(name, size, lambda slot: v, Path(tmp))
            wall, _, results = _run_batch(ops)
            for op, result in zip(ops, results):
                if isinstance(result, Exception):
                    raise SystemExit(f"{name} {op.key}: {type(result).__name__}: {result}")
                outputs = op.outputs(result)
                if "exit" in outputs:
                    raise SystemExit(f"{name} {op.key}: exit code {outputs['exit']}")
                golden[op.key] = {k: workloads.digest(t) for k, t in outputs.items()}
            print(f"{size} {name} variant {v}: {len(ops)} ops, {wall:.1f}s", file=sys.stderr)
    return golden


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", choices=("full", "tiny"), action="append")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, action="append")
    parser.add_argument("--out", default=str(GOLDEN))
    args = parser.parse_args()
    out = Path(args.out)
    data = json.loads(out.read_text()) if out.exists() else {}
    for size in args.size or ("tiny", "full"):
        for name in args.workload or WORKLOAD_NAMES:
            data.setdefault(size, {})[name] = record(size, name)
    out.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
