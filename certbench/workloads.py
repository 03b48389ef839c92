"""The four benchmark workloads.

Each workload turns (size, seed) into a list of ops.  Building that list
is the workload's input generation and does no library work.  An op is
one call the client makes and times; after the batch, ``outputs`` turns
the op's result into named canonical texts whose digests are compared
with the ones recorded from the seed code in ``golden.json``.

* ``table2``: ``tables 2 10^8 --certify-cap 10^5``; one op, 12 rows
  checked (5 oracle-certified, 7 labelled ``not-oracle-verified``).
  Kernel-bound: nearly all the time is ``check_skew_pds`` at q = 51529.
* ``sweep``: ``scan lo hi --certify-cap 2500 --out FILE`` over windows of
  three consecutive prime powers up to 2500; the shards concatenate to
  the catalog of ``scan 2 2500``.  Dominated by per-set overhead on tiny
  families.
* ``verify-random``: the fields are built, then seeded random sets and
  disjoint families go through ``check_pds``, ``check_skew_pds``,
  ``check_ads`` and ``check_family``; no recipe structure to exploit.
  Each check's outputs also hold its input's difference profile, counted
  again after the batch, so a miscount fails even when the answer is
  kind None.
* ``fields``: default ``build_field``, then ``field_facts`` and
  ``classes`` for e in {2, 4, 8}, at GF(3^10) (polynomial search) and
  GF(1091^2) (table building); two ops per field.  Run by hand: it is
  not in BENCHMARK.json (README.md says why).

A workload is the function of this module named after it, with ``-``
as ``_``; ``run.WORKLOAD_NAMES`` lists them.

Only ``verify-random`` depends on the seed.  Its layout (fields, checks
and sizes) is fixed, so every seed costs the same; the seed picks, per
slot, one of ``VARIANTS`` element draws, each recorded in the golden
file from the seed code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# library functions are looked up at call time, so the traced run sees them
import cycloskew as cs
import cycloskew.cli

VARIANTS = 16


@dataclass
class Op:
    key: str
    call: Callable[[dict], object]  # timed; the dict is shared by one batch's ops
    outputs: Callable[[object], dict[str, str]]  # untimed; output name -> canonical text


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cs.cli.main(argv)
    return code, out.getvalue()


def _exit(code: int) -> dict[str, str]:
    # a nonzero exit is an output the golden never has, so it counts as failed
    return {} if code == 0 else {"exit": str(code)}


def field_text(field) -> str:
    exp = np.asarray(field.exp, dtype=np.int64)
    return json.dumps(
        {
            "poly": [int(c) for c in field.spec.poly],
            "generator": int(field.generator),
            "exp_sha256": hashlib.sha256(exp.tobytes()).hexdigest(),
        },
        sort_keys=True,
    )


def interleaved(ops: list[Op]) -> list[Op]:
    """The ops in a fixed shuffled order.  Ops of similar cost then sit
    apart in time, so a latency percentile does not hang on one stretch
    of a run; the order is the same for every seed."""
    ops = list(ops)
    random.Random("order").shuffle(ops)
    return ops


def counts_text(counts) -> str:
    return hashlib.sha256(np.asarray(counts, dtype=np.int64).tobytes()).hexdigest()


def classes_text(parts) -> str:
    members = np.concatenate([np.asarray(c, dtype=np.int64) for part in parts for c in part.members])
    return json.dumps({"e": [part.e for part in parts], "members_sha256": hashlib.sha256(members.tobytes()).hexdigest()})


# ---- table2 ----


def table2(size: str, variant_of, workdir: Path) -> list[Op]:
    bound, cap = (10**8, 10**5) if size == "full" else (10**4, 10**3)
    argv = ["tables", "2", str(bound), "--certify-cap", str(cap)]

    def outputs(result) -> dict[str, str]:
        code, text = result
        rows = {line.split("\t")[0]: line for line in text.splitlines()}
        return rows | _exit(code)

    return [Op("tables", lambda ctx: run_cli(argv), outputs)]


# ---- sweep ----


def prime_powers(hi: int) -> list[int]:
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(hi) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    out = set()
    for p in range(2, hi + 1):
        if sieve[p]:
            q = p
            while q <= hi:
                out.add(q)
                q *= p
    return sorted(out)


_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


SWEEP_WINDOW = 3  # prime powers per scan call


def sweep(size: str, variant_of, workdir: Path) -> list[Op]:
    """``scan lo hi`` over consecutive windows of SWEEP_WINDOW prime powers.
    About half of all prime powers have no applicable recipe and cost a
    tenth of the others; with one call per prime power the median op sat
    on the edge between the two groups and jumped between them."""
    q_max = 2500 if size == "full" else 200
    qs = prime_powers(q_max)
    ops = []
    for i in range(0, len(qs), SWEEP_WINDOW):
        lo, hi = qs[i], qs[min(i + SWEEP_WINDOW, len(qs)) - 1]
        path = workdir / f"scan-{lo}.jsonl"
        argv = ["scan", str(lo), str(hi), "--certify-cap", str(q_max), "--out", str(path)]

        def outputs(result, path=path) -> dict[str, str]:
            # the catalog minus only the timestamp, byte for byte
            text = _TIMESTAMP.sub('"timestamp": ""', path.read_text(encoding="utf-8"))
            return {"catalog": text} | _exit(result[0])

        ops.append(Op(f"{lo}-{hi}", lambda ctx, argv=argv: run_cli(argv), outputs))
    return interleaved(ops)


# ---- verify-random ----

# (p, m, light slots, light size range, light checks, heavy slots as (check, size)).
# The layout shapes the latency distribution so that both percentiles
# fall inside a dense cluster of similar ops, not at the edge between
# clusters: most light ops cost milliseconds of numpy work (the median),
# and GF(3^9)'s single-set checks, each paying the 6^9-bin folded count,
# form the cluster that holds the 90th percentile.  GF(97) and GF(2^7)
# keep |D| down to 10 covered.
ALL_CHECKS = ("pds", "skew", "ads", "internal", "external", "internal-ref", "external-ref")
SET_CHECKS = ("pds", "skew", "ads")
VERIFY_LAYOUT = {
    "full": [
        (20011, 1, 40, (400, 2500), ALL_CHECKS, [("pds", 10005), ("skew", 10005)]),
        (3, 9, 20, (10, 1000), SET_CHECKS, [("ads", 9841)]),
        (2, 14, 24, (150, 700), ALL_CHECKS, [("pds", 2000), ("skew", 2000), ("external", 1200)]),
        (101, 2, 30, (300, 1500), ALL_CHECKS, [("skew", 5100), ("pds", 5100)]),
        (97, 1, 8, (10, 48), ALL_CHECKS, []),
        (2, 7, 8, (10, 64), ALL_CHECKS, []),
    ],
    "tiny": [
        (97, 1, 8, (10, 48), ALL_CHECKS, [("pds", 48)]),
        (2, 7, 8, (10, 64), ALL_CHECKS, [("skew", 64)]),
        (3, 4, 8, (10, 40), ALL_CHECKS, []),
    ],
}


def verify_slots(size: str) -> list[tuple[str, int, int, str, int]]:
    """Fixed (slot, p, m, check, size) list; light sizes are log-uniform
    over the field's light size range."""
    slots = []
    for p, m, light, (lo, hi), kinds, heavy in VERIFY_LAYOUT[size]:
        layout = random.Random(f"layout {p}^{m}")
        checks = [(kinds[i % len(kinds)], round(math.exp(layout.uniform(math.log(lo), math.log(hi)))))
                  for i in range(light)]
        for i, (check, n) in enumerate(checks + heavy):
            slots.append((f"{p}^{m}/{i}", p, m, check, n))
    return slots


def _draw(slot: str, variant: int, q: int, check: str, n: int):
    """The random input of one slot variant: a set, or a disjoint family
    avoiding 0 and, for the -ref checks, a reference set avoiding 0."""
    rng = random.Random(f"{slot}:{variant}")
    if check in SET_CHECKS:
        return rng.sample(range(q), n)
    nsets = 2 + int(slot.rsplit("/", 1)[1]) % 5
    nsets = min(nsets, n)
    codes = rng.sample(range(1, q), n)
    cuts = [round(i * n / nsets) for i in range(nsets + 1)]
    family = [codes[cuts[i] : cuts[i + 1]] for i in range(nsets)]
    reference = rng.sample(range(1, q), n) if check.endswith("-ref") else None
    return family, reference


def _profiles(field, check: str, data) -> dict[str, str]:
    """The kernel counts behind one check, recomputed untimed: a kind-None
    certificate holds only the input, so these are what catch a miscount."""
    if check in SET_CHECKS:
        return {"profile": counts_text(cs.internal_differences(field, data))}
    family, reference = data
    kernel = cs.family_internal if check.startswith("internal") else cs.family_external
    out = {"profile": counts_text(kernel(field, family))}
    if reference is not None:
        union = [c for s in family for c in s]
        out["cross"] = counts_text(cs.cross_differences(field, union, reference))
    return out


def verify_random(size: str, variant_of, workdir: Path) -> list[Op]:
    ops = []
    for p, m, *_ in VERIFY_LAYOUT[size]:
        def build(ctx, p=p, m=m):
            ctx[(p, m)] = cs.build_field(p, m)
            return ctx[(p, m)]

        ops.append(Op(f"field {p}^{m}", build, lambda f: {"field": field_text(f)}))
    checks = []
    for slot, p, m, check, n in verify_slots(size):
        variant = variant_of(slot)
        data = _draw(slot, variant, p**m, check, n)
        # the timed call returns the field too, for the untimed profiles
        if check in SET_CHECKS:
            fn = {"pds": "check_pds", "skew": "check_skew_pds", "ads": "check_ads"}[check]
            call = lambda ctx, fn=fn, p=p, m=m, d=data: (ctx[(p, m)], getattr(cs, fn)(ctx[(p, m)], d))
        else:
            mode = check.split("-")[0]
            call = lambda ctx, p=p, m=m, d=data, mode=mode: (
                ctx[(p, m)], cs.check_family(ctx[(p, m)], d[0], mode, reference=d[1])
            )

        def outputs(result, check=check, data=data) -> dict[str, str]:
            field, cert = result
            return {"certificate": json.dumps(cert.to_json(), sort_keys=True)} | _profiles(field, check, data)

        checks.append(Op(f"{slot}:{variant}", call, outputs))
    return ops + interleaved(checks)


# ---- fields ----


def fields(size: str, variant_of, workdir: Path) -> list[Op]:
    specs = [(3, 10), (1091, 2)] if size == "full" else [(3, 5), (31, 2)]
    ops = []
    for p, m in specs:
        def build(ctx, p=p, m=m):
            ctx[(p, m)] = cs.build_field(p, m)
            return ctx[(p, m)]

        def partitions(ctx, p=p, m=m):
            f = ctx[(p, m)]
            cs.field_facts(f)
            return [cs.classes(f, e) for e in (2, 4, 8) if (f.q - 1) % e == 0]

        ops.append(Op(f"field {p}^{m}", build, lambda f: {"field": field_text(f)}))
        ops.append(Op(f"classes {p}^{m}", partitions, lambda parts: {"classes": classes_text(parts)}))
    return ops


def ops_for(name: str, size: str, variant_of, workdir: Path) -> list[Op]:
    return globals()[name.replace("-", "_")](size, variant_of, workdir)


def seeded_variants(seed: int) -> Callable[[str], int]:
    return lambda slot: random.Random(f"{seed}:{slot}").randrange(VARIANTS)
