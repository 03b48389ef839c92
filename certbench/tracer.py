"""Span tracer for the traced benchmark run.

The tracer wraps a fixed list of public functions of the library (the
layer boundaries below) and records one span per call: name, start, end,
parent span and the id of the benchmark op that caused it.  Every module
of the package that holds a reference to a wrapped function gets the
wrapper, so calls through names imported elsewhere (``cli`` and
``constructions`` import ``build_field`` by name, ``cli`` imports
``apply`` as ``apply_recipe``) are seen too.

Helpers such as ``as_element_set`` or ``diff_counts`` are deliberately not
boundaries: their time belongs to the boundary that calls them, so a
later change that adds or renames a helper does not move time between
the per-layer metrics.

The run is one client thread.  ``cmd_tables`` certifies rows on a
one-worker thread pool while the main thread only waits, so a single
span stack shared by both threads still nests every span under its real
cause.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

LAYERS = ("field", "numtheory", "cyclotomy", "diffsets", "constructions", "cli")

BOUNDARIES = {
    "field": ["build_field", "default_poly"],
    "numtheory": [
        "prime_power_decompose",
        "is_prime_power",
        "two_squares_rep",
        "x2_4y2_rep",
        "a2_2b2_rep",
        "is_quartic_residue",
        "two_is_quartic_residue",
    ],
    "cyclotomy": [
        "classes",
        "bruteforce_table",
        "cyclotomic_number_bruteforce",
        "cyclotomic_numbers_order4",
        "cyclotomic_numbers_order8",
        "closed_form_table",
        "delta_via_cycnums",
        "classwise_profile",
    ],
    "diffsets": [
        "internal_differences",
        "cross_differences",
        "family_internal",
        "family_external",
        "check_pds",
        "check_skew_pds",
        "check_family",
        "check_ads",
        "verify_certificate",
    ],
    "constructions": [
        "field_facts",
        "Recipe.applicable",
        "Recipe.plans",
        "apply",
        "certify_plan",
        "enumerate_applicable",
        "swap_combinator",
        "skew_from_families",
    ],
    "cli": [
        "main",
        "build_parser",
        "cmd_tables",
        "cmd_scan",
        "cmd_verify",
        "cmd_cycnum",
        "cmd_catalog",
        "cmd_recipes",
        "table1_rows",
        "table2_rows",
        "construction_entry",
    ],
}

KERNELS = ("internal_differences", "cross_differences", "family_internal", "family_external")
CHECKS = ("check_pds", "check_skew_pds", "check_family", "check_ads")
REPS = ("two_squares_rep", "x2_4y2_rep", "a2_2b2_rep")


def _pairs(name: str, args) -> int:
    """Ordered pairs x != y whose difference the kernel counts, from the
    input sizes alone."""
    if name == "internal_differences":
        n = len(args[1])
        return n * (n - 1)
    if name == "cross_differences":
        return len(args[1]) * len(args[2])
    sizes = [len(s) for s in args[1]]
    if name == "family_internal":
        return sum(n * (n - 1) for n in sizes)
    total = sum(sizes)
    return total * total - sum(n * n for n in sizes)


def _field_order(name: str, args, kwargs) -> int | None:
    """The order q of the field a call works in, when its arguments show
    it: a field, or an object with a field (a class partition), among the
    first two arguments (methods take the field second)."""
    if name in ("build_field", "default_poly"):
        p = args[0] if args else kwargs["p"]
        m = args[1] if len(args) > 1 else kwargs.get("m", 1)
        return p**m
    for arg in args[:2]:
        q = getattr(getattr(arg, "field", arg), "q", None)
        if isinstance(q, int):
            return q
    return None


class Tracer:
    """Records spans in memory while installed; ``layer_metrics`` turns
    them into per-layer self times and counters."""

    def __init__(self):
        # span: [name, start, end, parent index, op id, time covered by children, field order q]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op_id = 0
        self.pairs = 0
        self.table_bytes = 0
        self.field_qs: set[int] = set()
        self.check_none = 0

    # ---- spans ----

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself: one op, with a new op id."""
        self.op_id += 1
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name: str, q: int | None = None) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.op_id, 0.0, q]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()
        if rec[3] >= 0:
            self.spans[rec[3]][5] += rec[2] - rec[1]

    def _wrap(self, layer: str, name: str, fn):
        span_name = f"{layer}.{name.split('.')[-1]}"
        short = name.split(".")[-1]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if short in KERNELS:
                tracer.pairs += _pairs(short, args)
            rec = tracer._open(span_name, _field_order(short, args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if short == "build_field":
                tracer.table_bytes += result.exp.nbytes + result.log.nbytes
                tracer.field_qs.add(result.q)
            elif short in CHECKS and result.kind == "None":
                tracer.check_none += 1
            return result

        return wrapper

    # ---- installation ----

    def install(self) -> None:
        """Wrap every boundary that exists in the loaded package, at every
        module attribute that refers to it."""
        package = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "cycloskew" or key.startswith("cycloskew."))
        ]
        for layer in LAYERS:
            mod = sys.modules[f"cycloskew.{layer}"]
            for name in BOUNDARIES[layer]:
                owner, attr = mod, name
                if "." in name:
                    cls_name, attr = name.split(".")
                    owner = getattr(mod, cls_name, None)
                orig = getattr(owner, attr, None) if owner is not None else None
                if orig is None:
                    continue
                wrapped = self._wrap(layer, name, orig)
                if owner is not mod:
                    self._patch(owner, attr, wrapped)
                    continue
                for other in package:
                    for key, value in list(vars(other).items()):
                        if value is orig:
                            self._patch(other, key, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # ---- aggregation ----

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer self times and counters over every recorded span."""
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, start, end, _parent, _op, child, _q in self.spans:
            self_s[name] += (end - start) - child
            calls[name] += 1

        def total(layer: str, names) -> float:
            return sum(self_s[f"{layer}.{n}"] for n in names)

        kernel_s = total("diffsets", KERNELS)
        kernel_calls = sum(calls[f"diffsets.{n}"] for n in KERNELS)
        check_calls = sum(calls[f"diffsets.{n}"] for n in CHECKS)
        builds = calls["field.build_field"]
        out = {
            "field.build_field.calls": builds,
            "field.build_field.self_s": self_s["field.build_field"],
            "field.default_poly.self_s": self_s["field.default_poly"],
            "field.table_bytes": self.table_bytes,
            "numtheory.reps.self_s": total("numtheory", REPS),
            "cyclotomy.classes.self_s": self_s["cyclotomy.classes"],
            "cyclotomy.order8.self_s": self_s["cyclotomy.cyclotomic_numbers_order8"],
            "diffsets.kernel.calls": kernel_calls,
            "diffsets.kernel.self_s": kernel_s,
            "diffsets.kernel.pairs": self.pairs,
            "diffsets.kernel.pairs_per_s": self.pairs / kernel_s if kernel_s > 0 else 0.0,
            "diffsets.kernel_calls_per_check": kernel_calls / check_calls if check_calls else 0.0,
            "diffsets.family_external.self_s": self_s["diffsets.family_external"],
            "diffsets.check.calls": check_calls,
            "diffsets.check.self_s": total("diffsets", CHECKS),
            "diffsets.check.none_frac": self.check_none / check_calls if check_calls else 0.0,
            "constructions.field_facts.self_s": self_s["constructions.field_facts"],
            "constructions.plans.self_s": self_s["constructions.plans"],
            "constructions.apply.self_s": self_s["constructions.apply"],
            "constructions.builds_per_q": builds / len(self.field_qs) if self.field_qs else 0.0,
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum((v for k, v in self_s.items() if k.startswith(layer + ".")), 0.0)
        out["trace.wall_s"] = wall_s
        return out

    def top_spans(self, count: int) -> list[list]:
        """[name, q, calls, self_s, inclusive_s] per (boundary, field order),
        largest inclusive time first."""
        rows: dict[tuple, list] = {}
        for name, start, end, _parent, _op, child, q in self.spans:
            row = rows.setdefault((name, q), [name, q, 0, 0.0, 0.0])
            row[2] += 1
            row[3] += (end - start) - child
            row[4] += end - start
        return sorted(rows.values(), key=lambda r: -r[4])[:count]
