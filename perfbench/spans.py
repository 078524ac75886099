"""Span tracing of the library's layers, installed from outside the library.

twistlab carries no instrumentation of its own, so the traced run wraps the
layer functions listed in ``WRAPPED``.  Callers look a name up in their own
module's globals (``from .gf import mm`` gives ``twistlab.specht`` its own
binding), so every binding of a wrapped function in any twistlab module is
replaced, and methods are replaced on their class.  Each call records a span
``[name, start, end, parent]``; counters derived from arguments and results
are kept per span name.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict


def _symbol_counts(args, result, counters):
    columns = result.columns
    runs = sum(1 for i, col in enumerate(columns) if i == 0 or col != columns[i - 1])
    counters["mullineux.symbol_columns"] += len(columns)
    counters["mullineux.symbol_runs"] += runs


def _scan_counts(args, result, counters):
    counters["search.scanned"] += result.scanned
    counters["search.hits"] += len(result.hits)


def _hom_counts(args, result, counters):
    # _spin_hom(p, gens_a, gens_b) builds an int8 stack of n_a * n_b * n_b bytes
    n_a = args[1][0].shape[0]
    n_b = args[2][0].shape[0]
    stack_mb = n_a * n_b * n_b / 1e6
    counters["specht.spin_stack_mb"] = max(counters["specht.spin_stack_mb"], stack_mb)


def _mm_counts(args, result, counters):
    import numpy as np

    a, b = np.asarray(args[0]), np.asarray(args[1])
    counters["gf.mm_flops"] += 2 * a.shape[0] * a.shape[1] * b.shape[1]
    counters["gf.mm_in_bytes"] += a.nbytes + b.nbytes


def _echelon_counts(args, result, counters):
    # Echelon.add(self, batch) returns how many rows were independent
    counters["gf.echelon_rows_in"] += args[1].shape[0]
    counters["gf.echelon_rows_kept"] += result


def _enumerated(args, result, counters):
    counters["partitions.enumerated"] += 1


SCANS = (
    "find_twist_commuting",
    "check_twist_persistence",
    "find_p_image",
    "ks_stability_scan",
    "census",
)

# (module, attribute or Class.method, span name, counter hook, workloads meant to call it)
WRAPPED = (
    ("twistlab.partitions", "enumerate_partitions", "partitions.enumerate", _enumerated,
     ("sweep",)),
    ("twistlab.abacus", "p_core", "abacus.p_core", None, ("sweep",)),
    ("twistlab.mullineux", "mullineux_map", "mullineux.map", None, ("sweep", "deep")),
    ("twistlab.mullineux", "mullineux_symbol", "mullineux.symbol", _symbol_counts,
     ("sweep", "deep")),
    ("twistlab.mullineux", "transform_symbol", "mullineux.transform", None,
     ("sweep", "deep")),
    ("twistlab.mullineux", "reconstruct_from_symbol", "mullineux.reconstruct", None,
     ("sweep", "deep")),
    ("twistlab.criteria", "ks_ext1", "criteria.ks_ext1", None, ("sweep",)),
    *(("twistlab.search", scan, "search.scan", _scan_counts, ("sweep",)) for scan in SCANS),
    ("twistlab.specht", "build_specht", "specht.build", None, ("sweep", "deep")),
    ("twistlab.specht", "SpechtModule.invariants_dim", "specht.invariants", None, ("sweep",)),
    ("twistlab.specht", "h0_dim", "specht.h0", None, ("sweep",)),
    ("twistlab.specht", "SpechtModule.generators", "specht.generators", None,
     ("sweep", "deep")),
    ("twistlab.specht", "_spin_hom", "specht.hom", _hom_counts, ("deep",)),
    ("twistlab.specht", "is_decomposable", "specht.decomposable", None, ("deep",)),
    ("twistlab.gf", "mm", "gf.mm", _mm_counts, ("sweep", "deep")),
    ("twistlab.gf", "rref", "gf.rref", None, ("sweep", "deep")),
    ("twistlab.gf", "nullspace", "gf.nullspace", None, ("sweep", "deep")),
    ("twistlab.gf", "Echelon.add", "gf.echelon_add", _echelon_counts, ("sweep", "deep")),
    ("twistlab.cli", "main", "cli.main", None, ("sweep",)),
)


class Tracer:
    """Records a span for every call of a wrapped function while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, span, hook, _ in WRAPPED:
            owner = sys.modules[module_name]
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                self._replace(cls, method, self._wrap(cls.__dict__[method], span, hook))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, span, hook)
            for name, module in list(sys.modules.items()):
                if name != "twistlab" and not name.startswith("twistlab."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def _replace(self, owner, key: str, wrapper) -> None:
        self._saved.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def _wrap(self, fn, name: str, hook):
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter

        if inspect.isgeneratorfunction(fn):
            # a generator does its work lazily: one span per resumption

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    idx = len(spans)
                    spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
                    stack.append(idx)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        spans[idx][2] = clock()
                    if hook is not None:
                        hook(args, item, counters)
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if hook is not None:
                hook(args, result, counters)
            return result

        return traced

    def summary(self) -> dict:
        """Calls and self time per span name, and the time covered by top-level spans."""
        inner = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                inner[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        covered = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - inner[i]
            if parent < 0:
                covered += end - start
        return {"calls": calls, "self_s": self_s, "covered_s": covered}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (metric, unit, value from (summary, counters, extra)); extra carries the
# skeleton-cache misses and the traced and untraced walls
PER_LAYER = (
    ("partitions.enumerated", "count", lambda s, c, x: c["partitions.enumerated"]),
    ("partitions.enumerate_s", "s", lambda s, c, x: s["self_s"]["partitions.enumerate"]),
    ("abacus.p_core_calls", "count", lambda s, c, x: s["calls"]["abacus.p_core"]),
    ("abacus.p_core_s", "s", lambda s, c, x: s["self_s"]["abacus.p_core"]),
    ("mullineux.map_calls", "count", lambda s, c, x: s["calls"]["mullineux.map"]),
    ("mullineux.map_s", "s", lambda s, c, x: s["self_s"]["mullineux.map"]),
    ("mullineux.symbol_calls", "count", lambda s, c, x: s["calls"]["mullineux.symbol"]),
    ("mullineux.symbol_s", "s", lambda s, c, x: s["self_s"]["mullineux.symbol"]),
    ("mullineux.symbol_columns", "count", lambda s, c, x: c["mullineux.symbol_columns"]),
    ("mullineux.symbol_runs", "count", lambda s, c, x: c["mullineux.symbol_runs"]),
    ("mullineux.transform_s", "s", lambda s, c, x: s["self_s"]["mullineux.transform"]),
    ("mullineux.reconstruct_s", "s", lambda s, c, x: s["self_s"]["mullineux.reconstruct"]),
    ("criteria.ks_ext1_calls", "count", lambda s, c, x: s["calls"]["criteria.ks_ext1"]),
    ("criteria.ks_ext1_s", "s", lambda s, c, x: s["self_s"]["criteria.ks_ext1"]),
    ("search.scan_calls", "count", lambda s, c, x: s["calls"]["search.scan"]),
    ("search.scan_s", "s", lambda s, c, x: s["self_s"]["search.scan"]),
    ("search.scanned", "count", lambda s, c, x: c["search.scanned"]),
    ("search.hits", "count", lambda s, c, x: c["search.hits"]),
    ("specht.build_calls", "count", lambda s, c, x: s["calls"]["specht.build"]),
    ("specht.build_s", "s", lambda s, c, x: s["self_s"]["specht.build"]),
    ("specht.skeleton_misses", "count", lambda s, c, x: x["skeleton_misses"]),
    ("specht.invariants_calls", "count", lambda s, c, x: s["calls"]["specht.invariants"]),
    ("specht.invariants_s", "s", lambda s, c, x: s["self_s"]["specht.invariants"]),
    ("specht.h0_s", "s", lambda s, c, x: s["self_s"]["specht.h0"]),
    ("specht.generators_s", "s", lambda s, c, x: s["self_s"]["specht.generators"]),
    ("specht.hom_calls", "count", lambda s, c, x: s["calls"]["specht.hom"]),
    ("specht.hom_s", "s", lambda s, c, x: s["self_s"]["specht.hom"]),
    ("specht.decomposable_s", "s", lambda s, c, x: s["self_s"]["specht.decomposable"]),
    ("specht.spin_stack_mb", "MB", lambda s, c, x: c["specht.spin_stack_mb"]),
    ("gf.mm_calls", "count", lambda s, c, x: s["calls"]["gf.mm"]),
    ("gf.mm_s", "s", lambda s, c, x: s["self_s"]["gf.mm"]),
    ("gf.mm_flops", "flop", lambda s, c, x: c["gf.mm_flops"]),
    ("gf.mm_in_bytes", "B", lambda s, c, x: c["gf.mm_in_bytes"]),
    ("gf.rref_calls", "count", lambda s, c, x: s["calls"]["gf.rref"]),
    ("gf.rref_s", "s", lambda s, c, x: s["self_s"]["gf.rref"]),
    ("gf.nullspace_s", "s", lambda s, c, x: s["self_s"]["gf.nullspace"]),
    ("gf.echelon_add_calls", "count", lambda s, c, x: s["calls"]["gf.echelon_add"]),
    ("gf.echelon_add_s", "s", lambda s, c, x: s["self_s"]["gf.echelon_add"]),
    ("gf.echelon_rows_in", "count", lambda s, c, x: c["gf.echelon_rows_in"]),
    ("gf.echelon_rows_kept", "count", lambda s, c, x: c["gf.echelon_rows_kept"]),
    (
        "gf.echelon_yield",
        "ratio",
        lambda s, c, x: _ratio(c["gf.echelon_rows_kept"], c["gf.echelon_rows_in"]),
    ),
    ("cli.main_calls", "count", lambda s, c, x: s["calls"]["cli.main"]),
    ("cli.main_s", "s", lambda s, c, x: s["self_s"]["cli.main"]),
    ("trace.overhead_s", "s", lambda s, c, x: x["traced_wall_s"] - x["untraced_wall_s"]),
    ("trace.unattributed_s", "s", lambda s, c, x: x["traced_wall_s"] - s["covered_s"]),
)

# counters that must repeat exactly between two traced runs of one seed
EXACT = (
    "mullineux.symbol_columns",
    "mullineux.symbol_runs",
    "gf.mm_calls",
    "gf.mm_flops",
    "gf.echelon_rows_in",
    "gf.echelon_rows_kept",
    "specht.skeleton_misses",
)
