"""Spans around unitlat's public functions, recorded from outside unitlat.

install() swaps each function listed in SPANS (and COUNTS) for a wrapper, in
every loaded unitlat module that holds a reference to it; uninstall() puts
the originals back. A span is [name, start_ns, end_ns, parent, op]: parent
is the index of the enclosing span (-1 for an operation's root span) and op
the operation id. Spans stay in memory until the run writes them out.

A layer's self time is its span's duration minus that of its direct
children; summed over all spans it equals the summed root spans exactly.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import Counter, defaultdict

ROOT = "op"


def _log2(x) -> float:
    """log2 of a positive Fraction or int, safe for huge numerators."""
    num, den = getattr(x, "numerator", x), getattr(x, "denominator", 1)
    return _log2_int(num) - _log2_int(den)


def _log2_int(n: int) -> float:
    shift = max(n.bit_length() - 64, 0)
    return math.log2(n >> shift) + shift


def _observe_samples(tr, args, kwargs, result):
    tr.counters["bdd_sampler.sample_dual.draws"] += len(result)
    tr.counters["bdd_sampler.failed_samples"] += sum(s.failed for s in result)


def _observe_points(tr, args, kwargs, result):
    tr.counters["enumeration.points_in_ball.points"] += len(result)


def _observe_lll(tr, args, kwargs, result):
    basis = args[0]
    rows = getattr(basis, "m", None) or getattr(basis, "nrows", None) or len(basis)
    tr.gauge("reduction.lll.rows_max", rows)


def _observe_bp(tr, args, kwargs, result):
    """Margins of the relation/basis separation, in bits of norm.

    separation: log2(min basis-row norm / threshold); relation: log2(threshold
    / max relation-row norm), with an exact (zero) relation counted as norm 1,
    one unit at the working scale 2^q.
    """
    thr = result.threshold_sq
    tr.gauge(
        "buchmann_pohst.separation_margin_bits",
        (_log2(min(result.basis_top_norms_sq)) - _log2(thr)) / 2,
    )
    if result.relation_top_norms_sq:
        worst = max(max(result.relation_top_norms_sq), 1)
        tr.gauge("buchmann_pohst.relation_margin_bits", (_log2(thr) - _log2(worst)) / 2)
    bits = max(
        abs(int(c)).bit_length()
        for row in result.basis_coords for e in row for c in (e.a, e.b)
    )
    tr.gauge("buchmann_pohst.coeff_bits_max", bits)


# how gauges combine across calls: the worst value is kept
GAUGE_PICK = {
    "reduction.lll.rows_max": max,
    "buchmann_pohst.separation_margin_bits": min,
    "buchmann_pohst.relation_margin_bits": min,
    "buchmann_pohst.coeff_bits_max": max,
}


# (module, attribute, span name, observer of the return value)
SPANS = (
    ("lattice_core", "BasisMatrix.__init__", "lattice_core.basis_init", None),
    ("lattice_core", "BasisMatrix.inverse_as_matrix", "lattice_core.inverse", None),
    ("lattice_core", "BasisMatrix.det", "lattice_core.det", None),
    ("bdd_sampler", "sample_dual", "bdd_sampler.sample_dual", _observe_samples),
    ("bdd_sampler", "babai_bdd", "bdd_sampler.babai_bdd", None),
    ("enumeration", "lattice_points_in_ball", "enumeration.points_in_ball", _observe_points),
    ("enumeration", "shortest_vector_sq", "enumeration.shortest_vector", None),
    ("reduction", "lll_reduce", "reduction.lll", _observe_lll),
    ("reduction", "lll_reduce_rows", "reduction.lll", _observe_lll),
    ("reduction", "hnf", "reduction.hnf", None),
    ("reduction", "snf", "reduction.snf", None),
    ("buchmann_pohst", "bp_reduce", "buchmann_pohst.bp_reduce", _observe_bp),
    ("cyclotomic", "log_embedding", "cyclotomic.log_embedding", None),
    ("recovery", "recover_with_retries", "recovery.recover", None),
    ("recovery", "cyclotomic_log_basis", "recovery.log_basis", None),
    ("recovery", "build_cyclotomic_problem", "recovery.build_problem", None),
    ("cli", "main", "cli.main", None),
)

# hot functions: a call counter only, no span
COUNTS = (
    ("rings", "hdot", "rings.hdot.calls"),
    ("rings", "hnorm_sq", "rings.hnorm_sq.calls"),
    ("recovery", "recover_with_sublattice", "recovery.attempts"),
)

# metric name -> (unit, better); the per-layer metrics of BENCHMARK.json
_S, _N = ("s", "lower"), ("count", "lower")
PER_LAYER = {
    "lattice_core.basis_init.calls": _N,
    "lattice_core.basis_init.self_s": _S,
    "lattice_core.inverse.calls": _N,
    "lattice_core.inverse.self_s": _S,
    "lattice_core.det.calls": _N,
    "lattice_core.det.self_s": _S,
    "bdd_sampler.sample_dual.calls": _N,
    "bdd_sampler.sample_dual.self_s": _S,
    "bdd_sampler.sample_dual.draws": _N,
    "bdd_sampler.babai_bdd.calls": _N,
    "bdd_sampler.babai_bdd.self_s": _S,
    "bdd_sampler.failed_samples": _N,
    "enumeration.points_in_ball.calls": _N,
    "enumeration.points_in_ball.self_s": _S,
    "enumeration.points_in_ball.points": _N,
    "enumeration.shortest_vector.calls": _N,
    "enumeration.shortest_vector.self_s": _S,
    "reduction.lll.calls": _N,
    "reduction.lll.self_s": _S,
    "reduction.lll.rows_max": ("rows", "lower"),
    "reduction.hnf.calls": _N,
    "reduction.hnf.self_s": _S,
    "reduction.snf.calls": _N,
    "reduction.snf.self_s": _S,
    "rings.hdot.calls": _N,
    "rings.hnorm_sq.calls": _N,
    "buchmann_pohst.bp_reduce.calls": _N,
    "buchmann_pohst.bp_reduce.self_s": _S,
    "buchmann_pohst.separation_margin_bits": ("bits", "higher"),
    "buchmann_pohst.relation_margin_bits": ("bits", "higher"),
    "buchmann_pohst.coeff_bits_max": ("bits", "lower"),
    "cyclotomic.log_embedding.calls": _N,
    "cyclotomic.log_embedding.self_s": _S,
    "recovery.recover.calls": _N,
    "recovery.recover.self_s": _S,
    "recovery.attempts": _N,
    "recovery.log_basis.self_s": _S,
    "recovery.build_problem.self_s": _S,
    "cli.main.self_s": _S,
    "op.self_s": _S,
    "trace.overhead_s": _S,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.gauges = {}
        self.op = -1
        self._stack = []
        self._restore = []

    def gauge(self, name, value):
        old = self.gauges.get(name)
        self.gauges[name] = value if old is None else GAUGE_PICK[name](old, value)

    def merge(self, op_id, other: dict):
        """Add the spans, counters and gauges a child interpreter recorded."""
        base = len(self.spans)
        for name, start, end, parent, _ in other["spans"]:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, op_id])
        self.counters.update(other["counters"])
        for name, value in other["gauges"].items():
            self.gauge(name, value)

    def _spanned(self, name, fn, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def root(self, op_id, fn, *args):
        """Run fn(*args) as operation op_id under a root span."""
        self.op = op_id
        try:
            return self._spanned(ROOT, fn, None)(*args)
        finally:
            self.op = -1

    def install(self):
        for mod, attr, name, observe in SPANS:
            self._swap(mod, attr, lambda fn, n=name, o=observe: self._spanned(n, fn, o))
        for mod, attr, name in COUNTS:
            self._swap(mod, attr, lambda fn, n=name: self._counted(n, fn))

    def _swap(self, mod_name, attr, make):
        module = importlib.import_module(f"unitlat.{mod_name}")
        if "." in attr:  # a method: patch the class once
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, make(orig))
            self._restore.append((cls, meth, orig))
            return
        orig = getattr(module, attr)
        wrapped = make(orig)
        for name, mod in list(sys.modules.items()):
            if name == "unitlat" or name.startswith("unitlat."):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()


def self_times(spans) -> dict:
    """name -> [calls, self_ns] from span records."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = defaultdict(lambda: [0, 0])
    for (name, start, end, _, _), inner in zip(spans, child_ns):
        out[name][0] += 1
        out[name][1] += end - start - inner
    return out


def layer_metrics(spans, counters, gauges) -> dict:
    """Values of every PER_LAYER metric except trace.overhead_s.

    Layers that were never called report 0, as do margins and bit counts
    on workloads that make no bp_reduce call.
    """
    values = {}
    for name, (calls, self_ns) in self_times(spans).items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_ns / 1e9
    values.update(counters)
    values.update(gauges)
    return {k: values.get(k, 0) for k in PER_LAYER if k != "trace.overhead_s"}


def root_total_ns(spans) -> int:
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)
