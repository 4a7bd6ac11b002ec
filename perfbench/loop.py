"""The closed loop: one client, one operation at a time, no extra threads.

run_pass() works through a workload's inputs in order, cycling, and checks
the clock only after whole cycles of inputs, so every run covers the same
mix. Outputs are judged by the oracles after the loop, outside the timed
region. Before each operation, and after the last, it times a fixed
calibration kernel, so a run can tell how fast the (shared) machine was
while it ran.

Run as a script it is the traced half of a traced run, in a fresh
interpreter so that it starts as cold as the untraced half did:

    python3 perfbench/loop.py WORKLOAD SEED N_OPS OUT_JSON SPANS_JSONL
"""

from __future__ import annotations

import json
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from resource import RUSAGE_CHILDREN, RUSAGE_SELF, getrusage

import tracer as tracing
import workloads


@dataclass
class OpRecord:
    op: int
    label: str
    seconds: float
    exact: bool
    error: str = ""


@dataclass
class Pass:
    records: list
    peak_kib: int  # peak RSS of this process or its largest child, before the oracles
    calibration_s: list = field(default_factory=list)


_rng = random.Random(0)
_CAL_MATRIX = [[Fraction(_rng.randint(-999, 999), _rng.randint(1, 99)) for _ in range(6)]
               for _ in range(6)]


def calibration_kernel():
    """Fixed Fraction work that shares no code with unitlat: Gauss-Jordan
    inverse of a 6x6 rational matrix, about 2 ms on the reference machine."""
    n = len(_CAL_MATRIX)
    a = [list(r) for r in _CAL_MATRIX]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p], inv[c], inv[p] = a[p], a[c], inv[p], inv[c]
        piv = a[c][c]
        a[c] = [x / piv for x in a[c]]
        inv[c] = [x / piv for x in inv[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[c])]
    return inv


def run_pass(workload, inputs, seconds=None, n_ops=None, tracer=None) -> Pass:
    """Run operations until `seconds` have passed (at a cycle boundary) or
    exactly `n_ops` have run."""
    outputs, records, calibration = [], [], []

    def calibrate():
        for _ in range(workload.calibration_reps):
            t0 = time.perf_counter()
            calibration_kernel()
            calibration.append(time.perf_counter() - t0)

    start = time.perf_counter()
    i = 0
    while True:
        if n_ops is not None:
            if i >= n_ops:
                break
        elif i and i % workload.cycle == 0 and time.perf_counter() - start >= seconds:
            break
        calibrate()
        inp = inputs[i % len(inputs)]
        error, out = "", None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = workload.run_op(inp.data)
            elif workload.in_process:
                out = tracer.root(i, workload.run_op, inp.data)
            else:  # the operation's interpreter records its own root span
                tracer.op = i
                out = workload.run_op(inp.data, tracer)
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        outputs.append(out)
        records.append(OpRecord(i, inp.label, t1 - t0, False, error))
        i += 1
    calibrate()  # after the last operation too, so the samples bracket the run
    peak_kib = max(getrusage(RUSAGE_SELF).ru_maxrss, getrusage(RUSAGE_CHILDREN).ru_maxrss)
    for rec, out in zip(records, outputs):
        if not rec.error:
            exact, detail = workload.check(inputs[rec.op % len(inputs)].data, out)
            rec.exact = bool(exact)
            if not rec.exact:
                rec.error = f"output rejected by the oracle: {detail}"
    return Pass(records, peak_kib, calibration)


def traced_pass(name: str, seed: int, n_ops: int, out_path: str, spans_path: str):
    workload = workloads.WORKLOADS[name]
    inputs = workload.make_inputs(seed)
    tr = tracing.Tracer()
    tr.install()
    try:
        records = run_pass(workload, inputs, n_ops=n_ops, tracer=tr).records
    finally:
        tr.uninstall()
    with open(spans_path, "w") as fh:
        for name_, start, end, parent, op in tr.spans:
            fh.write(json.dumps(
                {"name": name_, "start_ns": start, "end_ns": end, "parent": parent, "op": op}
            ) + "\n")
    sums = tracing.self_times(tr.spans)
    result = {
        "ops": [vars(r) for r in records],
        "layers": tracing.layer_metrics(tr.spans, tr.counters, tr.gauges),
        "self_ns": {k: v[1] for k, v in sums.items()},
        "root_ns": tracing.root_total_ns(tr.spans),
        "spans": len(tr.spans),
    }
    with open(out_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":  # unitlat must be importable (run.py sets PYTHONPATH)
    w, s, n, out, spans = sys.argv[1:6]
    traced_pass(w, int(s), int(n), out, spans)
