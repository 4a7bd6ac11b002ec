"""unitlat benchmark: one command, one workload, one closed-loop client.

    python3 perfbench/run.py --workload planted_sweep --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics with tracing off. --trace 1 makes a
traced run: an untraced pass, then the same operations again in a fresh
interpreter with spans around unitlat's public functions; it reports the
per-layer metrics and the tracing overhead (traced minus untraced time).

Operation times of the in-process workloads are scaled towards the
reference machine's speed: this box is shared, and its speed drifts by up to
a third over minutes. Each run times a fixed calibration kernel
(loop.calibration_kernel, no unitlat code) around every operation;
latencies are multiplied, and ops_per_s divided, by
(CAL_REFERENCE_S / median kernel time) ** CAL_EXPONENT. setup_s and
cyclotomic_ladder are not scaled. The unscaled values are printed and kept
in the results file.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. `failed` counts operations that raised or whose output the oracle
rejected; `correct` is true when every operation got an oracle verdict (and,
traced, when tracing changed no verdict and the self times add up to the
root spans). Details, machine info and spans go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import mpmath

import loop
import tracer as tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
RESULTS_DIR = BENCH_DIR / "results"
SETUP_PROBES = 9
# median calibration_kernel() time on the reference machine: Intel Xeon
# (2 vCPU, shared), Python 3.11.7
CAL_REFERENCE_S = 0.0021
# the kernel's time swings about twice as much as unitlat's operations do
# (two batches of 10 runs per workload), hence the square root
CAL_EXPONENT = 0.5

# name -> (unit, better); the end-to-end metrics of BENCHMARK.json
END_TO_END = {
    "ops_per_s": ("op/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "exact_rate": ("ratio", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def tail(values):
    """(value, label) of the highest percentile with ten operations beyond it.

    Of n sorted values the one at rank n - 11 has exactly ten after it: the
    100 (n - 10) / n percentile, e.g. p95 of 200. With fewer than 11 values
    no percentile qualifies and the maximum is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], f"max of {n} ops (fewer than 11)"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.4g} of {n} ops (10 beyond it)"


def machine_info() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu
            )
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "mpmath": metadata.version("mpmath"),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "gmpy2_backs_mpmath": mpmath.libmp.BACKEND == "gmpy",
    }


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh interpreters of start + imports + input generation."""
    code = (
        f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import unitlat.cli, workloads; "
        f"workloads.WORKLOADS[{workload!r}].make_inputs({seed})"
    )
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        # no timeout, see workloads.ladder_op
        subprocess.run([sys.executable, "-c", code], check=True, env=workloads.child_env())
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def end_to_end(run: loop.Pass, setup_s: float, scale: float = 1.0):
    """The END_TO_END values, operation times multiplied (rates divided) by
    `scale`."""
    seconds = [r.seconds for r in run.records]
    exact = sum(r.exact for r in run.records)
    tail_s, tail_label = tail(seconds)
    values = {
        "ops_per_s": exact / sum(seconds) / scale,
        "op_p50_ms": 1e3 * statistics.median(seconds) * scale,
        "op_tail_ms": 1e3 * tail_s * scale,
        "exact_rate": exact / len(run.records),
        "setup_s": setup_s,
        "peak_rss_mb": run.peak_kib / 1024,
    }
    return values, tail_label


def per_label_seconds(records) -> dict:
    by = {}
    for r in records:
        by.setdefault(r.label, []).append(r.seconds)
    return {label: statistics.median(s) for label, s in by.items()}


def traced_run(name: str, seed: int, seconds: int, inputs, workload):
    """Untraced pass here, traced pass of the same operations in a fresh
    interpreter; returns (untraced records, traced result, spans path)."""
    records = loop.run_pass(workload, inputs, seconds=seconds).records
    out_path = RESULTS_DIR / f"{name}-seed{seed}-traced.json"
    spans_path = RESULTS_DIR / f"{name}-seed{seed}-spans.jsonl"
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "loop.py"), name, str(seed), str(len(records)),
         str(out_path), str(spans_path)],
        check=True, env=workloads.child_env(),
    )
    traced = json.loads(out_path.read_text())
    out_path.unlink()
    return records, traced, spans_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC_DIR / "unitlat" / "__init__.py").is_file():
        print(f"error: no unitlat sources under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    workload = workloads.WORKLOADS[args.workload]
    RESULTS_DIR.mkdir(exist_ok=True)
    machine = machine_info()
    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine}
    if args.trace == 0:
        setup_s = setup_seconds(args.workload, args.seed)
        inputs = workload.make_inputs(args.seed)
        run = loop.run_pass(workload, inputs, seconds=args.seconds)
        records = run.records
        values, tail_label = end_to_end(run, setup_s)
        units = {k: u for k, (u, _) in END_TO_END.items()}
        ok = True
        notes = [f"op_tail_ms is the {tail_label}"]
        if run.calibration_s:
            cal_s = statistics.median(run.calibration_s)
            scale = (CAL_REFERENCE_S / cal_s) ** CAL_EXPONENT
            report.update(unscaled=values, calibration_median_s=cal_s, scale=scale)
            notes += [
                f"calibration kernel median {1e3 * cal_s:.4f} ms over "
                f"{len(run.calibration_s)} samples (reference {1e3 * CAL_REFERENCE_S} ms): "
                f"operation times scaled by {scale:.4f}",
                "unscaled: " + ", ".join(f"{k} {v:.6g} {units[k]}" for k, v in values.items()),
            ]
            values, _ = end_to_end(run, setup_s, scale)
    else:
        inputs = workload.make_inputs(args.seed)
        records, traced, spans_path = traced_run(
            args.workload, args.seed, args.seconds, inputs, workload
        )
        untraced_s = sum(r.seconds for r in records)
        traced_s = sum(op["seconds"] for op in traced["ops"])
        values = dict(traced["layers"], **{"trace.overhead_s": traced_s - untraced_s})
        units = {k: u for k, (u, _) in tracing.PER_LAYER.items()}
        self_sum = sum(traced["self_ns"].values())
        same = [op["exact"] for op in traced["ops"]] == [r.exact for r in records]
        ok = same and self_sum == traced["root_ns"]
        notes = [
            f"tracing overhead: traced {traced_s:.3f} s - untraced {untraced_s:.3f} s = "
            f"{traced_s - untraced_s:+.3f} s ({100 * (traced_s / untraced_s - 1):+.1f} %)",
            f"self times sum to {self_sum / 1e9:.6f} s; root spans total "
            f"{traced['root_ns'] / 1e9:.6f} s ({'equal' if self_sum == traced['root_ns'] else 'MISMATCH'})",
            f"tracing changed {'no' if same else 'some'} oracle verdicts",
            f"{traced['spans']} spans written to {spans_path.relative_to(BENCH_DIR.parent)}",
        ]

    exact = sum(r.exact for r in records)
    print(f"{args.workload} seed {args.seed}: {len(records)} ops, {exact} exact, "
          f"{sum(r.seconds for r in records):.3f} s in operations")
    for r in records:
        if not r.exact:
            print(f"  failed op {r.op} ({r.label}): {r.error}")
    if args.workload == "cyclotomic_ladder":
        for label, s in per_label_seconds(records).items():
            print(f"  recover_{label}_s {s:.4f} s")
    for line in notes:
        print(line)
    for name, value in values.items():
        print(f"  {name} {value:.6g} {units[name]}")

    report.update(
        values=values, notes=notes,
        ops=[vars(r) for r in records],
        seconds_by_label=per_label_seconds(records),
    )
    path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1))
    print(f"details in {path.relative_to(BENCH_DIR.parent)}")
    print(json.dumps({
        "correct": ok,
        "attempted": len(records),
        "failed": len(records) - exact,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
