"""Self-tests of the benchmark: python3 -m pytest perfbench"""

import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import loop  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    make = workloads.WORKLOADS[name].make_inputs
    assert make(7) == make(7)
    if name != "cyclotomic_ladder":
        assert make(7) != make(8)


def test_planted_mix_is_criterion_01():
    inputs = workloads.planted_inputs(3)
    assert len(inputs) == 200
    assert [i.label for i in inputs[:13]] == [
        f"dim{2 + i % 5}-index{1 + i % 12}" for i in range(13)
    ]


class _Result:
    def __init__(self, rows, index):
        self.b_l = type("B", (), {"rows": rows})()
        self.index = index


def test_fabricated_wrong_results_are_rejected():
    planted = workloads.planted_inputs(1)[0].data  # dim 2, index 1
    identity = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    assert workloads.planted_check(planted, _Result(identity, 1))[0]
    assert not workloads.planted_check(planted, _Result(((2, 0), (0, 1)), 1))[0]
    assert not workloads.planted_check(planted, _Result(((Fraction(1, 2), 0), (0, 2)), 1))[0]
    assert not workloads.planted_check(planted, _Result(identity, 2))[0]

    # the regulator unitlat 0.1.0 prints for m = 21 at 128 bits
    assert workloads.ladder_check((21, 0), {"regulator": 2.19998118758548, "index": 1})[0]
    assert not workloads.ladder_check((21, 0), {"regulator": 0.24627, "index": 1})[0]
    assert not workloads.ladder_check((21, 0), {"regulator": 2.19998118758548, "index": 3})[0]

    kind, basis, _, _ = workloads.module_inputs(1)[0].data
    good = [[(Fraction(a), Fraction(b)) for a, b in row] for row in basis]
    assert oracles.module_ok(good, basis, kind)
    doubled = [[(2 * a, 2 * b) for a, b in good[0]]] + good[1:]
    assert not oracles.module_ok(doubled, basis, kind)  # an index-4 sublattice
    assert not oracles.module_ok(good[:-1], basis, kind)
    noisy = [[(a + Fraction(1, 3), b) for a, b in row] for row in good]
    assert not oracles.module_ok(noisy, basis, kind)


def test_wrong_or_raising_operations_count_as_failed():
    def fake_op(data):
        if data == "raise":
            raise RuntimeError("boom")
        return data

    fake = workloads.Workload(
        "fake", None, fake_op, lambda data, out: (out == "right", out), cycle=3
    )
    inputs = [workloads.Input(x, x) for x in ("right", "wrong", "raise")]
    result = loop.run_pass(fake, inputs, n_ops=3)
    records = result.records
    assert [r.exact for r in records] == [True, False, False]
    assert "oracle" in records[1].error and "boom" in records[2].error
    assert len(result.calibration_s) == 4  # before each operation and after the last
    values, _ = run.end_to_end(result, 0.5)
    assert values["exact_rate"] == pytest.approx(1 / 3)
    slow, _ = run.end_to_end(result, 0.5, scale=0.5)
    assert slow["op_p50_ms"] == pytest.approx(values["op_p50_ms"] / 2)
    assert slow["ops_per_s"] == pytest.approx(values["ops_per_s"] * 2)
    assert slow["exact_rate"] == values["exact_rate"] and slow["setup_s"] == 0.5


def test_tail_has_ten_operations_beyond_it():
    rng = random.Random(0)
    for n in range(11, 400, 7):
        values = [rng.random() for _ in range(n)]
        v, label = run.tail(values)
        assert sum(x > v for x in values) == 10
        assert f"of {n} ops" in label
    assert run.tail([float(i) for i in range(200)])[1].startswith("p95 ")
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, "max of 3 ops (fewer than 11)")


def test_reference_regulator_m5_is_log_golden_ratio():
    assert oracles.reference_regulator(5) == pytest.approx(math.log((1 + 5**0.5) / 2), abs=1e-15)


def test_self_times_sum_to_root_spans():
    inputs = workloads.module_inputs(2)[:2]
    tr = tracing.Tracer()
    tr.install()
    try:
        records = loop.run_pass(
            workloads.WORKLOADS["module_reconstruct"], inputs, n_ops=2, tracer=tr
        ).records
    finally:
        tr.uninstall()
    assert all(r.exact for r in records)
    sums = tracing.self_times(tr.spans)
    assert sum(ns for _, ns in sums.values()) == tracing.root_total_ns(tr.spans)
    assert sums["buchmann_pohst.bp_reduce"][0] == 2 and sums["op"][0] == 2
    assert tr.counters["rings.hnorm_sq.calls"] > 0
    # uninstall restored the originals
    from unitlat import reduction, rings

    assert reduction.hnorm_sq is rings.hnorm_sq
    assert not hasattr(rings.hnorm_sq, "__wrapped__")


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
