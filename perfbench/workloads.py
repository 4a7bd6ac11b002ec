"""The benchmark's workloads: inputs made from the seed, one operation per
input, and the oracle verdict on each output.

planted_sweep       recover_with_retries on criterion-01 planted instances
cyclotomic_ladder   `unitlat recover --cyclotomic m`, one fresh interpreter each
module_reconstruct  bp_reduce over Z[i] and Z[zeta_3] from noisy generators

Inputs depend only on the workload seed. Operations call unitlat and return
its output untouched; verdicts come from oracles.py, outside the timed region.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracles

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

PLANTED_INSTANCES = 200
LADDER = (11, 13, 16, 21)
LADDER_PRECISION_BITS = 128
# rank 4 three times and rank 5 twice in seven: the median latency falls
# mid-way into rank 4, and the tail among many rank-5 instances
MODULE_RANKS = (2, 3, 4, 4, 4, 5, 5)
MODULE_RINGS = ("gaussian", "eisenstein")
MODULE_POOL_CYCLES = 10
MODULE_INPUT_BITS = 64


@dataclass(frozen=True)
class Input:
    label: str
    data: object


def child_env() -> dict:
    """Environment for a fresh interpreter that imports unitlat from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p
    )
    return env


# ---------------------------------------------------------------------------
# planted_sweep
# ---------------------------------------------------------------------------


def planted_inputs(seed: int) -> list:
    """The criterion-01 mix: instance i has dim 2 + i % 5, index 1 + i % 12."""
    from unitlat.recovery import make_planted_problem

    rng = random.Random(seed)
    out = []
    for i in range(PLANTED_INSTANCES):
        dim, index = 2 + i % 5, 1 + i % 12
        problem = make_planted_problem(dim, index, seed=rng.randrange(2**31))
        out.append(Input(f"dim{dim}-index{index}", (problem, index)))
    return out


def planted_op(data):
    from unitlat.recovery import recover_with_retries

    problem, _ = data
    return recover_with_retries(problem, k=12 * problem.b_m.m)


def planted_check(data, result):
    _, index = data
    ok = oracles.planted_ok(result.b_l.rows, result.index, index)
    return ok, f"index {result.index} (planted {index}), basis {[[str(x) for x in r] for r in result.b_l.rows]}"


# ---------------------------------------------------------------------------
# cyclotomic_ladder
# ---------------------------------------------------------------------------


def ladder_inputs(seed: int) -> list:
    return [Input(f"m{m}", (m, seed)) for m in LADDER]


def ladder_argv(m: int, seed: int) -> list:
    return [
        "recover", "--cyclotomic", str(m),
        "--precision-bits", str(LADDER_PRECISION_BITS), "--seed", str(seed),
    ]


def ladder_op(data, tracer=None):
    """One CLI invocation in a fresh interpreter, as a CLI user pays it.

    With a tracer, the interpreter runs traced_cli.py instead, and the spans
    it saves are merged into the tracer, also when the invocation fails.
    """
    m, seed = data
    cmd = [sys.executable, "-m", "unitlat.cli"]
    if tracer is not None:
        spans_path = BENCH_DIR / "results" / f".spans-m{m}-{os.getpid()}.json"
        spans_path.parent.mkdir(exist_ok=True)
        cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans_path)]
    try:
        # no timeout: subprocess waits for a timed child by polling with
        # sleeps of up to 50 ms, which would quantize the measured time
        proc = subprocess.run(
            cmd + ladder_argv(m, seed), capture_output=True, text=True, env=child_env()
        )
    finally:
        if tracer is not None and spans_path.exists():
            tracer.merge(tracer.op, json.loads(spans_path.read_text()))
            spans_path.unlink()
    if proc.returncode != 0:
        raise RuntimeError(
            f"exit {proc.returncode}: {proc.stderr.strip().splitlines()[-1:]}"
        )
    return json.loads(proc.stdout)


def ladder_check(data, result):
    m, _ = data
    ref = oracles.reference_regulator(m)
    ok = oracles.regulator_ok(result["regulator"], result["index"], ref)
    return ok, f"regulator {result['regulator']!r} (reference {ref!r}), index {result['index']}"


# ---------------------------------------------------------------------------
# module_reconstruct
# ---------------------------------------------------------------------------


def ring_mul(x, y, kind: str):
    """(a + b w)(c + d w) with w = i (w^2 = -1) or w = zeta_3 (w^2 = -1 - w)."""
    (a, b), (c, d) = x, y
    if kind == "gaussian":
        return (a * c - b * d, a * d + b * c)
    return (a * c - b * d, a * d + b * c - b * d)


def _combine(coeffs, basis, kind):
    row = [(0, 0)] * len(basis[0])
    for c, brow in zip(coeffs, basis):
        row = [
            (s[0] + p[0], s[1] + p[1])
            for s, p in zip(row, (ring_mul(c, e, kind) for e in brow))
        ]
    return row


def module_instance(rng: random.Random, kind: str, rank: int):
    """A planted rank-r module basis and r + 2 noisy generators of it.

    The generators are the basis rows plus two random combinations, mixed by
    elementary row operations; each coordinate then gets noise of at most
    3 * 2^-66 < 2^-64, below the declared 64-bit input precision.
    """
    small = lambda lo, hi: (rng.randint(lo, hi), rng.randint(lo, hi))
    while True:
        basis = [[small(-2, 2) for _ in range(rank)] for _ in range(rank)]
        if oracles.int_det(oracles.z_rows(basis, kind)) != 0:
            break
    k = rank + 2
    coeffs = [[(int(i == j), 0) for j in range(rank)] for i in range(rank)]
    coeffs += [[small(-1, 1) for _ in range(rank)] for _ in range(k - rank)]
    for _ in range(k):
        i, j = rng.sample(range(k), 2)
        c = small(-1, 1)
        coeffs[i] = [
            (x[0] + p[0], x[1] + p[1])
            for x, p in zip(coeffs[i], (ring_mul(c, e, kind) for e in coeffs[j]))
        ]
    exact = [_combine(c, basis, kind) for c in coeffs]
    noise = lambda: Fraction(rng.randint(-3, 3), 2**66)
    gens = [[(a + noise(), b + noise()) for a, b in row] for row in exact]
    # Hadamard: |det| <= prod of row norms, each rounded up to an integer
    det_bound = 1
    for row in basis:
        nsq = sum(a * a + b * b - (a * b if kind == "eisenstein" else 0) for a, b in row)
        r = int(nsq**0.5)
        while r * r < nsq:
            r += 1
        det_bound *= r
    return basis, gens, det_bound


def module_inputs(seed: int) -> list:
    rng = random.Random(seed)
    out = []
    for _ in range(MODULE_POOL_CYCLES):
        for rank in MODULE_RANKS:
            for kind in MODULE_RINGS:
                out.append(Input(f"{kind}-r{rank}", (kind,) + module_instance(rng, kind, rank)))
    return out


def module_op(data):
    from unitlat.buchmann_pohst import BPParams, bp_reduce
    from unitlat.rings import RingElement, ring_by_kind

    kind, _, gens, det_bound = data
    rows = [[RingElement(a, b, kind) for a, b in row] for row in gens]
    params = BPParams(mu=1, D=det_bound, ring=ring_by_kind(kind))
    return bp_reduce(rows, params, input_precision_bits=MODULE_INPUT_BITS)


def module_check(data, result):
    kind, basis, _, _ = data
    recovered = [[(e.a, e.b) for e in row] for row in result.basis_approx]
    return oracles.module_ok(recovered, basis, kind), f"{len(recovered)} basis rows"


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable  # seed -> list of Input
    run_op: Callable  # input data -> output
    check: Callable  # (input data, output) -> (exact, detail shown when not exact)
    cycle: int  # the loop checks the clock only after whole cycles of inputs
    in_process: bool = True  # False: each operation starts its own interpreter
    # calibration kernel runs before each operation; 0 for operations in a
    # child interpreter, whose tens of seconds the samples between them miss
    calibration_reps: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("planted_sweep", planted_inputs, planted_op, planted_check, 5),
        Workload(
            "cyclotomic_ladder", ladder_inputs, ladder_op, ladder_check, len(LADDER),
            in_process=False, calibration_reps=0,
        ),
        Workload(
            "module_reconstruct", module_inputs, module_op, module_check,
            len(MODULE_RANKS) * len(MODULE_RINGS),
        ),
    )
}
