"""Acceptance gate: ten end-to-end criteria, one test (and one summary line)
each. Tolerances are stated inline; failures are meaningful regressions."""

import json
import math
import os
import random
import time
from fractions import Fraction

import pytest

from unitlat.bdd_sampler import SamplerConfig, babai_bdd, sample_dual, verify_sampler_contract
from unitlat.buchmann_pohst import BPParams, bp_reduce, relation_norm_check
from unitlat.cli import main as cli_main
from unitlat.cyclotomic import (
    CyclotomicField,
    alt_period_check,
    cyclotomic_unit_generators,
    generator_shape,
)
from unitlat.lattice_core import (
    BasisMatrix,
    FixedPointVector,
    RankError,
    norm_sq,
    op_norm_two_sq,
    sqrt_lower,
    sqrt_upper,
)
from unitlat.recovery import (
    InsufficientSamplesError,
    build_cyclotomic_problem,
    lattices_equal,
    make_planted_problem,
    recover_with_retries,
    recover_with_sublattice,
    regulator_from_basis,
)
from unitlat.reduction import (
    DEFAULT_DELTA,
    OKMatrix,
    check_reduced_bound,
    hnf_rational,
    is_reduced,
    lll_reduce,
)
from unitlat.rings import GAUSSIAN, RingElement

F = Fraction
GOLDEN_LOG = math.log((1 + math.sqrt(5)) / 2)
ARTIFACT_DIR = os.path.join(os.path.dirname(__file__), "artifacts")


def report(n, text):
    print(f"[criterion {n:02d}] PASS: {text}")


def rand_basis(rng, dim, lo=-9, hi=9):
    while True:
        rows = [[F(rng.randint(lo, hi)) for _ in range(dim)] for _ in range(dim)]
        try:
            return BasisMatrix(rows)
        except RankError:
            continue


def test_criterion_01_planted_end_to_end():
    """200 planted instances, dims 2-6, indices 1-12: >= 99% exact recovery
    of lattice and index (3 reseeded attempts allowed), < 60 s total."""
    t0 = time.time()
    ok = 0
    total = 200
    for i in range(total):
        dim = 2 + i % 5
        index = 1 + i % 12
        p = make_planted_problem(dim, index, seed=1000 + i)
        try:
            r = recover_with_retries(p, k=12 * dim)
        except InsufficientSamplesError:
            continue
        if r.index == index and lattices_equal(r.b_l, BasisMatrix.identity(dim)):
            ok += 1
    elapsed = time.time() - t0
    assert ok >= 0.99 * total, f"{ok}/{total} exact recoveries"
    assert elapsed < 60, f"took {elapsed:.1f}s"
    report(1, f"{ok}/{total} exact recoveries in {elapsed:.1f}s")


def test_criterion_02_babai_bdd_guarantee():
    """10^4 randomized trials, dims <= 8, perturbation strictly inside
    1/(2||B_M||_2): exact recovery every single time (zero tolerance)."""
    rng = random.Random(2024)
    trials = 10**4
    per_basis = 100
    failures = 0
    done = 0
    while done < trials:
        dim = rng.randint(1, 8)
        b = rand_basis(rng, dim, -6, 6)
        dual = b.transpose().inverse_as_matrix()
        radius = 1 / (2 * sqrt_upper(op_norm_two_sq(b)))
        for _ in range(min(per_basis, trials - done)):
            z_true = tuple(rng.randint(-4, 4) for _ in range(dim))
            point = dual.row_combination(z_true)
            pert = [F(rng.randint(-999, 999), 10**4) for _ in range(dim)]
            nsq = sum(p * p for p in pert)
            if nsq == 0:
                pert[0] = F(1, 10**4)
                nsq = F(1, 10**8)
            scale = radius * F(99, 100) / sqrt_upper(nsq)
            y = [a + e * scale for a, e in zip(point, pert)]
            y_fp = FixedPointVector.from_rationals(y, 96)
            z = babai_bdd(y_fp, b)
            if z != z_true:
                failures += 1
            done += 1
    assert failures == 0, f"{failures} BDD failures out of {trials}"
    report(2, f"{trials} BDD trials, 0 failures")


def test_criterion_03_bp_separation():
    """Basis reconstruction: relation rows below the 2^((k-1)/2) M~ norm
    threshold and recovered HNF equal to the planted one; 100 integer trials
    and 50 Gaussian-integer trials, no failures."""
    rng = random.Random(3)
    q_in = 64
    ok_z = 0
    for _ in range(100):
        dim = rng.randint(1, 2)
        basis = rand_basis(rng, dim, -4, 4)
        k = dim + rng.randint(1, 3)
        coeffs = [[int(i == j) for j in range(dim)] for i in range(dim)]
        coeffs += [
            [rng.randint(-3, 3) for _ in range(dim)] for _ in range(k - dim)
        ]
        gens = []
        for c in coeffs:
            vec = [
                sum(F(c[i]) * basis.rows[i][j] for i in range(dim))
                # noise strictly below the input resolution
                + F(rng.randint(-1, 1), 2**70)
                for j in range(dim)
            ]
            gens.append(
                FixedPointVector(
                    tuple(round(x * 2**q_in) for x in vec), q_in
                )
            )
        res = bp_reduce(gens, BPParams(mu=F(1, 2), D=F(64)))
        rec = [
            [F(round(e.a)) for e in row] for row in res.basis_approx
        ]
        if relation_norm_check(res) and hnf_rational(rec) == hnf_rational(basis.rows):
            ok_z += 1
    ok_zi = 0
    for _ in range(50):
        g1 = RingElement(rng.randint(-3, 3), rng.randint(-3, 3), "gaussian")
        while g1.norm() == 0:
            g1 = RingElement(rng.randint(-3, 3), rng.randint(-3, 3), "gaussian")
        mults = [
            RingElement(rng.randint(-2, 2), rng.randint(-2, 2), "gaussian")
            for _ in range(rng.randint(1, 2))
        ]
        gens = [[g1]] + [[g1 * mlt] for mlt in mults]
        res = bp_reduce(
            gens,
            BPParams(mu=F(1, 2), D=F(32), ring=GAUSSIAN),
            input_precision_bits=q_in,
        )
        got = res.basis_approx[0][0]
        want_norm = min(
            x[0].norm() for x in gens if x[0].norm() > 0
        )
        divisors_ok = got.norm() <= want_norm and got.norm() > 0
        if relation_norm_check(res) and divisors_ok:
            ok_zi += 1
    assert ok_z == 100, f"Z separation {ok_z}/100"
    assert ok_zi == 50, f"Z[i] separation {ok_zi}/50"
    report(3, f"separation held in 100/100 Z and 50/50 Z[i] trials")


def test_criterion_04_ok_lll_contract():
    """100 randomized instances: size-reduction and exchange conditions hold
    exactly on every output; the det^(1/m)-relative norm bound is checked on
    the bounded-defect (near-cubic) family where it applies; Gaussian-integer
    reduction preserves the forgetful rank-doubled Z-lattice (HNF equality)."""
    rng = random.Random(4)
    checked_bound = 0
    for _ in range(50):
        # unimodular shears of d*I: bounded defect, det exactly d^dim
        dim = rng.randint(2, 4)
        d = rng.randint(3, 12)
        rows = [[F(d * (i == j)) for j in range(dim)] for i in range(dim)]
        for _ in range(4 * dim):
            i, j = rng.sample(range(dim), 2)
            c = rng.choice([-2, -1, 1, 2])
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        b = BasisMatrix(rows)
        red, u = lll_reduce(b)
        wrapped = [
            [RingElement(x, 0, "integers") for x in row] for row in red.rows
        ]
        assert is_reduced(wrapped, DEFAULT_DELTA)
        assert check_reduced_bound(red)
        assert abs(u.det()) == 1
        checked_bound += 1
    checked_forget = 0
    while checked_forget < 50:
        rows = tuple(
            tuple(
                RingElement(rng.randint(-5, 5), rng.randint(-5, 5), "gaussian")
                for _ in range(2)
            )
            for _ in range(2)
        )
        mat = OKMatrix(rows, GAUSSIAN)
        try:
            BasisMatrix([[F(x) for x in r] for r in mat.underlying_z_rows()])
        except RankError:
            continue
        red, _ = lll_reduce(mat, DEFAULT_DELTA)
        assert is_reduced([list(r) for r in red.rows], DEFAULT_DELTA)
        before = hnf_rational([[F(x) for x in r] for r in mat.underlying_z_rows()])
        after = hnf_rational([[F(x) for x in r] for r in red.underlying_z_rows()])
        assert before == after
        checked_forget += 1
    report(4, f"contract held on {checked_bound} Z and {checked_forget} Z[i] instances")


def test_criterion_05_cyclotomic_ground_truth():
    """m=5 regulator within 1e-10 of log((1+sqrt 5)/2); log-span rank equals
    phi(m)/2 - 1 for m in {5,7,8,9,11,12}: the certified reconstruction of the
    projected generator logs finds that many basis rows (the logs lie on the
    trace-zero hyperplane, so the rank is no larger)."""
    p = build_cyclotomic_problem(5, 128, seed=5)
    r = recover_with_sublattice(p, k=8)
    reg = regulator_from_basis(r.b_l)
    assert abs(reg - GOLDEN_LOG) < 1e-10
    assert r.index == 1
    ranks = {}
    for m in (5, 7, 8, 9, 11, 12):
        field = CyclotomicField(m)
        rank = field.unit_rank
        rows = [g.log.mantissas[:rank] for g in cyclotomic_unit_generators(field, 96)]
        rows = [FixedPointVector(r, 96) for r in rows if any(r)]
        det_bound = F(1)
        for r in rows:
            det_bound *= sqrt_upper(norm_sq(r.to_rationals()) + 1)
        res = bp_reduce(rows, BPParams(mu=F(1, 8), D=det_bound))
        assert relation_norm_check(res), f"m={m}"
        ranks[m] = (len(res.basis_approx), rank)
        assert ranks[m][0] == ranks[m][1], f"m={m}: {ranks[m]}"
        assert len(res.relations) == len(rows) - rank
    report(5, f"regulator |err| = {abs(reg - GOLDEN_LOG):.2e}; ranks {ranks}")


def test_criterion_06_log_norm_growth():
    """max_j ||Log v_j|| / sqrt(m log m) <= 2 for every valid conductor
    m <= 100; the table is written out as a regression artifact."""
    rows = []
    worst = 0.0
    for m in range(3, 101):
        if m % 4 == 2:
            continue
        field = CyclotomicField(m)
        max_norm = 0.0
        for j in range(1, m):
            qi, unit = generator_shape(field, j)
            if not unit:
                continue
            terms = {j: 1}
            if qi >= 0:
                mi = field.cofactors[qi]
                terms = {} if j == mi else {j: 1, mi: -1}
            nsq = 0.0
            for a in field.embedding_representatives:
                coord = sum(
                    e * math.log(2 * abs(math.sin(math.pi * (a * t % m) / m)))
                    for t, e in terms.items()
                )
                nsq += coord * coord
            max_norm = max(max_norm, math.sqrt(nsq))
        ratio = max_norm / math.sqrt(m * math.log(m))
        rows.append((m, max_norm, ratio))
        worst = max(worst, ratio)
        assert ratio <= 2.0, f"m={m}: growth ratio {ratio:.3f}"
    os.makedirs(ARTIFACT_DIR, exist_ok=True)
    with open(os.path.join(ARTIFACT_DIR, "log_norm_growth.csv"), "w") as fh:
        fh.write("m,max_log_norm,ratio_sqrt_mlogm\n")
        for m, mn, ratio in rows:
            fh.write(f"{m},{mn:.12f},{ratio:.12f}\n")
    report(6, f"growth ratio <= {worst:.3f} for all conductors <= 100")


def test_criterion_07_estimator_reproduction():
    """Constants-1 convention: the m=10^4 generic leading term is within one
    order of magnitude of 10^20, and the generic/structured ratio fits a
    log-log slope in [2.7, 3.3] on a prime-conductor grid up to 10^4."""
    from unitlat.estimator import (
        cyclotomic_generic_profile,
        qubit_count_cyclotomic,
        qubit_count_generic,
        slope_fit,
    )

    est = qubit_count_generic(cyclotomic_generic_profile(10**4), 20)
    lead = float(est.leading_term)
    assert 10**19 <= lead <= 10**21
    ms = [101, 211, 467, 1009, 2161, 4649, 10007]
    ratios = [
        float(
            qubit_count_generic(cyclotomic_generic_profile(m), 20).total
            / qubit_count_cyclotomic(m).total
        )
        for m in ms
    ]
    slope = slope_fit(ms, ratios)
    assert 2.7 <= slope <= 3.3, f"slope {slope:.3f}"
    report(7, f"leading term {lead:.2e}, ratio slope {slope:.3f}")


def test_criterion_08_sampler_contract():
    """verify_sampler_contract at 10^4 samples, fixed seed: every index-2
    sublattice holds < 3/4 of the mass and coverage matches 1 - eta, both
    within the 3-sigma Monte Carlo tolerance; concentration radius holds."""
    b = BasisMatrix.identity(2)
    cfg = SamplerConfig(delta=F(1, 4), eta=F(1, 20), sigma=2, seed=8)
    samples = sample_dual(b, cfg, 10**4)
    rep = verify_sampler_contract(samples, b, cfg, 7)
    assert rep["uniformity_ok"], rep
    assert rep["coverage_ok"], rep
    assert rep["concentration_mass"] == 1.0, rep
    report(
        8,
        f"uniformity margin {rep['uniformity_margin']:.3f} < 0.75+tol, "
        f"coverage {rep['coverage']:.3f}",
    )


def test_criterion_09_alt_period_check():
    """Residual < 2^-32 on the planted Q(sqrt 5) period; > 0.1 on 100 random
    non-periods."""
    poly = [1, -1, -1]
    planted = [2 * GOLDEN_LOG, -2 * GOLDEN_LOG]
    res = alt_period_check(poly, planted)
    assert res < 2**-32, res
    rng = random.Random(9)
    rejected = 0
    for _ in range(100):
        cand = [rng.uniform(0.05, 2.0) * rng.choice([-1, 1]) for _ in range(2)]
        if alt_period_check(poly, cand) > 0.1:
            rejected += 1
    assert rejected == 100, f"only {rejected}/100 non-periods rejected"
    report(9, f"planted residual {res:.2e}, 100/100 non-periods rejected")


def test_criterion_10_cli_replay_determinism(tmp_path, capsys):
    """Every CLI example replays byte-identically from config + seed."""
    mat = tmp_path / "id2.json"
    mat.write_text(BasisMatrix.identity(2).dumps())
    gens = tmp_path / "gens.json"
    gens.write_text(
        json.dumps({"q": 32, "vectors": [[2 << 32], [3 << 32]], "mu": "1", "D": "4"})
    )
    cases = [
        ["recover", "--synthetic", "--dim", "2", "--index", "2", "--seed", "7", "--k", "24"],
        ["recover", "--cyclotomic", "5", "--precision-bits", "96"],
        ["estimate", "--cyclotomic", "10000", "--compare", "--format", "csv"],
        ["reduce", "--in", str(mat), "--verify"],
        ["bp", "--in", str(gens), "--verify"],
        ["sample", "--dual", str(mat), "--delta", "0", "--sigma", "2", "--r", "7",
         "--count", "100", "--seed", "3", "--verify"],
    ]
    for case in cases:
        outs = []
        for _ in range(2):
            code = cli_main(case)
            captured = capsys.readouterr()
            assert code == 0, (case, captured.err)
            outs.append(captured.out)
        assert outs[0] == outs[1], f"non-deterministic output for {case}"
    report(10, f"{len(cases)} CLI examples replay byte-identically")
