import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from test_bdd_sampler import reference_sample_dual
from test_lattice_core import fractions_in
from unitlat import bdd_sampler, buchmann_pohst, recovery
from unitlat.bdd_sampler import (
    SamplerConfig,
    babai_bdd,
    gpv_sigma,
    klein_basis,
    sample_dual,
    verify_sampler_contract,
)
from unitlat.cyclotomic import CyclotomicField, cyclotomic_unit_generators
from unitlat.enumeration import shortest_vector_sq
from unitlat.lattice_core import (
    BasisMatrix,
    ConfigurationError,
    RankError,
    UnitlatError,
    op_norm_two_sq,
    sqrt_upper,
)
from unitlat.recovery import (
    ContractViolationError,
    InsufficientSamplesError,
    RecoveryProblem,
    RecoveryResult,
    build_cyclotomic_problem,
    compute_k,
    cyclotomic_log_basis,
    lattices_equal,
    make_planted_problem,
    recover_baseline,
    recover_with_retries,
    recover_with_sublattice,
    regulator_from_basis,
)
from unitlat.reduction import hnf, hnf_rational, snf

F = Fraction
GOLDEN_LOG = math.log((1 + math.sqrt(5)) / 2)


class TestComputeK:
    def test_trivial_example(self):
        assert compute_k(2, 0, 0) == 6

    def test_arithmetic_example(self):
        assert compute_k(4, 5, 10) == 102

    def test_at_least_m(self):
        assert compute_k(5, 0, 0) >= 5


class TestPlantedRecovery:
    def test_trivial_index_one(self, monkeypatch):
        """One recover_with_sublattice call with 12 draws per seed, seeds
        0-599. The width-6/5 Gaussian on Z^2 fails to span Z^2 (too few
        independent draws, or only a sublattice of index 2) on about one seed
        in six whichever sampler draws it: 103 seeds with the nearest-plane
        sampler, 118 with the reference enumeration draw. The nearest-plane
        sampler may fail no more often than the reference, and every success
        is Z^2 itself."""

        def failures():
            count = 0
            for seed in range(600):
                p = make_planted_problem(2, 1, seed=seed)
                try:
                    r = recover_with_sublattice(p, k=12)
                except (InsufficientSamplesError, ContractViolationError):
                    count += 1
                    continue
                assert r.index == 1
                assert lattices_equal(r.b_l, BasisMatrix.identity(2))
            return count

        def reference_draws(b_l_star, cfg, count, precision_bits):
            samples = reference_sample_dual(b_l_star, cfg, count, precision_bits)
            return ((None, s.y_tilde.mantissas, s.failed) for s in samples)

        nearest_plane = failures()
        monkeypatch.setattr(recovery, "_draws", reference_draws)
        assert nearest_plane <= failures()

    def test_index_two_50_seeds(self):
        ok = 0
        for seed in range(50):
            p = make_planted_problem(2, 2, seed=seed)
            try:
                r = recover_with_retries(p, k=24)
            except InsufficientSamplesError:
                continue
            if r.index == 2 and lattices_equal(r.b_l, BasisMatrix.identity(2)):
                ok += 1
        assert ok == 50

    def test_invariants_exact(self):
        p = make_planted_problem(3, 4, seed=9)
        r = recover_with_retries(p, k=24)
        # det L * index = det M, and M is contained in L
        assert abs(r.b_l.det()) * r.index == abs(p.b_m.det())
        from unitlat.lattice_core import sublattice_index

        assert sublattice_index(p.b_m, r.b_l) == r.index

    def test_result_keeps_no_fraction(self):
        """A kept RecoveryResult holds integers only, and no matrix but the
        problem's own b_m: B_L is packed as one flat tuple of integer
        entries over one denominator. b_l and w_hnf are built on each access,
        and reading b_l's Fraction rows (as the benchmark's oracle does)
        leaves nothing cached; w_hnf equals the HNF of the samples' Babai
        rows."""
        assert not {"b_l", "w_hnf"} & set(RecoveryResult._fields)
        for dim, index in ((2, 1), (4, 6), (6, 12)):
            problem = make_planted_problem(dim, index, seed=5)
            r = recover_with_retries(problem, k=12 * dim)
            assert r.index == index
            assert r.b_m is problem.b_m
            kept = r._values()
            assert fractions_in(kept) == 0
            assert [v for v in kept if isinstance(v, BasisMatrix)] == [problem.b_m]
            assert len(r.b_l_entries) == dim * dim
            assert all(type(x) is int for x in r.b_l_entries)
            assert all(x.denominator == 1 for row in r.b_l.rows for x in row)
            assert fractions_in((r.b_l, r.w_hnf)) == 0
            assert r._values() == kept and not {"b_l", "w_hnf"} & set(vars(r))
            samples = sample_dual(problem.hidden_dual, problem.sampler, 12 * dim)
            h = hnf([list(babai_bdd(s.y_tilde, problem.b_m)) for s in samples])
            assert r.w_hnf == tuple(map(tuple, h))

    def test_first_attempt_runs_on_the_problem_itself(self, monkeypatch):
        """Only a retry builds a reseeded copy of the problem."""
        problem = make_planted_problem(3, 2, seed=4)
        tried = []

        def fails_once(p, k):
            tried.append(p)
            if len(tried) == 1:
                raise InsufficientSamplesError("rank")
            return p

        monkeypatch.setattr(recovery, "recover_with_sublattice", fails_once)
        assert recover_with_retries(problem, k=6) is tried[1]
        assert tried[0] is problem
        assert tried[1].sampler == problem.sampler.replace(seed=4 + 1009)
        assert tried[1].replace(sampler=problem.sampler) == problem

    def test_hypothesis_checked_at_construction(self):
        p = make_planted_problem(2, 3, seed=1)
        big_delta = SamplerConfig(delta=F(49, 100), eta=0, sigma=p.sampler.sigma, seed=1)
        with pytest.raises(ConfigurationError):
            p.replace(sampler=big_delta)

    def test_index_bound_enforced(self):
        p = make_planted_problem(2, 5, seed=3)
        shrunk = p.replace(index_bound=2)
        from unitlat.recovery import ContractViolationError

        with pytest.raises(ContractViolationError):
            recover_with_retries(shrunk, k=16)


def reference_recover(problem, k):
    """recover_with_sublattice as the composition it fuses: sample_dual's
    records, babai_bdd on each, then HNF, SNF and the dual of W."""
    m = problem.b_m.m
    samples = sample_dual(problem.hidden_dual, problem.sampler, k, problem.precision_bits)
    h = hnf([list(babai_bdd(s.y_tilde, problem.b_m)) for s in samples])
    if len(h) < m:
        raise InsufficientSamplesError(
            f"coordinate rows span rank {len(h)} < {m}; retry with a fresh seed"
        )
    index = math.prod(h[i][i] for i in range(m))
    if index > problem.index_bound:
        raise ContractViolationError(
            f"recovered index {index} exceeds the bound {problem.index_bound}: "
            "the index bound does not hold, or the samples span a proper "
            "sublattice of L*; retry with a larger --k or a fresh seed"
        )
    b_l = BasisMatrix(h).dual().matmul(problem.b_m)
    failed = sum(s.failed for s in samples)
    return RecoveryResult.of(b_l, problem.b_m, index, k, tuple(snf(h)), failed)


def outcome(recover, problem, k):
    """The result, or the type and message of the error raised."""
    try:
        return recover(problem, k)
    except UnitlatError as exc:
        return type(exc), str(exc)


@st.composite
def fused_cases(draw):
    """(problem, k): a random dual basis of dim 1-4, rational (so that the
    reduced basis keeps a denominator) or integral, non-diagonal so that
    its Gram-Schmidt mu rows are mostly nonzero; M = U L for a random
    integer U of |det| <= 12; delta = 0 or half the Babai budget, eta
    = 0, 1/10 or 1/4 and sigma a half, one or two times the GPV width."""
    m = draw(st.integers(1, 4))
    if draw(st.booleans()):
        entry = st.fractions(min_value=-5, max_value=5, max_denominator=5)
    else:
        entry = st.integers(-5, 5).map(F)
    square = lambda e: st.lists(st.lists(e, min_size=m, max_size=m), min_size=m, max_size=m)
    try:
        hidden_dual = BasisMatrix(draw(square(entry)))
        u = BasisMatrix(draw(square(st.integers(-2, 2).map(F))))
    except RankError:
        assume(False)
    index = abs(u.det())
    assume(index <= 12)
    b_m = u.matmul(hidden_dual.dual())
    lam_sq = klein_basis(hidden_dual).lam_sq_bracket
    budget = 1 / (4 * sqrt_upper(op_norm_two_sq(b_m)) * sqrt_upper(lam_sq[1]))
    cfg = SamplerConfig(
        delta=draw(st.sampled_from((F(0), min(F(1, 4), budget)))),
        eta=draw(st.sampled_from((F(0), F(1, 10), F(1, 4)))),
        sigma=gpv_sigma(hidden_dual) * draw(st.sampled_from((F(1, 2), F(1), F(2)))),
        seed=draw(st.integers(0, 2**32)),
    )
    problem = RecoveryProblem(
        b_m=b_m,
        hidden_dual=hidden_dual,
        sampler=cfg,
        index_bound=index,
        precision_bits=draw(st.sampled_from((53, 64, 96))),
    )
    return problem, draw(st.integers(2 * m, 12 * m))


class TestFusedRecovery:
    @given(fused_cases())
    @settings(max_examples=150, deadline=None)
    def test_equals_reference_composition(self, case):
        """Rounding each draw as it comes gives the result (or the error)
        of sample_dual, then babai_bdd per sample, then HNF/SNF/dual."""
        problem, k = case
        assert outcome(recover_with_sublattice, problem, k) == outcome(
            reference_recover, problem, k
        )

    def test_keeps_no_sample_record(self, monkeypatch):
        """The recovery reads the draw stream: neither sample_dual nor
        babai_bdd runs."""
        monkeypatch.setattr(bdd_sampler, "sample_dual", no_sampling)
        monkeypatch.setattr(bdd_sampler, "babai_bdd", no_sampling)
        res = recover_with_retries(make_planted_problem(3, 4, seed=2), k=36)
        assert res.index == 4


class TestCyclotomicRecovery:
    def test_m5_regulator(self):
        p = build_cyclotomic_problem(5, 128, seed=2)
        r = recover_with_sublattice(p, k=8)
        assert r.index == 1
        assert abs(regulator_from_basis(r.b_l) - GOLDEN_LOG) < 1e-10

    def test_sampler_width_and_radius(self):
        """sigma is raised to the GPV bound of the dual (2 lambda_1 is below
        it at m=21), and every draw lies in the 3 sigma ball."""
        p = build_cyclotomic_problem(21, 128, seed=1)
        assert p.sampler.sigma == gpv_sigma(p.hidden_dual)
        assert p.sampler.sigma > 2 * sqrt_upper(p.lambda1_sq_dual[1])
        samples = sample_dual(p.hidden_dual, p.sampler, 100, 128)
        report = verify_sampler_contract(samples, p.hidden_dual, p.sampler, 3 * p.sampler.sigma)
        assert report["concentration_mass"] == 1.0 and report["coverage_ok"]

    @pytest.mark.parametrize("m", [23, 25, 33, 39])
    def test_lambda1_bracket_ends(self, m):
        """Above the enumeration limit (ranks 9-11 here) lambda_1(L*)^2 lies
        inside the bracket: the Babai hypothesis reads the upper end, the
        baseline's mu the lower. At m = 33 the reduced dual's least
        Gram-Schmidt norm is its shortest row, so lo = hi = lambda_1^2;
        elsewhere the bracket is strict."""
        p = build_cyclotomic_problem(m, 128, seed=1)
        lo, hi = p.lambda1_sq_dual
        assert lo <= shortest_vector_sq(p.hidden_dual) <= hi
        assert lo < hi or m == 33

    @pytest.mark.parametrize("m", [11, 21, 36])
    def test_sampler_gets_the_reversed_dual(self, m):
        """The dual rows last first, with the determinant of that order, so
        the sampler's LLL starts near reduced; the lattice is L* still."""
        p = build_cyclotomic_problem(m, 128, seed=1)
        d = p.b_m.dual()
        assert p.hidden_dual.ints == d.ints[::-1]
        assert p.hidden_dual.det() == BasisMatrix(d.rows[::-1]).det()
        assert lattices_equal(p.hidden_dual, d)

    @pytest.mark.parametrize("m,rows", [(21, 8), (33, 14), (36, 12), (44, 18)])
    def test_bp_gets_one_generator_per_pair(self, m, rows, monkeypatch):
        """v_(m-j) = -zeta^-j v_j has v_j's log row, so bp_reduce receives one
        row per pair {j, m - j}, half of the 16/28/26/38 rows that both
        members gave, less the rows that repeat an earlier one (v_14 = 1 +
        zeta^-4 repeats v_8 = 1 + zeta^4 at m = 36, v_18 repeats v_8 at
        m = 44), and loses no row of the full generator set."""
        calls = spy_bp_reduce(monkeypatch)
        cyclotomic_log_basis(m, 128)
        (gens, _), = calls
        got = [g.mantissas for g in gens]
        field = CyclotomicField(m)
        every = {g.log.mantissas[: field.unit_rank] for g in cyclotomic_unit_generators(field, 128)}
        assert len(got) == len(set(got)) == rows
        assert set(got) == every - {(0,) * field.unit_rank}

    def test_bp_det_bound_covers_every_independent_subset(self, monkeypatch):
        """D bounds the covolume only if it bounds the Hadamard product of
        whichever rank-subset of the rows is independent: D^2 >= prod
        (||row||^2 + 1) over each subset with a nonzero exact determinant,
        1,287 subsets at m = 36. A product over the first rank rows fell
        short when those rows were dependent."""
        calls = spy_bp_reduce(monkeypatch)
        cyclotomic_log_basis(36, 128)
        (gens, params), = calls
        rank, one = len(gens[0].mantissas), 1 << 2 * gens[0].exponent
        checked = 0
        for subset in itertools.combinations([g.mantissas for g in gens], rank):
            if exact_det(subset):
                bound = math.prod(F(sum(x * x for x in row) + one, one) for row in subset)
                assert params.D**2 >= bound
                checked += 1
        assert checked > 0

    def test_m7_rank_and_basis(self):
        b = cyclotomic_log_basis(7, 128)
        assert b.m == 2  # unit rank of the m=7 field
        assert abs(b.det()) > 0

    def test_rank_zero_conductor_rejected(self):
        with pytest.raises(ConfigurationError):
            build_cyclotomic_problem(3)


def spy_bp_reduce(monkeypatch) -> list:
    """Record the (generators, params) of each bp_reduce call, which
    cyclotomic_log_basis imports when it runs."""
    calls, real = [], buchmann_pohst.bp_reduce

    def spy(gens, params, **kwargs):
        calls.append((gens, params))
        return real(gens, params, **kwargs)

    monkeypatch.setattr(buchmann_pohst, "bp_reduce", spy)
    return calls


def exact_det(rows) -> Fraction:
    """Determinant of a square matrix by Gaussian elimination in Fractions."""
    a = [[F(x) for x in row] for row in rows]
    det = F(1)
    for i in range(len(a)):
        pivot = next((r for r in range(i, len(a)) if a[r][i]), None)
        if pivot is None:
            return F(0)
        if pivot != i:
            a[i], a[pivot] = a[pivot], a[i]
            det = -det
        det *= a[i][i]
        for r in range(i + 1, len(a)):
            f = a[r][i] / a[i][i]
            a[r] = [x - f * y for x, y in zip(a[r], a[i])]
    return det


class TestDerivedBounds:
    """A problem states only its inputs: the lambda_1(L*)^2 bracket, det L
    and the baseline's determinant bound D are read off hidden_dual."""

    @pytest.mark.parametrize("dim", [2, 9])  # either side of the enumeration limit
    def test_planted(self, dim, monkeypatch):
        p = make_planted_problem(dim, 1, seed=dim)
        assert p.lambda1_sq_dual == (1, 1)
        assert 1 / abs(p.hidden_dual.det()) == 1  # det L
        assert recovery._sample_count(p, None) == compute_k(dim, 0, 0)
        seen, real = [], buchmann_pohst.BPParams

        def recording(**kwargs):
            seen.append(kwargs)
            return real(**kwargs)

        monkeypatch.setattr(buchmann_pohst, "BPParams", recording)
        monkeypatch.setattr(recovery, "_draws", no_sampling)
        assert not recover_baseline(p, k=6 * dim).feasible
        assert [kw["D"] for kw in seen] == [2]

    @pytest.mark.parametrize("m", [11, 23, 33])
    def test_cyclotomic_det_l(self, m):
        p = build_cyclotomic_problem(m, 128, seed=1)
        det_l = 1 / abs(p.hidden_dual.det())
        assert det_l == abs(p.b_m.det())
        expected = compute_k(p.b_m.m, 0, max(0.0, math.log2(float(det_l))))
        assert recovery._sample_count(p, None) == expected


NOISE_CASES = [("planted", dim) for dim in range(2, 7)] + [("cyclotomic", m) for m in (5, 11, 21)]


@pytest.mark.parametrize("kind,size", NOISE_CASES, ids=[f"{k}-{s}" for k, s in NOISE_CASES])
def test_noise_is_half_the_babai_budget(kind, size):
    """Both builders set delta = min(1/4, 1 / (4 ||B_M||_2+ lambda_1+)), the
    upper ends the problem carries: half of what the Babai hypothesis
    delta lambda_1(L*) < 1 / (2 ||B_M||_2) allows. m = 5 takes the 1/4 cap."""
    if kind == "planted":
        p = make_planted_problem(size, 2 * size - 1, seed=size)
    else:
        p = build_cyclotomic_problem(size, 128, seed=1)
    bm_two = sqrt_upper(op_norm_two_sq(p.b_m))
    lam_up = sqrt_upper(p.lambda1_sq_dual[1])
    assert p.sampler.delta == min(F(1, 4), 1 / (4 * bm_two * lam_up))
    assert p.sampler.delta * lam_up * 2 * bm_two <= F(1, 2)
    assert (p.sampler.delta == F(1, 4)) == (size == 5 and kind == "cyclotomic")


def no_sampling(*args, **kwargs):
    raise AssertionError("the infeasible path drew samples")


class TestBaseline:
    def test_dim1_gcd_style(self):
        b_dual = BasisMatrix.diagonal([F(5)])
        cfg = SamplerConfig(delta=0, eta=0, sigma=8, seed=4)
        p = RecoveryProblem(
            b_m=b_dual.transpose().inverse_as_matrix(),  # M = L here
            hidden_dual=b_dual,
            sampler=cfg,
            index_bound=1,
            precision_bits=512,
        )
        res = recover_baseline(p, k=4)
        assert res.feasible
        # recovered L* basis is (5), so L = (1/5)Z; b_l_approx is the exact
        # inverse of the recovered L* basis
        val = 1 / abs(res.b_l_approx[0][0])
        assert abs(val - 5) < F(1, 2**16)
        assert abs(abs(res.b_l_approx[0][0]) - F(1, 5)) < F(1, 2**16)

    def test_infeasibility_report(self):
        b_dual = BasisMatrix.diagonal([F(5)])
        cfg = SamplerConfig(delta=0, eta=0, sigma=8, seed=4)
        p = RecoveryProblem(
            b_m=b_dual.transpose().inverse_as_matrix(),
            hidden_dual=b_dual,
            sampler=cfg,
            index_bound=1,
            precision_bits=3,
        )
        res = recover_baseline(p, k=4)
        assert not res.feasible
        assert res.required_q > 3
        assert res.b_l_approx is None

    def test_mu_reads_the_lower_lambda1_end(self, monkeypatch):
        """At m = 23 the bracket is strict: mu = sqrt(lo) gives q = 90 where
        the upper end would give 88. Below q the report comes back before any
        sample is drawn."""
        p = build_cyclotomic_problem(23, 128, seed=1)
        p = p.replace(precision_bits=90)
        monkeypatch.setattr(recovery, "_draws", no_sampling)
        res = recover_baseline(p)
        assert not res.feasible
        assert res.required_q == 90
        assert res.samples_used == recovery._sample_count(p, None)

    @pytest.mark.parametrize("m", [5, 7, 11, 16])
    def test_sampler_noise_makes_cyclotomic_baseline_infeasible(self, m, monkeypatch):
        """delta * lambda_1(L*) is near 1/4 here, so the samples carry at most
        2 bits whatever the mantissa width: no draw, an infeasibility report."""
        monkeypatch.setattr(recovery, "_draws", no_sampling)
        res = recover_baseline(build_cyclotomic_problem(m, 128, seed=0))
        assert not res.feasible and res.b_l_approx is None
        assert res.input_bits < res.required_q

    def test_input_bits_are_those_above_the_noise(self):
        """floor(-log2(delta sqrt(hi) + 2^-p)): 2^-40 + 2^-256 gives 39 bits,
        delta = 0 leaves all p."""
        p = make_planted_problem(2, 2, seed=11)
        quiet = p.sampler.replace(delta=F(1, 2**40))
        res = recover_baseline(p.replace(precision_bits=256, sampler=quiet), k=16)
        assert res.input_bits == 39
        exact = p.sampler.replace(delta=0)
        res = recover_baseline(p.replace(sampler=exact), k=16)
        assert res.input_bits == p.precision_bits == 64

    def test_noiseless_planted_baseline_recovers_exactly(self):
        """delta = 0: the samples are exact points of L* = Z^3, and the
        inverted basis generates L = Z^3 with no rounding."""
        p = make_planted_problem(3, 2, seed=5)
        p = p.replace(sampler=p.sampler.replace(delta=0))
        res = recover_baseline(p, k=16)
        assert res.feasible
        assert lattices_equal(BasisMatrix(res.b_l_approx), BasisMatrix.identity(3))

    def test_cross_validation_with_sublattice(self):
        """Both pipelines on the same planted instance recover the same
        lattice (HNF equality after exact rounding of the baseline)."""
        p = make_planted_problem(2, 2, seed=11)
        # the baseline needs near-noiseless samples (its precision demand);
        # the sublattice route works at either noise level
        quiet = p.sampler.replace(delta=F(1, 2**40))
        p = p.replace(precision_bits=256, sampler=quiet)
        sub = recover_with_retries(p, k=16)
        base = recover_baseline(p, k=16)
        assert base.feasible
        rounded = [
            [F(round(x)) for x in row] for row in base.b_l_approx
        ]
        assert hnf_rational(rounded) == hnf_rational(sub.b_l.rows)


class TestPrecisionGap:
    """The paper's precision gap, read off the formula the baseline runs
    (BPParams.derive, as recover_baseline reports it): planted problems of
    dim 2-6, index 2, seed 1, with k = 6 dim samples."""

    DIMS = (2, 3, 4, 5, 6)

    def test_baseline_q_grows_with_dimension(self, monkeypatch):
        """At 64 bits the samples carry too few bits, so each report comes
        back before any draw."""
        monkeypatch.setattr(recovery, "_draws", no_sampling)
        qs = [
            recover_baseline(make_planted_problem(dim, 2, seed=1), k=6 * dim).required_q
            for dim in self.DIMS
        ]
        assert qs == [15, 22, 29, 37, 45]
        assert all(a < b for a, b in zip(qs, qs[1:]))

    @pytest.mark.parametrize("dim", DIMS)
    def test_sublattice_recovers_where_baseline_cannot(self, dim, monkeypatch):
        """At the problem's own 64 bits and delta the baseline is infeasible,
        while Babai rounding against M* recovers L = Z^dim exactly."""
        p = make_planted_problem(dim, 2, seed=1)
        with monkeypatch.context() as mp:
            mp.setattr(recovery, "_draws", no_sampling)
            base = recover_baseline(p, k=6 * dim)
        assert not base.feasible and base.b_l_approx is None
        assert base.input_bits < base.required_q
        res = recover_with_retries(p, k=6 * dim)
        assert res.index == 2
        assert lattices_equal(res.b_l, BasisMatrix.identity(dim))
