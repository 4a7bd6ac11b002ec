import math
import random

import mpmath
import pytest

from unitlat.cyclotomic import (
    CyclotomicField,
    DomainError,
    PrecisionEscalation,
    alt_period_check,
    basis_norm_profile,
    cyclotomic_unit_generators,
    euler_phi,
    factorize,
    generator_shape,
    log_embedding,
    log_span_rank,
)

GOLDEN = (1 + math.sqrt(5)) / 2


class TestFieldData:
    def test_factorize(self):
        assert factorize(12) == {2: 2, 3: 1}
        assert factorize(97) == {97: 1}

    def test_euler_phi(self):
        assert [euler_phi(n) for n in (5, 7, 8, 9, 11, 12)] == [4, 6, 4, 6, 10, 4]

    def test_conductor_validation(self):
        with pytest.raises(DomainError):
            CyclotomicField(6)  # 2 mod 4 duplicates conductor 3
        with pytest.raises(DomainError):
            CyclotomicField(2)

    def test_cofactors(self):
        f = CyclotomicField(12)
        assert f.factorization == ((2, 2), (3, 1))
        assert f.cofactors == (3, 4)

    def test_unit_rank_and_reps(self):
        f = CyclotomicField(5)
        assert f.unit_rank == 1
        assert f.embedding_representatives == (1, 2)
        assert CyclotomicField(12).embedding_representatives == (1, 5)

    def test_torsion(self):
        assert CyclotomicField(5).torsion_order == 10
        assert CyclotomicField(8).torsion_order == 8


class TestGeneratorShape:
    def test_prime_conductor_all_quotient(self):
        f = CyclotomicField(5)
        for j in range(1, 5):
            qi, unit = generator_shape(f, j)
            assert qi == 0 and unit

    def test_m12_nonunit_at_6(self):
        """(1 - zeta_12^6)/(1 - zeta_12^4) has norm 4: not a unit and must be
        excluded from the generating set."""
        f = CyclotomicField(12)
        # j = 6 is divisible by the cofactor 3 (for p=2); zeta^6 = -1 has
        # order 2 < 4, so the quotient form is not a unit
        qi, unit = generator_shape(f, 6)
        assert qi == 0 and not unit
        units = {g.j for g in cyclotomic_unit_generators(f, 64)}
        assert 6 not in units

    def test_plain_forms_are_units(self):
        f = CyclotomicField(12)
        for j in (1, 5, 7, 11):
            qi, unit = generator_shape(f, j)
            assert qi == -1 and unit


class TestLogEmbedding:
    def test_m5_golden_ratio(self):
        f = CyclotomicField(5)
        (vec,) = log_embedding([{2: 1, 1: -1}], f, 96)
        vals = vec.to_floats()
        assert abs(vals[0] - math.log(GOLDEN)) < 1e-12
        assert abs(vals[1] + math.log(GOLDEN)) < 1e-12

    def test_coordinate_sum_zero(self):
        """Unit logs live on the trace-zero hyperplane."""
        for m in (5, 7, 8, 12):
            f = CyclotomicField(m)
            for g in cyclotomic_unit_generators(f, 96):
                # exact mantissa arithmetic: the sum vanishes to within one
                # rounding ulp per coordinate
                total = sum(g.log.mantissas)
                assert abs(total) <= g.log.dim

    def test_zero_order_rejected(self):
        with pytest.raises(DomainError):
            log_embedding([{5: 1}], CyclotomicField(5), 64)

    def test_wide_coordinate_escalates(self):
        """An exponent of 2^40 widens each interval past 2^-64 at 96 working
        bits; the rebuilt table certifies it, and a cap below the rebuild
        raises PrecisionEscalation."""
        f = CyclotomicField(5)
        with pytest.raises(PrecisionEscalation):
            log_embedding([{1: 2**40}], f, 64, max_bits=100)
        (vec,) = log_embedding([{1: 2**40}], f, 64)
        with mpmath.workdps(60):
            expect = tuple(
                int(mpmath.nint(2**40 * mpmath.log(2 * mpmath.sin(mpmath.pi * a / 5)) * 2**64))
                for a in f.embedding_representatives
            )
        assert vec.mantissas == expect

    @pytest.mark.parametrize("m", [12, 25, 101])
    def test_one_table_per_conductor(self, m, monkeypatch):
        """Every generator of a conductor is read from m - 1 interval log-sines."""
        calls = []
        log = mpmath.iv.log
        monkeypatch.setattr(mpmath.iv, "log", lambda x: calls.append(x) or log(x))
        gens = cyclotomic_unit_generators(CyclotomicField(m), 64)
        assert len(calls) == m - 1
        assert len(gens) > 1


class TestRank:
    @pytest.mark.parametrize("m", [5, 7, 8, 9, 11, 12])
    def test_rank_is_unit_rank(self, m):
        f = CyclotomicField(m)
        gens = cyclotomic_unit_generators(f, 96)
        assert log_span_rank(gens) == f.unit_rank

    def test_nonunit_inclusion_would_inflate_rank(self):
        """Keeping the norm-4 element at m=12 would push the span off the
        trace-zero hyperplane."""
        f = CyclotomicField(12)
        (vec,) = log_embedding([{6: 1, 4: -1}], f, 96)
        assert abs(sum(vec.to_floats())) > 0.1


class TestNormProfile:
    def test_growth_small(self):
        for m in (5, 7, 8, 9, 12, 15, 16):
            prof = basis_norm_profile(CyclotomicField(m), 64)
            assert prof["growth_ratio"] <= 2.0

    def test_m5_max_norm(self):
        prof = basis_norm_profile(CyclotomicField(5), 96)
        assert abs(prof["max_log_norm"] - math.sqrt(2) * math.log(GOLDEN)) < 1e-9


class TestAltPeriodCheck:
    POLY = [1, -1, -1]  # x^2 - x - 1, the Q(sqrt 5) real subfield

    def planted(self):
        return [2 * math.log(GOLDEN), -2 * math.log(GOLDEN)]

    def test_planted_period(self):
        assert alt_period_check(self.POLY, self.planted(), 64) < 2**-32

    def test_integer_multiples_are_periods(self):
        cand = [3 * x for x in self.planted()]
        assert alt_period_check(self.POLY, cand, 64) < 2**-30

    def test_random_non_periods(self):
        rng = random.Random(0)
        hits = 0
        for _ in range(50):
            cand = [rng.uniform(-2, 2), rng.uniform(-2, 2)]
            if alt_period_check(self.POLY, cand, 64) > 0.1:
                hits += 1
        assert hits >= 48  # a random vector is essentially never a period

    def test_complex_roots_rejected(self):
        with pytest.raises(DomainError):
            alt_period_check([1, 0, 1], [0.1, 0.2], 64)  # x^2 + 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            alt_period_check(self.POLY, [0.1], 64)
