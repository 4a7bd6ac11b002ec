import hashlib
import math
import random
from fractions import Fraction

import mpmath
import pytest

from unitlat import cyclotomic
from unitlat.buchmann_pohst import BPParams, bp_reduce, relation_norm_check
from unitlat.cyclotomic import (
    CyclotomicField,
    alt_period_check,
    cyclotomic_unit_generators,
    euler_phi,
    factorize,
    generator_shape,
    log_embedding,
)
from unitlat.lattice_core import (
    ConfigurationError,
    FixedPointVector,
    PrecisionError,
    RankError,
    norm_sq,
    sqrt_upper,
)

GOLDEN = (1 + math.sqrt(5)) / 2


class TestFieldData:
    def test_factorize(self):
        assert factorize(12) == {2: 2, 3: 1}
        assert factorize(97) == {97: 1}

    def test_euler_phi(self):
        assert [euler_phi(n) for n in (5, 7, 8, 9, 11, 12)] == [4, 6, 4, 6, 10, 4]

    def test_conductor_validation(self):
        with pytest.raises(ConfigurationError):
            CyclotomicField(6)  # 2 mod 4 duplicates conductor 3
        with pytest.raises(ConfigurationError):
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
        vals = [float(x) for x in vec.to_rationals()]
        assert abs(vals[0] - math.log(GOLDEN)) < 1e-12
        assert abs(vals[1] + math.log(GOLDEN)) < 1e-12

    def test_coordinate_sum_zero(self):
        """Unit logs live on the trace-zero hyperplane, so their span has rank
        at most phi(m)/2 - 1."""
        for m in (5, 7, 8, 9, 11, 12):
            f = CyclotomicField(m)
            for g in cyclotomic_unit_generators(f, 96):
                # exact mantissa arithmetic: the sum vanishes to within one
                # rounding ulp per coordinate
                total = sum(g.log.mantissas)
                assert abs(total) <= g.log.dim

    def test_zero_order_rejected(self):
        with pytest.raises(ConfigurationError):
            log_embedding([{5: 1}], CyclotomicField(5), 64)

    def test_wide_coordinate_escalates(self, monkeypatch):
        """An exponent of 2^40 widens each interval past 2^-64 at 96 working
        bits; the rebuilt table certifies it, and a cap below the rebuild
        raises PrecisionError."""
        f = CyclotomicField(5)
        with monkeypatch.context() as patch:
            patch.setattr(cyclotomic, "MAX_WORK_BITS", 100)
            with pytest.raises(PrecisionError, match="below 100 working bits"):
                log_embedding([{1: 2**40}], f, 64)
        (vec,) = log_embedding([{1: 2**40}], f, 64)
        with mpmath.workdps(60):
            expect = tuple(
                int(mpmath.nint(2**40 * mpmath.log(2 * mpmath.sin(mpmath.pi * a / 5)) * 2**64))
                for a in f.embedding_representatives
            )
        assert vec.mantissas == expect

    @pytest.mark.parametrize("m", [12, 25, 101])
    def test_one_table_per_conductor(self, m, monkeypatch):
        """Every generator of a conductor is read from one table per working
        precision: one integer log-sine per r <= m/2, as T[r] = T[m - r]."""
        calls = []
        real = cyclotomic._log_sine
        monkeypatch.setattr(cyclotomic, "_log_sine", lambda *a: calls.append(a[0]) or real(*a))
        gens = cyclotomic_unit_generators(CyclotomicField(m), 64)
        assert sorted(calls) == list(range(1, m // 2 + 1))
        assert len(gens) > 1
        calls.clear()
        log_embedding([{1: 2**40}], CyclotomicField(m), 64)  # rebuilt once at 192 bits
        assert len(calls) == 2 * (m // 2)


ADMISSIBLE = [m for m in range(3, 102) if m % 4 != 2]


def mp_bound(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


class TestLogSineTable:
    """The integer table and its pi against mpmath at twice their precision."""

    @pytest.mark.parametrize("work", [96, 160, 288])
    def test_entries_within_the_proven_bound(self, work):
        """Every centre is within 1/2 + 8 m P 2^-GUARD_BITS ulps of T[r] 2^work
        (P = work + GUARD_BITS), the rounded-up radius is at most that bound's
        ceiling, and the interval contains T[r]."""
        prec = work + cyclotomic.GUARD_BITS
        with mpmath.workprec(2 * work):
            scale = mpmath.mpf(2) ** work
            for m in ADMISSIBLE:
                centres, rad = cyclotomic._log_sine_table(m, work)
                bound = Fraction(1, 2) + Fraction(8 * m * prec, 2**cyclotomic.GUARD_BITS)
                assert rad <= math.ceil(bound)
                for r in range(1, m):
                    exact = mpmath.log(2 * mpmath.sin(mpmath.pi * r / m)) * scale
                    err = abs(exact - centres[r])
                    assert err <= mp_bound(bound), (m, r)
                    assert err <= rad, (m, r)

    def test_pi_rounds_to_nearest(self):
        """Within 1/2 + 2^-16 ulps at every precision the tables use here and
        at a spread of others."""
        bound = mp_bound(Fraction(1, 2) + Fraction(1, 2**16))
        for prec in [*range(8, 400, 7), 128, 192, 320, 4128]:
            with mpmath.workprec(2 * prec):
                err = abs(mpmath.pi * mpmath.mpf(2) ** prec - cyclotomic._pi(prec))
                assert err <= bound, prec


class TestReplay:
    # sha256 over "m bits j quotient_index mantissas..." lines, computed with
    # the earlier mpmath-interval table; the integer table reproduces it
    DIGEST = "0b4d8298f57026e323e83472607ce7dbe589455fba536b4024361a1d5d7b51e1"

    def test_generator_mantissas_pinned(self):
        h = hashlib.sha256()
        for m in (m for m in ADMISSIBLE if m <= 60):
            field = CyclotomicField(m)
            for bits in (64, 128):
                for g in cyclotomic_unit_generators(field, bits):
                    mants = " ".join(map(str, g.log.mantissas))
                    h.update(f"{m} {bits} {g.j} {g.quotient_index} {mants}\n".encode())
        assert h.hexdigest() == self.DIGEST


def projected_logs(m, bits=96):
    """Nonzero generator logs without their last coordinate (injective on the
    trace-zero hyperplane), as fixed-point rows."""
    field = CyclotomicField(m)
    rows = [g.log.mantissas[: field.unit_rank] for g in cyclotomic_unit_generators(field, bits)]
    return [FixedPointVector(r, bits) for r in rows if any(r)]


def bp_certified(rows):
    """bp_reduce with D the product of the row norms (each at least 1), an
    upper bound on det of the generated lattice whatever its rank."""
    d = 1
    for r in rows:
        d *= sqrt_upper(norm_sq(r.to_rationals()) + 1)
    return bp_reduce(rows, BPParams(mu=Fraction(1, 8), D=d))


class TestRank:
    @pytest.mark.parametrize("m", [5, 7, 8, 9, 11, 12])
    def test_rank_is_unit_rank(self, m):
        """The certified reconstruction finds unit_rank basis rows, so the span
        has rank phi(m)/2 - 1 (test_coordinate_sum_zero bounds it above)."""
        rows = projected_logs(m)
        res = bp_certified(rows)
        rank = CyclotomicField(m).unit_rank
        assert (len(res.basis_approx), len(res.relations)) == (rank, len(rows) - rank)
        assert relation_norm_check(res)

    def test_rank_deficient_rows_rejected(self):
        """Five m=11 rows spanning 3 of the 4 dimensions."""
        a, b, c = (r.mantissas for r in projected_logs(11)[:3])
        rows = [a, b, c, [x + y for x, y in zip(a, b)], [y - 2 * z for y, z in zip(b, c)]]
        with pytest.raises(RankError, match="more than k - m short columns"):
            bp_certified([FixedPointVector(tuple(r), 96) for r in rows])

    def test_nonunit_inclusion_would_inflate_rank(self):
        """Keeping the norm-4 element at m=12 would push the span off the
        trace-zero hyperplane."""
        f = CyclotomicField(12)
        (vec,) = log_embedding([{6: 1, 4: -1}], f, 96)
        assert abs(sum(vec.to_rationals())) > 0.1


class TestAltPeriodCheck:
    POLY = [1, -1, -1]  # x^2 - x - 1, the Q(sqrt 5) real subfield

    def planted(self):
        return [2 * math.log(GOLDEN), -2 * math.log(GOLDEN)]

    def test_planted_period(self):
        assert alt_period_check(self.POLY, self.planted()) < 2**-32

    def test_integer_multiples_are_periods(self):
        cand = [3 * x for x in self.planted()]
        assert alt_period_check(self.POLY, cand) < 2**-30

    def test_random_non_periods(self):
        rng = random.Random(0)
        hits = 0
        for _ in range(50):
            cand = [rng.uniform(-2, 2), rng.uniform(-2, 2)]
            if alt_period_check(self.POLY, cand) > 0.1:
                hits += 1
        assert hits >= 48  # a random vector is essentially never a period

    def test_complex_roots_rejected(self):
        with pytest.raises(ConfigurationError):
            alt_period_check([1, 0, 1], [0.1, 0.2])  # x^2 + 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            alt_period_check(self.POLY, [0.1])
