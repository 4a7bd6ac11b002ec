import csv
import io
import json
import math
from fractions import Fraction

import pytest

from unitlat.estimator import (
    EPSILON,
    FieldProfile,
    cyclotomic_generic_profile,
    oracle_params,
    qubit_count_cyclotomic,
    qubit_count_generic,
    render_csv,
    render_json,
    render_table,
    sampler_qubits,
    slope_fit,
    totally_real_profile,
)
from unitlat.lattice_core import ConfigurationError

F = Fraction


class TestProfile:
    def test_degree_and_unit_rank_follow_the_signature(self):
        p = FieldProfile(n1=1, n2=2, d_log2=10)
        assert (p.n, p.m, p.d_log2) == (5, 2, F(10))
        assert FieldProfile._fields == ("n1", "n2", "d_log2")

    def test_negative_signature_rejected(self):
        for n1, n2 in ((-3, 0), (2, -1)):
            with pytest.raises(ConfigurationError, match="signature must be nonnegative"):
                FieldProfile(n1=n1, n2=n2, d_log2=10)

    @pytest.mark.parametrize("n1,n2", [(2, 0), (0, 1), (5, 0), (1, 3)])
    def test_zero_discriminant_rejected_from_degree_two(self, n1, n2):
        """Minkowski: |D| > 1 for every number field of degree >= 2, so
        log2 |D| = 0 names no field there."""
        with pytest.raises(ConfigurationError, match="must be > 0 at degree"):
            FieldProfile(n1=n1, n2=n2, d_log2=0)

    def test_zero_discriminant_allowed_at_degree_one(self):
        assert FieldProfile(n1=1, n2=0, d_log2=0).n == 1

    def test_negative_discriminant_rejected(self):
        """log2 |D| < 0 made Q negative (-4709 at n = 4, log2 |D| = -1000)."""
        with pytest.raises(ConfigurationError, match="discriminant"):
            totally_real_profile(4, -1000)

    def test_totally_real_helper(self):
        p = totally_real_profile(5, 30)
        assert (p.n, p.m, p.n2) == (5, 4, 0)


class TestOracleParams:
    def test_n2_d5_exact(self):
        # s = 3 * 2^4 * sqrt(10): log2 s = log2 3 + 4 + 0.5 log2 10
        p = FieldProfile(n1=2, n2=0, d_log2=F(math.log2(5)))
        params = oracle_params(p)
        expect = math.log2(3) + 4 + 0.5 * math.log2(10)
        assert abs(float(params["s_log2"]) - expect) < 1e-9
        assert params["epsilon"] == F(243, 1024)

    def test_lip_growth_bounded_ratio(self):
        ratios = []
        for n in range(2, 41):
            p = totally_real_profile(n, 3 * n)
            lip = float(oracle_params(p)["lip_log2"])
            m = p.m
            ratios.append(lip / (m * m + m * float(p.d_log2) + 1))
        assert max(ratios) / max(min(ratios), 1e-9) < 50
        assert all(r < 30 for r in ratios)

    def test_r_below_one_twelfth(self):
        for n in (2, 5, 10, 20, 40):
            p = totally_real_profile(n, 4 * n)
            r_log2 = oracle_params(p)["r_log2"]
            assert float(r_log2) < math.log2(1 / 12)

    def test_degree_one_rejected(self):
        with pytest.raises(ConfigurationError):
            oracle_params(FieldProfile(n1=1, n2=0, d_log2=3))


class TestSamplerQubits:
    def test_doubling_lip_adds_one(self):
        p = totally_real_profile(4, 20)
        lip = oracle_params(p)["lip_log2"]
        q1 = sampler_qubits(p, F(-5), F(1, 100), lip)
        q2 = sampler_qubits(p, F(-5), F(1, 100), lip + 1)
        assert q2 - q1 == 1

    def test_eta_range(self):
        p = totally_real_profile(4, 20)
        with pytest.raises(ConfigurationError):
            sampler_qubits(p, F(0), F(3, 4), oracle_params(p)["lip_log2"])

    def test_eta_one_over_k_sq_wiring(self):
        p = cyclotomic_generic_profile(20)
        est = qubit_count_generic(p, 10)
        direct = sampler_qubits(
            p,
            -(F(p.m) + p.d_log2 / p.m + 1),
            F(1, est.k * est.k),
            oracle_params(p)["lip_log2"],
        )
        assert est.q == direct


class TestGenericCount:
    def test_headline_m_1e4(self):
        est = qubit_count_generic(cyclotomic_generic_profile(10**4), 20)
        assert est.leading_term == F(10) ** 20
        # the full second term sits within one order of the headline
        assert 10**19 < est.terms[1] < 10**22

    def test_breakdown_sums(self):
        est = qubit_count_generic(totally_real_profile(6, 40), 20)
        assert est.total == sum(est.terms)
        assert all(t >= 0 for t in est.terms)

    def test_tau_halving_adds_m(self):
        p = totally_real_profile(6, 40)
        e1 = qubit_count_generic(p, 20)
        e2 = qubit_count_generic(p, 21)  # tau halved = one more bit
        assert e2.total - e1.total == p.m

    def test_monotone_in_d(self):
        totals = [
            qubit_count_generic(totally_real_profile(6, d), 20).total
            for d in (10, 100, 1000)
        ]
        assert totals == sorted(totals)

    def test_kummer_linear_in_logd(self):
        """Fixed degree, discriminant over 3 decades: total grows linearly."""
        n = 8
        ds = [10**3, 10**4, 10**5, 10**6]
        totals = [
            float(qubit_count_generic(totally_real_profile(n, F(d)), 20).total)
            for d in ds
        ]
        diffs = [b - a for a, b in zip(totals, totals[1:])]
        # log D is multiplied by 10 each step; increments scale by 10
        for d1, d2 in zip(diffs, diffs[1:]):
            assert abs(d2 / d1 - 10) < 1


class TestCyclotomicCount:
    def test_m5_finite(self):
        est = qubit_count_cyclotomic(5)
        assert est.total > 0
        assert est.total == sum(est.terms)

    def test_monotone(self):
        totals = [qubit_count_cyclotomic(m).total for m in (5, 50, 500, 5000)]
        assert totals == sorted(totals)

    def test_total_is_m2_log_m(self):
        m = 1000
        est = qubit_count_cyclotomic(m)
        assert abs(float(est.total) - m * m * math.log2(m)) < 1e-3 * float(est.total)

    def test_slope_in_range(self):
        ms = [101, 211, 467, 1009, 2161, 4649, 10007]
        ratios = [
            float(
                qubit_count_generic(cyclotomic_generic_profile(m), 20).total
                / qubit_count_cyclotomic(m).total
            )
            for m in ms
        ]
        slope = slope_fit(ms, ratios)
        assert 2.7 <= slope <= 3.3


class TestRendering:
    def test_csv_roundtrip(self):
        ests = [
            qubit_count_generic(cyclotomic_generic_profile(100), 20),
            qubit_count_cyclotomic(100),
        ]
        text = render_csv(ests)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert [r["model"] for r in rows] == ["generic", "cyclotomic"]
        for row, est in zip(rows, ests):
            assert abs(float(row["total_log10"]) - est.total_log10) < 1e-9

    def test_json_schema(self):
        est = qubit_count_cyclotomic(50)
        obj = json.loads(render_json([est]))[0]
        assert obj["model"] == "cyclotomic"
        assert len(obj["terms"]) == 6
        assert obj["epsilon"] == str(EPSILON)

    def test_table_contains_total(self):
        est = qubit_count_generic(totally_real_profile(3, 10), 20)
        text = render_table([est])
        assert "generic" in text and "total_log10" in text

    def test_epsilon_constant(self):
        assert EPSILON == F(243, 1024)
