"""End-to-end `recover` runs at the largest ranks and dimensions the
nearest-plane sampler reaches in about a second each: before it, rank 10
took over a minute, rank-9 composites ran out of spanning samples (exit 2)
and `--synthetic --dim 12` did not finish in 20 s."""

import json
import math
from fractions import Fraction

import pytest

from test_regulator_oracle import group_determinant_regulator
from unitlat.buchmann_pohst import BPParams, bp_reduce
from unitlat.cli import main
from unitlat.cyclotomic import (
    CyclotomicField,
    cyclotomic_unit_generators,
    generator_exponents,
    log_embedding,
)
from unitlat.lattice_core import BasisMatrix, FixedPointVector, norm_sq, sqrt_upper
from unitlat.recovery import cyclotomic_log_basis, regulator_from_basis


def recover(argv, capsys):
    code = main(["recover"] + argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def test_m23_rank10_regulator_matches_group_determinant(capsys):
    out = recover(["--cyclotomic", "23", "--precision-bits", "128"], capsys)
    assert out["index"] == 1
    expect = group_determinant_regulator(23)
    assert abs(out["regulator"] - expect) <= 1e-10 * expect


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("m", [33, 44])
def test_rank9_composites_exit_0(m, seed, capsys):
    """The sampler spans the dual at m = 33 and 44. Their regulators are
    half the character oracle of test_regulator_oracle, and
    test_composite_regulators_stable_in_precision checks them against a
    second working precision."""
    argv = ["--cyclotomic", str(m), "--precision-bits", "128", "--seed", str(seed)]
    out = recover(argv, capsys)
    assert out["index"] == 1


@pytest.mark.parametrize(
    "m,expect", [(21, 2.19998118758548), (36, 5.088678168670572)]
)
def test_composite_recover_matches_minor_gcd_reference(m, expect, capsys):
    """recover at m = 21 and 36 reported 0.24627 and 0.84811 with exit 0
    while the basis came from bp_reduce's rounded basis_approx."""
    out = recover(["--cyclotomic", str(m), "--precision-bits", "128", "--seed", "1"], capsys)
    assert out["index"] == 1
    assert abs(out["regulator"] - expect) <= 1e-10 * expect


@pytest.mark.parametrize("m", [33, 44])
def test_composite_regulators_stable_in_precision(m):
    """The certified basis gives one regulator at 128 and 192 bits (122.639
    at m = 33, 274.612 at m = 44); bp_reduce's basis_approx gave 3.0859 and
    6.4661 at m = 33."""
    low, high = (regulator_from_basis(cyclotomic_log_basis(m, bits)) for bits in (128, 192))
    assert abs(low - high) <= 1e-10 * high


def bp_on_pair_generators(m):
    """bp_reduce as cyclotomic_log_basis called it before the exact
    relations: the log rows of the v_j with 2 j <= m, one per pair
    {j, m - j}, less zero and repeated rows, with mu = 1/8 and D the product
    of the rank largest sqrt(||row||^2 + 1). Returns the exponent maps of the
    rows kept and the result."""
    field = CyclotomicField(m)
    rank = field.unit_rank
    maps, rows = [], []
    for g in cyclotomic_unit_generators(field, 128):
        row = g.log.mantissas[:rank]
        if 2 * g.j <= m and any(row) and row not in rows:
            maps.append(generator_exponents(field, g.j, g.quotient_index))
            rows.append(row)
    fixed = [FixedPointVector(row, 128) for row in rows]
    factors = sorted(sqrt_upper(norm_sq(v.to_rationals()) + 1) for v in fixed)
    params = BPParams(mu=Fraction(1, 8), D=math.prod(factors[-rank:]))
    return maps, bp_reduce(fixed, params, q_bits=128)


WRONG_BP_BASIS = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="bp_reduce's basis coordinates reach about q = 128 bits here, so its "
    "basis_approx is off by about 2^-1 (ROADMAP item 10)",
)


@pytest.mark.parametrize(
    "m",
    [15, 28]
    + [pytest.param(m, marks=WRONG_BP_BASIS) for m in (21, 36, 33, 44)],
)
def test_bp_basis_coordinates_stay_short(m):
    """The unit basis bp_reduce returns for the cyclotomic generators is a
    short integer combination of them: 1-bit coefficients at m = 15 and 28.
    Coefficients near q bits are still exact coordinates of units, but
    bp_reduce's basis_approx, whose error grows with them, is then wrong."""
    _, result = bp_on_pair_generators(m)
    coords = [c.a for row in result.basis_coords for c in row]
    assert all(c.denominator == 1 for c in coords)
    assert max(abs(c.numerator).bit_length() for c in coords) < 64


@pytest.mark.parametrize("m", [12, 15, 20, 21, 24, 28, 33, 35, 36, 39, 40, 44, 45, 48, 52, 60])
def test_bp_basis_has_the_exact_relations_covolume(m):
    """The composites whose basis came from bp_reduce at 128 bits: the
    certified logs of the units its exact coordinates give span a lattice of
    the covolume the exact relations give. Each basis is its own 2^-128
    rounding of its units' logs, so the two are compared by covolume, not by
    lattices_equal (which told 9 of these 16 apart)."""
    maps, result = bp_on_pair_generators(m)
    field = CyclotomicField(m)
    products = []
    for row in result.basis_coords:
        exps = {}
        for c, g in zip(row, maps):
            for t, e in g.items():
                exps[t] = exps.get(t, 0) + int(c.a) * e
        products.append(exps)
    rank = field.unit_rank
    old = BasisMatrix([log.to_rationals()[:rank] for log in log_embedding(products, field, 128)])
    new = cyclotomic_log_basis(m, 128)
    assert abs(abs(old.det()) - abs(new.det())) <= Fraction(1, 2**100) * abs(new.det())


@pytest.mark.parametrize("dim", [12, 20])
def test_synthetic_high_dimension(dim, capsys):
    out = recover(["--synthetic", "--dim", str(dim)], capsys)
    assert out["index"] == 1
    assert len(out["basis"]["rows"]) == dim
