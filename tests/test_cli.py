import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import unitlat
from unitlat.cli import main
from unitlat.lattice_core import BasisMatrix
from unitlat.reduction import OKMatrix
from unitlat.rings import EISENSTEIN, GAUSSIAN, INTEGERS, RingElement

F = Fraction


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def shrink_index_bound(monkeypatch):
    """Planted problems promise index 1, whatever index they hide. cli
    imports make_planted_problem when recover runs, so the patch is on
    recovery."""
    import unitlat.recovery as rec

    orig = rec.make_planted_problem

    def shrunk(dim, index=1, seed=0, **kw):
        return orig(dim, index, seed, **kw).replace(index_bound=1)

    monkeypatch.setattr(rec, "make_planted_problem", shrunk)


def ok_json(ring, entries):
    """The JSON of the OKMatrix over ring with entries a + b omega."""
    rows = tuple(tuple(RingElement(a, b, ring.kind) for a, b in row) for row in entries)
    return OKMatrix(rows, ring).to_json()


def child_env():
    """Environment in which a child interpreter imports unitlat from where this
    process found it (pytest's pythonpath setting does not reach subprocesses)."""
    src = os.path.dirname(os.path.dirname(unitlat.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


class TestRecoverCommand:
    def test_synthetic_index_two(self, capsys):
        code, out, _ = run_cli(
            ["recover", "--synthetic", "--dim", "2", "--index", "2", "--seed", "7", "--k", "24"],
            capsys,
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["index"] == 2
        assert obj["provenance"]["seed"] == 7

    def test_cyclotomic_regulator(self, capsys):
        code, out, _ = run_cli(["recover", "--cyclotomic", "5", "--precision-bits", "128"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert abs(obj["regulator"] - 0.481211825) < 1e-6

    def test_missing_file_exit_1(self, capsys):
        code, _, err = run_cli(["recover", "--config", "/nonexistent/x.json"], capsys)
        assert code == 1
        assert err

    def test_no_mode_exit_1(self, capsys):
        code, _, _ = run_cli(["recover"], capsys)
        assert code == 1

    def test_contract_violation_exit_3(self, capsys, tmp_path, monkeypatch):
        shrink_index_bound(monkeypatch)
        code, _, err = run_cli(
            ["recover", "--synthetic", "--dim", "2", "--index", "3", "--seed", "1", "--k", "24"],
            capsys,
        )
        assert code == 3

    def test_config_file(self, capsys, tmp_path):
        cfg = {"mode": "sublattice", "instance": {"dim": 2, "index": 1}, "seed": 5}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(["recover", "--config", str(path), "--k", "24"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["index"] == 1
        # the provenance records the seed the run used, the config's
        assert obj["provenance"]["seed"] == 5

    def test_config_without_seed_reads_the_flag(self, capsys, tmp_path):
        """A config with no seed key runs --seed, as --synthetic does."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"instance": {"dim": 3, "index": 2}}))
        _, via_config, _ = run_cli(
            ["recover", "--config", str(path), "--k", "24", "--seed", "4"], capsys
        )
        _, direct, _ = run_cli(
            ["recover", "--synthetic", "--dim", "3", "--index", "2", "--k", "24", "--seed", "4"],
            capsys,
        )
        a, b = json.loads(via_config), json.loads(direct)
        assert a.pop("provenance")["seed"] == b.pop("provenance")["seed"] == 4
        assert a == b


class TestBaselineNoise:
    """The baseline counts only the sample bits above the sampler noise: where
    those fall below the derived q it reports infeasible and exits 0."""

    @pytest.mark.parametrize(
        "argv",
        [["--synthetic", "--dim", "2", "--index", "2"], ["--synthetic", "--dim", "3", "--k", "12"]],
        ids=["dim2", "dim3"],
    )
    def test_noisy_baseline_is_infeasible(self, argv, capsys):
        code, out, _ = run_cli(["recover", *argv, "--baseline"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["feasible"] is False
        assert obj["input_bits"] < obj["required_q"]
        assert "basis" not in obj

    def test_m5_no_longer_claims_a_basis(self, capsys):
        """Before the sampler noise was counted this printed the basis
        [["1048576/121"]] (about 8666) for a regulator of
        log((1 + sqrt 5)/2) = 0.4812."""
        _, out, _ = run_cli(
            ["recover", "--cyclotomic", "5", "--precision-bits", "128", "--baseline"], capsys
        )
        obj = json.loads(out)
        assert (obj["feasible"], obj["input_bits"], obj["required_q"]) == (False, 0, 5)

    def test_planted_config_baseline(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mode": "baseline", "instance": {"dim": 2, "index": 2}}))
        code, out, _ = run_cli(["recover", "--config", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["feasible"] is False


class TestEstimateCommand:
    def test_compare_table(self, capsys):
        code, out, _ = run_cli(
            ["estimate", "--cyclotomic", "10000", "--compare"], capsys
        )
        assert code == 0
        assert "generic" in out and "cyclotomic" in out
        # the generic total_log10 column shows the ~10^21 scale
        gen_row = next(l for l in out.splitlines() if l.startswith("generic"))
        assert float(gen_row.split()[-1]) > 20

    def test_single_row(self, capsys):
        code, out, _ = run_cli(["estimate", "--m", "2", "--logD", "3"], capsys)
        assert code == 0
        assert "generic" in out

    def test_csv_json_roundtrip(self, capsys):
        code, csv_out, _ = run_cli(
            ["estimate", "--cyclotomic", "100", "--format", "csv"], capsys
        )
        assert code == 0
        code, json_out, _ = run_cli(
            ["estimate", "--cyclotomic", "100", "--format", "json"], capsys
        )
        assert code == 0
        obj = json.loads(json_out)[0]
        line = csv_out.splitlines()[1].split(",")
        header = csv_out.splitlines()[0].split(",")
        row = dict(zip(header, line))
        assert abs(float(row["total_log10"]) - obj["total_log10"]) < 1e-9

    def test_missing_profile_exit_1(self, capsys):
        code, _, _ = run_cli(["estimate"], capsys)
        assert code == 1


class TestReduceBPSample:
    def test_reduce_identity(self, capsys, tmp_path):
        path = tmp_path / "mat.json"
        path.write_text(BasisMatrix.identity(2).dumps())
        code, out, _ = run_cli(["reduce", "--in", str(path), "--verify"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["verified"] is True
        assert obj["reduced"]["rows"] == [["1", "0"], ["0", "1"]]

    def test_bp_gcd(self, capsys, tmp_path):
        path = tmp_path / "gens.json"
        q = 32
        path.write_text(
            json.dumps({"q": q, "vectors": [[2 << q], [3 << q]], "mu": "1", "D": "4"})
        )
        code, out, _ = run_cli(["bp", "--in", str(path), "--verify"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["basis"] == [["1"]] or obj["basis"] == [["-1"]]
        assert obj["verified"] is True

    def test_sample_delta_zero_coverage(self, capsys, tmp_path):
        path = tmp_path / "dual.json"
        path.write_text(BasisMatrix.identity(2).dumps())
        code, out, _ = run_cli(
            [
                "sample", "--dual", str(path), "--delta", "0", "--sigma", "2",
                "--r", "7", "--count", "200", "--seed", "3", "--verify",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        contract = json.loads(lines[-1])["contract"]
        assert contract["coverage"] == 1.0

    def test_sample_r_is_read_by_verify(self, capsys, tmp_path):
        """--r sets the contract's concentration radius, default 4."""
        path = tmp_path / "dual.json"
        path.write_text(BasisMatrix.identity(2).dumps())
        outs = []
        for r in ([], ["--r", "4"], ["--r", "1"]):
            argv = ["sample", "--dual", str(path), "--sigma", "2", "--count", "50", "--verify"]
            code, out, _ = run_cli(argv + r, capsys)
            assert code == 0
            outs.append(json.loads(out.strip().splitlines()[-1])["contract"])
        assert outs[0] == outs[1]
        assert outs[2]["concentration_mass"] < outs[1]["concentration_mass"]

    def test_sample_beyond_float_range_delta_zero(self, capsys, tmp_path):
        """lambda_1 = 10^400 does not fit in a float; with no noise the draw
        never needs it to, and lands on the lattice points (a, 0) with
        |a| 10^400 <= 3 sigma, i.e. on 0."""
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"m": 2, "rows": [["1e400", "0"], ["0", "1e400"]]}))
        code, out, _ = run_cli(
            ["sample", "--dual", str(path), "--count", "20", "--verify"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert all(json.loads(line)["gt"] == [0, 0] for line in lines[:-1])
        assert json.loads(lines[-1])["contract"]["coverage"] == 1.0

    def test_reduce_verify_is_the_lll_certificate(self, capsys, tmp_path):
        """diag(1, 100) is LLL-reduced (it fails only the near-cubic norm
        shape check), and so is a reduced Gaussian-integer basis."""
        path = tmp_path / "mat.json"
        path.write_text(json.dumps({"m": 2, "rows": [["1", "0"], ["0", "100"]]}))
        code, out, _ = run_cli(["reduce", "--in", str(path), "--verify"], capsys)
        assert code == 0 and json.loads(out)["verified"] is True
        entries = (((3, 1), (1, 0)), ((0, 2), (5, -1)))
        gaussian = OKMatrix(
            tuple(tuple(RingElement(a, b, GAUSSIAN.kind) for a, b in row) for row in entries),
            GAUSSIAN,
        )
        path.write_text(json.dumps(gaussian.to_json()))
        code, out, _ = run_cli(["reduce", "--in", str(path), "--verify"], capsys)
        assert code == 0 and json.loads(out)["verified"] is True

    # sha256 of reduce --verify's output without provenance, taken when the
    # ring was still a flag (--ring integers for the Z file, --ring gaussian
    # for the others)
    RING_FILES = [
        ({"m": 3, "rows": [["201", "37", "5"], ["1648", "297", "-3"], ["7/2", "1", "9"]]},
         "779f8f69e7ab00bb2e038c846d29cfce7cc998b5774ecc16bb565e6626a37156"),
        (ok_json(GAUSSIAN, (((3, 1), (1, 0)), ((0, 2), (5, -1)))),
         "b4b5e0642ca420e48facae463114d68f588ee85542ad84ca6085d864ccce10d5"),
        (ok_json(EISENSTEIN, (((3, 1), (1, 0)), ((0, 2), (5, -1)))),
         "203d7063313f474f1ec955db7f41861761bb6adb2bea2cda3e93513964ba5de9"),
        (ok_json(INTEGERS, (((201, 0), (37, 0)), ((1648, 0), (297, 0)))),
         "2a605100b630f6be8f88bb7023fa532b77f23e3364f67d9c480a3bdca9bbebcb"),
    ]

    @pytest.mark.parametrize(
        "obj,digest", RING_FILES, ids=["Z", "Z[i]", "Z[zeta_3]", "integers OKMatrix"]
    )
    def test_reduce_reads_the_ring_from_the_file(self, obj, digest, capsys, tmp_path):
        """A file with a ring key is an OKMatrix over that ring, one without
        it a BasisMatrix over Z; the output is the one --ring used to give."""
        path = tmp_path / "mat.json"
        path.write_text(json.dumps(obj))
        code, out, _ = run_cli(["reduce", "--in", str(path), "--verify"], capsys)
        assert code == 0
        got = json.loads(out)
        del got["provenance"]
        assert got["verified"] is True
        assert hashlib.sha256(json.dumps(got, sort_keys=True).encode()).hexdigest() == digest

    def test_malformed_matrix_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, _ = run_cli(["reduce", "--in", str(path)], capsys)
        assert code == 1


class TestExitCodes:
    """main alone turns failures into exit codes, each with one stderr line."""

    FILES = {
        "singular.json": {"m": 2, "rows": [["1", "2"], ["2", "4"]]},
        # three multiples of (1, 0): rank 1 in dimension 2, enough bits for q
        "rank1.json": {"q": 16, "mu": "1", "D": "4",
                       "vectors": [[1 << 16, 0], [2 << 16, 0], [3 << 16, 0]]},
        "array.json": [["1", "0"], ["0", "1"]],
        "id2.json": {"m": 2, "rows": [["1", "0"], ["0", "1"]]},
        # lambda_1 = 10^400, beyond the float range
        "huge.json": {"m": 2, "rows": [["1e400", "0"], ["0", "1e400"]]},
        "mode-typo.json": {"mode": "baselin", "instance": {"dim": 2}},
        "seeded.json": {"seed": 3, "instance": {"dim": 2}},
        "planted.json": {"instance": {"dim": 2}},
        "instance-array.json": {"instance": [3]},
        "config-unread-keys.json": {"mode": "sublattice", "seed": 1, "k": 999, "precision_bits": 7,
                                    "instance": {"dim": 3, "index": 2, "conductor": 5}},
        "conductor-and-dim.json": {"instance": {"conductor": 5, "dim": 3}},
        "instance-typo.json": {"instance": {"dim": 3, "indx": 2}},
        "instance-empty.json": {"instance": {}},
        # numbers a config must give as JSON integers: none is truncated
        "float-dim.json": {"instance": {"dim": 2.9, "index": 1}, "seed": 1.7},
        "float-index.json": {"instance": {"dim": 2, "index": 1.0}},
        "float-seed.json": {"instance": {"dim": 2}, "seed": 1.7},
        "bool-seed.json": {"instance": {"conductor": 11}, "seed": True},
        "float-conductor.json": {"instance": {"conductor": 11.5}},
        "string-dim.json": {"instance": {"dim": "3"}},
        "dict-entries.json": {"m": 2, "rows": [[{"a": "1"}, "0"], ["0", "1"]]},
        "zero-denominator.json": {"ring": "gaussian", "rows": [[{"a": "1/0", "b": "0",
                                                                 "ring": "gaussian"}]]},
        "ring-int-entries.json": {"ring": "gaussian", "rows": [[1, 0], [0, 1]]},
        "ragged.json": {"q": 16, "mu": "1", "D": "4", "vectors": [[1, 2], [2]]},
        "ragged-long.json": {"q": 16, "mu": "1", "D": "4", "vectors": [[1 << 32, 0], [0]]},
        # numbers a bp or matrix file must give as JSON integers: none is truncated
        "float-q.json": {"q": 32.9, "mu": "1", "D": "4", "vectors": [[2 << 32], [3 << 32]]},
        "float-vector.json": {"q": 32, "mu": "1", "D": "4",
                              "vectors": [[8589934592.7], [12884901888]]},
        "bool-vector.json": {"q": 0, "mu": "1", "D": "4", "vectors": [[True], [3]]},
        "bool-mu.json": {"q": 32, "mu": True, "D": "4", "vectors": [[2 << 32], [3 << 32]]},
        "float-m.json": {"m": 2.7, "rows": [["1", "0"], ["0", "1"]]},
        "bool-rows.json": {"m": 2, "rows": [[True, 0], [0, 1]]},
    }
    # (id, argv, exit code, stderr prefix)
    CASES = [
        ("singular-reduce", ["reduce", "--in", "singular.json"], 1,
         "error: basis matrix is singular"),
        ("conductor-6", ["recover", "--cyclotomic", "6"], 1,
         "error: conductor must be >= 3"),
        ("precision-8", ["recover", "--cyclotomic", "12", "--precision-bits", "8"], 1,
         "error: input precision 8 bits < required q"),
        ("precision-0", ["recover", "--cyclotomic", "5", "--precision-bits", "0"], 1,
         "error: generator logs vanish at 0 bits"),
        ("rank-deficient-bp", ["bp", "--in", "rank1.json"], 1,
         "error: more than k - m short columns"),
        ("insufficient-samples", ["recover", "--synthetic", "--dim", "3", "--k", "1"], 2,
         "error: coordinate rows span rank"),
        ("contract-violation",
         ["recover", "--synthetic", "--dim", "2", "--index", "3", "--seed", "1", "--k", "24"],
         3, "error: recovered index 3 exceeds the bound 1: the index bound does not hold, "
         "or the samples span a proper sublattice of L*; retry with a larger --k or a "
         "fresh seed"),
        ("synthetic-dim-150", ["recover", "--synthetic", "--dim", "150"], 1,
         "error: nearest-plane draws left the 3 sigma ball"),
        ("array-reduce", ["reduce", "--in", "array.json"], 1,
         "error: array.json: top level must be a JSON object, not list"),
        ("dict-entries-reduce", ["reduce", "--in", "dict-entries.json"], 1,
         "error: dict-entries.json: malformed matrix entries"),
        ("zero-denominator-reduce", ["reduce", "--in", "zero-denominator.json"], 1,
         "error: zero-denominator.json: malformed matrix entries"),
        ("ring-int-entries-reduce", ["reduce", "--in", "ring-int-entries.json"], 1,
         "error: ring-int-entries.json: malformed matrix entries"),
        ("array-sample", ["sample", "--dual", "array.json"], 1,
         "error: array.json: top level must be a JSON object, not list"),
        ("array-bp", ["bp", "--in", "array.json"], 1,
         "error: array.json: top level must be a JSON object, not list"),
        ("sample-negative-precision",
         ["sample", "--dual", "id2.json", "--precision-bits", "-1"], 1,
         "error: fixed-point exponent must be >= 0"),
        ("sample-huge-lambda-noise",
         ["sample", "--dual", "huge.json", "--delta", "1/4"], 1,
         "error: lambda_1 is beyond the float range"),
        ("sample-huge-sigma", ["sample", "--dual", "huge.json", "--sigma", "1e400"], 1,
         "error: sigma is beyond the float range"),
        ("recover-negative-precision",
         ["recover", "--cyclotomic", "5", "--precision-bits", "-1"], 1,
         "error: fixed-point exponent must be >= 0"),
        ("config-unknown-mode", ["recover", "--config", "mode-typo.json"], 1,
         "error: mode-typo.json: mode must be 'sublattice' or 'baseline', not 'baselin'"),
        ("config-seed-and-flag", ["recover", "--config", "seeded.json", "--seed", "5"], 1,
         "usage error: --seed is not read with a config that sets seed"),
        ("config-seed-and-flag-zero", ["recover", "--config", "seeded.json", "--seed", "0"], 1,
         "usage error: --seed is not read with a config that sets seed"),
        ("config-instance-array", ["recover", "--config", "instance-array.json"], 1,
         "error: instance-array.json: instance must be a JSON object"),
        ("config-unread-keys", ["recover", "--config", "config-unread-keys.json"], 1,
         "error: config-unread-keys.json: keys not read: ['k', 'precision_bits', 'dim', 'index']"),
        ("config-conductor-and-dim", ["recover", "--config", "conductor-and-dim.json"], 1,
         "error: conductor-and-dim.json: keys not read: ['dim']"),
        ("config-instance-typo", ["recover", "--config", "instance-typo.json"], 1,
         "error: instance-typo.json: keys not read: ['indx']"),
        ("config-instance-empty", ["recover", "--config", "instance-empty.json"], 1,
         "error: instance-empty.json: instance must set conductor or dim"),
        ("config-float-dim", ["recover", "--config", "float-dim.json"], 1,
         "error: float-dim.json: dim must be a JSON integer, got 2.9\n"),
        ("config-float-index", ["recover", "--config", "float-index.json"], 1,
         "error: float-index.json: index must be a JSON integer, got 1.0\n"),
        ("config-float-seed", ["recover", "--config", "float-seed.json"], 1,
         "error: float-seed.json: seed must be a JSON integer, got 1.7\n"),
        ("config-bool-seed", ["recover", "--config", "bool-seed.json"], 1,
         "error: bool-seed.json: seed must be a JSON integer, got true\n"),
        ("config-float-conductor", ["recover", "--config", "float-conductor.json"], 1,
         "error: float-conductor.json: conductor must be a JSON integer, got 11.5\n"),
        ("config-string-dim", ["recover", "--config", "string-dim.json"], 1,
         'error: string-dim.json: dim must be a JSON integer, got "3"\n'),
        ("planted-config-precision",
         ["recover", "--config", "planted.json", "--precision-bits", "999"], 1,
         "usage error: --precision-bits is not read with a planted config instance"),
        ("reduce-delta-zero-denominator", ["reduce", "--in", "id2.json", "--delta", "1/0"], 1,
         "usage error: argument --delta: invalid rational value: '1/0'"),
        ("sample-sigma-zero-denominator", ["sample", "--dual", "id2.json", "--sigma", "1/0"], 1,
         "usage error: argument --sigma: invalid rational value: '1/0'"),
        ("sample-delta-zero-denominator", ["sample", "--dual", "id2.json", "--delta", "1/0"], 1,
         "usage error: argument --delta: invalid rational value: '1/0'"),
        ("estimate-logD-zero-denominator", ["estimate", "--m", "3", "--logD", "1/0"], 1,
         "usage error: argument --logD: invalid rational value: '1/0'"),
        ("estimate-kummer-zero-denominator", ["estimate", "--kummer", "3", "1/0"], 1,
         "usage error: argument --kummer: invalid rational value: '1/0'"),
        ("reduce-delta-huge", ["reduce", "--in", "id2.json", "--delta", "1e400"], 1,
         "error: delta must lie in (1/4, 1) for ring integers, got "
         + "1" + "0" * 39 + "... (401 characters)\n"),
        ("estimate-logD-negative", ["estimate", "--m", "3", "--logD", "-1000"], 1,
         "error: log2 |discriminant| must be >= 0, got -1000"),
        ("estimate-kummer-negative", ["estimate", "--kummer", "2", "-5"], 1,
         "error: log2 |discriminant| must be >= 0, got -5"),
        ("estimate-kummer-zero-discriminant", ["estimate", "--kummer", "2", "0"], 1,
         "error: log2 |discriminant| must be > 0 at degree 2\n"),
        ("estimate-kummer-5-zero-discriminant", ["estimate", "--kummer", "5", "0"], 1,
         "error: log2 |discriminant| must be > 0 at degree 5\n"),
        ("estimate-logD-zero", ["estimate", "--m", "3", "--logD", "0"], 1,
         "error: log2 |discriminant| must be > 0 at degree 4\n"),
        ("estimate-kummer-negative-degree", ["estimate", "--kummer", "-3", "5"], 1,
         "error: signature must be nonnegative, got (-3, 0)\n"),
        ("estimate-kummer-degree-0", ["estimate", "--kummer", "0", "5"], 1,
         "error: degree must be at least 2\n"),
        ("estimate-kummer-fraction-degree", ["estimate", "--kummer", "3/2", "5"], 1,
         "usage error: argument --kummer: N must be an integer, got '3/2'\n"),
        ("estimate-kummer-exponent-degree", ["estimate", "--kummer", "1e3", "5"], 1,
         "usage error: argument --kummer: N must be an integer, got '1e3'\n"),
        ("estimate-compare-conductor-0", ["estimate", "--cyclotomic", "0", "--compare"], 1,
         "error: conductor must be at least 3"),
        ("estimate-compare-conductor-negative",
         ["estimate", "--cyclotomic", "-4", "--compare"], 1,
         "error: conductor must be at least 3"),
        ("ragged-bp", ["bp", "--in", "ragged.json"], 1,
         "error: generators differ in dimension"),
        ("ragged-long-bp", ["bp", "--in", "ragged-long.json"], 1,
         "error: generators differ in dimension"),
        ("float-q-bp", ["bp", "--in", "float-q.json"], 1,
         "error: float-q.json: q must be a JSON integer, got 32.9\n"),
        ("float-vector-bp", ["bp", "--in", "float-vector.json"], 1,
         "error: float-vector.json: vectors entry must be a JSON integer, got 8589934592.7\n"),
        ("bool-vector-bp", ["bp", "--in", "bool-vector.json"], 1,
         "error: bool-vector.json: vectors entry must be a JSON integer, got true\n"),
        ("bool-mu-bp", ["bp", "--in", "bool-mu.json"], 1,
         "error: bool-mu.json: mu must be a rational, not a boolean\n"),
        ("float-m-reduce", ["reduce", "--in", "float-m.json"], 1,
         "error: float-m.json: malformed matrix entries (m must be a JSON integer, got 2.7)\n"),
        ("bool-rows-reduce", ["reduce", "--in", "bool-rows.json"], 1,
         "error: bool-rows.json: malformed matrix entries (rows entries must be integers "
         "or rational strings, not booleans)\n"),
        ("bool-rows-sample", ["sample", "--dual", "bool-rows.json"], 1,
         "error: bool-rows.json: malformed matrix entries (rows entries must be integers "
         "or rational strings, not booleans)\n"),
        ("dict-entries-sample", ["sample", "--dual", "dict-entries.json"], 1,
         "error: dict-entries.json: malformed matrix entries"),
    ]

    @pytest.mark.parametrize("name,argv,code,prefix", CASES, ids=[c[0] for c in CASES])
    def test_exit_code(self, name, argv, code, prefix, capsys, tmp_path, monkeypatch):
        for fname, obj in self.FILES.items():
            (tmp_path / fname).write_text(json.dumps(obj))
        monkeypatch.chdir(tmp_path)
        if name == "contract-violation":
            shrink_index_bound(monkeypatch)
        got, out, err = run_cli(argv, capsys)
        assert (got, out) == (code, "")
        assert err.startswith(prefix) and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("m", [35, 39, 45, 52])
    def test_composites_at_128_bits_exit_0(self, m, capsys):
        """One generator per pair {j, m - j} takes bp_reduce's derived q to
        122-128 bits here; with both members of each pair it was 130-140,
        and each run exited 1 with "input precision 128 bits < required q"."""
        argv = ["recover", "--cyclotomic", str(m), "--precision-bits", "128"]
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["index"] == 1

    def test_prime_power_at_8_bits_exits_0(self, capsys):
        """m = 5 at 8 bits raised "input precision 8 bits < required q" while
        its unit basis came from bp_reduce; the Galois orbit basis needs no q,
        and the regulator is log of the golden ratio to the working bits."""
        code, out, err = run_cli(["recover", "--cyclotomic", "5", "--precision-bits", "8"], capsys)
        assert (code, err) == (0, "")
        golden = (1 + math.sqrt(5)) / 2
        assert abs(json.loads(out)["regulator"] - math.log(golden)) <= 2**-7


class TestRejectedFlags:
    """Flags a subcommand does not read, and values outside a flag's domain,
    are usage errors, not ignored."""

    REJECTED = [
        ("recover", ["--format", "csv"]),
        ("recover", ["--verify"]),
        ("estimate", ["--seed", "1"]),
        ("estimate", ["--precision-bits", "64"]),
        ("estimate", ["--verify"]),
        ("reduce", ["--seed", "1"]),
        ("reduce", ["--precision-bits", "64"]),
        ("reduce", ["--format", "csv"]),
        ("reduce", ["--ring", "gaussian"]),
        ("bp", ["--seed", "1"]),
        ("bp", ["--precision-bits", "64"]),
        ("bp", ["--format", "csv"]),
        ("sample", ["--format", "csv"]),
        ("recover", ["--k", "0"]),
        ("sample", ["--count", "-2"]),
        ("estimate", ["--tau-log2", "-3", "--compare"]),
    ]
    BASE = {
        "recover": ["recover", "--synthetic"],
        "estimate": ["estimate", "--cyclotomic", "100"],
        "reduce": ["reduce", "--in", "mat.json"],
        "bp": ["bp", "--in", "gens.json"],
        "sample": ["sample", "--dual", "dual.json"],
    }

    @pytest.mark.parametrize(
        "command,flag", REJECTED, ids=[f"{c}{f[0]}" for c, f in REJECTED]
    )
    def test_usage_error(self, command, flag, capsys):
        code, out, err = run_cli(self.BASE[command] + flag, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("usage error:") and flag[0] in err

    # (argv, the flag the error names): two modes at once, or a flag the
    # chosen mode does not read; no file is opened before the check
    MODE_REJECTED = [
        (["recover", "--cyclotomic", "5", "--dim", "3", "--index", "7"], "--dim"),
        (["recover", "--cyclotomic", "5", "--index", "7"], "--index"),
        (["recover", "--config", "c.json", "--dim", "3"], "--dim"),
        (["recover", "--synthetic", "--precision-bits", "999"], "--precision-bits"),
        (["recover", "--config", "c.json", "--baseline"], "--baseline"),
        (["recover", "--config", "c.json", "--cyclotomic", "5", "--baseline"], "--cyclotomic"),
        (["recover", "--synthetic", "--cyclotomic", "5"], "--cyclotomic"),
        (["estimate", "--cyclotomic", "101", "--kummer", "3", "5", "--logD", "7"], "--kummer"),
        (["estimate", "--cyclotomic", "101", "--logD", "7"], "--logD"),
        (["estimate", "--kummer", "3", "5", "--logD", "7"], "--logD"),
        (["estimate", "--m", "2", "--logD", "3", "--compare"], "--compare"),
        (["estimate", "--kummer", "3", "5", "--compare"], "--compare"),
        (["estimate", "--cyclotomic", "101", "--tau-log2", "99"], "--tau-log2"),
        (["sample", "--dual", "dual.json", "--r", "7"], "--r"),
    ]

    @pytest.mark.parametrize(
        "argv,flag", MODE_REJECTED, ids=[" ".join(a) for a, _ in MODE_REJECTED]
    )
    def test_flag_unread_by_mode(self, argv, flag, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("usage error:") and flag in err

    def test_tau_log2_read_where_it_counts(self, capsys):
        outs = []
        for tau in ("20", "60"):
            code, out, _ = run_cli(
                ["estimate", "--cyclotomic", "101", "--compare", "--tau-log2", tau], capsys
            )
            assert code == 0
            outs.append(out)
        _, default, _ = run_cli(["estimate", "--cyclotomic", "101", "--compare"], capsys)
        assert outs[0] == default != outs[1]

    def test_config_hash_keeps_plain_defaults(self, capsys):
        """Mode-specific defaults are filled in after the check, so the hashed
        namespace is unchanged (value computed before the check existed)."""
        _, out, _ = run_cli(
            ["recover", "--cyclotomic", "5", "--precision-bits", "128", "--seed", "1"], capsys
        )
        assert json.loads(out)["provenance"]["config_hash"] == "1d13a4919db400ad"

    def test_config_hash_keeps_the_seed_default(self, capsys):
        """--seed parses to None and is filled in as 0: an invocation without
        it hashes as before (value computed when --seed defaulted to 0)."""
        _, out, _ = run_cli(["recover", "--synthetic", "--dim", "2", "--k", "24"], capsys)
        provenance = json.loads(out)["provenance"]
        assert provenance["config_hash"] == "8e4b9680bdc74e06"
        assert provenance["seed"] == 0


class TestReplayDeterminism:
    CASES = [
        ["recover", "--synthetic", "--dim", "2", "--index", "2", "--seed", "7", "--k", "24"],
        ["recover", "--cyclotomic", "5", "--precision-bits", "96"],
        ["estimate", "--cyclotomic", "1000", "--compare", "--format", "json"],
    ]

    @pytest.mark.parametrize("case", CASES, ids=["synthetic", "cyclotomic", "estimate"])
    def test_byte_identical(self, case, capsys):
        _, out1, _ = run_cli(case, capsys)
        _, out2, _ = run_cli(case, capsys)
        assert out1 == out2

    def test_synthetic_dim32_pinned(self, capsys):
        """Rank 32 runs the HNF and SNF on 32 x 32 coordinate data; the
        digest was taken while both still carried unimodular transforms."""
        code, out, _ = run_cli(["recover", "--synthetic", "--dim", "32", "--seed", "1"], capsys)
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "28f9d876c31aba64b7c9faf2dd85c8e01bc0b33a88cc7023a1705ff1a6be63ef"

    def test_sample_replay_out_files(self, tmp_path, capsys):
        path = tmp_path / "dual.json"
        path.write_text(BasisMatrix.identity(2).dumps())
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            code, _, _ = run_cli(
                [
                    "sample", "--dual", str(path), "--sigma", "1", "--count", "50",
                    "--seed", "9", "--out", str(out),
                ],
                capsys,
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "unitlat.cli", "--version"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.strip()

    def test_import_loads_no_numerics_library(self):
        """Importing the CLI loads neither mpmath (only alt_period_check
        imports it, lazily) nor numpy."""
        code = "import sys, unitlat.cli; print(sorted({'mpmath', 'numpy'} & set(sys.modules)))"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_cold_import_loads_no_record_machinery(self):
        """`recover` pays the CLI's import in every fresh interpreter. The
        records generate no code, so neither dataclasses nor inspect (nor
        ast, dis or tokenize, which they import) is loaded. Each command
        imports what it uses, so of unitlat only lattice_core, with the
        error classes, loads with the CLI; the estimator, with csv, loads
        only for `estimate`. pytest itself imports dataclasses, hence the
        child interpreter."""
        guarded = ["ast", "csv", "dataclasses", "dis", "inspect", "tokenize"]
        code = (
            f"import sys, unitlat.cli; print(sorted(set({guarded!r}) & set(sys.modules)), "
            "sorted(m for m in sys.modules if m.startswith('unitlat')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[] ['unitlat', 'unitlat.cli', 'unitlat.lattice_core']"

    def test_planted_recover_loads_no_cyclotomic_code(self):
        """A planted recovery imports recovery and what it draws and reduces
        with, but neither the cyclotomic field code nor bp_reduce."""
        code = (
            "import sys, unitlat.cli\n"
            "rc = unitlat.cli.main(['recover', '--synthetic', '--dim', '3', '--index', '2',"
            " '--k', '36'])\n"
            "print(rc, sorted({'unitlat.cyclotomic', 'unitlat.buchmann_pohst'} & set(sys.modules)),"
            " 'unitlat.recovery' in sys.modules, file=sys.stderr)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.strip().splitlines()[-1] == "0 [] True"

    def test_cyclotomic_recover_loads_no_mpmath(self):
        """The certified log table is integer arithmetic: a whole cyclotomic
        recovery runs without importing mpmath."""
        code = (
            "import sys, unitlat.cli\n"
            "rc = unitlat.cli.main(['recover', '--cyclotomic', '13', '--precision-bits', '128',"
            " '--seed', '1'])\n"
            "print(rc, 'mpmath' in sys.modules, file=sys.stderr)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.strip().splitlines()[-1] == "0 False"

    @pytest.mark.parametrize("m, loaded", [(13, False), (21, True)])
    def test_cyclotomic_recover_loads_bp_only_for_composites(self, m, loaded):
        """A prime-power conductor's basis is one integer LLL's transform, so
        only a composite recovery loads bp_reduce."""
        code = (
            "import sys, unitlat.cli\n"
            f"rc = unitlat.cli.main(['recover', '--cyclotomic', '{m}', '--precision-bits', '128',"
            " '--seed', '1'])\n"
            "print(rc, 'unitlat.buchmann_pohst' in sys.modules, file=sys.stderr)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.strip().splitlines()[-1] == f"0 {loaded}"
