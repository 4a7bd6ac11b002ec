import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import unitlat
from unitlat.cli import main
from unitlat.lattice_core import BasisMatrix
from unitlat.reduction import OKMatrix
from unitlat.rings import GAUSSIAN, RingElement

F = Fraction


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


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
        import unitlat.cli as cli_mod
        import unitlat.recovery as rec

        orig = rec.make_planted_problem

        def shrunk(dim, index=1, seed=0, **kw):
            import dataclasses

            p = orig(dim, index, seed, **kw)
            return dataclasses.replace(p, index_bound=1)

        monkeypatch.setattr(cli_mod, "make_planted_problem", shrunk)
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
        assert json.loads(out)["index"] == 1


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
        code, out, _ = run_cli(
            ["reduce", "--in", str(path), "--ring", "gaussian", "--verify"], capsys
        )
        assert code == 0 and json.loads(out)["verified"] is True

    def test_malformed_matrix_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, _ = run_cli(["reduce", "--in", str(path)], capsys)
        assert code == 1


class TestRejectedFlags:
    """Flags a subcommand does not read are usage errors, not ignored."""

    REJECTED = [
        ("recover", ["--format", "csv"]),
        ("recover", ["--verify"]),
        ("estimate", ["--seed", "1"]),
        ("estimate", ["--precision-bits", "64"]),
        ("estimate", ["--verify"]),
        ("reduce", ["--seed", "1"]),
        ("reduce", ["--precision-bits", "64"]),
        ("reduce", ["--format", "csv"]),
        ("bp", ["--seed", "1"]),
        ("bp", ["--precision-bits", "64"]),
        ("bp", ["--format", "csv"]),
        ("sample", ["--format", "csv"]),
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
        # the child imports unitlat from where this process found it (pytest's
        # pythonpath setting does not reach subprocesses)
        src = os.path.dirname(os.path.dirname(unitlat.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "unitlat.cli", "--version"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0
        assert proc.stdout.strip()
