"""Command-line front end: recovery runs, reduction, basis reconstruction,
sampling and resource estimation, with deterministic seeded replay.

Exit codes: 0 success, 1 malformed input or usage, 2 insufficient samples
(retry with a fresh seed), 3 contract violation (index bound exceeded). main
alone turns errors into exit codes; any other UnitlatError exits 1.

Each command imports the modules it uses in its own body, so `import
unitlat.cli` loads lattice_core alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction

from . import __version__
from .lattice_core import (
    BasisMatrix,
    ConfigurationError,
    ContractViolationError,
    FixedPointVector,
    InsufficientSamplesError,
    UnitlatError,
    clip,
)


class CLIUsageError(ConfigurationError):
    """Bad command line: printed as "usage error:", exit 1."""


def _positive_int(text: str) -> int:
    """argparse type of --k, --count and --tau-log2; a non-integer is
    reported as by int."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {clip(repr(text))}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {clip(value)}")
    return value


def _rational(text: str) -> str:
    """argparse type of the rational flags: checked here, so that a bad value
    is reported with its flag, but kept as the text, so that the namespace
    (and config_hash) is the one the plain string gives."""
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid rational value: {clip(repr(text))}") from None
    return text


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CLIUsageError(message)


def _provenance(args: argparse.Namespace) -> dict:
    config = {k: repr(v) for k, v in sorted(vars(args).items()) if k != "func"}
    digest = hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()
    ).hexdigest()[:16]
    return {
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "config_hash": digest,
    }


def _emit(args, text: str):
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _reject_unread(args, why: str, *dests: str):
    """Usage error if any of these flags was given: the chosen mode ignores it."""
    for dest in dests:
        value = getattr(args, dest)
        if value is not None and value is not False:  # so --seed 0 counts as given
            raise CLIUsageError(f"--{dest.replace('_', '-')} {why}")


def _fill_defaults(args, **defaults):
    """Mode-specific flags parse to None so that a given flag can be told from
    an absent one; their defaults are filled in once the mode is checked, so
    the namespace (and config_hash) is the one plain defaults would give."""
    for dest, value in defaults.items():
        if getattr(args, dest) is None:
            setattr(args, dest, value)


def _dump(args, obj: dict) -> str:
    obj = dict(obj)
    obj["provenance"] = _provenance(args)
    return json.dumps(obj, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# recover
# ---------------------------------------------------------------------------


def _json_int(path: str, key: str, value) -> int:
    """value, if it is a JSON integer: a float is not truncated, true is not 1."""
    if type(value) is not int:
        raise ConfigurationError(
            f"{path}: {key} must be a JSON integer, got {clip(json.dumps(value))}"
        )
    return value


def _read_config(path: str, cfg: dict) -> tuple:
    """(mode, instance) of a recover config. It holds mode, instance and seed,
    and the instance conductor, or dim and an optional index; any other key
    is an input error, not ignored, and so is a seed, conductor, dim or index
    that is not a JSON integer (a float is not truncated, true is not 1)."""
    mode, inst = cfg.get("mode", "sublattice"), cfg.get("instance")
    if mode not in ("sublattice", "baseline"):
        raise ConfigurationError(f"{path}: mode must be 'sublattice' or 'baseline', not {mode!r}")
    if not isinstance(inst, dict):
        raise ConfigurationError(f"{path}: instance must be a JSON object")
    if "conductor" not in inst and "dim" not in inst:
        raise ConfigurationError(f"{path}: instance must set conductor or dim")
    shape = {"conductor"} if "conductor" in inst else {"dim", "index"}
    unread = sorted(set(cfg) - {"mode", "instance", "seed"}) + sorted(set(inst) - shape)
    if unread:
        raise ConfigurationError(f"{path}: keys not read: {clip(unread)}")
    for key, value in dict(inst, seed=cfg.get("seed", 0)).items():
        _json_int(path, key, value)
    return mode, inst


def cmd_recover(args) -> int:
    from .recovery import (
        build_cyclotomic_problem,
        make_planted_problem,
        recover_baseline,
        recover_with_retries,
        regulator_from_basis,
    )

    if args.synthetic:
        _reject_unread(args, "is not read with --synthetic", "precision_bits")
    else:
        _reject_unread(args, "requires --synthetic", "dim", "index")
    if args.config:
        _reject_unread(args, "is not read with --config (its mode key decides)", "baseline")
        cfg = _load_json_object(args.config)
        mode, inst = _read_config(args.config, cfg)
        if "conductor" not in inst:
            _reject_unread(args, "is not read with a planted config instance", "precision_bits")
        if "seed" in cfg:
            _reject_unread(args, "is not read with a config that sets seed", "seed")
            args.seed = cfg["seed"]
    _fill_defaults(args, dim=2, index=1, precision_bits=64, seed=0)

    if args.config:
        if "conductor" in inst:
            problem = build_cyclotomic_problem(inst["conductor"], args.precision_bits, args.seed)
        else:
            problem = make_planted_problem(inst["dim"], inst.get("index", 1), args.seed)
        baseline = mode == "baseline"
        conductor = inst.get("conductor")
    elif args.cyclotomic is not None:
        problem = build_cyclotomic_problem(
            args.cyclotomic, args.precision_bits, args.seed
        )
        baseline = args.baseline
        conductor = args.cyclotomic
    else:
        problem = make_planted_problem(args.dim, args.index, args.seed)
        baseline = args.baseline
        conductor = None

    if baseline:
        res = recover_baseline(problem, k=args.k)
        out = {
            "mode": "baseline",
            "feasible": res.feasible,
            "required_q": res.required_q,
            "input_bits": res.input_bits,
            "samples_used": res.samples_used,
        }
        if res.feasible:
            out["basis"] = [[str(x) for x in row] for row in res.b_l_approx]
            out["precision_achieved"] = res.precision_achieved
        _emit(args, _dump(args, out))
        return 0

    res = recover_with_retries(problem, k=args.k)
    out = {
        "mode": "sublattice",
        "index": res.index,
        "samples_used": res.samples_used,
        "invariant_factors": list(res.invariant_factors),
        "hnf": [list(r) for r in res.w_hnf],
        "basis": res.b_l.to_json(),
        "failed_samples": res.failed_samples,
    }
    if conductor is not None:
        out["conductor"] = conductor
        out["regulator"] = regulator_from_basis(res.b_l)
    _emit(args, _dump(args, out))
    return 0


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def cmd_estimate(args) -> int:
    from .estimator import (
        cyclotomic_generic_profile,
        qubit_count_cyclotomic,
        qubit_count_generic,
        render_csv,
        render_json,
        render_table,
        totally_real_profile,
    )

    if args.m is None:
        _reject_unread(args, "requires --m", "logD")
    if args.cyclotomic is None:
        _reject_unread(args, "requires --cyclotomic", "compare")
    elif not args.compare:
        _reject_unread(args, "is not read with --cyclotomic unless --compare is given", "tau_log2")
    _fill_defaults(args, tau_log2=20)

    estimates = []
    if args.cyclotomic is not None:
        if args.compare:
            estimates.append(qubit_count_generic(
                cyclotomic_generic_profile(args.cyclotomic), args.tau_log2
            ))
        estimates.append(qubit_count_cyclotomic(args.cyclotomic))
    elif args.kummer:
        n, logd = args.kummer
        try:
            n = int(n)
        except ValueError:
            raise CLIUsageError(
                f"argument --kummer: N must be an integer, got {clip(repr(n))}"
            ) from None
        estimates.append(
            qubit_count_generic(totally_real_profile(n, Fraction(logd)), args.tau_log2)
        )
    else:
        if args.logD is None:
            raise CLIUsageError("--m requires --logD")
        estimates.append(
            qubit_count_generic(
                totally_real_profile(args.m + 1, Fraction(args.logD)), args.tau_log2
            )
        )

    if args.format == "csv":
        _emit(args, render_csv(estimates))
    elif args.format == "json":
        _emit(args, render_json(estimates))
    else:
        _emit(args, render_table(estimates))
    return 0


# ---------------------------------------------------------------------------
# reduce / bp / sample
# ---------------------------------------------------------------------------


def _load_json_object(path: str) -> dict:
    """The JSON object in a file; any other top-level value is an input error."""
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ConfigurationError(
            f"{path}: top level must be a JSON object, not {type(obj).__name__}"
        )
    return obj


def _parse_matrix(path: str, parse, obj: dict):
    """parse(obj), the matrix of a file's JSON object; wrong JSON types and a
    zero denominator are input errors."""
    try:
        return parse(obj)
    except (TypeError, ZeroDivisionError) as exc:
        raise ConfigurationError(f"{path}: malformed matrix entries ({exc})") from None


def cmd_reduce(args) -> int:
    from .reduction import OKMatrix, is_reduced, lll_reduce

    obj = _load_json_object(args.infile)
    # an OKMatrix if the file names a ring, else a BasisMatrix over Z
    parse = OKMatrix.from_json if "ring" in obj else BasisMatrix.from_json
    mat = _parse_matrix(args.infile, parse, obj)
    delta = Fraction(args.delta)
    reduced, transform = lll_reduce(mat, delta)
    out = {
        "reduced": reduced.to_json(),
        "transform": transform.to_json(),
    }
    if args.verify:
        out["verified"] = is_reduced(reduced, delta)
    _emit(args, _dump(args, out))
    return 0


def cmd_bp(args) -> int:
    from .buchmann_pohst import BPParams, bp_reduce, relation_norm_check

    path = args.infile
    obj = _load_json_object(path)
    q = _json_int(path, "q", obj["q"])
    gens = [FixedPointVector([_json_int(path, "vectors entry", x) for x in v], q)
            for v in obj["vectors"]]
    for key in ("mu", "D"):
        if type(obj[key]) is bool:  # Fraction(True) is 1
            raise ConfigurationError(f"{path}: {key} must be a rational, not a boolean")
    params = BPParams(mu=Fraction(obj["mu"]), D=Fraction(obj["D"]))
    result = bp_reduce(gens, params)
    out = {
        "q": result.q,
        "m": result.m,
        "k": result.k,
        "basis": [[str(e.a) for e in row] for row in result.basis_approx],
        "relations": [[str(e.a) for e in row] for row in result.relations],
    }
    if args.verify:
        out["verified"] = relation_norm_check(result)
    _emit(args, _dump(args, out))
    return 0


def cmd_sample(args) -> int:
    from .bdd_sampler import SamplerConfig, dump_samples, sample_dual, verify_sampler_contract

    if not args.verify:
        _reject_unread(args, "requires --verify (only the contract check reads it)", "r")
    _fill_defaults(args, r="4")
    dual = _parse_matrix(args.dual, BasisMatrix.from_json, _load_json_object(args.dual))
    cfg = SamplerConfig(
        delta=Fraction(args.delta),
        eta=Fraction(args.eta),
        sigma=Fraction(args.sigma),
        seed=args.seed,
    )
    samples = sample_dual(dual, cfg, args.count, args.precision_bits)
    text = dump_samples(samples)
    if args.verify:
        report = verify_sampler_contract(samples, dual, cfg, Fraction(args.r))
        _emit(args, text + "\n" + json.dumps({"contract": report}, sort_keys=True))
    else:
        _emit(args, text)
    return 0


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="unitlat", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser(
        "recover",
        help="recover a hidden lattice from simulated dual samples "
        "(sublattice-assisted rounding or the high-precision baseline)",
    )
    p.add_argument("--seed", type=int, default=None,
                   help="default 0; not with a config that sets seed")
    p.add_argument("--precision-bits", dest="precision_bits", type=int, default=None,
                   help="default 64; not with --synthetic or a planted config")
    p.add_argument("--out", default=None)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--config", default=None, help="experiment config JSON")
    mode.add_argument("--synthetic", action="store_true")
    mode.add_argument("--cyclotomic", type=int, default=None, metavar="M")
    p.add_argument("--dim", type=int, default=None, help="default 2; --synthetic only")
    p.add_argument("--index", type=int, default=None, help="default 1; --synthetic only")
    p.add_argument("--baseline", action="store_true", help="not with --config")
    p.add_argument("--k", type=_positive_int, default=None)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("estimate", help="qubit resource tables (generic vs structured)")
    p.add_argument("--format", choices=["json", "csv", "table"], default="table")
    p.add_argument("--out", default=None)
    profile = p.add_mutually_exclusive_group(required=True)
    profile.add_argument("--m", type=int, default=None)
    profile.add_argument("--cyclotomic", type=int, default=None, metavar="M")
    profile.add_argument("--kummer", nargs=2, type=_rational, default=None, metavar=("N", "LOGD"))
    p.add_argument("--logD", type=_rational, default=None, help="--m only")
    p.add_argument("--compare", action="store_true", help="--cyclotomic only")
    p.add_argument("--tau-log2", dest="tau_log2", type=_positive_int, default=None,
                   help="default 20; with --cyclotomic only if --compare")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("reduce", help="exact LLL reduction over the file's ring: Z, Z[i] or Z[w]")
    p.add_argument("--out", default=None)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--delta", type=_rational, default="99/100")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser(
        "bp", help="reconstruct an exact basis from noisy fixed-point generators"
    )
    p.add_argument("--out", default=None)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_bp)

    p = sub.add_parser("sample", help="simulated dual lattice sampler (JSON lines)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--precision-bits", dest="precision_bits", type=int, default=64)
    p.add_argument("--out", default=None)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--dual", required=True, help="dual basis matrix JSON")
    p.add_argument("--delta", type=_rational, default="0")
    p.add_argument("--eta", type=_rational, default="0")
    p.add_argument("--sigma", type=_rational, default="1")
    p.add_argument("--r", type=_rational, default=None, help="default 4; --verify only")
    p.add_argument("--count", type=_positive_int, default=100)
    p.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_help(sys.stderr)
            return 1
        return args.func(args)
    except CLIUsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except InsufficientSamplesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ContractViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UnitlatError, OSError, json.JSONDecodeError, KeyError, ValueError,
            ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():  # console_scripts hook
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
