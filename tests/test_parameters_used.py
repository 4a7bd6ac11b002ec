"""Every defaulted parameter of a unitlat function is passed somewhere, and
every public function has a caller outside the tests.

A default that no call site overrides is a settable value nobody sets: the
body should hold the value instead. This parses src/unitlat with ast, and for
each function with defaulted parameters finds its call sites by name in src/,
tests/ and perfbench/ (a method by its own name, __init__ by its class's). A
parameter counts as passed when a call names it by keyword, reaches its
position, or spreads *args or **kwargs. Matching is by name only, so two
functions of one name share their call sites; that can hide an unused
default, never invent one.

A public function or method that nothing in src/ or perfbench/ refers to is
library surface only its own tests call: it goes, unless REFERENCE_ORACLES
names it with the reason it stays. A name counts as referred to when it is
read as a name or an attribute anywhere in those trees, again by name only.

Every name a src/unitlat module imports, at the top or inside a function,
is read somewhere in that module: an import left behind by moved code fails.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "unitlat"
CALLERS = (ROOT / "src", ROOT / "tests", ROOT / "perfbench")
PIPELINE = (ROOT / "src", ROOT / "perfbench")

# public names no code in src/ or perfbench/ refers to, each with why it stays
REFERENCE_ORACLES = {
    "bdd_sampler.babai_bdd": "acceptance oracle (criterion 02); tracer name",
    "cli.entry": "cli.entry: the console_scripts hook of pyproject.toml",
    "cyclotomic.alt_period_check": "acceptance oracle (criterion 09)",
    "cyclotomic.cyclotomic_unit_generators": "acceptance oracle (criterion 05): every v_j with its log",
    "enumeration.lattice_points_in_ball": "tracer name; sampler tests' ground truth",
    "enumeration.shortest_vector_sq": "tracer name; lambda_1 oracle of the bracket tests",
    "estimator.slope_fit": "acceptance oracle (criterion 07)",
    "lattice_core.sublattice_index": "test oracle of recovered indices",
    "lattice_core.FixedPointVector.from_rationals": "acceptance oracle (criterion 02)",
    "lattice_core.BasisMatrix.diagonal": "test fixture: diagonal lattices in five test files",
    "recovery.lattices_equal": "acceptance oracle (criterion 01)",
    "reduction.check_reduced_bound": "acceptance oracle (criterion 04)",
    "reduction.OKMatrix.nrows": "tracer name: read by the LLL observer through getattr",
    "reduction.OKMatrix.underlying_z_rows": "acceptance oracle (criterion 04)",
    "rings.euclidean_minimum_grid": "test oracle of the stored Euclidean minima",
    "rings.RingElement.to_complex": "test oracle of the ring arithmetic",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _defaulted(func: ast.FunctionDef, bound: bool) -> dict:
    """{parameter: position or None} of func's defaulted parameters; the
    position is the index a caller's positional arguments reach it at (None
    for keyword-only), after the bound self or cls."""
    args = func.args
    positional = args.posonlyargs + args.args
    skip = 1 if bound else 0
    out = {}
    for i, a in enumerate(positional[len(positional) - len(args.defaults):],
                          len(positional) - len(args.defaults)):
        out[a.arg] = i - skip
    for a, d in zip(args.kwonlyargs, args.kw_defaults):
        if d is not None:
            out[a.arg] = None
    return out


def defaulted_parameters() -> dict:
    """{(qualified name, call name): {parameter: position}} over src/unitlat."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = _parse(path)
        scopes = [(node, None) for node in tree.body]
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            scopes += [(node, cls.name) for node in cls.body]
        for node, cls in scopes:
            if not isinstance(node, ast.FunctionDef):
                continue
            # a staticmethod would count as bound: lenient, never a false failure
            params = _defaulted(node, bound=cls is not None)
            if not params:
                continue
            qual = f"{module}.{cls + '.' if cls else ''}{node.name}"
            call_name = cls if node.name == "__init__" else node.name
            found[(qual, call_name)] = params
    return found


def call_sites() -> dict:
    """{call name: [(positional count, keywords, spreads)]} over every caller file."""
    calls = defaultdict(list)
    for top in CALLERS:
        for path in sorted(top.rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name is None:
                    continue
                spreads = any(isinstance(a, ast.Starred) for a in node.args) or any(
                    k.arg is None for k in node.keywords
                )
                calls[name].append(
                    (len(node.args), {k.arg for k in node.keywords}, spreads)
                )
    return calls


def unpassed_parameters() -> list:
    calls = call_sites()
    unpassed = []
    for (qual, call_name), params in sorted(defaulted_parameters().items()):
        for param, pos in params.items():
            passed = any(
                spreads or param in keywords or (pos is not None and n > pos)
                for n, keywords, spreads in calls[call_name]
            )
            if not passed:
                unpassed.append(f"{qual}({param})")
    return unpassed


def test_scanner_sees_the_package():
    found = defaulted_parameters()
    names = {qual for qual, _ in found}
    assert "reduction.lll_reduce" in names
    assert found[("lattice_core.sqrt_upper", "sqrt_upper")] == {"bits": 1}


def test_scanner_reads_positions_and_keywords():
    tree = ast.parse("def f(a, b=1, *, c=2): pass\nclass K:\n def g(self, x, y=0): pass")
    assert _defaulted(tree.body[0], bound=False) == {"b": 1, "c": None}
    assert _defaulted(tree.body[1].body[0], bound=True) == {"y": 1}


def test_every_default_is_passed_somewhere():
    unpassed = unpassed_parameters()
    assert not unpassed, (
        "defaulted parameters that no call site in src/, tests/ or perfbench/ "
        f"passes; put the value in the body: {unpassed}"
    )


def public_functions() -> list:
    """(qualified name, name) of every public function and method of src/unitlat."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        scopes = [(node, None) for node in tree.body]
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            scopes += [(node, cls.name) for node in cls.body]
        for node, cls in scopes:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                found.append((f"{path.stem}.{cls + '.' if cls else ''}{node.name}", node.name))
    return found


def referenced_names() -> set:
    """Every name read as a name or an attribute in src/ and perfbench/."""
    names = set()
    for top in PIPELINE:
        for path in sorted(top.rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_public_function_has_a_caller():
    """The unreferenced public names are exactly those REFERENCE_ORACLES
    keeps: a new one fails, and so does an entry whose name gained a caller
    or is gone."""
    refs = referenced_names()
    unreferenced = {qual for qual, name in public_functions() if name not in refs}
    kept = set(REFERENCE_ORACLES)
    assert unreferenced == kept, (
        "public names that nothing in src/ or perfbench/ refers to must be "
        f"deleted or listed with a reason: {sorted(unreferenced - kept)}; "
        f"entries with a caller or no definition: {sorted(kept - unreferenced)}"
    )


def unread_imports(tree: ast.Module) -> list:
    """Names an import in tree binds that no expression in tree reads."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_import_scan_sees_unread_names():
    tree = ast.parse("from __future__ import annotations\nimport os.path, re\n"
                     "from a import b, c as d\ndef f():\n    from e import g\n    return d(os)")
    assert unread_imports(tree) == ["re", "b", "g"]


def test_every_import_is_read():
    unread = {path.stem: names for path in sorted(PACKAGE.glob("*.py"))
              if (names := unread_imports(_parse(path)))}
    assert not unread, f"imported names their module never reads: {unread}"
