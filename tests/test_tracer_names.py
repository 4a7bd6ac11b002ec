"""The benchmark's span tracer patches unitlat functions by name; a name that
no longer exists would make traced benchmark runs fail. This reads the
tracer's tables (without installing it) and checks every name they patch."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracer()
PATCHED = [(mod, attr) for mod, attr, *_ in TRACER.SPANS + TRACER.COUNTS]


@pytest.mark.parametrize("mod,attr", PATCHED, ids=[f"{m}.{a}" for m, a in PATCHED])
def test_patched_name_exists(mod, attr):
    module = importlib.import_module(f"unitlat.{mod}")
    if "." in attr:
        # a method is patched in its class's own namespace
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))


def test_tables_not_empty():
    assert len(TRACER.SPANS) >= 10 and TRACER.COUNTS


def test_tracer_records_the_patched_layers(monkeypatch):
    """Installed in-process, the tracer wraps one planted_sweep operation and
    one module_reconstruct operation: the normal-form and bp_reduce spans are
    recorded and the bp_reduce observer reads its result, so a changed name
    or return shape fails here rather than in a traced benchmark run."""
    monkeypatch.syspath_prepend(str(TRACER_PATH.parent))
    import workloads

    inp = workloads.planted_inputs(1)[0]
    module = workloads.module_inputs(1)[0]
    tracer = TRACER.Tracer()
    tracer.install()
    try:
        result = tracer.root(0, workloads.planted_op, inp.data)
        tracer.root(1, workloads.module_op, module.data)
    finally:
        tracer.uninstall()
    assert workloads.planted_check(inp.data, result)[0]
    names = {span[0] for span in tracer.spans}
    assert {"reduction.hnf", "reduction.snf", "buchmann_pohst.bp_reduce"} <= names
    assert {
        "buchmann_pohst.separation_margin_bits",
        "buchmann_pohst.relation_margin_bits",
        "buchmann_pohst.coeff_bits_max",
    } <= set(tracer.gauges)
