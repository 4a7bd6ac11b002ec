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
