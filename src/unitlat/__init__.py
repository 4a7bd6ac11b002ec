"""Exact lattice recovery from noisy dual samples, norm-Euclidean LLL,
cyclotomic unit lattices and qubit resource estimation.

The names below are imported on first access (PEP 562), so `import
unitlat.cli` loads only the modules a command uses.
"""

import importlib

__version__ = "0.1.0"

_MODULE_OF = {
    "BasisMatrix": "lattice_core",
    "FixedPointVector": "lattice_core",
    "sublattice_index": "lattice_core",
    "RingDescriptor": "rings",
    "RingElement": "rings",
    "INTEGERS": "rings",
    "GAUSSIAN": "rings",
    "EISENSTEIN": "rings",
    "OKMatrix": "reduction",
    "hnf": "reduction",
    "snf": "reduction",
    "lll_reduce": "reduction",
    "SamplerConfig": "bdd_sampler",
    "SampleRecord": "bdd_sampler",
    "babai_bdd": "bdd_sampler",
    "sample_dual": "bdd_sampler",
    "BPParams": "buchmann_pohst",
    "BPResult": "buchmann_pohst",
    "bp_reduce": "buchmann_pohst",
    "CyclotomicField": "cyclotomic",
    "cyclotomic_unit_generators": "cyclotomic",
    "alt_period_check": "cyclotomic",
    "RecoveryProblem": "recovery",
    "RecoveryResult": "recovery",
    "compute_k": "recovery",
    "recover_with_sublattice": "recovery",
    "recover_baseline": "recovery",
    "FieldProfile": "estimator",
    "ResourceEstimate": "estimator",
    "qubit_count_generic": "estimator",
    "qubit_count_cyclotomic": "estimator",
}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
