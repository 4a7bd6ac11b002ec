"""Exact lattice recovery from noisy dual samples, norm-Euclidean LLL,
cyclotomic unit lattices and qubit resource estimation."""

__version__ = "0.1.0"

from .lattice_core import (
    BasisMatrix,
    FixedPointVector,
    op_norm,
    sublattice_index,
)
from .rings import EISENSTEIN, GAUSSIAN, INTEGERS, RingDescriptor, RingElement
from .reduction import OKMatrix, hnf, lll_reduce, snf
from .bdd_sampler import SampleRecord, SamplerConfig, babai_bdd, sample_dual
from .buchmann_pohst import BPParams, BPResult, bp_reduce
from .cyclotomic import CyclotomicField, alt_period_check, cyclotomic_unit_generators
from .recovery import (
    RecoveryProblem,
    RecoveryResult,
    compute_k,
    recover_baseline,
    recover_with_sublattice,
)
from .estimator import FieldProfile, ResourceEstimate, qubit_count_cyclotomic, qubit_count_generic

__all__ = [
    "BasisMatrix",
    "FixedPointVector",
    "op_norm",
    "sublattice_index",
    "RingDescriptor",
    "RingElement",
    "INTEGERS",
    "GAUSSIAN",
    "EISENSTEIN",
    "OKMatrix",
    "hnf",
    "snf",
    "lll_reduce",
    "SamplerConfig",
    "SampleRecord",
    "babai_bdd",
    "sample_dual",
    "BPParams",
    "BPResult",
    "bp_reduce",
    "CyclotomicField",
    "cyclotomic_unit_generators",
    "alt_period_check",
    "RecoveryProblem",
    "RecoveryResult",
    "compute_k",
    "recover_with_sublattice",
    "recover_baseline",
    "FieldProfile",
    "ResourceEstimate",
    "qubit_count_generic",
    "qubit_count_cyclotomic",
]
