"""Optimal linear and nonlinear entanglement witnesses from local orthogonal
observables, with the PPT/realignment criteria and I-concurrence lower bounds
they induce for bipartite states."""

from .criteria import Spectra, concurrence_pure, spectra
from .loo import (
    LOOBasis,
    OrthogonalRotation,
    gell_mann_basis,
    pauli_basis,
    rotate,
    transpose_basis,
)
from .oracle import OracleReport, recompute_witness_direct, sampled_max_trace
from .qstate import (
    DensityMatrix,
    SchmidtDecomposition,
    Violation,
    load_state,
    make_state,
    mixture,
    partial_trace,
    partial_transpose,
    pure_state,
    realign,
    save_state,
    schmidt,
    trace_norm,
    validate,
    white_noise_mixture,
)
from .witness import (
    LinearOptimum,
    NonlinearOptimum,
    correlation_matrix,
    covariance_matrix,
    linear_witness_value,
    lmax_pure,
    nonlinear_witness_value,
    optimal_linear_min,
    optimal_nonlinear_min,
)

__version__ = "0.1.0"

__all__ = [
    "DensityMatrix",
    "LOOBasis",
    "LinearOptimum",
    "NonlinearOptimum",
    "OracleReport",
    "OrthogonalRotation",
    "SchmidtDecomposition",
    "Spectra",
    "Violation",
    "concurrence_pure",
    "correlation_matrix",
    "covariance_matrix",
    "gell_mann_basis",
    "linear_witness_value",
    "lmax_pure",
    "load_state",
    "make_state",
    "mixture",
    "nonlinear_witness_value",
    "optimal_linear_min",
    "optimal_nonlinear_min",
    "partial_trace",
    "partial_transpose",
    "pauli_basis",
    "pure_state",
    "realign",
    "recompute_witness_direct",
    "rotate",
    "save_state",
    "schmidt",
    "spectra",
    "trace_norm",
    "transpose_basis",
    "validate",
    "white_noise_mixture",
]
