"""Optimal linear and nonlinear entanglement witnesses from local orthogonal
observables, with the PPT/realignment criteria and I-concurrence lower bounds
they induce for bipartite states."""

from .codec import load_state, save_state
from .criteria import (
    Spectra,
    concurrence_pure,
    lmax_pure,
    spectra,
)
from .loo import (
    LOOBasis,
    OrthogonalRotation,
    gell_mann_basis,
    pauli_basis,
    rotate,
    transpose_basis,
)
from .qstate import (
    DensityMatrix,
    SchmidtDecomposition,
    make_state,
    mixture,
    partial_trace,
    partial_transpose,
    pure_state,
    realign,
    schmidt,
    trace_norm,
    white_noise_mixture,
)

__version__ = "0.1.0"

__all__ = [
    "DensityMatrix",
    "LOOBasis",
    "OrthogonalRotation",
    "SchmidtDecomposition",
    "Spectra",
    "concurrence_pure",
    "gell_mann_basis",
    "lmax_pure",
    "load_state",
    "make_state",
    "mixture",
    "partial_trace",
    "partial_transpose",
    "pauli_basis",
    "pure_state",
    "realign",
    "rotate",
    "save_state",
    "schmidt",
    "spectra",
    "trace_norm",
    "transpose_basis",
    "white_noise_mixture",
]
