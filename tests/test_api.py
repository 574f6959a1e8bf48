import numpy as np

import loowit
from loowit import loo, qstate, witness

import samplers

PUBLIC_NAMES = [
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

# Seeded samplers live in tests/samplers.py; the library keeps none.
SAMPLER_NAMES = [
    "_rng",
    "haar_state_vector",
    "haar_unitary",
    "random_pure_state",
    "random_mixed_state",
    "random_product_state",
    "random_separable_state",
    "local_unitary_conjugate",
    "haar_rotation",
]


def test_public_surface():
    assert sorted(loowit.__all__) == PUBLIC_NAMES
    assert all(hasattr(loowit, name) for name in PUBLIC_NAMES)
    for module in (qstate, loo):
        assert [name for name in SAMPLER_NAMES if hasattr(module, name)] == []
    assert all(callable(getattr(samplers, name)) for name in SAMPLER_NAMES)


def test_correlation_and_covariance_are_plain_arrays():
    rho = samplers.random_mixed_state(2, 3, np.random.default_rng(5))
    basis_a, basis_b = loo.gell_mann_basis(2), loo.gell_mann_basis(3)
    for maker in (witness.correlation_matrix, witness.covariance_matrix):
        m = maker(rho, basis_a, basis_b)
        assert type(m) is np.ndarray
        assert m.dtype == float and m.shape == (4, 9)
