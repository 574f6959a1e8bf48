"""Linear and nonlinear entanglement witnesses built from local orthogonal
observables, and their closed-form optima.

For LOO bases {G_k^A}, {G_k^B} the two witness values are

    linear:     1 - Σ_k ⟨G_k^A ⊗ G_k^B⟩
    nonlinear:  1 - Σ_k ⟨G_k^A ⊗ G_k^B⟩ - (1/2) Σ_k ⟨G_k^A⊗I - I⊗G_k^B⟩²

Both are non-negative on every separable state for every basis choice, so a
negative value certifies entanglement.  Minimizing over all LOO pairs has a
closed form: the linear minimum is 1 - Σ_k σ_k(μ) with μ_lm = ⟨G_l^A⊗G_m^B⟩,
and the nonlinear minimum is 1 - Σ_k σ_k(τ) - (Tr ρ_A² + Tr ρ_B²)/2 with
τ = μ - a·bᵀ the covariance matrix (a, b the local expectation vectors).
The optimizing bases are recovered from the SVD factors.  Subsystems of
unequal dimension need no special casing beyond zero-padding the shorter
basis when a witness is evaluated elementwise.

The optima cost a d⁶ expectation einsum, a full SVD and two basis
rotations, so they run only when the bases themselves are wanted
(``analyze --emit-bases``); the minima alone are read from
:func:`loowit.criteria.spectra`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import qstate
from .loo import LOOBasis, expectation_matrix, gell_mann_basis, rotate
from .qstate import DensityMatrix, _frozen

@dataclass(frozen=True, eq=False)
class CorrelationData:
    """A real dim_a²×dim_b² correlation (μ) or covariance (τ) matrix with its
    singular value decomposition: matrix = left · Σ · rightᵀ."""

    matrix: np.ndarray
    singular_values: np.ndarray
    left_factor: np.ndarray
    right_factor: np.ndarray

    def __post_init__(self) -> None:
        for name in ("matrix", "singular_values", "left_factor", "right_factor"):
            object.__setattr__(self, name, _frozen(np.array(getattr(self, name), dtype=float)))

    @property
    def singular_value_sum(self) -> float:
        return float(self.singular_values.sum())

    def reconstruct(self) -> np.ndarray:
        rows, cols = self.matrix.shape
        sigma = np.zeros((rows, cols))
        k = len(self.singular_values)
        sigma[:k, :k][np.diag_indices(k)] = self.singular_values
        return self.left_factor @ sigma @ self.right_factor.T


def _svd_data(matrix: np.ndarray) -> CorrelationData:
    u, s, vt = np.linalg.svd(matrix, full_matrices=True)
    return CorrelationData(matrix, s, u, vt.T)


def correlation_matrix(rho: DensityMatrix, basis_a: LOOBasis, basis_b: LOOBasis) -> CorrelationData:
    """μ_lm = Tr(ρ G_l^A ⊗ G_m^B), with SVD factors attached.

    The expansion ρ = Σ_lm μ_lm G_l^A ⊗ G_m^B reconstructs the state for any
    LOO pair, and Σ_k σ_k(μ) is basis-independent.
    """
    return _svd_data(expectation_matrix(rho, basis_a, basis_b))


def local_expectations(rho: DensityMatrix, basis_a: LOOBasis, basis_b: LOOBasis):
    """Vectors a_l = ⟨G_l^A ⊗ I⟩ and b_m = ⟨I ⊗ G_m^B⟩."""
    reduced_a = qstate.partial_trace(rho, "B")
    reduced_b = qstate.partial_trace(rho, "A")
    a = np.einsum("kij,ji->k", basis_a.observables, reduced_a).real
    b = np.einsum("kij,ji->k", basis_b.observables, reduced_b).real
    return a, b


def covariance_matrix(rho: DensityMatrix, basis_a: LOOBasis, basis_b: LOOBasis) -> CorrelationData:
    """τ = μ - a·bᵀ, the correlation matrix with the product of local
    expectations removed; vanishes identically on product states."""
    mu = expectation_matrix(rho, basis_a, basis_b)
    a, b = local_expectations(rho, basis_a, basis_b)
    return _svd_data(mu - np.outer(a, b))


def _paired_expectation_sum(rho: DensityMatrix, basis_a: LOOBasis, basis_b: LOOBasis) -> float:
    """Σ_k ⟨G_k^A ⊗ G_k^B⟩ paired index-by-index up to the shorter basis."""
    if basis_a.dim != rho.dim_a or basis_b.dim != rho.dim_b:
        raise ValueError(
            f"basis dims ({basis_a.dim}, {basis_b.dim}) do not match state dims "
            f"({rho.dim_a}, {rho.dim_b})"
        )
    k = min(len(basis_a), len(basis_b))
    paired = np.einsum(
        "ijkl,aki,alj->a",
        rho.as_tensor(),
        basis_a.observables[:k],
        basis_b.observables[:k],
        optimize=True,
    )
    return float(paired.real.sum())


def linear_witness_value(rho: DensityMatrix, basis_a: LOOBasis, basis_b: LOOBasis) -> float:
    """1 - Σ_k ⟨G_k^A ⊗ G_k^B⟩ for the given basis pair."""
    return 1.0 - _paired_expectation_sum(rho, basis_a, basis_b)


def nonlinear_witness_value(rho: DensityMatrix, basis_a: LOOBasis, basis_b: LOOBasis) -> float:
    """Nonlinear witness value for the given basis pair.

    When the bases have unequal length (rectangular states) the shorter side
    is treated as padded with zero operators, so the unpaired local terms
    still contribute their full squares.
    """
    a, b = local_expectations(rho, basis_a, basis_b)
    k = min(a.size, b.size)
    square_sum = float(a @ a + b @ b - 2.0 * (a[:k] @ b[:k]))
    return 1.0 - _paired_expectation_sum(rho, basis_a, basis_b) - 0.5 * square_sum


class LinearOptimum(NamedTuple):
    value: float
    basis_a: LOOBasis
    basis_b: LOOBasis


class NonlinearOptimum(NamedTuple):
    value: float
    l_max: float
    basis_a: LOOBasis
    basis_b: LOOBasis


def _optimal_bases(data: CorrelationData, basis_a: LOOBasis, basis_b: LOOBasis):
    # matrix = left Σ rightᵀ, so rotating by leftᵀ / rightᵀ diagonalizes the
    # paired expectations onto the singular values.
    return rotate(basis_a, data.left_factor.T), rotate(basis_b, data.right_factor.T)


def optimal_linear_min(rho: DensityMatrix) -> LinearOptimum:
    """Minimum of the linear witness over all LOO pairs: 1 - Σ_k σ_k(μ).

    Also returns the minimizing bases; re-evaluating linear_witness_value at
    them reproduces the minimum.  Rectangular states are handled by the
    rectangular μ directly (the shorter side keeps its d² observables).
    """
    base_a = gell_mann_basis(rho.dim_a)
    base_b = gell_mann_basis(rho.dim_b)
    data = correlation_matrix(rho, base_a, base_b)
    opt_a, opt_b = _optimal_bases(data, base_a, base_b)
    return LinearOptimum(1.0 - data.singular_value_sum, opt_a, opt_b)


def subsystem_purities(rho: DensityMatrix) -> tuple[float, float]:
    return (
        qstate.purity(qstate.partial_trace(rho, "B")),
        qstate.purity(qstate.partial_trace(rho, "A")),
    )


def optimal_nonlinear_min(rho: DensityMatrix) -> NonlinearOptimum:
    """Minimum of the nonlinear witness over all LOO pairs.

    Equals 1 - Σ_k σ_k(τ) - (Tr ρ_A² + Tr ρ_B²)/2; the returned l_max is the
    complementary maximum, 1 - value.
    """
    base_a = gell_mann_basis(rho.dim_a)
    base_b = gell_mann_basis(rho.dim_b)
    data = covariance_matrix(rho, base_a, base_b)
    purity_a, purity_b = subsystem_purities(rho)
    l_max = data.singular_value_sum + (purity_a + purity_b) / 2.0
    opt_a, opt_b = _optimal_bases(data, base_a, base_b)
    return NonlinearOptimum(1.0 - l_max, l_max, opt_a, opt_b)


def lmax_pure(coefficients) -> float:
    """Nonlinear-witness maximum of a pure state from its Schmidt coefficients.

    ``coefficients`` are the Schmidt coefficients c_i = √μ_i (non-negative,
    Σ c_i² = 1); the maximum is (Σ_i c_i)².
    """
    c = np.asarray(coefficients, dtype=float)
    if c.size == 0 or (c < 0).any():
        raise ValueError("Schmidt coefficients must be non-negative")
    total = float(c @ c)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"squared coefficients must sum to 1, got {total!r}")
    return float(c.sum()) ** 2
