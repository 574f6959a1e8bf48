"""Linear and nonlinear entanglement witnesses built from local orthogonal
observables, and their closed-form optima.

For LOO bases {G_k^A}, {G_k^B} the two witness values are

    linear:     1 - Σ_k ⟨G_k^A ⊗ G_k^B⟩
    nonlinear:  1 - Σ_k ⟨G_k^A ⊗ G_k^B⟩ - (1/2) Σ_k ⟨G_k^A⊗I - I⊗G_k^B⟩²

Both are non-negative on every separable state for every basis choice, so a
negative value certifies entanglement.

Every basis-dependent number is read from one frame product (see
:func:`loo.frame`): μ = F_A · R(ρ) · F_Bᵀ is the correlation matrix
μ_lm = ⟨G_l^A⊗G_m^B⟩ and τ = F_A · R(ρ - ρ_A⊗ρ_B) · F_Bᵀ = μ - a·bᵀ the
covariance matrix (R: realignment; a, b the local expectation vectors).  A
change of LOO basis rotates both orthogonally on each side.  The values are
1 - Σ_k μ_kk and 1 - Σ_k τ_kk - (Tr ρ_A² + Tr ρ_B²)/2, the minima
1 - Σ_k σ_k(μ) and 1 - Σ_k σ_k(τ) - (Tr ρ_A² + Tr ρ_B²)/2, and the
optimizing bases come from the SVD factors.

:func:`correlation_matrix` and :func:`covariance_matrix` return plain real
arrays in user-supplied bases.  The optima are read from the record of
:func:`loowit.criteria.spectra` by :meth:`~loowit.criteria.Spectra.optimum`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import criteria, qstate
from .loo import LOOBasis, expectation_matrix
from .qstate import DensityMatrix


def correlation_matrix(rho: DensityMatrix, basis_a: LOOBasis, basis_b: LOOBasis) -> np.ndarray:
    """μ_lm = Tr(ρ G_l^A ⊗ G_m^B) = (F_A · R(ρ) · F_Bᵀ)_lm, a real dim_a²×dim_b² array.

    The expansion ρ = Σ_lm μ_lm G_l^A ⊗ G_m^B reconstructs the state for any
    LOO pair, and Σ_k σ_k(μ) is basis-independent.
    """
    return expectation_matrix(qstate.realign(rho), basis_a, basis_b)


def covariance_matrix(rho: DensityMatrix, basis_a: LOOBasis, basis_b: LOOBasis) -> np.ndarray:
    """τ = F_A · R(ρ - ρ_A⊗ρ_B) · F_Bᵀ = μ - a·bᵀ, the correlation matrix with
    the product R(ρ_A⊗ρ_B) = vec(ρ_A)·vec(ρ_B)ᵀ removed; zero on product states."""
    local = np.outer(qstate.partial_trace(rho, "B"), qstate.partial_trace(rho, "A"))
    return expectation_matrix(qstate.realign(rho) - local, basis_a, basis_b)


def linear_witness_value(rho: DensityMatrix, basis_a: LOOBasis, basis_b: LOOBasis) -> float:
    """1 - Σ_k ⟨G_k^A ⊗ G_k^B⟩ = 1 - Σ_k μ_kk for the given basis pair."""
    return 1.0 - float(np.trace(correlation_matrix(rho, basis_a, basis_b)))


def nonlinear_witness_value(rho: DensityMatrix, basis_a: LOOBasis, basis_b: LOOBasis) -> float:
    """Nonlinear witness value 1 - Σ_k τ_kk - (Tr ρ_A² + Tr ρ_B²)/2.

    Equal to the defining form only for complete trace-orthonormal bases
    (:class:`LOOBasis` checks only the shape), because it uses
    Σ_k ⟨G_k^A ⊗ I⟩² = Tr ρ_A² and likewise for B.  On rectangular states k
    runs over the shorter basis; the purities count the unpaired terms.
    """
    purity_a, purity_b = qstate.subsystem_purities(rho)
    return 1.0 - float(np.trace(covariance_matrix(rho, basis_a, basis_b))) - (purity_a + purity_b) / 2.0


class LinearOptimum(NamedTuple):
    value: float
    basis_a: LOOBasis
    basis_b: LOOBasis


class NonlinearOptimum(NamedTuple):
    value: float
    l_max: float
    basis_a: LOOBasis
    basis_b: LOOBasis


def optimal_linear_min(rho: DensityMatrix) -> LinearOptimum:
    """Minimum of the linear witness over all LOO pairs: 1 - Σ_k σ_k(μ).

    Also returns the minimizing bases; re-evaluating linear_witness_value at
    them reproduces the minimum.  Rectangular states are handled by the
    rectangular μ directly (the shorter side keeps its d² observables).
    """
    sigma_sum, opt_a, opt_b = criteria.spectra(rho).optimum("linear")
    return LinearOptimum(1.0 - sigma_sum, opt_a, opt_b)


def optimal_nonlinear_min(rho: DensityMatrix) -> NonlinearOptimum:
    """Minimum of the nonlinear witness over all LOO pairs.

    Equals 1 - Σ_k σ_k(τ) - (|a|² + |b|²)/2, τ = μ - a·bᵀ (purities |a|², |b|²);
    the returned l_max is the complementary maximum, 1 - value.
    """
    record = criteria.spectra(rho)
    sigma_sum, opt_a, opt_b = record.optimum("nonlinear")
    l_max = sigma_sum + (record.purity_a + record.purity_b) / 2.0
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
    if not abs(total - 1.0) <= 1e-9:  # NaN fails too
        raise ValueError(f"squared coefficients must sum to 1, got {total!r}")
    return float(c.sum()) ** 2
