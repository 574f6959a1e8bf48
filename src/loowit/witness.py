"""Linear and nonlinear entanglement witnesses built from local orthogonal
observables, and their closed-form optima.

For LOO bases {G_k^A}, {G_k^B} the two witness values are

    linear:     1 - Σ_k ⟨G_k^A ⊗ G_k^B⟩
    nonlinear:  1 - Σ_k ⟨G_k^A ⊗ G_k^B⟩ - (1/2) Σ_k ⟨G_k^A⊗I - I⊗G_k^B⟩²

Both are non-negative on every separable state for every basis choice, so a
negative value certifies entanglement.

Every basis-dependent number is read from one record (μ, a, b) of
:func:`loo.correlations`: μ = F_A · R(ρ) · F_Bᵀ is the correlation matrix
μ_lm = ⟨G_l^A⊗G_m^B⟩, a, b are the local expectation vectors, and
τ = μ - a·bᵀ = F_A · R(ρ - ρ_A⊗ρ_B) · F_Bᵀ is the covariance matrix
(R: realignment; F: the frame of :func:`loo.frame`).  A change of LOO basis
rotates μ and τ orthogonally on each side.  The purities are
Tr ρ_A² = |a|² and Tr ρ_B² = |b|².  The values are
1 - Σ_k μ_kk and 1 - Σ_k τ_kk - (Tr ρ_A² + Tr ρ_B²)/2, the minima
1 - Σ_k σ_k(μ) and 1 - Σ_k σ_k(τ) - (Tr ρ_A² + Tr ρ_B²)/2, and the
optimizing bases come from the SVD factors.

Each function of a state reads the record of :func:`loowit.criteria.spectra`,
which raises ValueError on a non-state (one eigensolve per call): the witness
values in user-supplied bases, and the optima by ``Spectra.optimum``, which
:func:`optimum_bracket` certifies at their bases from the same record.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import criteria
from .loo import LOOBasis
from .qstate import DensityMatrix


def linear_witness_value(rho: DensityMatrix, basis_a: LOOBasis, basis_b: LOOBasis) -> float:
    """1 - Σ_k ⟨G_k^A ⊗ G_k^B⟩ = 1 - Σ_k μ_kk for the given basis pair."""
    return 1.0 - float(np.trace(criteria.spectra(rho).in_bases(basis_a, basis_b)[0]))


def nonlinear_witness_value(rho: DensityMatrix, basis_a: LOOBasis, basis_b: LOOBasis) -> float:
    """Nonlinear witness value 1 - Σ_k τ_kk - (Tr ρ_A² + Tr ρ_B²)/2, with the
    purities read as |a|², |b|² from the same record as τ = μ - a·bᵀ.

    It uses Σ_k ⟨G_k^A ⊗ I⟩² = Tr ρ_A², and likewise for B, which holds
    because every :class:`LOOBasis` is complete.  On rectangular states k runs
    over the shorter basis; the purities count the unpaired terms.
    """
    mu, a, b = criteria.spectra(rho).in_bases(basis_a, basis_b)
    return 1.0 - float(np.trace(mu - np.outer(a, b))) - float(a @ a + b @ b) / 2.0


def optimum_bracket(record: criteria.Spectra, kind: str, analytic: float, basis_a: LOOBasis, basis_b: LOOBasis):
    """(lower, upper, certified) for ``analytic`` = ‖M‖_tr, M = μ (``"linear"``) or τ (``"nonlinear"``)
    of one state's ``record``, at the bases that its :meth:`~loowit.criteria.Spectra.optimum` gives with it.

    D is M in those bases, by the frame product of :meth:`~loowit.criteria.Spectra.in_bases`
    (no SVD); E is its off-diagonal part and k = min(D.shape).  D = O_A·M·O_Bᵀ for
    orthogonal O_A, O_B, so by von Neumann's trace inequality and ‖E‖_tr ≤ √k·‖E‖_F,
    lower = Tr D ≤ ‖M‖_tr ≤ Σ|D_ii| + √k·‖E‖_F = upper: both are Σσ(M) at the
    optimum, and a wrong SVD factor or rotation leaves off-diagonal mass.

    Certified: upper - lower ≤ A and lower - A ≤ analytic ≤ upper + A, where
    A = 24·√k·n·ε, n = d_A² + d_B², ε the float64 epsilon.  In the first-order
    rounding model a backward-stable stage of size ≤ n (a frame or rotation
    product, an SVD) moves its matrix by ≤ n·ε·‖·‖_F, and ‖M‖_F ≤ ‖R(ρ)‖_F +
    ‖R(ρ_A⊗ρ_B)‖_F ≤ 2.  Four stages (frame product to M, SVD, basis rotations,
    frame product to D) put D within δ = 8·n·ε of the SVD's Σ; so Tr D, Σ|D_ii|
    and √k·‖E‖_F each move by ≤ √k·δ, the width is ≤ 3·√k·δ = A and each end
    lies within A of ``analytic``.
    """
    if kind not in ("linear", "nonlinear"):
        raise ValueError(f"kind must be 'linear' or 'nonlinear', got {kind!r}")
    mu, a, b = record.in_bases(basis_a, basis_b)
    d = mu - np.outer(a, b) if kind == "nonlinear" else mu
    k, diagonal = min(d.shape), np.diagonal(d)
    lower = float(diagonal.sum())
    upper = float(np.abs(diagonal).sum() + math.sqrt(k) * np.linalg.norm(d[~np.eye(*d.shape, dtype=bool)]))
    allowance = 24 * math.sqrt(k) * sum(d.shape) * math.ulp(1.0)  # ulp(1.0) = ε
    return lower, upper, upper - lower <= allowance and lower - allowance <= analytic <= upper + allowance


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

    ``coefficients``, a 1-D array of ints or floats, are the Schmidt
    coefficients c_i = √μ_i (non-negative, Σ c_i² = 1); the maximum is (Σ_i c_i)²."""
    c = np.asarray(coefficients)
    if c.ndim != 1 or c.dtype.kind not in "iuf":  # ints and floats; not bool, complex, str or object
        raise ValueError(f"Schmidt coefficients must be a 1-D array of real numbers, got {coefficients!r}")
    if c.size == 0 or (c < 0).any():
        raise ValueError("Schmidt coefficients must be non-negative")
    total = float(c @ c)
    if not abs(total - 1.0) <= 1e-9:  # NaN fails too
        raise ValueError(f"squared coefficients must sum to 1, got {total!r}")
    return float(c.sum()) ** 2
