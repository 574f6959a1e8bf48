"""Seeded samplers shared by the test suite, and the correlation and
covariance matrices of a state in user-supplied bases.

Every seeded test draws its states, unitaries and rotations from these
functions, so one seed names the same draw in every test module.  A seed is
an int or a ``numpy.random.Generator``, which is then consumed in place.
"""

from __future__ import annotations

import numpy as np

from loowit.loo import OrthogonalRotation, correlations
from loowit.qstate import DensityMatrix, pure_state, realign


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def haar_state_vector(dim: int, rng) -> np.ndarray:
    """Haar-distributed pure state: normalized complex Gaussian vector."""
    g = _rng(rng)
    v = g.standard_normal(dim) + 1j * g.standard_normal(dim)
    return v / np.linalg.norm(v)


def haar_unitary(dim: int, rng) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    g = _rng(rng)
    z = g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_pure_state(dim_a: int, dim_b: int, rng) -> DensityMatrix:
    return pure_state(haar_state_vector(dim_a * dim_b, _rng(rng)), dim_a, dim_b)


def random_mixed_state(dim_a: int, dim_b: int, rng, rank: int | None = None) -> DensityMatrix:
    """Mixed state as the partial trace of a larger Haar pure state."""
    g = _rng(rng)
    n = dim_a * dim_b
    r = n if rank is None else rank
    m = haar_state_vector(n * r, g).reshape(n, r)
    return DensityMatrix(dim_a, dim_b, m @ m.conj().T)


def random_product_state(dim_a: int, dim_b: int, rng) -> DensityMatrix:
    g = _rng(rng)
    psi = np.kron(haar_state_vector(dim_a, g), haar_state_vector(dim_b, g))
    return pure_state(psi, dim_a, dim_b)


def random_separable_state(dim_a: int, dim_b: int, rng, max_terms: int = 9) -> DensityMatrix:
    """Convex mixture of up to ``max_terms`` random product states."""
    g = _rng(rng)
    k = int(g.integers(1, max_terms + 1))
    weights = g.dirichlet(np.ones(k))
    data = np.zeros((dim_a * dim_b, dim_a * dim_b), dtype=complex)
    for w in weights:
        data += w * random_product_state(dim_a, dim_b, g).data
    return DensityMatrix(dim_a, dim_b, data)


def local_unitary_conjugate(rho: DensityMatrix, u_a: np.ndarray, u_b: np.ndarray) -> DensityMatrix:
    """(U_A ⊗ U_B) ρ (U_A ⊗ U_B)†."""
    u = np.kron(u_a, u_b)
    return DensityMatrix(rho.dim_a, rho.dim_b, u @ rho.data @ u.conj().T)


def haar_rotation(size: int, rng) -> OrthogonalRotation:
    """Haar-distributed orthogonal matrix: QR of a Gaussian matrix with the
    R-diagonal signs folded in."""
    g = _rng(rng)
    q, r = np.linalg.qr(g.standard_normal((size, size)))
    signs = np.sign(np.diagonal(r))
    signs[signs == 0] = 1.0
    return OrthogonalRotation(q * signs)


def correlation_matrix(rho: DensityMatrix, basis_a, basis_b) -> np.ndarray:
    """μ_lm = Tr(ρ G_l^A ⊗ G_m^B), read from the record of ``loo.correlations``."""
    return correlations(realign(rho), basis_a, basis_b)[0]


def covariance_matrix(rho: DensityMatrix, basis_a, basis_b) -> np.ndarray:
    """τ = μ - a·bᵀ, read from the record of ``loo.correlations``."""
    mu, a, b = correlations(realign(rho), basis_a, basis_b)
    return mu - np.outer(a, b)
