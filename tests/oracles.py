"""Brute-force references that the test suite checks the library against.

This module imports numpy only, never ``loowit``, so no reference here can
share a computation path, or a bug, with the library it checks.  It takes the
library's objects by duck typing: a state has ``data``, ``dim_a`` and
``dim_b``; a basis has ``len`` and indexing.
"""

from __future__ import annotations

import numpy as np

# σ_y ⊗ σ_y, the spin flip of two qubits.
_SIGMA_YY = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])


def recompute_witness_direct(rho, basis_a, basis_b, kind: str) -> float:
    """Witness value by definition: explicit G_k^A ⊗ G_k^B products and traces.

    ``kind`` is "linear" or "nonlinear"; unequal basis lengths are padded
    with zero operators.
    """
    if kind not in ("linear", "nonlinear"):
        raise ValueError(f"kind must be 'linear' or 'nonlinear', got {kind!r}")
    da, db = rho.dim_a, rho.dim_b
    id_a = np.eye(da, dtype=complex)
    id_b = np.eye(db, dtype=complex)
    zero_a = np.zeros((da, da), dtype=complex)
    zero_b = np.zeros((db, db), dtype=complex)
    total = 1.0
    for k in range(max(len(basis_a), len(basis_b))):
        ga = basis_a[k] if k < len(basis_a) else zero_a
        gb = basis_b[k] if k < len(basis_b) else zero_b
        total -= float(np.trace(rho.data @ np.kron(ga, gb)).real)
        if kind == "nonlinear":
            mean_a = float(np.trace(rho.data @ np.kron(ga, id_b)).real)
            mean_b = float(np.trace(rho.data @ np.kron(id_a, gb)).real)
            total -= 0.5 * (mean_a - mean_b) ** 2
    return total


def max_concurrence(dim_min: int) -> float:
    """Largest possible I-concurrence √(2(m-1)/m) for min subsystem dimension m,
    reached by the maximally entangled states."""
    return float(np.sqrt(2.0 * (dim_min - 1) / dim_min))


def wootters_concurrence(data) -> float:
    """Concurrence of a two-qubit density matrix (Wootters, PRL 80, 2245, 1998).

    C = max(0, s₁ - s₂ - s₃ - s₄), s the non-increasing singular values of
    Lᵀ(σ_y⊗σ_y)L for ρ = LL†.  They are the square roots of the eigenvalues of
    ρ(σ_y⊗σ_y)ρ*(σ_y⊗σ_y), here without forming that product or its square
    roots.  For two qubits C equals the I-concurrence.
    """
    data = np.asarray(data)
    if data.shape != (4, 4):
        raise ValueError(f"a two-qubit density matrix is 4x4, got shape {data.shape}")
    w, v = np.linalg.eigh(data)
    root = v * np.sqrt(np.clip(w, 0.0, None))  # L, with ρ = LL† up to rounding
    s = np.linalg.svd(root.T @ _SIGMA_YY @ root, compute_uv=False)
    return max(0.0, float(s[0] - s[1:].sum()))
