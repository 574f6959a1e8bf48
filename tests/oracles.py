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

# Fixed chunk so that sampling streams agree on their common prefix whenever
# sample counts are multiples of it (the shrinking-gap check relies on this).
_CHUNK = 100


def _orthogonal_batch(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((count, n, n)))
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    return q * signs[:, None, :]


def sampled_max_trace(matrix, samples: int, seed: int) -> float:
    """Best Tr(U M Vᵀ) over ``samples`` seeded random orthogonal pairs (U, V).

    It samples the rotation group directly, sharing no computation with the
    closed form Σ_k σ_k(M), which no sample can exceed.  Same seed, same
    result, to the bit.  M must be one 2-D matrix of finite ints or floats: a
    complex or bool M, a stack, a vector or a NaN entry raises before any
    sample is drawn.
    """
    m = np.asarray(matrix)
    if m.dtype.kind not in "iuf" or m.ndim != 2 or not np.isfinite(m).all():
        raise ValueError(f"matrix must be one 2-D matrix of finite real numbers, got {m.dtype} of shape {m.shape}")
    m = m.astype(float, copy=False)
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)) or samples < 1:
        raise ValueError(f"samples must be an integer >= 1, got {samples!r}")
    rows, cols = m.shape
    k = min(rows, cols)
    rng = np.random.default_rng(seed)
    best = -np.inf
    for done in range(0, samples, _CHUNK):
        count = min(_CHUNK, samples - done)
        u = _orthogonal_batch(rng, rows, count)
        v = _orthogonal_batch(rng, cols, count)
        traces = np.einsum("skj,jl,skl->s", u[:, :k, :], m, v[:, :k, :], optimize=True)
        best = max(best, float(traces.max()))
    return best


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
