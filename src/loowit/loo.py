"""Local orthogonal observables: complete Hermitian operator bases on one
subsystem, trace-orthonormal under Tr(G_k G_l) = δ_kl, together with the
orthogonal rotations connecting any two such bases and the frame products
that turn a realigned operator into its matrix of joint expectations.
:func:`correlations` builds the one record (μ, a, b) of a LOO pair, the
Gell-Mann pair by default, from which :mod:`loowit.criteria` reads the scores,
reference values, optimal bases and user-basis witness values.  A :class:`LOOBasis` is checked Hermitian
and orthonormal once, when it is built.

No SVD is taken here.  The operator-Schmidt form ρ = Σ_k σ_k G_k^A ⊗ G_k^B
has σ = ``criteria.spectra(ρ).realigned`` and the bases of
``criteria.spectra(ρ).optimum("linear")``, which computes SVD factors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .qstate import HERMITICITY_TOL, _checked_dims, _frozen

ORTHOGONALITY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class LOOBasis:
    """Ordered set of dim² Hermitian dim×dim observables, stacked on axis 0.
    Built only with a positive integer dim (Python or NumPy, not bool), the
    right shape, every G_k Hermitian within h = 1e-10 (NaN fails), and trace-orthonormal,
    hence complete, within (1 + dim·h)² - 1 + 2·dim²·ε: what entry errors up to h
    do to Tr(G_k G_l), plus the Gram's rounding (ε: float64 machine epsilon)."""

    dim: int
    observables: np.ndarray

    def __post_init__(self) -> None:
        (dim,) = _checked_dims(self.dim)
        object.__setattr__(self, "dim", dim)
        obs = np.array(self.observables, dtype=complex)
        expected = (dim**2, dim, dim)
        if obs.shape != expected:
            raise ValueError(f"observables must have shape {expected}, got {obs.shape}")
        object.__setattr__(self, "observables", _frozen(obs))
        residual = hermiticity_residual(self)
        if not residual <= HERMITICITY_TOL:  # NaN fails too
            raise ValueError(f"basis is not Hermitian: max |G_k - G_k^dagger| = {residual!r}")
        residual = orthonormality_residual(self)
        if not residual <= (1 + dim * HERMITICITY_TOL) ** 2 - 1 + 2 * dim**2 * np.finfo(float).eps:
            raise ValueError(f"basis is not orthonormal: max |Tr(G_k G_l) - delta_kl| = {residual!r}")

    def __len__(self) -> int:
        return self.observables.shape[0]

    def __getitem__(self, k: int) -> np.ndarray:
        return self.observables[k]

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.observables)


def hermiticity_residual(basis: LOOBasis) -> float:
    """max entrywise |G_k - G_k†| over the basis."""
    obs = basis.observables
    return float(np.abs(obs - obs.conj().transpose(0, 2, 1)).max())


def orthonormality_residual(basis: LOOBasis) -> float:
    """max |Tr(G_k G_l) - δ_kl| over all pairs, from the real Gram Re Tr(G_k G_l†)
    of the flat observables, which is Tr(G_k G_l) for Hermitian G_k."""
    vecs = basis.observables.reshape(len(basis), -1).view(float)
    gram = vecs @ vecs.T
    return float(np.abs(gram - np.eye(len(basis))).max())


@dataclass(frozen=True, eq=False)
class OrthogonalRotation:
    """Real orthogonal dim²×dim² matrix mapping one LOO basis to another.
    Its entries must be ints or floats: a complex or bool matrix raises."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix)
        if m.dtype.kind not in "iuf":  # ints and floats; not bool, complex, str or object
            raise ValueError(f"rotation must be a matrix of real numbers, got dtype {m.dtype}")
        m = m.astype(float, copy=False)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"rotation must be a square matrix, got shape {m.shape}")
        residual = float(np.abs(m @ m.T - np.eye(m.shape[0])).max())
        if not residual <= ORTHOGONALITY_TOL:  # NaN fails too
            raise ValueError(f"matrix is not orthogonal: max |O O^T - I| = {residual!r}")
        object.__setattr__(self, "matrix", _frozen(m))


def gell_mann_basis(d: int) -> LOOBasis:
    """The standard complete LOO basis in dimension d.

    Block order: symmetric (|m⟩⟨n|+|n⟩⟨m|)/√2 for m<n, then antisymmetric
    (i|m⟩⟨n|-i|n⟩⟨m|)/√2 for m<n, then the projectors |m⟩⟨m|; each pair
    block is lexicographic in (m, n).  Note the diagonal block keeps plain
    projectors rather than traceless combinations.
    """
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    return _gell_mann(d)


@functools.lru_cache(maxsize=8)  # a state or a scan needs two dims
def _gell_mann(d: int) -> LOOBasis:
    """:func:`gell_mann_basis`, built once per d; d = 1 frames a 1-dim side."""
    rows, cols = np.triu_indices(d, k=1)  # the pairs m < n, lexicographic in (m, n)
    symmetric = np.arange(len(rows))
    antisymmetric = symmetric + len(rows)
    diagonal = np.arange(d)
    obs = np.zeros((d * d, d, d), dtype=complex)
    obs[symmetric, rows, cols] = obs[symmetric, cols, rows] = 1 / np.sqrt(2)
    obs[antisymmetric, rows, cols] = 1j / np.sqrt(2)
    obs[antisymmetric, cols, rows] = -1j / np.sqrt(2)
    obs[2 * len(rows) + diagonal, diagonal, diagonal] = 1.0
    return LOOBasis(d, obs)


def pauli_basis() -> LOOBasis:
    """{σ_x, σ_y, σ_z, I}/√2, the familiar qubit LOO basis."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    i2 = np.eye(2, dtype=complex)
    return LOOBasis(2, np.stack([sx, sy, sz, i2]) / np.sqrt(2))


def transpose_basis(basis: LOOBasis) -> LOOBasis:
    """Elementwise transpose; orthonormality is preserved."""
    return LOOBasis(basis.dim, basis.observables.transpose(0, 2, 1))


def rotate(basis: LOOBasis, rotation) -> LOOBasis:
    """New basis G̃_k = Σ_l O_kl G_l for an orthogonal O.

    ``rotation`` may be an OrthogonalRotation or a raw matrix (validated
    here; a non-orthogonal matrix raises with the ‖O·Oᵀ - I‖ residual).
    """
    if not isinstance(rotation, OrthogonalRotation):
        rotation = OrthogonalRotation(rotation)
    o = rotation.matrix
    if o.shape[0] != len(basis):
        raise ValueError(f"rotation size {o.shape[0]} does not match basis size {len(basis)}")
    obs = basis.observables
    return LOOBasis(basis.dim, (o @ obs.reshape(len(basis), -1)).reshape(obs.shape))


def frame(observables: np.ndarray) -> np.ndarray:
    """F for a stack of observables: row k is G_k transposed and flattened
    row-major, so F·vec(X) lists Tr(G_k X).  For Hermitian G_k the row is G_k
    conjugated, and for a complete LOO basis F is a unitary d²×d² matrix."""
    return observables.transpose(0, 2, 1).reshape(len(observables), -1)


def correlations(
    realigned: np.ndarray, basis_a: LOOBasis | None = None, basis_b: LOOBasis | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The record (μ, a, b) of a realigned R(X) (:func:`qstate.realign`), or of a
    stack, in one LOO pair: μ = F_A · R(X) · F_Bᵀ, the real matrix of joint
    expectations Tr(X G_l^A ⊗ G_m^B), a = μ·t_B and b = t_Aᵀ·μ, t_k = Tr G_k.
    A side left None takes the cached Gell-Mann basis; every :class:`LOOBasis`
    was checked Hermitian when it was built, so the real part is the whole
    expectation, and none is checked here.  For a non-Hermitian X the entries
    are those of its Hermitian part.  A complete basis has Σ_k t_k G_k = I, so
    a = ⟨G_l^A ⊗ I⟩ and b = ⟨I ⊗ G_m^B⟩, |a|² and |b|² are Tr ρ_A² and
    Tr ρ_B², and τ = μ - a·bᵀ is the covariance matrix F_A · R(ρ - ρ_A⊗ρ_B) · F_Bᵀ."""
    basis_a, basis_b = (
        _gell_mann(math.isqrt(n)) if basis is None else basis
        for n, basis in zip(realigned.shape[-2:], (basis_a, basis_b))
    )
    if realigned.shape[-2:] != (len(basis_a), len(basis_b)):
        raise ValueError(
            f"basis dims ({basis_a.dim}, {basis_b.dim}) do not match the "
            f"{realigned.shape[-2]}x{realigned.shape[-1]} realigned matrix"
        )
    raw = frame(basis_a.observables) @ realigned @ frame(basis_b.observables).T
    mu = np.ascontiguousarray(raw.real)
    t_a, t_b = (np.trace(basis.observables, axis1=1, axis2=2).real for basis in (basis_a, basis_b))
    return mu, mu @ t_b, t_a @ mu
