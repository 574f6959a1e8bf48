"""Bipartite density matrices: validation, reductions, the canonical states
and their one-parameter mixtures.

Convention used throughout the package: the joint Hilbert space is
C^dim_a ⊗ C^dim_b with the row-major product basis |i⟩_A|j⟩_B ↦ i·dim_b + j.
All operations are pure functions; arrays held by the dataclasses are made
read-only, so values are safe to share across threads.  The reductions
(:func:`partial_trace`, :func:`partial_transpose`, :func:`realign`) take a
DensityMatrix or a stack of tensor views through :func:`tensor_view` and act
per state on a stack.  ``loo.correlations`` turns :func:`realign` into the one
record (μ, a, b) from which ``criteria`` reads every score, optimum and
witness value, and whose |a|², |b|² are the subsystem purities.  :func:`trace_norm` takes
a values-only SVD and :func:`schmidt` factors a pure state's d_a×d_b
coefficient matrix.  State files are read and written by :mod:`loowit.codec`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-10
UNIT_TRACE_TOL = 1e-10
# Eigensolvers are noisier than entrywise comparisons, so the PSD check is
# deliberately looser than the Hermiticity/trace checks.
PSD_TOL = 1e-9
STATE_NORM_TOL = 1e-10
PURITY_TOL = 1e-8


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A bipartite state: complex (dim_a·dim_b)² matrix plus subsystem dims.

    The constructor enforces structure only (entries that are numbers, shape
    and positive integer dims, Python or NumPy, not bool); the physical
    invariants are checked by :func:`loowit.criteria.spectra`.
    """

    dim_a: int
    dim_b: int
    data: np.ndarray

    def __post_init__(self) -> None:
        dim_a, dim_b = _checked_dims(self.dim_a, self.dim_b)
        object.__setattr__(self, "dim_a", dim_a)
        object.__setattr__(self, "dim_b", dim_b)
        data = np.array(_numbers(self.data), dtype=complex)
        n = self.dim_a * self.dim_b
        if data.shape != (n, n):
            raise ValueError(f"state matrix must be {n}x{n} for dims ({self.dim_a}, {self.dim_b}), got {data.shape}")
        object.__setattr__(self, "data", _frozen(data))

    @property
    def total_dim(self) -> int:
        return self.dim_a * self.dim_b

    def as_tensor(self) -> np.ndarray:
        """View as a (dim_a, dim_b, dim_a, dim_b) tensor: [i,j,k,l] = ⟨ij|ρ|kl⟩."""
        return self.data.reshape(self.dim_a, self.dim_b, self.dim_a, self.dim_b)


def _numbers(data) -> np.ndarray:
    """``data`` as an array, whose entries must be ints, floats or complex: not bool, str or object."""
    if (array := np.asarray(data)).dtype.kind not in "iufc":
        raise ValueError(f"state entries must be numbers, got dtype {array.dtype}")
    return array


def _checked_dims(*dims) -> tuple[int, ...]:
    """Subsystem dims as Python ints; each must be a positive integer, Python or NumPy, not bool."""
    if not all(isinstance(d, (int, np.integer)) and not isinstance(d, bool) and d > 0 for d in dims):
        raise ValueError(f"subsystem dimensions must be positive integers, got {dims!r}")
    return tuple(map(int, dims))


# The invariants of a state in the order of their lines, and each one's largest allowed residual.
_INVARIANTS = ("finite", "hermitian", "unit_trace", "positive_semidefinite")
_LIMITS = np.array([[0.0], [HERMITICITY_TOL], [UNIT_TRACE_TOL], [PSD_TOL]])


def _violations(m: np.ndarray, eigenvalues: np.ndarray | None = None) -> list[tuple[str, float]]:
    """The (invariant, residual) pairs of the first of the matrices ``m`` (one, or a stack on leading
    axes) that is not a state, or [].  A state is Hermitian and of unit trace within 1e-10, and
    positive semidefinite: λ_min ≥ -1e-9 for the ``eigenvalues`` λ of (m + m†)/2, which one batched
    eigensolve computes when None.  A matrix with NaN or infinite entries gets only a ``finite``
    violation, counting them, as none of the three can be measured on it."""
    m = m.reshape(-1, *m.shape[-2:])
    nonfinite = np.count_nonzero(~np.isfinite(m), axis=(1, 2))
    finite = nonfinite == 0
    h = np.where(finite[:, None, None], m, 0)  # eigvalsh may not converge on a non-finite matrix
    adjoint = h.conj().swapaxes(1, 2)
    if eigenvalues is None:
        eigenvalues = np.linalg.eigvalsh((h + adjoint) / 2) if finite.any() else np.zeros(m.shape[:2])
    trace = np.trace(h, axis1=1, axis2=2) - 1.0  # |trace| by hypot, to the bit Python's abs of a complex
    residuals = np.stack([nonfinite, np.abs(h - adjoint).max(axis=(1, 2)),  # a row per invariant
                          np.hypot(trace.real, trace.imag), -eigenvalues.reshape(m.shape[:2]).min(axis=1)])
    fails = residuals > _LIMITS
    fails[1:] &= finite
    if not fails.any():
        return []
    first = fails.any(axis=0).argmax()
    return [(name, float(r)) for name, r, f in zip(_INVARIANTS, residuals[:, first], fails[:, first]) if f]


def _subsystem_axes(subsystem: str) -> tuple[int, int]:
    """The row and column axes of one party in a tensor view."""
    s = str(subsystem).upper()
    if s not in ("A", "B"):
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    return (-4, -2) if s == "A" else (-3, -1)


def tensor_view(rho) -> np.ndarray:
    """The (dim_a, dim_b, dim_a, dim_b) tensor view of a DensityMatrix (see
    :meth:`DensityMatrix.as_tensor`), or an array of such views stacked on
    leading axes, returned as given; its entries must be numbers (see
    :func:`_numbers`).  Every reduction below takes either."""
    tensor = rho.as_tensor() if isinstance(rho, DensityMatrix) else _numbers(rho)
    if tensor.ndim < 4 or tensor.shape[-4:-2] != tensor.shape[-2:]:
        raise ValueError(f"need a stack of (d_a, d_b, d_a, d_b) tensor views, got shape {tensor.shape}")
    return tensor


def partial_trace(rho, subsystem: str) -> np.ndarray:
    """Trace out one subsystem; returns the reduced state of the other.

    ``subsystem`` names the party traced *over*: partial_trace(rho, "B")
    returns the dim_a × dim_a reduced state of A.
    """
    axis1, axis2 = _subsystem_axes(subsystem)
    return np.trace(tensor_view(rho), axis1=axis1, axis2=axis2)


def partial_transpose(rho, subsystem: str) -> np.ndarray:
    """Transpose the indices of one subsystem; Hermitian but possibly not PSD.

    A pure index permutation, so applying it twice returns the original
    matrix exactly.
    """
    tensor = tensor_view(rho)
    n = tensor.shape[-4] * tensor.shape[-3]
    return np.swapaxes(tensor, *_subsystem_axes(subsystem)).reshape(tensor.shape[:-4] + (n, n))


def realign(rho) -> np.ndarray:
    """Rearrange ρ into the dim_a² × dim_b² realigned matrix.

    Entry at row (i,k), column (j,l) equals ⟨ij|ρ|kl⟩.  Its trace norm is
    the realignment-criterion quantity: > 1 certifies entanglement.
    """
    tensor = tensor_view(rho)
    dim_a, dim_b = tensor.shape[-4:-2]
    return np.swapaxes(tensor, -3, -2).reshape(tensor.shape[:-4] + (dim_a**2, dim_b**2))


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values (Ky Fan / nuclear norm) of one 2-D matrix; a stack raises."""
    if np.ndim(m) != 2:
        raise ValueError(f"trace_norm needs one 2-D matrix, got shape {np.shape(m)}")
    return float(np.linalg.svd(m, compute_uv=False).sum())


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """ψ = Σ_k c_k |a_k⟩|b_k⟩ with c non-increasing, Σ c² = 1.

    ``basis_a`` / ``basis_b`` hold the orthonormal vectors as rows, one row
    per coefficient (min(dim_a, dim_b) of them, zeros included).
    """

    coefficients: np.ndarray
    basis_a: np.ndarray
    basis_b: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficients", _frozen(np.array(self.coefficients, dtype=float)))
        object.__setattr__(self, "basis_a", _frozen(np.array(self.basis_a, dtype=complex)))
        object.__setattr__(self, "basis_b", _frozen(np.array(self.basis_b, dtype=complex)))

    def reconstruct(self) -> np.ndarray:
        """The state vector Σ_k c_k |a_k⟩ ⊗ |b_k⟩."""
        return sum(
            c * np.kron(a, b)
            for c, a, b in zip(self.coefficients, self.basis_a, self.basis_b)
        )


def pure_state_vector(state, dim_a: int | None = None, dim_b: int | None = None):
    """Coerce a pure-state input to a normalized vector plus dims.

    Accepts a state vector, a DensityMatrix (dims left None or equal to its
    own), or a raw projector matrix (then dims are required).  Entries must be
    numbers and given dims positive integers, as :class:`DensityMatrix`
    requires.  A matrix must pass :func:`_violations` and have purity
    Tr ρ² ≥ 1 - 1e-8, both read off one eigensolve (Tr ρ² = Σ λ²), whose
    dominant eigenvector is the returned psi.  Returns (psi, dim_a, dim_b).
    """
    if isinstance(state, DensityMatrix):
        own = (state.dim_a, state.dim_b)
        if any(d is not None and d != o for d, o in zip((dim_a, dim_b), own)):
            raise ValueError(f"state of dims {own} does not match dims ({dim_a}, {dim_b})")
        rho = state
    else:
        arr = np.asarray(_numbers(state), dtype=complex)
        if dim_a is None or dim_b is None:
            raise ValueError("dim_a and dim_b are required for a bare state vector or a raw matrix")
        dim_a, dim_b = _checked_dims(dim_a, dim_b)
        if arr.ndim == 1:
            if dim_a * dim_b != arr.size:
                raise ValueError(f"vector of length {arr.size} does not match dims ({dim_a}, {dim_b})")
            norm = float(np.linalg.norm(arr))
            if not abs(norm - 1.0) <= STATE_NORM_TOL:  # NaN fails too
                raise ValueError(f"state vector is not normalized: norm = {norm!r}")
            return arr, dim_a, dim_b
        if arr.shape != (dim_a * dim_b,) * 2:
            raise ValueError(f"matrix of shape {arr.shape} does not match dims ({dim_a}, {dim_b})")
        rho = DensityMatrix(dim_a, dim_b, arr)
    mat = rho.data
    eigenvalues, vectors = np.linalg.eigh((mat + mat.conj().T) / 2) if np.isfinite(mat).all() else (None, None)
    if violations := _violations(mat, eigenvalues):
        raise ValueError("not a pure state: " + ", ".join(f"{name} residual {r!r}" for name, r in violations))
    p = float(eigenvalues @ eigenvalues)
    if not p >= 1.0 - PURITY_TOL:
        raise ValueError(f"not a pure state: Tr rho^2 = {p!r}")
    psi = vectors[:, -1]
    return psi / np.linalg.norm(psi), rho.dim_a, rho.dim_b


def schmidt(psi, dim_a: int | None = None, dim_b: int | None = None) -> SchmidtDecomposition:
    """Schmidt decomposition of a bipartite pure state.

    ``psi`` may be a vector (normalized within 1e-10), a DensityMatrix, or a
    projector matrix.  Coefficients come back non-increasing and reconstruct
    the input vector within 1e-9.
    """
    vec, da, db = pure_state_vector(psi, dim_a, dim_b)
    u, s, vh = np.linalg.svd(vec.reshape(da, db))
    r = min(da, db)
    return SchmidtDecomposition(s[:r], u[:, :r].T, vh[:r, :])


def pure_state(psi, dim_a: int | None = None, dim_b: int | None = None) -> DensityMatrix:
    """Projector |ψ⟩⟨ψ| as a DensityMatrix, from any input of :func:`pure_state_vector`
    (a vector normalized within 1e-10, a DensityMatrix or a projector matrix)."""
    vec, da, db = pure_state_vector(psi, dim_a, dim_b)
    return DensityMatrix(da, db, np.outer(vec, vec.conj()))


# ---------------------------------------------------------------------------
# canonical states


def _ket(dim: int, i: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[i] = 1.0
    return v


@functools.cache
def _bell() -> DensityMatrix:
    psi = (np.kron(_ket(2, 0), _ket(2, 0)) + np.kron(_ket(2, 1), _ket(2, 1))) / np.sqrt(2)
    return pure_state(psi, 2, 2)


@functools.cache
def _noisy_singlet_parts() -> tuple[DensityMatrix, DensityMatrix]:
    """|ψ_s⟩⟨ψ_s| and 2/3·|00⟩⟨00| + 1/3·|01⟩⟨01|, the endpoints of ``noisy_singlet``."""
    singlet = (np.kron(_ket(2, 0), _ket(2, 1)) - np.kron(_ket(2, 1), _ket(2, 0))) / np.sqrt(2)
    k00 = np.kron(_ket(2, 0), _ket(2, 0))
    k01 = np.kron(_ket(2, 0), _ket(2, 1))
    sep = 2 / 3 * np.outer(k00, k00.conj()) + 1 / 3 * np.outer(k01, k01.conj())
    return DensityMatrix(2, 2, np.outer(singlet, singlet.conj())), DensityMatrix(2, 2, sep)


@functools.cache
def _upb() -> DensityMatrix:
    """3×3 bound entangled state built from the five-tile unextendible product basis."""
    k = lambda i: _ket(3, i)
    s2 = 1 / np.sqrt(2)
    tiles = [
        np.kron(k(0), s2 * (k(0) - k(1))),
        np.kron(s2 * (k(0) - k(1)), k(2)),
        np.kron(k(2), s2 * (k(1) - k(2))),
        np.kron(s2 * (k(1) - k(2)), k(0)),
        np.kron((k(0) + k(1) + k(2)) / np.sqrt(3), (k(0) + k(1) + k(2)) / np.sqrt(3)),
    ]
    proj = sum(np.outer(t, t.conj()) for t in tiles)
    return DensityMatrix(3, 3, (np.eye(9) - proj) / 4)


def white_noise_mixture(rho: DensityMatrix, p: float) -> DensityMatrix:
    """p·ρ + (1-p)·I/n, the one-parameter white-noise family around ρ."""
    _check_unit_interval(p)
    n = rho.total_dim
    return DensityMatrix(rho.dim_a, rho.dim_b, p * rho.data + (1 - p) * np.eye(n) / n)


def mixture(rho_1: DensityMatrix, rho_2: DensityMatrix, p: float) -> DensityMatrix:
    """Convex mixture p·ρ₁ + (1-p)·ρ₂ of two states with equal dims."""
    _check_unit_interval(p)
    _check_equal_dims(rho_1, rho_2)
    return DensityMatrix(rho_1.dim_a, rho_1.dim_b, p * rho_1.data + (1 - p) * rho_2.data)


def _is_real_number(v) -> bool:
    """A Python or NumPy int or float, not a bool or an array."""
    return isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)


def _check_unit_interval(p: float) -> None:
    """p must be a real number (:func:`_is_real_number`) in [0, 1]."""
    if not (_is_real_number(p) and 0.0 <= p <= 1.0):
        raise ValueError(f"mixing parameter must be a number in [0, 1], got {p!r}")


def _check_equal_dims(rho_1: DensityMatrix, rho_2: DensityMatrix) -> None:
    if (rho_1.dim_a, rho_1.dim_b) != (rho_2.dim_a, rho_2.dim_b):
        raise ValueError(
            f"mixture requires equal dims, got ({rho_1.dim_a}, {rho_1.dim_b}) "
            f"and ({rho_2.dim_a}, {rho_2.dim_b})"
        )


STATE_NAMES = ("bell", "noisy_singlet", "upb", "upb_noise")


def make_state(name: str, p: float | None = None) -> DensityMatrix:
    """Canonical state generators.

    - ``bell``: (|00⟩+|11⟩)/√2 projector.
    - ``noisy_singlet``: p·|ψ_s⟩⟨ψ_s| + (1-p)·(2/3·|00⟩⟨00| + 1/3·|01⟩⟨01|)
      with ψ_s = (|01⟩-|10⟩)/√2, the :func:`mixture` of its two endpoints;
      requires p.
    - ``upb``: the 3×3 bound entangled tiles-UPB state.
    - ``upb_noise``: p·upb + (1-p)·I/9 (:func:`white_noise_mixture`); requires p.

    ``bell`` and ``upb`` take no p and reject one.

    The fixed states and endpoints are built once per process, on first use, and
    shared read-only (every result's ``data`` is read-only).  ``bell`` and
    ``upb`` return the same object on every call, so, DensityMatrix being
    ``eq=False``, ``make_state("upb") == make_state("upb")`` holds by
    identity; ``noisy_singlet`` and ``upb_noise`` build a new state per call.
    """
    if name not in STATE_NAMES:
        raise ValueError(f"unknown state name {name!r}; known: {', '.join(STATE_NAMES)}")
    takes_p = name in ("noisy_singlet", "upb_noise")
    if takes_p and p is None:
        raise ValueError(f"{name} requires the mixing parameter p")
    if not takes_p and p is not None:
        raise ValueError(f"{name} takes no mixing parameter, got p={p!r}")
    if name == "bell":
        return _bell()
    if name == "upb":
        return _upb()
    if name == "noisy_singlet":
        return mixture(*_noisy_singlet_parts(), p)
    return white_noise_mixture(_upb(), p)
