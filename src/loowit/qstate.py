"""Bipartite density matrices: validation, reductions, the canonical states
and their one-parameter mixtures, and the state file format.

Convention used throughout the package: the joint Hilbert space is
C^dim_a ⊗ C^dim_b with the row-major product basis |i⟩_A|j⟩_B ↦ i·dim_b + j.
All operations are pure functions; arrays held by the dataclasses are made
read-only, so values are safe to share across threads.  The reductions
(:func:`partial_trace`, :func:`partial_transpose`, :func:`realign`,
:func:`subsystem_purities`) take a DensityMatrix or a stack of tensor views
through :func:`tensor_view` and act per state on a stack.
``loo.gell_mann_correlations`` turns :func:`realign` into the one record
(μ, a, b) that the scores and optima read.  :func:`trace_norm` takes
values-only SVDs and :func:`schmidt` factors a pure state's d_a×d_b
coefficient matrix.  The state file codec is :func:`state_to_document` /
:func:`state_from_document`, and :func:`load_state` decodes a canonical
document (the shape :func:`save_state` writes) without the document's nested
lists; :func:`write_pairs_json` is the codec's array-to-text path, which
writes a complex array as indented JSON a fixed chunk of floats at a time,
without building the nested lists of :func:`complex_to_pairs`.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from typing import IO, NamedTuple

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

    The constructor enforces structure only (shape and positive integer
    dims, Python or NumPy, not bool); the physical invariants are checked by
    :func:`validate`.
    """

    dim_a: int
    dim_b: int
    data: np.ndarray

    def __post_init__(self) -> None:
        dims = (self.dim_a, self.dim_b)
        if not all(isinstance(d, (int, np.integer)) and not isinstance(d, bool) and d > 0 for d in dims):
            raise ValueError(f"subsystem dimensions must be positive integers, got {dims!r}")
        object.__setattr__(self, "dim_a", int(self.dim_a))
        object.__setattr__(self, "dim_b", int(self.dim_b))
        data = np.array(self.data, dtype=complex)
        n = self.dim_a * self.dim_b
        if data.shape != (n, n):
            raise ValueError(
                f"state matrix must be {n}x{n} for dims "
                f"({self.dim_a}, {self.dim_b}), got {data.shape}"
            )
        object.__setattr__(self, "data", _frozen(data))

    @property
    def total_dim(self) -> int:
        return self.dim_a * self.dim_b

    def as_tensor(self) -> np.ndarray:
        """View as a (dim_a, dim_b, dim_a, dim_b) tensor: [i,j,k,l] = ⟨ij|ρ|kl⟩."""
        return self.data.reshape(self.dim_a, self.dim_b, self.dim_a, self.dim_b)


class Violation(NamedTuple):
    """One failed state invariant together with its measured residual."""

    invariant: str
    residual: float


def validate(rho: DensityMatrix) -> list[Violation]:
    """Check the three density-matrix invariants.

    Returns an empty list iff ``rho`` is Hermitian (within 1e-10), has unit
    trace (within 1e-10) and is positive semidefinite (smallest eigenvalue
    ≥ -1e-9).  A matrix with NaN or infinite entries yields only a
    ``finite`` violation whose residual counts those entries, since none of
    the three can be measured on it.  Structural problems (wrong shape) are
    rejected by the DensityMatrix constructor instead.
    """
    m = rho.data
    return _violations(m, np.linalg.eigvalsh((m + m.conj().T) / 2) if np.isfinite(m).all() else None)


def _violations(m: np.ndarray, eigenvalues: np.ndarray | None) -> list[Violation]:
    """:func:`validate`'s checks of ``m``, given the eigenvalues of (m + m†)/2,
    or None for a non-finite ``m``, which gets only the ``finite`` violation."""
    if eigenvalues is None:
        return [Violation("finite", float(np.count_nonzero(~np.isfinite(m))))]
    out: list[Violation] = []
    herm = float(np.abs(m - m.conj().T).max())
    if herm > HERMITICITY_TOL:
        out.append(Violation("hermitian", herm))
    tr = abs(complex(np.trace(m)) - 1.0)
    if tr > UNIT_TRACE_TOL:
        out.append(Violation("unit_trace", float(tr)))
    min_eig = float(eigenvalues.min())
    if min_eig < -PSD_TOL:
        out.append(Violation("positive_semidefinite", -min_eig))
    return out


def _subsystem_axes(subsystem: str) -> tuple[int, int]:
    """The row and column axes of one party in a tensor view."""
    s = str(subsystem).upper()
    if s not in ("A", "B"):
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    return (-4, -2) if s == "A" else (-3, -1)


def tensor_view(rho) -> np.ndarray:
    """The (dim_a, dim_b, dim_a, dim_b) tensor view of a DensityMatrix (see
    :meth:`DensityMatrix.as_tensor`), or an array of such views stacked on
    leading axes, returned as given.  Every reduction below takes either."""
    tensor = rho.as_tensor() if isinstance(rho, DensityMatrix) else np.asarray(rho)
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
    """Sum of singular values (Ky Fan / nuclear norm)."""
    return float(np.linalg.svd(m, compute_uv=False).sum())


def _unbatched(a):
    """A Python scalar for a 0-d result (one state), the array itself for a stack."""
    return a.item() if np.ndim(a) == 0 else a


def purity(m: np.ndarray):
    """Tr(m²) for a Hermitian matrix: a float, or one per matrix of a stack."""
    return _unbatched((m @ m).trace(axis1=-2, axis2=-1).real)


def subsystem_purities(rho):
    """(Tr ρ_A², Tr ρ_B²): two floats, or two arrays for a stack."""
    return purity(partial_trace(rho, "B")), purity(partial_trace(rho, "A"))


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
    own), or a raw projector matrix (then dims are required).  A matrix must
    pass :func:`validate` and have purity Tr ρ² ≥ 1 - 1e-8; its dominant
    eigenvector comes from the eigensolve whose eigenvalues the PSD check reads.
    Returns (psi, dim_a, dim_b).
    """
    if isinstance(state, DensityMatrix):
        own = (state.dim_a, state.dim_b)
        if any(d is not None and d != o for d, o in zip((dim_a, dim_b), own)):
            raise ValueError(f"state of dims {own} does not match dims ({dim_a}, {dim_b})")
        rho = state
    else:
        arr = np.asarray(state, dtype=complex)
        if arr.ndim == 1:
            if dim_a is None or dim_b is None:
                raise ValueError("dim_a and dim_b are required for a bare state vector")
            if dim_a * dim_b != arr.size:
                raise ValueError(
                    f"vector of length {arr.size} does not match dims ({dim_a}, {dim_b})"
                )
            norm = float(np.linalg.norm(arr))
            if not abs(norm - 1.0) <= STATE_NORM_TOL:  # NaN fails too
                raise ValueError(f"state vector is not normalized: norm = {norm!r}")
            return arr, dim_a, dim_b
        if dim_a is None or dim_b is None:
            raise ValueError("dim_a and dim_b are required for a raw matrix")
        if arr.shape != (dim_a * dim_b,) * 2:
            raise ValueError(f"matrix of shape {arr.shape} does not match dims ({dim_a}, {dim_b})")
        rho = DensityMatrix(dim_a, dim_b, arr)
    mat = rho.data
    eigenvalues, vectors = np.linalg.eigh((mat + mat.conj().T) / 2) if np.isfinite(mat).all() else (None, None)
    violations = _violations(mat, eigenvalues)
    if violations:
        raise ValueError("not a pure state: " + ", ".join(f"{v.invariant} residual {v.residual!r}" for v in violations))
    p = purity(mat)
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


def pure_state(psi, dim_a: int, dim_b: int) -> DensityMatrix:
    """Projector |ψ⟩⟨ψ| as a DensityMatrix (ψ normalized within 1e-10)."""
    vec, da, db = pure_state_vector(np.asarray(psi, dtype=complex), dim_a, dim_b)
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
def _noisy_singlet_parts() -> tuple[np.ndarray, np.ndarray]:
    """|ψ_s⟩⟨ψ_s| and 2/3·|00⟩⟨00| + 1/3·|01⟩⟨01|, as read-only arrays."""
    singlet = (np.kron(_ket(2, 0), _ket(2, 1)) - np.kron(_ket(2, 1), _ket(2, 0))) / np.sqrt(2)
    k00 = np.kron(_ket(2, 0), _ket(2, 0))
    k01 = np.kron(_ket(2, 0), _ket(2, 1))
    sep = 2 / 3 * np.outer(k00, k00.conj()) + 1 / 3 * np.outer(k01, k01.conj())
    return _frozen(np.outer(singlet, singlet.conj())), _frozen(sep)


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


def _check_unit_interval(p: float) -> None:
    if isinstance(p, (bool, np.bool_)) or not 0.0 <= p <= 1.0:
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
      with ψ_s = (|01⟩-|10⟩)/√2; requires p.
    - ``upb``: the 3×3 bound entangled tiles-UPB state.
    - ``upb_noise``: p·upb + (1-p)·I/9; requires p.

    ``bell`` and ``upb`` take no p and reject one.

    The fixed states and parts are built once per process, on first use, and
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
        _check_unit_interval(p)
        singlet, sep = _noisy_singlet_parts()
        return DensityMatrix(2, 2, p * singlet + (1 - p) * sep)
    return white_noise_mixture(_upb(), p)


# ---------------------------------------------------------------------------
# state file format (shared with the CLI)
#
# JSON document: {"dims": [d_a, d_b], "matrix": [[[re, im], ...], ...]},
# matrix row-major over the product basis.  Entries must be JSON numbers
# (integers within 64 bits); null, booleans, strings and non-finite values
# (NaN, Infinity, 1e999) are rejected, and so is a document nested too deeply
# for the JSON parser.  Floats round-trip bit-exactly: the writers format each
# one with float.__repr__, as json does, whether through json.dumps (state
# files) or through write_pairs_json (the indented bases of `analyze --json`).
# The CLI also validates every state it reads and requires both dims >= 2.
#
# JSON whitespace is exactly space, tab, newline and carriage return.  A
# document in ASCII with exactly these keys in this order, in the nesting
# above, is canonical: load_state decodes it without a Python list per matrix
# entry (see _load_canonical).  Anything else is read by the general JSON path
# (json.loads, then state_from_document) with the same result: the same array
# bit for bit, or a ValueError.


def complex_to_pairs(a: np.ndarray) -> list:
    """Nested lists of [re, im] float pairs for a complex array of any shape."""
    return np.stack((a.real, a.imag), axis=-1).tolist()


# Floats per chunk of write_pairs_json: 16 observables of a 16x16 basis, 28 of
# a 12x12 one, though a chunk may end inside an observable or a pair.  Writing a
# basis peaks at ~1.4 MB of allocations at this size, in proportion to it; the
# write time was flat from 2048 to 16384 floats.
PAIRS_SLICE_FLOATS = 8192


def write_pairs_json(a: np.ndarray, level: int, out) -> None:
    """Write ``json.dumps(complex_to_pairs(a), indent=2)`` to ``out`` as it
    appears ``level`` levels deep in an indented document: that text with
    ``"  " * level`` after every newline.  The flat floats of ``a`` are
    rendered ``PAIRS_SLICE_FLOATS`` at a time, so the text of the whole array
    is never held.  Every entry of ``a`` must be finite (json spells NaN and
    Infinity where repr says nan and inf) and every axis non-empty.

    Each distinct magnitude of a chunk is formatted once by float.__repr__,
    as json formats floats, and given a ``-`` only if it occurs negative; a
    Hermitian observable repeats every off-diagonal magnitude, so about half
    the floats of a basis reuse a text.  The brackets and indentation after
    each float follow from how many lists end there, counted over the whole
    array, so a chunk may end inside a pair or an observable.  A chunk's
    texts and separators are gathered from object arrays and joined once.
    """
    pairs = np.ascontiguousarray(a, dtype=complex).view(float).reshape(np.shape(a) + (2,))
    flat, depth = pairs.ravel(), pairs.ndim
    newline = ["\n" + "  " * (level + t) for t in range(depth + 1)]

    def opened(k):  # the k innermost lists opened, the deepest last
        return "".join("[" + newline[t] for t in range(depth - k + 1, depth + 1))

    def closed(k):  # the k innermost lists closed, the deepest first
        return "".join(newline[t] + "]" for t in range(depth - 1, depth - k - 1, -1))

    between = np.array([closed(k) + "," + newline[depth - k] + opened(k) for k in range(depth)] + [closed(depth)],
                       dtype=object)

    # One chunk's floats, each followed by its separator; a function, so that a
    # chunk's texts are freed before the next chunk is rendered.
    def chunk_text(start):
        chunk = flat[start : start + PAIRS_SLICE_FLOATS]
        magnitudes, code = np.unique(np.abs(chunk), return_inverse=True)
        negative = np.signbit(chunk)
        signed, inverse = np.unique(code[negative], return_inverse=True)
        code[negative] = magnitudes.size + inverse
        texts = list(map(float.__repr__, magnitudes.tolist()))
        texts += ["-" + texts[k] for k in signed.tolist()]
        # closing[i]: how many lists end right after float start + i, its [re, im] pair first.
        closing = np.zeros(chunk.size, dtype=np.intp)
        for size in np.cumprod(pairs.shape[::-1]).tolist():
            closing[(size - 1 - start) % size :: size] += 1
        pieces = np.empty(2 * chunk.size, dtype=object)
        pieces[0::2] = np.array(texts, dtype=object)[code]
        pieces[1::2] = between[closing]
        return "".join(pieces.tolist())

    out.write(opened(depth))
    for start in range(0, flat.size, PAIRS_SLICE_FLOATS):
        out.write(chunk_text(start))


def state_to_document(rho: DensityMatrix) -> dict:
    return {"dims": [rho.dim_a, rho.dim_b], "matrix": complex_to_pairs(rho.data)}


def state_from_document(doc) -> DensityMatrix:
    if not isinstance(doc, dict) or "dims" not in doc or "matrix" not in doc:
        raise ValueError("state document must contain 'dims' and 'matrix' fields")
    dims = doc["dims"]
    if not (isinstance(dims, (list, tuple)) and len(dims) == 2):
        raise ValueError(f"dims must be a pair [d_a, d_b], got {dims!r}")
    if not all(isinstance(d, int) and not isinstance(d, bool) and d > 0 for d in dims):
        raise ValueError(f"dims must be positive integers, got {dims!r}")
    da, db = dims
    n = da * db
    matrix = doc["matrix"]
    if not isinstance(matrix, list) or len(matrix) != n:
        raise ValueError(f"matrix must have {n} rows for dims {dims!r}")
    pairs = np.array(matrix)  # ragged input: ValueError, or dtype object on numpy < 1.24
    rho = _state_from_pairs(da, db, pairs)
    # np.array turns a boolean beside a number into 0 or 1; only those entries can be one.
    suspects = np.unravel_index(np.flatnonzero((pairs == 0) | (pairs == 1)), pairs.shape)
    for i, j, c in zip(*(index.tolist() for index in suspects)):
        if type(matrix[i][j][c]) is bool:
            raise ValueError(f"boolean at matrix entry [{i}][{j}][{c}]; entries must be numbers")
    return rho


def _state_from_pairs(da: int, db: int, pairs: np.ndarray) -> DensityMatrix:
    """The state of an (n, n, 2) array of finite [re, im] numbers, n = da·db."""
    n = da * db
    if pairs.shape != (n, n, 2) or pairs.dtype.kind not in "iuf":
        raise ValueError(f"matrix must be {n}x{n} [real, imag] pairs of numbers")
    if not np.isfinite(pairs).all():
        raise ValueError("non-finite value in matrix")
    # A view, not re + 1j*im, which would turn a -0.0 real part into +0.0.
    data = np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0]
    return DensityMatrix(da, db, data)


# The canonical document, as save_state writes it, with any JSON whitespace
# (exactly these four characters): its head up to the matrix, with both dims.
_CANONICAL_HEAD = re.compile(r"[ \t\n\r]*".join(
    ["", r"\{", '"dims"', ":", r"\[", "([1-9][0-9]{0,8})", ",", "([1-9][0-9]{0,8})", r"\]", ",", '"matrix"', ":"]
))
# The bytes of JSON numbers and whitespace; what is left of a canonical
# document without them is its skeleton of brackets, commas and keys.
_NUMBER_AND_SPACE = b"0123456789+-.eE \t\n\r"
# Turns a canonical document into the flat JSON list ["dims", d_a, d_b, "matrix", re, im, ...].
_FLATTEN = str.maketrans("[]{}:", "  [],")


def _load_canonical(text) -> DensityMatrix | None:
    """The state of the canonical document ``text``, or None when ``text`` is
    not one (or not an ASCII str).  The state is the one that
    :func:`state_from_document` makes of ``json.loads(text)``, and a
    ValueError is raised where that raises one, but no Python list is built
    per matrix entry.

    The head regex gives the dims.  The skeleton of ``text`` must then be
    exactly that of an n×n matrix of pairs (n = d_a·d_b), which is built
    only after its length matches, so a file that claims huge dims
    allocates nothing of size n².  One json.loads of the flattened text
    then parses, and checks, every number token; two tokens in one slot or
    an empty slot are JSON errors there.  Letters (true, null, NaN), quotes
    and any other character stay in the skeleton, so such a document is
    left to the general path.
    """
    if not (isinstance(text, str) and text.isascii()):
        return None
    head = _CANONICAL_HEAD.match(text)
    if head is None:
        return None
    da, db = int(head[1]), int(head[2])
    n = da * db
    skeleton = text.encode("ascii").translate(None, _NUMBER_AND_SPACE)
    prefix = b'{"dims":[,],"matrix":'
    # n rows of 4n + 1 bytes, n - 1 commas between them, then "[", "]" and "}".
    if len(skeleton) != len(prefix) + n * (4 * n + 2) + 2:
        return None
    row = b"[" + b"[,]," * (n - 1) + b"[,]]"
    if skeleton != prefix + b"[" + (row + b",") * (n - 1) + row + b"]}":
        return None
    values = json.loads(text.translate(_FLATTEN))
    return _state_from_pairs(da, db, np.array(values[4:]).reshape(n, n, 2))


def load_state(path_or_file) -> DensityMatrix:
    """Read a state file (see module notes for the JSON schema): a path, read
    as UTF-8 text, or an open text file.  A canonical document (the shape
    :func:`save_state` writes) in ASCII is decoded without a Python list per
    matrix entry; any other is read by the general JSON path, with the same
    result."""
    if hasattr(path_or_file, "read"):
        text = path_or_file.read()
    else:
        with open(path_or_file, "r", encoding="utf-8") as fh:
            text = fh.read()
    rho = _load_canonical(text)
    if rho is not None:
        return rho
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("state file is nested too deeply to be a state document") from None
    return state_from_document(doc)


def dump_state(rho: DensityMatrix, fh: IO[str]) -> None:
    # One json.dumps call: only a one-shot, unindented encode uses json's C encoder.
    fh.write(json.dumps(state_to_document(rho), allow_nan=False))
    fh.write("\n")


def save_state(rho: DensityMatrix, path) -> None:
    """Write a state file; floats are printed so they round-trip exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        dump_state(rho, fh)
