"""The two LOO witnesses, entanglement criterion scores and I-concurrence
lower bounds, read by name.

For LOO bases {G_k^A}, {G_k^B} the two witness values are

    linear:     1 - Σ_k ⟨G_k^A ⊗ G_k^B⟩
    nonlinear:  1 - Σ_k ⟨G_k^A ⊗ G_k^B⟩ - (1/2) Σ_k ⟨G_k^A⊗I - I⊗G_k^B⟩²

Both are non-negative on every separable state for every basis choice, so a
negative value certifies entanglement.  In the pair's record (μ, a, b) of
``loo.correlations`` (μ_lm = ⟨G_l^A⊗G_m^B⟩; a, b the local expectation
vectors, whose |a|², |b|² are the purities Tr ρ_A², Tr ρ_B²) they are
1 - Σ_k μ_kk and 1 - Σ_k τ_kk - (Tr ρ_A² + Tr ρ_B²)/2, where
τ = μ - a·bᵀ = F_A · R(ρ - ρ_A⊗ρ_B) · F_Bᵀ (R: realignment; F: the frame of
``loo.frame``).  Their minima over all LOO pairs put Σ_k σ_k in place of
Σ_k M_kk (the covariance form of Zhang et al., PRA 77, 060301(R) (2008)).

Each criterion is scored so that a positive value certifies entanglement:
PPT and realignment use trace norms minus one, the two witness criteria use
the negated optimal witness minima.  All four scores are invariant under
local unitaries.  :meth:`Spectra.score` answers every name of
:data:`SCORE_NAMES`, criterion or I-concurrence bound, and :func:`detected`
is the one rule that turns a score into a detection.

Every score is arithmetic on σ(μ), σ(τ) and eig(ρ^{T_A}) of the Gell-Mann
record.  The record of :func:`spectra` takes each decomposition when a score
first reads it, and at most once, so a scan of one criterion takes only that
criterion's decomposition.  A scan scores each point from p-mixes of its
endpoints' record (:meth:`Spectra.mixed`).  :meth:`Spectra.optimum` gives the
optimal bases and :func:`optimum_bracket` certifies them;
:meth:`Spectra.witness_value` reads either value in a user's pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import loo, qstate
from .qstate import DensityMatrix, _frozen

# Scores this close to zero are treated as float noise, not detections.
DETECTION_MARGIN = 1e-9


def detected(score):
    """The detection rule: a score above the float-noise margin.  A bool for
    one score, an array of bools for a stack."""
    return score > DETECTION_MARGIN


# The four criteria by name, each with the form of its score.
THRESHOLD_FORMS = {
    "ppt": "trace norm of the partial transpose minus 1",
    "realign": "trace norm of the realigned state minus 1",
    "linear_opt": "negated minimum of the linear witness over LOO pairs",
    "nonlinear_opt": "negated minimum of the nonlinear witness over LOO pairs",
}

# Each bound but the combined one clamps the score of its source criterion;
# ℒ_max - 1 is the nonlinear_opt score.
_BOUND_SOURCES = {"bound_ppt": "ppt", "bound_realign": "realign", "bound_lmax": "nonlinear_opt"}
BOUND_NAMES = (*_BOUND_SOURCES, "bound_combined")
# Everything :meth:`Spectra.score` answers: the four criteria, then the bounds.
SCORE_NAMES = (*THRESHOLD_FORMS, *BOUND_NAMES)


def concurrence_pure(psi, dim_a: int | None = None, dim_b: int | None = None) -> float:
    """I-concurrence √(2(1 - Tr ρ_A²)) of a pure bipartite state.

    Accepts a normalized vector (with dims), a DensityMatrix, or a projector
    matrix (with dims).
    """
    coefficients = qstate.schmidt(psi, dim_a, dim_b).coefficients
    return math.sqrt(2.0 * max(0.0, 1.0 - float(np.sum(coefficients**4))))


def _stored(value: np.ndarray) -> float | np.ndarray:
    """A field's or score's value from its fresh float result: the array made
    read-only, not copied, or a Python float for one state."""
    return value.item() if value.ndim == 0 else _frozen(value)


def _covariance(mu: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """τ = μ - a·bᵀ of a record (μ, a, b), or of each record of a stack."""
    return mu - a[..., :, None] * b[..., None, :]


def _witness_value(diagonal_sum, purities=0.0):
    """1 - Σ_k M_kk - (Tr ρ_A² + Tr ρ_B²)/2 from Σ_k M_kk and the purities' sum:
    the linear value (M = μ, no purities) or the nonlinear one (M = τ)."""
    return 1.0 - diagonal_sum - purities / 2


@dataclass(frozen=True, eq=False)
class Spectra:
    """σ(μ), σ(τ) and eig(ρ^{T_A}) of one state, its subsystem purities and the
    witness values at the reference pair (Gell-Mann on A, transposed Gell-Mann
    on B); every score and bound is read from these.

    Each field but the dims is computed on its first read and then kept, so a
    score takes only the decompositions it reads: ``ppt`` only eig(ρ^{T_A}),
    ``realign``, ``linear_opt`` and ``bound_realign`` only σ(μ),
    ``nonlinear_opt`` and ``bound_lmax`` only σ(τ) and the purities, and
    ``bound_combined`` all three.  The Gell-Mann record (μ, a, b) is built only
    for a field that needs it.  A ``LinAlgError`` from a decomposition is
    therefore raised by the first read of a field or score that needs it.

    For a stack of states every field, score and bound gains a leading batch
    axis; for one state they are Python floats.  Every record is of states: see :func:`spectra` and :meth:`mixed`."""

    dim_a: int
    dim_b: int
    _tensor: np.ndarray | None = field(default=None, repr=False)  # read-only, never a caller's array
    # A mixture's (record of (ρ₁, ρ₂), p), p a float for one state.
    _endpoints: tuple[Spectra, float | np.ndarray] | None = field(default=None, repr=False)

    def mixed(self, ps) -> Spectra:
        """The record, holding no tensor, of p·ρ₁ + (1-p)·ρ₂ for each p in ``ps``
        (one state, with Python float fields and scores, for a scalar p), this
        being the record of the stack (ρ₁, ρ₂).  Its μ, (a, b) and ρ^{T_A}, linear
        in ρ, are p-mixes of this record's, each made on its first read: exactly
        the endpoints' at p = 1 and 0, else equal up to rounding, and to the bit
        the same for a scalar p as for that p in a sequence.
        A p that is not a real number (an int or float), is NaN or is outside [0, 1]
        raises, as in :func:`qstate.mixture`.  No state is checked again: a mixture of states is a state."""
        if self._batch_shape != (2,):
            raise ValueError("mixtures need the record of a stack of two states")
        if qstate._is_real_number(ps):  # one p, checked by plain comparisons, which NaN fails
            qstate._check_unit_interval(ps)
            return Spectra(self.dim_a, self.dim_b, _endpoints=(self, float(ps)))
        p = np.asarray(ps)
        real = p.dtype.kind in "iuf"  # ints and floats; not bool, complex, str or object
        # np.asarray turns a bool beside a number into 0 or 1; only those entries can have been one.
        if real and not isinstance(ps, np.ndarray) and (suspects := (p == 0) | (p == 1)).any():
            real = not any(np.asarray(v).dtype == bool for v in np.asarray(ps, dtype=object)[suspects])
        if not (real and p.min(initial=0) >= 0 and p.max(initial=1) <= 1):  # NaN fails too; [] passes
            raise ValueError(f"mixing parameter must be a number in [0, 1], got {ps!r}")
        return Spectra(self.dim_a, self.dim_b, _endpoints=(self, p.astype(float)))

    def _one_state(self, reader: str) -> Spectra:
        """This record, which ``reader`` needs to be of one state: a stack, or a mixture at several p, raises."""
        if self._batch_shape:
            raise ValueError(f"{reader} needs the record of one state, got a batch of shape {self._batch_shape}")
        return self

    @property
    def _batch_shape(self) -> tuple[int, ...]:  # () for one state, else a stack's or ps's shape
        return self._tensor.shape[:-4] if self._endpoints is None else np.shape(self._endpoints[1])

    def _mix(self, pair: np.ndarray) -> np.ndarray:
        """p·x₁ + (1-p)·x₂ of the endpoints' pair (x₁, x₂) of one field, for each p; read-only."""
        p = self._endpoints[1]
        if isinstance(p, float):
            mix = p * pair[0] + (1 - p) * pair[1]
        else:
            mix = np.multiply.outer(p, pair[0])
            mix += np.multiply.outer(1 - p, pair[1])
        return _frozen(mix)

    @cached_property
    def correlations(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The read-only Gell-Mann record (μ, a, b) of :func:`loo.correlations`."""
        if self._endpoints:
            return (self._mu, *self._marginals)
        return tuple(map(_frozen, loo.correlations(qstate.realign(self._tensor))))

    def in_bases(self, basis_a: loo.LOOBasis | None = None, basis_b: loo.LOOBasis | None = None):
        """The read-only (μ, a, b) of :func:`loo.correlations` in a LOO pair, a side left None being
        Gell-Mann: :attr:`correlations`, else formed per call (for a mixture, from its endpoints')."""
        if basis_a is None and basis_b is None:
            return self.correlations
        if self._endpoints:
            return tuple(map(self._mix, self._endpoints[0].in_bases(basis_a, basis_b)))
        return tuple(map(_frozen, loo.correlations(qstate.realign(self._tensor), basis_a, basis_b)))

    def _witness_matrix(self, kind: str, reader: str, basis_a=None, basis_b=None) -> tuple[np.ndarray, float]:
        """M of one state's witness of ``kind`` in a LOO pair, as :meth:`in_bases`, and the purities
        its value subtracts: (μ, 0.0) for ``"linear"``, (τ, |a|² + |b|²) for ``"nonlinear"``, read
        from the pair's own (μ, a, b).  Another kind, or a batch, raises (``reader`` names the caller)."""
        if kind not in ("linear", "nonlinear"):
            raise ValueError(f"kind must be 'linear' or 'nonlinear', got {kind!r}")
        mu, a, b = self._one_state(reader).in_bases(basis_a, basis_b)
        return (_covariance(mu, a, b), float(a @ a) + float(b @ b)) if kind == "nonlinear" else (mu, 0.0)

    def witness_value(self, kind: str, basis_a: loo.LOOBasis, basis_b: loo.LOOBasis) -> float:
        """One state's witness value of ``kind`` in a LOO pair: 1 - Σ_k μ_kk for ``"linear"``,
        1 - Σ_k τ_kk - (Tr ρ_A² + Tr ρ_B²)/2 for ``"nonlinear"``, with the purities read as
        |a|², |b|² from the same (μ, a, b) as τ = μ - a·bᵀ.

        The nonlinear value uses Σ_k ⟨G_k^A ⊗ I⟩² = Tr ρ_A², and likewise for B, which holds
        because every :class:`~loowit.loo.LOOBasis` is complete.  On rectangular states k runs
        over the shorter basis; the purities count the unpaired terms.  Any number of pairs
        are read from one record, with no state check beyond the one of :func:`spectra`.
        A stack, or a mixture at several p, raises."""
        matrix, purities = self._witness_matrix(kind, "witness_value", basis_a, basis_b)
        return _witness_value(float(np.trace(matrix)), purities)

    @cached_property
    def _mu(self) -> np.ndarray:  # μ alone, so that a mixture mixes only what its scores read
        return self._mix(self._endpoints[0]._mu) if self._endpoints else self.correlations[0]

    @cached_property
    def _marginals(self) -> tuple[np.ndarray, np.ndarray]:  # (a, b)
        return tuple(map(self._mix, self._endpoints[0]._marginals)) if self._endpoints else self.correlations[1:]

    @cached_property
    def _transposed(self) -> np.ndarray:  # kept only where mixtures read it; see partial_transpose
        if self._endpoints:
            return self._mix(self._endpoints[0]._transposed)
        return qstate.partial_transpose(self._tensor, "A")

    @cached_property
    def tau(self) -> np.ndarray:
        """The covariance matrix τ = μ - a·bᵀ = F_A · R(ρ - ρ_A⊗ρ_B) · F_Bᵀ, read-only."""
        return _frozen(_covariance(self._mu, *self._marginals))

    def _at_reference(self, matrix: np.ndarray) -> np.ndarray:
        """Σ_m s_m·M_mm: the reference B basis is transposed, G_mᵀ = s_m·G_m."""
        obs_b = loo._gell_mann(self.dim_b).observables[: min(matrix.shape[-2:])]
        signs = np.einsum("mij,mij->m", obs_b, obs_b).real  # s_m = Tr(G_m G_mᵀ)
        return np.diagonal(matrix, axis1=-2, axis2=-1) @ signs

    @cached_property
    def realigned(self) -> np.ndarray:
        """σ(μ) = σ(R(ρ)), non-increasing."""
        return _stored(np.linalg.svd(self._mu, compute_uv=False))

    @cached_property
    def covariance(self) -> np.ndarray:
        """σ(τ) = σ(R(ρ - ρ_A⊗ρ_B)), non-increasing."""
        return _stored(np.linalg.svd(self.tau, compute_uv=False))

    @cached_property
    def partial_transpose(self) -> np.ndarray:
        """eig(ρ^{T_A}), ascending; the record's own ρ^{T_A} is formed here, not kept."""
        return _stored(np.linalg.eigvalsh(Spectra._transposed.func(self)))

    @cached_property
    def purity_a(self) -> float | np.ndarray:
        """Tr ρ_A² = |a|²."""
        return _stored(np.square(self._marginals[0]).sum(axis=-1))

    @cached_property
    def purity_b(self) -> float | np.ndarray:
        """Tr ρ_B² = |b|²."""
        return _stored(np.square(self._marginals[1]).sum(axis=-1))

    @cached_property
    def linear_at_reference(self) -> float | np.ndarray:
        """The linear witness value at the reference pair, 1 - Σ_m s_m·μ_mm."""
        return _stored(_witness_value(self._at_reference(self._mu)))

    @cached_property
    def nonlinear_at_reference(self) -> float | np.ndarray:
        """The nonlinear witness value at the reference pair,
        1 - Σ_m s_m·τ_mm - (Tr ρ_A² + Tr ρ_B²)/2."""
        return _stored(_witness_value(self._at_reference(self.tau), self.purity_a + self.purity_b))

    @property
    def linear_min(self) -> float | np.ndarray:
        """Linear witness minimum over all LOO pairs, 1 - ‖R(ρ)‖_tr."""
        return _stored(1.0 - self.realigned.sum(axis=-1))

    @property
    def l_max(self) -> float | np.ndarray:
        """ℒ_max = ‖R(ρ - ρ_A⊗ρ_B)‖_tr + (Tr ρ_A² + Tr ρ_B²)/2."""
        return _stored(self.covariance.sum(axis=-1) + (self.purity_a + self.purity_b) / 2.0)

    @property
    def nonlinear_min(self) -> float | np.ndarray:
        """Nonlinear witness minimum over all LOO pairs, 1 - ℒ_max."""
        l_max = self.l_max
        return 1.0 - l_max if isinstance(l_max, float) else _stored(1.0 - l_max)

    def optimum(self, kind: str) -> tuple[float, loo.LOOBasis, loo.LOOBasis]:
        """Σ_k σ_k of μ (``"linear"``) or τ (``"nonlinear"``) of one state, and the Gell-Mann
        bases rotated to diagonalize it; the only SVD here that computes factors.
        A stack, or a mixture at several p, has no one optimum and raises."""
        u, s, vt = np.linalg.svd(self._witness_matrix(kind, "optimum")[0])
        # The matrix is u Σ vt, so rotating by uᵀ / vt diagonalizes the paired expectations.
        basis_a, basis_b = loo.gell_mann_basis(self.dim_a), loo.gell_mann_basis(self.dim_b)
        return float(s.sum()), loo.rotate(basis_a, u.T), loo.rotate(basis_b, vt)

    def score(self, name: str) -> float | np.ndarray:
        """A criterion's score, or a concurrence bound's value: any of
        :data:`SCORE_NAMES`.  A bound is √(2/(m(m-1))) times its source
        criterion's score, m the smaller dim, and exactly zero where that
        criterion detects nothing; ``bound_combined`` is the largest bound.
        ``bound_lmax`` (from ℒ_max - 1) is never weaker than ``bound_realign``."""
        # One state's bounds are clamped in Python floats, with the bits of np.where
        # and np.maximum: a bound is never NaN or -0.
        if name == "bound_combined":
            bounds = [self.score(bound) for bound in _BOUND_SOURCES]
            return max(bounds) if isinstance(bounds[0], float) else _stored(np.maximum.reduce(bounds))
        if name in _BOUND_SOURCES:
            m = min(self.dim_a, self.dim_b)
            if m < 2:
                raise ValueError(f"concurrence bounds need min dim >= 2, got {m}")
            score, factor = self.score(_BOUND_SOURCES[name]), math.sqrt(2.0 / (m * (m - 1)))
            if isinstance(score, float):
                return factor * score if detected(score) else 0.0
            return _stored(np.where(detected(score), factor * score, 0.0))
        if name == "ppt":
            return _stored(np.abs(self.partial_transpose).sum(axis=-1) - 1.0)
        if name == "nonlinear_opt":
            value = -self.nonlinear_min
        elif name in ("realign", "linear_opt"):
            value = -self.linear_min
        else:
            raise ValueError(f"unknown score name {name!r}; known: {', '.join(SCORE_NAMES)}")
        return value if isinstance(value, float) else _stored(value)


class InvalidState(ValueError):
    """Not a state: one ``invalid state: …`` line per invariant of :func:`qstate._violations` violated."""


def spectra(rho: DensityMatrix | np.ndarray) -> Spectra:
    """The :class:`Spectra` record of one state, or of a (k, d_a, d_b, d_a, d_b)
    stack of tensor views (see :meth:`DensityMatrix.as_tensor`), whose fields
    and scores then have a leading batch axis.

    The library's one check that its input is a state: the first state to fail
    :func:`qstate._violations` (one eigensolve for a whole stack) raises :class:`InvalidState`,
    and entries that are not numbers (bool, str, object) ValueError.  Each decomposition
    runs on the first read of a field or score that needs it, once over a whole stack (see
    :class:`Spectra`).  An array is copied read-only, so writing to it later changes no
    field; a DensityMatrix's data is already read-only.  Mixtures: :meth:`Spectra.mixed`."""
    tensor = qstate.tensor_view(rho)
    if not isinstance(rho, DensityMatrix):
        tensor = _frozen(tensor.copy())
    n = tensor.shape[-4] * tensor.shape[-3]
    if violations := qstate._violations(tensor.reshape(-1, n, n)):
        raise InvalidState("\n".join(f"invalid state: {name} violated, residual {r!r}" for name, r in violations))
    return Spectra(*tensor.shape[-4:-2], tensor)


def optimum_bracket(record: Spectra, kind: str, analytic: float, basis_a: loo.LOOBasis, basis_b: loo.LOOBasis):
    """(lower, upper, certified) for ``analytic`` = ‖M‖_tr, M = μ (``"linear"``) or τ (``"nonlinear"``)
    of one state's ``record``, at the bases that its :meth:`~Spectra.optimum` gives with it.

    D is M in those bases, by the frame product of :meth:`~Spectra.in_bases`
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
    d, _ = record._witness_matrix(kind, "optimum_bracket", basis_a, basis_b)
    k, diagonal = min(d.shape), np.diagonal(d)
    lower = float(diagonal.sum())
    upper = float(np.abs(diagonal).sum() + math.sqrt(k) * np.linalg.norm(d[~np.eye(*d.shape, dtype=bool)]))
    allowance = 24 * math.sqrt(k) * sum(d.shape) * math.ulp(1.0)  # ulp(1.0) = ε
    return lower, upper, upper - lower <= allowance and lower - allowance <= analytic <= upper + allowance


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
