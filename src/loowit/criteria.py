"""Entanglement criterion scores and I-concurrence lower bounds, read by name.

Each criterion is scored so that a positive value certifies entanglement:
PPT and realignment use trace norms minus one, the two witness criteria use
the negated optimal witness minima.  All four scores are invariant under
local unitaries.  :meth:`Spectra.score` answers every name of
:data:`SCORE_NAMES`, criterion or I-concurrence bound, and :func:`detected`
is the one rule that turns a score into a detection.

Every score is arithmetic on σ(μ), σ(τ) and eig(ρ^{T_A}), where (μ, a, b) is
the Gell-Mann record of ``loo.correlations``, τ = μ - a·bᵀ,
σ(μ) = σ(R(ρ)) and σ(τ) = σ(R(ρ - ρ_A⊗ρ_B)) (R: realignment).  The record
of :func:`spectra` takes each decomposition when a score first reads it, and
at most once, so a scan of one criterion takes only that criterion's
decomposition.  A scan scores each point from p-mixes of its endpoints' record
(:meth:`Spectra.mixed`).  The witness minima use the covariance form of Zhang
et al., PRA 77, 060301(R) (2008); :meth:`Spectra.optimum` gives their bases.
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


def _unbatched(a):
    """A Python scalar for a 0-d result (one state), the array itself for a stack."""
    return a.item() if np.ndim(a) == 0 else a


def _stored(value: np.ndarray) -> float | np.ndarray:
    """A field's value from its fresh float result: the array made read-only, not
    copied, or a Python float for one state."""
    return value.item() if value.ndim == 0 else _frozen(value)


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
        if not (real and p.min(initial=0) >= 0 and p.max(initial=1) <= 1):  # NaN fails too; [] passes
            raise ValueError(f"mixing parameter must be a number in [0, 1], got {ps!r}")
        return Spectra(self.dim_a, self.dim_b, _endpoints=(self, p.astype(float)))

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
        a, b = self._marginals
        return _frozen(self._mu - a[..., :, None] * b[..., None, :])

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
        return _stored(1.0 - self._at_reference(self._mu))

    @cached_property
    def nonlinear_at_reference(self) -> float | np.ndarray:
        """The nonlinear witness value at the reference pair,
        1 - Σ_m s_m·τ_mm - (Tr ρ_A² + Tr ρ_B²)/2."""
        return _stored(1.0 - self._at_reference(self.tau) - (self.purity_a + self.purity_b) / 2)

    @property
    def linear_min(self) -> float | np.ndarray:
        """Linear witness minimum over all LOO pairs, 1 - ‖R(ρ)‖_tr."""
        return _unbatched(1.0 - self.realigned.sum(axis=-1))

    @property
    def l_max(self) -> float | np.ndarray:
        """ℒ_max = ‖R(ρ - ρ_A⊗ρ_B)‖_tr + (Tr ρ_A² + Tr ρ_B²)/2."""
        return _unbatched(self.covariance.sum(axis=-1) + (self.purity_a + self.purity_b) / 2.0)

    @property
    def nonlinear_min(self) -> float | np.ndarray:
        """Nonlinear witness minimum over all LOO pairs, 1 - ℒ_max."""
        return 1.0 - self.l_max

    def optimum(self, kind: str) -> tuple[float, loo.LOOBasis, loo.LOOBasis]:
        """Σ_k σ_k of μ (``"linear"``) or τ (``"nonlinear"``) of one state, and the Gell-Mann
        bases rotated to diagonalize it; the only SVD here that computes factors.
        A stack, or a mixture at several p, has no one optimum and raises."""
        if kind not in ("linear", "nonlinear"):
            raise ValueError(f"kind must be 'linear' or 'nonlinear', got {kind!r}")
        if self._batch_shape:
            raise ValueError(f"optimum needs the record of one state, got a batch of shape {self._batch_shape}")
        u, s, vt = np.linalg.svd(self.tau if kind == "nonlinear" else self.correlations[0])
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
            return max(bounds) if isinstance(bounds[0], float) else np.maximum.reduce(bounds)
        if name in _BOUND_SOURCES:
            m = min(self.dim_a, self.dim_b)
            if m < 2:
                raise ValueError(f"concurrence bounds need min dim >= 2, got {m}")
            score, factor = self.score(_BOUND_SOURCES[name]), math.sqrt(2.0 / (m * (m - 1)))
            if isinstance(score, float):
                return factor * score if detected(score) else 0.0
            return np.where(detected(score), factor * score, 0.0)
        if name == "ppt":
            return _unbatched(np.abs(self.partial_transpose).sum(axis=-1) - 1.0)
        if name == "nonlinear_opt":
            return -self.nonlinear_min
        if name in ("realign", "linear_opt"):
            return -self.linear_min
        raise ValueError(f"unknown score name {name!r}; known: {', '.join(SCORE_NAMES)}")


class InvalidState(ValueError):
    """Not a state: one ``invalid state: …`` line per invariant of :func:`qstate.validate` violated."""


def spectra(rho: DensityMatrix | np.ndarray) -> Spectra:
    """The :class:`Spectra` record of one state, or of a (k, d_a, d_b, d_a, d_b)
    stack of tensor views (see :meth:`DensityMatrix.as_tensor`), whose fields
    and scores then have a leading batch axis.

    The library's one check that its input is a state: the first state to fail
    :func:`qstate.validate` (one eigensolve for a whole stack) raises :class:`InvalidState`,
    and a dtype that is not a number (bool, str, object) ValueError.  Each decomposition
    runs on the first read of a field or score that needs it, once over a whole stack (see
    :class:`Spectra`).  An array is copied read-only, so writing to it later changes no
    field; a DensityMatrix's data is already read-only.  Mixtures: :meth:`Spectra.mixed`."""
    tensor = qstate.tensor_view(rho)
    if tensor.dtype.kind not in "iufc":  # ints, floats and complex; not bool, str or object
        raise ValueError(f"state entries must be numbers, got dtype {tensor.dtype}")
    if not isinstance(rho, DensityMatrix):
        tensor = _frozen(tensor.copy())
    m = tensor.reshape(tensor.shape[:-4] + (math.prod(tensor.shape[-4:-2]),) * 2)  # the state matrices
    finite = np.isfinite(m).all(axis=(-2, -1))
    h = np.where(finite[..., None, None], m, 0)  # eigvalsh may not converge on a non-finite state
    eigenvalues = np.linalg.eigvalsh((h + h.conj().swapaxes(-1, -2)) / 2)
    for state in np.ndindex(finite.shape):
        if violations := qstate._violations(m[state], eigenvalues[state] if finite[state] else None):
            lines = (f"invalid state: {v.invariant} violated, residual {v.residual!r}" for v in violations)
            raise InvalidState("\n".join(lines))
    return Spectra(*tensor.shape[-4:-2], tensor)
