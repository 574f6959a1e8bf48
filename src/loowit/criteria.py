"""Entanglement criterion scores and I-concurrence lower bounds, read by name.

Each criterion is scored so that a positive value certifies entanglement:
PPT and realignment use trace norms minus one, the two witness criteria use
the negated optimal witness minima.  All four scores are invariant under
local unitaries.  :meth:`Spectra.score` answers every name of
:data:`SCORE_NAMES`, criterion or I-concurrence bound, and :func:`detected`
is the one rule that turns a score into a detection.

Every score is arithmetic on σ(μ), σ(τ) and eig(ρ^{T_A}), computed once per
state by :func:`spectra` from the Gell-Mann record (μ, a, b) of
``loo.gell_mann_correlations``; σ(μ) = σ(R(ρ)) and σ(τ) = σ(R(ρ - ρ_A⊗ρ_B))
(R: realignment).  The witness minima use the covariance form of Zhang et
al., PRA 77, 060301(R) (2008); see ``witness.optimal_*`` for the bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import loo, qstate
from .qstate import DensityMatrix, _frozen, _unbatched

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


def max_concurrence(dim_min: int) -> float:
    """Largest possible I-concurrence for min subsystem dimension m."""
    return math.sqrt(2.0 * (dim_min - 1) / dim_min)


def concurrence_pure(psi, dim_a: int | None = None, dim_b: int | None = None) -> float:
    """I-concurrence √(2(1 - Tr ρ_A²)) of a pure bipartite state.

    Accepts a normalized vector (with dims), a DensityMatrix, or a projector
    matrix (with dims).
    """
    vec, da, db = qstate.pure_state_vector(psi, dim_a, dim_b)
    s = np.linalg.svd(vec.reshape(da, db), compute_uv=False)
    purity_a = float(np.sum(s**4))
    return math.sqrt(2.0 * max(0.0, 1.0 - purity_a))


@dataclass(frozen=True, eq=False)
class Spectra:
    """σ(μ), σ(τ) and eig(ρ^{T_A}) of one state, its subsystem purities and the
    witness values at the reference pair (Gell-Mann on A, transposed Gell-Mann
    on B); every score and bound is read from these.

    For a stack of states every field, score and bound gains a leading batch
    axis; for one state they are Python floats."""

    dim_a: int
    dim_b: int
    realigned: np.ndarray
    covariance: np.ndarray
    partial_transpose: np.ndarray
    purity_a: float | np.ndarray
    purity_b: float | np.ndarray
    linear_at_reference: float | np.ndarray
    nonlinear_at_reference: float | np.ndarray

    def __post_init__(self) -> None:
        for field in fields(self)[2:]:
            value = _frozen(np.array(getattr(self, field.name), dtype=float))
            object.__setattr__(self, field.name, _unbatched(value))

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

    def score(self, name: str) -> float | np.ndarray:
        """A criterion's score, or a concurrence bound's value: any of
        :data:`SCORE_NAMES`.  A bound is √(2/(m(m-1))) times its source
        criterion's score, m the smaller dim, and exactly zero where that
        criterion detects nothing; ``bound_combined`` is the largest bound.
        ``bound_lmax`` (from ℒ_max - 1) is never weaker than ``bound_realign``."""
        if name == "bound_combined":
            return _unbatched(np.maximum.reduce([self.score(bound) for bound in _BOUND_SOURCES]))
        if name in _BOUND_SOURCES:
            m = min(self.dim_a, self.dim_b)
            if m < 2:
                raise ValueError(f"concurrence bounds need min dim >= 2, got {m}")
            score = self.score(_BOUND_SOURCES[name])
            return _unbatched(np.where(detected(score), math.sqrt(2.0 / (m * (m - 1))) * score, 0.0))
        if name == "ppt":
            return _unbatched(np.abs(self.partial_transpose).sum(axis=-1) - 1.0)
        if name == "nonlinear_opt":
            return -self.nonlinear_min
        if name in ("realign", "linear_opt"):
            return -self.linear_min
        raise ValueError(f"unknown score name {name!r}; known: {', '.join(SCORE_NAMES)}")


def spectra(rho: DensityMatrix | np.ndarray) -> Spectra:
    """Values-only SVDs of μ and τ = μ - a·bᵀ (:func:`loo.gell_mann_correlations`)
    and eig(ρ^{T_A}).

    Takes one state or a (k, d_a, d_b, d_a, d_b) stack of tensor views (see
    :meth:`DensityMatrix.as_tensor`).  Each decomposition runs once over a
    stack, and the record then has a leading batch axis.  The reference B basis
    is transposed, G_mᵀ = s_m·G_m, so its values sum s_m·μ_mm and s_m·τ_mm."""
    tensor = qstate.tensor_view(rho)
    mu, a, b = loo.gell_mann_correlations(qstate.realign(tensor))
    tau = mu - a[..., :, None] * b[..., None, :]
    purity_a, purity_b = (a * a).sum(axis=-1), (b * b).sum(axis=-1)
    obs_b = loo._gell_mann(tensor.shape[-3]).observables[: min(mu.shape[-2:])]
    signs = np.einsum("mij,mij->m", obs_b, obs_b).real  # s_m = Tr(G_m G_mᵀ)
    return Spectra(
        dim_a=tensor.shape[-4],
        dim_b=tensor.shape[-3],
        realigned=np.linalg.svd(mu, compute_uv=False),
        covariance=np.linalg.svd(tau, compute_uv=False),
        partial_transpose=np.linalg.eigvalsh(qstate.partial_transpose(tensor, "A")),
        purity_a=purity_a,
        purity_b=purity_b,
        linear_at_reference=1.0 - np.diagonal(mu, axis1=-2, axis2=-1) @ signs,
        nonlinear_at_reference=1.0 - np.diagonal(tau, axis1=-2, axis2=-1) @ signs - (purity_a + purity_b) / 2,
    )
