"""Entanglement criterion verdicts and I-concurrence lower bounds.

Each criterion is scored so that a positive value certifies entanglement:
PPT and realignment use trace norms minus one, the two witness criteria use
the negated optimal witness minima.  All four scores are invariant under
local unitaries.

Every score is arithmetic on the spectra of R(ρ), R(ρ - ρ_A⊗ρ_B) and
ρ^{T_A} (R: realignment), computed once per state by :func:`spectra`.  The
witness minima use the covariance form of Zhang et al., PRA 77, 060301(R)
(2008); no LOO basis is built here (see ``witness.optimal_*`` for those).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import qstate
from .qstate import DensityMatrix, _frozen, _unbatched

# Scores this close to zero are treated as float noise, not detections.
DETECTION_MARGIN = 1e-9


class Criterion(str, Enum):
    PPT = "ppt"
    REALIGN = "realign"
    LINEAR_OPT = "linear_opt"
    NONLINEAR_OPT = "nonlinear_opt"


_THRESHOLD_FORMS = {
    Criterion.PPT: "trace norm of the partial transpose minus 1",
    Criterion.REALIGN: "trace norm of the realigned state minus 1",
    Criterion.LINEAR_OPT: "negated minimum of the linear witness over LOO pairs",
    Criterion.NONLINEAR_OPT: "negated minimum of the nonlinear witness over LOO pairs",
}


@dataclass(frozen=True)
class Verdict:
    criterion: Criterion
    detected: bool
    score: float
    threshold_form: str


def _verdict(criterion: Criterion, score: float) -> Verdict:
    return Verdict(criterion, score > DETECTION_MARGIN, score, _THRESHOLD_FORMS[criterion])


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


@dataclass(frozen=True)
class ConcurrenceBound:
    """Lower bounds on the mixed-state I-concurrence, one per criterion,
    each of the form √(2/(m(m-1))) · score clamped at zero, with m the
    smaller subsystem dimension."""

    dim_min: int
    bound_ppt: float
    bound_realign: float
    bound_lmax: float
    bound_combined: float


@dataclass(frozen=True, eq=False)
class Spectra:
    """σ(R(ρ)), σ(R(ρ - ρ_A⊗ρ_B)) and eig(ρ^{T_A}) of one state, with its
    subsystem purities; every score, verdict and bound is read from these.

    For a stack of states every field, score and bound gains a leading batch
    axis; for one state they are Python floats (and bools for verdicts)."""

    dim_a: int
    dim_b: int
    realigned: np.ndarray
    covariance: np.ndarray
    partial_transpose: np.ndarray
    purity_a: float | np.ndarray
    purity_b: float | np.ndarray

    def __post_init__(self) -> None:
        for name in ("realigned", "covariance", "partial_transpose", "purity_a", "purity_b"):
            value = _frozen(np.array(getattr(self, name), dtype=float))
            object.__setattr__(self, name, _unbatched(value))

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

    def score(self, criterion: Criterion | str) -> float | np.ndarray:
        criterion = Criterion(criterion)
        if criterion == Criterion.PPT:
            return _unbatched(np.abs(self.partial_transpose).sum(axis=-1) - 1.0)
        if criterion == Criterion.NONLINEAR_OPT:
            return -self.nonlinear_min
        return -self.linear_min  # REALIGN and LINEAR_OPT

    def verdicts(self) -> list[Verdict]:
        """Verdicts in the order PPT, REALIGN, LINEAR_OPT, NONLINEAR_OPT."""
        return [_verdict(c, self.score(c)) for c in Criterion]

    def concurrence_bounds(self) -> ConcurrenceBound:
        """PPT-, realignment- and ℒ_max-based bounds and their max; scores
        inside the float-noise margin clamp to exactly zero.  ``bound_lmax``
        (from ℒ_max - 1) is never weaker than ``bound_realign``."""
        m = min(self.dim_a, self.dim_b)
        if m < 2:
            raise ValueError(f"concurrence bounds need min dim >= 2, got {m}")
        factor = math.sqrt(2.0 / (m * (m - 1)))

        def bound(score):
            return _unbatched(np.where(score > DETECTION_MARGIN, factor * score, 0.0))

        bound_ppt = bound(self.score(Criterion.PPT))
        bound_realign = bound(self.score(Criterion.REALIGN))
        bound_lmax = bound(self.l_max - 1.0)
        return ConcurrenceBound(
            dim_min=m,
            bound_ppt=bound_ppt,
            bound_realign=bound_realign,
            bound_lmax=bound_lmax,
            bound_combined=_unbatched(np.maximum(np.maximum(bound_ppt, bound_realign), bound_lmax)),
        )


def spectra(rho: DensityMatrix | np.ndarray) -> Spectra:
    """Values-only SVDs of R(ρ) and R(ρ - ρ_A⊗ρ_B), and eig(ρ^{T_A}).

    Takes one state or a (k, d_a, d_b, d_a, d_b) stack of tensor views (see
    :meth:`DensityMatrix.as_tensor`).  Each decomposition runs once over a
    stack, and the record then has a leading batch axis."""
    tensor = rho.as_tensor() if isinstance(rho, DensityMatrix) else np.asarray(rho)
    if tensor.ndim < 4 or tensor.shape[-4:-2] != tensor.shape[-2:]:
        raise ValueError(f"need a stack of (d_a, d_b, d_a, d_b) tensor views, got shape {tensor.shape}")
    realigned = qstate._realign(tensor)
    purity_a, purity_b = qstate._subsystem_purities(tensor)
    return Spectra(
        dim_a=tensor.shape[-4],
        dim_b=tensor.shape[-3],
        realigned=np.linalg.svd(realigned, compute_uv=False),
        covariance=np.linalg.svd(qstate.realign_covariance(realigned), compute_uv=False),
        partial_transpose=np.linalg.eigvalsh(qstate._partial_transpose(tensor, 0)),
        purity_a=purity_a,
        purity_b=purity_b,
    )


def evaluate_all(rho: DensityMatrix) -> list[Verdict]:
    """Verdicts in the order PPT, REALIGN, LINEAR_OPT, NONLINEAR_OPT."""
    return spectra(rho).verdicts()


def concurrence_lower_bounds(rho: DensityMatrix) -> ConcurrenceBound:
    """See :meth:`Spectra.concurrence_bounds`."""
    return spectra(rho).concurrence_bounds()
