"""Independent brute-force verifiers used by the test suite.

Both oracles deliberately avoid the library's computation paths: the
Monte-Carlo maximizer samples the rotation group directly, and the witness
recomputation builds every tensor product explicitly.  Agreement with the
closed forms is the check; these functions never feed back into them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .loo import LOOBasis
from .qstate import DensityMatrix

# Fixed chunk so that sampling streams agree on their common prefix whenever
# sample counts are multiples of it (the shrinking-gap check relies on this).
_CHUNK = 100


@dataclass(frozen=True)
class OracleReport:
    target: str
    analytic_value: float
    best_sampled: float
    samples: int
    seed: int
    gap: float


def _orthogonal_batch(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((count, n, n)))
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    return q * signs[:, None, :]


def sampled_max_trace(matrix, samples: int, seed: int, target: str | None = None) -> OracleReport:
    """Monte-Carlo lower bound on max Tr(U M Vᵀ) over orthogonal pairs.

    The analytic maximum is the sum of singular values of M; random sampling
    can approach but never exceed it.  Same seed, same result, to the bit.
    """
    m = np.asarray(matrix, dtype=float)
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)) or samples < 1:
        raise ValueError(f"samples must be an integer >= 1, got {samples!r}")
    rows, cols = m.shape
    k = min(rows, cols)
    rng = np.random.default_rng(seed)
    best = -np.inf
    done = 0
    while done < samples:
        count = min(_CHUNK, samples - done)
        u = _orthogonal_batch(rng, rows, count)
        v = _orthogonal_batch(rng, cols, count)
        traces = np.einsum("skj,jl,skl->s", u[:, :k, :], m, v[:, :k, :], optimize=True)
        best = max(best, float(traces.max()))
        done += count
    analytic = float(np.linalg.svd(m, compute_uv=False).sum())
    if target is None:
        target = f"max trace over orthogonal pairs, {rows}x{cols} matrix"
    return OracleReport(
        target=target,
        analytic_value=analytic,
        best_sampled=best,
        samples=samples,
        seed=seed,
        gap=analytic - best,
    )


def recompute_witness_direct(
    rho: DensityMatrix, basis_a: LOOBasis, basis_b: LOOBasis, kind: str
) -> float:
    """Witness value by definition: explicit G_k^A ⊗ G_k^B products and traces.

    Shares no computation with the witness module.  ``kind`` is "linear" or
    "nonlinear"; unequal basis lengths are padded with zero operators.
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
