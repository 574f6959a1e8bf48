"""The Monte-Carlo check behind ``loowit oracle``.

:func:`sampled_max_trace` samples the rotation group directly, sharing no
computation with the closed forms, and reports how close random orthogonal
pairs come to the analytic maximum Σ_k σ_k(M); agreement is the check, and
the samples never feed back into the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    M must be one 2-D matrix of finite ints or floats: a complex or bool M,
    a stack, a vector or a NaN entry raises before any sample is drawn.
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

