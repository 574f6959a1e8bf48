"""Reference checker for `loowit analyze` and `loowit scan` output.

Written in plain numpy and never imports `loowit`, so a bug in the library
cannot hide itself.  Every value is recomputed from the state matrix through
spectral identities rather than through LOO bases:

    linear min    = 1 - ||R(rho)||_tr                    (realignment form)
    nonlinear min = 1 - ||R(rho - rho_A x rho_B)||_tr - (Tr rho_A^2 + Tr rho_B^2)/2
                                         (covariance form, Zhang et al.,
                                          PRA 77, 060301(R) (2008))

Each ``check_*`` function returns a list of problems; an empty list means
the output is correct.  Keys the checker does not know are ignored, so
additions such as a ``diagnostics`` object do not count as failures.

Tolerances
----------
ATOL: every checked value is a sum of at most k = 256 singular values or
eigenvalues (16x16 states) of a matrix whose spectral norm is at most 1.  By
Weyl's bound a backward-stable solver moves such a sum by at most
k * c * n * eps ~ 256 * 256 * 2.2e-16 * c = 1.5e-11 * c, so 1e-10 covers
c ~ 7 while a 1e-6 error is still caught by four orders of magnitude.
CSV_RTOL: `scan` prints scores with 10 significant digits, a relative
rounding of at most 5e-10.
BASIS_TOL: emitted bases are Gell-Mann bases rotated by orthogonal SVD
factors; their Hermiticity and orthonormality residuals are of order
d^2 * eps ~ 6e-14, far below this bound.
MARGIN / FLAG_GUARD: the library treats a score above MARGIN as a
detection.  Flags and clamped bounds are compared only when the reference
score is more than FLAG_GUARD away from MARGIN, so a later, size-aware
margin of up to ~1e-8 does not turn correct output into a failure.
"""

from __future__ import annotations

import csv
import io
import math
import re

import numpy as np

ATOL = 1e-10
CSV_RTOL = 1e-9
BASIS_TOL = 1e-9
MARGIN = 1e-9
FLAG_GUARD = 1e-7

CRITERIA = ("ppt", "realign", "linear_opt", "nonlinear_opt")
BOUND_KEYS = ("bound_ppt", "bound_realign", "bound_lmax")


# ---------------------------------------------------------------------------
# spectral reference values


def _tensor(rho: np.ndarray, da: int, db: int) -> np.ndarray:
    return rho.reshape(da, db, da, db)


def partial_transpose(rho: np.ndarray, da: int, db: int) -> np.ndarray:
    return _tensor(rho, da, db).transpose(2, 1, 0, 3).reshape(da * db, da * db)


def realign(m: np.ndarray, da: int, db: int) -> np.ndarray:
    return _tensor(m, da, db).transpose(0, 2, 1, 3).reshape(da * da, db * db)


def reduced_states(rho: np.ndarray, da: int, db: int) -> tuple[np.ndarray, np.ndarray]:
    t = _tensor(rho, da, db)
    return np.trace(t, axis1=1, axis2=3), np.trace(t, axis1=0, axis2=2)


def trace_norm(m: np.ndarray) -> float:
    return float(np.linalg.svd(m, compute_uv=False).sum())


def _clamped_bounds(score: float, factor: float) -> list[float]:
    """Values a bound may take: factor*score above the margin, 0 below it,
    either one inside the guard band around the margin."""
    if score > MARGIN + FLAG_GUARD:
        return [factor * score]
    if score < MARGIN - FLAG_GUARD:
        return [0.0]
    return [0.0, max(factor * score, 0.0)]


def flag_agrees(flag, score: float) -> bool:
    """A detection flag is checked only away from the margin."""
    if abs(score - MARGIN) <= FLAG_GUARD:
        return True
    return bool(flag) == (score > MARGIN)


def spectral_scores(rho: np.ndarray, da: int, db: int) -> dict:
    """Criterion scores, witness minima, purities and bound candidates."""
    rho_a, rho_b = reduced_states(rho, da, db)
    purity_a = float(np.real(np.trace(rho_a @ rho_a)))
    purity_b = float(np.real(np.trace(rho_b @ rho_b)))
    pt_eigs = np.linalg.eigvalsh(partial_transpose(rho, da, db))
    realign_norm = trace_norm(realign(rho, da, db))
    cov_norm = trace_norm(realign(rho - np.kron(rho_a, rho_b), da, db))
    linear_min = 1.0 - realign_norm
    nonlinear_min = 1.0 - cov_norm - (purity_a + purity_b) / 2.0
    m = min(da, db)
    factor = math.sqrt(2.0 / (m * (m - 1)))
    scores = {
        "ppt": float(np.abs(pt_eigs).sum()) - 1.0,
        "realign": realign_norm - 1.0,
        "linear_opt": -linear_min,
        "nonlinear_opt": -nonlinear_min,
    }
    candidates = {
        "bound_ppt": _clamped_bounds(scores["ppt"], factor),
        "bound_realign": _clamped_bounds(scores["realign"], factor),
        "bound_lmax": _clamped_bounds(-nonlinear_min, factor),
    }
    combined = sorted(
        {max(a, b, c) for a in candidates["bound_ppt"]
         for b in candidates["bound_realign"] for c in candidates["bound_lmax"]}
    )
    candidates["bound_combined"] = combined
    return {
        "scores": scores,
        "linear_min": linear_min,
        "nonlinear_min": nonlinear_min,
        "l_max": 1.0 - nonlinear_min,
        "purities": (purity_a, purity_b),
        "dim_min": m,
        "bounds": candidates,
    }


# ---------------------------------------------------------------------------
# LOO bases, needed only for the values at given basis pairs


def gell_mann_basis(d: int) -> np.ndarray:
    """The documented reference basis: symmetric pairs, antisymmetric pairs,
    then diagonal projectors, each block lexicographic in (m, n)."""
    obs = np.zeros((d * d, d, d), dtype=complex)
    k = 0
    pairs = [(m, n) for m in range(d) for n in range(m + 1, d)]
    for m, n in pairs:
        obs[k, m, n] = obs[k, n, m] = 1 / np.sqrt(2)
        k += 1
    for m, n in pairs:
        obs[k, m, n], obs[k, n, m] = 1j / np.sqrt(2), -1j / np.sqrt(2)
        k += 1
    for m in range(d):
        obs[k, m, m] = 1.0
        k += 1
    return obs


def witness_values(rho: np.ndarray, da: int, db: int, obs_a: np.ndarray, obs_b: np.ndarray):
    """(linear, nonlinear) witness values at a basis pair, the shorter basis
    padded with zero operators."""
    t = _tensor(rho, da, db)
    k = min(len(obs_a), len(obs_b))
    paired = float(np.einsum("ijkl,aki,alj->a", t, obs_a[:k], obs_b[:k], optimize=True).real.sum())
    rho_a, rho_b = reduced_states(rho, da, db)
    a = np.einsum("kij,ji->k", obs_a, rho_a).real
    b = np.einsum("kij,ji->k", obs_b, rho_b).real
    squares = float(a @ a + b @ b - 2.0 * (a[:k] @ b[:k]))
    return 1.0 - paired, 1.0 - paired - 0.5 * squares


def basis_residuals(obs: np.ndarray) -> tuple[float, float]:
    """(max |G - G^dagger|, max |Tr(G_k G_l) - delta_kl|)."""
    herm = float(np.abs(obs - obs.conj().transpose(0, 2, 1)).max())
    vecs = obs.reshape(len(obs), -1)
    gram = vecs @ vecs.conj().T
    ortho = float(np.abs(gram - np.eye(len(obs))).max())
    return herm, ortho


# ---------------------------------------------------------------------------
# analyze


def _close(value, expected: float, tol: float = ATOL) -> bool:
    return isinstance(value, (int, float)) and abs(float(value) - expected) <= tol


def _check_value(problems: list, name: str, value, expected: float) -> None:
    if not _close(value, expected):
        problems.append(f"{name}: got {value!r}, reference {expected!r}")


def check_analysis(doc: dict, rho: np.ndarray, da: int, db: int) -> list[str]:
    """Check an `analyze --json` document (with or without bases)."""
    problems: list[str] = []
    try:
        ref = spectral_scores(rho, da, db)
        if doc["dims"] != [da, db]:
            problems.append(f"dims: got {doc['dims']!r}, expected {[da, db]!r}")
        verdicts = {v["criterion"]: v for v in doc["verdicts"]}
        for name in CRITERIA:
            score = ref["scores"][name]
            _check_value(problems, f"verdict {name} score", verdicts[name]["score"], score)
            if not flag_agrees(verdicts[name]["detected"], score):
                problems.append(f"verdict {name}: detected={verdicts[name]['detected']!r}, reference score {score!r}")
        ref_linear, ref_nonlinear = witness_values(
            rho, da, db, gell_mann_basis(da), gell_mann_basis(db).transpose(0, 2, 1)
        )
        _check_value(problems, "linear.min", doc["linear"]["min"], ref["linear_min"])
        _check_value(problems, "linear.value_at_reference_basis",
                     doc["linear"]["value_at_reference_basis"], ref_linear)
        _check_value(problems, "nonlinear.min", doc["nonlinear"]["min"], ref["nonlinear_min"])
        _check_value(problems, "nonlinear.l_max", doc["nonlinear"]["l_max"], ref["l_max"])
        _check_value(problems, "nonlinear.value_at_reference_basis",
                     doc["nonlinear"]["value_at_reference_basis"], ref_nonlinear)
        for name, value, expected in zip(("purity_a", "purity_b"), doc["purities"], ref["purities"]):
            _check_value(problems, name, value, expected)
        bounds = doc["concurrence_bounds"]
        if bounds["dim_min"] != ref["dim_min"]:
            problems.append(f"dim_min: got {bounds['dim_min']!r}, expected {ref['dim_min']}")
        for name in BOUND_KEYS + ("bound_combined",):
            if not any(_close(bounds[name], c) for c in ref["bounds"][name]):
                problems.append(f"{name}: got {bounds[name]!r}, reference {ref['bounds'][name]!r}")
        reported = [bounds[name] for name in BOUND_KEYS]
        if all(isinstance(v, (int, float)) for v in reported) and not _close(bounds["bound_combined"], max(reported)):
            problems.append("bound_combined is not the max of the three bounds")
        if "optimal_bases" in doc:
            problems += check_bases(doc["optimal_bases"], rho, da, db, ref)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problems.append(f"malformed analyze output: {exc!r}")
    return problems


def _basis_array(raw, d: int) -> np.ndarray:
    arr = np.asarray(raw, dtype=float)
    if arr.shape != (d * d, d, d, 2):
        raise ValueError(f"basis must have shape {(d * d, d, d, 2)}, got {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def check_bases(bases: dict, rho: np.ndarray, da: int, db: int, ref: dict) -> list[str]:
    """Emitted bases must be LOO bases at which the witness hits its minimum;
    ``ref`` is spectral_scores(rho, da, db)."""
    problems: list[str] = []
    for kind in ("linear", "nonlinear"):
        obs_a = _basis_array(bases[kind]["basis_a"], da)
        obs_b = _basis_array(bases[kind]["basis_b"], db)
        for side, obs in (("a", obs_a), ("b", obs_b)):
            herm, ortho = basis_residuals(obs)
            if herm > BASIS_TOL:
                problems.append(f"{kind} basis_{side}: hermiticity residual {herm!r}")
            if ortho > BASIS_TOL:
                problems.append(f"{kind} basis_{side}: orthonormality residual {ortho!r}")
        linear, nonlinear = witness_values(rho, da, db, obs_a, obs_b)
        value, expected = (linear, ref["linear_min"]) if kind == "linear" else (nonlinear, ref["nonlinear_min"])
        if abs(value - expected) > ATOL:
            problems.append(f"{kind} witness at emitted bases is {value!r}, minimum {expected!r}")
    return problems


# ---------------------------------------------------------------------------
# scan


def upb_state() -> np.ndarray:
    """3x3 bound entangled state from the five-tile unextendible product basis."""
    k = np.eye(3)
    s2 = 1 / np.sqrt(2)
    u = (k[0] + k[1] + k[2]) / np.sqrt(3)
    tiles = [
        np.kron(k[0], s2 * (k[0] - k[1])),
        np.kron(s2 * (k[0] - k[1]), k[2]),
        np.kron(k[2], s2 * (k[1] - k[2])),
        np.kron(s2 * (k[1] - k[2]), k[0]),
        np.kron(u, u),
    ]
    proj = sum(np.outer(t, t) for t in tiles)
    return ((np.eye(9) - proj) / 4).astype(complex)


def noisy_singlet(p: float) -> np.ndarray:
    k = np.eye(2)
    singlet = (np.kron(k[0], k[1]) - np.kron(k[1], k[0])) / np.sqrt(2)
    k00, k01 = np.kron(k[0], k[0]), np.kron(k[0], k[1])
    sep = 2 / 3 * np.outer(k00, k00) + 1 / 3 * np.outer(k01, k01)
    return (p * np.outer(singlet, singlet) + (1 - p) * sep).astype(complex)


class ScanFamily:
    """rho(p) for one `scan --family`, from the benchmark's own matrices."""

    def __init__(self, family: str, states: list, dims: tuple[int, int] | None = None):
        self.family = family
        if family == "upb_noise":
            self.dims, self._base = (3, 3), upb_state()
        elif family == "noisy_singlet":
            self.dims, self._base = (2, 2), None
        else:
            self.dims = dims
            self._base = states[0]
            self._second = states[1] if family == "mixture" else None

    def __call__(self, p: float) -> np.ndarray:
        if self.family == "noisy_singlet":
            return noisy_singlet(p)
        if self.family == "mixture":
            return p * self._base + (1 - p) * self._second
        n = self._base.shape[0]
        return p * self._base + (1 - p) * np.eye(n) / n


def scan_reference(family: ScanFamily, criterion: str, p: float) -> list[float]:
    """Allowed scores at p: one value, or two for a bound inside the guard band."""
    ref = spectral_scores(family(p), *family.dims)
    if criterion in ref["scores"]:
        return [ref["scores"][criterion]]
    return ref["bounds"][criterion]


def _grid(start: float, stop: float, step: float) -> list[float]:
    points, i = [], 0
    while start + i * step < stop - 1e-12:
        points.append(start + i * step)
        i += 1
    return points + [stop]


_RANGE = re.compile(r"p = ([-+0-9.eE]+) \+- ([-+0-9.eE]+)")
_FROM_START = re.compile(r"threshold <= p = ([-+0-9.eE]+)")


def check_scan(rc: int, report: str, csv_text: str, family: ScanFamily, criterion: str,
               p_start: float = 0.0, p_stop: float = 1.0, step: float = 0.01) -> list[str]:
    """Check the exit code, the CSV rows and the reported threshold of a scan.

    ``report`` is the scan's stdout (the CSV went to --out).
    """
    problems: list[str] = []
    try:
        rows = list(csv.DictReader(io.StringIO(csv_text)))
        grid = _grid(p_start, p_stop, step)
        if len(rows) != len(grid):
            return [f"CSV has {len(rows)} rows, expected {len(grid)}"]
        detected_anywhere = False
        for p_expected, row in zip(grid, rows):
            p, score = float(row["p"]), float(row["score"])
            if abs(p - p_expected) > 1e-9:
                problems.append(f"CSV p={p!r}, expected {p_expected!r}")
                continue
            allowed = scan_reference(family, criterion, p)
            if not any(abs(score - a) <= ATOL + CSV_RTOL * abs(a) for a in allowed):
                problems.append(f"CSV score at p={p!r}: got {score!r}, reference {allowed!r}")
            ref_score = allowed[-1]
            if not flag_agrees(int(row["detected"]), ref_score):
                problems.append(f"CSV flag at p={p!r}: {row['detected']}, reference score {ref_score!r}")
            detected_anywhere |= ref_score > MARGIN + FLAG_GUARD
        problems += _check_threshold(rc, report, family, criterion, p_start, p_stop, detected_anywhere)
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"malformed scan output: {exc!r}")
    return problems


def _check_threshold(rc, report, family, criterion, p_start, p_stop, detected_anywhere) -> list[str]:
    score = lambda p: max(scan_reference(family, criterion, p))
    if rc == 2:
        if detected_anywhere:
            return ["exit code 2 (no threshold) but the reference detects on the grid"]
        return []
    if rc != 0:
        return [f"unexpected exit code {rc}"]
    start = _FROM_START.search(report)
    if start:
        t = float(start.group(1))
        if abs(t - p_start) > 1e-9 or not score(p_start) > MARGIN:
            return [f"'detected from start' at p={t!r} but reference score there is {score(p_start)!r}"]
        return []
    found = _RANGE.search(report)
    if not found:
        return [f"no threshold in scan report {report!r}"]
    t, tol = float(found.group(1)), float(found.group(2))
    lo, hi = max(p_start, t - tol), min(p_stop, t + tol)
    # The detection flag must flip inside [t - tol, t + tol].  The library
    # brackets its crossing within tol/2 of t, so a margin change of dM moves
    # the crossing by dM / slope, far less than the remaining tol/2.
    if not (score(lo) <= MARGIN < score(hi)):
        return [f"threshold p={t!r} +- {tol!r}: reference scores {score(lo)!r} at {lo!r} and "
                f"{score(hi)!r} at {hi!r} do not cross the margin"]
    return []
