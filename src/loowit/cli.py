"""Command-line front end: state generation, analysis, one-parameter family
scans with bisection thresholds, and trace-inequality certificates of the optima.

Exit codes: 0 success, 1 invalid input or a usage error, 2 no threshold found in a scan,
3 an optimum that its bases do not certify (``oracle`` prints FAILED).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import codec, criteria, qstate
from .qstate import DensityMatrix

FAMILY_NAMES = ("upb_noise", "noisy_singlet", "noise_mixture", "mixture")

DEFAULT_STEP = 0.01
DEFAULT_TOL = 1e-4
# Floor of the bisection tolerance and of the grid step (at most 10**6 + 1 points).
MIN_TOL = 1e-6
# Matrix entries per stacked grid evaluation in a scan: 4096 states at 2x2,
# 809 at 3x3, one at 16x16.  A fixed state count would let a chunk's memory
# grow with the state size (256 states of 16x16 are 268 MB per stacked array).
GRID_CHUNK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class ScanSpec:
    """One-parameter scan request: grid plus bisection tolerance."""

    family: str
    p_start: float
    p_stop: float
    step: float = DEFAULT_STEP
    criterion: str = "nonlinear_opt"
    bisection_tol: float = DEFAULT_TOL

    def __post_init__(self) -> None:
        if self.family not in FAMILY_NAMES:
            raise ValueError(f"unknown family {self.family!r}; known: {', '.join(FAMILY_NAMES)}")
        if self.criterion not in criteria.SCORE_NAMES:
            raise ValueError(
                f"unknown criterion {self.criterion!r}; known: {', '.join(criteria.SCORE_NAMES)}"
            )
        if not all(map(qstate._is_real_number, (self.p_start, self.p_stop, self.step, self.bisection_tol))):
            raise ValueError(f"p_start, p_stop, step and bisection_tol must be ints or floats, not bools: {self}")
        if not (0.0 <= self.p_start < self.p_stop <= 1.0):
            raise ValueError(
                f"need 0 <= start < stop <= 1, got start={self.p_start}, stop={self.p_stop}"
            )
        for name, label in (("step", "step"), ("bisection_tol", "bisection tolerance (bisection_tol)")):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= MIN_TOL):
                raise ValueError(f"{label} must be finite and >= {MIN_TOL}, got {value}")


def load_state_file(path) -> DensityMatrix:
    """Load a state file with both dims >= 2; :func:`criteria.spectra` checks that it is a state."""
    rho = codec.load_state(path)
    if min(rho.dim_a, rho.dim_b) < 2:
        raise ValueError(f"subsystem dimensions must be at least 2, got ({rho.dim_a}, {rho.dim_b})")
    return rho


def scan_score(rho: DensityMatrix | np.ndarray | criteria.Spectra, criterion: str):
    """Score and detection flag for any name of :data:`criteria.SCORE_NAMES`:
    a float and a bool for one state, two arrays for a stack of tensor views or
    a record of mixtures (:meth:`criteria.Spectra.mixed`), each scored in one call."""
    value = (rho if isinstance(rho, criteria.Spectra) else criteria.spectra(rho)).score(criterion)
    return value, criteria.detected(value)


@dataclass(frozen=True)
class ScanResult:
    spec: ScanSpec
    rows: list  # (p, score, detected) triples, ordered by p
    status: str  # ok | no_threshold | grid_only | detected_from_start
    threshold: float | None
    tolerance: float


def _grid(start: float, stop: float, step: float) -> list[float]:
    points = []
    i = 0
    while True:
        p = start + i * step
        if p >= stop - 1e-12:
            points.append(stop)
            return points
        points.append(p)
        i += 1


def run_scan(spec: ScanSpec, endpoints: tuple[DensityMatrix, DensityMatrix] | criteria.Spectra) -> ScanResult:
    """Scan the family p·ρ₁ + (1-p)·ρ₂ of ``endpoints``, the pair (ρ₁, ρ₂) or
    the record of its stack: score the grid in stacked chunks of at most
    GRID_CHUNK_ENTRIES matrix entries (one chunk for the default 101-point
    grid while dim_a·dim_b <= 25), then bisect the first crossing serially,
    one scored state per step.  Each is scored as mixes
    (:meth:`criteria.Spectra.mixed`) of that record, whose :func:`criteria.spectra`
    checks that both are states and which no scan writes to; a step mixes
    at its scalar midpoint, so its score and flag are a float and a bool, to
    the bit those of that midpoint in a chunk.

    Bisection assumes the detection flag changes once inside the bracketing
    grid cell.  That is not proven.  The only check, made at every step, is
    that the score at the midpoint lies between the scores at the two ends
    of the current bracket (within 1e-12); when it does not, the threshold
    is reported at grid resolution (``grid_only``).  A bracket that passes
    every check can still hold more than one crossing.
    """
    grid = _grid(spec.p_start, spec.p_stop, spec.step)
    if isinstance(endpoints, criteria.Spectra):
        record = endpoints
    else:
        record = criteria.spectra(np.stack([rho.as_tensor() for rho in endpoints]))
    size = max(1, GRID_CHUNK_ENTRIES // (record.dim_a * record.dim_b) ** 2)
    rows = []
    for start in range(0, len(grid), size):
        chunk = grid[start : start + size]
        scores, flags = scan_score(record.mixed(chunk), spec.criterion)
        rows += zip(chunk, scores.tolist(), flags.tolist())
    first = next((i for i, row in enumerate(rows) if row[2]), None)
    if first is None:
        return ScanResult(spec, rows, "no_threshold", None, spec.bisection_tol)
    if first == 0:
        return ScanResult(spec, rows, "detected_from_start", rows[0][0], spec.bisection_tol)

    (lo, score_lo, _), (hi, score_hi, _) = rows[first - 1], rows[first]
    while hi - lo > spec.bisection_tol:
        mid = (lo + hi) / 2
        score, detected = scan_score(record.mixed(mid), spec.criterion)
        if not (score_lo <= score + 1e-12 and score <= score_hi + 1e-12):
            return ScanResult(spec, rows, "grid_only", rows[first][0], spec.step)
        if detected:
            hi, score_hi = mid, score
        else:
            lo, score_lo = mid, score
    # With bisection_tol >= step no step ran, and the bracket is one grid cell.
    return ScanResult(spec, rows, "ok", (lo + hi) / 2, min(spec.bisection_tol, spec.step))


def scan_csv(result: ScanResult) -> str:
    # One %-format over every row: the same bytes as a per-row f"{p:.10g},{score:.10g},{flag:d}".
    rows = "%.10g,%.10g,%d\n" * len(result.rows)
    return "p,score,detected\n" + rows % tuple(itertools.chain.from_iterable(result.rows))


@functools.cache
def _fixed_family(name: str) -> criteria.Spectra:
    """The checked record of the endpoints of ``upb_noise`` or ``noisy_singlet``, library
    constants like those of :func:`qstate.make_state`: built on the first call and
    shared read-only by every later scan of that family in the process."""
    return criteria.spectra(np.stack([qstate.make_state(name, p).as_tensor() for p in (1.0, 0.0)]))


def _load_family(args) -> tuple[DensityMatrix, DensityMatrix] | criteria.Spectra:
    """The endpoints (ρ₁, ρ₂) of the family p·ρ₁ + (1-p)·ρ₂, as :func:`run_scan` takes them:
    a fixed family's shared record, or the state files' pair, read again on every call
    (a file may change between calls), whose record :func:`run_scan` builds and checks."""
    name = args.family
    if args.state and name in ("upb_noise", "noisy_singlet"):
        raise ValueError(f"family {name!r} reads no --state file")
    if args.state2 and name != "mixture":
        raise ValueError(f"family {name!r} reads no --state2 file")
    if name in ("upb_noise", "noisy_singlet"):
        return _fixed_family(name)
    if name == "noise_mixture":
        if not args.state:
            raise ValueError("family 'noise_mixture' requires --state")
        base = load_state_file(args.state)
        return base, qstate.white_noise_mixture(base, 0.0)
    # The family is "mixture": argparse's choices and ScanSpec reject any other name first.
    if not (args.state and args.state2):
        raise ValueError("family 'mixture' requires --state and --state2")
    first, second = load_state_file(args.state), load_state_file(args.state2)
    qstate._check_equal_dims(first, second)
    return first, second


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    codec.save_state(qstate.make_state(args.name, args.p), args.out or sys.stdout)
    return 0


def _analysis_document(rho: DensityMatrix, emit_bases: bool) -> dict:
    spectra = criteria.spectra(rho)
    scores = {name: spectra.score(name) for name in criteria.SCORE_NAMES}
    doc = {
        "dims": [rho.dim_a, rho.dim_b],
        "verdicts": [
            {
                "criterion": name,
                "detected": criteria.detected(scores[name]),
                "score": scores[name],
                "threshold_form": form,
            }
            for name, form in criteria.THRESHOLD_FORMS.items()
        ],
        "linear": {"min": spectra.linear_min, "value_at_reference_basis": spectra.linear_at_reference},
        "nonlinear": {
            "min": spectra.nonlinear_min,
            "l_max": spectra.l_max,
            "value_at_reference_basis": spectra.nonlinear_at_reference,
        },
        "purities": [spectra.purity_a, spectra.purity_b],
        "concurrence_bounds": {
            "dim_min": min(rho.dim_a, rho.dim_b),
            **{name: scores[name] for name in criteria.BOUND_NAMES},
        },
    }
    if emit_bases:
        optima = {kind: spectra.optimum(kind) for kind in ("linear", "nonlinear")}
        doc["optimal_bases"] = {kind: {"basis_a": opt_a.observables, "basis_b": opt_b.observables}
                                for kind, (_, opt_a, opt_b) in optima.items()}
    return doc


def _print_analysis(doc: dict) -> None:
    da, db = doc["dims"]
    print(f"state: {da}x{db} bipartite density matrix")
    print("verdicts:")
    for v in doc["verdicts"]:
        flag = "DETECTED" if v["detected"] else "not detected"
        print(f"  {v['criterion']:<14} score={v['score']: .10g}  {flag}")
    lin, non = doc["linear"], doc["nonlinear"]
    print(f"optimal linear min:    {lin['min']:.10g}  (at reference basis: {lin['value_at_reference_basis']:.10g})")
    print(f"optimal nonlinear min: {non['min']:.10g}  (at reference basis: {non['value_at_reference_basis']:.10g})")
    print(f"l_max:                 {non['l_max']:.10g}")
    pa, pb = doc["purities"]
    print(f"purities:              Tr rho_A^2 = {pa:.10g}, Tr rho_B^2 = {pb:.10g}")
    b = doc["concurrence_bounds"]
    bounds = " ".join(f"{name.removeprefix('bound_')}={b[name]:.10g}" for name in criteria.BOUND_NAMES)
    print(f"concurrence bounds:    {bounds}")


def cmd_analyze(args) -> int:
    if args.emit_bases and not args.json:
        raise ValueError("--emit-bases needs --json: the bases appear only in the JSON output")
    doc = _analysis_document(load_state_file(args.state), args.emit_bases)
    if args.json:
        codec.write_json(doc, sys.stdout)
    else:
        _print_analysis(doc)
    return 0


# Report line and exit code of each scan status.
_SCAN_REPORTS = {
    "ok": ("threshold {spec.criterion}: p = {result.threshold:.10g} +- {result.tolerance:.10g}", 0),
    "grid_only": ("threshold {spec.criterion}: p = {result.threshold:.10g} +- {result.tolerance:.10g} "
                  "(grid resolution; scores not monotone on the bracketing cell)", 0),
    "detected_from_start": ("threshold {spec.criterion}: detected at every grid point; "
                            "threshold <= p = {result.threshold:.10g}", 0),
    "no_threshold": ("no threshold in range for {spec.criterion} on {spec.family}", 2),
}


def cmd_scan(args) -> int:
    spec = ScanSpec(args.family, args.p_start, args.p_stop, args.step, args.criterion, args.tol)
    result = run_scan(spec, _load_family(args))
    csv_text = scan_csv(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        report = sys.stdout
    else:
        sys.stdout.write(csv_text)
        report = sys.stderr
    line, code = _SCAN_REPORTS[result.status]
    print(line.format(spec=spec, result=result), file=report)
    return code


def cmd_oracle(args) -> int:
    record = criteria.spectra(load_state_file(args.state))
    code = 0
    for target, kind in (("mu", "linear"), ("tau", "nonlinear")):
        analytic, basis_a, basis_b = record.optimum(kind)
        lower, upper, certified = criteria.optimum_bracket(record, kind, analytic, basis_a, basis_b)
        print(f"target {target}: analytic={analytic!r} lower={lower!r} upper={upper!r} "
              + ("certified" if certified else "FAILED"))
        code = code if certified else 3
    return code


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 (invalid input), not argparse's 2 (no threshold)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``loowit`` argument parser, built on the first call and then shared
    by every later call in the process, :func:`main` included.  Do not modify
    it: add no argument and set no default on it.  Sharing is safe because
    ``parse_args`` reads the parser and writes only to the namespace it
    returns."""
    parser = _Parser(
        prog="loowit",
        description="Entanglement witnesses from local orthogonal observables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a named state and write the state file")
    p_gen.add_argument("name", help=f"state name: {', '.join(qstate.STATE_NAMES)}")
    p_gen.add_argument("--p", type=float, default=None, help="mixing parameter, in [0, 1]")
    p_gen.add_argument("--out", default=None, help="output path (default: stdout)")
    p_gen.set_defaults(func=cmd_gen)

    p_an = sub.add_parser("analyze", help="criteria, optimal witnesses and bounds for a state file")
    p_an.add_argument("--state", required=True, help="state file to analyze")
    p_an.add_argument("--json", action="store_true", help="machine-readable JSON output")
    p_an.add_argument(
        "--emit-bases", action="store_true", help="include optimal bases in the JSON (needs --json)"
    )
    p_an.set_defaults(func=cmd_analyze)

    p_scan = sub.add_parser("scan", help="scan a one-parameter family and locate the threshold")
    p_scan.add_argument("--family", required=True, choices=FAMILY_NAMES)
    p_scan.add_argument("--criterion", required=True, choices=criteria.SCORE_NAMES)
    p_scan.add_argument("--p-start", type=float, default=0.0)
    p_scan.add_argument("--p-stop", type=float, default=1.0)
    p_scan.add_argument("--step", type=float, default=DEFAULT_STEP)
    p_scan.add_argument("--tol", type=float, default=DEFAULT_TOL, help="bisection tolerance")
    p_scan.add_argument("--state", default=None, help="base state file (noise_mixture, mixture)")
    p_scan.add_argument("--state2", default=None, help="second state file (mixture)")
    p_scan.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    p_scan.set_defaults(func=cmd_scan)

    p_or = sub.add_parser("oracle", help="certify the closed-form optima at their bases (trace inequality)")
    p_or.add_argument("--state", required=True)
    p_or.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except criteria.InvalidState as exc:
        print(exc, file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
