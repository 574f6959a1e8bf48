"""Acceptance suite: reproduces every published threshold and bound at desk
scale.  One PASS/FAIL line is printed per criterion (run with `pytest -s` to
see them); measured-but-not-asserted comparisons print as REPORT lines.
"""

import time

import numpy as np

from loowit import criteria, qstate
from loowit.cli import ScanSpec, run_scan
from loowit.criteria import spectra
from loowit.loo import gell_mann_basis, pauli_basis, rotate, transpose_basis
from loowit.oracle import sampled_max_trace
from loowit.qstate import make_state, realign, trace_norm, white_noise_mixture
from loowit.witness import (
    linear_witness_value,
    lmax_pure,
    nonlinear_witness_value,
    optimal_linear_min,
    optimal_nonlinear_min,
)

import samplers
from samplers import correlation_matrix, covariance_matrix

DIMS = [(2, 2), (2, 3), (3, 3)]
PROPERTY_STATES_PER_DIM = 200
SEPARABLE_STATES = 100
PROPERTY_SEED = 20260809
SEPARABLE_SEED = 7070707


def check(label: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def report(label: str):
    print(f"[REPORT] {label}")


def bisect_detection(detect, lo: float, hi: float, tol: float = 1e-5):
    """Smallest p in [lo, hi] where `detect` flips False -> True, or None."""
    if detect(lo) or not detect(hi):
        return None
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if detect(mid):
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def test_criterion_1_bell_witness_values():
    bell = make_state("bell")
    pauli = pauli_basis()
    flipped = rotate(pauli, np.diag([1.0, -1.0, 1.0, 1.0]))
    values = {
        "linear pauli/pauli": linear_witness_value(bell, pauli, pauli),
        "nonlinear pauli/pauli": nonlinear_witness_value(bell, pauli, pauli),
        "linear pauli/flipped": linear_witness_value(bell, pauli, flipped),
        "nonlinear pauli/flipped": nonlinear_witness_value(bell, pauli, flipped),
        "optimal linear min": optimal_linear_min(bell).value,
        "optimal nonlinear min": optimal_nonlinear_min(bell).value,
    }
    expected = {
        "linear pauli/pauli": 0.0,
        "nonlinear pauli/pauli": 0.0,
        "linear pauli/flipped": -1.0,
        "nonlinear pauli/flipped": -1.0,
        "optimal linear min": -1.0,
        "optimal nonlinear min": -1.0,
    }
    deviations = {k: abs(values[k] - expected[k]) for k in values}
    check(
        "criterion 1: bell witness values and optimal minima (tol 1e-9)",
        all(dev <= 1e-9 for dev in deviations.values()),
        f"max deviation {max(deviations.values()):.3g}",
    )


def test_criterion_2_noisy_singlet_thresholds():
    start = time.perf_counter()
    negated = rotate(pauli_basis(), np.diag([-1.0, -1.0, -1.0, 1.0]))
    standard = pauli_basis()

    fixed_threshold = bisect_detection(
        lambda p: linear_witness_value(make_state("noisy_singlet", p), negated, standard) < 0,
        0.0,
        1.0,
    )
    spec = ScanSpec("noisy_singlet", 0.2, 0.4, step=0.01, criterion="linear_opt", bisection_tol=1e-4)
    result = run_scan(spec, (make_state("noisy_singlet", 1.0), make_state("noisy_singlet", 0.0)))
    optimal_threshold = result.threshold

    rho_at = make_state("noisy_singlet", optimal_threshold)
    spectra_at = spectra(rho_at)
    lin_score = spectra_at.score("linear_opt")
    realign_score = spectra_at.score("realign")
    elapsed = time.perf_counter() - start

    ok = (
        fixed_threshold is not None
        and abs(fixed_threshold - 0.4) <= 1e-3
        and result.status == "ok"
        and abs(optimal_threshold - 0.292) <= 1e-3
        and abs(lin_score - realign_score) <= 1e-8
        and elapsed < 1.0
    )
    check(
        "criterion 2: noisy-singlet thresholds 0.4 / 0.292 and score equality (runtime < 1 s)",
        ok,
        f"fixed {fixed_threshold:.5f}, optimal {optimal_threshold:.5f}, "
        f"score gap {abs(lin_score - realign_score):.2e}, {elapsed:.2f} s",
    )


def test_criterion_3_upb_family_thresholds():
    start = time.perf_counter()
    upb = make_state("upb")
    family = lambda p: white_noise_mixture(upb, p)
    endpoints = (upb, white_noise_mixture(upb, 0.0))

    realign_scan = run_scan(
        ScanSpec("upb_noise", 0.85, 0.92, step=0.01, criterion="realign", bisection_tol=1e-4),
        endpoints,
    )
    nonlinear_scan = run_scan(
        ScanSpec("upb_noise", 0.85, 0.92, step=0.01, criterion="nonlinear_opt", bisection_tol=1e-4),
        endpoints,
    )

    # Measured, not asserted: the nonlinear witness at the fixed standard /
    # transposed basis pair, against the reference fixed-basis value 0.8885.
    basis_a = gell_mann_basis(3)
    basis_b = transpose_basis(basis_a)
    fixed_values = {
        p: nonlinear_witness_value(family(p), basis_a, basis_b)
        for p in np.linspace(0.0, 1.0, 21)
    }
    fixed_threshold = bisect_detection(
        lambda p: nonlinear_witness_value(family(p), basis_a, basis_b) < 0, 0.0, 1.0
    )
    if fixed_threshold is None:
        report(
            "criterion 3: fixed standard/transposed-basis nonlinear witness never fires "
            f"on upb_noise (min value {min(fixed_values.values()):.4f} over p grid); "
            "reference fixed-basis threshold 0.8885 not reproduced by this pair"
        )
    else:
        report(
            f"criterion 3: fixed standard/transposed-basis nonlinear threshold "
            f"{fixed_threshold:.4f} vs reference 0.8885"
        )
    adapted_threshold = bisect_detection(
        lambda p: nonlinear_witness_value(
            family(p), *optimal_linear_min(family(p))[1:]
        )
        < 0,
        0.8,
        0.95,
    )
    report(
        f"criterion 3: nonlinear witness at the correlation-optimal bases crosses zero "
        f"at p = {adapted_threshold:.4f} (reference 0.8885)"
    )

    elapsed = time.perf_counter() - start
    ok = (
        realign_scan.status == "ok"
        and abs(realign_scan.threshold - 0.8897) <= 5e-4
        and nonlinear_scan.status == "ok"
        and abs(nonlinear_scan.threshold - 0.8822) <= 5e-4
        and elapsed < 10.0
    )
    check(
        "criterion 3: upb-family thresholds 0.8897 / 0.8822 (runtime < 10 s)",
        ok,
        f"realign {realign_scan.threshold:.5f}, nonlinear {nonlinear_scan.threshold:.5f}, "
        f"{elapsed:.2f} s",
    )


def test_criterion_4_upb_concurrence_bounds():
    spec = spectra(make_state("upb"))
    bounds = {name: spec.score(name) for name in criteria.BOUND_NAMES}
    ok = (
        abs(bounds["bound_realign"] - 0.050) <= 1e-3
        and abs(bounds["bound_lmax"] - 0.055) <= 1e-3
        and bounds["bound_ppt"] == 0.0
    )
    check(
        "criterion 4: upb concurrence bounds 0.050 / 0.055 / 0 (tol 1e-3)",
        ok,
        f"realign {bounds['bound_realign']:.5f}, lmax {bounds['bound_lmax']:.5f}, "
        f"ppt {bounds['bound_ppt']:.1e}",
    )


def test_criterion_5_bound_scan_reproduction():
    upb = make_state("upb")
    endpoints = (upb, white_noise_mixture(upb, 0.0))
    lmax_scan = run_scan(
        ScanSpec("upb_noise", 0.85, 1.0, step=0.005, criterion="bound_lmax", bisection_tol=1e-4),
        endpoints,
    )
    realign_scan = run_scan(
        ScanSpec("upb_noise", 0.85, 1.0, step=0.005, criterion="bound_realign", bisection_tol=1e-4),
        endpoints,
    )
    assert len(lmax_scan.rows) == len(realign_scan.rows) == 31
    dominated = all(
        row_l[1] >= row_r[1] - 1e-12
        for row_l, row_r in zip(lmax_scan.rows, realign_scan.rows)
    )
    ok = (
        dominated
        and lmax_scan.status == "ok"
        and abs(lmax_scan.threshold - 0.8822) <= 5e-4
    )
    check(
        "criterion 5: lmax bound dominates realignment bound on the 31-point grid, "
        "positive from p = 0.8822",
        ok,
        f"lmax-bound threshold {lmax_scan.threshold:.5f}",
    )


def test_criterion_6_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(PROPERTY_SEED)
    results = {key: True for key in "abcdefg"}
    worst = {key: 0.0 for key in "abcdefg"}

    def update(key, deviation, tolerance):
        worst[key] = max(worst[key], deviation)
        if deviation > tolerance:
            results[key] = False

    oracle_seed = 0
    for da, db in DIMS:
        basis_a, basis_b = gell_mann_basis(da), gell_mann_basis(db)
        for _ in range(PROPERTY_STATES_PER_DIM):
            rho = samplers.random_mixed_state(da, db, rng)
            linear = optimal_linear_min(rho)
            nonlinear = optimal_nonlinear_min(rho)
            mu = correlation_matrix(rho, basis_a, basis_b)
            tau = covariance_matrix(rho, basis_a, basis_b)

            # (a) local-unitary invariance of both optima
            rotated = samplers.local_unitary_conjugate(
                rho, samplers.haar_unitary(da, rng), samplers.haar_unitary(db, rng)
            )
            update("a", abs(optimal_linear_min(rotated).value - linear.value), 1e-8)
            update("a", abs(optimal_nonlinear_min(rotated).value - nonlinear.value), 1e-8)

            # (b) singular-value sum of mu equals the realignment trace norm
            update("b", abs(trace_norm(mu) - trace_norm(realign(rho))), 1e-8)

            # (c) the nonlinear optimum never exceeds the linear optimum
            update("c", nonlinear.value - linear.value, 1e-9)

            # (d) zero-padding the rectangular tau leaves the singular values
            if (da, db) == (2, 3):
                padded = np.vstack([tau, np.zeros((5, 9))])
                padded_sum = float(np.linalg.svd(padded, compute_uv=False).sum())
                update("d", abs(padded_sum - trace_norm(tau)), 1e-10)

            # (e) Monte-Carlo rotations never beat either closed form
            for data in (mu, tau):
                oracle_seed += 1
                rep = sampled_max_trace(data, 1000, seed=oracle_seed)
                update("e", rep.best_sampled - trace_norm(data), 1e-9)

            # (g) re-evaluating at the returned optimal bases reproduces the minima
            update(
                "g",
                abs(linear_witness_value(rho, linear.basis_a, linear.basis_b) - linear.value),
                1e-9,
            )
            update(
                "g",
                abs(
                    nonlinear_witness_value(rho, nonlinear.basis_a, nonlinear.basis_b)
                    - nonlinear.value
                ),
                1e-9,
            )

        # (f) pure-state maximum matches the Schmidt-coefficient formula
        for _ in range(PROPERTY_STATES_PER_DIM):
            rho = samplers.random_pure_state(da, db, rng)
            expected = lmax_pure(qstate.schmidt(rho).coefficients)
            update("f", abs(optimal_nonlinear_min(rho).l_max - expected), 1e-8)

    elapsed = time.perf_counter() - start
    labels = {
        "a": "LU invariance (1e-8)",
        "b": "mu singular sum = realignment norm (1e-8)",
        "c": "nonlinear min <= linear min (1e-9)",
        "d": "rectangular padding invariance (1e-10)",
        "e": "Monte-Carlo never beats closed form (1e-9)",
        "f": "pure-state l_max formula (1e-8)",
        "g": "re-evaluation at optimal bases (1e-9)",
    }
    for key in "abcdefg":
        print(f"    ({key}) {labels[key]}: worst {worst[key]:.3g} -> {'ok' if results[key] else 'FAIL'}")
    ok = all(results.values()) and elapsed < 120.0
    check(
        f"criterion 6: property suite, {PROPERTY_STATES_PER_DIM} states per dim "
        "(runtime < 2 min)",
        ok,
        f"{elapsed:.1f} s",
    )


def test_criterion_7_separable_sanity():
    rng = np.random.default_rng(SEPARABLE_SEED)
    detections = 0
    nonzero_bounds = 0
    for i in range(SEPARABLE_STATES):
        da, db = DIMS[i % len(DIMS)]
        rho = samplers.random_separable_state(da, db, rng, max_terms=9)
        spec = spectra(rho)
        if any(criteria.detected(spec.score(name)) for name in criteria.THRESHOLD_FORMS):
            detections += 1
        if spec.score("bound_combined") != 0.0:
            nonzero_bounds += 1
    check(
        f"criterion 7: {SEPARABLE_STATES} random separable states, no detections "
        "and zero bounds",
        detections == 0 and nonzero_bounds == 0,
        f"{detections} detections, {nonzero_bounds} nonzero bounds",
    )
