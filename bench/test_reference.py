"""Self-test of the benchmark's reference checker.

Real `analyze` and `scan` outputs must pass; each known-wrong variant must
be reported as a problem, which is what makes the benchmark count the
request as failed.  Run from the repository root:

    python3 -m pytest -q bench/test_reference.py
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
import workloads  # noqa: E402
from loowit import cli  # noqa: E402


def run_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


@pytest.fixture(scope="module")
def state(tmp_path_factory):
    rho = workloads.random_state(np.random.default_rng(7), 3, 4, 2)
    path = tmp_path_factory.mktemp("state") / "state.json"
    workloads.write_state(path, rho, 3, 4)
    return rho, str(path)


@pytest.fixture(scope="module")
def analysis(state):
    rho, path = state
    rc, out = run_cli(["analyze", "--state", path, "--json", "--emit-bases"])
    assert rc == 0
    return workloads._analyze_check(rho, 3, 4, with_bases=True), out


def test_analyze_output_passes(analysis):
    check, out = analysis
    assert check(0, out, "") == []


def test_unknown_keys_are_ignored(analysis):
    check, out = analysis
    doc = json.loads(out)
    doc["diagnostics"] = {"margin_distance": {"ppt": 0.1}}
    doc["linear"]["error_estimate"] = 1e-15
    assert check(0, json.dumps(doc), "") == []


@pytest.mark.parametrize(
    "path",
    [
        ("verdicts", 0, "score"),
        ("verdicts", 3, "score"),
        ("linear", "min"),
        ("linear", "value_at_reference_basis"),
        ("nonlinear", "min"),
        ("nonlinear", "l_max"),
        ("purities", 1),
        ("concurrence_bounds", "bound_lmax"),
    ],
)
def test_score_shifted_by_1e_6_fails(analysis, path):
    check, out = analysis
    doc = json.loads(out)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] += 1e-6
    assert check(0, json.dumps(doc), "")


def test_wrong_exit_code_fails(analysis):
    check, out = analysis
    assert check(1, out, "")


def test_non_orthonormal_basis_fails(analysis):
    check, out = analysis
    doc = json.loads(out)
    observable = doc["optimal_bases"]["nonlinear"]["basis_b"][5]
    for row in observable:
        for entry in row:
            entry[0] *= 1.0 + 1e-6
            entry[1] *= 1.0 + 1e-6
    problems = check(0, json.dumps(doc), "")
    assert any("orthonormality" in p for p in problems)


def test_non_hermitian_basis_fails(analysis):
    check, out = analysis
    doc = json.loads(out)
    doc["optimal_bases"]["linear"]["basis_a"][0][0][1][1] += 1e-6
    problems = check(0, json.dumps(doc), "")
    assert any("hermiticity" in p for p in problems)


def test_basis_that_misses_the_minimum_fails(analysis):
    check, out = analysis
    doc = json.loads(out)
    basis = doc["optimal_bases"]["linear"]["basis_a"]
    basis[0], basis[1] = basis[1], basis[0]  # still a LOO basis, wrong pairing
    problems = check(0, json.dumps(doc), "")
    assert any("emitted bases" in p for p in problems)


def _scan(tmp_path, family, criterion, extra=()):
    out = tmp_path / "scan.csv"
    rc, report = run_cli(["scan", "--family", family, "--criterion", criterion, "--out", str(out), *extra])
    return rc, report, out.read_text(encoding="utf-8")


def test_scan_output_passes(tmp_path):
    family = reference.ScanFamily("noisy_singlet", [])
    rc, report, csv_text = _scan(tmp_path, "noisy_singlet", "realign")
    assert rc == 0
    assert reference.check_scan(rc, report, csv_text, family, "realign") == []


def test_scan_of_seeded_state_files_passes(tmp_path):
    rng = np.random.default_rng(3)
    pure = workloads.random_state(rng, 3, 4, 1)
    sep = workloads.separable_state(rng, 3, 4, 24)
    workloads.write_state(tmp_path / "pure.json", pure, 3, 4)
    workloads.write_state(tmp_path / "sep.json", sep, 3, 4)
    family = reference.ScanFamily("mixture", [pure, sep], (3, 4))
    extra = ["--state", str(tmp_path / "pure.json"), "--state2", str(tmp_path / "sep.json")]
    rc, report, csv_text = _scan(tmp_path, "mixture", "bound_combined", extra)
    assert reference.check_scan(rc, report, csv_text, family, "bound_combined") == []


def test_no_threshold_exit_code_passes_only_when_reference_agrees(tmp_path):
    rc, report, csv_text = _scan(tmp_path, "upb_noise", "ppt")
    assert rc == 2
    upb = reference.ScanFamily("upb_noise", [])
    assert reference.check_scan(rc, report, csv_text, upb, "ppt") == []
    rc, _, csv_text = _scan(tmp_path, "upb_noise", "realign")
    assert rc == 0
    problems = reference.check_scan(2, report, csv_text, upb, "realign")
    assert problems == ["exit code 2 (no threshold) but the reference detects on the grid"]


@pytest.mark.parametrize("shift", [-3, 3])
def test_threshold_moved_outside_tolerance_fails(tmp_path, shift):
    family = reference.ScanFamily("noisy_singlet", [])
    rc, report, csv_text = _scan(tmp_path, "noisy_singlet", "nonlinear_opt")
    found = re.search(r"p = (\S+) \+- (\S+)", report)
    t, tol = float(found.group(1)), float(found.group(2))
    moved = report.replace(found.group(1), repr(t + shift * tol))
    assert reference.check_scan(rc, moved, csv_text, family, "nonlinear_opt")


def test_scan_score_shifted_by_1e_6_fails(tmp_path):
    family = reference.ScanFamily("noisy_singlet", [])
    rc, report, csv_text = _scan(tmp_path, "noisy_singlet", "realign")
    lines = csv_text.splitlines()
    p, score, flag = lines[40].split(",")
    lines[40] = f"{p},{float(score) + 1e-6:.10g},{flag}"
    assert reference.check_scan(rc, report, "\n".join(lines) + "\n", family, "realign")
