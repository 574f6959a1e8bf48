"""Seeded inputs and request cycles for the three workloads.

Each workload is a fixed cycle of requests; the worker repeats whole
cycles, so every run sees the same mix of request kinds and only the state
contents depend on the seed.  Every input is written as a state file before
timing starts, and each request carries a check that compares its output
with the reference checker.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference

# (dim_a, dim_b, rank) per request of one cycle.  The worker runs whole
# cycles, so the mix is fixed and the median and the tail percentile (10
# samples above it) each fall inside one size class for any plausible cycle
# count: here the median in 8x16 and, from six cycles on, the tail in 16x16.
ANALYZE_LARGE = [(8, 8, 1), (8, 12, 4), (8, 16, 16), (12, 12, 144), (12, 16, 2), (16, 16, 8), (16, 16, 256)]
# The bases output grows as d^6 and a 16x16 request takes seconds, so a run
# completes only three to five cycles; 12x12 holds most of the requests,
# which puts both the median and the tail inside it for three to ten cycles.
ANALYZE_BASES = [(8, 8, 1), (8, 8, 32), (12, 12, 1), (12, 12, 3), (12, 12, 20), (12, 12, 72), (12, 12, 144),
                 (16, 16, 16)]
SCAN_CRITERIA = ("ppt", "realign", "linear_opt", "nonlinear_opt", "bound_combined")
SCAN_FAMILIES = ("upb_noise", "noisy_singlet", "noise_mixture", "mixture")


@dataclass
class Request:
    label: str
    argv: list[str]
    out: str | None
    check: Callable[[int | None, str, str], list[str]]  # (rc, stdout, out file) -> problems


@dataclass
class Workload:
    warmup: list[str]
    cycle: list[Request]
    inputs: dict[str, int]  # state file name -> bytes


def random_state(rng: np.random.Generator, da: int, db: int, rank: int) -> np.ndarray:
    n = da * db
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


def separable_state(rng: np.random.Generator, da: int, db: int, terms: int) -> np.ndarray:
    rho = np.zeros((da * db, da * db), dtype=complex)
    for w in rng.dirichlet(np.ones(terms)):
        a = rng.standard_normal(da) + 1j * rng.standard_normal(da)
        b = rng.standard_normal(db) + 1j * rng.standard_normal(db)
        v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        rho += w * np.outer(v, v.conj())
    return (rho + rho.conj().T) / 2


def write_state(path: Path, rho: np.ndarray, da: int, db: int) -> int:
    """Documented state-file format; Python float repr round-trips exactly."""
    doc = {"dims": [da, db], "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in rho]}
    text = json.dumps(doc) + "\n"
    path.write_text(text, encoding="utf-8")
    return len(text)


def _analyze_check(rho, da, db, with_bases):
    def check(rc, stdout, _):
        if rc != 0:
            return [f"exit code {rc}, expected 0"]
        try:
            doc = json.loads(stdout)
        except ValueError as exc:
            return [f"stdout is not JSON: {exc}"]
        problems = reference.check_analysis(doc, rho, da, db)
        if with_bases and "optimal_bases" not in doc:
            problems.append("--emit-bases output has no optimal_bases")
        return problems

    return check


def _analyze(seed: int, run_dir: Path, slots, with_bases: bool) -> Workload:
    cycle, inputs = [], {}
    for i, (da, db, rank) in enumerate(slots):
        rho = random_state(np.random.default_rng((seed, i)), da, db, rank)
        name = f"state{i}-{da}x{db}-r{rank}.json"
        inputs[name] = write_state(run_dir / name, rho, da, db)
        argv = ["analyze", "--state", str(run_dir / name), "--json"] + (["--emit-bases"] if with_bases else [])
        cycle.append(Request(f"{i}:{da}x{db}-r{rank}", argv, None, _analyze_check(rho, da, db, with_bases)))
    return Workload(cycle[0].argv, cycle, inputs)


def analyze_large(seed: int, run_dir: Path) -> Workload:
    return _analyze(seed, run_dir, ANALYZE_LARGE, with_bases=False)


def analyze_bases(seed: int, run_dir: Path) -> Workload:
    return _analyze(seed, run_dir, ANALYZE_BASES, with_bases=True)


def scan_small(seed: int, run_dir: Path) -> Workload:
    """Every family x criterion at the default grid, step and tolerance.

    noise_mixture uses a seeded pure 2x4 state and mixture a seeded pure 3x4
    state against a seeded full-rank separable 3x4 state, so every scan but
    ppt on the PPT-entangled upb_noise family finds a threshold in (0, 1).
    """
    rng = np.random.default_rng((seed, 0))
    states = {
        "pure2x4.json": (random_state(rng, 2, 4, 1), 2, 4),
        "pure3x4.json": (random_state(rng, 3, 4, 1), 3, 4),
        "sep3x4.json": (separable_state(rng, 3, 4, 24), 3, 4),
    }
    inputs = {name: write_state(run_dir / name, *spec) for name, spec in states.items()}
    path = lambda name: str(run_dir / name)
    family_args = {
        "upb_noise": ([], reference.ScanFamily("upb_noise", [])),
        "noisy_singlet": ([], reference.ScanFamily("noisy_singlet", [])),
        "noise_mixture": (["--state", path("pure2x4.json")],
                          reference.ScanFamily("noise_mixture", [states["pure2x4.json"][0]], (2, 4))),
        "mixture": (["--state", path("pure3x4.json"), "--state2", path("sep3x4.json")],
                    reference.ScanFamily("mixture", [states["pure3x4.json"][0], states["sep3x4.json"][0]], (3, 4))),
    }
    cycle = []
    for family in SCAN_FAMILIES:
        extra, ref_family = family_args[family]
        for criterion in SCAN_CRITERIA:
            label = f"{family}:{criterion}"
            out = path(f"scan-{family}-{criterion}.csv")
            argv = ["scan", "--family", family, "--criterion", criterion, "--out", out] + extra

            def check(rc, stdout, csv_text, ref_family=ref_family, criterion=criterion):
                return reference.check_scan(rc, stdout, csv_text, ref_family, criterion)

            cycle.append(Request(label, argv, out, check))
    return Workload(cycle[0].argv, cycle, inputs)


WORKLOADS = {"analyze_large": analyze_large, "analyze_bases": analyze_bases, "scan_small": scan_small}
