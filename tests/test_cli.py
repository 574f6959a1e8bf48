import argparse
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from loowit import cli, codec, criteria, loo, qstate
from loowit.cli import ScanSpec, main, run_scan, scan_csv, scan_score
from loowit.codec import load_state, save_state
from loowit.loo import LOOBasis, gell_mann_basis, transpose_basis
from loowit.qstate import make_state, trace_norm

import oracles
import samplers
from counting import count_calls


NOISY_SINGLET = (make_state("noisy_singlet", 1.0), make_state("noisy_singlet", 0.0))


def basis_from_document(raw) -> LOOBasis:
    pairs = np.asarray(raw, dtype=float)
    return LOOBasis(pairs.shape[1], pairs[..., 0] + 1j * pairs[..., 1])


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    save_state(make_state("bell"), path)
    return str(path)


@pytest.fixture
def identity_file(tmp_path):
    """A 2x2 "state" with trace 4: Hermitian and PSD, but not unit trace."""
    path = tmp_path / "identity.json"
    save_state(qstate.DensityMatrix(2, 2, np.eye(4)), path)
    return str(path)


@pytest.fixture
def one_by_two_file(tmp_path):
    """A valid 1x2 state: every invariant holds, but dim_a is 1."""
    path = tmp_path / "one_by_two.json"
    save_state(qstate.DensityMatrix(1, 2, np.eye(2) / 2), path)
    return str(path)


def count_decompositions(monkeypatch):
    """The list that each later call of realign, svd (values-only or not), eigvalsh or eigh appends to."""
    targets = ((qstate, "realign"), (np.linalg, "svd"), (np.linalg, "eigvalsh"), (np.linalg, "eigh"))
    return count_calls(monkeypatch, targets,
                       lambda name, kwargs: name if kwargs.get("compute_uv", True) else "values-only " + name)


class TestGen:
    def test_bell_file_round_trips(self, tmp_path):
        out = tmp_path / "bell.json"
        assert main(["gen", "bell", "--out", str(out)]) == 0
        rho = load_state(out)
        assert (rho.dim_a, rho.dim_b) == (2, 2)
        assert np.array_equal(rho.data, make_state("bell").data)

    def test_upb_file(self, tmp_path):
        out = tmp_path / "upb.json"
        assert main(["gen", "upb", "--out", str(out)]) == 0
        rho = load_state(out)
        assert rho.data.shape == (9, 9)
        assert np.trace(rho.data).real == pytest.approx(1.0, abs=1e-12)

    def test_upb_noise_validates(self, tmp_path):
        out = tmp_path / "state.json"
        assert main(["gen", "upb_noise", "--p", "0.9", "--out", str(out)]) == 0
        criteria.spectra(load_state(out))  # raises on a non-state

    def test_stdout_output(self, capsys):
        assert main(["gen", "bell"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dims"] == [2, 2]

    @pytest.mark.parametrize("args", [["bell"], ["noisy_singlet", "--p", "0.3"], ["upb"], ["upb_noise", "--p", "0.9"]])
    def test_stdout_and_out_get_the_same_bytes(self, tmp_path, capsys, args):
        out = tmp_path / "state.json"
        assert main(["gen", *args]) == 0
        printed = capsys.readouterr().out
        assert main(["gen", *args, "--out", str(out)]) == 0
        assert out.read_bytes() == printed.encode("utf-8")

    def test_unknown_name_fails(self, capsys):
        assert main(["gen", "ghz"]) == 1
        assert "unknown state" in capsys.readouterr().err

    def test_save_load_save_is_stable(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        main(["gen", "upb_noise", "--p", "0.37", "--out", str(first)])
        save_state(load_state(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_out_of_range_parameter_fails(self, capsys):
        assert main(["gen", "upb_noise", "--p", "1.5"]) == 1
        assert "[0, 1]" in capsys.readouterr().err

    def test_unused_parameter_fails(self, tmp_path, capsys):
        out = tmp_path / "upb.json"
        assert main(["gen", "upb", "--p", "0.5", "--out", str(out)]) == 1
        assert "takes no mixing parameter" in capsys.readouterr().err
        assert not out.exists()


class TestAnalyze:
    def test_bell_json_report(self, bell_file, capsys):
        assert main(["analyze", "--state", bell_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        scores = {v["criterion"]: v["score"] for v in doc["verdicts"]}
        assert scores["nonlinear_opt"] == pytest.approx(1.0, abs=1e-9)
        assert all(v["detected"] for v in doc["verdicts"])
        assert doc["nonlinear"]["l_max"] == pytest.approx(2.0, abs=1e-9)

    def test_human_readable_report(self, bell_file, capsys):
        assert main(["analyze", "--state", bell_file]) == 0
        out = capsys.readouterr().out
        assert "DETECTED" in out
        assert "l_max" in out
        # One label per bound name, its value as in the JSON document.
        assert main(["analyze", "--state", bell_file, "--json"]) == 0
        bounds = json.loads(capsys.readouterr().out)["concurrence_bounds"]
        line = next(line for line in out.splitlines() if line.startswith("concurrence bounds:"))
        fields = dict(field.split("=") for field in line.split()[2:])
        assert fields == {name.removeprefix("bound_"): f"{bounds[name]:.10g}" for name in criteria.BOUND_NAMES}

    def test_upb_bounds_in_report(self, tmp_path, capsys):
        path = tmp_path / "upb.json"
        save_state(make_state("upb"), path)
        assert main(["analyze", "--state", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["concurrence_bounds"]["bound_lmax"] == pytest.approx(0.055, abs=1e-3)

    def test_product_state_nothing_detected(self, tmp_path, capsys):
        path = tmp_path / "prod.json"
        save_state(samplers.random_product_state(2, 2, np.random.default_rng(61)), path)
        assert main(["analyze", "--state", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert not any(v["detected"] for v in doc["verdicts"])

    def test_emit_bases_reevaluates(self, bell_file, capsys):
        assert main(["analyze", "--state", bell_file, "--json", "--emit-bases"]) == 0
        doc = json.loads(capsys.readouterr().out)
        bases = doc["optimal_bases"]["nonlinear"]
        basis_a = basis_from_document(bases["basis_a"])
        basis_b = basis_from_document(bases["basis_b"])
        value = criteria.spectra(make_state("bell")).witness_value("nonlinear", basis_a, basis_b)
        assert value == pytest.approx(doc["nonlinear"]["min"], abs=1e-9)

    def test_emit_bases_needs_json(self, bell_file, capsys):
        # Without --json the bases would be computed and then never printed.
        assert main(["analyze", "--state", bell_file, "--emit-bases"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --emit-bases needs --json: the bases appear only in the JSON output\n"

    def test_invalid_state_reports_residuals(self, tmp_path, capsys):
        doc = codec.state_to_document(make_state("bell"))
        doc["matrix"][0][0] = [2.0, 0.0]  # breaks unit trace and PSD structure
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", "--state", str(path)]) == 1
        err = capsys.readouterr().err
        assert "unit_trace" in err and "residual" in err

    def test_missing_file_fails(self, capsys):
        assert main(["analyze", "--state", "/nonexistent/state.json"]) == 1

    @pytest.mark.parametrize("entry", ["null", '"0.5"', "9" * 400], ids=["null", "string", "huge_integer"])
    def test_malformed_entry_fails(self, tmp_path, capsys, entry):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"dims": [1, 1], "matrix": [[[{entry}, 0.0]]]}}')
        assert main(["analyze", "--state", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("dims", [[2.7, 2.2], [True, "4"]])
    def test_non_integer_dims_fail(self, tmp_path, capsys, dims):
        doc = codec.state_to_document(make_state("bell"))
        doc["dims"] = dims
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", "--state", str(path)]) == 1
        assert "integers" in capsys.readouterr().err


class TestAnalysisDocument:
    def test_invariants_on_random_states(self):
        rng = np.random.default_rng(45)
        for da, db in [(2, 2), (2, 3), (3, 3)]:
            rho = samplers.random_mixed_state(da, db, rng)
            doc = cli._analysis_document(rho, emit_bases=False)
            linear, nonlinear = doc["linear"], doc["nonlinear"]
            purity_a, purity_b = doc["purities"]
            assert linear["min"] <= linear["value_at_reference_basis"] + 1e-9
            assert nonlinear["min"] <= nonlinear["value_at_reference_basis"] + 1e-9
            tau_sum = trace_norm(samplers.covariance_matrix(rho, gell_mann_basis(da), gell_mann_basis(db)))
            expected_lmax = tau_sum + (purity_a + purity_b) / 2
            assert nonlinear["l_max"] == pytest.approx(expected_lmax, abs=1e-10)
            assert nonlinear["l_max"] == pytest.approx(1.0 - nonlinear["min"], abs=1e-12)
            assert 0.0 < purity_a <= 1.0 + 1e-12
            assert 0.0 < purity_b <= 1.0 + 1e-12
            # Every verdict and bound is the record's score under that name, exactly.
            spec = criteria.spectra(rho)
            assert [v["criterion"] for v in doc["verdicts"]] == ["ppt", "realign", "linear_opt", "nonlinear_opt"]
            for v in doc["verdicts"]:
                assert v["score"] == spec.score(v["criterion"])
                assert v["detected"] is criteria.detected(spec.score(v["criterion"]))
                assert v["threshold_form"] == criteria.THRESHOLD_FORMS[v["criterion"]]
            bounds = doc["concurrence_bounds"]
            assert list(bounds) == ["dim_min", "bound_ppt", "bound_realign", "bound_lmax", "bound_combined"]
            assert bounds["dim_min"] == min(da, db)
            for name in criteria.BOUND_NAMES:
                assert bounds[name] == spec.score(name)

    def test_optimal_bases_match_requested_kind(self):
        # The document holds each basis as its observables array; only the writer turns it into pairs.
        rho = make_state("noisy_singlet", 0.8)
        doc, record = cli._analysis_document(rho, emit_bases=True), criteria.spectra(rho)
        for kind in ("linear", "nonlinear"):
            bases = doc["optimal_bases"][kind]
            basis_a = LOOBasis(rho.dim_a, bases["basis_a"])
            basis_b = LOOBasis(rho.dim_b, bases["basis_b"])
            value = record.witness_value(kind, basis_a, basis_b)
            assert value == pytest.approx(doc[kind]["min"], abs=1e-9)

    def test_bases_match_per_entry_encoder(self, tmp_path, capsys):
        def encode(basis):
            return [[[[float(z.real), float(z.imag)] for z in row] for row in g] for g in basis.observables]

        rho = samplers.random_mixed_state(2, 3, np.random.default_rng(46))
        path = tmp_path / "state.json"
        save_state(rho, path)
        assert main(["analyze", "--state", str(path), "--json", "--emit-bases"]) == 0
        expected = cli._analysis_document(rho, emit_bases=False)
        expected["optimal_bases"] = {}
        record = criteria.spectra(rho)
        for kind in ("linear", "nonlinear"):
            _, basis_a, basis_b = record.optimum(kind)
            expected["optimal_bases"][kind] = {"basis_a": encode(basis_a), "basis_b": encode(basis_b)}
        assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"

    # Gell-Mann records (one qstate.realign each), values-only SVDs, full SVDs and
    # eigensolves per request.  The record's state check takes one eigensolve, and
    # every score but ppt none.
    REQUEST_DECOMPOSITIONS = {
        "analyze": (1, 2, 0, 2),
        "analyze --json": (1, 2, 0, 2),
        "analyze --json --emit-bases": (1, 2, 2, 2),
        # The oracle reads each target's value and bases from the record's full SVD
        # of μ or τ, then re-forms it in those bases: one more realign and frame
        # product per target, and no values-only SVD.
        "oracle": (3, 0, 2, 1),
    }

    @pytest.mark.parametrize("request_args", list(REQUEST_DECOMPOSITIONS))
    def test_request_builds_one_record(self, monkeypatch, tmp_path, capsys, request_args):
        # The scores, the emitted bases and the oracle all read the record of criteria.spectra.
        path = tmp_path / "state.json"
        save_state(samplers.random_mixed_state(2, 3, np.random.default_rng(48)), path)
        command, *flags = request_args.split()
        calls = count_decompositions(monkeypatch)
        assert main([command, "--state", str(path), *flags]) == 0
        capsys.readouterr()
        eigensolves = calls.count("eigvalsh") + calls.count("eigh")
        counts = (*map(calls.count, ("realign", "values-only svd", "svd")), eigensolves)
        assert counts == self.REQUEST_DECOMPOSITIONS[request_args]

    @pytest.mark.parametrize("emit_bases", [False, True], ids=["scores", "bases"])
    @pytest.mark.parametrize("state", ["bell", "upb", "random_2x3", "random_3x2"])
    def test_output_is_indented_json_of_itself(self, tmp_path, capsys, state, emit_bases):
        if state.startswith("random"):
            da, db = (2, 3) if state == "random_2x3" else (3, 2)
            rho = samplers.random_mixed_state(da, db, np.random.default_rng(47))
        else:
            rho = make_state(state)
        path = tmp_path / "state.json"
        save_state(rho, path)
        assert main(["analyze", "--state", str(path), "--json"] + ["--emit-bases"] * emit_bases) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        assert ("optimal_bases" in json.loads(out)) is emit_bases


class TestReferenceValues:
    """The Gell-Mann record against recomputations that share none of its code."""

    @staticmethod
    def realigned(m, da, db):
        return m.reshape(da, db, da, db).transpose(0, 2, 1, 3).reshape(da * da, db * db)

    @pytest.mark.parametrize("dims, count", [((3, 3), 1), ((2, 3), 1), ((4, 3), 1), ((1, 3), 1), ((2, 3), 4)],
                             ids=["3x3", "2x3", "4x3", "1x3", "stack_2x3"])
    def test_pinned_to_direct_recomputation(self, dims, count):
        da, db = dims
        rng = np.random.default_rng(da * 10 + db + count)
        states = [samplers.random_mixed_state(da, db, rng) for _ in range(count)]
        record = criteria.spectra(states[0] if count == 1 else np.stack([r.as_tensor() for r in states]))
        for i, rho in enumerate(states):
            at = lambda name: getattr(record, name) if count == 1 else getattr(record, name)[i]
            tensor = rho.data.reshape(da, db, da, db)
            rho_a, rho_b = np.einsum("ijkj->ik", tensor), np.einsum("ijil->jl", tensor)
            local = rho.data - np.kron(rho_a, rho_b)
            for name, m in (("realigned", rho.data), ("covariance", local)):
                expected = np.linalg.svd(self.realigned(m, da, db), compute_uv=False)
                np.testing.assert_allclose(at(name), expected, rtol=0, atol=1e-12)
            purities = np.trace(rho_a @ rho_a).real, np.trace(rho_b @ rho_b).real
            np.testing.assert_allclose([at("purity_a"), at("purity_b")], purities, rtol=0, atol=1e-12)
            if min(dims) < 2:
                continue  # no Gell-Mann basis, and no analyze, for a 1-dim side
            reference = (gell_mann_basis(da), transpose_basis(gell_mann_basis(db)))
            values = {"linear": at("linear_at_reference"), "nonlinear": at("nonlinear_at_reference")}
            if count == 1:
                doc = cli._analysis_document(rho, emit_bases=False)
                values = {kind: doc[kind]["value_at_reference_basis"] for kind in values}
            for kind, value in values.items():
                direct = oracles.recompute_witness_direct(rho, *reference, kind)
                assert value == pytest.approx(direct, abs=1e-12)


class TestScanSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="start"):
            ScanSpec("upb_noise", 0.9, 0.8)
        with pytest.raises(ValueError, match="step"):
            ScanSpec("upb_noise", 0.1, 0.9, step=-0.1)
        with pytest.raises(ValueError, match="tolerance"):
            ScanSpec("upb_noise", 0.1, 0.9, bisection_tol=1e-7)
        with pytest.raises(ValueError, match="family"):
            ScanSpec("ghz_noise", 0.1, 0.9)
        with pytest.raises(ValueError, match="criterion"):
            ScanSpec("upb_noise", 0.1, 0.9, criterion="magic")

    @pytest.mark.parametrize(
        "field, value",
        [("step", float("nan")), ("step", float("inf")), ("bisection_tol", float("nan")),
         ("bisection_tol", float("inf")), ("bisection_tol", float("-inf")),
         ("p_start", False), ("p_stop", True), ("step", True), ("bisection_tol", np.True_)],
    )
    def test_non_finite_rejected(self, field, value):
        # NaN fails every comparison, so a NaN step used to build an endless grid.
        # A bool compares as 0 or 1, so step=True used to scan [0, 1] with step 1.
        with pytest.raises(ValueError, match=field):
            ScanSpec(**{"family": "noisy_singlet", "p_start": 0.0, "p_stop": 1.0, field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("p_start", "0"), ("p_stop", "1"), ("step", None), ("bisection_tol", None), ("step", 0.01 + 0j),
         ("p_stop", np.array(1.0))],
        ids=["p_start-str", "p_stop-str", "step-None", "bisection_tol-None", "step-complex", "p_stop-array"],
    )
    def test_non_number_rejected(self, field, value):
        # Only an int or a float, not a bool, as for a mixing parameter: these
        # used to raise TypeError from a comparison, or (a 0-d array) to pass.
        with pytest.raises(ValueError, match="must be ints or floats"):
            ScanSpec(**{"family": "noisy_singlet", "p_start": 0.0, "p_stop": 1.0, field: value})

    # argparse reads a separate "-inf" as an option, so a negative value is written --flag=VALUE.
    @pytest.mark.parametrize("flag, value, named", [("--tol", "nan", "bisection_tol"), ("--tol", "inf", "bisection_tol"),
                                                    ("--step", "inf", "step"), ("--tol=-inf", None, "bisection_tol")])
    def test_non_finite_flag_fails(self, flag, value, named, capsys):
        flags = [flag] if value is None else [flag, value]
        assert main(["scan", "--family", "noisy_singlet", "--criterion", "ppt", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert named in captured.err

    def test_step_floor(self, tmp_path, capsys):
        # A step below MIN_TOL would build a grid of more than 10**6 + 1 points.
        ScanSpec("noisy_singlet", 0.0, 1.0, step=cli.MIN_TOL)
        with pytest.raises(ValueError, match="step must be finite and >= 1e-06"):
            ScanSpec("noisy_singlet", 0.0, 1.0, step=cli.MIN_TOL / 2)
        out = tmp_path / "scan.csv"
        assert main(["scan", "--family", "noisy_singlet", "--criterion", "ppt", "--step", "1e-9", "--out", str(out)]) == 1
        assert "step must be finite and >= 1e-06, got 1e-09" in capsys.readouterr().err
        assert not out.exists()


class TestScan:
    @pytest.mark.parametrize("family", cli.FAMILY_NAMES)
    def test_scan_checks_its_endpoints_in_one_eigensolve(self, monkeypatch, tmp_path, capsys, family):
        # The endpoints' record checks both states with one batched eigensolve; a
        # realign scan takes no other, and no state file is checked on its own.
        # A fixed family's record is built by its first scan in the process and
        # shared by every later one, so a repeat takes none; the record of a
        # family's state files is built, and checked, by every scan.
        rng = np.random.default_rng(49)
        paths = [tmp_path / "first.json", tmp_path / "second.json"]
        for path in paths:
            save_state(samplers.random_mixed_state(2, 3, rng), path)
        files = {"noise_mixture": ["--state", str(paths[0])],
                 "mixture": ["--state", str(paths[0]), "--state2", str(paths[1])]}.get(family, [])
        cli._fixed_family.cache_clear()
        calls = count_decompositions(monkeypatch)
        eigensolves = []
        for _ in range(2):
            calls.clear()
            main(["scan", "--family", family, "--criterion", "realign", "--out", str(tmp_path / "scan.csv"), *files])
            eigensolves.append(calls.count("eigvalsh") + calls.count("eigh"))
        capsys.readouterr()
        assert eigensolves == ([1, 1] if files else [1, 0])

    def test_shared_record_keeps_no_state_between_scans(self, tmp_path, capsys):
        # Each order fills the lazy fields of a fresh shared record in its own
        # order, and every later scan of the family reads that record warm.
        def scan(family, name):
            out = tmp_path / "scan.csv"
            code = main(["scan", "--family", family, "--criterion", name, "--out", str(out)])
            return code, out.read_text(), capsys.readouterr().out

        families = ("upb_noise", "noisy_singlet")
        cold = {}
        for family in families:
            for name in criteria.SCORE_NAMES:
                cli._fixed_family.cache_clear()
                cold[family, name] = scan(family, name)
        for order in (criteria.SCORE_NAMES, criteria.SCORE_NAMES[::-1]):
            cli._fixed_family.cache_clear()
            for name in order:
                for family in families:
                    assert scan(family, name) == cold[family, name], (family, name)

    def test_state_file_is_read_by_every_scan(self, tmp_path, capsys):
        # A family of state files is never cached, not even by path: a scan
        # after the file is rewritten follows the new file.
        rng = np.random.default_rng(53)
        path, out = tmp_path / "state.json", tmp_path / "scan.csv"
        spec = ScanSpec("noise_mixture", 0.0, 1.0, criterion="nonlinear_opt")
        argv = ["scan", "--family", "noise_mixture", "--criterion", "nonlinear_opt", "--state", str(path),
                "--out", str(out)]
        texts = []
        for _ in range(2):
            save_state(samplers.random_pure_state(2, 4, rng), path)
            assert main(argv) == 0
            capsys.readouterr()
            base = load_state(path)
            texts.append(scan_csv(run_scan(spec, (base, qstate.white_noise_mixture(base, 0.0)))))
            assert out.read_text() == texts[-1]
        assert texts[0] != texts[1]

    def test_threads_share_the_fixed_records(self):
        # More threads than cores, each scanning a fixed family's shared record
        # with one criterion while the others fill its lazy fields; every
        # thread's rows equal those of a serial scan of a record of its own.
        specs = [ScanSpec(family, 0.0, 1.0, criterion=name)
                 for family in ("upb_noise", "noisy_singlet") for name in criteria.SCORE_NAMES]
        serial = {spec: run_scan(spec, (make_state(spec.family, 1.0), make_state(spec.family, 0.0))).rows
                  for spec in specs}
        count = max(2 * len(specs), (os.cpu_count() or 1) + 1)
        barrier = threading.Barrier(count, timeout=30)
        results = [None] * count

        def work(i):
            spec = specs[i % len(specs)]
            try:
                barrier.wait()
                results[i] = [run_scan(spec, cli._fixed_family(spec.family)).rows for _ in range(3)]
            except Exception as exc:
                results[i] = exc

        cli._fixed_family.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,), daemon=True) for i in range(count)]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 60
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
                assert not thread.is_alive(), "a scan thread did not finish in 60 s"
        finally:
            sys.setswitchinterval(interval)
        for i, rows in enumerate(results):
            spec = specs[i % len(specs)]
            assert rows == [serial[spec]] * 3, (i, spec)

    def test_upb_noise_nonlinear_threshold(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code = main(
            [
                "scan",
                "--family",
                "upb_noise",
                "--criterion",
                "nonlinear_opt",
                "--p-start",
                "0.85",
                "--p-stop",
                "0.92",
                "--step",
                "0.01",
                "--tol",
                "1e-4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        line = capsys.readouterr().out
        assert "threshold nonlinear_opt" in line
        threshold = float(line.split("p = ")[1].split(" ")[0])
        assert threshold == pytest.approx(0.8822, abs=5e-4)
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "p,score,detected"
        assert len(rows) == 9  # 8 grid points + header

    def test_bisection_brackets_the_crossing(self):
        spec = ScanSpec("noisy_singlet", 0.2, 0.4, step=0.05, criterion="linear_opt")
        result = run_scan(spec, NOISY_SINGLET)
        assert result.status == "ok"
        th, tol = result.threshold, result.tolerance
        _, below = scan_score(make_state("noisy_singlet", th - tol), "linear_opt")
        _, above = scan_score(make_state("noisy_singlet", th + tol), "linear_opt")
        assert not below
        assert above

    def test_checked_midpoint_is_not_rescored(self, monkeypatch):
        # One stacked call scores the 101-point grid and one the bracketing
        # cell's midpoint; that midpoint is also the first bisection step, so
        # halving the 0.01 cell below 1e-4 takes six more calls, not seven.
        calls = count_calls(monkeypatch, [(cli, "scan_score")])
        result = run_scan(ScanSpec("noisy_singlet", 0.0, 1.0, criterion="linear_opt"), NOISY_SINGLET)
        assert result.status == "ok"
        assert len(calls) == 8

    # The 1e-4 grid has 10_001 points of 2x2, three chunks of GRID_CHUNK_ENTRIES.
    @pytest.mark.parametrize("family, criterion, step, tol", [("noisy_singlet", "linear_opt", 0.01, 1e-4),
                                                             ("noisy_singlet", "linear_opt", 1e-4, 1e-6),
                                                             ("noise_mixture", "ppt", 0.01, 1e-6)])
    def test_scan_builds_its_records_once(self, monkeypatch, family, criterion, step, tol):
        # Every grid chunk and bisection midpoint is scored from mixes of the
        # endpoints' record, whatever the grid size and the bisection steps.
        calls = count_calls(monkeypatch, [(loo, "correlations"), (qstate, "partial_transpose")])
        pure = samplers.random_pure_state(2, 4, np.random.default_rng(5))
        endpoints = NOISY_SINGLET if family == "noisy_singlet" else (pure, qstate.white_noise_mixture(pure, 0.0))
        result = run_scan(ScanSpec(family, 0.0, 1.0, step, criterion, tol), endpoints)
        assert result.status == "ok"
        assert calls == ["partial_transpose" if criterion == "ppt" else "correlations"]

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
    def test_isotropic_thresholds(self, d):
        # p·|Φ_d⟩⟨Φ_d| + (1-p)·I/d² is entangled iff p > 1/(d+1), and there every
        # criterion score is ((d²-1)/d)·(p - 1/(d+1)) and every bound at least
        # 1.4·(p - 1/(d+1)).  The detection margin (1e-9) so moves each flag's
        # crossing by under 1e-9, and the bisection ends on a bracket of width
        # <= tol about it, whose midpoint is reported.  So the reported ± tol
        # holds the exact threshold with room to spare (3.1e-7 measured at d = 4).
        phi = qstate.pure_state(np.eye(d).reshape(-1) / np.sqrt(d), d, d)
        endpoints = (phi, qstate.white_noise_mixture(phi, 0.0))
        for name in criteria.SCORE_NAMES:
            result = run_scan(ScanSpec("noise_mixture", 0, 1, 0.01, name, 1e-6), endpoints)
            assert result.status == "ok", name
            assert abs(result.threshold - 1 / (d + 1)) <= result.tolerance, name

    # At tol = 1 >= step no bisection step runs, and the bracket is one grid cell.
    @pytest.mark.parametrize("tol", [1e-4, 1e-6, 1.0])
    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 4), (3, 4)])
    def test_ppt_threshold_matches_closed_form(self, dims, tol):
        # On p·A + (1-p)·I/n, λ_min(ρ(p)^{T_A}) = p·λ_min(A^{T_A}) + (1-p)/n,
        # which turns negative at p* = 1/(1 - n·λ_min(A^{T_A})).
        pure = samplers.random_pure_state(*dims, np.random.default_rng(sum(dims)))
        n = pure.total_dim
        p_star = 1.0 / (1.0 - n * np.linalg.eigvalsh(qstate.partial_transpose(pure, "A")).min())
        spec = ScanSpec("noise_mixture", 0.0, 1.0, criterion="ppt", bisection_tol=tol)
        result = run_scan(spec, (pure, qstate.white_noise_mixture(pure, 0.0)))
        assert result.status == "ok"
        assert result.tolerance <= spec.step
        assert abs(result.threshold - p_star) <= result.tolerance

    def test_no_threshold_exit_code(self, tmp_path, capsys):
        code = main(
            [
                "scan",
                "--family",
                "upb_noise",
                "--criterion",
                "ppt",
                "--p-start",
                "0.0",
                "--p-stop",
                "0.2",
                "--out",
                str(tmp_path / "scan.csv"),
            ]
        )
        assert code == 2
        assert "no threshold in range" in capsys.readouterr().out

    def test_detected_from_start_report(self, capsys):
        argv = ["scan", "--family", "noisy_singlet", "--criterion", "realign", "--p-start", "0.5"]
        assert main(argv) == 0
        report = capsys.readouterr().err
        assert report == "threshold realign: detected at every grid point; threshold <= p = 0.5\n"

    @pytest.mark.parametrize("failing_step", [1, 3])
    def test_grid_only_report(self, monkeypatch, tmp_path, capsys, failing_step):
        # One bisection midpoint scores below its bracket's left end; the check
        # runs at every step, so the grid cell is reported whichever step it is.
        steps = []

        def not_monotone(rho, criterion):
            scores, flags = scan_score(rho, criterion)
            if np.ndim(scores) == 0:  # a bisection step scores one midpoint, a float
                steps.append(criterion)
                if len(steps) == failing_step:
                    return scores - 1.0, flags
            return scores, flags

        monkeypatch.setattr(cli, "scan_score", not_monotone)
        argv = ["scan", "--family", "noisy_singlet", "--criterion", "linear_opt", "--p-start", "0.2",
                "--p-stop", "0.4", "--step", "0.05", "--out", str(tmp_path / "scan.csv")]
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            "threshold linear_opt: p = 0.3 +- 0.05 "
            "(grid resolution; scores not monotone on the bracketing cell)\n"
        )
        assert len(steps) == failing_step

    def test_csv_to_stdout_with_report_on_stderr(self, capsys):
        code = main(
            [
                "scan",
                "--family",
                "noisy_singlet",
                "--criterion",
                "realign",
                "--p-start",
                "0.25",
                "--p-stop",
                "0.35",
                "--step",
                "0.05",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("p,score,detected")
        assert "threshold realign" in captured.err

    def test_deterministic_output(self, capsys):
        argv = [
            "scan",
            "--family",
            "noisy_singlet",
            "--criterion",
            "linear_opt",
            "--p-start",
            "0.2",
            "--p-stop",
            "0.4",
            "--step",
            "0.05",
        ]
        main(argv)
        first = capsys.readouterr()
        main(argv)
        second = capsys.readouterr()
        assert first.out == second.out
        assert first.err == second.err

    def test_grid_endpoint_inclusive(self):
        spec = ScanSpec("upb_noise", 0.85, 1.0, step=0.005, criterion="bound_lmax")
        rows = run_scan(spec, (make_state("upb"), make_state("upb_noise", 0.0))).rows
        assert len(rows) == 31
        assert rows[0][0] == pytest.approx(0.85)
        assert rows[-1][0] == 1.0

    def test_bound_criterion_scores_are_clamped(self):
        rho = make_state("upb_noise", 0.5)
        score, detected = scan_score(rho, "bound_lmax")
        assert score == 0.0
        assert not detected

    def test_custom_mixture_family(self, tmp_path, capsys):
        upb = tmp_path / "upb.json"
        mixed = tmp_path / "mixed.json"
        save_state(make_state("upb"), upb)
        save_state(qstate.DensityMatrix(3, 3, np.eye(9) / 9), mixed)
        code = main(
            [
                "scan",
                "--family",
                "mixture",
                "--criterion",
                "realign",
                "--state",
                str(upb),
                "--state2",
                str(mixed),
                "--p-start",
                "0.85",
                "--p-stop",
                "0.92",
                "--out",
                str(tmp_path / "scan.csv"),
            ]
        )
        assert code == 0
        line = capsys.readouterr().out
        threshold = float(line.split("p = ")[1].split(" ")[0])
        assert threshold == pytest.approx(0.8897, abs=5e-4)

    def test_noise_mixture_family_requires_state(self, capsys):
        assert main(["scan", "--family", "noise_mixture", "--criterion", "realign"]) == 1
        assert "--state" in capsys.readouterr().err

    def test_csv_uses_plain_decimal_format(self):
        spec = ScanSpec("noisy_singlet", 0.0, 0.1, step=0.05, criterion="realign")
        result = run_scan(spec, NOISY_SINGLET)
        text = scan_csv(result)
        for line in text.strip().splitlines()[1:]:
            p, score, detected = line.split(",")
            float(p), float(score)
            assert detected in ("0", "1")
            assert "," not in p

    def test_csv_matches_the_per_row_format(self):
        # scan_csv formats every row with one %-format; its bytes are those of
        # one f-string per row, a negative zero, tiny and long values included.
        spec = ScanSpec("noisy_singlet", 0.0, 1.0, criterion="realign")
        rows = [(0.0, -0.0, False), (0.01, 5e-324, False), (0.3333333333333333, -1.2345678901234e-13, False),
                (0.99, 0.123456789012345, True), (1.0, 1e300, True)]
        text = scan_csv(cli.ScanResult(spec, rows, "ok", 0.5, 1e-4))
        assert text == "p,score,detected\n" + "".join(f"{p:.10g},{s:.10g},{int(d)}\n" for p, s, d in rows)
        assert text.splitlines()[1] == "0,-0,0"


def scan_family(name, tmp_path):
    """The CLI's endpoints for family ``name``, and the family built point by
    point with qstate.white_noise_mixture / qstate.mixture as the reference.
    The file-based families read a seeded pure 2x4 state, or a seeded pure
    3x4 state against a separable one."""
    rng = np.random.default_rng(17)
    states = {}
    if name == "noise_mixture":
        states["state"] = samplers.random_pure_state(2, 4, rng)
    if name == "mixture":
        states["state"] = samplers.random_pure_state(3, 4, rng)
        states["state2"] = samplers.random_separable_state(3, 4, rng)
    paths = {"state": None, "state2": None}
    for key, rho in states.items():
        paths[key] = str(tmp_path / f"{key}.json")
        save_state(rho, paths[key])
    endpoints = cli._load_family(argparse.Namespace(family=name, **paths))
    reference = {
        "upb_noise": lambda p: qstate.white_noise_mixture(make_state("upb"), p),
        "noisy_singlet": lambda p: qstate.mixture(*NOISY_SINGLET, p),
        "noise_mixture": lambda p: qstate.white_noise_mixture(states["state"], p),
        "mixture": lambda p: qstate.mixture(states["state"], states["state2"], p),
    }[name]
    return endpoints, reference


class TestBatchedGrid:
    """run_scan scores its grid in stacked batches and its bisection from mixed
    records; each row must match scoring that grid point on its own, and the
    threshold must separate states built point by point."""

    @pytest.mark.parametrize("criterion", criteria.SCORE_NAMES)
    @pytest.mark.parametrize("family", cli.FAMILY_NAMES)
    def test_rows_match_per_point_scores(self, family, criterion, tmp_path):
        endpoints, states = scan_family(family, tmp_path)
        result = run_scan(ScanSpec(family, 0.0, 1.0, criterion=criterion), endpoints)
        rows = result.rows
        grid = cli._grid(0.0, 1.0, cli.DEFAULT_STEP)
        reference = [scan_score(states(p), criterion) for p in grid]
        flags = [detected for _, detected in reference]
        assert [row[0] for row in rows] == grid
        assert [row[2] for row in rows] == flags
        np.testing.assert_allclose([row[1] for row in rows], [score for score, _ in reference], rtol=0, atol=1e-12)
        assert (result.status == "no_threshold") == (not any(flags))
        assert (result.status == "detected_from_start") == flags[0]
        if result.status == "ok":
            # Clamped to the range: a threshold can lie within tol of p = 0.
            th, tol = result.threshold, result.tolerance
            assert not scan_score(states(max(th - tol, 0.0)), criterion)[1]
            assert scan_score(states(min(th + tol, 1.0)), criterion)[1]

    def test_fine_grid_spans_several_chunks(self, tmp_path):
        endpoints, states = scan_family("upb_noise", tmp_path)
        rows = run_scan(ScanSpec("upb_noise", 0.0, 1.0, step=1e-4, criterion="bound_combined"), endpoints).rows
        assert len(rows) == 10_001
        assert len(rows) > 3 * (cli.GRID_CHUNK_ENTRIES // 9**2)
        for i in np.random.default_rng(29).choice(len(rows), size=40, replace=False):
            p, score, detected = rows[i]
            expected_score, expected_detected = scan_score(states(p), "bound_combined")
            assert detected == expected_detected
            assert score == pytest.approx(expected_score, rel=0, abs=1e-12)


class TestOracleCommand:
    def test_both_targets_certified(self, bell_file, capsys):
        assert main(["oracle", "--state", bell_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == ["target mu", "target tau"]
        for line, analytic in zip(lines, (2.0, 1.5)):  # ‖μ‖_tr = 2 and ‖τ‖_tr = 3/2 for a Bell state
            assert line.endswith(" certified")
            values = dict(field.split("=") for field in line.split()[2:5])
            assert float(values["analytic"]) == pytest.approx(analytic, rel=0, abs=1e-14)
            assert float(values["lower"]) - 1e-14 <= analytic <= float(values["upper"]) + 1e-14

    def test_identical_bytes_on_repeat(self, bell_file, capsys):
        argv = ["oracle", "--state", bell_file]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("flag", ["--samples", "--seed"])
    def test_sampling_flags_are_usage_errors(self, bell_file, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--state", bell_file, flag, "10"])
        assert exc.value.code == 1
        assert f"unrecognized arguments: {flag} 10" in capsys.readouterr().err

    def test_wrong_rotation_fails_with_exit_3(self, bell_file, capsys, monkeypatch):
        # Swapping the first two A observables swaps two rows of D: the
        # singular values leave the diagonal and the bracket opens.
        optimum = criteria.Spectra.optimum

        def swapped(self, kind):
            value, basis_a, basis_b = optimum(self, kind)
            swap = np.eye(len(basis_a))[[1, 0, *range(2, len(basis_a))]]
            return value, loo.rotate(basis_a, swap), basis_b

        monkeypatch.setattr(criteria.Spectra, "optimum", swapped)
        assert main(["oracle", "--state", bell_file]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 and all(line.endswith(" FAILED") for line in lines)

    def test_sixteen_by_sixteen_under_a_second(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        save_state(samplers.random_mixed_state(16, 16, np.random.default_rng(16)), path)
        start = time.perf_counter()
        assert main(["oracle", "--state", str(path)]) == 0
        elapsed = time.perf_counter() - start
        assert capsys.readouterr().out.count(" certified\n") == 2
        assert elapsed < 1.0


class TestInputValidation:
    """Every subcommand that reads a state file rejects what it cannot analyse."""

    def test_scan_rejects_invalid_base_state(self, identity_file, tmp_path, capsys):
        argv = ["scan", "--family", "noise_mixture", "--criterion", "ppt", "--state", identity_file,
                "--out", str(tmp_path / "scan.csv")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "invalid state: unit_trace violated, residual" in err
        assert not (tmp_path / "scan.csv").exists()

    def test_scan_rejects_mixture_of_unequal_dims(self, bell_file, tmp_path, capsys):
        upb = tmp_path / "upb.json"
        save_state(make_state("upb"), upb)
        out = tmp_path / "scan.csv"
        argv = ["scan", "--family", "mixture", "--criterion", "realign", "--state", bell_file,
                "--state2", str(upb), "--out", str(out)]
        assert main(argv) == 1
        assert "error: mixture requires equal dims, got (2, 2) and (3, 3)" in capsys.readouterr().err
        assert not out.exists()

    def test_scan_rejects_invalid_second_state(self, bell_file, identity_file, capsys):
        argv = ["scan", "--family", "mixture", "--criterion", "realign", "--state", bell_file,
                "--state2", identity_file]
        assert main(argv) == 1
        assert "invalid state: unit_trace violated, residual" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--state", "--state2"])
    def test_scan_mixture_needs_both_state_files(self, bell_file, tmp_path, capsys, flag):
        out = tmp_path / "scan.csv"
        argv = ["scan", "--family", "mixture", "--criterion", "realign", flag, bell_file, "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: family 'mixture' requires --state and --state2\n"
        assert not out.exists()

    def test_oracle_rejects_invalid_state(self, identity_file, capsys):
        assert main(["oracle", "--state", identity_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid state: unit_trace violated, residual" in captured.err

    @pytest.mark.parametrize(
        "family, flags, named",
        [
            ("upb_noise", ["--state"], "--state"),
            ("noisy_singlet", ["--state"], "--state"),
            ("upb_noise", ["--state", "--state2"], "--state"),
            ("noisy_singlet", ["--state2"], "--state2"),
            ("noise_mixture", ["--state", "--state2"], "--state2"),
        ],
        ids=["upb_noise_state", "noisy_singlet_state", "upb_noise_both", "noisy_singlet_state2",
             "noise_mixture_state2"],
    )
    def test_scan_rejects_unread_state_file(self, identity_file, tmp_path, capsys, family, flags, named):
        argv = ["scan", "--family", family, "--criterion", "realign", "--out", str(tmp_path / "scan.csv")]
        for flag in flags:
            argv += [flag, identity_file]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{named} file" in err
        assert not (tmp_path / "scan.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--state"],
            ["scan", "--family", "noise_mixture", "--criterion", "ppt", "--state"],
            ["scan", "--family", "noise_mixture", "--criterion", "bound_lmax", "--state"],
            ["oracle", "--state"],
        ],
        ids=["analyze", "scan_ppt", "scan_bound", "oracle"],
    )
    def test_dimension_one_rejected(self, one_by_two_file, capsys, argv):
        assert main(argv + [one_by_two_file]) == 1
        assert "error: subsystem dimensions must be at least 2, got (1, 2)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--state"],
            ["scan", "--family", "noise_mixture", "--criterion", "ppt", "--state"],
            ["oracle", "--state"],
        ],
        ids=["analyze", "scan", "oracle"],
    )
    def test_deeply_nested_file_is_one_error_line(self, tmp_path, capsys, argv):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        assert main(argv + [str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err
        assert captured.err.count("\n") == 1


class TestParser:
    def test_entry_point_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "gen" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            # argparse reads "-inf" as an option, so --tol gets no value.
            ["scan", "--family", "noisy_singlet", "--criterion", "ppt", "--tol", "-inf"],
            ["scan", "--family", "noisy_singlet", "--criterion", "ppt", "--no-such-flag"],
        ],
        ids=["tol_minus_inf", "unknown_flag"],
    )
    def test_usage_error_exits_1(self, capsys, argv):
        # Exit 2 is reserved for a scan that finds no threshold.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    def test_shared_parser_keeps_no_state_between_calls(self, tmp_path, capsys, monkeypatch):
        # main reuses one parser per process.  Each call of a sequence whose
        # options differ must exit and print as the same argv does alone in a
        # fresh process.  COLUMNS fixes the width of argparse's usage text.
        monkeypatch.setenv("COLUMNS", "80")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_state(make_state("bell"), first)
        save_state(make_state("noisy_singlet", 0.0), second)
        sequence = [
            ["scan", "--family", "mixture", "--criterion", "ppt", "--state", str(first), "--state2", str(second)],
            ["scan", "--family", "noisy_singlet", "--criterion", "ppt"],
            ["scan", "--family", "noisy_singlet", "--criterion", "ppt", "--no-such-flag"],
            ["analyze", "--state", str(first), "--json", "--emit-bases"],
            ["analyze", "--state", str(first), "--json"],
        ]
        assert cli.build_parser() is cli.build_parser()
        for argv in sequence:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "loowit.cli", *argv], capture_output=True, text=True, env=env, timeout=120
            )
            assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
