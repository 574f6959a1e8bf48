import io
import json

import numpy as np
import pytest

from loowit import qstate
from loowit.qstate import (
    DensityMatrix,
    load_state,
    make_state,
    partial_trace,
    partial_transpose,
    pure_state,
    realign,
    save_state,
    schmidt,
    trace_norm,
    validate,
)

import samplers


def bell_vector():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return v


class TestValidate:
    def test_bell_projector_is_clean(self):
        assert validate(make_state("bell")) == []

    def test_trace_two_reports_unit_trace_residual_one(self):
        rho = DensityMatrix(2, 2, 2.0 * make_state("bell").data)
        violations = validate(rho)
        assert [v.invariant for v in violations] == ["unit_trace"]
        assert violations[0].residual == pytest.approx(1.0, abs=1e-12)

    def test_negative_eigenvalue_reports_psd_violation(self):
        rho = DensityMatrix(2, 2, np.diag([0.55, 0.55, -0.1, 0.0]))
        violations = validate(rho)
        assert [v.invariant for v in violations] == ["positive_semidefinite"]
        assert violations[0].residual == pytest.approx(0.1, abs=1e-12)

    def test_non_hermitian_reported(self):
        data = np.eye(4) / 4
        data[0, 1] = 0.2
        violations = validate(DensityMatrix(2, 2, data))
        assert "hermitian" in [v.invariant for v in violations]

    @pytest.mark.parametrize("dims", [(1, 2), (2, 2)])
    def test_non_finite_entries_reported(self, dims):
        # No invariant can be measured on such a matrix: the eigensolver
        # raises on a NaN or reports nothing at all.
        n = dims[0] * dims[1]
        nan_pair = np.eye(n, dtype=complex) / n
        nan_pair[0, 1] = nan_pair[1, 0] = np.nan
        inf_corner = np.eye(n) / n
        inf_corner[0, 0] = np.inf
        assert validate(DensityMatrix(*dims, nan_pair)) == [qstate.Violation("finite", 2.0)]
        assert validate(DensityMatrix(*dims, inf_corner)) == [qstate.Violation("finite", 1.0)]

    def test_shape_mismatch_is_structural_error(self):
        with pytest.raises(ValueError, match="must be 4x4"):
            DensityMatrix(2, 2, np.eye(3))

    def test_nonpositive_dims_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            DensityMatrix(0, 2, np.zeros((0, 0)))


class TestPartialTrace:
    def test_bell_reduces_to_maximally_mixed(self):
        rho = make_state("bell")
        np.testing.assert_allclose(partial_trace(rho, "B"), np.eye(2) / 2, atol=1e-12)
        np.testing.assert_allclose(partial_trace(rho, "A"), np.eye(2) / 2, atol=1e-12)

    def test_product_state_reduces_to_factor(self):
        ket00 = np.zeros(4, dtype=complex)
        ket00[0] = 1.0
        rho = pure_state(ket00, 2, 2)
        np.testing.assert_allclose(partial_trace(rho, "B"), np.diag([1.0, 0.0]), atol=1e-12)

    def test_upb_matches_index_summation_oracle(self):
        rho = make_state("upb")
        t = rho.as_tensor()
        # independent oracle: explicit double sums over matrix elements
        reduced_a = np.zeros((3, 3), dtype=complex)
        reduced_b = np.zeros((3, 3), dtype=complex)
        for i in range(3):
            for k in range(3):
                reduced_a[i, k] = sum(t[i, j, k, j] for j in range(3))
        for j in range(3):
            for l in range(3):
                reduced_b[j, l] = sum(t[i, j, i, l] for i in range(3))
        np.testing.assert_allclose(partial_trace(rho, "B"), reduced_a, atol=1e-12)
        np.testing.assert_allclose(partial_trace(rho, "A"), reduced_b, atol=1e-12)

    def test_reduced_state_is_hermitian_unit_trace(self):
        rho = samplers.random_mixed_state(2, 3, np.random.default_rng(11))
        for side, dim in (("B", 2), ("A", 3)):
            red = partial_trace(rho, side)
            assert red.shape == (dim, dim)
            assert np.abs(red - red.conj().T).max() < 1e-12
            assert np.trace(red).real == pytest.approx(1.0, abs=1e-12)

    def test_bad_subsystem_label(self):
        with pytest.raises(ValueError, match="'A' or 'B'"):
            partial_trace(make_state("bell"), "C")


class TestPartialTranspose:
    def test_separable_noise_stays_psd(self):
        rho_sep = make_state("noisy_singlet", 0.0)
        eigs = np.linalg.eigvalsh(partial_transpose(rho_sep, "A"))
        assert eigs.min() >= -1e-9

    def test_bell_trace_norm_two_by_eigenvalue_oracle(self):
        pt = partial_transpose(make_state("bell"), "A")
        eigs = np.sort(np.linalg.eigvalsh(pt))
        np.testing.assert_allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)
        assert np.abs(eigs).sum() == pytest.approx(2.0, abs=1e-12)
        assert trace_norm(pt) == pytest.approx(2.0, abs=1e-12)

    def test_upb_state_is_ppt(self):
        pt = partial_transpose(make_state("upb"), "A")
        assert np.linalg.eigvalsh(pt).min() >= -1e-9

    def test_involution_is_exact(self):
        rng = np.random.default_rng(5)
        for da, db in [(2, 2), (2, 3), (3, 3)]:
            rho = samplers.random_mixed_state(da, db, rng)
            for side in ("A", "B"):
                once = DensityMatrix(da, db, partial_transpose(rho, side))
                twice = partial_transpose(once, side)
                assert np.array_equal(twice, rho.data)

    def test_result_is_hermitian(self):
        rho = samplers.random_mixed_state(3, 2, np.random.default_rng(6))
        pt = partial_transpose(rho, "B")
        assert np.abs(pt - pt.conj().T).max() < 1e-12


class TestRealign:
    def test_entry_permutation(self):
        rho = samplers.random_mixed_state(2, 3, np.random.default_rng(7))
        r = realign(rho)
        assert r.shape == (4, 9)
        t = rho.as_tensor()
        for i in range(2):
            for k in range(2):
                for j in range(3):
                    for l in range(3):
                        assert r[i * 2 + k, j * 3 + l] == t[i, j, k, l]

    def test_pure_product_state_trace_norm_one(self):
        rng = np.random.default_rng(8)
        rho = samplers.random_product_state(3, 2, rng)
        assert trace_norm(realign(rho)) == pytest.approx(1.0, abs=1e-12)

    def test_bell_trace_norm_two_by_gram_oracle(self):
        r = realign(make_state("bell"))
        # oracle: singular values from the eigenvalues of R R†
        gram_eigs = np.linalg.eigvalsh(r @ r.conj().T)
        oracle_tn = np.sqrt(np.clip(gram_eigs, 0, None)).sum()
        assert oracle_tn == pytest.approx(2.0, abs=1e-12)
        assert trace_norm(r) == pytest.approx(oracle_tn, abs=1e-12)

    def test_upb_state_detected(self):
        assert trace_norm(realign(make_state("upb"))) > 1.0 + 1e-3

    def test_trace_norm_invariant_under_local_unitaries(self):
        rng = np.random.default_rng(9)
        for da, db in [(2, 2), (2, 3), (3, 3)]:
            rho = samplers.random_mixed_state(da, db, rng)
            base = trace_norm(realign(rho))
            for _ in range(3):
                ua = samplers.haar_unitary(da, rng)
                ub = samplers.haar_unitary(db, rng)
                rotated = samplers.local_unitary_conjugate(rho, ua, ub)
                assert trace_norm(realign(rotated)) == pytest.approx(base, abs=1e-8)


class TestStacks:
    def test_reductions_act_per_state(self):
        rng = np.random.default_rng(23)
        states = [samplers.random_mixed_state(2, 3, rng) for _ in range(3)]
        stack = np.stack([rho.as_tensor() for rho in states])
        for i, rho in enumerate(states):
            for side in ("A", "B"):
                np.testing.assert_allclose(partial_trace(stack, side)[i], partial_trace(rho, side), rtol=0, atol=1e-15)
                np.testing.assert_array_equal(partial_transpose(stack, side)[i], partial_transpose(rho, side))
            np.testing.assert_array_equal(realign(stack)[i], realign(rho))
            stacked = [purity[i] for purity in qstate.subsystem_purities(stack)]
            np.testing.assert_allclose(stacked, qstate.subsystem_purities(rho), rtol=0, atol=1e-15)

    def test_rejects_a_bare_matrix(self):
        with pytest.raises(ValueError, match="tensor views"):
            realign(make_state("bell").data)


class TestSchmidt:
    def test_bell_coefficients(self):
        dec = schmidt(bell_vector(), 2, 2)
        np.testing.assert_allclose(dec.coefficients, [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_product_state_coefficients(self):
        ket00 = np.zeros(4, dtype=complex)
        ket00[0] = 1.0
        dec = schmidt(ket00, 2, 2)
        np.testing.assert_allclose(dec.coefficients, [1.0, 0.0], atol=1e-12)

    def test_random_coefficients_match_reduced_eigenvalues(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            psi = samplers.haar_state_vector(9, rng)
            dec = schmidt(psi, 3, 3)
            eigs = np.sort(np.linalg.eigvalsh(partial_trace(pure_state(psi, 3, 3), "B")))[::-1]
            np.testing.assert_allclose(dec.coefficients**2, eigs, atol=1e-9)
            assert np.all(np.diff(dec.coefficients) <= 1e-15)
            assert np.linalg.norm(dec.reconstruct() - psi) < 1e-9

    def test_reconstruction_of_real_vector(self):
        psi = np.array([0.6, 0.0, 0.0, 0.8], dtype=complex)
        dec = schmidt(psi, 2, 2)
        assert np.linalg.norm(dec.reconstruct() - psi) < 1e-9
        assert np.sum(dec.coefficients**2) == pytest.approx(1.0, abs=1e-12)

    def test_projector_input(self):
        dec = schmidt(make_state("bell"))
        np.testing.assert_allclose(dec.coefficients, [1 / np.sqrt(2)] * 2, atol=1e-10)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="norm"):
            schmidt(np.array([1.0, 1.0, 0.0, 0.0]), 2, 2)

    def test_rejects_mixed_projector(self):
        with pytest.raises(ValueError, match="pure"):
            schmidt(DensityMatrix(2, 2, np.eye(4) / 4))


class TestGenerators:
    def test_upb_is_rank_four_unit_trace_ppt(self):
        rho = make_state("upb")
        assert validate(rho) == []
        eigs = np.linalg.eigvalsh(rho.data)
        assert np.sum(eigs > 1e-12) == 4
        np.testing.assert_allclose(eigs[eigs > 1e-12], [0.25] * 4, atol=1e-12)
        assert np.linalg.eigvalsh(partial_transpose(rho, "A")).min() >= -1e-9

    def test_noisy_singlet_zero_is_separable_noise(self):
        rho = make_state("noisy_singlet", 0.0)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 2 / 3
        expected[1, 1] = 1 / 3
        np.testing.assert_allclose(rho.data, expected, atol=1e-15)

    def test_upb_noise_full_mixing_parameter_is_exact(self):
        assert np.array_equal(make_state("upb_noise", 1.0).data, make_state("upb").data)

    def test_upb_noise_zero_is_maximally_mixed(self):
        np.testing.assert_allclose(make_state("upb_noise", 0.0).data, np.eye(9) / 9, atol=1e-15)

    def test_parameter_out_of_range(self):
        for p in (-0.1, 1.1):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                make_state("noisy_singlet", p)
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                make_state("upb_noise", p)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown state"):
            make_state("ghz")

    def test_missing_parameter(self):
        with pytest.raises(ValueError, match="requires"):
            make_state("noisy_singlet")

    @pytest.mark.parametrize("name", ["bell", "upb"])
    def test_unused_parameter_rejected(self, name):
        with pytest.raises(ValueError, match="takes no mixing parameter"):
            make_state(name, 0.3)

    def test_all_generated_states_validate(self):
        rng = np.random.default_rng(12)
        states = [
            make_state("bell"),
            make_state("noisy_singlet", 0.3),
            make_state("upb"),
            make_state("upb_noise", 0.7),
            qstate.white_noise_mixture(make_state("bell"), 0.5),
            qstate.mixture(make_state("bell"), make_state("noisy_singlet", 1.0), 0.25),
            samplers.random_pure_state(3, 3, rng),
            samplers.random_mixed_state(2, 3, rng),
            samplers.random_product_state(2, 2, rng),
            samplers.random_separable_state(3, 3, rng),
        ]
        for rho in states:
            assert validate(rho) == []

    def test_mixture_requires_equal_dims(self):
        with pytest.raises(ValueError, match="equal dims"):
            qstate.mixture(make_state("bell"), make_state("upb"), 0.5)


class TestStateFiles:
    def test_round_trip_is_exact(self, tmp_path):
        rho = samplers.random_mixed_state(2, 3, np.random.default_rng(13))
        path = tmp_path / "state.json"
        save_state(rho, path)
        loaded = load_state(path)
        assert (loaded.dim_a, loaded.dim_b) == (2, 3)
        assert np.array_equal(loaded.data, rho.data)

    def test_load_from_file_object(self):
        rho = make_state("bell")
        buf = io.StringIO()
        qstate.dump_state(rho, buf)
        buf.seek(0)
        assert np.array_equal(load_state(buf).data, rho.data)

    def test_rejects_nan_token(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dims": [1, 1], "matrix": [[[NaN, 0.0]]]}')
        with pytest.raises(ValueError, match="non-finite"):
            load_state(path)

    def test_rejects_infinity_token(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dims": [1, 1], "matrix": [[[Infinity, 0.0]]]}')
        with pytest.raises(ValueError, match="non-finite"):
            load_state(path)

    def test_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dims": [2, 2]}')
        with pytest.raises(ValueError, match="matrix"):
            load_state(path)

    def test_rejects_wrong_row_count(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dims": [2, 2], "matrix": [[[1.0, 0.0]] * 4] * 3}))
        with pytest.raises(ValueError, match="rows"):
            load_state(path)

    def test_rejects_scalar_entries(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dims": [1, 1], "matrix": [[1.0]]}))
        with pytest.raises(ValueError, match="pair"):
            load_state(path)

    @pytest.mark.parametrize(
        "dims, matrix_text",
        [
            ("[1, 1]", "[[[null, 0.0]]]"),
            ("[1, 1]", "[[[" + "9" * 400 + ", 0.0]]]"),
            ("[1, 1]", '[[["0.5", 0.0]]]'),
            ("[1, 2]", "[[[0.5, 0.0], [0.0]], [[0.0, 0.0], [0.5, 0.0]]]"),
            ("[1, 1]", "[[[0.5, 0.0, 0.0]]]"),
            ("[1, 1]", "[[[[0.5, 0.0], [0.0, 0.0]]]]"),
            ("[1, 1]", "[[[1e999, 0.0]]]"),
            ("[1, 1]", "[[[true, 0.0]]]"),
            ("[1, 1]", "[[[true, 0]]]"),
        ],
        ids=["null", "huge_integer", "string", "ragged_row", "triple", "extra_nesting", "overflow",
             "bool_beside_float", "bool_beside_int"],
    )
    def test_rejects_malformed_entries(self, dims, matrix_text):
        text = f'{{"dims": {dims}, "matrix": {matrix_text}}}'
        with pytest.raises(ValueError):
            load_state(io.StringIO(text))

    @pytest.mark.parametrize("dims", [(2, 3), (8, 16), (16, 16)])
    def test_random_states_round_trip_bit_exactly(self, tmp_path, dims):
        rho = samplers.random_mixed_state(*dims, np.random.default_rng(sum(dims)))
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_state(rho, first)
        loaded = load_state(first)
        assert (loaded.dim_a, loaded.dim_b) == dims
        assert np.array_equal(loaded.data, rho.data)
        save_state(loaded, second)
        assert first.read_text() == second.read_text()

    def test_extreme_values_round_trip_bit_exactly(self, tmp_path):
        pairs = np.array(
            [
                [[-0.0, 5e-324], [1e308, -0.0]],
                [[-1e308, 0.0], [-5e-324, -0.0]],
            ]
        )
        rho = DensityMatrix(1, 2, pairs.view(complex)[..., 0])
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_state(rho, first)
        loaded = load_state(first)
        assert np.array_equal(loaded.data, rho.data)
        for part in ("real", "imag"):
            got, want = getattr(loaded.data, part), getattr(rho.data, part)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.signbit(loaded.data[0, 0].real) and np.signbit(loaded.data[1, 1].imag)
        save_state(loaded, second)
        assert first.read_text() == second.read_text()

    def test_document_matches_per_entry_encoder(self):
        rho = samplers.random_mixed_state(3, 2, np.random.default_rng(14))
        reference = [[[float(z.real), float(z.imag)] for z in row] for row in rho.data]
        doc = qstate.state_to_document(rho)
        assert json.dumps(doc["matrix"]) == json.dumps(reference)

    @pytest.mark.parametrize("dims", [[2.7, 2.2], [2.0, 2.0], [True, "4"], [2, None]])
    def test_rejects_non_integer_dims(self, dims):
        doc = qstate.state_to_document(make_state("bell"))
        doc["dims"] = dims
        with pytest.raises(ValueError, match="integers"):
            qstate.state_from_document(doc)

    @pytest.mark.parametrize("dims", [[0, 2], [-1, 2], [-2, -2]])
    def test_rejects_nonpositive_dims(self, dims):
        n = abs(dims[0] * dims[1])
        doc = {"dims": dims, "matrix": [[[0.0, 0.0]] * n] * n}
        with pytest.raises(ValueError, match="dims must be positive integers"):
            qstate.state_from_document(doc)
