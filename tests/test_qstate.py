import io
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loowit import codec, qstate
from loowit.codec import load_state, save_state
from loowit.criteria import InvalidState, concurrence_pure, spectra
from loowit.qstate import (
    DensityMatrix,
    make_state,
    partial_trace,
    partial_transpose,
    pure_state,
    realign,
    schmidt,
    trace_norm,
)

import samplers
from counting import count_calls


def bell_vector():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return v


def rejections(rho):
    """The (invariant, residual) of each ``invalid state`` line with which spectra rejects ``rho``;
    [] if it accepts ``rho``."""
    try:
        spectra(rho)
    except InvalidState as exc:
        return [(line.split()[2], float(line.split()[-1])) for line in str(exc).splitlines()]
    return []


class TestValidate:
    def test_bell_projector_is_clean(self):
        assert rejections(make_state("bell")) == []

    def test_trace_two_reports_unit_trace_residual_one(self):
        rho = DensityMatrix(2, 2, 2.0 * make_state("bell").data)
        violations = rejections(rho)
        assert [name for name, _ in violations] == ["unit_trace"]
        assert violations[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_negative_eigenvalue_reports_psd_violation(self):
        rho = DensityMatrix(2, 2, np.diag([0.55, 0.55, -0.1, 0.0]))
        violations = rejections(rho)
        assert [name for name, _ in violations] == ["positive_semidefinite"]
        assert violations[0][1] == pytest.approx(0.1, abs=1e-12)

    def test_non_hermitian_reported(self):
        data = np.eye(4) / 4
        data[0, 1] = 0.2
        violations = rejections(DensityMatrix(2, 2, data))
        assert "hermitian" in [name for name, _ in violations]

    @pytest.mark.parametrize("dims", [(1, 2), (2, 2)])
    def test_non_finite_entries_reported(self, dims):
        # No invariant can be measured on such a matrix: the eigensolver
        # raises on a NaN or reports nothing at all.
        n = dims[0] * dims[1]
        nan_pair = np.eye(n, dtype=complex) / n
        nan_pair[0, 1] = nan_pair[1, 0] = np.nan
        inf_corner = np.eye(n) / n
        inf_corner[0, 0] = np.inf
        assert rejections(DensityMatrix(*dims, nan_pair)) == [("finite", 2.0)]
        assert rejections(DensityMatrix(*dims, inf_corner)) == [("finite", 1.0)]

    def test_shape_mismatch_is_structural_error(self):
        with pytest.raises(ValueError, match="must be 4x4"):
            DensityMatrix(2, 2, np.eye(3))

    def test_nonpositive_dims_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            DensityMatrix(0, 2, np.zeros((0, 0)))

    @pytest.mark.parametrize("dims", [(2.5, 2), (2.0, 2), (True, 2), (2, np.float64(2.0)), ("2", 2)])
    def test_non_integer_dims_rejected(self, dims):
        # A float dim used to construct and then break as_tensor() with a TypeError.
        with pytest.raises(ValueError, match="positive integers"):
            DensityMatrix(*dims, np.eye(5) / 5)

    def test_numpy_integer_dims_become_python_ints(self):
        rho = DensityMatrix(np.int64(2), np.int32(2), make_state("bell").data)
        assert (type(rho.dim_a), type(rho.dim_b)) == (int, int)
        assert rho.as_tensor().shape == (2, 2, 2, 2)


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

    def test_rejects_a_bare_matrix(self):
        with pytest.raises(ValueError, match="tensor views"):
            realign(make_state("bell").data)

    @pytest.mark.parametrize("shape", [(2, 2, 2), (1, 4, 4), (4,), ()], ids=str)
    def test_trace_norm_takes_one_matrix(self, shape):
        # trace_norm(np.ones((2, 2, 2))) used to return 4.0, both matrices'
        # singular values summed as if they were one norm.
        with pytest.raises(ValueError, match=r"trace_norm needs one 2-D matrix, got shape"):
            trace_norm(np.ones(shape))
        assert trace_norm(np.ones((2, 2))) == pytest.approx(2.0, abs=1e-15)


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

    # One broken invariant each, and the example that used to build: its
    # coefficients fail first.  The message names what is broken.
    @pytest.mark.parametrize(
        "coefficients, basis_a, basis_b, message",
        [
            ([2.0, 5.0], np.ones((2, 2)), np.zeros((3, 2)), "^squared coefficients must sum to 1, got 29.0$"),
            ([0.8, 0.6j], np.eye(2), np.eye(2), "^Schmidt coefficients must be .* real numbers, got dtype complex"),
            ([[0.8, 0.6]], np.eye(2), np.eye(2), "^Schmidt coefficients must be a non-empty 1-D array"),
            ([], np.zeros((0, 2)), np.zeros((0, 2)), "^Schmidt coefficients must be a non-empty 1-D array"),
            ([0.8, -0.6], np.eye(2), np.eye(2), "^Schmidt coefficients must be .* non-negative"),
            ([0.6, 0.8], np.eye(2), np.eye(2), r"^Schmidt coefficients must be non-increasing, got \[0.6, 0.8\]$"),
            ([0.8, 0.6], np.eye(2)[0], np.eye(2), r"^basis_a must be 2-D with one row per coefficient, .* \(2,\)$"),
            ([0.8, 0.6], np.eye(2), np.eye(3), r"^basis_b must be 2-D with one row per coefficient, .* \(3, 3\)$"),
            ([0.8, 0.6], [[1, 0], [1, 0]], np.eye(2), r"^basis_a rows must be orthonormal: .* = 1\.0$"),
            ([0.8, 0.6], np.eye(2), np.sqrt(1 + 2e-10) * np.eye(2), "^basis_b rows must be orthonormal"),
            ([0.8, 0.6], np.eye(2), [[np.nan, 0], [0, 1]], "^basis_b rows must be orthonormal: .* = nan$"),
        ],
        ids=["found_example", "complex_coefficients", "2d_coefficients", "no_coefficients", "negative_coefficient",
             "increasing_coefficients", "1d_basis_a", "extra_row_basis_b", "parallel_rows_basis_a",
             "row_norm_beyond_tolerance_basis_b", "nan_basis_b"],
    )
    def test_decomposition_checks_its_invariants(self, coefficients, basis_a, basis_b, message):
        with pytest.raises(ValueError, match=message):
            qstate.SchmidtDecomposition(coefficients, basis_a, basis_b)

    @pytest.mark.parametrize("dims", [(1, 4), (2, 16), (12, 5), (16, 16)])
    def test_every_output_of_schmidt_meets_the_invariants(self, dims):
        # schmidt builds its result through the checked constructor; rows
        # within the 1e-10 orthonormality tolerance are accepted too.
        psi = samplers.haar_state_vector(dims[0] * dims[1], np.random.default_rng(sum(dims)))
        dec = schmidt(psi, *dims)
        assert dec.basis_a.shape == (min(dims), dims[0]) and dec.basis_b.shape == (min(dims), dims[1])
        again = qstate.SchmidtDecomposition(dec.coefficients, dec.basis_a, np.sqrt(1 + 5e-11) * dec.basis_b)
        assert np.array_equal(again.coefficients, dec.coefficients)

    @pytest.mark.parametrize("dims", [(4, 1), (3, 3), (3, None), (None, 1)])
    def test_density_matrix_must_match_given_dims(self, dims):
        with pytest.raises(ValueError, match=r"state of dims \(2, 2\) does not match dims"):
            schmidt(make_state("bell"), *dims)

    @pytest.mark.parametrize("dims", [(2, 2), (2, None), (None, 2)])
    def test_density_matrix_with_its_own_dims(self, dims):
        dec = schmidt(make_state("bell"), *dims)
        np.testing.assert_allclose(dec.coefficients, [1 / np.sqrt(2)] * 2, atol=1e-10)

    def test_pure_state_takes_a_density_matrix(self):
        # It used to wrap its input in the number rule first, which a DensityMatrix fails.
        bell, projector = make_state("bell"), np.outer(bell_vector(), bell_vector().conj())
        for dims in ((), (2, 2), (2, None)):
            rho = pure_state(bell, *dims)
            assert (rho.dim_a, rho.dim_b) == (2, 2)
            np.testing.assert_allclose(rho.data, projector, rtol=0, atol=1e-12)
        for dims in ((4, 1), (3, None)):
            with pytest.raises(ValueError, match=r"state of dims \(2, 2\) does not match dims"):
                pure_state(bell, *dims)
        for vector in (np.array(["1", "0", "0", "0"]), np.array([True, False, False, False])):
            with pytest.raises(ValueError, match=f"^state entries must be numbers, got dtype {vector.dtype}$"):
                pure_state(vector, 2, 2)

    @pytest.mark.parametrize("dims", [(None, None), (2, None), (None, 2)])
    def test_bare_input_needs_both_dims(self, dims):
        # Only a DensityMatrix carries its own dims; a vector or raw matrix does not.
        for state in (bell_vector(), np.outer(bell_vector(), bell_vector().conj())):
            with pytest.raises(ValueError, match="^dim_a and dim_b are required for a bare state vector or a raw matrix$"):
                qstate.pure_state_vector(state, *dims)

    def test_vector_length_must_match_dims(self):
        with pytest.raises(ValueError, match=r"^vector of length 4 does not match dims \(2, 3\)$"):
            qstate.pure_state_vector(bell_vector(), 2, 3)

    def test_rejects_mixed_projector(self):
        with pytest.raises(ValueError, match="pure"):
            schmidt(DensityMatrix(2, 2, np.eye(4) / 4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_input(self, bad):
        # NaN made every norm and purity check pass before the eigensolver failed
        vector = np.array([bad, 1.0, 0.0, 0.0])
        matrix = np.diag([bad, 1.0, 0.0, 0.0])
        for call in (
            lambda: qstate.pure_state_vector(vector, 2, 2),
            lambda: qstate.pure_state(vector, 2, 2),
            lambda: schmidt(vector, 2, 2),
            lambda: schmidt(matrix, 2, 2),
            lambda: schmidt(DensityMatrix(2, 2, matrix)),
        ):
            with pytest.raises(ValueError, match="norm|pure"):
                call()

    @pytest.mark.parametrize("dims", [(True, 4), (2.0, 2.0), (-2, -2)], ids=["bool", "float", "negative"])
    @pytest.mark.parametrize("function", [schmidt, concurrence_pure, pure_state], ids=lambda f: f.__name__)
    def test_vector_dims_checked_as_density_matrix_checks_them(self, function, dims):
        # A bool, float or negative dim used to break the vector's reshape with a TypeError.
        with pytest.raises(ValueError, match="subsystem dimensions must be positive integers"):
            function(bell_vector(), *dims)


    def test_one_eigensolve_per_matrix(self, monkeypatch):
        # A matrix is checked and its dominant eigenvector read off one eigh of
        # (m + m†)/2.  A vector takes no eigensolve, and neither does a
        # non-finite matrix, which is rejected before any.
        calls = count_calls(monkeypatch, [(np.linalg, name) for name in ("eigh", "eigvalsh", "eig", "eigvals")])
        psi = samplers.haar_state_vector(12, np.random.default_rng(11))
        matrix = np.outer(psi, psi.conj())
        for state, expected in ((psi, []), (matrix, ["eigh"]), (DensityMatrix(3, 4, matrix), ["eigh"])):
            calls.clear()
            vec, _, _ = qstate.pure_state_vector(state, 3, 4)
            assert calls == expected
        # ψ is the normalized dominant eigenvector of that one eigh, to the bit.
        dominant = np.linalg.eigh((matrix + matrix.conj().T) / 2)[1][:, -1]
        np.testing.assert_array_equal(vec, dominant / np.linalg.norm(dominant))
        for state, expected in ((np.diag([np.nan] + [0.0] * 11), []), (np.eye(12) / 12, ["eigh"])):
            calls.clear()
            with pytest.raises(ValueError, match="not a pure state"):
                qstate.pure_state_vector(state, 3, 4)
            assert calls == expected


class TestGenerators:
    def test_upb_is_rank_four_unit_trace_ppt(self):
        rho = make_state("upb")
        spectra(rho)  # raises on a non-state
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

    @pytest.mark.parametrize("name, p", [("bell", None), ("upb", None), ("noisy_singlet", 0.3), ("upb_noise", 0.7)])
    def test_generated_states_are_read_only(self, name, p):
        data = make_state(name, p).data
        assert not data.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            data[0, 0] = 0.5

    @pytest.mark.parametrize("name", ["bell", "upb"])
    def test_fixed_states_are_shared(self, name):
        assert make_state(name) is make_state(name)

    @pytest.mark.parametrize("p", [0.3, 0.7])
    def test_noisy_singlet_bits_match_definition(self, p):
        ket = np.eye(2, dtype=complex)
        singlet = (np.kron(ket[0], ket[1]) - np.kron(ket[1], ket[0])) / np.sqrt(2)
        k00, k01 = np.kron(ket[0], ket[0]), np.kron(ket[0], ket[1])
        sep = 2 / 3 * np.outer(k00, k00.conj()) + 1 / 3 * np.outer(k01, k01.conj())
        expected = p * np.outer(singlet, singlet.conj()) + (1 - p) * sep
        assert make_state("noisy_singlet", p).data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("p", [0.3, 0.7])
    def test_upb_noise_bits_match_definition(self, p):
        expected = p * make_state("upb").data + (1 - p) * np.eye(9) / 9
        assert make_state("upb_noise", p).data.tobytes() == expected.tobytes()

    def test_parameter_out_of_range(self):
        # A bool is not a mixing parameter, though it compares as 0 or 1.
        for p in (-0.1, 1.1, True, False, np.True_):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                make_state("noisy_singlet", p)
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                make_state("upb_noise", p)

    @pytest.mark.parametrize("p", [0.5 + 1j, 0.5 + 0j, "0.5", None], ids=repr)
    @pytest.mark.parametrize("mixer", ["mixture", "white_noise_mixture", "make_state", "Spectra.mixed"])
    def test_parameter_must_be_a_real_number(self, mixer, p):
        # Only a real p mixes: a complex one must not be scored by its real part.
        bell, sep = make_state("bell"), make_state("noisy_singlet", 0.0)
        mix = {
            "mixture": lambda p: qstate.mixture(bell, sep, p),
            "white_noise_mixture": lambda p: qstate.white_noise_mixture(bell, p),
            "make_state": lambda p: make_state("noisy_singlet", p),
            "Spectra.mixed": spectra(np.stack([bell.as_tensor(), sep.as_tensor()])).mixed,
        }[mixer]
        with pytest.raises(ValueError, match="mixing parameter"):
            mix(p)

    def test_mixture_rejects_an_array_parameter(self):
        # A length-n p would broadcast over a state's columns and mix a non-state.
        with pytest.raises(ValueError, match=r"mixing parameter must be a number in \[0, 1\]"):
            qstate.mixture(make_state("bell"), make_state("noisy_singlet", 0.0), np.full(4, 0.5))

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
            spectra(rho)  # raises on a non-state

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

    def test_non_finite_state_leaves_the_file_as_it_was(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text("kept")
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_state(DensityMatrix(1, 1, [[np.nan]]), path)
        assert path.read_text() == "kept"

    def test_load_from_file_object(self):
        rho = make_state("bell")
        buf = io.StringIO()
        save_state(rho, buf)
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
        doc = codec.state_to_document(rho)
        assert json.dumps(doc["matrix"]) == json.dumps(reference)

    def test_saved_bytes_match_per_entry_encoder(self, tmp_path):
        # Rectangular 2x3 state with -0.0 real and imaginary parts.
        rho_data = samplers.random_mixed_state(2, 3, np.random.default_rng(15)).data.copy()
        pairs = rho_data.view(float).reshape(6, 6, 2)
        pairs[0, 1] = (-0.0, 0.0)
        pairs[2, 4] = (0.0, -0.0)
        pairs[5, 3] = (-0.0, -0.0)
        rho = DensityMatrix(2, 3, rho_data)
        path = tmp_path / "state.json"
        save_state(rho, path)
        reference = {"dims": [2, 3], "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in rho.data]}
        assert path.read_bytes() == (json.dumps(reference) + "\n").encode()
        assert b"[-0.0, -0.0]" in path.read_bytes()

    def test_deep_nesting_is_a_value_error(self):
        with pytest.raises(ValueError, match="nested too deeply"):
            load_state(io.StringIO("[" * 100000))

    @pytest.mark.parametrize("dims", [[2.7, 2.2], [2.0, 2.0], [True, "4"], [2, None]])
    def test_rejects_non_integer_dims(self, dims):
        doc = codec.state_to_document(make_state("bell"))
        doc["dims"] = dims
        with pytest.raises(ValueError, match="integers"):
            codec.state_from_document(doc)

    @pytest.mark.parametrize("dims", [[0, 2], [-1, 2], [-2, -2]])
    def test_rejects_nonpositive_dims(self, dims):
        n = abs(dims[0] * dims[1])
        doc = {"dims": dims, "matrix": [[[0.0, 0.0]] * n] * n}
        with pytest.raises(ValueError, match="dims must be positive integers"):
            codec.state_from_document(doc)


def decoded(load):
    """(dims, data bytes) of the state ``load()`` returns, or None if it raises ValueError."""
    try:
        rho = load()
    except ValueError:
        return None
    return (rho.dim_a, rho.dim_b), rho.data.tobytes()


def assert_decodes_as_json(text):
    """load_state reads ``text`` as state_from_document(json.loads(text)) does:
    the same dims and array bit for bit, signbits included, or a ValueError from both."""
    assert decoded(lambda: load_state(io.StringIO(text))) == decoded(
        lambda: codec.state_from_document(json.loads(text))
    )


def takes_fast_path(text):
    """Whether load_state decodes ``text`` as a canonical document."""
    try:
        return codec._load_canonical(text) is not None
    except ValueError:
        return True


PAIRS_1x2 = "[[[0.5, 0.0], [0.25, -0.125]], [[0.25, 0.125], [0.5, -0.0]]]"
CANONICAL_1x2 = '{"dims": [1, 2], "matrix": ' + PAIRS_1x2 + "}"
# (text, canonical?): every case must decode as json does, and a canonical one
# must do so on the fast path.
DECODER_CASES = {
    "canonical": (CANONICAL_1x2, True),
    "json_whitespace": (" \t\n\r" + CANONICAL_1x2.replace(" ", "\r\n\t").replace(",", " ,\t").replace("[", "[\n")
                        + "\r\n", True),
    "no_whitespace": (CANONICAL_1x2.replace(" ", ""), True),
    "form_feed": (CANONICAL_1x2.replace(", [0.25", ",\x0c[0.25"), False),
    "form_feed_in_head": (CANONICAL_1x2.replace('"dims": ', '"dims":\x0c'), False),
    "no_break_space": (CANONICAL_1x2.replace(", [0.25", ",\xa0[0.25"), False),
    "em_space": (CANONICAL_1x2.replace(", [0.25", ",\u2003[0.25"), False),
    "arabic_indic_digit": (CANONICAL_1x2.replace("0.125]", "0.\u0663]"), False),
    "arabic_indic_dim": (CANONICAL_1x2.replace("[1, 2]", "[1, \u0662]"), False),
    "keys_reordered": ('{"matrix": ' + PAIRS_1x2 + ', "dims": [1, 2]}', False),
    "extra_key": (CANONICAL_1x2[:-1] + ', "note": "x"}', False),
    "extra_key_first": ('{"note": [1, 2], ' + CANONICAL_1x2[1:], False),
    "duplicate_dims": ('{"dims": [2, 1], ' + CANONICAL_1x2[1:], False),
    "duplicate_matrix": (CANONICAL_1x2[:-1] + ', "matrix": ' + PAIRS_1x2.replace("0.5", "0.75") + "}", False),
    "integer_entries": ('{"dims": [1, 2], "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}', True),
    "negative_zero_integer": ('{"dims": [1, 2], "matrix": [[[1, -0], [-0, 0]], [[0, -0], [-0, -0]]]}', True),
    "negative_zero_float": ('{"dims": [1, 2], "matrix": [[[1, -0.0], [-0.0, 0]], [[0, -0.0], [-0.0, -0]]]}', True),
    "exponents": ('{"dims": [1, 2], "matrix": [[[5e-1, 0E0], [25e-2, -1.25E-1]], [[2.5e-01, 1.25e-1], [5E-1, -0e5]]]}',
                  True),
    "subnormal": (CANONICAL_1x2.replace("0.125]", "5e-324]"), True),
    "overflow": (CANONICAL_1x2.replace("0.125]", "1e999]"), True),
    "huge_integer": (CANONICAL_1x2.replace("0.125]", "9" * 400 + "]"), True),
    "uint64_integer": (CANONICAL_1x2.replace("0.125]", str(2**64 - 1) + "]"), True),
    "beyond_uint64_integer": (CANONICAL_1x2.replace("0.125]", str(2**64) + "]"), True),
    "all_integers_wide": ('{"dims": [1, 2], "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, ' + str(2**63) + "]]]}", True),
    "plus_sign": (CANONICAL_1x2.replace("0.125]", "+0.125]"), True),
    "leading_zero": (CANONICAL_1x2.replace("0.125]", "00.125]"), True),
    "bare_point": (CANONICAL_1x2.replace("0.125]", ".125]"), True),
    "trailing_point": (CANONICAL_1x2.replace("0.125]", "1.]"), True),
    "two_numbers_in_a_slot": (CANONICAL_1x2.replace("0.125]", "0.1 25]"), True),
    "empty_slot": (CANONICAL_1x2.replace("0.125]", "]"), True),
    "minus_alone": (CANONICAL_1x2.replace("0.125]", "-]"), True),
    "true": (CANONICAL_1x2.replace("0.125]", "true]"), False),
    "true_beside_int": ('{"dims": [1, 2], "matrix": [[[true, 0], [0, 0]], [[0, 0], [0, 0]]]}', False),
    "false": (CANONICAL_1x2.replace("0.125]", "false]"), False),
    "null": (CANONICAL_1x2.replace("0.125]", "null]"), False),
    "string": (CANONICAL_1x2.replace("0.125]", '"0.125"]'), False),
    "nan": (CANONICAL_1x2.replace("0.125]", "NaN]"), False),
    "infinity": (CANONICAL_1x2.replace("0.125]", "-Infinity]"), False),
    "ragged_row": ('{"dims": [1, 2], "matrix": [[[0.5, 0.0], [0.0]], [[0.0, 0.0], [0.5, 0.0]]]}', False),
    "pair_moved_to_another_row": ('{"dims": [1, 2], "matrix": [[[0.5, 0.0], [0.25, -0.125], [0.25, 0.125]], '
                                  '[[0.5, -0.0]]]}', False),
    "entry_moved_to_another_pair": ('{"dims": [1, 2], "matrix": [[[0.5], [0.25, -0.125, 0.0]], '
                                    '[[0.25, 0.125], [0.5, -0.0]]]}', False),
    "short_row": ('{"dims": [1, 2], "matrix": [[[0.5, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}', False),
    "triple": ('{"dims": [1, 2], "matrix": [[[0.5, 0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}', False),
    "extra_nesting": ('{"dims": [1, 1], "matrix": [[[[1.0, 0.0]]]]}', False),
    "scalar_entries": ('{"dims": [1, 2], "matrix": [[0.5, 0.0], [0.0, 0.5]]}', False),
    "zero_dim": ('{"dims": [0, 2], "matrix": []}', False),
    "negative_dim": ('{"dims": [-1, 2], "matrix": [[[1.0, 0.0]]]}', False),
    "leading_zero_dim": ('{"dims": [01, 2], "matrix": ' + PAIRS_1x2 + "}", False),
    "float_dim": ('{"dims": [1.0, 2], "matrix": ' + PAIRS_1x2 + "}", False),
    "three_dims": ('{"dims": [1, 2, 1], "matrix": ' + PAIRS_1x2 + "}", False),
    "dims_too_large": ('{"dims": [999999999, 999999999], "matrix": ' + PAIRS_1x2 + "}", False),
    "dims_of_many_digits": ('{"dims": [' + "9" * 5000 + ', 2], "matrix": ' + PAIRS_1x2 + "}", False),
    "trailing_number": (CANONICAL_1x2 + " 1", True),
    "trailing_comma": (CANONICAL_1x2.replace("0.125]", "0.125,]"), False),
    "not_an_object": (PAIRS_1x2, False),
    "empty": ("", False),
}


class TestCanonicalDecoder:
    @pytest.mark.parametrize("case", DECODER_CASES)
    def test_fixed_cases_decode_as_json(self, case):
        text, canonical = DECODER_CASES[case]
        assert_decodes_as_json(text)
        assert takes_fast_path(text) is canonical

    @pytest.mark.parametrize("dims", [(1, 1), (2, 3), (3, 2), (5, 3)])
    def test_exact_skeleton_of_every_size(self, dims):
        # A pair missing from, or added to, the last row breaks the skeleton.
        rho = samplers.random_mixed_state(*dims, np.random.default_rng(17))
        text = json.dumps(codec.state_to_document(rho))
        assert takes_fast_path(text)
        assert_decodes_as_json(text)
        for broken in (text[: text.rindex("[")].rstrip(", ") + "]]}", text[:-3] + ", [0.0, 0.0]]]}"):
            assert not takes_fast_path(broken)
            assert_decodes_as_json(broken)

    def test_negative_zero_integer_decodes_to_positive_zero(self):
        for case, negative in (("negative_zero_integer", 0), ("negative_zero_float", 4)):
            data = load_state(io.StringIO(DECODER_CASES[case][0])).data.view(float)
            assert np.count_nonzero(np.signbit(data)) == negative

    def test_claimed_huge_dims_allocate_nothing_of_their_size(self):
        text = DECODER_CASES["dims_too_large"][0]
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            with pytest.raises(ValueError, match="rows"):
                load_state(io.StringIO(text))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        assert peak < 1 << 20

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_generated_documents_decode_as_json(self, data):
        assert_decodes_as_json(data.draw(state_documents()))

    @pytest.mark.parametrize("name, p", [("bell", None), ("noisy_singlet", 0.3), ("upb", None), ("upb_noise", 0.9)])
    def test_generated_states_take_the_fast_path(self, tmp_path, monkeypatch, name, p):
        rho = make_state(name, p)
        path = tmp_path / "state.json"
        save_state(rho, path)
        monkeypatch.setattr(codec, "state_from_document", None)  # the general path would fail
        assert load_state(path).data.tobytes() == rho.data.tobytes()

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (4, 3), (8, 8), (12, 16), (16, 16)])
    def test_saved_random_states_take_the_fast_path(self, tmp_path, monkeypatch, dims):
        rho = samplers.random_mixed_state(*dims, np.random.default_rng(sum(dims) + 1))
        path = tmp_path / "state.json"
        save_state(rho, path)
        monkeypatch.setattr(codec, "state_from_document", None)
        loaded = load_state(path)
        assert (loaded.dim_a, loaded.dim_b) == dims
        assert loaded.data.tobytes() == rho.data.tobytes()


# Number texts: JSON floats and integers, -0 and -0.0, and extremes.
NUMBER_TEXTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1, 1).map(repr),
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from(["-0", "-0.0", "0", "1", "5e-324", "-5e-324", "1e999", "9" * 400, "1E2", "2.5e+1"]),
)
# What else may stand where a number does: byte strings over the number
# alphabet, which are mostly not JSON numbers, and other JSON values.
JUNK = st.one_of(
    st.text(alphabet="0123456789+-.eE", min_size=1, max_size=5),
    st.sampled_from(["true", "false", "null", '"0.5"', "NaN", "-Infinity", "\u0663", "[]", "[0.5]"]),
)
JSON_WHITESPACE = st.sampled_from(["", "", "", " ", " ", "\t", "\n", "\r\n", "\r", " \t", "\n  "])
OTHER_WHITESPACE = st.sampled_from(["\x0c", "\xa0", "\v", "\u2003"])


@st.composite
def state_documents(draw):
    """Texts near the canonical state document: random dims, entries and
    whitespace.  One document in four may hold, now and then, a token that is
    not a JSON number or whitespace that is not JSON's.  One in five each has
    a pair moved to another row (or one added or dropped), an entry moved to
    another pair, or its keys out of place."""
    dims = draw(st.tuples(st.integers(1, 3), st.integers(1, 2)))
    n = dims[0] * dims[1]
    junk = draw(st.integers(0, 3)) == 0

    def one_in_five():
        return draw(st.integers(0, 4)) == 0

    def rare(common, other):
        return draw(other if junk and draw(st.integers(0, 29)) == 0 else common)

    def space():
        return rare(JSON_WHITESPACE, OTHER_WHITESPACE)

    def listed(items):
        return "[" + ",".join(space() + item + space() for item in items) + "]"

    def moved(counts):  # the counts, one taken from a random place and one added to another
        counts = list(counts)
        counts[draw(st.integers(0, len(counts) - 1))] -= draw(st.integers(0, 1))
        counts[draw(st.integers(0, len(counts) - 1))] += draw(st.integers(0, 1))
        return counts

    pairs = moved([n] * n) if one_in_five() else [n] * n
    sizes = [2] * sum(pairs)
    if sizes and one_in_five():
        sizes = moved(sizes)
    entries = iter(listed([rare(NUMBER_TEXTS, JUNK) for _ in range(size)]) for size in sizes)
    rows = [listed([next(entries) for _ in range(count)]) for count in pairs]
    members = [('"dims"', listed([str(d) for d in dims])), ('"matrix"', listed(rows))]
    if one_in_five():
        members = draw(st.permutations(members + [('"dims"', "[1, 1]"), ('"x"', "0")]))[: draw(st.integers(1, 4))]
    body = ",".join(space() + key + space() + ":" + space() + value + space() for key, value in members)
    return space() + "{" + body + "}" + space()


def assert_same_text(text, expected):
    """text == expected.  A mismatch is reported at its first differing offset:
    pytest's line diff of two texts of a megabyte takes minutes."""
    if text != expected:
        at = len(os.path.commonprefix([text, expected]))
        near = slice(max(at - 60, 0), at + 60)
        pytest.fail(
            f"texts of {len(text)} and {len(expected)} characters differ at {at}: "
            f"{text[near]!r} != {expected[near]!r}"
        )


class TestPairsJson:
    # Each class of codec._repr_texts: zero, subnormal, exponent notation, and
    # each fixed-notation layout, at both notation switches.
    VALUES = [0.0, -0.0, 5e-324, 1e16, 1e-5, 1 / 3, 1.7976931348623157e308, -1e-17, 1e-4,
              float(np.nextafter(1e-4, 0.0)), 9999999999999998.0, 2.0**53 + 2, 123.0, 0.1, 2.2250738585072014e-308]

    SHAPES = [(4, 2, 2), (9, 3, 3), (5, 2, 1), (300, 4, 4), (144, 12, 12), (3, 4100)]

    # At the default chunk size of 8192 floats the last three shapes span
    # several chunks, with a remainder; in (3, 4100) one entry of the leading
    # axis is more than a chunk.  Chunks of 1, 3 and 7 floats end inside
    # [re, im] pairs and inside observables.  A float's sign is written before
    # it, so signed_ends pins the first float's (-0.0, after the opening
    # brackets) and the last closing, after which no sign is written.
    @pytest.mark.parametrize(
        "shape, chunk, signed_ends",
        [pytest.param(shape, 8192, False, id=f"shape{i}") for i, shape in enumerate(SHAPES)]
        + [pytest.param(shape, chunk, False, id=f"shape{i}-chunk{chunk}")
           for i, shape in enumerate(SHAPES[:3]) for chunk in (1, 3, 7)]
        + [pytest.param((3, 3), chunk, True, id=f"signed_ends-chunk{chunk}") for chunk in (1, 3, 7, 8192)],
    )
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_matches_indented_json_of_pairs(self, shape, chunk, signed_ends, level, monkeypatch):
        monkeypatch.setattr(codec, "PAIRS_SLICE_FLOATS", chunk)
        rng = np.random.default_rng(16)
        size = int(np.prod(shape))
        # Every value appears in both parts, the real parts with random signs.
        real = np.resize(self.VALUES, size) * rng.choice([1.0, -1.0], size)
        imag = np.resize(self.VALUES[::-1], size)
        if signed_ends:
            real[0], imag[-1] = -0.0, -0.25
        a = np.empty(shape, dtype=complex)
        a.real, a.imag = real.reshape(shape), imag.reshape(shape)
        expected = json.dumps(codec.complex_to_pairs(a), indent=2).replace("\n", "\n" + "  " * level)
        out = io.StringIO()
        codec.write_pairs_json(a, level, out)
        assert_same_text(out.getvalue(), expected)

    def test_streamed_peak_is_below_the_text_written(self):
        class Sink:  # counts the characters written and keeps none of them
            chars = 0

            def write(self, text):
                self.chars += len(text)

        x = np.random.default_rng(13).normal(size=(2, 256, 16, 16))
        a = x[0] + 1j * x[1]
        a = a + a.conj().swapaxes(1, 2)  # a Hermitian 16x16 basis repeats its magnitudes
        sink = Sink()
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            codec.write_pairs_json(a, 0, sink)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        assert peak < sink.chars
