import numpy as np
import pytest

from loowit import criteria, loo, qstate
from loowit.criteria import spectra
from loowit.loo import (
    LOOBasis,
    OrthogonalRotation,
    gell_mann_basis,
    hermiticity_residual,
    orthonormality_residual,
    pauli_basis,
    rotate,
    transpose_basis,
)
from loowit.qstate import make_state

import oracles
import samplers
from counting import count_calls

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
# Each witness value at a basis pair, by its test id.
WITNESS_VALUES = {f"{kind}_witness_value": lambda rho, basis_a, basis_b, kind=kind:
                  spectra(rho).witness_value(kind, basis_a, basis_b) for kind in ("linear", "nonlinear")}


class TestGellMann:
    def test_qubit_elements_in_documented_order(self):
        b = gell_mann_basis(2)
        assert len(b) == 4
        np.testing.assert_allclose(b[0], SX / np.sqrt(2), atol=1e-15)
        # antisymmetric element carries the opposite sign convention to sigma_y
        np.testing.assert_allclose(b[1], -SY / np.sqrt(2), atol=1e-15)
        np.testing.assert_allclose(b[2], np.diag([1.0, 0.0]), atol=1e-15)
        np.testing.assert_allclose(b[3], np.diag([0.0, 1.0]), atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_trace_orthonormal_hermitian(self, d):
        b = gell_mann_basis(d)
        assert len(b) == d * d
        assert hermiticity_residual(b) < 1e-10
        assert orthonormality_residual(b) < 1e-10

    def test_block_sizes(self):
        b = gell_mann_basis(3)
        # 3 symmetric, 3 antisymmetric, 3 diagonal projectors
        for k in range(6):
            assert abs(np.trace(b[k])) < 1e-15
        for k in range(6, 9):
            assert np.trace(b[k]).real == pytest.approx(1.0)

    def test_completeness_reproduces_purity(self):
        rng = np.random.default_rng(21)
        for d in (2, 3, 4):
            rho = qstate.partial_trace(samplers.random_mixed_state(d, d, rng), "B")
            total = sum(np.trace(g @ rho).real ** 2 for g in gell_mann_basis(d))
            assert total == pytest.approx(np.trace(rho @ rho).real, abs=1e-9)

    def test_dimension_below_two_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            gell_mann_basis(1)

    @pytest.mark.parametrize("d", range(2, 17))
    def test_matches_loop_construction_bit_exactly(self, d):
        # The per-element double loop the index-array construction replaced.
        reference = np.zeros((d * d, d, d), dtype=complex)
        k = 0
        for m in range(d):
            for n in range(m + 1, d):
                reference[k, m, n] = 1 / np.sqrt(2)
                reference[k, n, m] = 1 / np.sqrt(2)
                k += 1
        for m in range(d):
            for n in range(m + 1, d):
                reference[k, m, n] = 1j / np.sqrt(2)
                reference[k, n, m] = -1j / np.sqrt(2)
                k += 1
        for m in range(d):
            reference[k, m, m] = 1.0
            k += 1
        observables = gell_mann_basis(d).observables
        assert np.array_equal(observables.view(float), reference.view(float))
        assert np.array_equal(np.signbit(observables.view(float)), np.signbit(reference.view(float)))


class TestPauli:
    def test_normalization_and_orthogonality(self):
        b = pauli_basis()
        assert np.trace(b[0] @ b[0]).real == pytest.approx(1.0)
        assert abs(np.trace(b[0] @ b[1])) == pytest.approx(0.0, abs=1e-15)
        assert hermiticity_residual(b) < 1e-15
        assert orthonormality_residual(b) < 1e-15

    def test_flipped_variant_via_rotation(self):
        flipped = rotate(pauli_basis(), np.diag([1.0, -1.0, 1.0, 1.0]))
        expected = np.stack([SX, -SY, SZ, np.eye(2)]) / np.sqrt(2)
        np.testing.assert_allclose(flipped.observables, expected, atol=1e-15)


class TestTransposeBasis:
    def test_antisymmetric_elements_change_sign(self):
        b = gell_mann_basis(2)
        t = transpose_basis(b)
        np.testing.assert_allclose(t[0], b[0], atol=1e-15)
        np.testing.assert_allclose(t[1], -b[1], atol=1e-15)
        np.testing.assert_allclose(t[2], b[2], atol=1e-15)
        np.testing.assert_allclose(t[3], b[3], atol=1e-15)

    def test_double_application_is_identity(self):
        b = gell_mann_basis(3)
        assert np.array_equal(transpose_basis(transpose_basis(b)).observables, b.observables)

    def test_orthonormality_preserved_for_rotated_basis(self):
        rng = np.random.default_rng(22)
        rotated = rotate(gell_mann_basis(3), samplers.haar_rotation(9, rng))
        assert orthonormality_residual(transpose_basis(rotated)) < 1e-9


class TestRotate:
    def test_identity_rotation_is_noop(self):
        b = gell_mann_basis(2)
        assert np.array_equal(rotate(b, np.eye(4)).observables, b.observables)

    def test_composition(self):
        rng = np.random.default_rng(23)
        b = gell_mann_basis(2)
        o1 = samplers.haar_rotation(4, rng).matrix
        o2 = samplers.haar_rotation(4, rng).matrix
        left = rotate(rotate(b, o1), o2)
        right = rotate(b, o2 @ o1)
        np.testing.assert_allclose(left.observables, right.observables, atol=1e-10)

    def test_random_rotation_preserves_invariants(self):
        rng = np.random.default_rng(24)
        for d in (2, 3):
            rotated = rotate(gell_mann_basis(d), samplers.haar_rotation(d * d, rng))
            assert hermiticity_residual(rotated) < 1e-9
            assert orthonormality_residual(rotated) < 1e-9

    def test_non_orthogonal_matrix_rejected_with_residual(self):
        bad = np.eye(4)
        bad[0, 0] = 2.0
        with pytest.raises(ValueError, match="not orthogonal"):
            rotate(gell_mann_basis(2), bad)
        try:
            OrthogonalRotation(bad)
        except ValueError as exc:
            assert "3.0" in str(exc)  # max |O O^T - I| residual

    def test_nan_rotation_rejected(self):
        # a residual check written `residual > tol` is false for NaN
        with pytest.raises(ValueError, match="not orthogonal.*nan"):
            OrthogonalRotation(np.full((4, 4), np.nan))
        with pytest.raises(ValueError, match="not orthogonal"):
            rotate(gell_mann_basis(2), np.full((4, 4), np.nan))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            rotate(gell_mann_basis(3), np.eye(4))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            OrthogonalRotation(np.ones((2, 3)))

    def test_local_expectation_square_sum_invariant_under_rotation(self):
        rng = np.random.default_rng(25)
        rho = samplers.random_mixed_state(3, 3, rng)
        reduced = qstate.partial_trace(rho, "B")
        basis = gell_mann_basis(3)
        rotated = rotate(basis, samplers.haar_rotation(9, rng))
        total = sum(np.trace(g @ reduced).real ** 2 for g in basis)
        total_rot = sum(np.trace(g @ reduced).real ** 2 for g in rotated)
        assert total == pytest.approx(total_rot, abs=1e-9)
        assert total == pytest.approx(np.trace(reduced @ reduced).real, abs=1e-9)


class TestOperatorSchmidt:
    """ρ = Σ_k σ_k G_k^A ⊗ G_k^B: σ is σ(R(ρ)) from the spectral core, and
    the bases are those of the linear optimum."""

    def test_bell_singular_values(self):
        sigma = spectra(make_state("bell")).realigned
        np.testing.assert_allclose(sigma, [0.5] * 4, atol=1e-12)
        assert sigma.sum() == pytest.approx(2.0, abs=1e-12)

    def test_pure_product_state_is_rank_one(self):
        rng = np.random.default_rng(26)
        sigma = spectra(samplers.random_product_state(3, 3, rng)).realigned
        assert sigma[0] == pytest.approx(1.0, abs=1e-10)
        assert np.all(sigma[1:] < 1e-10)

    @pytest.mark.parametrize("d", [2, 3])
    def test_maximally_mixed_single_value(self, d):
        rho = qstate.DensityMatrix(d, d, np.eye(d * d) / (d * d))
        sigma = spectra(rho).realigned
        assert sigma[0] == pytest.approx(1.0 / d, abs=1e-12)
        assert np.all(sigma[1:] < 1e-12)

    def test_reconstruction_and_basis_validity(self):
        rng = np.random.default_rng(27)
        for dims in ((2, 2), (3, 3), (2, 3)):
            rho = samplers.random_mixed_state(*dims, rng)
            record = spectra(rho)
            sigma = record.realigned
            _, basis_a, basis_b = record.optimum("linear")
            rebuilt = sum(
                s * np.kron(ga, gb) for s, ga, gb in zip(sigma, basis_a, basis_b)
            )
            assert np.abs(rebuilt - rho.data).max() < 1e-8
            for basis in (basis_a, basis_b):
                assert hermiticity_residual(basis) < 1e-9
                assert orthonormality_residual(basis) < 1e-9
            assert np.all(sigma >= 0)
            assert np.all(np.diff(sigma) <= 1e-15)

    def test_singular_values_lu_invariant(self):
        rng = np.random.default_rng(28)
        rho = samplers.random_mixed_state(3, 3, rng)
        base = spectra(rho).realigned
        for _ in range(3):
            ua = samplers.haar_unitary(3, rng)
            ub = samplers.haar_unitary(3, rng)
            rotated = samplers.local_unitary_conjugate(rho, ua, ub)
            np.testing.assert_allclose(spectra(rotated).realigned, base, atol=1e-8)


class TestLOOBasisStructure:
    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            LOOBasis(2, np.zeros((3, 2, 2)))

    def test_iteration_and_indexing(self):
        b = pauli_basis()
        assert len(list(b)) == 4
        np.testing.assert_allclose(b[3], np.eye(2) / np.sqrt(2))

    def test_observables_read_only(self):
        b = pauli_basis()
        with pytest.raises(ValueError):
            b.observables[0, 0, 0] = 1.0


class TestBasisChecks:
    @pytest.mark.parametrize("side", ["A", "B"])
    @pytest.mark.parametrize(
        "value", [samplers.correlation_matrix, samplers.covariance_matrix, *WITNESS_VALUES.values()],
        ids=["correlation_matrix", "covariance_matrix", *WITNESS_VALUES],
    )
    def test_nan_basis_rejected(self, side, value):
        # The NaN basis raises when it is built, before any value reads it.
        with pytest.raises(ValueError, match="not Hermitian.*nan"):
            nan_basis = LOOBasis(2, np.full((4, 2, 2), np.nan))
            bases = (nan_basis, pauli_basis()) if side == "A" else (pauli_basis(), nan_basis)
            value(make_state("bell"), *bases)

    def test_hermiticity_checked_when_built(self):
        message = r"basis is not Hermitian: max \|G_k - G_k\^dagger\| = "
        observables = gell_mann_basis(3).observables.copy()
        observables[0] *= 1j  # iG_0 is anti-Hermitian: residual √2
        with pytest.raises(ValueError, match=message + "1.41"):
            LOOBasis(3, observables)
        with pytest.raises(ValueError, match=message + "nan"):
            LOOBasis(3, np.full((9, 3, 3), np.nan))
        # Off Hermitian by 0.9e-10 in one entry: within tolerance, so it builds.
        observables = gell_mann_basis(3).observables.copy()
        observables[0, 0, 1] += 0.9e-10
        assert hermiticity_residual(LOOBasis(3, observables)) == pytest.approx(0.9e-10, rel=1e-6)

    @pytest.mark.parametrize("value", list(WITNESS_VALUES.values()), ids=list(WITNESS_VALUES))
    def test_orthonormality_checked_when_built(self, value):
        # Twice the Pauli basis is Hermitian but has Tr(G_k G_l) = 2·δ_kl; both
        # witness values used to read -3.0 on |00⟩, a false detection.
        message = r"basis is not orthonormal: max \|Tr\(G_k G_l\) - delta_kl\| = (3\.0|2\.99)"
        with pytest.raises(ValueError, match=message):
            value(qstate.pure_state([1, 0, 0, 0], 2, 2), LOOBasis(2, 2 * pauli_basis().observables), pauli_basis())

    @pytest.mark.parametrize("d", [2, 3, 16])
    def test_orthonormality_tolerance(self, d):
        # Entry errors up to the Hermiticity tolerance h move Tr(G_k G_l) by at
        # most (1 + d·h)² - 1, and the Gram's rounding by at most 2d²ε.
        tol = (1 + d * qstate.HERMITICITY_TOL) ** 2 - 1 + 2 * d**2 * np.finfo(float).eps
        observables = gell_mann_basis(d).observables
        inside = LOOBasis(d, observables * np.sqrt(1 + 0.9 * tol))  # Tr(G_k G_k) = 1 + 0.9·tol
        assert orthonormality_residual(inside) == pytest.approx(0.9 * tol, rel=1e-3)
        with pytest.raises(ValueError, match="basis is not orthonormal"):
            LOOBasis(d, observables * np.sqrt(1 + 1.1 * tol))

    # Inputs that numpy would silently coerce: a float or bool dim (4.0 == 4,
    # so the shape check passes), and a complex, bool or str array where real
    # numbers are meant (the imaginary part would be dropped, and "0.6" read
    # as 0.6); lmax_pure also needs a 1-D array.
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: LOOBasis(2.0, pauli_basis().observables), "positive integers"),
            (lambda: LOOBasis(True, np.ones((1, 1, 1))), "positive integers"),
            (lambda: OrthogonalRotation(np.eye(4) + 1e-3j * np.eye(4)[::-1]), "real numbers"),
            (lambda: rotate(pauli_basis(), np.eye(4) + 1e-3j * np.eye(4)[::-1]), "real numbers"),
            (lambda: OrthogonalRotation(np.eye(4, dtype=bool)), "real numbers"),
            (lambda: oracles.sampled_max_trace(np.eye(3) * (1 + 1j), 10, 0), "real numbers"),
            (lambda: oracles.sampled_max_trace(np.eye(3, dtype=bool), 10, 0), "real numbers"),
            (lambda: criteria.lmax_pure(["0.6", "0.8"]), "real numbers"),
            (lambda: criteria.lmax_pure([True]), "real numbers"),
            (lambda: criteria.lmax_pure(np.array([0.6, 0.8j])), "real numbers"),
            (lambda: criteria.lmax_pure([[0.6, 0.8]]), "1-D array"),
            # np.asarray turns a bool beside numbers into 0 or 1, and np.array(..., complex) parses "1".
            (lambda: OrthogonalRotation([[True, 0.0], [0.0, 1.0]]), r"real numbers, got dtype bool at \[0\]\[0\]"),
            (lambda: rotate(pauli_basis(), [[True, 0.0, 0.0, 0.0]] + np.eye(4).tolist()[1:]), "real numbers"),
            (lambda: criteria.lmax_pure([True, 0.0]), "real numbers"),
            (lambda: LOOBasis(1, [[["1"]]]), "observables must be numbers"),
            (lambda: LOOBasis(1, np.ones((1, 1, 1), bool)), "observables must be numbers"),
            (lambda: gell_mann_basis("3"), "positive integers"),
            (lambda: gell_mann_basis(2.0), "positive integers"),
            (lambda: gell_mann_basis(np.float64(3)), "positive integers"),
            (lambda: gell_mann_basis(None), "positive integers"),
        ],
        ids=["float_dim", "bool_dim", "complex_rotation", "complex_rotate", "bool_rotation",
             "complex_oracle_matrix", "bool_oracle_matrix", "str_coefficients", "bool_coefficients",
             "complex_coefficients", "2d_coefficients", "bool_beside_float_rotation", "bool_beside_float_rotate",
             "bool_beside_float_coefficients", "str_observables", "bool_observables", "str_gell_mann_dim",
             "float_gell_mann_dim", "numpy_float_gell_mann_dim", "none_gell_mann_dim"],
    )
    def test_coercible_inputs_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_dim_is_stored_as_a_python_int(self):
        basis = LOOBasis(np.int64(2), pauli_basis().observables)
        assert type(basis.dim) is int and basis.dim == 2


class TestGellMannCorrelations:
    @pytest.mark.parametrize("dims", [(1, 3), (3, 1), (2, 3), (4, 3), (3, 3)])
    def test_record_matches_kronecker_expectations(self, dims):
        # The default Gell-Mann pair, then a Haar-rotated user pair.
        rng = np.random.default_rng(sum(dims))
        rho = samplers.random_mixed_state(*dims, rng)
        gell_mann = [loo._gell_mann(d) for d in dims]  # gell_mann_basis(d), which rejects d = 1
        user = [rotate(basis, samplers.haar_rotation(basis.dim**2, rng)) for basis in gell_mann]
        expect = lambda op: np.trace(rho.data @ op).real
        for bases, record in (
            (gell_mann, loo.correlations(qstate.realign(rho))),
            (user, loo.correlations(qstate.realign(rho), *user)),
        ):
            mu, a, b = record
            obs_a, obs_b = (basis.observables for basis in bases)
            np.testing.assert_allclose(mu, [[expect(np.kron(g, h)) for h in obs_b] for g in obs_a], atol=1e-14)
            np.testing.assert_allclose(a, [expect(np.kron(g, np.eye(dims[1]))) for g in obs_a], atol=1e-14)
            np.testing.assert_allclose(b, [expect(np.kron(np.eye(dims[0]), h)) for h in obs_b], atol=1e-14)
        # Passing the Gell-Mann pair explicitly gives the default record to the bit.
        explicit = loo.correlations(qstate.realign(rho), *gell_mann)
        assert all(np.array_equal(x.view(np.uint64), y.view(np.uint64))
                   for x, y in zip(explicit, loo.correlations(qstate.realign(rho))))

    @pytest.mark.parametrize("dims", [(1, 3), (3, 1), (2, 3), (4, 3), (8, 16), (16, 16)])
    def test_gather_matches_dense_frame_product(self, dims):
        # The cached Gell-Mann pair is applied by an index gather; a copy of it is
        # not the cached object, so it takes the dense frame product.
        rng = np.random.default_rng(sum(dims) + 100)
        copies = [LOOBasis(d, loo._gell_mann(d).observables.copy()) for d in dims]
        user = [rotate(basis, samplers.haar_rotation(basis.dim**2, rng)) for basis in copies]
        states = [samplers.random_mixed_state(*dims, rng) for _ in range(2)]
        stack = qstate.realign(np.stack([rho.as_tensor() for rho in states]))
        for realigned in (qstate.realign(states[0]), stack):
            for dense_a, dense_b, sides in ((copies[0], copies[1], (None, None)),
                                            (user[0], copies[1], (user[0], None)),
                                            (copies[0], user[1], (None, user[1]))):
                for got, want in zip(loo.correlations(realigned, *sides),
                                     loo.correlations(realigned, dense_a, dense_b)):
                    assert got.shape == want.shape
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("d", range(1, 17))
    def test_gather_is_the_gell_mann_frame(self, d):
        # Row k of the frame holds c_k at p_k and c'_k at q_k, to the bit; the traces and
        # the transpose signs G_kᵀ = s_k·G_k are exact.
        basis, gather = loo._gell_mann(d), loo._gell_mann_gather(d)
        rebuilt = np.zeros((d * d, d * d), dtype=complex)
        for index, coefficients in zip(gather.index, gather.coefficients):
            rebuilt[np.arange(d * d), index] += coefficients
        assert np.array_equal(rebuilt, loo.frame(basis.observables))
        assert gather.traces.tolist() == np.trace(basis.observables, axis1=1, axis2=2).real.tolist()
        assert set(gather.signs.tolist()) <= {1.0, -1.0}
        assert np.array_equal(basis.observables.transpose(0, 2, 1), gather.signs[:, None, None] * basis.observables)

    def test_scores_take_no_frame_product(self, monkeypatch):
        # Every score reads the Gell-Mann record, which takes no dense frame product;
        # a user pair's record takes one per side.
        calls = count_calls(monkeypatch, [(loo, "frame")])
        record = spectra(samplers.random_mixed_state(2, 4, np.random.default_rng(7)))
        for name in criteria.SCORE_NAMES:
            record.score(name)
        assert calls == []
        record.in_bases(pauli_basis(), LOOBasis(4, loo._gell_mann(4).observables.copy()))
        assert calls == ["frame", "frame"]
