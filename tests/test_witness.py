import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loowit import qstate
from loowit.criteria import spectra
from loowit.loo import LOOBasis, gell_mann_basis, pauli_basis, rotate, transpose_basis
from loowit.qstate import DensityMatrix, make_state, realign, trace_norm
from loowit.witness import (
    linear_witness_value,
    lmax_pure,
    nonlinear_witness_value,
    optimal_linear_min,
    optimal_nonlinear_min,
    optimum_bracket,
)

import oracles
import samplers
from samplers import correlation_matrix, covariance_matrix

DIMS = [(2, 2), (2, 3), (3, 3), (3, 2)]
BASIS_FUNCTIONS = [correlation_matrix, covariance_matrix, linear_witness_value, nonlinear_witness_value]


def flipped_pauli():
    return rotate(pauli_basis(), np.diag([1.0, -1.0, 1.0, 1.0]))


class TestCorrelationMatrix:
    def test_bell_in_pauli_bases_is_diagonal(self):
        data = correlation_matrix(make_state("bell"), pauli_basis(), pauli_basis())
        np.testing.assert_allclose(data, np.diag([0.5, -0.5, 0.5, 0.5]), atol=1e-12)
        assert trace_norm(data) == pytest.approx(2.0, abs=1e-12)

    def test_maximally_mixed_single_entry(self):
        rho = DensityMatrix(2, 2, np.eye(4) / 4)
        data = correlation_matrix(rho, pauli_basis(), pauli_basis())
        expected = np.zeros((4, 4))
        expected[3, 3] = 0.5  # identity/sqrt(2) on both sides
        np.testing.assert_allclose(data, expected, atol=1e-12)

    def test_singular_value_sum_invariant_under_rotation(self):
        rng = np.random.default_rng(31)
        rho = samplers.random_mixed_state(2, 2, rng)
        base = trace_norm(correlation_matrix(rho, pauli_basis(), pauli_basis()))
        rotated_a = rotate(pauli_basis(), samplers.haar_rotation(4, rng))
        rotated_b = rotate(pauli_basis(), samplers.haar_rotation(4, rng))
        other = trace_norm(correlation_matrix(rho, rotated_a, rotated_b))
        assert other == pytest.approx(base, abs=1e-9)

    def test_state_expansion_reconstructs_rho(self):
        rng = np.random.default_rng(32)
        for da, db in DIMS:
            rho = samplers.random_mixed_state(da, db, rng)
            ba, bb = gell_mann_basis(da), gell_mann_basis(db)
            mu = correlation_matrix(rho, ba, bb)
            rebuilt = np.einsum("lm,lij,mkn->ikjn", mu, ba.observables, bb.observables)
            rebuilt = rebuilt.reshape(da * db, da * db)
            assert np.abs(rebuilt - rho.data).max() < 1e-8

    @pytest.mark.parametrize("function", BASIS_FUNCTIONS, ids=lambda f: f.__name__)
    def test_dimension_mismatch_rejected(self, function):
        with pytest.raises(ValueError, match="do not match"):
            function(make_state("upb"), pauli_basis(), gell_mann_basis(3))

    @pytest.mark.parametrize("function", BASIS_FUNCTIONS, ids=lambda f: f.__name__)
    def test_non_hermitian_basis_rejected(self, function):
        # iG_0 is anti-Hermitian, so the real parts the witness values keep
        # are not its expectations.
        observables = gell_mann_basis(3).observables.copy()
        observables[0] *= 1j
        with pytest.raises(ValueError, match=r"basis is not Hermitian: max \|G_k - G_k\^dagger\| = 1.41"):
            function(make_state("upb_noise", 0.9), LOOBasis(3, observables), gell_mann_basis(3))

    @pytest.mark.parametrize("function", BASIS_FUNCTIONS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("d", [2, 4, 16])
    def test_state_hermitian_within_tolerance_is_answered(self, function, d):
        # A state that validate accepts, off Hermitian by 0.98e-10 in every
        # off-diagonal entry, gets the values of its Hermitian part.
        rho = samplers.random_mixed_state(d, d, np.random.default_rng(d))
        skew = np.full((d * d, d * d), 0.49e-10j)
        np.fill_diagonal(skew, 0.0)
        perturbed = DensityMatrix(d, d, rho.data + skew)
        assert qstate.validate(perturbed) == []
        basis = gell_mann_basis(d)
        expected = function(rho, basis, basis)
        np.testing.assert_allclose(function(perturbed, basis, basis), expected, rtol=0, atol=1e-12)


class TestLinearWitness:
    def test_bell_pauli_pauli_is_zero(self):
        value = linear_witness_value(make_state("bell"), pauli_basis(), pauli_basis())
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_bell_pauli_flipped_is_minus_one(self):
        value = linear_witness_value(make_state("bell"), pauli_basis(), flipped_pauli())
        assert value == pytest.approx(-1.0, abs=1e-12)

    def test_noisy_singlet_fixed_bases_closed_form(self):
        # with {-x,-y,-z,I}/sqrt2 against {x,y,z,I}/sqrt2 the value is 2/3 - 5p/3,
        # crossing zero at p = 0.4
        basis_a = rotate(pauli_basis(), np.diag([-1.0, -1.0, -1.0, 1.0]))
        basis_b = pauli_basis()
        for p in np.linspace(0.0, 1.0, 11):
            value = linear_witness_value(make_state("noisy_singlet", p), basis_a, basis_b)
            assert value == pytest.approx(2 / 3 - 5 * p / 3, abs=1e-12)
        below = linear_witness_value(make_state("noisy_singlet", 0.39), basis_a, basis_b)
        above = linear_witness_value(make_state("noisy_singlet", 0.41), basis_a, basis_b)
        assert below > 0 > above


class TestOptimalLinear:
    def test_bell_minimum(self):
        result = optimal_linear_min(make_state("bell"))
        assert result.value == pytest.approx(-1.0, abs=1e-12)

    def test_maximally_mixed_minimum(self):
        rho = DensityMatrix(2, 2, np.eye(4) / 4)
        assert optimal_linear_min(rho).value == pytest.approx(0.5, abs=1e-12)

    def test_noisy_singlet_detection_region(self):
        assert optimal_linear_min(make_state("noisy_singlet", 0.28)).value > 0
        assert optimal_linear_min(make_state("noisy_singlet", 0.31)).value < 0

    def test_reevaluation_at_optimal_bases(self):
        rng = np.random.default_rng(34)
        for da, db in DIMS:
            rho = samplers.random_mixed_state(da, db, rng)
            result = optimal_linear_min(rho)
            again = linear_witness_value(rho, result.basis_a, result.basis_b)
            assert again == pytest.approx(result.value, abs=1e-9)


class TestCovarianceMatrix:
    def test_product_state_vanishes(self):
        rng = np.random.default_rng(35)
        rho_a = qstate.partial_trace(samplers.random_mixed_state(2, 2, rng), "B")
        rho_b = qstate.partial_trace(samplers.random_mixed_state(3, 3, rng), "B")
        rho = DensityMatrix(2, 3, np.kron(rho_a, rho_b))
        data = covariance_matrix(rho, gell_mann_basis(2), gell_mann_basis(3))
        assert np.abs(data).max() < 1e-10

    def test_bell_block_structure(self):
        basis_a = gell_mann_basis(2)
        basis_b = transpose_basis(basis_a)
        data = covariance_matrix(make_state("bell"), basis_a, basis_b)
        expected = np.array(
            [
                [0.5, 0.0, 0.0, 0.0],
                [0.0, 0.5, 0.0, 0.0],
                [0.0, 0.0, 0.25, -0.25],
                [0.0, 0.0, -0.25, 0.25],
            ]
        )
        np.testing.assert_allclose(data, expected, atol=1e-12)
        assert trace_norm(data) == pytest.approx(1.5, abs=1e-12)

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (3, 3)])
    def test_matches_explicit_expectations(self, dims):
        # τ = μ - a·bᵀ with every term an explicit Tr(ρ · G^A ⊗ G^B) product
        da, db = dims
        rng = np.random.default_rng(45 + 10 * da + db)
        rho = samplers.random_mixed_state(da, db, rng)
        basis_a = rotate(gell_mann_basis(da), samplers.haar_rotation(da * da, rng))
        basis_b = rotate(gell_mann_basis(db), samplers.haar_rotation(db * db, rng))
        id_a, id_b = np.eye(da), np.eye(db)
        mu = np.array([[np.trace(rho.data @ np.kron(ga, gb)).real for gb in basis_b] for ga in basis_a])
        a = np.array([np.trace(rho.data @ np.kron(ga, id_b)).real for ga in basis_a])
        b = np.array([np.trace(rho.data @ np.kron(id_a, gb)).real for gb in basis_b])
        tau = covariance_matrix(rho, basis_a, basis_b)
        assert np.abs(tau - (mu - np.outer(a, b))).max() < 1e-12


class TestNonlinearWitness:
    def test_bell_pauli_pauli_is_zero(self):
        value = nonlinear_witness_value(make_state("bell"), pauli_basis(), pauli_basis())
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_bell_pauli_flipped_is_minus_one(self):
        value = nonlinear_witness_value(make_state("bell"), pauli_basis(), flipped_pauli())
        assert value == pytest.approx(-1.0, abs=1e-12)

    def test_pure_product_with_standard_bases(self):
        ket00 = np.zeros(4, dtype=complex)
        ket00[0] = 1.0
        rho = qstate.pure_state(ket00, 2, 2)
        basis_a = gell_mann_basis(2)
        basis_b = gell_mann_basis(2)
        assert nonlinear_witness_value(rho, basis_a, basis_b) == pytest.approx(0.0, abs=1e-12)
        # direct evaluation of the defining expression
        direct = 1.0
        for ga, gb in zip(basis_a, basis_b):
            direct -= np.trace(rho.data @ np.kron(ga, gb)).real
            diff = (
                np.trace(rho.data @ np.kron(ga, np.eye(2))).real
                - np.trace(rho.data @ np.kron(np.eye(2), gb)).real
            )
            direct -= 0.5 * diff**2
        assert nonlinear_witness_value(rho, basis_a, basis_b) == pytest.approx(direct, abs=1e-12)


class TestOptimalNonlinear:
    def test_bell_minimum_and_lmax(self):
        result = optimal_nonlinear_min(make_state("bell"))
        assert result.value == pytest.approx(-1.0, abs=1e-12)
        assert result.l_max == pytest.approx(2.0, abs=1e-12)

    def test_pure_product_states_give_zero(self):
        rng = np.random.default_rng(36)
        for da, db in DIMS:
            rho = samplers.random_product_state(da, db, rng)
            result = optimal_nonlinear_min(rho)
            assert result.value == pytest.approx(0.0, abs=1e-10)

    def test_upb_noise_detection_region(self):
        upb = make_state("upb")
        detected = optimal_nonlinear_min(qstate.white_noise_mixture(upb, 0.89)).value
        missed = optimal_nonlinear_min(qstate.white_noise_mixture(upb, 0.87)).value
        assert detected < 0 < missed

    def test_reevaluation_at_optimal_bases(self):
        rng = np.random.default_rng(37)
        for da, db in DIMS:
            rho = samplers.random_mixed_state(da, db, rng)
            result = optimal_nonlinear_min(rho)
            again = nonlinear_witness_value(rho, result.basis_a, result.basis_b)
            assert again == pytest.approx(result.value, abs=1e-9)


class TestLmaxPure:
    def test_bell_coefficients(self):
        assert lmax_pure([1 / np.sqrt(2)] * 2) == pytest.approx(2.0, abs=1e-12)

    def test_product_coefficients(self):
        assert lmax_pure([1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=5)
    )
    def test_matches_pairwise_expansion(self, weights):
        mu = np.asarray(weights) / np.sum(weights)
        c = np.sqrt(mu)
        expansion = float(np.sum(mu**2))
        for m in range(len(mu)):
            for n in range(m + 1, len(mu)):
                expansion += 2 * np.sqrt(mu[m] * mu[n]) + 2 * mu[m] * mu[n]
        assert lmax_pure(c) == pytest.approx(expansion, abs=1e-10)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sum to 1"):
            lmax_pure([1.0, 1.0])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            lmax_pure([-0.6, 0.8])

    @pytest.mark.parametrize("coefficients", [[np.nan, 1.0], [np.nan], [np.inf, 0.0]])
    def test_rejects_non_finite(self, coefficients):
        with pytest.raises(ValueError, match="sum to 1"):
            lmax_pure(coefficients)


class TestInvariantsAndProperties:
    def test_local_unitary_invariance_of_optima(self):
        rng = np.random.default_rng(38)
        for da, db in DIMS:
            rho = samplers.random_mixed_state(da, db, rng)
            lin = optimal_linear_min(rho).value
            non = optimal_nonlinear_min(rho).value
            for _ in range(3):
                ua, ub = samplers.haar_unitary(da, rng), samplers.haar_unitary(db, rng)
                rotated = samplers.local_unitary_conjugate(rho, ua, ub)
                assert optimal_linear_min(rotated).value == pytest.approx(lin, abs=1e-8)
                assert optimal_nonlinear_min(rotated).value == pytest.approx(non, abs=1e-8)

    def test_singular_value_sums_independent_of_starting_bases(self):
        rng = np.random.default_rng(39)
        rho = samplers.random_mixed_state(2, 2, rng)
        pairs = [
            (gell_mann_basis(2), gell_mann_basis(2)),
            (pauli_basis(), pauli_basis()),
            (rotate(pauli_basis(), samplers.haar_rotation(4, rng)), gell_mann_basis(2)),
        ]
        mu_sums = [trace_norm(correlation_matrix(rho, a, b)) for a, b in pairs]
        tau_sums = [trace_norm(covariance_matrix(rho, a, b)) for a, b in pairs]
        for total in mu_sums[1:]:
            assert total == pytest.approx(mu_sums[0], abs=1e-9)
        for total in tau_sums[1:]:
            assert total == pytest.approx(tau_sums[0], abs=1e-9)

    def test_realignment_equivalence(self):
        rng = np.random.default_rng(40)
        for da, db in DIMS:
            for _ in range(5):
                rho = samplers.random_mixed_state(da, db, rng)
                mu_sum = trace_norm(correlation_matrix(rho, gell_mann_basis(da), gell_mann_basis(db)))
                assert mu_sum == pytest.approx(trace_norm(realign(rho)), abs=1e-8)

    def test_sampled_rotations_never_beat_closed_form(self):
        rng = np.random.default_rng(41)
        rho = samplers.random_mixed_state(2, 3, rng)
        mu = correlation_matrix(rho, gell_mann_basis(2), gell_mann_basis(3))
        tau = covariance_matrix(rho, gell_mann_basis(2), gell_mann_basis(3))
        for data in (mu, tau):
            assert oracles.sampled_max_trace(data, 1000, seed=42) <= trace_norm(data) + 1e-9

    def test_rectangular_padding_leaves_singular_values(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            rho = samplers.random_mixed_state(2, 3, rng)
            for maker in (correlation_matrix, covariance_matrix):
                data = maker(rho, gell_mann_basis(2), gell_mann_basis(3))
                padded = np.vstack([data, np.zeros((5, 9))])
                padded_sum = np.linalg.svd(padded, compute_uv=False).sum()
                assert padded_sum == pytest.approx(trace_norm(data), abs=1e-10)

    def test_pure_state_lmax_matches_schmidt_formula(self):
        rng = np.random.default_rng(43)
        for da, db in DIMS:
            for _ in range(5):
                rho = samplers.random_pure_state(da, db, rng)
                dec = qstate.schmidt(rho)
                assert optimal_nonlinear_min(rho).l_max == pytest.approx(
                    lmax_pure(dec.coefficients), abs=1e-8
                )

    def test_nonlinear_min_never_exceeds_linear_min(self):
        rng = np.random.default_rng(44)
        for da, db in DIMS:
            for _ in range(10):
                rho = samplers.random_mixed_state(da, db, rng)
                non = optimal_nonlinear_min(rho).value
                lin = optimal_linear_min(rho).value
                assert non <= lin + 1e-9


def swap_first_two(m: np.ndarray, axis: int) -> np.ndarray:
    order = [1, 0, *range(2, m.shape[axis])]
    return m[:, order] if axis == 1 else m[order]


class TestOptimumBracket:
    """Von Neumann's trace inequality at the bases that come with each optimum."""

    @pytest.mark.parametrize("rank", [1, 2, None], ids=["rank1", "rank2", "full"])
    @pytest.mark.parametrize(
        "dims", [(2, 2), (3, 3), (4, 4), (8, 8), (12, 12), (16, 16), (3, 5), (2, 16)], ids=lambda d: f"{d[0]}x{d[1]}"
    )
    def test_emitted_bases_certified(self, dims, rank):
        rho = samplers.random_mixed_state(*dims, np.random.default_rng(sum(dims)), rank=rank)
        record = spectra(rho)
        for kind, matrix in (("linear", record.correlations[0]), ("nonlinear", record.tau)):
            analytic, basis_a, basis_b = record.optimum(kind)
            lower, upper, certified = optimum_bracket(record, kind, analytic, basis_a, basis_b)
            assert certified, (kind, analytic, lower, upper)
            assert analytic == pytest.approx(trace_norm(matrix), rel=0, abs=1e-12)

    @pytest.mark.parametrize("change", ["swap_u_columns", "swap_vt_rows", "tilt_u"])
    @pytest.mark.parametrize("dims", [(2, 2), (3, 5), (16, 16)], ids=lambda d: f"{d[0]}x{d[1]}")
    def test_perturbed_rotation_fails(self, dims, change):
        # The bases of Spectra.optimum, rebuilt from the same SVD, certify; a
        # swap of two singular vectors, or a 1e-6 rad turn between two, does not.
        rho = samplers.random_mixed_state(*dims, np.random.default_rng(7))
        record = spectra(rho)
        for kind, matrix in (("linear", record.correlations[0]), ("nonlinear", record.tau)):
            u, s, vt = np.linalg.svd(matrix)
            bases = [rotate(gell_mann_basis(dims[0]), u.T), rotate(gell_mann_basis(dims[1]), vt)]
            assert optimum_bracket(record, kind, s.sum(), *bases)[2]
            if change == "swap_u_columns":
                u = swap_first_two(u, axis=1)
            elif change == "swap_vt_rows":
                vt = swap_first_two(vt, axis=0)
            else:
                turn = np.eye(len(u))
                turn[:2, :2] = [[np.cos(1e-6), -np.sin(1e-6)], [np.sin(1e-6), np.cos(1e-6)]]
                u = u @ turn
            bases = [rotate(gell_mann_basis(dims[0]), u.T), rotate(gell_mann_basis(dims[1]), vt)]
            assert not optimum_bracket(record, kind, s.sum(), *bases)[2]

    def test_wrong_analytic_value_fails(self):
        record = spectra(samplers.random_mixed_state(3, 3, np.random.default_rng(8)))
        analytic, basis_a, basis_b = record.optimum("linear")
        assert optimum_bracket(record, "linear", analytic, basis_a, basis_b)[2]
        assert not optimum_bracket(record, "linear", analytic * (1 + 1e-9), basis_a, basis_b)[2]
        assert not optimum_bracket(record, "linear", analytic * (1 - 1e-9), basis_a, basis_b)[2]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            optimum_bracket(spectra(make_state("bell")), "mu", 2.0, pauli_basis(), pauli_basis())
