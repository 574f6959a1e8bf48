import numpy as np
import pytest

from loowit import criteria
from loowit.criteria import (
    Criterion,
    concurrence_lower_bounds,
    concurrence_pure,
    evaluate_all,
    max_concurrence,
    spectra,
)
from loowit.qstate import DensityMatrix, make_state
from loowit.witness import optimal_linear_min, optimal_nonlinear_min

import samplers

DIMS = [(2, 2), (2, 3), (3, 3)]


def verdict_map(rho):
    return {v.criterion: v for v in evaluate_all(rho)}


class TestVerdicts:
    def test_bell_detected_by_all_criteria(self):
        verdicts = verdict_map(make_state("bell"))
        assert all(v.detected for v in verdicts.values())
        assert verdicts[Criterion.LINEAR_OPT].score == pytest.approx(1.0, abs=1e-9)
        assert verdicts[Criterion.NONLINEAR_OPT].score == pytest.approx(1.0, abs=1e-9)

    def test_upb_state_is_ppt_but_detected(self):
        verdicts = verdict_map(make_state("upb"))
        assert not verdicts[Criterion.PPT].detected
        assert verdicts[Criterion.REALIGN].detected
        assert verdicts[Criterion.NONLINEAR_OPT].detected

    def test_random_separable_states_never_detected(self):
        rng = np.random.default_rng(51)
        for da, db in DIMS:
            for _ in range(8):
                rho = samplers.random_separable_state(da, db, rng)
                assert not any(v.detected for v in evaluate_all(rho))

    def test_detected_flag_matches_score_margin(self):
        rng = np.random.default_rng(52)
        states = [
            make_state("bell"),
            make_state("upb"),
            samplers.random_separable_state(2, 2, rng),
            samplers.random_mixed_state(3, 3, rng),
        ]
        for rho in states:
            for v in evaluate_all(rho):
                assert v.detected == (v.score > criteria.DETECTION_MARGIN)
                assert v.threshold_form

    def test_scores_lu_invariant(self):
        rng = np.random.default_rng(53)
        rho = make_state("upb_noise", 0.95)
        base = {v.criterion: v.score for v in evaluate_all(rho)}
        for _ in range(3):
            ua, ub = samplers.haar_unitary(3, rng), samplers.haar_unitary(3, rng)
            rotated = samplers.local_unitary_conjugate(rho, ua, ub)
            for v in evaluate_all(rotated):
                assert v.score == pytest.approx(base[v.criterion], abs=1e-8)


class TestSpectra:
    @pytest.mark.parametrize("rank", [1, None], ids=["rank1", "full"])
    @pytest.mark.parametrize(
        "dims", [(2, 3), (3, 2), (4, 4), (8, 16), (16, 16)], ids=lambda d: f"{d[0]}x{d[1]}"
    )
    def test_matches_optimal_witnesses(self, dims, rank):
        rng = np.random.default_rng([59, *dims, rank or 0])
        rho = samplers.random_mixed_state(*dims, rng, rank=rank)
        spec = spectra(rho)
        nonlinear = optimal_nonlinear_min(rho)
        linear_score = spec.score(Criterion.LINEAR_OPT)
        assert linear_score == pytest.approx(-optimal_linear_min(rho).value, abs=1e-12)
        assert spec.score(Criterion.NONLINEAR_OPT) == pytest.approx(-nonlinear.value, abs=1e-12)
        assert spec.l_max == pytest.approx(nonlinear.l_max, abs=1e-12)
        assert spec.score(Criterion.REALIGN) == linear_score

    def test_verdicts_and_bounds_read_the_same_record(self):
        rho = make_state("upb_noise", 0.95)
        spec = spectra(rho)
        assert evaluate_all(rho) == spec.verdicts()
        assert concurrence_lower_bounds(rho) == spec.concurrence_bounds()
        assert [v.score for v in spec.verdicts()] == [spec.score(c) for c in Criterion]

    def test_score_answers_every_name(self):
        spec = spectra(make_state("upb_noise", 0.95))
        bounds = spec.concurrence_bounds()
        assert criteria.SCORE_NAMES == tuple(c.value for c in Criterion) + (
            "bound_ppt", "bound_realign", "bound_lmax", "bound_combined")
        for name in criteria.BOUND_NAMES:
            assert spec.score(name) == getattr(bounds, name)
        # bound_lmax clamps the nonlinear_opt score, which is ℒ_max - 1 to the bit.
        assert spec.score(Criterion.NONLINEAR_OPT) == spec.l_max - 1.0
        factor = np.sqrt(2.0 / 6.0)
        assert spec.score("bound_lmax") == factor * spec.score(Criterion.NONLINEAR_OPT)
        with pytest.raises(ValueError, match="magic"):
            spec.score("magic")

    def test_detected_is_the_margin_rule(self):
        margin = criteria.DETECTION_MARGIN
        assert not criteria.detected(margin) and criteria.detected(np.nextafter(margin, 1.0))
        np.testing.assert_array_equal(criteria.detected(np.array([-1.0, margin, 1.0])), [False, False, True])

    def test_spectra_are_read_only(self):
        spec = spectra(make_state("bell"))
        with pytest.raises(ValueError):
            spec.realigned[0] = 0.0

    @pytest.mark.parametrize("dims", [(2, 3), (3, 3), (4, 4)], ids=lambda d: f"{d[0]}x{d[1]}")
    def test_stack_matches_each_state(self, dims):
        rng = np.random.default_rng([61, *dims])
        states = [samplers.random_mixed_state(*dims, rng, rank=rank) for rank in (1, 2, None)]
        states.append(samplers.random_separable_state(*dims, rng))
        stacked = spectra(np.stack([rho.as_tensor() for rho in states]))
        bounds = stacked.concurrence_bounds()
        assert stacked.realigned.shape[0] == len(states)
        assert bounds.dim_min == min(dims)
        for i, rho in enumerate(states):
            single = spectra(rho)
            for c in Criterion:
                assert stacked.score(c)[i] == pytest.approx(single.score(c), rel=0, abs=1e-12)
            assert stacked.purity_a[i] == pytest.approx(single.purity_a, rel=0, abs=1e-12)
            assert stacked.purity_b[i] == pytest.approx(single.purity_b, rel=0, abs=1e-12)
            for name in ("bound_ppt", "bound_realign", "bound_lmax", "bound_combined"):
                expected = getattr(single.concurrence_bounds(), name)
                assert getattr(bounds, name)[i] == pytest.approx(expected, rel=0, abs=1e-12)

    def test_stack_needs_equal_dims(self):
        # The last four axes of a stack must be one (d_a, d_b, d_a, d_b) tensor view.
        bell = make_state("bell")
        for malformed in (np.stack([bell.data, bell.data]), np.zeros((2, 2, 3, 3, 2)), np.zeros(0)):
            with pytest.raises(ValueError, match="tensor views"):
                spectra(malformed)


class TestConcurrencePure:
    def test_bell_state(self):
        assert concurrence_pure(make_state("bell")) == pytest.approx(1.0, abs=1e-12)

    def test_product_state(self):
        ket00 = np.zeros(4, dtype=complex)
        ket00[0] = 1.0
        assert concurrence_pure(ket00, 2, 2) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_entangled_qutrits(self):
        psi = np.zeros(9, dtype=complex)
        psi[[0, 4, 8]] = 1 / np.sqrt(3)
        assert concurrence_pure(psi, 3, 3) == pytest.approx(np.sqrt(4 / 3), abs=1e-12)
        assert max_concurrence(3) == pytest.approx(np.sqrt(4 / 3), abs=1e-15)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="norm"):
            concurrence_pure(np.ones(4), 2, 2)

    def test_projector_must_match_dims(self):
        with pytest.raises(ValueError, match=r"matrix of shape \(4, 4\) does not match dims \(2, 3\)"):
            concurrence_pure(make_state("bell").data, 2, 3)


class TestConcurrenceBounds:
    def test_upb_state_bounds(self):
        bounds = concurrence_lower_bounds(make_state("upb"))
        assert bounds.dim_min == 3
        assert bounds.bound_realign == pytest.approx(0.050, abs=1e-3)
        assert bounds.bound_lmax == pytest.approx(0.055, abs=1e-3)
        assert bounds.bound_ppt <= 1e-9
        assert bounds.bound_combined == pytest.approx(bounds.bound_lmax, abs=1e-12)

    def test_bell_ppt_bound_equals_pure_concurrence(self):
        bounds = concurrence_lower_bounds(make_state("bell"))
        assert bounds.bound_ppt == pytest.approx(1.0, abs=1e-9)
        assert bounds.bound_ppt == pytest.approx(concurrence_pure(make_state("bell")), abs=1e-9)

    def test_separable_states_have_zero_bounds(self):
        rng = np.random.default_rng(54)
        for da, db in DIMS:
            rho = samplers.random_separable_state(da, db, rng)
            bounds = concurrence_lower_bounds(rho)
            assert bounds.bound_ppt == 0.0
            assert bounds.bound_realign == 0.0
            assert bounds.bound_lmax == 0.0
            assert bounds.bound_combined == 0.0

    def test_combined_is_max_of_components(self):
        rng = np.random.default_rng(55)
        for da, db in DIMS:
            for _ in range(5):
                rho = samplers.random_mixed_state(da, db, rng)
                b = concurrence_lower_bounds(rho)
                assert b.bound_combined == pytest.approx(
                    max(b.bound_ppt, b.bound_realign, b.bound_lmax), abs=1e-12
                )

    def test_lmax_bound_dominates_realignment_bound(self):
        rng = np.random.default_rng(56)
        states = [make_state("upb"), make_state("upb_noise", 0.9), make_state("bell")]
        states += [samplers.random_mixed_state(da, db, rng) for da, db in DIMS for _ in range(5)]
        for rho in states:
            b = concurrence_lower_bounds(rho)
            assert b.bound_lmax >= b.bound_realign - 1e-9

    def test_bounds_valid_for_pure_states(self):
        rng = np.random.default_rng(57)
        for da, db in DIMS:
            for _ in range(5):
                rho = samplers.random_pure_state(da, db, rng)
                reference = concurrence_pure(rho)
                b = concurrence_lower_bounds(rho)
                for bound in (b.bound_ppt, b.bound_realign, b.bound_lmax, b.bound_combined):
                    assert bound <= reference + 1e-8

    def test_bounds_capped_by_maximal_concurrence(self):
        rng = np.random.default_rng(58)
        states = [make_state("bell"), make_state("upb")]
        states += [samplers.random_mixed_state(da, db, rng) for da, db in DIMS for _ in range(5)]
        for rho in states:
            b = concurrence_lower_bounds(rho)
            cap = max_concurrence(b.dim_min)
            assert b.bound_combined <= cap + 1e-9

    def test_requires_min_dimension_two(self):
        rho = DensityMatrix(1, 3, np.eye(3) / 3)
        with pytest.raises(ValueError, match="min dim"):
            concurrence_lower_bounds(rho)
