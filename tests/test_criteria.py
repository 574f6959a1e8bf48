import re

import numpy as np
import pytest

from loowit import criteria, qstate
from loowit.criteria import (
    THRESHOLD_FORMS,
    concurrence_pure,
    detected,
    optimum_bracket,
    spectra,
)
from loowit.loo import LOOBasis, gell_mann_basis, pauli_basis, rotate
from loowit.qstate import DensityMatrix, make_state, schmidt

import oracles
import samplers
from counting import count_calls

DIMS = [(2, 2), (2, 3), (3, 3)]
BOUND_NAMES = ("bound_ppt", "bound_realign", "bound_lmax", "bound_combined")


def criterion_scores(rho):
    spec = spectra(rho)
    return {name: spec.score(name) for name in THRESHOLD_FORMS}


def bounds(rho):
    spec = spectra(rho)
    return {name: spec.score(name) for name in BOUND_NAMES}


class TestVerdicts:
    def test_bell_detected_by_all_criteria(self):
        scores = criterion_scores(make_state("bell"))
        assert all(detected(s) for s in scores.values())
        assert scores["linear_opt"] == pytest.approx(1.0, abs=1e-9)
        assert scores["nonlinear_opt"] == pytest.approx(1.0, abs=1e-9)

    def test_upb_state_is_ppt_but_detected(self):
        scores = criterion_scores(make_state("upb"))
        assert not detected(scores["ppt"])
        assert detected(scores["realign"])
        assert detected(scores["nonlinear_opt"])

    def test_random_separable_states_never_detected(self):
        rng = np.random.default_rng(51)
        for da, db in DIMS:
            for _ in range(8):
                rho = samplers.random_separable_state(da, db, rng)
                assert not any(detected(s) for s in criterion_scores(rho).values())

    def test_detected_flag_matches_score_margin(self):
        rng = np.random.default_rng(52)
        states = [
            make_state("bell"),
            make_state("upb"),
            samplers.random_separable_state(2, 2, rng),
            samplers.random_mixed_state(3, 3, rng),
        ]
        for rho in states:
            for name, score in criterion_scores(rho).items():
                assert detected(score) == (score > criteria.DETECTION_MARGIN)
                assert THRESHOLD_FORMS[name]

    def test_scores_lu_invariant(self):
        rng = np.random.default_rng(53)
        rho = make_state("upb_noise", 0.95)
        base = criterion_scores(rho)
        for _ in range(3):
            ua, ub = samplers.haar_unitary(3, rng), samplers.haar_unitary(3, rng)
            rotated = samplers.local_unitary_conjugate(rho, ua, ub)
            for name, score in criterion_scores(rotated).items():
                assert score == pytest.approx(base[name], abs=1e-8)


def slack_state(d, twin=False):
    """|00⟩⟨00| + ε·Σ|ij⟩⟨ji| over i ≠ j with i, j ≥ 1, ε = 0.99e-9: its
    smallest eigenvalue, -ε, is inside the state check's PSD tolerance.  The twin is
    (ρ + ε·I)/Tr, a PPT state within the same slack."""
    eps, n = 0.99e-9, d * d
    m = np.zeros((n, n), dtype=complex)
    m[0, 0] = 1.0
    for i in range(1, d):
        for j in range(1, d):
            if i != j:
                m[i * d + j, j * d + i] = eps
    if twin:
        m = (m + eps * np.eye(n)) / (1.0 + n * eps)
    return DensityMatrix(d, d, m)


class TestToleranceSlack:
    """ROADMAP item 1: a verdict that the validation tolerance can flip."""

    @pytest.mark.parametrize("d", [4, 8, 16])
    def test_slack_state_is_valid_and_its_twin_undetected(self, d):
        spectra(slack_state(d))  # raises on a non-state
        scores = criterion_scores(slack_state(d, twin=True))
        assert not any(detected(score) for score in scores.values()), scores

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    @pytest.mark.parametrize("d", [4, 8, 16])
    def test_slack_state_is_not_detected(self, d):
        scores = criterion_scores(slack_state(d))
        assert not any(detected(score) for score in scores.values()), scores

    @pytest.mark.parametrize("d", [2, pytest.param(8, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1")),
                                   pytest.param(16, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1"))])
    def test_slack_bases_do_not_detect_a_product_state(self, d):
        # The basis side of the same slack: LOOBasis forgives Tr(G_k G_k) up to
        # 1 + tol, tol = (1 + d·h)² - 1 + 2d²ε ≈ 2d·1e-10, so the optimal bases of
        # |00⟩ scaled by √(1 + 0.9·tol) on both sides still build, and both witness
        # values read -0.9·tol: -3.6e-10 at 2×2, -1.44e-9 at 8×8, -2.88e-9 at 16×16.
        tol = (1 + d * qstate.HERMITICITY_TOL) ** 2 - 1 + 2 * d**2 * np.finfo(float).eps
        rho = qstate.pure_state(np.eye(d * d)[0], d, d)
        record = spectra(rho)
        for kind in ("linear", "nonlinear"):
            _, basis_a, basis_b = record.optimum(kind)
            scaled = [LOOBasis(d, basis.observables * np.sqrt(1 + 0.9 * tol)) for basis in (basis_a, basis_b)]
            assert not detected(-record.witness_value(kind, *scaled)), kind


class TestSpectra:
    @pytest.mark.parametrize("rank", [1, None], ids=["rank1", "full"])
    @pytest.mark.parametrize(
        "dims", [(2, 3), (3, 2), (4, 4), (8, 16), (16, 16)], ids=lambda d: f"{d[0]}x{d[1]}"
    )
    def test_matches_optimal_witnesses(self, dims, rank):
        rng = np.random.default_rng([59, *dims, rank or 0])
        rho = samplers.random_mixed_state(*dims, rng, rank=rank)
        # The values-only SVDs against the Σσ of the full SVDs that give the optimal bases.
        spec = spectra(rho)
        linear_sum, nonlinear_sum = (spec.optimum(kind)[0] for kind in ("linear", "nonlinear"))
        l_max = nonlinear_sum + (spec.purity_a + spec.purity_b) / 2.0
        linear_score = spec.score("linear_opt")
        assert linear_score == pytest.approx(linear_sum - 1.0, abs=1e-12)
        assert spec.score("nonlinear_opt") == pytest.approx(l_max - 1.0, abs=1e-12)
        assert spec.l_max == pytest.approx(l_max, abs=1e-12)
        assert spec.score("realign") == linear_score

    def test_score_answers_every_name(self):
        spec = spectra(make_state("upb_noise", 0.95))
        assert criteria.SCORE_NAMES == ("ppt", "realign", "linear_opt", "nonlinear_opt") + BOUND_NAMES
        assert criteria.BOUND_NAMES == BOUND_NAMES
        assert all(isinstance(spec.score(name), float) for name in criteria.SCORE_NAMES)
        # bound_lmax clamps the nonlinear_opt score, which is ℒ_max - 1 to the bit.
        assert spec.score("nonlinear_opt") == spec.l_max - 1.0
        factor = np.sqrt(2.0 / 6.0)
        assert spec.score("bound_lmax") == factor * spec.score("nonlinear_opt")
        known = ", ".join(criteria.SCORE_NAMES)
        for name in ("magic", "nope", "PPT", "dim_min"):
            with pytest.raises(ValueError, match=f"^unknown score name '{name}'; known: {known}$"):
                spec.score(name)

    def test_detected_is_the_margin_rule(self):
        margin = criteria.DETECTION_MARGIN
        assert not criteria.detected(margin) and criteria.detected(np.nextafter(margin, 1.0))
        np.testing.assert_array_equal(criteria.detected(np.array([-1.0, margin, 1.0])), [False, False, True])

    def test_spectra_are_read_only(self):
        # The record (μ, a, b) and τ too, of a state and of a mixture, and every
        # minimum, score and bound of a stack and of a mixture at two p: the
        # negated scores, nonlinear_min and the bounds used to come back writable.
        bell = make_state("bell")
        stack = spectra(np.stack([bell.as_tensor()] * 2))
        for spec in (spectra(bell), stack.mixed(0.5)):
            for array in (spec.realigned, *spec.correlations, spec.tau):
                with pytest.raises(ValueError):
                    array[0] = 0.0
        for batch in (stack, spectra(np.stack([make_state("upb").as_tensor()] * 2)).mixed([0.2, 0.7])):
            answers = {"linear_min": batch.linear_min, "l_max": batch.l_max, "nonlinear_min": batch.nonlinear_min,
                       **{name: batch.score(name) for name in criteria.SCORE_NAMES}}
            assert [name for name, array in answers.items() if array.flags.writeable] == []

    def test_optimum_reads_the_record(self):
        spec = spectra(make_state("upb"))
        sigma_sum, _, _ = spec.optimum("nonlinear")
        assert sigma_sum == pytest.approx(spec.covariance.sum(), rel=0, abs=1e-12)
        with pytest.raises(ValueError, match="kind must be 'linear' or 'nonlinear'"):
            spec.optimum("covariance")

    @pytest.mark.parametrize("kind", ["linear", "nonlinear"])
    @pytest.mark.parametrize("batch", ["stack", "mixed_at_two_p"])
    def test_optimum_needs_one_state(self, batch, kind, monkeypatch):
        # Both used to take a full batched SVD and then fail inside loo.rotate.
        bell = make_state("bell")
        pair = spectra(np.stack([bell.as_tensor()] * 2))
        record = pair if batch == "stack" else pair.mixed([0.2, 0.5])
        single = (spectra(bell), pair.mixed(0.2))
        monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: pytest.fail("a decomposition ran"))
        with pytest.raises(ValueError, match=r"optimum needs the record of one state, got a batch of shape \(2,\)"):
            record.optimum(kind)
        monkeypatch.undo()
        for spec in single:
            sigma_sum, _, _ = spec.optimum(kind)
            assert sigma_sum == pytest.approx(spec.realigned.sum() if kind == "linear" else spec.covariance.sum())

    def test_one_state_answers_need_one_state(self):
        # On a stack optimum_bracket used to return (0.5, 2.08, False), and the
        # witness values failed with numpy's TypeError or a broadcast error.
        pauli, stack = pauli_basis(), np.stack([make_state("bell").as_tensor()] * 2)
        pair = spectra(stack)
        answers = []
        for record in (pair, pair.mixed([0.2, 0.5])):
            for kind in ("linear", "nonlinear"):
                answers += [("witness_value", lambda r=record, k=kind: r.witness_value(k, pauli, pauli)),
                            ("optimum_bracket", lambda r=record, k=kind: optimum_bracket(r, k, 1.0, pauli, pauli))]
        for name, answer in answers:
            message = rf"^{name} needs the record of one state, got a batch of shape \(2,\)$"
            with pytest.raises(ValueError, match=message):
                answer()

    def test_witness_values_of_many_pairs_take_one_state_check(self, monkeypatch):
        # A value per pair used to build its own record, and so repeat the state
        # check's eigensolve on every call.
        calls = count_calls(monkeypatch, [(criteria.np.linalg, "eigvalsh")])
        pauli = pauli_basis()
        flipped = rotate(pauli, np.diag([1.0, -1.0, 1.0, 1.0]))
        record = spectra(make_state("bell"))
        values = [record.witness_value(kind, pauli, basis_b)
                  for kind, basis_b in (("linear", pauli), ("nonlinear", pauli), ("linear", flipped))]
        assert calls == ["eigvalsh"]
        np.testing.assert_allclose(values, [0.0, 0.0, -1.0], rtol=0, atol=1e-12)
        with pytest.raises(ValueError, match="^kind must be 'linear' or 'nonlinear', got 'mu'$"):
            record.witness_value("mu", pauli, pauli)
        # A mixture at one p is one state, read from its endpoints' pairs.
        rng = np.random.default_rng(63)
        rho, sigma = samplers.random_mixed_state(2, 3, rng), samplers.random_mixed_state(2, 3, rng)
        mixed = spectra(np.stack([rho.as_tensor(), sigma.as_tensor()])).mixed(0.3)
        direct = spectra(qstate.mixture(rho, sigma, 0.3))
        basis_a, basis_b = gell_mann_basis(2), rotate(gell_mann_basis(3), samplers.haar_rotation(9, rng))
        for kind in ("linear", "nonlinear"):
            assert mixed.witness_value(kind, basis_a, basis_b) == pytest.approx(
                direct.witness_value(kind, basis_a, basis_b), rel=0, abs=1e-12)

    @pytest.mark.parametrize("dims", [(2, 3), (3, 3), (4, 4)], ids=lambda d: f"{d[0]}x{d[1]}")
    def test_stack_matches_each_state(self, dims):
        rng = np.random.default_rng([61, *dims])
        states = [samplers.random_mixed_state(*dims, rng, rank=rank) for rank in (1, 2, None)]
        states.append(samplers.random_separable_state(*dims, rng))
        stacked = spectra(np.stack([rho.as_tensor() for rho in states]))
        assert stacked.realigned.shape[0] == len(states)
        assert min(stacked.dim_a, stacked.dim_b) == min(dims)
        for i, rho in enumerate(states):
            single = spectra(rho)
            for name in criteria.SCORE_NAMES:
                assert stacked.score(name)[i] == pytest.approx(single.score(name), rel=0, abs=1e-12)
            assert stacked.purity_a[i] == pytest.approx(single.purity_a, rel=0, abs=1e-12)
            assert stacked.purity_b[i] == pytest.approx(single.purity_b, rel=0, abs=1e-12)

    def test_spectra_are_isolated_from_their_input(self):
        rng = np.random.default_rng(62)
        states = [samplers.random_mixed_state(3, 4, rng) for _ in range(3)]
        stack = np.stack([rho.as_tensor() for rho in states])
        untouched = spectra(stack.copy())
        spec = spectra(stack)
        stack[...] = 0.0
        for name in criteria.SCORE_NAMES:
            np.testing.assert_array_equal(spec.score(name), untouched.score(name))

    def test_mixed_matches_each_mixture(self):
        rng = np.random.default_rng(63)
        rho_1, rho_2 = samplers.random_mixed_state(3, 4, rng, rank=2), samplers.random_separable_state(3, 4, rng)
        endpoints = spectra(np.stack([rho_1.as_tensor(), rho_2.as_tensor()]))
        ps = [1.0, 0.7, 0.3, 0.0]
        mixed = endpoints.mixed(ps)
        for name in criteria.SCORE_NAMES:
            # At p = 1 and p = 0 a mix is the endpoint's own array, to the bit.
            np.testing.assert_array_equal(mixed.score(name)[[0, 3]], endpoints.score(name))
            for i, p in enumerate(ps):
                single = spectra(qstate.mixture(rho_1, rho_2, p)).score(name)
                assert mixed.score(name)[i] == pytest.approx(single, rel=0, abs=1e-12)
                assert endpoints.mixed(p).score(name) == mixed.score(name)[i]
        assert isinstance(endpoints.mixed(0.5).purity_a, float)
        # A scalar p mixes to the bit as it does in a sequence, for every score:
        # p·x₁ + (1-p)·x₂ is the same IEEE arithmetic either way.
        for dims in ((2, 2), (3, 3), (2, 4), (3, 4)):
            rho_1, rho_2 = samplers.random_mixed_state(*dims, rng, rank=2), samplers.random_separable_state(*dims, rng)
            endpoints = spectra(np.stack([rho_1.as_tensor(), rho_2.as_tensor()]))
            ps = [0.0, 1.0, *rng.uniform(0.0, 1.0, 20).tolist()]
            mixed = endpoints.mixed(ps)
            for name in criteria.SCORE_NAMES:
                singles = [endpoints.mixed(p).score(name) for p in ps]
                assert all(type(single) is float for single in singles), (dims, name)
                assert np.array(singles).tobytes() == mixed.score(name).tobytes(), (dims, name)

    def test_mixed_needs_a_record_of_two_states(self):
        bell = make_state("bell")
        pair = spectra(np.stack([bell.as_tensor()] * 2))
        for record in (spectra(bell), spectra(np.stack([bell.as_tensor()] * 3)), pair.mixed(0.5), pair.mixed([0.5])):
            with pytest.raises(ValueError, match="two states"):
                record.mixed([0.5])

    @pytest.mark.parametrize("ps", [[-0.2], [1.5], [0.5, np.nan], np.nan, True, [True],
                                    *(pytest.param(p, id=f"scalar_{label}") for p, label in (
                                        (-0.2, "negative"), (1.5, "above_one"), (float("nan"), "float_nan"),
                                        (np.float64("nan"), "float64_nan"), (0.5 + 0j, "complex"),
                                        ("0.5", "str"), (None, "None"))),
                                    # np.asarray turns a bool beside a float into 1.0
                                    pytest.param([0.5, True], id="bool_beside_float"),
                                    pytest.param((0.5, np.bool_(True)), id="numpy_bool_beside_float"),
                                    pytest.param([[0.5], [np.array(True)]], id="bool_array_beside_float")])
    def test_mixed_needs_each_p_in_the_unit_interval(self, ps):
        # p = -0.2 or 1.5 used to give the scores of a non-state, NaN a LinAlgError,
        # and a bool beside a float the scores at p = 1.
        bell = make_state("bell")
        pair = spectra(np.stack([bell.as_tensor(), qstate.white_noise_mixture(bell, 0.0).as_tensor()]))
        with pytest.raises(ValueError, match=r"mixing parameter must be a number in \[0, 1\]"):
            pair.mixed(ps)
        assert pair.mixed([0.0, 1.0]).purity_a.tolist() == [pair.purity_a[1], pair.purity_a[0]]
        assert pair.mixed([]).score("realign").shape == (0,)

    # Calls each score makes of np.linalg.svd, np.linalg.eigvalsh and loo.correlations,
    # after the one eigvalsh with which spectra checks its state or stack.
    DECOMPOSITIONS = {
        "ppt": (0, 1, 0),
        "realign": (1, 0, 1),
        "linear_opt": (1, 0, 1),
        "nonlinear_opt": (1, 0, 1),
        "bound_ppt": (0, 1, 0),
        "bound_realign": (1, 0, 1),
        "bound_lmax": (1, 0, 1),
        "bound_combined": (2, 1, 1),
    }

    @pytest.mark.parametrize("form", ["state", "stack", "mixed", "mixed_at_one_p"],
                             ids=["state", "stack", "mixed", "mixed_at_one_p"])
    def test_each_score_takes_only_its_decompositions(self, monkeypatch, form):
        kinds = ("svd", "eigvalsh", "correlations")
        calls = count_calls(monkeypatch, zip((criteria.np.linalg, criteria.np.linalg, criteria.loo), kinds))
        rho = make_state("upb_noise", 0.95)
        pair = np.stack([rho.as_tensor(), make_state("upb_noise", 0.0).as_tensor()])
        state = {"state": rho, "stack": np.stack([rho.as_tensor()] * 3), "mixed": pair, "mixed_at_one_p": pair}[form]

        def record():
            # A record of mixtures decomposes only its mixes, never the endpoints.
            ps = {"mixed": [0.2, 0.6, 1.0], "mixed_at_one_p": 0.6}.get(form)
            return spectra(state) if ps is None else spectra(state).mixed(ps)

        def counts():
            return tuple(map(calls.count, kinds))

        assert set(self.DECOMPOSITIONS) == set(criteria.SCORE_NAMES)
        for name, expected in self.DECOMPOSITIONS.items():
            calls.clear()
            spec = record()
            assert counts() == (0, 1, 0), name  # one batched check; a mixture checks nothing more
            calls.clear()
            spec.score(name)
            assert counts() == expected, name
        spec = record()
        calls.clear()
        for name in criteria.SCORE_NAMES * 2:
            spec.score(name)
        assert counts() == (2, 1, 1)

    # Fields each score mixes from the endpoints' record: μ, a, b and ρ^{T_A}.
    MIXES = {
        "ppt": 1,
        "realign": 1,
        "linear_opt": 1,
        "nonlinear_opt": 3,
        "bound_ppt": 1,
        "bound_realign": 1,
        "bound_lmax": 3,
        "bound_combined": 4,
    }

    @pytest.mark.parametrize("ps", [0.6, [0.2, 0.6]], ids=["one_p", "two_p"])
    def test_mixture_mixes_only_what_its_score_reads(self, monkeypatch, ps):
        # A realign step mixes μ alone, not (a, b), which only τ and the purities read.
        mixes = []
        mix = criteria.Spectra._mix
        monkeypatch.setattr(criteria.Spectra, "_mix", lambda self, pair: mixes.append(pair.shape) or mix(self, pair))
        rho = make_state("upb_noise", 0.95)
        pair = spectra(np.stack([rho.as_tensor(), make_state("upb_noise", 0.0).as_tensor()]))
        assert set(self.MIXES) == set(criteria.SCORE_NAMES)
        for name, expected in self.MIXES.items():
            mixes.clear()
            pair.mixed(ps).score(name)
            assert len(mixes) == expected, name
        mixes.clear()
        pair.mixed(ps).score("realign")
        assert mixes == [(2, 9, 9)]

    def test_in_bases(self):
        # The Gell-Mann pair's record is the kept field; another pair's is formed
        # per call, for a mixture as the mix of its endpoints'.
        rng = np.random.default_rng(60)
        first, second = (samplers.random_mixed_state(2, 3, rng) for _ in range(2))
        basis_a, basis_b = (rotate(gell_mann_basis(d), samplers.haar_rotation(d * d, rng)) for d in (2, 3))
        record = spectra(first)
        assert record.in_bases() is record.correlations
        expected = samplers.correlation_matrix(first, basis_a, basis_b)
        np.testing.assert_allclose(record.in_bases(basis_a, basis_b)[0], expected, rtol=0, atol=1e-14)
        mixed = spectra(np.stack([first.as_tensor(), second.as_tensor()])).mixed(0.3)
        direct = spectra(qstate.mixture(first, second, 0.3))
        for got, want in zip(mixed.in_bases(basis_a, basis_b), direct.in_bases(basis_a, basis_b)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

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
        assert oracles.max_concurrence(3) == pytest.approx(np.sqrt(4 / 3), abs=1e-15)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="norm"):
            concurrence_pure(np.ones(4), 2, 2)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="norm"):
            concurrence_pure(np.array([np.nan, 1.0, 0.0, 0.0]), 2, 2)
        with pytest.raises(ValueError, match="pure"):
            concurrence_pure(DensityMatrix(2, 2, np.full((4, 4), np.nan)))

    def test_projector_must_match_dims(self):
        with pytest.raises(ValueError, match=r"matrix of shape \(4, 4\) does not match dims \(2, 3\)"):
            concurrence_pure(make_state("bell").data, 2, 3)

    def test_state_must_match_dims(self):
        with pytest.raises(ValueError, match=r"state of dims \(2, 2\) does not match dims \(3, 3\)"):
            concurrence_pure(make_state("bell"), 3, 3)

    @pytest.mark.parametrize(
        "flaw", ["trace two", "twice a projector", "not Hermitian", "negative eigenvalue", "purity within tolerance"]
    )
    def test_rejects_matrices_that_are_not_pure_states(self, flaw):
        projector = make_state("bell").data
        matrix = {
            "trace two": np.diag([1.5, 0.5, 0.0, 0.0]),
            "twice a projector": 2 * projector,
            "not Hermitian": projector + np.diag([0.5], k=3),
            # Hermitian and unit-trace, with Tr m^2 = 2.5 and 1 + 9.8e-9.
            "negative eigenvalue": np.diag([1.5, -0.5, 0.0, 0.0]),
            "purity within tolerance": np.diag([1.0, 7e-5, -7e-5, 0.0]),
        }[flaw]
        for call in (
            lambda: concurrence_pure(matrix, 2, 2),
            lambda: concurrence_pure(DensityMatrix(2, 2, matrix)),
            lambda: schmidt(matrix, 2, 2),
            lambda: schmidt(DensityMatrix(2, 2, matrix)),
        ):
            with pytest.raises(ValueError, match="not a pure state"):
                call()


class TestConcurrenceBounds:
    def test_upb_state_bounds(self):
        rho = make_state("upb")
        b = bounds(rho)
        assert min(spectra(rho).dim_a, spectra(rho).dim_b) == 3
        assert b["bound_realign"] == pytest.approx(0.050, abs=1e-3)
        assert b["bound_lmax"] == pytest.approx(0.055, abs=1e-3)
        assert b["bound_ppt"] <= 1e-9
        assert b["bound_combined"] == pytest.approx(b["bound_lmax"], abs=1e-12)

    def test_bell_ppt_bound_equals_pure_concurrence(self):
        bound_ppt = spectra(make_state("bell")).score("bound_ppt")
        assert bound_ppt == pytest.approx(1.0, abs=1e-9)
        assert bound_ppt == pytest.approx(concurrence_pure(make_state("bell")), abs=1e-9)

    def test_separable_states_have_zero_bounds(self):
        rng = np.random.default_rng(54)
        for da, db in DIMS:
            rho = samplers.random_separable_state(da, db, rng)
            assert bounds(rho) == dict.fromkeys(BOUND_NAMES, 0.0)

    def test_combined_is_max_of_components(self):
        rng = np.random.default_rng(55)
        for da, db in DIMS:
            for _ in range(5):
                rho = samplers.random_mixed_state(da, db, rng)
                b = bounds(rho)
                assert b["bound_combined"] == pytest.approx(
                    max(b["bound_ppt"], b["bound_realign"], b["bound_lmax"]), abs=1e-12
                )

    def test_lmax_bound_dominates_realignment_bound(self):
        rng = np.random.default_rng(56)
        states = [make_state("upb"), make_state("upb_noise", 0.9), make_state("bell")]
        states += [samplers.random_mixed_state(da, db, rng) for da, db in DIMS for _ in range(5)]
        for rho in states:
            b = bounds(rho)
            assert b["bound_lmax"] >= b["bound_realign"] - 1e-9

    def test_bounds_valid_for_pure_states(self):
        rng = np.random.default_rng(57)
        for da, db in DIMS:
            for _ in range(5):
                rho = samplers.random_pure_state(da, db, rng)
                reference = concurrence_pure(rho)
                for bound in bounds(rho).values():
                    assert bound <= reference + 1e-8

    def test_bounds_capped_by_maximal_concurrence(self):
        rng = np.random.default_rng(58)
        states = [make_state("bell"), make_state("upb")]
        states += [samplers.random_mixed_state(da, db, rng) for da, db in DIMS for _ in range(5)]
        for rho in states:
            cap = oracles.max_concurrence(min(rho.dim_a, rho.dim_b))
            assert bounds(rho)["bound_combined"] <= cap + 1e-9

    def test_requires_min_dimension_two(self):
        rho = DensityMatrix(1, 3, np.eye(3) / 3)
        with pytest.raises(ValueError, match="min dim"):
            bounds(rho)


def maximally_entangled_state(da: int, db: int) -> DensityMatrix:
    """Σ_i |ii⟩/√m over the m = min(d_a, d_b) shared levels, which has the largest I-concurrence."""
    m = min(da, db)
    psi = np.zeros((da, db))
    psi[range(m), range(m)] = 1 / np.sqrt(m)
    return qstate.pure_state(psi.reshape(-1), da, db)


class TestTwoQubitOracle:
    """The bounds against exact concurrences: Wootters' for two qubits (tests/oracles.py)
    and the largest I-concurrence √(2(m-1)/m) at every supported size."""

    def test_bounds_never_exceed_wootters_concurrence(self):
        # 100 seeded states of each rank 1-4.  On pure states (rank 1) every
        # bound equals C in exact arithmetic, so the check is tight there.  Each
        # side is a sum of at most 4 singular values or eigenvalues of a matrix
        # of spectral norm at most 1 (μ, τ, ρ^{T_A}, and Lᵀ(σ_y⊗σ_y)L with
        # ‖L‖₂² = ‖ρ‖₂ ≤ 1), so rounding moves it by O(4ε): known_answer_tol(4, 1)
        # is 1.4e-14, against a worst excess of 1.4e-15 measured on these states
        # (1.8e-15 on 2000 states drawn from seed 1).
        rng = np.random.default_rng(71)
        states = [samplers.random_mixed_state(2, 2, rng, rank=rank) for rank in (1, 2, 3, 4) for _ in range(100)]
        record = spectra(np.stack([rho.as_tensor() for rho in states]))
        concurrences = np.array([oracles.wootters_concurrence(rho.data) for rho in states])
        assert (concurrences > 0.1).sum() > 100  # many states are far from separable
        for name in criteria.BOUND_NAMES:
            excess = record.score(name) - concurrences
            assert excess.max() <= known_answer_tol(4, 1.0), name

    @pytest.mark.parametrize("p", [0.1, 0.25, 0.5, 0.9])
    def test_noisy_singlet_concurrence_is_p(self, p):
        # The noise 2/3·|00⟩⟨00| + 1/3·|01⟩⟨01| leaves ρ_44 = 0, so C = 2|ρ_23| = p.
        rho = make_state("noisy_singlet", p)
        assert oracles.wootters_concurrence(rho.data) == pytest.approx(p, rel=0, abs=1e-14)
        assert oracles.wootters_concurrence(make_state("bell").data) == pytest.approx(1.0, rel=0, abs=1e-14)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 5), (3, 4), (8, 8), (12, 16), (16, 16)], ids=lambda d: f"{d[0]}x{d[1]}")
    def test_bounds_capped_by_maximal_concurrence_at_every_size(self, dims):
        # The maximally entangled state reaches the cap, so its bounds equal it
        # up to rounding; known_answer_tol bounds that rounding (see its docstring).
        rng = np.random.default_rng([72, *dims])
        states = [maximally_entangled_state(*dims), samplers.random_pure_state(*dims, rng),
                  samplers.random_mixed_state(*dims, rng, rank=2), samplers.random_mixed_state(*dims, rng)]
        record = spectra(np.stack([rho.as_tensor() for rho in states]))
        cap = oracles.max_concurrence(min(dims))
        tol = known_answer_tol(dims[0] * dims[1], cap)
        for name in criteria.BOUND_NAMES:
            assert record.score(name).max() <= cap + tol, name
        assert record.score("bound_combined")[0] == pytest.approx(cap, rel=0, abs=tol)


def known_answer_tol(n: int, value: float) -> float:
    """Tolerance for a score of an n×n state (n = d_a·d_b) against a closed form.

    Each score sums at most n singular values or eigenvalues of a matrix of
    spectral norm at most 1 (μ, τ and ρ^{T_A} of a state; ‖μ‖₂ ≤ ‖μ‖_F =
    √Tr ρ² ≤ 1).  A backward-stable decomposition moves each value by a few
    ε, so the sum moves by O(n·ε); the closed forms carry O(ε·|value|) of
    their own.  16·n·ε·max(1, |value|) is 6.8e-13 at 12×16, against the
    1.2e-14 measured there, and 1.4e-14 at 2×2, against 1.8e-15.
    """
    return 16 * n * np.finfo(float).eps * max(1.0, abs(value))


def isotropic_state(d: int, fidelity: float) -> DensityMatrix:
    """F·|Φ_d⟩⟨Φ_d| + (1 - F)(I - |Φ_d⟩⟨Φ_d|)/(d² - 1)."""
    phi = np.eye(d).reshape(-1) / np.sqrt(d)
    projector = np.outer(phi, phi)
    return DensityMatrix(d, d, fidelity * projector + (1 - fidelity) * (np.eye(d * d) - projector) / (d * d - 1))


class TestKnownAnswers:
    """Closed forms at every supported size, up to 16 per side."""

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (3, 5), (4, 4), (8, 8), (12, 16), (16, 16)])
    def test_pure_state_scores(self, dims):
        # For a pure state every criterion score is (Σ_i c_i)² - 1 in its Schmidt coefficients.
        rho = samplers.random_pure_state(*dims, np.random.default_rng(100 * dims[0] + dims[1]))
        expected = qstate.schmidt(rho).coefficients.sum() ** 2 - 1
        tol = known_answer_tol(rho.total_dim, expected)
        for name, score in criterion_scores(rho).items():
            assert score == pytest.approx(expected, abs=tol), name

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 12, 16])
    def test_isotropic_state_bounds(self, d):
        # Rungta and Caves, PRA 67, 012307 (2003): C = √(2/(d(d-1)))·(dF - 1) for F > 1/d.
        for fidelity in ((1 / d + 1) / 2, 0.9, 1.0):
            rho = isotropic_state(d, fidelity)
            spectra(rho)  # raises on a non-state
            expected = np.sqrt(2 / (d * (d - 1))) * (d * fidelity - 1)
            tol = known_answer_tol(rho.total_dim, expected)
            values = bounds(rho)
            for name in ("bound_ppt", "bound_realign", "bound_lmax"):
                assert values[name] == pytest.approx(expected, abs=tol), (name, fidelity)


# Matrices that are not states, each answered by raising: trace 3, a negative
# eigenvalue, and |00⟩⟨00| held as bools.
NON_STATES = {
    "three_quarters_identity": (0.75 * np.eye(4), "invalid state: unit_trace violated, residual 2.0"),
    "not_psd": (np.diag([1.2, -0.2, 0.0, 0.0]), "invalid state: positive_semidefinite violated, residual 0.2"),
    "bool_dtype": (np.diag([True, False, False, False]), "state entries must be numbers, got dtype bool"),
}
# Every library name that returns a score, bound, witness value, optimum or
# bracket of a state.
STATE_ANSWERS = {
    **{f"score_{name}": lambda rho, name=name: spectra(rho).score(name) for name in criteria.SCORE_NAMES},
    **{field: lambda rho, field=field: getattr(spectra(rho), field)
       for field in ("linear_min", "nonlinear_min", "l_max", "linear_at_reference", "nonlinear_at_reference",
                     "correlations", "tau", "realigned", "covariance", "partial_transpose")},
    "in_bases": lambda rho: spectra(rho).in_bases(pauli_basis(), pauli_basis()),
    "mixed": lambda rho: spectra(np.stack([rho, rho])).mixed(0.5).score("ppt"),
    "optimum_linear": lambda rho: spectra(rho).optimum("linear"),
    "optimum_nonlinear": lambda rho: spectra(rho).optimum("nonlinear"),
    **{f"{kind}_witness_value": lambda rho, kind=kind: spectra(rho).witness_value(kind, pauli_basis(), pauli_basis())
       for kind in ("linear", "nonlinear")},
    "optimum_bracket": lambda rho: optimum_bracket(spectra(rho), "linear", 1.0, pauli_basis(), pauli_basis()),
}


class TestStateCheck:
    """spectra is the one check that its input is a state, and every answer goes through it."""

    @pytest.mark.parametrize("non_state", list(NON_STATES))
    @pytest.mark.parametrize("answer", list(STATE_ANSWERS))
    def test_non_state_raises(self, answer, non_state):
        matrix, message = NON_STATES[non_state]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            STATE_ANSWERS[answer](matrix.reshape(2, 2, 2, 2))

    def test_density_matrix_and_stack_report_the_failing_state(self):
        # A stack takes one batched check and reports the first state that fails,
        # with the lines that state would raise alone.
        bell, (trace_three, message) = make_state("bell").as_tensor(), NON_STATES["three_quarters_identity"]
        with pytest.raises(criteria.InvalidState, match=f"^{re.escape(message)}$"):
            spectra(DensityMatrix(2, 2, trace_three))
        two_faults = np.diag([2.0, -0.5, 0.0, 0.0]).reshape(2, 2, 2, 2)
        lines = ("invalid state: unit_trace violated, residual 0.5\n"
                 "invalid state: positive_semidefinite violated, residual 0.5")
        with pytest.raises(criteria.InvalidState, match=f"^{re.escape(lines)}$"):
            spectra(np.stack([bell, two_faults, trace_three.reshape(2, 2, 2, 2)]))
        nan_state = np.where(np.eye(4) > 0, np.nan, 0.0).reshape(2, 2, 2, 2)
        with pytest.raises(criteria.InvalidState, match="^invalid state: finite violated, residual 4.0$"):
            spectra(np.stack([bell, nan_state]))
        opposite_infinities = np.eye(4, dtype=complex) / 4
        opposite_infinities[0, 1], opposite_infinities[1, 0] = np.inf, -np.inf  # inf + -inf would warn
        with pytest.raises(criteria.InvalidState, match="^invalid state: finite violated, residual 2.0$"):
            spectra(opposite_infinities.reshape(2, 2, 2, 2))
        # Entries that are not numbers raise wherever a state enters: a DensityMatrix
        # of bools used to build and score, and a str vector to parse as numbers.
        bools = np.diag([True, False, False, False])
        non_numbers = (lambda: spectra(bell.astype(object)), lambda: spectra(bell.astype(str)),
                       lambda: DensityMatrix(2, 2, bools), lambda: qstate.realign(bools.reshape(2, 2, 2, 2)),
                       lambda: concurrence_pure(bools, 2, 2),
                       lambda: qstate.pure_state(np.array(["1", "0", "0", "0"]), 2, 2))
        for call in non_numbers:
            with pytest.raises(ValueError, match="state entries must be numbers, got dtype"):
                call()
        valid = spectra(np.stack([bell, np.eye(4).reshape(2, 2, 2, 2) / 4]))
        assert valid.score("ppt") == pytest.approx([1.0, 0.0], abs=1e-12)
        assert spectra(np.zeros((0, 2, 2, 2, 2))).score("ppt").shape == (0,)  # an empty stack holds no non-state


METAMORPHIC_DIMS = [(2, 2), (2, 5), (3, 4), (4, 4), (8, 8), (8, 12), (12, 16), (16, 16)]


def metamorphic_tol(rho, scores, computations):
    """Tolerance for scores that agree in exact arithmetic: each of the
    ``computations`` (a score of a state, or the rounding with which one state was
    formed from another) is within :func:`known_answer_tol` of the exact score."""
    return computations * known_answer_tol(rho.total_dim, max(map(abs, scores)))


class TestMetamorphicRelations:
    """Exact relations between the scores of related states, at every supported size."""

    @staticmethod
    def state(dims, rank):
        return samplers.random_mixed_state(*dims, np.random.default_rng([110, *dims, rank or 0]), rank=rank)

    @pytest.mark.parametrize("rank", [1, 2, None], ids=["rank1", "rank2", "full"])
    @pytest.mark.parametrize("dims", METAMORPHIC_DIMS, ids=lambda d: f"{d[0]}x{d[1]}")
    def test_swap_and_local_unitaries_keep_every_score(self, dims, rank):
        # The A↔B swap permutes entries exactly: ρ^{T_B} = (ρ^{T_A})ᵀ, R ↦ Rᵀ and
        # the purities trade places.  A local unitary rotates μ and τ orthogonally
        # and conjugates ρ^{T_A} unitarily.  So every score is equal; the swap
        # compares two computations, the local unitary three (it rounds the state).
        rho = self.state(dims, rank)
        swapped = DensityMatrix(dims[1], dims[0], rho.as_tensor().transpose(1, 0, 3, 2).reshape(rho.data.shape))
        rng = np.random.default_rng([111, *dims])
        rotated = samplers.local_unitary_conjugate(rho, samplers.haar_unitary(dims[0], rng),
                                                   samplers.haar_unitary(dims[1], rng))
        records = {"state": spectra(rho), "swap": spectra(swapped), "local_unitary": spectra(rotated)}
        for name in criteria.SCORE_NAMES:
            base = records["state"].score(name)
            for relation, computations in (("swap", 2), ("local_unitary", 3)):
                score = records[relation].score(name)
                assert score == pytest.approx(base, abs=metamorphic_tol(rho, (base, score), computations)), \
                    (relation, name)

    @pytest.mark.parametrize("dims", METAMORPHIC_DIMS, ids=lambda d: f"{d[0]}x{d[1]}")
    def test_convex_scores_lie_below_their_chord(self, dims):
        # ppt, realign and linear_opt are a trace norm of an affine map of p, minus 1,
        # so along p·ρ₁ + (1-p)·ρ₂ each is at most p·s(ρ₁) + (1-p)·s(ρ₂).  Three
        # scores are compared, and the mix rounds the state once more.
        first, second = self.state(dims, 1), self.state(dims, 2)
        ps = np.linspace(0.0, 1.0, 11 if first.total_dim <= 16 else 3)[1:-1]
        pair = spectra(np.stack([first.as_tensor(), second.as_tensor()]))
        for name in ("ppt", "realign", "linear_opt"):
            ends, scores = pair.score(name), pair.mixed(ps).score(name)
            chord = ps * ends[0] + (1 - ps) * ends[1]
            tol = metamorphic_tol(first, (*ends, *scores), 4)
            assert (scores <= chord + tol).all(), (name, (scores - chord).max())
