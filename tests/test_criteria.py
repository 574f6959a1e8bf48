import numpy as np
import pytest

from loowit import criteria, qstate
from loowit.criteria import THRESHOLD_FORMS, concurrence_pure, detected, spectra
from loowit.qstate import DensityMatrix, make_state, schmidt
from loowit.witness import optimal_linear_min, optimal_nonlinear_min

import oracles
import samplers

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
    smallest eigenvalue, -ε, is inside validate's PSD tolerance.  The twin is
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
        assert qstate.validate(slack_state(d)) == []
        scores = criterion_scores(slack_state(d, twin=True))
        assert not any(detected(score) for score in scores.values()), scores

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    @pytest.mark.parametrize("d", [4, 8, 16])
    def test_slack_state_is_not_detected(self, d):
        scores = criterion_scores(slack_state(d))
        assert not any(detected(score) for score in scores.values()), scores


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
        linear_score = spec.score("linear_opt")
        assert linear_score == pytest.approx(-optimal_linear_min(rho).value, abs=1e-12)
        assert spec.score("nonlinear_opt") == pytest.approx(-nonlinear.value, abs=1e-12)
        assert spec.l_max == pytest.approx(nonlinear.l_max, abs=1e-12)
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
        # The record (μ, a, b) and τ too, of a state and of a mixture.
        bell = make_state("bell")
        for spec in (spectra(bell), spectra(np.stack([bell.as_tensor()] * 2)).mixed(0.5)):
            for array in (spec.realigned, *spec.correlations, spec.tau):
                with pytest.raises(ValueError):
                    array[0] = 0.0

    def test_optimum_reads_the_record(self):
        spec = spectra(make_state("upb"))
        sigma_sum, basis_a, basis_b = spec.optimum("nonlinear")
        assert sigma_sum == pytest.approx(spec.covariance.sum(), rel=0, abs=1e-12)
        np.testing.assert_array_equal(basis_a.observables, optimal_nonlinear_min(make_state("upb")).basis_a.observables)
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

    def test_mixed_needs_a_record_of_two_states(self):
        bell = make_state("bell")
        pair = spectra(np.stack([bell.as_tensor()] * 2))
        for record in (spectra(bell), spectra(np.stack([bell.as_tensor()] * 3)), pair.mixed(0.5), pair.mixed([0.5])):
            with pytest.raises(ValueError, match="two states"):
                record.mixed([0.5])

    @pytest.mark.parametrize("ps", [[-0.2], [1.5], [0.5, np.nan], np.nan, True, [True]])
    def test_mixed_needs_each_p_in_the_unit_interval(self, ps):
        # p = -0.2 or 1.5 used to give the scores of a non-state, and NaN a LinAlgError.
        bell = make_state("bell")
        pair = spectra(np.stack([bell.as_tensor(), qstate.white_noise_mixture(bell, 0.0).as_tensor()]))
        with pytest.raises(ValueError, match=r"mixing parameter must be a number in \[0, 1\]"):
            pair.mixed(ps)
        assert pair.mixed([0.0, 1.0]).purity_a.tolist() == [pair.purity_a[1], pair.purity_a[0]]
        assert pair.mixed([]).score("realign").shape == (0,)

    # Calls each score makes of np.linalg.svd, np.linalg.eigvalsh and loo.correlations.
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

    @pytest.mark.parametrize("form", ["state", "stack", "mixed"], ids=["state", "stack", "mixed"])
    def test_each_score_takes_only_its_decompositions(self, monkeypatch, form):
        calls = []

        def counted(kind, function):
            def call(*args, **kwargs):
                calls.append(kind)
                return function(*args, **kwargs)

            return call

        kinds = ("svd", "eigvalsh", "correlations")
        for module, name in zip((criteria.np.linalg, criteria.np.linalg, criteria.loo), kinds):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        rho = make_state("upb_noise", 0.95)
        state = {"state": rho, "stack": np.stack([rho.as_tensor()] * 3),
                 "mixed": np.stack([rho.as_tensor(), make_state("upb_noise", 0.0).as_tensor()])}[form]

        def record():
            # A record of mixtures decomposes only its mixes, never the endpoints.
            return spectra(state).mixed([0.2, 0.6, 1.0]) if form == "mixed" else spectra(state)

        def counts():
            return tuple(map(calls.count, kinds))

        assert set(self.DECOMPOSITIONS) == set(criteria.SCORE_NAMES)
        for name, expected in self.DECOMPOSITIONS.items():
            calls.clear()
            record().score(name)
            assert counts() == expected, name
        calls.clear()
        spec = record()
        for name in criteria.SCORE_NAMES * 2:
            spec.score(name)
        assert counts() == (2, 1, 1)

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
            assert qstate.validate(rho) == []
            expected = np.sqrt(2 / (d * (d - 1))) * (d * fidelity - 1)
            tol = known_answer_tol(rho.total_dim, expected)
            values = bounds(rho)
            for name in ("bound_ppt", "bound_realign", "bound_lmax"):
                assert values[name] == pytest.approx(expected, abs=tol), (name, fidelity)
