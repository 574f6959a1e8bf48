import numpy as np
import pytest

from loowit import witness
from loowit.loo import gell_mann_basis, pauli_basis, rotate
from loowit.oracle import recompute_witness_direct, sampled_max_trace
from loowit.qstate import make_state

import samplers


class TestSampledMaxTrace:
    def test_identity_matrix(self):
        report = sampled_max_trace(np.eye(2), 500, seed=1)
        assert report.analytic_value == pytest.approx(2.0, abs=1e-12)
        assert report.best_sampled <= 2.0 + 1e-12
        assert report.gap == pytest.approx(report.analytic_value - report.best_sampled)

    def test_bell_correlation_matrix(self):
        report = sampled_max_trace(np.diag([0.5, -0.5, 0.5, 0.5]), 2000, seed=2)
        # for a diagonal matrix the singular values are the absolute entries
        assert report.analytic_value == pytest.approx(2.0, abs=1e-12)
        assert report.gap >= -1e-9

    def test_rectangular_never_beats_analytic(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((4, 9))
        report = sampled_max_trace(m, 100_000, seed=4)
        assert report.gap >= -1e-9
        assert report.samples == 100_000

    def test_same_seed_reproduces_to_the_bit(self):
        m = np.random.default_rng(5).standard_normal((3, 3))
        first = sampled_max_trace(m, 730, seed=99)
        second = sampled_max_trace(m, 730, seed=99)
        assert first.best_sampled == second.best_sampled
        assert first == second

    def test_gap_shrinks_with_more_samples(self):
        # sample counts are multiples of the internal chunk, so each longer
        # run extends the shorter one and the gaps shrink pointwise
        rng = np.random.default_rng(6)
        matrices = [rng.standard_normal((4, 4)) for _ in range(12)]
        medians = []
        for samples in (100, 1000, 10_000):
            reports = [sampled_max_trace(m, samples, seed=7) for m in matrices]
            for r in reports:
                assert -1e-9 <= r.gap <= r.analytic_value
            medians.append(np.median([r.gap for r in reports]))
        assert medians[0] >= medians[1] >= medians[2]

    def test_invalid_sample_count(self):
        for samples in (0, True, np.True_, 2.5, np.float64(3.0)):
            with pytest.raises(ValueError, match="samples"):
                sampled_max_trace(np.eye(2), samples, seed=0)
        assert sampled_max_trace(np.eye(2), np.int64(3), seed=0).samples == 3


class TestRecomputeWitnessDirect:
    def test_bell_linear_pauli_pauli(self):
        value = recompute_witness_direct(make_state("bell"), pauli_basis(), pauli_basis(), "linear")
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_bell_nonlinear_flipped(self):
        flipped = rotate(pauli_basis(), np.diag([1.0, -1.0, 1.0, 1.0]))
        value = recompute_witness_direct(make_state("bell"), pauli_basis(), flipped, "nonlinear")
        assert value == pytest.approx(-1.0, abs=1e-12)

    def test_agrees_with_witness_module(self):
        rng = np.random.default_rng(8)
        for da, db in [(2, 2), (2, 3), (3, 3), (3, 2), (4, 3)]:
            rho = samplers.random_mixed_state(da, db, rng)
            basis_a = rotate(gell_mann_basis(da), samplers.haar_rotation(da * da, rng))
            basis_b = rotate(gell_mann_basis(db), samplers.haar_rotation(db * db, rng))
            lin_direct = recompute_witness_direct(rho, basis_a, basis_b, "linear")
            non_direct = recompute_witness_direct(rho, basis_a, basis_b, "nonlinear")
            assert lin_direct == pytest.approx(
                witness.linear_witness_value(rho, basis_a, basis_b), abs=1e-10
            )
            assert non_direct == pytest.approx(
                witness.nonlinear_witness_value(rho, basis_a, basis_b), abs=1e-10
            )

    def test_agrees_at_optimal_bases_rectangular(self):
        # exercises the zero-padding path: the A basis has 4 elements, B has 9
        rho = samplers.random_mixed_state(2, 3, np.random.default_rng(9))
        result = witness.optimal_nonlinear_min(rho)
        direct = recompute_witness_direct(rho, result.basis_a, result.basis_b, "nonlinear")
        assert direct == pytest.approx(result.value, abs=1e-10)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            recompute_witness_direct(make_state("bell"), pauli_basis(), pauli_basis(), "cubic")
