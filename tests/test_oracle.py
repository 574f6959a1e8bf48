import numpy as np
import pytest

from loowit.criteria import spectra
from loowit.loo import gell_mann_basis, pauli_basis, rotate
from loowit.qstate import make_state, trace_norm

import oracles
import samplers
from oracles import recompute_witness_direct, sampled_max_trace


class TestSampledMaxTrace:
    def test_identity_matrix(self):
        best = sampled_max_trace(np.eye(2), 500, seed=1)
        assert trace_norm(np.eye(2)) == pytest.approx(2.0, abs=1e-12)
        assert best <= 2.0 + 1e-12

    def test_bell_correlation_matrix(self):
        m = np.diag([0.5, -0.5, 0.5, 0.5])
        # for a diagonal matrix the singular values are the absolute entries
        assert trace_norm(m) == pytest.approx(2.0, abs=1e-12)
        assert sampled_max_trace(m, 2000, seed=2) <= 2.0 + 1e-9

    def test_rectangular_never_beats_analytic(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((4, 9))
        assert sampled_max_trace(m, 100_000, seed=4) <= trace_norm(m) + 1e-9

    def test_same_seed_reproduces_to_the_bit(self):
        m = np.random.default_rng(5).standard_normal((3, 3))
        first = sampled_max_trace(m, 730, seed=99)
        second = sampled_max_trace(m, 730, seed=99)
        assert type(first) is float and first == second

    def test_gap_shrinks_with_more_samples(self):
        # sample counts are multiples of the internal chunk, so each longer
        # run extends the shorter one and the gaps shrink pointwise
        rng = np.random.default_rng(6)
        matrices = [rng.standard_normal((4, 4)) for _ in range(12)]
        medians = []
        for samples in (100, 1000, 10_000):
            gaps = [trace_norm(m) - sampled_max_trace(m, samples, seed=7) for m in matrices]
            for gap, m in zip(gaps, matrices):
                assert -1e-9 <= gap <= trace_norm(m)
            medians.append(np.median(gaps))
        assert medians[0] >= medians[1] >= medians[2]

    @pytest.mark.parametrize(
        "matrix",
        [np.ones(3), np.ones((2, 2, 2)), np.float64(1.0), [[1.0, np.nan], [0.0, 1.0]], [[np.inf, 0.0], [0.0, 1.0]]],
        ids=["vector", "stack", "scalar", "nan", "inf"],
    )
    def test_not_one_finite_matrix_rejected(self, matrix, monkeypatch):
        # A vector or a stack used to fail to unpack its shape, and a NaN
        # entry drew every sample before the SVD failed to converge.
        monkeypatch.setattr(oracles, "_orthogonal_batch", lambda *args: pytest.fail("a sample was drawn"))
        with pytest.raises(ValueError, match="must be one 2-D matrix of finite real numbers"):
            sampled_max_trace(matrix, 10, seed=0)

    def test_invalid_sample_count(self):
        for samples in (0, True, np.True_, 2.5, np.float64(3.0)):
            with pytest.raises(ValueError, match="samples"):
                sampled_max_trace(np.eye(2), samples, seed=0)
        assert sampled_max_trace(np.eye(2), np.int64(3), seed=0) <= 2.0 + 1e-12


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
            record = spectra(rho)
            for kind in ("linear", "nonlinear"):
                direct = recompute_witness_direct(rho, basis_a, basis_b, kind)
                assert direct == pytest.approx(record.witness_value(kind, basis_a, basis_b), abs=1e-10)

    def test_agrees_at_optimal_bases_rectangular(self):
        # exercises the zero-padding path: the A basis has 4 elements, B has 9
        rho = samplers.random_mixed_state(2, 3, np.random.default_rng(9))
        record = spectra(rho)
        _, basis_a, basis_b = record.optimum("nonlinear")
        direct = recompute_witness_direct(rho, basis_a, basis_b, "nonlinear")
        assert direct == pytest.approx(record.nonlinear_min, abs=1e-10)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            recompute_witness_direct(make_state("bell"), pauli_basis(), pauli_basis(), "cubic")
