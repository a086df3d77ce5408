"""Value types and objective calculators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sparseland.core import (
    CoefficientVector,
    ObjectiveBreakdown,
    PenaltySpec,
    WeightSequence,
    as_coefficients,
    objective,
    penalty_value,
    surrogate_objective,
    triple_norm,
)
from sparseland.errors import AlignmentError, ContractViolationError, ParameterError
from sparseland.operators import DenseOperator, DiagonalOperator


class TestCoefficientVector:
    def test_flattens_and_records_dims(self):
        grid = np.arange(6.0).reshape(2, 3)
        v = CoefficientVector(grid)
        assert v.values.shape == (6,)
        assert v.dims == (2, 3)
        np.testing.assert_array_equal(v.as_grid(), grid)

    def test_from_grid_round_trip(self):
        grid = np.random.default_rng(0).normal(size=(4, 5))
        v = CoefficientVector.from_grid(grid)
        np.testing.assert_array_equal(v.as_grid(), grid)
        assert len(v) == 20

    def test_values_read_only(self):
        v = CoefficientVector(np.ones(3))
        with pytest.raises(ValueError):
            v.values[0] = 2.0

    def test_dims_mismatch(self):
        with pytest.raises(AlignmentError):
            CoefficientVector(np.ones(5), dims=(2, 3))

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ParameterError):
            CoefficientVector(np.array([]))
        with pytest.raises(ParameterError):
            CoefficientVector(np.array([1.0, np.nan]))
        with pytest.raises(ParameterError):
            CoefficientVector(np.array([np.inf]))

    def test_rejects_non_numeric(self):
        with pytest.raises(ParameterError):
            CoefficientVector(np.array(["a", "b"]))

    def test_integer_input_upcast(self):
        v = CoefficientVector(np.array([1, 2, 3]))
        assert v.values.dtype == np.float64

    def test_is_complex(self):
        assert CoefficientVector(np.array([1j])).is_complex
        assert not CoefficientVector(np.array([1.0])).is_complex

    def test_no_dims_as_grid_raises(self):
        with pytest.raises(ParameterError):
            CoefficientVector(np.ones(3)).as_grid()

    def test_as_coefficients_passthrough(self):
        v = CoefficientVector(np.ones(2))
        assert as_coefficients(v) is v
        assert isinstance(as_coefficients([1.0, 2.0]), CoefficientVector)


class TestWeightSequence:
    def test_default_lower_bound_is_min(self):
        ws = WeightSequence(np.array([2.0, 0.5, 1.0]))
        assert ws.c == 0.5

    def test_claimed_bound_must_hold(self):
        WeightSequence(np.array([2.0, 1.0]), c=0.5)
        with pytest.raises(ParameterError):
            WeightSequence(np.array([2.0, 1.0]), c=1.5)

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            WeightSequence(np.array([1.0, 0.0]))
        with pytest.raises(ParameterError):
            WeightSequence(np.array([-1.0]))

    def test_uniform(self):
        ws = WeightSequence.uniform(4, 3.0)
        np.testing.assert_array_equal(ws.w, [3.0, 3.0, 3.0, 3.0])
        assert ws.c == 3.0
        assert len(ws) == 4


class TestPenaltySpec:
    def test_p_range(self):
        for bad in (0.5, 2.5, -1.0):
            with pytest.raises(ParameterError):
                PenaltySpec.uniform(p=bad, mu=1.0, n=2)
        PenaltySpec.uniform(p=1.0, mu=1.0, n=2)
        PenaltySpec.uniform(p=2.0, mu=1.0, n=2)

    def test_mu_positive(self):
        with pytest.raises(ParameterError):
            PenaltySpec.uniform(p=1.0, mu=0.0, n=2)
        with pytest.raises(ParameterError):
            PenaltySpec.uniform(p=1.0, mu=-0.1, n=2)

    def test_asymmetric_length_check(self):
        w = WeightSequence.uniform(3)
        with pytest.raises(AlignmentError):
            PenaltySpec(p=1.0, weights=w, mu=1.0,
                        asymmetric=(np.ones(2), np.ones(2)))

    def test_asymmetric_coercion(self):
        w = WeightSequence.uniform(2)
        spec = PenaltySpec(p=1.0, weights=w, mu=1.0,
                           asymmetric=(np.array([1.0, 2.0]), np.array([3.0, 4.0])))
        wp, wm = spec.asymmetric
        assert isinstance(wp, WeightSequence) and isinstance(wm, WeightSequence)


class TestTripleNorm:
    def test_unit_weights_p_three_halves(self):
        # four unit entries at p = 3/2: (sum 1)^(2/3) = 4^(2/3)
        spec = PenaltySpec.uniform(p=1.5, mu=1.0, n=4)
        val = triple_norm(np.ones(4), spec)
        assert val == pytest.approx(4.0 ** (2.0 / 3.0), abs=1e-12)

    def test_p2_is_weighted_l2(self):
        rng = np.random.default_rng(1)
        f = rng.normal(size=8)
        w = rng.uniform(0.5, 2.0, size=8)
        spec = PenaltySpec(p=2.0, weights=WeightSequence(w), mu=1.0)
        assert triple_norm(f, spec) == pytest.approx(
            np.sqrt(np.sum(w * f**2)), rel=1e-14)

    def test_alignment(self):
        spec = PenaltySpec.uniform(p=1.0, mu=1.0, n=3)
        with pytest.raises(AlignmentError):
            triple_norm(np.ones(4), spec)

    @given(
        p=st.floats(1.0, 2.0),
        f=hnp.arrays(np.float64, st.integers(1, 12),
                     elements=st.floats(-100, 100, allow_nan=False)),
    )
    @settings(max_examples=120, deadline=None)
    def test_dominates_euclidean_norm(self, p, f):
        # ||f|| <= c^(-1/p) * |||f||| for weights bounded below by c
        rng = np.random.default_rng(abs(hash((p, f.tobytes()))) % 2**32)
        w = rng.uniform(0.3, 3.0, size=f.size)
        spec = PenaltySpec(p=p, weights=WeightSequence(w), mu=1.0)
        tn = triple_norm(f, spec)
        euclid = float(np.linalg.norm(f))
        c = spec.weights.c
        assert euclid <= c ** (-1.0 / p) * tn + 1e-9 * (1.0 + tn)


class TestPenaltyValue:
    def test_hand_value(self):
        spec = PenaltySpec(p=1.0, weights=WeightSequence(np.array([2.0, 3.0])), mu=0.5)
        # 0.5 * (2*|1| + 3*|-2|) = 4
        assert penalty_value(np.array([1.0, -2.0]), spec) == pytest.approx(4.0)

    def test_asymmetric_splits_signs(self):
        w = WeightSequence.uniform(2)
        spec = PenaltySpec(p=1.0, weights=w, mu=1.0,
                           asymmetric=(np.array([2.0, 2.0]), np.array([5.0, 5.0])))
        # positive part weighted 2, negative part weighted 5
        val = penalty_value(np.array([1.0, -1.0]), spec)
        assert val == pytest.approx(2.0 + 5.0)

    def test_asymmetric_rejects_complex(self):
        w = WeightSequence.uniform(1)
        spec = PenaltySpec(p=1.0, weights=w, mu=1.0,
                           asymmetric=(np.ones(1), np.ones(1)))
        with pytest.raises(ParameterError):
            penalty_value(np.array([1.0 + 1.0j]), spec)

    def test_complex_uses_modulus(self):
        spec = PenaltySpec.uniform(p=2.0, mu=1.0, n=1)
        assert penalty_value(np.array([3.0 + 4.0j]), spec) == pytest.approx(25.0)


class TestObjective:
    def test_breakdown_sums(self):
        K = DiagonalOperator(np.array([0.5, 0.5]))
        spec = PenaltySpec.uniform(p=1.0, mu=2.0, n=2)
        b = objective(np.array([2.0, 0.0]), np.array([0.0, 1.0]), K, spec)
        assert b.discrepancy == pytest.approx(1.0 + 1.0)
        assert b.penalty == pytest.approx(4.0)
        assert b.total == pytest.approx(b.discrepancy + b.penalty)

    def test_breakdown_total_autofill(self):
        b = ObjectiveBreakdown(discrepancy=1.5, penalty=2.5)
        assert b.total == 4.0

    def test_complex_discrepancy_real(self):
        K = DiagonalOperator(np.array([1.0]))
        spec = PenaltySpec.uniform(p=2.0, mu=1.0, n=1)
        b = objective(np.array([1.0 + 1.0j]), np.array([0.0 + 0.0j]), K, spec)
        assert b.discrepancy == pytest.approx(2.0)


class TestSurrogate:
    def test_hand_value(self):
        # K = 0.5 on one component, f=1, anchor 0, g=0, p=2, mu=1:
        # Phi(f) = 0.25 + 1, plus ||f-a||^2 - ||K(f-a)||^2 = 1 - 0.25
        K = DiagonalOperator(np.array([0.5]))
        spec = PenaltySpec.uniform(p=2.0, mu=1.0, n=1)
        val = surrogate_objective(np.array([1.0]), np.array([0.0]),
                                  np.array([0.0]), K, spec)
        assert val == pytest.approx(2.0, abs=1e-12)

    def test_requires_contractive_bound(self):
        K = DiagonalOperator(np.array([1.0]))  # norm bound 1, not < 1
        spec = PenaltySpec.uniform(p=2.0, mu=1.0, n=1)
        with pytest.raises(ContractViolationError):
            surrogate_objective(np.array([1.0]), np.array([0.0]),
                                np.array([0.0]), K, spec)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_majorizes_objective(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(1, 6)
        M = rng.normal(size=(n, n))
        M *= 0.9 / np.linalg.norm(M, 2)
        K = DenseOperator(M)
        spec = PenaltySpec.uniform(p=float(rng.uniform(1, 2)),
                                   mu=float(rng.uniform(0.1, 2)), n=int(n))
        f = rng.normal(size=n)
        a = rng.normal(size=n)
        g = rng.normal(size=n)
        sur = surrogate_objective(f, a, g, K, spec)
        phi = objective(f, g, K, spec).total
        assert sur >= phi - 1e-10 * (1.0 + abs(phi))
        # equality at the anchor
        assert surrogate_objective(f, f, g, K, spec) == pytest.approx(phi, rel=1e-12)
