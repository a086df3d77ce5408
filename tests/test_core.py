"""Value types and objective calculators."""

import math
import warnings

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
    penalty_sum,
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
        v = CoefficientVector(grid)
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

    @pytest.mark.parametrize("value", [2.0, np.array(2.0), np.float32(2.0), 2.0 + 1.0j])
    def test_scalar_is_one_entry(self, value):
        v = CoefficientVector(value)
        assert v.values.shape == (1,) and v.values[0] == value
        assert v.dims is None and len(v) == 1

    @pytest.mark.parametrize("dims", [4, 4.0, True])
    def test_dims_must_be_a_sequence(self, dims):
        with pytest.raises(ParameterError,
                           match="dims must be a sequence of one or more integers"):
            CoefficientVector(np.ones(4), dims=dims)

    def test_empty_dims_refused(self):
        # one entry matches the empty product, and solve would drop the falsy
        # () for K's dims
        with pytest.raises(ParameterError, match="dims must be a sequence of one or more"):
            CoefficientVector([1.0], dims=())

    def test_as_coefficients_passthrough(self):
        v = CoefficientVector(np.ones(2))
        assert as_coefficients(v) is v
        assert isinstance(as_coefficients([1.0, 2.0]), CoefficientVector)


class TestWeightSequence:
    def test_default_lower_bound_is_min(self):
        ws = WeightSequence(np.array([2.0, 0.5, 1.0]))
        assert ws.c == 0.5

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            WeightSequence(np.array([1.0, 0.0]))
        with pytest.raises(ParameterError):
            WeightSequence(np.array([-1.0]))

    @pytest.mark.parametrize("w", [np.ones((2, 2)), np.ones(0)])
    def test_rejects_grid_and_empty(self, w):
        with pytest.raises(ParameterError, match="nonempty 1-d"):
            WeightSequence(w)

    def test_uniform(self):
        ws = WeightSequence.uniform(4)
        np.testing.assert_array_equal(ws.w, [1.0, 1.0, 1.0, 1.0])
        assert ws.c == 1.0
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


    @pytest.mark.parametrize("weights", [np.ones(3), [1, 1, 1], (0.5, 1.0, 2.0)])
    def test_array_weights_are_gated_into_a_sequence(self, weights):
        spec = PenaltySpec(p=1.0, weights=weights, mu=0.1)
        assert isinstance(spec.weights, WeightSequence)
        np.testing.assert_array_equal(spec.weights.w, np.asarray(weights, dtype=float))
        assert penalty_value(np.ones(3), spec) == pytest.approx(0.1 * sum(weights))

    @pytest.mark.parametrize("weights", [[1.0, 0.0, 1.0], [1.0, np.nan, 1.0], "abc", None])
    def test_bad_array_weights_refused(self, weights):
        with pytest.raises(ParameterError, match="weights"):
            PenaltySpec(p=1.0, weights=weights, mu=0.1)

    @pytest.mark.parametrize("pair", [([1, 1, 1],), 5, (np.ones(3),) * 3])
    def test_asymmetric_must_be_a_pair(self, pair):
        with pytest.raises(ParameterError, match=r"asymmetric weights must be a pair"):
            PenaltySpec(p=1.0, weights=WeightSequence.uniform(3), mu=0.1, asymmetric=pair)


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

    @pytest.mark.parametrize("spec", ["x", -1, None])
    def test_spec_must_be_a_penalty_spec(self, spec):
        with pytest.raises(ParameterError, match="penalty spec must be a PenaltySpec"):
            triple_norm(np.ones(3), spec)

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

    @pytest.mark.parametrize("spec", ["x", -1, None])
    def test_spec_must_be_a_penalty_spec(self, spec):
        with pytest.raises(ParameterError, match="penalty spec must be a PenaltySpec"):
            penalty_value(np.ones(3), spec)


class TestOverflowRefused:
    """penalty_value, triple_norm, objective and surrogate_objective refuse a term
    or a sum that overflows, and leak no warning."""

    @staticmethod
    def _values(scale, kind):
        return np.full(2, scale * (1.0 + 1.0j) if kind == "complex" else scale)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_penalty(self, p, kind):
        spec = PenaltySpec.uniform(p=p, mu=1.0, n=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="penalty overflows"):
                penalty_value(self._values(1e308, kind), spec)
            if p == 2.0:
                with pytest.raises(ParameterError, match="1e\\+200"):
                    penalty_value(np.array([1e200, 1.0]), spec)
            pen = penalty_value(self._values(1e150, kind), spec)
        assert math.isfinite(pen)
        assert pen == pytest.approx(2.0 * abs(self._values(1e150, kind)[0]) ** p)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_objective(self, p, kind):
        rng = np.random.default_rng(2)
        M = rng.normal(size=(20, 20))
        K = DenseOperator(M * (0.9 / np.linalg.norm(M, 2)))
        g = rng.normal(size=20)
        if kind == "complex":
            g = g + 1j * rng.normal(size=20)
        spec = PenaltySpec.uniform(p=p, mu=1.0, n=20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="discrepancy overflows"):
                objective(np.zeros(20), 1e160 * g, K, spec)
            with pytest.raises(ParameterError, match="coefficient scale 1e\\+160"):
                objective(np.full(20, 1e160), g, K, spec)
            b = objective(np.zeros(20), 1e150 * g, K, spec)
        assert math.isfinite(b.total)
        assert b.discrepancy == pytest.approx(1e300 * np.vdot(g, g).real)

    def test_objective_sum(self):
        # each term is finite (1e308 and 1.69e308), their sum is not
        K = DiagonalOperator(np.array([0.5]))
        f = np.array([1.3e154])
        g = K.apply(f) - 1e154
        spec = PenaltySpec.uniform(p=2.0, mu=1.0, n=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="objective overflows"):
                objective(f, g, K, spec)
            with pytest.raises(ParameterError, match="objective overflows"):
                surrogate_objective(f, f, g, K, spec)
            b = objective(f / 2.0, g / 2.0, K, spec)
        assert b.total == pytest.approx(0.25e308 + 0.25 * 1.69e308)

    def test_product_beyond_the_norm_bound(self):
        # K f overflows, and so does K.norm_bound * ||f||: an overflow, not a broken K
        K = DiagonalOperator(np.array([1e150, 0.5]))
        spec = PenaltySpec.uniform(p=1.0, mu=1.0, n=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="discrepancy overflows"):
                objective(np.array([1e200, 1.0]), np.ones(2), K, spec)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_surrogate_distant_anchor(self, kind):
        K = DiagonalOperator(np.array([0.5, 0.25]))
        spec = PenaltySpec.uniform(p=1.5, mu=1.0, n=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scale in (1e160, 1e200, 1e308):
                with pytest.raises(ParameterError, match="surrogate overflows.*anchor scale"):
                    surrogate_objective(np.zeros(2), self._values(scale, kind), np.ones(2),
                                        K, spec)
            value = surrogate_objective(np.zeros(2), self._values(1e150, kind), np.ones(2),
                                        K, spec)
        assert math.isfinite(value)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_triple_norm(self, p, kind):
        spec = PenaltySpec.uniform(p=p, mu=1.0, n=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="penalty overflows"):
                triple_norm(self._values(1e308, kind), spec)
            if p == 2.0:
                with pytest.raises(ParameterError, match="1e\\+200"):
                    triple_norm(np.array([1e200, 1.0]), spec)
            norm = triple_norm(self._values(1e150, kind), spec)
        assert norm == pytest.approx(2.0 ** (1.0 / p) * abs(self._values(1e150, kind)[0]))


class TestUnitWeightPenalty:
    """Unit weights skip the multiply by ones and keep the weighted form's bits."""

    # signed zeros, subnormals, infinities and ordinary values
    SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, np.inf, -np.inf,
                        0.3, -2.5, 1e6, -7e-9, 1e150, -3e-160])

    @staticmethod
    def weighted(values, w, p, mu):
        a = np.abs(values)
        # float64 and complex128 penalties form |f|**1.5 as |f| * sqrt(|f|)
        powers = a * np.sqrt(a) if p == 1.5 and a.dtype == np.float64 else a ** p
        return float(mu * np.add.reduce(w * powers))

    def inputs(self, complex_values):
        rng = np.random.default_rng(41)
        x = np.concatenate([self.SPECIAL,
                            rng.choice([-1.0, 1.0], 2000) * 10.0 ** rng.uniform(-320, 150, 2000)])
        if complex_values:
            # each part set on its own: 1j * inf forms inf * 0
            z = x.astype(complex)
            z.imag = rng.permutation(x)
            x = z
        # the whole array, one without infinities, and every entry alone
        # (where the sum is the one term)
        return [x, x[np.isfinite(x)]] + [x[i:i + 1] for i in range(x.size)]

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("complex_values", [False, True], ids=["real", "complex"])
    def test_same_bits_as_the_weighted_form(self, p, complex_values):
        for x in self.inputs(complex_values):
            spec = PenaltySpec.uniform(p=p, mu=0.3, n=x.size)
            assert spec.weights._runs == ((slice(0, x.size), 1.0),)
            got = penalty_sum(x, spec)
            ref = self.weighted(x, np.ones(x.size), p, 0.3)
            assert np.float64(got).tobytes() == np.float64(ref).tobytes()

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_other_uniform_weights_keep_the_multiply(self, p):
        x = self.inputs(False)[1]
        for value in (2.0, 0.5, 1.0 + 2.0**-52):
            spec = PenaltySpec(p=p, weights=WeightSequence(np.full(x.size, value)), mu=0.3)
            assert spec.weights._runs == ((slice(0, x.size), value),) and value != 1.0
            assert penalty_sum(x, spec) == self.weighted(x, spec.weights.w, p, 0.3)
        assert WeightSequence(np.array([1.0, 1.0, 2.0]))._runs is None

    # Besov-like runs (one value per scale), uniform non-unit and unit weights
    LAYOUTS = {"besov-runs": np.repeat([1.0, 2.0**1.5, 8.0], [8192, 8192, 16384]),
               "uniform-half": np.full(32768, 0.5),
               "unit": np.ones(32768)}

    @pytest.mark.parametrize("p", [1.0, 1.3, 1.5, 2.0])
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_runs_give_the_bits_of_the_weight_array(self, p, layout):
        w = self.LAYOUTS[layout]
        spec = PenaltySpec(p=p, weights=WeightSequence(w), mu=0.3)
        assert spec.weights._runs is not None
        rng = np.random.default_rng(47)
        rows = rng.normal(size=(3, w.size)) * 10.0 ** rng.uniform(-3, 3, (3, w.size))
        a = np.abs(rows)
        terms = a * a if p == 2.0 else a * np.sqrt(a) if p == 1.5 else a**p
        ref = 0.3 * np.add.reduce(w * terms, axis=-1)
        # 1-d values give a float, a block's 2-d rows one penalty per row
        assert np.float64(penalty_sum(rows[0], spec)).tobytes() == ref[0].tobytes()
        assert penalty_sum(rows, spec).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("complex_values", [False, True], ids=["real", "complex"])
    def test_three_halves_terms_within_one_ulp_of_the_power(self, complex_values):
        x = self.inputs(complex_values)[0]
        x = np.concatenate([x, np.random.default_rng(43).uniform(0.0, 4.0, 20000)])
        spec = PenaltySpec.uniform(p=1.5, mu=1.0, n=1)
        got = np.array([penalty_sum(x[i:i + 1], spec) for i in range(x.size)])
        ref = np.abs(x) ** 1.5
        # both are nonnegative, so their bit patterns order like their values
        assert np.abs(got.view(np.int64) - ref.view(np.int64)).max() <= 1


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
        # a bound of exactly 1 is refused, and one just above it
        spec = PenaltySpec.uniform(p=2.0, mu=1.0, n=1)
        for bound in (1.0, 1.2):
            with pytest.raises(ContractViolationError):
                surrogate_objective(np.array([1.0]), np.array([0.0]),
                                    np.array([0.0]), DiagonalOperator(np.array([bound])), spec)

    def test_anchor_length_checked(self):
        K = DiagonalOperator(np.array([0.5, 0.5]))
        spec = PenaltySpec.uniform(p=2.0, mu=1.0, n=2)
        with pytest.raises(AlignmentError, match="anchor"):
            surrogate_objective(np.ones(2), np.ones(3), np.zeros(2), K, spec)

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
