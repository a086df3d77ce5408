"""Scalar and vector shrinkage operators.

The central contract is that shrink_p inverts F(y) = y + (w p / 2)
sign(y) |y|^(p-1) exactly in the closed-form cases (p = 1, 3/2, 2) and
to solver accuracy in between.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseland.core import CoefficientVector, PenaltySpec, WeightSequence
from sparseland import shrinkage
from sparseland.errors import AlignmentError, ContractViolationError, ParameterError
from sparseland.operators import DiagonalOperator
from sparseland.shrinkage import (
    shrink_asymmetric,
    shrink_complex,
    shrink_p,
    soft_threshold,
)
from sparseland.solver import iterate_step


def forward_map(y, w, p):
    """F_{w,p}(y) = y + (w p / 2) sign(y) |y|^(p-1)."""
    return y + 0.5 * w * p * np.sign(y) * np.abs(y) ** (p - 1.0)


class TestSoftThreshold:
    def test_dead_zone_and_shift(self):
        np.testing.assert_allclose(
            soft_threshold(np.array([1.0, -2.0, 0.2, -0.4]), 1.0),
            [0.5, -1.5, 0.0, 0.0])

    def test_scalar_in_scalar_out(self):
        out = soft_threshold(1.0, 1.0)
        assert isinstance(out, float) and out == 0.5

    def test_elementwise_weights(self):
        np.testing.assert_allclose(
            soft_threshold(np.array([1.0, 1.0]), np.array([1.0, 3.0])),
            [0.5, 0.0])

    def test_rejects_bad_weight(self):
        for w in (0.0, -1.0, np.nan, np.inf, -np.inf,
                  np.array([1.0, np.nan]), np.array([np.inf, 1.0])):
            with pytest.raises(ParameterError, match="finite and strictly positive"):
                soft_threshold(np.ones(2), w)

    def test_rejects_complex(self):
        with pytest.raises(ParameterError):
            soft_threshold(np.array([1.0 + 1.0j]), 1.0)


class TestSoftThresholdEdges:
    """x - clip(x, -w/2, w/2) against the form sign(x) max(|x| - w/2, 0).

    Every nonzero output, infinities included, has the same bits, and NaN
    stays NaN. The sign of zero changes: for negative x in the dead zone
    [-w/2, 0) the sign form writes -0.0, the clip form +0.0. Where w/2
    rounds to zero (w = 5e-324), x = -0.0 gives +0.0 in both forms for a
    float weight, and -0.0 in the clip form for an array weight.
    """

    @staticmethod
    def sign_form(x, w):
        return np.sign(x) * np.maximum(np.abs(x) - 0.5 * w, 0.0)

    @staticmethod
    def inputs(w):
        t = 0.5 * w
        edge = [t, -t, np.nextafter(t, np.inf), -np.nextafter(t, np.inf),
                np.nextafter(t, 0.0), -np.nextafter(t, 0.0)]
        return np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, np.inf, -np.inf,
                         np.nan, 0.3, -2.5, 1e300, -1e300, 1.7e308, -1.7e308] + edge)

    @pytest.mark.parametrize("w", [1.0, 3e-300, 1e300, 5e-324, 1e-323])
    def test_matches_the_sign_form(self, w):
        x = self.inputs(w)
        for weight in (w, np.full(x.size, w)):
            ref = self.sign_form(x, weight)
            for out in (soft_threshold(x, weight), shrink_p(x, weight, 1.0)):
                assert out.dtype == ref.dtype and out.shape == ref.shape
                nan = np.isnan(ref)
                assert np.array_equal(np.isnan(out), nan)
                moved = (ref != 0.0) & ~nan
                assert out[moved].tobytes() == ref[moved].tobytes()
                zero = ref == 0.0
                assert np.all(out[zero] == 0.0)
                if 0.5 * w > 0.0:
                    assert not np.signbit(out[zero]).any()
                    # the sign form's negative zeros are the negative dead-zone inputs
                    assert np.array_equal(np.signbit(ref[zero]), x[zero] < 0.0)
                else:
                    # x itself, but -0.0 becomes +0.0 (x + 0.0) for a float weight
                    same = x if isinstance(weight, np.ndarray) else x + 0.0
                    assert out.tobytes() == same.tobytes()
            for xi, ri in zip(x, ref):
                for out in (soft_threshold(float(xi), w), shrink_p(float(xi), w, 1.0)):
                    assert isinstance(out, float)
                    assert (np.isnan(out) and np.isnan(ri)) or out == ri


class TestShrinkP:
    def test_p1_matches_soft_threshold(self):
        x = np.linspace(-3, 3, 41)
        np.testing.assert_allclose(shrink_p(x, 1.7, 1.0), soft_threshold(x, 1.7))

    def test_p2_closed_form(self):
        x = np.linspace(-3, 3, 41)
        np.testing.assert_allclose(shrink_p(x, 0.5, 2.0), x / 1.5, rtol=1e-15)

    def test_p_three_halves_quadratic_root(self):
        # y + (3/4) sqrt(y) = 2 solved by s^2 with s^2 + 0.75 s - 2 = 0
        s = (-0.75 + np.sqrt(0.75**2 + 8.0)) / 2.0
        assert shrink_p(2.0, 1.0, 1.5) == pytest.approx(s * s, rel=1e-14)
        assert shrink_p(2.0, 1.0, 1.5) == pytest.approx(1.1839343833700353, rel=1e-13)

    def test_endpoint_snapping(self):
        assert shrink_p(3.0, 2.0, 1.0 + 5e-13) == shrink_p(3.0, 2.0, 1.0)
        assert shrink_p(3.0, 2.0, 2.0 - 5e-13) == shrink_p(3.0, 2.0, 2.0)
        assert shrink_p(3.0, 2.0, 1.5 + 5e-13) == shrink_p(3.0, 2.0, 1.5)
        assert shrink_p(3.0, 2.0, 1.5 - 5e-13) == shrink_p(3.0, 2.0, 1.5)

    def test_p_out_of_range(self):
        with pytest.raises(ParameterError):
            shrink_p(1.0, 1.0, 0.9)
        with pytest.raises(ParameterError):
            shrink_p(1.0, 1.0, 2.1)

    def test_odd_symmetry(self):
        x = np.linspace(0.01, 5, 50)
        for p in (1.0, 1.3, 1.5, 1.9, 2.0):
            np.testing.assert_allclose(shrink_p(-x, 1.2, p), -shrink_p(x, 1.2, p),
                                       rtol=0, atol=0)

    def test_zero_maps_to_zero(self):
        for p in (1.0, 1.2, 1.5, 2.0):
            assert shrink_p(0.0, 1.0, p) == 0.0

    def test_never_expands(self):
        rng = np.random.default_rng(4)
        x = rng.normal(scale=3.0, size=2000)
        for p in (1.0, 1.1, 1.5, 1.9, 2.0):
            s = shrink_p(x, 0.7, p)
            assert np.all(np.abs(s) <= np.abs(x) + 1e-15)

    def test_inverts_forward_map(self):
        # sample y, push through F, recover y
        rng = np.random.default_rng(5)
        y = rng.uniform(-50.0, 50.0, size=5000)
        for p in (1.05, 1.3, 1.5, 1.7, 1.95):
            for w in (0.1, 1.0, 10.0):
                x = forward_map(y, w, p)
                np.testing.assert_allclose(shrink_p(x, w, p), y,
                                           rtol=1e-10, atol=1e-12)

    def test_deep_root_recovered(self):
        # p close to 1 drives the root toward the underflow floor; the
        # solve must still find it instead of collapsing to zero
        p, w, x = 1.001, 1.0, 0.3
        y = shrink_p(x, w, p)
        assert 0.0 < y < 1e-200
        a = 0.5 * w * p
        # residual in the monotone substitution y + a y^(p-1) = x
        assert y + a * y ** (p - 1.0) == pytest.approx(x, rel=1e-12)

    def test_three_halves_closed_form_matches_newton(self):
        # p = 1.5 takes the quadratic root, p = 1.5 -+ 1e-9 the Newton
        # solve; their mean cancels the first-order change in p, leaving
        # Newton's own residual tolerance, 1e-14 |x|
        rng = np.random.default_rng(12)
        x = np.sign(rng.normal(size=20000)) * 10.0 ** rng.uniform(-15, 15, 20000)
        w = 10.0 ** rng.uniform(-8, 8, 20000)
        closed = shrink_p(x, w, 1.5)
        newton = 0.5 * (shrink_p(x, w, 1.5 - 1e-9) + shrink_p(x, w, 1.5 + 1e-9))
        bound = 1e-10 * np.abs(closed) + 2e-14 * (1.0 + np.abs(x))
        assert np.all(np.abs(closed - newton) <= bound)

    def test_three_halves_huge_weight(self):
        # h^2 = (3w/8)^2 overflows; the root must not collapse to zero
        x = np.array([1e308, -1e308, 1.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for w in (1e160, 1e300, 1.7e308):
                y = shrink_p(x, w, 1.5)
                for xi, yi in zip(x, y):
                    assert yi == pytest.approx(forward_inverse_check(xi, w, 1.5),
                                               rel=1e-10)
            assert shrink_p(x, 1e300, 1.5)[0] == pytest.approx(16.0 / 9.0 * 1e16)

    def test_three_halves_infinite_argument(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = shrink_p(np.array([np.inf, -np.inf]), 1.0, 1.5)
        np.testing.assert_array_equal(y, [np.inf, -np.inf])

    @pytest.mark.parametrize("w", [1e200, 1e250])
    def test_three_halves_overflow_seen_past_nan(self, w):
        # h^2 + t overflows for every entry; a NaN in the same array must
        # not hide that from the guard, or the roots collapse to zero
        x = np.array([np.nan, 1e100, -np.inf, 4.0, np.inf, -1e100, np.nan])
        for weight in (w, np.full(x.size, w)):
            y = shrink_p(x, weight, 1.5)
            assert y[1] > 0.0 and y[5] == -y[1]
            assert forward_map(y[1], w, 1.5) == pytest.approx(1e100, rel=1e-14)
            for xi, yi in zip(x, y):
                alone = shrink_p(np.array([xi]), w, 1.5)[0]
                assert (np.isnan(yi) and np.isnan(alone)) or yi == alone

    def test_root_finder_failure_is_a_library_error(self, monkeypatch):
        monkeypatch.setattr(shrinkage, "_MAX_ROOT_ITERATIONS", 1)
        with pytest.raises(ContractViolationError, match="root finder"):
            shrink_p(np.array([0.7, 3.0]), 1.0, p=1.3)

    def test_root_below_smallest_denormal_does_not_warn(self):
        # the root lies below the smallest denormal, so the component
        # settles at u = -inf; its update must not leak a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert shrink_p(np.array([5e-324]), 10.0, 1.000001)[0] == 0.0

    def test_large_log_root_settles(self):
        # at large |u| = |log y| one ulp of u moves the residual by more
        # than its tolerance; Newton must settle instead of alternating
        # between adjacent floats until the iteration cap
        assert shrink_p(1e10, 1e130, 1.3) == 0.0  # the root is below 5e-324
        x, w = np.meshgrid(10.0 ** np.arange(10, 306, 5),
                           10.0 ** np.arange(-300, 301, 10))
        y = shrink_p(x, w, 1.3)
        ref = np.array([forward_inverse_check(float(xi), float(wi), 1.3)
                        for xi, wi in zip(x.ravel(), w.ravel())]).reshape(x.shape)
        np.testing.assert_array_equal(y == 0.0, ref == 0.0)
        np.testing.assert_allclose(y, ref, rtol=1e-10, atol=0)

    def test_huge_argument(self):
        x = 1e308
        y = shrink_p(x, 1.0, 1.5)
        assert y == pytest.approx(forward_inverse_check(x, 1.0, 1.5), rel=1e-10)

    def test_monotone_nondecreasing(self):
        x = np.linspace(-20, 20, 4001)
        for p in (1.0, 1.2, 1.5, 1.8, 2.0):
            s = shrink_p(x, 1.3, p)
            assert np.all(np.diff(s) >= 0.0)

    @given(
        x=st.floats(-1e6, 1e6, allow_nan=False),
        w=st.floats(1e-3, 1e3),
        p=st.one_of(st.sampled_from((1.0, 1.5, 2.0)), st.floats(1.0, 2.0)),
    )
    @settings(max_examples=300, deadline=None)
    def test_identity_property(self, x, w, p):
        y = shrink_p(x, w, p)
        assert np.isfinite(y)
        assert abs(y) <= abs(x) + 1e-15
        if y != 0.0:
            back = forward_map(y, w, p)
            assert back == pytest.approx(x, rel=1e-9, abs=1e-9 * w)

    @given(
        x=st.floats(-100, 100, allow_nan=False),
        d=st.floats(0, 10),
        w=st.floats(1e-2, 1e2),
        p=st.one_of(st.sampled_from((1.0, 1.5, 2.0)), st.floats(1.0, 2.0)),
    )
    @settings(max_examples=300, deadline=None)
    def test_nonexpansive_pairs(self, x, d, w, p):
        # |S(x) - S(x')| <= |x - x'|: shrinkage never expands distances
        a = shrink_p(x, w, p)
        b = shrink_p(x + d, w, p)
        assert abs(a - b) <= d + 1e-12 * (1.0 + d)

    def test_near_the_float_limit(self):
        # t + a t^(p-1) overflows at the start of the solve; it runs at t/4
        y = shrink_p(1e308, 0.8, 1.999999)
        assert 0.0 < y < 1e308
        # the Newton solve in u = log y (u near 707, one ulp 1.1e-13
        # relative in y) ends with a Newton step in y, which reaches roundoff
        assert forward_map(y, 0.8, 1.999999) == pytest.approx(1e308, rel=1e-14)
        # the shift is far below an ulp of t: the root rounds to t itself
        # (the Newton solve and the p = 3/2 closed form each gave t + 1 ulp)
        assert shrink_p(1e307, 0.8, 1.3) == 1e307
        assert shrink_p(1.25e38, 0.8, 1.5) == 1.25e38
        x = np.array([1.5e308, -4.6e307, np.finfo(float).max, 1e300, 1.18e247, 1.0])
        for p in (1.01, 1.3, 1.5, 1.7, 1.999999):
            for w in (1e-300, 0.8, 1e300):
                y = shrink_p(x, w, p)
                assert np.all(np.abs(y) <= np.abs(x)) and np.all(y * np.sign(x) >= 0.0)


    @pytest.mark.parametrize("p", [1.01, 1.3, 1.7, 1.999999])
    def test_tiny_inputs_solved_to_relative_accuracy(self, p):
        # Newton stops on a residual relative to t: with a floor of
        # 1e-14 it took no step for t below that and returned its start
        t = 10.0 ** np.linspace(-300, -10, 581)
        for w in (1e-200, 1e-30, 1e-5, 1.0):
            y = shrink_p(t, w, p)
            # a subnormal root carries too few digits for the bound
            normal = y >= np.finfo(float).tiny
            assert np.all(np.abs(forward_map(y, w, p) - t)[normal] <= 1e-13 * t[normal])
        # roots y0 at every ratio of the two terms of F, from 1e-6 to 1e6
        rng = np.random.default_rng(31)
        y0 = 10.0 ** rng.uniform(-300, -10, 2000)
        w = 2.0 * 10.0 ** rng.uniform(-6, 6, 2000) * y0 ** (2.0 - p) / p
        t = forward_map(y0, w, p)
        assert np.all(np.abs(forward_map(shrink_p(t, w, p), w, p) - t) <= 1e-13 * t)
        t = 1.2470701771236815e-17
        assert forward_map(shrink_p(t, 1e-5, p), 1e-5, p) == pytest.approx(t, rel=1e-13)
        # subnormal t: the weighted term moves in steps of w times the
        # smallest denormal, so the residual never reaches 1e-14 t
        t = np.array([2.225073858507e-311, 9.346903797e-315, 5e-324])
        for w in (18.0, 1723.58):
            y = shrink_p(t, w, p)
            assert np.all((0.0 <= y) & (y <= t))


def three_halves_guarded(x, w):
    """The p = 3/2 closed form with its overflow guards and the sqrt(t) bound always on."""
    t = np.abs(x)
    h = 0.375 * w
    r = np.sqrt(t)
    with np.errstate(over="ignore", invalid="ignore"):
        root = np.sqrt(h * h + t)
        if np.fmax.reduce(root, axis=None, initial=0.0) == np.inf:
            root = np.hypot(h, r)
        s = np.fmin(t / (h + root), r)
    return np.sign(x) * np.minimum(s * s, t)


class TestThreeHalvesForms:
    """shrink_p at p = 3/2 drops the sqrt(t) bound unless a root reaches 2^511.

    Below that the bound binds only by rounding: outputs stay within one
    ulp of the guarded form, and signed zeros, subnormals and NaN keep
    its bits. An input whose root reaches 2^511 (t = inf, t near the
    float limit, or h^2 + t overflowing for a huge weight) sends the
    whole call to the guarded form itself.
    """

    SMALL = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, np.nan, -np.nan])
    HUGE = np.array([np.inf, -np.inf, 1e308, -np.finfo(float).max, 4.6e307, -1.3e154])

    @staticmethod
    def ulps(a, b):
        return np.abs(np.abs(a).view(np.int64) - np.abs(b).view(np.int64))

    @pytest.mark.parametrize("w", [1e-300, 0.8, 1e300])
    def test_special_inputs_keep_the_guarded_bits(self, w):
        rng = np.random.default_rng(15)
        ordinary = rng.choice([-1.0, 1.0], 500) * 10.0 ** rng.uniform(-300, 150, 500)
        for x in (self.SMALL, self.HUGE, np.concatenate([self.SMALL, self.HUGE]),
                  np.concatenate([ordinary, self.HUGE])):
            for weight in (w, np.full(x.size, w)):
                assert shrink_p(x, weight, 1.5).tobytes() == \
                    three_halves_guarded(x, weight).tobytes()
        for xi in np.concatenate([self.SMALL[:-2], self.HUGE]):
            assert np.float64(shrink_p(float(xi), w, 1.5)).tobytes() == \
                np.float64(three_halves_guarded(xi, w)).tobytes()

    @pytest.mark.parametrize("w", [5e-324, 1e-300, 1e-12, 0.8, 1e300])
    def test_ordinary_inputs_within_one_ulp(self, w):
        rng = np.random.default_rng(16)
        x = rng.choice([-1.0, 1.0], 20000) * 10.0 ** rng.uniform(-320, 150, 20000)
        for weight in (w, np.full(x.size, w)):
            got, ref = shrink_p(x, weight, 1.5), three_halves_guarded(x, weight)
            assert np.array_equal(np.signbit(got), np.signbit(ref))
            assert self.ulps(got, ref).max() <= 1
        # the bound binds where 3w/8 is tiny next to sqrt|x|: 0.3 itself is
        # the root to within an ulp, and the bound gave the float below it
        assert shrink_p(np.array([0.3]), 1e-300, 1.5)[0] == 0.3
        assert three_halves_guarded(np.array([0.3]), 1e-300)[0] == np.nextafter(0.3, 0.0)


class TestInputsStayUntouched:
    """Every public shrink leaves its input as it was and returns new memory."""

    CALLS = [("soft_threshold", lambda x, w, p: soft_threshold(x, w)),
             ("shrink_p", shrink_p),
             ("shrink_asymmetric", lambda x, w, p: shrink_asymmetric(x, w, 2.0 * w, p)),
             ("shrink_complex", shrink_complex)]

    @pytest.mark.parametrize("name, call", CALLS, ids=[n for n, _ in CALLS])
    @pytest.mark.parametrize("p", [1.0, 1.3, 1.5, 2.0])
    def test_input_not_written_and_not_shared(self, name, call, p):
        rng = np.random.default_rng(17)
        real = np.concatenate([rng.normal(size=50), [0.0, -0.0, np.inf, -np.inf, 1e308]])
        inputs = [real, real[::2], real.reshape(5, 11), np.array(-2.5)]
        if name == "shrink_complex":
            # the imaginary part set on its own: 1j * inf forms inf * 0
            z = real.astype(complex)
            z.imag = real[::-1]
            inputs += [z, z[::3]]
        for x in inputs:
            for w in (0.8, np.full(x.shape, 0.8)):
                before = x.copy()
                out = call(x, w, p)
                assert x.tobytes() == before.tobytes()
                assert not np.shares_memory(out, x)


class TestInputErrors:
    @pytest.mark.parametrize("p", [1.0, 1.3, 1.5, 2.0])
    def test_weight_that_does_not_broadcast(self, p):
        for w in (np.ones(2), np.ones((2, 3))):
            with pytest.raises(AlignmentError, match="broadcast"):
                shrink_p(np.ones(3), w, p)
            with pytest.raises(AlignmentError, match="broadcast"):
                shrink_complex(np.ones(3) + 1j, w, p)
            with pytest.raises(AlignmentError, match="broadcast"):
                shrink_asymmetric(np.ones(3), w, 1.0, p)
            with pytest.raises(AlignmentError, match="broadcast"):
                shrink_asymmetric(np.ones(3), 1.0, w, p)
        with pytest.raises(AlignmentError):
            shrink_p(1.0, np.ones(2), p)

    @pytest.mark.parametrize("p", [1.0, 1.3, 1.5, 2.0])
    def test_broadcasting_weights_still_accepted(self, p):
        x = np.linspace(-3.0, 3.0, 6).reshape(2, 3)
        for w in (0.7, np.full(3, 0.7), np.full((1, 3), 0.7), np.full((2, 3), 0.7)):
            np.testing.assert_array_equal(shrink_p(x, w, p), shrink_p(x, 0.7, p))
        assert shrink_p(np.ones((0, 3)), np.full(3, 0.7), p).shape == (0, 3)

    @pytest.mark.parametrize("p", [1.0, 1.3, 1.5, 2.0])
    @pytest.mark.parametrize("bad", [
        np.array(["1.0", "2.0"]),
        np.array([1.0, 2.0], dtype=object),
        np.array([True, False]),
    ], ids=["str", "object", "bool"])
    def test_non_numeric_input(self, p, bad):
        with pytest.raises(ParameterError, match="real numbers"):
            shrink_p(bad, 1.0, p)
        with pytest.raises(ParameterError, match="real numbers"):
            shrink_complex(bad, 1.0, p)
        with pytest.raises(ParameterError, match="real numbers"):
            shrink_asymmetric(bad, 1.0, 1.0, p)
        with pytest.raises(ParameterError, match="real numbers"):
            shrink_p(np.ones(2), bad, p)


class TestScalarWeights:
    """A uniform weight held as one float gives the bytes of its array."""

    # signed zeros, the smallest denormal, infinities and ordinary values
    X = np.array([0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, 0.3, -2.5, 1e6, 7e-9])

    @staticmethod
    def same_bytes(a, b):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("p", [1.0, 1.3, 1.5, 2.0])
    @pytest.mark.parametrize("c", [0.7, 3e5, 1e-300])
    def test_same_bytes_as_full_array(self, p, c):
        for x in (self.X, np.array([])):
            full = np.full(x.size, c)
            assert self.same_bytes(shrink_p(x, c, p), shrink_p(x, full, p))
            assert self.same_bytes(shrink_p(x, np.float64(c), p), shrink_p(x, full, p))
            assert self.same_bytes(shrink_asymmetric(x, c, 2.0 * c, p),
                                   shrink_asymmetric(x, full, np.full(x.size, 2.0 * c), p))
            z = x.astype(complex)
            z.imag = x[::-1]
            assert self.same_bytes(shrink_complex(z, c, p), shrink_complex(z, full, p))

    @pytest.mark.parametrize("p", [1.0, 1.3, 1.5, 2.0])
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf, np.float64(np.nan), -0.0])
    def test_bad_scalar_weight_rejected(self, p, bad):
        for call in (lambda: shrink_p(self.X, bad, p),
                     lambda: shrink_p(np.array([]), bad, p),
                     lambda: shrink_p(1.0, bad, p),
                     lambda: shrink_complex(self.X + 1j, bad, p),
                     lambda: shrink_asymmetric(self.X, bad, 1.0, p),
                     lambda: shrink_asymmetric(self.X, 1.0, bad, p)):
            with pytest.raises(ParameterError, match="strictly positive"):
                call()


def forward_inverse_check(x, w, p):
    """Reference inverse via high-count bisection in log space."""
    import math

    a = 0.5 * w * p
    if x == 0.0:
        return 0.0
    t = abs(x)
    lo, hi = math.log(t) - 1500.0, math.log(t) + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.exp(mid) + a * math.exp((p - 1.0) * mid) > t:
            hi = mid
        else:
            lo = mid
    return math.copysign(math.exp(0.5 * (lo + hi)), x)


class TestShrinkComplex:
    def test_modulus_shrinks_phase_fixed(self):
        out = shrink_complex(1.0 + 1.0j, 2.0, 1.0)
        assert out == pytest.approx(0.29289321881345254 * (1 + 1j), rel=1e-13)

    def test_dead_zone(self):
        assert shrink_complex(0.1 + 0.1j, 2.0, 1.0) == 0.0

    def test_real_input_falls_back(self):
        x = np.array([1.0, -2.0])
        np.testing.assert_allclose(shrink_complex(x, 1.0, 1.0),
                                   shrink_p(x, 1.0, 1.0))

    def test_phase_invariance(self):
        rng = np.random.default_rng(6)
        r = rng.uniform(0.1, 5.0, size=200)
        theta = rng.uniform(-np.pi, np.pi, size=200)
        z = r * np.exp(1j * theta)
        for p in (1.0, 1.4, 2.0):
            out = shrink_complex(z, 0.8, p)
            radial = shrink_p(r, 0.8, p)
            np.testing.assert_allclose(out, radial * np.exp(1j * theta),
                                       rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.3, 1.5, 2.0])
    def test_infinite_modulus(self, p):
        # the scale S(r)/r tends to 1 for p < 2 and is 1/(1 + w) at p = 2,
        # applied to each part; finite entries beside the infinite ones
        # shrink as they do on their own (at p = 3/2 an infinite entry moves
        # the others to the hypot form of the root, which may differ in the
        # last bit)
        z = np.array([complex(np.inf, 1.0), complex(0.0, np.inf),
                      complex(np.inf, -np.inf), 0.3 - 2.5j, -1.0 + 0.5j])
        out = shrink_complex(z, 0.8, p)
        limit = z[:3] if p < 2.0 else np.array([complex(np.inf, 1.0 / 1.8), complex(0.0, np.inf),
                                                 complex(np.inf, -np.inf)])
        np.testing.assert_array_equal(out[:3], limit)
        np.testing.assert_allclose(out[3:], shrink_complex(z[3:], 0.8, p), rtol=1e-15)
        for point, expected in zip(z[:3], limit):
            assert shrink_complex(point, 0.8, p) == expected

    @pytest.mark.parametrize("p", [1.0, 1.3, 1.5, 1.999999, 2.0])
    def test_finite_point_whose_modulus_overflows(self, p):
        # |z| is above the float limit though both parts are finite
        z = np.array([complex(1.5e308, 1.5e308), complex(-1.5e308, 1.2e308)])
        w = 0.8
        out = shrink_complex(z, w, p)
        assert np.all(np.isfinite(out))
        if p == 2.0:
            # S(x) = x / (1 + w), up to the rounding of the scale S(r)/r
            np.testing.assert_allclose(out.real, z.real / (1.0 + w), rtol=1e-15)
            np.testing.assert_allclose(out.imag, z.imag / (1.0 + w), rtol=1e-15)
        # the phase is kept and F(|out|) = |z|, checked at a quarter of the
        # moduli: y/4 + (w p / 2) (y/4)^(p-1) 4^(p-2) = r/4
        np.testing.assert_allclose(out.imag / out.real, z.imag / z.real, rtol=1e-14)
        y4 = np.hypot(out.real / 4, out.imag / 4)
        r4 = np.hypot(z.real / 4, z.imag / 4)
        np.testing.assert_allclose(y4 + 0.5 * w * p * y4 ** (p - 1) * 4.0 ** (p - 2), r4,
                                   rtol=1e-13)
        assert np.all(y4 <= r4)
        for point, expected in zip(z, out):
            assert shrink_complex(point, w, p) == expected


class TestShrinkAsymmetric:
    def test_one_sided_dead_zone(self):
        # dead zone [-w_minus/2, w_plus/2] = [-2, 1] at p = 1
        assert shrink_asymmetric(3.0, 2.0, 4.0, 1.0) == pytest.approx(2.0)
        assert shrink_asymmetric(-3.0, 2.0, 4.0, 1.0) == pytest.approx(-1.0)
        assert shrink_asymmetric(0.9, 2.0, 4.0, 1.0) == 0.0
        assert shrink_asymmetric(-1.9, 2.0, 4.0, 1.0) == 0.0

    def test_reduces_to_symmetric(self):
        x = np.linspace(-4, 4, 33)
        for p in (1.0, 1.5, 2.0):
            np.testing.assert_allclose(
                shrink_asymmetric(x, 1.2, 1.2, p), shrink_p(x, 1.2, p),
                rtol=1e-12, atol=1e-14)

    def test_inverts_one_sided_map(self):
        rng = np.random.default_rng(7)
        y = rng.uniform(-10, 10, size=500)
        wp, wm, p = 0.6, 2.5, 1.5
        x = np.where(
            y >= 0,
            y + 0.5 * p * wp * np.abs(y) ** (p - 1),
            y - 0.5 * p * wm * np.abs(y) ** (p - 1),
        )
        np.testing.assert_allclose(shrink_asymmetric(x, wp, wm, p), y,
                                   rtol=1e-10, atol=1e-12)

    def test_rejects_complex(self):
        with pytest.raises(ParameterError):
            shrink_asymmetric(np.array([1.0 + 1.0j]), 1.0, 1.0, 1.0)


def step_shrink(h, spec):
    """Vector shrinkage as one solver step applies it.

    From f = 0 with K = 0.5 * identity and data 2 h, the step's input is
    exactly h.
    """
    h = CoefficientVector(np.asarray(h))
    K = DiagonalOperator(np.full(len(h), 0.5))
    f0 = CoefficientVector(np.zeros(len(h)), dims=h.dims)
    return iterate_step(f0, 2.0 * h.values, K, spec)


class TestShrinkVector:
    def test_effective_weight_is_mu_w(self):
        spec = PenaltySpec(p=1.0, weights=WeightSequence(np.array([1.0, 4.0])), mu=0.5)
        out = step_shrink(np.array([2.0, 2.0]), spec)
        # thresholds mu*w/2 = 0.25 and 1.0
        np.testing.assert_allclose(out.values, [1.75, 1.0])

    def test_complex_entries(self):
        spec = PenaltySpec.uniform(p=1.0, mu=2.0, n=1)
        out = step_shrink(np.array([1.0 + 1.0j]), spec)
        assert out.is_complex
        assert out.values[0] == pytest.approx(0.29289321881345254 * (1 + 1j), rel=1e-12)

    def test_asymmetric_spec(self):
        w = WeightSequence.uniform(1)
        spec = PenaltySpec(p=1.0, weights=w, mu=1.0,
                           asymmetric=(np.array([4.0]), np.array([8.0])))
        assert step_shrink(np.array([3.0]), spec).values[0] == pytest.approx(1.0)
        assert step_shrink(np.array([-5.0]), spec).values[0] == pytest.approx(-1.0)

    def test_preserves_dims(self):
        spec = PenaltySpec.uniform(p=1.0, mu=1.0, n=4)
        out = step_shrink(np.ones((2, 2)), spec)
        assert out.dims == (2, 2)
