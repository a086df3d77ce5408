"""Scalar and vector shrinkage operators.

The central contract is that shrink_p inverts F(y) = y + (w p / 2)
sign(y) |y|^(p-1) exactly in the closed-form cases and to solver
accuracy in between.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseland.core import CoefficientVector, PenaltySpec, WeightSequence
from sparseland import shrinkage
from sparseland.errors import ContractViolationError, ParameterError
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
        with pytest.raises(ParameterError):
            soft_threshold(1.0, 0.0)
        with pytest.raises(ParameterError):
            soft_threshold(1.0, -1.0)

    def test_rejects_complex(self):
        with pytest.raises(ParameterError):
            soft_threshold(np.array([1.0 + 1.0j]), 1.0)


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

    def test_root_finder_failure_is_a_library_error(self, monkeypatch):
        monkeypatch.setattr(shrinkage, "_MAX_ROOT_ITERATIONS", 1)
        with pytest.raises(ContractViolationError, match="root finder"):
            shrink_p(np.array([0.7, 3.0]), 1.0, p=1.5)

    def test_root_below_smallest_denormal_does_not_warn(self):
        # the root lies below the smallest denormal, so the component
        # settles at u = -inf; its update must not leak a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert shrink_p(np.array([5e-324]), 10.0, 1.000001)[0] == 0.0

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
        p=st.floats(1.0, 2.0),
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
        p=st.floats(1.0, 2.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_nonexpansive_pairs(self, x, d, w, p):
        # |S(x) - S(x')| <= |x - x'|: shrinkage never expands distances
        a = shrink_p(x, w, p)
        b = shrink_p(x + d, w, p)
        assert abs(a - b) <= d + 1e-12 * (1.0 + d)


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
