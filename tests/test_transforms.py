"""Wavelet transforms, scale labels, smoothness weights, conjugation."""

import numpy as np
import pytest

from sparseland.core import PenaltySpec, triple_norm
from sparseland.errors import AlignmentError, ParameterError
from sparseland.operators import Convolution2DOperator, DiagonalOperator, estimate_norm
from sparseland.transforms import (
    BesovWeightSpec,
    WaveletSpec,
    besov_weights,
    conjugated_operator,
    dwt,
    dwt_array,
    idwt,
    idwt_array,
)

FAMILIES = ("haar", "db2", "db3", "db4")


class TestWaveletSpec:
    def test_db2_filter_closed_form(self):
        spec = WaveletSpec("db2")
        s3 = np.sqrt(3.0)
        expected = np.array([1 + s3, 3 + s3, 3 - s3, 1 - s3]) / (4 * np.sqrt(2))
        np.testing.assert_allclose(spec.lowpass, expected, rtol=1e-15)

    def test_filters_orthonormal(self):
        for family in FAMILIES:
            h = WaveletSpec(family).lowpass
            assert np.dot(h, h) == pytest.approx(1.0, abs=1e-12)
            assert h.sum() == pytest.approx(np.sqrt(2.0), abs=1e-12)
            for lag in range(2, h.size, 2):
                assert np.dot(h[:-lag], h[lag:]) == pytest.approx(0.0, abs=1e-12)

    def test_haar_alias(self):
        np.testing.assert_array_equal(WaveletSpec("haar").lowpass,
                                      WaveletSpec("db1").lowpass)

    def test_unknown_family(self):
        with pytest.raises(ParameterError):
            WaveletSpec("sym4")

    def test_validation(self):
        with pytest.raises(ParameterError):
            WaveletSpec("haar", levels=0)
        with pytest.raises(ParameterError):
            WaveletSpec("haar", boundary="zero")


class TestTransform1D:
    def test_perfect_reconstruction(self):
        rng = np.random.default_rng(0)
        for family in FAMILIES:
            for n, levels in ((8, 1), (16, 2), (64, 3), (256, 4)):
                spec = WaveletSpec(family, levels)
                x = rng.normal(size=n)
                back = idwt(dwt(x, spec))
                np.testing.assert_allclose(back, x, atol=1e-12)

    def test_parseval(self):
        rng = np.random.default_rng(1)
        for family in FAMILIES:
            spec = WaveletSpec(family, 3)
            x = rng.normal(size=128)
            c = dwt(x, spec)
            assert np.linalg.norm(c.values) == pytest.approx(
                np.linalg.norm(x), rel=1e-12)

    def test_haar_step_signal(self):
        # (1,1,-1,-1) at two levels: all energy in the single coarse
        # detail coefficient
        c = dwt(np.array([1.0, 1.0, -1.0, -1.0]), WaveletSpec("haar", 2))
        np.testing.assert_array_equal(c.scales, [0, 0, 1, 1])
        assert abs(c.values[0]) < 1e-14          # approximation
        assert abs(c.values[1]) == pytest.approx(2.0, abs=1e-14)  # coarse detail
        np.testing.assert_allclose(c.values[2:], 0.0, atol=1e-14)
        assert np.sum(c.values**2) == pytest.approx(4.0, abs=1e-13)

    def test_constant_signal_is_pure_approximation(self):
        for family in FAMILIES:
            spec = WaveletSpec(family, 2)
            c = dwt(np.full(16, 3.0), spec)
            details = c.values[c.scales >= 0][16 >> 2:]
            np.testing.assert_allclose(details, 0.0, atol=1e-12)

    def test_scale_labels_1d(self):
        c = dwt(np.zeros(16), WaveletSpec("haar", 3))
        expected = [0, 0] + [0, 0] + [1] * 4 + [2] * 8
        np.testing.assert_array_equal(c.scales, expected)

    def test_length_must_divide(self):
        with pytest.raises(AlignmentError):
            dwt(np.zeros(6), WaveletSpec("haar", 2))
        with pytest.raises(AlignmentError):
            dwt(np.zeros(7), WaveletSpec("haar", 1))

    def test_complex_rejected(self):
        with pytest.raises(ParameterError):
            dwt(np.array([1.0 + 1j, 0, 0, 0]), WaveletSpec("haar", 1))
        with pytest.raises(ParameterError):
            idwt_array(np.array([1.0 + 1j, 0, 0, 0]), WaveletSpec("haar", 1), (4,))

    def test_idwt_array_length_check(self):
        with pytest.raises(AlignmentError):
            idwt_array(np.zeros(5), WaveletSpec("haar", 1), (4,))

    def test_3d_rejected(self):
        with pytest.raises(ParameterError):
            dwt_array(np.zeros((4, 4, 4)), WaveletSpec("haar", 1))


class TestTransform2D:
    def test_perfect_reconstruction(self):
        rng = np.random.default_rng(2)
        for family in FAMILIES:
            for shape, levels in (((8, 8), 1), ((16, 8), 2), ((32, 32), 3)):
                spec = WaveletSpec(family, levels)
                x = rng.normal(size=shape)
                c = dwt(x, spec)
                np.testing.assert_allclose(idwt(c), x, atol=1e-12)

    def test_parseval(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(32, 32))
        c = dwt(x, WaveletSpec("db2", 2))
        assert np.linalg.norm(c.values) == pytest.approx(
            np.linalg.norm(x), rel=1e-12)

    def test_scale_labels_2d(self):
        c = dwt(np.zeros((8, 8)), WaveletSpec("haar", 2))
        expected = [0] * 4 + [0] * 12 + [1] * 48
        np.testing.assert_array_equal(c.scales, expected)
        assert len(c) == 64

    def test_coefficient_vector_input(self):
        from sparseland.core import CoefficientVector

        grid = np.random.default_rng(4).normal(size=(8, 8))
        c = dwt(CoefficientVector.from_grid(grid), WaveletSpec("db2", 1))
        np.testing.assert_allclose(idwt(c), grid, atol=1e-12)


def _analysis_matrices(h, g, n):
    """One-level periodic analysis rows: band entry k reads x[2k + j]."""
    H = np.zeros((n // 2, n))
    G = np.zeros((n // 2, n))
    for k in range(n // 2):
        for j in range(h.size):
            H[k, (2 * k + j) % n] += h[j]
            G[k, (2 * k + j) % n] += g[j]
    return H, G


class TestBandLayout:
    def test_1d_one_level_is_lowpass_then_highpass(self):
        rng = np.random.default_rng(10)
        for family in FAMILIES:
            spec = WaveletSpec(family, 1)
            for n in (8, 16):
                H, G = _analysis_matrices(spec.lowpass, spec.highpass, n)
                x = rng.normal(size=n)
                np.testing.assert_allclose(dwt_array(x, spec), np.vstack([H, G]) @ x,
                                           rtol=0, atol=1e-14)

    def test_2d_one_level_band_order(self):
        rng = np.random.default_rng(11)
        rows, cols = 8, 16
        for family in FAMILIES:
            spec = WaveletSpec(family, 1)
            Hr, Gr = _analysis_matrices(spec.lowpass, spec.highpass, rows)
            Hc, Gc = _analysis_matrices(spec.lowpass, spec.highpass, cols)
            X = rng.normal(size=(rows, cols))
            bands = [Hr @ X @ Hc.T, Gr @ X @ Hc.T, Hr @ X @ Gc.T, Gr @ X @ Gc.T]
            expected = np.concatenate([b.ravel() for b in bands])
            np.testing.assert_allclose(dwt_array(X, spec), expected, rtol=0, atol=1e-13)

    def test_synthesis_is_adjoint_of_analysis(self):
        rng = np.random.default_rng(12)
        for family in FAMILIES:
            spec = WaveletSpec(family, 2)
            for shape in ((16,), (8, 16)):
                x = rng.normal(size=shape)
                c = rng.normal(size=x.size)
                assert np.dot(dwt_array(x, spec), c) == pytest.approx(
                    np.vdot(x, idwt_array(c, spec, shape)), rel=1e-12)


class TestBesovWeights:
    def test_weight_formula(self):
        # sigma = s + d(1/2 - 1/p) = 1 at s=1, p=2, d=1: w = 4^scale
        w = besov_weights(BesovWeightSpec(s=1.0, p=2.0, d=1),
                          np.array([0, 0, 1, 2]))
        np.testing.assert_allclose(w.w, [1.0, 1.0, 4.0, 16.0])

    def test_zero_sigma_uniform(self):
        # s = d(1/p - 1/2) makes sigma zero: all weights one
        w = besov_weights(BesovWeightSpec(s=0.5, p=1.0, d=1),
                          np.array([0, 1, 2, 3]))
        np.testing.assert_array_equal(w.w, np.ones(4))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ParameterError):
            BesovWeightSpec(s=0.0, p=1.0, d=1)  # sigma = -0.5

    def test_sigma_value(self):
        assert BesovWeightSpec(s=1.0, p=1.0, d=2).sigma == pytest.approx(0.0)
        assert BesovWeightSpec(s=1.5, p=2.0, d=2).sigma == pytest.approx(1.5)

    def test_label_validation(self):
        spec = BesovWeightSpec(s=1.0, p=2.0, d=1)
        with pytest.raises(ParameterError):
            besov_weights(spec, np.array([-1, 0]))
        with pytest.raises(ParameterError):
            besov_weights(spec, np.zeros((2, 2)))

    def test_norm_scaling_homogeneous(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=64)
        spec = WaveletSpec("db2", 3)
        c = dwt(x, spec)
        w = besov_weights(BesovWeightSpec(s=1.0, p=1.5, d=1), c.scales)
        ps = PenaltySpec(p=1.5, weights=w, mu=1.0)
        base = triple_norm(c.values, ps)
        scaled = triple_norm(dwt(2.5 * x, spec).values, ps)
        assert scaled == pytest.approx(2.5 * base, rel=1e-12)

    def test_fine_spike_costs_more_at_higher_smoothness(self):
        # a point spike is fine-scale content: it moves the s=1 norm much
        # more than the s=0 norm of the same signal
        n = 64
        spec = WaveletSpec("db2", 3)
        x = np.linspace(0.0, 1.0, n)
        spike = np.zeros(n)
        spike[40] = 1.0
        increases = {}
        for s in (0.0, 1.0):
            w = besov_weights(BesovWeightSpec(s=s, p=2.0, d=1),
                              dwt(x, spec).scales)
            ps = PenaltySpec(p=2.0, weights=w, mu=1.0)
            increases[s] = (triple_norm(dwt(x + spike, spec).values, ps)
                            - triple_norm(dwt(x, spec).values, ps))
        assert increases[1.0] > 3.0 * increases[0.0]


class TestConjugatedOperator:
    def test_identity_base_round_trips(self):
        K = DiagonalOperator(np.ones(16))
        C = conjugated_operator(K, WaveletSpec("db2", 2))
        rng = np.random.default_rng(6)
        z = rng.normal(size=16)
        v = rng.normal(size=16)
        np.testing.assert_allclose(C.adjoint(C.apply(z)), z, atol=1e-12)
        np.testing.assert_allclose(C.apply(C.adjoint(v)), v, atol=1e-12)

    def test_norm_bound_carries_over(self):
        K = DiagonalOperator(np.full(8, 0.7))
        C = conjugated_operator(K, WaveletSpec("haar", 1))
        assert C.norm_bound == K.norm_bound
        # orthonormal conjugation preserves the spectral norm
        assert estimate_norm(C) == pytest.approx(estimate_norm(K), rel=0.01)

    def test_adjoint_pairing(self):
        K = Convolution2DOperator((8, 8), (16, 16))
        C = conjugated_operator(K, WaveletSpec("db2", 2))
        rng = np.random.default_rng(7)
        z = rng.normal(size=64)
        v = rng.normal(size=64)
        assert np.vdot(v, C.apply(z)) == pytest.approx(
            np.vdot(C.adjoint(v), z), rel=1e-12)

    def test_scales_align_with_domain(self):
        K = Convolution2DOperator((8, 8), (16, 16))
        C = conjugated_operator(K, WaveletSpec("haar", 2))
        assert C.scales.size == C.domain_len == 64
        assert C.shape == (8, 8)

    def test_complex_input_rejected(self):
        C = conjugated_operator(Convolution2DOperator((8, 8), (16, 16)),
                                WaveletSpec("db2", 2))
        z = np.random.default_rng(9).normal(size=64) * (1.0 + 1.0j)
        with pytest.raises(ParameterError):
            C.apply(z)
        with pytest.raises(ParameterError):
            C.adjoint(z)

    def test_indivisible_grid_rejected(self):
        K = Convolution2DOperator((6, 6), (12, 12))
        with pytest.raises(AlignmentError):
            conjugated_operator(K, WaveletSpec("haar", 2))

    def test_pixel_solution_recovered_through_conjugation(self):
        # minimizing in coefficient space and synthesizing equals solving
        # the p=2 pixel problem when the weights are uniform
        from sparseland.solver import SolverConfig, solve

        rng = np.random.default_rng(8)
        K = DiagonalOperator(rng.uniform(0.3, 0.9, size=16))
        g = rng.normal(size=16)
        spec_w = WaveletSpec("db2", 2)
        C = conjugated_operator(K, spec_w)
        pen = PenaltySpec.uniform(p=2.0, mu=0.1, n=16)
        cfg = SolverConfig(max_iterations=20000, step_tolerance=0.0)
        res_pixel = solve(g, K, pen, cfg)
        res_coeff = solve(g, C, pen, cfg)
        recon = idwt_array(res_coeff.minimizer.values, spec_w, (16,))
        np.testing.assert_allclose(recon, res_pixel.minimizer.values, atol=1e-10)
