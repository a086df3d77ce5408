"""Wavelet transforms, scale labels, smoothness weights, conjugation."""

import sys
import threading

import numpy as np
import pytest

from sparseland import transforms
from sparseland.core import PenaltySpec, triple_norm
from sparseland.errors import AlignmentError, ParameterError
from sparseland.operators import Convolution2DOperator, DiagonalOperator
from sparseland.solver import SolverConfig, solve
from sparseland.transforms import (
    BesovWeightSpec,
    WaveletCoefficients,
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

    @pytest.mark.parametrize("defect", [np.nan, 1e-12])
    def test_filter_defect_refused(self, monkeypatch, defect):
        h = transforms._lowpass_filter("db2")
        h[1] += defect
        monkeypatch.setattr(transforms, "_lowpass_filter", lambda family: h.copy())
        with pytest.raises(ParameterError, match="fails orthonormality"):
            WaveletSpec("db2")

    @pytest.mark.parametrize("delta", [np.nan, 1e-9])
    def test_lifting_defect_refused(self, monkeypatch, delta):
        euclid = transforms._euclid

        def perturbed(*args):
            run = euclid(*args)
            if run is None:
                return run
            (odd, ((c, lag), *terms)), *steps = run.steps
            return run._replace(steps=((odd, ((c + delta, lag), *terms)), *steps))

        monkeypatch.setattr(transforms, "_euclid", perturbed)
        with pytest.raises(ParameterError, match="miss the filter bank"):
            WaveletSpec("db2")

    def test_no_lifting_refused(self, monkeypatch):
        monkeypatch.setattr(transforms, "_euclid", lambda *args: None)
        with pytest.raises(ParameterError, match="no lifting factorization"):
            WaveletSpec("db2")

    @pytest.mark.parametrize("family", FAMILIES)
    def test_lifting_reproduces_polyphase_matrix(self, family):
        spec = WaveletSpec(family)
        h, g = spec.lowpass, spec.highpass
        polyphase = [[dict(enumerate(f[r::2])) for r in (0, 1)] for f in (h, g)]
        lifted = _lifted_polyphase(spec.lifting)
        for i in (0, 1):
            for j in (0, 1):
                want, got = polyphase[i][j], lifted[i][j]
                worst = max(abs(want.get(k, 0.0) - got.get(k, 0.0)) for k in {*want, *got})
                assert worst <= 1e-14, (i, j, worst)

    @pytest.mark.parametrize("family", ["db2", "db3", "db4"])
    def test_vanishing_moments(self, family):
        # sum (-1)^j j^k h[j] = 0 for k below the number of vanishing
        # moments, half the filter length
        h = WaveletSpec(family).lowpass
        j = np.arange(h.size, dtype=float)
        for k in range(h.size // 2):
            assert abs(np.sum((-1.0) ** j * j**k * h)) <= 1e-13 * np.sum(j**k * np.abs(h))


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

    @pytest.mark.parametrize("bad", [
        np.array([True, False, True, False]),
        np.array(["1.0", "2.0", "3.0", "4.0"]),
        np.array([1.0, 2.0, 3.0, 4.0], dtype=object),
    ], ids=["bool", "str", "object"])
    def test_non_numeric_rejected(self, bad):
        spec = WaveletSpec("haar", 1)
        with pytest.raises(ParameterError, match="real numbers"):
            dwt_array(bad, spec)
        with pytest.raises(ParameterError, match="real numbers"):
            idwt_array(bad, spec, (4,))

    def test_idwt_array_length_check(self):
        with pytest.raises(AlignmentError):
            idwt_array(np.zeros(5), WaveletSpec("haar", 1), (4,))

    def test_idwt_array_needs_flat_values(self):
        with pytest.raises(AlignmentError, match="1-d"):
            idwt_array(np.zeros((2, 2)), WaveletSpec("haar", 1), (2, 2))

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
        c = dwt(CoefficientVector(grid), WaveletSpec("db2", 1))
        np.testing.assert_allclose(idwt(c), grid, atol=1e-12)


def _laurent_mul(p, q):
    out = {}
    for i, a in p.items():
        for j, b in q.items():
            out[i + j] = out.get(i + j, 0.0) + a * b
    return out


def _lifted_polyphase(lifting):
    """diag(scale) L_n ... L_1 diag(z^shift) as a 2x2 of {exponent: coefficient}.

    An odd step is [[1, 0], [q, 1]], an even one [[1, q], [0, 1]], with
    q(z) = sum c z^s over the step's (c, s) terms.
    """
    M = [[{lifting.shift[0]: 1.0}, {}], [{}, {lifting.shift[1]: 1.0}]]
    for odd, terms in lifting.steps:
        q = {}
        for c, s in terms:
            q[s] = q.get(s, 0.0) + c
        row, other = (1, 0) if odd else (0, 1)
        for col in (0, 1):
            for k, v in _laurent_mul(q, M[other][col]).items():
                M[row][col][k] = M[row][col].get(k, 0.0) + v
    return [[{k: lifting.scale[i] * v for k, v in M[i][j].items()} for j in (0, 1)]
            for i in (0, 1)]


def _analysis_matrices(h, g, n):
    """One-level periodic analysis rows: band entry k reads x[2k + j]."""
    H = np.zeros((n // 2, n))
    G = np.zeros((n // 2, n))
    for k in range(n // 2):
        for j in range(h.size):
            H[k, (2 * k + j) % n] += h[j]
            G[k, (2 * k + j) % n] += g[j]
    return H, G


def _analysis_matrix(spec, shape):
    """Explicit multi-level analysis matrix in flat band order."""
    h, g = spec.lowpass, spec.highpass
    approx = np.eye(int(np.prod(shape)))
    details = []
    for level in range(spec.levels):
        pairs = [_analysis_matrices(h, g, n >> level) for n in shape]
        if len(shape) == 1:
            bands = list(pairs[0])
        else:
            (Hr, Gr), (Hc, Gc) = pairs
            bands = [np.kron(Hr, Hc), np.kron(Gr, Hc), np.kron(Hr, Gc), np.kron(Gr, Gc)]
        details.append([b @ approx for b in bands[1:]])
        approx = bands[0] @ approx
    return np.vstack([approx] + [b for level in reversed(details) for b in level])


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
            for levels in range(1, 6):
                spec = WaveletSpec(family, levels)
                for shape in ((16 << levels,), (32, 64), (64, 64)):
                    x = rng.normal(size=shape)
                    c = rng.normal(size=x.size)
                    assert np.dot(dwt_array(x, spec), c) == pytest.approx(
                        np.vdot(x, idwt_array(c, spec, shape)), rel=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("shape, levels", [
        ((2,), 1), ((8,), 3), ((2, 8), 1), ((8, 16), 3), ((16, 16), 2)])
    def test_explicit_periodic_matrices(self, family, shape, levels):
        # at axis length 2 (m = 1) every lifting step reads its own
        # band's single entry, whatever its shift
        spec = WaveletSpec(family, levels)
        W = _analysis_matrix(spec, shape)
        rng = np.random.default_rng(14)
        x = rng.normal(size=shape)
        c = rng.normal(size=x.size)
        np.testing.assert_allclose(dwt_array(x, spec), W @ x.ravel(), rtol=0, atol=1e-13)
        np.testing.assert_allclose(idwt_array(c, spec, shape).ravel(), W.T @ c,
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("family", ["db3", "db4"])
    @pytest.mark.parametrize("shape, levels", [((8,), 3), ((8, 16), 2)])
    def test_filter_longer_than_band(self, family, shape, levels):
        # at the coarsest split the filter is longer than the band it
        # splits, so the periodic extension can wrap around more than once
        spec = WaveletSpec(family, levels)
        assert min(shape) >> (levels - 1) < spec.lowpass.size
        W = _analysis_matrix(spec, shape)
        rng = np.random.default_rng(13)
        x = rng.normal(size=shape)
        c = rng.normal(size=x.size)
        np.testing.assert_allclose(dwt_array(x, spec), W @ x.ravel(),
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(idwt_array(c, spec, shape).ravel(), W.T @ c,
                                   rtol=0, atol=1e-13)
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


def _sources(n, seed):
    """Five Gaussian blobs on an n x n grid, flat."""
    yy, xx = np.mgrid[0:n, 0:n]
    centres = np.random.default_rng(seed).uniform(n / 8, 7 * n / 8, (5, 2))
    return sum(np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (n / 8)) for cy, cx in centres).ravel()


class TestConjugatedOperator:
    @pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                        reason="the bound counts numpy 2's FFT temporaries")
    def test_solve_peak_in_coefficient_arrays(self, traced_peak):
        # a cold solve: plans are recorded, the operator is built, and 20
        # steps run at p = 3/2 with Besov weights. Its traced peak read
        # 50.6 coefficient arrays while each transform direction kept
        # buffers of its own (2.5 arrays) and the convolution a pad-sized
        # filter (1 array), and 47.5 without them (CPython 3.11, numpy
        # 2.4). The bound lies halfway between. With the operator's int64
        # scale labels built on access it reads 46.2
        n = 64
        g = _sources(n, 40)

        def run():
            transforms._plans.cache_clear()
            K = conjugated_operator(Convolution2DOperator((n, n), (n, n), 0.3),
                                    WaveletSpec("db2", 3))
            w = besov_weights(BesovWeightSpec(1.0, 1.5, 2), K.scales)
            return solve(g.ravel(), K, PenaltySpec(p=1.5, weights=w, mu=1e-3),
                         SolverConfig(max_iterations=20, step_tolerance=0.0))

        assert traced_peak(run) / (8 * n * n) < 49.0

    @pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                        reason="the bound counts numpy 2's FFT temporaries")
    def test_band_runs_keep_the_solve_peak(self, traced_peak):
        # 5 steps of the wavelet benchmark's solve, on a built operator:
        # its three Besov bands average 21,845 entries, so the step
        # shrinks them run by run with float weights. Its traced peak read
        # 10.2 coefficient arrays, and 13.0 with the runs switched off
        # (CPython 3.11, numpy 2.4); the bound lies halfway between
        n = 256
        g = _sources(n, 40)
        K = conjugated_operator(Convolution2DOperator((n, n), (n, n), 0.3),
                                WaveletSpec("db2", 3))
        spec = PenaltySpec(p=1.5, weights=besov_weights(BesovWeightSpec(1.0, 1.5, 2), K.scales),
                           mu=1e-3)
        config = SolverConfig(max_iterations=5, step_tolerance=0.0)
        assert traced_peak(lambda: solve(g, K, spec, config)) / (8 * n * n) < 11.6

    def test_base_dims_must_match_its_length(self):
        K = DiagonalOperator(np.full(8, 0.5))
        K.domain_dims = (4, 4)
        with pytest.raises(AlignmentError, match="domain length"):
            conjugated_operator(K, WaveletSpec("haar", 1))

    def test_identity_base_round_trips(self):
        K = DiagonalOperator(np.ones(16))
        C = conjugated_operator(K, WaveletSpec("db2", 2))
        rng = np.random.default_rng(6)
        z = rng.normal(size=16)
        v = rng.normal(size=16)
        np.testing.assert_allclose(C.adjoint(C.apply(z)), z, atol=1e-12)
        np.testing.assert_allclose(C.apply(C.adjoint(v)), v, atol=1e-12)

    def test_norm_bound_carries_over(self):
        K = DiagonalOperator(np.linspace(0.1, 0.7, 8))
        C = conjugated_operator(K, WaveletSpec("haar", 1))
        assert C.norm_bound == K.norm_bound
        # orthonormal conjugation preserves the spectral norm
        eye = np.eye(8)
        k_matrix = np.column_stack([K.apply(eye[:, j]) for j in range(8)])
        c_matrix = np.column_stack([C.apply(eye[:, j]) for j in range(8)])
        assert np.linalg.norm(c_matrix, 2) == pytest.approx(
            np.linalg.norm(k_matrix, 2), rel=1e-12)
        assert np.linalg.norm(c_matrix, 2) <= C.norm_bound * (1.0 + 1e-12)

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
        assert "scales" not in vars(C)  # built on each access, not held

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


class TestArgumentTypes:
    """An argument of the wrong type raises a library error."""

    def test_spec_that_is_not_a_wavelet_spec(self):
        x = np.ones((8, 8))
        v = dwt(x, WaveletSpec("db2", 1))
        calls = [lambda: dwt(x, "db2"),
                 lambda: dwt_array(x, "db2"),
                 lambda: idwt(WaveletCoefficients(v.values, v.scales, "db2", (8, 8))),
                 lambda: idwt_array(v.values, "db2", (8, 8)),
                 lambda: conjugated_operator(Convolution2DOperator((8, 8), (16, 16)), "db2")]
        for call in calls:
            with pytest.raises(ParameterError, match="must be a WaveletSpec, got str"):
                call()

    def test_base_that_is_not_an_operator(self):
        with pytest.raises(ParameterError,
                           match="operator K must be a LinearOperatorHandle, got array"):
            conjugated_operator(np.eye(4), WaveletSpec("haar", 1))

    @pytest.mark.parametrize("shape", [(8.0, 8.0), (8, 8.0), (True, 8), ("8", 8)])
    def test_axis_length_that_is_not_an_integer(self, shape):
        # (8.0, 8.0) hashes like (8, 8), whose plans are cached by now
        spec = WaveletSpec("db2", 1)
        v = dwt(np.ones((8, 8)), spec)
        with pytest.raises(ParameterError, match="axis length must be an integer"):
            idwt(WaveletCoefficients(v.values, v.scales, spec, shape))

    @pytest.mark.parametrize("shape", [8, None, 8.0])
    def test_shape_that_is_not_a_sequence(self, shape):
        spec = WaveletSpec("haar", 1)
        v = dwt(np.ones(8), spec)
        for call in (lambda: idwt_array(v.values, spec, shape),
                     lambda: idwt(WaveletCoefficients(v.values, v.scales, spec, shape))):
            with pytest.raises(ParameterError, match="1-d signals and 2-d grids only, got"):
                call()

    def test_integer_axis_lengths_of_any_type(self):
        spec = WaveletSpec("db2", 1)
        v = dwt(np.arange(64.0).reshape(8, 8), spec)
        want = idwt(v).tobytes()
        for shape in ((np.int64(8), np.int32(8)), [8, 8], np.array([8, 8])):
            assert idwt_array(v.values, spec, shape).tobytes() == want


def _band_slices(shape, levels):
    """Flat band order: the scaling band, then each level's details, coarsest first."""
    yield tuple(slice(0, n >> levels) for n in shape)
    for level in range(levels, 0, -1):
        lo = [slice(0, n >> level) for n in shape]
        hi = [slice(n >> level, 2 * (n >> level)) for n in shape]
        if len(shape) == 1:
            yield (hi[0],)
        else:
            # G X H^T, H X G^T, G X G^T: high along axis 0, along axis 1, along both
            yield from ((hi[0], lo[1]), (lo[0], hi[1]), (hi[0], hi[1]))


def _lift(x, spec):
    """dwt_array written out directly, every periodic read a whole-array np.roll."""
    L = spec.lifting
    work = np.array(x, dtype=float)
    for level in range(spec.levels):
        corner = tuple(slice(0, n >> level) for n in work.shape)
        for axis in reversed(range(work.ndim)):
            block = work[corner]
            n = block.shape[axis]
            e, o = (np.roll(np.take(block, np.arange(r, n, 2), axis=axis), -L.shift[r],
                            axis=axis) for r in (0, 1))
            for odd, terms in L.steps:
                for c, s in terms:
                    if odd:
                        o = o + np.roll(e, -s, axis=axis) * c
                    else:
                        e = e + np.roll(o, -s, axis=axis) * c
            work[corner] = np.concatenate([e * L.scale[0], o * L.scale[1]], axis=axis)
    return np.concatenate([work[band].ravel() for band in _band_slices(work.shape, spec.levels)])


def _unlift(values, spec, shape):
    """idwt_array written out directly: _lift's steps undone in reverse."""
    L = spec.lifting
    work = np.empty(shape)
    pos = 0
    for band in _band_slices(shape, spec.levels):
        piece = work[band]
        piece[...] = values[pos:pos + piece.size].reshape(piece.shape)
        pos += piece.size
    for level in reversed(range(spec.levels)):
        corner = tuple(slice(0, n >> level) for n in shape)
        for axis in range(len(shape)):
            block = work[corner]
            m = block.shape[axis] // 2
            e = np.take(block, np.arange(m), axis=axis) * (1.0 / L.scale[0])
            o = np.take(block, np.arange(m, 2 * m), axis=axis) * (1.0 / L.scale[1])
            for odd, terms in reversed(L.steps):
                for c, s in terms:
                    if odd:
                        o = o + np.roll(e, -s, axis=axis) * -c
                    else:
                        e = e + np.roll(o, -s, axis=axis) * -c
            out = np.empty_like(block)
            for r, phase in enumerate((e, o)):
                index = [slice(None)] * len(shape)
                index[axis] = slice(r, None, 2)
                out[tuple(index)] = np.roll(phase, L.shift[r], axis=axis)
            work[corner] = out
    return work


class TestRecordedPlans:
    """Both directions of a shape and spec are recorded once and run under one lock."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_bits_of_the_direct_lifting(self, family):
        # down to bands shorter than the filter, first recorded, then from the cache
        rng = np.random.default_rng(30)
        for levels in range(1, 5):
            spec = WaveletSpec(family, levels)
            d = 2**levels
            for shape in ((d,), (8 * d,), (d, d), (2 * d, 4 * d), (16 * d, 8 * d)):
                x = rng.normal(size=shape)
                c = rng.normal(size=x.size)
                for _ in range(2):
                    assert dwt_array(x, spec).tobytes() == _lift(x, spec).tobytes()
                    assert idwt_array(c, spec, shape).tobytes() == \
                        _unlift(c, spec, shape).tobytes()
                if len(shape) == 2:
                    xt = rng.normal(size=shape[::-1]).T
                    assert dwt_array(xt, spec).tobytes() == _lift(xt, spec).tobytes()

    def test_specs_of_one_shape_keep_their_own_plans(self):
        shape = (16, 16)
        specs = [WaveletSpec(family, levels) for family in FAMILIES for levels in (1, 2)]
        plans = [plan for spec in specs for plan in transforms._plans(shape, spec)]
        assert len({id(plan) for plan in plans}) == 2 * len(specs)
        x = np.random.default_rng(31).normal(size=shape)
        for spec in specs + specs[::-1]:
            assert dwt_array(x, spec).tobytes() == _lift(x, spec).tobytes()

    def test_threads_get_the_single_thread_bytes(self):
        # four threads interleave two shapes and two specs from a cold
        # cache, so plans are recorded while other threads run theirs
        rng = np.random.default_rng(32)
        cases = [(spec, shape, rng.normal(size=shape))
                 for spec in (WaveletSpec("db2", 2), WaveletSpec("db3", 1))
                 for shape in ((32, 32), (16, 64))]
        want = [(dwt_array(x, spec).tobytes(), idwt_array(x.ravel(), spec, shape).tobytes())
                for spec, shape, x in cases]
        mismatches = []

        def transform(k):
            try:
                for i in range(200):
                    (spec, shape, x), (fwd, inv) = cases[(i + k) % 4], want[(i + k) % 4]
                    if (dwt_array(x, spec).tobytes() != fwd
                            or idwt_array(x.ravel(), spec, shape).tobytes() != inv):
                        mismatches.append((k, i))
            except Exception as exc:  # reported by the assertion below
                mismatches.append(exc)

        transforms._plans.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=transform, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []

    def test_calls_wait_for_the_lock(self):
        spec, x = WaveletSpec("haar", 1), np.ones(8)
        dwt_array(x, spec)  # recorded outside the lock held below
        done = threading.Event()
        thread = threading.Thread(target=lambda: (dwt_array(x, spec), done.set()))
        with transforms._LOCK:
            thread.start()
            assert not done.wait(0.2)
        thread.join(timeout=60)
        assert done.is_set()

    def test_writing_a_returned_array_changes_no_later_call(self):
        spec, shape = WaveletSpec("db3", 2), (16, 8)
        rng = np.random.default_rng(33)
        x, c = rng.normal(size=shape), rng.normal(size=128)
        fwd, inv = dwt_array(x, spec), idwt_array(c, spec, shape)
        want = fwd.tobytes(), inv.tobytes()
        fwd[...] = np.nan
        inv[...] = np.nan
        assert (dwt_array(x, spec).tobytes(), idwt_array(c, spec, shape).tobytes()) == want
        assert not np.shares_memory(dwt_array(x, spec), dwt_array(x, spec))

    def test_cache_stays_bounded(self, monkeypatch):
        spec = WaveletSpec("haar", 1)
        for n in range(2, 82, 2):
            dwt_array(np.ones(n), spec)
            idwt_array(np.ones(n), spec, (n,))
            info = transforms._plans.cache_info()
            assert info.currsize <= info.maxsize
        # each idwt_array call ran the pair its shape's dwt_array call recorded
        assert info.currsize == info.maxsize and info.hits >= 40
        # a shape above the size bound is served by plans recorded for
        # its call alone, which the cache neither looks up nor keeps
        monkeypatch.setattr(transforms, "_MAX_PLAN_SIZE", 100)
        transforms._plans.cache_clear()
        x = np.random.default_rng(34).normal(size=(8, 8))
        for _ in range(2):
            assert dwt_array(x, spec).tobytes() == _lift(x, spec).tobytes()
            assert idwt_array(x.ravel(), spec, (8, 8)).tobytes() == \
                _unlift(x.ravel(), spec, (8, 8)).tobytes()
        assert transforms._plans.cache_info()[:2] == (0, 0)  # no hit, no miss
        assert transforms._plans.cache_info().currsize == 0

    def test_directions_of_a_shape_share_their_buffers(self):
        shape = (32, 16)
        specs = (WaveletSpec("db2", 3), WaveletSpec("db4", 1))
        buffers = [[_buffers_of(plan) for plan in transforms._plans(shape, spec)]
                   for spec in specs]
        for analysis, synthesis in buffers:
            assert len(analysis) == len(synthesis) == 2
            assert all(any(np.shares_memory(a, b) for b in synthesis) for a in analysis)
        # each spec records on buffers of its own
        assert not any(np.shares_memory(a, b) for a in buffers[0][0] for b in buffers[1][0])
        # a call must read no entry that an earlier call of the other
        # direction left there: interleaved calls give the bytes of calls
        # from a fresh cache
        rng = np.random.default_rng(35)
        xs = [rng.normal(size=shape) for _ in range(2)]
        want = {}
        for spec in specs:
            for i, x in enumerate(xs):
                transforms._plans.cache_clear()
                want[spec, "dwt", i] = dwt_array(x, spec).tobytes()
                transforms._plans.cache_clear()
                want[spec, "idwt", i] = idwt_array(x.ravel(), spec, shape).tobytes()
        transforms._plans.cache_clear()
        for _ in range(2):
            for i, x in enumerate(xs):
                for spec in specs + specs[::-1]:
                    assert idwt_array(x.ravel(), spec, shape).tobytes() == want[spec, "idwt", i]
                    assert dwt_array(x, spec).tobytes() == want[spec, "dwt", i]


def _buffers_of(plan):
    """The arrays a plan's views look into."""
    views = [view for _, _, view in plan.reads + plan.writes]
    views += [a for _, args in plan.ops for a in args if isinstance(a, np.ndarray)]
    roots = {}
    for view in views:
        while view.base is not None:
            view = view.base
        roots[id(view)] = view
    return list(roots.values())
