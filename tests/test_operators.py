"""Operator handles, norm certificates, and the SVD reference model."""

import numpy as np
import pytest

from sparseland.core import PenaltySpec
from sparseland.errors import AlignmentError, ContractViolationError, ParameterError
from sparseland.experiment import ExperimentConfig
from sparseland.operators import (
    Convolution2DOperator,
    DenseOperator,
    DiagonalOperator,
    LinearOperatorHandle,
    ScaledOperator,
    SvdModel,
    renormalize,
    thresholded_svd_solve,
    validate_operator,
)
from sparseland.solver import SolverConfig, solve


class TestDomainDims:
    def test_dims_must_imply_the_domain_length(self):
        # refused at construction, before a solve runs all its iterations
        class Stub(LinearOperatorHandle):
            pass

        with pytest.raises(AlignmentError,
                           match=r"domain_dims \(4, 4\) imply 16 entries, domain has 3"):
            Stub(3, 3, 0.5, domain_dims=(4, 4))
        assert Stub(16, 3, 0.5, domain_dims=(4, 4)).domain_dims == (4, 4)


class TestDiagonalOperator:
    def test_apply_adjoint(self):
        D = DiagonalOperator(np.array([2.0, -3.0]))
        np.testing.assert_array_equal(D.apply([1.0, 1.0]), [2.0, -3.0])
        np.testing.assert_array_equal(D.adjoint([1.0, 1.0]), [2.0, -3.0])
        assert D.norm_bound == 3.0

    def test_grid_input_is_flattened(self):
        D = DiagonalOperator(np.array([1.0, 2.0, 3.0, 4.0]))
        grid = np.array([[1.0, -1.0], [0.5, 2.0]])
        np.testing.assert_array_equal(D.apply(grid), D.apply(grid.ravel()))
        np.testing.assert_array_equal(D.adjoint(grid), [1.0, -2.0, 1.5, 8.0])

    def test_complex_adjoint_conjugates(self):
        D = DiagonalOperator(np.array([1.0 + 1.0j]))
        assert D.adjoint([1.0])[0] == 1.0 - 1.0j

    def test_alignment(self):
        D = DiagonalOperator(np.ones(3))
        with pytest.raises(AlignmentError):
            D.apply(np.ones(4))
        with pytest.raises(AlignmentError):
            D.adjoint(np.ones(2))

    def test_scalar_input_is_one_entry(self):
        # the message of a mismatch reports sizes, so it cannot read "1, got 1"
        np.testing.assert_array_equal(DiagonalOperator([0.5]).apply(2.0), [1.0])
        np.testing.assert_array_equal(DiagonalOperator([0.5]).normal(np.array(2.0)), [0.5])
        # a dot with a 0-d array would scale the whole matrix
        for method in ("apply", "adjoint", "normal"):
            assert getattr(DenseOperator([[0.5]]), method)(2.0).shape == (1,)
        with pytest.raises(AlignmentError, match="operator image has length 2, got 1"):
            DiagonalOperator([0.5, 0.5]).adjoint(2.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            DiagonalOperator(np.array([np.inf]))
        with pytest.raises(ParameterError):
            DiagonalOperator(np.ones((2, 2)))

    @pytest.mark.parametrize("entries", [
        ["a", "b"], np.array([1.0, None], dtype=object), [True, False],
    ])
    def test_rejects_non_numeric_entries(self, entries):
        with pytest.raises(ParameterError, match="must be numbers"):
            DiagonalOperator(entries)

    def test_accepts_integer_entries(self):
        assert DiagonalOperator(np.array([2, -3], dtype=np.int32)).norm_bound == 3.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind, entries", [(DiagonalOperator, [1e200, 1.0]),
                                           (DenseOperator, [[1e200, 0.0], [0.0, 1.0]])],
                         ids=["diagonal", "dense"])
def test_entries_beyond_the_square_root_of_the_float_limit(kind, entries):
    # the Gram matrix overflows at construction without a warning, and
    # the renormalized problem scales before it squares
    r = renormalize(kind(entries), [1.0, 1.0])
    assert r.operator.norm_bound == 0.999
    np.testing.assert_allclose(r.operator.normal([1.0, 1.0]), [0.999**2, 0.0], atol=1e-300)
    res = solve(r.data, r.operator, PenaltySpec.uniform(1.0, 0.1, 2))
    assert res.status == "converged_step"
    assert np.isfinite(res.minimizer.values).all() and np.isfinite(res.trace.objectives).all()


class TestDenseOperator:
    def test_norm_bound_from_spectral_norm(self):
        M = np.array([[3.0, 0.0], [4.0, 0.0]])
        K = DenseOperator(M)
        assert K.norm_bound == pytest.approx(5.0, rel=1e-11)
        assert K.norm_bound >= 5.0

    def test_rectangular(self):
        M = np.arange(6.0).reshape(2, 3)
        K = DenseOperator(M)
        assert K.domain_len == 3 and K.image_len == 2
        f = np.array([1.0, 0.5, -1.0])
        np.testing.assert_allclose(K.apply(f), M @ f)
        g = np.array([1.0, 2.0])
        np.testing.assert_allclose(K.adjoint(g), M.T @ g)

    @pytest.mark.parametrize("matrix", [
        [["a", "b"]], np.array([[1.0, None]], dtype=object), np.eye(2, dtype=bool),
    ])
    def test_rejects_non_numeric_entries(self, matrix):
        with pytest.raises(ParameterError, match="must be numbers"):
            DenseOperator(matrix)

    @pytest.mark.parametrize("matrix, message", [
        (np.ones(3), "nonempty 2-d"), (np.ones((0, 2)), "nonempty 2-d"),
        (np.ones((2, 2, 2)), "nonempty 2-d"), ([[1.0, np.inf]], "finite"),
        ([[np.nan]], "finite"),
    ])
    def test_rejects_bad_matrix(self, matrix, message):
        with pytest.raises(ParameterError, match=message):
            DenseOperator(matrix)

    def test_accepts_unsigned_entries(self):
        K = DenseOperator(np.array([[3, 0], [4, 0]], dtype=np.uint8))
        assert K.norm_bound == pytest.approx(5.0, rel=1e-11)


class TestScaledOperator:
    def test_scales_both_directions(self):
        base = DiagonalOperator(np.array([2.0]))
        K = ScaledOperator(base, 0.25, norm_bound=0.5)
        assert K.apply([4.0])[0] == 2.0
        assert K.adjoint([4.0])[0] == 2.0
        assert K.norm_bound == 0.5

    @pytest.mark.parametrize("base", ["x", -1, None, np.eye(2)])
    def test_base_must_be_an_operator(self, base):
        with pytest.raises(ParameterError, match="must be a LinearOperatorHandle"):
            ScaledOperator(base, 2.0, 0.5)


class TestConvolution2D:
    def test_matches_kernel_matrix(self):
        # entry oracle: cropping a padded circular convolution gives
        # K[(r,c),(r',c')] = kernel((r-r') mod P0, (c-c') mod P1)
        K = Convolution2DOperator((4, 5), (9, 11), radius_fraction=0.6)
        kernel = np.fft.ifft2(K.filter).real
        n = 4 * 5
        dense = np.empty((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            dense[:, j] = K.apply(e)
        expected = np.empty_like(dense)
        for i in range(n):
            for j in range(n):
                r, c = divmod(i, 5)
                rp, cp = divmod(j, 5)
                expected[i, j] = kernel[(r - rp) % 9, (c - cp) % 11]
        np.testing.assert_allclose(dense, expected, atol=1e-12)

    def test_self_adjoint(self):
        K = Convolution2DOperator((6, 6), (12, 12))
        rng = np.random.default_rng(0)
        f = rng.normal(size=36)
        g = rng.normal(size=36)
        assert np.vdot(g, K.apply(f)) == pytest.approx(
            np.vdot(K.adjoint(g), f), rel=1e-12)
        np.testing.assert_allclose(K.apply(f), K.adjoint(f), atol=1e-14)

    def test_norm_bound_certified(self):
        K = Convolution2DOperator((6, 6), (12, 12), radius_fraction=0.4)
        n = 36
        dense = np.column_stack([
            K.apply(np.eye(n)[:, j]) for j in range(n)
        ])
        top = np.linalg.norm(dense, 2)
        assert top <= K.norm_bound * (1.0 + 1e-12)
        assert K.norm_bound == 0.999

    def test_rotation_equivariance(self):
        # square grid, square pad, radially symmetric response
        K = Convolution2DOperator((8, 8), (16, 16))
        rng = np.random.default_rng(1)
        f = rng.normal(size=(8, 8))
        lhs = K.apply(np.rot90(f).ravel()).reshape(8, 8)
        rhs = np.rot90(K.apply(f.ravel()).reshape(8, 8))
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)

    def test_preserves_nonnegativity(self):
        K = Convolution2DOperator((16, 16), (32, 32))
        rng = np.random.default_rng(2)
        f = rng.uniform(0.0, 1.0, size=256)
        out = K.apply(f)
        assert out.min() >= -1e-12 * out.max()

    def test_point_spread_function(self):
        K = Convolution2DOperator((8, 8), (20, 20))
        psf = K.point_spread_function()
        assert psf.shape == (20, 20)
        assert psf.min() >= -1e-15 * psf.max()
        assert np.unravel_index(np.argmax(psf), psf.shape) == (10, 10)

    def test_shape_validation(self):
        with pytest.raises(ParameterError):
            Convolution2DOperator((4, 4), (3, 4))
        with pytest.raises(ParameterError):
            Convolution2DOperator((4, 4), (8, 8), radius_fraction=0.0)
        with pytest.raises(ParameterError):
            Convolution2DOperator((4, 4), (8, 8), radius_fraction=1.5)

    @pytest.mark.parametrize("kwargs", [
        {"radius_fraction": "0.1"},
        {"radius_fraction": float("nan")},
        {"radius_fraction": float("inf")},
        {"radius_fraction": None},
    ])
    def test_numbers_checked_before_comparing(self, kwargs):
        with pytest.raises(ParameterError):
            Convolution2DOperator((4, 4), (8, 8), **kwargs)

    @pytest.mark.parametrize("grid, pad", [
        ((4.7, 4), (8, 8)),      # would truncate to 4
        ((4, 4), (8.9, 8)),
        ((4, 4), (8, np.float64(8.0))),
        ((0, 4), (8, 8)),
        ((4, 4, 1), (8, 8)),
        (4, (8, 8)),
    ])
    def test_shapes_are_integer_pairs(self, grid, pad):
        with pytest.raises(ParameterError):
            Convolution2DOperator(grid, pad)

    def test_numpy_integer_shapes_accepted(self):
        K = Convolution2DOperator(np.array([4, 5]), (np.int64(8), 10))
        assert K.grid == (4, 5) and K.pad == (8, 10)
        assert all(type(n) is int for n in K.grid + K.pad)

    @pytest.mark.parametrize("grid, pad, radius, band", [
        ((4, 5), (9, 11), 0.3, 3),       # odd pads
        ((6, 6), (12, 12), 0.4, 5),      # even pads
        ((7, 9), (7, 9), 0.3, 3),        # pad == grid, odd
        ((8, 8), (8, 8), 0.5, 5),        # pad == grid, even
        ((5, 12), (10, 17), 0.35, 5),    # non-square grid and pad
        ((6, 7), (10, 13), 1.0, 7),      # every rfft column
        ((6, 6), (16, 16), 0.1, 1),      # the zero-frequency column only
        ((4, 5), (9, 11), 1.0, 6),       # the disk wraps, odd pads
        ((7, 7), (7, 7), 1.0, 4),        # the disk wraps, pad == grid, odd
        ((8, 8), (8, 8), 1.0, 5),        # the disk wraps, pad == grid, even
        ((3, 4), (9, 11), 0.6, 6),       # only the response wraps
    ])
    def test_band_limited_path(self, grid, pad, radius, band):
        K = Convolution2DOperator(grid, pad, radius_fraction=radius)
        # (a) the response is the scaled autocorrelation of the disk, and
        # exactly zero outside the kept columns and their mirror images
        np.testing.assert_allclose(K.filter, _disk_response(pad, radius),
                                   rtol=0.0, atol=1e-15 * K.peak_response)
        outside = K.filter[:, K.band: pad[1] - K.band + 1]
        assert np.all(outside == 0.0)
        # (b) full padded-grid FFT reference
        rng = np.random.default_rng(11)
        f = rng.normal(size=grid)
        padded = np.zeros(pad)
        padded[: grid[0], : grid[1]] = f
        ref = np.fft.ifft2(np.fft.fft2(padded) * K.filter).real[: grid[0], : grid[1]]
        out = K.apply(f.ravel()).reshape(grid)
        assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max()
        # (c) adjoint pairing and norm bound
        validate_operator(K)
        assert K.band == band

    # narrow: the band covers at most a quarter of the padded spectrum on
    # both axes; the geometry alone picks the form at any band width
    @pytest.mark.parametrize("grid, pad, radius, bands, narrow", [
        ((5, 12), (10, 17), 0.35, (3, 5), True),      # non-square, band_y != band
        ((30, 40), (70, 90), 0.15, (11, 13), True),   # non-square, band_y != band
        ((64, 64), (64, 64), 0.1, (7, 7), True),      # pad == grid, narrow band
        ((8, 8), (16, 16), 0.3, (5, 5), True),        # 4 (band - 1) == pad
        ((8, 8), (15, 15), 0.3, (5, 5), False),       # 4 (band - 1) == pad + 1
        ((8, 9), (15, 16), 0.3, (5, 5), False),       # only the rows wide
        ((9, 8), (16, 15), 0.3, (5, 5), False),       # only the columns wide
        ((12, 10), (24, 20), 0.45, (11, 9), False),   # wide band
        ((7, 9), (7, 9), 0.3, (3, 3), False),         # pad == grid, odd
        ((5, 6), (9, 11), 1.0, (5, 6), False),        # the disk wraps, odd pads
        ((6, 6), (33, 35), 1.0, (17, 18), False),     # the disk wraps, wide grid
        ((6, 8), (8, 10), 1.0, (5, 6), False),        # even pads, the band reaches Nyquist
        ((8, 8), (8, 8), 1.0, (5, 5), False),         # pad == grid, even, Nyquist
    ])
    def test_matrix_form(self, grid, pad, radius, bands, narrow):
        K = Convolution2DOperator(grid, pad, radius_fraction=radius)
        assert (K.band_y, K.band) == bands
        assert (4 * (K.band_y - 1) <= pad[0] and 4 * (K.band - 1) <= pad[1]) is narrow
        # a padded grid takes the matrix form, a circular one the pruned FFT
        assert hasattr(K, "_hhat") is (K.pad != K.grid)
        assert hasattr(K, "_rfilter") is (K.pad == K.grid)
        # the response is the scaled autocorrelation of the disk, and
        # exactly zero outside the kept rows and their mirror images
        np.testing.assert_allclose(K.filter, _disk_response(pad, radius),
                                   rtol=0.0, atol=1e-15 * K.peak_response)
        outside = K.filter[K.band_y: pad[0] - K.band_y + 1, :]
        assert np.all(outside == 0.0)
        rng = np.random.default_rng(12)
        f = rng.normal(size=grid) + 1j * rng.normal(size=grid)
        padded = np.zeros(pad, dtype=complex)
        padded[: grid[0], : grid[1]] = f
        ref = np.fft.ifft2(np.fft.fft2(padded) * K.filter)[: grid[0], : grid[1]]
        scale = np.abs(ref).max()
        # against a full complex-FFT reference, on complex and real input
        out = K.apply(f.ravel()).reshape(grid)
        assert np.abs(out - ref).max() <= 1e-14 * scale
        out = K.adjoint(f.real.ravel()).reshape(grid)
        assert np.abs(out - ref.real).max() <= 1e-14 * scale
        validate_operator(K, tol=1e-13)

    def test_form_of_imaging_and_wavelet_shapes(self):
        cfg = ExperimentConfig()
        imaging = Convolution2DOperator(cfg.grid, cfg.pad, cfg.radius_fraction)
        assert (imaging.band_y, imaging.band) == (51, 51)
        assert imaging.pad != imaging.grid and hasattr(imaging, "_hhat")
        wavelet = Convolution2DOperator((256, 256), (256, 256), 0.3)
        assert (wavelet.band_y, wavelet.band) == (77, 77)
        assert wavelet.pad == wavelet.grid and not hasattr(wavelet, "_hhat")

    @pytest.mark.parametrize("grid, pad, radius", [
        ((256, 256), (256, 256), 0.3),   # the wavelet workload's geometry
        ((256, 256), (512, 512), 0.1),   # the imaging default
        ((64, 64), (64, 64), 0.3),
        ((64, 64), (128, 128), 0.3),
        ((5, 12), (10, 17), 0.35),
    ])
    def test_keeps_only_its_band(self, grid, pad, radius):
        # where the band is narrower than the pad, no pad-sized response
        # is kept; filter is built on each access
        K = Convolution2DOperator(grid, pad, radius_fraction=radius)
        assert "filter" not in vars(K)
        kept = [v for v in vars(K).values() if isinstance(v, np.ndarray)]
        assert max(v.size for v in kept) < pad[0] * pad[1]
        np.testing.assert_allclose(K.filter, _disk_response(pad, radius),
                                   rtol=0.0, atol=1e-15 * K.peak_response)
        K.filter[...] = np.nan
        assert np.isfinite(K.filter).all()

    def test_domain_dims(self):
        K = Convolution2DOperator((4, 6), (8, 12))
        assert K.domain_dims == (4, 6)
        assert K.domain_len == 24

    def test_complex_input_filters_both_parts(self):
        K = Convolution2DOperator((6, 6), (12, 12))
        rng = np.random.default_rng(3)
        re, im = rng.normal(size=36), rng.normal(size=36)
        np.testing.assert_array_equal(K.apply(re + 1j * im),
                                      K.apply(re) + 1j * K.apply(im))
        np.testing.assert_array_equal(K.adjoint(re + 1j * im),
                                      K.adjoint(re) + 1j * K.adjoint(im))

    def test_complex_solve_keeps_imaginary_part(self):
        # at p = 2 every step is linear in the data, so the complex solve
        # splits into the solves of the real and the imaginary data
        K = Convolution2DOperator((6, 6), (12, 12), radius_fraction=0.5)
        rng = np.random.default_rng(4)
        re, im = rng.normal(size=36), rng.normal(size=36)
        spec = PenaltySpec.uniform(p=2.0, mu=0.1, n=36)
        cfg = SolverConfig(max_iterations=50, step_tolerance=0.0)
        z = solve(re + 1j * im, K, spec, cfg).minimizer.values
        assert np.abs(z.imag).max() > 0.1
        np.testing.assert_allclose(z.real, solve(re, K, spec, cfg).minimizer.values,
                                   atol=1e-12)
        np.testing.assert_allclose(z.imag, solve(im, K, spec, cfg).minimizer.values,
                                   atol=1e-12)


def _disk_response(pad, radius_fraction):
    """The full padded-grid FFT autocorrelation of the frequency disk,
    scaled to the 0.999 peak."""
    fy, fx = np.fft.fftfreq(pad[0]), np.fft.fftfreq(pad[1])
    disk = (fy[:, None] ** 2 + fx[None, :] ** 2) <= (0.5 * radius_fraction) ** 2
    autocorr = np.fft.ifft2(np.abs(np.fft.fft2(disk.astype(np.float64))) ** 2).real
    return 0.999 * autocorr / autocorr.max()


class TestFrameSynthesis:
    # frame synthesis z -> sum_n z_n psi_n is the dense operator on the
    # stacked frame vectors
    def test_orthonormal_basis_is_isometry(self):
        frame = np.linalg.qr(np.random.default_rng(3).normal(size=(5, 5)))[0].T
        F = DenseOperator(frame.T)
        v = np.random.default_rng(4).normal(size=5)
        np.testing.assert_allclose(F.apply(F.adjoint(v)), v, atol=1e-12)
        assert F.norm_bound == pytest.approx(1.0, abs=1e-10)

    def test_union_of_two_bases_is_tight_frame(self):
        rng = np.random.default_rng(5)
        Q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        frame = np.vstack([np.eye(4), Q.T])  # 8 vectors in R^4
        F = DenseOperator(frame.T)
        v = rng.normal(size=4)
        np.testing.assert_allclose(F.apply(F.adjoint(v)), 2.0 * v, atol=1e-12)
        assert F.norm_bound == pytest.approx(np.sqrt(2.0), rel=1e-10)

    def test_renormalize_brings_bound_below_one(self):
        frame = np.vstack([np.eye(3), np.eye(3)])
        F = DenseOperator(frame.T)  # raw norm sqrt(2)
        rp = renormalize(F, np.ones(3))
        assert rp.operator.norm_bound < 1.0
        assert rp.scale == pytest.approx(np.sqrt(2.0) / 0.999, rel=1e-11)
        validate_operator(rp.operator)

    def test_redundant_frame_null_space(self):
        # 7 vectors spanning R^4: synthesis has a 3-dimensional null space
        rng = np.random.default_rng(6)
        frame = rng.normal(size=(7, 4))
        F = DenseOperator(frame.T)
        gram = np.array([
            F.adjoint(F.apply(np.eye(7)[:, j])) for j in range(7)
        ]).T
        eigs = np.linalg.eigvalsh(gram)
        assert np.sum(eigs < 1e-10) == 3

    def test_zero_frame_passes_through(self):
        # a frame of zero vectors is a zero dense operator with bound 0
        F = DenseOperator(np.zeros((3, 2)).T)
        rp = renormalize(F, np.zeros(2))
        assert F.norm_bound == 0.0
        assert rp.operator is F
        assert rp.scale == 1.0
        validate_operator(rp.operator)


class TestRenormalize:
    def test_passthrough_when_already_bounded(self):
        K = DiagonalOperator(np.array([0.5]))
        rp = renormalize(K, np.array([1.0]))
        assert rp.operator is K
        assert rp.scale == 1.0
        assert rp.mu_scale == 1.0
        validate_operator(rp.operator)

    def test_rescales_operator_and_data(self):
        K = DiagonalOperator(np.array([2.0, 1.0]))
        g = np.array([4.0, 2.0])
        rp = renormalize(K, g)
        assert rp.operator.norm_bound == 0.999
        assert rp.scale == 2.0 / 0.999
        np.testing.assert_allclose(rp.data, g / rp.scale)
        out = rp.operator.apply(np.array([1.0, 1.0]))
        np.testing.assert_allclose(out, np.array([2.0, 1.0]) / rp.scale)
        validate_operator(rp.operator)

    def test_bound_is_certified_with_close_top_values(self):
        # two top singular values 2% apart and a dominant one buried among
        # 99,999 others: a power iteration from a random start still sits
        # well below the true norm after 100 steps
        entries = np.r_[2.0, np.full(99_999, 1.96)]
        rp = renormalize(DiagonalOperator(entries), np.ones(entries.size))
        true_norm = float(np.abs(rp.operator.apply(np.ones(entries.size))).max())
        assert rp.operator.norm_bound == 0.999
        assert true_norm <= rp.operator.norm_bound * (1.0 + 1e-15)
        validate_operator(rp.operator, n_probes=3)

    def test_minimizer_invariance(self):
        # solving the rescaled problem with mu * mu_scale reproduces the
        # minimizer of the original objective
        rng = np.random.default_rng(9)
        M = rng.normal(size=(5, 5))
        M *= 1.8 / np.linalg.norm(M, 2)
        g = rng.normal(size=5)
        mu = 0.05
        rp = renormalize(DenseOperator(M), g)
        validate_operator(rp.operator)
        spec = PenaltySpec.uniform(p=1.0, mu=mu * rp.mu_scale, n=5)
        res = solve(rp.data, rp.operator, spec,
                    SolverConfig(max_iterations=20000, step_tolerance=0.0))
        f = res.minimizer.values
        # verify against the subgradient condition of the original problem:
        # 2 M^T (M f - g) + mu * s = 0 with s in sign(f)
        grad = 2.0 * M.T @ (M @ f - g)
        on = np.abs(f) > 1e-12
        np.testing.assert_allclose(grad[on], -mu * np.sign(f[on]), atol=1e-6)
        assert np.all(np.abs(grad[~on]) <= mu * (1.0 + 1e-6))

    @pytest.mark.parametrize("K", ["x", -1, None, np.eye(2)])
    def test_operator_must_be_an_operator(self, K):
        with pytest.raises(ParameterError, match="must be a LinearOperatorHandle"):
            renormalize(K, np.ones(2))

    def test_zero_operator_passes_through(self):
        # a zero operator has bound 0, already below 0.999
        K = DiagonalOperator(np.zeros(2))
        rp = renormalize(K, np.zeros(2))
        assert K.norm_bound == 0.0
        assert rp.operator is K
        assert rp.scale == 1.0
        validate_operator(rp.operator)


class TestValidateOperator:
    def test_clean_operator_passes(self):
        report = validate_operator(DenseOperator(np.random.default_rng(10).normal(size=(4, 4))))
        assert report["worst_adjoint_defect"] < 1e-12
        assert report["worst_norm_excess"] <= 0.0

    def test_catches_wrong_adjoint(self):
        class Liar(DiagonalOperator):
            def adjoint(self, g):
                return 2.0 * super().adjoint(g)

        with pytest.raises(ContractViolationError):
            validate_operator(Liar(np.array([1.0, 2.0])))

    def test_catches_understated_norm_bound(self):
        class Understated(DenseOperator):
            def __init__(self, matrix):
                super().__init__(matrix)
                self.norm_bound = 0.9

        with pytest.raises(ContractViolationError):
            validate_operator(Understated(np.eye(3) * 2.0))

    def test_complex_pairing(self):
        report = validate_operator(DiagonalOperator(np.array([1.0j, 0.5 - 0.5j])))
        assert report["worst_adjoint_defect"] < 1e-12

    def test_catches_wrong_normal(self):
        class Skewed(DiagonalOperator):
            def normal(self, f):
                return 1.01 * super().normal(f)

        report = validate_operator(DiagonalOperator(np.array([0.5, 0.25])))
        assert report["worst_normal_defect"] == 0.0
        with pytest.raises(ContractViolationError, match="normal"):
            validate_operator(Skewed(np.array([0.5, 0.25])))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("method, check", [("apply", "adjoint pairing"),
                                               ("adjoint", "adjoint pairing"),
                                               ("normal", "normal operator")])
    def test_fails_closed_on_a_non_number(self, method, check, bad):
        # a NaN compares False with every bound, so a check written as
        # `defect > tol` would let it through; the first check to see the
        # fault reports it
        class Broken(DenseOperator):
            pass

        def product(self, x):
            out = getattr(DenseOperator, method)(self, x).copy()
            out[2] = bad
            return out

        setattr(Broken, method, product)
        with pytest.raises(ContractViolationError, match=check):
            validate_operator(Broken(np.random.default_rng(13).normal(size=(5, 5))))

    @pytest.mark.parametrize("K", ["x", -1, None, np.eye(2)])
    def test_operator_must_be_an_operator(self, K):
        with pytest.raises(ParameterError, match="must be a LinearOperatorHandle"):
            validate_operator(K)

    def test_nan_norm_bound_fails_closed(self):
        class Unbounded(DenseOperator):
            def __init__(self, matrix):
                super().__init__(matrix)
                self.norm_bound = float("nan")

        with pytest.raises(ContractViolationError, match="norm bound"):
            validate_operator(Unbounded(np.eye(3) * 0.5))


class TestSvdModel:
    def test_validation(self):
        with pytest.raises(ParameterError):
            SvdModel(np.array([0.5, 0.7]))  # increasing
        with pytest.raises(ParameterError):
            SvdModel(np.array([1.0]))  # not below 1
        with pytest.raises(ParameterError):
            SvdModel(np.array([-0.1]))
        with pytest.raises(ParameterError, match="1-d"):
            SvdModel(np.full((2, 2), 0.5))
        m = SvdModel(np.array([0.9, 0.5, 0.0]))
        assert len(m) == 3
        assert isinstance(m.operator(), DiagonalOperator)

    def test_threshold_solve_hand_value(self):
        m = SvdModel(np.array([0.5]))
        out = thresholded_svd_solve(m, np.array([2.0]), 0.3)
        assert out.values[0] == pytest.approx(3.4, rel=1e-13)

    def test_dead_zone_and_null_components(self):
        m = SvdModel(np.array([0.5, 0.5, 0.0]))
        out = thresholded_svd_solve(m, np.array([0.1, -0.1, 7.0]), 0.3)
        # |sigma g| = 0.05 < mu/2 = 0.15 -> dead zone; sigma=0 -> zero
        np.testing.assert_array_equal(out.values, [0.0, 0.0, 0.0])

    def test_matches_iterative_solver(self):
        sigma = np.array([0.9, 0.6, 0.3])
        m = SvdModel(sigma)
        g = np.array([1.0, -2.0, 0.4])
        mu = 0.1
        direct = thresholded_svd_solve(m, g, mu)
        res = solve(g, m.operator(), PenaltySpec.uniform(p=1.0, mu=mu, n=3),
                    SolverConfig(max_iterations=5000, step_tolerance=0.0))
        np.testing.assert_allclose(res.minimizer.values, direct.values, atol=1e-10)

    def test_alignment(self):
        with pytest.raises(AlignmentError):
            thresholded_svd_solve(SvdModel(np.array([0.5])), np.ones(2), 0.1)
        with pytest.raises(ParameterError):
            thresholded_svd_solve(SvdModel(np.array([0.5])), np.ones(1), 0.0)


def _every_operator_kind():
    """One operator of each kind, on an 8 x 8 grid where one applies."""
    from sparseland.transforms import WaveletSpec, conjugated_operator
    conv = Convolution2DOperator((8, 8), (16, 16), 0.3)
    return {
        "diagonal": DiagonalOperator(np.full(64, 0.5)),
        "dense": DenseOperator(np.eye(64) * 0.5),
        "convolution": conv,
        "scaled": ScaledOperator(conv, 0.5, norm_bound=0.5),
        "wavelet-conjugated": conjugated_operator(conv, WaveletSpec("haar", 2)),
    }


class TestInputDtype:
    @pytest.mark.parametrize("kind", sorted(_every_operator_kind()))
    @pytest.mark.parametrize("bad", [np.ones(64, dtype=bool), np.full(64, "1.0")],
                             ids=["bool", "string"])
    @pytest.mark.parametrize("side", ["apply", "adjoint"])
    def test_non_number_input_raises(self, kind, bad, side):
        K = _every_operator_kind()[kind]
        with pytest.raises(ParameterError, match="must be numbers"):
            getattr(K, side)(bad)

    @pytest.mark.parametrize("kind", sorted(_every_operator_kind()))
    def test_integer_input_passes(self, kind):
        K = _every_operator_kind()[kind]
        ints, floats = np.ones(64, dtype=int), np.ones(64)
        np.testing.assert_array_equal(K.apply(ints), K.apply(floats))
        np.testing.assert_array_equal(K.adjoint(ints), K.adjoint(floats))


def _normal_kinds():
    """One operator per kind and form the normal operator has, complex entries included."""
    from sparseland.transforms import WaveletSpec, conjugated_operator
    rng = np.random.default_rng(21)
    matrix = Convolution2DOperator((5, 12), (10, 17), 0.35)
    imaging = ExperimentConfig()
    # the circular FFT form, as in the wavelet workload
    circular = Convolution2DOperator((12, 12), (12, 12), 0.45)
    return {
        "diagonal": DiagonalOperator(np.linspace(-0.9, 0.8, 12)),
        "diagonal-complex": DiagonalOperator(rng.normal(size=12) + 1j * rng.normal(size=12)),
        # wide: adjoint(apply); square and tall: the stored Gram matrix
        "dense": DenseOperator(rng.normal(size=(9, 12))),
        "dense-square": DenseOperator(rng.normal(size=(12, 12))),
        "dense-complex": DenseOperator(rng.normal(size=(15, 12))
                                       + 1j * rng.normal(size=(15, 12))),
        "convolution-matrix": matrix,
        "convolution-matrix-quarter": Convolution2DOperator((8, 8), (16, 16), 0.3),
        "convolution-matrix-wide": Convolution2DOperator((12, 10), (24, 20), 0.45),
        "convolution-imaging": Convolution2DOperator(imaging.grid, imaging.pad,
                                                     imaging.radius_fraction),
        "convolution-fft-circular": Convolution2DOperator((7, 9), (7, 9), 0.3),
        "convolution-fft-narrow": Convolution2DOperator((64, 64), (64, 64), 0.1),
        "scaled": ScaledOperator(matrix, 0.5, norm_bound=0.5),
        "wavelet-conjugated": conjugated_operator(circular, WaveletSpec("db2", 2)),
    }


def _probe(K, rng, complex_input):
    f = rng.normal(size=K.domain_len)
    return f + 1j * rng.normal(size=K.domain_len) if complex_input else f


class TestNormalOperator:
    def test_every_form_is_covered(self):
        kinds = _normal_kinds()
        padded = [kinds[k].pad != kinds[k].grid for k in kinds if k.startswith("convolution")]
        assert True in padded and False in padded
        assert kinds["wavelet-conjugated"].base.pad == kinds["wavelet-conjugated"].base.grid
        grams = {k: kinds[k]._gram is not None for k in kinds if k.startswith("dense")}
        assert grams == {"dense": False, "dense-square": True, "dense-complex": True}

    def test_dense_gram_only_when_no_larger_than_the_matrix(self):
        rng = np.random.default_rng(25)
        for shape in [(6, 4), (4, 4), (1, 1)]:
            M = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            K = DenseOperator(M)
            assert K._gram.shape == (shape[1], shape[1])
            np.testing.assert_allclose(K._gram, M.conj().T @ M, rtol=0, atol=1e-14)
        # frame synthesis: more frame vectors than samples
        wide = DenseOperator(rng.normal(size=(4, 6)))
        assert wide._gram is None
        f = rng.normal(size=6)
        np.testing.assert_array_equal(wide.normal(f), wide.adjoint(wide.apply(f)))
        # an integer matrix is kept as float64, so its Gram cannot wrap around
        ints = DenseOperator(np.array([[2, 1], [0, 3], [1, 1]]))
        assert ints._gram is not None
        f = np.array([1, -2])
        np.testing.assert_allclose(ints.normal(f), ints.adjoint(ints.apply(f)),
                                   rtol=0, atol=1e-14)

    def test_dense_products_match_matmul(self):
        # ndarray.dot and @ run the same product
        rng = np.random.default_rng(26)
        for shape in [(20, 20), (9, 12), (15, 12)]:
            for M in (rng.normal(size=shape), rng.normal(size=shape) + 1j * rng.normal(size=shape)):
                K = DenseOperator(M)
                for f in (rng.normal(size=shape[1]),
                          rng.normal(size=shape[1]) + 1j * rng.normal(size=shape[1])):
                    assert K.apply(f).tobytes() == (M @ f).tobytes()
                g = rng.normal(size=shape[0])
                assert K.adjoint(g).tobytes() == (M.conj().T @ g).tobytes()

    @pytest.mark.parametrize("entries", [np.array([0.5, -0.25, 0.8]),
                                         np.array([0.5j, -0.25 + 0.1j, 0.8]),
                                         np.array([2, -1, 3])],
                             ids=["real", "complex", "integer"])
    def test_diagonal_normal_keeps_the_dtype_of_adjoint_apply(self, entries):
        K = DiagonalOperator(entries)
        for f in (np.array([1.0, -2.0, 3.0]), np.array([1, -2, 3]),
                  np.array([1.0 + 1.0j, 2.0, -1.0j])):
            ref = K.adjoint(K.apply(f))
            out = K.normal(f)
            assert out.dtype == ref.dtype
            np.testing.assert_allclose(out, ref, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("kind", sorted(_normal_kinds()))
    def test_matches_adjoint_of_apply(self, kind):
        K = _normal_kinds()[kind]
        rng = np.random.default_rng(22)
        inputs = [False] if kind == "wavelet-conjugated" else [False, True]
        for complex_input in inputs:
            f = _probe(K, rng, complex_input)
            ref = K.adjoint(K.apply(f))
            out = K.normal(f)
            assert out.shape == ref.shape and out.dtype == ref.dtype
            assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()
        assert validate_operator(K, n_probes=3)["worst_normal_defect"] <= 1e-13

    # narrow as in test_matrix_form: each form meets narrow and wide bands
    @pytest.mark.parametrize("grid, pad, radius, narrow", [
        ((5, 12), (10, 17), 0.35, True),
        ((8, 8), (16, 16), 0.3, True),
        ((16, 16), (16, 16), 0.1, True),
        ((7, 9), (7, 9), 0.3, False),
        ((12, 10), (24, 20), 0.45, False),
    ])
    def test_convolution_against_explicit_matrix(self, grid, pad, radius, narrow):
        # K as an explicit matrix from full complex FFTs of each unit
        # vector; K*K is its Gram matrix, not the convolution with the
        # squared response unless pad == grid
        K = Convolution2DOperator(grid, pad, radius_fraction=radius)
        assert (4 * (K.band_y - 1) <= pad[0] and 4 * (K.band - 1) <= pad[1]) is narrow
        n = grid[0] * grid[1]
        columns = []
        for j in range(n):
            padded = np.zeros(pad)
            padded[np.unravel_index(j, grid)] = 1.0
            conv = np.fft.ifft2(np.fft.fft2(padded) * K.filter).real
            columns.append(conv[: grid[0], : grid[1]].ravel())
        dense = np.column_stack(columns)
        rng = np.random.default_rng(23)
        f = rng.normal(size=n) + 1j * rng.normal(size=n)
        ref = dense.T @ (dense @ f)
        scale = np.abs(ref).max()
        assert np.abs(K.normal(f) - ref).max() <= 1e-13 * scale
        assert np.abs(K.normal(f.real) - ref.real).max() <= 1e-13 * scale
        squared = np.fft.ifft2(np.fft.fft2(f.real.reshape(grid), s=pad) * K.filter**2)
        squared = squared.real[: grid[0], : grid[1]].ravel()
        if pad == grid:
            assert np.abs(squared - ref.real).max() <= 1e-13 * scale
        else:
            assert np.abs(squared - ref.real).max() > 1e-3 * scale

    def test_scaled_is_adjoint_of_apply(self):
        base = DenseOperator(np.random.default_rng(24).normal(size=(5, 4)))
        K = ScaledOperator(base, 0.25, norm_bound=0.25 * base.norm_bound)
        f = np.arange(4.0)
        np.testing.assert_array_equal(K.normal(f), K.adjoint(K.apply(f)))
        # where the base's normal overflows, the scaling comes before the
        # square, so the product stays finite
        for base in (DiagonalOperator([1e200, 1.0]), DenseOperator([[1e200, 0.0], [0.0, 1.0]])):
            with np.errstate(over="ignore"):
                assert np.isinf(base.normal([1.0, 1.0])).any()
            K = ScaledOperator(base, 1e-200, norm_bound=1.0)
            np.testing.assert_allclose(K.normal([1.0, 1.0]), [1.0, 1e-400], rtol=1e-15)

    def test_checks_its_input(self):
        for K in _every_operator_kind().values():
            with pytest.raises(AlignmentError):
                K.normal(np.ones(K.domain_len + 1))
            with pytest.raises(ParameterError, match="must be numbers"):
                K.normal(np.ones(K.domain_len, dtype=bool))
