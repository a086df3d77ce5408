"""Bounded linear operators with certified norm bounds.

Every operator carries a certified upper bound on its spectral norm,
fixed at construction: the largest modulus of a diagonal, the spectral
norm of a dense matrix, the peak frequency response of a convolution.
The iteration theory needs that bound below 1, and one margin, 0.999,
sets how far below: it is a convolution's peak response, and
:func:`renormalize` rescales an arbitrary problem to it. The concrete
kinds are diagonal maps, dense matrices and zero-padded convolutions on
2-d grids, computed as real GEMMs when padded and with ``numpy.fft``
when circular. A convolution's response is the autocorrelation of a
frequency disk, integer overlap counts that one small FFT over the
disk's own band gives exactly once rounded (see
:class:`Convolution2DOperator`). Frame synthesis, z -> sum_n z_n psi_n,
is the dense operator on the stacked frame vectors,
``DenseOperator(vectors.T)``.

Besides apply and adjoint, every operator has ``normal(f) = K*K f``, the
one product the iteration needs per step. It defaults to
``adjoint(apply(f))``, which diagonal and scaled operators keep; a dense
matrix (kept as float64 or complex128, whatever dtype it came in)
multiplies by its stored Gram matrix ``K^H K`` whenever it has no more
columns than rows (a wide one keeps the default), a padded convolution
computes it from the Gram matrices of its truncated DFT bases in one
pass (see :class:`Convolution2DOperator`), and a circular one with the
squared response.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from . import _EXPORTS
from .core import (CoefficientVector, check_array, check_count, check_dims, check_image,
                   check_kinds, check_real, check_shape, check_values)
from .errors import AlignmentError, ContractViolationError, ParameterError
from .shrinkage import soft_threshold

__all__ = list(_EXPORTS["operators"])

# the certified norm bound a convolution is built with and renormalize
# rescales to: below 1, as the iteration needs
_NORM_MARGIN = 0.999


class LinearOperatorHandle:
    """Base class: a linear map with apply, adjoint, and a norm bound.

    Attributes
    ----------
    domain_len, image_len : int
        Lengths of flat input and output vectors.
    norm_bound : float
        Certified upper bound on the spectral norm. May be >= 1 at
        construction; the solver refuses such operators, and
        :func:`renormalize` rescales them below 1.
    domain_dims : tuple or None
        Grid shape of the domain for image-valued operators; its product
        must equal domain_len.
    """

    def __init__(self, domain_len: int, image_len: int, norm_bound: float,
                 domain_dims: Optional[Tuple[int, ...]] = None,
                 domain_dtype=np.float64):
        self.domain_len = check_count(domain_len, "domain_len")
        self.image_len = check_count(image_len, "image_len")
        self.norm_bound = check_real(norm_bound, "norm bound", lower="nonnegative")
        self.domain_dims = (None if domain_dims is None
                            else check_dims(domain_dims, self.domain_len, "domain_dims",
                                            "domain"))
        self.domain_dtype = domain_dtype

    def _check(self, x, length: int, side: str) -> np.ndarray:
        """x as a flat vector of ``length`` numbers, by check_array's dtype rule."""
        x = check_array(x, side, complex_ok=True)
        if x.ndim != 1:
            x = x.ravel()
        if x.size != length:
            raise AlignmentError(f"{side} has length {length}, got {x.size}")
        return x

    def apply(self, f) -> np.ndarray:
        raise NotImplementedError

    def adjoint(self, g) -> np.ndarray:
        raise NotImplementedError

    def normal(self, f) -> np.ndarray:
        """K*K f, the normal operator; kinds with a cheaper form override it."""
        return self.adjoint(self.apply(f))


class DiagonalOperator(LinearOperatorHandle):
    """Componentwise multiplication by a fixed sequence."""

    def __init__(self, entries):
        entries = check_values(entries, "diagonal entries", complex_ok=True)
        self.entries = entries
        self._conj_entries = np.conj(entries)
        super().__init__(entries.size, entries.size,
                         float(np.max(np.abs(entries))), domain_dtype=entries.dtype)

    def apply(self, f):
        return self.entries * self._check(f, self.domain_len, "operator domain")

    def adjoint(self, g):
        return self._conj_entries * self._check(g, self.image_len, "operator image")


class DenseOperator(LinearOperatorHandle):
    """Explicit matrix; norm bound from an exact spectral norm.

    The matrix is kept as a float64 or complex128 copy. One with no more
    columns than rows stores its Gram matrix ``K^H K``, no larger than
    the matrix itself, and ``normal`` is one product with it
    (``small_dense``: 103.8k against 82.1k iterations/s for
    ``adjoint(apply(f))``, 10 of 10 pairs, ``BENCH_31.json``). A wide
    matrix (frame synthesis ``DenseOperator(vectors.T)`` is one) keeps
    ``adjoint(apply(f))``. Products use ``ndarray.dot``, which costs less
    per call than ``@`` on small vectors and computes the same product.
    """

    def __init__(self, matrix):
        matrix = check_values(matrix, "matrix entries", ndim=2, complex_ok=True)
        self.matrix = matrix
        self._adjoint = matrix.conj().T
        # entries above about 1.34e154 overflow it; a renormalized K never reads it
        with np.errstate(over="ignore", invalid="ignore"):
            self._gram = (self._adjoint.dot(matrix) if matrix.shape[1] <= matrix.shape[0]
                          else None)
        # exact up to roundoff; tiny inflation keeps it an upper bound
        norm_bound = float(np.linalg.norm(matrix, 2)) * (1.0 + 1e-12)
        super().__init__(matrix.shape[1], matrix.shape[0], norm_bound,
                         domain_dtype=matrix.dtype)

    def apply(self, f):
        return self.matrix.dot(self._check(f, self.domain_len, "operator domain"))

    def adjoint(self, g):
        return self._adjoint.dot(self._check(g, self.image_len, "operator image"))

    def normal(self, f):
        if self._gram is None:
            return super().normal(f)
        return self._gram.dot(self._check(f, self.domain_len, "operator domain"))


class ScaledOperator(LinearOperatorHandle):
    """A fixed multiple of another operator (used by renormalize).

    Its normal operator is the default ``adjoint(apply(f))``, which scales
    before it squares and so stays finite where the base's overflows.
    """

    def __init__(self, base: LinearOperatorHandle, factor: float, norm_bound: float):
        check_kinds(LinearOperatorHandle=base)
        self.base = base
        self.factor = check_real(factor, "factor")
        super().__init__(base.domain_len, base.image_len, norm_bound,
                         domain_dims=base.domain_dims,
                         domain_dtype=base.domain_dtype)

    def apply(self, f):
        return self.factor * self.base.apply(f)

    def adjoint(self, g):
        return self.factor * self.base.adjoint(g)


class Convolution2DOperator(LinearOperatorHandle):
    """Low-pass filtering of a 2-d grid, a cropped zero-padded convolution.

    The frequency response is the autocorrelation of the indicator of a
    disk whose radius is ``radius_fraction`` times the maximum (Nyquist)
    frequency of the padded grid, scaled so the peak response
    (``peak_response``) is 0.999. The peak is then an exact norm bound:
    padding and cropping are partial isometries around a multiplication
    operator in an orthogonal basis.

    The response is band-limited. If the disk reaches ``m`` columns from
    frequency zero, its autocorrelation vanishes beyond ``2 m``
    (circularly), so of the ``pad[1] // 2 + 1`` rfft columns only the
    first ``band = min(2 m, pad[1] // 2) + 1`` carry response. The same
    holds along the rows with ``band_y``. The response is built from the
    disk's own rows and columns alone: one real FFT, no larger than the
    padded grid and at least twice the disk's extent on each axis, gives
    the autocorrelation, whose entries are overlap counts and are rounded
    to those integers. The operator keeps them only on the lags where
    they are not zero, and each product reads only the band it
    multiplies by. ``filter``, the response on the whole padded grid
    (each value at its circular offset, exactly 0.0 everywhere else), is
    built from the kept lags on each access. Dropping exact zeros leaves
    the peak, and hence the norm bound, unchanged. The geometry picks
    the form of a product:

    * A padded grid (``pad != grid``) takes the matrix form. The
      response is real and even along each axis, so the product of a
      ``grid``-shaped X is ``Fy^T (H * (Fy X Fx^T)) Fx`` (``*``
      elementwise) with truncated real DFT bases: ``Fy`` holds the rows
      ``[cos; -sin](2 pi k m / pad[0])`` for ``k < band_y`` and ``m <
      grid[0]``, ``Fx`` the same for ``pad[1]``, ``band`` and
      ``grid[1]``, and ``H`` is the response at each row's and column's
      frequency, weighted 2 for each ``k > 0`` (standing for ``+-k``)
      and divided by ``pad[0] * pad[1]``. At an even pad the band can
      reach Nyquist (``2 k == pad``), which stands for itself: its
      cosine has weight 1, and its sine, zero but for roundoff, is
      dropped as the sine of k = 0 is. That is four small real GEMMs and
      no FFT. The normal operator K*K (= K K, the operator is
      self-adjoint) is ``Fy^T (H * (Gy (H * (Fy X Fx^T)) Gx)) Fx`` with
      the Gram matrices ``Gy = Fy Fy^T`` and ``Gx = Fx Fx^T`` stored at
      construction: six GEMMs instead of eight. The Gram matrices carry
      the crop between the two convolutions, so K*K is *not* the
      convolution with the squared response.
    * A circular grid (``pad == grid``) takes the pruned FFT form, with
      ``numpy.fft``: rfft of the rows, column FFTs of the band only, the
      ``pad[0] x band`` response, and the inverse transforms. Nothing is
      cropped, so the normal operator is one pass with the squared
      response.

    Input and output are flat vectors of length grid[0]*grid[1]; the
    point spread function is nonnegative (an intensity pattern), so the
    map preserves nonnegativity up to roundoff.
    """

    def __init__(self, grid: Tuple[int, int], pad: Tuple[int, int],
                 radius_fraction: float = 0.1):
        grid = check_shape(grid, "grid")
        pad, radius_fraction = _check_geometry(grid, pad, radius_fraction)
        self.grid = grid
        self.pad = pad
        self.radius_fraction = radius_fraction
        self.peak_response = _NORM_MARGIN

        radius = radius_fraction * 0.5  # max frequency is the Nyquist 0.5
        (fy, self.band_y), (fx, self.band) = (_disk_axis(n, radius) for n in pad)
        disk = (fy[:, None] ** 2 + fx[None, :] ** 2) <= radius**2
        # a real FFT at least 2 L - 1 long on an axis of L disk frequencies
        # (or the pad's length, if shorter) gives the circular autocorrelation
        # on the pad; its entries are overlap counts, the largest at lag 0
        size = [min(n, 1 << (2 * len(f) - 2).bit_length()) for n, f in zip(pad, (fy, fx))]
        counts = np.rint(np.fft.irfft2(np.abs(np.fft.rfft2(disk, s=size)) ** 2, s=size))
        lag_y, lag_x = (np.arange(n) - n // 2 for n in size)
        response = (self.peak_response * counts / counts[0, 0])[np.ix_(lag_y, lag_x)]
        # the lags where the autocorrelation is not zero, at their pad offsets
        rows, cols = response.any(axis=1), response.any(axis=0)
        self._lags = (lag_y[rows] % pad[0], lag_x[cols] % pad[1])
        self._response = response[np.ix_(rows, cols)]
        if pad == grid:
            self._rfilter = self._corner((pad[0], self.band))
            self._rfilter_sq = self._rfilter * self._rfilter
        else:
            ky, self._fy = _real_dft_basis(self.band_y, pad[0], grid[0])
            kx, self._fx = _real_dft_basis(self.band, pad[1], grid[1])
            # a kept k stands for the pair +-k, but 0 and Nyquist for themselves
            wy, wx = (np.where((k == 0) | (2 * k == n), 1.0, 2.0) for k, n in zip((ky, kx), pad))
            self._hhat = (self._corner((self.band_y, self.band))[np.ix_(ky, kx)]
                          * np.outer(wy, wx) / (pad[0] * pad[1]))
            self._gy = self._fy @ self._fy.T
            self._gx = self._fx @ self._fx.T
        super().__init__(grid[0] * grid[1], grid[0] * grid[1], self.peak_response,
                         domain_dims=grid)

    def _corner(self, shape: Tuple[int, int]) -> np.ndarray:
        """The response at the padded grid's first ``shape`` frequencies of each axis."""
        (ly, lx), out = self._lags, np.zeros(shape)
        in_y, in_x = ly < shape[0], lx < shape[1]
        out[np.ix_(ly[in_y], lx[in_x])] = self._response[np.ix_(in_y, in_x)]
        return out

    @property
    def filter(self) -> np.ndarray:
        """The response on the whole padded grid, built anew on each access."""
        return self._corner(self.pad)

    def _convolve(self, f: np.ndarray, normal: bool = False) -> np.ndarray:
        """K f, or K*K f when ``normal``."""
        if f.dtype.kind == "c":
            # the response is real, so it filters both parts separately
            return self._convolve(f.real, normal) + 1j * self._convolve(f.imag, normal)
        x = f.reshape(self.grid)
        if self.pad == self.grid:
            return self._convolve_fft(x, normal).ravel()
        # a strided view (the real part of a complex array) would take
        # a non-BLAS matmul whose roundoff differs from the contiguous one
        return self._convolve_matrix(np.ascontiguousarray(x), normal).ravel()

    def _convolve_matrix(self, x: np.ndarray, normal: bool = False) -> np.ndarray:
        spectrum = self._fy @ x @ self._fx.T
        spectrum *= self._hhat
        if normal:
            spectrum = self._gy @ spectrum @ self._gx
            spectrum *= self._hhat
        return self._fy.T @ spectrum @ self._fx

    def _convolve_fft(self, x: np.ndarray, normal: bool = False) -> np.ndarray:
        rows = np.fft.rfft(x, axis=1)
        spectrum = np.fft.fft(rows[:, : self.band], axis=0)
        spectrum *= self._rfilter_sq if normal else self._rfilter
        rows = np.fft.ifft(spectrum, axis=0)
        return np.fft.irfft(rows, n=self.grid[1], axis=1)

    def apply(self, f):
        return self._convolve(self._check(f, self.domain_len, "operator domain"))

    def adjoint(self, g):
        # the frequency response is real and even, so the operator is
        # self-adjoint
        return self._convolve(self._check(g, self.image_len, "operator image"))

    def normal(self, f):
        return self._convolve(self._check(f, self.domain_len, "operator domain"), True)

    def point_spread_function(self) -> np.ndarray:
        """Spatial response to a unit impulse, centered on the padded grid."""
        return np.fft.fftshift(np.fft.ifft2(self.filter).real)


def _check_geometry(grid: Tuple[int, int], pad, radius_fraction):
    """(pad, radius_fraction) checked against a checked grid, as a convolution needs.

    The padded shape must dominate the grid and radius_fraction lie in
    (0, 1]; the caller keeps its own rule for the grid.
    """
    pad = check_shape(pad, "pad")
    if pad[0] < grid[0] or pad[1] < grid[1]:
        raise ParameterError("padded shape must dominate the grid shape")
    radius_fraction = check_real(radius_fraction, "radius_fraction")
    if not (0.0 < radius_fraction <= 1.0):
        raise ParameterError("radius_fraction must lie in (0, 1]")
    return pad, radius_fraction


def _disk_axis(n: int, radius: float):
    """Frequencies of a padded axis the disk of ``radius`` reaches, and its band.

    The disk reaches ``reach`` steps from frequency zero (circularly),
    the steps whose frequency is at most ``radius``. Returns their
    frequencies in circular order from ``-reach`` (each once), and the
    kept frequencies 0..band-1 of the disk's autocorrelation along the
    axis, which vanishes in exact arithmetic beyond ``2 reach``; no band
    exceeds Nyquist.
    """
    f = np.fft.fftfreq(n)
    k = np.arange(n)
    reach = int(np.minimum(k, n - k)[f**2 <= radius**2].max())
    return f[(np.arange(min(2 * reach + 1, n)) - reach) % n], min(2 * reach, n // 2) + 1


def _real_dft_basis(band: int, period: int, length: int):
    """Frequencies and rows ``[cos; -sin](2 pi k m / period)``, m < length.

    k runs over 0..band-1 for the cosines and over 1..band-1 short of
    Nyquist (``2 k < period``) for the sines: the sines of k = 0 and of
    Nyquist vanish. The angle is built from the exact integer ``(k m) mod
    period``, so it stays in [0, 2 pi) at any size.
    """
    k = np.concatenate([np.arange(band), np.arange(1, min(band, (period + 1) // 2))])
    angle = (2.0 * np.pi / period) * (np.outer(k, np.arange(length)) % period)
    basis = np.cos(angle)
    basis[band:] = -np.sin(angle[band:])
    return k, basis


class RenormalizedProblem(NamedTuple):
    """Rescaled operator/data pair; divide mu by scale**2 to match."""

    operator: LinearOperatorHandle
    data: np.ndarray
    scale: float

    @property
    def mu_scale(self) -> float:
        return 1.0 / self.scale**2


def renormalize(K: LinearOperatorHandle, g) -> RenormalizedProblem:
    """Rescale (K, g) so the certified norm bound is at most 0.999.

    The scale is ``K.norm_bound / 0.999``, so the returned bound is
    certified whenever the operator's own bound is. Minimizing
    ||K'f - g'||^2 + (mu/scale^2) * penalty(f) over the returned pair
    reproduces the minimizer of the original problem. An operator
    already bounded by 0.999 (the zero operator included) passes
    through unchanged. g must fill K's image (AlignmentError).
    """
    check_kinds(LinearOperatorHandle=K)
    g = check_values(g, "data", ndim=None, complex_ok=True)
    check_image(g.size, K)
    if K.norm_bound <= _NORM_MARGIN:
        return RenormalizedProblem(K, g, 1.0)
    scale = K.norm_bound / _NORM_MARGIN
    scaled = ScaledOperator(K, 1.0 / scale, norm_bound=_NORM_MARGIN)
    return RenormalizedProblem(scaled, g / scale, scale)


def validate_operator(K: LinearOperatorHandle, n_probes: int = 20, seed: int = 0,
                      tol: float = 1e-10) -> dict:
    """Probe the adjoint pairing, the normal operator and the norm bound.

    Raises ContractViolationError if <Kf, g> != <f, K*g> or
    normal(f) != adjoint(apply(f)) beyond ``tol`` (relative), or if ||Kf||
    exceeds norm_bound * ||f|| beyond roundoff slack. A defect that is not
    a number (a NaN or infinity in a product) fails its check. Returns the
    worst observed defects for reporting.
    """
    check_kinds(LinearOperatorHandle=K)
    n_probes = check_count(n_probes, "n_probes")
    tol = check_real(tol, "tol", lower="nonnegative")
    rng = np.random.default_rng(check_count(seed, "seed", minimum=0))
    complex_domain = np.dtype(K.domain_dtype).kind == "c"

    def draw(n):
        v = rng.standard_normal(n)
        if complex_domain:
            v = v + 1j * rng.standard_normal(n)
        return v

    worst_adjoint = 0.0
    worst_normal = 0.0
    worst_excess = 0.0
    for _ in range(n_probes):
        f = draw(K.domain_len)
        g = draw(K.image_len)
        kf = K.apply(f)
        kg = K.adjoint(g)
        # Python numbers, so that an infinite product gives a NaN defect
        # rather than a numpy warning
        lhs = complex(np.vdot(g, kf))
        rhs = complex(np.vdot(kg, f))
        scale = max(abs(lhs), abs(rhs), 1.0)
        defect = abs(lhs - rhs) / scale
        # max(defect, worst) keeps a NaN defect, and `not (defect <= tol)`
        # fails on it, where `defect > tol` would pass it
        worst_adjoint = max(defect, worst_adjoint)
        if not (defect <= tol):
            raise ContractViolationError(
                f"adjoint pairing defect {defect:.3e} exceeds {tol:.1e}"
            )
        reference = K.adjoint(kf)
        defect = (float(np.linalg.norm(K.normal(f) - reference))
                  / max(float(np.linalg.norm(reference)), 1.0))
        worst_normal = max(defect, worst_normal)
        if not (defect <= tol):
            raise ContractViolationError(
                f"normal operator differs from adjoint(apply) by {defect:.3e}, "
                f"beyond {tol:.1e}"
            )
        nf = np.linalg.norm(f)
        excess = float(np.linalg.norm(kf) - K.norm_bound * nf)
        worst_excess = max(excess, worst_excess)
        if not (excess <= tol * max(1.0, nf)):
            raise ContractViolationError(
                f"norm bound {K.norm_bound} violated by {excess:.3e} on a probe"
            )
    return {"worst_adjoint_defect": worst_adjoint, "worst_normal_defect": worst_normal,
            "worst_norm_excess": worst_excess}


@dataclass(frozen=True)
class SvdModel:
    """Operator given diagonally by its singular values.

    Coefficients live in the right singular basis and data in the left
    one, so apply is componentwise multiplication by sigma. Values must
    be nonincreasing, nonnegative, and below 1 (renormalize first).
    """

    singular_values: np.ndarray

    def __post_init__(self):
        s = check_values(self.singular_values, "singular values", lower="nonnegative")
        if np.any(np.diff(s) > 0.0):
            raise ParameterError("singular values must be nonincreasing")
        if s[0] >= 1.0:
            raise ParameterError("singular values must lie below 1; renormalize first")
        object.__setattr__(self, "singular_values", s)

    def operator(self) -> DiagonalOperator:
        return DiagonalOperator(self.singular_values)

    def __len__(self) -> int:
        return self.singular_values.size


def thresholded_svd_solve(model: SvdModel, g, mu: float) -> CoefficientVector:
    """Closed-form minimizer for p = 1, uniform weights, diagonal operator.

    Componentwise f_k = sigma_k^(-2) * S_mu(sigma_k * g_k), with
    components belonging to vanished singular values set to zero. This is
    the sparse analogue of the Tikhonov filter sigma/(sigma^2 + mu): a
    soft spectral cutoff instead of a smooth damping.
    """
    check_kinds(SvdModel=model)
    mu = check_real(mu, "mu", lower="positive")
    g = check_values(g, "data coefficients")
    s = model.singular_values
    if g.shape != s.shape:
        raise AlignmentError("data coefficients must align with the singular values")
    out = np.zeros_like(g)
    nz = s > 0.0
    out[nz] = soft_threshold(s[nz] * g[nz], mu) / s[nz] ** 2
    return CoefficientVector(values=out)
