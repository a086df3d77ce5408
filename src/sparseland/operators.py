"""Bounded linear operators with certified norm bounds.

Every operator carries a certified upper bound on its spectral norm,
fixed at construction: the largest modulus of a diagonal, the spectral
norm of a dense matrix, the peak frequency response of a convolution.
The iteration theory needs that bound below 1, and :func:`renormalize`
rescales an arbitrary problem by the bound so it is. The concrete kinds
are diagonal maps, dense matrices and zero-padded FFT convolutions on
2-d grids. Frame synthesis, z -> sum_n z_n psi_n, is the dense operator
on the stacked frame vectors, ``DenseOperator(vectors.T)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np
import scipy.fft

from .core import CoefficientVector, check_array, check_count, check_real, check_shape
from .errors import AlignmentError, ContractViolationError, ParameterError
from .shrinkage import soft_threshold

__all__ = [
    "LinearOperatorHandle",
    "DiagonalOperator",
    "DenseOperator",
    "Convolution2DOperator",
    "ScaledOperator",
    "renormalize",
    "RenormalizedProblem",
    "validate_operator",
    "SvdModel",
    "thresholded_svd_solve",
]


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
        Grid shape of the domain for image-valued operators.
    """

    def __init__(self, domain_len: int, image_len: int, norm_bound: float,
                 domain_dims: Optional[Tuple[int, ...]] = None,
                 domain_dtype=np.float64):
        self.domain_len = check_count(domain_len, "domain_len")
        self.image_len = check_count(image_len, "image_len")
        self.norm_bound = check_real(norm_bound, "norm bound", lower="nonnegative")
        self.domain_dims = (None if domain_dims is None
                            else tuple(check_count(d, "domain_dims") for d in domain_dims))
        self.domain_dtype = domain_dtype

    def _check(self, x, length: int, side: str) -> np.ndarray:
        """x as a flat vector of ``length`` numbers, by check_array's dtype rule."""
        x = check_array(x, side, complex_ok=True)
        if x.ndim > 1:
            x = x.ravel()
        if x.shape != (length,):
            raise AlignmentError(f"{side} has length {length}, got {x.size}")
        return x

    def apply(self, f) -> np.ndarray:
        raise NotImplementedError

    def adjoint(self, g) -> np.ndarray:
        raise NotImplementedError


class DiagonalOperator(LinearOperatorHandle):
    """Componentwise multiplication by a fixed sequence."""

    def __init__(self, entries):
        entries = check_array(entries, "diagonal entries", complex_ok=True)
        if entries.ndim != 1 or entries.size == 0:
            raise ParameterError("diagonal entries must form a nonempty 1-d sequence")
        if not np.all(np.isfinite(entries)):
            raise ParameterError("diagonal entries must be finite")
        self.entries = entries
        self._conj_entries = np.conj(entries)
        dtype = np.complex128 if entries.dtype.kind == "c" else np.float64
        super().__init__(entries.size, entries.size,
                         float(np.max(np.abs(entries))), domain_dtype=dtype)

    def apply(self, f):
        return self.entries * self._check(f, self.domain_len, "operator domain")

    def adjoint(self, g):
        return self._conj_entries * self._check(g, self.image_len, "operator image")


class DenseOperator(LinearOperatorHandle):
    """Explicit matrix; norm bound from an exact spectral norm."""

    def __init__(self, matrix):
        matrix = check_array(matrix, "matrix entries", complex_ok=True)
        if matrix.ndim != 2 or matrix.size == 0:
            raise ParameterError("dense operator needs a nonempty 2-d matrix")
        if not np.all(np.isfinite(matrix)):
            raise ParameterError("matrix entries must be finite")
        self.matrix = matrix
        self._adjoint = matrix.conj().T
        # exact up to roundoff; tiny inflation keeps it an upper bound
        norm_bound = float(np.linalg.norm(matrix, 2)) * (1.0 + 1e-12)
        dtype = np.complex128 if matrix.dtype.kind == "c" else np.float64
        super().__init__(matrix.shape[1], matrix.shape[0], norm_bound,
                         domain_dtype=dtype)

    def apply(self, f):
        return self.matrix @ self._check(f, self.domain_len, "operator domain")

    def adjoint(self, g):
        return self._adjoint @ self._check(g, self.image_len, "operator image")


class ScaledOperator(LinearOperatorHandle):
    """A fixed multiple of another operator (used by renormalize)."""

    def __init__(self, base: LinearOperatorHandle, factor: float, norm_bound: float):
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
    frequency of the padded grid, scaled so the peak response equals
    ``peak_response``. The peak response is then an exact norm bound:
    padding and cropping are partial isometries around a multiplication
    operator in an orthogonal basis.

    The response is band-limited. If the disk reaches ``m`` columns from
    frequency zero, its autocorrelation vanishes in exact arithmetic
    beyond ``2 m`` (circularly), so of the ``pad[1] // 2 + 1`` rfft
    columns only the first ``band = min(2 m, pad[1] // 2) + 1`` carry
    response; the rest of ``filter`` is FFT roundoff. The same holds
    along the rows with ``band_y``. Dropping exact zeros leaves the
    peak, and hence the norm bound, unchanged. A product takes one of
    two forms, chosen once at construction from the shapes alone:

    * Matrix form, when the band covers at most a quarter of the padded
      spectrum on both axes (``4 (band - 1) <= pad[1]`` and
      ``4 (band_y - 1) <= pad[0]``). The response is real and even along
      each axis, so the product of a ``grid``-shaped X is
      ``Fy^T (H * (Fy X Fx^T)) Fx`` (``*`` elementwise) with truncated
      real DFT bases: ``Fy`` holds the rows ``[cos; -sin](2 pi k m /
      pad[0])`` for ``k < band_y`` and ``m < grid[0]``, ``Fx`` the same
      for ``pad[1]``, ``band`` and ``grid[1]``, and ``H`` is the kept
      response tiled 2 x 2, weighted 2 for each ``k > 0`` (standing for
      ``+-k``) and divided by ``pad[0] * pad[1]``. That is four small
      real GEMMs and no FFT; the band stops short of Nyquist, so no
      Nyquist weight is needed.
    * Pruned FFT form otherwise: rfft of the ``grid[0]`` data rows
      (padding to ``pad[1]`` implicitly), column FFTs of the band only,
      the ``pad[0] x band`` response, and inverse transforms keeping just
      the ``grid[0]`` rows and ``grid[1]`` columns that survive the crop.
      It stays for wide bands, where the GEMMs' cost grows with the band
      and the FFTs' does not. The circular convolution at ``pad == grid``
      usually has one: at 256 x 256 and radius 0.3 it keeps 77 of 129
      rfft columns and rows, and the FFT form is the faster there.

    ``matrix_form`` tells which one the operator uses. Both compute the
    same map up to roundoff.

    Input and output are flat vectors of length grid[0]*grid[1]; the
    point spread function is nonnegative (an intensity pattern), so the
    map preserves nonnegativity up to roundoff.
    """

    def __init__(self, grid: Tuple[int, int], pad: Tuple[int, int],
                 radius_fraction: float = 0.1, peak_response: float = 0.999):
        grid = check_shape(grid, "grid")
        pad = check_shape(pad, "pad")
        if pad[0] < grid[0] or pad[1] < grid[1]:
            raise ParameterError("padded shape must dominate the grid shape")
        radius_fraction = check_real(radius_fraction, "radius_fraction")
        if not (0.0 < radius_fraction <= 1.0):
            raise ParameterError("radius_fraction must lie in (0, 1]")
        peak_response = check_real(peak_response, "peak_response", lower="positive")
        self.grid = grid
        self.pad = pad
        self.radius_fraction = radius_fraction
        self.peak_response = peak_response

        fy = np.fft.fftfreq(pad[0])
        fx = np.fft.fftfreq(pad[1])
        radius = radius_fraction * 0.5  # max frequency is the Nyquist 0.5
        disk = (fy[:, None] ** 2 + fx[None, :] ** 2) <= radius**2
        if not disk.any():
            raise ParameterError("frequency disk is empty; enlarge pad or radius")
        spectrum = np.abs(np.fft.fft2(disk.astype(np.float64))) ** 2
        autocorr = np.fft.ifft2(spectrum).real
        self.filter = peak_response * autocorr / autocorr.max()
        self.band_y, self.band = _band(disk.any(axis=1)), _band(disk.any(axis=0))
        self._rfilter = self.filter[:, : self.band].copy()
        self.matrix_form = (4 * (self.band - 1) <= pad[1]
                            and 4 * (self.band_y - 1) <= pad[0])
        if self.matrix_form:
            ky, self._fy = _real_dft_basis(self.band_y, pad[0], grid[0])
            kx, self._fx = _real_dft_basis(self.band, pad[1], grid[1])
            # each kept frequency k > 0 stands for the pair +-k
            wy = np.where(ky == 0, 1.0, 2.0)
            wx = np.where(kx == 0, 1.0, 2.0)
            self._hhat = (self.filter[np.ix_(ky, kx)] * np.outer(wy, wx)
                          / (pad[0] * pad[1]))
        super().__init__(grid[0] * grid[1], grid[0] * grid[1], self.peak_response,
                         domain_dims=grid)

    def _convolve(self, f: np.ndarray) -> np.ndarray:
        if f.dtype.kind == "c":
            # the response is real, so it filters both parts separately
            return self._convolve(f.real) + 1j * self._convolve(f.imag)
        x = f.reshape(self.grid)
        if self.matrix_form:
            # a strided view (the real part of a complex array) would take
            # a non-BLAS matmul whose roundoff differs from the contiguous one
            return self._convolve_matrix(np.ascontiguousarray(x)).ravel()
        return self._convolve_fft(x).ravel()

    def _convolve_matrix(self, x: np.ndarray) -> np.ndarray:
        spectrum = self._fy @ x @ self._fx.T
        spectrum *= self._hhat
        return self._fy.T @ spectrum @ self._fx

    def _convolve_fft(self, x: np.ndarray) -> np.ndarray:
        rows = scipy.fft.rfft(x, n=self.pad[1], axis=1)
        spectrum = scipy.fft.fft(rows[:, : self.band], n=self.pad[0], axis=0)
        spectrum *= self._rfilter
        rows = scipy.fft.ifft(spectrum, axis=0, overwrite_x=True)[: self.grid[0]]
        out = scipy.fft.irfft(rows, n=self.pad[1], axis=1)
        return out[:, : self.grid[1]]

    def apply(self, f):
        return self._convolve(self._check(f, self.domain_len, "operator domain"))

    def adjoint(self, g):
        # the frequency response is real and even, so the operator is
        # self-adjoint
        return self._convolve(self._check(g, self.image_len, "operator image"))

    def point_spread_function(self) -> np.ndarray:
        """Spatial response to a unit impulse, centered on the padded grid."""
        return np.fft.fftshift(np.fft.ifft2(self.filter).real)


def _band(reached: np.ndarray) -> int:
    """Kept frequencies 0..band-1 along an axis of a disk's autocorrelation.

    ``reached`` marks the indices of the padded axis the disk touches.
    The autocorrelation vanishes in exact arithmetic beyond twice the
    disk's reach (circularly), and no band exceeds Nyquist.
    """
    n = reached.size
    k = np.arange(n)
    reach = int(np.minimum(k, n - k)[reached].max())
    return min(2 * reach, n // 2) + 1


def _real_dft_basis(band: int, period: int, length: int):
    """Frequencies and rows ``[cos; -sin](2 pi k m / period)``, m < length.

    k runs over 0..band-1 for the cosines and 1..band-1 for the sines
    (the sine of k = 0 vanishes). The angle is built from the exact
    integer ``(k m) mod period``, so it stays in [0, 2 pi) at any size.
    """
    k = np.concatenate([np.arange(band), np.arange(1, band)])
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


def renormalize(K: LinearOperatorHandle, g, target: float = 0.999) -> RenormalizedProblem:
    """Rescale (K, g) so the certified norm bound is at most ``target``.

    The scale is ``K.norm_bound / target``, so the returned bound is
    certified whenever the operator's own bound is. Minimizing
    ||K'f - g'||^2 + (mu/scale^2) * penalty(f) over the returned pair
    reproduces the minimizer of the original problem. An operator
    already bounded by target (the zero operator included) passes
    through unchanged.
    """
    target = check_real(target, "renormalization target", lower="positive")
    if target >= 1.0:
        raise ParameterError("renormalization target must lie in (0, 1)")
    g = check_array(g, "data", complex_ok=True)
    if K.norm_bound <= target:
        return RenormalizedProblem(K, g, 1.0)
    scale = K.norm_bound / target
    scaled = ScaledOperator(K, 1.0 / scale, norm_bound=target)
    return RenormalizedProblem(scaled, g / scale, scale)


def validate_operator(K: LinearOperatorHandle, n_probes: int = 20, seed: int = 0,
                      tol: float = 1e-10) -> dict:
    """Probe the adjoint pairing and the norm bound with random vectors.

    Raises ContractViolationError if <Kf, g> != <f, K*g> beyond ``tol``
    (relative) or ||Kf|| exceeds norm_bound * ||f|| beyond roundoff slack.
    Returns the worst observed defects for reporting.
    """
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
    worst_excess = 0.0
    for _ in range(n_probes):
        f = draw(K.domain_len)
        g = draw(K.image_len)
        kf = K.apply(f)
        kg = K.adjoint(g)
        lhs = np.vdot(g, kf)
        rhs = np.vdot(kg, f)
        scale = max(abs(lhs), abs(rhs), 1.0)
        defect = abs(lhs - rhs) / scale
        worst_adjoint = max(worst_adjoint, defect)
        if defect > tol:
            raise ContractViolationError(
                f"adjoint pairing defect {defect:.3e} exceeds {tol:.1e}"
            )
        nf = np.linalg.norm(f)
        excess = float(np.linalg.norm(kf) - K.norm_bound * nf)
        worst_excess = max(worst_excess, excess)
        if excess > tol * max(1.0, nf):
            raise ContractViolationError(
                f"norm bound {K.norm_bound} violated by {excess:.3e} on a probe"
            )
    return {"worst_adjoint_defect": worst_adjoint, "worst_norm_excess": worst_excess}


@dataclass(frozen=True)
class SvdModel:
    """Operator given diagonally by its singular values.

    Coefficients live in the right singular basis and data in the left
    one, so apply is componentwise multiplication by sigma. Values must
    be nonincreasing, nonnegative, and below 1 (renormalize first).
    """

    singular_values: np.ndarray

    def __post_init__(self):
        s = check_array(self.singular_values, "singular values").astype(np.float64)
        if s.ndim != 1 or s.size == 0:
            raise ParameterError("singular values must form a nonempty 1-d sequence")
        if not np.all(np.isfinite(s)) or np.any(s < 0.0):
            raise ParameterError("singular values must be finite and nonnegative")
        if np.any(np.diff(s) > 0.0):
            raise ParameterError("singular values must be nonincreasing")
        if s[0] >= 1.0:
            raise ParameterError("singular values must lie below 1; renormalize first")
        s.flags.writeable = False
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
    mu = check_real(mu, "mu", lower="positive")
    g = check_array(g, "data coefficients").astype(np.float64, copy=False)
    s = model.singular_values
    if g.shape != s.shape:
        raise AlignmentError("data coefficients must align with the singular values")
    out = np.zeros_like(g)
    nz = s > 0.0
    out[nz] = soft_threshold(s[nz] * g[nz], mu) / s[nz] ** 2
    return CoefficientVector(values=out)
