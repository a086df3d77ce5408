"""Orthonormal discrete wavelet transforms and smoothness weights.

Periodized filter-bank transforms in 1-d and 2-d (separable, square
decomposition) built from compactly supported orthonormal filters. Every
coefficient carries a scale label |lambda|, with the coarsest scaling
coefficients at |lambda| = 0 and the finest details at levels - 1; the
smoothness weights 2^(sigma * p * |lambda|) built on those labels turn
the penalty into an equivalent smoothness-space norm. Conjugating a
pixel-domain operator with the transform lets the same iteration shrink
wavelet coefficients instead of pixels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .core import CoefficientVector, WeightSequence, as_coefficients, check_exponent
from .errors import AlignmentError, ParameterError
from .operators import LinearOperatorHandle

__all__ = [
    "WaveletSpec",
    "WaveletCoefficients",
    "dwt",
    "idwt",
    "BesovWeightSpec",
    "besov_weights",
    "conjugated_operator",
]

_ORTHONORMALITY_TOL = 1e-12


def _lowpass_filter(family: str) -> np.ndarray:
    s2 = np.sqrt(2.0)
    if family in ("haar", "db1"):
        return np.array([1.0, 1.0]) / s2
    if family == "db2":
        s3 = np.sqrt(3.0)
        return np.array([1.0 + s3, 3.0 + s3, 3.0 - s3, 1.0 - s3]) / (4.0 * s2)
    if family == "db3":
        s10 = np.sqrt(10.0)
        b = np.sqrt(5.0 + 2.0 * s10)
        return np.array(
            [
                1.0 + s10 + b,
                5.0 + s10 + 3.0 * b,
                10.0 - 2.0 * s10 + 2.0 * b,
                10.0 - 2.0 * s10 - 2.0 * b,
                5.0 + s10 - 3.0 * b,
                1.0 + s10 - b,
            ]
        ) / (16.0 * s2)
    if family == "db4":
        return np.array(
            [
                0.23037781330885523,
                0.7148465705525415,
                0.6308807679295904,
                -0.02798376941698385,
                -0.18703481171888114,
                0.030841381835986965,
                0.032883011666982945,
                -0.010597401784997278,
            ]
        )
    raise ParameterError(
        f"unknown wavelet family {family!r}; available: haar/db1, db2, db3, db4"
    )


@dataclass(frozen=True)
class WaveletSpec:
    """Filter family, decomposition depth, and boundary handling.

    Only periodic boundaries are supported; they are what keeps the
    transform exactly orthonormal on finite grids. The filter pair is
    validated at construction: unit energy, vanishing even-lag
    autocorrelation, and lowpass sum sqrt(2), all to 1e-12.
    """

    family: str = "db2"
    levels: int = 1
    boundary: str = "periodic"

    def __post_init__(self):
        family = str(self.family).lower()
        object.__setattr__(self, "family", family)
        if int(self.levels) < 1:
            raise ParameterError("decomposition needs at least one level")
        object.__setattr__(self, "levels", int(self.levels))
        if self.boundary != "periodic":
            raise ParameterError("only periodic boundary handling is supported")
        h = _lowpass_filter(family)
        # quadrature mirror highpass: alternate signs on the reversed filter
        g = (h[::-1] * np.where(np.arange(h.size) % 2 == 0, 1.0, -1.0)).copy()
        defects = [abs(np.dot(h, h) - 1.0), abs(h.sum() - np.sqrt(2.0))]
        for lag in range(2, h.size, 2):
            defects.append(abs(np.dot(h[:-lag], h[lag:])))
        if max(defects) > _ORTHONORMALITY_TOL:
            raise ParameterError(
                f"filter bank for {family!r} fails orthonormality by {max(defects):.2e}"
            )
        h = h.copy()
        h.flags.writeable = False
        g.flags.writeable = False
        object.__setattr__(self, "lowpass", h)
        object.__setattr__(self, "highpass", g)


def _analyze_axis(x: np.ndarray, h: np.ndarray, g: np.ndarray):
    """Split the last axis (even length, periodic) into approx/detail."""
    n = x.shape[-1]
    idx = (2 * np.arange(n // 2)[:, None] + np.arange(h.size)[None, :]) % n
    windows = x[..., idx]
    return windows @ h, windows @ g


def _synthesize_axis(a: np.ndarray, d: np.ndarray, h: np.ndarray, g: np.ndarray):
    """Inverse of _analyze_axis along the last axis."""
    half = a.shape[-1]
    n = 2 * half
    idx = (2 * np.arange(half)[:, None] + np.arange(h.size)[None, :]) % n
    contrib = a[..., :, None] * h + d[..., :, None] * g
    lead = a.shape[:-1]
    flat = contrib.reshape(-1, half, h.size)
    out = np.zeros((flat.shape[0], n))
    np.add.at(out, (np.arange(flat.shape[0])[:, None, None], idx[None, :, :]), flat)
    return out.reshape(lead + (n,))


def _analyze_2d(x, h, g):
    a, dc = _analyze_axis(x, h, g)
    ll, lh = _analyze_axis(a.swapaxes(0, 1), h, g)
    hl, hh = _analyze_axis(dc.swapaxes(0, 1), h, g)
    return (
        ll.swapaxes(0, 1),
        lh.swapaxes(0, 1),
        hl.swapaxes(0, 1),
        hh.swapaxes(0, 1),
    )


def _synthesize_2d(ll, lh, hl, hh, h, g):
    a = _synthesize_axis(ll.swapaxes(0, 1), lh.swapaxes(0, 1), h, g).swapaxes(0, 1)
    dc = _synthesize_axis(hl.swapaxes(0, 1), hh.swapaxes(0, 1), h, g).swapaxes(0, 1)
    return _synthesize_axis(a, dc, h, g)


def _check_shape(shape: Tuple[int, ...], spec: WaveletSpec):
    divisor = 2**spec.levels
    for n in shape:
        if n % divisor != 0 or n < divisor:
            raise AlignmentError(
                f"axis length {n} is not divisible by 2^levels = {divisor}"
            )


@dataclass
class WaveletCoefficients:
    """Flat coefficient storage plus per-coefficient scale labels.

    Band order is coarse to fine: the scaling band first (scale 0), then
    for each level the detail band(s), the coarsest detail also at scale
    0 and the finest at levels - 1.
    """

    values: np.ndarray
    scales: np.ndarray
    spec: WaveletSpec
    shape: Tuple[int, ...]

    def to_vector(self) -> CoefficientVector:
        return CoefficientVector(values=self.values)

    def __len__(self) -> int:
        return self.values.size


def _scale_labels(shape: Tuple[int, ...], spec: WaveletSpec) -> np.ndarray:
    J = spec.levels
    labels: List[np.ndarray] = []
    if len(shape) == 1:
        coarse = shape[0] >> J
        labels.append(np.zeros(coarse, dtype=np.int64))
        for level in range(J, 0, -1):
            labels.append(np.full(shape[0] >> level, J - level, dtype=np.int64))
    else:
        coarse = (shape[0] >> J) * (shape[1] >> J)
        labels.append(np.zeros(coarse, dtype=np.int64))
        for level in range(J, 0, -1):
            size = (shape[0] >> level) * (shape[1] >> level)
            labels.append(np.full(3 * size, J - level, dtype=np.int64))
    return np.concatenate(labels)


def dwt_array(x: np.ndarray, spec: WaveletSpec) -> np.ndarray:
    """Forward transform of a 1-d or 2-d array into flat band order."""
    h, g = spec.lowpass, spec.highpass
    x = np.asarray(x, dtype=np.float64)
    _check_shape(x.shape, spec)
    if x.ndim == 1:
        details = []
        a = x
        for _ in range(spec.levels):
            a, d = _analyze_axis(a, h, g)
            details.append(d)
        bands = [a] + details[::-1]
        return np.concatenate([b.ravel() for b in bands])
    if x.ndim == 2:
        details2 = []
        a = x
        for _ in range(spec.levels):
            a, lh, hl, hh = _analyze_2d(a, h, g)
            details2.append((lh, hl, hh))
        pieces = [a.ravel()]
        for lh, hl, hh in details2[::-1]:
            pieces.extend([lh.ravel(), hl.ravel(), hh.ravel()])
        return np.concatenate(pieces)
    raise ParameterError("transform supports 1-d signals and 2-d grids only")


def idwt_array(values: np.ndarray, spec: WaveletSpec,
               shape: Tuple[int, ...]) -> np.ndarray:
    """Inverse of dwt_array for the given original shape."""
    h, g = spec.lowpass, spec.highpass
    values = np.asarray(values, dtype=np.float64)
    _check_shape(shape, spec)
    J = spec.levels
    if len(shape) == 1:
        n = shape[0]
        if values.size != n:
            raise AlignmentError(f"expected {n} coefficients, got {values.size}")
        pos = n >> J
        a = values[:pos].copy()
        for level in range(J, 0, -1):
            size = n >> level
            d = values[pos : pos + size]
            pos += size
            a = _synthesize_axis(a, d, h, g)
        return a
    if len(shape) == 2:
        total = shape[0] * shape[1]
        if values.size != total:
            raise AlignmentError(f"expected {total} coefficients, got {values.size}")
        rows, cols = shape[0] >> J, shape[1] >> J
        pos = rows * cols
        a = values[:pos].reshape(rows, cols).copy()
        for level in range(J, 0, -1):
            rows, cols = shape[0] >> level, shape[1] >> level
            size = rows * cols
            lh = values[pos : pos + size].reshape(rows, cols)
            hl = values[pos + size : pos + 2 * size].reshape(rows, cols)
            hh = values[pos + 2 * size : pos + 3 * size].reshape(rows, cols)
            pos += 3 * size
            a = _synthesize_2d(a, lh, hl, hh, h, g)
        return a
    raise ParameterError("transform supports 1-d signals and 2-d grids only")


def dwt(signal, spec: WaveletSpec) -> WaveletCoefficients:
    """Orthonormal forward transform; energy is preserved exactly.

    Accepts a 1-d signal, a 2-d grid, or a CoefficientVector carrying
    grid dims. Axis lengths must be divisible by 2^levels.
    """
    if isinstance(signal, CoefficientVector):
        arr = signal.as_grid() if signal.dims is not None else signal.values
    else:
        arr = np.asarray(signal)
    if arr.dtype.kind == "c":
        raise ParameterError("wavelet transform expects real input")
    values = dwt_array(arr, spec)
    return WaveletCoefficients(
        values=values,
        scales=_scale_labels(arr.shape, spec),
        spec=spec,
        shape=tuple(arr.shape),
    )


def idwt(coefficients: WaveletCoefficients) -> np.ndarray:
    """Reconstruct the signal; exact inverse of :func:`dwt`."""
    return idwt_array(coefficients.values, coefficients.spec, coefficients.shape)


@dataclass(frozen=True)
class BesovWeightSpec:
    """Smoothness order s, exponent p, and dimension d for scale weights.

    The induced weight exponent is sigma = s + d * (1/2 - 1/p); it must
    be nonnegative or the weights would vanish at fine scales and the
    penalty would lose its lower bound.
    """

    s: float
    p: float
    d: int = 1

    def __post_init__(self):
        p = check_exponent(self.p)
        if int(self.d) < 1:
            raise ParameterError("dimension d must be >= 1")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "s", float(self.s))
        object.__setattr__(self, "d", int(self.d))
        if self.sigma < 0.0:
            raise ParameterError(
                f"s + d*(1/2 - 1/p) = {self.sigma} is negative; weights would "
                "decay with scale"
            )

    @property
    def sigma(self) -> float:
        return self.s + self.d * (0.5 - 1.0 / self.p)


def besov_weights(spec: BesovWeightSpec, scale_labels) -> WeightSequence:
    """Scale weights w = 2^(sigma * p * |lambda|) for the given labels."""
    labels = np.asarray(scale_labels)
    if labels.ndim != 1 or labels.size == 0:
        raise ParameterError("scale labels must form a nonempty 1-d sequence")
    if np.any(labels < 0):
        raise ParameterError("scale labels must be nonnegative")
    w = np.power(2.0, spec.sigma * spec.p * labels.astype(np.float64))
    return WeightSequence(w=w)


class WaveletConjugatedOperator(LinearOperatorHandle):
    """Pixel-domain operator viewed from the wavelet coefficient side.

    apply = K_pixel o synthesis, adjoint = analysis o K_pixel*. The
    transform is orthonormal, so the certified norm bound carries over
    unchanged. The ``scales`` attribute aligns with the operator's
    domain, ready for :func:`besov_weights`.
    """

    kind = "wavelet-conjugated"

    def __init__(self, base: LinearOperatorHandle, spec: WaveletSpec):
        shape = base.domain_dims or (base.domain_len,)
        _check_shape(shape, spec)
        if int(np.prod(shape)) != base.domain_len:
            raise AlignmentError("base operator dims do not match its domain length")
        self.base = base
        self.spec = spec
        self.shape = tuple(shape)
        self.scales = _scale_labels(self.shape, spec)
        super().__init__(base.domain_len, base.image_len, base.norm_bound)

    def apply(self, z):
        z = self._check_domain(z)
        return self.base.apply(idwt_array(z, self.spec, self.shape).ravel())

    def adjoint(self, v):
        v = self._check_image(v)
        back = np.asarray(self.base.adjoint(v)).reshape(self.shape)
        return dwt_array(back, self.spec)


def conjugated_operator(K_pixel: LinearOperatorHandle,
                        wavelet_spec: WaveletSpec) -> WaveletConjugatedOperator:
    """Conjugate a pixel-domain operator with the orthonormal transform."""
    return WaveletConjugatedOperator(K_pixel, wavelet_spec)
