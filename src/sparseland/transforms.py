"""Orthonormal discrete wavelet transforms and smoothness weights.

Periodized filter-bank transforms in 1-d and 2-d (separable, square
decomposition) built from compactly supported orthonormal filters. Each
level splits the last axis into lowpass (l) and highpass (h) halves,
then the first; synthesis is the adjoint of that split. The flat band
order is the coarsest scaling band, then the detail bands of each level
from coarsest to finest: one band per level in 1-d, and lh, hl, hh in
2-d, the first letter naming the filter along axis 1 and the second the
filter along axis 0. With H and G the periodic lowpass and highpass
analysis matrices, one 2-d level of X gives H X H^T, G X H^T, H X G^T,
G X G^T in that order.

Both directions run in polyphase form along the axis itself: analysis
extends the axis periodically and sums strided slices of its even and
odd phases, one per filter tap; synthesis accumulates the two output
phases out[0::2] and out[1::2] from shifted slices of the periodically
extended bands. The extensions index modulo the axis length because at
coarse levels a db3 or db4 filter is longer than the axis it splits,
so a single wrap would not cover it.

Every coefficient carries a scale label |lambda|, with the scaling band
and the coarsest details at |lambda| = 0 and the finest details at
levels - 1; the smoothness weights 2^(sigma * p * |lambda|) built on
those labels turn the penalty into an equivalent smoothness-space norm.
Conjugating a pixel-domain operator with the transform lets the same
iteration shrink wavelet coefficients instead of pixels.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Tuple

import numpy as np

from .core import (CoefficientVector, WeightSequence, check_array, check_count,
                   check_exponent, check_real)
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
        object.__setattr__(self, "levels", check_count(self.levels, "levels"))
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


def _along(axis: int, index: slice) -> tuple:
    """Index tuple that applies `index` along a nonnegative axis."""
    return (slice(None),) * axis + (index,)


def _analyze(x: np.ndarray, h: np.ndarray, g: np.ndarray, axis: int):
    """Split one axis (even length n, periodic) into approximation/detail.

    Band entry k is sum_j h[j] x[(2k + j) mod n]. On the periodic
    extension xe of x, tap j reads the strided slice xe[j : j + n : 2]:
    the even (j = 2q) or odd (j = 2q + 1) phase shifted by q.
    """
    n = x.shape[axis]
    xe = np.take(x, np.arange(n + h.size - 2) % n, axis=axis)
    window = xe[_along(axis, slice(0, n, 2))]
    a, d = h[0] * window, g[0] * window
    for j in range(1, h.size):
        window = xe[_along(axis, slice(j, j + n, 2))]
        a += h[j] * window
        d += g[j] * window
    return a, d


def _synthesize(a: np.ndarray, d: np.ndarray, h: np.ndarray, g: np.ndarray,
                axis: int) -> np.ndarray:
    """Adjoint of _analyze along one axis, hence its inverse.

    Polyphase form: analysis reads x[2k + j] into band entry k, so the
    adjoint sends tap j = 2q + r back onto output phase r (out[r::2]),
    with the bands shifted by q. Each band is first extended periodically
    by L/2 - 1 entries in front (L the filter length); the extension is
    modular because at coarse levels the band can be shorter than that.
    """
    m = a.shape[axis]
    lag = h.size // 2 - 1
    wrap = (np.arange(m + lag) - lag) % m
    ae, de = np.take(a, wrap, axis=axis), np.take(d, wrap, axis=axis)
    out = np.empty(a.shape[:axis] + (2 * m,) + a.shape[axis + 1:])
    for r in (0, 1):
        band = _along(axis, slice(lag, lag + m))
        phase = h[r] * ae[band] + g[r] * de[band]
        for q in range(1, h.size // 2):
            band = _along(axis, slice(lag - q, lag - q + m))
            phase += h[2 * q + r] * ae[band] + g[2 * q + r] * de[band]
        out[_along(axis, slice(r, None, 2))] = phase
    return out


def _check_shape(shape: Tuple[int, ...], spec: WaveletSpec):
    if len(shape) not in (1, 2):
        raise ParameterError("transform supports 1-d signals and 2-d grids only")
    divisor = 2**spec.levels
    for n in shape:
        if n % divisor != 0 or n < divisor:
            raise AlignmentError(
                f"axis length {n} is not divisible by 2^levels = {divisor}"
            )


@dataclass
class WaveletCoefficients:
    """Flat coefficients in band order plus per-coefficient scale labels."""

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
    details = 2 ** len(shape) - 1
    labels = [np.zeros(prod(n >> J for n in shape), dtype=np.int64)]
    for level in range(J, 0, -1):
        size = prod(n >> level for n in shape)
        labels.append(np.full(details * size, J - level, dtype=np.int64))
    return np.concatenate(labels)


def dwt_array(x: np.ndarray, spec: WaveletSpec) -> np.ndarray:
    """Forward transform of a 1-d or 2-d array into flat band order."""
    h, g = spec.lowpass, spec.highpass
    a = check_array(x, "wavelet transform input").astype(np.float64, copy=False)
    _check_shape(a.shape, spec)
    details = []
    for _ in range(spec.levels):
        bands = [a]
        for axis in reversed(range(a.ndim)):
            bands = [b for band in bands for b in _analyze(band, h, g, axis)]
        a = bands[0]
        details.append(bands[1:])
    pieces = [a] + [b for level in reversed(details) for b in level]
    return np.concatenate([b.ravel() for b in pieces])


def idwt_array(values: np.ndarray, spec: WaveletSpec,
               shape: Tuple[int, ...]) -> np.ndarray:
    """Inverse (and adjoint) of dwt_array for the given original shape."""
    h, g = spec.lowpass, spec.highpass
    values = check_array(values, "wavelet coefficients").astype(np.float64, copy=False)
    if values.ndim != 1:
        raise AlignmentError(
            f"coefficients must be a flat 1-d array, got shape {values.shape}")
    shape = tuple(shape)
    _check_shape(shape, spec)
    if values.size != prod(shape):
        raise AlignmentError(f"expected {prod(shape)} coefficients, got {values.size}")
    J = spec.levels
    details = 2 ** len(shape) - 1
    sub = tuple(n >> J for n in shape)
    pos = prod(sub)
    a = values[:pos].reshape(sub)
    for level in range(J, 0, -1):
        sub = tuple(n >> level for n in shape)
        size = details * prod(sub)
        bands = [a, *values[pos : pos + size].reshape((details,) + sub)]
        pos += size
        for axis in range(len(shape)):
            bands = [_synthesize(bands[k], bands[k + 1], h, g, axis)
                     for k in range(0, len(bands), 2)]
        a = bands[0]
    return a


def dwt(signal, spec: WaveletSpec) -> WaveletCoefficients:
    """Orthonormal forward transform; energy is preserved exactly.

    Accepts a 1-d signal, a 2-d grid, or a CoefficientVector carrying
    grid dims. Axis lengths must be divisible by 2^levels.
    """
    if isinstance(signal, CoefficientVector):
        arr = signal.as_grid() if signal.dims is not None else signal.values
    else:
        arr = np.asarray(signal)
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
        object.__setattr__(self, "p", check_exponent(self.p))
        object.__setattr__(self, "s", check_real(self.s, "smoothness order s"))
        object.__setattr__(self, "d", check_count(self.d, "dimension d"))
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
    labels = check_array(scale_labels, "scale labels")
    if labels.ndim != 1 or labels.size == 0:
        raise ParameterError("scale labels must form a nonempty 1-d sequence")
    if np.any(labels < 0):
        raise ParameterError("scale labels must be nonnegative")
    w = np.power(2.0, spec.sigma * spec.p * labels.astype(np.float64))
    return WeightSequence(w=w)


class WaveletConjugatedOperator(LinearOperatorHandle):
    """Pixel-domain operator viewed from the wavelet coefficient side.

    apply = K_pixel o synthesis, adjoint = analysis o K_pixel*, and
    normal = analysis o K_pixel.normal o synthesis. The transform is
    orthonormal, so the certified norm bound carries over unchanged. The
    ``scales`` attribute aligns with the operator's domain, ready for
    :func:`besov_weights`.
    """

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
        z = self._check(z, self.domain_len, "operator domain")
        return self.base.apply(idwt_array(z, self.spec, self.shape).ravel())

    def adjoint(self, v):
        v = self._check(v, self.image_len, "operator image")
        back = np.asarray(self.base.adjoint(v)).reshape(self.shape)
        return dwt_array(back, self.spec)

    def normal(self, z):
        z = self._check(z, self.domain_len, "operator domain")
        pixels = self.base.normal(idwt_array(z, self.spec, self.shape).ravel())
        return dwt_array(np.asarray(pixels).reshape(self.shape), self.spec)


def conjugated_operator(K_pixel: LinearOperatorHandle,
                        wavelet_spec: WaveletSpec) -> WaveletConjugatedOperator:
    """Conjugate a pixel-domain operator with the orthonormal transform."""
    return WaveletConjugatedOperator(K_pixel, wavelet_spec)
