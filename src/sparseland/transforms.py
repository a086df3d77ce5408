"""Orthonormal discrete wavelet transforms and smoothness weights.

Periodized transforms in 1-d and 2-d (separable, square decomposition)
built from compactly supported orthonormal filters. Each level splits
the last axis into lowpass (l) and highpass (h) halves, then the first;
synthesis is the adjoint of that split. The flat band order is the
coarsest scaling band, then the detail bands of each level from
coarsest to finest: one band per level in 1-d, and lh, hl, hh in 2-d,
the first letter naming the filter along axis 1 and the second the
filter along axis 0. With H and G the periodic lowpass and highpass
analysis matrices, one 2-d level of X gives H X H^T, G X H^T, H X G^T,
G X G^T in that order.

Both directions run as lifting steps (Daubechies & Sweldens, "Factoring
wavelet transforms into lifting steps", J. Fourier Anal. Appl. 4(3),
1998). A WaveletSpec factors the polyphase matrix of its filter pair
by the Euclidean algorithm on Laurent polynomials into steps that add
a short filter of one phase (even or odd samples) to the other, then
a scaling of each phase. Analysis splits an axis into its two phases,
runs the steps in place on them and scales; synthesis undoes the
scaling, runs the steps backward with the opposite sign and
interleaves. A step reads the other phase periodically, modulo the
band length, so the factorization also holds at coarse levels where
the band is shorter than the filter: it is an identity of Laurent
polynomials, hence also one modulo z^m - 1. The shift the factorization
leaves on each phase is folded into where analysis reads that phase
and synthesis writes it, and the signs into the scaling, so the bands
are the filter bank's entry for entry. During a transform the
bands sit in place in one array, each level's in the corner the
previous level's scaling band held; they are copied to or from the
flat band order once. Both directions of a shape and spec are
recorded once, as ufunc calls on one work array and one scratch array,
and later calls run those records one at a time under one lock; a run
writes every entry of the buffers before it reads it, and every call
returns a new array.

Every coefficient carries a scale label |lambda|, with the scaling band
and the coarsest details at |lambda| = 0 and the finest details at
levels - 1; the smoothness weights 2^(sigma * p * |lambda|) built on
those labels turn the penalty into an equivalent smoothness-space norm.
Conjugating a pixel-domain operator with the transform lets the same
iteration shrink wavelet coefficients instead of pixels.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from math import prod
from typing import NamedTuple, Tuple

import numpy as np

from . import _EXPORTS
from .core import (CoefficientVector, WeightSequence, check_array, check_count,
                   check_exponent, check_kinds, check_real, check_shape, check_values)
from .errors import AlignmentError, ParameterError
from .operators import LinearOperatorHandle

__all__ = list(_EXPORTS["transforms"])

# bound on the orthonormality defects of a filter pair and on the
# difference between its lifted and its direct analysis; lifting
# coefficients below it are roundoff
_FILTER_TOL = 1e-14


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
        # minimum-phase spectral factor of the Daubechies polynomial for
        # four vanishing moments, rounded from 60-digit arithmetic
        return np.array(
            [
                0.2303778133088965,
                0.7148465705529157,
                0.6308807679298589,
                -0.027983769416859854,
                -0.18703481171909309,
                0.030841381835560764,
                0.0328830116668852,
                -0.010597401785069032,
            ]
        )
    raise ParameterError(
        f"unknown wavelet family {family!r}; available: haar/db1, db2, db3, db4"
    )


class _Lifting(NamedTuple):
    """A lifting factorization in the form analysis runs it.

    Analysis takes the phases e[k] = x[2 (k + shift[0])] and
    o[k] = x[2 (k + shift[1]) + 1] of an axis of length 2m, then for
    each step ``(odd, terms)`` in order adds sum c * v[(k + s) mod m]
    over its ``(c, s)`` terms to o[k] when ``odd`` (v = e) and to e[k]
    otherwise (v = o), and ends with a = scale[0] * e, d = scale[1] * o.
    """

    steps: Tuple[Tuple[bool, Tuple[Tuple[float, int], ...]], ...]
    scale: Tuple[float, float]
    shift: Tuple[int, int]


# Laurent polynomials are (lowest exponent, coefficient array) pairs


def _poly_sub(p, q):
    lo = min(p[0], q[0])
    out = np.zeros(max(p[0] + p[1].size, q[0] + q[1].size) - lo)
    out[p[0] - lo:p[0] - lo + p[1].size] += p[1]
    out[q[0] - lo:q[0] - lo + q[1].size] -= q[1]
    return lo, out


def _divide(a, b, top: bool):
    """Quotient q and remainder a - q b, the remainder shorter than b.

    Laurent division is not unique: ``top`` clears the highest
    len(a) - len(b) + 1 coefficients of a, otherwise the lowest.
    """
    nb = b[1].size
    nq = a[1].size - nb + 1
    r = a[1].copy()
    q = np.zeros(nq)
    for i in reversed(range(nq)) if top else range(nq):
        q[i] = r[i + nb - 1] / b[1][-1] if top else r[i] / b[1][0]
        r[i:i + nb] -= q[i] * b[1]
    rest = (a[0], r[:nb - 1]) if top else (a[0] + nq, r[nq:])
    return (a[0] - b[0], q), rest


def _euclid(h: np.ndarray, g: np.ndarray, even_first: bool, top: bool):
    """One run of the Euclidean algorithm on the polyphase matrix of (h, g).

    The matrix is [[H_e, H_o], [G_e, G_o]] with H_e(z) = sum_q h[2q] z^q,
    H_o(z) = sum_q h[2q + 1] z^q (z advances a sequence by one) and G
    alike, so that [a; d] = P [x_e; x_o]. Dividing the longer of H_e,
    H_o by the shorter is a column operation, P = P' L with L a lifting
    step, and the run ends when H_o is zero and H_e a monomial. An
    orthonormal pair has a monomial determinant, so G_o is then a
    monomial too, and one last step clears G_e. ``even_first`` picks the
    dividend when H_e and H_o are equally long, ``top`` the end the
    first division clears; the ends then alternate. Returns None when
    the run does not end that way.
    """
    A, B = (0, h[0::2]), (0, h[1::2])
    C, D = (0, g[0::2]), (0, g[1::2])
    steps = []
    while A[1].size and B[1].size:
        odd = A[1].size > B[1].size or (A[1].size == B[1].size and even_first)
        if odd:  # o += q e
            q, A = _divide(A, B, top)
            C = _poly_sub(C, (q[0] + D[0], np.convolve(q[1], D[1])))
        else:  # e += q o
            q, B = _divide(B, A, top)
            D = _poly_sub(D, (q[0] + C[0], np.convolve(q[1], C[1])))
        steps.append((odd, q))
        top = not top
    if B[1].size or A[1].size != 1:
        return None
    # G_o is now a monomial up to roundoff, and G_e / G_o the last step
    k = int(np.argmax(np.abs(D[1])))
    beta, odd_scale = D[0] + k, D[1][k]
    steps.append((True, (C[0] - beta, C[1] / odd_scale)))
    # move the phase shifts of diag(H_e, G_o) in front of every step,
    # diag(z^alpha, z^beta) L = L' diag(z^alpha, z^beta); coefficients
    # within the tolerance of zero are roundoff and dropped
    alpha = A[0]
    folded = []
    for odd, (lo, q) in steps:
        lo += beta - alpha if odd else alpha - beta
        terms = tuple((float(c), lo + i) for i, c in enumerate(q) if abs(c) > _FILTER_TOL)
        if terms:
            folded.append((odd, terms))
    return _Lifting(tuple(folded), (float(A[1][0]), float(odd_scale)), (alpha, beta))


def _factor(h: np.ndarray, g: np.ndarray) -> _Lifting:
    """The lifting of (h, g) with the fewest terms, then the smallest coefficients.

    Raises ParameterError when no run of the Euclidean algorithm ends
    in a lifting, or when the lifted analysis differs from the direct
    one by more than the tolerance. The check runs the lifting kernel
    itself on the unit impulses of a period of 4 len(h) samples, long
    enough that no coefficient of the polyphase matrix wraps around.
    """
    runs = [_euclid(h, g, even_first, top)
            for even_first in (True, False) for top in (True, False)]
    runs = [r for r in runs if r is not None]
    if not runs:
        raise ParameterError("filter pair has no lifting factorization")
    lifting = min(runs, key=lambda r: (
        sum(len(terms) for _, terms in r.steps),
        max(abs(c) for c in r.scale + tuple(c for _, t in r.steps for c, _ in t))))
    n = 4 * h.size
    k = np.arange(n // 2)[:, None]
    taps = (2 * k + np.arange(h.size)) % n
    direct = np.zeros((n, n))
    direct[k, taps] = h
    direct[k + n // 2, taps] = g
    lifted = np.empty((n, n))
    plan = _Plan()
    _split(np.eye(n), lifted, 0, lifting, np.empty(3 * n * n // 2), plan)
    plan.run(None, None)
    defect = float(np.max(np.abs(lifted - direct)))
    if not (defect <= _FILTER_TOL):  # a NaN defect fails
        raise ParameterError(f"lifting steps miss the filter bank by {defect:.2e}")
    return lifting


@dataclass(frozen=True)
class WaveletSpec:
    """Filter family and decomposition depth.

    Boundaries are periodic, which keeps the transform exactly
    orthonormal on finite grids. The filter pair is
    validated at construction: unit energy, vanishing even-lag
    autocorrelation, and lowpass sum sqrt(2), all to 1e-14. Its lifting
    factorization, the ``lifting`` attribute, is derived from the
    filters then and checked to reproduce them to 1e-14.
    """

    family: str = "db2"
    levels: int = 1

    def __post_init__(self):
        family = str(self.family).lower()
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "levels", check_count(self.levels, "levels"))
        h = _lowpass_filter(family)
        # quadrature mirror highpass: alternate signs on the reversed filter
        g = (h[::-1] * np.where(np.arange(h.size) % 2 == 0, 1.0, -1.0)).copy()
        defects = [abs(np.dot(h, h) - 1.0), abs(h.sum() - np.sqrt(2.0))]
        for lag in range(2, h.size, 2):
            defects.append(abs(np.dot(h[:-lag], h[lag:])))
        defect = float(np.max(defects))  # np.max keeps a NaN, and a NaN fails
        if not (defect <= _FILTER_TOL):
            raise ParameterError(
                f"filter bank for {family!r} fails orthonormality by {defect:.2e}")
        h.flags.writeable = False
        g.flags.writeable = False
        object.__setattr__(self, "lowpass", h)
        object.__setattr__(self, "highpass", g)
        object.__setattr__(self, "lifting", _factor(h, g))


def _along(axis: int, index: slice) -> tuple:
    """Index tuple that applies `index` along a nonnegative axis."""
    return (slice(None),) * axis + (index,)


def _phases(shape: Tuple[int, ...], axis: int, scratch: np.ndarray):
    """Even phase, odd phase and a temporary of a split along `axis`.

    Each is contiguous in scratch and has `shape` with the axis halved.
    """
    half = shape[:axis] + (shape[axis] // 2,) + shape[axis + 1:]
    size = prod(half)
    return [scratch[i * size:(i + 1) * size].reshape(half) for i in range(3)]


class _Call:
    """A transform call's input or output array while its plan is recorded.

    Indexing it gives the region ``index`` of the array a call will pass.
    """

    def __init__(self, index=None):
        self.index = index

    def __getitem__(self, index) -> "_Call":
        return _Call(index)


_CALL = _Call()


class _Plan:
    """The ufunc calls of one transform, recorded once and run per call.

    ``ops`` are (ufunc, args) pairs on the work and scratch buffers the
    plan was recorded on. ``reads`` copy the call's input into those
    buffers before ``ops`` run, and ``writes`` copy them into the call's
    output after; each is (index, shape, view), the call's region being
    array[index].reshape(shape). Run from its record, a 256^2 db2:3 call
    takes 0.55 ms against 1.35 ms for the same lifting steps run
    directly, and ``wavelet`` runs at 340 against 266 iterations/s
    (medians, 10 of 10 pairs, ``BENCH_31.json``).
    """

    def __init__(self):
        self.reads, self.ops, self.writes = [], [], []

    def call(self, ufunc, *args):
        self.ops.append((ufunc, args))

    def copy(self, dst, src):
        """Record dst[...] = src; either may be a _Call region of the call's array."""
        if isinstance(src, _Call):
            self.reads.append((src.index, dst.shape, dst))
        elif isinstance(dst, _Call):
            self.writes.append((dst.index, src.shape, src))
        else:
            self.ops.append((np.copyto, (dst, src)))

    def run(self, x, out):
        for index, shape, view in self.reads:
            np.copyto(view, x[index].reshape(shape))
        for ufunc, args in self.ops:
            ufunc(*args)
        for index, shape, view in self.writes:
            np.copyto(out[index].reshape(shape), view)
        return out


def _run_steps(steps, phases, axis: int, sign: float, plan: _Plan):
    """Lifting steps in place: v[k] += sign * sum c * u[(k + s) mod m].

    The phases are viewed as (before, m, after) around the axis. They
    are contiguous, so a shift by s along m is a shift by s * after of
    the flat array, right except in the s rows along m of each block
    that wrap around, which are rewritten from the wrapped rows. A
    shift is taken modulo m as the one of -m/2 < s <= m/2, which wraps
    the fewest rows.
    """
    e, o, t = (a.reshape(prod(a.shape[:axis]), a.shape[axis], -1) for a in phases)
    m, after = t.shape[1:]
    flat = t.reshape(-1)
    for odd, terms in steps:
        v, u = (o, e) if odd else (e, o)
        for c, s in terms:
            c, s = sign * c, (s + (m - 1) // 2) % m - (m - 1) // 2
            if s > 0:
                plan.call(np.multiply, u.reshape(-1)[s * after:], c, flat[:-s * after])
                plan.call(np.multiply, u[:, :s], c, t[:, m - s:])
            elif s < 0:
                plan.call(np.multiply, u.reshape(-1)[:s * after], c, flat[-s * after:])
                plan.call(np.multiply, u[:, m + s:], c, t[:, :-s])
            else:
                plan.call(np.multiply, u, c, t)
            plan.call(np.add, v, t, v)


def _split(src, dst: np.ndarray, axis: int, lifting: _Lifting, scratch: np.ndarray,
           plan: _Plan):
    """Record one analysis split along `axis`: dst gets [a | d] along it.

    src has dst's shape, an even length 2m along the axis, and is read
    periodically; it may be dst, or _CALL for the call's input. scratch
    holds at least 3/2 dst.size floats.
    """
    phases = _phases(dst.shape, axis, scratch)
    m = dst.shape[axis] // 2
    for r, phase in enumerate(phases[:2]):
        s = lifting.shift[r] % m
        plan.copy(phase[_along(axis, slice(0, m - s))],
                  src[_along(axis, slice(2 * s + r, None, 2))])
        if s:
            plan.copy(phase[_along(axis, slice(m - s, m))], src[_along(axis, slice(r, 2 * s, 2))])
    _run_steps(lifting.steps, phases, axis, 1.0, plan)
    for r, phase in enumerate(phases[:2]):
        plan.call(np.multiply, phase, lifting.scale[r],
                  dst[_along(axis, slice(r * m, (r + 1) * m))])


def _merge(src: np.ndarray, dst, axis: int, lifting: _Lifting, scratch: np.ndarray,
           plan: _Plan):
    """Record the inverse of _split: [a | d] along `axis` of src back to the signal.

    dst has src's shape; it may be src, or _CALL for the call's output.
    """
    phases = _phases(src.shape, axis, scratch)
    m = src.shape[axis] // 2
    for r, phase in enumerate(phases[:2]):
        plan.call(np.multiply, src[_along(axis, slice(r * m, (r + 1) * m))],
                  1.0 / lifting.scale[r], phase)
    _run_steps(reversed(lifting.steps), phases, axis, -1.0, plan)
    for r, phase in enumerate(phases[:2]):
        s = lifting.shift[r] % m
        plan.copy(dst[_along(axis, slice(2 * s + r, None, 2))],
                  phase[_along(axis, slice(0, m - s))])
        if s:
            plan.copy(dst[_along(axis, slice(r, 2 * s, 2))], phase[_along(axis, slice(m - s, m))])


def _check_shape(shape, spec: WaveletSpec) -> Tuple[int, ...]:
    """The shape as a tuple of ints once it fits ``spec``; before any plan
    lookup, as (8.0, 8.0) would find the plans of (8, 8)."""
    check_kinds(WaveletSpec=spec)
    shape = check_shape(shape, "transform shape", minimum=0, axes=(1, 2))
    divisor = 2**spec.levels
    for n in shape:
        if n % divisor != 0 or n < divisor:
            raise AlignmentError(f"axis length {n} is not divisible by 2^levels = {divisor}")
    return shape


@dataclass
class WaveletCoefficients:
    """Flat coefficients in band order plus per-coefficient scale labels."""

    values: np.ndarray
    scales: np.ndarray
    spec: WaveletSpec
    shape: Tuple[int, ...]

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


def _bands(shape: Tuple[int, ...], levels: int):
    """Where each band sits in the transform's array, in flat band order.

    Level j's split leaves its details beside the halved corner that
    holds its scaling band; band b of a level is high along each axis
    whose bit is set in b, axis 0 the lowest bit.
    """
    yield _corner(shape, levels)
    for level in range(levels, 0, -1):
        for b in range(1, 2 ** len(shape)):
            yield tuple(slice(n >> level, 2 * (n >> level)) if b >> axis & 1
                        else slice(0, n >> level) for axis, n in enumerate(shape))


def _corner(shape: Tuple[int, ...], level: int) -> tuple:
    """The region a level splits: its scaling band and its details."""
    return tuple(slice(0, n >> level) for n in shape)


def _analysis_plan(spec: WaveletSpec, work: np.ndarray, scratch: np.ndarray) -> _Plan:
    """Record dwt_array for work's shape: the splits, then the band gather.

    The first split reads the call's input; the bands go from the work
    array to the call's flat output.
    """
    shape, plan = work.shape, _Plan()
    for level in range(spec.levels):
        corner = work[_corner(shape, level)]
        for axis in reversed(range(len(shape))):
            src = _CALL if level == 0 and axis == len(shape) - 1 else corner
            _split(src, corner, axis, spec.lifting, scratch, plan)
    pos = 0
    for band in _bands(shape, spec.levels):
        piece = work[band]
        plan.copy(_CALL[pos:pos + piece.size], piece)
        pos += piece.size
    return plan


def _synthesis_plan(spec: WaveletSpec, work: np.ndarray, scratch: np.ndarray) -> _Plan:
    """Record idwt_array for work's shape: the band scatter, then the merges.

    The bands go from the call's flat input to the work array; the
    last merge writes the call's output.
    """
    shape, plan = work.shape, _Plan()
    pos = 0
    for band in _bands(shape, spec.levels):
        piece = work[band]
        plan.copy(piece, _CALL[pos:pos + piece.size])
        pos += piece.size
    for level in reversed(range(spec.levels)):
        corner = work[_corner(shape, level)]
        for axis in range(len(shape)):
            dst = _CALL if level == 0 and axis == len(shape) - 1 else corner
            _merge(corner, dst, axis, spec.lifting, scratch, plan)
    return plan


# a (shape, spec) whose work and scratch buffers hold more than this
# many floats is recorded for its call alone: its transform then costs
# far more than recording it
_MAX_PLAN_SIZE = 2**20
_LOCK = threading.Lock()


@functools.lru_cache(maxsize=4)
def _plans(shape: Tuple[int, ...], spec: WaveletSpec) -> Tuple[_Plan, _Plan]:
    """The analysis and synthesis plans of (shape, spec), recorded on one
    work array of ``shape`` and the 3/2 times larger scratch its splits need."""
    work, scratch = np.empty(shape), np.empty(3 * prod(shape) // 2)
    return _analysis_plan(spec, work, scratch), _synthesis_plan(spec, work, scratch)


def _run(direction: int, x: np.ndarray, out: np.ndarray, shape, spec) -> np.ndarray:
    """Run the analysis (0) or synthesis (1) plan of a checked (shape, spec)."""
    plans = _plans.__wrapped__ if 5 * prod(shape) // 2 > _MAX_PLAN_SIZE else _plans
    with _LOCK:
        return plans(shape, spec)[direction].run(x, out)


def dwt_array(x: np.ndarray, spec: WaveletSpec) -> np.ndarray:
    """Forward transform of a 1-d or 2-d array into flat band order."""
    a = check_array(x, "wavelet transform input").astype(np.float64, copy=False)
    return _run(0, a, np.empty(a.size), _check_shape(a.shape, spec), spec)


def idwt_array(values: np.ndarray, spec: WaveletSpec,
               shape: Tuple[int, ...]) -> np.ndarray:
    """Inverse (and adjoint) of dwt_array for the given original shape."""
    values = check_array(values, "wavelet coefficients").astype(np.float64, copy=False)
    if values.ndim != 1:
        raise AlignmentError(
            f"coefficients must be a flat 1-d array, got shape {values.shape}")
    shape = _check_shape(shape, spec)
    if values.size != prod(shape):
        raise AlignmentError(f"expected {prod(shape)} coefficients, got {values.size}")
    return _run(1, values, np.empty(shape), shape, spec)


def dwt(signal, spec: WaveletSpec) -> WaveletCoefficients:
    """Orthonormal forward transform; energy is preserved exactly.

    Accepts a 1-d signal, a 2-d grid, or a CoefficientVector carrying
    grid dims. Axis lengths must be divisible by 2^levels, and entries
    must be finite.
    """
    if isinstance(signal, CoefficientVector):
        arr = signal.as_grid() if signal.dims is not None else signal.values
    else:
        arr = check_values(signal, "wavelet transform input", ndim=None)
    return WaveletCoefficients(dwt_array(arr, spec), _scale_labels(arr.shape, spec), spec,
                               tuple(arr.shape))


def idwt(coefficients: WaveletCoefficients) -> np.ndarray:
    """Reconstruct the signal; exact inverse of :func:`dwt`.

    The coefficient values must be finite.
    """
    check_kinds(WaveletCoefficients=coefficients)
    values = check_values(coefficients.values, "wavelet coefficients", ndim=None)
    return idwt_array(values, coefficients.spec, coefficients.shape)


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
    check_kinds(BesovWeightSpec=spec)
    labels = check_values(scale_labels, "scale labels", lower="nonnegative")
    w = np.power(2.0, spec.sigma * spec.p * labels)
    return WeightSequence(w=w)


class _ConjugatedOperator(LinearOperatorHandle):
    """A pixel-domain operator conjugated with the orthonormal transform.

    It acts on the flat wavelet coefficients: apply = K_pixel o
    synthesis, adjoint = analysis o K_pixel*, and normal = analysis o
    K_pixel.normal o synthesis. The transform is orthonormal, so the
    certified norm bound carries over unchanged. The ``scales``
    property aligns with the operator's domain, ready for
    :func:`besov_weights`. Build it with :func:`conjugated_operator`.
    """

    def __init__(self, base: LinearOperatorHandle, spec: WaveletSpec):
        check_kinds(LinearOperatorHandle=base)
        shape = _check_shape(base.domain_dims or (base.domain_len,), spec)
        self.base = base
        self.spec = spec
        self.shape = shape
        super().__init__(base.domain_len, base.image_len, base.norm_bound)

    @property
    def scales(self) -> np.ndarray:
        """Scale label of each coefficient, built on each access."""
        return _scale_labels(self.shape, self.spec)

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
                        wavelet_spec: WaveletSpec) -> LinearOperatorHandle:
    """K_pixel seen from the coefficients of ``wavelet_spec``'s transform."""
    return _ConjugatedOperator(K_pixel, wavelet_spec)
