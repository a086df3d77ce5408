"""Coefficient vectors, weight sequences, and the penalized objective.

The central object of the library is the functional

    Phi(f) = ||K f - g||^2 + mu * sum_gamma w_gamma |f_gamma|^p

over coefficient vectors f indexed by a finite set Gamma, with strictly
positive weights w, exponent p in [1, 2], and penalty multiplier mu > 0.
This module holds the value types and the objective calculators; the
iteration that minimizes Phi lives in :mod:`sparseland.solver`.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

import numpy as np

from .errors import AlignmentError, ContractViolationError, ParameterError

__all__ = [
    "CoefficientVector",
    "WeightSequence",
    "PenaltySpec",
    "ObjectiveBreakdown",
    "as_coefficients",
    "triple_norm",
    "penalty_value",
    "objective",
    "surrogate_objective",
]


def check_exponent(p) -> float:
    """Return p as a float, or raise ParameterError unless 1 <= p <= 2."""
    # an exact float skips the call (the shrink checks p on every iteration)
    if type(p) is not float:
        p = check_real(p, "exponent p")
    if not (1.0 <= p <= 2.0):
        raise ParameterError(f"exponent p must lie in [1, 2], got {p}")
    return p


def check_count(n, name: str, minimum: int = 1) -> int:
    """Return n as an int, or raise ParameterError unless it is an integer >= minimum.

    Floats and bools are rejected rather than truncated, so 2.5 never
    runs as 2 and True never runs as 1.
    """
    try:
        if isinstance(n, bool):
            raise TypeError
        n = operator.index(n)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {n!r}") from None
    if n < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {n}")
    return n


def check_real(x, name: str, lower: Optional[str] = None) -> float:
    """Return x as a float, or raise ParameterError unless it is a finite real number.

    Strings, bools and other non-numbers are rejected rather than
    converted, so '1e4' never runs as 1e4. ``lower="positive"`` also
    demands x > 0, ``lower="nonnegative"`` x >= 0.
    """
    # an exact float skips the slower ABC check
    if type(x) is not float:
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            raise ParameterError(f"{name} must be a real number, got {x!r}")
        try:
            x = float(x)
        except OverflowError:
            x = math.inf
    if lower is None:
        ok, need = math.isfinite(x), "finite"
    elif lower == "positive":
        ok, need = 0.0 < x < math.inf, "finite and strictly positive"
    elif lower == "nonnegative":
        ok, need = 0.0 <= x < math.inf, "finite and nonnegative"
    else:
        raise ValueError(f"unknown lower bound {lower!r}")
    if not ok:
        raise ParameterError(f"{name} must be {need}, got {x}")
    return x


def check_array(values, name: str, complex_ok: bool = False) -> np.ndarray:
    """values as an array of int, uint or float dtype, or complex if complex_ok.

    Bool, string and object arrays raise ParameterError. The array is
    not cast and not checked for finiteness: each caller keeps its own
    cast and its own rule for inf and NaN.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in ("iufc" if complex_ok else "iuf"):
        what = "numbers" if complex_ok else "real numbers"
        raise ParameterError(f"{name} must be {what}, got dtype {arr.dtype}")
    return arr


def check_shape(shape, name: str, minimum: int = 1) -> Tuple[int, int]:
    """Return a 2-d shape as two ints >= minimum, or raise ParameterError."""
    try:
        dims = tuple(shape)
    except TypeError:
        raise ParameterError(f"{name} must be a pair of integers, got {shape!r}") from None
    if len(dims) != 2:
        raise ParameterError(f"{name} must be a pair of integers, got {shape!r}")
    return check_count(dims[0], name, minimum), check_count(dims[1], name, minimum)


@dataclass(frozen=True)
class CoefficientVector:
    """Finite vector of (possibly complex) coefficients.

    Parameters
    ----------
    values : array_like
        Finite numeric entries. Multidimensional input is flattened and its
        shape recorded in ``dims``.
    dims : tuple of int, optional
        Grid shape for image-valued vectors; the product must equal the
        number of entries.
    """

    values: np.ndarray
    dims: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        arr = check_array(self.values, "coefficient values", complex_ok=True)
        if arr.dtype.kind in "iu":
            arr = arr.astype(np.float64)
        if arr.size == 0:
            raise ParameterError("coefficient vector must have at least one entry")
        if not np.all(np.isfinite(arr)):
            raise ParameterError("coefficient values must be finite")
        dims = self.dims
        if arr.ndim > 1:
            if dims is None:
                dims = arr.shape
            arr = arr.ravel()
        if dims is not None:
            dims = tuple(check_count(d, "dims") for d in dims)
            if int(np.prod(dims)) != arr.size:
                raise AlignmentError(
                    f"dims {dims} imply {int(np.prod(dims))} entries, vector has {arr.size}"
                )
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "dims", dims)

    def __len__(self) -> int:
        return self.values.size

    @property
    def is_complex(self) -> bool:
        return self.values.dtype.kind == "c"

    def as_grid(self) -> np.ndarray:
        if self.dims is None:
            raise ParameterError("coefficient vector carries no grid dims")
        return self.values.reshape(self.dims)


def as_coefficients(f) -> CoefficientVector:
    """Coerce an array_like or CoefficientVector into a CoefficientVector."""
    if isinstance(f, CoefficientVector):
        return f
    return CoefficientVector(values=np.asarray(f))


@dataclass(frozen=True)
class WeightSequence:
    """Strictly positive weights and their uniform lower bound.

    The lower bound ``c`` is ``min(w)``, derived and read-only. It is what
    turns the weighted penalty into a norm that controls the plain
    Euclidean norm. Whether every weight is 1.0 is recorded once, so the
    penalty of unit weights skips the multiply by ones.
    """

    w: np.ndarray
    c: float = field(init=False)
    _unit: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = check_array(self.w, "weights").astype(np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ParameterError("weights must form a nonempty 1-d sequence")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ParameterError("weights must be finite and strictly positive")
        w.flags.writeable = False
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "c", float(w.min()))
        object.__setattr__(self, "_unit", bool((w == 1.0).all()))

    @classmethod
    def uniform(cls, n: int) -> "WeightSequence":
        """n unit weights."""
        return cls(w=np.ones(check_count(n, "weight sequence length")))

    def __len__(self) -> int:
        return self.w.size


@dataclass(frozen=True)
class PenaltySpec:
    """Exponent, weights, and multiplier of the penalty term.

    ``asymmetric``, if given, is a pair (w_plus, w_minus) of weight
    sequences applied to the positive and negative parts separately; it
    replaces ``weights`` inside the penalty and the shrinkage but not in
    :func:`triple_norm`, which always uses the symmetric weights.
    """

    p: float
    weights: WeightSequence
    mu: float = 1.0
    asymmetric: Optional[Tuple[WeightSequence, WeightSequence]] = None

    def __post_init__(self):
        object.__setattr__(self, "p", check_exponent(self.p))
        object.__setattr__(self, "mu", check_real(self.mu, "penalty multiplier mu",
                                                  lower="positive"))
        if self.asymmetric is not None:
            wp, wm = (w if isinstance(w, WeightSequence) else WeightSequence(w)
                      for w in self.asymmetric)
            if len(wp) != len(wm) or len(wp) != len(self.weights):
                raise AlignmentError(
                    "asymmetric weight pair must match the symmetric weights in length"
                )
            object.__setattr__(self, "asymmetric", (wp, wm))

    @classmethod
    def uniform(cls, p: float, mu: float, n: int) -> "PenaltySpec":
        """Unit weights on n coefficients."""
        return cls(p=p, weights=WeightSequence.uniform(n), mu=mu)

    def __len__(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """Discrepancy, penalty, and their sum for one coefficient vector."""

    discrepancy: float
    penalty: float
    total: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "total", self.discrepancy + self.penalty)


def _check_alignment(n_values: int, spec: PenaltySpec):
    if n_values != len(spec):
        raise AlignmentError(
            f"coefficient vector has {n_values} entries, weights have {len(spec)}"
        )


def triple_norm(f, spec: PenaltySpec) -> float:
    """Weighted lp norm ( sum_gamma w_gamma |f_gamma|^p )^(1/p).

    Uses the symmetric weights and ignores the multiplier mu. For p < 2 it
    dominates the Euclidean norm: ||f|| <= c^(-1/p) * triple_norm(f).
    """
    fv = as_coefficients(f)
    _check_alignment(len(fv), spec)
    moduli = np.abs(fv.values)
    return float(np.sum(spec.weights.w * moduli**spec.p) ** (1.0 / spec.p))


def penalty_value(f, spec: PenaltySpec) -> float:
    """Penalty term mu * sum_gamma w_gamma |f_gamma|^p.

    With asymmetric weights the positive and negative parts are weighted
    separately: mu * sum_gamma ( w+_gamma [f]+^p + w-_gamma [f]-^p ).
    """
    fv = as_coefficients(f)
    _check_alignment(len(fv), spec)
    if spec.asymmetric is not None and fv.is_complex:
        raise ParameterError("asymmetric penalty is defined for real coefficients only")
    return penalty_sum(fv.values, spec)


def penalty_sum(values: np.ndarray, spec: PenaltySpec):
    """:func:`penalty_value` of a raw array, without validation.

    The caller guarantees a length matching ``spec`` and real values
    whenever the weights are asymmetric. A 1-d array gives a float; the
    rows of a 2-d array give an array of their penalties, each with the
    bits of that row's own call.
    """
    p = spec.p
    if spec.asymmetric is not None:
        wp, wm = spec.asymmetric
        pos = np.maximum(values, 0.0)
        neg = np.maximum(-values, 0.0)
        total = spec.mu * (np.add.reduce(wp.w * _powers(pos, p), axis=-1)
                           + np.add.reduce(wm.w * _powers(neg, p), axis=-1))
    else:
        char = values.dtype.char
        if char not in "dD":
            # narrower dtypes keep the power, and the float64 weights widen
            # them before the sum
            terms = spec.weights.w * np.abs(values) ** p
        else:
            # |x|**2.0 == x * x, and unit weights skip the multiply: 1.0 * x == x
            terms = values * values if p == 2.0 and char == "d" else _powers(np.abs(values), p)
            if not spec.weights._unit:
                np.multiply(spec.weights.w, terms, out=terms)
        # np.add.reduce is the pairwise sum np.sum runs, without its dispatch
        total = spec.mu * np.add.reduce(terms, axis=-1)
    return total if values.ndim > 1 else float(total)


def _powers(a: np.ndarray, p: float) -> np.ndarray:
    """a**p of a nonnegative array that the caller owns, in its buffer.

    a**1.0 is a itself. At p = 3/2 a float64 array becomes a * sqrt(a),
    which is within one ulp of a**1.5 and takes half its time.
    """
    if p == 1.0:
        return a
    if p == 1.5 and a.dtype.char == "d":
        return np.multiply(a, np.sqrt(a), out=a)
    return np.power(a, p, out=a)


def objective(f, g, K, spec: PenaltySpec) -> ObjectiveBreakdown:
    """Evaluate Phi(f) = ||K f - g||^2 + penalty, split into its two terms."""
    fv = as_coefficients(f)
    gv = as_coefficients(g)
    _check_alignment(len(fv), spec)
    residual = K.apply(fv.values) - gv.values
    disc = float(np.real(np.vdot(residual, residual)))
    pen = penalty_value(fv, spec)
    return ObjectiveBreakdown(discrepancy=disc, penalty=pen)


def surrogate_objective(f, a, g, K, spec: PenaltySpec) -> float:
    """Decoupled majorant Phi(f) + ||f - a||^2 - ||K (f - a)||^2.

    Requires a certified operator norm below 1, which makes the added
    quadratic nonnegative, so the value dominates Phi(f) and coincides with
    it at f = a. Minimizing over f for fixed anchor a is what one iteration
    step does.
    """
    if not (K.norm_bound < 1.0):
        raise ContractViolationError(
            f"surrogate requires a certified norm bound < 1, got {K.norm_bound}"
        )
    fv = as_coefficients(f)
    av = as_coefficients(a)
    if len(fv) != len(av):
        raise AlignmentError("f and anchor a must have equal length")
    diff = fv.values - av.values
    kdiff = K.apply(diff)
    total = objective(fv, g, K, spec).total
    return float(
        total + np.real(np.vdot(diff, diff)) - np.real(np.vdot(kdiff, kdiff))
    )
