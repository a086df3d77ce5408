"""Coefficient vectors, weight sequences, and the penalized objective.

The central object of the library is the functional

    Phi(f) = ||K f - g||^2 + mu * sum_gamma w_gamma |f_gamma|^p

over coefficient vectors f indexed by a finite set Gamma, with strictly
positive weights w, exponent p in [1, 2], and penalty multiplier mu > 0.
This module holds the value types and the objective calculators; the
iteration that minimizes Phi lives in :mod:`sparseland.solver`.
"""

from __future__ import annotations

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
    p = float(p)
    if not (1.0 <= p <= 2.0):
        raise ParameterError(f"exponent p must lie in [1, 2], got {p}")
    return p


def check_count(n, name: str) -> int:
    """Return n as an int, or raise ParameterError unless it is an integer >= 1.

    Floats are rejected rather than truncated, so 2.5 never runs as 2.
    """
    try:
        n = operator.index(n)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {n!r}") from None
    if n < 1:
        raise ParameterError(f"{name} must be >= 1, got {n}")
    return n


def _validated_values(values) -> np.ndarray:
    arr = np.asarray(values)
    if arr.dtype.kind in "iub":
        arr = arr.astype(np.float64)
    if arr.dtype.kind not in "fc":
        raise ParameterError(f"coefficient values must be numeric, got dtype {arr.dtype}")
    if arr.size == 0:
        raise ParameterError("coefficient vector must have at least one entry")
    if not np.all(np.isfinite(arr)):
        raise ParameterError("coefficient values must be finite")
    return arr


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
        arr = _validated_values(self.values)
        dims = self.dims
        if arr.ndim > 1:
            if dims is None:
                dims = arr.shape
            arr = arr.ravel()
        if dims is not None:
            dims = tuple(int(d) for d in dims)
            if int(np.prod(dims)) != arr.size:
                raise AlignmentError(
                    f"dims {dims} imply {int(np.prod(dims))} entries, vector has {arr.size}"
                )
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "dims", dims)

    @classmethod
    def from_grid(cls, grid) -> "CoefficientVector":
        grid = np.asarray(grid)
        return cls(values=grid.ravel(), dims=grid.shape)

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
    """Strictly positive weights with a certified uniform lower bound.

    The lower bound ``c`` is what turns the weighted penalty into a norm
    that controls the plain Euclidean norm; it defaults to ``min(w)``.
    """

    w: np.ndarray
    c: float = None  # type: ignore[assignment]

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ParameterError("weights must form a nonempty 1-d sequence")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ParameterError("weights must be finite and strictly positive")
        c = self.c
        if c is None:
            c = float(w.min())
        else:
            c = float(c)
            if not np.isfinite(c) or c <= 0.0:
                raise ParameterError("weight lower bound c must be positive")
            if c > w.min() * (1.0 + 1e-12):
                raise ParameterError(
                    f"claimed lower bound c={c} exceeds min weight {w.min()}"
                )
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "c", c)

    @classmethod
    def uniform(cls, n: int, value: float = 1.0) -> "WeightSequence":
        if n < 1:
            raise ParameterError("weight sequence length must be >= 1")
        return cls(w=np.full(int(n), float(value)))

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
        p = check_exponent(self.p)
        mu = float(self.mu)
        if not np.isfinite(mu) or mu <= 0.0:
            raise ParameterError(f"penalty multiplier mu must be positive, got {mu}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "mu", mu)
        if self.asymmetric is not None:
            wp, wm = self.asymmetric
            if not isinstance(wp, WeightSequence):
                wp = WeightSequence(np.asarray(wp))
            if not isinstance(wm, WeightSequence):
                wm = WeightSequence(np.asarray(wm))
            if len(wp) != len(wm) or len(wp) != len(self.weights):
                raise AlignmentError(
                    "asymmetric weight pair must match the symmetric weights in length"
                )
            object.__setattr__(self, "asymmetric", (wp, wm))

    @classmethod
    def uniform(cls, p: float, mu: float, n: int, weight: float = 1.0) -> "PenaltySpec":
        return cls(p=p, weights=WeightSequence.uniform(n, weight), mu=mu)

    def __len__(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """Discrepancy, penalty, and their sum for one coefficient vector."""

    discrepancy: float
    penalty: float
    total: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.total is None:
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


def penalty_sum(values: np.ndarray, spec: PenaltySpec) -> float:
    """:func:`penalty_value` of a raw array, without validation.

    The caller guarantees a length matching ``spec`` and real values
    whenever the weights are asymmetric.
    """
    if spec.asymmetric is not None:
        wp, wm = spec.asymmetric
        pos = np.maximum(values, 0.0)
        neg = np.maximum(-values, 0.0)
        return float(spec.mu * (np.sum(wp.w * pos**spec.p) + np.sum(wm.w * neg**spec.p)))
    return float(spec.mu * np.sum(spec.weights.w * np.abs(values) ** spec.p))


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
