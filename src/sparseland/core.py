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
import sys
import weakref
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from . import _EXPORTS
from .errors import AlignmentError, ContractViolationError, ParameterError

__all__ = list(_EXPORTS["core"])


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
    not cast, copied or checked for finiteness: the per-iteration inputs
    (shrinkage, operator products, the array transforms) and the grid
    writers take it as it is, and every other value array goes through
    :func:`check_values`. Input numpy cannot shape, such as a ragged
    list, raises ParameterError.
    """
    try:
        arr = np.asarray(values)
    except ValueError as exc:
        raise ParameterError(f"{name} must form an array: {exc}") from None
    if arr.dtype.kind not in ("iufc" if complex_ok else "iuf"):
        what = "numbers" if complex_ok else "real numbers"
        raise ParameterError(f"{name} must be {what}, got dtype {arr.dtype}")
    return arr


def check_values(values, name: str, ndim: Optional[int] = 1, lower: Optional[str] = None,
                 complex_ok: bool = False) -> np.ndarray:
    """values as a fresh read-only float64 array, or complex128 if complex.

    The dtype rule is :func:`check_array`'s. The array must be nonempty,
    have ``ndim`` axes (any number if None) and finite entries, and each
    entry must meet :func:`check_real`'s ``lower`` rule; anything else
    raises ParameterError. The copy is the caller's to keep: changing the
    input afterwards changes nothing that was built from it. An array
    this function returned, still read-only, is checked again but not
    copied, as no caller owns it; a caller's read-only array is copied,
    since its owner can make it writeable again.
    """
    arr = check_array(values, name, complex_ok)
    if _GATED.get(id(arr)) is not arr or arr.flags.writeable:
        arr = arr.astype(np.complex128 if arr.dtype.kind == "c" else np.float64)
    if arr.size == 0 or (ndim is not None and arr.ndim != ndim):
        axes = "" if ndim is None else f"{ndim}-d "
        raise ParameterError(f"{name} must form a nonempty {axes}array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ParameterError(f"{name} must be finite")
    if lower is not None:
        check_real(float(arr.min()), f"the least of the {name}", lower)
    arr.flags.writeable = False
    _GATED[id(arr)] = arr
    return arr


# the arrays check_values returned, by id, while they live; not copying them again
# keeps `wavelet` peak_rss_mb at 69.42 against 69.87 MB (10/10 pairs, BENCH_31.json)
_GATED = weakref.WeakValueDictionary()


def check_shape(shape, name: str, minimum: int = 1, axes=(2,)) -> Tuple[int, ...]:
    """Return shape as a tuple of ints >= minimum, or raise ParameterError unless it is
    a sequence of as many as ``axes`` allows: a pair by default, any number but 0 if None."""
    dims = tuple(shape) if np.iterable(shape) else ()
    if not dims or (axes is not None and len(dims) not in axes):
        size = "one or more" if axes is None else " or ".join(map(str, axes))
        raise ParameterError(f"{name} must be a sequence of {size} integers, got {shape!r}")
    return tuple(check_count(n, name, minimum) for n in dims)


def check_dims(dims, size: int, name: str = "dims", holder: str = "vector") -> Tuple[int, ...]:
    """Return dims as check_shape does, with any nonzero number of axes, or raise
    AlignmentError unless they imply size entries."""
    dims = check_shape(dims, name, axes=None)
    if math.prod(dims) != size:
        raise AlignmentError(f"{name} {dims} imply {math.prod(dims)} entries, "
                             f"{holder} has {size}")
    return dims


def check_kinds(**values):
    """Raise ParameterError unless each value is an instance of the public class its
    keyword names, as in ``check_kinds(LinearOperatorHandle=K, PenaltySpec=spec)``; the
    package loads the class's module on first use, so this module imports none."""
    package = sys.modules[__package__]
    for name, value in values.items():
        if not isinstance(value, getattr(package, name)):
            what = "".join(f" {c}" if c.isupper() else c for c in name).strip().lower()
            raise ParameterError(f"{what} must be a {name}, got {value!r}")


@dataclass(frozen=True)
class CoefficientVector:
    """Finite vector of (possibly complex) coefficients.

    Parameters
    ----------
    values : array_like
        Finite numeric entries, kept as a read-only flat float64 or
        complex128 copy. A scalar is one entry; input with more than one
        axis is flattened and its shape recorded in ``dims``.
    dims : tuple of int, optional
        Grid shape for image-valued vectors; the product must equal the
        number of entries.
    """

    values: np.ndarray
    dims: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        arr = check_values(self.values, "coefficient values", ndim=None, complex_ok=True)
        dims = self.dims
        if arr.ndim != 1:
            if dims is None and arr.ndim > 1:
                dims = arr.shape
            arr = arr.ravel()
        if dims is not None:
            dims = check_dims(dims, arr.size)
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
    return f if isinstance(f, CoefficientVector) else CoefficientVector(values=f)


# weights whose constant runs average this many entries are read run by run
_MIN_RUN = 8192


@dataclass(frozen=True)
class WeightSequence:
    """Strictly positive weights and their uniform lower bound.

    The lower bound ``c`` is ``min(w)``, derived and read-only. It is what
    turns the weighted penalty into a norm that controls the plain
    Euclidean norm. The weights' constant runs, ``((slice, value), ...)``,
    are found once, where all weights are one value or the runs average
    _MIN_RUN entries (None otherwise), as Besov weights in band order do
    (one value per scale). The penalty and the solver's shrink read them
    and make no temporaries for a weight array: the ``wavelet``
    benchmark's three runs average 21,845 entries, and its
    ``peak_rss_mb`` reads 69.47 MB with runs in the shrink against 70.95
    MB without (10 of 10 pairs, ``BENCH_31.json``). A run costs one
    shrink call (2-16 us), hence the minimum average length.
    """

    w: np.ndarray
    c: float = field(init=False)
    _runs: Optional[tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = check_values(self.w, "weights", lower="positive")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "c", float(w.min()))
        changes = w[1:] != w[:-1]
        count = np.count_nonzero(changes)
        runs = None
        if count == 0 or (count + 1) * _MIN_RUN <= w.size:
            bounds = [0, *(np.flatnonzero(changes) + 1).tolist(), w.size]
            runs = tuple((slice(start, stop), float(w[start]))
                         for start, stop in zip(bounds, bounds[1:]))
        object.__setattr__(self, "_runs", runs)

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
        object.__setattr__(self, "weights", _as_weights(self.weights))
        object.__setattr__(self, "mu", check_real(self.mu, "penalty multiplier mu",
                                                  lower="positive"))
        if self.asymmetric is not None:
            try:
                wp, wm = map(_as_weights, self.asymmetric)
            except (TypeError, ValueError):
                raise ParameterError(f"asymmetric weights must be a pair (w_plus, w_minus), "
                                     f"got {self.asymmetric!r}") from None
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


def _as_weights(w) -> WeightSequence:
    """A WeightSequence as it is, any other array_like through WeightSequence(w)."""
    return w if isinstance(w, WeightSequence) else WeightSequence(w)


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """Discrepancy, penalty, and their sum for one coefficient vector."""

    discrepancy: float
    penalty: float
    total: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "total", self.discrepancy + self.penalty)


# the consistency rules of a problem (f, g, K, spec), shared by the
# objective, the surrogate, renormalize and the solver's one start

def check_domain(n: int, spec: PenaltySpec, K=None):
    """Raise AlignmentError unless n coefficients, the weights and K's domain agree."""
    if n != len(spec) or (K is not None and K.domain_len != n):
        domain = "" if K is None else f", operator domain {K.domain_len}"
        raise AlignmentError(
            f"coefficient vector has {n} entries, weights have {len(spec)}{domain}"
        )


def check_image(n: int, K):
    """Raise AlignmentError unless n data entries fill K's image."""
    if n != K.image_len:
        raise AlignmentError(f"data length {n} does not match operator image {K.image_len}")


def check_asymmetric(spec: PenaltySpec, dtype):
    """Raise ParameterError if asymmetric weights would meet values of a complex dtype."""
    if spec.asymmetric is not None and np.dtype(dtype).kind == "c":
        raise ParameterError("asymmetric weights require real values")


def check_contraction(K):
    """Raise ContractViolationError unless K certifies a norm bound below 1."""
    if not (K.norm_bound < 1.0):
        raise ContractViolationError(
            f"the iteration and its surrogate require a certified norm bound < 1 "
            f"(got {K.norm_bound}); renormalize the problem first"
        )


def finite_product(K, method: str, x: np.ndarray) -> np.ndarray:
    """K.method(x) of a finite x, refusing a non-finite value K's norm bound rules out.

    While ``K.norm_bound * ||x||`` is finite (the bound squared for
    ``normal``), a correct K cannot overflow, so a non-finite value raises
    ContractViolationError naming the method. Otherwise the value is
    returned, for the caller's overflow rule to refuse.
    """
    y = getattr(K, method)(x)
    if not np.isfinite(y).all():
        with np.errstate(over="ignore"):
            bound = K.norm_bound * float(np.hypot.reduce(np.abs(x)))
        if math.isfinite(bound * K.norm_bound if method == "normal" else bound):
            bad = y[~np.isfinite(y)][0].item()
            raise ContractViolationError(
                f"K.{method} returned a non-finite value ({bad!r}) on a finite input")
    return y


def triple_norm(f, spec: PenaltySpec) -> float:
    """Weighted lp norm ( sum_gamma w_gamma |f_gamma|^p )^(1/p).

    Uses the symmetric weights and ignores the multiplier mu. For p < 2 it
    dominates the Euclidean norm: ||f|| <= c^(-1/p) * triple_norm(f). A
    sum that overflows raises ParameterError, as in :func:`penalty_value`.
    """
    check_kinds(PenaltySpec=spec)
    return penalty_value(f, PenaltySpec(spec.p, spec.weights)) ** (1.0 / spec.p)


def penalty_value(f, spec: PenaltySpec) -> float:
    """Penalty term mu * sum_gamma w_gamma |f_gamma|^p.

    With asymmetric weights the positive and negative parts are weighted
    separately: mu * sum_gamma ( w+_gamma [f]+^p + w-_gamma [f]-^p ).
    A penalty that overflows raises ParameterError.
    """
    check_kinds(PenaltySpec=spec)
    fv = as_coefficients(f)
    check_domain(len(fv), spec)
    check_asymmetric(spec, fv.values.dtype)
    with np.errstate(over="ignore"):
        pen = penalty_sum(fv.values, spec)
    if not math.isfinite(pen):
        raise overflow_error("penalty", pen, coefficient=fv.values)
    return pen


def overflow_error(what: str, value: float, **scales) -> ParameterError:
    """The ParameterError for a ``what`` that overflowed to ``value`` from finite inputs.

    Each keyword names an input and gives its values, whose largest
    modulus the message reports as that input's scale.
    """
    at = " and ".join(f"{name} scale {float(np.abs(v).max())!r}" for name, v in scales.items())
    return ParameterError(f"the {what} overflows ({value!r}) at the {at}; rescale the inputs")


def penalty_sum(values: np.ndarray, spec: PenaltySpec):
    """:func:`penalty_value` of a raw array, without validation.

    The caller guarantees float64 or complex128 values, a length matching
    ``spec`` and real values whenever the weights are asymmetric. A 1-d
    array gives a float; the rows of a 2-d array give an array of their
    penalties, each with the bits of that row's own call. Weight runs
    multiply their slices of the terms, with the bits of w * terms.
    """
    p = spec.p
    if spec.asymmetric is not None:
        wp, wm = spec.asymmetric
        pos = np.maximum(values, 0.0)
        neg = np.maximum(-values, 0.0)
        total = spec.mu * (np.add.reduce(wp.w * _powers(pos, p), axis=-1)
                           + np.add.reduce(wm.w * _powers(neg, p), axis=-1))
    else:
        # |x|**2.0 == x * x
        terms = (values * values if p == 2.0 and values.dtype.char == "d"
                 else _powers(np.abs(values), p))
        runs = spec.weights._runs
        if runs is None:
            np.multiply(spec.weights.w, terms, out=terms)
        else:
            for run, value in runs:
                if value != 1.0:  # 1.0 * x == x
                    np.multiply(terms[..., run], value, out=terms[..., run])
        # np.add.reduce is the pairwise sum np.sum runs, without its dispatch
        total = spec.mu * np.add.reduce(terms, axis=-1)
    return total if values.ndim > 1 else float(total)


def _powers(a: np.ndarray, p: float) -> np.ndarray:
    """a**p of a nonnegative float64 array that the caller owns, in its buffer.

    a**1.0 is a itself. At p = 3/2 a becomes a * sqrt(a), which is within
    one ulp of a**1.5 and takes half its time.
    """
    if p == 1.0:
        return a
    if p == 1.5:
        return np.multiply(a, np.sqrt(a), out=a)
    return np.power(a, p, out=a)


def objective(f, g, K, spec: PenaltySpec) -> ObjectiveBreakdown:
    """Evaluate Phi(f) = ||K f - g||^2 + penalty, split into its two terms.

    f, spec and K's domain must agree in length and g must fill K's
    image (AlignmentError); a term, or their sum, that overflows raises
    ParameterError. No norm bound is needed, but a non-finite K f that
    K's bound rules out raises ContractViolationError
    (:func:`finite_product`).
    """
    check_kinds(LinearOperatorHandle=K, PenaltySpec=spec)
    fv = as_coefficients(f)
    gv = as_coefficients(g)
    check_domain(len(fv), spec, K)
    check_image(len(gv), K)
    with np.errstate(over="ignore"):
        residual = finite_product(K, "apply", fv.values) - gv.values
        disc = float(np.real(np.vdot(residual, residual)))
    if not math.isfinite(disc):
        raise overflow_error("discrepancy", disc, data=gv.values, coefficient=fv.values)
    breakdown = ObjectiveBreakdown(discrepancy=disc, penalty=penalty_value(fv, spec))
    if not math.isfinite(breakdown.total):
        raise overflow_error("objective", breakdown.total, data=gv.values,
                             coefficient=fv.values)
    return breakdown


def surrogate_objective(f, a, g, K, spec: PenaltySpec) -> float:
    """Decoupled majorant Phi(f) + ||f - a||^2 - ||K (f - a)||^2.

    Requires a certified operator norm below 1, which makes the added
    quadratic nonnegative, so the value dominates Phi(f) and coincides with
    it at f = a. Minimizing over f for fixed anchor a is what one iteration
    step does. A value that overflows raises ParameterError, and a
    non-finite K product that K's bound rules out ContractViolationError.
    """
    check_kinds(LinearOperatorHandle=K, PenaltySpec=spec)
    check_contraction(K)
    fv = as_coefficients(f)
    av = as_coefficients(a)
    if len(fv) != len(av):
        raise AlignmentError("f and anchor a must have equal length")
    total = objective(fv, g, K, spec).total
    # a distant anchor overflows ||f - a||^2, and inf - inf is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        diff = fv.values - av.values
        kdiff = finite_product(K, "apply", diff)
        value = float(total + np.real(np.vdot(diff, diff)) - np.real(np.vdot(kdiff, kdiff)))
    if not math.isfinite(value):
        raise overflow_error("surrogate", value, anchor=av.values, coefficient=fv.values)
    return value
