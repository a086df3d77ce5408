"""Penalty-multiplier schedules and reconstruction error bounds.

With noisy data at level epsilon and a prior radius rho on the weighted
penalty norm of the truth, the multiplier schedule mu(eps) = eps^2 /
rho^p balances the two terms. The calculators here check the vanishing
conditions a schedule must satisfy, propagate (eps, rho) through one
minimization, and bound the worst-case reconstruction error (the modulus
of the constraint set) from a two-sided spectral envelope of the
operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple, Union

import numpy as np

from .core import WeightSequence, check_array, check_exponent, check_real
from .errors import AlignmentError, ParameterError

__all__ = [
    "NoisePrior",
    "SpectralEnvelope",
    "MuScheduleReport",
    "mu_schedule",
    "check_mu_requirements",
    "primed_radii",
    "modulus_bounds",
    "besov_modulus_rate",
]


@dataclass(frozen=True)
class NoisePrior:
    """Noise level epsilon >= 0 and penalty-norm radius rho > 0."""

    epsilon: float
    rho: float

    def __post_init__(self):
        object.__setattr__(self, "epsilon", check_real(self.epsilon, "noise level epsilon",
                                                       lower="nonnegative"))
        object.__setattr__(self, "rho", check_real(self.rho, "prior radius rho",
                                                   lower="positive"))


@dataclass(frozen=True)
class SpectralEnvelope:
    """Componentwise two-sided bounds b <= B on the operator's action.

    b_gamma |h_gamma|^2 <= ||K h||^2 <= B_gamma |h_gamma|^2 for
    one-component vectors h; equality b = B describes a diagonal
    operator with entries sqrt(b).
    """

    b: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        b = check_array(self.b, "envelope bound b").astype(np.float64)
        B = check_array(self.B, "envelope bound B").astype(np.float64)
        if b.ndim != 1 or b.size == 0 or b.shape != B.shape:
            raise AlignmentError("envelope bounds must be matching nonempty 1-d sequences")
        if not (np.all(np.isfinite(b)) and np.all(np.isfinite(B))):
            raise ParameterError("envelope bounds must be finite")
        if np.any(b <= 0.0) or np.any(B <= 0.0):
            raise ParameterError("envelope bounds must be strictly positive")
        if np.any(b > B * (1.0 + 1e-12)):
            raise ParameterError("lower envelope b must not exceed upper envelope B")
        b.flags.writeable = False
        B.flags.writeable = False
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "B", B)

    def __len__(self) -> int:
        return self.b.size


@dataclass(frozen=True)
class MuScheduleReport:
    """Outcome of the vanishing-conditions check for a schedule mu(eps)."""

    eps_grid: np.ndarray
    mu_values: np.ndarray
    ratio_values: np.ndarray
    mu_decreasing: bool
    ratio_decreasing: bool
    passed: bool
    notes: Tuple[str, ...] = field(default=())


def mu_schedule(noise: NoisePrior, p: float) -> float:
    """Balanced multiplier mu = epsilon^2 / rho^p; ParameterError if it is not a finite float."""
    p = check_exponent(p)
    try:
        mu = noise.epsilon**2 / noise.rho**p
    except (OverflowError, ZeroDivisionError):  # epsilon^2 overflows, rho^p underflows
        mu = math.inf
    return check_real(mu, "balanced multiplier mu = epsilon^2 / rho^p")


def check_mu_requirements(schedule: Union[Callable[[float], float], Sequence[float]],
                          eps_grid) -> MuScheduleReport:
    """Empirically check that mu(eps) -> 0 and eps^2/mu(eps) -> 0.

    Both sequences must strictly decrease across the (strictly
    decreasing, positive) epsilon grid. The balanced schedule
    mu = eps^2/rho^p keeps the second ratio constant, which fails the
    check and is flagged in the notes: convergence guarantees need mu to
    vanish slower than eps^2.
    """
    eps = check_array(eps_grid, "epsilon grid").astype(np.float64)
    if eps.ndim != 1 or eps.size < 2:
        raise ParameterError("epsilon grid needs at least two values")
    if np.any(eps <= 0.0) or not np.all(np.isfinite(eps)):
        raise ParameterError("epsilon grid must be positive and finite")
    if np.any(np.diff(eps) >= 0.0):
        raise ParameterError("epsilon grid must be strictly decreasing")

    if callable(schedule):
        schedule = [schedule(e) for e in eps]
    mu = check_array(schedule, "schedule values").astype(np.float64)
    if mu.shape != eps.shape:
        raise AlignmentError("schedule values must align with the epsilon grid")
    if np.any(mu <= 0.0) or not np.all(np.isfinite(mu)):
        raise ParameterError("schedule values must be positive and finite")

    ratio = eps**2 / mu

    def strictly_decreasing(seq: np.ndarray) -> bool:
        return bool(np.all(seq[1:] < seq[:-1] * (1.0 - 1e-12)))

    def roughly_constant(seq: np.ndarray) -> bool:
        return bool(seq.max() - seq.min() <= 1e-12 * seq.max())

    mu_dec = strictly_decreasing(mu)
    ratio_dec = strictly_decreasing(ratio)
    notes: List[str] = []
    if not mu_dec:
        notes.append("mu(eps) does not decrease toward 0 across the grid")
    if roughly_constant(ratio):
        notes.append(
            "eps^2/mu is constant (mu proportional to eps^2); it must vanish"
        )
    elif not ratio_dec:
        notes.append("eps^2/mu does not decrease toward 0 across the grid")
    return MuScheduleReport(
        eps_grid=eps,
        mu_values=mu,
        ratio_values=ratio,
        mu_decreasing=mu_dec,
        ratio_decreasing=ratio_dec,
        passed=mu_dec and ratio_dec,
        notes=tuple(notes),
    )


def primed_radii(noise: NoisePrior, mu: float, p: float) -> Tuple[float, float]:
    """Propagated pair (eps', rho') after one penalized minimization.

    eps' = sqrt(eps^2 + mu rho^p), rho' = (rho^p + eps^2/mu)^(1/p). At
    the balanced mu = eps^2/rho^p these are sqrt(2) eps and 2^(1/p) rho:
    the minimizer is again an (eps', rho')-admissible reconstruction, at
    radii only a constant factor worse. ParameterError if either radius
    is not a finite float.
    """
    p = check_exponent(p)
    mu = check_real(mu, "mu", lower="positive")
    try:
        eps_primed = float(np.sqrt(noise.epsilon**2 + mu * noise.rho**p))
        rho_primed = (noise.rho**p + noise.epsilon**2 / mu) ** (1.0 / p)
    except OverflowError:
        eps_primed = rho_primed = math.inf
    return check_real(eps_primed, "eps_primed"), check_real(rho_primed, "rho_primed")


def modulus_bounds(env: SpectralEnvelope, weights: WeightSequence, p: float,
                   noise: NoisePrior) -> Tuple[float, float]:
    """Two-sided bounds on the worst-case reconstruction error.

    The modulus is the largest ||h|| over vectors obeying both
    ||K h|| <= eps (via the spectral envelope) and triple_norm(h) <= rho.
    The lower bound is the best single-component admissible vector; the
    upper bound splits the index set into a data-controlled part and a
    penalty-controlled part and takes the best split among those induced
    by sorting the indices by their lower envelope b.
    """
    p = check_exponent(p)
    if len(env) != len(weights):
        raise AlignmentError("spectral envelope and weights must have equal length")
    eps, rho = noise.epsilon, noise.rho
    w = weights.w

    # split k = 0..n puts the k indices with the largest b in the
    # data-controlled part; an empty part contributes nothing to its term
    order = np.argsort(env.b, kind="stable")
    with np.errstate(over="ignore", divide="ignore"):
        # an overflowing term, or one over an underflowed weight, is inf
        # and loses the min
        lower = float(np.max(np.minimum(rho * w ** (-1.0 / p), eps / np.sqrt(env.B))))
        prefix_min_w = np.minimum.accumulate((w ** (2.0 / p))[order])
        term_data = np.float64(eps) ** 2 / env.b[order][::-1]
        term_prior = np.float64(rho) ** 2 / prefix_min_w[::-1]
    best = np.min(np.append(0.0, term_data) + np.append(term_prior, 0.0))
    upper = float(np.sqrt(best))
    return lower, upper


def besov_modulus_rate(alpha: float, sigma: float, A_lower: float, A_upper: float,
                       noise: NoisePrior) -> Tuple[float, float]:
    """Rate-only modulus bounds for dyadic smoothing envelopes.

    For an operator whose envelope decays like A^2 * 2^(-2 alpha |lambda|)
    with A in [A_lower, A_upper], and weights 2^(sigma p |lambda|), the
    modulus scales as eps^(sigma/(sigma+alpha)) * rho^(alpha/(sigma+alpha)).
    Returned with unit leading constants: the pair brackets the rate, not
    the constant.
    """
    alpha = check_real(alpha, "smoothing order alpha", lower="positive")
    sigma = check_real(sigma, "weight order sigma", lower="nonnegative")
    A_lower = check_real(A_lower, "A_lower", lower="positive")
    A_upper = check_real(A_upper, "A_upper")
    if A_upper < A_lower:
        raise ParameterError("envelope amplitudes must satisfy 0 < A_lower <= A_upper")
    theta = sigma / (sigma + alpha)
    lower = (noise.epsilon / A_upper) ** theta * noise.rho ** (1.0 - theta)
    upper = (noise.epsilon / A_lower) ** theta * noise.rho ** (1.0 - theta)
    return check_real(lower, "rate lower bound"), check_real(upper, "rate upper bound")
