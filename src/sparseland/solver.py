"""Thresholded Landweber iteration for the penalized objective.

One step from the current iterate f is

    f_next = S( f + K*(g - K f) )

where S is the componentwise shrinkage with effective weights mu * w.
Each step minimizes the decoupled surrogate anchored at f, so the
objective never increases as long as the certified norm bound < 1
actually holds; the solver treats an observed increase as a broken
contract and aborts. The iterates converge
to a minimizer of the objective, and a point is a minimizer exactly when
it is a fixed point of the step map.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    CoefficientVector,
    PenaltySpec,
    as_coefficients,
    check_count,
    penalty_sum,
)
from .errors import (
    AlignmentError,
    ContractViolationError,
    DescentViolationError,
    ParameterError,
)
from .operators import LinearOperatorHandle
from .shrinkage import shrink_asymmetric, shrink_complex, shrink_p

__all__ = [
    "SolverConfig",
    "SolveTrace",
    "SolveResult",
    "iterate_step",
    "solve",
    "fixed_point_residual",
]

# relative slack applied to the monotonicity check; anything beyond this
# is treated as a contract violation, not roundoff
_DESCENT_SLACK = 1e-12

STATUS_STEP = "converged_step"
STATUS_MAX = "max_iterations"


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rules and the optional projection.

    The run stops with status "converged_step" once a step's norm falls
    below step_tolerance * (||f0|| + 1), and with "max_iterations" after
    max_iterations steps otherwise; max_iterations is an integer >= 1.
    projection="nonnegative" clips every iterate at zero and needs real
    iterates.
    """

    max_iterations: int = 10000
    step_tolerance: float = 1e-8
    projection: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "max_iterations",
                           check_count(self.max_iterations, "max_iterations"))
        tol = float(self.step_tolerance)
        if not np.isfinite(tol) or tol < 0.0:
            raise ParameterError("step_tolerance must be finite and >= 0")
        object.__setattr__(self, "step_tolerance", tol)
        if self.projection not in (None, "nonnegative"):
            raise ParameterError("projection must be None or 'nonnegative'")


@dataclass
class SolveTrace:
    """Per-iteration diagnostics.

    objectives/discrepancies/penalties have length n_iterations + 1 and
    start at the initial point; step_norms, surrogates, and wall_times
    have length n_iterations. step_norms[k] is sqrt(<d, d>) for the step
    d = f_{k+1} - f_k (for complex iterates this may differ from
    np.linalg.norm(d) at roundoff). surrogates[k] is the surrogate value
    of iterate k+1 anchored at iterate k, so descent shows up as
    objectives[k+1] <= surrogates[k] <= objectives[k].
    """

    objectives: np.ndarray
    discrepancies: np.ndarray
    penalties: np.ndarray
    step_norms: np.ndarray
    surrogates: np.ndarray
    wall_times: np.ndarray

    def sum_squared_steps(self) -> float:
        return float(np.sum(self.step_norms**2))

    def __len__(self) -> int:
        return self.step_norms.size


@dataclass
class SolveResult:
    minimizer: CoefficientVector
    trace: SolveTrace
    status: str
    iterations: int
    fixed_point_residual: float


class _Step:
    """The step map f -> P(S(f + K*(g - K f))) of one problem.

    Built once per problem. It holds the effective shrinkage weights
    mu * w (a (plus, minus) pair for asymmetric weights) and the optional
    nonnegativity projection P. Calls take the residual g - K f, so a
    caller that already has it pays only the adjoint.
    """

    def __init__(self, K: LinearOperatorHandle, spec: PenaltySpec, config: SolverConfig):
        self.K = K
        self.p = spec.p
        self.nonnegative = config.projection == "nonnegative"
        if spec.asymmetric is not None:
            wp, wm = spec.asymmetric
            self.weights = (spec.mu * wp.w, spec.mu * wm.w)
        else:
            self.weights = spec.mu * spec.weights.w

    def __call__(self, f: np.ndarray, residual: np.ndarray) -> np.ndarray:
        h = f + self.K.adjoint(residual)
        # the dispatch calls shrink_* through this module's names, so a
        # wrapper installed on this module sees every shrink of a solve
        if isinstance(self.weights, tuple):
            out = shrink_asymmetric(h, *self.weights, self.p)
        elif h.dtype.kind == "c":
            out = shrink_complex(h, self.weights, self.p)
        else:
            out = shrink_p(h, self.weights, self.p)
        out = np.atleast_1d(np.asarray(out))
        if self.nonnegative:
            out = np.maximum(out, 0.0)
        return out


def _checked_step(f, g, K: LinearOperatorHandle, spec: PenaltySpec,
                  config: SolverConfig):
    """Validate one problem and take one step from f; return (f, step)."""
    fv = as_coefficients(f)
    gv = as_coefficients(g)
    dtype = np.result_type(fv.values.dtype, gv.values.dtype, np.dtype(K.domain_dtype))
    _validate_problem(gv.values, K, spec, config, dtype.kind == "c")
    step = _Step(K, spec, config)
    return fv, step(fv.values, gv.values - K.apply(fv.values))


def iterate_step(f, g, K: LinearOperatorHandle, spec: PenaltySpec,
                 config: Optional[SolverConfig] = None) -> CoefficientVector:
    """One shrinkage-thresholded Landweber step.

    Honors the config's nonnegativity projection. With a tiny mu the
    result approaches the plain Landweber step f + K*(g - K f).
    """
    fv, out = _checked_step(f, g, K, spec, config or SolverConfig())
    return CoefficientVector(values=out, dims=fv.dims)


def fixed_point_residual(f, g, K: LinearOperatorHandle, spec: PenaltySpec) -> float:
    """Distance ||f - S(f + K*(g - K f))||; zero exactly at minimizers.

    Validates the problem as iterate_step does.
    """
    fv, stepped = _checked_step(f, g, K, spec, SolverConfig())
    return float(np.linalg.norm(fv.values - stepped))


def _validate_problem(g: np.ndarray, K: LinearOperatorHandle, spec: PenaltySpec,
                      config: SolverConfig, complex_iterates: bool):
    if len(spec) != K.domain_len:
        raise AlignmentError(
            f"penalty spec length {len(spec)} does not match operator domain {K.domain_len}"
        )
    if g.size != K.image_len:
        raise AlignmentError(
            f"data length {g.size} does not match operator image {K.image_len}"
        )
    if not (K.norm_bound < 1.0):
        raise ContractViolationError(
            f"iteration requires a certified norm bound < 1 "
            f"(got {K.norm_bound}); renormalize the problem first"
        )
    if complex_iterates:
        if config.projection == "nonnegative":
            raise ParameterError("nonnegativity projection requires real iterates")
        if spec.asymmetric is not None:
            raise ParameterError("asymmetric weights require real iterates")


def solve(g, K: LinearOperatorHandle, spec: PenaltySpec,
          config: Optional[SolverConfig] = None, f0=None) -> SolveResult:
    """Run the iteration from f0 (default 0) until a stopping rule fires.

    Returns the final iterate, the full trace, the stopping status
    ("converged_step" or "max_iterations"), and the fixed-point residual
    ||f - T(f)|| of the returned point under the configured step map. That residual reuses the final g - K f the loop
    already holds, so it costs one adjoint and no extra apply.
    """
    config = config or SolverConfig()
    gv = as_coefficients(g)
    gvals = gv.values

    if f0 is not None:
        f0v = as_coefficients(f0)
        if len(f0v) != K.domain_len:
            raise AlignmentError("initial point length does not match operator domain")
        dims = f0v.dims or K.domain_dims
        start = f0v.values
    else:
        dims = K.domain_dims
        start = np.zeros(K.domain_len)

    dtype = np.result_type(start.dtype, gvals.dtype, np.dtype(K.domain_dtype))
    f = start.astype(dtype, copy=True)
    _validate_problem(gvals, K, spec, config, dtype.kind == "c")

    step = _Step(K, spec, config)
    step_threshold = config.step_tolerance * (float(np.linalg.norm(start)) + 1.0)

    Kf = K.apply(f)
    residual = gvals - Kf
    disc = float(np.real(np.vdot(residual, residual)))
    pen = penalty_sum(f, spec)
    obj = disc + pen
    objectives = [obj]
    discrepancies = [disc]
    penalties = [pen]
    step_norms = []
    surrogates = []
    wall_times = []

    status = STATUS_MAX
    for _ in range(config.max_iterations):
        t0 = time.perf_counter()
        f_new = step(f, residual)
        diff = f_new - f
        quad = float(np.real(np.vdot(diff, diff)))
        step_norm = math.sqrt(quad)

        Kf_new = K.apply(f_new)
        residual = gvals - Kf_new
        disc = float(np.real(np.vdot(residual, residual)))
        pen = penalty_sum(f_new, spec)
        obj_new = disc + pen
        kdiff = Kf_new - Kf
        surrogate = obj_new + quad - float(np.real(np.vdot(kdiff, kdiff)))

        wall_times.append(time.perf_counter() - t0)
        objectives.append(obj_new)
        discrepancies.append(disc)
        penalties.append(pen)
        step_norms.append(step_norm)
        surrogates.append(surrogate)

        if obj_new > obj + _DESCENT_SLACK * (1.0 + abs(obj)):
            raise DescentViolationError(
                f"objective increased from {obj!r} to {obj_new!r} at iteration "
                f"{len(step_norms)}; the certified norm bound "
                f"{K.norm_bound} is false"
            )

        f, Kf, obj = f_new, Kf_new, obj_new
        if step_norm <= step_threshold:
            status = STATUS_STEP
            break

    fp_residual = float(np.linalg.norm(f - step(f, residual)))
    trace = SolveTrace(
        objectives=np.asarray(objectives),
        discrepancies=np.asarray(discrepancies),
        penalties=np.asarray(penalties),
        step_norms=np.asarray(step_norms),
        surrogates=np.asarray(surrogates),
        wall_times=np.asarray(wall_times),
    )
    minimizer = CoefficientVector(values=f, dims=dims)
    return SolveResult(
        minimizer=minimizer,
        trace=trace,
        status=status,
        iterations=len(step_norms),
        fixed_point_residual=fp_residual,
    )
