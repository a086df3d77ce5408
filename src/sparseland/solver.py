"""Thresholded Landweber iteration for the penalized objective.

One step from the current iterate f is

    f_next = S( f + K*(g - K f) )

where S is the componentwise shrinkage with effective weights mu * w.
Each step minimizes the decoupled surrogate anchored at f, so the
objective never increases as long as the certified norm bound < 1 (or a
dominating diagonal preconditioner) actually holds; the solver treats an
observed increase as a broken contract and aborts. The iterates converge
to a minimizer of the objective, and a point is a minimizer exactly when
it is a fixed point of the step map.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    CoefficientVector,
    PenaltySpec,
    as_coefficients,
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
    "landweber_step",
    "iterate_step",
    "solve",
    "fixed_point_residual",
]

# relative slack applied to the monotonicity check; anything beyond this
# is treated as a contract violation, not roundoff
_DESCENT_SLACK = 1e-12

STATUS_STEP = "converged_step"
STATUS_OBJECTIVE = "converged_objective"
STATUS_MAX = "max_iterations"


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rules and step options.

    step_tolerance is relative: the iteration stops when the step norm
    falls below step_tolerance * (||f0|| + 1). objective_tolerance, when
    positive, stops the run once the per-iteration objective decrease
    drops below it. max_iterations always caps the run, so at least one
    stopping rule is active. With record_trace=False the returned trace
    keeps only the initial and final objective values (step norms,
    surrogates, and timings come back empty); descent is still checked
    every iteration either way.
    """

    max_iterations: int = 10000
    step_tolerance: float = 1e-8
    objective_tolerance: float = 0.0
    preconditioner: Optional[np.ndarray] = None
    projection: Optional[str] = None
    record_trace: bool = True

    def __post_init__(self):
        if int(self.max_iterations) < 1:
            raise ParameterError("max_iterations must be >= 1")
        object.__setattr__(self, "max_iterations", int(self.max_iterations))
        for name in ("step_tolerance", "objective_tolerance"):
            val = float(getattr(self, name))
            if not np.isfinite(val) or val < 0.0:
                raise ParameterError(f"{name} must be finite and >= 0")
            object.__setattr__(self, name, val)
        if self.projection not in (None, "nonnegative"):
            raise ParameterError("projection must be None or 'nonnegative'")
        if self.preconditioner is not None:
            d = np.asarray(self.preconditioner, dtype=np.float64)
            if d.ndim != 1 or d.size == 0:
                raise ParameterError("preconditioner must be a 1-d diagonal")
            if not np.all(np.isfinite(d)) or np.any(d <= 0.0):
                raise ParameterError("preconditioner entries must be positive and finite")
            object.__setattr__(self, "preconditioner", d)


@dataclass
class SolveTrace:
    """Per-iteration diagnostics.

    objectives/discrepancies/penalties have length n_iterations + 1 and
    start at the initial point; step_norms, surrogates, and wall_times
    have length n_iterations. surrogates[k] is the surrogate value of
    iterate k+1 anchored at iterate k, so descent shows up as
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
    """The step map f -> P(S(f + K*(g - K f) / d)) of one problem.

    Built once per problem. It holds the effective shrinkage weights
    scale * w, with scale = mu, or mu / d under a diagonal preconditioner
    d (a (plus, minus) pair for asymmetric weights), and the optional
    nonnegativity projection P. Calls take the residual g - K f, so a
    caller that already has it pays only the adjoint.
    """

    def __init__(self, K: LinearOperatorHandle, spec: PenaltySpec, config: SolverConfig):
        self.K = K
        self.p = spec.p
        self.d = d = config.preconditioner
        self.nonnegative = config.projection == "nonnegative"
        scale = spec.mu if d is None else spec.mu / d
        if spec.asymmetric is not None:
            wp, wm = spec.asymmetric
            self.weights = (scale * wp.w, scale * wm.w)
        else:
            self.weights = scale * spec.weights.w

    def __call__(self, f: np.ndarray, residual: np.ndarray) -> np.ndarray:
        update = self.K.adjoint(residual)
        h = f + update if self.d is None else f + update / self.d
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


def landweber_step(f, g, K: LinearOperatorHandle) -> CoefficientVector:
    """Plain gradient step f + K*(g - K f) for the discrepancy term."""
    fv = as_coefficients(f)
    gv = as_coefficients(g)
    out = fv.values + K.adjoint(gv.values - K.apply(fv.values))
    return CoefficientVector(values=out, dims=fv.dims)


def iterate_step(f, g, K: LinearOperatorHandle, spec: PenaltySpec,
                 config: Optional[SolverConfig] = None) -> CoefficientVector:
    """One shrinkage-thresholded Landweber step.

    Honors the config's preconditioner (componentwise division of both
    the update and the shrinkage weight by d) and nonnegativity
    projection. With a tiny mu the result approaches the plain
    landweber_step output.
    """
    config = config or SolverConfig()
    fv = as_coefficients(f)
    gv = as_coefficients(g)
    _validate_problem(gv.values, K, spec, config,
                      fv.values.dtype.kind == "c")
    step = _Step(K, spec, config)
    out = step(fv.values, gv.values - K.apply(fv.values))
    return CoefficientVector(values=out, dims=fv.dims)


def fixed_point_residual(f, g, K: LinearOperatorHandle, spec: PenaltySpec) -> float:
    """Distance ||f - S(f + K*(g - K f))||; zero exactly at minimizers."""
    fv = as_coefficients(f)
    gv = as_coefficients(g)
    step = _Step(K, spec, SolverConfig())
    stepped = step(fv.values, gv.values - K.apply(fv.values))
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
    d = config.preconditioner
    if d is None:
        if not (K.norm_bound < 1.0):
            raise ContractViolationError(
                f"iteration requires a certified norm bound < 1 "
                f"(got {K.norm_bound}); renormalize the problem first"
            )
    else:
        if d.size != K.domain_len:
            raise AlignmentError("preconditioner length does not match operator domain")
        if not (float(d.min()) > K.norm_bound**2):
            raise ContractViolationError(
                "preconditioner must dominate the normal operator: "
                f"min(d)={d.min()} <= norm_bound^2={K.norm_bound**2}"
            )
    if config.projection == "nonnegative" and complex_iterates:
        raise ParameterError("nonnegativity projection requires real iterates")


def solve(g, K: LinearOperatorHandle, spec: PenaltySpec,
          config: Optional[SolverConfig] = None, f0=None) -> SolveResult:
    """Run the iteration from f0 (default 0) until a stopping rule fires.

    Returns the final iterate, the full trace, the stopping status
    ("converged_step", "converged_objective", or "max_iterations"), and
    the fixed-point residual ||f - T(f)|| of the returned point under the
    configured step map. That residual reuses the final g - K f the loop
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

    d = config.preconditioner
    step = _Step(K, spec, config)
    step_threshold = config.step_tolerance * (float(np.linalg.norm(start)) + 1.0)

    objectives = []
    discrepancies = []
    penalties = []
    step_norms = []
    surrogates = []
    wall_times = []

    Kf = K.apply(f)
    residual = gvals - Kf
    disc = float(np.real(np.vdot(residual, residual)))
    pen = penalty_sum(f, spec)
    obj = disc + pen
    objectives.append(obj)
    discrepancies.append(disc)
    penalties.append(pen)

    status = STATUS_MAX
    iterations_run = 0
    for _ in range(config.max_iterations):
        t0 = time.perf_counter()
        f_new = step(f, residual)
        diff = f_new - f
        step_norm = float(np.linalg.norm(diff))

        Kf_new = K.apply(f_new)
        residual = gvals - Kf_new
        disc = float(np.real(np.vdot(residual, residual)))
        pen = penalty_sum(f_new, spec)
        obj_new = disc + pen

        kdiff = Kf_new - Kf
        if d is None:
            quad = float(np.real(np.vdot(diff, diff)))
        else:
            quad = float(np.real(np.vdot(diff, d * diff)))
        surrogate = obj_new + quad - float(np.real(np.vdot(kdiff, kdiff)))

        iterations_run += 1
        if config.record_trace:
            wall_times.append(time.perf_counter() - t0)
            objectives.append(obj_new)
            discrepancies.append(disc)
            penalties.append(pen)
            step_norms.append(step_norm)
            surrogates.append(surrogate)

        if obj_new > obj + _DESCENT_SLACK * (1.0 + abs(obj)):
            raise DescentViolationError(
                f"objective increased from {obj!r} to {obj_new!r} at iteration "
                f"{iterations_run}; the certified norm bound "
                f"{K.norm_bound} (or the preconditioner domination) is false"
            )

        decrease = obj - obj_new
        f, Kf, obj = f_new, Kf_new, obj_new

        if step_norm <= step_threshold:
            status = STATUS_STEP
            break
        if config.objective_tolerance > 0.0 and decrease <= config.objective_tolerance:
            status = STATUS_OBJECTIVE
            break

    fp_residual = float(np.linalg.norm(f - step(f, residual)))

    if not config.record_trace and iterations_run > 0:
        objectives.append(obj)
        discrepancies.append(disc)
        penalties.append(pen)
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
        iterations=iterations_run,
        fixed_point_residual=fp_residual,
    )
