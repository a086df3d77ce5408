"""Thresholded Landweber iteration for the penalized objective.

One step from the current iterate f is

    f_next = S( f + K*(g - K f) ) = S( f + b - A f )

where S is the componentwise shrinkage with effective weights mu * w,
A = K*K is the normal operator and b = K*g is fixed. Each step
minimizes the decoupled surrogate anchored at f, so the objective never
increases as long as the certified norm bound < 1 actually holds; the
solver treats an observed increase as a broken contract and aborts. The
iterates converge to a minimizer of the objective, and a point is a
minimizer exactly when it is a fixed point of the step map.

An iteration computes only the step, its squared norm and one
``K.normal`` product; :func:`solve` keeps the trace and the descent
check in blocks of iterations, with the bits per-iteration sums have.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _EXPORTS
from .core import (
    CoefficientVector,
    PenaltySpec,
    as_coefficients,
    check_asymmetric,
    check_contraction,
    check_count,
    check_domain,
    check_image,
    check_kinds,
    check_real,
    finite_product,
    overflow_error,
    penalty_sum,
)
from .errors import ContractViolationError, DescentViolationError, ParameterError
from .operators import LinearOperatorHandle
from .shrinkage import shrink_asymmetric, shrink_complex, shrink_p

__all__ = list(_EXPORTS["solver"])

# relative slack applied to the monotonicity check; anything beyond this
# is treated as a contract violation, not roundoff
_DESCENT_SLACK = 1e-12
# the running discrepancy may drift from the re-anchored one by this much
# relative to 1 + the starting objective; a wrong normal operator drifts further
_ANCHOR_SLACK = 1e-10

# the loop books the discrepancy, penalty, surrogate and descent check
# once per block of up to this many iterations, stacking at most this
# many entries per array (see solve): `small_dense` runs at 101.7k
# iterations/s against 32.7k with one-iteration blocks (BENCH_31.json)
_BLOCK_ITERATIONS = 64
_BLOCK_ENTRIES = 2**14

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
        object.__setattr__(self, "step_tolerance",
                           check_real(self.step_tolerance, "step_tolerance", lower="nonnegative"))
        if self.projection not in (None, "nonnegative"):
            raise ParameterError("projection must be None or 'nonnegative'")


@dataclass
class SolveTrace:
    """Per-iteration diagnostics.

    objectives/discrepancies/penalties have length n_iterations + 1 and
    start at the initial point; step_norms and surrogates have length
    n_iterations; two solves of one problem give the same bytes.
    step_norms[k] is the norm the step rule tests for the step d =
    f_{k+1} - f_k: sqrt(<d, d>), or the hypot of its entries where <d, d>
    is below 1e-280 and may have underflowed (for complex iterates this
    may differ from np.linalg.norm(d) at roundoff). surrogates[k] is the
    surrogate value of iterate k+1 anchored at iterate k, so descent
    shows up as objectives[k+1] <= surrogates[k] <= objectives[k]. The
    first and last discrepancies are evaluated exactly; those in between
    are the solver's running sum, exact up to roundoff relative to the
    first.
    """

    objectives: np.ndarray
    discrepancies: np.ndarray
    penalties: np.ndarray
    step_norms: np.ndarray
    surrogates: np.ndarray

    def __len__(self) -> int:
        return self.step_norms.size


@dataclass
class SolveResult:
    """What :func:`solve` returns.

    minimizer is the last iterate, with the grid dims of f0 or else of
    K's domain; trace holds its diagnostics (see :class:`SolveTrace`);
    status is "converged_step" when the step rule stopped the run and
    "max_iterations" when the cap did; iterations is the number of steps
    taken; fixed_point_residual is ||f - T(f)|| at the minimizer under
    the configured step map T.
    """

    minimizer: CoefficientVector
    trace: SolveTrace
    status: str
    iterations: int
    fixed_point_residual: float


class _Step:
    """The step map f -> P(S(f + b - A f)) of one problem, b = K*g, A = K*K.

    Built once per problem. It holds g, b, the effective shrinkage weights
    mu * w and the optional nonnegativity projection P. Symmetric weights
    with runs (see :class:`~sparseland.core.WeightSequence`) are the
    Python float mu * v of their one run, which the shrink checks by one
    comparison instead of a pass over an array (``small_dense``: 98.7k
    against 62.7k iterations/s, 9 of 10 pairs, ``BENCH_31.json``), or a
    list of (slice, mu * v) runs, each shrunk with its float. Other
    weights are the array mu * w, and asymmetric ones a (plus, minus)
    pair of arrays. A float gives the array's bits (but for the sign of
    zero at p = 1 and w = 5e-324, see ``shrinkage._soft``), and the shrink
    rejects one that overflows or underflows, as it rejects the array.
    Calls take A f, so a caller that already holds it pays no operator
    call, and return the stepped point with r = b - A f.
    """

    def __init__(self, K: LinearOperatorHandle, g: np.ndarray, spec: PenaltySpec,
                 config: SolverConfig):
        self.g = g
        self.b = finite_product(K, "adjoint", g)
        self.p = spec.p
        self.nonnegative = config.projection == "nonnegative"
        with np.errstate(over="ignore"):
            if spec.asymmetric is not None:
                self.weights = tuple(spec.mu * ws.w for ws in spec.asymmetric)
            elif spec.weights._runs is None:
                self.weights = spec.mu * spec.weights.w
            else:
                runs = [(run, spec.mu * value) for run, value in spec.weights._runs]
                self.weights = runs[0][1] if len(runs) == 1 else runs

    def __call__(self, f: np.ndarray, Af: np.ndarray):
        r = self.b - Af
        h = f + r
        # the dispatch calls shrink_* through this module's names, so a
        # wrapper installed on this module sees every shrink of a solve;
        # the shrink of a 1-d array is a 1-d array
        if isinstance(self.weights, tuple):
            out = shrink_asymmetric(h, *self.weights, self.p)
        else:
            shrink = shrink_complex if h.dtype.kind == "c" else shrink_p
            if isinstance(self.weights, list):
                # each run's shrink returns a new array, then overwrites its slice of h
                out = h
                for run, w in self.weights:
                    out[run] = shrink(h[run], w, self.p)
            else:
                out = shrink(h, self.weights, self.p)
        if self.nonnegative:
            out = np.maximum(out, 0.0)
        return out, r

    def distance(self, f: np.ndarray, Af: np.ndarray) -> float:
        """The fixed-point residual ||f - T(f)||."""
        return float(np.linalg.norm(f - self(f, Af)[0]))


def _block_dots(fs, afs, d, r, b):
    """A block's iterates as rows, and Re <d, A d> and Re <d, r> of each step.

    fs and afs hold the iterates and their A f from the one the block
    starts at; d and r = b - A f are its last step and residual. One step
    is np.vdot on the held arrays, with no stacking copy (``imaging``:
    571 against 460 iterations/s for the batched form at one row, 10 of
    10 pairs, ``BENCH_31.json``). More stack fs and afs once each, take
    the differences the loop would have taken, and run one batched
    matmul per dot, which calls the BLAS dot np.vdot calls on each row.
    """
    if len(fs) == 2:
        return (fs[1][None], np.vdot(d, afs[1] - afs[0]).real.reshape(1),
                np.vdot(d, r).real.reshape(1))
    F, AF = np.array(fs), np.array(afs)
    D = F[1:] - F[:-1]
    D = (D.conj() if D.dtype.kind == "c" else D)[:, None, :]
    return (F[1:], np.matmul(D, (AF[1:] - AF[:-1])[:, :, None])[:, 0, 0].real,
            np.matmul(D, (b - AF[:-1])[:, :, None])[:, 0, 0].real)


def _start(g, K: LinearOperatorHandle, spec: PenaltySpec, config: SolverConfig, f0=None):
    """Check one problem and set up its iteration from f0 (default 0).

    Returns (f, dims, step, Af, disc, pen, norm): the start as a fresh
    array of the iterates' dtype, the grid dims of the result, the step
    map, A f, and the start's discrepancy, penalty and norm. From the
    default zero start K f and A f are zero and cost no operator call;
    from an explicit one they cost one apply and one normal. A start
    whose norm or objective overflows raises ParameterError: its norm is
    taken before any operator runs (a finite ||f|| keeps K f and A f
    finite), and its objective before b = K*g (a finite ||g|| keeps b
    finite). So a non-finite K f, A f or b is the operator's fault, and
    raises ContractViolationError naming the method that returned it.
    """
    check_kinds(K, spec, config)
    g = as_coefficients(g).values
    if f0 is None:
        dims = K.domain_dims
        start = np.zeros(K.domain_len)
    else:
        f0v = as_coefficients(f0)
        dims = f0v.dims or K.domain_dims
        start = f0v.values
    check_domain(start.size, spec, K)
    check_image(g.size, K)
    check_contraction(K)
    dtype = np.result_type(start.dtype, g.dtype, np.dtype(K.domain_dtype))
    check_asymmetric(spec, dtype)
    if dtype.kind == "c" and config.projection == "nonnegative":
        raise ParameterError("nonnegativity projection requires real iterates")
    f = start.astype(dtype, copy=True)
    # a projected step need not descend from a start outside the cone
    if config.projection == "nonnegative" and (f < 0).any():
        raise ParameterError(f"the nonnegative projection needs a start f0 >= 0, "
                             f"got {float(f.min())!r}")
    # finite data and start can still overflow ||f||^2, ||g - K f||^2 or
    # the penalty; the descent bookkeeping means nothing from an infinite start
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(f))
    obj = math.inf
    if math.isfinite(norm):
        with np.errstate(over="ignore"):
            # K 0 = 0 = A 0: the residual is g, in the dtype g - K f would have
            residual = (g.astype(dtype, copy=False) if f0 is None
                        else g - finite_product(K, "apply", f))
            Af = np.zeros_like(f) if f0 is None else finite_product(K, "normal", f)
            disc = float(np.vdot(residual, residual).real)
            pen = penalty_sum(f, spec)
            obj = disc + pen
    if not math.isfinite(obj):
        raise overflow_error("start's norm or objective", obj, data=g, start=f)
    return f, dims, _Step(K, g, spec, config), Af, disc, pen, norm


def iterate_step(f, g, K: LinearOperatorHandle, spec: PenaltySpec,
                 config: Optional[SolverConfig] = None) -> CoefficientVector:
    """One shrinkage-thresholded Landweber step, the step :func:`solve` takes.

    Checks the problem and the start f as :func:`solve` checks them and
    f0, and honors the config's nonnegativity projection. With a tiny mu
    the result approaches the plain Landweber step f + K*(g - K f).
    """
    config = SolverConfig() if config is None else config
    f, dims, step, Af, *_ = _start(g, K, spec, config, as_coefficients(f))
    return CoefficientVector(values=step(f, Af)[0], dims=dims)


def fixed_point_residual(f, g, K: LinearOperatorHandle, spec: PenaltySpec) -> float:
    """Distance ||f - S(f + K*(g - K f))||; zero exactly at minimizers.

    Takes the step :func:`solve` takes and checks the problem and f as
    :func:`solve` checks them and f0.
    """
    f, _, step, Af, *_ = _start(g, K, spec, SolverConfig(), as_coefficients(f))
    return step.distance(f, Af)


def solve(g, K: LinearOperatorHandle, spec: PenaltySpec,
          config: Optional[SolverConfig] = None, f0=None) -> SolveResult:
    """Run the iteration from f0 (default 0) until a stopping rule fires.

    Returns the final iterate, the full trace, the stopping status
    ("converged_step" or "max_iterations"), and the fixed-point residual
    ||f - T(f)|| of the returned point under the configured step map.

    Each iteration calls ``K.normal`` once, on the new iterate; the start
    costs one adjoint (b = K*g), plus one apply and one normal from an
    explicit f0 (from the default zero start K f and A f are zero and
    cost nothing), and the end one apply. A finite start whose norm or
    objective overflows (data or f0 too large to square) raises
    ParameterError, as does an f0 with a negative entry under the
    nonnegative projection; a non-finite b, K f0 or A f0 raises
    ContractViolationError naming the method that returned it.

    With r = b - A f and the step d = f_new - f, the objective changes by

        Delta = <d, A d> - 2 Re<d, r> + pen_new - pen,  A d = A f_new - A f,

    which the descent check tests, and the surrogate is
    obj_new + ||d||^2 - <d, A d>. The discrepancy is a running sum of
    those changes from the exact start value. These terms are booked
    once per block of iterations, over the block's stacked iterates and
    normal products: the row dots are the BLAS dots np.vdot runs, the
    penalties are those of each row, and the running sum adds in order,
    so every trace entry has the bits of a per-iteration sum. A block
    closes when it is full, when the step rule stops the run, and at
    the iteration cap. The descent check tests every iteration but
    raises at the end of its block: DescentViolationError names the
    first increase, and ContractViolationError names K.normal when the
    non-finite value came from it. At the returned point one apply
    re-anchors the discrepancy: the last trace entry is the exact value,
    and a running sum that drifted from it by more than 1e-10 (1 + the
    starting objective) raises ContractViolationError, because only a
    normal operator that is not K*K drifts that far (an apply that is
    not finite there is named instead). The fixed-point
    residual reuses the held A f and costs no operator call. A booked
    step and its r are released before the next step is taken, so the
    loop holds one step's arrays at a time.
    """
    config = SolverConfig() if config is None else config
    f, dims, step, Af, disc, pen, norm = _start(g, K, spec, config, f0)
    step_threshold = config.step_tolerance * (norm + 1.0)
    discrepancies = [disc]
    penalties = [pen]
    step_norms = []
    surrogates = []

    status = STATUS_MAX
    block = max(1, min(_BLOCK_ITERATIONS, _BLOCK_ENTRIES // f.size))
    # the open block: its iterates and their A f from the one it starts
    # at, and its squared step norms
    fs, afs, quads = [f], [Af], []
    # a broken normal operator makes the iterates non-finite; the block
    # check, which NaN fails, reports it without numpy's warnings
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(1, config.max_iterations + 1):
            f_new, r = step(f, Af)
            d = f_new - f
            quad = float(np.vdot(d, d).real)
            f, Af = f_new, K.normal(f_new)
            fs.append(f)
            afs.append(Af)
            quads.append(quad)
            # <d, d> of a step below about 1e-140 may underflow, even to
            # zero; hypot sums the squares of such a step without it
            step_norms.append(math.sqrt(quad) if quad >= 1e-280
                              else float(np.hypot.reduce(np.abs(d))))
            converged = step_norms[-1] <= step_threshold
            if converged or len(quads) == block or k == config.max_iterations:
                F, dAd, dr = _block_dots(fs, afs, d, r, step.b)
                change = dAd - 2.0 * dr
                pens = penalty_sum(F, spec)
                # O[0] = disc + pen is the objective the block starts from
                P = np.concatenate(([pen], pens))
                delta = change + (P[1:] - P[:-1])
                discs = np.add.accumulate(np.concatenate(([disc], change)))
                O = discs + P
                before, objs = O[:-1], O[1:]
                # NaN fails the comparison, and so fails the check
                falls = delta <= _DESCENT_SLACK * (1.0 + np.abs(before))
                if not falls.all():
                    j = np.flatnonzero(~falls)[0]
                    at = k - len(quads) + j + 1
                    if not math.isfinite(dAd[j]):
                        raise ContractViolationError(
                            f"<d, K.normal(d)> is {float(dAd[j])!r} at iteration {at}; "
                            f"K.normal returned a non-finite value"
                        )
                    raise DescentViolationError(
                        f"objective increased by {float(delta[j])!r} from {float(before[j])!r} "
                        f"at iteration {at}; the certified norm bound {K.norm_bound} is false"
                    )
                surrogates.extend((objs + np.array(quads) - dAd).tolist())
                discrepancies.extend(discs[1:].tolist())
                penalties.extend(pens.tolist())
                disc, pen = discrepancies[-1], penalties[-1]
                # the booked step is released before the next is taken
                fs, afs, quads, d, r = [f], [Af], [], None, None
            if converged:
                status = STATUS_STEP
                break

    residual = step.g - K.apply(f)
    exact = float(np.vdot(residual, residual).real)
    if not (abs(disc - exact) <= _ANCHOR_SLACK * (1.0 + (discrepancies[0] + penalties[0]))):
        blame = ("K.normal is not K*K" if math.isfinite(exact)
                 else "K.apply returned a non-finite value")
        raise ContractViolationError(
            f"running discrepancy {disc!r} differs from the exact {exact!r} at the "
            f"returned point; {blame}"
        )
    discrepancies[-1] = exact
    discrepancies, penalties = np.asarray(discrepancies), np.asarray(penalties)
    trace = SolveTrace(
        objectives=discrepancies + penalties,
        discrepancies=discrepancies,
        penalties=penalties,
        step_norms=np.asarray(step_norms),
        surrogates=np.asarray(surrogates),
    )
    minimizer = CoefficientVector(values=f, dims=dims)
    return SolveResult(
        minimizer=minimizer,
        trace=trace,
        status=status,
        iterations=len(step_norms),
        fixed_point_residual=step.distance(f, Af),
    )
