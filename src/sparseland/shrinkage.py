"""Componentwise shrinkage operators.

For exponent p in [1, 2] and weight w > 0 the shrinkage S_{w,p} is the
inverse of the strictly increasing map

    F_{w,p}(y) = y + (w p / 2) * sign(y) * |y|^(p-1).

At p = 1 this is plain soft thresholding with dead zone [-w/2, w/2]; at
p = 2 it is the linear damping x / (1 + w); at p = 3/2 the equation is
a quadratic in sqrt(y) and is solved by its stable root. At every other
p the inverse is computed by a monotone Newton iteration on the
logarithm of the unknown. All variants are non-expansive, odd, and
move a point by at most (w p / 2) |x|^(p-1).
"""

from __future__ import annotations

import math

import numpy as np

from . import _EXPORTS
from .core import check_array, check_exponent
from .errors import AlignmentError, ContractViolationError, ParameterError

__all__ = list(_EXPORTS["shrinkage"])

# exponents within this distance of 1, 3/2 or 2 use the closed form
_P_SNAP = 1e-12
_MAX_ROOT_ITERATIONS = 400
# the Newton solve works at a quarter scale above this input
_QUARTER_ABOVE = 2.0**1022
_SMALLEST_DENORMAL = 2.0**-1074
# the p = 3/2 root drops its overflow guards while every sqrt(h^2 + t)
# is below this: the root's square then stays below 2^1022
_GUARD_ROOT_ABOVE = 2.0**511


def _real_array(x, name="input") -> np.ndarray:
    """x as float64; integer and float dtypes only."""
    return check_array(x, f"shrinkage {name}").astype(np.float64, copy=False)


def _check_weight(w, shape):
    """w as float64, finite, positive and broadcastable to the input's shape.

    A 0-d weight (a Python or numpy float included) comes back as one
    Python float, checked by a single comparison chain; an array weight
    is checked by one min and one max pass. NaN fails both checks.
    """
    if not isinstance(w, float):
        w = _real_array(w, "weight")
        if w.ndim:
            if w.shape != shape:
                try:
                    np.broadcast_to(w, shape)
                except ValueError:
                    raise AlignmentError(f"shrinkage weight of shape {w.shape} does not "
                                         f"broadcast to the input's shape {shape}") from None
            if w.size and not (w.min() > 0.0 and w.max() < np.inf):
                raise ParameterError("shrinkage weight w must be finite and strictly positive")
            return w
    w = float(w)
    if not 0.0 < w < math.inf:
        raise ParameterError("shrinkage weight w must be finite and strictly positive")
    return w


def soft_threshold(x, w):
    """Soft thresholding: shrink |x| by w/2, dead zone where |x| <= w/2; shrink_p at p = 1."""
    return shrink_p(x, w, 1.0)


def _soft(arr: np.ndarray, w):
    """Soft thresholding of a checked array by a checked weight.

    x - clip(x, -w/2, w/2) is x -+ w/2 outside the dead zone, exactly
    sign(x) (|x| - w/2), in two passes. Inside it writes x - x = +0.0,
    where sign(x) max(|x| - w/2, 0) writes -0.0 for negative x. The one
    -0.0 it writes is for x = -0.0 where w/2 rounds to zero (w = 5e-324)
    and the weight is an array, whose clip returns the bound +0.0.
    """
    t = 0.5 * w
    return arr - arr.clip(-t, t)


def _root_three_halves(t: np.ndarray, w) -> np.ndarray:
    """Solve y + (3w/4) sqrt(y) = t elementwise for y >= 0 (p = 3/2).

    In s = sqrt(y) this is s^2 + 2h s - t = 0 with h = 3w/8, whose
    nonnegative root s = t / (h + sqrt(h^2 + t)) has no cancellation.
    Returns y in a new array and leaves t unchanged. While every
    sqrt(h^2 + t) stays below 2^511, h^2 + t, the quotient and s^2 are
    all finite, and the root is formed in place in one buffer; s may
    then round an ulp above sqrt(t), which the caller's cap at t
    absorbs. Otherwise (t = inf, t near the float limit, or h^2 + t
    near or past overflow) the whole call takes the guarded form.
    """
    h = 0.375 * w
    y = np.empty_like(t)
    # one errstate for both forms: h^2 + t may overflow, t = inf gives
    # inf/inf, and t = 0 with h = 0 (w = 5e-324) gives 0/0
    with np.errstate(over="ignore", invalid="ignore"):
        root = np.sqrt(np.add(h * h, t, out=y), out=y)
        # fmax skips NaN, so a NaN elsewhere cannot hide a large root
        top = np.fmax.reduce(root, axis=None, initial=0.0)
        if top < _GUARD_ROOT_ABOVE:
            np.divide(t, np.add(root, h, out=y), out=y)
        else:
            r = np.sqrt(t)
            if top == math.inf:
                # h^2 + t overflowed for a huge weight (or t = inf): take
                # the same square root without forming h^2
                root = np.hypot(h, r)
            # s < sqrt(t) in exact arithmetic; the bound also sends t = inf,
            # where the quotient is inf/inf, to inf
            np.fmin(t / (h + root), r, out=y)
    return np.multiply(y, y, out=y)


def _invert_fp(t: np.ndarray, a: np.ndarray, p: float) -> np.ndarray:
    """Solve y + a*y**(p-1) = t elementwise for y >= 0.

    t >= 0, a > 0, 1 < p < 2. Works on u = log y, where
    G(u) = e^u + a e^((p-1)u) - t is convex and increasing, so Newton
    started on the G >= 0 side converges monotonically for every input,
    including p close to 1 where the root in y-space sits near the
    underflow threshold. Roots below the smallest denormal come back as
    exactly zero. One final Newton step in y refines e^u, whose accuracy
    is one ulp of u.

    G at the start can reach about 2t, which overflows for t near the
    float limit; components with t > 2^1022 are solved at t/4 with
    a 4^(p-2), whose root is a quarter of theirs.
    """
    t = np.asarray(t, dtype=np.float64)
    a = np.broadcast_to(np.asarray(a, dtype=np.float64), t.shape)
    big = t > _QUARTER_ABOVE
    quarter = big.any()
    if quarter:
        t = np.where(big, 0.25 * t, t)
        a = np.where(big, a * 4.0 ** (p - 2.0), a)
    active = t > 0.0
    # relative to t, down to the resolution of G itself: a fixed absolute
    # floor would stop small t before the first step, at the start, an
    # upper bound; but where e^((p-1)u) is subnormal, a e^((p-1)u) moves
    # in steps of a times the smallest denormal, and a relative tolerance
    # alone is never met
    tol = 1e-14 * t + (4.0 * _SMALLEST_DENORMAL) * (1.0 + a)
    # one errstate for the whole solve: the start, the Newton updates and
    # the final exponential all meet inf, zero and settled components
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # start at min(log t, log((t/a)^(1/(p-1)))): both are upper bounds
        # for the root, so G(u0) >= 0 and neither exponential can overflow;
        # t/a overflowing for a tiny weight gives log = inf, which loses
        # the min
        safe_t = np.where(active, t, 1.0)
        u = np.minimum(np.log(safe_t), np.log(safe_t / a) / (p - 1.0))
        u = np.where(active, u, -np.inf)
        for _ in range(_MAX_ROOT_ITERATIONS):
            if not np.any(active):
                break
            eu = np.exp(u)
            ev = a * np.exp((p - 1.0) * u)
            G = eu + ev - t
            Gp = eu + (p - 1.0) * ev
            step = G / Gp
            active &= np.abs(G) > tol
            # Gp underflowing to zero means the root is below the smallest
            # representable positive float; settle those components at zero
            dead = active & ((Gp == 0.0) | ~np.isfinite(step))
            u = np.where(dead, -np.inf, u)
            active &= ~dead
            # a settled component can give -inf - (-inf); it is inactive,
            # so the invalid value is discarded below
            u_next = u - step
            # a step within a few ulps of u means the residual is roundoff
            # of exp(u): for large |u| one ulp moves G by more than tol,
            # and Newton would cycle between adjacent floats
            active &= np.abs(u_next - u) > 4.0 * np.spacing(np.abs(u))
            u = np.where(active, u_next, u)
        else:
            if np.any(active):
                raise ContractViolationError("shrinkage root finder failed to converge")
        y = np.exp(u)
        # y is only as fine as one ulp of u, about 1e-13 relative for
        # large t; one Newton step in y itself takes it to roundoff. Zero
        # (v / y = nan) and infinite roots keep their value
        v = a * y ** (p - 1.0)
        y_next = y - ((y - t) + v) / (1.0 + (p - 1.0) * v / y)
        y = np.where((y_next > 0.0) & np.isfinite(y_next), y_next, y)
        if quarter:
            # 4 y may round past the float limit; shrink_p caps it at t
            y = np.where(big, 4.0 * y, y)
    return y


def shrink_p(x, w, p):
    """Generalized shrinkage S_{w,p}(x), the inverse of F_{w,p}.

    Closed forms at p = 1 (soft threshold), p = 3/2 (a quadratic root)
    and p = 2 (x / (1 + w)), each taken for p within _P_SNAP of it;
    elsewhere a monotone Newton solve. Scalars in, scalar out; w must
    broadcast to the shape of x. A uniform weight is best passed as one
    float: it is checked by one comparison instead of a pass over an
    array, and since it broadcasts to the same value in every element
    the output is bit-for-bit that of the equivalent weight array (but
    for the sign of zero at p = 1 and w = 5e-324, see ``_soft``).
    """
    p = check_exponent(p)
    arr = _real_array(x)
    w = _check_weight(w, arr.shape)
    if abs(p - 1.0) <= _P_SNAP:
        out = _soft(arr, w)
    elif abs(p - 2.0) <= _P_SNAP:
        out = arr / (1.0 + w)
    else:
        # t and y are this call's own arrays: the cap and the sign are
        # formed in them, and t is returned
        t = np.asarray(np.abs(arr))
        if abs(p - 1.5) <= _P_SNAP:
            y = _root_three_halves(t, w)
        else:
            y = _invert_fp(t, 0.5 * w * p, p)
        # S(t) <= t, but a root within rounding of t can land an ulp above
        # it; fmin also keeps t where the p = 3/2 root is 0/0 (t = 0, w = 5e-324)
        np.fmin(y, t, out=t)
        out = np.multiply(np.sign(arr, out=y), t, out=t)
    # a 0-d input's quotient or difference is a numpy scalar, which has ndim
    return out if out.ndim else float(out)


def shrink_complex(z, w, p):
    """Shrink the modulus, keep the phase: S(r e^{i theta}) = S(r) e^{i theta}.

    Where r overflows, S(r)/r is taken from r/4, since S_w(r) = 4 S_v(r/4)
    with v = w 4^(p-2), or, for r/4 = inf, as its limit: 1 for p < 2,
    1/(1 + w) at p = 2.
    """
    arr = check_array(z, "shrinkage input", complex_ok=True)
    if arr.dtype.kind != "c":
        return shrink_p(arr, w, p)
    moduli = np.abs(arr)
    shrunk = shrink_p(moduli, w, p)
    # numpy's 0-d complex product may flag overflow for a finite result
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        scale = np.where(moduli > 0.0, shrunk / np.where(moduli > 0.0, moduli, 1.0), 0.0)
        out = arr * scale
    big = np.isinf(moduli)
    if big.any():
        out, a = np.asarray(out), arr[big]
        w = np.broadcast_to(_check_weight(w, arr.shape), arr.shape)[big]
        r4 = np.hypot(0.25 * a.real, 0.25 * a.imag)
        with np.errstate(invalid="ignore"):
            s = shrink_p(r4, w * 4.0 ** (p - 2.0), p) / r4
        s = np.where(np.isinf(r4), 1.0 / (1.0 + w) if abs(p - 2.0) <= _P_SNAP else 1.0, s)
        # each part on its own: the complex product forms inf * 0
        out.real[big], out.imag[big] = a.real * s, a.imag * s
    return out if out.ndim else complex(out)


def shrink_asymmetric(x, w_plus, w_minus, p):
    """One-sided shrinkage with separate weights for each sign.

    Inverse of x + (p/2) * (w_plus * [x]_+^(p-1) - w_minus * [x]_-^(p-1));
    at p = 1 the dead zone becomes [-w_minus/2, w_plus/2]. Reduces to
    shrink_p when both weights agree.
    """
    arr = _real_array(x)
    w = np.where(arr >= 0.0, _check_weight(w_plus, arr.shape),
                 _check_weight(w_minus, arr.shape))
    return shrink_p(arr, w, p)
