"""Componentwise shrinkage operators.

For exponent p in [1, 2] and weight w > 0 the shrinkage S_{w,p} is the
inverse of the strictly increasing map

    F_{w,p}(y) = y + (w p / 2) * sign(y) * |y|^(p-1).

At p = 1 this is plain soft thresholding with dead zone [-w/2, w/2]; at
p = 2 it is the linear damping x / (1 + w). In between no closed form
exists and the inverse is computed by a monotone Newton iteration on
the logarithm of the unknown. All variants are non-expansive, odd, and
move a point by at most (w p / 2) |x|^(p-1).
"""

from __future__ import annotations

import numpy as np

from .core import check_exponent
from .errors import ContractViolationError, ParameterError

__all__ = [
    "soft_threshold",
    "shrink_p",
    "shrink_complex",
    "shrink_asymmetric",
]

# exponents within this distance of an endpoint use the closed form
_P_SNAP = 1e-12
_MAX_ROOT_ITERATIONS = 400


def _check_weight(w) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        raise ParameterError("shrinkage weight w must be finite and strictly positive")
    return w


def _real_array(x) -> np.ndarray:
    arr = np.asarray(x)
    if arr.dtype.kind == "c":
        raise ParameterError("complex input: use shrink_complex")
    return arr.astype(np.float64, copy=False)


def soft_threshold(x, w):
    """Soft thresholding: shrink |x| by w/2, dead zone where |x| < w/2."""
    arr = _real_array(x)
    w = _check_weight(w)
    out = np.sign(arr) * np.maximum(np.abs(arr) - 0.5 * w, 0.0)
    return out if isinstance(out, np.ndarray) and out.ndim else float(out)


def _invert_fp(t: np.ndarray, a: np.ndarray, p: float) -> np.ndarray:
    """Solve y + a*y**(p-1) = t elementwise for y >= 0.

    t >= 0, a > 0, 1 < p < 2. Works on u = log y, where
    G(u) = e^u + a e^((p-1)u) - t is convex and increasing, so Newton
    started on the G >= 0 side converges monotonically for every input,
    including p close to 1 where the root in y-space sits near the
    underflow threshold. Roots below the smallest denormal come back as
    exactly zero.
    """
    t = np.asarray(t, dtype=np.float64)
    a = np.broadcast_to(np.asarray(a, dtype=np.float64), t.shape)
    active = t > 0.0
    tol = 1e-14 * (1.0 + t)
    # start at min(log t, log((t/a)^(1/(p-1)))): both are upper bounds for
    # the root, so G(u0) >= 0 and neither exponential can overflow
    with np.errstate(divide="ignore", invalid="ignore"):
        safe_t = np.where(active, t, 1.0)
        u = np.minimum(np.log(safe_t), np.log(safe_t / a) / (p - 1.0))
    u = np.where(active, u, -np.inf)
    for _ in range(_MAX_ROOT_ITERATIONS):
        if not np.any(active):
            break
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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
        # a step below the resolution of u means the residual is pure
        # roundoff of exp(u); nothing more can be gained
        active &= u_next != u
        u = np.where(active, u_next, u)
    else:
        if np.any(active):
            raise ContractViolationError("shrinkage root finder failed to converge")
    with np.errstate(over="ignore"):
        return np.exp(u)


def shrink_p(x, w, p):
    """Generalized shrinkage S_{w,p}(x), the inverse of F_{w,p}.

    Closed forms at p = 1 (soft threshold) and p = 2 (x / (1 + w));
    elsewhere a monotone Newton solve. Scalars in, scalar out; arrays
    broadcast against w.
    """
    p = check_exponent(p)
    if abs(p - 1.0) <= _P_SNAP:
        return soft_threshold(x, w)
    arr = _real_array(x)
    w = _check_weight(w)
    if abs(p - 2.0) <= _P_SNAP:
        out = arr / (1.0 + w)
        return out if isinstance(out, np.ndarray) and out.ndim else float(out)
    t = np.abs(arr)
    y = _invert_fp(t, 0.5 * w * p, p)
    out = np.sign(arr) * y
    return out if out.ndim else float(out)


def shrink_complex(z, w, p):
    """Shrink the modulus, keep the phase: S(r e^{i theta}) = S(r) e^{i theta}."""
    arr = np.asarray(z)
    if arr.dtype.kind != "c":
        return shrink_p(arr, w, p)
    moduli = np.abs(arr)
    shrunk = shrink_p(moduli, w, p)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(moduli > 0.0, shrunk / np.where(moduli > 0.0, moduli, 1.0), 0.0)
    out = arr * scale
    return out if out.ndim else complex(out)


def shrink_asymmetric(x, w_plus, w_minus, p):
    """One-sided shrinkage with separate weights for each sign.

    Inverse of x + (p/2) * (w_plus * [x]_+^(p-1) - w_minus * [x]_-^(p-1));
    at p = 1 the dead zone becomes [-w_minus/2, w_plus/2]. Reduces to
    shrink_p when both weights agree.
    """
    arr = _real_array(x)
    w = np.where(arr >= 0.0, _check_weight(w_plus), _check_weight(w_minus))
    return shrink_p(arr, w, p)
