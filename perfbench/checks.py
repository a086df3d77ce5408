"""Output checks that do not trust the code under test.

Every check here is written with plain numpy from the definitions in the
README and the source paper, never by calling sparseland. Each returns a
list of failure messages; an empty list means the output passed.
Each workload also builds corrupted answers from its own outputs and
requires every check to reject them (the negative self-test).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

GRID_MAGIC = b"SLWFGRID"

# Dense solves that stopped on their step tolerance (1e-9): p = 2 must
# match the normal equations to criterion 1's relative 1e-6 (the worst of
# 3,210 sampled solves was 4.2e-7), and p = 1 and 1.5 must meet the
# optimality conditions to 1e-5 * mu (the worst seen was 7.8e-8 * mu).
NORMAL_EQUATIONS_RTOL = 1e-6
SUBGRADIENT_RTOL = 1e-5
# a reported objective must equal a plain numpy evaluation to this
OBJECTIVE_RTOL = 1e-10
# relative slack on "objective never increases", as in the solver
DESCENT_SLACK = 1e-12
# the close pair only resolves into two peaks after this many iterations
TWO_PEAK_MIN_ITERATIONS = 400


# ---------------------------------------------------------------- file formats

def write_grid(path, array):
    """SLWFGRID writer: magic, two little-endian uint32 dims, f8 payload."""
    array = np.asarray(array, dtype="<f8")
    rows, cols = array.shape
    Path(path).write_bytes(
        GRID_MAGIC + np.array([rows, cols], dtype="<u4").tobytes() + array.tobytes()
    )


def read_grid(path):
    data = Path(path).read_bytes()
    if data[:8] != GRID_MAGIC:
        raise ValueError(f"{path}: not a SLWFGRID file")
    rows, cols = (int(v) for v in np.frombuffer(data, dtype="<u4", count=2, offset=8))
    return np.frombuffer(data, dtype="<f8", count=rows * cols, offset=16).reshape(rows, cols)


def read_trace(path):
    """CSV columns (traces, profiles) as float arrays, '#' lines skipped."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    header, body = rows[0], np.array(rows[1:], dtype=np.float64)
    return {name: body[:, i] for i, name in enumerate(header)}


# ------------------------------------------------------------- reference maps

def lowpass_response(pad, radius_fraction, peak=0.999):
    """Autocorrelation of a frequency disk, peak-normalized (README model)."""
    fy = np.fft.fftfreq(pad[0])[:, None]
    fx = np.fft.fftfreq(pad[1])[None, :]
    disk = (fy**2 + fx**2 <= (0.5 * radius_fraction) ** 2).astype(np.float64)
    autocorr = np.fft.ifft2(np.abs(np.fft.fft2(disk)) ** 2).real
    return peak * autocorr / autocorr.max()


def convolve(image, pad, response):
    """Zero-pad, filter with full complex FFTs, crop."""
    rows, cols = image.shape
    padded = np.zeros(pad)
    padded[:rows, :cols] = image
    return np.fft.ifft2(np.fft.fft2(padded) * response).real[:rows, :cols]


def _db2_analysis_matrices(n):
    """Periodized db2 analysis rows: out[k] = sum_j h[j] x[(2k + j) mod n]."""
    s3 = np.sqrt(3.0)
    h = np.array([1.0 + s3, 3.0 + s3, 3.0 - s3, 1.0 - s3]) / (4.0 * np.sqrt(2.0))
    g = h[::-1] * np.array([1.0, -1.0, 1.0, -1.0])
    H = np.zeros((n // 2, n))
    G = np.zeros((n // 2, n))
    for k in range(n // 2):
        for j in range(h.size):
            H[k, (2 * k + j) % n] += h[j]
            G[k, (2 * k + j) % n] += g[j]
    return H, G


def db2_synthesis(values, shape, levels):
    """Inverse 2-d periodized db2 transform from flat coarse-to-fine bands.

    Band layout: the coarse block, then per level from coarse to fine the
    three detail blocks G x H^T, H x G^T, G x G^T, each row-major.
    """
    rows, cols = shape[0] >> levels, shape[1] >> levels
    pos = rows * cols
    a = values[:pos].reshape(rows, cols)
    for level in range(levels, 0, -1):
        rows, cols = shape[0] >> level, shape[1] >> level
        size = rows * cols
        lh, hl, hh = (values[pos + i * size: pos + (i + 1) * size].reshape(rows, cols)
                      for i in range(3))
        pos += 3 * size
        Hr, Gr = _db2_analysis_matrices(2 * rows)
        Hc, Gc = _db2_analysis_matrices(2 * cols)
        a = Hr.T @ a @ Hc + Gr.T @ lh @ Hc + Hr.T @ hl @ Gc + Gr.T @ hh @ Gc
    return a


# --------------------------------------------------------------------- checks

def check_trace_monotone(objectives, label):
    obj = np.asarray(objectives, dtype=np.float64)
    rise = obj[1:] - obj[:-1] - DESCENT_SLACK * (1.0 + np.abs(obj[:-1]))
    bad = np.flatnonzero(rise > 0.0)
    if bad.size:
        return [f"{label}: objective increases at iteration {int(bad[0]) + 1}"]
    return []


def check_normal_equations(A, g, mu, f):
    """p = 2: the minimizer solves (A^T A + mu I) f = A^T g."""
    direct = np.linalg.solve(A.T @ A + mu * np.eye(A.shape[1]), A.T @ g)
    rel = np.linalg.norm(f - direct) / np.linalg.norm(direct)
    if not rel <= NORMAL_EQUATIONS_RTOL:
        return [f"p=2 mu={mu:g}: relative error {rel:.2e} > {NORMAL_EQUATIONS_RTOL:.0e}"]
    return []


def check_subgradient(A, g, mu, p, f):
    """A^T(g - A f) lies in (mu/2) times the subdifferential of sum |f|^p.

    At p = 1 that is (mu/2) sign(f) on the support and [-mu/2, mu/2] off
    it; for p > 1 it is (mu p / 2) sign(f) |f|^(p - 1).
    """
    r = A.T @ (g - A @ f)
    tol = SUBGRADIENT_RTOL * mu
    if p == 1.0:
        on = f != 0.0
        defect = np.concatenate([np.abs(r[on] - 0.5 * mu * np.sign(f[on])),
                                 np.maximum(np.abs(r[~on]) - 0.5 * mu, 0.0)])
    else:
        defect = np.abs(r - 0.5 * mu * p * np.sign(f) * np.abs(f) ** (p - 1.0))
    worst = float(defect.max())
    if not worst <= tol:
        return [f"p={p:g} mu={mu:g}: optimality defect {worst:.2e} > {tol:.1e}"]
    return []


def count_peaks(profile, window, rel_height=0.5):
    """Strict local maxima above rel_height times the window maximum."""
    seg = np.asarray(profile, dtype=np.float64)[window[0]:window[1]]
    inner = seg[1:-1]
    peaks = (inner > seg[:-2]) & (inner > seg[2:]) & (inner >= rel_height * seg.max())
    return int(np.count_nonzero(peaks))


def check_two_peaks(profile, window, label):
    n = count_peaks(profile, window)
    if n != 2:
        return [f"{label}: {n} peak(s) across the close pair, expected 2"]
    return []


def check_discrepancy(recon, data, pad, response, reported, label, rtol=1e-8):
    """Reported ||K f - g||^2 equals the reference convolution's value."""
    residual = convolve(recon, pad, response) - data
    value = float(np.sum(residual**2))
    if not abs(value - reported) <= rtol * max(abs(value), 1e-300):
        return [f"{label}: discrepancy {reported!r} differs from reference {value!r}"]
    return []


def check_fixed_point(recon, data, pad, response, p, mu, project, reported, label,
                      rtol=1e-6):
    """Reported ||f - T f|| equals one reference step T f = S(f + K*(g - K f)).

    The response is real and even, so K* = K; S is soft thresholding at
    p = 1 and division by 1 + mu at p = 2, then clipping at 0 if projected.
    """
    h = recon + convolve(data - convolve(recon, pad, response), pad, response)
    if p == 1.0:
        step = np.sign(h) * np.maximum(np.abs(h) - 0.5 * mu, 0.0)
    else:
        step = h / (1.0 + mu)
    if project:
        step = np.maximum(step, 0.0)
    value = float(np.linalg.norm(recon - step))
    if not abs(value - reported) <= rtol * value:
        return [f"{label}: fixed-point residual {reported!r} differs from reference "
                f"{value!r}"]
    return []


def check_experiment_dir(out, cases, iterations, pad, radius_fraction, pair_window):
    """Files of one run_experiment call, as failure messages per case.

    A manifest that does not list exactly the written files fails every
    case.
    """
    out = Path(out)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    listed = sorted(manifest["files"])
    present = sorted(p.name for p in out.iterdir())
    shared = [] if listed == present else [
        f"manifest lists {listed}, directory holds {present}"]
    data = read_grid(out / "data.grid")
    response = lowpass_response(pad, radius_fraction)
    fails = {}
    for name, p, mu, project in cases:
        recon = read_grid(out / f"recon_{name}.grid")
        trace = read_trace(out / f"trace_{name}.csv")
        msgs = shared + check_case(name, p, project, recon, trace, iterations)
        msgs += check_discrepancy(recon, data, pad, response,
                                  trace["discrepancy"][-1], name)
        msgs += check_fixed_point(recon, data, pad, response, p, mu, project,
                                  manifest["cases"][name]["fixed_point_residual"], name)
        if name == "l1" and iterations >= TWO_PEAK_MIN_ITERATIONS:
            profile = read_trace(out / "profile_horizontal.csv")
            msgs += check_two_peaks(profile[name], pair_window, name)
        fails[name] = msgs
    return fails


def check_case(name, p, project, recon, trace, iterations):
    fails = check_trace_monotone(trace["objective"], name)
    if trace["objective"].size != iterations + 1:
        fails.append(f"{name}: trace has {trace['objective'].size - 1} iterations, "
                     f"expected {iterations}")
    if project and recon.min() < 0.0:
        fails.append(f"{name}: negative entry {recon.min():.3e} in a projected result")
    if p == 1.0 and not np.any(recon == 0.0):
        fails.append(f"{name}: p = 1 result has no exact zeros")
    return fails


def check_wavelet_dir(out, data, summary, iterations, levels, pad, radius_fraction):
    """Files and summary of one CLI wavelet-mode solve."""
    out = Path(out)
    fails = []
    coeffs = read_grid(out / "solution_coefficients.grid").ravel()
    pixels = read_grid(out / "solution.grid")
    trace = read_trace(out / "trace.csv")
    fails += check_synthesis(coeffs, pixels, levels)
    fails += check_trace_monotone(trace["objective"], "wavelet")
    if summary.get("status") != "max_iterations" or summary.get("iterations") != iterations:
        fails.append(f"summary reports status {summary.get('status')!r} after "
                     f"{summary.get('iterations')} iterations, expected "
                     f"'max_iterations' after {iterations}")
    if trace["objective"].size != iterations + 1:
        fails.append(f"trace.csv has {trace['objective'].size - 1} iterations")
    elif summary.get("final_objective") != trace["objective"][-1]:
        fails.append("summary objective differs from the last trace row")
    response = lowpass_response((pad, pad), radius_fraction)
    fails += check_discrepancy(pixels, data, (pad, pad), response,
                               trace["discrepancy"][-1], "wavelet")
    return fails


def check_synthesis(coeffs, pixels, levels, atol=1e-12):
    expect = db2_synthesis(coeffs, pixels.shape, levels)
    worst = float(np.max(np.abs(expect - pixels)))
    scale = max(float(np.max(np.abs(expect))), 1e-300)
    if not worst <= atol * scale:
        return [f"solution.grid differs from the synthesis of its coefficients "
                f"by {worst:.2e}"]
    return []


def check_dense_solve(A, g, mu, p, f, status, iterations, max_iterations, objectives):
    """One dense solve, to the accuracy its status claims.

    A solve that stopped on its step tolerance must be a minimizer. One
    that ran into the iteration cap says it did not converge; on an
    ill-conditioned matrix it can be far from optimal (at p = 2 up to
    1.45e-6 relative, beyond criterion 1's bound, in 4,000 sampled
    matrices). Its point must have the objective its trace ends on, and
    the trace must descend.
    """
    label = f"p={p:g} mu={mu:g}"
    if status == "max_iterations" and iterations == max_iterations:
        fails = check_trace_monotone(objectives, label)
        value = float(np.sum((A @ f - g) ** 2) + mu * np.sum(np.abs(f) ** p))
        if not abs(value - objectives[-1]) <= OBJECTIVE_RTOL * value:
            fails.append(f"{label}: the returned point has objective {value!r}, "
                         f"the trace ends on {objectives[-1]!r}")
        return fails
    # the step test may also fire on the last allowed iteration
    if status != "converged_step" or iterations > max_iterations:
        return [f"{label}: status {status!r} after {iterations} of "
                f"{max_iterations} iterations"]
    if p == 2.0:
        return check_normal_equations(A, g, mu, f)
    return check_subgradient(A, g, mu, p, f)
