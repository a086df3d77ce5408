"""Deconvolution experiment: blurred point-like sources in photon noise.

A phantom of four small elliptical sources is blurred by the low-pass
convolution operator (an incoherent imaging response), corrupted by
pixelwise Poisson counting noise at a prescribed expected photon budget,
and reconstructed by the iteration at p = 1 and p = 2, each with and
without a nonnegativity projection. The sparsity penalty (p = 1)
re-resolves the close pair of sources that the blur merges; the
quadratic penalty keeps more ringing. All randomness flows from a single
seed, so a fixed config reproduces byte-identical outputs.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from . import _EXPORTS, __version__
from .core import (PenaltySpec, check_count, check_exponent, check_kinds, check_real,
                   check_shape, check_values)
from .errors import ParameterError
from .gridio import _write_table, write_grid, write_pgm, write_trace_csv
from .operators import Convolution2DOperator, _check_geometry
from .solver import SolveResult, SolverConfig, solve

__all__ = list(_EXPORTS["experiment"])


@dataclass(frozen=True)
class CaseSpec:
    """One reconstruction: a name, the penalty's p and mu, and whether
    iterates are projected onto the nonnegative cone."""

    name: str
    p: float
    mu: float
    project: bool

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ParameterError(f"case name must be a nonempty string, got {self.name!r}")
        if not isinstance(self.project, bool):
            raise ParameterError(f"case project must be True or False, got {self.project!r}")
        object.__setattr__(self, "p", check_exponent(self.p))
        object.__setattr__(self, "mu", check_real(self.mu, "case mu", lower="positive"))


DEFAULT_CASES: Tuple[CaseSpec, ...] = (
    CaseSpec("l1", 1.0, 1e-3, False),
    CaseSpec("l1_nonneg", 1.0, 1e-3, True),
    CaseSpec("l2", 2.0, 1e-4, False),
    CaseSpec("l2_nonneg", 2.0, 1e-4, True),
)

# ellipse table at the reference 256x256 grid: center row/col as a
# fraction of the grid, semi-axes in reference pixels, amplitude.
# Two small sources 10 px apart on one row, one vertically elongated
# source crossed by the vertical diagnostic line, and one brighter
# isolated source. The pair is tuned against the default blur: close
# and unequal enough that the blurred image is strictly unimodal across
# the pair, yet far enough apart that the sparse reconstruction splits
# them. The bright amplitude stays moderate so every source clears half
# of the global maximum: the phantom always shows four connected
# components above half-max.
_ELLIPSES = (
    (0.375, 104.0 / 256.0, 2.5, 2.5, 1.0),
    (0.375, 114.0 / 256.0, 2.5, 2.5, 0.9),
    (0.656, 0.281, 3.75, 2.5, 1.0),
    (0.688, 0.719, 2.5, 2.5, 1.5),
)
_REFERENCE_GRID = 256
# diagnostic lines: the row through the close pair, the column through
# the elongated source
_ROW_FRACTION = 0.375
_COL_FRACTION = 0.281
# the largest rate numpy's Poisson sampler accepts
_POISSON_RATE_MAX = np.iinfo(np.int64).max - 10.0 * np.sqrt(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class ExperimentConfig:
    grid: Tuple[int, int] = (256, 256)
    pad: Tuple[int, int] = (512, 512)
    radius_fraction: float = 0.1
    total_photons: float = 10000.0
    iterations: int = 2000
    seed: int = 7
    smoothing_sigma: float = 1.0
    cases: Tuple[CaseSpec, ...] = DEFAULT_CASES
    output_dir: Optional[str] = None

    def __post_init__(self):
        grid = check_shape(self.grid, "experiment grid", minimum=64)
        pad, radius_fraction = _check_geometry(grid, self.pad, self.radius_fraction)
        smoothing_sigma = check_real(self.smoothing_sigma, "smoothing_sigma",
                                     lower="nonnegative")
        # make_phantom's Gaussian reaches int(4 sigma + 0.5) pixels with sigma
        # scaled as there; a reach beyond the grid only allocates zeros
        sigma = smoothing_sigma * min(grid) / _REFERENCE_GRID
        if 4.0 * sigma + 0.5 >= max(grid) + 1:
            raise ParameterError(
                f"smoothing_sigma {smoothing_sigma} gives a Gaussian radius beyond "
                f"the grid's larger side {max(grid)}")
        cases = tuple(self.cases) if np.iterable(self.cases) else ()
        if not cases or not all(isinstance(case, CaseSpec) for case in cases):
            raise ParameterError("cases must be a nonempty sequence of CaseSpec")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "pad", pad)
        object.__setattr__(self, "radius_fraction", radius_fraction)
        object.__setattr__(self, "total_photons",
                           check_real(self.total_photons, "total_photons", lower="positive"))
        object.__setattr__(self, "iterations", check_count(self.iterations, "iterations"))
        object.__setattr__(self, "seed", check_count(self.seed, "seed", minimum=0))
        object.__setattr__(self, "smoothing_sigma", smoothing_sigma)
        object.__setattr__(self, "cases", cases)

    def ellipse_table(self):
        """Ellipses in absolute pixels for this grid size."""
        rows, cols = self.grid
        scale = min(rows, cols) / _REFERENCE_GRID
        return [
            {
                "center_row": fy * rows,
                "center_col": fx * cols,
                "semi_row": ay * scale,
                "semi_col": ax * scale,
                "amplitude": amp,
            }
            for fy, fx, ay, ax, amp in _ELLIPSES
        ]

    @property
    def diagnostic_row(self) -> int:
        return int(round(_ROW_FRACTION * self.grid[0]))

    @property
    def diagnostic_col(self) -> int:
        return int(round(_COL_FRACTION * self.grid[1]))


def make_phantom(config: ExperimentConfig) -> np.ndarray:
    """Render the four-source phantom, slightly Gaussian smoothed."""
    check_kinds(experiment=config)
    rows, cols = config.grid
    yy = np.arange(rows)[:, None]
    xx = np.arange(cols)[None, :]
    image = np.zeros((rows, cols))
    for e in config.ellipse_table():
        inside = ((yy - e["center_row"]) / e["semi_row"]) ** 2 + (
            (xx - e["center_col"]) / e["semi_col"]
        ) ** 2 <= 1.0
        image += e["amplitude"] * inside
    sigma = config.smoothing_sigma * min(rows, cols) / _REFERENCE_GRID
    # below 1e-15 the kernel is one unit tap, and sigma**2 may underflow
    if sigma > 1e-15:
        image = _gaussian_smooth(image, sigma)
    return np.maximum(image, 0.0)


def _gaussian_smooth(image: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian smoothing of a 2-d array, zero outside it.

    The kernel is sampled out to ``int(4 sigma + 0.5)`` taps each side and
    normalized to unit sum. Each axis (0, then 1) is correlated with it by
    starting from the centre tap and adding the symmetric pairs of taps
    from the outermost in. That is, operation for operation, the
    arithmetic of the usual ndimage Gaussian filter in constant mode, and
    the tests hold the two equal to the bit.
    """
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x**2)
    weights = (phi / phi.sum())[radius:]
    for axis in (0, 1):
        line = np.moveaxis(image, axis, 0)
        n = line.shape[0]
        padded = np.zeros((n + 2 * radius,) + line.shape[1:])
        padded[radius : radius + n] = line
        acc = line * weights[0]
        for j in range(radius, 0, -1):
            acc += (padded[radius - j : radius - j + n]
                    + padded[radius + j : radius + j + n]) * weights[j]
        image = np.moveaxis(acc, 0, axis)
    return image


@dataclass
class NoisyData:
    """Poisson-count data normalized to unit expected total intensity."""

    data: np.ndarray
    counts: np.ndarray
    count_scale: float
    max_expected_count: float


def add_poisson_noise(image, total_photons: float, seed: int) -> NoisyData:
    """Draw independent per-pixel Poisson counts at the given budget.

    The image is scaled so the *expected* total count equals
    total_photons (the realized total fluctuates); the returned data are
    counts / total_photons, i.e. on the scale of the input divided by
    its own total intensity. Tiny negative entries (roundoff from an
    earlier convolution) are clamped to zero with a warning; genuinely
    negative intensities are an error.
    """
    image = check_values(image, "image", ndim=None)
    if np.any(image < 0.0):
        peak = float(np.abs(image).max())
        worst = float(image.min())
        if -worst > 1e-9 * max(peak, 1.0):
            raise ParameterError("Poisson intensities must be nonnegative")
        warnings.warn(
            f"clamping tiny negative intensities (min {worst:.3e}) to zero",
            RuntimeWarning,
            stacklevel=2,
        )
        image = np.maximum(image, 0.0)
    total = check_real(image.sum(), "image total intensity", lower="positive")
    total_photons = check_real(total_photons, "total_photons", lower="positive")
    count_scale = total_photons / total
    # the largest entry of expected below, formed by the same product
    max_expected = count_scale * float(image.max())
    if not max_expected <= _POISSON_RATE_MAX:
        raise ParameterError(
            f"expected pixel count {max_expected:.3e} is too large for a Poisson draw")
    expected = image * count_scale
    rng = np.random.default_rng(check_count(seed, "seed", minimum=0))
    counts = rng.poisson(expected).astype(np.float64)
    return NoisyData(
        data=counts / total_photons,
        counts=counts,
        count_scale=count_scale,
        max_expected_count=max_expected,
    )


def count_profile_peaks(profile, window: Optional[Tuple[int, int]] = None,
                        rel_height: float = 0.5) -> int:
    """Count strict local maxima above rel_height * window maximum."""
    profile = check_values(profile, "profile")
    rel_height = check_real(rel_height, "rel_height")
    lo, hi = (0, profile.size) if window is None else check_shape(window, "window", 0)
    segment = profile[lo:hi]
    if segment.size < 3:
        return 0
    floor = rel_height * segment.max()
    inner = segment[1:-1]
    peaks = (inner > segment[:-2]) & (inner > segment[2:]) & (inner >= floor)
    return int(np.count_nonzero(peaks))


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    phantom: np.ndarray
    reference: np.ndarray
    noisy: NoisyData
    operator: Convolution2DOperator
    results: Dict[str, SolveResult]
    reconstructions: Dict[str, np.ndarray]
    profiles: Dict[str, Dict[str, np.ndarray]]
    manifest: dict

    def pair_window(self) -> Tuple[int, int]:
        """Column window around the close pair on the horizontal line."""
        table = self.config.ellipse_table()
        c0 = table[0]["center_col"]
        c1 = table[1]["center_col"]
        margin = 3.0 * table[0]["semi_col"]
        lo = int(max(0, np.floor(min(c0, c1) - margin)))
        hi = int(min(self.config.grid[1], np.ceil(max(c0, c1) + margin) + 1))
        return lo, hi


def _config_record(config: ExperimentConfig) -> dict:
    """The config fields that determine the outputs: all but ``output_dir``,
    so one experiment written to two directories gives identical files."""
    record = asdict(config)
    del record["output_dir"]
    return record


def _config_hash(config: ExperimentConfig) -> str:
    payload = json.dumps(_config_record(config), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the full pipeline; write files only if output_dir is set."""
    # make_phantom checks the config's kind
    phantom = make_phantom(config)
    K = Convolution2DOperator(config.grid, config.pad, config.radius_fraction)
    clean = np.maximum(K.apply(phantom.ravel()).reshape(config.grid), 0.0)
    noisy = add_poisson_noise(clean, config.total_photons, config.seed)
    reference = phantom / clean.sum()

    n = config.grid[0] * config.grid[1]
    results: Dict[str, SolveResult] = {}
    recons: Dict[str, np.ndarray] = {}
    for case in config.cases:
        spec = PenaltySpec.uniform(p=case.p, mu=case.mu, n=n)
        solver_config = SolverConfig(
            max_iterations=config.iterations,
            step_tolerance=0.0,
            projection="nonnegative" if case.project else None,
        )
        res = solve(noisy.data.ravel(), K, spec, solver_config)
        results[case.name] = res
        recons[case.name] = res.minimizer.values.reshape(config.grid)

    row = config.diagnostic_row
    col = config.diagnostic_col
    blurred = clean / clean.sum()  # noise-free expectation of the data
    profiles = {
        "horizontal": {
            "reference": reference[row, :],
            "blurred": blurred[row, :],
            "data": noisy.data[row, :],
        },
        "vertical": {
            "reference": reference[:, col],
            "blurred": blurred[:, col],
            "data": noisy.data[:, col],
        },
    }
    for name, recon in recons.items():
        profiles["horizontal"][name] = recon[row, :]
        profiles["vertical"][name] = recon[:, col]

    chash = _config_hash(config)
    manifest = {
        "format": "sparseland-experiment",
        "version": __version__,
        "config_hash": chash,
        "config": _config_record(config),
        "ellipses": config.ellipse_table(),
        "diagnostic_row": row,
        "diagnostic_col": col,
        "filter_peak_response": K.peak_response,
        "count_scale": noisy.count_scale,
        "max_expected_count": noisy.max_expected_count,
        "realized_total_count": float(noisy.counts.sum()),
        "cases": {
            case.name: {
                "p": case.p,
                "mu": case.mu,
                "project": case.project,
                "status": results[case.name].status,
                "iterations": results[case.name].iterations,
                "final_objective": float(results[case.name].trace.objectives[-1]),
                "fixed_point_residual": results[case.name].fixed_point_residual,
            }
            for case in config.cases
        },
        "files": [],
    }

    result = ExperimentResult(
        config=config,
        phantom=phantom,
        reference=reference,
        noisy=noisy,
        operator=K,
        results=results,
        reconstructions=recons,
        profiles=profiles,
        manifest=manifest,
    )

    if config.output_dir is not None:
        out = Path(config.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        stamp = f"config={chash} version={__version__}"
        meta = {"config_hash": chash, "version": __version__}

        def emit(name: str, image: np.ndarray):
            write_pgm(out / f"{name}.pgm", image, comments=[stamp])
            write_grid(out / f"{name}.grid", image, metadata=meta)
            manifest["files"].extend([f"{name}.pgm", f"{name}.grid"])

        emit("phantom", phantom)
        emit("data", noisy.data)
        for case in config.cases:
            emit(f"recon_{case.name}", recons[case.name])
            write_trace_csv(out / f"trace_{case.name}.csv",
                            results[case.name].trace, comment=stamp)
            manifest["files"].append(f"trace_{case.name}.csv")
        for direction in ("horizontal", "vertical"):
            fname = f"profile_{direction}.csv"
            _write_table(out / fname, "index", profiles[direction], stamp)
            manifest["files"].append(fname)
        manifest["files"].append("manifest.json")
        manifest["files"].sort()
        (out / "manifest.json").write_bytes(
            (json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode("utf-8")
        )
    return result
