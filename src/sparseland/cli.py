"""Command line front end.

Three subcommands: ``solve`` runs the iteration on data and an operator
loaded from files, ``experiment`` runs the blurred-sources pipeline, and
``bounds`` evaluates the multiplier schedule and error-bound
calculators. Every option can also come from a flat ``key=value`` config
file (UTF-8, ``#`` comments); explicit command line flags win over
config entries, which win over built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import PenaltySpec, WeightSequence
from .errors import (
    AlignmentError,
    ContractViolationError,
    DescentViolationError,
    ParameterError,
)
from .experiment import CaseSpec, DEFAULT_CASES, ExperimentConfig, run_experiment
from .gridio import read_grid, write_grid, write_trace_csv
from .operators import (
    Convolution2DOperator,
    DenseOperator,
    DiagonalOperator,
    renormalize,
)
from .regularization import (
    NoisePrior,
    SpectralEnvelope,
    besov_modulus_rate,
    modulus_bounds,
    mu_schedule,
    primed_radii,
)
from .solver import SolverConfig, solve
from .transforms import BesovWeightSpec, WaveletSpec, besov_weights, conjugated_operator
from .transforms import idwt_array

__all__ = ["main", "parse_config_file"]


def parse_config_file(path) -> dict:
    """Flat key=value config; blank lines and '#' comments are skipped."""
    values = {}
    for lineno, raw in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise ParameterError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        values[key.strip()] = value.strip()
    return values


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ParameterError(f"expected a boolean, got {text!r}")


def _merge(args: argparse.Namespace, schema: dict) -> dict:
    """Combine CLI flags (priority), config file, and defaults."""
    config_values = {}
    if getattr(args, "config", None):
        config_values = parse_config_file(args.config)
    unknown = set(config_values) - set(schema)
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    merged = {}
    for key, (convert, default) in schema.items():
        cli_value = getattr(args, key)
        if cli_value is not None:
            merged[key] = cli_value
        elif key in config_values:
            try:
                merged[key] = convert(config_values[key])
            except ValueError as exc:
                raise ParameterError(
                    f"{args.config}: config key {key!r}: {exc}") from None
        else:
            merged[key] = default
    return merged


def _parse_wavelet(text: str):
    family, sep, levels = text.partition(":")
    if not sep:
        raise ParameterError("wavelet must be given as family:levels, e.g. db2:3")
    try:
        levels = int(levels)
    except ValueError:
        raise ParameterError(f"wavelet levels must be an integer, got {levels!r}")
    return WaveletSpec(family=family, levels=levels)


def _load_text(path: str) -> np.ndarray:
    try:
        return np.loadtxt(path, dtype=np.float64)
    except ValueError as exc:
        raise ParameterError(f"{path}: not a whitespace table of numbers ({exc})") from None


def _load_array(path: str) -> np.ndarray:
    if str(path).endswith(".grid"):
        return read_grid(path)
    return _load_text(path)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparseland",
        description="Penalized least-squares inversion by thresholded "
        "Landweber iteration.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="run the iteration on operator/data files")
    ps.add_argument("--config", help="key=value config file")
    ps.add_argument("--operator", choices=("diagonal", "dense", "convolution"))
    ps.add_argument("--operator-file", dest="operator_file",
                    help="text file with diagonal entries or a dense matrix")
    ps.add_argument("--data", help="data file (.grid binary or whitespace text)")
    ps.add_argument("--weights", help="text file with one weight per coefficient")
    ps.add_argument("--p", type=float, help="penalty exponent in [1, 2]")
    ps.add_argument("--mu", type=float, help="penalty multiplier")
    ps.add_argument("--iterations", type=int, help="iteration cap")
    ps.add_argument("--step-tolerance", dest="step_tolerance", type=float)
    ps.add_argument("--project-nonnegative", dest="project_nonnegative",
                    action="store_const", const=True,
                    help="clip each iterate at zero")
    ps.add_argument("--wavelet", help="family:levels; solve in wavelet coefficients")
    ps.add_argument("--besov-s", dest="besov_s", type=float,
                    help="smoothness order for scale weights (wavelet mode)")
    ps.add_argument("--pad", type=int, help="padded FFT size (convolution operator)")
    ps.add_argument("--radius-fraction", dest="radius_fraction", type=float)
    ps.add_argument("--output-dir", dest="output_dir")

    pe = sub.add_parser("experiment", help="blurred-sources Poisson experiment")
    pe.add_argument("--config", help="key=value config file")
    pe.add_argument("--grid", type=int, help="square grid size (>= 64)")
    pe.add_argument("--pad", type=int, help="padded FFT size")
    pe.add_argument("--photons", type=float, help="expected total photon count")
    pe.add_argument("--iterations", type=int)
    pe.add_argument("--seed", type=int)
    pe.add_argument("--radius-fraction", dest="radius_fraction", type=float)
    pe.add_argument("--cases", help="comma list from: "
                    + ",".join(c.name for c in DEFAULT_CASES))
    pe.add_argument("--p", type=float, help="run a single custom case at this p")
    pe.add_argument("--mu", type=float, help="multiplier for the custom case")
    pe.add_argument("--project-nonnegative", dest="project_nonnegative",
                    action="store_const", const=True)
    pe.add_argument("--output-dir", dest="output_dir")

    pb = sub.add_parser("bounds", help="schedule and error-bound calculators")
    pb.add_argument("--config", help="key=value config file")
    pb.add_argument("--epsilon", type=float, help="noise level")
    pb.add_argument("--rho", type=float, help="penalty-norm prior radius")
    pb.add_argument("--p", type=float)
    pb.add_argument("--mu", type=float, help="override the balanced multiplier")
    pb.add_argument("--envelope-file", dest="envelope_file",
                    help="text file with columns b B w")
    pb.add_argument("--alpha", type=float, help="envelope decay order")
    pb.add_argument("--sigma", type=float, help="weight growth order")
    pb.add_argument("--a-lower", dest="a_lower", type=float)
    pb.add_argument("--a-upper", dest="a_upper", type=float)
    pb.add_argument("--output", help="also write the report to this file")
    return parser


_SOLVE_SCHEMA = {
    "operator": (str, None),
    "operator_file": (str, None),
    "data": (str, None),
    "weights": (str, None),
    "p": (float, 1.0),
    "mu": (float, None),
    "iterations": (int, 10000),
    "step_tolerance": (float, 1e-8),
    "project_nonnegative": (_parse_bool, False),
    "wavelet": (str, None),
    "besov_s": (float, None),
    "pad": (int, None),
    "radius_fraction": (float, 0.1),
    "output_dir": (str, None),
}

_EXPERIMENT_SCHEMA = {
    "grid": (int, 256),
    "pad": (int, 512),
    "photons": (float, 10000.0),
    "iterations": (int, 2000),
    "seed": (int, 7),
    "radius_fraction": (float, 0.1),
    "cases": (str, ",".join(c.name for c in DEFAULT_CASES)),
    "p": (float, None),
    "mu": (float, None),
    "project_nonnegative": (_parse_bool, False),
    "output_dir": (str, None),
}

_BOUNDS_SCHEMA = {
    "epsilon": (float, None),
    "rho": (float, None),
    "p": (float, 1.0),
    "mu": (float, None),
    "envelope_file": (str, None),
    "alpha": (float, None),
    "sigma": (float, None),
    "a_lower": (float, None),
    "a_upper": (float, None),
    "output": (str, None),
}


def _require(options: dict, *keys: str):
    missing = [k for k in keys if options[k] is None]
    if missing:
        flags = ", ".join("--" + k.replace("_", "-") for k in missing)
        raise ParameterError(f"missing required option(s): {flags}")


def _cmd_solve(args) -> int:
    opt = _merge(args, _SOLVE_SCHEMA)
    _require(opt, "operator", "data", "mu", "output_dir")
    data = _load_array(opt["data"])
    g = data.ravel()

    if opt["operator"] == "diagonal":
        _require(opt, "operator_file")
        K = DiagonalOperator(np.atleast_1d(_load_array(opt["operator_file"])).ravel())
    elif opt["operator"] == "dense":
        _require(opt, "operator_file")
        K = DenseOperator(np.atleast_2d(_load_array(opt["operator_file"])))
    else:
        if data.ndim != 2:
            raise ParameterError("convolution operator needs 2-d data")
        pad = opt["pad"] or 2 * max(data.shape)
        K = Convolution2DOperator(data.shape, (pad, pad), opt["radius_fraction"])

    mu = opt["mu"]
    scale = 1.0
    if not (K.norm_bound < 1.0):
        renormalized = renormalize(K, g)
        K, g, scale = renormalized.operator, renormalized.data, renormalized.scale
        mu = mu * renormalized.mu_scale

    wavelet = None
    if opt["wavelet"]:
        wavelet = _parse_wavelet(opt["wavelet"])
        K = conjugated_operator(K, wavelet)

    if opt["weights"]:
        weights = WeightSequence(np.atleast_1d(_load_array(opt["weights"])).ravel())
    elif opt["besov_s"] is not None:
        if wavelet is None:
            raise ParameterError("--besov-s needs --wavelet")
        bspec = BesovWeightSpec(s=opt["besov_s"], p=opt["p"], d=len(K.shape))
        weights = besov_weights(bspec, K.scales)
    else:
        weights = WeightSequence.uniform(K.domain_len)

    spec = PenaltySpec(p=opt["p"], weights=weights, mu=mu)
    config = SolverConfig(
        max_iterations=opt["iterations"],
        step_tolerance=opt["step_tolerance"],
        projection="nonnegative" if opt["project_nonnegative"] else None,
    )
    result = solve(g, K, spec, config)

    out = Path(opt["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    summary = {
        "version": __version__,
        "status": result.status,
        "iterations": result.iterations,
        "final_objective": float(result.trace.objectives[-1]),
        "fixed_point_residual": result.fixed_point_residual,
        "renormalization_scale": scale,
    }
    solution = result.minimizer.values
    if wavelet is not None:
        write_grid(out / "solution_coefficients.grid", solution.reshape(1, -1),
                   metadata=summary)
        pixels = idwt_array(solution, wavelet, K.shape)
        write_grid(out / "solution.grid",
                   pixels if pixels.ndim == 2 else pixels.reshape(1, -1),
                   metadata=summary)
    else:
        shaped = (solution.reshape(result.minimizer.dims)
                  if result.minimizer.dims and len(result.minimizer.dims) == 2
                  else solution.reshape(1, -1))
        write_grid(out / "solution.grid", shaped, metadata=summary)
    write_trace_csv(out / "trace.csv", result.trace,
                    comment=f"version={__version__}")
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_experiment(args) -> int:
    opt = _merge(args, _EXPERIMENT_SCHEMA)
    _require(opt, "output_dir")
    if opt["p"] is not None or opt["mu"] is not None:
        _require(opt, "p", "mu")
        cases = (CaseSpec("custom", opt["p"], opt["mu"],
                          bool(opt["project_nonnegative"])),)
    else:
        known = {c.name: c for c in DEFAULT_CASES}
        names = [n.strip() for n in opt["cases"].split(",") if n.strip()]
        bad = [n for n in names if n not in known]
        if bad:
            raise ParameterError(f"unknown case name(s) {bad}; "
                                 f"choose from {sorted(known)}")
        cases = tuple(known[n] for n in names)
    config = ExperimentConfig(
        grid=(opt["grid"], opt["grid"]),
        pad=(opt["pad"], opt["pad"]),
        radius_fraction=opt["radius_fraction"],
        total_photons=opt["photons"],
        iterations=opt["iterations"],
        seed=opt["seed"],
        cases=cases,
        output_dir=opt["output_dir"],
    )
    result = run_experiment(config)
    for case in config.cases:
        info = result.manifest["cases"][case.name]
        print(f"{case.name}: p={case.p} mu={case.mu} status={info['status']} "
              f"objective={info['final_objective']:.6e}")
    print(f"max expected pixel count: {result.noisy.max_expected_count:.2f}")
    print(f"outputs written to {opt['output_dir']}")
    return 0


def _cmd_bounds(args) -> int:
    opt = _merge(args, _BOUNDS_SCHEMA)
    _require(opt, "epsilon", "rho")
    noise = NoisePrior(epsilon=opt["epsilon"], rho=opt["rho"])
    p = opt["p"]
    mu = opt["mu"] if opt["mu"] is not None else mu_schedule(noise, p)
    eps_primed, rho_primed = primed_radii(noise, mu, p)
    lines = [
        f"epsilon={noise.epsilon:.12g}",
        f"rho={noise.rho:.12g}",
        f"p={p:.12g}",
        f"mu={mu:.12g}",
        f"eps_primed={eps_primed:.12g}",
        f"rho_primed={rho_primed:.12g}",
    ]
    if opt["envelope_file"]:
        table = np.atleast_2d(_load_text(opt["envelope_file"]))
        if table.shape[1] != 3:
            raise ParameterError("envelope file needs three columns: b B w")
        env = SpectralEnvelope(b=table[:, 0], B=table[:, 1])
        weights = WeightSequence(table[:, 2])
        lower, upper = modulus_bounds(env, weights, p, noise)
        lines.append(f"modulus_lower={lower:.12g}")
        lines.append(f"modulus_upper={upper:.12g}")
    rate_params = [opt["alpha"], opt["sigma"], opt["a_lower"], opt["a_upper"]]
    if any(v is not None for v in rate_params):
        _require(opt, "alpha", "sigma", "a_lower", "a_upper")
        rate_lower, rate_upper = besov_modulus_rate(
            opt["alpha"], opt["sigma"], opt["a_lower"], opt["a_upper"], noise
        )
        lines.append(f"rate_lower={rate_lower:.12g}")
        lines.append(f"rate_upper={rate_upper:.12g}")
    report = "\n".join(lines)
    print(report)
    if opt["output"]:
        Path(opt["output"]).write_text(report + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "experiment": _cmd_experiment,
        "bounds": _cmd_bounds,
    }
    try:
        return handlers[args.command](args)
    except (ParameterError, AlignmentError, ContractViolationError,
            DescentViolationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
