"""Command line front end.

Three subcommands: ``solve`` runs the iteration on data and an operator
loaded from files, ``experiment`` runs the blurred-sources pipeline, and
``bounds`` evaluates the multiplier schedule and error-bound
calculators. Each subcommand declares its options once, as (key,
converter, help) rows: the flag is the key with ``-`` for ``_``, and a
flat ``key=value`` config file (UTF-8, ``#`` comments) may give the same
key, passed through the same converter. Flags win over config entries.
An option given neither way is left out of the library call, so the
library's own default applies; one the chosen mode never reads is refused.

A subcommand imports the modules only it uses (the experiment, the
bounds calculators, the wavelet transforms) when it runs. The solver
and the grid readers and writers are bound here at import, so that a
wrapper installed on this module's names (as perfbench's tracing does)
sees every call.
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
from .gridio import _text_lines, read_grid, write_grid, write_trace_csv
from .operators import (
    Convolution2DOperator,
    DenseOperator,
    DiagonalOperator,
    renormalize,
)
from .solver import SolverConfig, solve

__all__ = ["main", "parse_config_file"]


def parse_config_file(path) -> dict:
    """Flat key=value config; blank lines and '#' comments are skipped."""
    values = {}
    for lineno, line in _text_lines(path):
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise ParameterError(f"{path}:{lineno}: expected key=value, got {line!r}")
        values[key.strip()] = value.strip()
    return values


def _parse_bool(text: str) -> bool:
    """Config value of an on/off option; its flag takes no value."""
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ParameterError(f"expected a boolean, got {text!r}")


def _operator_kind(text: str) -> str:
    if text not in ("diagonal", "dense", "convolution"):
        raise argparse.ArgumentTypeError("expected one of diagonal, dense, convolution")
    return text


_SOLVE_OPTIONS = (
    ("operator", _operator_kind, "diagonal, dense or convolution"),
    ("operator_file", str, "text file with diagonal entries or a dense matrix"),
    ("data", str, "data file (.grid binary or whitespace text)"),
    ("weights", str, "text file with one weight per coefficient"),
    ("p", float, "penalty exponent in [1, 2] (default 1)"),
    ("mu", float, "penalty multiplier"),
    ("iterations", int, "iteration cap"),
    ("step_tolerance", float, "stop once a step is this small relative to the start"),
    ("project_nonnegative", _parse_bool, "clip each iterate at zero"),
    ("wavelet", str, "family:levels; solve in wavelet coefficients"),
    ("besov_s", float, "smoothness order for scale weights (wavelet mode)"),
    ("pad", int, "padded FFT size (convolution; default twice the larger data side)"),
    ("radius_fraction", float, "low-pass radius as a fraction of Nyquist (convolution)"),
    ("output_dir", str, "directory for solution.grid and trace.csv"),
)

_EXPERIMENT_OPTIONS = (
    ("grid", int, "square grid size (>= 64)"),
    ("pad", int, "padded FFT size"),
    ("photons", float, "expected total photon count"),
    ("iterations", int, "iterations per case"),
    ("seed", int, "seed of the Poisson draw"),
    ("radius_fraction", float, "low-pass radius as a fraction of Nyquist"),
    ("cases", str, "comma list from: l1,l1_nonneg,l2,l2_nonneg"),
    ("p", float, "run a single custom case at this p"),
    ("mu", float, "multiplier for the custom case"),
    ("project_nonnegative", _parse_bool, "clip the custom case's iterates at zero"),
    ("output_dir", str, "directory for the run's files"),
)

_BOUNDS_OPTIONS = (
    ("epsilon", float, "noise level"),
    ("rho", float, "penalty-norm prior radius"),
    ("p", float, "penalty exponent in [1, 2] (default 1)"),
    ("mu", float, "override the balanced multiplier"),
    ("envelope_file", str, "text file with columns b B w"),
    ("alpha", float, "envelope decay order"),
    ("sigma", float, "weight growth order"),
    ("a_lower", float, "lower envelope amplitude"),
    ("a_upper", float, "upper envelope amplitude"),
    ("output", str, "also write the report to this file"),
)


def _merge(args: argparse.Namespace, options) -> dict:
    """Flags over config entries; an option given neither way is absent."""
    merged = {}
    if hasattr(args, "config"):
        converters = {key: convert for key, convert, _ in options}
        entries = parse_config_file(args.config)
        unknown = set(entries) - set(converters)
        if unknown:
            raise ParameterError(f"unknown config keys: {sorted(unknown)}")
        for key, text in entries.items():
            try:
                merged[key] = converters[key](text)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ParameterError(
                    f"{args.config}: config key {key!r}: {exc}") from None
    merged.update((key, getattr(args, key)) for key, _, _ in options if hasattr(args, key))
    return merged


def _given(opt: dict, **fields: str) -> dict:
    """Library keyword arguments field=opt[key] for the keys that were given."""
    return {field: opt[key] for field, key in fields.items() if key in opt}


def _parse_wavelet(text: str):
    from .transforms import WaveletSpec

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


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _require(options: dict, *keys: str):
    missing = [k for k in keys if k not in options]
    if missing:
        raise ParameterError(f"missing required option(s): {', '.join(map(_flag, missing))}")


def _refuse(options: dict, key: str, context: str):
    """An option the chosen mode never reads is an error, not dropped."""
    if key in options:
        raise ParameterError(f"{_flag(key)} is not read {context}")


def _cmd_solve(opt: dict) -> int:
    _require(opt, "operator", "data", "mu", "output_dir")
    data = _load_array(opt["data"])

    if opt["operator"] == "convolution":
        if data.ndim != 2:
            raise ParameterError("convolution operator needs 2-d data")
        _refuse(opt, "operator_file", "with --operator convolution")
        pad = opt.get("pad", 2 * max(data.shape))
        K = Convolution2DOperator(data.shape, (pad, pad),
                                  **_given(opt, radius_fraction="radius_fraction"))
    else:
        for key in ("pad", "radius_fraction"):
            _refuse(opt, key, f"with --operator {opt['operator']}")
        _require(opt, "operator_file")
        entries = _load_array(opt["operator_file"])
        K = (DiagonalOperator(np.atleast_1d(entries).ravel())
             if opt["operator"] == "diagonal" else DenseOperator(np.atleast_2d(entries)))

    renormalized = renormalize(K, data.ravel())
    # the renormalized problem holds its own copy of the data
    del data
    K, g = renormalized.operator, renormalized.data
    mu = opt["mu"] * renormalized.mu_scale

    wavelet = None
    if "wavelet" in opt:
        from .transforms import BesovWeightSpec, besov_weights, conjugated_operator, idwt_array

        wavelet = _parse_wavelet(opt["wavelet"])
        K = conjugated_operator(K, wavelet)

    p = opt.get("p", 1.0)
    if "weights" in opt:
        _refuse(opt, "besov_s", "with --weights")
        weights = WeightSequence(np.atleast_1d(_load_array(opt["weights"])).ravel())
    elif "besov_s" in opt:
        if wavelet is None:
            raise ParameterError("--besov-s needs --wavelet")
        bspec = BesovWeightSpec(s=opt["besov_s"], p=p, d=len(K.shape))
        weights = besov_weights(bspec, K.scales)
    else:
        weights = WeightSequence.uniform(K.domain_len)

    spec = PenaltySpec(p=p, weights=weights, mu=mu)
    config = SolverConfig(
        **_given(opt, max_iterations="iterations", step_tolerance="step_tolerance"),
        projection="nonnegative" if opt.get("project_nonnegative") else None,
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
        "renormalization_scale": renormalized.scale,
    }
    solution = result.minimizer.values
    if wavelet is not None:
        write_grid(out / "solution_coefficients.grid", solution, metadata=summary)
        pixels = idwt_array(solution, wavelet, K.shape)
    else:
        pixels = result.minimizer.as_grid() if result.minimizer.dims else solution
    write_grid(out / "solution.grid", pixels, metadata=summary)
    write_trace_csv(out / "trace.csv", result.trace,
                    comment=f"version={__version__}")
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_experiment(opt: dict) -> int:
    from .experiment import CaseSpec, DEFAULT_CASES, ExperimentConfig, run_experiment

    _require(opt, "output_dir")
    fields = _given(opt, radius_fraction="radius_fraction", total_photons="photons",
                    iterations="iterations", seed="seed")
    fields.update((key, (opt[key], opt[key])) for key in ("grid", "pad") if key in opt)
    if "p" in opt or "mu" in opt:
        _require(opt, "p", "mu")
        _refuse(opt, "cases", "with --p and --mu")
        fields["cases"] = (CaseSpec("custom", opt["p"], opt["mu"],
                                    opt.get("project_nonnegative", False)),)
    else:
        _refuse(opt, "project_nonnegative", "without --p and --mu")
    if "cases" in opt:
        known = {c.name: c for c in DEFAULT_CASES}
        names = [n.strip() for n in opt["cases"].split(",") if n.strip()]
        bad = [n for n in names if n not in known]
        if bad:
            raise ParameterError(f"unknown case name(s) {bad}; "
                                 f"choose from {sorted(known)}")
        fields["cases"] = tuple(known[n] for n in names)
    config = ExperimentConfig(output_dir=opt["output_dir"], **fields)
    result = run_experiment(config)
    for case in config.cases:
        info = result.manifest["cases"][case.name]
        print(f"{case.name}: p={case.p} mu={case.mu} status={info['status']} "
              f"objective={info['final_objective']:.6e}")
    print(f"max expected pixel count: {result.noisy.max_expected_count:.2f}")
    print(f"outputs written to {opt['output_dir']}")
    return 0


def _cmd_bounds(opt: dict) -> int:
    from .regularization import (NoisePrior, SpectralEnvelope, besov_modulus_rate,
                                 modulus_bounds, mu_schedule, primed_radii)

    _require(opt, "epsilon", "rho")
    noise = NoisePrior(epsilon=opt["epsilon"], rho=opt["rho"])
    p = opt.get("p", 1.0)
    mu = opt["mu"] if "mu" in opt else mu_schedule(noise, p)
    eps_primed, rho_primed = primed_radii(noise, mu, p)
    lines = [
        f"epsilon={noise.epsilon:.12g}",
        f"rho={noise.rho:.12g}",
        f"p={p:.12g}",
        f"mu={mu:.12g}",
        f"eps_primed={eps_primed:.12g}",
        f"rho_primed={rho_primed:.12g}",
    ]
    if "envelope_file" in opt:
        table = np.atleast_2d(_load_text(opt["envelope_file"]))
        if table.shape[1] != 3:
            raise ParameterError("envelope file needs three columns: b B w")
        env = SpectralEnvelope(b=table[:, 0], B=table[:, 1])
        weights = WeightSequence(table[:, 2])
        lower, upper = modulus_bounds(env, weights, p, noise)
        lines.append(f"modulus_lower={lower:.12g}")
        lines.append(f"modulus_upper={upper:.12g}")
    rate_keys = ("alpha", "sigma", "a_lower", "a_upper")
    if any(key in opt for key in rate_keys):
        _require(opt, *rate_keys)
        rate_lower, rate_upper = besov_modulus_rate(*(opt[k] for k in rate_keys), noise)
        lines.append(f"rate_lower={rate_lower:.12g}")
        lines.append(f"rate_upper={rate_upper:.12g}")
    report = "\n".join(lines)
    print(report)
    if "output" in opt:
        Path(opt["output"]).write_text(report + "\n", encoding="utf-8")
    return 0


# subcommand -> (handler, help, option rows)
_COMMANDS = {
    "solve": (_cmd_solve, "run the iteration on operator/data files", _SOLVE_OPTIONS),
    "experiment": (_cmd_experiment, "blurred-sources Poisson experiment",
                   _EXPERIMENT_OPTIONS),
    "bounds": (_cmd_bounds, "schedule and error-bound calculators", _BOUNDS_OPTIONS),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparseland",
        description="Penalized least-squares inversion by thresholded "
        "Landweber iteration.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        # options left off the command line stay out of the namespace
        sp = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        sp.add_argument("--config", help="key=value config file")
        for key, convert, text in options:
            flag = _flag(key)
            if convert is _parse_bool:
                sp.add_argument(flag, action="store_true", help=text)
            else:
                sp.add_argument(flag, type=convert, help=text)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler, _, options = _COMMANDS[args.command]
    try:
        return handler(_merge(args, options))
    except (ParameterError, AlignmentError, ContractViolationError,
            DescentViolationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
