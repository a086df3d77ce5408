"""Print a digest of a checkout's outputs, to show which bytes a change moves.

Run from the root of a checkout; it imports that checkout's ``src/``:

    python tools/digest.py [OUTPUT_DIR]

It writes a fixed set of outputs under OUTPUT_DIR (a temporary directory,
removed at the end, if none is given) and prints one ``sha256  name`` line
per file and per array:

* ``experiment/``: a ``run_experiment`` directory at 64^2 with 128^2
  padding, 200 iterations;
* ``cli-*/``: CLI ``solve`` directories, 200 iterations each: wavelet
  db2:3 at 64^2 with ``--pad 64 --radius-fraction 0.3``, p = 1.5 and
  Besov weights (the ``wavelet`` benchmark's geometry, scaled down);
  diagonal; dense with the projection; convolution at the default pad;
  and a padded convolution, 64^2 with 128^2 padding at radius 0.3;
* ``cli-wavelet-256/``: the ``wavelet`` benchmark's solve itself, 256^2
  with the same flags and 60 iterations, on blurred sources with
  Poisson counts;
* ``dense/``: 20 x 20 solves at p in {1, 1.3, 1.5, 2}, real, complex,
  projected and asymmetric, and with uniform weights 0.5 and uniform
  one-sided weights (0.5 and 2), from the zero start and from an f0. For each:
  the minimizer, the five trace arrays, the status, the iteration count
  and the fixed-point residual.

The inputs are drawn from fixed seeds and written as text, so every
checkout reads the same bytes. To compare two checkouts, run this file
from each root and diff the listings:

    (cd old && python ../new/tools/digest.py) > old.txt
    (cd new && python tools/digest.py) > new.txt
    diff old.txt new.txt

It takes under 10 s on a 2-core machine.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path.cwd() / "src"
sys.path.insert(0, str(SRC))

import sparseland  # noqa: E402
import sparseland.cli  # noqa: E402


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _array_sha(a) -> str:
    a = np.ascontiguousarray(a)
    return _sha(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())


def _blobs(n: int, seed: int) -> np.ndarray:
    """Six smooth nonnegative sources on an n x n grid, peak near 1."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:n, 0:n].astype(np.float64)
    image = np.zeros((n, n))
    for _ in range(6):
        cy, cx = rng.uniform(n / 8, 7 * n / 8, size=2)
        width = rng.uniform(1.0, 3.0)
        image += rng.uniform(0.5, 1.5) * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2)
                                                / (2.0 * width**2))
    return image / image.max()


def _blurred_sources(n: int, seed: int) -> np.ndarray:
    """Eight sources on an n x n grid, a periodic Gaussian blur and Poisson
    counts at a 1000-photon peak, divided by that peak."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:n, 0:n].astype(np.float64)
    image = np.zeros((n, n))
    for _ in range(8):
        cy, cx = rng.uniform(n / 10, 9 * n / 10, size=2)
        width = rng.uniform(1.5, 4.0)
        image += rng.uniform(0.5, 1.5) * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2)
                                                / (2.0 * width**2))
    freq = np.fft.fftfreq(n)
    kernel = np.exp(-8.0 * np.pi**2 * (freq[:, None] ** 2 + freq[None, :] ** 2))
    blurred = np.maximum(np.fft.ifft2(np.fft.fft2(image) * kernel).real, 0.0)
    return rng.poisson(blurred / blurred.max() * 1000.0) / 1000.0


def _write_text(path: Path, array) -> str:
    np.savetxt(path, np.atleast_2d(array), fmt="%.17g")
    return str(path)


def experiment(root: Path):
    sparseland.run_experiment(sparseland.ExperimentConfig(
        grid=(64, 64), pad=(128, 128), iterations=200, output_dir=str(root / "experiment")))


def cli_solves(root: Path):
    inputs = root / "inputs"
    inputs.mkdir()
    rng = np.random.default_rng(5)
    image = _write_text(inputs / "image.txt", _blobs(64, 4))
    diagonal = _write_text(inputs / "diagonal.txt", rng.uniform(0.05, 1.2, 50))
    diagonal_data = _write_text(inputs / "diagonal_data.txt", rng.normal(size=50))
    dense = _write_text(inputs / "dense.txt", rng.normal(size=(30, 20)))
    dense_data = _write_text(inputs / "dense_data.txt", rng.normal(size=30))
    sources = _write_text(inputs / "sources.txt", _blurred_sources(256, 7))
    fixed = ["--iterations", "200", "--step-tolerance", "0"]
    runs = {
        "cli-wavelet": ["--operator", "convolution", "--data", image, "--pad", "64",
                        "--radius-fraction", "0.3", "--wavelet", "db2:3", "--besov-s", "1",
                        "--p", "1.5", "--mu", "1e-3"],
        "cli-diagonal": ["--operator", "diagonal", "--operator-file", diagonal,
                         "--data", diagonal_data, "--p", "1", "--mu", "0.05"],
        "cli-dense-projected": ["--operator", "dense", "--operator-file", dense,
                                "--data", dense_data, "--p", "1.3", "--mu", "0.05",
                                "--project-nonnegative"],
        "cli-convolution": ["--operator", "convolution", "--data", image, "--p", "1",
                            "--mu", "1e-3"],
        "cli-convolution-padded-0.3": ["--operator", "convolution", "--data", image,
                                       "--pad", "128", "--radius-fraction", "0.3",
                                       "--p", "1", "--mu", "1e-3"],
    }
    runs = {name: [*argv, *fixed] for name, argv in runs.items()}
    runs["cli-wavelet-256"] = ["--operator", "convolution", "--data", sources, "--pad", "256",
                               "--radius-fraction", "0.3", "--wavelet", "db2:3",
                               "--besov-s", "1", "--p", "1.5", "--mu", "0.001",
                               "--iterations", "60", "--step-tolerance", "0"]
    for name, argv in runs.items():
        with contextlib.redirect_stdout(io.StringIO()):
            code = sparseland.cli.main(["solve", *argv, "--output-dir", str(root / name)])
        if code != 0:
            sys.exit(f"digest: the {name} solve exited with status {code}")


def dense_solves():
    """(name, sha) of each dense solve's results."""
    rng = np.random.default_rng(11)
    M = rng.normal(size=(20, 20))
    Mc = M + 1j * rng.normal(size=(20, 20))
    real = sparseland.DenseOperator(M * (0.9 / np.linalg.norm(M, 2)))
    cplx = sparseland.DenseOperator(Mc * (0.9 / np.linalg.norm(Mc, 2)))
    g = rng.normal(size=20)
    gc = g + 1j * rng.normal(size=20)
    w = sparseland.WeightSequence(rng.uniform(0.5, 2.0, 20))
    pair = (sparseland.WeightSequence(rng.uniform(0.5, 2.0, 20)),
            sparseland.WeightSequence(rng.uniform(0.5, 2.0, 20)))
    f0 = rng.normal(size=20)
    half = sparseland.WeightSequence(np.full(20, 0.5))
    double = sparseland.WeightSequence(np.full(20, 2.0))
    config = sparseland.SolverConfig(max_iterations=2000, step_tolerance=1e-9)
    projected = sparseland.SolverConfig(max_iterations=2000, step_tolerance=1e-9,
                                        projection="nonnegative")
    for p in (1.0, 1.3, 1.5, 2.0):
        spec = sparseland.PenaltySpec(p=p, weights=w, mu=0.05)
        variants = {
            "real": (g, real, spec, config, f0),
            "complex": (gc, cplx, spec, config, f0 + 1j * f0[::-1]),
            "projected": (g, real, spec, projected, np.abs(f0)),
            "asymmetric": (g, real, sparseland.PenaltySpec(p=p, weights=w, mu=0.05,
                                                           asymmetric=pair), config, f0),
            "uniform": (g, real, sparseland.PenaltySpec(p=p, weights=half, mu=0.05),
                        config, f0),
            "asymmetric-uniform": (g, real, sparseland.PenaltySpec(
                p=p, weights=half, mu=0.05, asymmetric=(half, double)), config, f0),
        }
        for variant, (data, K, penalty, cfg, start) in variants.items():
            for start_name, f in (("zero", None), ("f0", start)):
                res = sparseland.solve(data, K, penalty, cfg, f0=f)
                name = f"dense/p{p}-{variant}-{start_name}"
                yield f"{name}/minimizer", _array_sha(res.minimizer.values)
                for field in ("objectives", "discrepancies", "penalties", "step_norms",
                              "surrogates"):
                    yield f"{name}/trace.{field}", _array_sha(getattr(res.trace, field))
                for field in ("status", "iterations", "fixed_point_residual"):
                    yield f"{name}/{field}", _sha(repr(getattr(res, field)).encode())


def main(argv) -> int:
    if Path(sparseland.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"digest: imported {sparseland.__file__}, not the package under {SRC}; "
                 f"run from a checkout root")
    with contextlib.ExitStack() as stack:
        if len(argv) > 1:
            root = Path(argv[1])
            root.mkdir(parents=True)
        else:
            root = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        experiment(root)
        cli_solves(root)
        lines = [(str(path.relative_to(root)), _sha(path.read_bytes()))
                 for path in root.rglob("*") if path.is_file()]
        lines += list(dense_solves())
    for name, sha in sorted(lines):
        print(f"{sha}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
