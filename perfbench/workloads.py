"""The three workloads: inputs from the seed, one batch, output checks.

A batch is a fixed amount of work that a run repeats until its time is
up: one ``run_experiment`` call (imaging), one ``sparseland.cli.main``
solve (wavelet), or 160 dense solves (small_dense). Each workload calls
only sparseland's public entry points, looked up at call time so that
the tracing wrappers see every call. See README.md for why each
workload exists and which layers it loads.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import checks
import tracing


@dataclass
class Batch:
    wall_s: float
    iterations: int
    latencies_s: list
    attempted: int
    failures: list = field(default_factory=list)  # one message list per failed solve
    capped: int = 0  # solves that stopped at their iteration cap


def _solve_spans(tracer, batch):
    """Durations and iteration counts of the solve spans of one batch."""
    cols = tracer.arrays()
    sid = tracer.names.index(tracing.SOLVE)
    sel = np.flatnonzero((cols["name_id"] == sid) & (cols["batch"] == batch))
    durations = (cols["end"][sel] - cols["start"][sel]).tolist()
    return durations, sum(tracer.iterations[int(i)] for i in sel)


class Imaging:
    """run_experiment at the default 256^2 grid with 512^2 FFTs."""

    name = "imaging"
    layers = ("operators", "shrinkage", "solver", "gridio", "experiment")
    iterations = 30
    # name, p, mu, nonnegative: the default cases as the README gives them
    cases = (("l1", 1.0, 1e-3, False), ("l1_nonneg", 1.0, 1e-3, True),
             ("l2", 2.0, 1e-4, False), ("l2_nonneg", 2.0, 1e-4, True))
    pad = (512, 512)
    radius_fraction = 0.1
    # the close pair of sources sits at columns 104 and 114 of the 256^2
    # reference grid, 2.5 px semi-axes; the window spans 3 semi-axes past it
    pair_window = (96, 123)
    setup = ("K = sparseland.Convolution2DOperator((256, 256), (512, 512), 0.1)\n"
             "K.adjoint(K.apply(np.zeros(256 * 256)))")

    def prepare(self, seed, root):
        self.seed = seed
        self.root = root

    def run(self, batch, tracer):
        import sparseland

        out = self.root / f"imaging-{batch}"
        config = sparseland.ExperimentConfig(
            iterations=self.iterations,
            seed=int(np.random.SeedSequence([self.seed, batch]).generate_state(1)[0]),
            output_dir=str(out),
        )
        t0 = perf_counter()
        try:
            tracer.span("experiment.run_experiment", sparseland.run_experiment, config)
        except Exception as exc:  # counted as a failure of every case
            return Batch(perf_counter() - t0, 0, [], len(self.cases),
                         [[f"run_experiment raised {exc!r}"]] * len(self.cases))
        wall = perf_counter() - t0
        latencies, iterations = _solve_spans(tracer, batch)
        fails = checks.check_experiment_dir(out, self.cases, self.iterations, self.pad,
                                            self.radius_fraction, self.pair_window)
        return Batch(wall, iterations, latencies, len(self.cases),
                     [msgs for msgs in fails.values() if msgs], capped=len(self.cases))

    def corruptions(self, batch):
        """Corrupted answers built from one batch's files, each of which
        its check must reject."""
        out = self.root / f"imaging-{batch}"
        trace = checks.read_trace(out / "trace_l1.csv")
        rising = trace["objective"].copy()
        rising[len(rising) // 2] = rising[len(rising) // 2 - 1] * 1.001
        profile = checks.read_trace(out / "profile_horizontal.csv")
        data = checks.read_grid(out / "data.grid")
        recon = checks.read_grid(out / "recon_l2.grid")
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        projected = checks.read_grid(out / "recon_l1_nonneg.grid").copy()
        projected.flat[projected.size // 2] = -1e-3
        response = checks.lowpass_response(self.pad, self.radius_fraction)
        return {
            "trace with one increase": checks.check_trace_monotone(rising, "l1"),
            "one-peak profile": checks.check_two_peaks(
                profile["blurred"], self.pair_window, "blurred"),
            "reconstruction shifted by 1e-3": checks.check_discrepancy(
                recon + 1e-3, data, self.pad, response,
                checks.read_trace(out / "trace_l2.csv")["discrepancy"][-1], "l2"),
            "reconstruction shifted by 1e-3, fixed point": checks.check_fixed_point(
                recon + 1e-3, data, self.pad, response, 2.0, 1e-4, False,
                manifest["cases"]["l2"]["fixed_point_residual"], "l2"),
            "negative entry in a projected result": checks.check_case(
                "l1_nonneg", 1.0, True, projected,
                checks.read_trace(out / "trace_l1_nonneg.csv"), self.iterations),
        }

    def discard(self, batch):
        shutil.rmtree(self.root / f"imaging-{batch}", ignore_errors=True)


def blurred_sources(seed, n=256):
    """Eight Gaussian sources, a periodic Gaussian blur, Poisson counts.

    Returns data with a peak near 1 (counts divided by a 1000-photon
    peak budget).
    """
    rng = np.random.default_rng([seed, 2])
    yy, xx = np.mgrid[0:n, 0:n].astype(np.float64)
    image = np.zeros((n, n))
    for _ in range(8):
        cy, cx = rng.uniform(24, n - 24, size=2)
        width = rng.uniform(1.5, 4.0)
        image += rng.uniform(0.5, 1.5) * np.exp(
            -((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * width**2))
    freq = np.fft.fftfreq(n)
    kernel = np.exp(-2.0 * (np.pi * 2.0) ** 2 * (freq[:, None] ** 2 + freq[None, :] ** 2))
    blurred = np.maximum(np.fft.ifft2(np.fft.fft2(image) * kernel).real, 0.0)
    peak_photons = 1000.0
    counts = rng.poisson(blurred / blurred.max() * peak_photons)
    return counts / peak_photons


class Wavelet:
    """CLI solve in db2:3 wavelet coefficients at p = 1.5, no zero padding."""

    name = "wavelet"
    layers = ("operators", "shrinkage", "transforms", "solver", "gridio", "cli")
    iterations = 60
    mu = 1e-3
    levels = 3
    pad = 256
    radius_fraction = 0.3
    setup = ("K = sparseland.conjugated_operator(\n"
             "    sparseland.Convolution2DOperator((256, 256), (256, 256), 0.3),\n"
             "    sparseland.WaveletSpec('db2', 3))\n"
             "K.adjoint(K.apply(np.zeros(256 * 256)))")

    def prepare(self, seed, root):
        self.root = root
        self.data = blurred_sources(seed)
        self.data_path = root / "wavelet-data.grid"
        checks.write_grid(self.data_path, self.data)

    def argv(self, out):
        return ["solve", "--operator", "convolution", "--data", str(self.data_path),
                "--pad", str(self.pad), "--radius-fraction", str(self.radius_fraction),
                "--wavelet", f"db2:{self.levels}", "--besov-s", "1", "--p", "1.5",
                "--mu", repr(self.mu), "--iterations", str(self.iterations),
                "--step-tolerance", "0", "--output-dir", str(out)]

    def run(self, batch, tracer):
        import sparseland.cli

        out = self.root / f"wavelet-{batch}"
        stdout = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                code = tracer.span("cli.main", sparseland.cli.main, self.argv(out))
        except Exception as exc:
            return Batch(perf_counter() - t0, 0, [], 1, [[f"cli.main raised {exc!r}"]])
        wall = perf_counter() - t0
        _, iterations = _solve_spans(tracer, batch)
        if code != 0:
            return Batch(wall, iterations, [wall], 1, [[f"cli.main returned {code}"]])
        summary = json.loads(stdout.getvalue().strip().splitlines()[-1])
        fails = checks.check_wavelet_dir(out, self.data, summary, self.iterations,
                                         self.levels, self.pad, self.radius_fraction)
        return Batch(wall, iterations, [wall], 1, [fails] if fails else [], capped=1)

    def corruptions(self, batch):
        out = self.root / f"wavelet-{batch}"
        trace = checks.read_trace(out / "trace.csv")
        rising = trace["objective"].copy()
        rising[-1] = rising[-2] * 1.001
        coeffs = checks.read_grid(out / "solution_coefficients.grid").ravel()
        pixels = checks.read_grid(out / "solution.grid")
        return {
            "trace with one increase": checks.check_trace_monotone(rising, "wavelet"),
            "solution shifted by 1e-3": checks.check_synthesis(
                coeffs, pixels + 1e-3, self.levels),
        }

    def discard(self, batch):
        shutil.rmtree(self.root / f"wavelet-{batch}", ignore_errors=True)


class SmallDense:
    """160 solves on 20 x 20 dense operators: criterion 1's pattern."""

    name = "small_dense"
    layers = ("operators", "shrinkage", "solver")
    # at least 100 solves so that ten samples lie beyond the p90; 40
    # matrices because iteration counts vary with each matrix's
    # conditioning, and the median over 25 moved 14% from seed to seed
    matrices = 40
    solves = ((2.0, 1e-3), (2.0, 1e-1), (1.0, 1e-2), (1.5, 1e-2))
    max_iterations = 10000
    setup = ""

    def prepare(self, seed, root):
        self.problems = []
        for i in range(self.matrices):
            rng = np.random.default_rng([seed, i])
            M = rng.normal(size=(20, 20))
            A = 0.9 * M / np.linalg.norm(M, 2)
            self.problems.append((A, A @ rng.normal(size=20)))
        self.kept = None

    def run(self, batch, tracer):
        import sparseland

        latencies, failures, iterations = [], [], 0
        answers = []
        t_batch = perf_counter()
        for A, g in self.problems:
            for p, mu in self.solves:
                t0 = perf_counter()
                try:
                    K = sparseland.DenseOperator(A)
                    spec = sparseland.PenaltySpec.uniform(p=p, mu=mu, n=20)
                    config = sparseland.SolverConfig(
                        max_iterations=self.max_iterations, step_tolerance=1e-9)
                    result = sparseland.solve(g, K, spec, config)
                except Exception as exc:
                    latencies.append(perf_counter() - t0)
                    failures.append([f"p={p:g} mu={mu:g}: solve raised {exc!r}"])
                    continue
                latencies.append(perf_counter() - t0)
                iterations += result.iterations
                answers.append((A, g, mu, p, result.minimizer.values, result.status,
                                result.iterations, result.trace.objectives))
        wall = perf_counter() - t_batch
        for A, g, mu, p, f, status, its, objectives in answers:
            fails = checks.check_dense_solve(A, g, mu, p, f, status, its,
                                             self.max_iterations, objectives)
            if fails:
                failures.append(fails)
        capped = [a for a in answers if a[5] == "max_iterations"]
        if self.kept is None:
            # one solve of each kind, and one that ran into the cap
            self.kept = answers[: len(self.solves)] + capped[:1]
        return Batch(wall, iterations, latencies, len(latencies), failures, len(capped))

    def corruptions(self, batch):
        return {
            f"p={p:g} mu={mu:g} {status} minimizer shifted by 1e-3":
                checks.check_dense_solve(A, g, mu, p, f + 1e-3, status, its,
                                         self.max_iterations, objectives)
            for A, g, mu, p, f, status, its, objectives in self.kept
        }

    def discard(self, batch):
        pass


WORKLOADS = {w.name: w for w in (Imaging, Wavelet, SmallDense)}
