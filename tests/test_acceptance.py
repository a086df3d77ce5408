"""Acceptance gate: nine numbered criteria, one pass/fail line each.

Each test prints ``criterion N: PASS/FAIL (details)`` before asserting,
and the same lines are echoed in the terminal summary. Criteria:

1. quadratic-penalty solves match the direct normal-equations solution;
2. p=1 diagonal solves match the soft spectral cutoff closed form;
3. solver argmin matches a brute-force grid search on 2-d instances;
4. bulk shrinkage properties (non-expansive, bounded move, exact inverse);
5. every solve descends, has bounded step energy, small final residual;
6. p=2 step norms contract at least as fast as 1/(1+mu);
7. wavelet perfect reconstruction and energy preservation;
8. balanced-multiplier sweep improves with the noise level, the lower
   error bound is attained by a feasible point, and no feasible point
   exceeds the upper bound;
9. the default imaging experiment resolves the close pair under the
   sparsity penalty within the time budget.
"""

import time

import numpy as np

from sparseland.core import PenaltySpec, WeightSequence
from sparseland.experiment import (
    ExperimentConfig,
    count_profile_peaks,
    run_experiment,
)
from sparseland.operators import (
    DenseOperator,
    DiagonalOperator,
    SvdModel,
    thresholded_svd_solve,
)
from sparseland.regularization import (
    NoisePrior,
    SpectralEnvelope,
    modulus_bounds,
)
from sparseland.shrinkage import shrink_p
from sparseland.solver import SolverConfig, solve
from sparseland.transforms import WaveletSpec, dwt, idwt

RESULTS = []


def _report(number: int, ok: bool, detail: str):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})"
    RESULTS.append(line)
    print(line)


def test_criterion_1_quadratic_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(1000, 1025):
        rng = np.random.default_rng(seed)
        M = rng.normal(size=(20, 20))
        A = 0.9 * M / np.linalg.norm(M, 2)
        f_true = rng.normal(size=20)
        g = A @ f_true
        for mu in (1e-3, 1e-1):
            direct = np.linalg.solve(A.T @ A + mu * np.eye(20), A.T @ g)
            res = solve(g, DenseOperator(A),
                        PenaltySpec.uniform(p=2.0, mu=mu, n=20),
                        SolverConfig(max_iterations=10000, step_tolerance=1e-9))
            rel = (np.linalg.norm(res.minimizer.values - direct)
                   / np.linalg.norm(direct))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    _report(1, ok, f"25 seeds x 2 multipliers, worst rel err {worst:.2e} "
                   f"<= 1e-06, {elapsed:.1f}s < 10s")
    assert ok


def test_criterion_2_soft_spectral_cutoff():
    rng = np.random.default_rng(2)
    sigma = np.sort(rng.uniform(0.05, 0.9, 50))[::-1].copy()
    g = rng.normal(size=50)
    mu = 0.02
    model = SvdModel(sigma)
    direct = thresholded_svd_solve(model, g, mu)
    res = solve(g, DiagonalOperator(sigma),
                PenaltySpec.uniform(p=1.0, mu=mu, n=50),
                SolverConfig(max_iterations=30000, step_tolerance=0.0))
    worst = float(np.max(np.abs(res.minimizer.values - direct.values)))
    ok = worst <= 1e-8
    _report(2, ok, f"50 singular values, worst abs err {worst:.2e} <= 1e-08")
    assert ok


def _objective_grid_argmin(A, g, mu, p, center, half, spacing):
    """Argmin of the objective over a square grid; flags interior hits."""
    k = int(np.ceil(half / spacing))
    offsets = np.arange(-k, k + 1) * spacing
    ax0 = center[0] + offsets
    ax1 = center[1] + offsets
    F0, F1 = np.meshgrid(ax0, ax1, indexing="ij")
    points = np.stack([F0.ravel(), F1.ravel()])
    residual = A @ points - g[:, None]
    values = np.sum(residual**2, axis=0) + mu * np.sum(
        np.abs(points) ** p, axis=0
    )
    i = int(np.argmin(values))
    i0, i1 = divmod(i, ax1.size)
    interior = (0 < i0 < ax0.size - 1) and (0 < i1 < ax1.size - 1)
    return np.array([ax0[i0], ax1[i1]]), interior


def _brute_force_argmin(A, g, mu, p, radius):
    """Zooming grid search down to spacing 1e-3 inside |f|_2 <= radius.

    Any minimizer satisfies Phi(f) <= Phi(0) = |g|^2, which confines it
    to that ball, so the outermost window always contains the target;
    interior argmin at every stage certifies the zoom never clipped it.
    """
    center = np.zeros(2)
    spacing = radius / 20.0
    half = radius
    while True:
        point, interior = _objective_grid_argmin(A, g, mu, p, center, half,
                                                 spacing)
        if not interior:
            half *= 2.0
            continue
        if spacing <= 1e-3:
            return point
        center = point
        half = 4.0 * spacing
        spacing = max(spacing / 8.0, 1e-3)


def test_criterion_3_brute_force_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    done = 0
    while done < 200:
        m = int(rng.integers(2, 4))
        M = rng.normal(size=(m, 2))
        A = 0.9 * M / np.linalg.svd(M, compute_uv=False)[0]
        smin = float(np.linalg.svd(A, compute_uv=False)[-1])
        if smin < 0.15:
            continue  # keep the search box reasonably small
        g = rng.normal(size=m)
        mu = float(rng.uniform(0.01, 0.3))
        p = (1.0, 1.5, 2.0)[done % 3]
        res = solve(g, DenseOperator(A), PenaltySpec.uniform(p=p, mu=mu, n=2),
                    SolverConfig(max_iterations=20000, step_tolerance=1e-12))
        oracle = _brute_force_argmin(A, g, mu, p,
                                     2.0 * np.linalg.norm(g) / smin)
        worst = max(worst, float(np.linalg.norm(res.minimizer.values - oracle)))
        done += 1
    ok = worst <= 2e-3
    _report(3, ok, f"200 instances, p cycling (1, 1.5, 2), worst distance "
                   f"{worst:.2e} <= 2e-03 at grid spacing 1e-3")
    assert ok


def test_criterion_4_shrinkage_properties():
    rng = np.random.default_rng(11)
    samples = 0
    worst_identity = 0.0
    worst_expand = 0.0
    worst_move = 0.0
    # every sixth draw takes p = 3/2 exactly, the closed-form root
    for k in range(120):
        p = 1.5 if k % 6 == 5 else float(rng.uniform(1.05, 1.95))
        w = float(10.0 ** rng.uniform(-2.0, 1.0))
        a = 0.5 * w * p
        x = np.sign(rng.normal(size=200)) * 10.0 ** rng.uniform(-6, 2, 200)
        s = shrink_p(x, w, p)
        # inverse: y -> y + a sign(y) |y|^(p-1) applied to the output
        back = s + a * np.sign(s) * np.abs(s) ** (p - 1.0)
        worst_identity = max(worst_identity,
                             float(np.max(np.abs(back - x) / (1.0 + np.abs(x)))))
        # non-expansive on pairs
        x2 = rng.permutation(x)
        s2 = shrink_p(x2, w, p)
        gap = np.abs(x - x2)
        excess = np.abs(s - s2) - gap - 1e-12 * (1.0 + gap)
        worst_expand = max(worst_expand, float(np.max(excess)))
        # the move is bounded by a |x|^(p-1)
        move = np.abs(s - x) - a * np.abs(x) ** (p - 1.0) * (1.0 + 1e-12)
        worst_move = max(worst_move, float(np.max(move)))
        samples += x.size
    ok = (samples >= 10000 and worst_identity <= 1e-10
          and worst_expand <= 0.0 and worst_move <= 1e-15)
    _report(4, ok, f"{samples} samples per property (p = 1.5 in 20 of 120 "
                   f"draws), inverse defect "
                   f"{worst_identity:.2e} <= 1e-10, expansion excess "
                   f"{worst_expand:.2e}, move excess {worst_move:.2e}")
    assert ok


def _solve_battery():
    rng = np.random.default_rng(5)
    battery = []
    for p in (1.0, 1.5, 2.0):
        M = rng.normal(size=(15, 12))
        A = 0.9 * M / np.linalg.norm(M, 2)
        g = rng.normal(size=15)
        battery.append((DenseOperator(A), g,
                        PenaltySpec.uniform(p=p, mu=0.05, n=12)))
    sigma = rng.uniform(0.1, 0.9, 30)
    w = WeightSequence(rng.uniform(0.5, 3.0, 30))
    battery.append((DiagonalOperator(sigma), rng.normal(size=30),
                    PenaltySpec(p=1.0, weights=w, mu=0.02)))
    Mc = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
    Ac = 0.9 * Mc / np.linalg.norm(Mc, 2)
    gc = rng.normal(size=10) + 1j * rng.normal(size=10)
    battery.append((DenseOperator(Ac), gc,
                    PenaltySpec.uniform(p=1.5, mu=0.03, n=10)))
    wa = WeightSequence.uniform(8)
    battery.append((DiagonalOperator(rng.uniform(0.2, 0.9, 8)),
                    rng.normal(size=8),
                    PenaltySpec(p=1.0, weights=wa, mu=0.05,
                                asymmetric=(np.full(8, 1.0), np.full(8, 3.0)))))
    return battery


def test_criterion_5_descent_and_residuals():
    tol = 1e-8
    checked = 0
    worst_rise = -np.inf
    worst_energy = 0.0
    worst_residual = 0.0
    for K, g, spec in _solve_battery():
        res = solve(g, K, spec, SolverConfig(max_iterations=50000,
                                             step_tolerance=tol))
        assert res.status == "converged_step"
        obj = res.trace.objectives
        rise = float(np.max(np.diff(obj) - 1e-12 * (1.0 + np.abs(obj[:-1]))))
        worst_rise = max(worst_rise, rise)
        energy = float(np.sum(res.trace.step_norms**2))
        budget = float(obj[0]) / (1.0 - K.norm_bound**2)
        worst_energy = max(worst_energy, energy / budget)
        # started from zero, so the step threshold is tol * 1
        worst_residual = max(worst_residual, res.fixed_point_residual / tol)
        checked += 1
    ok = worst_rise <= 0.0 and worst_energy <= 1.0 and worst_residual <= 10.0
    _report(5, ok, f"{checked} solves, max objective rise {worst_rise:.2e}, "
                   f"step energy <= {worst_energy:.3f} of budget, final "
                   f"residual <= {worst_residual:.2f}x step tolerance")
    assert ok


def test_criterion_6_quadratic_contraction():
    rng = np.random.default_rng(6)
    worst_margin = -np.inf
    checked = 0
    for mu in (1e-3, 0.05, 0.5):
        M = rng.normal(size=(16, 16))
        A = 0.9 * M / np.linalg.norm(M, 2)
        configs = [
            (DenseOperator(A), rng.normal(size=16)),
            (DiagonalOperator(rng.uniform(0.05, 0.9, 25)), rng.normal(size=25)),
        ]
        for K, g in configs:
            res = solve(g, K, PenaltySpec.uniform(p=2.0, mu=mu, n=g.size),
                        SolverConfig(max_iterations=400, step_tolerance=0.0))
            steps = res.trace.step_norms
            keep = steps[:-1] > 1e-13 * (1.0 + np.linalg.norm(g))
            ratios = steps[1:][keep] / steps[:-1][keep]
            bound = 1.0 / (1.0 + mu) + 1e-10
            worst_margin = max(worst_margin, float(np.max(ratios - bound)))
            checked += ratios.size
    ok = worst_margin <= 0.0
    _report(6, ok, f"{checked} consecutive step ratios, worst excess over "
                   f"1/(1+mu): {worst_margin:.2e}")
    assert ok


def test_criterion_7_wavelet_reconstruction():
    rng = np.random.default_rng(77)
    worst_pr = 0.0
    worst_energy = 0.0
    cases = 0
    for family in ("haar", "db2", "db3", "db4"):
        signals = [(rng.normal(size=64), WaveletSpec(family, 3)),
                   (rng.normal(size=256), WaveletSpec(family, 4)),
                   (rng.normal(size=1024), WaveletSpec(family, 5)),
                   (rng.normal(size=(64, 64)), WaveletSpec(family, 3))]
        for x, spec in signals:
            coeffs = dwt(x, spec)
            back = idwt(coeffs)
            worst_pr = max(worst_pr, float(np.max(np.abs(back - x))))
            energy_in = float(np.sum(x * x))
            energy_out = float(np.sum(coeffs.values**2))
            worst_energy = max(worst_energy,
                               abs(energy_out - energy_in) / energy_in)
            cases += 1
    ok = worst_pr <= 1e-10 and worst_energy <= 1e-10
    _report(7, ok, f"{cases} transforms (4 families, up to 1024 samples and "
                   f"64x64), reconstruction {worst_pr:.2e}, energy drift "
                   f"{worst_energy:.2e}")
    assert ok


def test_criterion_8_multiplier_sweep_and_modulus():
    # balanced multiplier against a halving noise level on one diagonal
    # instance; the reconstruction error must track the noise downward
    rng = np.random.default_rng(42)
    n = 40
    sigma = rng.uniform(0.3, 0.9, n)
    K = DiagonalOperator(sigma)
    f_true = np.zeros(n)
    support = rng.choice(n, 6, replace=False)
    f_true[support] = rng.uniform(0.5, 2.0, 6)
    rho = float(np.abs(f_true).sum())
    direction = rng.normal(size=n)
    direction /= np.linalg.norm(direction)
    clean = K.apply(f_true)
    errors = []
    for eps in (0.4, 0.2, 0.1, 0.05, 0.025):
        mu = eps**2 / rho
        res = solve(clean + eps * direction, K,
                    PenaltySpec.uniform(p=1.0, mu=mu, n=n),
                    SolverConfig(max_iterations=4000, step_tolerance=0.0))
        errors.append(float(np.linalg.norm(res.minimizer.values - f_true)))
    monotone = all(errors[i + 1] <= errors[i] * (1.0 + 1e-9)
                   for i in range(len(errors) - 1))

    # feasible means ||diag(sqrt(b)) h|| <= eps and (sum w |h|^p)^(1/p) <= rho
    # (b == B: a diagonal operator); these ratios are the two left sides
    # over their radii, one row of H per candidate vector
    def constraint_ratios(H, b, w, p, noise):
        data = np.linalg.norm(np.sqrt(b) * H, axis=1) / noise.epsilon
        prior = np.sum(w * np.abs(H) ** p, axis=1) ** (1.0 / p) / noise.rho
        return data, prior

    witnessed = True
    worst_high = 0.0
    n_points = 0
    for seed in range(50):
        erng = np.random.default_rng(3000 + seed)
        m = int(erng.integers(2, 12))
        b = erng.uniform(0.02, 1.0, m)
        env = SpectralEnvelope(b, b)
        w = WeightSequence(erng.uniform(0.1, 8.0, m))
        p = (1.0, 1.5, 2.0)[seed % 3]
        noise = NoisePrior(float(erng.uniform(0.01, 0.5)),
                           float(erng.uniform(0.5, 3.0)))
        lower, upper = modulus_bounds(env, w, p, noise)
        # the lower bound claims a feasible single-component vector of
        # norm `lower`: some lower * e_gamma must meet both constraints
        data, prior = constraint_ratios(lower * np.eye(m), b, w.w, p, noise)
        witnessed = witnessed and bool(np.any((data <= 1.0 + 1e-9)
                                              & (prior <= 1.0 + 1e-9)))
        # the upper bound must dominate every feasible point: unit vectors,
        # random dense vectors and random two-component vectors, each
        # scaled onto the tighter of the two constraints
        rows = np.arange(200)
        pairs = np.zeros((200, m))
        pairs[rows, erng.integers(0, m, 200)] = erng.normal(size=200)
        pairs[rows, erng.integers(0, m, 200)] += erng.normal(size=200)
        V = np.vstack([np.eye(m), erng.normal(size=(200, m)), pairs])
        data, prior = constraint_ratios(V, b, w.w, p, noise)
        feasible = np.linalg.norm(V, axis=1) / np.maximum(data, prior)
        worst_high = max(worst_high, float(feasible.max()) - upper * (1.0 + 1e-9))
        n_points += V.shape[0]
    dominated = worst_high <= 0.0
    ok = monotone and witnessed and dominated
    _report(8, ok, "errors " + " -> ".join(f"{e:.3f}" for e in errors)
                   + f" nonincreasing: {monotone}; 50 envelopes: lower bound "
                   f"attained by a feasible point: {witnessed}; {n_points} "
                   f"feasible points <= upper: {dominated}")
    assert ok


def test_criterion_9_imaging_pipeline():
    t0 = time.perf_counter()
    result = run_experiment(ExperimentConfig())
    elapsed = time.perf_counter() - t0
    window = result.pair_window()
    l1_peaks = count_profile_peaks(result.profiles["horizontal"]["l1"], window)
    blurred_peaks = count_profile_peaks(
        result.profiles["horizontal"]["blurred"], window)
    projected_ok = all(result.reconstructions[name].min() >= 0.0
                       for name in ("l1_nonneg", "l2_nonneg"))
    monotone_ok = all(
        bool(np.all(np.diff(res.trace.objectives)
                    <= 1e-12 * (1.0 + np.abs(res.trace.objectives[:-1]))))
        for res in result.results.values()
    )
    ok = (elapsed < 300.0 and l1_peaks == 2 and blurred_peaks == 1
          and projected_ok and monotone_ok)
    _report(9, ok, f"{elapsed:.0f}s < 300s, sparse recon peaks {l1_peaks} "
                   f"(want 2) vs blurred {blurred_peaks} (want 1), projected "
                   f"nonnegative: {projected_ok}, traces monotone: {monotone_ok}")
    assert ok
