"""Iteration loop: descent, contracts, stopping rules, projection."""

import numpy as np
import pytest

from sparseland.core import PenaltySpec, WeightSequence, objective, surrogate_objective
from sparseland.errors import (
    AlignmentError,
    ContractViolationError,
    DescentViolationError,
    ParameterError,
)
from sparseland.operators import Convolution2DOperator, DenseOperator, DiagonalOperator
from sparseland.solver import (
    SolverConfig,
    fixed_point_residual,
    iterate_step,
    solve,
)


def random_contraction(rng, n, norm=0.9):
    M = rng.normal(size=(n, n))
    M *= norm / np.linalg.norm(M, 2)
    return DenseOperator(M)


class CountingDiagonal(DiagonalOperator):
    """Diagonal operator that counts its apply and adjoint calls."""

    def __init__(self, entries):
        super().__init__(entries)
        self.applies = 0
        self.adjoints = 0

    def apply(self, f):
        self.applies += 1
        return super().apply(f)

    def adjoint(self, g):
        self.adjoints += 1
        return super().adjoint(g)


class TestSteps:
    def test_iterate_step_p2_closed_form(self):
        # shrinkage at p=2 divides by 1 + mu*w
        K = DiagonalOperator(np.array([0.5]))
        spec = PenaltySpec.uniform(p=2.0, mu=1.0, n=1)
        out = iterate_step(np.array([1.0]), np.array([1.0]), K, spec)
        assert out.values[0] == pytest.approx(1.25 / 2.0, rel=1e-14)

    def test_iterate_step_p1_soft_threshold(self):
        K = DiagonalOperator(np.array([0.5]))
        spec = PenaltySpec.uniform(p=1.0, mu=0.4, n=1)
        # landweber value 1.25, threshold mu/2 = 0.2
        out = iterate_step(np.array([1.0]), np.array([1.0]), K, spec)
        assert out.values[0] == pytest.approx(1.05, rel=1e-14)

    def test_iterate_step_approaches_landweber_for_tiny_mu(self):
        rng = np.random.default_rng(0)
        K = random_contraction(rng, 6)
        f = rng.normal(size=6)
        g = rng.normal(size=6)
        spec = PenaltySpec.uniform(p=2.0, mu=1e-14, n=6)
        lw = f + K.adjoint(g - K.apply(f))
        it = iterate_step(f, g, K, spec)
        np.testing.assert_allclose(it.values, lw, rtol=1e-10)

    def test_iterate_step_requires_contraction(self):
        K = DiagonalOperator(np.array([1.5]))
        spec = PenaltySpec.uniform(p=1.0, mu=0.1, n=1)
        with pytest.raises(ContractViolationError):
            iterate_step(np.array([0.0]), np.array([1.0]), K, spec)

    def test_one_apply_and_adjoint_per_iteration(self):
        # the initial residual costs one apply; the final fixed-point
        # residual reuses the last residual and costs one adjoint
        K = CountingDiagonal(np.array([0.5, 0.25, 0.8]))
        spec = PenaltySpec.uniform(p=1.5, mu=0.1, n=3)
        n = 7
        res = solve(np.ones(3), K, spec,
                    SolverConfig(max_iterations=n, step_tolerance=0.0))
        assert res.iterations == n
        assert (K.applies, K.adjoints) == (n + 1, n + 1)

    def test_nonexpansive_iteration_map(self):
        # two runs started apart never move further apart
        rng = np.random.default_rng(1)
        K = random_contraction(rng, 8)
        g = rng.normal(size=8)
        spec = PenaltySpec.uniform(p=1.3, mu=0.2, n=8)
        f = rng.normal(size=8)
        f_tilde = rng.normal(size=8)
        dist = np.linalg.norm(f - f_tilde)
        for _ in range(60):
            f = iterate_step(f, g, K, spec).values
            f_tilde = iterate_step(f_tilde, g, K, spec).values
            new_dist = np.linalg.norm(f - f_tilde)
            assert new_dist <= dist * (1.0 + 1e-12)
            dist = new_dist


class TestDescent:
    def test_objective_never_increases(self):
        rng = np.random.default_rng(2)
        for p in (1.0, 1.5, 2.0):
            K = random_contraction(rng, 10)
            g = rng.normal(size=10)
            spec = PenaltySpec.uniform(p=p, mu=0.3, n=10)
            res = solve(g, K, spec, SolverConfig(max_iterations=200, step_tolerance=0.0))
            obj = res.trace.objectives
            assert np.all(np.diff(obj) <= 1e-12 * (1.0 + np.abs(obj[:-1])))

    @pytest.mark.parametrize("case", ["p1", "p1.5", "p2", "nonnegative",
                                      "asymmetric", "complex"])
    def test_surrogate_sandwich(self, case):
        # objectives[k+1] <= surrogates[k] <= objectives[k], and the loop's
        # surrogate is the reference surrogate_objective(f_{k+1}, f_k)
        rng = np.random.default_rng(3)
        K = random_contraction(rng, 8)
        g = rng.normal(size=8)
        p = {"p1": 1.0, "p2": 2.0}.get(case, 1.5)
        spec = PenaltySpec.uniform(p=p, mu=0.5, n=8)
        projection = "nonnegative" if case == "nonnegative" else None
        if case == "asymmetric":
            spec = PenaltySpec(p=p, weights=WeightSequence.uniform(8), mu=0.5,
                               asymmetric=(np.full(8, 0.5), np.full(8, 3.0)))
        if case == "complex":
            M = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            K = DenseOperator(M * 0.9 / np.linalg.norm(M, 2))
            g = g + 1j * rng.normal(size=8)
        config = SolverConfig(max_iterations=100, step_tolerance=0.0,
                              projection=projection)
        res = solve(g, K, spec, config)
        t = res.trace
        slack = 1e-10 * (1.0 + np.abs(t.objectives[:-1]))
        assert np.all(t.objectives[1:] <= t.surrogates + slack)
        assert np.all(t.surrogates <= t.objectives[:-1] + slack)

        f = np.zeros(8, dtype=res.minimizer.values.dtype)
        for k in range(res.iterations):
            f_next = iterate_step(f, g, K, spec, config).values
            reference = surrogate_objective(f_next, f, g, K, spec)
            assert t.surrogates[k] == pytest.approx(reference, rel=1e-12)
            f = f_next
        np.testing.assert_array_equal(f, res.minimizer.values)

    def test_sum_squared_steps_bounded(self):
        # sum ||f_{n+1} - f_n||^2 <= Phi(f0) / (1 - norm_bound^2)
        rng = np.random.default_rng(4)
        K = random_contraction(rng, 12, norm=0.8)
        g = rng.normal(size=12)
        spec = PenaltySpec.uniform(p=1.0, mu=0.05, n=12)
        f0 = rng.normal(size=12)
        res = solve(g, K, spec,
                    SolverConfig(max_iterations=500, step_tolerance=0.0), f0=f0)
        bound = objective(f0, g, K, spec).total / (1.0 - K.norm_bound**2)
        assert res.trace.sum_squared_steps() <= bound * (1.0 + 1e-12)

    def test_broken_norm_certificate_detected(self):
        # operator of true norm 1.5 sold with a 0.9 certificate: the
        # iteration inflates the objective and the solver must abort
        class Understated(DenseOperator):
            def __init__(self, matrix):
                super().__init__(matrix)
                self.norm_bound = 0.9

        K = Understated(1.5 * np.eye(2))
        spec = PenaltySpec.uniform(p=1.0, mu=0.1, n=2)
        with pytest.raises(DescentViolationError):
            solve(np.array([1.0, -1.0]), K, spec,
                  SolverConfig(max_iterations=50, step_tolerance=0.0))


class TestStopping:
    def test_step_tolerance_status(self):
        K = DiagonalOperator(np.array([0.5, 0.5]))
        spec = PenaltySpec.uniform(p=2.0, mu=0.5, n=2)
        res = solve(np.ones(2), K, spec,
                    SolverConfig(max_iterations=10000, step_tolerance=1e-10))
        assert res.status == "converged_step"
        assert res.iterations < 10000
        assert len(res.trace) == res.iterations

    def test_max_iterations_status(self):
        K = DiagonalOperator(np.array([0.5]))
        spec = PenaltySpec.uniform(p=2.0, mu=0.5, n=1)
        res = solve(np.ones(1), K, spec,
                    SolverConfig(max_iterations=3, step_tolerance=0.0))
        assert res.status == "max_iterations"
        assert res.iterations == 3

    def test_residual_small_after_step_convergence(self):
        rng = np.random.default_rng(5)
        K = random_contraction(rng, 6)
        g = rng.normal(size=6)
        spec = PenaltySpec.uniform(p=1.0, mu=0.1, n=6)
        tol = 1e-9
        res = solve(g, K, spec, SolverConfig(step_tolerance=tol))
        threshold = tol * (np.linalg.norm(np.zeros(6)) + 1.0)
        assert res.fixed_point_residual <= 10.0 * threshold

    def test_residual_trend_decreases(self):
        rng = np.random.default_rng(6)
        K = random_contraction(rng, 6)
        g = rng.normal(size=6)
        spec = PenaltySpec.uniform(p=1.5, mu=0.2, n=6)
        f = np.zeros(6)
        residuals = []
        for _ in range(40):
            residuals.append(fixed_point_residual(f, g, K, spec))
            f = iterate_step(f, g, K, spec).values
        # nonexpansivity makes the residual (= step norm) nonincreasing
        assert all(b <= a * (1.0 + 1e-12) + 1e-15 for a, b in zip(residuals, residuals[1:]))


class TestFixedPoint:
    def test_zero_at_minimizer(self):
        # p=1 diagonal problem has a closed-form minimizer
        from sparseland.operators import SvdModel, thresholded_svd_solve

        sigma = np.array([0.9, 0.7, 0.4])
        g = np.array([1.0, -0.5, 2.0])
        mu = 0.2
        f_star = thresholded_svd_solve(SvdModel(sigma), g, mu).values
        spec = PenaltySpec.uniform(p=1.0, mu=mu, n=3)
        assert fixed_point_residual(f_star, g, DiagonalOperator(sigma), spec) < 1e-14

    def test_positive_away_from_minimizer(self):
        spec = PenaltySpec.uniform(p=1.0, mu=0.2, n=1)
        K = DiagonalOperator(np.array([0.9]))
        assert fixed_point_residual(np.array([5.0]), np.array([0.1]), K, spec) > 0.1

    def test_validates_like_iterate_step(self):
        # a length-1 data vector or spec must not broadcast against n = 3
        K = DiagonalOperator(np.array([0.5, 0.25, 0.8]))
        f = np.ones(3)
        spec = PenaltySpec.uniform(p=1.0, mu=0.1, n=3)
        for g, sp in ((np.ones(1), spec),
                      (np.ones(3), PenaltySpec.uniform(p=1.0, mu=0.1, n=1))):
            with pytest.raises(AlignmentError):
                iterate_step(f, g, K, sp)
            with pytest.raises(AlignmentError):
                fixed_point_residual(f, g, K, sp)
        with pytest.raises(ContractViolationError):
            fixed_point_residual(f, np.ones(3), DiagonalOperator(np.full(3, 1.5)), spec)


class TestProjection:
    def test_nonnegative_iterates(self):
        rng = np.random.default_rng(8)
        K = random_contraction(rng, 6)
        g = rng.normal(size=6)
        spec = PenaltySpec.uniform(p=1.0, mu=0.05, n=6)
        res = solve(g, K, spec,
                    SolverConfig(max_iterations=300, step_tolerance=0.0,
                                 projection="nonnegative"))
        assert np.all(res.minimizer.values >= 0.0)
        obj = res.trace.objectives
        assert np.all(np.diff(obj) <= 1e-12 * (1.0 + np.abs(obj[:-1])))

    def test_rejects_complex(self):
        K = DiagonalOperator(np.array([0.5j]))
        spec = PenaltySpec.uniform(p=1.0, mu=0.1, n=1)
        with pytest.raises(ParameterError):
            solve(np.array([1.0 + 0j]), K, spec,
                  SolverConfig(projection="nonnegative"))

    def test_unknown_projection_rejected(self):
        with pytest.raises(ParameterError):
            SolverConfig(projection="clip")


class TestComplexAndAsymmetric:
    def test_complex_p2_closed_form(self):
        sigma = np.array([0.5 + 0.5j, 0.3 - 0.1j])
        K = DiagonalOperator(sigma)
        g = np.array([1.0 + 2.0j, -1.0 + 0.5j])
        mu = 0.3
        spec = PenaltySpec.uniform(p=2.0, mu=mu, n=2)
        res = solve(g, K, spec, SolverConfig(max_iterations=20000, step_tolerance=0.0))
        expected = np.conj(sigma) * g / (np.abs(sigma) ** 2 + mu)
        np.testing.assert_allclose(res.minimizer.values, expected, atol=1e-12)

    def test_complex_descent(self):
        rng = np.random.default_rng(9)
        M = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        M *= 0.9 / np.linalg.norm(M, 2)
        K = DenseOperator(M)
        g = rng.normal(size=5) + 1j * rng.normal(size=5)
        spec = PenaltySpec.uniform(p=1.2, mu=0.2, n=5)
        res = solve(g, K, spec, SolverConfig(max_iterations=150, step_tolerance=0.0))
        assert res.minimizer.is_complex
        obj = res.trace.objectives
        assert np.all(np.diff(obj) <= 1e-12 * (1.0 + np.abs(obj[:-1])))

    def test_asymmetric_rejects_complex(self):
        K = DiagonalOperator(np.array([0.5 + 0.5j, 0.3]))
        w = WeightSequence.uniform(2)
        spec = PenaltySpec(p=1.0, weights=w, mu=0.1,
                           asymmetric=(np.full(2, 1.0), np.full(2, 2.0)))
        g = np.array([1.0, -1.0])
        with pytest.raises(ParameterError, match="asymmetric"):
            solve(g, K, spec)
        with pytest.raises(ParameterError, match="asymmetric"):
            iterate_step(np.zeros(2), g, K, spec)

    def test_asymmetric_one_sided_minimizer(self):
        sigma = 0.9
        K = DiagonalOperator(np.array([sigma, sigma]))
        g = np.array([2.0, -2.0])
        mu = 0.1
        w = WeightSequence.uniform(2)
        spec = PenaltySpec(p=1.0, weights=w, mu=mu,
                           asymmetric=(np.full(2, 4.0), np.full(2, 8.0)))
        res = solve(g, K, spec, SolverConfig(max_iterations=20000, step_tolerance=0.0))
        # stationarity: f = (sigma g -+ mu w_pm / 2) / sigma^2 on each side
        expected = np.array([
            (sigma * 2.0 - mu * 4.0 / 2.0) / sigma**2,
            (sigma * -2.0 + mu * 8.0 / 2.0) / sigma**2,
        ])
        np.testing.assert_allclose(res.minimizer.values, expected, atol=1e-12)


class TestTraceAndConfig:
    def test_trace_lengths(self):
        K = DiagonalOperator(np.array([0.5]))
        spec = PenaltySpec.uniform(p=2.0, mu=0.5, n=1)
        res = solve(np.ones(1), K, spec,
                    SolverConfig(max_iterations=7, step_tolerance=0.0))
        t = res.trace
        assert len(t.objectives) == 8
        assert len(t.discrepancies) == 8
        assert len(t.penalties) == 8
        assert len(t.step_norms) == 7
        assert len(t.surrogates) == 7
        assert len(t.wall_times) == 7

    def test_f0_used_and_checked(self):
        K = DiagonalOperator(np.array([0.5]))
        spec = PenaltySpec.uniform(p=2.0, mu=0.5, n=1)
        res = solve(np.zeros(1), K, spec,
                    SolverConfig(max_iterations=1, step_tolerance=0.0),
                    f0=np.array([4.0]))
        assert res.trace.objectives[0] == pytest.approx(4.0 + 8.0)
        with pytest.raises(AlignmentError):
            solve(np.zeros(1), K, spec, f0=np.ones(2))

    def test_alignment_checks(self):
        K = DiagonalOperator(np.array([0.5, 0.5]))
        with pytest.raises(AlignmentError):
            solve(np.ones(2), K, PenaltySpec.uniform(p=1.0, mu=0.1, n=3))
        with pytest.raises(AlignmentError):
            solve(np.ones(3), K, PenaltySpec.uniform(p=1.0, mu=0.1, n=2))

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            SolverConfig(max_iterations=0)
        with pytest.raises(ParameterError):
            SolverConfig(step_tolerance=-1.0)
        for n in (2.5, 2.0, "3"):
            with pytest.raises(ParameterError):
                SolverConfig(max_iterations=n)
        assert SolverConfig(max_iterations=np.int64(3)).max_iterations == 3

    def test_grid_dims_flow_to_minimizer(self):
        K = Convolution2DOperator((4, 4), (8, 8))
        spec = PenaltySpec.uniform(p=1.0, mu=0.01, n=16)
        res = solve(np.ones(16), K, spec,
                    SolverConfig(max_iterations=5, step_tolerance=0.0))
        assert res.minimizer.dims == (4, 4)
        assert res.minimizer.as_grid().shape == (4, 4)
