"""Iteration loop: descent, contracts, stopping rules, projection."""

import dataclasses
import warnings

import numpy as np
import pytest

from sparseland import shrinkage, solver
from sparseland.core import (PenaltySpec, WeightSequence, objective, penalty_sum,
                             penalty_value, surrogate_objective, triple_norm)
from sparseland.errors import (
    AlignmentError,
    ContractViolationError,
    DescentViolationError,
    ParameterError,
)
from sparseland.operators import (Convolution2DOperator, DenseOperator, DiagonalOperator,
                                  renormalize)
from sparseland.solver import (
    SolverConfig,
    SolveTrace,
    fixed_point_residual,
    iterate_step,
    solve,
)


def random_contraction(rng, n, norm=0.9):
    M = rng.normal(size=(n, n))
    M *= norm / np.linalg.norm(M, 2)
    return DenseOperator(M)


class CountingDiagonal(DiagonalOperator):
    """Diagonal operator that counts its apply, adjoint and normal calls.

    A normal call is counted once, not as the apply and adjoint it runs.
    """

    def __init__(self, entries):
        super().__init__(entries)
        self.applies = 0
        self.adjoints = 0
        self.normals = 0

    def apply(self, f):
        self.applies += 1
        return super().apply(f)

    def adjoint(self, g):
        self.adjoints += 1
        return super().adjoint(g)

    def normal(self, f):
        self.normals += 1
        return DiagonalOperator.adjoint(self, DiagonalOperator.apply(self, f))


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
        # a bound of exactly 1 is refused, and one just above it
        spec = PenaltySpec.uniform(p=1.0, mu=0.1, n=1)
        for bound in (1.0, 1.2):
            K = DiagonalOperator(np.array([bound]))
            with pytest.raises(ContractViolationError):
                iterate_step(np.array([0.0]), np.array([1.0]), K, spec)
            with pytest.raises(ContractViolationError):
                solve(np.array([1.0]), K, spec)

    def test_one_normal_per_iteration(self):
        # from the default zero start, only b = K* g costs an adjoint: K 0
        # and K*K 0 are zero; each iteration one normal; the end one apply
        # (the re-anchored discrepancy), and the fixed-point residual
        # reuses the held A f
        spec = PenaltySpec.uniform(p=1.5, mu=0.1, n=3)
        for n in (1, 7):
            K = CountingDiagonal(np.array([0.5, 0.25, 0.8]))
            res = solve(np.ones(3), K, spec,
                        SolverConfig(max_iterations=n, step_tolerance=0.0))
            assert res.iterations == n
            assert (K.applies, K.adjoints, K.normals) == (1, 1, n)

    def test_explicit_start_costs_one_apply_and_one_normal(self):
        # an explicit f0 adds one apply (the exact discrepancy) and one
        # normal at the start, even when it is zero
        spec = PenaltySpec.uniform(p=1.5, mu=0.1, n=3)
        for f0 in (np.array([0.3, -1.0, 2.0]), np.zeros(3)):
            for n in (1, 7):
                K = CountingDiagonal(np.array([0.5, 0.25, 0.8]))
                res = solve(np.ones(3), K, spec,
                            SolverConfig(max_iterations=n, step_tolerance=0.0), f0=f0)
                assert res.iterations == n
                assert (K.applies, K.adjoints, K.normals) == (2, 1, n + 1)

    @pytest.mark.parametrize("kind, p, complex_data, projection", [
        ("dense", 1.0, False, None),
        ("dense", 1.5, True, None),
        ("dense", 2.0, False, "nonnegative"),
        ("diagonal-complex", 1.3, False, None),
        ("convolution", 1.0, False, None),
    ])
    def test_zero_start_matches_explicit_zeros(self, kind, p, complex_data, projection):
        # skipping K 0 and K*K 0 at the default start changes no bit of
        # the minimizer or of any trace array but the wall times
        rng = np.random.default_rng(31)
        K = {
            "dense": lambda: random_contraction(rng, 8),
            "diagonal-complex": lambda: DiagonalOperator(
                0.9 * rng.uniform(size=8) * np.exp(1j * rng.uniform(0.0, 6.0, size=8))),
            "convolution": lambda: Convolution2DOperator((4, 2), (8, 4), 0.5),
        }[kind]()
        g = rng.normal(size=8) + (1j * rng.normal(size=8) if complex_data else 0.0)
        spec = PenaltySpec.uniform(p=p, mu=0.05, n=8)
        config = SolverConfig(max_iterations=40, step_tolerance=0.0, projection=projection)
        default = solve(g, K, spec, config)
        explicit = solve(g, K, spec, config, f0=np.zeros(8))
        assert (default.status, default.iterations) == (explicit.status, explicit.iterations)
        assert default.minimizer.values.dtype == explicit.minimizer.values.dtype
        assert default.minimizer.values.tobytes() == explicit.minimizer.values.tobytes()
        assert default.fixed_point_residual == explicit.fixed_point_residual
        for name in ("objectives", "discrepancies", "penalties", "step_norms", "surrogates"):
            a, b = getattr(default.trace, name), getattr(explicit.trace, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("p", [1.0, 1.3, 1.5, 2.0])
    def test_every_shrink_goes_through_the_module_name(self, monkeypatch, p):
        # a wrapper on solver.shrink_p (as a tracer installs) must see
        # every step's shrink and the fixed-point residual's
        calls = []

        def counting(*args):
            calls.append(args)
            return shrinkage.shrink_p(*args)

        monkeypatch.setattr(solver, "shrink_p", counting)
        K = random_contraction(np.random.default_rng(4), 6)
        res = solve(np.ones(6), K, PenaltySpec.uniform(p=p, mu=0.1, n=6),
                    SolverConfig(max_iterations=9, step_tolerance=0.0))
        assert res.iterations == 9
        assert len(calls) == res.iterations + 1

    def test_two_level_weights_damp_each_coordinate(self):
        # unequal weights stay an array: at p = 2 a step from zero is
        # K* g / (1 + mu w), each coordinate by its own weight
        d = np.linspace(0.3, 0.9, 6)
        K = DiagonalOperator(d)
        g = np.linspace(-1.0, 2.0, 6)
        mu = 0.5
        w = np.array([1.0, 1.0, 1.0, 4.0, 4.0, 4.0])
        spec = PenaltySpec(p=2.0, weights=WeightSequence(w), mu=mu)
        np.testing.assert_array_equal(iterate_step(np.zeros(6), g, K, spec).values,
                                      (d * g) / (1.0 + mu * w))
        res = solve(g, K, spec, SolverConfig(max_iterations=20000, step_tolerance=0.0))
        np.testing.assert_allclose(res.minimizer.values, d * g / (d**2 + mu * w),
                                   rtol=1e-12)

    @pytest.mark.parametrize("mu, weight", [(1e300, 1e10), (1e-300, 1e-300)])
    def test_effective_weight_out_of_range_rejected(self, mu, weight):
        # mu and w are each valid, but mu * w overflows or underflows
        spec = PenaltySpec(p=1.5, weights=WeightSequence(np.full(3, weight)), mu=mu)
        K = DiagonalOperator(np.array([0.5, 0.25, 0.8]))
        with pytest.raises(ParameterError, match="strictly positive"):
            solve(np.ones(3), K, spec)

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


class TestWeightRuns:
    """Weights constant on long runs are shrunk run by run, each with a float."""

    # Besov weights of a 256^2 grid in db2:3 coefficients: one value per scale
    BESOV = (4096, 12288, 49152)

    @staticmethod
    def problem(p, lengths, values, mu=0.3, complex_data=False):
        rng = np.random.default_rng(21)
        n = sum(lengths)
        K = DiagonalOperator(rng.uniform(0.1, 0.9, n))
        g = rng.normal(size=n) + (1j * rng.normal(size=n) if complex_data else 0.0)
        f = rng.normal(size=n)
        spec = PenaltySpec(p=p, weights=WeightSequence(np.repeat(values, lengths)), mu=mu)
        return f, g, K, spec

    @staticmethod
    def array_step(f, g, K, spec):
        # the step _Step takes, shrunk with the whole weight array
        h = f + (K.adjoint(g) - K.normal(f))
        shrink = shrinkage.shrink_complex if h.dtype.kind == "c" else shrinkage.shrink_p
        return shrink(h, spec.mu * spec.weights.w, spec.p)

    @staticmethod
    def counted_step(monkeypatch, f, g, K, spec):
        weights = []

        def counting(x, w, p):
            weights.append(w)
            return shrinkage.shrink_p(x, w, p)

        monkeypatch.setattr(solver, "shrink_p", counting)
        return iterate_step(f, g, K, spec).values, [type(w) for w in weights]

    @pytest.mark.parametrize("p", [1.0, 1.3, 1.5, 2.0])
    def test_three_runs_give_the_array_bits(self, monkeypatch, p):
        f, g, K, spec = self.problem(p, self.BESOV, [1.0, 2.0**1.5, 8.0])
        out, types = self.counted_step(monkeypatch, f, g, K, spec)
        assert types == [float, float, float]
        assert out.tobytes() == self.array_step(f, g, K, spec).tobytes()
        f, g, K, spec = self.problem(p, self.BESOV, [1.0, 2.0**1.5, 8.0], complex_data=True)
        out = iterate_step(f, g, K, spec).values
        assert out.tobytes() == self.array_step(f, g, K, spec).tobytes()

    def test_p1_smallest_weight_differs_only_in_the_sign_of_zero(self, monkeypatch):
        # w/2 rounds to zero at w = 5e-324, and a float weight then turns
        # an input -0.0 into +0.0 where the array keeps it (shrinkage._soft)
        f, g, K, spec = self.problem(1.0, self.BESOV, [1.0, 2.0, 4.0], mu=5e-324)
        out, types = self.counted_step(monkeypatch, f, g, K, spec)
        assert types == [float, float, float]
        ref = self.array_step(f, g, K, spec)
        nonzero = ref != 0.0
        assert out[nonzero].tobytes() == ref[nonzero].tobytes()
        assert np.all(out[~nonzero] == 0.0)

    @pytest.mark.parametrize("lengths, types", [
        ((24576,), [float]),  # uniform: one float, as before
        ((8192,) * 3, [float] * 3),  # runs of the minimum average length
        ((2, 24574), [float] * 2),  # a short run rides on a long one
        ((8191, 8192, 8192), [np.ndarray]),  # runs a little short on average
        ((16,) * 1536, [np.ndarray])])  # many short runs: one weight array
    def test_path_follows_the_average_run_length(self, monkeypatch, lengths, types):
        f, g, K, spec = self.problem(1.5, lengths, 1.0 + np.arange(len(lengths)))
        out, seen = self.counted_step(monkeypatch, f, g, K, spec)
        assert seen == types
        assert out.tobytes() == self.array_step(f, g, K, spec).tobytes()


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
        assert np.sum(res.trace.step_norms**2) <= bound * (1.0 + 1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("complex_data", [False, True])
    def test_overflowing_start_refused(self, p, complex_data):
        # every entry is finite, but ||g||^2 overflows: the descent
        # bookkeeping would compare infinities, so the solve refuses to start
        rng = np.random.default_rng(9)
        M = rng.normal(size=(20, 20))
        g = 1e160 * (rng.normal(size=20) + (1j * rng.normal(size=20) if complex_data else 0.0))
        problem = renormalize(DenseOperator(M), g)
        spec = PenaltySpec.uniform(p=p, mu=0.1 * problem.mu_scale, n=20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="data scale"):
                solve(problem.data, problem.operator, spec, SolverConfig(max_iterations=20))

    def test_start_whose_norm_alone_overflows_refused(self):
        # g = K f0 and p = 1 keep the objective finite, but ||f0||^2
        # overflows, and the step rule and the residual take ||f||
        K = DiagonalOperator(np.array([0.5, 0.25, 0.8]))
        f0 = np.array([1e155, -2e155, 3e155])
        g = K.apply(f0)
        spec = PenaltySpec.uniform(p=1.0, mu=0.1, n=3)
        assert np.isfinite(objective(f0, g, K, spec).total)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: solve(g, K, spec, f0=f0),
                         lambda: iterate_step(f0, g, K, spec),
                         lambda: fixed_point_residual(f0, g, K, spec)):
                with pytest.raises(ParameterError, match="start scale 3e\\+155"):
                    call()

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


def _skewed(K):
    """K, recast as a subclass whose normal operator is 1.01 K*K."""

    class Skewed(type(K)):
        def normal(self, f):
            return 1.01 * super().normal(f)

    K.__class__ = Skewed
    return K


def _solver_kinds():
    """Every operator kind on 16 unknowns; the convolutions in matrix and in FFT form."""
    from sparseland.operators import ScaledOperator
    from sparseland.transforms import WaveletSpec, conjugated_operator

    rng = np.random.default_rng(30)
    M = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    return {
        "diagonal": DiagonalOperator(np.linspace(0.2, 0.9, 16)),
        "dense": random_contraction(rng, 16),
        "dense-complex": DenseOperator(M * 0.9 / np.linalg.norm(M, 2)),
        "convolution-matrix": Convolution2DOperator((4, 4), (8, 8), 0.4),
        "convolution-fft": Convolution2DOperator((4, 4), (4, 4), 0.6),
        "scaled": ScaledOperator(Convolution2DOperator((4, 4), (8, 8), 0.4), 0.8, 0.8),
        "wavelet-conjugated": conjugated_operator(
            Convolution2DOperator((4, 4), (4, 4), 0.6), WaveletSpec("haar", 1)),
    }


def _broken(K, method, call=None, value=np.nan):
    """K, recast so that its ``call``-th call of ``method`` (every call if None)
    puts ``value`` in one entry."""
    calls = []

    class Broken(type(K)):
        pass

    def broken(self, x):
        out = getattr(super(Broken, self), method)(x)
        calls.append(None)
        if call is None or len(calls) == call:
            out = out.copy()
            out[3] = value
        return out

    setattr(Broken, method, broken)
    K.__class__ = Broken
    return K


class TestNormalOperatorLoop:
    @pytest.mark.parametrize("kind", sorted(_solver_kinds()))
    def test_running_discrepancy_is_exact(self, kind):
        # every trace entry, rebuilt from the iterates with apply
        K = _solver_kinds()[kind]
        g = np.linspace(-1.0, 2.0, 16)
        if kind == "dense-complex":
            g = g + 1j * np.linspace(1.0, -0.5, 16)
        spec = PenaltySpec.uniform(p=1.0, mu=0.05, n=16)
        config = SolverConfig(max_iterations=40, step_tolerance=0.0)
        res = solve(g, K, spec, config)
        f = np.zeros(16, dtype=res.minimizer.values.dtype)
        exact = []
        for _ in range(res.iterations + 1):
            breakdown = objective(f, g, K, spec)
            exact.append((breakdown.discrepancy, breakdown.penalty))
            f = iterate_step(f, g, K, spec, config).values
        exact_disc, exact_pen = np.array(exact).T
        t = res.trace
        scale = 1.0 + t.objectives[0]
        assert np.abs(t.discrepancies - exact_disc).max() <= 1e-13 * scale
        assert t.discrepancies[-1] == exact_disc[-1]
        assert np.abs(t.penalties - exact_pen).max() <= 1e-13 * scale
        np.testing.assert_array_equal(t.objectives, t.discrepancies + t.penalties)
        final = objective(res.minimizer, g, K, spec).total
        assert abs(t.objectives[-1] - final) <= 1e-13 * scale

    @pytest.mark.parametrize("kind", [*sorted(_solver_kinds()), "diagonal-one-row"])
    def test_wrong_normal_rejected(self, kind):
        # the one-row kind has 2^14 unknowns, so each iteration closes its block
        n = 2**14 if kind == "diagonal-one-row" else 16
        K = _skewed(DiagonalOperator(np.linspace(0.2, 0.9, n)) if kind == "diagonal-one-row"
                    else _solver_kinds()[kind])
        g = np.linspace(-1.0, 2.0, n)
        spec = PenaltySpec.uniform(p=1.0, mu=0.05, n=n)
        with pytest.raises(ContractViolationError, match="normal"):
            solve(g, K, spec, SolverConfig(max_iterations=50, step_tolerance=0.0))

    @pytest.mark.parametrize("p, n", [
        *(pytest.param(p, n, id=f"one-row-{p}" if n > 20 else str(p))
          for n in (20, 2**14) for p in (1.0, 1.5, 2.0))])
    def test_non_finite_normal_is_blamed_on_normal(self, p, n):
        # one NaN from the 5th normal, in the middle of the first block of
        # a 20 x 20 solve and in its own one-row block at 2^14 unknowns:
        # the block's <d, A d> is NaN there, and the descent check, which
        # NaN fails, names normal rather than the norm bound
        K = _broken(random_contraction(np.random.default_rng(8), 20) if n == 20
                    else DiagonalOperator(np.linspace(0.2, 0.9, n)), "normal", 5)
        spec = PenaltySpec.uniform(p=p, mu=0.1, n=n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolationError,
                               match=r"nan at iteration 5; K.normal returned a non-finite"):
                solve(np.linspace(-1.0, 1.0, n), K, spec,
                      SolverConfig(max_iterations=50, step_tolerance=0.0))

    def test_non_finite_exact_discrepancy_fails_the_anchor_check(self):
        # from the zero start the one apply is the re-anchoring one; a NaN
        # there must not pass the drift check
        K = _broken(random_contraction(np.random.default_rng(8), 20), "apply", 1)
        spec = PenaltySpec.uniform(p=1.0, mu=0.1, n=20)
        with pytest.raises(ContractViolationError, match="running discrepancy"):
            solve(np.linspace(-1.0, 1.0, 20), K, spec,
                  SolverConfig(max_iterations=10, step_tolerance=0.0))

    def test_final_residual_reuses_the_held_normal(self):
        # the loop's fixed-point residual equals the standalone one bitwise
        rng = np.random.default_rng(31)
        K = random_contraction(rng, 8)
        g = rng.normal(size=8)
        spec = PenaltySpec.uniform(p=1.5, mu=0.2, n=8)
        res = solve(g, K, spec, SolverConfig(max_iterations=30, step_tolerance=0.0))
        assert res.fixed_point_residual == fixed_point_residual(
            res.minimizer.values, g, K, spec)


# the problem of the broken-operator fixtures: a 20 x 20 contraction of norm
# 0.9, p = 1, mu = 0.1, and a nonnegative start
BROKEN_G = np.linspace(-1.0, 1.0, 20)
BROKEN_F0 = np.abs(np.random.default_rng(3).normal(size=20))
BROKEN_SPEC = PenaltySpec.uniform(p=1.0, mu=0.1, n=20)
# entry -> (its call on (f, K), the K methods it calls); a None start is the
# zero one, which iterate_step and fixed_point_residual take explicitly
BROKEN_ENTRIES = {
    "solve": (lambda f, K: solve(BROKEN_G, K, BROKEN_SPEC,
                                 SolverConfig(max_iterations=50, step_tolerance=0.0), f0=f),
              ("apply", "adjoint", "normal")),
    "iterate_step": (lambda f, K: iterate_step(np.zeros(20) if f is None else f, BROKEN_G, K,
                                               BROKEN_SPEC),
                     ("apply", "adjoint", "normal")),
    "fixed_point_residual": (lambda f, K: fixed_point_residual(
        np.zeros(20) if f is None else f, BROKEN_G, K, BROKEN_SPEC),
        ("apply", "adjoint", "normal")),
    # the objective and the surrogate call neither adjoint nor normal; a
    # non-finite K f is no overflow while K's bound times ||f|| is finite
    "objective": (lambda f, K: objective(np.zeros(20) if f is None else f, BROKEN_G, K,
                                         BROKEN_SPEC),
                  ("apply",)),
    "surrogate_objective": (lambda f, K: surrogate_objective(
        np.zeros(20) if f is None else f, BROKEN_F0[::-1], BROKEN_G, K, BROKEN_SPEC),
        ("apply",)),
}


class TestBrokenOperator:
    """A method that returns NaN or +-inf on a finite input is named, with no numpy warning."""

    @pytest.mark.parametrize("start", ["zero", "f0"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("method", ["apply", "adjoint", "normal"])
    @pytest.mark.parametrize("entry", BROKEN_ENTRIES)
    def test_broken_method_is_named(self, entry, method, value, start):
        call, calls = BROKEN_ENTRIES[entry]
        f = None if start == "zero" else BROKEN_F0
        K = _broken(random_contraction(np.random.default_rng(8), 20), method, value=value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if method not in calls:
                usual = call(f, random_contraction(np.random.default_rng(8), 20))
                assert call(f, K) == usual
            else:
                with pytest.raises(ContractViolationError,
                                   match=rf"K\.{method} returned a non-finite value"):
                    call(f, K)


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
        for bound in (1.0, 1.2):
            with pytest.raises(ContractViolationError):
                fixed_point_residual(f, np.ones(3), DiagonalOperator(np.full(3, bound)), spec)


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

    @staticmethod
    def _infeasible_start():
        # the first projected step from this f0 raises the objective
        rng = np.random.default_rng(6)
        M = rng.normal(size=(3, 3))
        M *= 0.95 / np.linalg.norm(M, 2)
        return DenseOperator(M), rng.normal(size=3), rng.normal(size=3)

    @pytest.mark.parametrize("p", [1.0, 1.3, 1.5])
    def test_negative_start_refused_before_the_first_step(self, p):
        K, g, f0 = self._infeasible_start()
        assert f0.min() < 0.0
        spec = PenaltySpec.uniform(p=p, mu=0.1, n=3)
        with pytest.raises(ParameterError, match="f0 >= 0"):
            solve(g, K, spec, SolverConfig(projection="nonnegative"), f0=f0)
        # without the projection the same start solves
        solve(g, K, spec, SolverConfig(max_iterations=50), f0=f0)

    def test_iterate_step_refuses_a_negative_start(self):
        # iterate_step starts as solve does: the same f0 is refused
        K, g, f0 = self._infeasible_start()
        spec = PenaltySpec.uniform(p=1.0, mu=0.1, n=3)
        config = SolverConfig(projection="nonnegative")
        with pytest.raises(ParameterError, match="f0 >= 0"):
            iterate_step(f0, g, K, spec, config)
        assert iterate_step(np.abs(f0), g, K, spec, config).values.min() >= 0.0

    def test_nonnegative_start_solves(self):
        K, g, f0 = self._infeasible_start()
        f0 = np.abs(f0)
        f0[0] = -0.0
        spec = PenaltySpec.uniform(p=1.0, mu=0.1, n=3)
        res = solve(g, K, spec, SolverConfig(max_iterations=200, projection="nonnegative"),
                    f0=f0)
        assert res.minimizer.values.min() >= 0.0

    def test_complex_start_keeps_its_own_error(self):
        K = DiagonalOperator(np.array([0.5]))
        spec = PenaltySpec.uniform(p=1.0, mu=0.1, n=1)
        with pytest.raises(ParameterError, match="real iterates"):
            solve(np.ones(1), K, spec, SolverConfig(projection="nonnegative"),
                  f0=np.array([-1.0 + 1.0j]))


# every entry that takes a whole problem (f, g, K, spec), as one signature
PROBLEM_ENTRIES = {
    "objective": objective,
    "surrogate_objective": lambda f, g, K, spec: surrogate_objective(f, f, g, K, spec),
    "solve": lambda f, g, K, spec: solve(g, K, spec, SolverConfig(max_iterations=2), f0=f),
    "iterate_step": iterate_step,
    "fixed_point_residual": fixed_point_residual,
}


class TestOneProblemCheck:
    """The objective, the surrogate, renormalize and the solver share one set of rules."""

    K = DiagonalOperator(np.array([0.5, 0.25, 0.8]))
    SPEC = PenaltySpec.uniform(p=1.0, mu=0.1, n=3)

    @pytest.mark.parametrize("n_data", [1, 4])
    @pytest.mark.parametrize("entry", [*PROBLEM_ENTRIES, "renormalize", "solve-zero-start"])
    def test_data_must_fill_the_image(self, entry, n_data):
        # a 1-entry g must not broadcast, and a long one must not be scaled
        g = np.ones(n_data)
        with pytest.raises(AlignmentError, match="operator image 3"):
            if entry == "renormalize":
                renormalize(DiagonalOperator(np.full(3, 2.0)), g)
            elif entry == "solve-zero-start":
                solve(g, self.K, self.SPEC)
            else:
                PROBLEM_ENTRIES[entry](np.ones(3), g, self.K, self.SPEC)

    @pytest.mark.parametrize("n_f, n_spec", [(4, 3), (3, 4), (4, 4)])
    @pytest.mark.parametrize("entry", PROBLEM_ENTRIES)
    def test_coefficients_weights_and_domain_agree(self, entry, n_f, n_spec):
        spec = PenaltySpec.uniform(p=1.0, mu=0.1, n=n_spec)
        with pytest.raises(AlignmentError, match=f"{n_f} entries, weights have {n_spec}"):
            PROBLEM_ENTRIES[entry](np.ones(n_f), np.ones(3), self.K, spec)

    @pytest.mark.parametrize("complex_part", ["f", "g"])
    @pytest.mark.parametrize("entry", PROBLEM_ENTRIES)
    def test_asymmetric_weights_need_real_values(self, entry, complex_part):
        spec = PenaltySpec(p=1.0, weights=WeightSequence.uniform(3), mu=0.1,
                           asymmetric=(np.ones(3), np.full(3, 2.0)))
        f, g = np.ones(3), np.ones(3)
        if complex_part == "f":
            f = f + 1j
        else:
            g = g + 1j
        if entry in ("objective", "surrogate_objective") and complex_part == "g":
            # the penalty sees only f, so real f with complex data is allowed
            PROBLEM_ENTRIES[entry](f, g, self.K, spec)
            return
        with pytest.raises(ParameterError, match="asymmetric weights require real values"):
            PROBLEM_ENTRIES[entry](f, g, self.K, spec)

    @pytest.mark.parametrize("bound", [1.0, 1.2])
    @pytest.mark.parametrize("entry", PROBLEM_ENTRIES)
    def test_bound_below_one_except_for_the_objective(self, entry, bound):
        K = DiagonalOperator(np.full(3, bound))
        if entry == "objective":
            assert objective(np.ones(3), np.ones(3), K, self.SPEC).total > 0.0
            return
        with pytest.raises(ContractViolationError, match="certified norm bound < 1"):
            PROBLEM_ENTRIES[entry](np.ones(3), np.ones(3), K, self.SPEC)

    @pytest.mark.parametrize("wrong", ["K", "spec", "spec-string", "f"])
    @pytest.mark.parametrize("entry", PROBLEM_ENTRIES)
    def test_wrong_kinds_refused(self, entry, wrong):
        # a string spec of the data's length must not pass as three weights
        f, K, spec = np.ones(3), self.K, self.SPEC
        if wrong == "K":
            K, match = "K", "must be a LinearOperatorHandle"
        elif wrong == "f":
            if entry == "solve":
                # f0=None is solve's zero start
                PROBLEM_ENTRIES[entry](None, np.ones(3), K, spec)
                return
            f, match = None, "coefficient values must be numbers"
        else:
            spec, match = ("abc" if wrong == "spec" else "spec"), "spec must be a PenaltySpec"
        with pytest.raises(ParameterError, match=match):
            PROBLEM_ENTRIES[entry](f, np.ones(3), K, spec)

    @pytest.mark.parametrize("config", [5, 0, "config"])
    @pytest.mark.parametrize("entry", ["solve", "iterate_step"])
    def test_config_must_be_a_solver_config(self, entry, config):
        with pytest.raises(ParameterError, match="solver config must be a SolverConfig"):
            if entry == "solve":
                solve(np.ones(3), self.K, self.SPEC, config)
            else:
                iterate_step(np.ones(3), np.ones(3), self.K, self.SPEC, config)

    @pytest.mark.parametrize("entry", [*PROBLEM_ENTRIES, "solve-zero-start"])
    def test_scalar_problem_is_one_entry(self, entry):
        # a 0-d f and g are the one-entry problem
        K, spec = DiagonalOperator([0.5]), PenaltySpec.uniform(p=1.0, mu=0.1, n=1)
        if entry == "solve-zero-start":
            got, want = (solve(g, K, spec).minimizer.values for g in (1.0, np.ones(1)))
        else:
            got, want = (PROBLEM_ENTRIES[entry](f, g, K, spec)
                         for f, g in ((2.0, 1.0), (np.full(1, 2.0), np.ones(1))))
            if entry == "solve":
                got, want = got.minimizer.values, want.minimizer.values
            elif entry == "iterate_step":
                got, want = got.values, want.values
        np.testing.assert_array_equal(got, want)


class TestScaleSweep:
    """Data and start scaled by 10^k answer with finite values or a library error."""

    SCALES = [*range(-320, 309, 8), 154, 155]

    @pytest.mark.parametrize("complex_data", [False, True])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_no_warning_escapes(self, p, complex_data):
        rng = np.random.default_rng(12)
        M = rng.normal(size=(6, 6))
        if complex_data:
            M = M + 1j * rng.normal(size=(6, 6))
        K = DenseOperator(M * (0.9 / np.linalg.norm(M, 2)))
        g, f, a = (rng.normal(size=6) + (1j * rng.normal(size=6) if complex_data else 0.0)
                   for _ in range(3))
        spec = PenaltySpec.uniform(p=p, mu=0.1, n=6)
        config = SolverConfig(max_iterations=3)
        # a unit residual u and a start v whose p = 2 penalty at mu = 1 is
        # 1.69: at 10^154 each term of Phi(10^k v) with data K 10^k v -
        # 10^k u is finite and their sum is not
        u, v = g / np.linalg.norm(g), f * (1.3 / np.linalg.norm(f))
        unit_mu = PenaltySpec.uniform(p=p, mu=1.0, n=6)
        answered, failures = set(), []
        for k in self.SCALES:
            with np.errstate(over="ignore"):
                gc, fc, ac, uc, vc = (10.0**k * v for v in (g, f, a, u, v))
            calls = {
                "objective": lambda: objective(fc, gc, K, spec).total,
                "objective-sum": lambda: objective(vc, K.apply(vc) - uc, K, unit_mu).total,
                "penalty_value": lambda: penalty_value(fc, spec),
                "triple_norm": lambda: triple_norm(fc, spec),
                "surrogate_objective": lambda: surrogate_objective(fc, ac, gc, K, spec),
                # the anchor scaled on its own
                "surrogate-anchor": lambda: surrogate_objective(f, ac, g, K, spec),
                "iterate_step": lambda: iterate_step(fc, gc, K, spec).values,
                "fixed_point_residual": lambda: fixed_point_residual(fc, gc, K, spec),
                "solve": lambda: solve(gc, K, spec, config).trace.objectives,
                "solve-f0": lambda: solve(gc, K, spec, config, f0=fc).trace.objectives,
            }
            for name, call in calls.items():
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        if not np.isfinite(call()).all():
                            failures.append((k, name, "non-finite answer"))
                        answered.add(k)
                    except (AlignmentError, ParameterError, ContractViolationError,
                            DescentViolationError):
                        pass
                    except Exception as exc:  # a numpy warning raised as an error
                        failures.append((k, name, repr(exc)))
        assert failures == []
        # every scale from 10^-320 to 10^152 gets an answer from something
        assert answered >= set(range(-320, 153, 8))


class TestHomogeneity:
    """At p = 2 the minimizer is linear in the data: data c g give c times the minimizer."""

    @staticmethod
    def _problem(complex_data):
        rng = np.random.default_rng(17)
        M = rng.normal(size=(12, 12))
        g = rng.normal(size=12)
        if complex_data:
            M = M + 1j * rng.normal(size=(12, 12))
            g = g + 1j * rng.normal(size=12)
        K = DenseOperator(M * (0.9 / np.linalg.norm(M, 2)))
        spec = PenaltySpec(p=2.0, weights=WeightSequence(rng.uniform(0.5, 2.0, 12)), mu=0.5)
        return g, K, spec

    @pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
    def test_scaled_data_scale_the_minimizer(self, complex_data):
        g, K, spec = self._problem(complex_data)
        # a fixed number of steps from the zero start: the step rule would
        # stop at a scale-dependent point
        config = SolverConfig(max_iterations=200, step_tolerance=0.0)
        base = solve(g, K, spec, config).minimizer.values
        # the exact minimizer (K*K + mu W) f = K*g, to check the base
        A = K.matrix.conj().T @ K.matrix + np.diag(spec.mu * spec.weights.w)
        np.testing.assert_allclose(base, np.linalg.solve(A, K.matrix.conj().T @ g),
                                   rtol=0, atol=1e-12)
        # from 10^-150 down, <d, d> of a step underflows and must not stop
        # the run; below 10^-300 the minimizer's entries turn subnormal and
        # lose digits, and at 10^154 the start's squares overflow
        for k in [*range(-300, 151, 10), 152]:
            c = 10.0**k
            got = solve(c * g, K, spec, config).minimizer.values
            assert np.all(np.isfinite(got))
            assert np.abs(got - c * base).max() <= 1e-12 * c * np.abs(base).max(), k

    @pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
    def test_scaled_data_scale_the_step_norms(self, complex_data):
        # below about 1e-154 <d, d> turns subnormal or zero; the trace keeps
        # the norm the step rule took, which does not underflow
        g, K, spec = self._problem(complex_data)
        config = SolverConfig(max_iterations=60, step_tolerance=0.0)
        base = solve(g, K, spec, config).trace.step_norms
        for c in (1e-160, 1e-170, 1e-200):
            got = solve(c * g, K, spec, config).trace.step_norms
            assert got.shape == base.shape
            assert np.abs(got - c * base).max() <= 1e-12 * c * base.max(), c


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

    def test_trace_fields_pinned(self):
        assert [f.name for f in dataclasses.fields(SolveTrace)] == [
            "objectives", "discrepancies", "penalties", "step_norms", "surrogates"]

    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_two_solves_give_the_same_bytes(self, p):
        rng = np.random.default_rng(4)
        K = random_contraction(rng, 12)
        g = rng.normal(size=12)
        spec = PenaltySpec.uniform(p=p, mu=0.05, n=12)
        config = SolverConfig(max_iterations=150, step_tolerance=0.0)
        a, b = solve(g, K, spec, config), solve(g, K, spec, config)
        assert a.minimizer.values.tobytes() == b.minimizer.values.tobytes()
        for field in dataclasses.fields(SolveTrace):
            x, y = getattr(a.trace, field.name), getattr(b.trace, field.name)
            assert x.tobytes() == y.tobytes(), field.name

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


def _reference_solve(g, K, spec, config):
    """solve from zero with the bookkeeping of every iteration in that iteration.

    Each step pays np.vdot for <d, d>, <d, A d> and <d, r>, one penalty
    and the scalar updates, as the loop did before it kept its books in
    blocks. Returns what solve returns but the wall times, as a tuple.
    """
    step = solver._Step(K, g, spec, config)
    dtype = np.result_type(np.float64, g.dtype, np.dtype(K.domain_dtype))
    f = np.zeros(K.domain_len, dtype)
    Af = np.zeros_like(f)
    residual = g.astype(dtype, copy=False)
    disc = float(np.vdot(residual, residual).real)
    pen = penalty_sum(f, spec)
    obj = disc + pen
    objectives, discrepancies, penalties, step_norms, surrogates = [obj], [disc], [pen], [], []
    status = solver.STATUS_MAX
    for k in range(1, config.max_iterations + 1):
        f_new, r = step(f, Af)
        d = f_new - f
        quad = float(np.vdot(d, d).real)
        Af_new = K.normal(f_new)
        dAd = float(np.vdot(d, Af_new - Af).real)
        pen_new = penalty_sum(f_new, spec)
        change = dAd - 2.0 * float(np.vdot(d, r).real)
        delta = change + (pen_new - pen)
        disc += change
        obj_new = disc + pen_new
        objectives.append(obj_new)
        discrepancies.append(disc)
        penalties.append(pen_new)
        step_norms.append(np.sqrt(quad))
        surrogates.append(obj_new + quad - dAd)
        if not delta <= solver._DESCENT_SLACK * (1.0 + abs(obj)):
            raise DescentViolationError(
                f"objective increased by {delta!r} from {obj!r} at iteration {k}; "
                f"the certified norm bound {K.norm_bound} is false")
        f, Af, obj, pen = f_new, Af_new, obj_new, pen_new
        if step_norms[-1] <= config.step_tolerance:
            status = solver.STATUS_STEP
            break
    residual = g - K.apply(f)
    discrepancies[-1] = float(np.vdot(residual, residual).real)
    objectives[-1] = discrepancies[-1] + pen
    trace = [np.asarray(a) for a in (objectives, discrepancies, penalties, step_norms,
                                     surrogates)]
    return f, trace, status, len(step_norms), float(np.linalg.norm(f - step(f, Af)[0]))


def _block_length(n):
    return max(1, min(solver._BLOCK_ITERATIONS, solver._BLOCK_ENTRIES // n))


class TestBlockBookkeeping:
    """The loop books its trace once per block; every bit is the per-iteration loop's."""

    @staticmethod
    def problem(case):
        rng = np.random.default_rng(41)
        n, p, tol, its = {
            "cap-not-a-block-multiple": (20, 1.0, 0.0, 150),
            "step-stop-mid-block": (20, 1.5, 1e-6, 10000),
            "complex": (20, 1.3, 0.0, 100),
            "projection": (20, 2.0, 0.0, 70),
            "asymmetric": (20, 1.5, 0.0, 90),
            "weights-n300": (300, 1.0, 0.0, 120),
            "n3000": (3000, 1.5, 0.0, 23),
            "one-row-band-runs": (2**14, 1.5, 0.0, 5),
            "one-row-step-stop": (2**14, 2.0, 1e-3, 1000),
            "one-row-complex": (2**14, 1.3, 0.0, 7),
        }[case]
        if n <= 300:
            M = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if case == "complex"
                                           else 0.0)
            K = DenseOperator(M * 0.9 / np.linalg.norm(M, 2))
        else:
            K = DiagonalOperator(rng.uniform(0.1, 0.9, n) * (
                np.exp(2j * np.pi * rng.uniform(size=n)) if "complex" in case else 1.0))
        g = rng.normal(size=n) + (1j * rng.normal(size=n) if "complex" in case else 0.0)
        weights = WeightSequence.uniform(n)
        if case == "weights-n300":
            weights = WeightSequence(rng.uniform(0.5, 2.0, n))
        if case == "one-row-band-runs":
            # two runs of 8,192: shrunk run by run with a float weight each
            weights = WeightSequence(np.repeat([1.0, 3.0], n // 2))
        spec = PenaltySpec(p=p, weights=weights, mu=0.05,
                           asymmetric=((np.full(n, 0.5), np.full(n, 3.0))
                                       if case == "asymmetric" else None))
        config = SolverConfig(max_iterations=its, step_tolerance=tol,
                              projection="nonnegative" if case == "projection" else None)
        return g, K, spec, config

    @pytest.mark.parametrize("case", ["cap-not-a-block-multiple", "step-stop-mid-block",
                                      "complex", "projection", "asymmetric", "weights-n300",
                                      "n3000", "one-row-band-runs", "one-row-step-stop",
                                      "one-row-complex"])
    def test_same_bits_as_the_per_iteration_loop(self, case):
        g, K, spec, config = self.problem(case)
        res = solve(g, K, spec, config)
        f, trace, status, iterations, fp = _reference_solve(g, K, spec, config)
        assert (res.status, res.iterations) == (status, iterations)
        assert res.minimizer.values.dtype == f.dtype
        assert res.minimizer.values.tobytes() == f.tobytes()
        assert res.fixed_point_residual == fp
        for name, ref in zip(("objectives", "discrepancies", "penalties", "step_norms",
                              "surrogates"), trace):
            got = getattr(res.trace, name)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), name
        # the case covers what its name says
        m = _block_length(K.domain_len)
        assert (m == 1) == case.startswith("one-row")
        if m > 1:
            assert iterations % m != 0
        assert (status == solver.STATUS_STEP) == ("step-stop" in case)

    def test_one_row_books_keep_the_solve_peak(self, traced_peak):
        # 5 steps of a padded 128^2 convolution solve, whose blocks are one
        # row: its traced peak read 10.0 grid arrays, and 16.0 with the
        # one-row form switched off (the batched form stacks the iterates
        # and their differences; CPython 3.11, numpy 2.4). The bound lies
        # halfway between
        n = 128
        yy, xx = np.mgrid[0:n, 0:n]
        centres = np.random.default_rng(41).uniform(16, 112, (5, 2))
        g = sum(np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / 16.0) for cy, cx in centres).ravel()
        K = Convolution2DOperator((n, n), (2 * n, 2 * n), 0.1)
        spec = PenaltySpec.uniform(p=1.0, mu=1e-3, n=n * n)
        config = SolverConfig(max_iterations=5, step_tolerance=0.0)
        assert _block_length(n * n) == 1
        assert traced_peak(lambda: solve(g, K, spec, config)) / (8 * n * n) < 13.0

    @pytest.mark.parametrize("case", ["cap-not-a-block-multiple", "step-stop-mid-block",
                                      "complex", "one-row-step-stop"])
    def test_series_grown_past_their_room_keep_the_bits(self, case, monkeypatch):
        # from room for 5 steps, doubled until the cap: the cap case fills
        # its series exactly, and the step stops leave a part of the last
        # room unused
        monkeypatch.setattr(solver, "_TRACE_ROOM", 5)
        g, K, spec, config = self.problem(case)
        res = solve(g, K, spec, config)
        assert res.iterations > 4 * solver._TRACE_ROOM
        f, trace, status, iterations, fp = _reference_solve(g, K, spec, config)
        assert (res.status, res.iterations) == (status, iterations)
        assert res.minimizer.values.tobytes() == f.tobytes()
        for name, ref in zip(("objectives", "discrepancies", "penalties", "step_norms",
                              "surrogates"), trace):
            got = getattr(res.trace, name)
            # an array of its own, not a view into a longer series
            assert got.base is None, name
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), name

    def test_long_solves_keep_no_trace_entry_as_a_python_float(self, traced_peak):
        # small_dense's first matrix at p = 2 and mu = 1e-3 runs into a cap
        # of 10,000 iterations: its traced peak read 1.24 times the bytes of
        # the returned trace, and 3.69 times with the series booked in
        # lists of Python floats (CPython 3.11, numpy 2.4); the bound lies
        # between
        rng = np.random.default_rng([1, 0])
        M = rng.normal(size=(20, 20))
        A = 0.9 * M / np.linalg.norm(M, 2)
        g = A @ rng.normal(size=20)
        K = DenseOperator(A)
        spec = PenaltySpec.uniform(p=2.0, mu=1e-3, n=20)
        config = SolverConfig(max_iterations=10000, step_tolerance=1e-9)
        results = []
        peak = traced_peak(lambda: results.append(solve(g, K, spec, config)))
        trace = results[-1].trace
        assert results[-1].status == solver.STATUS_MAX
        trace_bytes = sum(getattr(trace, name).nbytes for name in (
            "objectives", "discrepancies", "penalties", "step_norms", "surrogates"))
        assert trace_bytes == 8 * (3 * 10001 + 2 * 10000)
        assert peak / trace_bytes < 2.0

    @pytest.mark.parametrize("seed, p, iteration, n", [
        pytest.param(3, 1.0, 17, 20, id="3-1.0-17"), pytest.param(0, 1.0, 69, 20, id="0-1.0-69"),
        pytest.param(2, 1.0, 81, 2**14, id="one-row-2-1.0-81")])
    def test_descent_violation_named_as_the_per_iteration_loop_names_it(
            self, seed, p, iteration, n):
        # a 1.42-norm operator sold with a 0.95 certificate first raises
        # the objective in the middle of a block; at 2^14 unknowns, a
        # diagonal one with entries up to 1.42 raises it in a one-row block
        class Understated(DenseOperator if n == 20 else DiagonalOperator):
            def __init__(self, matrix):
                super().__init__(matrix)
                self.norm_bound = 0.95

        rng = np.random.default_rng(seed)
        if n == 20:
            M = rng.normal(size=(20, 20))
            K = Understated(M * 1.42 / np.linalg.norm(M, 2))
        else:
            K = Understated(rng.uniform(0.1, 1.42, n))
        g = rng.normal(size=n)
        spec = PenaltySpec.uniform(p=p, mu=0.05, n=n)
        config = SolverConfig(max_iterations=300, step_tolerance=0.0)
        m = _block_length(n)
        assert m == 1 or iteration % m not in (0, 1)
        with pytest.raises(DescentViolationError) as reference:
            _reference_solve(g, K, spec, config)
        assert f"at iteration {iteration};" in str(reference.value)
        with pytest.raises(DescentViolationError) as raised:
            solve(g, K, spec, config)
        assert str(raised.value) == str(reference.value)

    @pytest.mark.parametrize("p", [1.0, 1.3, 1.5, 2.0])
    def test_penalty_rows_have_the_bits_of_their_own_calls(self, p):
        rng = np.random.default_rng(42)
        values = rng.normal(size=(5, 257)) * 10.0 ** rng.uniform(-3, 3, size=(5, 1))
        weights = WeightSequence(rng.uniform(1, 2, 257))
        for spec in (PenaltySpec.uniform(p=p, mu=0.3, n=257),
                     PenaltySpec(p=p, weights=weights, mu=0.3),
                     PenaltySpec(p=p, weights=weights, mu=0.3,
                                 asymmetric=(np.full(257, 0.5), np.full(257, 2.0)))):
            rows = penalty_sum(values, spec)
            assert rows.tobytes() == np.array([penalty_sum(v, spec) for v in values]).tobytes()
