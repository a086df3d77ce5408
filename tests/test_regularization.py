"""Multiplier schedules and worst-case error bounds."""

import numpy as np
import pytest
from scipy.optimize import linprog

from sparseland.core import WeightSequence
from sparseland.errors import AlignmentError, ParameterError
from sparseland.regularization import (
    NoisePrior,
    SpectralEnvelope,
    besov_modulus_rate,
    check_mu_requirements,
    modulus_bounds,
    mu_schedule,
    primed_radii,
)


class TestNoisePrior:
    def test_validation(self):
        NoisePrior(0.0, 1.0)  # zero noise is allowed
        with pytest.raises(ParameterError):
            NoisePrior(-0.1, 1.0)
        with pytest.raises(ParameterError):
            NoisePrior(0.1, 0.0)


class TestSpectralEnvelope:
    def test_validation(self):
        SpectralEnvelope(np.array([0.5]), np.array([0.5]))
        with pytest.raises(ParameterError):
            SpectralEnvelope(np.array([0.5]), np.array([0.4]))
        with pytest.raises(ParameterError):
            SpectralEnvelope(np.array([0.0]), np.array([0.5]))
        with pytest.raises(AlignmentError):
            SpectralEnvelope(np.ones(2), np.ones(3))

    @pytest.mark.parametrize("b, B", [(np.nan, 1.0), (1.0, np.inf)])
    def test_non_finite_bounds_rejected(self, b, B):
        with pytest.raises(ParameterError, match="finite"):
            SpectralEnvelope(np.array([b]), np.array([B]))


class TestMuSchedule:
    def test_balanced_values(self):
        assert mu_schedule(NoisePrior(0.01, 1.0), 1.0) == pytest.approx(1e-4)
        assert mu_schedule(NoisePrior(0.1, 2.0), 2.0) == pytest.approx(0.01 / 4.0)

    def test_p_checked(self):
        with pytest.raises(ParameterError):
            mu_schedule(NoisePrior(0.1, 1.0), 2.5)


class TestCheckMuRequirements:
    def test_sqrt_schedule_passes(self):
        rep = check_mu_requirements(lambda e: np.sqrt(e),
                                    np.array([0.4, 0.2, 0.1, 0.05]))
        assert rep.passed
        assert rep.mu_decreasing and rep.ratio_decreasing
        assert rep.notes == ()

    def test_balanced_schedule_flagged_constant_ratio(self):
        rep = check_mu_requirements(lambda e: e**2,
                                    np.array([0.4, 0.2, 0.1]))
        assert not rep.passed
        assert rep.mu_decreasing
        assert not rep.ratio_decreasing
        assert any("constant" in note for note in rep.notes)

    def test_increasing_mu_flagged(self):
        rep = check_mu_requirements(lambda e: 1.0 / e,
                                    np.array([0.4, 0.2, 0.1]))
        assert not rep.passed
        assert not rep.mu_decreasing
        assert any("does not decrease" in note for note in rep.notes)

    def test_growing_ratio_flagged(self):
        # mu = eps^3 falls faster than eps^2, so eps^2/mu = 1/eps grows
        rep = check_mu_requirements(lambda e: e**3, np.array([0.4, 0.2, 0.1]))
        assert not rep.passed
        assert rep.mu_decreasing and not rep.ratio_decreasing
        assert rep.notes == ("eps^2/mu does not decrease toward 0 across the grid",)

    def test_sequence_input(self):
        rep = check_mu_requirements([0.2, 0.1, 0.05],
                                    np.array([0.4, 0.2, 0.1]))
        assert rep.passed
        with pytest.raises(AlignmentError):
            check_mu_requirements([0.2, 0.1], np.array([0.4, 0.2, 0.1]))

    def test_grid_validation(self):
        with pytest.raises(ParameterError):
            check_mu_requirements(lambda e: e, np.array([0.1, 0.2]))
        with pytest.raises(ParameterError):
            check_mu_requirements(lambda e: e, np.array([0.2]))
        with pytest.raises(ParameterError):
            check_mu_requirements(lambda e: e, np.array([0.2, -0.1]))

    def test_nonpositive_schedule_rejected(self):
        with pytest.raises(ParameterError):
            check_mu_requirements(lambda e: e - 0.2, np.array([0.4, 0.2, 0.1]))


class TestPrimedRadii:
    def test_hand_value(self):
        eps_p, rho_p = primed_radii(NoisePrior(0.1, 2.0), 0.05, 1.0)
        assert eps_p == pytest.approx(np.sqrt(0.01 + 0.05 * 2.0), rel=1e-14)
        assert rho_p == pytest.approx(2.0 + 0.01 / 0.05, rel=1e-14)

    def test_balanced_mu_gives_constant_factors(self):
        # at mu = eps^2 / rho^p the propagated radii are sqrt(2) eps and
        # 2^(1/p) rho exactly
        for p in (1.0, 1.5, 2.0):
            noise = NoisePrior(0.37, 1.9)
            mu = mu_schedule(noise, p)
            eps_p, rho_p = primed_radii(noise, mu, p)
            assert eps_p == pytest.approx(np.sqrt(2.0) * noise.epsilon, rel=1e-12)
            assert rho_p == pytest.approx(2.0 ** (1.0 / p) * noise.rho, rel=1e-12)

    def test_overflowing_radius_refused(self):
        # epsilon^2 overflows a Python float
        with pytest.raises(ParameterError, match="eps_primed"):
            primed_radii(NoisePrior(1e200, 1.0), 1.0, 1.0)

    def test_mu_checked(self):
        with pytest.raises(ParameterError):
            primed_radii(NoisePrior(0.1, 1.0), 0.0, 1.0)


class TestModulusBounds:
    def test_single_index_collapses(self):
        env = SpectralEnvelope(np.array([0.25]), np.array([0.25]))
        lo, hi = modulus_bounds(env, WeightSequence(np.array([1.0])), 1.0,
                                NoisePrior(0.1, 2.0))
        assert lo == pytest.approx(min(2.0, 0.1 / 0.5), rel=1e-14)
        assert hi == pytest.approx(lo, rel=1e-12)

    def test_lower_never_exceeds_upper(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = rng.integers(1, 12)
            b = rng.uniform(0.01, 1.0, size=n)
            B = b * rng.uniform(1.0, 3.0, size=n)
            env = SpectralEnvelope(b, B)
            w = WeightSequence(rng.uniform(0.1, 10.0, size=n))
            p = float(rng.uniform(1.0, 2.0))
            noise = NoisePrior(float(rng.uniform(0.001, 1.0)),
                               float(rng.uniform(0.1, 5.0)))
            lo, hi = modulus_bounds(env, w, p, noise)
            assert 0.0 <= lo <= hi * (1.0 + 1e-12)

    def test_monotone_in_epsilon(self):
        rng = np.random.default_rng(1)
        b = rng.uniform(0.05, 1.0, size=6)
        env = SpectralEnvelope(b, b)
        w = WeightSequence(rng.uniform(0.5, 2.0, size=6))
        prev = (0.0, 0.0)
        for eps in (0.01, 0.1, 0.5, 1.0):
            cur = modulus_bounds(env, w, 1.5, NoisePrior(eps, 1.0))
            assert cur[0] >= prev[0] and cur[1] >= prev[1]
            prev = cur

    def test_p2_linear_program_inside_bounds(self):
        # at p=2 the exact diagonal modulus is a small LP in h^2; it must
        # land between the certified bounds
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 10))
            b = rng.uniform(0.02, 1.0, size=n)
            env = SpectralEnvelope(b, b)
            w = WeightSequence(rng.uniform(0.1, 8.0, size=n))
            noise = NoisePrior(float(rng.uniform(0.01, 0.5)),
                               float(rng.uniform(0.5, 3.0)))
            lo, hi = modulus_bounds(env, w, 2.0, noise)
            res = linprog(-np.ones(n), A_ub=np.vstack([env.b, w.w]),
                          b_ub=[noise.epsilon**2, noise.rho**2],
                          bounds=[(0, None)] * n)
            assert res.success
            exact = np.sqrt(-res.fun)
            assert lo <= exact * (1.0 + 1e-9)
            assert exact <= hi * (1.0 + 1e-9)

    def test_overflowing_term_loses_the_min_quietly(self):
        # eps^2 / 1e-10 overflows; pytest turns a RuntimeWarning into an error
        env = SpectralEnvelope(np.array([1e-10, 1.0]), np.array([1e-10, 1.0]))
        lo, hi = modulus_bounds(env, WeightSequence(np.array([1.0, 1.0])), 2.0,
                                NoisePrior(1e150, 1.0))
        assert hi == 1.0  # the all-prior split: rho / sqrt(min w)
        assert lo <= hi
        # w^(-1/p) overflows for a subnormal weight in the lower bound
        env = SpectralEnvelope(np.array([0.25, 1.0]), np.array([0.25, 1.0]))
        lo, hi = modulus_bounds(env, WeightSequence(np.array([1e-310, 1.0])), 1.0,
                                NoisePrior(0.1, 1.0))
        assert lo == 0.2  # eps / sqrt(B) wins against the infinite prior term
        assert lo <= hi

    def test_matches_the_loop_over_splits(self):
        def reference_upper(env, w, p, noise):
            eps, rho = noise.epsilon, noise.rho
            order = np.argsort(env.b, kind="stable")
            b_sorted = env.b[order]
            prefix_min_w = np.minimum.accumulate((w ** (2.0 / p))[order])
            n = len(env)
            best = np.inf
            for k in range(n + 1):
                term_data = eps**2 / b_sorted[n - k] if k >= 1 else 0.0
                term_prior = rho**2 / prefix_min_w[n - k - 1] if k < n else 0.0
                best = min(best, term_data + term_prior)
            return float(np.sqrt(best))

        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            # repeated b values exercise the stable sort
            b = rng.choice(10.0 ** rng.uniform(-6, 0, size=n), size=n)
            env = SpectralEnvelope(b, b * rng.uniform(1.0, 3.0, size=n))
            w = 10.0 ** rng.uniform(-3, 3, size=n)
            p = float(rng.uniform(1.0, 2.0))
            noise = NoisePrior(float(10.0 ** rng.uniform(-4, 1)),
                               float(10.0 ** rng.uniform(-1, 2)))
            _, hi = modulus_bounds(env, WeightSequence(w), p, noise)
            assert hi == reference_upper(env, w, p, noise)

    def test_alignment(self):
        env = SpectralEnvelope(np.ones(2), np.ones(2))
        with pytest.raises(AlignmentError):
            modulus_bounds(env, WeightSequence(np.ones(3)), 1.0,
                           NoisePrior(0.1, 1.0))


class TestBesovModulusRate:
    def test_equal_orders_give_square_root(self):
        lo, hi = besov_modulus_rate(1.0, 1.0, 1.0, 1.0, NoisePrior(0.04, 1.0))
        assert lo == pytest.approx(0.2, rel=1e-14)
        assert hi == pytest.approx(0.2, rel=1e-14)
        # quadrupling eps doubles the bound at theta = 1/2
        lo4, _ = besov_modulus_rate(1.0, 1.0, 1.0, 1.0, NoisePrior(0.16, 1.0))
        assert lo4 == pytest.approx(2.0 * lo, rel=1e-12)

    def test_zero_sigma_is_flat_in_eps(self):
        lo, hi = besov_modulus_rate(1.0, 0.0, 0.5, 2.0, NoisePrior(0.01, 1.7))
        assert lo == hi == pytest.approx(1.7)

    def test_amplitude_ordering(self):
        lo, hi = besov_modulus_rate(1.0, 1.0, 0.5, 2.0, NoisePrior(0.1, 1.0))
        assert lo < hi
        # wider amplitude uncertainty only widens the bracket
        lo2, hi2 = besov_modulus_rate(1.0, 1.0, 0.25, 4.0, NoisePrior(0.1, 1.0))
        assert lo2 < lo and hi2 > hi

    def test_validation(self):
        with pytest.raises(ParameterError):
            besov_modulus_rate(0.0, 1.0, 1.0, 1.0, NoisePrior(0.1, 1.0))
        with pytest.raises(ParameterError):
            besov_modulus_rate(1.0, -0.5, 1.0, 1.0, NoisePrior(0.1, 1.0))
        with pytest.raises(ParameterError):
            besov_modulus_rate(1.0, 1.0, 2.0, 1.0, NoisePrior(0.1, 1.0))

    def test_dyadic_envelope_follows_the_rate(self):
        # diagonal envelope 4^(-j) with weights 2^(jp): sigma = alpha = 1,
        # so both modulus bounds must scale like sqrt(eps)
        j = np.arange(10, dtype=np.float64)
        p = 1.5
        env = SpectralEnvelope(4.0**(-j), 4.0**(-j))
        w = WeightSequence(2.0 ** (j * p))
        eps_grid = np.array([0.4, 0.1, 0.025, 0.00625])
        lows, highs = [], []
        for eps in eps_grid:
            lo, hi = modulus_bounds(env, w, p, NoisePrior(float(eps), 1.0))
            lows.append(lo)
            highs.append(hi)
        slope_lo = np.polyfit(np.log(eps_grid), np.log(lows), 1)[0]
        slope_hi = np.polyfit(np.log(eps_grid), np.log(highs), 1)[0]
        assert slope_lo == pytest.approx(0.5, abs=0.05)
        assert slope_hi == pytest.approx(0.5, abs=0.05)
        # and the rate calculator agrees up to its unit constants
        for eps, lo, hi in zip(eps_grid, lows, highs):
            rl, rh = besov_modulus_rate(1.0, 1.0, 1.0, 1.0,
                                        NoisePrior(float(eps), 1.0))
            assert 0.2 * rl <= lo <= 5.0 * rh
            assert 0.2 * rl <= hi <= 5.0 * rh
