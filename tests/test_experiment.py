"""Phantom construction, photon noise, and the experiment pipeline."""

import json
from dataclasses import replace

import numpy as np
import pytest
import scipy.ndimage

from sparseland.errors import ParameterError
from sparseland.experiment import (
    CaseSpec,
    DEFAULT_CASES,
    ExperimentConfig,
    _config_hash,
    _gaussian_smooth,
    add_poisson_noise,
    count_profile_peaks,
    make_phantom,
    run_experiment,
)
from sparseland.gridio import read_grid_metadata
from sparseland.operators import Convolution2DOperator


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.grid == (256, 256) and cfg.pad == (512, 512)
        assert cfg.cases == DEFAULT_CASES
        assert {c.name for c in cfg.cases} == {"l1", "l1_nonneg", "l2", "l2_nonneg"}

    def test_validation(self):
        with pytest.raises(ParameterError):
            ExperimentConfig(grid=(32, 64))
        with pytest.raises(ParameterError):
            ExperimentConfig(grid=(128, 128), pad=(64, 128))
        with pytest.raises(ParameterError):
            ExperimentConfig(total_photons=0.0)
        with pytest.raises(ParameterError):
            ExperimentConfig(iterations=0)
        with pytest.raises(ParameterError):
            ExperimentConfig(iterations=2.5)
        with pytest.raises(ParameterError):
            ExperimentConfig(cases=())

    @pytest.mark.parametrize("kwargs", [
        {"grid": (64.9, 64)},      # would truncate to 64
        {"pad": (128.5, 128)},
        {"grid": (64, 64, 1)},
        {"seed": 7.9},
        {"seed": "7"},
        {"seed": -1},
    ])
    def test_shapes_and_seed_are_integers(self, kwargs):
        with pytest.raises(ParameterError):
            ExperimentConfig(**{"grid": (64, 64), "pad": (128, 128), **kwargs})

    @pytest.mark.parametrize("kwargs", [
        {"total_photons": float("inf")},
        {"total_photons": float("nan")},
        {"total_photons": "1e4"},        # would be parsed by float()
        {"total_photons": -1.0},
        {"smoothing_sigma": -1.0},
        {"smoothing_sigma": float("nan")},
        {"smoothing_sigma": "1.0"},
        {"smoothing_sigma": None},
        {"radius_fraction": 0.0},
        {"radius_fraction": 1.5},
        {"radius_fraction": float("nan")},
        {"radius_fraction": "0.1"},
    ])
    def test_numbers_checked_at_construction(self, kwargs):
        with pytest.raises(ParameterError):
            ExperimentConfig(**{"grid": (64, 64), "pad": (128, 128), **kwargs})

    def test_case_numbers_normalized(self):
        # an int and a float p are one experiment, so they give one hash
        ints = ExperimentConfig(cases=(CaseSpec("l1", 1, 1e-3, False),))
        floats = ExperimentConfig(cases=(CaseSpec("l1", 1.0, 1e-3, False),))
        assert ints.cases[0].p == 1.0 and type(ints.cases[0].p) is float
        assert _config_hash(ints) == _config_hash(floats)

    @pytest.mark.parametrize("args", [
        ("l1", 1.0, 1e-3, 0),
        ("l1", 1.0, 1e-3, np.True_),
        ("l1", 3.0, 1e-3, False),
        ("l1", "1", 1e-3, False),
        ("l1", 1.0, 0.0, False),
        ("l1", 1.0, "1e-3", False),
        ("", 1.0, 1e-3, False),
        (None, 1.0, 1e-3, False),
    ])
    def test_bad_case_rejected(self, args):
        with pytest.raises(ParameterError):
            CaseSpec(*args)

    def test_cases_must_be_case_specs(self):
        for cases in ((("l1", 1.0, 1e-3, False),), (), [DEFAULT_CASES[0], None]):
            with pytest.raises(ParameterError):
                ExperimentConfig(cases=cases)

    @pytest.mark.parametrize("cases", [5, DEFAULT_CASES[0]])
    def test_cases_must_be_a_sequence(self, cases):
        with pytest.raises(ParameterError, match="cases must be a nonempty sequence"):
            ExperimentConfig(cases=cases)

    def test_numpy_reals_accepted(self):
        cfg = ExperimentConfig(total_photons=np.float32(1e4), smoothing_sigma=np.int64(0),
                               radius_fraction=np.float64(1.0))
        assert (cfg.total_photons, cfg.smoothing_sigma, cfg.radius_fraction) == (1e4, 0.0, 1.0)
        assert type(cfg.radius_fraction) is float

    def test_numpy_integers_accepted(self):
        cfg = ExperimentConfig(grid=np.array([64, 64]), pad=(np.int32(128), 128),
                               seed=np.uint8(0))
        assert cfg.grid == (64, 64) and cfg.pad == (128, 128) and cfg.seed == 0
        assert type(cfg.seed) is int

    def test_ellipse_table_scales_with_grid(self):
        ref = ExperimentConfig().ellipse_table()
        small = ExperimentConfig(grid=(64, 64), pad=(128, 128)).ellipse_table()
        assert len(ref) == 4
        for big, little in zip(ref, small):
            assert little["semi_row"] == pytest.approx(big["semi_row"] / 4)
            assert little["center_row"] == pytest.approx(big["center_row"] / 4)
            assert little["amplitude"] == big["amplitude"]

    def test_diagnostic_lines(self):
        cfg = ExperimentConfig()
        assert cfg.diagnostic_row == 96
        assert cfg.diagnostic_col == 72
        # the horizontal line passes through the close pair of sources
        table = cfg.ellipse_table()
        assert table[0]["center_row"] == pytest.approx(cfg.diagnostic_row)
        assert table[1]["center_row"] == pytest.approx(cfg.diagnostic_row)


class TestPhantom:
    def test_four_sources_above_half_max(self):
        for cfg in (ExperimentConfig(),
                    ExperimentConfig(grid=(64, 64), pad=(128, 128))):
            phantom = make_phantom(cfg)
            _, count = scipy.ndimage.label(phantom > 0.5 * phantom.max())
            assert count == 4

    def test_nonnegative_and_smoothed(self):
        phantom = make_phantom(ExperimentConfig())
        assert phantom.min() >= 0.0
        # smoothing leaves no hard 0/1 edges at the source boundaries
        assert 0.0 < phantom.max() < 1.6
        assert np.count_nonzero((phantom > 0.01) & (phantom < 0.9)) > 0

    @pytest.mark.parametrize("grid, limit", [((64, 64), 64.5), ((64, 128), 128.5)])
    def test_smoothing_radius_bounded_by_grid(self, grid, limit):
        # sigma is smoothing_sigma / 4 pixels on a 64-row grid, so the
        # Gaussian radius int(4 sigma + 0.5) passes the larger side at limit
        largest = np.nextafter(limit, 0.0)
        phantom = make_phantom(ExperimentConfig(grid=grid, pad=grid, smoothing_sigma=largest))
        assert np.all(np.isfinite(phantom)) and phantom.min() >= 0.0 and phantom.max() > 0.0
        for sigma in (limit, 1e12):
            with pytest.raises(ParameterError, match="smoothing_sigma"):
                ExperimentConfig(grid=grid, pad=grid, smoothing_sigma=sigma)

    def test_pair_sits_ten_pixels_apart(self):
        table = ExperimentConfig().ellipse_table()
        assert table[1]["center_col"] - table[0]["center_col"] == pytest.approx(10.0)


class TestGaussianSmoothing:
    """The numpy smoothing reproduces the ndimage reference to the bit."""

    # 0.1 has a kernel of one tap; 70 reaches past every axis below
    @pytest.mark.parametrize("sigma", [0.1, 0.3, 1.0, 2.5, 70.0])
    @pytest.mark.parametrize("shape", [(256, 256), (64, 128), (37, 100)])
    def test_equals_ndimage_gaussian_filter(self, shape, sigma):
        rng = np.random.default_rng(shape[0] * shape[1])
        image = rng.random(shape) * (rng.random(shape) < 0.3)
        expected = scipy.ndimage.gaussian_filter(image, sigma, mode="constant")
        assert np.array_equal(_gaussian_smooth(image, sigma), expected)

    @pytest.mark.parametrize("smoothing_sigma", [1.0, 2.3])
    def test_phantom_equals_ndimage_smoothed_render(self, smoothing_sigma):
        cfg = ExperimentConfig(smoothing_sigma=smoothing_sigma)
        render = make_phantom(replace(cfg, smoothing_sigma=0.0))
        expected = np.maximum(scipy.ndimage.gaussian_filter(
            render, smoothing_sigma, mode="constant"), 0.0)
        assert np.array_equal(make_phantom(cfg), expected)


class TestPoissonNoise:
    def test_deterministic_and_scaled(self):
        image = np.abs(np.random.default_rng(5).normal(size=(20, 20))) + 0.1
        a = add_poisson_noise(image, 5000.0, seed=11)
        b = add_poisson_noise(image, 5000.0, seed=11)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.data, a.counts / 5000.0)
        assert a.count_scale == pytest.approx(5000.0 / image.sum())
        assert a.max_expected_count == pytest.approx(image.max() * a.count_scale)
        # realized total fluctuates around the budget
        assert abs(a.counts.sum() - 5000.0) < 5 * np.sqrt(5000.0)

    def test_different_seeds_differ(self):
        image = np.ones((10, 10))
        a = add_poisson_noise(image, 1000.0, seed=1)
        b = add_poisson_noise(image, 1000.0, seed=2)
        assert not np.array_equal(a.counts, b.counts)

    def test_tiny_negatives_clamped_with_warning(self):
        image = np.ones((4, 4))
        image[0, 0] = -1e-12
        with pytest.warns(RuntimeWarning, match="clamping tiny negative"):
            noisy = add_poisson_noise(image, 100.0, seed=0)
        assert noisy.counts.min() >= 0.0

    def test_gross_negatives_rejected(self):
        image = np.ones((4, 4))
        image[0, 0] = -0.5
        with pytest.raises(ParameterError):
            add_poisson_noise(image, 100.0, seed=0)

    def test_budget_checked(self):
        with pytest.raises(ParameterError):
            add_poisson_noise(np.ones((3, 3)), 0.0, seed=0)
        with pytest.raises(ParameterError):
            add_poisson_noise(np.zeros((3, 3)), 10.0, seed=0)

    def test_rate_beyond_the_sampler_rejected(self):
        # numpy draws Poisson counts only for rates up to about 9.2e18
        with pytest.raises(ParameterError, match="too large"):
            add_poisson_noise(np.ones((3, 3)), 1e308, seed=0)
        with pytest.raises(ParameterError, match="too large"):
            add_poisson_noise(np.ones((3, 3)), 9e19, seed=0)
        assert add_poisson_noise(np.ones((3, 3)), 9e18, seed=0).max_expected_count == 1e18

    @pytest.mark.parametrize("seed", [2.7, True, "2", -1])
    def test_seed_is_a_nonnegative_integer(self, seed):
        with pytest.raises(ParameterError):
            add_poisson_noise(np.ones((3, 3)), 10.0, seed=seed)


class TestPeakCounting:
    def test_simple_maxima(self):
        assert count_profile_peaks([0.0, 1.0, 0.0]) == 1
        assert count_profile_peaks([0, 1, 0, 1, 0]) == 2
        assert count_profile_peaks([0.0, 1.0, 1.0, 0.0]) == 0  # plateau
        assert count_profile_peaks([1.0, 0.0]) == 0

    def test_relative_floor(self):
        profile = [0.0, 1.0, 0.0, 0.3, 0.0]
        assert count_profile_peaks(profile) == 1
        assert count_profile_peaks(profile, rel_height=0.2) == 2

    def test_window_restricts_both_segment_and_floor(self):
        profile = [0.0, 10.0, 0.0, 0.0, 0.0, 1.0, 0.0]
        assert count_profile_peaks(profile) == 1
        assert count_profile_peaks(profile, window=(3, 7)) == 1
        assert count_profile_peaks(profile, window=(2, 4)) == 0


class TestBlurredExpectation:
    """The optics merge the close pair; photon statistics and the
    expected-count budget behave as recorded in the manifest."""

    def test_blur_merges_pair_but_phantom_resolves_it(self):
        cfg = ExperimentConfig()
        phantom = make_phantom(cfg)
        K = Convolution2DOperator(cfg.grid, cfg.pad, cfg.radius_fraction)
        clean = np.maximum(K.apply(phantom.ravel()).reshape(cfg.grid), 0.0)
        row = cfg.diagnostic_row
        window = (96, 123)
        blurred = clean / clean.sum()
        reference = phantom / clean.sum()
        assert count_profile_peaks(blurred[row, :], window) == 1
        assert count_profile_peaks(reference[row, :], window) == 2

    def test_default_photon_budget_peaks_in_the_low_twenties(self):
        cfg = ExperimentConfig()
        phantom = make_phantom(cfg)
        K = Convolution2DOperator(cfg.grid, cfg.pad, cfg.radius_fraction)
        clean = np.maximum(K.apply(phantom.ravel()).reshape(cfg.grid), 0.0)
        noisy = add_poisson_noise(clean, cfg.total_photons, cfg.seed)
        assert 15.0 <= noisy.max_expected_count <= 35.0


class TestPipeline:
    _CASES = (CaseSpec("l1", 1.0, 1e-3, False), CaseSpec("l2_nonneg", 2.0, 1e-4, True))

    def _config(self, output_dir=None):
        return ExperimentConfig(grid=(64, 64), pad=(128, 128), iterations=30,
                                cases=self._CASES, output_dir=output_dir)

    def test_in_memory_structure(self):
        result = run_experiment(self._config())
        assert set(result.reconstructions) == {"l1", "l2_nonneg"}
        for recon in result.reconstructions.values():
            assert recon.shape == (64, 64)
        assert result.reconstructions["l2_nonneg"].min() >= 0.0
        for direction in ("horizontal", "vertical"):
            cols = result.profiles[direction]
            assert set(cols) == {"reference", "blurred", "data", "l1", "l2_nonneg"}
            for v in cols.values():
                assert v.shape == (64,)
        for res in result.results.values():
            assert np.all(np.diff(res.trace.objectives) <= 1e-12)
        lo, hi = result.pair_window()
        assert 0 <= lo < hi <= 64

    def test_pair_window_brackets_both_centers(self):
        result = run_experiment(self._config())
        lo, hi = result.pair_window()
        table = result.config.ellipse_table()
        assert lo <= table[0]["center_col"] <= hi - 1
        assert lo <= table[1]["center_col"] <= hi - 1

    def test_output_files_and_manifest(self, tmp_path):
        out = tmp_path / "run"
        result = run_experiment(self._config(str(out)))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["format"] == "sparseland-experiment"
        assert sorted(p.name for p in out.iterdir()) == manifest["files"]
        for name in manifest["files"]:
            assert (out / name).stat().st_size > 0
        assert manifest["config_hash"] == result.manifest["config_hash"]
        assert len(manifest["config_hash"]) == 16
        for case in self._CASES:
            entry = manifest["cases"][case.name]
            assert entry["p"] == case.p and entry["project"] == case.project
            assert entry["iterations"] == 30
        meta = read_grid_metadata(out / "recon_l1.grid")
        assert meta["config_hash"] == manifest["config_hash"]

    def test_profile_csv_bytes(self, tmp_path):
        out = tmp_path / "run"
        result = run_experiment(self._config(str(out)))
        manifest = result.manifest
        for direction in ("horizontal", "vertical"):
            columns = result.profiles[direction]
            lines = [f"# config={manifest['config_hash']} version={manifest['version']}",
                     "index,reference,blurred,data,l1,l2_nonneg"]
            lines += [f"{i}," + ",".join(format(float(v), ".17g") for v in row)
                      for i, row in enumerate(zip(*columns.values()))]
            assert len(lines) == 2 + 64
            assert (out / f"profile_{direction}.csv").read_bytes() == \
                ("\n".join(lines) + "\n").encode("utf-8")

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "run"
        cfg = self._config(str(out))
        run_experiment(cfg)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        run_experiment(cfg)
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert before == after

    def test_output_dir_leaves_files_unchanged(self, tmp_path):
        run_experiment(self._config(str(tmp_path / "a")))
        run_experiment(self._config(str(tmp_path / "b")))
        a = {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()}
        b = {p.name: p.read_bytes() for p in (tmp_path / "b").iterdir()}
        assert sorted(a) == json.loads(a["manifest.json"])["files"]
        assert a == b

    def test_config_hash_tracks_config(self, tmp_path):
        a = run_experiment(self._config()).manifest["config_hash"]
        b = run_experiment(self._config()).manifest["config_hash"]
        c = run_experiment(ExperimentConfig(grid=(64, 64), pad=(128, 128),
                                            iterations=30, cases=self._CASES,
                                            seed=8)).manifest["config_hash"]
        assert a == b
        assert a != c
