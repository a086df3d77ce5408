"""Phantom construction, photon noise, and the experiment pipeline."""

import json

import numpy as np
import pytest
import scipy.ndimage

from sparseland.errors import ParameterError
from sparseland.experiment import (
    CaseSpec,
    DEFAULT_CASES,
    ExperimentConfig,
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

    def test_pair_sits_ten_pixels_apart(self):
        table = ExperimentConfig().ellipse_table()
        assert table[1]["center_col"] - table[0]["center_col"] == pytest.approx(10.0)


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

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "run"
        cfg = self._config(str(out))
        run_experiment(cfg)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        run_experiment(cfg)
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert before == after

    def test_config_hash_tracks_config(self, tmp_path):
        a = run_experiment(self._config()).manifest["config_hash"]
        b = run_experiment(self._config()).manifest["config_hash"]
        c = run_experiment(ExperimentConfig(grid=(64, 64), pad=(128, 128),
                                            iterations=30, cases=self._CASES,
                                            seed=8)).manifest["config_hash"]
        assert a == b
        assert a != c
