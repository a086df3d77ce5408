"""Round trips and byte-level layout of the file formats."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from sparseland import gridio
from sparseland.core import PenaltySpec, WeightSequence
from sparseland.errors import ParameterError
from sparseland.operators import DiagonalOperator
from sparseland.solver import SolverConfig, solve


class TestPgm:
    def test_round_trip_samples(self, tmp_path):
        rng = np.random.default_rng(0)
        image = rng.normal(size=(7, 5))
        path = tmp_path / "img.pgm"
        lo, hi = gridio.write_pgm(path, image, comments=["phantom run"])
        assert (lo, hi) == (image.min(), image.max())
        samples = gridio.read_pgm(path)
        assert samples.shape == image.shape
        assert samples.dtype == np.uint16
        expected = np.round((image - lo) / (hi - lo) * 65535)
        assert np.array_equal(samples, expected.astype(np.uint16))
        # extremes hit the full sample range
        assert samples.min() == 0 and samples.max() == 65535

    def test_constant_image_maps_to_zero(self, tmp_path):
        path = tmp_path / "flat.pgm"
        gridio.write_pgm(path, np.full((3, 3), 4.2))
        assert np.array_equal(gridio.read_pgm(path), np.zeros((3, 3), np.uint16))

    def test_byte_determinism(self, tmp_path):
        image = np.arange(12.0).reshape(3, 4)
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        gridio.write_pgm(a, image, comments=["x"])
        gridio.write_pgm(b, image, comments=["x"])
        assert a.read_bytes() == b.read_bytes()

    def test_window_recorded_in_header(self, tmp_path):
        path = tmp_path / "w.pgm"
        gridio.write_pgm(path, np.array([[0.0, 2.5]]))
        head = path.read_bytes().split(b"\n")
        assert head[0] == b"P5"
        assert head[1].startswith(b"# window 0 2.5")

    def test_rejects_bad_input(self, tmp_path):
        with pytest.raises(ParameterError):
            gridio.write_pgm(tmp_path / "x.pgm", np.ones(4))
        with pytest.raises(ParameterError):
            gridio.write_pgm(tmp_path / "x.pgm", np.ones((0, 3)))
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P6\n1 1\n255\n\x00")
        with pytest.raises(ParameterError):
            gridio.read_pgm(bad)

    def test_rejects_other_maxval(self, tmp_path):
        path = tmp_path / "byte.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + b"\x00" * 4)
        with pytest.raises(ParameterError, match="maxval 65535, got 255"):
            gridio.read_pgm(path)

    def test_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "short.pgm"
        gridio.write_pgm(path, np.ones((3, 4)))
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ParameterError, match="payload"):
            gridio.read_pgm(path)

    @pytest.mark.parametrize("content", [
        b"P5\n4 x\n65535\n" + b"\x00" * 24,  # non-integer field
        b"P5\n4 3\n# maxval missing\n",  # missing field
        b"P5\n4 -3\n65535\n" + b"\x00" * 24,  # negative dimension
        b"P5\n0 3\n65535\n",  # empty grid
        b"P5\n4 0\n65535\n",
    ])
    def test_rejects_bad_header(self, tmp_path, content):
        path = tmp_path / "bad.pgm"
        path.write_bytes(content)
        with pytest.raises(ParameterError):
            gridio.read_pgm(path)


class TestGridFormat:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        grid = rng.normal(size=(6, 9)) * 1e-7
        path = tmp_path / "g.slw"
        gridio.write_grid(path, grid)
        assert np.array_equal(gridio.read_grid(path), grid)

    def test_one_d_becomes_row(self, tmp_path):
        path = tmp_path / "v.slw"
        gridio.write_grid(path, np.array([1.0, 2.0, 3.0]))
        out = gridio.read_grid(path)
        assert out.shape == (1, 3)
        assert np.array_equal(out[0], [1.0, 2.0, 3.0])

    def test_rejects_three_axes(self, tmp_path):
        with pytest.raises(ParameterError, match="1-d or 2-d"):
            gridio.write_grid(tmp_path / "c.slw", np.ones((2, 2, 2)))

    def test_header_layout(self, tmp_path):
        path = tmp_path / "h.slw"
        gridio.write_grid(path, np.zeros((2, 3)))
        raw = path.read_bytes()
        assert raw[:8] == b"SLWFGRID"
        assert tuple(np.frombuffer(raw, "<u4", count=2, offset=8)) == (2, 3)
        assert len(raw) == 16 + 8 * 6

    def test_metadata_trails_the_payload(self, tmp_path):
        path = tmp_path / "m.slw"
        meta = {"mu": 0.05, "case": "l1"}
        grid = np.eye(3)
        gridio.write_grid(path, grid, metadata=meta)
        # payload readers are unaffected by the trailing line
        assert np.array_equal(gridio.read_grid(path), grid)
        assert gridio.read_grid_metadata(path) == meta
        tail = path.read_bytes()[16 + 8 * 9 :]
        assert json.loads(tail.decode()) == meta

    def test_metadata_absent_is_none(self, tmp_path):
        path = tmp_path / "n.slw"
        gridio.write_grid(path, np.ones((1, 1)))
        assert gridio.read_grid_metadata(path) is None

    def test_rejects_wrong_magic(self, tmp_path):
        bad = tmp_path / "bad.slw"
        bad.write_bytes(b"NOTAGRID" + b"\x00" * 16)
        with pytest.raises(ParameterError):
            gridio.read_grid(bad)
        short = tmp_path / "short.slw"
        short.write_bytes(b"SLWF")
        with pytest.raises(ParameterError):
            gridio.read_grid(short)

    def test_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "cut.slw"
        gridio.write_grid(path, np.ones((3, 4)))
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ParameterError, match="payload"):
            gridio.read_grid(path)
        with pytest.raises(ParameterError, match="payload"):
            gridio.read_grid_metadata(path)


class TestTraceCsv:
    def _fake_trace(self):
        return SimpleNamespace(
            objectives=np.array([3.0, 2.0, 1.5]),
            discrepancies=np.array([2.5, 1.5, 1.0]),
            penalties=np.array([0.5, 0.5, 0.5]),
            step_norms=np.array([0.7, 0.3]),
        )

    def test_header_and_initial_row(self, tmp_path):
        path = tmp_path / "t.csv"
        gridio.write_trace_csv(path, self._fake_trace(), comment="demo")
        lines = path.read_text().splitlines()
        assert lines[0] == "# demo"
        assert lines[1] == "iter,objective,discrepancy,penalty,step_norm"
        first = lines[2].split(",")
        assert first[0] == "0" and float(first[4]) == 0.0

    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        trace = self._fake_trace()
        gridio.write_trace_csv(path, trace)
        cols = gridio.read_trace_csv(path)
        assert np.array_equal(cols["iter"], [0.0, 1.0, 2.0])
        assert np.array_equal(cols["objective"], trace.objectives)
        assert np.array_equal(cols["discrepancy"], trace.discrepancies)
        assert np.array_equal(cols["penalty"], trace.penalties)
        assert np.array_equal(cols["step_norm"], [0.0, 0.7, 0.3])

    def test_real_solve_trace(self, tmp_path):
        op = DiagonalOperator(np.array([0.9, 0.5]))
        spec = PenaltySpec(p=1.0, weights=WeightSequence.uniform(2), mu=0.05)
        result = solve(np.array([1.0, 1.0]), op, spec,
                       SolverConfig(max_iterations=5, step_tolerance=0.0))
        path = tmp_path / "solve.csv"
        gridio.write_trace_csv(path, result.trace)
        cols = gridio.read_trace_csv(path)
        assert cols["iter"].size == result.trace.objectives.size
        assert np.all(np.diff(cols["objective"]) <= 1e-12)

    def test_bytes_pinned(self, tmp_path):
        path = tmp_path / "t.csv"
        gridio.write_trace_csv(path, self._fake_trace(), comment="demo")
        assert path.read_bytes() == (b"# demo\n"
                                     b"iter,objective,discrepancy,penalty,step_norm\n"
                                     b"0,3,2.5,0.5,0\n"
                                     b"1,2,1.5,0.5,0.69999999999999996\n"
                                     b"2,1.5,1,0.5,0.29999999999999999\n")

    def test_profile_table_bytes_pinned(self, tmp_path):
        path = tmp_path / "p.csv"
        gridio._write_table(path, "index", {"reference": np.array([0.1, 2.0]),
                                            "data": np.array([1e-300, -3.0])}, "config=abc")
        assert path.read_bytes() == (b"# config=abc\n"
                                     b"index,reference,data\n"
                                     b"0,0.10000000000000001,1e-300\n"
                                     b"1,2,-3\n")

    def test_missing_header_rejected(self, tmp_path):
        empty = tmp_path / "e.csv"
        empty.write_text("# only a comment\n")
        with pytest.raises(ParameterError):
            gridio.read_trace_csv(empty)

    @pytest.mark.parametrize("row", ["1,2.0", "1,2.0,abc", "0,1.0,3,4"],
                             ids=["short", "not-a-number", "one-field-more"])
    def test_malformed_row_names_the_file_and_line(self, tmp_path, row):
        path = tmp_path / "t.csv"
        path.write_text(f"# demo\niter,objective,penalty\n0,1.5,0.5\n\n{row}\n")
        with pytest.raises(ParameterError, match="t.csv, line 5: expected 3 numbers"):
            gridio.read_trace_csv(path)

    def test_header_alone_reads_empty_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("iter,objective\n")
        cols = gridio.read_trace_csv(path)
        assert list(cols) == ["iter", "objective"]
        assert all(col.shape == (0,) for col in cols.values())
