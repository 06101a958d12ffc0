"""CSV trace ingestion."""

import numpy as np
import pytest

from repro.workloads import load_csv_trace, save_csv_trace


class TestCsvRoundtrip:
    def test_roundtrip_preserves_everything(self, small_trace, tmp_path):
        path = tmp_path / "trace.csv"
        save_csv_trace(small_trace, path)
        loaded = load_csv_trace(path)
        assert len(loaded) == len(small_trace)
        assert np.allclose(loaded.arrivals, small_trace.arrivals)
        assert np.allclose(loaded.read_ops, small_trace.read_ops)
        assert loaded[0].pipeline == small_trace[0].pipeline
        assert loaded[0].metadata == small_trace[0].metadata
        assert loaded[0].resources == small_trace[0].resources

    def test_costs_survive_roundtrip(self, small_trace, tmp_path):
        path = tmp_path / "trace.csv"
        save_csv_trace(small_trace, path)
        loaded = load_csv_trace(path)
        assert np.allclose(loaded.costs().savings, small_trace.costs().savings)


class TestLoadValidation:
    def _write(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_text(text)
        return path

    def test_minimal_schema(self, tmp_path):
        path = self._write(
            tmp_path,
            "job_id,arrival,duration,size,read_bytes,write_bytes,read_ops\n"
            "0,0.0,60.0,1e9,2e9,1e9,5000\n",
        )
        trace = load_csv_trace(path)
        assert len(trace) == 1
        assert trace[0].pipeline == "pipeline0"  # default
        assert trace[0].size == 1e9

    def test_missing_column_rejected(self, tmp_path):
        path = self._write(tmp_path, "job_id,arrival\n0,0\n")
        with pytest.raises(ValueError, match="missing required columns"):
            load_csv_trace(path)

    def test_bad_numeric_reports_row(self, tmp_path):
        path = self._write(
            tmp_path,
            "job_id,arrival,duration,size,read_bytes,write_bytes,read_ops\n"
            "0,0.0,60.0,1e9,2e9,1e9,5000\n"
            "1,oops,60.0,1e9,2e9,1e9,5000\n",
        )
        with pytest.raises(ValueError, match="row 1"):
            load_csv_trace(path)

    def test_meta_and_resource_columns(self, tmp_path):
        path = self._write(
            tmp_path,
            "job_id,arrival,duration,size,read_bytes,write_bytes,read_ops,"
            "meta.step_name,resource.num_workers\n"
            "0,0.0,60.0,1e9,2e9,1e9,5000,s0-shuffle0,16\n",
        )
        trace = load_csv_trace(path)
        assert trace[0].metadata["step_name"] == "s0-shuffle0"
        assert trace[0].resources["num_workers"] == 16.0

    @pytest.mark.parametrize("cell", ("nan", "inf", "-inf"))
    def test_non_finite_resource_rejected(self, tmp_path, cell):
        """A non-finite group-C value is refused at ingest, as serving
        refuses it, naming the row and the job."""
        path = self._write(
            tmp_path,
            "job_id,arrival,duration,size,read_bytes,write_bytes,read_ops,"
            "resource.num_buckets\n"
            "0,0.0,60.0,1e9,2e9,1e9,5000,4\n"
            f"7,1.0,60.0,1e9,2e9,1e9,5000,{cell}\n",
        )
        with pytest.raises(ValueError, match="row 1: job 7 has non-finite resources"):
            load_csv_trace(path)

    def test_non_finite_resource_outside_group_c_loads(self, tmp_path):
        """Resource keys the model never reads are not checked."""
        path = self._write(
            tmp_path,
            "job_id,arrival,duration,size,read_bytes,write_bytes,read_ops,"
            "resource.num_workers\n"
            "0,0.0,60.0,1e9,2e9,1e9,5000,nan\n",
        )
        assert np.isnan(load_csv_trace(path)[0].resources["num_workers"])

    def test_empty_file_rejected(self, tmp_path):
        path = self._write(tmp_path, "")
        with pytest.raises(ValueError, match="empty"):
            load_csv_trace(path)

    def test_loaded_trace_runs_through_simulator(self, tmp_path):
        from repro.baselines import FirstFitPolicy
        from repro.storage import simulate

        path = self._write(
            tmp_path,
            "job_id,arrival,duration,size,read_bytes,write_bytes,read_ops\n"
            + "\n".join(
                f"{i},{i * 10.0},60.0,1e9,2e9,1e9,{1000 * (i + 1)}"
                for i in range(20)
            ),
        )
        trace = load_csv_trace(path)
        res = simulate(trace, FirstFitPolicy(), capacity=5e9)
        assert res.n_jobs == 20
