import csv
import json
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trialdesign.covariates import SyntheticSpec, generate_synthetic, matrix_hash
from trialdesign.cutting_plane import solve_exact
from trialdesign.limits import SolveLimits
from trialdesign.lower_bound import solve_lb
from trialdesign.objective import Allocation, spectral_cache
from trialdesign.report import (
    DesignReport,
    read_allocation_csv,
    read_matrix_csv,
    write_allocation_csv,
    write_matrix_csv,
)


def sample_report(**overrides) -> DesignReport:
    fields = dict(
        method="LB_APPROX",
        allocation=Allocation(np.array([1, -1, -1, 1])),
        surrogate_value=0.5,
        original_value=0.5,
        status="optimal",
        wall_time=0.125,
        seed=7,
        n=4,
        p=2,
        matrix_sha256="ab" * 32,
        diagnostics={"nodes": 3},
        parameters={"epsilon": 1e-6},
    )
    fields.update(overrides)
    return DesignReport(**fields)


class TestDesignReport:
    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            sample_report(method="GREEDY")

    def test_rejects_allocation_length_mismatch(self):
        with pytest.raises(ValueError, match="disagrees"):
            sample_report(n=6)

    def test_dict_round_trip(self):
        report = sample_report()
        clone = DesignReport.from_dict(report.to_dict())
        assert clone.method == report.method
        assert clone.allocation.x.tolist() == report.allocation.x.tolist()
        assert clone.surrogate_value == report.surrogate_value
        assert clone.original_value == report.original_value
        assert clone.status == report.status
        assert clone.seed == report.seed
        assert clone.matrix_sha256 == report.matrix_sha256
        assert clone.diagnostics == {"nodes": 3}

    def test_file_round_trip(self, tmp_path):
        report = sample_report()
        path = tmp_path / "report.json"
        report.save(path)
        clone = DesignReport.load(path)
        assert clone.to_dict() == report.to_dict()

    def test_missing_original_value_survives(self, tmp_path):
        report = sample_report(original_value=None)
        path = tmp_path / "confounded.json"
        report.save(path)
        doc = json.loads(path.read_text())
        assert doc["original_value"] is None
        assert DesignReport.load(path).original_value is None

    def test_numpy_values_serialize(self):
        report = sample_report(
            diagnostics={
                "gap": np.float64(0.25),
                "nodes": np.int64(12),
                "history": [np.array([1.0, 2.0]), (np.float32(3.0),)],
                "nested": {"k": np.int32(5)},
            }
        )
        doc = json.loads(report.to_json())
        assert doc["diagnostics"] == {
            "gap": 0.25,
            "nodes": 12,
            "history": [[1.0, 2.0], [3.0]],
            "nested": {"k": 5},
        }

    def test_json_is_stable(self):
        report = sample_report()
        assert report.to_json() == report.to_json()
        keys = list(json.loads(report.to_json()))
        assert keys == sorted(keys)


class TestFromRun:
    def test_derives_shape_hash_and_time_from_the_factored_matrix(self, toy_design):
        F = spectral_cache(toy_design)
        report = DesignReport.from_run(
            "RAND", F, time.monotonic() - 5.0, allocation=Allocation(np.array([1, -1, -1, 1])),
            surrogate_value=0.5, original_value=None, status="sampled", seed=3,
            diagnostics={}, parameters={"space": "rows"},
        )
        assert (report.n, report.p) == (4, 2)
        assert report.matrix_sha256 == matrix_hash(toy_design)
        assert report.wall_time >= 5.0
        assert report.parameters == {"space": "rows"}

    def test_exact_and_lb_echo_the_same_run_fields(self):
        H = generate_synthetic(SyntheticSpec(n=20, p=6, seed=2))
        limits = SolveLimits(epsilon=1e-7, time_limit=30.0, node_limit=5000, seed=9, mode="exact")
        exact, lb = solve_exact(H, limits), solve_lb(H, limits)
        for field in ("parameters", "n", "p", "seed", "matrix_sha256"):
            assert getattr(exact, field) == getattr(lb, field)
        assert exact.parameters == {
            "epsilon": 1e-7, "time_limit": 30.0, "node_limit": 5000, "mode": "exact",
            "space": "hypercube",
        }

    def test_every_balanced_allocation_confounds(self):
        # S(H'H)^-1 S = H'H for both balanced allocations (S = H'D_xH), so
        # the information matrix is singular and Sigma_beta does not exist
        H = np.array([[1.0, 1.0], [1.0, -1.0]])
        for report in (solve_exact(H), solve_lb(H)):
            assert report.original_value is None
            assert report.diagnostics["confounded"] is True


class TestMatrixCsv:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        matrix = rng.normal(size=(6, 3))
        path = tmp_path / "matrix.csv"
        write_matrix_csv(path, matrix)
        assert np.array_equal(read_matrix_csv(path), matrix)

    def test_header_row_skipped(self, tmp_path):
        matrix = np.array([[1.0, -1.0], [1.0, 1.0]])
        path = tmp_path / "matrix.csv"
        write_matrix_csv(path, matrix, columns=("intercept", "sex"))
        assert path.read_text().startswith("intercept,sex")
        assert np.array_equal(read_matrix_csv(path), matrix)

    def test_rejects_column_count_mismatch(self, tmp_path):
        with pytest.raises(ValueError, match="column count"):
            write_matrix_csv(tmp_path / "m.csv", np.ones((2, 2)), columns=("a",))

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_matrix_csv(path)

    def test_rejects_header_without_rows(self, tmp_path):
        path = tmp_path / "headeronly.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError, match="no data rows"):
            read_matrix_csv(path)


class TestAllocationCsv:
    def test_round_trip(self, tmp_path):
        alloc = Allocation(np.array([1, -1, 1, -1, -1, 1]))
        path = tmp_path / "alloc.csv"
        write_allocation_csv(path, alloc)
        assert read_allocation_csv(path).x.tolist() == alloc.x.tolist()

    def test_rows_keyed_by_index(self, tmp_path):
        path = tmp_path / "shuffled.csv"
        path.write_text("index,sign\n2,1\n0,-1\n1,1\n3,-1\n")
        assert read_allocation_csv(path).x.tolist() == [-1, 1, 1, -1]

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("patient,arm\n0,1\n")
        with pytest.raises(ValueError, match="header"):
            read_allocation_csv(path)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("0,1\n1,-1\n1,1\n0,-1\n", "line 4: duplicate index 1 \\(first on line 3\\)"),
            ("0,1\n2,-1\n", "missing \\[1\\]"),
            ("0,1\n1,-1\n7,1\n3,-1\n", "out of range \\[7\\]"),
            ("0,1\n-1,-1\n", "out of range \\[-1\\]"),
            ("0,1\n1.0,-1\n", "line 3: index and sign must be integers"),
            ("0,1\nx,-1\n", "line 3: index and sign must be integers"),
            ("0,1\n1,0\n", "line 3: sign must be \\+1 or -1"),
            ("0,1\n1,-1,5\n", "line 3: expected 2 fields, got 3"),
            ("0,1\n1,1\n", "unbalanced"),
            ("", "non-empty"),
        ],
        ids=[
            "duplicate", "missing", "out-of-range", "negative", "float-index",
            "text-index", "zero-sign", "extra-field", "unbalanced", "no-rows",
        ],
    )
    def test_rejects_malformed_rows_naming_the_file(self, tmp_path, body, message):
        path = tmp_path / "alloc.csv"
        path.write_text("index,sign\n" + body)
        with pytest.raises(ValueError, match=message) as info:
            read_allocation_csv(path)
        assert str(info.value).startswith(str(path))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("index,sign\n1,-1\n\n0,1\n\n")
        assert read_allocation_csv(path).x.tolist() == [1, -1]

    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        rows=st.lists(
            st.one_of(
                st.tuples(st.integers(-2, 8), st.sampled_from([-1, 1])),
                st.tuples(
                    st.one_of(st.integers(), st.text(max_size=4)),
                    st.one_of(st.integers(-2, 2), st.text(max_size=4)),
                ),
                st.lists(st.text(max_size=3), max_size=3),
            ),
            max_size=8,
        )
    )
    def test_fuzzed_rows_give_allocation_or_value_error(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.csv"
            with open(path, "w", newline="", encoding="utf-8") as handle:
                writer = csv.writer(handle)
                writer.writerow(["index", "sign"])
                writer.writerows(rows)
            try:
                alloc = read_allocation_csv(path)
            except ValueError as err:
                assert str(err).startswith(str(path))
                return
        # accepted: the indices were exactly 0..n-1 and the signs balanced
        by_index = {int(r[0]): int(r[1]) for r in rows if r}
        assert sorted(by_index) == list(range(alloc.n))
        assert alloc.x.tolist() == [by_index[i] for i in range(alloc.n)]


def test_matrix_hash_reexport(toy_design):
    from trialdesign import report

    assert report.matrix_hash(toy_design) == matrix_hash(toy_design)
