import json
import subprocess
import sys

import numpy as np
import pytest

from trialdesign import baselines, lower_bound
from trialdesign.baselines import rand_benchmark
from trialdesign.cli import main
from trialdesign.report import (
    DesignReport,
    read_allocation_csv,
    read_matrix_csv,
    write_allocation_csv,
    write_matrix_csv,
)
from trialdesign.objective import Allocation

TOY = np.array([[1.0, 1.0], [1.0, -1.0], [1.0, 1.0], [1.0, -1.0]])


def run_cli(capsys, *argv) -> tuple[int, dict | None, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


@pytest.fixture
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    write_matrix_csv(path, TOY, columns=("intercept", "marker"))
    return path


class TestSynth:
    def test_writes_matrix_and_summary(self, tmp_path, capsys):
        out = tmp_path / "synth.csv"
        code, doc, _ = run_cli(
            capsys, "synth", "--n", "12", "--p", "3", "--seed", "1", "--out", str(out)
        )
        assert code == 0
        assert doc["n"] == 12
        assert doc["p"] == 3
        assert len(doc["matrix_sha256"]) == 64
        matrix = read_matrix_csv(out)
        assert matrix.shape == (12, 3)
        assert np.all(matrix[:, 0] == 1.0)
        assert np.all(np.isin(matrix[:, 1:], (-1.0, 1.0)))

    def test_rejects_odd_n(self, tmp_path, capsys):
        code, doc, err = run_cli(
            capsys, "synth", "--n", "11", "--p", "2",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert doc is None
        assert json.loads(err)["error"]["type"] == "ValueError"


class TestEncode:
    def test_csv_with_schema(self, tmp_path, capsys):
        csv_path = tmp_path / "raw.csv"
        csv_path.write_text(
            "id,sex,age\n1,M,b\n2,F,a\n3,M,\n4,F,c\n5,M,a\n6,F,b\n"
        )
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(
            json.dumps(
                {
                    "columns": [
                        {"name": "sex", "kind": "binary", "levels": ["F", "M"]},
                        {
                            "name": "age",
                            "kind": "categorical",
                            "levels": ["a", "b", "c"],
                        },
                    ]
                }
            )
        )
        out = tmp_path / "encoded.csv"
        code, doc, _ = run_cli(
            capsys, "encode", "--csv", str(csv_path),
            "--schema", str(schema_path), "--out", str(out),
        )
        assert code == 0
        assert doc["excluded_rows"] == 1
        assert doc["n"] == 5
        assert doc["p"] == 4
        assert doc["columns"][0] == "intercept"
        assert read_matrix_csv(out).shape == (5, 4)

    @pytest.mark.parametrize("missing", ["name", "kind", "levels"])
    def test_schema_column_missing_key_is_reported(self, tmp_path, capsys, missing):
        csv_path = tmp_path / "raw.csv"
        csv_path.write_text("sex,age\nM,a\nF,b\n")
        column = {"name": "age", "kind": "categorical", "levels": ["a", "b"]}
        del column[missing]
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(
            json.dumps(
                {"columns": [{"name": "sex", "kind": "binary", "levels": ["F", "M"]}, column]}
            )
        )
        code, doc, err = run_cli(
            capsys, "encode", "--csv", str(csv_path),
            "--schema", str(schema_path), "--out", str(tmp_path / "out.csv"),
        )
        assert code == 1
        assert doc is None
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError"
        assert error["message"] == f"schema column 1: missing key {missing!r}"

    def test_malformed_yaml_schema_is_reported(self, tmp_path, capsys):
        csv_path = tmp_path / "raw.csv"
        csv_path.write_text("sex\nM\nF\n")
        schema_path = tmp_path / "schema.yaml"
        schema_path.write_text("columns:\n  - name: [sex\n")
        code, doc, err = run_cli(
            capsys, "encode", "--csv", str(csv_path),
            "--schema", str(schema_path), "--out", str(tmp_path / "out.csv"),
        )
        assert code == 1
        assert doc is None
        assert "malformed YAML" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("levels", [["no", "yes"], ["off", "on"], ["01", "02"]])
    def test_yaml_levels_are_read_as_written(self, tmp_path, capsys, levels):
        csv_path = tmp_path / "raw.csv"
        cells = [levels[0], levels[1], levels[1], levels[0]]
        csv_path.write_text("id,flag\n" + "".join(f"{i},{v}\n" for i, v in enumerate(cells)))
        schema_path = tmp_path / "schema.yaml"
        schema_path.write_text(
            f"columns:\n  - name: flag\n    kind: binary\n    levels: [{levels[0]}, {levels[1]}]\n"
        )
        out = tmp_path / "encoded.csv"
        code, doc, err = run_cli(
            capsys, "encode", "--csv", str(csv_path),
            "--schema", str(schema_path), "--out", str(out),
        )
        assert code == 0, err
        assert doc["columns"] == ["intercept", f"flag={levels[1]}"]
        assert read_matrix_csv(out)[:, 1].tolist() == [-1.0, 1.0, 1.0, -1.0]

    def test_oversized_csv_field_is_reported(self, tmp_path, capsys):
        # a cell past the csv module's field limit raised csv.Error
        csv_path = tmp_path / "raw.csv"
        csv_path.write_text("id,sex\n1,M\n2," + "F" * 200_000 + "\n")
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(
            json.dumps({"columns": [{"name": "sex", "kind": "binary", "levels": ["F", "M"]}]})
        )
        code, doc, err = run_cli(
            capsys, "encode", "--csv", str(csv_path),
            "--schema", str(schema_path), "--out", str(tmp_path / "out.csv"),
        )
        assert code == 1
        assert doc is None
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError"
        assert error["message"].startswith(str(csv_path))
        assert "field larger than field limit" in error["message"]


class TestDesign:
    @pytest.mark.parametrize(
        "method, keys",
        [
            ("exact", {"epsilon", "time_limit", "node_limit", "mode", "space"}),
            ("lb", {"epsilon", "time_limit", "node_limit", "mode", "space"}),
            ("rand", {"replicates", "space", "time_limit", "node_limit"}),
        ],
    )
    def test_parameters_echo_what_the_method_reads(self, method, keys, toy_csv, capsys):
        code, doc, _ = run_cli(
            capsys, "design", "--matrix", str(toy_csv), "--method", method,
            "--mode", "heuristic", "--space", "rows", "--replicates", "3",
        )
        assert code == 0
        params = doc["parameters"]
        assert set(params) == keys | {"matrix", "matrix_file_sha256", "method"}
        assert params["space"] == "rows"
        assert params.get("mode", "heuristic") == "heuristic"
        assert params.get("replicates", 3) == 3

    @pytest.mark.parametrize("method", ["exact", "lb"])
    @pytest.mark.parametrize("epsilon", ["inf", "nan"])
    def test_rejects_non_finite_epsilon(self, method, epsilon, tmp_path, capsys):
        # an infinite epsilon once certified any EXACT master: on this
        # matrix it reported optimal at 0.18519, above the certified 0.16667
        matrix = tmp_path / "m.csv"
        run_cli(capsys, "synth", "--n", "30", "--p", "4", "--seed", "1", "--out", str(matrix))
        code, doc, err = run_cli(
            capsys, "design", "--matrix", str(matrix), "--method", method, "--epsilon", epsilon,
        )
        assert code == 1
        assert doc is None
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError"
        assert error["message"] == "epsilon must be positive and finite"

    def test_lb_on_toy(self, toy_csv, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        alloc_path = tmp_path / "alloc.csv"
        code, doc, _ = run_cli(
            capsys, "design", "--matrix", str(toy_csv), "--method", "lb",
            "--out", str(report_path), "--allocation-out", str(alloc_path),
        )
        assert code == 0
        assert doc["method"] == "LB_APPROX"
        assert doc["surrogate_value"] == pytest.approx(0.5, abs=1e-9)
        assert doc["status"] == "optimal"
        assert doc["parameters"]["method"] == "lb"
        assert "threads" not in doc["parameters"]
        stored = DesignReport.load(report_path)
        assert stored.to_dict() == doc
        alloc = read_allocation_csv(alloc_path)
        assert alloc.x.tolist() == doc["allocation"]

    def test_exact_on_toy(self, toy_csv, capsys):
        code, doc, _ = run_cli(
            capsys, "design", "--matrix", str(toy_csv), "--method", "exact"
        )
        assert code == 0
        assert doc["method"] == "EXACT"
        assert doc["status"] == "optimal"
        assert doc["surrogate_value"] == pytest.approx(0.5, abs=1e-9)
        assert doc["diagnostics"]["iterations"] <= 2

    def test_rand_reports_both_quantile_sets(self, toy_csv, capsys):
        code, doc, _ = run_cli(
            capsys, "design", "--matrix", str(toy_csv), "--method", "rand",
            "--replicates", "30", "--seed", "2",
        )
        assert code == 0
        assert doc["method"] == "RAND"
        assert doc["status"] == "sampled"
        assert set(doc["diagnostics"]["quantiles"]) == {"surrogate", "original"}
        for values in doc["diagnostics"]["quantiles"]["surrogate"].values():
            assert values >= 0.5 - 1e-12
        assert len(doc["allocation"]) == 4
        for key in ("confounded", "unfinished", "separation_nodes"):
            assert set(doc["diagnostics"][key]) == {"surrogate", "original"}
        assert doc["diagnostics"]["unfinished"] == {"surrogate": 0, "original": 0}

    def test_rand_separations_stop_at_the_limits(self, tmp_path, capsys):
        # without the limits, these separations explored 26,759 nodes and
        # every one finished
        matrix = tmp_path / "m.csv"
        run_cli(capsys, "synth", "--n", "60", "--p", "25", "--seed", "1", "--out", str(matrix))
        code, doc, err = run_cli(
            capsys, "design", "--matrix", str(matrix), "--method", "rand",
            "--replicates", "3", "--node-limit", "1", "--time-limit", "0.001",
        )
        assert code == 0, err
        assert doc["parameters"]["node_limit"] == 1
        assert doc["parameters"]["time_limit"] == 0.001
        assert sum(doc["diagnostics"]["unfinished"].values()) > 0

    @pytest.mark.parametrize("method", ["exact", "lb", "rand"])
    def test_solver_methods_reject_a_zero_time_limit(self, method, toy_csv, capsys):
        code, doc, err = run_cli(
            capsys, "design", "--matrix", str(toy_csv), "--method", method,
            "--time-limit", "0",
        )
        assert code == 1 and doc is None
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError" and "time_limit" in error["message"]

    def test_exact_with_tiny_time_limit_finishes_one_round(self, tmp_path, capsys):
        matrix = tmp_path / "m.csv"
        run_cli(capsys, "synth", "--n", "30", "--p", "4", "--seed", "1", "--out", str(matrix))
        code, doc, err = run_cli(
            capsys, "design", "--matrix", str(matrix), "--method", "exact",
            "--time-limit", "0.001",
        )
        assert code == 0, err
        assert doc["status"] == "incumbent"
        assert doc["diagnostics"]["iterations"] == 1
        assert len(doc["diagnostics"]["history"]) == 1
        assert len(doc["allocation"]) == 30
        assert abs(sum(doc["allocation"])) <= 1
        assert np.isfinite(doc["surrogate_value"])

    def test_missing_matrix_is_reported(self, tmp_path, capsys):
        code, doc, err = run_cli(
            capsys, "design", "--matrix", str(tmp_path / "nope.csv"),
            "--method", "lb",
        )
        assert code == 1
        assert doc is None
        assert json.loads(err)["error"]["type"] == "FileNotFoundError"

    def test_oversized_matrix_field_is_reported(self, tmp_path, capsys):
        # a cell past the csv module's field limit raised csv.Error
        matrix = tmp_path / "m.csv"
        matrix.write_text("intercept,x1\n1,1\n1," + "1" * 200_000 + "\n")
        code, doc, err = run_cli(
            capsys, "design", "--matrix", str(matrix), "--method", "lb",
        )
        assert code == 1
        assert doc is None
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError"
        assert error["message"].startswith(str(matrix))
        assert "field larger than field limit" in error["message"]

    @pytest.mark.parametrize(
        "body",
        ["intercept,x1\n1,1\n1,-1\n1,1\n1,-1\n\n\n", "intercept,x1\n1,1\n1,-1\n\n1,1\n1,-1\n"],
        ids=["trailing", "middle"],
    )
    def test_blank_matrix_lines_are_skipped(self, body, toy_csv, tmp_path, capsys):
        matrix = tmp_path / "m.csv"
        matrix.write_text(body)
        code, doc, _ = run_cli(capsys, "design", "--matrix", str(matrix), "--method", "lb")
        assert code == 0
        _, clean, _ = run_cli(capsys, "design", "--matrix", str(toy_csv), "--method", "lb")
        assert doc["allocation"] == clean["allocation"]
        assert doc["matrix_sha256"] == clean["matrix_sha256"]

    @pytest.mark.parametrize(
        "third_line, message",
        [("1", "line 3: expected 2 fields, got 1"), ("1,x", "line 3: could not convert string to float: 'x'")],
        ids=["ragged", "non-numeric"],
    )
    def test_malformed_matrix_row_names_file_and_line(self, third_line, message, tmp_path, capsys):
        matrix = tmp_path / "m.csv"
        matrix.write_text(f"intercept,x1\n1,1\n{third_line}\n1,-1\n")
        code, doc, err = run_cli(capsys, "design", "--matrix", str(matrix), "--method", "lb")
        assert code == 1
        assert doc is None
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError"
        assert error["message"].startswith(f"{matrix}: {message}")

    def test_numeric_first_row_is_data_not_a_header(self, tmp_path, capsys):
        # only a first row without a numeric cell is a header; this one
        # was dropped as one, and the design ran on the other four rows
        matrix = tmp_path / "m.csv"
        matrix.write_text("1,x\n1,1\n1,-1\n1,1\n1,-1\n")
        code, doc, err = run_cli(capsys, "design", "--matrix", str(matrix), "--method", "lb")
        assert code == 1
        assert doc is None
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError"
        assert error["message"] == f"{matrix}: line 1: could not convert string to float: 'x'"


class TestUnreadableInput:
    @pytest.mark.parametrize(
        "bad, content",
        [
            ("m.csv", b"intercept,x1\n1,1\n1,\xff1\n1,-1\n"),
            ("raw.csv", b"id,sex\n1,M\n2,\xffF\n"),
            ("schema.json", b'{"columns":\n'),
        ],
        ids=["matrix-not-utf8", "encode-csv-not-utf8", "malformed-json-schema"],
    )
    def test_error_starts_with_the_path(self, bad, content, tmp_path, capsys):
        (tmp_path / "raw.csv").write_text("id,sex\n1,M\n2,F\n")
        (tmp_path / "schema.json").write_text(
            json.dumps({"columns": [{"name": "sex", "kind": "binary", "levels": ["F", "M"]}]})
        )
        path = tmp_path / bad
        path.write_bytes(content)
        if bad == "m.csv":
            argv = ["design", "--matrix", str(path), "--method", "lb"]
        else:
            argv = ["encode", "--csv", str(tmp_path / "raw.csv"),
                    "--schema", str(tmp_path / "schema.json"), "--out", str(tmp_path / "out.csv")]
        code, doc, err = run_cli(capsys, *argv)
        assert code == 1
        assert doc is None
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError"
        assert error["message"].startswith(f"{path}: ")


class _ArrayMemoryError(MemoryError):
    """Stands in for numpy's private subclass of MemoryError."""


class TestOutOfMemory:
    # the LB matrix is n x n: 3.2 GB at n = 20,000; nothing large is
    # allocated here, the library call is patched to fail
    @pytest.mark.parametrize(
        "err, message",
        [
            (MemoryError(), "out of memory"),
            (_ArrayMemoryError("Unable to allocate 3.0 GiB"), "Unable to allocate 3.0 GiB"),
        ],
        ids=["bare", "numpy-subclass"],
    )
    def test_memory_error_is_one_json_object(self, err, message, toy_csv, capsys, monkeypatch):
        def fail(F):
            raise err

        monkeypatch.setattr(lower_bound, "lb_matrix", fail)
        code, doc, err_text = run_cli(capsys, "design", "--matrix", str(toy_csv), "--method", "lb")
        assert code == 1
        assert doc is None
        assert json.loads(err_text) == {"error": {"type": "MemoryError", "message": message}}


class TestEvaluate:
    def test_round_trip_matches_design_values(self, toy_csv, tmp_path, capsys):
        alloc_path = tmp_path / "alloc.csv"
        code, design_doc, _ = run_cli(
            capsys, "design", "--matrix", str(toy_csv), "--method", "lb",
            "--allocation-out", str(alloc_path),
        )
        assert code == 0
        code, doc, _ = run_cli(
            capsys, "evaluate", "--matrix", str(toy_csv),
            "--allocation", str(alloc_path), "--replicates", "20",
            "--z0-count", "10", "--rand-designs", "6",
        )
        assert code == 0
        assert doc["surrogate_value"] == design_doc["surrogate_value"]
        assert doc["original_value"] == design_doc["original_value"]
        assert doc["surrogate_worst_z"][0] == 1.0
        assert doc["lb_value"] <= doc["surrogate_value"] + 1e-8
        assert set(doc["rand"]) == {"surrogate", "original"}
        for block in doc["rand"].values():
            assert set(block) == {"quantiles", "confounded", "unfinished", "separation_nodes"}
            assert block["unfinished"] == 0
        assert doc["variance_reduction"]["z0_count"] == 10

    @pytest.mark.parametrize("space", ["hypercube", "rows"])
    @pytest.mark.parametrize("method", ["exact", "lb", "rand"])
    def test_design_values_reproduce_on_evaluate(self, method, space, tmp_path, capsys):
        matrix = tmp_path / "m.csv"
        alloc_path = tmp_path / "alloc.csv"
        run_cli(capsys, "synth", "--n", "20", "--p", "8", "--seed", "1", "--out", str(matrix))
        code, design_doc, _ = run_cli(
            capsys, "design", "--matrix", str(matrix), "--method", method,
            "--space", space, "--replicates", "5", "--allocation-out", str(alloc_path),
        )
        assert code == 0
        code, doc, _ = run_cli(
            capsys, "evaluate", "--matrix", str(matrix), "--allocation", str(alloc_path),
            "--space", space, "--replicates", "2", "--skip-variance",
        )
        assert code == 0
        assert doc["surrogate_value"] == design_doc["surrogate_value"]
        assert doc["original_value"] == design_doc["original_value"]

    def test_rand_allocations_drawn_once(self, tmp_path, capsys, monkeypatch):
        matrix = tmp_path / "m.csv"
        alloc_path = tmp_path / "alloc.csv"
        run_cli(capsys, "synth", "--n", "20", "--p", "4", "--seed", "1", "--out", str(matrix))
        write_allocation_csv(alloc_path, Allocation(np.resize([1, -1], 20)))
        draws = []
        draw = baselines.random_balanced_stack

        def counted(*args, **kwargs):
            rows = draw(*args, **kwargs)
            draws.append(len(rows))
            return rows

        with monkeypatch.context() as m:
            m.setattr(baselines, "random_balanced_stack", counted)
            code, doc, _ = run_cli(
                capsys, "evaluate", "--matrix", str(matrix), "--allocation", str(alloc_path),
                "--replicates", "5", "--seed", "3", "--skip-variance",
            )
        assert code == 0
        assert sum(draws) == 5
        H = read_matrix_csv(matrix)
        for name, block in doc["rand"].items():
            ref = rand_benchmark(H, objective=name, replicates=5, seed=3)
            assert block["quantiles"] == ref.to_dict()["quantiles"]

    def test_separations_stop_at_the_limits(self, tmp_path, capsys):
        # p = 25 separations run as branch and bound, and none finishes
        # in one node: each RAND replicate counts as unfinished, and the
        # design's values only bound its worst cases from below
        matrix = tmp_path / "m.csv"
        alloc_path = tmp_path / "alloc.csv"
        run_cli(capsys, "synth", "--n", "60", "--p", "25", "--seed", "1", "--out", str(matrix))
        write_allocation_csv(alloc_path, Allocation(np.resize([1, -1], 60)))
        argv = ["evaluate", "--matrix", str(matrix), "--allocation", str(alloc_path),
                "--replicates", "3", "--skip-variance"]
        code, full, err = run_cli(capsys, *argv)
        assert code == 0, err
        code, doc, err = run_cli(capsys, *argv, "--node-limit", "1")
        assert code == 0, err
        for name, block in doc["rand"].items():
            assert full["rand"][name]["unfinished"] == 0
            assert block["unfinished"] == 3
            assert block["separation_nodes"] < full["rand"][name]["separation_nodes"]
        assert doc["surrogate_value"] <= full["surrogate_value"]
        assert doc["original_value"] <= full["original_value"]

    def test_variance_csv_written(self, toy_csv, tmp_path, capsys):
        alloc_path = tmp_path / "alloc.csv"
        write_allocation_csv(alloc_path, Allocation(np.array([1, 1, -1, -1])))
        var_path = tmp_path / "variance.csv"
        code, doc, _ = run_cli(
            capsys, "evaluate", "--matrix", str(toy_csv),
            "--allocation", str(alloc_path), "--replicates", "10",
            "--z0-count", "8", "--rand-designs", "4",
            "--variance-out", str(var_path),
        )
        assert code == 0
        lines = var_path.read_text().strip().splitlines()
        assert lines[0] == "z0,mean_variance,optimal_variance,reduction_percent"
        assert len(lines) == 9

    def test_confounded_allocation_skips_original(self, toy_csv, tmp_path, capsys):
        alloc_path = tmp_path / "alloc.csv"
        write_allocation_csv(alloc_path, Allocation(np.array([1, -1, 1, -1])))
        code, doc, _ = run_cli(
            capsys, "evaluate", "--matrix", str(toy_csv),
            "--allocation", str(alloc_path), "--replicates", "10",
            "--skip-variance",
        )
        assert code == 0
        assert doc["original_value"] is None
        assert doc["original_worst_z"] is None
        assert doc["surrogate_value"] == pytest.approx(1.0, abs=1e-9)
        assert "variance_reduction" not in doc

    def test_confounded_allocation_reports_no_variance_reduction(
        self, toy_csv, tmp_path, capsys
    ):
        # a confounded design has no Sigma_beta to compare, as its null
        # original_value already says
        alloc_path = tmp_path / "alloc.csv"
        write_allocation_csv(alloc_path, Allocation(np.array([1, -1, 1, -1])))
        var_path = tmp_path / "variance.csv"
        code, doc, err = run_cli(
            capsys, "evaluate", "--matrix", str(toy_csv),
            "--allocation", str(alloc_path), "--replicates", "10",
            "--z0-count", "4", "--rand-designs", "2", "--variance-out", str(var_path),
        )
        assert code == 0 and err == ""
        assert doc["original_value"] is None
        assert doc["variance_reduction"] is None
        assert "variance_out" not in doc
        assert not var_path.exists()
        assert set(doc["rand"]) == {"surrogate", "original"}

    def test_length_mismatch_is_reported(self, toy_csv, tmp_path, capsys):
        alloc_path = tmp_path / "alloc.csv"
        write_allocation_csv(alloc_path, Allocation(np.array([1, -1])))
        code, _, err = run_cli(
            capsys, "evaluate", "--matrix", str(toy_csv),
            "--allocation", str(alloc_path),
        )
        assert code == 1
        assert "allocation length" in json.loads(err)["error"]["message"]

    def test_malformed_allocation_csv_is_reported(self, toy_csv, tmp_path, capsys):
        # a duplicated index used to leave one entry of np.empty unwritten
        alloc_path = tmp_path / "alloc.csv"
        alloc_path.write_text("index,sign\n0,1\n1,-1\n1,1\n3,-1\n")
        code, doc, err = run_cli(
            capsys, "evaluate", "--matrix", str(toy_csv),
            "--allocation", str(alloc_path),
        )
        assert code == 1
        assert doc is None
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError"
        assert error["message"].startswith(str(alloc_path))
        assert "duplicate index 1" in error["message"]


class TestScan:
    def test_writes_pairs_csv(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        H = np.hstack([np.ones((10, 1)), rng.choice([-1.0, 1.0], size=(10, 2))])
        matrix_path = tmp_path / "H.csv"
        write_matrix_csv(matrix_path, H)
        out = tmp_path / "pairs.csv"
        code, doc, _ = run_cli(
            capsys, "scan", "--matrix", str(matrix_path), "--samples", "10",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "original,surrogate"
        assert len(lines) == 11
        assert doc["samples"] == 10
        assert doc["confounded"] + sum(
            1 for line in lines[1:] if not line.startswith(",")
        ) == 10
        assert doc["unfinished"] == 0
        if doc["mean_relative_gap"] is not None:
            assert doc["mean_relative_gap"] >= 0.0

    def test_counts_pairs_stopped_at_a_limit(self, tmp_path, capsys):
        # no p = 25 surrogate search, which every pair runs, finishes in
        # one node
        rng = np.random.default_rng(43)
        H = np.hstack([np.ones((60, 1)), rng.choice([-1.0, 1.0], size=(60, 24))])
        matrix_path = tmp_path / "H.csv"
        write_matrix_csv(matrix_path, H)
        code, doc, _ = run_cli(
            capsys, "scan", "--matrix", str(matrix_path), "--samples", "3",
            "--out", str(tmp_path / "pairs.csv"), "--node-limit", "1",
        )
        assert code == 0
        assert doc["unfinished"] == 3


@pytest.mark.parametrize("command", ["evaluate", "scan"])
@pytest.mark.parametrize(
    "flag, value, field", [("--time-limit", "0", "time_limit"), ("--node-limit", "0", "node_limit")]
)
def test_evaluate_and_scan_check_their_limits(command, flag, value, field, toy_csv, tmp_path, capsys):
    alloc_path = tmp_path / "alloc.csv"
    write_allocation_csv(alloc_path, Allocation(np.array([1, -1, -1, 1])))
    extra = ["--allocation", str(alloc_path)] if command == "evaluate" else ["--out", str(tmp_path / "p.csv")]
    code, doc, err = run_cli(capsys, command, "--matrix", str(toy_csv), *extra, flag, value)
    assert code == 1 and doc is None
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError" and field in error["message"]


@pytest.mark.parametrize(
    "command, flag, value, low",
    [
        ("synth", "--seed", "-1", 0),
        ("exact", "--seed", "-1", 0),
        ("lb", "--seed", "-1", 0),
        ("rand", "--seed", "-1", 0),
        ("evaluate", "--seed", "-1", 0),
        ("scan", "--seed", "-1", 0),
        ("scan", "--samples", "0", 1),
    ],
)
def test_bad_seed_or_sample_count_names_its_flag(
    command, flag, value, low, toy_csv, tmp_path, capsys
):
    # exact, lb and rand are design methods; at the toy's n = 4 the design
    # methods draw nothing from the seed, and it is refused all the same
    alloc_path = tmp_path / "alloc.csv"
    write_allocation_csv(alloc_path, Allocation(np.array([1, -1, -1, 1])))
    argv = {
        "synth": ["synth", "--n", "4", "--p", "1", "--out", str(tmp_path / "m.csv")],
        "evaluate": ["evaluate", "--matrix", str(toy_csv), "--allocation", str(alloc_path)],
        "scan": ["scan", "--matrix", str(toy_csv), "--out", str(tmp_path / "p.csv")],
    }.get(command, ["design", "--matrix", str(toy_csv), "--method", command])
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, flag, value])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "UsageError"
    assert f"argument {flag}: must be at least {low}, got {value}" in error["message"]
    assert not (tmp_path / "m.csv").exists() and not (tmp_path / "p.csv").exists()


class TestUsageErrors:
    @pytest.mark.parametrize(
        "extra, fragment",
        [
            (["--threads", "2"], "unrecognized arguments: --threads 2"),
            (["--bogus", "1"], "unrecognized arguments: --bogus 1"),
            (["--time-limit", "abc"], "invalid float value: 'abc'"),
        ],
    )
    def test_usage_error_is_one_json_object(self, toy_csv, capsys, extra, fragment):
        with pytest.raises(SystemExit) as exit_info:
            main(["design", "--matrix", str(toy_csv), "--method", "lb", *extra])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error["type"] == "UsageError"
        assert fragment in error["message"]

    def test_help_still_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["design", "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: trialdesign design")


def test_console_entry_point(tmp_path):
    out = tmp_path / "m.csv"
    proc = subprocess.run(
        [
            sys.executable, "-m", "trialdesign.cli",
            "synth", "--n", "4", "--p", "1", "--out", str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["p"] == 1
    assert out.exists()


def test_package_runs_as_module():
    proc = subprocess.run(
        [sys.executable, "-m", "trialdesign", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: trialdesign")
