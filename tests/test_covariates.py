import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trialdesign.covariates import (
    CovariateMatrix,
    CovariateSchema,
    SchemaColumn,
    SyntheticSpec,
    as_matrix,
    encode_csv,
    encode_rows,
    generate_synthetic,
    matrix_hash,
    validate,
)
from trialdesign.errors import (
    EmptyAfterExclusion,
    FirstColumnNotOnes,
    RankDeficient,
    TooFewRows,
    UnknownLevel,
)
from trialdesign.evaluation import SimulationSpec
from trialdesign.objective import CovariateSpace


class TestValidate:
    def test_intercept_only(self):
        m = validate([[1.0], [1.0]])
        assert (m.n, m.p) == (2, 1)

    def test_orthogonal_toy(self, toy_design):
        m = validate(toy_design)
        assert (m.n, m.p) == (4, 2)
        # equal singular values 2 and 2, so cond(H'H) = 1
        assert m.condition_number == pytest.approx(1.0)

    def test_duplicated_column_is_rank_deficient(self):
        with pytest.raises(RankDeficient):
            validate([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])

    def test_first_column_must_be_ones(self):
        with pytest.raises(FirstColumnNotOnes):
            validate([[1.0, 1.0], [2.0, -1.0]])

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            validate([[1.0, 1.0, -1.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            validate([[1.0, np.nan], [1.0, -1.0]])

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            validate([1.0, 1.0])

    def test_data_is_read_only(self, toy_design):
        m = validate(toy_design)
        with pytest.raises(ValueError):
            m.data[0, 0] = 2.0

    def test_as_matrix_accepts_both_forms(self, toy_design):
        m = validate(toy_design)
        assert np.array_equal(as_matrix(m), toy_design)
        assert np.array_equal(as_matrix(toy_design), toy_design)


@pytest.mark.parametrize("constructor", ["validate", "explicit", "simulation_spec"])
def test_constructors_freeze_a_copy_not_the_callers_array(constructor):
    H = np.array([[1.0, 1.0], [1.0, -1.0]])
    alpha, beta = np.array([1.0, 2.0]), np.array([0.5, -0.5])
    if constructor == "validate":
        callers, stored = [H], [validate(H).data]
    elif constructor == "explicit":
        callers, stored = [H], [CovariateSpace.explicit(H).vectors]
    else:
        spec = SimulationSpec(alpha=alpha, beta=beta, sigma=1.0, seed=0)
        callers, stored = [alpha, beta], [spec.alpha, spec.beta]
    for mine, kept in zip(callers, stored):
        assert mine.flags.writeable
        assert not kept.flags.writeable
        assert not np.shares_memory(mine, kept)
        assert np.array_equal(mine, kept)


class TestMatrixHash:
    def test_deterministic(self, toy_design):
        assert matrix_hash(toy_design) == matrix_hash(toy_design.copy())
        assert matrix_hash(toy_design) == validate(toy_design).content_hash()

    def test_shape_and_content_sensitivity(self):
        flat = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert matrix_hash(flat) != matrix_hash(flat.reshape(4, 1))
        bumped = flat.copy()
        bumped[0, 0] += 1e-12
        assert matrix_hash(flat) != matrix_hash(bumped)


class TestSynthetic:
    def test_spec_rejects_odd_n(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n=5, p=2, seed=0)

    def test_spec_rejects_small_n(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n=4, p=3, seed=0)

    def test_spec_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            SyntheticSpec(n=4, p=1, seed=-1)

    def test_intercept_only_instance(self):
        m = generate_synthetic(SyntheticSpec(n=4, p=1, seed=7))
        assert np.array_equal(m.data, np.ones((4, 1)))

    def test_entries_are_signs_and_first_column_ones(self):
        m = generate_synthetic(SyntheticSpec(n=30, p=5, seed=3))
        assert np.all(m.data[:, 0] == 1.0)
        assert np.all(np.isin(m.data[:, 1:], (-1.0, 1.0)))

    def test_column_means_near_zero(self):
        m = generate_synthetic(SyntheticSpec(n=60, p=4, seed=1))
        assert np.all(np.abs(m.data[:, 1:].mean(axis=0)) <= 0.4)

    def test_deterministic(self):
        a = generate_synthetic(SyntheticSpec(n=24, p=4, seed=11))
        b = generate_synthetic(SyntheticSpec(n=24, p=4, seed=11))
        assert np.array_equal(a.data, b.data)
        assert a.retries == b.retries

    def test_reseeds_on_rank_deficiency(self):
        # n = 2p makes collinear draws common; scan seeds until one retries
        for seed in range(200):
            m = generate_synthetic(SyntheticSpec(n=4, p=2, seed=seed))
            if m.retries > 0:
                assert np.linalg.matrix_rank(m.data) == 2
                return
        pytest.fail("no seed in range needed a retry")


def anticoagulant_cohort_schema() -> CovariateSchema:
    factors = [
        ("age", 9),
        ("height", 3),
        ("weight", 3),
        ("race", 4),
        ("inducer", 2),
        ("amiodarone", 2),
        ("vkorc1", 3),
        ("cyp2c9", 6),
    ]
    cols = []
    for name, count in factors:
        levels = tuple(f"{name}{i}" for i in range(count))
        kind = "binary" if count == 2 else "categorical"
        cols.append(SchemaColumn(name=name, kind=kind, levels=levels))
    return CovariateSchema(columns=tuple(cols))


# JSON-like documents: anything json.loads could return
json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
json_documents = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=20,
)
# documents shaped like a schema, so the fuzz reaches the column checks
schema_entries = st.dictionaries(
    st.sampled_from(["name", "kind", "levels", "reference", "other"]),
    json_scalars
    | st.sampled_from(["binary", "categorical"])
    | st.lists(json_scalars | st.sampled_from(["a", "b", "c"]), max_size=4),
    max_size=5,
)
schema_like_documents = st.dictionaries(
    st.sampled_from(["columns", "other"]),
    st.lists(schema_entries | json_scalars, max_size=4) | json_documents,
    max_size=2,
)


class TestSchema:
    def test_binary_coding(self):
        col = SchemaColumn(name="inducer", kind="binary", levels=("No", "Yes"))
        matrix = encode_rows(
            [{"inducer": "Yes"}, {"inducer": "No"}],
            CovariateSchema(columns=(col,)),
        )
        assert np.array_equal(matrix.data, [[1.0, 1.0], [1.0, -1.0]])
        assert matrix.columns == ("intercept", "inducer=Yes")

    @pytest.mark.parametrize("reference", [None, "No", "Yes"])
    def test_binary_encodes_as_two_level_categorical(self, reference):
        rows = [{"inducer": v} for v in ("Yes", "No", "No", "Yes", "No")]
        matrices = [
            encode_rows(
                rows,
                CovariateSchema(
                    columns=(
                        SchemaColumn(
                            name="inducer", kind=kind, levels=("No", "Yes"), reference=reference
                        ),
                    )
                ),
            )
            for kind in ("binary", "categorical")
        ]
        assert np.array_equal(matrices[0].data, matrices[1].data)
        assert matrices[0].columns == matrices[1].columns

    def test_drop_one_coding(self):
        col = SchemaColumn(
            name="x", kind="categorical", levels=("A", "B", "C"), reference="C"
        )
        matrix = encode_rows(
            [{"x": "A"}, {"x": "B"}, {"x": "C"}],
            CovariateSchema(columns=(col,)),
        )
        assert np.array_equal(
            matrix.data,
            [[1.0, 1.0, -1.0], [1.0, -1.0, 1.0], [1.0, -1.0, -1.0]],
        )
        assert matrix.columns == ("intercept", "x=A", "x=B")

    def test_default_reference_is_first_level(self):
        col = SchemaColumn(name="x", kind="categorical", levels=("A", "B", "C"))
        assert col.reference == "A"
        assert col.encoded_names() == ["x=B", "x=C"]

    def test_anticoagulant_cohort_width(self):
        assert anticoagulant_cohort_schema().encoded_width == 25

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            SchemaColumn(name="x", kind="continuous", levels=("a", "b"))

    def test_rejects_duplicate_levels(self):
        with pytest.raises(ValueError):
            SchemaColumn(name="x", kind="categorical", levels=("a", "a", "b"))

    def test_rejects_binary_with_three_levels(self):
        with pytest.raises(ValueError):
            SchemaColumn(name="x", kind="binary", levels=("a", "b", "c"))

    def test_rejects_foreign_reference(self):
        with pytest.raises(ValueError):
            SchemaColumn(name="x", kind="binary", levels=("a", "b"), reference="c")

    def test_rejects_duplicate_column_names(self):
        col = SchemaColumn(name="x", kind="binary", levels=("a", "b"))
        with pytest.raises(ValueError):
            CovariateSchema(columns=(col, col))

    def test_rejects_colliding_encoded_names(self):
        # both columns would encode a column named "a=b=c"
        doc = {
            "columns": [
                {"name": "a", "kind": "categorical", "levels": ["r", "b=c", "x"]},
                {"name": "a=b", "kind": "binary", "levels": ["r", "c"]},
            ]
        }
        with pytest.raises(ValueError, match="'a=b=c'") as err:
            CovariateSchema.from_dict(doc)
        assert "column 'a'" in str(err.value)
        assert "column 'a=b'" in str(err.value)

    def test_from_dict_round_trip(self):
        doc = {
            "columns": [
                {"name": "sex", "kind": "binary", "levels": ["F", "M"]},
                {
                    "name": "age",
                    "kind": "categorical",
                    "levels": ["young", "mid", "old"],
                    "reference": "mid",
                },
            ]
        }
        schema = CovariateSchema.from_dict(doc)
        assert schema.encoded_names() == ("intercept", "sex=M", "age=young", "age=old")

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"columns": "sex"}, "'columns' must be a list"),
            ({"columns": ["sex"]}, "schema column 0: expected a mapping, got str"),
            ({"columns": [{"kind": "binary", "levels": ["F", "M"]}]},
             "schema column 0: missing key 'name'"),
            ({"columns": [{"name": "sex", "kind": "binary", "levels": "FM"}]},
             "schema column 0: 'levels' must be a list"),
        ],
    )
    def test_from_dict_rejects_malformed_columns(self, doc, message):
        with pytest.raises(ValueError, match=message):
            CovariateSchema.from_dict(doc)

    @settings(max_examples=300, deadline=None)
    @given(doc=json_documents | schema_like_documents)
    def test_from_dict_returns_schema_or_value_error(self, doc):
        try:
            schema = CovariateSchema.from_dict(doc)
        except ValueError:
            return
        assert isinstance(schema, CovariateSchema)

    def test_from_file_json_and_yaml(self, tmp_path: Path):
        doc = {"columns": [{"name": "sex", "kind": "binary", "levels": ["F", "M"]}]}
        jpath = tmp_path / "schema.json"
        jpath.write_text(json.dumps(doc))
        ypath = tmp_path / "schema.yaml"
        ypath.write_text("columns:\n  - name: sex\n    kind: binary\n    levels: [F, M]\n")
        assert CovariateSchema.from_file(jpath) == CovariateSchema.from_file(ypath)


class TestEncodeRows:
    def schema(self) -> CovariateSchema:
        return CovariateSchema(
            columns=(
                SchemaColumn(name="sex", kind="binary", levels=("F", "M")),
                SchemaColumn(name="age", kind="categorical", levels=("a", "b", "c")),
            )
        )

    def test_missing_cells_are_excluded_and_counted(self):
        rows = [
            {"sex": "M", "age": "b"},
            {"sex": "", "age": "a"},
            {"sex": "F", "age": "NA"},
            {"sex": " F ", "age": "c"},
            {"sex": "M", "age": "a"},
            {"sex": "F", "age": "b"},
        ]
        matrix = encode_rows(rows, self.schema())
        assert matrix.excluded_rows == 2
        assert matrix.n == 4
        # whitespace-padded cells are stripped before matching
        assert matrix.data[1, 1] == -1.0

    def test_unknown_level_reports_row(self):
        with pytest.raises(UnknownLevel, match="row 1"):
            encode_rows(
                [{"sex": "M", "age": "a"}, {"sex": "X", "age": "a"}], self.schema()
            )

    def test_missing_column_raises(self):
        with pytest.raises(ValueError, match="missing column"):
            encode_rows([{"sex": "M"}], self.schema())

    def test_all_rows_excluded(self):
        with pytest.raises(EmptyAfterExclusion):
            encode_rows([{"sex": "", "age": "a"}], self.schema())

    def test_rank_deficient_after_encoding(self):
        # constant columns collide with the intercept
        rows = [{"sex": "M", "age": "a"}] * 4
        with pytest.raises(RankDeficient):
            encode_rows(rows, self.schema())


class TestEncodeCsv:
    def test_round_trip_with_extra_columns(self, tmp_path: Path):
        path = tmp_path / "data.csv"
        path.write_text(
            "id,sex,age,outcome\n"
            "1,M,b,3.2\n"
            "2,F,a,1.1\n"
            "3,M,,9.9\n"
            "4,F,c,0.4\n"
            "5,M,a,2.2\n"
        )
        schema = CovariateSchema(
            columns=(
                SchemaColumn(name="sex", kind="binary", levels=("F", "M")),
                SchemaColumn(name="age", kind="categorical", levels=("a", "b", "c")),
            )
        )
        matrix = encode_csv(path, schema)
        assert matrix.n == 4
        assert matrix.excluded_rows == 1
        assert matrix.p == schema.encoded_width
        assert np.array_equal(matrix.data[0], [1.0, 1.0, 1.0, -1.0])

    def test_missing_header_column(self, tmp_path: Path):
        path = tmp_path / "data.csv"
        path.write_text("sex\nM\n")
        schema = CovariateSchema(
            columns=(
                SchemaColumn(name="sex", kind="binary", levels=("F", "M")),
                SchemaColumn(name="age", kind="categorical", levels=("a", "b", "c")),
            )
        )
        with pytest.raises(ValueError, match="missing schema columns"):
            encode_csv(path, schema)

    def test_structurally_identical_inputs_hash_equal(self, tmp_path: Path):
        path = tmp_path / "data.csv"
        path.write_text("sex\nM\nF\nM\nF\n")
        schema = CovariateSchema(
            columns=(SchemaColumn(name="sex", kind="binary", levels=("F", "M")),)
        )
        a = encode_csv(path, schema)
        b = encode_csv(path, schema)
        assert a.content_hash() == b.content_hash()
