"""Covariate data model: validation, categorical encoding, synthetic instances.

A covariate matrix H is n x p with an all-ones first column (intercept)
and full column rank, so the Gram matrix H'H is invertible.  Categorical
patient data enters through a schema that maps each raw column to +/-1
indicator columns with one dropped reference level.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from .errors import (
    EmptyAfterExclusion,
    FirstColumnNotOnes,
    RankDeficient,
    TooFewRows,
    UnknownLevel,
)

# relative singular-value cutoff below which H counts as rank deficient
RANK_RTOL = 1e-10

# cell contents treated as missing (after stripping whitespace)
MISSING_CELLS = ("", "NA")


def frozen_copy(values) -> np.ndarray:
    """A read-only float copy, so the caller's own array stays writeable."""
    out = np.array(values, dtype=float, order="C")
    out.flags.writeable = False
    return out


def matrix_hash(arr) -> str:
    """SHA-256 over the shape header and raw float64 bytes."""
    data = np.ascontiguousarray(arr, dtype=np.float64)
    digest = hashlib.sha256()
    digest.update(f"{data.shape[0]}x{data.shape[1]}:".encode())
    digest.update(data.tobytes())
    return digest.hexdigest()


@dataclass(frozen=True, eq=False)
class CovariateMatrix:
    """Validated covariate matrix; column 0 is the intercept.

    condition_number is cond(H'H); retries counts reseeds the synthetic
    generator needed; excluded_rows counts CSV rows dropped for missing
    cells; columns names the encoded columns when known.
    """

    data: np.ndarray
    condition_number: float
    retries: int = 0
    excluded_rows: int = 0
    columns: tuple[str, ...] | None = None

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def p(self) -> int:
        return self.data.shape[1]

    def content_hash(self) -> str:
        return matrix_hash(self.data)


def validate(raw) -> CovariateMatrix:
    """Check the three matrix invariants and wrap the array.

    Raises FirstColumnNotOnes, TooFewRows, or RankDeficient; also rejects
    non-finite entries and non-2d input with ValueError.
    """
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise ValueError(f"expected a 2-d matrix with at least one column, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("covariate matrix has non-finite entries")
    n, p = arr.shape
    if n < p:
        raise TooFewRows(f"need at least as many rows as columns, got {n} rows for {p} columns")
    if not np.all(arr[:, 0] == 1.0):
        raise FirstColumnNotOnes("column 0 must be all ones (intercept)")
    singular = np.linalg.svd(arr, compute_uv=False)
    if singular[-1] <= RANK_RTOL * singular[0]:
        raise RankDeficient(
            f"smallest singular value {singular[-1]:.3e} is below "
            f"{RANK_RTOL:g} x largest {singular[0]:.3e}"
        )
    cond_gram = float((singular[0] / singular[-1]) ** 2)
    return CovariateMatrix(data=frozen_copy(arr), condition_number=cond_gram)


def as_matrix(H) -> np.ndarray:
    """Accept a CovariateMatrix or a plain array; return the float array."""
    if isinstance(H, CovariateMatrix):
        return H.data
    return np.asarray(H, dtype=float)


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for a synthetic instance: n rows, p columns, RNG seed."""

    n: int
    p: int
    seed: int

    def __post_init__(self) -> None:
        if self.n <= 0 or self.n % 2 != 0:
            raise ValueError(f"n must be positive and even, got {self.n}")
        if self.p < 1:
            raise ValueError(f"p must be at least 1, got {self.p}")
        if self.n < 2 * self.p:
            raise ValueError(f"need n >= 2p, got n={self.n}, p={self.p}")


def generate_synthetic(spec: SyntheticSpec) -> CovariateMatrix:
    """Intercept column plus p-1 iid +/-1 columns, reseeding on rank failure.

    Seed s draws the first candidate; a rank-deficient draw retries with
    s+1, s+2, ... and the retry count is recorded on the result.
    """
    for retry in itertools.count():
        rng = np.random.default_rng(spec.seed + retry)
        body = rng.integers(0, 2, size=(spec.n, spec.p - 1)) * 2 - 1
        candidate = np.column_stack([np.ones(spec.n), body.astype(float)])
        try:
            matrix = validate(candidate)
        except RankDeficient:
            continue
        return replace(matrix, retries=retry)
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# categorical schema and CSV encoding

COLUMN_KINDS = ("binary", "categorical")


@dataclass(frozen=True)
class SchemaColumn:
    """One raw column: a name, its kind, the allowed levels, and the
    dropped reference level.  A binary column is a categorical column
    held to exactly two levels, and encodes as one."""

    name: str
    kind: str
    levels: tuple[str, ...]
    reference: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(str(v) for v in self.levels))
        if self.kind not in COLUMN_KINDS:
            raise ValueError(f"column {self.name!r}: kind must be one of {COLUMN_KINDS}")
        if len(set(self.levels)) != len(self.levels):
            raise ValueError(f"column {self.name!r}: duplicate levels")
        if self.kind == "binary":
            if len(self.levels) != 2:
                raise ValueError(f"column {self.name!r}: binary columns need exactly 2 levels")
        elif len(self.levels) < 2:
            raise ValueError(f"column {self.name!r}: categorical columns need >= 2 levels")
        ref = self.reference if self.reference is not None else self.levels[0]
        if ref not in self.levels:
            raise ValueError(f"column {self.name!r}: reference {ref!r} is not a level")
        object.__setattr__(self, "reference", str(ref))

    @property
    def width(self) -> int:
        return len(self.levels) - 1

    def encoded_names(self) -> list[str]:
        return [f"{self.name}={v}" for v in self.levels if v != self.reference]

    def encode_cell(self, value: str) -> list[float]:
        if value not in self.levels:
            raise UnknownLevel(f"column {self.name!r}: value {value!r} is not a declared level")
        return [1.0 if value == lvl else -1.0 for lvl in self.levels if lvl != self.reference]


@dataclass(frozen=True)
class CovariateSchema:
    """Ordered raw columns; encoding order follows declaration order."""

    columns: tuple[SchemaColumn, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))
        if not self.columns:
            raise ValueError("schema needs at least one column")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValueError("duplicate column names in schema")
        # "name=level" can repeat across columns when names or levels hold "="
        owner: dict[str, str] = {}
        for col in self.columns:
            for encoded in col.encoded_names():
                if encoded in owner:
                    raise ValueError(
                        f"encoded column {encoded!r} comes from both column "
                        f"{owner[encoded]!r} and column {col.name!r}"
                    )
                owner[encoded] = col.name

    @property
    def encoded_width(self) -> int:
        """Encoded column count including the intercept."""
        return 1 + sum(c.width for c in self.columns)

    def encoded_names(self) -> tuple[str, ...]:
        out = ["intercept"]
        for col in self.columns:
            out.extend(col.encoded_names())
        return tuple(out)

    @classmethod
    def from_dict(cls, doc: dict) -> "CovariateSchema":
        try:
            raw_cols = doc["columns"]
        except (TypeError, KeyError):
            raise ValueError("schema document needs a top-level 'columns' list")
        if not isinstance(raw_cols, (list, tuple)):
            raise ValueError("schema 'columns' must be a list")
        cols = []
        for pos, entry in enumerate(raw_cols):
            where = f"schema column {pos}"
            if not isinstance(entry, dict):
                raise ValueError(f"{where}: expected a mapping, got {type(entry).__name__}")
            for key in ("name", "kind", "levels"):
                if key not in entry:
                    raise ValueError(f"{where}: missing key {key!r}")
            if not isinstance(entry["levels"], (list, tuple)):
                raise ValueError(f"{where}: 'levels' must be a list")
            cols.append(
                SchemaColumn(
                    name=str(entry["name"]),
                    kind=str(entry["kind"]),
                    levels=tuple(str(v) for v in entry["levels"]),
                    reference=(None if entry.get("reference") is None else str(entry["reference"])),
                )
            )
        return cls(columns=tuple(cols))

    @classmethod
    def from_file(cls, path) -> "CovariateSchema":
        text = Path(path).read_text(encoding="utf-8")
        if str(path).endswith(".json"):
            doc = json.loads(text)
        else:
            # BaseLoader keeps every scalar a string as written: no YAML 1.1
            # coercion of levels such as no/yes to booleans or 01 to 1
            try:
                doc = yaml.load(text, Loader=yaml.BaseLoader)
            except yaml.YAMLError as err:
                raise ValueError(f"{path}: malformed YAML: {err}") from None
        return cls.from_dict(doc)


def encode_rows(rows: list[dict], schema: CovariateSchema) -> CovariateMatrix:
    """Encode parsed CSV records (dicts keyed by raw column name).

    Rows with any missing cell are excluded and counted; unknown levels
    raise UnknownLevel with the offending row.  The encoded matrix passes
    the usual validation, so rank deficiency still raises.
    """
    encoded: list[list[float]] = []
    excluded = 0
    for index, record in enumerate(rows):
        cells = {}
        for col in schema.columns:
            if col.name not in record or record[col.name] is None:
                raise ValueError(f"row {index}: missing column {col.name!r}")
            cells[col.name] = str(record[col.name]).strip()
        if any(cells[col.name] in MISSING_CELLS for col in schema.columns):
            excluded += 1
            continue
        row = [1.0]
        for col in schema.columns:
            try:
                row.extend(col.encode_cell(cells[col.name]))
            except UnknownLevel as err:
                raise UnknownLevel(f"row {index}: {err}") from None
        encoded.append(row)
    if not encoded:
        raise EmptyAfterExclusion(f"all {excluded} rows had missing cells")
    matrix = validate(np.asarray(encoded))
    return replace(matrix, excluded_rows=excluded, columns=schema.encoded_names())


def encode_csv(path, schema: CovariateSchema) -> CovariateMatrix:
    """Read a CSV with a header row and encode it against the schema.

    Header must contain every schema column; extra CSV columns are
    ignored so outcome or id columns can ride along.
    """
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            header = reader.fieldnames or []
            absent = [c.name for c in schema.columns if c.name not in header]
            if absent:
                raise ValueError(f"CSV header is missing schema columns: {absent}")
            records = list(reader)
    except csv.Error as err:
        raise ValueError(f"{path}: {err}") from None
    return encode_rows(records, schema)
