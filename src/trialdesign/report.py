"""Design reports and file round-trips (JSON reports, CSV matrices).

Every report carries the content hash of the covariate matrix it was
computed from plus a full parameter echo, so a stored allocation can be
re-evaluated against the right input later.  EXACT, LB and RAND all
build theirs with ``DesignReport.from_run``.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .covariates import matrix_hash
from .limits import SolveLimits
from .objective import Allocation, CovariateSpace, SpectralCache

METHODS = ("EXACT", "LB_APPROX", "RAND")


@dataclass(frozen=True, eq=False)
class DesignReport:
    """Outcome of one design run, ready for serialization."""

    method: str
    allocation: Allocation
    surrogate_value: float
    original_value: float | None
    status: str
    wall_time: float
    seed: int
    n: int
    p: int
    matrix_sha256: str
    diagnostics: dict = field(default_factory=dict)
    parameters: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.allocation.n != self.n:
            raise ValueError("allocation length disagrees with n")

    @classmethod
    def from_run(
        cls, method: str, F: SpectralCache, t0: float, *, allocation: Allocation,
        surrogate_value: float, original_value: float | None, status: str, seed: int,
        diagnostics: dict, parameters: dict,
    ) -> "DesignReport":
        """The report of a run on the factored matrix F that started at t0, a
        time.monotonic() reading: n, p and matrix_sha256 come from F and
        wall_time from t0, the rest from the caller."""
        return cls(
            method=method, allocation=allocation, surrogate_value=float(surrogate_value),
            original_value=original_value, status=status, wall_time=time.monotonic() - t0,
            seed=seed, n=F.n, p=F.p, matrix_sha256=matrix_hash(F.matrix),
            diagnostics=diagnostics, parameters=parameters,
        )

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "allocation": [int(v) for v in self.allocation.x],
            "surrogate_value": float(self.surrogate_value),
            "original_value": (
                None if self.original_value is None else float(self.original_value)
            ),
            "status": self.status,
            "wall_time": float(self.wall_time),
            "seed": int(self.seed),
            "n": int(self.n),
            "p": int(self.p),
            "matrix_sha256": self.matrix_sha256,
            "diagnostics": _plain(self.diagnostics),
            "parameters": _plain(self.parameters),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def save(self, path) -> None:
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def from_dict(cls, doc: dict) -> "DesignReport":
        return cls(
            method=doc["method"],
            allocation=Allocation.from_signs(doc["allocation"]),
            surrogate_value=float(doc["surrogate_value"]),
            original_value=(
                None if doc.get("original_value") is None else float(doc["original_value"])
            ),
            status=doc["status"],
            wall_time=float(doc["wall_time"]),
            seed=int(doc["seed"]),
            n=int(doc["n"]),
            p=int(doc["p"]),
            matrix_sha256=doc["matrix_sha256"],
            diagnostics=doc.get("diagnostics", {}),
            parameters=doc.get("parameters", {}),
        )

    @classmethod
    def load(cls, path) -> "DesignReport":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def solver_parameters(limits: SolveLimits, space: CovariateSpace) -> dict:
    """The parameter echo of EXACT and LB: the SolveLimits they read and the report space."""
    return {"epsilon": limits.epsilon, "time_limit": limits.time_limit,
            "node_limit": limits.node_limit, "mode": limits.mode, "space": space.kind}


def _plain(value):
    """Recursively convert numpy scalars and arrays for JSON."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


# ---------------------------------------------------------------------------
# CSV round-trips


def write_matrix_csv(path, matrix, columns: tuple[str, ...] | None = None) -> None:
    arr = np.asarray(matrix, dtype=float)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        if columns is not None:
            if len(columns) != arr.shape[1]:
                raise ValueError("column count disagrees with matrix width")
            writer.writerow(columns)
        for row in arr:
            writer.writerow([repr(float(v)) for v in row])


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def read_matrix_csv(path) -> np.ndarray:
    """Read a numeric CSV, skipping blank lines and a header row when one is
    present: a first row none of whose cells is a number.  A row whose
    width differs from the first data row's, a non-numeric cell or bytes
    that are not UTF-8 raise ValueError naming the file (and the line)."""
    data, header = [], None
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            for line, row in enumerate(csv.reader(handle), start=1):
                if not row:
                    continue
                try:
                    data.append([float(v) for v in row])
                except ValueError as err:
                    if data or header is not None or any(map(_is_number, row)):
                        raise ValueError(f"{path}: line {line}: {err}") from None
                    header = row
                    continue
                if len(row) != len(data[0]):
                    raise ValueError(
                        f"{path}: line {line}: expected {len(data[0])} fields, got {len(row)}"
                    )
    except (csv.Error, UnicodeDecodeError) as err:
        raise ValueError(f"{path}: {err}") from None
    if not data:
        raise ValueError(f"{path}: {'empty file' if header is None else 'no data rows'}")
    return np.array(data)


def write_allocation_csv(path, allocation: Allocation) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["index", "sign"])
        for i, v in enumerate(allocation.x):
            writer.writerow([i, int(v)])


def read_allocation_csv(path) -> Allocation:
    """Read 'index,sign' rows; the indices must cover 0..n-1 once each.

    Blank lines are skipped.  Every other defect (a wrong header, a row
    without exactly two fields, a non-integer, a sign other than +/-1, a
    duplicate, missing or out-of-range index, or an unbalanced or empty
    allocation) raises ValueError naming the file.
    """
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
    except (csv.Error, UnicodeDecodeError) as err:
        raise ValueError(f"{path}: {err}") from None
    if not rows or rows[0] != ["index", "sign"]:
        raise ValueError(f"{path}: expected an 'index,sign' header")
    lines = {}  # index -> line number
    by_index = {}
    for line, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 2:
            raise ValueError(f"{path}: line {line}: expected 2 fields, got {len(row)}")
        try:
            idx, sign = int(row[0]), int(row[1])
        except ValueError:
            raise ValueError(
                f"{path}: line {line}: index and sign must be integers, got {row!r}"
            ) from None
        if sign not in (-1, 1):
            raise ValueError(f"{path}: line {line}: sign must be +1 or -1, got {sign}")
        if idx in lines:
            raise ValueError(
                f"{path}: line {line}: duplicate index {idx} (first on line {lines[idx]})"
            )
        lines[idx] = line
        by_index[idx] = sign
    n = len(by_index)
    outside = sorted(i for i in by_index if not 0 <= i < n)
    if outside:
        missing = sorted(set(range(n)) - by_index.keys())
        raise ValueError(
            f"{path}: {n} rows need indices 0..{n - 1}: out of range {outside[:5]}, "
            f"missing {missing[:5]}"
        )
    try:
        return Allocation(np.array([by_index[i] for i in range(n)], dtype=np.int64))
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


__all__ = [
    "DesignReport",
    "matrix_hash",
    "read_allocation_csv",
    "read_matrix_csv",
    "solver_parameters",
    "write_allocation_csv",
    "write_matrix_csv",
]
