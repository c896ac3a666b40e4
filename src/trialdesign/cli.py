"""Command line interface.

Subcommands: synth (synthetic covariates), encode (CSV + schema to a
design matrix), design (exact / lower-bound / randomized allocation),
evaluate (objectives, benchmark quantiles, variance reduction for a
stored allocation), scan (original-vs-surrogate pairs for plotting).
Results print as JSON on stdout; failures print one JSON error object
on stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import NoReturn

import numpy as np

from .baselines import rand_benchmark, random_balanced_allocations
from .covariates import (
    CovariateSchema,
    SyntheticSpec,
    encode_csv,
    generate_synthetic,
    matrix_hash,
    validate,
)
from .cutting_plane import solve_exact
from .errors import ConfoundedDesign, TrialDesignError
from .evaluation import surrogate_gap_scan, variance_reduction
from .limits import MODES, SolveLimits
from .lower_bound import solve_lb
from .objective import CovariateSpace, lb_value, original_value, spectral_cache, surrogate_value
from .report import (
    DesignReport,
    read_allocation_csv,
    read_matrix_csv,
    write_allocation_csv,
    write_matrix_csv,
)

METHOD_CHOICES = ("exact", "lb", "rand")
SPACE_CHOICES = ("hypercube", "rows")


def _file_hash(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _emit_error(kind: str, message: str) -> None:
    doc = {"error": {"type": kind, "message": message}}
    print(json.dumps(doc, indent=2, sort_keys=True), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as one JSON error object; subparsers inherit this."""

    def error(self, message: str) -> NoReturn:
        _emit_error("UsageError", f"{self.prog}: {message}")
        sys.exit(2)


def _at_least(low: int):
    # an argparse type: a bad count or seed is a usage error naming its flag
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse's "invalid int value: ..."
    return parse


def _space(name: str) -> CovariateSpace:
    return CovariateSpace.hypercube() if name == "hypercube" else CovariateSpace.rows()


def _load_matrix(path) -> np.ndarray:
    return validate(read_matrix_csv(path)).data


def _limits(args) -> SolveLimits:
    return SolveLimits(
        epsilon=args.epsilon,
        time_limit=args.time_limit,
        node_limit=args.node_limit,
        seed=args.seed,
        mode=args.mode,
    )


def _separation_limits(args) -> SolveLimits:
    # the separations read only the time and node limits
    return SolveLimits(time_limit=args.time_limit, node_limit=args.node_limit)


def cmd_synth(args) -> int:
    matrix = generate_synthetic(SyntheticSpec(n=args.n, p=args.p, seed=args.seed))
    columns = tuple(["intercept"] + [f"x{i}" for i in range(1, args.p)])
    write_matrix_csv(args.out, matrix.data, columns)
    _emit(
        {
            "command": "synth",
            "n": matrix.n,
            "p": matrix.p,
            "seed": args.seed,
            "retries": matrix.retries,
            "condition_number": matrix.condition_number,
            "matrix_sha256": matrix.content_hash(),
            "out": str(args.out),
        }
    )
    return 0


def cmd_encode(args) -> int:
    schema = CovariateSchema.from_file(args.schema)
    matrix = encode_csv(args.csv, schema)
    write_matrix_csv(args.out, matrix.data, matrix.columns)
    _emit(
        {
            "command": "encode",
            "csv": str(args.csv),
            "csv_sha256": _file_hash(args.csv),
            "schema": str(args.schema),
            "n": matrix.n,
            "p": matrix.p,
            "excluded_rows": matrix.excluded_rows,
            "columns": list(matrix.columns or ()),
            "condition_number": matrix.condition_number,
            "matrix_sha256": matrix.content_hash(),
            "out": str(args.out),
        }
    )
    return 0


def _rand_block(F, args, space, limits):
    """Both RAND benchmarks on one draw of args.replicates allocations: the
    allocations, replicate 0's value per objective, and a summary per objective.

    ``limits`` budgets each objective's separations."""
    allocations = random_balanced_allocations(F.n, args.replicates, args.seed)
    keys = ("quantiles", "confounded", "unfinished", "separation_nodes")
    first, summary = {}, {}
    for name in ("surrogate", "original"):
        doc = rand_benchmark(
            F, objective=name, space=space, allocations=allocations, limits=limits
        ).to_dict()
        first[name] = doc["values"][0]  # None where it confounds
        summary[name] = {key: doc[key] for key in keys}
    return allocations, first, summary


def _rand_design_report(A, limits, args, space) -> DesignReport:
    t0 = time.monotonic()
    F = spectral_cache(A)
    # the report shows replicate 0, whose values the benchmarks hold
    allocations, first, summary = _rand_block(F, args, space, limits)
    diagnostics = {
        "replicates": args.replicates,
        # the design report groups the summaries by field, not by objective
        **{key: {name: s[key] for name, s in summary.items()} for key in summary["surrogate"]},
        "note": "allocation is the first replicate; quantiles summarize all of them",
    }
    return DesignReport.from_run(
        "RAND", F, t0, allocation=allocations[0], surrogate_value=first["surrogate"],
        original_value=first["original"], status="sampled", seed=args.seed,
        diagnostics=diagnostics,
        # the separations read only these two limits
        parameters={"replicates": args.replicates, "space": space.kind,
                    "time_limit": limits.time_limit, "node_limit": limits.node_limit},
    )


def cmd_design(args) -> int:
    A = _load_matrix(args.matrix)
    space = _space(args.space)
    limits = _limits(args)
    if args.method == "exact":
        report = solve_exact(A, limits, report_space=space, verbose=args.verbose)
    elif args.method == "lb":
        report = solve_lb(A, limits, report_space=space)
    else:
        report = _rand_design_report(A, limits, args, space)
    report.parameters.update(
        {
            "matrix": str(args.matrix),
            "matrix_file_sha256": _file_hash(args.matrix),
            "method": args.method,
        }
    )
    if args.out:
        report.save(args.out)
    if args.allocation_out:
        write_allocation_csv(args.allocation_out, report.allocation)
    _emit(report.to_dict())
    return 0


def cmd_evaluate(args) -> int:
    A = _load_matrix(args.matrix)
    allocation = read_allocation_csv(args.allocation)
    if allocation.n != A.shape[0]:
        raise ValueError(
            f"allocation length {allocation.n} != matrix rows {A.shape[0]}"
        )
    space = _space(args.space)
    limits = _separation_limits(args)
    F = spectral_cache(A)
    surr, surr_z = surrogate_value(F, allocation, space, limits)
    try:
        orig, orig_z = original_value(F, allocation, space, limits)
    except ConfoundedDesign:
        orig, orig_z = None, None
    doc = {
        "command": "evaluate",
        "matrix": str(args.matrix),
        "matrix_file_sha256": _file_hash(args.matrix),
        "matrix_sha256": matrix_hash(A),
        "allocation": str(args.allocation),
        "allocation_file_sha256": _file_hash(args.allocation),
        "n": A.shape[0],
        "p": A.shape[1],
        "space": args.space,
        "seed": args.seed,
        "surrogate_value": float(surr),
        "surrogate_worst_z": [float(v) for v in surr_z],
        "original_value": None if orig is None else float(orig),
        "original_worst_z": None if orig_z is None else [float(v) for v in orig_z],
        "lb_value": float(lb_value(F, allocation)),
    }
    _, _, doc["rand"] = _rand_block(F, args, space, limits)
    if not args.skip_variance and orig is None:
        # the variance reduction compares Sigma_beta, which a confounded
        # design does not have (original_value just found that)
        doc["variance_reduction"] = None
    elif not args.skip_variance:
        vr = variance_reduction(
            F, allocation, z0_count=args.z0_count,
            rand_designs=args.rand_designs, seed=args.seed,
        )
        doc["variance_reduction"] = vr.summary()
        if args.variance_out:
            rows = vr.to_rows()
            with open(args.variance_out, "w", encoding="utf-8", newline="") as handle:
                import csv as _csv

                writer = _csv.DictWriter(handle, fieldnames=list(rows[0].keys()))
                writer.writeheader()
                writer.writerows(rows)
            doc["variance_out"] = str(args.variance_out)
    if args.out:
        Path(args.out).write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    _emit(doc)
    return 0


def cmd_scan(args) -> int:
    A = _load_matrix(args.matrix)
    space = _space(args.space)
    allocations = random_balanced_allocations(A.shape[0], args.samples, args.seed)
    pairs = surrogate_gap_scan(A, allocations, space=space, limits=_separation_limits(args))
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        handle.write("original,surrogate\n")
        for pair in pairs:
            left = "" if pair.original is None else repr(pair.original)
            handle.write(f"{left},{pair.surrogate!r}\n")
    gaps = [
        abs(pair.surrogate - pair.original) / pair.original
        for pair in pairs
        if pair.original is not None and pair.original > 0
    ]
    _emit(
        {
            "command": "scan",
            "matrix": str(args.matrix),
            "matrix_file_sha256": _file_hash(args.matrix),
            "matrix_sha256": matrix_hash(A),
            "samples": args.samples,
            "seed": args.seed,
            "space": args.space,
            "confounded": sum(1 for pair in pairs if pair.original is None),
            "unfinished": sum(1 for pair in pairs if not pair.finished),
            "mean_relative_gap": (float(np.mean(gaps)) if gaps else None),
            "out": str(args.out),
        }
    )
    return 0


def _add_limit_args(sub) -> None:
    sub.add_argument("--time-limit", type=float, default=300.0)
    sub.add_argument("--node-limit", type=int, default=2_000_000)


def _add_common_solver_args(sub) -> None:
    sub.add_argument("--epsilon", type=float, default=1e-6)
    _add_limit_args(sub)
    sub.add_argument("--seed", type=_at_least(0), default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="trialdesign",
        description="Covariate-aware treatment allocation for two-arm trials.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    synth = commands.add_parser("synth", help="generate a synthetic covariate matrix")
    synth.add_argument("--n", type=int, required=True)
    synth.add_argument("--p", type=int, required=True)
    synth.add_argument("--seed", type=_at_least(0), default=0)
    synth.add_argument("--out", required=True)
    synth.set_defaults(fn=cmd_synth)

    encode = commands.add_parser("encode", help="encode a categorical CSV to +/-1 columns")
    encode.add_argument("--csv", required=True)
    encode.add_argument("--schema", required=True, help="YAML or JSON schema file")
    encode.add_argument("--out", required=True)
    encode.set_defaults(fn=cmd_encode)

    design = commands.add_parser("design", help="compute a treatment allocation")
    design.add_argument("--matrix", required=True)
    design.add_argument("--method", choices=METHOD_CHOICES, required=True)
    design.add_argument("--mode", choices=MODES, default="auto")
    design.add_argument("--space", choices=SPACE_CHOICES, default="hypercube")
    design.add_argument("--replicates", type=int, default=100, help="rand method only")
    design.add_argument("--out", default=None, help="write the report JSON here too")
    design.add_argument("--allocation-out", default=None, help="write the allocation CSV")
    design.add_argument("--verbose", action="store_true")
    _add_common_solver_args(design)
    design.set_defaults(fn=cmd_design)

    evaluate = commands.add_parser("evaluate", help="evaluate a stored allocation")
    evaluate.add_argument("--matrix", required=True)
    evaluate.add_argument("--allocation", required=True)
    evaluate.add_argument("--space", choices=SPACE_CHOICES, default="hypercube")
    evaluate.add_argument("--replicates", type=int, default=100)
    evaluate.add_argument("--z0-count", type=int, default=1000)
    evaluate.add_argument("--rand-designs", type=int, default=1000)
    evaluate.add_argument("--skip-variance", action="store_true")
    evaluate.add_argument("--variance-out", default=None)
    evaluate.add_argument("--seed", type=_at_least(0), default=0)
    evaluate.add_argument("--out", default=None)
    _add_limit_args(evaluate)
    evaluate.set_defaults(fn=cmd_evaluate)

    scan = commands.add_parser("scan", help="original-vs-surrogate pairs on random allocations")
    scan.add_argument("--matrix", required=True)
    scan.add_argument("--samples", type=_at_least(1), default=50)
    scan.add_argument("--seed", type=_at_least(0), default=0)
    scan.add_argument("--space", choices=SPACE_CHOICES, default="hypercube")
    scan.add_argument("--out", required=True)
    _add_limit_args(scan)
    scan.set_defaults(fn=cmd_scan)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (TrialDesignError, ValueError, OSError) as err:
        _emit_error(type(err).__name__, str(err))
        return 1
    except MemoryError as err:
        # numpy raises a private subclass, so the builtin's name is reported
        _emit_error("MemoryError", str(err) or "out of memory")
        return 1


if __name__ == "__main__":
    sys.exit(main())
