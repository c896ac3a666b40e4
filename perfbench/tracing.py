"""Spans around the public calls of each trialdesign module.

Callers bind library functions at import time (``from .bqp import
minimize_max_quadratic``), so each wrapper replaces the attribute in
every module that calls it.  Everything runs serially in one thread, so
a stack of open spans gives each span its parent and its self time.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path


class Tracer:
    """In-memory spans: dicts of name, parent index, start, end and result attributes."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, after=None, **kwargs):
        span = {"name": name, "parent": self._stack[-1] if self._stack else None}
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span["start"] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if after is not None:
            span.update(after(args, kwargs, out))
        return out

    def wrap(self, name: str, owners: list[tuple[object, str]], after=None) -> None:
        """Replace owner.attr, the same function in every owner, with one wrapper."""
        original = getattr(*owners[0])
        if any(getattr(owner, attr) is not original for owner, attr in owners):
            raise ValueError(f"{name}: owners do not share one function")

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, *args, after=after, **kwargs)

        for owner, attr in owners:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans) + "\n", encoding="utf-8")


def _bqp_after(args, kwargs, result) -> dict:
    limits = args[1] if len(args) > 1 else kwargs.get("limits")
    return {
        "mode": "exact" if limits is None else limits.mode,
        "nodes": result.nodes,
        "restarts": result.restarts,
        "status": result.status,
    }


def _inner_after(args, kwargs, result) -> dict:
    return {"method": result.method, "nodes": result.nodes_explored, "optimal": result.optimal}


def _exact_after(args, kwargs, report) -> dict:
    d = report.diagnostics
    incumbent = next(
        (s for _, delta, s in d["history"] if delta == report.surrogate_value), report.wall_time
    )
    return {
        "n": report.n,
        "iterations": d["iterations"],
        "cuts": d["cuts"],
        "incumbent_s": incumbent,
        "wall_time": report.wall_time,
        "master_mode_final": d["master_mode_final"],
    }


def install(tracer: Tracer) -> None:
    """Wrap the public entry points that the CLI reaches."""
    from trialdesign import (
        baselines,
        bqp,
        cli,
        cutting_plane,
        evaluation,
        inner_max,
        lower_bound,
        objective,
        report,
    )

    tracer.wrap("covariates.encode", [(cli, "encode_csv")])
    tracer.wrap(
        "objective.spectral_cache",
        [(m, "spectral_cache") for m in (objective, cli, cutting_plane, lower_bound, baselines, evaluation)],
    )
    tracer.wrap("objective.upsilon", [(objective, "upsilon"), (cutting_plane, "upsilon")])
    tracer.wrap("objective.sigma_beta", [(objective, "sigma_beta"), (evaluation, "sigma_beta")])
    tracer.wrap(
        "bqp.solve",
        [(bqp, "minimize_max_quadratic"), (cutting_plane, "minimize_max_quadratic"),
         (lower_bound, "minimize_max_quadratic")],
        after=_bqp_after,
    )
    tracer.wrap("bqp.cutset", [(bqp.CutSet, "__init__")])
    # objective.worst_case_quadratic imports solve_inner_max at call time
    tracer.wrap(
        "inner_max.solve",
        [(inner_max, "solve_inner_max"), (cutting_plane, "solve_inner_max")],
        after=_inner_after,
    )
    tracer.wrap("cutting_plane.solve_exact", [(cli, "solve_exact")], after=_exact_after)
    tracer.wrap("lower_bound.solve_lb", [(cli, "solve_lb")])
    for attr in ("surrogate_value", "original_value"):
        tracer.wrap("lower_bound.report_eval", [(lower_bound, attr)])
    tracer.wrap(
        "baselines.rand_benchmark",
        [(cli, "rand_benchmark")],
        after=lambda a, k, r: {"replicates": r.replicates, "confounded": r.confounded},
    )
    tracer.wrap(
        "evaluation.variance_reduction",
        [(cli, "variance_reduction")],
        after=lambda a, k, r: {"rand_designs": r.rand_designs, "redraws": r.redraws},
    )
    for attr in ("read_matrix_csv", "write_matrix_csv", "read_allocation_csv", "write_allocation_csv"):
        tracer.wrap("report.io", [(cli, attr)])
    tracer.wrap("report.io", [(report.DesignReport, "save")])


def _sum(spans, name: str, key: str | None = None) -> float:
    return float(sum((s["end"] - s["start"]) if key is None else s[key] for s in spans if s["name"] == name))


def _count(spans, name: str) -> int:
    return sum(1 for s in spans if s["name"] == name)


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[dict], passes: int) -> dict[str, float]:
    """Per-layer metrics, per pass; self times subtract direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    for s, c in zip(spans, child):
        s["self"] = s["end"] - s["start"] - c

    def returned(name: str) -> list[dict]:
        # a call that raised carries no result attributes
        return [s for s in spans if s["name"] == name and "error" not in s]

    bqp = returned("bqp.solve")
    heur = [s for s in bqp if s["mode"] == "heuristic"]
    exact_bqp = [s for s in bqp if s["mode"] == "exact"]
    inner = returned("inner_max.solve")
    bnb = [s for s in inner if s["method"] == "branch_and_bound"]
    exact = returned("cutting_plane.solve_exact")
    rand = returned("baselines.rand_benchmark")
    vr = returned("evaluation.variance_reduction")
    per = 1.0 / passes
    return {
        "objective.spectral_cache_s": per * _sum(spans, "objective.spectral_cache"),
        "objective.spectral_cache_calls": per * _count(spans, "objective.spectral_cache"),
        "objective.upsilon_s": per * _sum(spans, "objective.upsilon"),
        "objective.upsilon_calls": per * _count(spans, "objective.upsilon"),
        "objective.sigma_beta_s": per * _sum(spans, "objective.sigma_beta"),
        "objective.sigma_beta_calls": per * _count(spans, "objective.sigma_beta"),
        "bqp.solve_s": per * _sum(spans, "bqp.solve"),
        "bqp.calls": per * _count(spans, "bqp.solve"),
        "bqp.cutset_s": per * _sum(spans, "bqp.cutset"),
        "bqp.restarts_per_s": _rate(
            sum(s["restarts"] for s in heur), sum(s["end"] - s["start"] for s in heur)
        ),
        "bqp.nodes_per_s": _rate(
            sum(s["nodes"] for s in exact_bqp), sum(s["end"] - s["start"] for s in exact_bqp)
        ),
        "bqp.optimal_frac": _rate(sum(s["status"] == "optimal" for s in bqp), len(bqp)),
        "inner_max.solve_s": per * _sum(spans, "inner_max.solve"),
        "inner_max.calls": per * _count(spans, "inner_max.solve"),
        "inner_max.enum_calls": per * (len(inner) - len(bnb)),
        "inner_max.bnb_calls": per * len(bnb),
        "inner_max.bnb_nodes_per_call": _rate(sum(s["nodes"] for s in bnb), len(bnb)),
        "inner_max.unfinished": per * sum(not s["optimal"] for s in inner),
        "cutting_plane.self_s": per * _sum(spans, "cutting_plane.solve_exact", "self"),
        "cutting_plane.iterations": per * sum(s["iterations"] for s in exact),
        "cutting_plane.cuts": per * sum(s["cuts"] for s in exact),
        "cutting_plane.incumbent_s": per * sum(s["incumbent_s"] for s in exact),
        "cutting_plane.after_incumbent_s": per * sum(s["wall_time"] - s["incumbent_s"] for s in exact),
        "lower_bound.report_eval_s": per * _sum(spans, "lower_bound.report_eval"),
        "baselines.rand_s": per * _sum(spans, "baselines.rand_benchmark"),
        "baselines.replicates_per_s": _rate(
            sum(s["replicates"] for s in rand), sum(s["end"] - s["start"] for s in rand)
        ),
        "baselines.confounded": per * sum(s["confounded"] for s in rand),
        "evaluation.variance_reduction_s": per * _sum(spans, "evaluation.variance_reduction"),
        "evaluation.rand_designs_per_s": _rate(
            sum(s["rand_designs"] for s in vr), sum(s["end"] - s["start"] for s in vr)
        ),
        "evaluation.redraws": per * sum(s["redraws"] for s in vr),
        "covariates.encode_s": per * _sum(spans, "covariates.encode"),
        "report.io_s": per * _sum(spans, "report.io"),
        "cli.self_s": per * _sum(spans, "cli.main", "self"),
    }
