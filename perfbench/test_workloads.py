"""Self-check: each workload stresses the layers its description claims.

Runs one traced pass of every workload at seed 0 and inspects the spans.
Run from the checkout root:

    python3 -m pytest perfbench/test_workloads.py -q
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from run import run_pass  # noqa: E402
from tracing import Tracer, install  # noqa: E402


@pytest.fixture(scope="module")
def spans(tmp_path_factory):
    from trialdesign import cli

    out = {}
    for name in workloads.WORKLOADS:
        plan, _ = workloads.build(name, 0, tmp_path_factory.mktemp(name))
        tracer = Tracer()
        install(tracer)
        try:
            records = run_pass(cli, plan, tracer)
        finally:
            tracer.uninstall()
        assert [rec["code"] for rec in records] == [0] * len(records), records
        out[name] = tracer.spans
    return out


def _named(spans, name):
    return [s for s in spans if s["name"] == name]


def test_lb_large_runs_only_heuristic_bqp(spans):
    calls = _named(spans["lb-large"], "bqp.solve")
    assert calls
    assert all(s["mode"] == "heuristic" and s["nodes"] == 0 for s in calls)


def test_exact_runs_master_branch_and_bound_and_verification(spans):
    calls = _named(spans["exact"], "bqp.solve")
    assert any(s["mode"] == "exact" and s["nodes"] > 0 for s in calls)
    designs = _named(spans["exact"], "cutting_plane.solve_exact")
    assert any(s["n"] > 40 and s["master_mode_final"] == "exact" for s in designs)


@pytest.mark.parametrize(
    "workload, method",
    [
        ("lb-large", "enumeration"),
        ("exact", "enumeration"),
        ("cohort-evaluate", "branch_and_bound"),
        ("wide-evaluate", "branch_and_bound"),
    ],
)
def test_inner_max_path(spans, workload, method):
    calls = _named(spans[workload], "inner_max.solve")
    assert calls
    assert {s["method"] for s in calls} == {method}


def test_wide_branch_and_bound_is_deep_where_cohort_is_shallow(spans):
    def per_call(name):
        calls = _named(spans[name], "inner_max.solve")
        return sum(s["nodes"] for s in calls) / len(calls)

    assert per_call("wide-evaluate") >= 100 * per_call("cohort-evaluate")
