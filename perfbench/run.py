"""Benchmark for the trialdesign CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One closed-loop client drives ``trialdesign.cli.main(argv)``
in-process with stdout captured, repeating the workload's fixed command
list (one pass) until ``--seconds`` is spent, then checks every output.
With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics.  With ``--trace 1`` untraced and traced passes
alternate and the JSON holds the per-layer metrics instead.  Inputs,
outputs, spans and a machine record go to ``perfbench/_runs/``.

Set-up, pass and command times are reported in reference seconds: CPU
seconds of this process, less the speed probe's own, scaled by the
probe's measure of the vCPU's speed during the region (see ``speed.py``
and README.md).  CPU and wall times are kept in ``result.json`` beside
them.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ENV_THREADS = "TRIALDESIGN_THREADS"

# set-up (fresh import of the package, inputs, warm-up) is repeated and
# its median reported, so one slow repetition does not decide setup_s
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "work_s": "s",
    "cmd_p50_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "value_over_floor": "ratio",
    "certified_frac": "ratio",
    "gap_rel": "ratio",
}


def configure_environment() -> dict:
    """One BLAS thread and no library worker threads; must run before numpy loads."""
    was_set = ENV_THREADS in os.environ
    os.environ.pop(ENV_THREADS, None)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return {"trialdesign_threads_was_set": was_set}


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_hash(package: Path) -> str:
    """Identifies the program when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_record(env_note: dict) -> dict:
    import platform

    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        ENV_THREADS: "unset",
        **env_note,
        "commit": git_commit(ROOT),
        "source_sha256": source_hash(ROOT / "src" / "trialdesign"),
    }


def invoke(cli, argv: list[str], tracer=None, probe=None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    first = probe.mark() if probe else 0
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = tracer.call("cli.main", cli.main, argv) if tracer else cli.main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code = None
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "seconds": seconds, "cpu_s": cpu_s,
            "probe_window": (first, probe.mark() if probe else 0)}


def run_pass(cli, plan, tracer=None, probe=None) -> list[dict]:
    """Run the plan's commands in order, each after the previous returned."""
    return [invoke(cli, step.argv, tracer, probe) for step in plan.steps]


def quality(plan, passes: list[list[dict]]) -> dict[str, float]:
    """Design-quality metrics over every checked design and evaluated library allocation."""
    ratios, certified, gaps = [], [], []
    for records in passes:
        for step, rec in zip(plan.steps, records):
            if rec["errors"] or step.kind == "encode":
                continue
            doc = json.loads(rec["stdout"])
            if step.kind == "evaluate" and step.allocation is None:
                continue  # the pass's own design, already counted
            ratios.append(doc["surrogate_value"] * doc["n"] / doc["p"])
            if doc.get("method") == "EXACT":
                bound = doc["diagnostics"]["lower_bound"]
                certified.append(doc["status"] == "optimal" and bound is not None)
                value = doc["surrogate_value"]
                gaps.append(1.0 if bound is None else (value - bound) / value)
    return {
        "value_over_floor": statistics.fmean(ratios) if ratios else 1.0,
        # vacuously 1 without EXACT designs: none of them lacks a certificate
        "certified_frac": statistics.fmean(certified) if certified else 1.0,
        # no EXACT design means no lower bound, which counts as a gap of 1
        "gap_rel": statistics.fmean(gaps) if gaps else 1.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "trialdesign" / "cli.py").is_file():
        print(f"perfbench: no trialdesign sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env_note = configure_environment()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))

    import workloads
    from checks import Checker
    from speed import SpeedProbe, command_speed, mean_speed, reference_seconds
    from tracing import Tracer, install, layer_metrics

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    run_dir = ROOT / "perfbench" / "_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    # the speed probe runs only in untraced runs, so spans hold no probe time
    probe = SpeedProbe() if not args.trace else None
    if probe:
        probe.start()
    setups: list[tuple[float, int, int]] = []  # CPU seconds, probe window
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "trialdesign" or m.startswith("trialdesign.")]:
            del sys.modules[name]
        first, start = probe.mark() if probe else 0, time.process_time()
        cli = importlib.import_module("trialdesign.cli")
        plan, warmup = workloads.build(args.workload, args.seed, run_dir / "inputs")
        for warm in warmup:
            rec = invoke(cli, warm)
            if rec["code"] != 0:
                if probe:
                    probe.stop()
                print(f"perfbench: warm-up {warm[0]} failed:\n{rec['stderr']}", file=sys.stderr)
                return 1
        setups.append((time.process_time() - start, first, probe.mark() if probe else 0))

    # closed loop: one client, next command only after the previous returns
    tracer = Tracer()
    passes: list[list[dict]] = []
    times: dict[bool, list[float]] = {False: [], True: []}
    wall: dict[bool, list[float]] = {False: [], True: []}
    windows: list[tuple[int, int]] = []
    begin = time.perf_counter()
    try:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            if traced:
                install(tracer)
            try:
                first = probe.mark() if probe else 0
                pass_start, pass_cpu = time.perf_counter(), time.process_time()
                records = run_pass(cli, plan, tracer if traced else None, probe)
                times[traced].append(time.process_time() - pass_cpu)
                wall[traced].append(time.perf_counter() - pass_start)
                windows.append((first, probe.mark() if probe else 0))
            finally:
                tracer.uninstall()
            for rec in records:
                rec["traced"] = traced
            passes.append(records)
            elapsed = time.perf_counter() - begin
            enough = len(passes) >= (2 if args.trace else 1)
            if enough and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
    finally:
        if probe:
            probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checker = Checker(plan)
    attempted = failed = 0
    for records in passes:
        produced: dict = {}
        for step, rec in zip(plan.steps, records):
            attempted += 1
            if rec["code"] != 0:
                errors = [f"exit code {rec['code']}: {rec['stderr'].strip()[-2000:]}"]
            else:
                try:
                    errors = checker.check(step, rec["stdout"], produced)
                except Exception:
                    errors = [traceback.format_exc()]
            rec["errors"] = errors
            if errors:
                failed += 1
                for error in errors:
                    print(f"perfbench: CHECK FAILED {' '.join(step.argv)}: {error}", file=sys.stderr)

    untraced = [rec["cpu_s"] for records in passes for rec in records if not rec["traced"]]
    if probe:
        # each region at its own mean probe speed; short commands at their pass's
        speeds = [mean_speed(probe.window(a, b), probe.samples) for a, b in windows]
        pass_s = [reference_seconds(cpu, probe.window(a, b), speed)
                  for cpu, (a, b), speed in zip(times[False], windows, speeds)]
        command_s = [
            [reference_seconds(rec["cpu_s"], kernels, command_speed(kernels, speed))
             for rec in records for kernels in [probe.window(*rec["probe_window"])]]
            for records, speed in zip(passes, speeds)
        ]
        setup_s = [reference_seconds(cpu, probe.window(a, b),
                                     mean_speed(probe.window(a, b), probe.samples))
                   for cpu, a, b in setups]
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "shapes": plan.shapes,
        "passes": len(passes),
        "pass_cpu_s": {"untraced": times[False], "traced": times[True]},
        "pass_wall_s": {"untraced": wall[False], "traced": wall[True]},
        "command_samples": len(untraced),
        "setup_cpu_s": [cpu for cpu, _, _ in setups],
    }
    if probe:
        summary.update({
            "probe_samples": len(probe.samples),
            "probe_mean_kernel_s": statistics.fmean(probe.samples),
            "pass_kernel_s": speeds,
            "pass_reference_s": pass_s,
            "command_reference_s": command_s,
            "setup_reference_s": setup_s,
        })
    if args.trace:
        metrics = layer_metrics(tracer.spans, len(times[True]))
        metrics["trace.overhead_frac"] = (
            statistics.median(times[True]) / statistics.median(times[False]) - 1.0
        )
        tracer.dump(run_dir / "spans.json")
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "work_s": statistics.median(pass_s),
            # commands differ by orders of magnitude, so the median runs
            # over each command's own median rather than over all samples
            "cmd_p50_s": statistics.median(
                statistics.median(samples) for samples in zip(*command_s)
            ),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1.0 - failed / attempted,
            **quality(plan, passes),
        }
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(f"passes = {len(passes)}, command samples = {len(untraced)}, "
          f"commands checked = {attempted}, failed = {failed}")

    summary["machine"] = machine_record(env_note)
    summary["metrics"] = metrics
    (run_dir / "machine.json").write_text(json.dumps(summary["machine"], indent=2) + "\n")
    (run_dir / "result.json").write_text(json.dumps(summary, indent=2, default=str) + "\n")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_per_call"):
        return "nodes/call"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
