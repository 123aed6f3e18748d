#!/usr/bin/env python3
"""Layered benchmark of the atsuji command-line program.

Run from the root of a checkout:

    python3 perfbench/run.py --workload remetrize-l2 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload diagnose-matrix --smoke

The program is run from the checkout's ``src`` directory as
``python -m atsuji``, the same entry point as the installed ``atsuji``
script, one child process at a time (a closed loop with one client).  A pass
runs every invocation of the workload once; passes start while they are
likely to end within ``--seconds``, and each metric is the median over
passes.  The workloads, and why each was chosen, are in ``workloads.py``.
Every report is checked against an expectation computed during set-up,
outside the timed interval, and a mismatch counts as a failed operation.

``--trace 0`` prints the end-to-end metrics: wall time and user+sys CPU of
the children (from ``os.wait4``), the peak RSS of any one child, the bytes of
the reports, and ``setup_s``, the wall time of a fresh interpreter running
``import atsuji``, which every invocation pays first; it is sampled once
before every pass.

``--trace 1`` prints the per-layer metrics.  Passes alternate between the
plain CLI and ``trace_child.py``, which runs the same invocation in-process
with spans around each layer's calls; the layers' self times (span minus
child spans) and counters are summed per pass.  The difference between the
two kinds of pass is the tracing overhead.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the details (environment, inputs, sample counts and quartiles, per-invocation
figures, failures and sanity notes).  Both, and the spans of a traced run,
are also written under ``.perfbench-work/``.  The exit code is 0 whenever a
result is printed, 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

DEADLINE_S = 170.0  # the whole run, set-up included, ends before 180 s
MIN_SETUP_SAMPLES = 5

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "report_mb": "MB",
    "setup_s": "s",
}

# span name -> per-layer metric of its summed self time
SELF_TIME = {
    "proc": "proc.startup_exit_s",
    "import": "import.atsuji_s",
    "cli.main": "cli.main_s",
    "cli.parse": "cli.parse_s",
    "cli.cmd": "cli.report_build_s",
    "cli.serialize": "cli.serialize_s",
    "space.build_space": "space.build_space_s",
    "space.validate_axioms": "space.validate_axioms_s",
    "space.verify_axioms": "space.verify_axioms_s",
    "space.neighborhood": "space.neighborhood_s",
    "analysis.atsuji_check": "analysis.atsuji_check_s",
    "analysis.min_pairwise_distance": "analysis.min_pairwise_distance_s",
    "analysis.greedy_epsilon_net": "analysis.greedy_epsilon_net_s",
    "remetrize.remetrize": "remetrize.remetrize_s",
    "remetrize.verify_same_topology": "remetrize.verify_same_topology_s",
    "remetrize.verify_isolation_bound": "remetrize.verify_isolation_bound_s",
    "functions.uc_witness_search": "functions.uc_witness_search_s",
    "functions.parity_function": "functions.parity_function_s",
    "generators": "generators.s",
}
CALLS = ["space.neighborhood", "analysis.min_pairwise_distance",
         "analysis.greedy_epsilon_net", "remetrize.verify_isolation_bound"]
COUNTERS = {"spec_bytes": "cli.spec_bytes", "report_bytes": "cli.report_bytes",
            "triples": "space.triples", "violations": "space.violations"}
TRACE_TOTALS = ["trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
                "trace.unaccounted_s"]

PER_LAYER = {
    **{m: "s" for m in SELF_TIME.values()},
    **{f"{name}.calls": "count" for name in CALLS},
    "cli.spec_bytes": "bytes", "cli.report_bytes": "bytes",
    "space.triples": "count", "space.violations": "count",
    **{m: "s" for m in TRACE_TOTALS},
}

# Figures from the roadmap's re-anchor (2-core box, n ~ 1000); a result notes
# where its own figures disagree with them.
SANITY = [
    # metric, expected per call at 1000 points, points exponent, where measured
    ("setup_s", 0.55, 0, "every run"),
    ("space.verify_axioms", 2.6, 3, "remetrize-l2, traced"),
    ("analysis.atsuji_check", 0.03, 2, "verdicts-builtin, traced"),
]


class Unrunnable(Exception):
    """The benchmark cannot run here; no result is printed."""


class Runner:
    """Spawns children one at a time and reaps them with ``os.wait4``."""

    def __init__(self, work: Path, deadline: float):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in [str(SRC), self.env.get("PYTHONPATH", "")] if p)
        # the package's bytecode is cached, as it is for an installed package
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.work = work
        self.deadline = deadline

    def spawn(self, argv: list[str]) -> dict:
        stderr = self.work / "child.stderr"
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
            (os.POSIX_SPAWN_OPEN, 2, str(stderr), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("no time left for another invocation")
        start = time.perf_counter_ns()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env,
                             file_actions=actions)
        killed = threading.Event()

        def kill():
            killed.set()
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        watchdog = threading.Timer(timeout, kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        finally:
            watchdog.cancel()
        end = time.perf_counter_ns()
        return {
            "start_ns": start,
            "end_ns": end,
            "wall_s": (end - start) / 1e9,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB on Linux
            "exit_code": os.waitstatus_to_exitcode(status),
            "killed": killed.is_set(),
            "stderr": stderr.read_text(errors="replace")[-2000:],
        }


def import_time(runner: Runner) -> float:
    """Wall time of a fresh interpreter importing the package."""
    child = runner.spawn(["-c", "import atsuji"])
    if child["exit_code"] != 0:
        raise Unrunnable(f"`import atsuji` failed:\n{child['stderr']}")
    return child["wall_s"]


class Checker:
    """Checks reports, once per distinct (invocation, exit code, bytes)."""

    def __init__(self):
        self._seen: dict[tuple, list[str]] = {}

    def __call__(self, inv, child: dict, report_path: Path) -> list[str]:
        if child["killed"]:
            return ["killed at the run's deadline"]
        if child["exit_code"] != inv.exit_code:
            return [f"exit code {child['exit_code']}, expected {inv.exit_code}: "
                    f"{child['stderr'].strip()[-300:]}"]
        try:
            data = report_path.read_bytes()
        except OSError as exc:
            return [f"no report: {exc}"]
        key = (inv.name, child["exit_code"], hashlib.sha256(data).hexdigest())
        if key not in self._seen:
            try:
                self._seen[key] = inv.check(json.loads(data))
            except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
                self._seen[key] = [f"malformed report: {exc!r}"]
        return self._seen[key]


def run_pass(runner: Runner, checker: Checker, invocations, traced: bool,
             run_id: str, pass_no: int, spans: list[dict]) -> dict:
    rows = []
    for k, inv in enumerate(invocations):
        report = runner.work / f"{k}-{inv.name}.report.json"
        args = [*inv.args, "--out", str(report)]
        report.unlink(missing_ok=True)  # a failed run must not be judged by an old report
        if traced:
            span_file = runner.work / "spans.jsonl"
            child = runner.spawn([str(HERE / "trace_child.py"), str(span_file), *args])
        else:
            child = runner.spawn(["-m", "atsuji", *args])
        problems = checker(inv, child, report)
        rows.append({
            "invocation": inv.name,
            "wall_s": child["wall_s"],
            "cpu_s": child["cpu_s"],
            "rss_mb": child["rss_mb"],
            "report_bytes": report.stat().st_size if report.exists() else 0,
            "killed": child["killed"],
            "problems": problems,
        })
        if traced:
            spans.extend(collect_spans(span_file, child, f"{run_id}/p{pass_no}/{inv.name}",
                                       pass_no, len(spans)))
        if child["killed"]:
            break
    return {"traced": traced, "invocations": rows,
            "wall_s": sum(r["wall_s"] for r in rows),
            "cpu_s": sum(r["cpu_s"] for r in rows),
            "peak_rss_mb": max(r["rss_mb"] for r in rows),
            "report_mb": sum(r["report_bytes"] for r in rows) / 1e6}


def collect_spans(path: Path, child: dict, run_id: str, pass_no: int, first_id: int) -> list[dict]:
    """The child's spans under one 'proc' span from spawn to reap, renumbered
    so that ids are unique within the run."""
    proc = {"id": first_id, "parent": None, "name": "proc", "run": run_id,
            "pass": pass_no, "start_ns": child["start_ns"], "end_ns": child["end_ns"]}
    out = [proc]
    if path.exists():
        for line in path.read_text(encoding="utf-8").splitlines():
            span = json.loads(line)
            span["id"] += first_id + 1
            span["parent"] = proc["id"] if span["parent"] is None else span["parent"] + first_id + 1
            span.update(run=run_id, **{"pass": pass_no})
            out.append(span)
        path.unlink()
    return out


def layer_totals(spans: list[dict]) -> dict[int, dict]:
    """Per pass: summed self time, call count and counters per span name."""
    child_time: dict[int, int] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0) + s["end_ns"] - s["start_ns"]
    per_pass: dict[int, dict] = {}
    for s in spans:
        totals = per_pass.setdefault(s["pass"], {"self": {}, "calls": {}, "counts": {}})
        duration = s["end_ns"] - s["start_ns"]
        name = s["name"]
        totals["self"][name] = totals["self"].get(name, 0) + duration - child_time.get(s["id"], 0)
        totals["calls"][name] = totals["calls"].get(name, 0) + 1
        for key, value in s.get("counts", {}).items():
            totals["counts"][key] = totals["counts"].get(key, 0) + value
    return per_pass


def summarize(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "n": len(values),
           "min": min(values), "max": max(values), "samples": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def environment(seed: int) -> dict:
    import numpy

    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "caches": caches,
        "seed": seed,
    }


def sanity_notes(setup_s: float, per_call: dict[tuple[str, str], float],
                 invocations) -> list[dict]:
    """Compare this run with the roadmap's figures, scaled to each input's
    point count by the layer's complexity exponent."""
    notes = []
    for name, expected_1000, exponent, where in SANITY:
        for inv in invocations:
            observed = setup_s if name == "setup_s" else per_call.get((inv.name, name))
            if observed is None:
                continue
            expected = expected_1000 * (inv.points / 1000.0) ** exponent
            notes.append({
                "metric": name, "where": where,
                "invocation": None if name == "setup_s" else inv.name,
                "points": inv.points, "expected_per_call": expected,
                "observed_per_call": observed, "ratio": observed / expected,
                "agrees": 0.7 <= observed / expected <= 1.4,
            })
            if name == "setup_s":
                break
    return notes


def measure(args, invocations, runner: Runner) -> tuple[list[dict], list[float], list[dict]]:
    """The timed loop: passes, import-time samples and, when traced, spans.

    Import times are sampled before every pass, so that their median sees
    the same machine as the passes."""
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}"
    checker = Checker()
    passes: list[dict] = []
    setup: list[float] = []
    spans: list[dict] = []
    kinds = [False, True] if args.trace else [False]
    durations: dict[bool, list[float]] = {kind: [] for kind in kinds}
    started = time.monotonic()
    while True:
        traced = kinds[len(passes) % len(kinds)]
        # a pass starts only if a pass of its kind is likely to end in time
        if len(passes) >= len(kinds) and (
                args.smoke or time.monotonic() - started + statistics.median(durations[traced])
                > args.seconds):
            break
        began = time.monotonic()
        try:
            setup.append(import_time(runner))
            passes.append(run_pass(runner, checker, invocations, traced, run_id,
                                   len(passes), spans))
        except TimeoutError:
            break
        durations[traced].append(time.monotonic() - began)
        if any(r["killed"] for r in passes[-1]["invocations"]):
            break
    if len(passes) < len(kinds):
        raise Unrunnable("no complete pass before the deadline")
    try:
        while len(setup) < (1 if args.smoke else MIN_SETUP_SAMPLES):
            setup.append(import_time(runner))
    except TimeoutError:
        pass
    return passes, setup, spans


def trace_metrics(passes: list[dict], spans: list[dict], setup_s: float,
                  n_invocations: int) -> tuple[dict, dict, dict]:
    """Per-layer samples (one per traced pass), the accounting of untraced
    wall time by layer self times, and the median inclusive time of one call
    per (invocation, span name)."""
    per_pass = layer_totals(spans)
    samples: dict[str, list] = {m: [] for m in PER_LAYER}
    inclusive: dict[tuple[str, str], list[float]] = {}
    for k, p in enumerate(passes):
        if not p["traced"]:
            continue
        totals = per_pass[k]
        for name, metric in SELF_TIME.items():
            samples[metric].append(totals["self"].get(name, 0) / 1e9)
        for name in CALLS:
            samples[f"{name}.calls"].append(totals["calls"].get(name, 0))
        for key, metric in COUNTERS.items():
            samples[metric].append(totals["counts"].get(key, 0))

    traced_walls = [p["wall_s"] for p in passes if p["traced"]]
    plain_walls = [p["wall_s"] for p in passes if not p["traced"]]
    overhead = statistics.median(traced_walls) - statistics.median(plain_walls)
    # everything the CLI does after its import: interpreter start, import and
    # exit are what setup_s measures
    layers = [m for name, m in SELF_TIME.items() if name not in ("proc", "import")]
    layer_sum = statistics.median(map(sum, zip(*(samples[m] for m in layers))))
    unaccounted = statistics.median(plain_walls) - n_invocations * setup_s - layer_sum
    samples.update({
        "trace.wall_s": traced_walls,
        "trace.untraced_wall_s": plain_walls,
        "trace.overhead_s": [overhead],
        "trace.unaccounted_s": [unaccounted],
    })
    accounting = {
        "untraced_wall_s": statistics.median(plain_walls),
        "setup_s_times_invocations": n_invocations * setup_s,
        "layer_self_time_s": layer_sum,
        "unaccounted_s": unaccounted,
        "tracing_overhead_s": overhead,
        "within_overhead": abs(unaccounted) <= abs(overhead),
    }
    for span in spans:
        invocation = span["run"].rsplit("/", 1)[1]
        inclusive.setdefault((invocation, span["name"]), []).append(
            (span["end_ns"] - span["start_ns"]) / 1e9)
    return samples, accounting, {key: statistics.median(v) for key, v in inclusive.items()}


def run(args) -> tuple[dict, dict]:
    import workloads  # numpy is needed from here on

    run_id = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = WORK / f"{run_id}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        invocations = workloads.build(args.workload, args.seed, work, args.smoke,
                                      args.corrupt_expectations)
        runner = Runner(work, time.monotonic() + DEADLINE_S)
        import_time(runner)  # untimed: leaves the bytecode cache warm
        passes, setup, spans = measure(args, invocations, runner)
    finally:
        shutil.rmtree(work)

    rows = [r for p in passes for r in p["invocations"]]
    failed = sum(1 for r in rows if r["problems"])
    plain = [p for p in passes if not p["traced"]]
    setup_s = statistics.median(setup)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "environment": environment(args.seed),
        "inputs": [{"invocation": inv.name, "args": inv.args, "points": inv.points,
                    "spec_bytes": inv.spec_bytes, "expected_exit": inv.exit_code}
                   for inv in invocations],
        "passes": {"plain": len(plain), "traced": len(passes) - len(plain)},
        "failed_ops": {"failed": failed, "attempted": len(rows), "ratio": failed / len(rows)},
        "failures": [f"pass {k} {r['invocation']}: {problem}" for k, p in enumerate(passes)
                     for r in p["invocations"] for problem in r["problems"]][:20],
        "setup_s": summarize(setup),
        "per_invocation": {
            inv.name: {key: summarize([p["invocations"][k][key] for p in plain
                                       if k < len(p["invocations"])])
                       for key in ("wall_s", "cpu_s", "rss_mb", "report_bytes")}
            for k, inv in enumerate(invocations)
        },
    }
    per_call = {}
    if args.trace:
        samples, detail["accounting"], per_call = trace_metrics(
            passes, spans, setup_s, len(invocations))
        spans_path = WORK / f"{run_id}.spans.jsonl"
        with spans_path.open("w", encoding="utf-8") as f:
            for span in spans:
                f.write(json.dumps(span) + "\n")
        detail["spans"] = {"path": str(spans_path.relative_to(ROOT)), "count": len(spans)}
        units = PER_LAYER
    else:
        samples = {m: [p[m] for p in plain] for m in ("wall_s", "cpu_s", "peak_rss_mb", "report_mb")}
        samples["setup_s"] = setup
        units = END_TO_END
    detail["metrics"] = {m: {**summarize(samples[m]), "unit": units[m]} for m in units}
    if not args.smoke:
        detail["sanity"] = sanity_notes(setup_s, per_call, invocations)
    result = {
        "correct": failed == 0,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {m: {"value": statistics.median(samples[m]), "unit": units[m]} for m in units},
    }
    return detail, result


def parse_args(argv):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0,
                   help="start passes while they are likely to end within this time")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one pass at a few dozen points, through the same checks")
    p.add_argument("--corrupt-expectations", action="store_true",
                   help="make every expected output wrong (a check of the checks)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "atsuji" / "__init__.py").is_file():
        print(f"error: no atsuji package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    try:
        import numpy  # noqa: F401  (the expected outputs are computed with it)
    except ImportError:
        print("error: numpy is required to compute the expected outputs", file=sys.stderr)
        return 2
    args = parse_args(argv)
    try:
        detail, result = run(args)
    except Unrunnable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    name = f"{args.workload}-s{args.seed}-t{args.trace}.result.json"
    (WORK / name).write_text(json.dumps({"detail": detail, "result": result}, indent=2) + "\n",
                             encoding="utf-8")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
