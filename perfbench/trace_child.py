"""Run one atsuji CLI invocation in this process, with spans around its layers.

    python perfbench/trace_child.py SPANS_PATH CLI_ARG...

The module-level names that ``atsuji.cli``, ``atsuji.analysis``,
``atsuji.remetrize`` and ``atsuji.generators`` call are replaced, in this
process only, by wrappers that record a span: name, start and end from the
monotonic clock in ns, and the enclosing span.  A few spans also carry
counters.  The spans stay in memory and are written to SPANS_PATH, one JSON
line each, after ``atsuji.cli.main`` returns.  The exit code is main's.
"""

from __future__ import annotations

import json
import os
import sys
import time

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def call(self, name: str, fn, args, kwargs, counts=None, **attrs):
        span = {"id": len(self.spans),
                "parent": self._stack[-1]["id"] if self._stack else None,
                "name": name, **attrs}
        self.spans.append(span)
        self._stack.append(span)
        span["start_ns"] = _now()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end_ns"] = _now()
            self._stack.pop()
        if counts is not None:
            span["counts"] = counts(args, result)
        return result

    def in_command(self, command: str) -> bool:
        return any(s["name"] == "cli.cmd" and s["cmd"] == command for s in self._stack)

    def wrap(self, owner, attr: str, name, counts=None) -> None:
        """Replace ``owner.attr``; ``name`` may be a function of the tracer."""
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            label = name(self) if callable(name) else name
            return self.call(label, fn, args, kwargs, counts)

        setattr(owner, attr, traced)


def _axioms_span(tracer: Tracer) -> str:
    # the scan of a remetrized output verifies a guarantee; every other scan
    # (check-metric, matrix-arm validation at load) validates an input
    return "space.verify_axioms" if tracer.in_command("remetrize") else "space.validate_axioms"


def _axiom_counts(args, report) -> dict:
    n = args[0].n
    return {"triples": n ** 3, "violations": len(report.violations)}


def _spec_counts(args, _result) -> dict:
    return {"spec_bytes": os.path.getsize(args[0])}


def _report_counts(args, _result) -> dict:
    out = args[1]
    return {"report_bytes": os.path.getsize(out)} if out else {}


def install(tracer: Tracer, cli, analysis, remetrize, generators) -> None:
    for command, fn in list(cli._COMMANDS.items()):
        cli._COMMANDS[command] = (
            lambda *a, _fn=fn, _c=command: tracer.call("cli.cmd", _fn, a, {}, cmd=_c)
        )
    tracer.wrap(cli, "load_spec", "cli.parse", _spec_counts)
    tracer.wrap(cli, "_emit", "cli.serialize", _report_counts)
    tracer.wrap(cli, "build_space", "space.build_space")
    tracer.wrap(cli, "verify_metric_axioms", _axioms_span, _axiom_counts)
    for attr in ("sequence_grid", "positive_integers", "convergent_sequence"):
        tracer.wrap(cli, attr, "generators")
    tracer.wrap(generators, "build_space", "space.build_space")
    for attr in ("remetrize", "verify_same_topology", "verify_isolation_bound"):
        tracer.wrap(cli, attr, f"remetrize.{attr}")
    for attr in ("uc_witness_search", "parity_function"):
        tracer.wrap(cli, attr, f"functions.{attr}")
    tracer.wrap(cli, "atsuji_check", "analysis.atsuji_check")
    for module in (cli, analysis):
        tracer.wrap(module, "greedy_epsilon_net", "analysis.greedy_epsilon_net")
    for module in (analysis, remetrize):
        tracer.wrap(module, "neighborhood", "space.neighborhood")
        tracer.wrap(module, "min_pairwise_distance", "analysis.min_pairwise_distance")


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    start = _now()
    import atsuji.cli as cli

    tracer.spans.append({"id": 0, "parent": None, "name": "import",
                         "start_ns": start, "end_ns": _now()})
    # by module path: the package re-exports a function named ``remetrize``
    modules = [sys.modules[f"atsuji.{m}"] for m in ("analysis", "remetrize", "generators")]
    install(tracer, cli, *modules)
    try:
        return tracer.call("cli.main", cli.main, (cli_args,), {})
    finally:
        with open(spans_path, "w", encoding="utf-8") as f:
            for span in tracer.spans:
                f.write(json.dumps(span) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
