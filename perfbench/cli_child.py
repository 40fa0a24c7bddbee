"""One traced `kappacalc` process, for the traced pass of the cli workload.

    PYTHONPATH=src python perfbench/cli_child.py SPANS_OUT <command> <file> [--json]

Runs kappacalc's __main__ as `python -m kappacalc <command> <file> [--json]`
does (same stdout and exit code) and writes its spans to SPANS_OUT: the
moment the script began, the import of kappacalc.cli as `start`, and
cli.main with its layers.
"""

import time

ENTERED_NS = time.perf_counter_ns()

import json  # noqa: E402
import runpy  # noqa: E402
import sys  # noqa: E402

from tracing import Tracer, instrument  # noqa: E402


def main() -> int:
    out_path = sys.argv[1]
    sys.argv = ["kappacalc", *sys.argv[2:]]
    tracer = Tracer()
    index = tracer.open("start")
    from kappacalc import cli
    tracer.close(index)
    entry = cli.main
    with instrument(tracer):
        cli.main = tracer.wrap("cli", entry)
        try:
            runpy.run_module("kappacalc", run_name="__main__", alter_sys=True)
            code = 0
        except SystemExit as done:
            code = done.code
        finally:
            cli.main = entry
    sys.stdout.flush()
    tracer.count_parsed()
    record = {"entered_ns": ENTERED_NS, "spans": tracer.spans,
              "counts": tracer.counts, "kappa_ns": tracer.kappa_ns}
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
