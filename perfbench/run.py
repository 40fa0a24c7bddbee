"""kappacalc benchmark: closed-loop workloads with one client, checked outputs.

    python3 perfbench/run.py --workload lottery --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1      # all of it; also writes BENCHMARK.json

Run from the repository root.  With --trace 0 the named workload runs
untraced for at least --seconds, in whole cycles of its ops, and the last
line of stdout is a JSON object with the end-to-end metrics.  With
--trace 1 one traced pass of every workload (each after an untraced pass
of the same ops) gives the per-layer metrics, so every layer is measured
whichever workload is named; the limits probe and the start probe run
there too.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "demos" / "problems"
ORACLES = ROOT / "tests" / "oracles.py"
OUT = HERE / "out"

sys.path[:0] = [str(SRC), str(ORACLES.parent)]

import spec  # noqa: E402

SETUP_REPEATS = 3
REF_LOOP = 100_000
# The loop's time at the nominal speed that *_ref figures are scaled to:
# about its median on a two-core 2.1 GHz VM running Python 3.11.
REF_NOMINAL_S = 0.008
REF_EVERY_S = 0.2
START_PROBES = 7
CHAIN_DEPTHS = (250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000)
SEARCH_BOUND_ENV = "KAPPA_SEARCH_BOUND"
CLI_ENTRY = ("python -m kappacalc with PYTHONPATH=src: the kappacalc console "
             "script cannot be installed offline (the standing tier-1 failure)")


class Context:
    """What running an op needs: the library modules and the child env."""

    def __init__(self):
        from kappacalc import cli, find_maximin_disagreement
        import reference

        self.cli = cli
        self.search = find_maximin_disagreement
        self.witness_disagrees = reference.witness_disagrees
        self.env = dict(os.environ, PYTHONPATH=str(SRC))


def run_main(ctx: Context, args) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = ctx.cli.main(list(args))
    return code, out.getvalue()


def run_proc(ctx: Context, argv) -> tuple[int, str]:
    done = subprocess.run(argv, env=ctx.env, cwd=ROOT, capture_output=True, timeout=120)
    return done.returncode, done.stdout.decode("utf-8")


def run_op(ctx: Context, op) -> tuple[bool, str]:
    """Run one op; True when the exit code and output match the reference."""
    if op.kind == "search":
        found = ctx.search(*op.args)
        if op.expected is None:
            return found is None, ""
        return found is not None and ctx.witness_disagrees(found), ""
    if op.kind == "main":
        code, out = run_main(ctx, op.args)
    else:
        code, out = run_proc(ctx, [sys.executable, "-m", "kappacalc", *op.args])
    return code == 0 and out == op.expected, out


def checked(ctx: Context, op) -> tuple[bool, str]:
    try:
        return run_op(ctx, op)
    except Exception as e:  # a crash in the code under test is a failed op
        print(f"# op failed: {op.label}: {type(e).__name__}: {e}", file=sys.stderr)
        return False, ""


def warm_up(ctx: Context, ops) -> None:
    """Run the cheapest op of each command form once."""
    cheapest = {}
    for op in ops:
        if op.kind == "search":
            form, size = "search", op.args[1]
        else:
            form, size = (op.args[0], "--json" in op.args), os.path.getsize(op.args[1])
        if form not in cheapest or size < cheapest[form][0]:
            cheapest[form] = (size, op)
    for _, op in cheapest.values():
        checked(ctx, op)


def set_up(ctx: Context, workload: str, seed: int, workdir: Path):
    """Generate inputs, compute references and warm up; timed by the caller."""
    import inputs

    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    ops = inputs.prepare(workload, seed, workdir, FIXTURES)
    warm_up(ctx, ops)
    return ops


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def reference_loop() -> float:
    """Seconds for a fixed loop of integer arithmetic: the host's speed.

    A shared two-core VM can change speed by tens of percent over seconds
    to minutes, in CPU time as much as in wall time.  Sampling this loop
    between ops and rescaling by it cut the run-to-run spread of the
    timings several-fold there.  Ints are not tracked by the garbage collector,
    so the program's heap does not change the loop's time.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(REF_LOOP):
        total += i * i
    return time.perf_counter() - t0


def measure(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    setup_s = []
    ctx = None
    for _ in range(SETUP_REPEATS):
        before = reference_loop()
        t0 = time.perf_counter()
        ctx = ctx or Context()  # the import is paid in the first set-up only
        ops = set_up(ctx, workload, seed, workdir)
        elapsed = time.perf_counter() - t0
        setup_s.append(elapsed * REF_NOMINAL_S / statistics.mean((before, reference_loop())))
    cycles, failed = [], 0
    start = time.perf_counter()
    while True:
        cycle_ok, latencies, refs = 0, [], []
        cycle_start = last_ref = time.perf_counter()
        for op in ops:
            t0 = time.perf_counter_ns()
            ok, _ = checked(ctx, op)
            latencies.append((time.perf_counter_ns() - t0) / 1e6)
            cycle_ok += ok
            failed += not ok
            if time.perf_counter() - last_ref >= REF_EVERY_S:
                refs.append(reference_loop())
                last_ref = time.perf_counter()
        refs.append(reference_loop())
        busy = time.perf_counter() - cycle_start - sum(refs)
        speed = REF_NOMINAL_S / statistics.median(refs)
        cycles.append((cycle_ok / busy, statistics.median(latencies),
                       statistics.quantiles(latencies, n=10)[8], speed))
        wall = time.perf_counter() - start
        if wall >= seconds:
            break
    attempted = len(cycles) * len(ops)
    # Each figure is the median over cycles of that figure within a cycle,
    # so one slow stretch of the host moves it little.  The *_ref figures
    # also rescale each cycle by the host's speed in that cycle, as setup_s
    # does each set-up; see reference_loop.
    rate, p50, p90, speed = ([c[i] for c in cycles] for i in range(4))
    metrics = {
        "ops_per_s_ref": statistics.median(r / v for r, v in zip(rate, speed)),
        "op_ms_p50_ref": statistics.median(t * v for t, v in zip(p50, speed)),
        "op_ms_p90_ref": statistics.median(t * v for t, v in zip(p90, speed)),
        "peak_rss_mb": peak_rss_mb(workload),
        "setup_s": statistics.median(setup_s),
    }
    report = {"ops_per_s": (statistics.median(rate), "1/s"),
              "op_ms_p50": (statistics.median(p50), "ms"),
              "op_ms_p90": (statistics.median(p90), "ms"),
              "fail_ratio": (failed / attempted, "ratio"),
              "host_speed": (statistics.median(speed), "x"),
              "ops": (attempted, "count"), "cycles": (len(cycles), "count"),
              "wall_s": (wall, "s")}
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "report": report}


# --------------------------------------------------------------------------
# The traced run.

def traced_op(ctx: Context, tracer, op, workdir: Path) -> tuple[bool, str]:
    """Run one op under a root span; a cli op runs as a traced child process."""
    if op.kind != "proc":
        index = tracer.open("search" if op.kind == "search" else "cli")
        try:
            ok, out = checked(ctx, op)
        finally:
            tracer.close(index)
        if op.kind == "search":
            tracer.counts["search.calls"] += 1
            tracer.counts["search.found"] += op.expected is not None and ok
        return ok, out
    spans_path = workdir / "child-spans.json"
    spans_path.unlink(missing_ok=True)
    root = tracer.open("proc")
    try:
        code, out = run_proc(ctx, [sys.executable, str(HERE / "cli_child.py"),
                                   str(spans_path), *op.args])
    except subprocess.TimeoutExpired:
        code, out = None, ""
    finally:
        tracer.close(root)
    if not spans_path.exists():  # the child died before writing its spans
        return False, out
    child = json.loads(spans_path.read_text(encoding="utf-8"))
    tracer.add("start", tracer.spans[root][1], child["entered_ns"], root)
    offset = len(tracer.spans)
    for name, begin, end, parent, _ in child["spans"]:
        tracer.add(name, begin, end, root if parent < 0 else parent + offset)
    add_counts(tracer.counts, child["counts"])
    tracer.kappa_ns.extend(child["kappa_ns"])
    return code == 0 and out == op.expected, out


def add_counts(total: dict, more: dict) -> None:
    """Sum figures into `total`, except the deepest tree, which is a max."""
    for name, value in more.items():
        total[name] = max(total[name], value) if name == "build.depth_max" else total[name] + value


def trace_workload(ctx: Context, workload: str, seed: int, workdir: Path, budget_s: float):
    """Alternate untraced and traced passes over one cycle of the workload
    until `budget_s` is spent (at least one pair); layer figures are per pass."""
    from tracing import Tracer, instrument

    ops = set_up(ctx, workload, seed, workdir)
    tracer = Tracer()
    untraced = traced = 0.0
    passes = failed = 0
    while passes == 0 or untraced + traced < budget_s:
        t0 = time.perf_counter()
        for op in ops:
            failed += not checked(ctx, op)[0]
        t1 = time.perf_counter()
        with instrument(tracer):
            for op in ops:
                tracer.op += 1
                ok, out = traced_op(ctx, tracer, op, workdir)
                tracer.count_parsed()
                tracer.counts["emit.bytes"] += len(out.encode("utf-8"))
                failed += not ok
        untraced += t1 - t0
        traced += time.perf_counter() - t1
        passes += 1
    layers = {LAYER_METRICS[n]: ms / passes for n, ms in tracer.self_ms().items()}
    layers["op.ms"] = sum(end - start for name, start, end, parent, _ in tracer.spans
                          if parent < 0) / 1e6 / passes
    for name in COUNTS:
        value = tracer.counts.get(name, 0)
        layers[name] = value if name == "build.depth_max" else value // passes
    layers[f"trace.overhead_pct.{workload}"] = 100 * (traced / untraced - 1)
    return {"layers": layers, "kappa_ns": tracer.kappa_ns, "spans": tracer.spans,
            "attempted": 2 * passes * len(ops), "failed": failed}


def start_probe(ctx: Context) -> dict:
    """Fresh interpreters: `-c pass` as the baseline, then importing the CLI."""
    times = {"pass": [], "import kappacalc.cli": []}
    for _ in range(START_PROBES):
        for code in times:
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=ctx.env, cwd=ROOT, check=True)
            times[code].append((time.perf_counter() - t0) * 1e3)
    python_ms = statistics.median(times["pass"])
    return {"start.python_ms": python_ms,
            "start.import_ms": statistics.median(times["import kappacalc.cli"]) - python_ms}


def chain_text(depth: int) -> str:
    """A depth-`depth` chain with the deep child first, built without recursion."""
    level = '[{"delta": 0, "child": '
    back = '}, {"delta": 1, "child": "o3"}]'
    return ('{"prizes": ["o1", "o2", "o3"], '
            '"assessment": {"o1": [0, "inf"], "o2": [0, 2], "o3": ["inf", 0]}, '
            '"lottery": ' + level * depth + '"o1"' + back * depth + "}")


def limits_probe(ctx: Context, workdir: Path) -> tuple[dict, bool]:
    """Deepest chain the library and the CLI handle, and the worst kappa_of.

    A chain whose every level is (0, deeper) and (1, o3) reduces to
    o1:0 o2:inf o3:1 and evaluates to (0, 1).  Depths escalate until one
    fails or the previous one took over 5 s.
    """
    from kappacalc import INF, Leaf, PrizeAssessment, PrizeSet, evaluate, kappa_of, make_node

    prizes = PrizeSet(("o1", "o2", "o3"))
    assessment = PrizeAssessment.from_map(prizes, {"o1": (0, INF), "o2": (0, 2), "o3": (INF, 0)})

    def library(depth):
        tree = Leaf("o1", prizes)
        for _ in range(depth):
            tree = make_node([(0, tree), (1, Leaf("o3", prizes))])
        return (tree.reduce().deltas == (0, INF, 1)
                and evaluate(tree, assessment).pair() == (0, 1))

    def command(depth):
        path = workdir / "chain.json"
        path.write_text(chain_text(depth), encoding="utf-8")
        return run_main(ctx, ["utility", str(path)]) == (0, "(0, 1)  u = 1\n")

    limits = {}
    for name, attempt in (("limits.chain_depth_ok", library),
                          ("limits.cli_chain_depth_ok", command)):
        limits[name] = 0
        for depth in CHAIN_DEPTHS:
            t0 = time.perf_counter()
            try:
                if not attempt(depth):
                    break
            except Exception:  # RecursionError on the seed code
                break
            limits[name] = depth
            if time.perf_counter() - t0 > 5:
                break
    t0 = time.perf_counter()
    k = kappa_of(1e-300, 1.01)
    limits["limits.kappa_worst_ms"] = (time.perf_counter() - t0) * 1e3
    estimate = 300 * 2.302585092994046 / 0.009950330853168083  # ln(1e300) / ln(1.01)
    return limits, abs(k - estimate) <= 1


LAYER_METRICS = {
    "start": "start.ms", "proc": "proc.self_ms", "cli": "cli.self_ms",
    "decode": "decode.ms", "build": "build.ms", "validate": "validate.ms",
    "reduce": "reduce.ms", "evaluate": "evaluate.ms",
    "rank.utility": "rank.utility_ms", "rank.maximin": "rank.maximin_ms",
    "search": "search.ms", "bridge": "bridge.ms", "kappa_of": "kappa_of.ms",
    "emit": "emit.ms",
}
COUNTS = ("decode.bytes", "build.nodes", "build.leaves", "build.depth_max", "build.states",
          "build.acts", "reduce.calls", "evaluate.calls", "search.calls", "search.found",
          "kappa_of.calls", "kappa_of.k_sum", "emit.bytes")


def trace_all(seed: int, seconds: float, workdir: Path) -> dict:
    """Every workload traced, each for a quarter of `seconds`, then the probes."""
    ctx = Context()
    per_workload = {w: trace_workload(ctx, w, seed, workdir / w, seconds / 4)
                    for w in spec.WORKLOADS}
    metrics: dict = defaultdict(int)
    for result in per_workload.values():
        add_counts(metrics, result["layers"])
    kappa_ns = [ns for r in per_workload.values() for ns in r["kappa_ns"]]
    metrics["kappa_of.us_p50"] = statistics.median(kappa_ns) / 1e3
    metrics.update(start_probe(ctx))
    limits, limits_ok = limits_probe(ctx, workdir)
    metrics.update(limits)
    return {
        "attempted": sum(r["attempted"] for r in per_workload.values()) + 1,
        "failed": sum(r["failed"] for r in per_workload.values()) + (not limits_ok),
        "metrics": metrics,
        "layers_by_workload": {w: r["layers"] for w, r in per_workload.items()},
        "spans": {w: r["spans"] for w, r in per_workload.items()},
    }


# --------------------------------------------------------------------------

def environment(args) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "seed": args.seed, "trace": bool(args.trace), "workload": args.workload,
            "seconds": args.seconds, "cli_entry": CLI_ENTRY}


def refuse(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def units() -> dict:
    table = {n: u for n, u, _, _ in spec.END_TO_END}
    table.update({n: u for n, u, _ in spec.PER_LAYER})
    return table


def run_one(args) -> int:
    workdir = OUT / f"inputs-{os.getpid()}"
    try:
        if args.trace:
            result = trace_all(args.seed, args.seconds, workdir)
            names = [n for n, _, _ in spec.PER_LAYER]
        else:
            result = measure(args.workload, args.seed, args.seconds, workdir)
            names = [n for n, _, _, _ in spec.END_TO_END]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment(args)
    unit = units()
    print(f"# env {json.dumps(env)}")
    for name, (value, u) in result.get("report", {}).items():
        print(f"{args.workload} {name} = {value:.6g} {u}")
    for workload, layers in result.get("layers_by_workload", {}).items():
        print(f"# {workload}, per traced pass: "
              + json.dumps({n: round(v, 3) for n, v in layers.items()}))
    for name in names:
        print(f"{'trace' if args.trace else args.workload} {name} = "
              f"{result['metrics'][name]:.6g} {unit[name]}")
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": result["metrics"][n], "unit": unit[n]} for n in names},
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json"
    record.write_text(json.dumps({"env": env, **line, "spans": result.get("spans", [])}),
                      encoding="utf-8")
    print(json.dumps(line))
    return 0


def run_all(args) -> int:
    """Write BENCHMARK.json, then run each workload in its own process (peak
    RSS is per process) and the traced run, printing every metric."""
    (ROOT / "BENCHMARK.json").write_text(
        json.dumps(spec.benchmark_json(), indent=2) + "\n", encoding="utf-8")
    code = 0
    for workload, trace in [(w, 0) for w in spec.WORKLOADS] + [("lottery", 1)]:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        code = code or done.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS), default="lottery")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="every workload, then the traced run; writes BENCHMARK.json")
    args = parser.parse_args(argv)
    if SEARCH_BOUND_ENV in os.environ:
        return refuse(f"{SEARCH_BOUND_ENV} is set; it changes search results")
    for needed in (SRC / "kappacalc" / "cli.py", ORACLES, FIXTURES):
        if not needed.exists():
            return refuse(f"{needed.relative_to(ROOT)} is missing; run from a kappacalc checkout")
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
