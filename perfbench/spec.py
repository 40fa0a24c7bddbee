"""What the benchmark measures: workloads, metric names, units and bounds.

This is the single source of `BENCHMARK.json`; `run.py --all` writes that
file from the tables below.
"""

RUN_SECONDS = 20

WORKLOADS = {
    "cli": "one python -m kappacalc process per op on the shipped fixtures; "
    "interpreter start and import dominate, kernels barely show",
    "lottery": "in-process validate/reduce/utility on 6^5 and 6^6 full trees, "
    "ragged trees and chains to depth 300; build, reduce, evaluate dominate",
    "rank": "in-process rank on decisions up to 5000 states x 100 acts plus "
    "maximin disagreement searches; evaluate on flat lotteries",
    "bridge": "in-process bridge --json on probability lotteries at eps 10..1.01; "
    "eps=10 bypasses the exact-certification slow path",
}

# (name, unit, better, bound).  fail_ratio is printed beside these but is
# not a bounded metric: it is 0 on correct code, and the result line
# already carries it as failed/attempted.
END_TO_END = [
    ("ops_per_s_ref", "1/s", "higher", 0.2),
    ("op_ms_p50_ref", "ms", "lower", 0.2),
    # The slow tail of cli's 42 near-identical process ops spread up to
    # 0.17 over ten seeds, so p90 gets the widest bound.
    ("op_ms_p90_ref", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]

# (name, unit, better).  Times are self times summed over one traced pass
# of every workload; counts are summed over the same pass.
PER_LAYER = [
    ("start.python_ms", "ms", "lower"),
    ("start.import_ms", "ms", "lower"),
    ("start.ms", "ms", "lower"),
    ("proc.self_ms", "ms", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("decode.ms", "ms", "lower"),
    ("decode.bytes", "bytes", "lower"),
    ("build.ms", "ms", "lower"),
    ("build.nodes", "count", "lower"),
    ("build.leaves", "count", "lower"),
    ("build.depth_max", "count", "lower"),
    ("build.states", "count", "lower"),
    ("build.acts", "count", "lower"),
    ("validate.ms", "ms", "lower"),
    ("reduce.ms", "ms", "lower"),
    ("reduce.calls", "count", "lower"),
    ("evaluate.ms", "ms", "lower"),
    ("evaluate.calls", "count", "lower"),
    ("rank.utility_ms", "ms", "lower"),
    ("rank.maximin_ms", "ms", "lower"),
    ("search.ms", "ms", "lower"),
    ("search.calls", "count", "lower"),
    ("search.found", "count", "higher"),
    ("bridge.ms", "ms", "lower"),
    ("kappa_of.ms", "ms", "lower"),
    ("kappa_of.calls", "count", "lower"),
    ("kappa_of.us_p50", "us", "lower"),
    ("kappa_of.k_sum", "count", "lower"),
    ("emit.ms", "ms", "lower"),
    ("emit.bytes", "bytes", "lower"),
    ("op.ms", "ms", "lower"),
    ("trace.overhead_pct.cli", "%", "lower"),
    ("trace.overhead_pct.lottery", "%", "lower"),
    ("trace.overhead_pct.rank", "%", "lower"),
    ("trace.overhead_pct.bridge", "%", "lower"),
    ("limits.chain_depth_ok", "count", "higher"),
    ("limits.cli_chain_depth_ok", "count", "higher"),
    ("limits.kappa_worst_ms", "ms", "lower"),
]


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
