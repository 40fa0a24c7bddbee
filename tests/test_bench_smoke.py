"""One short run of the lottery benchmark, checked against the path-sum oracles.

The workload reduces and values the 6^6 and 6^5 trees, ragged trees and
deep chains through the CLI in process, and compares every output with
`tests/oracles.py`; a run is correct only if no op failed.  The bench's
tracer names its layers by the names it wraps in `kappacalc.cli` and
`problemfile`, so a further test pins the spans each command records.
"""

import importlib.util
import json
import os
import subprocess
import sys

from kappacalc import cli

from conftest import PROBLEMS, REPO


def test_lottery_workload_is_correct():
    env = {k: v for k, v in os.environ.items() if k != "KAPPA_SEARCH_BOUND"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lottery", "--seed", "7",
         "--seconds", "1", "--trace", "0"],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
    assert last["attempted"] > 0


def test_tracer_records_every_layer_of_each_command(capsys):
    spec = importlib.util.spec_from_file_location("tracing", REPO / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    expected = {
        ("validate", "earthquake.json"): {"decode", "validate", "emit"},
        ("reduce", "earthquake.json"): {"decode", "build", "reduce", "emit"},
        ("utility", "earthquake.json"): {"decode", "build", "reduce", "evaluate", "emit"},
        ("rank", "earthquake_decision.json"):
            {"decode", "build", "evaluate", "rank.utility", "rank.maximin", "emit"},
        ("bridge", "bridge_powers.json"): {"decode", "build", "bridge", "kappa_of", "emit"},
    }
    for (command, name), spans in expected.items():
        with tracing.instrument(tracing.Tracer()) as tracer:
            assert cli.main([command, str(PROBLEMS / name)]) == 0
        capsys.readouterr()
        assert {span[0] for span in tracer.spans} == spans, command
