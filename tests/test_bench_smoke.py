"""One short run of the lottery benchmark, checked against the path-sum oracles.

The workload reduces and values the 6^6 and 6^5 trees, ragged trees and
deep chains through the CLI in process, and compares every output with
`tests/oracles.py`; a run is correct only if no op failed.
"""

import json
import os
import subprocess
import sys

from conftest import REPO


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
