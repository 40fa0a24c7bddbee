"""Every narrative demo, and the README's library example, runs and prints its pinned output."""

import os
import subprocess
import sys

import pytest

from conftest import DATA, REPO

DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


def test_readme_library_example_runs():
    section = (REPO / "README.md").read_text().split("## Library in one minute", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run(
        [sys.executable, "-c", example],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "(0, 2) 2\n"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name)
def test_demo_runs(demo):
    # stdout is pinned byte for byte in tests/data/demo_stdout/<demo>.txt
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (DATA / "demo_stdout" / f"{demo.stem}.txt").read_bytes()
