"""No input dimension costs more than linear time.

Each document below grows along one dimension of a problem file.  It is
written at a size n and at 8n, and every command that reads that dimension
runs on both, in process through `cli.main`, keeping the fastest of 3 calls.
Linear work reads about 8 times slower at 8n and quadratic work about 64, so
the guard asserts a ratio under 24.  A dimension a later change introduces
gets a document here too.
"""

import contextlib
import io
import json
import time

import pytest

from kappacalc import cli

ALL = ("validate", "reduce", "utility", "rank", "bridge")
RATIO = 24


def ends(prizes: list[str]) -> dict:
    """An assessment from the best prize (0, inf) down to the worst (inf, 0)."""
    n = len(prizes)
    return {p: [0, "inf"] if i == 0 else ["inf", 0] if i == n - 1 else [0, n - i]
            for i, p in enumerate(prizes)}


def problem(prizes: list[str], **sections) -> dict:
    """Every section over `prizes`, each as small as they allow; `sections` overrides."""
    r = len(prizes)
    return {
        "prizes": prizes,
        "assessment": ends(prizes),
        "lottery": [{"delta": min(i, 1), "child": p} for i, p in enumerate(prizes)],
        "decision": {"states": ["s"], "belief": [0], "acts": ["a"], "outcome": {"a": [prizes[0]]}},
        "prob_lottery": {"probs": [1 / r] * r, "utils": [1, *[0.5] * (r - 2), 0]},
        **sections,
    }


def labels(n: int) -> list[str]:
    return [f"p{i}" for i in range(n)]


def chain(depth: int):
    """A two-branch lottery `depth` nodes deep."""
    tree = "o2"
    for _ in range(depth):
        tree = [{"delta": 0, "child": tree}, {"delta": 1, "child": "o1"}]
    return tree


def decision(acts: int, states: int) -> dict:
    """`acts` acts over `states` states, each row alternating the two prizes."""
    names = [f"a{i}" for i in range(acts)]
    return {"states": [f"s{j}" for j in range(states)],
            "belief": [min(j, 1) for j in range(states)],
            "acts": names, "outcome": {a: [["o1", "o2"][(i + j) % 2] for j in range(states)]
                                       for i, a in enumerate(names)}}


DIMENSIONS = {  # name: (n, the document at size n, the commands that read it)
    "prizes": (1_000, lambda n: problem(labels(n)), ALL),
    "tree width": (1_000, lambda n: problem(["o1", "o2", "o3"], lottery=[
        {"delta": min(i, 1), "child": [{"delta": 0, "child": "o2"}, {"delta": 1, "child": "o3"}]}
        for i in range(n)]), ("validate", "reduce", "utility")),
    "chain depth": (40, lambda n: problem(["o1", "o2"], lottery=chain(n)),  # 320 levels at 8n,
                    ("validate", "reduce", "utility")),  # inside the decoder's nesting limit
    "acts": (2_000, lambda n: problem(["o1", "o2"], decision=decision(n, 2)), ("validate", "rank")),
    "states": (2_000, lambda n: problem(["o1", "o2"], decision=decision(2, n)),
               ("validate", "rank")),
    "bridge prizes": (1_000, lambda n: {"prizes": labels(n), "prob_lottery": problem(
        labels(n))["prob_lottery"]}, ("validate", "bridge")),
    "label length": (20_000, lambda n: problem([f"{i}" * n for i in range(4)]), ALL),
    "degree digits": (500, lambda n: problem(["o1", "o2", "o3"], lottery=[
        {"delta": 0, "child": "o1"}, {"delta": int("7" * n), "child": "o2"},
        {"delta": int("9" * n), "child": "o3"}]), ("validate", "reduce", "utility")),
    "notes": (10_000, lambda n: problem(["o1", "o2"], notes=[f"note {i}" for i in range(n)]),
              ALL),
    "unknown sections": (2_000, lambda n: {**problem(["o1", "o2"]),
                                           **{f"extra{i}": i for i in range(n)}}, ALL),
}


def timed(argv: list[str]) -> tuple[int, float]:
    """The exit code of `cli.main(argv)` and the fastest of 3 calls, in seconds."""
    times = []
    for _ in range(3):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(argv)
            times.append(time.perf_counter() - start)
    return code, min(times)


@pytest.mark.parametrize("dimension", DIMENSIONS)
def test_eight_times_the_input_takes_under_24_times_as_long(dimension, tmp_path):
    n, document, commands = DIMENSIONS[dimension]
    files = []
    for size in (n, 8 * n):
        f = tmp_path / f"{size}.json"
        f.write_text(json.dumps(document(size)))
        files.append(str(f))
    for command in commands:
        (code, small), (code_8n, large) = (timed([command, f]) for f in files)
        assert code == code_8n, command  # both sizes take the same path
        assert large < RATIO * small, (
            f"{command}: {small * 1e3:.2f} ms at n, {large * 1e3:.2f} ms at 8n")
