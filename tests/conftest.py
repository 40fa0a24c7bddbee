import random
from pathlib import Path

import pytest

from kappacalc import (
    INF,
    DisbeliefFunction,
    Frame,
    Leaf,
    Node,
    PrizeAssessment,
    PrizeSet,
    UtilityValue,
)

REPO = Path(__file__).resolve().parent.parent
PROBLEMS = REPO / "demos" / "problems"
DATA = Path(__file__).resolve().parent / "data"


def problem_text(name: str) -> str:
    return (PROBLEMS / name).read_text(encoding="utf-8")


def data_text(name: str) -> str:
    return (DATA / name).read_text(encoding="utf-8")


@pytest.fixture
def rng():
    return random.Random(20080515)


def random_prizes(rng: random.Random, max_prizes: int = 6) -> PrizeSet:
    r = rng.randint(2, max_prizes)
    return PrizeSet(tuple(f"p{i + 1}" for i in range(r)))


def value_for_scalar(s) -> UtilityValue:
    if s >= 0:
        return UtilityValue(0, s)
    return UtilityValue(-s, 0)


def random_assessment(rng: random.Random, prizes: PrizeSet, spread: int = 12) -> PrizeAssessment:
    # Best prize is pinned to +INF; the rest take any strictly
    # decreasing run of scalars, possibly ending at -INF.
    ladder = list(range(spread, -spread - 1, -1)) + [-INF]
    tail = sorted(rng.sample(ladder, len(prizes) - 1), reverse=True)
    scalars = [INF] + tail
    return PrizeAssessment(prizes, tuple(value_for_scalar(s) for s in scalars))


def random_deltas(rng: random.Random, n: int, max_delta: int = 10) -> list:
    deltas = []
    for _ in range(n):
        if rng.random() < 0.12:
            deltas.append(INF)
        else:
            deltas.append(rng.randint(0, max_delta))
    deltas[rng.randrange(n)] = 0  # normalization: some branch is not disbelieved
    return deltas


def random_lottery(
    rng: random.Random,
    prizes: PrizeSet,
    depth: int = 4,
    max_branch: int = 5,
    max_delta: int = 10,
):
    if depth == 0 or rng.random() < 0.3:
        return Leaf(rng.choice(prizes.prizes), prizes)
    n = rng.randint(1, max_branch)
    deltas = random_deltas(rng, n, max_delta)
    children = [
        random_lottery(rng, prizes, depth - 1, max_branch, max_delta) for _ in range(n)
    ]
    return Node(tuple(zip(deltas, children)))


def simple_node(prizes: PrizeSet, deltas: dict) -> Node:
    """Depth-1 tree over leaf prizes, from a prize -> degree mapping.

    Prizes absent from the mapping get no branch at all (INF disbelief once
    reduced), which is how sparse lotteries like ``[o1.0, o3.2]`` are written.
    """
    return Node([(d, Leaf(p, prizes)) for p, d in deltas.items()])


def random_potential(rng: random.Random, size: int = None, max_degree: int = 10) -> DisbeliefFunction:
    if size is None:
        size = rng.randint(1, 7)
    frame = Frame(tuple(f"w{i + 1}" for i in range(size)))
    values = random_deltas(rng, size, max_degree)
    return DisbeliefFunction(frame, tuple(values))


def random_event(rng: random.Random, frame: Frame) -> tuple:
    return tuple(w for w in frame if rng.random() < 0.5)
