"""Seeded problem files and the op cycle of each workload.

`prepare(workload, seed, workdir, fixtures)` writes the workload's problem files,
computes every expected output with `reference`, and returns one cycle of
ops in a seeded order.  Shapes and sizes are fixed per workload; the seed
picks degrees, probabilities, outcomes and order, so the cost of a cycle
barely depends on it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import reference as ref
from kappacalc import PrizeSet

TREE_DEGREES = (0, 0, 1, 2, 3, 4, 6, 9, "inf")
BELIEF_DEGREES = (0, 1, 1, 2, 3, 5, 8, "inf")
EPSILONS = (10.0, 2.0, 1.5, 1.1, 1.01)
# Deepest class (largest kappa) a generated probability may fall in, per
# epsilon.  The exact certification in kappa_of grows faster than linearly
# in kappa at small epsilon, so these floors keep every bridge op bounded
# on the current code.
KAPPA_FLOOR = {10.0: 300, 2.0: 300, 1.5: 300, 1.1: 250, 1.01: 500}
POOL = 10
BRIDGE_LOTTERIES = 20
SEARCHES = ((2, 20), (2, 40), (2, 60), (2, 80), (3, 1), (3, 2), (4, 1), (4, 2))
# (states, acts, prizes) of the rank workload's decisions.
DECISIONS = ((200, 10, 3), (500, 20, 4), (1000, 30, 5), (2000, 50, 6),
             (3000, 80, 7), (5000, 100, 8))
FIXTURE_COMMANDS = {
    "lottery": ("reduce", "utility"),
    "decision": ("rank",),
    "prob_lottery": ("bridge",),
}


@dataclass(frozen=True)
class Op:
    """One closed-loop operation.

    kind "main" calls cli.main(args) in process, "proc" runs
    python -m kappacalc args, "search" calls find_maximin_disagreement(*args).
    `expected` is the exact stdout, or for a search None (no witness) or
    True (a witness that reference.witness_disagrees accepts).
    """

    kind: str
    args: tuple
    expected: object
    label: str


def prize_names(n: int) -> list[str]:
    return [f"o{i + 1}" for i in range(n)]


def random_assessment(rng: random.Random, prizes: list[str]) -> dict:
    """Best prize certain, scalars strictly decreasing, worst maybe -inf."""
    scalars = sorted(rng.sample(range(-12, 13), len(prizes) - 1), reverse=True)
    if rng.random() < 0.3:
        scalars[-1] = "-inf"
    pairs = [[0, "inf"]]
    for s in scalars:
        pairs.append(["inf", 0] if s == "-inf" else [0, s] if s >= 0 else [-s, 0])
    return dict(zip(prizes, pairs))


def node_degrees(rng: random.Random, fanout: int) -> list:
    degrees = [rng.choice(TREE_DEGREES) for _ in range(fanout)]
    degrees[rng.randrange(fanout)] = 0
    return degrees


def full_tree(rng, prizes, fanout, height):
    if height == 0:
        return rng.choice(prizes)
    return [{"delta": d, "child": full_tree(rng, prizes, fanout, height - 1)}
            for d in node_degrees(rng, fanout)]


def ragged_tree(rng, prizes, budget):
    """A random tree with exactly `budget` leaves and fan-out 1 to 6."""
    if budget == 1 and rng.random() < 0.7:
        return rng.choice(prizes)
    fanout = min(budget, rng.randint(1, 6))
    cuts = sorted(rng.sample(range(1, budget), fanout - 1)) if fanout > 1 else []
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [budget])]
    return [{"delta": d, "child": ragged_tree(rng, prizes, size)}
            for d, size in zip(node_degrees(rng, fanout), sizes)]


def chain(rng, prizes, depth):
    """Depth `depth`, the deep child always first: the leftmost spine."""
    tree = rng.choice(prizes)
    for _ in range(depth):
        tree = [{"delta": 0, "child": tree},
                {"delta": rng.choice(TREE_DEGREES[2:]), "child": rng.choice(prizes)}]
    return tree


def outcome_row(rng, prizes, states) -> list[str]:
    """One act's prize per state, drawn from the best few prizes only, so
    that acts differ in their worst reachable prize and maximin has ties
    to break and orders to get wrong."""
    reach = prizes[:rng.randint(2, len(prizes))]
    return [rng.choice(reach) for _ in range(states)]


def decision_doc(rng, states, acts, nprizes) -> dict:
    prizes = prize_names(nprizes)
    belief = [rng.choice(BELIEF_DEGREES) for _ in range(states)]
    belief[rng.randrange(states)] = 0
    act_names = [f"a{i + 1}" for i in range(acts)]
    return {
        "prizes": prizes,
        "assessment": random_assessment(rng, prizes),
        "decision": {
            "states": [f"s{i + 1}" for i in range(states)],
            "belief": belief,
            "acts": act_names,
            "outcome": {a: outcome_row(rng, prizes, states) for a in act_names},
        },
    }


def value_pools(rng, eps: float) -> tuple[list, list]:
    """Probabilities and utilities the lotteries at this epsilon draw from.

    Small pools bound how many exact reference scans setup needs.  The
    probabilities are stratified over the classes from log_eps(16) + 1
    (so any 15 of them sum below 1) up to KAPPA_FLOOR[eps], which keeps
    the cost of a cycle nearly the same for every seed; every third one
    is an exact power eps**-k.  Utilities stay within 40 classes of 1.
    """
    low = math.log(16) / math.log(eps) + 1
    width = max(0.0, KAPPA_FLOOR[eps] - low) / POOL
    probs = []
    for i in range(POOL):
        k = low + (i + rng.random()) * width
        probs.append(eps ** -(math.ceil(k) if i % 3 == 0 else k))
    utils = [eps ** -(40 * (i + rng.random()) / POOL) for i in range(POOL)]
    return probs, utils


def prob_doc(rng, eps: float, index: int, pools) -> dict:
    """The index-th probability lottery at this epsilon.

    Sizes run over 2..16 prizes.  The bulk of the mass sits on a prize
    other than the worst: every tenth lottery puts it within 1e-9 of 1
    and leaves the rest at exactly 0; the others spread a few pool
    probabilities, drawn in rotation, and leave up to two prizes at 0.
    """
    prob_pool, util_pool = pools
    nprizes = 2 + index * 14 // (BRIDGE_LOTTERIES - 1)
    probs = [0.0] * nprizes
    bulk = rng.randrange(nprizes - 1)
    if index % 10 == 9:
        probs[bulk] = 1.0 - rng.uniform(1e-12, 9e-10)
    else:
        others = [i for i in range(nprizes) if i != bulk]
        count = max(1, nprizes - 1 - index % 3)
        for j, i in enumerate(rng.sample(others, count)):
            probs[i] = prob_pool[(index * 7 + j) % POOL]
        probs[bulk] = 1.0 - math.fsum(probs)
    inner = sorted((util_pool[(index * 3 + j) % POOL] for j in range(nprizes - 2)),
                   reverse=True)
    return {
        "prizes": prize_names(nprizes),
        "prob_lottery": {"probs": probs, "utils": [1.0] + inner + [0.0], "epsilon": eps},
    }


def tree_cases(rng):
    """(label, tree, commands) of the lottery workload.

    The 6^6 tree costs about as much as the rest together, so it runs two
    commands; everything else runs all six.
    """
    prizes = prize_names(6)
    six = [(c, j) for c in ("validate", "reduce", "utility") for j in (False, True)]
    cases = [("full6^6", full_tree(rng, prizes, 6, 6), [("reduce", True), ("utility", False)])]
    cases += [(f"full6^5#{i}", full_tree(rng, prizes, 6, 5), six) for i in range(2)]
    cases += [(f"ragged{n}", ragged_tree(rng, prizes, n), six) for n in (200, 800, 3000)]
    cases += [(f"chain{d}", chain(rng, prizes, d), six) for d in (50, 100, 200, 300)]
    return prizes, cases


def write(workdir: Path, name: str, doc: dict) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def command_op(kind: str, args: tuple, doc: dict, name: str, tree=None, memo=None) -> Op:
    """An op running `kappacalc *args` on `doc`, with its expected stdout."""
    command, json_mode = args[0], "--json" in args
    if command == "validate":
        expected = ref.expect_validate(json_mode)
    elif command == "reduce":
        expected = ref.expect_reduce(doc, tree, json_mode)
    elif command == "utility":
        expected = ref.expect_utility(doc, tree, json_mode)
    elif command == "rank":
        expected = ref.expect_rank(doc, json_mode)
    else:
        eps = float(args[-1]) if "--epsilon" in args else doc["prob_lottery"].get("epsilon", 10.0)
        expected = ref.expect_bridge(doc, float(eps), json_mode, memo)
    return Op(kind, args, expected, " ".join((command,) + args[2:] + (name,)))


def both_outputs(command: str, path: str) -> list[tuple]:
    return [(command, path), (command, path, "--json")]


def lottery_ops(rng, workdir):
    prizes, cases = tree_cases(rng)
    ops = []
    for label, tree, commands in cases:
        doc = {"prizes": prizes, "assessment": random_assessment(rng, prizes), "lottery": tree}
        path = write(workdir, label, doc)
        built = ref.build_tree(tree, PrizeSet(tuple(prizes)))
        for command, json_mode in commands:
            args = (command, path) + (("--json",) if json_mode else ())
            ops.append(command_op("main", args, doc, label, tree=built))
    return ops


def rank_ops(rng, workdir):
    ops = []
    for states, acts, nprizes in DECISIONS:
        label = f"decision{states}x{acts}"
        doc = decision_doc(rng, states, acts, nprizes)
        path = write(workdir, label, doc)
        ops += [command_op("main", args, doc, label) for args in both_outputs("rank", path)]
    for prizes, delta in SEARCHES:
        ops.append(Op("search", (prizes, delta), None if prizes == 2 else True,
                      f"search({prizes},{delta})"))
    return ops


def bridge_ops(rng, workdir):
    ops = []
    memo: dict = {}
    for eps in EPSILONS:
        pools = value_pools(rng, eps)
        for i in range(BRIDGE_LOTTERIES):
            label = f"prob_eps{eps:g}_{i}"
            doc = prob_doc(rng, eps, i, pools)
            args = ("bridge", write(workdir, label, doc), "--json", "--epsilon", repr(eps))
            ops.append(command_op("main", args, doc, label, memo=memo))
    return ops


def cli_ops(fixtures: Path):
    """Every shipped fixture under every command that applies, both outputs."""
    ops = []
    memo: dict = {}
    for path in sorted(fixtures.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        commands = ["validate"]
        for section, extra in FIXTURE_COMMANDS.items():
            if section in doc and (section != "lottery" or "assessment" in doc):
                commands += extra
        tree = None
        if "lottery" in doc:
            tree = ref.build_tree(doc["lottery"], PrizeSet(tuple(doc["prizes"])))
        for command in commands:
            ops += [command_op("proc", args, doc, path.name, tree=tree, memo=memo)
                    for args in both_outputs(command, str(path))]
    return ops


def prepare(workload: str, seed: int, workdir: Path, fixtures: Path) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli":
        ops = cli_ops(fixtures)
    else:
        ops = {"lottery": lottery_ops, "rank": rank_ops, "bridge": bridge_ops}[workload](
            rng, workdir)
    rng.shuffle(ops)
    return ops
