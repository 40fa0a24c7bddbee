"""Every input terminates: kappa_of returns or refuses, and every command
on a mutated shipped fixture or a lottery tree hundreds of levels deep
exits 0, 1 or 2, each within a time bound.
The command writes to a stdout that encodes UTF-8 strictly, as a process's
stdout does, and a file whose bytes are not UTF-8 JSON text exits 2.

A hang fails the test instead of stalling the suite: an interval timer
raises `Overrun` in the main thread.  The timer interrupts Python code
between bytecodes, so one long C-level operation (a huge integer power) is
caught only when it returns, by the elapsed-time check.
"""

import contextlib
import io
import json
import math
import random
import signal
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappacalc import INF, cli, kappa_of
from kappacalc.errors import OutOfRange
from kappacalc.problemfile import parse_problem

from conftest import PROBLEMS
from oracles import path_sum_reduce


class Overrun(Exception):
    pass


@contextlib.contextmanager
def time_bound(seconds: float):
    def expire(signum, frame):
        raise Overrun(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    start = time.perf_counter()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.2f} s"


# bases across (1, 1e300], with the ulp steps just above 1 where classes run to 1e15
bases = st.one_of(
    st.floats(min_value=1.0, max_value=1e300, exclude_min=True),
    st.integers(1, 2**32).map(lambda j: 1 + j * 2.0**-52),
    st.sampled_from([10.0, 2.0, 1.5, 1.01]),
)


@st.composite
def probabilities(draw, eps):
    """Any float in [0, 1], or an ulp neighbour of a power of eps, where the
    float decision hands over to the exact comparison."""
    if draw(st.booleans()):
        return draw(st.floats(0, 1))
    p = min(eps ** -draw(st.integers(0, 10**6)) * draw(st.sampled_from([1, 1 + 1e-12])), 1.0)
    toward = draw(st.sampled_from([0.0, 1.0]))
    for _ in range(draw(st.integers(0, 3))):
        p = math.nextafter(p, toward)
    return p


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_kappa_of_returns_or_refuses_in_bounded_time(data):
    eps = data.draw(bases, label="eps")
    p = data.draw(probabilities(eps), label="p")
    with time_bound(2.0):
        try:
            k = kappa_of(p, eps)
        except OutOfRange:
            return
    assert k == INF if p == 0 else type(k) is int and k >= 0


class Obj(list):
    """A JSON object as its (key, value) pairs, so that a key can repeat."""


class Raw(str):
    """JSON text written as it stands, for literals json.dumps cannot write."""


def encode(v) -> str:
    if isinstance(v, Raw):
        return v
    if isinstance(v, Obj):
        return "{" + ", ".join(f"{encode(k)}: {encode(x)}" for k, x in v) + "}"
    if isinstance(v, list):
        return "[" + ", ".join(map(encode, v)) + "]"
    return json.dumps(v)


FIXTURES = {p.name: json.loads(p.read_text(encoding="utf-8"), object_pairs_hook=Obj)
            for p in sorted(PROBLEMS.glob("*.json"))}
HUGE = [Raw("9" * 400), Raw("-" + "9" * 400), Raw("9" * 4300), Raw("9" * 4301),
        Raw("1e999"), Raw("-1e999"), Raw("1e-400")]
SURROGATES = [Raw('"\\ud800"'), Raw('"\\udfff"')]  # lone: no UTF-8 encoding
ODD = [*HUGE, 0, -1, 0.5, 1.0000000000000002, 1e308, 5e-324, True, None, "inf", "x", [], Obj(),
       *SURROGATES]
EPSILONS = [1, 1.0000000000000002, 1 + 2.0**-40, 1.01, 1e308, 0.5, -2, "10", None, True,
            Raw("1e999"), Raw("9" * 400)]
OPS = ("replace", "drop", "duplicate", "repeat", "nest")


def size(v) -> int:
    if isinstance(v, Obj):
        return 1 + sum(size(x) for _, x in v)
    if isinstance(v, list):
        return 1 + sum(map(size, v))
    return 1


def mutate(v, target: int, change, seen: list):
    """v with `change` applied to its node number `target`, in preorder."""
    seen[0] += 1
    if seen[0] - 1 == target:
        return change(v)
    if isinstance(v, Obj):
        return Obj([(k, mutate(x, target, change, seen)) for k, x in v])
    if isinstance(v, list):
        return [mutate(x, target, change, seen) for x in v]
    return v


def strings(v) -> set:
    """The string values in v, outside notes: labels, and spellings such as "inf"."""
    if isinstance(v, Obj):
        return strings([x for k, x in v if k != "notes"])
    if isinstance(v, list):
        return set().union(*map(strings, v))
    return {v} if isinstance(v, str) else set()


def rename(v, old: str, new: str):
    """v with the string old replaced by new everywhere, so a file stays consistent."""
    if isinstance(v, Obj):
        return Obj([(new if k == old else k, rename(x, old, new)) for k, x in v])
    if isinstance(v, list):
        return [rename(x, old, new) for x in v]
    return new if isinstance(v, str) and v == old else v


def change_for(op: str, value, at: int):
    def change(v):
        if op == "replace":
            return value
        if op == "nest":
            return [v]
        if not isinstance(v, list) or not v:
            return v
        i = at % len(v)
        if op == "drop":
            return type(v)(v[:i] + v[i + 1:])
        if op == "duplicate":  # in an object, a repeated key
            return type(v)(v[:i + 1] + v[i:])
        return type(v)(v + v)  # "repeat"
    return change


def with_epsilon(doc: Obj, value) -> Obj:
    """doc with one more prob_lottery.epsilon key; the last of a repeated key wins."""
    return Obj([(k, Obj([*v, ("epsilon", value)]) if k == "prob_lottery" and isinstance(v, Obj)
                 else v) for k, v in doc])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


COMMANDS = st.sampled_from(["validate", "reduce", "utility", "rank", "bridge"])
FORMATS = st.sampled_from([[], ["--json"]])


def run_cli(argv: list) -> tuple:
    """Exit code, stdout and stderr of one command, its stdout failing as a process's would."""
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with time_bound(5.0), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out.flush()
    return code, out.buffer.getvalue().decode("utf-8"), err.getvalue()


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_every_command_exits_0_1_or_2_on_mutated_fixtures(workdir, data):
    doc = FIXTURES[data.draw(st.sampled_from(sorted(FIXTURES)), label="fixture")]
    if data.draw(st.booleans(), label="set epsilon"):
        doc = with_epsilon(doc, data.draw(st.sampled_from(EPSILONS), label="epsilon"))
    if data.draw(st.booleans(), label="rename"):  # to a lone surrogate, keys too, consistently
        old = data.draw(st.sampled_from(sorted(strings(doc))), label="label")
        doc = rename(doc, old, data.draw(st.sampled_from(SURROGATES), label="to"))
    for _ in range(data.draw(st.integers(0, 3), label="mutations")):
        op = data.draw(st.sampled_from(OPS), label="op")
        change = change_for(op, data.draw(st.sampled_from(ODD)), data.draw(st.integers(0, 99)))
        doc = mutate(doc, data.draw(st.integers(0, size(doc) - 1), label="node"), change, [0])
    path = workdir / "case.json"
    path.write_text(encode(doc), encoding="utf-8")
    command = data.draw(COMMANDS, label="command")
    argv = [command, str(path), *data.draw(FORMATS, label="format")]
    if command == "bridge":
        argv += data.draw(st.one_of(
            st.just([]),  # 1 + 2**-52 steps: up to j = 64, the float margin spans a class
            st.integers(1, 64).map(lambda j: ["--epsilon", repr(1 + j * 2.0**-52)]),
            st.integers(1, 2**20).map(lambda j: ["--epsilon", repr(1 + j * 2.0**-52)]),
            st.sampled_from([["--epsilon", e] for e in ("1", "1.01", "10", "0.5", "nan", "inf")]),
        ), label="epsilon")
    code, _, err = run_cli(argv)
    assert code in (0, 1, 2), (argv, encode(doc)[:2000], err)


# bytes the JSON-level mutator cannot write; the fixtures encode to ASCII, so
# each breaks the file wherever it goes, and a BOM only leads a file
BOM, BAD_BYTES = b"\xef\xbb\xbf", [b"\x00", b"\xed\xa0\x80", b"\xe2\x82"]  # NUL, surrogate, cut


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_every_command_exits_2_on_bytes_that_are_not_utf8_json_text(workdir, data):
    text = encode(FIXTURES[data.draw(st.sampled_from(sorted(FIXTURES)), label="fixture")])
    raw = text.encode("ascii")
    bad = data.draw(st.sampled_from([BOM, *BAD_BYTES]), label="bytes")
    at = 0 if bad == BOM else data.draw(st.integers(0, len(raw)), label="at")
    path = workdir / "bytes.json"
    path.write_bytes(raw[:at] + bad + raw[at:])
    argv = [data.draw(COMMANDS, label="command"), str(path), *data.draw(FORMATS, label="format")]
    code, _, err = run_cli(argv)
    assert code == 2, (argv, bad, at, err)
    assert err.startswith("parse error: ")


# A deep tree is a spine of nodes.  Beside each spine branch a node has one to
# three others, each to a prize or to a flat node over two prizes.  The decoder
# recurses once per JSON level, and a tree level is two.
DEEP_PRIZES = ["p1", "p2", "p3", "p4"]
DEEP_SECTIONS = ('"assessment": {"p1": [0, "inf"], "p2": [0, 1], "p3": [1, 0], '
                 '"p4": ["inf", 0]}, "decision": {"states": ["s"], "belief": [0], '
                 '"acts": ["a"], "outcome": {"a": ["p2"]}}, '
                 '"prob_lottery": {"probs": [0.5, 0.5, 0, 0], "utils": [1, 0.5, 0.5, 0]}')
DEFECTS = {"negative delta": ("delta", -1), "non-integer delta": ("delta", 0.5),
           "unknown child": ("child", '"zz"'), "empty child": ("child", "[]"),
           "extra key": ("extra", ', "extra": 0'), "no 0 branch": None}


def deep_tree(rng: random.Random, levels: int, defect, at: int) -> str:
    """The JSON text of a lottery tree `levels` nodes deep, written without
    recursion; `defect` (a DEFECTS key, or None) goes into the node at depth `at`."""
    def degree():
        return rng.choice([0, 1, 2, 3, "inf", rng.randrange(10**39, 10**40)])

    def child():
        a, b = rng.sample(DEEP_PRIZES, 2)
        if rng.random() < 0.75:
            return json.dumps(a)
        return (f'[{{"delta": 0, "child": "{a}"}}, '
                f'{{"delta": {json.dumps(degree())}, "child": "{b}"}}]')

    opening, closing = [], []
    for depth in range(levels):
        side = [{"delta": degree(), "child": child(), "extra": ""}
                for _ in range(rng.randint(1, 3))]
        spine = {"delta": degree(), "child": None, "extra": ""}
        entries = side[:]
        if depth < levels - 1:
            entries.insert(rng.randint(0, len(side)), spine)
        rng.choice(entries)["delta"] = 0  # S1: the least branch degree is 0
        if depth == at and defect == "no 0 branch":
            for e in entries:
                e["delta"] = e["delta"] if e["delta"] == "inf" else e["delta"] + 1
        elif depth == at and defect is not None:
            key, value = DEFECTS[defect]
            rng.choice(side)[key] = value
        texts = [f'{{"delta": {json.dumps(e["delta"])}, "child": '
                 + (f'{e["child"]}{e["extra"]}}}' if e is not spine else "") for e in entries]
        if spine not in entries:
            opening.append(f"[{', '.join(texts)}]")
        else:
            i = entries.index(spine)
            opening.append(f"[{', '.join(texts[:i + 1])}")
            closing.append("}" + "".join(f", {t}" for t in texts[i + 1:]) + "]")
    return "".join(opening) + "".join(reversed(closing))


def _decoder_refuses(levels: int) -> bool:
    try:
        json.loads("[" * 2 * levels + "]" * 2 * levels)
    except RecursionError:
        return True
    return False


# A new process's recursion limit; hypothesis raises the limit while a test runs.
# A tree whose JSON levels pass it is refused wherever the decoder is called
# from, on a Python whose decoder the limit bounds (3.11 and older).
PROCESS_LIMIT = sys.getrecursionlimit()
REFUSED_LEVELS = PROCESS_LIMIT // 2 + 1
DECODER_BOUNDED = _decoder_refuses(REFUSED_LEVELS)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_every_command_exits_0_1_or_2_on_deep_trees(workdir, data):
    levels = data.draw(st.integers(50, 600), label="levels")
    defect = data.draw(st.sampled_from([*[None] * len(DEFECTS), *DEFECTS]), label="defect")
    at = data.draw(st.integers(0, levels - 1), label="at")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    path = workdir / "deep.json"
    path.write_text(f'{{"prizes": {json.dumps(DEEP_PRIZES)}, {DEEP_SECTIONS}, '
                    f'"lottery": {deep_tree(rng, levels, defect, at)}}}', encoding="utf-8")
    command = data.draw(COMMANDS, label="command")
    argv = [command, str(path), *data.draw(FORMATS, label="format")]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(PROCESS_LIMIT)
    try:
        code, out, err = run_cli(argv)
    finally:
        sys.setrecursionlimit(limit)
    assert code in (0, 1, 2), (argv, levels, defect, err)
    too_deep = err == "parse error: document nested too deeply to decode\n"
    if DECODER_BOUNDED and levels >= REFUSED_LEVELS:
        assert too_deep, (argv, levels, err)
    if levels < 300:
        assert "nested" not in err, (argv, levels, err)
        if code == 0 and argv[0] == "reduce" and argv[-1] == "--json":
            tree = parse_problem(path.read_text(encoding="utf-8")).lottery
            deltas = [INF if d == "inf" else d for d in json.loads(out)["deltas"]]
            assert deltas == list(path_sum_reduce(tree).deltas)
