"""Every input terminates: kappa_of returns or refuses, and every command
on a mutated shipped fixture exits 0, 1 or 2, each within a time bound.

A hang fails the test instead of stalling the suite: an interval timer
raises `Overrun` in the main thread.  The timer interrupts Python code
between bytecodes, so one long C-level operation (a huge integer power) is
caught only when it returns, by the elapsed-time check.
"""

import contextlib
import io
import json
import math
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappacalc import INF, cli, kappa_of
from kappacalc.errors import OutOfRange

from conftest import PROBLEMS


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
        return "{" + ", ".join(f"{json.dumps(k)}: {encode(x)}" for k, x in v) + "}"
    if isinstance(v, list):
        return "[" + ", ".join(map(encode, v)) + "]"
    return json.dumps(v)


FIXTURES = {p.name: json.loads(p.read_text(encoding="utf-8"), object_pairs_hook=Obj)
            for p in sorted(PROBLEMS.glob("*.json"))}
HUGE = [Raw("9" * 400), Raw("-" + "9" * 400), Raw("9" * 4300), Raw("9" * 4301),
        Raw("1e999"), Raw("-1e999"), Raw("1e-400")]
ODD = [*HUGE, 0, -1, 0.5, 1.0000000000000002, 1e308, 5e-324, True, None, "inf", "x", [], Obj()]
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


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_every_command_exits_0_1_or_2_on_mutated_fixtures(workdir, data):
    doc = FIXTURES[data.draw(st.sampled_from(sorted(FIXTURES)), label="fixture")]
    if data.draw(st.booleans(), label="set epsilon"):
        doc = with_epsilon(doc, data.draw(st.sampled_from(EPSILONS), label="epsilon"))
    for _ in range(data.draw(st.integers(0, 3), label="mutations")):
        op = data.draw(st.sampled_from(OPS), label="op")
        change = change_for(op, data.draw(st.sampled_from(ODD)), data.draw(st.integers(0, 99)))
        doc = mutate(doc, data.draw(st.integers(0, size(doc) - 1), label="node"), change, [0])
    path = workdir / "case.json"
    path.write_text(encode(doc), encoding="utf-8")
    command = data.draw(st.sampled_from(["validate", "reduce", "utility", "rank", "bridge"]))
    argv = [command, str(path), *data.draw(st.sampled_from([[], ["--json"]]), label="format")]
    if command == "bridge":
        argv += data.draw(st.one_of(
            st.just([]),  # 1 + 2**-52 steps: up to j = 64, the float margin spans a class
            st.integers(1, 64).map(lambda j: ["--epsilon", repr(1 + j * 2.0**-52)]),
            st.integers(1, 2**20).map(lambda j: ["--epsilon", repr(1 + j * 2.0**-52)]),
            st.sampled_from([["--epsilon", e] for e in ("1", "1.01", "10", "0.5", "nan", "inf")]),
        ), label="epsilon")
    out, err = io.StringIO(), io.StringIO()
    with time_bound(5.0), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), (argv, encode(doc)[:2000], err.getvalue())
