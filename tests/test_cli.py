import argparse
import contextlib
import gc
import json
import os
import platform
import random
import re
import shutil
import subprocess
import sys
import time
from collections import Counter

import pytest

from kappacalc import cli, oom_bridge

from conftest import DATA, PROBLEMS, REPO
from oracles import path_sum_reduce


def run(*argv, capsys=None):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def path(name: str) -> str:
    return str(PROBLEMS / name)


def data(name: str) -> str:
    return str(DATA / name)


# the two ends of the scale: the best prize (0, inf), the worst (inf, 0)
ENDS = {"o1": [0, "inf"], "o2": ["inf", 0]}


class TestHumanOutput:
    def test_utility_earthquake(self, capsys):
        code, out, err = run("utility", path("earthquake.json"), capsys=capsys)
        assert code == 0
        assert out == "(1, 0)  u = -1\n"

    def test_utility_two_level_tree(self, capsys):
        code, out, _ = run("utility", path("depth2_tree.json"), capsys=capsys)
        assert (code, out) == (0, "(0, 0)  u = 0\n")

    def test_utility_best_prize_leaf(self, capsys, tmp_path):
        doc = {
            "prizes": ["o1", "o2"],
            "assessment": {"o1": [0, "inf"], "o2": ["inf", 0]},
            "lottery": "o1",
        }
        f = tmp_path / "leaf.json"
        f.write_text(json.dumps(doc))
        code, out, _ = run("utility", str(f), capsys=capsys)
        assert (code, out) == (0, "(0, inf)  u = +inf\n")

    def test_reduce_two_level_tree(self, capsys):
        code, out, _ = run("reduce", path("depth2_tree.json"), capsys=capsys)
        assert (code, out) == (0, "o1:4 o2:0 o3:0\n")

    def test_reduce_leaf(self, capsys, tmp_path):
        doc = {"prizes": ["o1", "o2", "o3"], "lottery": "o1"}
        f = tmp_path / "leaf.json"
        f.write_text(json.dumps(doc))
        code, out, _ = run("reduce", str(f), capsys=capsys)
        assert (code, out) == (0, "o1:0 o2:inf o3:inf\n")

    def test_rank_single_act(self, capsys):
        code, out, _ = run("rank", path("earthquake_decision.json"), capsys=capsys)
        assert code == 0
        assert "build (1, 0)  u = -1" in out
        assert "disagreement: no" in out

    def test_rank_witness_flags_disagreement(self, capsys):
        code, out, _ = run("rank", path("ab_witness.json"), capsys=capsys)
        assert code == 0
        assert out == (
            "utility ranking:\n"
            "  A (0, 5)  u = 5\n"
            "  B (0, 1)  u = 1\n"
            "maximin ranking:\n"
            "  B worst o2\n"
            "  A worst o3\n"
            "disagreement: yes\n"
        )

    def test_rank_tie_keeps_input_order(self, capsys):
        code, out, _ = run("rank", path("tie.json"), capsys=capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[1].startswith("  X ")
        assert lines[2].startswith("  Y ")
        assert "disagreement: no" in out

    def test_bridge_leading_zeros(self, capsys):
        code, out, _ = run("bridge", path("bridge_leading_zeros.json"), capsys=capsys)
        assert code == 0
        assert out == (
            "spohnian: o1:0 o2:1 o3:2\n"
            "eu = 0.945\n"
            "kappa(eu) = 0\n"
            "qualitative = 0\n"
            "gap = 0\n"
        )

    def test_bridge_certainty(self, capsys):
        code, out, _ = run("bridge", path("bridge_certainty.json"), capsys=capsys)
        assert code == 0
        assert "spohnian: o1:0 o2:inf" in out
        assert "gap = 0" in out

    def test_validate_clean(self, capsys):
        code, out, _ = run("validate", path("earthquake.json"), capsys=capsys)
        assert (code, out) == (0, "ok\n")

    @pytest.mark.parametrize("command, doc, expected", [
        ("utility", {"prizes": ["o1", "o2"], "assessment": ENDS, "lottery": "o2"},
         "(inf, 0)  u = -inf\n"),
        ("rank", {"prizes": ["o1", "o2"], "assessment": ENDS,
                  "decision": {"states": ["s"], "belief": [0], "acts": ["A", "B"],
                               "outcome": {"A": ["o1"], "B": ["o2"]}}},
         "utility ranking:\n"
         "  A (0, inf)  u = +inf\n"
         "  B (inf, 0)  u = -inf\n"
         "maximin ranking:\n"
         "  A worst o1\n"
         "  B worst o2\n"
         "disagreement: no\n"),
        ("bridge", {"prizes": ["a", "b"], "prob_lottery": {"probs": [0, 1], "utils": [1, 0]}},
         "spohnian: a:inf b:0\neu = 0\nkappa(eu) = inf\nqualitative = inf\ngap = 0\n"),
    ], ids=["utility", "rank", "bridge"])
    def test_infinite_spellings(self, capsys, tmp_path, command, doc, expected):
        # degrees print "inf", the signed scalar "+inf" / "-inf"
        f = tmp_path / "ends.json"
        f.write_text(json.dumps(doc))
        assert run(command, str(f), capsys=capsys) == (0, expected, "")


class TestJsonOutput:
    def test_utility(self, capsys):
        code, out, _ = run("utility", path("earthquake.json"), "--json", capsys=capsys)
        assert code == 0
        assert json.loads(out) == {"value": [1, 0], "scalar": -1}

    def test_reduce_round_trips(self, capsys):
        from kappacalc.problemfile import emit_simple_lottery, parse_problem

        code, out, _ = run("reduce", path("random_depth3.json"), "--json", capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        source = parse_problem((PROBLEMS / "random_depth3.json").read_text())
        assert doc == emit_simple_lottery(path_sum_reduce(source.lottery))
        assert doc["deltas"] == [2, 1, 0, 3]

    def test_rank(self, capsys):
        code, out, _ = run("rank", path("ab_witness.json"), "--json", capsys=capsys)
        doc = json.loads(out)
        assert doc["disagreement"] is True
        assert [e["act"] for e in doc["utility"]] == ["A", "B"]
        assert [e["act"] for e in doc["maximin"]] == ["B", "A"]
        assert doc["maximin"][0]["worst_prize"] == "o2"

    def test_bridge(self, capsys):
        code, out, _ = run("bridge", path("bridge_powers.json"), "--json", capsys=capsys)
        doc = json.loads(out)
        assert doc["spohnian"] == {"prizes": ["o1", "o2"], "deltas": [0, 0]}
        assert doc["kappa_of_eu"] == 1
        assert doc["qualitative_eu"] == 1
        assert doc["gap"] == 0
        assert doc["eu"] == 0.5

    def test_validate_diagnostics(self, capsys):
        code, out, _ = run("validate", data("bad_two_sections.json"), "--json", capsys=capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["ok"] is False
        assert len(doc["diagnostics"]) == 2

    def test_output_is_sorted_and_newline_terminated(self, capsys):
        _, out, _ = run("bridge", path("bridge_powers.json"), "--json", capsys=capsys)
        assert out.endswith("\n")
        keys = list(json.loads(out))
        assert keys == sorted(keys)


# every positive p*u underflows, so eu is 0.0 while the min-plus side is 400
UNDERFLOW = {"prizes": ["o1", "o2", "o3"],
             "prob_lottery": {"probs": [0, 1e-200, 1.0], "utils": [1, 1e-200, 0]}}
# the 1e-9 sum tolerance lets eu reach 1.0000000005
EU_PAST_ONE = {"prizes": ["o1", "o2", "o3"],
               "prob_lottery": {"probs": [0.5, 0.5000000005, 0], "utils": [1, 1, 0]}}


class TestBridgeEdges:
    """Files that validate accepts, bridge runs; files it refuses, bridge refuses."""

    def test_underflowing_eu_is_refused_by_validate_and_bridge(self, capsys, tmp_path):
        f = tmp_path / "underflow.json"
        f.write_text(json.dumps(UNDERFLOW))
        refusal = "OutOfRange: expected utility underflows to 0, though a prize has p > 0 and u > 0"
        assert run("validate", str(f), capsys=capsys) == (1, f"prob_lottery: {refusal}\n", "")
        code, out, _ = run("validate", str(f), "--json", capsys=capsys)
        assert code == 1
        assert json.loads(out) == {"ok": False, "diagnostics": [f"prob_lottery: {refusal}"]}
        for fmt in ((), ("--json",)):
            assert run("bridge", str(f), *fmt, capsys=capsys) == (1, "", f"error: {refusal}\n")

    def test_eu_past_one_by_the_sum_tolerance_is_class_0(self, capsys, tmp_path):
        f = tmp_path / "past_one.json"
        f.write_text(json.dumps(EU_PAST_ONE))
        assert run("validate", str(f), capsys=capsys) == (0, "ok\n", "")
        assert run("bridge", str(f), capsys=capsys) == (0, (
            "spohnian: o1:0 o2:0 o3:inf\n"
            "eu = 1\n"
            "kappa(eu) = 0\n"
            "qualitative = 0\n"
            "gap = 0\n"
        ), "")
        code, out, _ = run("bridge", str(f), "--json", capsys=capsys)
        assert code == 0
        assert json.loads(out) == {
            "spohnian": {"prizes": ["o1", "o2", "o3"], "deltas": [0, 0, "inf"]},
            "kappa_of_eu": 0, "qualitative_eu": 0, "gap": 0, "eu": 0.5 + 0.5000000005,
        }

    @pytest.mark.parametrize("fmt", [(), ("--json",)], ids=["text", "json"])
    @pytest.mark.parametrize("name", ["bridge_powers.json", "bridge_leading_zeros.json"])
    def test_class_too_costly_to_certify_is_exit_1(self, capsys, name, fmt):
        # validate cannot see this: --epsilon overrides the file's base
        start = time.perf_counter()
        code, out, err = run("bridge", path(name), "--epsilon", "1.0000000000000002", *fmt,
                             capsys=capsys)
        assert time.perf_counter() - start < 5
        assert (code, out) == (1, "")
        assert re.fullmatch(r"error: OutOfRange: the class of probability 0\.\d+ at base "
                            r"1\.0000000000000002 is too costly to certify: "
                            r"eps\*\*\d+ passes 4194304 bits\n", err)


class TestExitCodes:
    def test_validation_failure_is_1(self, capsys):
        code, _, err = run("reduce", data("bad_unnormalized.json"), capsys=capsys)
        assert code == 1
        assert "NotNormalized" in err

    def test_parse_failure_is_2(self, capsys):
        code, _, err = run("validate", data("bad_syntax.json"), capsys=capsys)
        assert code == 2
        assert "parse error" in err

    def test_missing_file_is_2(self, capsys):
        code, _, err = run("reduce", "does_not_exist.json", capsys=capsys)
        assert code == 2
        assert "cannot read" in err

    def test_missing_section_is_2(self, capsys):
        code, _, err = run("reduce", path("bridge_certainty.json"), capsys=capsys)
        assert code == 2
        assert "needs a lottery section" in err

    def test_validate_exit_1_on_dirty_file(self, capsys):
        code, out, _ = run("validate", data("bad_assessment.json"), capsys=capsys)
        assert code == 1
        assert "o1 must map to (0,inf)" in out

    def test_internal_error_is_3(self, capsys, monkeypatch):
        def broken(*_):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "evaluate", broken)
        assert run("utility", path("earthquake.json"), capsys=capsys) == (
            3, "", "internal error: RuntimeError: boom\n"
        )

    def hostile(self, capsys, tmp_path, raw: bytes):
        f = tmp_path / "hostile.json"
        f.write_bytes(raw)
        return [run(command, str(f), capsys=capsys)[::2] for command in ("validate", "reduce")]

    def test_non_utf8_file_is_2(self, capsys, tmp_path):
        results = self.hostile(capsys, tmp_path, b'{"prizes": ["o1", "o\xff"]}')
        for code, err in results:
            assert code == 2
            assert err.startswith("parse error: cannot read ")
            assert "not valid UTF-8 at byte 20" in err

    def test_overlong_integer_literal_is_2(self, capsys, tmp_path):
        raw = b'{"prizes": ["o1", "o2"], "notes": ' + b"9" * 5000 + b"}"
        for code, err in self.hostile(capsys, tmp_path, raw):
            assert code == 2
            assert err == "parse error: an integer literal has too many digits to decode\n"

    def test_overdeep_nesting_is_2(self, capsys, tmp_path):
        tree = '"o1"'
        for _ in range(500):
            tree = f'[{{"delta": 0, "child": {tree}}}]'
        raw = f'{{"prizes": ["o1", "o2"], "lottery": {tree}}}'.encode()
        for code, err in self.hostile(capsys, tmp_path, raw):
            assert code == 2
            assert err == "parse error: document nested too deeply to decode\n"

    def test_integer_too_large_for_a_float_is_2(self, capsys, tmp_path):
        big = "9" * 401
        doc = '{"prizes": ["o1", "o2"], "prob_lottery": {"probs": %s, "utils": [1, 0]%s}}'
        for field, raw in (
            ("epsilon", doc % ("[0.5, 0.5]", f', "epsilon": {big}')),
            ("probs", doc % (f"[{big}, 0.5]", "")),
        ):
            f = tmp_path / f"big_{field}.json"
            f.write_text(raw)
            message = f"parse error: prob_lottery.{field}: integer too large for a float\n"
            for command, *flags in (["validate"], ["validate", "--json"], ["reduce"],
                                    ["utility"], ["rank"], ["bridge"], ["bridge", "--json"]):
                assert run(command, str(f), *flags, capsys=capsys) == (2, "", message)

    def test_degrees_past_the_float_range_are_exact(self, capsys, tmp_path):
        # INF + 10**400 converts the int to a float and overflows; sums skip INF terms
        big = 10**400
        nested = {"prizes": ["o1", "o2"], "assessment": ENDS, "lottery": [
            {"delta": 0, "child": "o1"},
            {"delta": big, "child": [{"delta": 0, "child": "o2"}]}]}
        belief = {"prizes": ["o1", "o2"], "assessment": ENDS, "decision": {
            "states": ["s", "t"], "belief": [0, big], "acts": ["A", "B"],
            "outcome": {"A": ["o1", "o2"], "B": ["o2", "o1"]}}}
        unreached = {"prizes": ["o1", "o2", "o3"],
                     "assessment": {"o1": [0, "inf"], "o2": [0, 5], "o3": [big, 0]},
                     "lottery": [{"delta": 0, "child": "o1"}, {"delta": 3, "child": "o2"}]}
        cases = [
            (nested, "validate", (0, "ok\n", "")),
            (nested, "reduce", (0, f"o1:0 o2:{big}\n", "")),
            (nested, "utility", (0, f"(0, {big})  u = {big}\n", "")),
            (nested, "rank", (2, "", "parse error: rank needs a decision section "
                                     "in the problem file\n")),
            (belief, "rank", (0, "utility ranking:\n"
                                 f"  A (0, {big})  u = {big}\n"
                                 f"  B ({big}, 0)  u = -{big}\n"
                                 "maximin ranking:\n"
                                 "  A worst o2\n"
                                 "  B worst o2\n"
                                 "disagreement: no\n", "")),
            (unreached, "utility", (0, "(0, 8)  u = 8\n", "")),
        ]
        for doc, command, expected in cases:
            f = tmp_path / "big.json"
            f.write_text(json.dumps(doc))
            assert run(command, str(f), capsys=capsys) == expected, command


    def test_degree_sums_too_long_to_write_are_1(self, capsys, tmp_path):
        # each degree decodes (4,300 digits), but a path sums two of them to 4,301
        big = int("9" * 4300)
        error = "OutOfRange: a degree of more than 4300 digits cannot be written"
        inner = [{"delta": 0, "child": "o1"}, {"delta": big, "child": "o2"}]
        summed = {"prizes": ["o1", "o2"], "assessment": ENDS, "lottery": [
            {"delta": 0, "child": "o1"}, {"delta": big, "child": inner}]}
        valued = {"prizes": ["o1", "o2", "o3"],
                  "assessment": {"o1": [0, "inf"], "o2": [0, big], "o3": ["inf", 0]},
                  "lottery": inner}
        cases = [
            (summed, ["validate"], (1, f"lottery: {error}\n", "")),
            (summed, ["reduce"], (1, "", f"error: {error}\n")),
            (summed, ["reduce", "--json"], (1, "", f"error: {error}\n")),
            (summed, ["utility"], (1, "", f"error: {error}\n")),
            # the lottery reduces to writable degrees; only its value sums past them
            (valued, ["validate"], (0, "ok\n", "")),
            (valued, ["reduce"], (0, f"o1:0 o2:{big} o3:inf\n", "")),
            (valued, ["utility"], (1, "", f"error: {error}\n")),
            (valued, ["utility", "--json"], (1, "", f"error: {error}\n")),
        ]
        for doc, argv, expected in cases:
            f = tmp_path / "long.json"
            f.write_text(json.dumps(doc))
            assert run(argv[0], str(f), *argv[1:], capsys=capsys) == expected, argv
        f.write_text(json.dumps(summed))
        code, out, _ = run("validate", str(f), "--json", capsys=capsys)
        assert (code, json.loads(out)) == (1, {"ok": False, "diagnostics": [f"lottery: {error}"]})


class TestEpsilonFlag:
    def test_flag_overrides_file(self, capsys, tmp_path):
        doc = {
            "prizes": ["o1", "o2"],
            "prob_lottery": {"probs": [0.5, 0.5], "utils": [1, 0], "epsilon": 10},
        }
        f = tmp_path / "half.json"
        f.write_text(json.dumps(doc))
        _, out10, _ = run("bridge", str(f), capsys=capsys)
        assert "spohnian: o1:0 o2:0" in out10
        assert "kappa(eu) = 0" in out10
        _, out2, _ = run("bridge", str(f), "--epsilon", "2", capsys=capsys)
        assert "kappa(eu) = 1" in out2

    def test_bad_epsilon_is_validation_failure(self, capsys):
        code, _, err = run(
            "bridge", path("bridge_certainty.json"), "--epsilon", "1", capsys=capsys
        )
        assert code == 1
        assert "OutOfRange" in err

    def test_bad_file_epsilon_is_refused_by_every_command(self, capsys, tmp_path):
        f = tmp_path / "bad_eps.json"
        for raw, shown in (("0.5", "0.5"), ("1e999", "inf")):
            f.write_text(
                '{"prizes": ["o1", "o2"], "prob_lottery":'
                f' {{"probs": [0.5, 0.5], "utils": [1, 0], "epsilon": {raw}}}}}'
            )
            message = f"OutOfRange: epsilon must be finite and > 1, got {shown}"
            code, out, _ = run("validate", str(f), capsys=capsys)
            assert (code, out) == (1, f"prob_lottery: {message}\n")
            code, out, _ = run("validate", str(f), "--json", capsys=capsys)
            assert code == 1 and message in out
            for command, *flags in (
                ["bridge"], ["bridge", "--epsilon", "10"], ["reduce"], ["utility"], ["rank"]
            ):
                code, out, err = run(command, str(f), *flags, capsys=capsys)
                assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_non_number_file_epsilon_is_2(self, capsys, tmp_path):
        f = tmp_path / "text_eps.json"
        doc = {
            "prizes": ["o1", "o2"],
            "prob_lottery": {"probs": [0.5, 0.5], "utils": [1, 0], "epsilon": "10"},
        }
        f.write_text(json.dumps(doc))
        for command in ("validate", "bridge"):
            code, _, err = run(command, str(f), capsys=capsys)
            assert (code, err) == (2, "parse error: prob_lottery.epsilon: expected a number\n")

    def test_deep_class_at_small_base_is_fast(self, capsys, tmp_path):
        # kappa(1e-30) at eps 1.0001 is 690810, far too deep to reach by
        # raising eps to that power
        doc = {
            "prizes": ["o1", "o2"],
            "prob_lottery": {"probs": [1e-30, 1.0], "utils": [1, 0], "epsilon": 1.0001},
        }
        f = tmp_path / "deep.json"
        f.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, _ = run("bridge", str(f), capsys=capsys)
        assert time.perf_counter() - start < 2
        assert code == 0
        assert "kappa(eu) = 690810" in out


def outcome(argv, capsys):
    """(exit code, stdout, stderr) of one main() call, argparse exits included."""
    try:
        code = cli.main(argv)
    except SystemExit as e:
        code = ("SystemExit", e.code)
    out, err = capsys.readouterr()
    return code, out, err


class TestParserReuse:
    @pytest.fixture(autouse=True)
    def fresh_cache(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # --help and usage wrap at the terminal width
        cli.build_parser.cache_clear()
        yield
        cli.build_parser.cache_clear()

    def test_reused_parser_answers_like_a_fresh_one(self, capsys, tmp_path):
        f = tmp_path / "half.json"
        f.write_text(json.dumps({
            "prizes": ["o1", "o2"],
            "prob_lottery": {"probs": [0.5, 0.5], "utils": [1, 0], "epsilon": 10},
        }))
        f = str(f)
        calls = [
            ["bridge", f, "--epsilon", "2"],
            ["bridge", f],
            ["bridge", f, "--json"],
            ["bridge", f],
            ["bridge"],
            ["bridge", f, "--json", "--epsilon", "2"],
            ["frobnicate", f],
            ["reduce", path("depth2_tree.json")],
            ["--help"],
            ["bridge", "--help"],
            ["utility", path("earthquake.json"), "--json"],
            ["bridge", f, "--epsilon", "x"],
            ["bridge", f],
        ]
        fresh = []
        for argv in calls:
            cli.build_parser.cache_clear()
            fresh.append(outcome(argv, capsys))
        cli.build_parser.cache_clear()
        reused = [outcome(argv, capsys) for argv in calls + calls]
        assert reused == fresh + fresh
        assert cli.build_parser.cache_info().misses == 1
        # the file's epsilon comes back once the flag is gone
        assert "kappa(eu) = 1\n" in fresh[0][1] and "kappa(eu) = 0\n" in fresh[1][1]
        assert fresh[1] == fresh[3] == fresh[12]
        code, out, err = fresh[4]
        assert (code, out) == (("SystemExit", 2), "")
        assert err.startswith("usage: kappacalc bridge [-h] [--json] [--epsilon EPSILON] file\n")
        assert fresh[6][0] == fresh[11][0] == ("SystemExit", 2)
        assert "invalid choice: 'frobnicate'" in fresh[6][2]
        assert "invalid float value: 'x'" in fresh[11][2]
        assert fresh[8][0] == fresh[9][0] == ("SystemExit", 0)
        assert fresh[8][1].startswith("usage: kappacalc [-h]")
        assert "--epsilon EPSILON" in fresh[9][1]

    def test_fifty_calls_build_one_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for _ in range(50):
            assert cli.main(["utility", path("earthquake.json")]) == 0
        assert capsys.readouterr().out == "(1, 0)  u = -1\n" * 50
        assert built.count("kappacalc") == 1
        assert len(built) == 6  # the top-level parser and one per command


@pytest.mark.skipif(platform.python_implementation() != "CPython",
                    reason="counts CPython allocator blocks")
def test_bridge_calls_do_not_grow_the_heap(tmp_path):
    """Hundreds of in-process bridge calls leave the block count flat.

    A tuple built from a generator is resized from 10 slots, and the block
    ends up on CPython's per-size tuple freelist, which only a full
    collection empties.  Each call's cyclic garbage is collected young here
    (gc.collect(1) leaves the freelists alone), so parked tuples show as
    growth: about five blocks a call on 2- to 16-prize lotteries.
    """
    rng = random.Random(5)
    files = []
    for i in range(40):
        r = rng.randint(2, 16)
        weights = [rng.random() for _ in range(r)]
        utils = sorted((rng.random() for _ in range(r - 2)), reverse=True)
        doc = {
            "prizes": [f"o{j + 1}" for j in range(r)],
            "prob_lottery": {"probs": [w / sum(weights) for w in weights],
                             "utils": [1.0, *utils, 0.0]},
        }
        files.append(tmp_path / f"p{i}.json")
        files[-1].write_text(json.dumps(doc))
    argvs = [["bridge", str(f), "--json", "--epsilon", str(e)]
             for e in (10, 2, 1.5) for f in files]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for argv in argvs:
            assert cli.main(argv) == 0
        gc.collect()
        gc.disable()
        try:
            blocks = []
            for _ in range(4):
                for argv in argvs:
                    cli.main(argv)
                    gc.collect(1)
                blocks.append(sys.getallocatedblocks())
        finally:
            gc.enable()
    # the first round refills the small freelists that gc.collect() emptied
    growth = blocks[-1] - blocks[0]
    assert growth < 200, f"{growth} blocks more after {3 * len(argvs)} bridge calls"


def test_bridge_classifies_each_probability_once(monkeypatch, tmp_path, capsys):
    # the converted lottery and the min-plus terms share one kappa per probability;
    # probabilities, utilities and the expected utility 0.75 are all distinct
    probs = [0.6, 0.3, 0.1]
    f = tmp_path / "bridge.json"
    f.write_text(json.dumps({"prizes": ["o1", "o2", "o3"],
                             "prob_lottery": {"probs": probs, "utils": [1, 0.5, 0]}}))
    calls = Counter()
    original = oom_bridge.kappa_of

    def counted(p, eps=10.0):
        calls[p] += 1
        return original(p, eps)

    monkeypatch.setattr(oom_bridge, "kappa_of", counted)
    for fmt in ((), ("--json",)):
        calls.clear()
        assert run("bridge", str(f), *fmt, capsys=capsys)[0] == 0
        assert [calls[p] for p in probs] == [1, 1, 1]
        assert calls[0.75] == 1


class TestEntryPoints:
    def test_module_invocation(self):
        # the child gets the sources on PYTHONPATH even when pytest found
        # them through its own pythonpath setting
        proc = subprocess.run(
            [sys.executable, "-m", "kappacalc", "utility", path("earthquake.json")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        assert proc.returncode == 0
        assert proc.stdout == "(1, 0)  u = -1\n"

    def test_import_builds_no_parser_and_loads_no_exact_arithmetic(self):
        # dataclasses would pull in inspect, ast, dis and tokenize: a quarter of the start
        code = ("import sys, kappacalc.cli as cli; "
                "print(sorted({'fractions', 'decimal', 'dataclasses', 'inspect'} "
                "& set(sys.modules)), cli.build_parser.cache_info().currsize)")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[] 0\n", "")

    def test_console_script(self):
        """The installed script if there is one, else the declared target.

        Without an install, the `[project.scripts]` entry of pyproject.toml
        is resolved and run the way the generated script would run it, with
        the sources on PYTHONPATH.
        """
        argv = ["reduce", path("depth2_tree.json")]
        env = None
        if shutil.which("kappacalc"):
            command = ["kappacalc", *argv]
        else:
            import tomllib  # Python 3.11+; only needed without an install

            with open(REPO / "pyproject.toml", "rb") as handle:
                target = tomllib.load(handle)["project"]["scripts"]["kappacalc"]
            module, func = target.split(":")
            code = f"import sys; from {module} import {func}; sys.exit({func}())"
            command = [sys.executable, "-c", code, *argv]
            env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        proc = subprocess.run(command, capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert proc.stdout == "o1:4 o2:0 o3:0\n"
