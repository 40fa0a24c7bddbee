import argparse
import contextlib
import errno
import gc
import importlib
import io
import itertools
import json
import os
import platform
import random
import re
import runpy
import shutil
import subprocess
import sys
import time
from collections import Counter

import pytest

from kappacalc import cli, oom_bridge, problemfile
from kappacalc.errors import KappaCalcError, ParseError

from conftest import DATA, PROBLEMS, REPO
from oracles import path_sum_reduce
from test_cli_golden import CASES


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

NO_SPACE = "error: cannot write output: No space left on device\n"


def unwritable(method: str) -> io.StringIO:
    """A stdout whose write or flush fails as on a full disk."""
    def fail(*_):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    out = io.StringIO()
    setattr(out, method, fail)
    return out


class Raw(io.RawIOBase):
    """A raw stream that takes at most `most` bytes a call (0: it would block), or fails."""

    def __init__(self, most: int = 1 << 30, fail: bool = False):
        self.most, self.fail, self.taken = most, fail, bytearray()

    def writable(self) -> bool:
        return True

    def write(self, b) -> int | None:
        if self.fail:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.taken += bytes(b[:self.most])
        return min(len(b), self.most) or None


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

    @pytest.mark.parametrize("method", ["write", "flush"])
    def test_unwritable_output_is_2(self, method, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", unwritable(method))
        for command in ("validate", "utility"):
            assert run(command, path("earthquake.json"), capsys=capsys)[::2] == (2, NO_SPACE)

    def test_no_stdout_is_2_and_no_stderr_drops_the_messages(self, capsys, monkeypatch):
        # Python starts with sys.stdout or sys.stderr None when its descriptor is closed
        monkeypatch.setattr(sys, "stdout", None)
        assert run("utility", path("earthquake.json"), capsys=capsys) == (
            2, "", "error: cannot write output: Bad file descriptor\n")
        monkeypatch.setattr(sys, "stderr", None)
        assert run("utility", path("earthquake.json"), capsys=capsys) == (2, "", "")
        monkeypatch.undo()
        monkeypatch.setattr(sys, "stderr", None)
        assert run("reduce", data("bad_unnormalized.json"), capsys=capsys) == (1, "", "")

    @pytest.mark.parametrize("method", ["write", "flush"])
    def test_unwritable_help_is_2(self, method, capsys, monkeypatch):
        # argparse drops a failed write of its help; main writes it as any output
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.setattr(sys, "stdout", unwritable(method))
        for argv in (["--help"], ["bridge", "--help"]):
            assert run(*argv, capsys=capsys)[::2] == (2, NO_SPACE)
        with pytest.raises(SystemExit) as usage:  # a usage error writes nothing to stdout
            cli.main(["frobnicate", path("earthquake.json")])
        err = capsys.readouterr().err
        assert usage.value.code == 2 and "invalid choice: 'frobnicate'" in err
        assert "cannot write" not in err

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
        # deeper than any supported Python's decoder goes: 3.12 refuses at
        # about 750 levels and 3.13 at about 5,000
        depth = 20_000
        tree = '[{"delta": 0, "child": ' * depth + '"o1"' + "}]" * depth
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


def text_mode(f) -> str | int:
    """What text mode reads from a file: its text, or the offset of its first bad byte."""
    try:
        with open(f, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as e:
        return e.start


class TestFileRead:
    """main reads a file as bytes and translates line breaks as text mode does."""

    DOC = '{"prizes": ["o1", "o2"],\n "notes": "\u00e9 \U0001f600 \u2028"}\n'.encode()
    PIECES = [b"\r", b"\n", b"\r\n", b"\n\r", b"\r\r", b"x", b"\xc3\xa9", b"\xf0\x9f\x98\x80",
              b"\xef\xbb\xbf", b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\x80"]

    @classmethod
    def files(cls, rng: random.Random) -> list[bytes]:
        doc, pad = cls.DOC, b"x\r\n" * 24000  # 72,000 bytes, past 64 KB
        named = [
            doc.replace(b"\n", b"\r\n"), doc.replace(b"\n", b"\r"), b"\r\r\n\n\r" + doc + b"\r",
            b"\xef\xbb\xbf" + doc, b"\xef\xbb\xbf" + doc.replace(b"\n", b"\r\n"),
            doc + b"\xe2\x82", doc + b"\xf0\x9f\x98", doc + b"\r\xc3",
            doc + pad, pad.replace(b"\n", b"") + doc, pad + b"\xe2\x82",
        ]
        for offset in (0, 1, 37, 8191, 8192, 65535, 65536, 70000):
            named.append(pad[:offset] + b"\xff" + pad[offset:])
            named.append(pad[:offset] + b"\xed\xa0\x80" + pad[offset:])
        drawn = [b"".join(rng.choices(cls.PIECES, k=rng.randint(0, 40))) for _ in range(300)]
        return named + drawn

    def test_text_or_bad_byte_as_text_mode_reads_them(self, rng, tmp_path, capsys, monkeypatch):
        read = []
        monkeypatch.setattr(problemfile, "validate_problem", lambda text: read.append(text) or [])
        f = tmp_path / "read.json"
        for raw in self.files(rng):
            f.write_bytes(raw)
            expected = text_mode(f)
            read.clear()
            code, out, err = run("validate", str(f), capsys=capsys)
            if isinstance(expected, str):
                assert (code, out, err, read) == (0, "ok\n", "", [expected]), raw
            else:
                assert (code, out, read) == (2, "", []), raw
                assert err == f"parse error: cannot read {f}: not valid UTF-8 at byte {expected}\n"

    def test_syntax_error_after_lone_carriage_returns_keeps_its_line(self, tmp_path, capsys):
        f = tmp_path / "lone_cr.json"
        f.write_bytes(b'{"prizes": ["o1", "o2"],\r "lottery": [\r  {"delta": 0 "child": "o1"}]}')
        with pytest.raises(json.JSONDecodeError) as text_read:
            json.loads(text_mode(f))
        e = text_read.value
        message = f"parse error: {e.msg} (line {e.lineno}, column {e.colno})\n"
        assert message == "parse error: Expecting ',' delimiter (line 3, column 15)\n"
        for command, *flags in (["validate"], ["validate", "--json"], ["reduce"], ["bridge"]):
            assert run(command, str(f), *flags, capsys=capsys) == (2, "", message)


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
            assert (code, err) == (
                2, "parse error: prob_lottery.epsilon: expected a number, got '10'\n")

    def test_each_base_is_proved_once(self, capsys, monkeypatch):
        # the parser proves the file's base and bridge uses it as it is; only
        # --epsilon's base, or the default when the file has none, is built anew
        calls = []
        init = oom_bridge.EpsilonBase.__init__

        def counting_init(self, *args):
            calls.append(args)
            init(self, *args)

        monkeypatch.setattr(oom_bridge.EpsilonBase, "__init__", counting_init)
        for name, flags, proved in (("bridge_powers.json", [], [(2.0,)]),
                                    ("bridge_powers.json", ["--epsilon", "3"], [(2.0,), (3.0,)]),
                                    ("bridge_certainty.json", [], [()])):
            calls.clear()
            assert run("bridge", path(name), *flags, capsys=capsys)[0] == 0
            assert calls == proved

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


class TestArgparseFallback:
    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # --help and usage wrap at the terminal width

    def test_argparse_answers_help_and_usage_errors(self, capsys, tmp_path):
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
        results = [outcome(argv, capsys) for argv in calls]
        # the file's epsilon comes back once the flag is gone
        assert "kappa(eu) = 1\n" in results[0][1] and "kappa(eu) = 0\n" in results[1][1]
        assert results[1] == results[3] == results[12]
        code, out, err = results[4]
        assert (code, out) == (("SystemExit", 2), "")
        assert err.startswith("usage: kappacalc bridge [-h] [--json] [--epsilon EPSILON] file\n")
        assert results[6][0] == results[11][0] == ("SystemExit", 2)
        assert "invalid choice: 'frobnicate'" in results[6][2]
        assert "invalid float value: 'x'" in results[11][2]
        assert results[8][0] == results[9][0] == ("SystemExit", 0)
        assert results[8][1].startswith("usage: kappacalc [-h]")
        assert "--epsilon EPSILON" in results[9][1]

    def test_only_argparse_calls_build_parsers(self, capsys, monkeypatch):
        # a plain argv builds none; each argv that argparse must answer builds all six
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for _ in range(50):
            assert cli.main(["utility", path("earthquake.json")]) == 0
        assert capsys.readouterr().out == "(1, 0)  u = -1\n" * 50
        assert built == []
        assert cli.main(["bridge", path("bridge_powers.json"), "--epsilon", "2"]) == 0
        plain = capsys.readouterr().out
        assert built == []
        for _ in range(2):
            assert cli.main(["bridge", path("bridge_powers.json"), "--epsilon=2"]) == 0
        assert capsys.readouterr().out == plain * 2
        assert built.count("kappacalc") == 2
        assert len(built) == 12  # the top-level parser and one per command, each call


class TestPlainArgv:
    """The direct reader against argparse, on every short argv over a small alphabet."""

    WORDS = [*cli._COMMANDS, "f.json", "", "-", "--", "-h", "--json", "--js", "--epsilon",
             "--epsilon=2", "2", "-2", "-inf", "x", "nan", "inf", "1e400", " 3 ", "1_0",
             "0x10"]

    @staticmethod
    def parsed(parser, argv):
        args = parser.parse_args(argv)
        return repr((args.command, args.file, args.json, getattr(args, "epsilon", None)))

    def test_reader_answers_like_argparse(self):
        parser = cli._parser()
        accepted = [list(argv) for n in range(5)
                    for argv in itertools.product(self.WORDS, repeat=n)
                    if cli._plain(list(argv)) is not None]
        assert len(accepted) > 300
        # argparse exits on an argv it refuses, so each comparison also
        # checks that the reader accepted nothing argparse refuses
        for argv in accepted:
            assert repr(cli._plain(argv)) == self.parsed(parser, argv), argv
        assert ["bridge", "nan", "--epsilon", "nan"] in accepted
        assert ["bridge", "--epsilon", " 3 ", "f.json"] in accepted

    def test_reader_takes_every_golden_and_bench_argv(self, tmp_path, monkeypatch):
        last_wins = ["bridge", "--epsilon", "2", "f.json", "--json", "--epsilon", "1e400", "--json"]
        assert cli._plain(last_wins) == ("bridge", "f.json", True, float("inf"))
        argvs = [last_wins, *(case["args"] for case in CASES)]
        monkeypatch.syspath_prepend(str(REPO / "perfbench"))
        inputs = importlib.import_module("inputs")
        for workload in ("cli", "lottery", "rank", "bridge"):
            workdir = tmp_path / workload
            workdir.mkdir()
            argvs += [list(op.args) for op in inputs.prepare(workload, 1, workdir, PROBLEMS)
                      if op.kind != "search"]
        assert len(argvs) > 300
        parser = cli._parser()
        for argv in argvs:
            assert repr(cli._plain(argv)) == self.parsed(parser, argv), argv


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


def full_tree(rng: random.Random, height: int):
    """A lottery document where each node has six branches, the least degree 0."""
    if height == 0:
        return rng.choice(["o1", "o2", "o3"])
    deltas = [0, *rng.sample(range(1, 9), 5)]
    rng.shuffle(deltas)
    return [{"delta": d, "child": full_tree(rng, height - 1)} for d in deltas]


def chain(depth: int):
    """A lottery document `depth` levels deep, the deep child first."""
    tree = "o1"
    for _ in range(depth):
        tree = [{"delta": 0, "child": tree}, {"delta": 3, "child": "o2"}]
    return tree


def lottery_text(tree) -> str:
    return json.dumps({"prizes": ["o1", "o2", "o3"], "lottery": tree})


class TestCollectorPause:
    """main() pauses the cyclic garbage collector for one command.

    A command's objects hold no reference cycles, so the collector would
    only walk the tree being built; reference counting frees it all.
    """

    @pytest.fixture(autouse=True)
    def collector_on_after(self):
        yield
        gc.enable()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_leaves_the_collector_as_it_found_it(self, enabled, capsys, monkeypatch):
        def broken(*_):
            raise RuntimeError("boom")

        cases = [
            (["reduce", path("depth2_tree.json"), "--json"], 0),
            (["validate", data("bad_assessment.json")], 1),
            (["reduce", "does_not_exist.json"], 2),
            (["utility", path("earthquake.json")], 3),
            (["reduce"], ("SystemExit", 2)),
            (["nope", path("earthquake.json")], ("SystemExit", 2)),
        ]
        monkeypatch.setattr(cli, "evaluate", broken)
        for argv, code in cases:
            (gc.enable if enabled else gc.disable)()
            assert outcome(argv, capsys)[0] == code
            assert gc.isenabled() is enabled, argv
        (gc.enable if enabled else gc.disable)()
        with contextlib.redirect_stdout(unwritable("write")):
            assert cli.main(["reduce", path("depth2_tree.json")]) == 2
        assert gc.isenabled() is enabled

    def test_no_collection_runs_during_a_command(self, tmp_path, capsys):
        # without the pause, reducing a full 6^5 tree sets off about 30 collections
        f = tmp_path / "full.json"
        f.write_text(lottery_text(full_tree(random.Random(5), 5)))
        starts = []

        def count(phase, info):
            frame = sys._getframe()
            while frame is not None and frame.f_code is not cli.main.__code__:
                frame = frame.f_back
            if phase == "start" and frame is not None:  # cli.main is on the stack
                starts.append(info["generation"])

        gc.enable()
        gc.callbacks.append(count)
        try:
            assert cli.main(["reduce", str(f), "--json"]) == 0
        finally:
            gc.callbacks.remove(count)
        assert json.loads(capsys.readouterr().out)["prizes"] == ["o1", "o2", "o3"]
        assert starts == []

    def test_reading_a_file_leaves_no_cyclic_garbage(self):
        # so the pause defers no collection that could free anything
        texts = {p.name: p.read_text(encoding="utf-8")
                 for p in [*sorted(PROBLEMS.glob("*.json")), *sorted(DATA.glob("bad_*.json"))]}
        texts["full 6^4"] = lottery_text(full_tree(random.Random(4), 4))
        texts["chain 400"] = lottery_text(chain(400))
        assert len(texts) == 15
        gc.collect()
        gc.disable()
        for name, text in texts.items():
            for read in (problemfile.parse_problem, problemfile.validate_problem):
                try:
                    read(text)
                except (KappaCalcError, ParseError):
                    pass
                assert gc.collect() == 0, (name, read.__name__)

    def test_json_output_leaves_no_cyclic_garbage(self):
        # json.dumps with an indent runs a pure-Python encoder whose closures
        # form cycles; problemfile.dumps writes each document without them
        argvs = [["validate", path("random_depth3.json")], ["reduce", path("depth2_tree.json")],
                 ["utility", path("earthquake.json")], ["rank", path("earthquake_decision.json")],
                 ["bridge", path("bridge_powers.json")]]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            gc.collect()
            gc.disable()
            for argv in argvs:
                assert cli.main([*argv, "--json"]) == 0
                assert gc.collect() == 0, argv

    def test_paused_commands_leave_nothing_for_later(self):
        # whatever a paused command leaves behind, even a cycle, is freed
        # once the collector runs again, so repeated commands do not grow the heap
        argvs = [["reduce", path("depth2_tree.json")], ["utility", path("earthquake.json")],
                 ["rank", path("earthquake_decision.json")], ["rank", path("ab_witness.json")],
                 ["bridge", path("bridge_powers.json")], ["validate", path("random_depth3.json")]]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            for argv in argvs:
                assert cli.main([*argv, "--json"]) == 0
            gc.collect()
            before = len(gc.get_objects())
            for i in range(300):
                cli.main([*argvs[i % len(argvs)], "--json"])
            gc.collect()
        assert len(gc.get_objects()) - before < 100


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

    @staticmethod
    def declared_script() -> list[str]:
        """The `[project.scripts]` target, run the way the generated script runs it.

        The entry is read from the file's text: `tomllib` needs Python 3.11,
        and pyproject.toml declares 3.10.
        """
        text = (REPO / "pyproject.toml").read_text(encoding="utf-8")
        table = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        module, func = re.search(r'^kappacalc\s*=\s*"([\w.]+):(\w+)"$', table, re.M).groups()
        code = f"import sys; from {module} import {func}; sys.exit({func}())"
        return [sys.executable, "-c", code]

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
            command = [*self.declared_script(), *argv]
            env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        proc = subprocess.run(command, capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert proc.stdout == "o1:4 o2:0 o3:0\n"

    @pytest.mark.parametrize("argv", [
        ["utility", path("earthquake.json")],
        ["validate", data("bad_assessment.json")],  # exit 1
        ["validate", data("bad_syntax.json")],  # a parse error, exit 2
        ["frobnicate", path("earthquake.json")],  # a usage error, exit 2
        ["--help"],
    ], ids=["exit-0", "exit-1", "parse-error", "usage-error", "help"])
    def test_each_entry_answers_as_main_and_freezes_at_exit(self, argv, tmp_path, capsys,
                                                            monkeypatch):
        # a sitecustomize on the child's path sets an atexit hook, which runs
        # after _run's freeze and before the interpreter's shutdown collections
        frozen = str(tmp_path / "frozen")
        (tmp_path / "sitecustomize.py").write_text(
            "import atexit, gc\n"
            f"atexit.register(lambda: print(gc.get_freeze_count(), file=open({frozen!r}, 'a')))\n")
        monkeypatch.setenv("COLUMNS", "80")  # --help and usage wrap at the terminal width
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tmp_path), str(REPO / "src")])}
        code, out, err = outcome(argv, capsys)
        expected = (code[1] if isinstance(code, tuple) else code, out, err)
        for command in ([sys.executable, "-m", "kappacalc"], self.declared_script()):
            proc = subprocess.run([*command, *argv], capture_output=True, text=True, env=env)
            assert (proc.returncode, proc.stdout, proc.stderr) == expected, command
        counts = [int(line) for line in (tmp_path / "frozen").read_text().splitlines()]
        assert len(counts) == 2 and min(counts) > 0, counts

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_each_entry_exits_2_on_a_full_disk(self, unbuffered):
        # buffered or not, main writes the bytes to the raw stream, so after
        # the failed write no byte waits for the flush at exit to fail again
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(REPO / "src")
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        for command in ([sys.executable, "-m", "kappacalc"], self.declared_script()):
            for argv in (["utility", path("earthquake.json")],
                         ["rank", path("earthquake_decision.json"), "--json"],
                         ["--help"], ["bridge", "--help"]):
                with open("/dev/full", "w") as full:
                    proc = subprocess.run([*command, *argv], stdout=full, stderr=subprocess.PIPE,
                                          text=True, env=env)
                assert (proc.returncode, proc.stderr) == (2, NO_SPACE), (command, argv)

    @pytest.mark.skipif(not shutil.which("sh"), reason="needs a POSIX shell")
    def test_each_entry_exits_2_with_stdout_closed_and_is_silent_with_stderr_closed(
            self, capsys, monkeypatch):
        # with a descriptor closed Python starts with sys.stdout or sys.stderr None
        monkeypatch.setenv("COLUMNS", "80")
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        closed_out = [["validate", path("earthquake.json")], ["--help"]]
        closed_err = [["utility", path("earthquake.json")],
                      ["reduce", data("bad_unnormalized.json"), "--json"],  # exit 1
                      ["validate", data("bad_syntax.json")],  # a parse error, exit 2
                      ["frobnicate", path("earthquake.json")]]  # a usage error, exit 2
        for command in ([sys.executable, "-m", "kappacalc"], self.declared_script()):
            for argv in closed_out:
                proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *command, *argv],
                                      stderr=subprocess.PIPE, text=True, env=env)
                assert (proc.returncode, proc.stderr) == (
                    2, "error: cannot write output: Bad file descriptor\n"), (command, argv)
            for argv in closed_err:
                code, out, _ = outcome(argv, capsys)
                proc = subprocess.run(["sh", "-c", 'exec "$@" 2>&-', "sh", *command, *argv],
                                      stdout=subprocess.PIPE, text=True, env=env)
                assert (proc.returncode, proc.stdout) == (
                    code[1] if isinstance(code, tuple) else code, out), (command, argv)

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_each_entry_exits_2_when_the_reader_goes_away(self, unbuffered, tmp_path):
        # a reader that closes the pipe after one byte of a 550 KB answer
        acts = [f"a{i}" for i in range(3000)]
        f = tmp_path / "acts.json"
        f.write_text(json.dumps({
            "prizes": ["o1", "o2"], "assessment": ENDS,
            "decision": {"states": ["s", "t"], "belief": [0, 1], "acts": acts,
                         "outcome": {a: ["o1", "o2"] for a in acts}}}))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(REPO / "src")
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        for command in ([sys.executable, "-m", "kappacalc"], self.declared_script()):
            proc = subprocess.Popen([*command, "rank", str(f), "--json"], bufsize=0, env=env,
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            assert proc.stdout.read(1) == b"{"
            proc.stdout.close()
            err = proc.communicate(timeout=60)[1]
            assert (proc.returncode, err) == (
                2, b"error: cannot write output: Broken pipe\n"), command

    def test_a_failed_write_leaves_nothing_to_flush(self, capsys, monkeypatch):
        # were the bytes left in the buffer, the flush at exit would fail again
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BufferedWriter(Raw(fail=True))))
        assert run("utility", path("earthquake.json"), capsys=capsys)[::2] == (2, NO_SPACE)
        sys.stdout.flush()

    @pytest.mark.parametrize("layers", [io.BufferedWriter, lambda raw: raw],
                             ids=["buffered", "unbuffered"])  # python -u: no BufferedWriter
    def test_every_byte_reaches_a_raw_stream_that_takes_a_few_at_a_time(self, layers, capsys,
                                                                         monkeypatch):
        raw = Raw(most=3)
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(layers(raw), write_through=True))
        argv = ["rank", path("earthquake_decision.json"), "--json"]
        code, _, err = run(*argv, capsys=capsys)
        monkeypatch.undo()
        assert (code, raw.taken.decode(), err) == outcome(argv, capsys)

    @pytest.mark.parametrize("layers", [io.BufferedWriter, lambda raw: raw],
                             ids=["buffered", "unbuffered"])
    def test_a_raw_stream_that_would_block_is_a_failed_write(self, layers, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(layers(Raw(most=0)),
                                                            write_through=True))
        assert run("utility", path("earthquake.json"), capsys=capsys)[::2] == (
            2, "error: cannot write output: write could not complete without blocking\n")

    def test_module_entry_runs_in_process(self, capsys, monkeypatch):
        # __main__.py and _run's reading of sys.argv, under the tests
        monkeypatch.setattr(sys, "argv", ["kappacalc", "utility", path("earthquake.json")])
        before = gc.get_freeze_count()
        try:
            with pytest.raises(SystemExit) as done:
                runpy.run_module("kappacalc", run_name="__main__")
            assert gc.get_freeze_count() > before
        finally:
            gc.unfreeze()
        assert (done.value.code, *capsys.readouterr()) == (0, "(1, 0)  u = -1\n", "")

    def test_text_mode_writes_a_lone_surrogate_as_json_does(self, tmp_path):
        # "\ud800" decodes to a str that UTF-8 cannot encode; a process's stdout
        # refuses it where an in-process StringIO would not
        labels = {"prizes": ["\ud800", "b"], "lottery": "\ud800",
                  "assessment": {"\ud800": [0, "inf"], "b": ["inf", 0]},
                  "decision": {"states": ["s"], "belief": [0], "acts": ["\udfff"],
                               "outcome": {"\udfff": ["b"]}},
                  "prob_lottery": {"probs": [0.5, 0.5], "utils": [1, 0]}}
        quoted = {"prizes": ["\ud800", "b"], "assessment": {"\ud800": [0, 3], "b": ["inf", 0]}}
        cases = [
            (labels, "reduce", 0, "\\ud800:0 b:inf\n"),
            (labels, "rank", 0, "utility ranking:\n  \\udfff (inf, 0)  u = -inf\n"
                                "maximin ranking:\n  \\udfff worst b\ndisagreement: no\n"),
            (labels, "bridge", 0, "spohnian: \\ud800:0 b:0\neu = 0.5\nkappa(eu) = 0\n"
                                  "qualitative = 0\ngap = 0\n"),
            (quoted, "validate", 1,
             "assessment: InvalidAssessment: \\ud800 must map to (0,inf), got (0, 3)\n"),
        ]
        env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "PYTHONIOENCODING": "utf-8"}
        f = tmp_path / "surrogate.json"
        for doc, command, code, out in cases:
            f.write_text(json.dumps(doc))  # ensure_ascii writes each label as its escape
            proc = subprocess.run([sys.executable, "-m", "kappacalc", command, str(f)],
                                  capture_output=True, text=True, env=env)
            assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, ""), command

    def test_text_mode_escapes_what_stdout_cannot_encode(self, tmp_path):
        # an ASCII stdout, as under PYTHONIOENCODING=ascii, gets each label it
        # cannot encode as a backslash escape, with the exit code UTF-8 gives
        labels = {"prizes": ["\xe9", "b"], "lottery": "\xe9",
                  "assessment": {"\xe9": [0, "inf"], "b": ["inf", 0]},
                  "decision": {"states": ["s"], "belief": [0], "acts": ["\u884c\u52d5"],
                               "outcome": {"\u884c\u52d5": ["b"]}},
                  "prob_lottery": {"probs": [0.5, 0.5], "utils": [1, 0]}}
        unknown = {"prizes": ["a", "b"], "lottery": "\xfc"}
        cases = [
            (labels, "reduce", 0, "\\xe9:0 b:inf\n"),
            (labels, "rank", 0, "utility ranking:\n  \\u884c\\u52d5 (inf, 0)  u = -inf\n"
                                "maximin ranking:\n  \\u884c\\u52d5 worst b\ndisagreement: no\n"),
            (labels, "bridge", 0, "spohnian: \\xe9:0 b:0\neu = 0.5\nkappa(eu) = 0\n"
                                  "qualitative = 0\ngap = 0\n"),
            (unknown, "validate", 1,
             "lottery: UnknownPrize: prize '\\xfc' is not in the prize set\n"),
        ]
        f = tmp_path / "labels.json"
        for doc, command, code, out in cases:
            f.write_text(json.dumps(doc))
            for encoding, expected in (("utf-8", out.encode().decode("unicode_escape")),
                                       ("ascii", out)):
                stdout, stderr = io.TextIOWrapper(io.BytesIO(), encoding=encoding), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    got = cli.main([command, str(f)])
                stdout.flush()
                assert (got, stdout.buffer.getvalue().decode(encoding), stderr.getvalue()) == (
                    code, expected, ""), (command, encoding)
