import json
import os
import shutil
import subprocess
import sys
import time

from kappacalc import cli

from conftest import DATA, PROBLEMS, REPO


def run(*argv, capsys=None):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def path(name: str) -> str:
    return str(PROBLEMS / name)


def data(name: str) -> str:
    return str(DATA / name)


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


class TestJsonOutput:
    def test_utility(self, capsys):
        code, out, _ = run("utility", path("earthquake.json"), "--json", capsys=capsys)
        assert code == 0
        assert json.loads(out) == {"value": [1, 0], "scalar": -1}

    def test_reduce_round_trips(self, capsys):
        from kappacalc.problemfile import parse_problem, parse_simple_lottery

        code, out, _ = run("reduce", path("random_depth3.json"), "--json", capsys=capsys)
        assert code == 0
        parsed = parse_simple_lottery(json.loads(out))
        source = parse_problem((PROBLEMS / "random_depth3.json").read_text())
        assert parsed == source.lottery.reduce()
        assert parsed.deltas == (2, 1, 0, 3)

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
