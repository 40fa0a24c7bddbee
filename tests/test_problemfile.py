import json

import pytest

from kappacalc import (
    INF,
    Leaf,
    Node,
    OrderAgreement,
    PrizeSet,
    SimpleLottery,
    UtilityValue,
)
from kappacalc.errors import EmptyList, NotNormalized, OutOfRange, ParseError, UnknownPrize
from kappacalc.problemfile import (
    dumps,
    emit_bridge,
    emit_ranking,
    emit_simple_lottery,
    emit_utility_value,
    parse_problem,
    validate_problem,
)

from conftest import data_text, problem_text

O3 = PrizeSet(("o1", "o2", "o3"))


class TestParsing:
    def test_earthquake_fixture(self):
        pf = parse_problem(problem_text("earthquake.json"))
        assert len(pf.prizes) == 13
        assert pf.assessment.value_of("q1") == UtilityValue(0, 7)
        assert pf.assessment.value_of("q0") == UtilityValue(0, INF)
        assert isinstance(pf.lottery, Node)
        assert pf.lottery.reduce().deltas == (4, 3, 2, 1, 0, 1, 2, 2, 3, 4, 5, 6, 7)

    def test_decision_fixture(self):
        pf = parse_problem(problem_text("ab_witness.json"))
        assert pf.decision.acts == ("A", "B")
        assert pf.decision.outcome == (("o1", "o3"), ("o2", "o2"))
        assert pf.decision.belief.potential == (0, 5)

    def test_prob_fixture_with_epsilon(self):
        pf = parse_problem(problem_text("bridge_powers.json"))
        assert pf.prob_lottery.probs == (0.5, 0.5)
        assert pf.epsilon == 2.0

    def test_prob_lottery_epsilon_is_checked(self):
        doc = ('{"prizes": ["a", "b"], "prob_lottery":'
               ' {"probs": [0.5, 0.5], "utils": [1, 0], "epsilon": %s}}')
        for raw, shown in (("0.5", "0.5"), ("1e999", "inf"), ("1", "1.0")):
            with pytest.raises(OutOfRange, match="epsilon must be finite and > 1"):
                parse_problem(doc % raw)
            assert validate_problem(doc % raw) == [
                f"prob_lottery: OutOfRange: epsilon must be finite and > 1, got {shown}"
            ]
        for raw in ('"10"', "true", "null", "[2]"):
            with pytest.raises(ParseError, match="epsilon: expected a number"):
                parse_problem(doc % raw)

    def test_integer_too_large_for_a_float_names_its_field(self):
        doc = ('{"prizes": ["a", "b"], "prob_lottery":'
               ' {"probs": %s, "utils": %s, "epsilon": %s}}')
        big = "9" * 401
        for field, fields in (("epsilon", ("[0.5, 0.5]", "[1, 0]", big)),
                              ("probs", (f"[0.5, {big}]", "[1, 0]", "10")),
                              ("utils", ("[0.5, 0.5]", f"[{big}, 0]", "10"))):
            message = f"prob_lottery.{field}: integer too large for a float"
            for parse in (parse_problem, validate_problem):
                with pytest.raises(ParseError, match=message):
                    parse(doc % fields)

    def test_leaf_lottery_and_inf_literal(self):
        pf = parse_problem(
            '{"prizes": ["o1", "o2"], "lottery": "o2", '
            '"assessment": {"o1": [0, "inf"], "o2": ["inf", 0]}}'
        )
        assert pf.lottery == Leaf("o2", pf.prizes)
        assert pf.assessment.value_of("o2").toward_best == INF

    def test_notes_are_ignored(self):
        pf = parse_problem('{"prizes": ["a", "b"], "notes": "anything at all"}')
        assert tuple(pf.prizes) == ("a", "b")

    def test_json_infinity_literal_rejected(self):
        with pytest.raises(ParseError, match="Infinity"):
            parse_problem('{"prizes": ["a", "b"], "prob_lottery": '
                          '{"probs": [Infinity, 0], "utils": [1, 0]}}')

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError, match=r"\(line \d+, column \d+\)$"):
            parse_problem(data_text("bad_syntax.json"))

    def test_unknown_section_rejected(self):
        with pytest.raises(ParseError, match="unknown section"):
            parse_problem('{"prizes": ["a", "b"], "lotery": "a"}')

    def test_wrong_shapes_are_parse_errors(self):
        bad = [
            '["not", "an", "object"]',
            '{"prizes": "o1"}',
            '{"prizes": ["o1", "o2"], "lottery": 7}',
            '{"prizes": ["o1", "o2"], "lottery": [{"delta": 0}]}',
            '{"prizes": ["o1", "o2"], "lottery": [{"delta": 0, "child": "o1", "x": 1}]}',
            '{"prizes": ["o1", "o2"], "assessment": [1, 2]}',
            '{"prizes": ["o1", "o2"], "assessment": {"o1": [0]}}',
            '{"prizes": ["o1", "o2"], "assessment": {"o1": [0, 1.5], "o2": [1, 0]}}',
            '{"prizes": ["o1", "o2"], "decision": {"states": ["s"], "belief": [0],'
            ' "acts": ["A"], "outcome": {"A": ["o1"]}}}',  # no assessment section
            '{"prizes": ["o1", "o2"], "assessment": {"o1": [0, "inf"], "o2": ["inf", 0]},'
            ' "decision": 5}',
        ]
        for text in bad:
            with pytest.raises(ParseError):
                parse_problem(text)

    def test_decision_outcome_row_checks(self):
        base = (
            '{"prizes": ["o1", "o2"],'
            ' "assessment": {"o1": [0, "inf"], "o2": ["inf", 0]},'
            ' "decision": {"states": ["s1", "s2"], "belief": [0, 0], "acts": ["A"],'
            ' "outcome": %s}}'
        )
        with pytest.raises(ParseError, match="no row"):
            parse_problem(base % '{}')
        with pytest.raises(ParseError, match="unknown act"):
            parse_problem(base % '{"A": ["o1", "o1"], "Z": ["o1", "o1"]}')
        with pytest.raises(ParseError, match="entries for"):
            parse_problem(base % '{"A": ["o1"]}')

    @pytest.mark.parametrize("acts, belief, outcome, error, message", [
        ('["A", "B"]', "[0, 0]", '{"A": ["o1", "zz"], "B": ["o1", 7]}', ParseError,
         "decision.outcome['B']: expected a list of strings"),
        ('["A", "B"]', "[0, 0]", '{"A": ["o1", "zz"], "B": "o1"}', ParseError,
         "decision.outcome['B']: expected a list of strings"),
        ('["A", "B"]', "[0, 0]", '{"A": ["o1", "zz"], "B": ["o1", "o2"]}', UnknownPrize,
         "prize 'zz' is not in the prize set"),
        ('["A", "B"]', "[0, 0]", '{"A": null, "B": ["o1", "o2"]}', ParseError,
         "decision.outcome['A']: expected a list of strings"),
        ('["A", "B"]', "[0, 0]", '{"B": ["o1", "o2"]}', ParseError,
         "decision.outcome: no row for act 'A'"),
        ('["A", "B"]', "[0, 0]", '{"A": ["o1", null], "B": ["o1"]}', ParseError,
         "decision.outcome['A']: expected a list of strings"),
        ('["A", "B"]', "[0, 0]", '{"A": ["o1"], "B": ["o1", null]}', ParseError,
         "decision.outcome['A']: 1 entries for 2 states"),
        ('["A", "B"]', "[1, 2]", '{"A": ["o1", "o2"], "B": [true, "o2"]}', ParseError,
         "decision.outcome['B']: expected a list of strings"),
        ('["A", "B"]', "[1, 2]", '{"A": ["o1", "o2"], "B": ["o2", "o2"]}', NotNormalized,
         "S1 violated: minimum degree is 1, expected 0"),
        ('["A", "A"]', "[0, 0]", '{"A": {"o1": 0, "o2": 1}}', ParseError,
         "decision.outcome['A']: expected a list of strings"),
        ('["A"]', "[0, 0]", '{"A": {"o1": 0, "o2": 1}}', ParseError,
         "decision.outcome['A']: expected a list of strings"),
        ("[]", "[0, 0]", "{}", EmptyList, "a decision problem needs at least one act"),
        ('["A", "B"]', "[0, 0]", '{"A": ["o1", "o2"], "B": ["o1", ["o2"]]}', ParseError,
         "decision.outcome['B']: expected a list of strings"),
    ], ids=["bad-prize-then-non-string", "bad-prize-then-non-list", "bad-prize",
            "null-row", "missing-row", "non-string-then-short", "short-then-non-string",
            "unnormalized-and-non-string", "unnormalized", "duplicate-acts-and-dict-row",
            "dict-row", "no-acts", "unhashable-label"])
    def test_decision_defects_are_reported_in_precedence_order(
            self, acts, belief, outcome, error, message):
        # rows in act order, each for presence, type, labels' type, then length,
        # all before any calculus error of the belief or the table
        text = (
            '{"prizes": ["o1", "o2"],'
            ' "assessment": {"o1": [0, "inf"], "o2": ["inf", 0]},'
            f' "decision": {{"states": ["s1", "s2"], "belief": {belief}, "acts": {acts},'
            f' "outcome": {outcome}}}}}'
        )
        with pytest.raises(error) as caught:
            parse_problem(text)
        assert type(caught.value) is error and str(caught.value) == message
        if error is ParseError:
            with pytest.raises(ParseError) as caught:
                validate_problem(text)
            assert str(caught.value) == message
        else:
            assert validate_problem(text) == [f"decision: {error.__name__}: {message}"]

    def test_invariant_violations_are_calc_errors(self):
        from kappacalc.errors import NotNormalized

        with pytest.raises(NotNormalized):
            parse_problem(data_text("bad_unnormalized.json"))


class TestNestedErrorMessages:
    """Defects deep in a lottery tree are reported with their exact location."""

    @staticmethod
    def lottery_doc(lottery) -> str:
        return json.dumps({"prizes": ["o1", "o2", "o3"], "lottery": lottery})

    @pytest.mark.parametrize(
        "lottery, message",
        [
            (
                [{"delta": 0, "child": [{"delta": 0, "child": "o1"},
                                        {"delta": -1, "child": "o2"}]}],
                'lottery[0].child[1].delta: expected a non-negative integer or "inf", got -1',
            ),
            (
                [{"delta": 0, "child": [{"delta": 0, "child": "o1"},
                                        {"delta": 1, "child": 7}]}],
                "lottery[0].child[1].child: expected a prize name or a list of branches",
            ),
            (
                [{"delta": 0, "child": [{"delta": 0, "child": "o1", "x": 1}]}],
                "lottery[0].child[0]: unknown keys ['x']",
            ),
            (
                [{"delta": 0, "child": [{"delta": 0, "child": [
                    {"delta": 0, "child": "o1"}, {"delta": 0}]}]}],
                "lottery[0].child[0].child[1]: needs both delta and child",
            ),
            (
                [{"delta": 0, "child": [{"delta": 0, "child": "o1"}]},
                 {"delta": "x", "child": "o2"}],
                "lottery[1].delta: expected a non-negative integer or \"inf\", got 'x'",
            ),
        ],
    )
    def test_shape_defects(self, lottery, message):
        with pytest.raises(ParseError) as caught:
            parse_problem(self.lottery_doc(lottery))
        assert str(caught.value) == message

    def test_unknown_leaf_at_depth_two(self):
        from kappacalc.errors import UnknownPrize

        doc = self.lottery_doc([{"delta": 0, "child": [{"delta": 0, "child": "o9"}]}])
        with pytest.raises(UnknownPrize) as caught:
            parse_problem(doc)
        assert str(caught.value) == "prize 'o9' is not in the prize set"
        assert validate_problem(doc) == [
            "lottery: UnknownPrize: prize 'o9' is not in the prize set"
        ]

    def test_unnormalized_inner_node(self):
        from kappacalc.errors import NotNormalized

        doc = self.lottery_doc([{"delta": 0, "child": [{"delta": 1, "child": "o1"},
                                                      {"delta": 2, "child": "o2"}]}])
        with pytest.raises(NotNormalized) as caught:
            parse_problem(doc)
        assert str(caught.value) == "S1 violated: minimum branch delta is 1, expected 0"


ENTRY = "expected an object with delta and child"


class TestEntryShapes:
    """Every refusal of a malformed branch entry, at the top and nested.

    The message is checked through parse_problem and through the CLI, which
    prints it after "parse error: " and exits 2 under every command.
    """

    @staticmethod
    def at_top(entry) -> list:
        return [{"delta": 0, "child": "o1"}, entry]

    @staticmethod
    def nested(entry) -> list:
        return [{"delta": 0, "child": [{"delta": 0, "child": "o2"}, entry]}]

    @pytest.mark.parametrize(
        "entry, defect",
        [
            ("ab", ENTRY),
            ([0, "o1"], ENTRY),
            (7, ENTRY),
            (None, ENTRY),
            ({"delta": 0, "child": "o1", "x": 1}, "unknown keys ['x']"),
            ({"delta": 0}, "needs both delta and child"),
        ],
        ids=["string", "list", "int", "null", "three-keys", "only-delta"],
    )
    @pytest.mark.parametrize("where", ["top", "nested"])
    def test_message_and_exit_code(self, entry, defect, where, tmp_path, capsys):
        from kappacalc import cli

        if where == "top":
            lottery, message = self.at_top(entry), f"lottery[1]: {defect}"
        else:
            lottery, message = self.nested(entry), f"lottery[0].child[1]: {defect}"
        text = TestNestedErrorMessages.lottery_doc(lottery)
        with pytest.raises(ParseError) as caught:
            parse_problem(text)
        assert str(caught.value) == message
        f = tmp_path / "entry.json"
        f.write_text(text, encoding="utf-8")
        for command in ("validate", "reduce"):
            assert cli.main([command, str(f)]) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"parse error: {message}\n")

    @pytest.mark.parametrize(
        "lottery",
        [[], [{"delta": 0, "child": []}], [{"delta": 0, "child": [{"delta": 0, "child": []}]}]],
        ids=["top", "child", "grandchild"],
    )
    def test_empty_branch_list(self, lottery, tmp_path, capsys):
        from kappacalc import cli
        from kappacalc.errors import EmptyBranches

        text = TestNestedErrorMessages.lottery_doc(lottery)
        with pytest.raises(EmptyBranches) as caught:
            parse_problem(text)
        assert str(caught.value) == "a lottery node needs at least one branch"
        f = tmp_path / "empty.json"
        f.write_text(text, encoding="utf-8")
        assert cli.main(["reduce", str(f)]) == 1
        assert capsys.readouterr().err == (
            "error: EmptyBranches: a lottery node needs at least one branch\n")
        assert cli.main(["validate", str(f)]) == 1
        assert capsys.readouterr().out == (
            "lottery: EmptyBranches: a lottery node needs at least one branch\n")


class TestValidateCollection:
    def test_clean_file(self):
        assert validate_problem(problem_text("earthquake.json")) == []

    def test_collects_all_sections(self):
        diags = validate_problem(data_text("bad_two_sections.json"))
        assert len(diags) == 2
        assert any("assessment" in d and "InvalidAssessment" in d for d in diags)
        assert any("lottery" in d and "NotNormalized" in d for d in diags)

    def test_assessment_endpoint_message(self):
        diags = validate_problem(data_text("bad_assessment.json"))
        assert diags == [
            "assessment: InvalidAssessment: o1 must map to (0,inf), got (0, 3)"
        ]

    def test_broken_prizes_short_circuits(self):
        diags = validate_problem('{"prizes": ["a"], "lottery": "a"}')
        assert len(diags) == 1
        assert diags[0].startswith("prizes:")

    def test_decision_skipped_when_assessment_invalid(self):
        text = (
            '{"prizes": ["o1", "o2"],'
            ' "assessment": {"o1": [0, 3], "o2": ["inf", 0]},'
            ' "decision": {"states": ["s1"], "belief": [0], "acts": ["A"],'
            ' "outcome": {"A": ["o1"]}}}'
        )
        diags = validate_problem(text)
        assert any(d.startswith("assessment:") for d in diags)
        assert any("skipped" in d for d in diags)


def emitted(doc: dict) -> dict:
    """The document as emitted, after checking it survives JSON text unchanged."""
    assert json.loads(dumps(doc)) == doc
    return doc


class TestRoundTrips:
    def test_simple_lottery(self):
        assert emitted(emit_simple_lottery(SimpleLottery(O3, (0, INF, 2)))) == {
            "prizes": ["o1", "o2", "o3"], "deltas": [0, "inf", 2]}
        assert emitted(emit_simple_lottery(SimpleLottery(O3, (4, 0, 0)))) == {
            "prizes": ["o1", "o2", "o3"], "deltas": [4, 0, 0]}

    def test_utility_value(self):
        for v, doc in [
            (UtilityValue(0, INF), {"value": [0, "inf"], "scalar": "+inf"}),
            (UtilityValue(INF, 0), {"value": ["inf", 0], "scalar": "-inf"}),
            (UtilityValue(0, 0), {"value": [0, 0], "scalar": 0}),
            (UtilityValue(5, 0), {"value": [5, 0], "scalar": -5}),
            (UtilityValue(0, 12), {"value": [0, 12], "scalar": 12}),
        ]:
            assert emitted(emit_utility_value(v)) == doc

    def test_ranking(self):
        utility_order = [("A", UtilityValue(0, 5)), ("B", UtilityValue(0, 1))]
        maximin_order = [("B", 1), ("A", 2)]
        doc = emitted(emit_ranking(utility_order, maximin_order, O3))
        assert doc["disagreement"] is True
        assert doc["maximin"][0]["worst_prize"] == "o2"
        assert doc == {
            "utility": [
                {"act": "A", "value": [0, 5], "scalar": 5},
                {"act": "B", "value": [0, 1], "scalar": 1},
            ],
            "maximin": [
                {"act": "B", "worst_index": 1, "worst_prize": "o2"},
                {"act": "A", "worst_index": 2, "worst_prize": "o3"},
            ],
            "disagreement": True,
        }

    def test_bridge_report(self):
        doc = emit_bridge(OrderAgreement(SimpleLottery(O3, (0, 1, 2)), 0, 0, 0, 0.9450000000000001))
        assert emitted(doc) == {
            "spohnian": {"prizes": ["o1", "o2", "o3"], "deltas": [0, 1, 2]},
            "kappa_of_eu": 0, "qualitative_eu": 0, "gap": 0, "eu": 0.9450000000000001,
        }

    def test_round_trip_survives_serialization(self):
        # through actual JSON text, not just dict identity
        sl = SimpleLottery(O3, (0, INF, 7))
        assert json.loads(dumps(emit_simple_lottery(sl))) == {
            "prizes": ["o1", "o2", "o3"], "deltas": [0, "inf", 7]}
        report = OrderAgreement(sl, 2, 1, 1, 0.0123456789)
        assert json.loads(dumps(emit_bridge(report))) == {
            "spohnian": {"prizes": ["o1", "o2", "o3"], "deltas": [0, "inf", 7]},
            "kappa_of_eu": 2, "qualitative_eu": 1, "gap": 1, "eu": 0.0123456789,
        }

    def test_dumps_is_canonical(self):
        text = dumps({"b": 1, "a": ["inf"]})
        assert text == '{\n  "a": [\n    "inf"\n  ],\n  "b": 1\n}\n'
        with pytest.raises(ValueError):
            dumps({"x": INF})  # raw infinities must never reach the encoder
