import json
import pickle
import random
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kappacalc import (
    INF,
    EpsilonBase,
    Leaf,
    Node,
    OrderAgreement,
    PrizeSet,
    SimpleLottery,
    UtilityValue,
    evaluate,
    maximin_rank,
    order_agreement,
    rank_acts,
)
from kappacalc import problemfile
from kappacalc.errors import (
    DuplicateLabel,
    EmptyList,
    KappaCalcError,
    NotNormalized,
    OutOfRange,
    ParseError,
    UnknownPrize,
)
from kappacalc.problemfile import (
    dumps,
    emit_bridge,
    emit_diagnostics,
    emit_ranking,
    emit_simple_lottery,
    emit_utility_value,
    parse_problem,
    validate_problem,
)

from conftest import PROBLEMS, data_text, problem_text, random_lottery, random_prizes
from oracles import path_sum_reduce
from test_cli_golden import CASES, replay

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
        assert pf.epsilon == EpsilonBase(2.0)

    def test_prob_lottery_epsilon_is_checked(self):
        doc = ('{"prizes": ["a", "b"], "prob_lottery":'
               ' {"probs": [0.5, 0.5], "utils": [1, 0], "epsilon": %s}}')
        for raw, shown in (("0.5", "0.5"), ("1e999", "inf"), ("1", "1.0")):
            with pytest.raises(OutOfRange, match="epsilon must be finite and > 1"):
                parse_problem(doc % raw)
            assert validate_problem(doc % raw) == [
                f"prob_lottery: OutOfRange: epsilon must be finite and > 1, got {shown}"
            ]
        for raw, shown in (('"10"', "'10'"), ("true", "True"), ("null", "None"), ("[2]", "[2]")):
            with pytest.raises(ParseError) as refused:
                parse_problem(doc % raw)
            assert str(refused.value) == f"prob_lottery.epsilon: expected a number, got {shown}"

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
        decision = ('{"prizes": ["o1", "o2"], "assessment": {"o1": [0, "inf"], "o2": ["inf", 0]},'
                    ' "decision": {"states": %s, "belief": %s, "acts": %s, "outcome": %s}}')
        prob = '{"prizes": ["o1", "o2"], "prob_lottery": {"probs": %s, "utils": %s}}'
        for text, message in [
            ('{"prizes": ["o1", "o2"], "prob_lottery": [0.5, 0.5]}',
             "prob_lottery: expected an object"),
            # one row for each key _need reads, with a value of the wrong kind
            ('{"prizes": 5}', "document: 'prizes' must be a list"),
            (decision % ("5", "[0]", '["A"]', '{"A": ["o1"]}'),
             "decision: 'states' must be a list"),
            (decision % ('["s"]', "5", '["A"]', '{"A": ["o1"]}'),
             "decision: 'belief' must be a list"),
            (decision % ('["s"]', "[0]", '"A"', '{"A": ["o1"]}'),
             "decision: 'acts' must be a list"),
            (decision % ('["s"]', "[0]", '["A"]', "5"), "decision: 'outcome' must be a dict"),
            (prob % ("5", "[1, 0]"), "prob_lottery: 'probs' must be a list"),
            (prob % ("[0.5, 0.5]", "5"), "prob_lottery: 'utils' must be a list"),
            ('{"lottery": "o1"}', "document: missing required key 'prizes'"),
            ('{"prizes": ["o1", "o2"], "prob_lottery": {"probs": [0.5, "0.5"], "utils": [1, 0]}}',
             "prob_lottery.probs: expected a number, got '0.5'"),
            ('{"prizes": ["o1", "o2"], "prob_lottery": {"probs": [0.5, 0.5], "utils": [true, 0]}}',
             "prob_lottery.utils: expected a number, got True"),
        ]:
            with pytest.raises(ParseError) as refused:
                parse_problem(text)
            assert str(refused.value) == message

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

    TWO = '["s1", "s2"]'  # the states of every row but the last three

    @pytest.mark.parametrize("states, acts, belief, outcome, error, message", [
        (TWO, '["A", "B"]', "[0, 0]", '{"A": ["o1", "zz"], "B": ["o1", 7]}', ParseError,
         "decision.outcome['B']: expected a list of strings"),
        (TWO, '["A", "B"]', "[0, 0]", '{"A": ["o1", "zz"], "B": "o1"}', ParseError,
         "decision.outcome['B']: expected a list of strings"),
        (TWO, '["A", "B"]', "[0, 0]", '{"A": ["o1", "zz"], "B": ["o1", "o2"]}', UnknownPrize,
         "prize 'zz' is not in the prize set"),
        (TWO, '["A", "B"]', "[0, 0]", '{"A": null, "B": ["o1", "o2"]}', ParseError,
         "decision.outcome['A']: expected a list of strings"),
        (TWO, '["A", "B"]', "[0, 0]", '{"B": ["o1", "o2"]}', ParseError,
         "decision.outcome: no row for act 'A'"),
        (TWO, '["A", "B"]', "[0, 0]", '{"A": ["o1", null], "B": ["o1"]}', ParseError,
         "decision.outcome['A']: expected a list of strings"),
        (TWO, '["A", "B"]', "[0, 0]", '{"A": ["o1"], "B": ["o1", null]}', ParseError,
         "decision.outcome['A']: 1 entries for 2 states"),
        (TWO, '["A", "B"]', "[1, 2]", '{"A": ["o1", "o2"], "B": [true, "o2"]}', ParseError,
         "decision.outcome['B']: expected a list of strings"),
        (TWO, '["A", "B"]', "[1, 2]", '{"A": ["o1", "o2"], "B": ["o2", "o2"]}', NotNormalized,
         "S1 violated: minimum degree is 1, expected 0"),
        (TWO, '["A", "A"]', "[0, 0]", '{"A": {"o1": 0, "o2": 1}}', ParseError,
         "decision.outcome['A']: expected a list of strings"),
        (TWO, '["A"]', "[0, 0]", '{"A": {"o1": 0, "o2": 1}}', ParseError,
         "decision.outcome['A']: expected a list of strings"),
        (TWO, "[]", "[0, 0]", "{}", EmptyList, "a decision problem needs at least one act"),
        (TWO, '["A", "B"]', "[0, 0]", '{"A": ["o1", "o2"], "B": ["o1", ["o2"]]}', ParseError,
         "decision.outcome['B']: expected a list of strings"),
        ('["s1", "s1"]', '["A"]', "[0, 0]", '{"A": 5}', ParseError,
         "decision.outcome['A']: expected a list of strings"),
        ('["s1", "s1"]', '["A"]', "[0, 0]", '{"A": ["o1", "o2"]}', DuplicateLabel,
         "frame labels repeat: ('s1', 's1')"),
        ("[]", '["A"]', "[]", '{"A": ["o1"]}', ParseError,
         "decision.outcome['A']: 1 entries for 0 states"),
    ], ids=["bad-prize-then-non-string", "bad-prize-then-non-list", "bad-prize",
            "null-row", "missing-row", "non-string-then-short", "short-then-non-string",
            "unnormalized-and-non-string", "unnormalized", "duplicate-acts-and-dict-row",
            "dict-row", "no-acts", "unhashable-label", "duplicate-states-and-non-list",
            "duplicate-states", "no-states-and-long-row"])
    def test_decision_defects_are_reported_in_precedence_order(
            self, states, acts, belief, outcome, error, message):
        # rows in act order, each for presence, type, labels' type, then length,
        # all before any calculus error of the states, the belief or the table
        text = (
            '{"prizes": ["o1", "o2"],'
            ' "assessment": {"o1": [0, "inf"], "o2": ["inf", 0]},'
            f' "decision": {{"states": {states}, "belief": {belief}, "acts": {acts},'
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
            (5, "lottery: expected a prize name or a list of branches"),
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


def decoded(lottery) -> object:
    """The decoded JSON value that spells a lottery, written without recursion."""
    if type(lottery) is Leaf:
        return lottery.prize
    top = []
    todo = [(lottery, top)]
    while todo:
        node, out = todo.pop()
        for d, child in node.branches:
            entry = {"delta": "inf" if d == INF else d,
                     "child": child.prize if type(child) is Leaf else []}
            if type(child) is Node:
                todo.append((child, entry["child"]))
            out.append(entry)
    return top


def built_bottom_up(value: object, prizes: PrizeSet):
    """A decoded lottery built with the public, checking constructors."""
    if type(value) is str:
        return Leaf(value, prizes)
    return Node([(INF if e["delta"] == "inf" else e["delta"], built_bottom_up(e["child"], prizes))
                 for e in value])


def full_tree(prizes: PrizeSet, fanout: int, height: int, rng: random.Random):
    level = [Leaf(rng.choice(prizes.prizes), prizes) for _ in range(fanout ** height)]
    for _ in range(height):
        level = [Node(zip([0] + [rng.choice([0, 1, 3, INF]) for _ in range(fanout - 1)],
                          level[i:i + fanout]))
                 for i in range(0, len(level), fanout)]
    return level[0]


def chain(prizes: PrizeSet, depth: int, rng: random.Random):
    """Each level is (0, deeper) and (d, a leaf), d sometimes INF."""
    tree = Leaf(prizes.best, prizes)
    for _ in range(depth):
        tree = Node(((0, tree), (rng.choice([1, 2, 7, INF]), Leaf(rng.choice(prizes.prizes),
                                                                  prizes))))
    return tree


class TestParserBuildsWhatNodeBuilds:
    """The parser composes through `Node._from_checked` without `Node(...)`'s
    checks; what it builds must be the tree `Node(...)` builds from the same
    branches, and a defect must give the same diagnostic."""

    @staticmethod
    def assert_same(parsed, built, oracle=True):
        assert type(parsed) is Node and type(built) is Node
        assert parsed == built and built == parsed
        assert parsed.deltas == built.deltas
        assert parsed.prizes == built.prizes
        assert type(parsed.branches) is tuple and {tuple} == set(map(type, parsed.branches))
        assert hash(parsed) == hash(built)
        assert repr(parsed) == repr(built)
        twin = pickle.loads(pickle.dumps(parsed))
        assert twin == built and twin.deltas == built.deltas
        if oracle:  # the oracle recurses once per level
            assert path_sum_reduce(parsed) == built.reduce() == parsed.reduce()

    @staticmethod
    def parsed(tree):
        doc = {"prizes": list(tree.prizes), "lottery": decoded(tree)}
        return parse_problem(json.dumps(doc)).lottery

    def test_random_trees(self):
        rng = random.Random(20080515)
        for _ in range(300):
            prizes = random_prizes(rng)
            tree = random_lottery(rng, prizes, depth=rng.randint(1, 5), max_branch=5)
            if type(tree) is Leaf:
                tree = Node(((0, tree), (rng.choice([1, INF]), tree)))
            self.assert_same(self.parsed(tree), tree)

    @pytest.mark.parametrize("fanout, height", [(1, 3), (2, 6), (6, 3), (4, 4)])
    def test_full_trees(self, fanout, height):
        rng = random.Random(fanout * 10 + height)
        tree = full_tree(PrizeSet(("a", "b", "c", "d", "e", "f")), fanout, height, rng)
        self.assert_same(self.parsed(tree), tree)

    def test_ragged_trees_and_inf_branches(self):
        o = PrizeSet(("a", "b", "c", "d"))
        a, b, c, d = (Leaf(p, o) for p in o)
        deep = Node(((0, Node(((0, Node(((INF, a), (0, d))),), (2, b)))), (1, c)))
        trees = [
            Node(((0, a), (INF, b))),
            Node(((INF, a), (0, deep), (INF, Node(((0, c),))))),
            Node(((3, deep), (0, b), (0, Node(((0, a), (4, deep)))), (INF, deep))),
            Node(((0, Node(((0, Node(((0, d),))),))),)),
        ]
        for tree in trees:
            self.assert_same(self.parsed(tree), tree)

    @pytest.mark.parametrize("depth", [1_000, 10_000])
    def test_deep_chains(self, depth):
        # json.loads refuses nesting this deep (ROADMAP L), so the builder
        # gets the decoded document that parse_problem would hand it
        o = PrizeSet(("a", "b", "c"))
        tree = chain(o, depth, random.Random(depth))
        parsed = problemfile._parse_lottery(decoded(tree), o)
        self.assert_same(parsed, tree, oracle=False)
        best = dict.fromkeys(o, INF)
        best["a"] = 0
        node = tree
        while type(node) is Node:
            (_, node), (d, leaf) = node.branches
            best[leaf.prize] = min(best[leaf.prize], d)
        assert parsed.deltas == tuple(best.values())

    @pytest.mark.parametrize(
        "lottery",
        [
            [{"delta": 0, "child": [{"delta": 1, "child": "o1"}, {"delta": 0, "child": []}]}],
            [{"delta": 0, "child": [{"delta": 0, "child": [{"delta": 0, "child": [
                {"delta": 1, "child": "o1"}, {"delta": 2, "child": "o2"}]}]}]},
             {"delta": 4, "child": "o3"}],
            [{"delta": 0, "child": "o1"}, {"delta": 0, "child": [{"delta": 0, "child": "o9"}]}],
        ],
        ids=["empty-branches", "not-normalized-three-down", "unknown-prize"],
    )
    def test_validate_diagnostics(self, lottery):
        with pytest.raises(KappaCalcError) as caught:
            built_bottom_up(lottery, O3)
        expected = f"lottery: {type(caught.value).__name__}: {caught.value}"
        assert validate_problem(TestNestedErrorMessages.lottery_doc(lottery)) == [expected]


class TestManyLabels:
    """Acts and prizes are looked up by hash, so 20,000 of them parse within a second."""

    N = 20_000

    @staticmethod
    def timed_parse(doc: dict):
        text = json.dumps(doc)
        start = time.perf_counter()
        problem = parse_problem(text)
        return problem, time.perf_counter() - start

    def test_decision_with_many_acts(self):
        acts = [f"a{i}" for i in range(self.N)]
        problem, seconds = self.timed_parse({
            "prizes": ["o1", "o2"], "assessment": {"o1": [0, "inf"], "o2": ["inf", 0]},
            "decision": {"states": ["s", "t"], "belief": [0, 1], "acts": acts,
                         "outcome": {a: ["o1", "o2"] for a in acts}}})
        assert len(problem.decision.acts) == self.N
        assert seconds < 1, f"{self.N} acts took {seconds:.2f} s"

    def test_lottery_and_assessment_with_many_prizes(self):
        n, prizes = self.N, [f"p{i}" for i in range(self.N)]
        scalars = [[0, "inf"], *[[0, n - i] for i in range(1, n - 1)], ["inf", 0]]
        problem, seconds = self.timed_parse({
            "prizes": prizes, "assessment": dict(zip(prizes, scalars)),
            "lottery": [{"delta": 0, "child": prizes[-1]}, {"delta": 2, "child": prizes[0]}]})
        assert problem.lottery.deltas[0] == 2 and problem.lottery.deltas[-1] == 0
        assert problem.assessment.value_of(prizes[-2]) == UtilityValue(0, 2)
        assert seconds < 1, f"{n} prizes took {seconds:.2f} s"


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


def oracle(value: object) -> str:
    """The bytes `dumps` must write, from the stdlib's own encoder."""
    return json.dumps(value, sort_keys=True, indent=2, allow_nan=False) + "\n"


# quotes, backslashes, control characters, DEL, non-ASCII, non-BMP and lone surrogates
TRICKY = st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f\x80\xe9\u2028\uffff\U0001f600\ud800\udfff')
STRINGS = st.text(st.one_of(st.characters(), TRICKY))
DIGITS = sys.get_int_max_str_digits() or 4300  # 0 would mean no limit
NEAR_LIMIT = st.integers(10 ** (DIGITS - 1), 10 ** DIGITS - 1)
INTS = st.one_of(st.integers(), NEAR_LIMIT, NEAR_LIMIT.map(lambda n: -n))
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e16, 0.1 + 0.2, 1.7976931348623157e308]),
)
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), INTS, FLOATS, STRINGS),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(STRINGS, inner, max_size=4),
    max_leaves=12,
)


class TestWriterMatchesJson:
    """`dumps` writes its documents itself; json.dumps is only its oracle here."""

    @settings(derandomize=True, max_examples=400)
    @given(JSON_VALUES)
    @example({})
    @example({"": [], "d": {}, "e": [[], {}, [{}]],
              "n": [-(10 ** DIGITS - 1), 10 ** (DIGITS - 1)],
              "f": [-0.0, 5e-324, 1e16, 0.1 + 0.2, 1.7976931348623157e308],
              "s": "\"\\\x00\x1f\x7f\U0001f600\ud800", "z": [True, False, None]})
    def test_same_bytes_as_json_dumps(self, value):
        assert dumps(value) == oracle(value)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_floats_raise_json_dumps_error(self, bad):
        with pytest.raises(ValueError) as expected:
            oracle({"x": [bad]})
        with pytest.raises(ValueError) as got:
            dumps({"x": [bad]})
        assert str(got.value) == str(expected.value)

    def test_other_types_raise_type_error(self):
        for bad in ({1}, object(), b"x"):
            with pytest.raises(TypeError) as expected:
                oracle({"x": bad})
            with pytest.raises(TypeError) as got:
                dumps({"x": bad})
            assert str(got.value) == str(expected.value)

    def test_every_fixture_document(self):
        docs = []
        for path in sorted(PROBLEMS.glob("*.json")):
            text = path.read_text(encoding="utf-8")
            problem = parse_problem(text)
            docs.append(emit_diagnostics(validate_problem(text)))
            if problem.lottery is not None:
                docs.append(emit_simple_lottery(problem.lottery.reduce()))
                if problem.assessment is not None:
                    docs.append(emit_utility_value(evaluate(problem.lottery, problem.assessment)))
            if problem.decision is not None:
                d = problem.decision
                docs.append(emit_ranking(rank_acts(d), maximin_rank(d), d.prizes))
            if problem.prob_lottery is not None:
                for eps in (10.0, 2.0, 1.01):
                    docs.append(emit_bridge(order_agreement(problem.prob_lottery, EpsilonBase(eps))))
        assert len(docs) > 20
        assert [dumps(doc) for doc in docs] == [oracle(doc) for doc in docs]

    def test_every_golden_json_document(self, monkeypatch):
        docs = []
        monkeypatch.setattr(problemfile, "dumps", lambda doc: docs.append(doc) or dumps(doc))
        json_cases = [case for case in CASES if "--json" in case["args"]]
        for case in json_cases:
            replay(case["args"])
        assert (len(json_cases), len(docs)) == (65, sum(1 for c in json_cases if c["stdout"]))
        assert [dumps(doc) for doc in docs] == [oracle(doc) for doc in docs]
