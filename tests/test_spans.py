"""Source-span fidelity: parser → AST round trips.

Every rule and literal the parser produces should carry a span that
points back at exactly the text it was parsed from, including across
multi-line rules and comment-heavy sources.
"""

import pytest

from repro.parser import parse_program, parse_rule
from repro.span import Span


def span_text(source: str, span: Span) -> str:
    """The exact source slice a span covers."""
    lines = source.split("\n")
    if span.line == span.end_line:
        return lines[span.line - 1][span.column - 1 : span.end_column - 1]
    parts = [lines[span.line - 1][span.column - 1 :]]
    parts.extend(lines[span.line : span.end_line - 1])
    parts.append(lines[span.end_line - 1][: span.end_column - 1])
    return "\n".join(parts)


class TestSpanBasics:
    def test_str(self):
        assert str(Span(2, 1, 2, 20)) == "2:1-20"
        assert str(Span(3, 1, 5, 13)) == "3:1-5:13"

    def test_merge(self):
        merged = Span(1, 5, 1, 9).merge(Span(2, 1, 2, 4))
        assert merged == Span(1, 5, 2, 4)

    def test_to_dict_keys(self):
        assert Span(1, 2, 3, 4).to_dict() == {
            "line": 1,
            "column": 2,
            "end_line": 3,
            "end_column": 4,
        }

    def test_source_line(self):
        text = "first\nsecond\nthird"
        assert Span(2, 1, 2, 7).source_line(text) == "second"

    def test_spans_do_not_affect_equality(self):
        a = parse_rule("T(x, y) :- G(x, y).")
        b = parse_rule("  T(x, y)   :-   G(x, y).")
        assert a == b
        assert a.span != b.span


class TestRuleSpans:
    def test_single_line_rule(self):
        source = "T(x, y) :- G(x, y)."
        rule = parse_program(source).rules[0]
        assert span_text(source, rule.span) == source

    def test_rule_span_excludes_surrounding_rules(self):
        source = "A(x) :- B(x).\nC(x) :- D(x).\nE(x) :- F(x)."
        rules = parse_program(source).rules
        assert [span_text(source, r.span) for r in rules] == [
            "A(x) :- B(x).",
            "C(x) :- D(x).",
            "E(x) :- F(x).",
        ]
        assert [r.span.line for r in rules] == [1, 2, 3]

    def test_multi_line_rule(self):
        source = "T(x, y) :-\n    G(x, z),\n    T(z, y)."
        rule = parse_program(source).rules[0]
        assert rule.span == Span(1, 1, 3, 13)
        assert span_text(source, rule.span) == source

    def test_multi_line_rule_after_others(self):
        source = (
            "T(x, y) :- G(x, y).\n"
            "T(x, y) :-\n"
            "    G(x, z),\n"
            "    T(z, y)."
        )
        second = parse_program(source).rules[1]
        assert second.span.line == 2
        assert second.span.end_line == 4
        assert span_text(source, second.span) == (
            "T(x, y) :-\n    G(x, z),\n    T(z, y)."
        )

    def test_comment_heavy_source(self):
        source = (
            "% transitive closure\n"
            "\n"
            "% base case\n"
            "T(x, y) :- G(x, y).  % copy the graph\n"
            "\n"
            "% inductive case, split over lines\n"
            "T(x, y) :-\n"
            "    % hop first\n"
            "    G(x, z),\n"
            "    T(z, y).\n"
        )
        rules = parse_program(source).rules
        assert rules[0].span.line == 4
        assert span_text(source, rules[0].span) == "T(x, y) :- G(x, y)."
        assert rules[1].span.line == 7
        assert rules[1].span.end_line == 10
        # The body literal after an interior comment still points home.
        hop = rules[1].body[0]
        assert span_text(source, hop.span) == "G(x, z)"

    def test_fact_span(self):
        source = "G('a', 'b')."
        rule = parse_program(source).rules[0]
        assert span_text(source, rule.span) == source


class TestLiteralSpans:
    def test_head_and_body_literals(self):
        source = "CT(x, y) :- not T(x, y), V(x), V(y)."
        rule = parse_program(source).rules[0]
        assert span_text(source, rule.head[0].span) == "CT(x, y)"
        assert span_text(source, rule.body[0].span) == "not T(x, y)"
        assert span_text(source, rule.body[1].span) == "V(x)"
        assert span_text(source, rule.body[2].span) == "V(y)"

    def test_negated_head_literal(self):
        source = "not T(x) :- H(x)."
        rule = parse_program(source).rules[0]
        assert span_text(source, rule.head[0].span) == "not T(x)"

    def test_equality_literal(self):
        source = "P(x) :- S(x, y), x != y."
        rule = parse_program(source).rules[0]
        assert span_text(source, rule.body[1].span) == "x != y"

    def test_multi_head_spans(self):
        source = "A(x), !B(x) :- S(x)."
        rule = parse_program(source).rules[0]
        assert span_text(source, rule.head[0].span) == "A(x)"
        assert span_text(source, rule.head[1].span) == "!B(x)"

    def test_negate_preserves_span(self):
        rule = parse_rule("P(x) :- Q(x).")
        lit = rule.body[0]
        assert lit.negate().span == lit.span

    def test_multi_line_literal(self):
        source = "P(x,\n  y) :- Q(x,\n        y)."
        rule = parse_program(source).rules[0]
        assert span_text(source, rule.head[0].span) == "P(x,\n  y)"
        assert span_text(source, rule.body[0].span) == "Q(x,\n        y)"


class TestProgramSource:
    def test_program_keeps_source_text(self):
        source = "T(x, y) :- G(x, y)."
        program = parse_program(source, name="tc")
        assert program.source_text == source
        assert program.with_rules(program.rules).source_text == source

    def test_parse_error_carries_position(self):
        from repro.errors import ParseError

        with pytest.raises(ParseError) as err:
            parse_program("A(x) :- B(x)\nC(x) :- D(x).")
        assert err.value.line is not None

    @pytest.mark.parametrize("source, error, position", [
        # The clashing literal, where ``repro lint`` reports DL006.
        ("p(x) :- q(x).\nr(x) :- q(x, y).", "SchemaError", (2, 9)),
        # The rule whose universal variable is not in its body.
        ("A(x) :- B(x).\n  P(x) :- forall yy: Q(x).", "ProgramError", (2, 3)),
    ], ids=["arity_clash", "universal_not_in_body"])
    def test_program_errors_carry_position(self, source, error, position):
        import repro.errors

        with pytest.raises(getattr(repro.errors, error)) as err:
            parse_program(source)
        assert (err.value.line, err.value.column) == position
        assert str(err.value).endswith(
            f" at line {position[0]}, column {position[1]}"
        )
