"""The lint driver: run every pass, return every finding.

:func:`lint` takes a constructed :class:`~repro.ast.program.Program`
(or a raw rule list) and returns a :class:`LintReport` — the classifier
verdict plus the concatenated findings of every pass, sorted by source
position.  :func:`lint_source` goes one layer further down and accepts
raw surface syntax, so parse errors and arity clashes (which make
``Program`` construction impossible) surface as DL000/DL006 diagnostics
instead of exceptions.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.analysis.classifier import DialectReport, classify
from repro.analysis.diagnostics import Diagnostic, Severity, make_diagnostic
from repro.analysis.passes import ALL_PASSES, LintContext
from repro.ast.program import Dialect, Program
from repro.ast.rules import Rule
from repro.errors import ParseError
from repro.span import Span

#: Version of the JSON output schema; bump on any breaking key change.
#: v2 (additive): per-program "suppressed" list + summary count.
JSON_SCHEMA_VERSION = 2

#: ``# lint: disable=DL003`` (or ``%``); several codes comma-separated.
_PRAGMA_RE = re.compile(r"[%#]\s*lint:\s*disable=([A-Za-z0-9_,\s-]+)")


def suppressions_in(text: str) -> dict[int, frozenset[str]]:
    """Line → codes suppressed there, from inline pragma comments.

    A pragma trailing a line of code anchors to that line; a pragma on
    a line of its own anchors to the next line that carries code (so it
    can sit above the rule it silences).  The scan works on the raw
    source because the lexer drops comments before the parser ever sees
    them.
    """
    lines = text.splitlines()

    def has_code(line: str) -> bool:
        for i, ch in enumerate(line):
            if ch in "%#":
                return bool(line[:i].strip())
        return bool(line.strip())

    out: dict[int, set[str]] = {}
    pending: set[str] = set()
    for number, line in enumerate(lines, start=1):
        match = _PRAGMA_RE.search(line)
        codes = (
            {
                code.strip().upper()
                for code in match.group(1).split(",")
                if code.strip()
            }
            if match
            else set()
        )
        if has_code(line):
            anchored = pending | codes
            if anchored:
                out.setdefault(number, set()).update(anchored)
            pending = set()
        elif codes:
            pending |= codes
    return {number: frozenset(codes) for number, codes in out.items()}


@dataclass
class LintReport:
    """Everything ``repro lint`` knows about one program."""

    name: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    dialect: DialectReport | None = None
    source_text: str | None = None
    #: Findings silenced by inline ``# lint: disable=…`` pragmas; kept
    #: (and serialized) so suppressions stay visible, but they never
    #: count toward severity or exit codes.
    suppressed: list[Diagnostic] = field(default_factory=list)

    def by_severity(self, severity: Severity) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    @property
    def errors(self) -> list[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> list[Diagnostic]:
        return self.by_severity(Severity.WARNING)

    @property
    def infos(self) -> list[Diagnostic]:
        return self.by_severity(Severity.INFO)

    def codes(self) -> set[str]:
        return {d.code for d in self.diagnostics}

    def fails(self, threshold: Severity) -> bool:
        """Any finding at or above ``threshold``?  (Exit-code question.)"""
        return any(d.severity >= threshold for d in self.diagnostics)

    def ok(self, strict: bool = False) -> bool:
        """Clean at the given strictness?  INFO findings never fail."""
        return not self.fails(Severity.WARNING if strict else Severity.ERROR)

    def to_dict(self) -> dict[str, Any]:
        """JSON-stable rendering; the key set is part of the schema."""
        return {
            "name": self.name,
            "dialect": self.dialect.to_dict() if self.dialect else None,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "suppressed": [d.to_dict() for d in self.suppressed],
            "summary": {
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "infos": len(self.infos),
                "suppressed": len(self.suppressed),
            },
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(
            {"version": JSON_SCHEMA_VERSION, "programs": [self.to_dict()]},
            indent=indent,
            ensure_ascii=False,
        )

    def render(self) -> str:
        """The human-readable report, one line per finding."""
        lines: list[str] = []
        for diagnostic in self.diagnostics:
            lines.append(diagnostic.render(self.name))
            if self.source_text and diagnostic.span:
                quoted = diagnostic.span.source_line(self.source_text)
                if quoted is not None:
                    lines.append(f"    | {quoted.rstrip()}")
        if self.dialect is not None:
            lines.append(
                f"{self.name or '<program>'}: "
                f"dialect {self.dialect.rung.value}"
                + (
                    f" (negative cycle: {self.dialect.cycle_text()})"
                    if self.dialect.negative_cycle
                    else ""
                )
            )
        summary = (
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.infos)} info(s)"
        )
        if self.suppressed:
            summary += f", {len(self.suppressed)} suppressed"
        lines.append(summary)
        return "\n".join(lines)


def _sort_key(diagnostic: Diagnostic):
    span = diagnostic.span
    return (
        span.line if span else 1 << 30,
        span.column if span else 0,
        diagnostic.code,
        diagnostic.message,
    )


def _apply_suppressions(report: LintReport) -> LintReport:
    """Move pragma-silenced findings to ``report.suppressed``."""
    if not report.source_text:
        return report
    by_line = suppressions_in(report.source_text)
    if not by_line:
        return report
    kept: list[Diagnostic] = []
    for diagnostic in report.diagnostics:
        codes = by_line.get(diagnostic.span.line) if diagnostic.span else None
        if codes and diagnostic.code in codes:
            report.suppressed.append(diagnostic)
        else:
            kept.append(diagnostic)
    report.diagnostics = kept
    return report


def lint(
    program: Program | Iterable[Rule],
    dialect: Dialect | None = None,
    outputs: Iterable[str] = (),
    edb: Iterable[str] | None = None,
    name: str | None = None,
    database=None,
    query: tuple[str, tuple] | None = None,
) -> LintReport:
    """Run every lint pass; return all findings instead of raising.

    ``dialect`` declares the intended rung — safety is then checked
    against it; by default the classifier's inferred rung is used (so a
    typo that *changes* the rung shows up as classifier evidence rather
    than a safety error).  ``outputs`` names the intended answer
    relations (silences DL004 for them); ``edb`` declares the
    extensional schema when known (sharpens DL009).  ``database``
    supplies live facts (sharpens the DL012 disjointness proof);
    ``query`` is a ``(relation, pattern)`` pair that turns on the
    query-scoped findings DL013/DL016.
    """
    if isinstance(program, Program):
        rules = program.rules
        built: Program | None = program
    else:
        rules = tuple(program)
        built = Program(rules) if rules else None

    report = classify(built) if built is not None else None
    ctx = LintContext(
        rules=rules,
        program=built,
        dialect=dialect if dialect is not None else (
            report.rung if report else None
        ),
        dialect_declared=dialect is not None,
        report=report,
        outputs=frozenset(outputs),
        edb=frozenset(edb) if edb is not None else None,
        database=database,
        query=query,
    )
    diagnostics: list[Diagnostic] = []
    for lint_pass in ALL_PASSES:
        diagnostics.extend(lint_pass(ctx))
    diagnostics.sort(key=_sort_key)

    lint_report = LintReport(
        name=name if name is not None else (built.name if built else ""),
        diagnostics=diagnostics,
        dialect=report,
        source_text=built.source_text if built else None,
    )
    return _apply_suppressions(lint_report)


def lint_source(
    text: str,
    name: str = "",
    dialect: Dialect | None = None,
    outputs: Iterable[str] = (),
    edb: Iterable[str] | None = None,
    database=None,
    query: tuple[str, tuple] | None = None,
) -> LintReport:
    """Lint surface syntax; parse and schema failures become diagnostics."""
    from repro.errors import SchemaError
    from repro.parser.parser import parse_program, parse_rules

    try:
        program = parse_program(text, name=name)
    except ParseError as err:
        span = None
        if err.line is not None:
            column = err.column if err.column is not None else 1
            span = Span(err.line, column, err.line, column + 1)
        return LintReport(
            name=name,
            diagnostics=[make_diagnostic("DL000", str(err), span=span)],
            source_text=text,
        )
    except SchemaError:
        # Arity clash: Program cannot exist.  Run the rule-local passes
        # over the rules (arity_pass pinpoints every clash with a span).
        rules = tuple(parse_rules(text))
    else:
        report = lint(
            program, dialect=dialect, outputs=outputs, edb=edb, name=name,
            database=database, query=query,
        )
        report.source_text = text
        return report

    from repro.analysis.passes import (
        arity_pass,
        cartesian_pass,
        duplicate_pass,
        negation_pass,
        singleton_pass,
    )

    ctx = LintContext(rules=rules, dialect=dialect, outputs=frozenset(outputs))
    diagnostics: list[Diagnostic] = []
    for lint_pass in (
        negation_pass, singleton_pass, arity_pass, duplicate_pass,
        cartesian_pass,
    ):
        diagnostics.extend(lint_pass(ctx))
    if dialect is not None:
        from repro.analysis.passes import safety_pass

        diagnostics.extend(safety_pass(ctx))
    diagnostics.sort(key=_sort_key)
    return _apply_suppressions(
        LintReport(name=name, diagnostics=diagnostics, source_text=text)
    )


def reports_to_json(reports: list[LintReport], indent: int | None = 2) -> str:
    """Serialize several program reports under one schema envelope."""
    return json.dumps(
        {
            "version": JSON_SCHEMA_VERSION,
            "programs": [r.to_dict() for r in reports],
        },
        indent=indent,
        ensure_ascii=False,
    )
