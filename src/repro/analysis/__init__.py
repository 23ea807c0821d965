"""Static analysis: diagnostics, lints, and the Figure-1 classifier.

The paper's central artifact — which semantics a program *needs* — is a
static property.  This package turns every static check the paper
discusses into first-class, machine-readable diagnostics:

* :mod:`repro.analysis.diagnostics` — the :class:`Diagnostic` model and
  the stable ``DL0xx`` code registry;
* :mod:`repro.analysis.safety` — range restriction per dialect (§3.1,
  Def. 5.1) as diagnostics; the exception-based validator in
  :mod:`repro.ast.analysis` is a thin wrapper over it;
* :mod:`repro.analysis.graph` — negative-cycle witnesses and strata
  levels on the precedence graph (§3.2);
* :mod:`repro.analysis.classifier` — places a program on its exact
  Figure-1 rung with per-feature evidence;
* :mod:`repro.analysis.passes` — the lint passes;
* :mod:`repro.analysis.driver` — :func:`lint` / :func:`lint_source`,
  which run everything and return *all* findings instead of raising on
  the first;
* :mod:`repro.analysis.dataflow` — the monotone-framework abstract
  interpreter: binding-time analysis (adornments + demand cones),
  argument provenance domains, and static cardinality bounds;
* :mod:`repro.analysis.analyze` — ``repro analyze``: the dataflow
  results as a schema-pinned report.

Quickstart::

    from repro.analysis import lint_source

    report = lint_source("p(x, y) :- q(x).", name="bug.dl")
    for diagnostic in report.diagnostics:
        print(diagnostic.render("bug.dl"))
"""

from repro.analysis.diagnostics import (
    CODES,
    CODES_BY_NAME,
    Diagnostic,
    DiagnosticCode,
    Severity,
    make_diagnostic,
)
from repro.analysis.classifier import (
    DialectReport,
    Evidence,
    RUNG_DESCRIPTIONS,
    RUNG_ORDER,
    classify,
)
from repro.analysis.graph import (
    DependencyEdge,
    cycle_edges,
    dependency_edges,
    negative_cycle,
    stratum_levels,
)
from repro.analysis.driver import (
    JSON_SCHEMA_VERSION,
    LintReport,
    lint,
    lint_source,
    reports_to_json,
    suppressions_in,
)
from repro.analysis.dataflow import (
    AdornedRule,
    BindingTimes,
    CardinalityBound,
    Domain,
    MonotoneAnalysis,
    adorn,
    adornment_for,
    argument_domains,
    cardinality_bounds,
    domain_findings,
    solve,
)
from repro.analysis.analyze import (
    ANALYZE_PROGRAM_KEYS,
    ANALYZE_SCHEMA_VERSION,
    AnalyzeReport,
    analyze_reports_to_json,
    analyze_source,
    parse_query,
    validate_analyze_document,
)
from repro.analysis.safety import (
    negation_safety_diagnostics,
    positively_bound_vars,
    rule_safety_diagnostics,
)
from repro.span import Span

__all__ = [
    "CODES",
    "CODES_BY_NAME",
    "Diagnostic",
    "DiagnosticCode",
    "Severity",
    "make_diagnostic",
    "DialectReport",
    "Evidence",
    "RUNG_DESCRIPTIONS",
    "RUNG_ORDER",
    "classify",
    "DependencyEdge",
    "cycle_edges",
    "dependency_edges",
    "negative_cycle",
    "stratum_levels",
    "JSON_SCHEMA_VERSION",
    "LintReport",
    "lint",
    "lint_source",
    "reports_to_json",
    "suppressions_in",
    "AdornedRule",
    "BindingTimes",
    "CardinalityBound",
    "Domain",
    "MonotoneAnalysis",
    "adorn",
    "adornment_for",
    "argument_domains",
    "cardinality_bounds",
    "domain_findings",
    "solve",
    "ANALYZE_PROGRAM_KEYS",
    "ANALYZE_SCHEMA_VERSION",
    "AnalyzeReport",
    "analyze_reports_to_json",
    "analyze_source",
    "parse_query",
    "validate_analyze_document",
    "negation_safety_diagnostics",
    "positively_bound_vars",
    "rule_safety_diagnostics",
    "Span",
]
