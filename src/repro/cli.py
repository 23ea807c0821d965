"""Command-line interface: run Datalog programs from files.

Usage::

    python -m repro check  program.dl
    python -m repro lint   program.dl --format json --strict
    python -m repro run    program.dl --data facts.dl --semantics wellfounded
    python -m repro profile program.dl --data facts.dl --top 5 --sort time
    python -m repro effects program.dl --data facts.dl --answer answer
    python -m repro terminate program.dl --domain-size 1
    python -m repro watch  program.dl --data facts.dl < diffs.jsonl

* ``check`` parses the program, reports its inferred dialect (the level
  of Figure 1 it sits at), schema, and stratifiability.
* ``lint`` runs the full static-analysis suite (:mod:`repro.analysis`)
  and reports every finding with source spans; ``--strict`` fails on
  warnings too, ``--format json`` emits the schema-stable report.
* ``run`` evaluates under a chosen semantics and prints the idb
  relations (or one ``--answer`` relation); ``--trace-out FILE`` also
  writes the evaluation's event stream as JSON Lines and
  ``--dump-codegen DIR`` writes the generated matcher source of every
  plan the run executed.
* ``stats`` reports engine counters and the run's planner report
  (``--format json`` is pinned by ``STATS_SCHEMA_VERSION``); ``trace``
  prints the stage-by-stage evaluation; ``profile`` aggregates per-rule
  time/firings/join selectivity into a hot-rule table or JSON report.
* ``effects`` enumerates eff(P) for nondeterministic programs.
* ``terminate`` checks termination of a Datalog¬¬ program on every
  instance over a bounded domain (§4.2).
* ``watch`` maintains a positive program differentially: each stdin
  line is one JSON diff batch of EDB changes
  (``{"insert": {"G": [["a", "b"]]}, "delete": {...}}``) applied
  atomically; each stdout line is the induced IDB diff.  Line 0 is
  the initial materialization as a diff from the empty view.

Fact files use the same surface syntax, restricted to ground bodyless
rules: ``G('a', 'b').``
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError
from repro.ast.analysis import infer_dialect, is_semipositive, is_stratifiable, stratify
from repro.ast.program import Dialect
from repro.parser import parse_program
from repro.relational.instance import Database

SEMANTICS = (
    "naive",
    "seminaive",
    "stratified",
    "wellfounded",
    "inflationary",
    "noninflationary",
    "invention",
    "choice",
)


def _load_program(path: str):
    with open(path) as handle:
        return parse_program(handle.read(), name=path)


def load_facts(path: str) -> Database:
    """Parse a facts file (ground bodyless rules, or JSON) into a database."""
    from repro.relational.io import database_from_json, facts_from_text

    with open(path) as handle:
        text = handle.read()
    if path.endswith(".json"):
        return database_from_json(text)
    try:
        return facts_from_text(text)
    except ReproError as err:
        raise ReproError(f"facts file {path!r}: {err}") from None


def _print_relations(db: Database, relations, out) -> None:
    for relation in sorted(relations):
        rows = sorted(db.tuples(relation), key=repr)
        print(f"{relation} ({len(rows)} tuples):", file=out)
        for row in rows:
            rendered = ", ".join(str(v) for v in row)
            print(f"  ({rendered})", file=out)


def cmd_check(args, out) -> int:
    program = _load_program(args.program)
    if getattr(args, "dot", False):
        from repro.ast.report import precedence_dot

        print(precedence_dot(program), file=out)
        return 0
    dialect = infer_dialect(program)
    print(f"rules:    {len(program)}", file=out)
    print(f"dialect:  {dialect.value}", file=out)
    print(f"edb:      {', '.join(sorted(program.edb)) or '(none)'}", file=out)
    print(f"idb:      {', '.join(sorted(program.idb)) or '(none)'}", file=out)
    if dialect in (Dialect.DATALOG, Dialect.SEMIPOSITIVE, Dialect.STRATIFIED,
                   Dialect.DATALOG_NEG):
        if is_stratifiable(program):
            levels = stratify(program)
            rendered = " | ".join(
                "{" + ", ".join(sorted(s)) + "}" for s in levels
            )
            print(f"strata:   {rendered}", file=out)
        else:
            print("strata:   not stratifiable (recursion through negation)", file=out)
        print(f"semipositive: {is_semipositive(program)}", file=out)
    return 0


def cmd_lint(args, out) -> int:
    """Run the static-analysis suite over one or more program files.

    Exit code 0 when every file is clean at the requested threshold,
    1 when any finding crosses it.  The threshold is errors by default;
    ``--fail-on {error,warning,info}`` picks it exactly, and the older
    ``--strict`` is shorthand for ``--fail-on warning``.
    """
    from repro.analysis import Severity, lint_source, reports_to_json
    from repro.ast.program import Dialect

    dialect = None
    if args.dialect:
        dialect = Dialect(args.dialect)
    declared_edb = None
    if args.data:
        declared_edb = sorted(load_facts(args.data).relation_names())

    reports = []
    for path in args.programs:
        with open(path) as handle:
            text = handle.read()
        reports.append(
            lint_source(
                text,
                name=path,
                dialect=dialect,
                outputs=args.answer or (),
                edb=declared_edb,
            )
        )

    if args.format == "json":
        print(reports_to_json(reports), file=out)
    else:
        for report in reports:
            print(report.render(), file=out)

    if args.fail_on:
        threshold = Severity[args.fail_on.upper()]
    else:
        threshold = Severity.WARNING if args.strict else Severity.ERROR
    failed = [r for r in reports if r.fails(threshold)]
    return 1 if failed else 0


def cmd_analyze(args, out) -> int:
    """Run the dataflow analyses (``repro analyze``) over program files.

    Exit code 0 when no file has error-severity findings, 1 otherwise.
    """
    from repro.analysis import (
        analyze_reports_to_json,
        analyze_source,
        parse_query,
    )

    query = parse_query(args.query) if args.query else None
    database = load_facts(args.data) if args.data else None

    reports = []
    for path in args.programs:
        with open(path) as handle:
            text = handle.read()
        reports.append(
            analyze_source(text, name=path, query=query, database=database)
        )

    if args.format == "json":
        print(analyze_reports_to_json(reports), file=out)
    else:
        for report in reports:
            print(report.render(), file=out)

    failed = [r for r in reports if r.lint_report.errors]
    return 1 if failed else 0


def cmd_terminate(args, out) -> int:
    """Bounded termination check for Datalog¬¬ programs (§4.2)."""
    from repro.tools.termination import check_termination_bounded

    program = _load_program(args.program)
    report = check_termination_bounded(
        program,
        extra_domain_size=args.domain_size,
        max_facts_per_relation=args.max_facts,
        max_instances=args.max_instances,
        max_stages=args.max_stages,
        stop_at_first=args.stop_at_first,
    )
    print(report.summary(), file=out)
    witness = report.first_counterexample()
    if witness is not None:
        print("first nonterminating instance:", file=out)
        for relation in sorted(witness.relation_names()):
            for row in sorted(witness.tuples(relation), key=repr):
                rendered = ", ".join(repr(v) for v in row)
                print(f"  {relation}({rendered})", file=out)
    return 0 if report.all_terminate else 1


#: Engine picked for each deterministic dialect under --semantics auto.
_AUTO_SEMANTICS = {
    Dialect.DATALOG: "seminaive",
    Dialect.SEMIPOSITIVE: "stratified",
    Dialect.STRATIFIED: "stratified",
    Dialect.DATALOG_NEG: "wellfounded",
    Dialect.DATALOG_NEGNEG: "noninflationary",
    Dialect.DATALOG_NEW: "invention",
    Dialect.DATALOG_CHOICE: "choice",
}


def _resolve_auto(program, out):
    """The engine name for ``--semantics auto``, or None (nondeterministic)."""
    dialect = infer_dialect(program)
    semantics = _AUTO_SEMANTICS.get(dialect)
    if semantics is None:
        print(
            f"dialect {dialect.value} is nondeterministic; use the "
            "'effects' command",
            file=sys.stderr,
        )
        return None
    print(f"semantics: {semantics} (auto)", file=out)
    return semantics


def _engine_for(semantics: str, seed: int = 0):
    """The evaluation callable for an engine name, or None if unknown.

    Every returned callable takes (program, db, tracer=None); ``tracer``
    (a :class:`repro.obs.Tracer`) receives the run's event stream.  All
    but ``stable`` return an object with a ``stats`` attribute
    (:class:`repro.semantics.EngineStats`).
    """
    if semantics == "naive":
        from repro.semantics.naive import evaluate_datalog_naive as engine
    elif semantics == "seminaive":
        from repro.semantics.seminaive import evaluate_datalog_seminaive as engine
    elif semantics == "stratified":
        from repro.semantics.stratified import evaluate_stratified as engine
    elif semantics == "inflationary":
        from repro.semantics.inflationary import evaluate_inflationary as engine
    elif semantics == "noninflationary":
        from repro.semantics.noninflationary import evaluate_noninflationary as engine
    elif semantics == "invention":
        from repro.semantics.invention import evaluate_with_invention as engine
    elif semantics == "wellfounded":
        from repro.semantics.wellfounded import evaluate_wellfounded as engine
    elif semantics == "choice":
        from repro.semantics.choice import evaluate_with_choice

        def engine(p, d, tracer=None):
            return evaluate_with_choice(p, d, seed=seed, tracer=tracer)
    elif semantics == "stable":
        from repro.semantics.stable import stable_models

        def engine(p, d, tracer=None):
            return stable_models(p, d, tracer=tracer)
    elif semantics == "nondeterministic":
        from repro.semantics.nondeterministic import run_nondeterministic

        def engine(p, d, tracer=None):
            return run_nondeterministic(p, d, seed=seed, tracer=tracer)
    else:
        return None
    return engine


def _maybe_dump_codegen(args, program) -> None:
    """Write the generated source of the plans that ran (``--dump-codegen``)."""
    directory = getattr(args, "dump_codegen", None)
    if directory is None:
        return
    from repro.semantics.codegen import dump_codegen

    paths = dump_codegen(program, directory)
    print(
        f"codegen: wrote {len(paths)} file(s) to {directory}",
        file=sys.stderr,
    )


def cmd_run(args, out) -> int:
    program = _load_program(args.program)
    db = load_facts(args.data) if args.data else Database()
    semantics = args.semantics

    if semantics == "auto":
        semantics = _resolve_auto(program, out)
        if semantics is None:
            return 2

    tracer = None
    if getattr(args, "trace_out", None):
        from repro.obs import JsonlSink, Tracer

        tracer = Tracer([JsonlSink(args.trace_out)], include_facts=True)

    try:
        if semantics == "wellfounded":
            from repro.semantics.wellfounded import evaluate_wellfounded

            model = evaluate_wellfounded(program, db, tracer=tracer)
            relations = [args.answer] if args.answer else sorted(program.idb)
            for relation in relations:
                true_rows = sorted(model.answer(relation), key=repr)
                unknown_rows = sorted(model.unknowns(relation), key=repr)
                print(f"{relation}: {len(true_rows)} true, "
                      f"{len(unknown_rows)} unknown", file=out)
                for row in true_rows:
                    print(f"  true    ({', '.join(map(str, row))})", file=out)
                for row in unknown_rows:
                    print(f"  unknown ({', '.join(map(str, row))})", file=out)
            _maybe_dump_codegen(args, program)
            return 0

        engine = _engine_for(semantics, seed=args.seed)
        if engine is None:
            print(f"unknown semantics {semantics!r}", file=sys.stderr)
            return 2

        result = engine(program, db, tracer=tracer)
    finally:
        if tracer is not None:
            tracer.close()
    _maybe_dump_codegen(args, program)
    relations = [args.answer] if args.answer else sorted(program.idb)
    _print_relations(result.database, relations, out)
    stages = getattr(result, "stages", None)
    if stages is not None:
        print(f"stages: {len(stages)}", file=out)
    return 0


def cmd_stats(args, out) -> int:
    """Evaluate and report the engine's performance counters."""
    program = _load_program(args.program)
    db = load_facts(args.data) if args.data else Database()
    semantics = args.semantics

    if semantics == "auto":
        # The resolution notice would corrupt machine-readable output.
        notice_to = sys.stderr if args.format == "json" else out
        semantics = _resolve_auto(program, notice_to)
        if semantics is None:
            return 2

    engine = _engine_for(semantics, seed=args.seed)
    if engine is None:
        print(f"unknown semantics {semantics!r}", file=sys.stderr)
        return 2

    result = engine(program, db)
    if getattr(args, "format", "human") == "json":
        import json

        from repro.semantics.base import STATS_SCHEMA_VERSION

        document = {"version": STATS_SCHEMA_VERSION, **result.stats.to_dict()}
        print(json.dumps(document, indent=2), file=out)
    else:
        print(result.stats.summary(), file=out)
    return 0


#: Semantics whose evaluation the trace/profile commands can observe.
TRACEABLE_SEMANTICS = SEMANTICS + ("stable", "nondeterministic")


def cmd_trace(args, out) -> int:
    """Stage-by-stage trace of a forward-chaining evaluation.

    Renders the engine's stage events: stages that carry their facts
    print them (``+`` added, ``-`` removed); engines whose stages are
    whole inner fixpoints (well-founded, stable) print counters only.
    """
    from repro.obs import CollectorSink, Tracer

    program = _load_program(args.program)
    db = load_facts(args.data) if args.data else Database()
    engine = _engine_for(args.semantics, seed=args.seed)
    if engine is None:
        print(f"unknown semantics {args.semantics!r}", file=sys.stderr)
        return 2
    collector = CollectorSink()
    engine(program, db, tracer=Tracer([collector], include_facts=True))
    printed = 0
    for event in collector.stage_events():
        if event.new_facts is None and event.removed_facts is None:
            # Counters-only stage span (inner-fixpoint engines).
            if event.added or event.removed:
                printed += 1
                print(f"stage {event.stage}: +{event.added} facts", file=out)
            continue
        if not event.new_facts and not event.removed_facts:
            continue
        printed += 1
        print(f"stage {event.stage}:", file=out)
        for relation, t in sorted(event.new_facts, key=repr):
            print(f"  + {relation}({', '.join(map(str, t))})", file=out)
        for relation, t in sorted(event.removed_facts, key=repr):
            print(f"  - {relation}({', '.join(map(str, t))})", file=out)
    print(f"fixpoint after {printed} stages", file=out)
    return 0


#: Features whose presence pushes a program into a nondeterministic
#: rung (single-model evaluation is then undefined, so ``auto`` cannot
#: pick an engine).  Deliberately includes choice and invention: alone
#: each stays deterministic, but alongside multiple heads they shape
#: *which* nondeterministic dialect the program lands on, so the
#: witness list names them too.
_NONDET_FEATURES = ("multiple-heads", "bottom", "universal", "choice",
                    "invention")


def _explain_nondeterministic(program, dialect) -> str:
    """Name the feature(s) that made ``auto`` refuse, with spans."""
    from repro.analysis.classifier import classify

    report = classify(program)
    witnesses = [e for e in report.evidence if e.feature in _NONDET_FEATURES]
    lines = [
        f"dialect {dialect.value} is nondeterministic; profile it "
        "with --semantics nondeterministic"
    ]
    for item in witnesses:
        where = f" at {item.span}" if item.span else ""
        lines.append(
            f"  {item.feature}: {item.description} "
            f"(rule {item.rule_index}{where})"
        )
    return "\n".join(lines)


def cmd_profile(args, out) -> int:
    """Per-rule hot-spot profile of one evaluation (any semantics)."""
    from repro.obs import CollectorSink, ProfileReport, Tracer

    program = _load_program(args.program)
    db = load_facts(args.data) if args.data else Database()
    semantics = args.semantics
    if semantics == "auto":
        dialect = infer_dialect(program)
        semantics = _AUTO_SEMANTICS.get(dialect)
        if semantics is None:
            print(_explain_nondeterministic(program, dialect),
                  file=sys.stderr)
            return 2
    engine = _engine_for(semantics, seed=args.seed)
    if engine is None:
        print(f"unknown semantics {semantics!r}", file=sys.stderr)
        return 2
    from repro.semantics.plan import active_matcher
    from repro.semantics.planner import explain

    collector = CollectorSink()
    result = engine(program, db, tracer=Tracer([collector]))
    report = ProfileReport.from_events(collector.events, program=program)
    # The stable engine returns a model set with no stats.
    stats = getattr(result, "stats", None)
    report.matcher = getattr(stats, "matcher", "") or active_matcher()
    # The static planner report for the same program and input: what
    # the planner would decide, beside what the run did.
    report.planner = explain(program, db)
    top = args.top if args.top > 0 else None
    if args.format == "json":
        print(report.to_json(sort=args.sort, top=top), file=out)
    else:
        print(report.render(top=top, sort=args.sort), file=out)
    return 0


def cmd_explain(args, out) -> int:
    """Why-provenance for one fact of a stratifiable program."""
    from repro.semantics.provenance import (
        evaluate_with_provenance,
        explain,
        render_tree,
    )

    program = _load_program(args.program)
    db = load_facts(args.data) if args.data else Database()
    values = tuple(_parse_value(v) for v in args.values)
    result = evaluate_with_provenance(program, db)
    tree = explain(result, args.relation, values)
    print(render_tree(tree, program), file=out)
    return 0


def _parse_value(text: str):
    try:
        return int(text)
    except ValueError:
        return text


def _parse_watch_batch(line: str):
    """One stdin line of ``repro watch``: a JSON diff batch."""
    import json

    from repro.semantics.differential import DiffBatch

    try:
        doc = json.loads(line)
    except ValueError as err:
        raise ReproError(f"bad JSON: {err}") from None
    if not isinstance(doc, dict):
        raise ReproError("each line must be a JSON object")
    unknown = set(doc) - {"insert", "delete"}
    if unknown:
        raise ReproError(f"unknown keys {sorted(unknown)}")

    def facts(key: str) -> tuple:
        section = doc.get(key, {})
        if not isinstance(section, dict):
            raise ReproError(
                f"{key!r} must map relation names to lists of tuples"
            )
        collected = []
        for relation, rows in sorted(section.items()):
            if not isinstance(rows, list):
                raise ReproError(f"{key}[{relation!r}] must be a list")
            for row in rows:
                if not isinstance(row, list):
                    raise ReproError(
                        f"{key}[{relation!r}] entries must be value lists"
                    )
                for value in row:
                    if isinstance(value, (list, dict)):
                        raise ReproError(
                            f"{key}[{relation!r}] row {row!r}: values must "
                            f"be scalars, not {type(value).__name__}s"
                        )
                collected.append((relation, tuple(row)))
        return tuple(collected)

    return DiffBatch(inserts=facts("insert"), deletes=facts("delete"))


def cmd_watch(args, out) -> int:
    """Differentially maintain a view over a stream of EDB diffs."""
    import json

    from repro.semantics.differential import DifferentialEngine

    program = _load_program(args.program)
    base = load_facts(args.data) if args.data else Database()
    engine = DifferentialEngine(program, base)
    relations = args.relations or sorted(program.idb)
    subscriptions = [engine.subscribe(relation) for relation in relations]

    def rows(tuples) -> list[list]:
        return sorted((list(t) for t in tuples), key=repr)

    def emit(payload: dict) -> None:
        print(json.dumps(payload, sort_keys=True), file=out)
        if hasattr(out, "flush"):
            out.flush()

    stats_sink = None
    if getattr(args, "stats_out", None):
        stats_sink = open(args.stats_out, "a", encoding="utf-8")

    def emit_stats(seq: int) -> None:
        """One JSONL line of differential counters per applied update."""
        if stats_sink is None:
            return
        line = {
            "seq": seq,
            "differential": dict(engine.stats.differential),
        }
        stats_sink.write(json.dumps(line, sort_keys=True) + "\n")
        stats_sink.flush()

    # Line 0: the initial materialization, as a diff from the empty view.
    emit(
        {
            "seq": 0,
            "inserted": {
                relation: rows(engine.answer(relation))
                for relation in relations
                if engine.answer(relation)
            },
            "deleted": {},
        }
    )
    emit_stats(0)
    seq = 0
    stream = sys.stdin
    for line in stream:
        line = line.strip()
        if not line:
            continue
        seq += 1
        try:
            result = engine.apply(_parse_watch_batch(line))
        except ReproError as err:
            emit({"seq": seq, "error": str(err)})
            continue
        inserted: dict[str, list] = {}
        deleted: dict[str, list] = {}
        for subscription in subscriptions:
            diff = result.for_subscriber(subscription)
            if diff.inserted:
                inserted[subscription.relation] = rows(diff.inserted)
            if diff.deleted:
                deleted[subscription.relation] = rows(diff.deleted)
        emit({"seq": seq, "inserted": inserted, "deleted": deleted})
        emit_stats(seq)
    if stats_sink is not None:
        stats_sink.close()
    if args.stats:
        print(engine.stats.summary(), file=sys.stderr)
        print(
            "adom size reads 0: the differential engine never enumerates "
            "an active domain (positive Datalog is domain-independent)",
            file=sys.stderr,
        )
        counters = dict(engine.stats.differential)
        counters.pop("components", None)
        print(
            "differential: "
            + " ".join(f"{k}={v}" for k, v in sorted(counters.items())),
            file=sys.stderr,
        )
    return 0


def cmd_effects(args, out) -> int:
    from repro.semantics.nondeterministic import (
        answers_in_effects,
        enumerate_effects,
    )

    program = _load_program(args.program)
    db = load_facts(args.data) if args.data else Database()
    effects = enumerate_effects(program, db, max_states=args.max_states)
    print(f"terminal instances: {len(effects)}", file=out)
    if args.answer:
        answers = answers_in_effects(effects, args.answer)
        print(f"possible answers for {args.answer}: {len(answers)}", file=out)
        for answer in sorted(answers, key=repr):
            rows = ", ".join(
                "(" + ", ".join(map(str, t)) + ")" for t in sorted(answer, key=repr)
            )
            print(f"  {{{rows}}}", file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run Datalog-family programs (PODS 2021 'Datalog Unchained').",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="parse and report dialect/schema/strata")
    check.add_argument("program")
    check.add_argument(
        "--dot", action="store_true", help="emit the precedence graph as Graphviz dot"
    )

    lint = sub.add_parser(
        "lint", help="run every static-analysis pass; report all findings"
    )
    lint.add_argument("programs", nargs="+", help="program file(s) to lint")
    lint.add_argument(
        "--format",
        default="human",
        choices=("human", "json"),
        help="output format (default: human)",
    )
    lint.add_argument(
        "--strict",
        action="store_true",
        help="fail (exit 1) on warnings as well as errors",
    )
    lint.add_argument(
        "--dialect",
        choices=sorted(d.value for d in Dialect),
        help="declared Figure-1 rung; safety is checked against it "
        "(default: the inferred rung)",
    )
    lint.add_argument(
        "--answer",
        action="append",
        metavar="RELATION",
        help="intended output relation (repeatable; silences DL004 for it)",
    )
    lint.add_argument(
        "--data",
        help="facts file declaring the edb schema (sharpens DL009)",
    )
    lint.add_argument(
        "--fail-on",
        choices=("error", "warning", "info"),
        help="exit 1 when any finding is at or above this severity "
        "(overrides --strict; default: error)",
    )

    analyze = sub.add_parser(
        "analyze",
        help="whole-program dataflow analysis: cardinality bounds, "
        "argument domains, query binding times",
    )
    analyze.add_argument("programs", nargs="+", help="program file(s)")
    analyze.add_argument(
        "--query",
        metavar="'T(a, ?)'",
        help="bound query pattern; turns on binding-time analysis and "
        "the query-scoped findings DL013/DL016",
    )
    analyze.add_argument(
        "--data",
        help="facts file; makes cardinality bounds and DL012 exact",
    )
    analyze.add_argument(
        "--format",
        default="human",
        choices=("human", "json"),
        help="output format (default: human)",
    )

    terminate = sub.add_parser(
        "terminate",
        help="bounded termination check for Datalog¬¬ programs (§4.2)",
    )
    terminate.add_argument("program")
    terminate.add_argument(
        "--domain-size",
        type=int,
        default=1,
        help="extra constants beyond those in the program (default: 1)",
    )
    terminate.add_argument(
        "--max-facts",
        type=int,
        default=None,
        help="cap on facts per relation in generated instances",
    )
    terminate.add_argument(
        "--max-instances",
        type=int,
        default=100_000,
        help="cap on the number of instances tried (default: 100000)",
    )
    terminate.add_argument(
        "--max-stages",
        type=int,
        default=10_000,
        help="stage budget before declaring nontermination (default: 10000)",
    )
    terminate.add_argument(
        "--stop-at-first",
        action="store_true",
        help="stop at the first nonterminating instance",
    )

    run = sub.add_parser("run", help="evaluate under a deterministic semantics")
    run.add_argument("program")
    run.add_argument("--data", help="facts file (ground bodyless rules)")
    run.add_argument(
        "--semantics",
        default="auto",
        choices=("auto",) + SEMANTICS,
        help="evaluation semantics (default: inferred from the dialect)",
    )
    run.add_argument("--answer", help="print only this relation")
    run.add_argument("--seed", type=int, default=0, help="seed (choice semantics)")
    run.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write the evaluation's event stream as JSON Lines to FILE",
    )
    run.add_argument(
        "--dump-codegen",
        metavar="DIR",
        help="write the generated matcher source of every plan the run "
             "executed under DIR",
    )

    stats = sub.add_parser(
        "stats", help="evaluate and report engine performance counters"
    )
    stats.add_argument("program")
    stats.add_argument("--data", help="facts file (ground bodyless rules)")
    stats.add_argument(
        "--semantics",
        default="auto",
        choices=("auto",) + SEMANTICS,
        help="evaluation semantics (default: inferred from the dialect)",
    )
    stats.add_argument("--seed", type=int, default=0, help="seed (choice semantics)")
    stats.add_argument(
        "--format",
        default="human",
        choices=("human", "json"),
        help="output format (default: human)",
    )

    profile = sub.add_parser(
        "profile", help="per-rule hot-spot profile (time, firings, joins)"
    )
    profile.add_argument("program")
    profile.add_argument("--data", help="facts file (ground bodyless rules)")
    profile.add_argument(
        "--semantics",
        default="auto",
        choices=("auto",) + TRACEABLE_SEMANTICS,
        help="evaluation semantics (default: inferred from the dialect)",
    )
    profile.add_argument(
        "--format",
        default="human",
        choices=("human", "json"),
        help="output format (default: human)",
    )
    profile.add_argument(
        "--top",
        type=int,
        default=10,
        help="show the N hottest rules; 0 shows all (default: 10)",
    )
    profile.add_argument(
        "--sort",
        default="time",
        choices=("time", "firings", "tuples"),
        help="hotness measure (default: time)",
    )
    profile.add_argument(
        "--seed", type=int, default=0,
        help="seed (choice/nondeterministic semantics)",
    )

    effects = sub.add_parser("effects", help="enumerate eff(P) (nondeterministic)")
    effects.add_argument("program")
    effects.add_argument("--data", help="facts file")
    effects.add_argument("--answer", help="summarize this relation's possible values")
    effects.add_argument("--max-states", type=int, default=100_000)

    trace = sub.add_parser("trace", help="print the stage-by-stage evaluation")
    trace.add_argument("program")
    trace.add_argument("--data", help="facts file")
    trace.add_argument(
        "--semantics",
        default="inflationary",
        choices=TRACEABLE_SEMANTICS,
    )
    trace.add_argument(
        "--seed", type=int, default=0,
        help="seed (choice/nondeterministic semantics)",
    )

    explain = sub.add_parser(
        "explain", help="derivation tree of a fact (stratifiable programs)"
    )
    explain.add_argument("program")
    explain.add_argument("relation")
    explain.add_argument("values", nargs="*")
    explain.add_argument("--data", help="facts file")

    watch = sub.add_parser(
        "watch",
        help="maintain a view differentially over EDB diffs from stdin "
        "(JSON Lines in, JSON Lines out)",
    )
    watch.add_argument("program")
    watch.add_argument("--data", help="initial facts file")
    watch.add_argument(
        "--relations",
        nargs="*",
        help="relations whose diffs to emit (default: every idb relation)",
    )
    watch.add_argument(
        "--stats",
        action="store_true",
        help="print engine counters to stderr at end of stream (adom "
        "size reads 0: no active domain is enumerated)",
    )
    watch.add_argument(
        "--stats-out",
        metavar="FILE.jsonl",
        help="append one JSON line of EngineStats.differential counters "
        "per applied update (and one for the initial materialization)",
    )

    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        if args.command == "check":
            return cmd_check(args, out)
        if args.command == "lint":
            return cmd_lint(args, out)
        if args.command == "analyze":
            return cmd_analyze(args, out)
        if args.command == "terminate":
            return cmd_terminate(args, out)
        if args.command == "run":
            return cmd_run(args, out)
        if args.command == "stats":
            return cmd_stats(args, out)
        if args.command == "profile":
            return cmd_profile(args, out)
        if args.command == "effects":
            return cmd_effects(args, out)
        if args.command == "trace":
            return cmd_trace(args, out)
        if args.command == "explain":
            return cmd_explain(args, out)
        if args.command == "watch":
            return cmd_watch(args, out)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
