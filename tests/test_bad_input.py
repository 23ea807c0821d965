"""Bad input: seeded character-level mutants of the example files.

Each mutant of an ``examples/datalog/*.dl`` file carries one to three
random character deletions, insertions or replacements.  It goes
through the front end a ``repro run`` starts with (``parse_program``,
``infer_dialect``, ``validate_program``); mutants of the facts example
also go through ``facts_from_text``.  Whatever the edit, nothing but a
:class:`~repro.errors.ReproError` escapes, every rejection names its
line and column, and an accepted program's rules re-parse from their
``repr`` as equal rules.
"""

import random
import string
from pathlib import Path

from repro.ast.analysis import infer_dialect, validate_program
from repro.errors import ReproError
from repro.parser import parse_program, parse_rule
from repro.relational.io import facts_from_text, facts_to_text

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "datalog"
PROGRAMS = sorted(EXAMPLES.glob("*.dl"))
FACTS = EXAMPLES / "feedback_ring_facts.dl"

#: What an edit may insert: the syntax's own characters, blanks and
#: a few it does not use.
ALPHABET = string.ascii_letters + string.digits + "()[],.:;-!=<>_%#@'\" \t\n"

SEED = 0
MUTANTS_PER_PROGRAM = 100
FACT_MUTANTS = 600


def mutate(text: str, rng: random.Random) -> str:
    """``text`` after one to three random character edits."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        edit = rng.choice(("delete", "insert", "replace"))
        if edit == "insert":
            chars.insert(rng.randint(0, len(chars)), rng.choice(ALPHABET))
        elif chars:
            at = rng.randrange(len(chars))
            if edit == "delete":
                del chars[at]
            else:
                chars[at] = rng.choice(ALPHABET)
    return "".join(chars)


def mutants(path: Path, count: int) -> list[str]:
    rng = random.Random(f"{SEED}:{path.name}")
    text = path.read_text()
    return [mutate(text, rng) for _ in range(count)]


def _unlocated(err: ReproError) -> bool:
    return err.line is None or err.column is None


def front_end(text: str):
    """What the front end makes of ``text``: the program it accepts, or
    the :class:`ReproError` it raises (anything else propagates)."""
    try:
        program = parse_program(text)
        validate_program(program, infer_dialect(program))
    except ReproError as err:
        return err
    return program


def test_program_mutants():
    unlocated, unstable, outcomes = [], [], set()
    for path in PROGRAMS:
        for text in mutants(path, MUTANTS_PER_PROGRAM):
            outcome = front_end(text)
            outcomes.add(type(outcome).__name__)
            if isinstance(outcome, ReproError):
                if _unlocated(outcome):
                    unlocated.append(f"{path.name}: {outcome!r}")
                continue
            source = "\n".join(repr(rule) for rule in outcome.rules)
            if parse_program(source).rules != outcome.rules:
                unstable.append(f"{path.name}: {source!r}")
    assert not unlocated, unlocated[:5]
    assert not unstable, unstable[:5]
    # The corpus is only as good as what its edits reach.
    assert {
        "ParseError", "SchemaError", "SafetyError", "DialectError", "Program"
    } <= outcomes


def test_fact_mutants():
    unlocated = []
    for text in mutants(FACTS, FACT_MUTANTS):
        try:
            facts_from_text(text)
        except ReproError as err:
            if _unlocated(err):
                unlocated.append(repr(err))
    assert not unlocated, unlocated[:5]


def test_every_prefix_is_parsed_or_rejected_in_place():
    # A text may stop inside any literal of any shape, before its '.'.
    source = (
        "T(x, y) :- G(x, y), not H(y), x != 'a', 1 = 1.\n"
        "bottom :- forall z: E(z).\n"
        "A(x), !B(x) :- C(x, y), choice((x), (y)), \"b\" != y.\n"
    )
    unlocated = []
    for end in range(len(source) + 1):
        for parse in (parse_program, parse_rule):
            try:
                parse(source[:end])
            except ReproError as err:
                if _unlocated(err):
                    unlocated.append(f"{source[:end]!r}: {err!r}")
    assert not unlocated, unlocated[:5]


def test_a_string_holding_a_quote_round_trips():
    # The syntax has no escapes: a string holding ' is written in "".
    program = parse_program("""T("it's", 'say "hi"').""")
    assert parse_program(repr(program.rules[0])).rules == program.rules
    facts = facts_from_text("""T("it's", 'say "hi"').""")
    assert facts_from_text(facts_to_text(facts)) == facts
