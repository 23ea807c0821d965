"""Analysis tools built on the engines (bounded termination checking)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".termination": ("TerminationReport", "check_termination_bounded"),
})
