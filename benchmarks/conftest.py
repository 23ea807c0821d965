"""Shared helpers for the benchmark suite.

Every module regenerates one experiment from DESIGN.md's index; the
assertions inside the benchmarks check the *shape* the paper predicts
(who wins, what scales how), not absolute numbers.  Performance is
recorded by ``python -m bench`` (see ``bench/README.md``), not here.
"""


def pytest_collection_modifyitems(items):
    """Keep benchmark output ordered by experiment id (file order)."""
    items.sort(key=lambda item: item.nodeid)
