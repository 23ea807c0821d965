"""The repository's benchmark: five paper workloads, a tracer and a gate.

See ``bench/README.md``; run it with ``python -m bench``.
"""
