"""The composed capture->verdict benchmark (see README.md).

Imported as the package ``e2e`` (run.py puts ``benchmarks/`` on the
path), so ``trace.py`` here cannot shadow the standard library's.
"""
