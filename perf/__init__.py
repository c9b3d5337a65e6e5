"""The repository's benchmark (see perf/README.md and /BENCHMARK.json).

Everything here measures ``src/repro`` from outside: it times calls into
public functions, reads the counters and spans the program already
keeps, and buckets a cProfile by source package.  Nothing under ``src/``
imports this package.
"""
