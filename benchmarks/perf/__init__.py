"""Microbenchmarks of the hot paths, with committed baselines.

Unlike ``benchmarks/test_fig*`` (which reproduce the paper's figures),
this package measures *this repo's own* kernels — render, composite,
two-phase read planning, DES event throughput, compositing patterns,
the farm and campaign drivers — and records them in the one
``BENCH.json`` ledger at the repo root (:mod:`benchmarks.perf.ledger`),
each entry next to its same-host before.

Run ``python -m repro bench`` for the regression guard, ``--list`` for
the before/after table, ``--update --only NAME`` to record an entry.
"""
