"""End-to-end serve-path benchmark (see bench/README.md).

One command — ``python3 bench/run.py`` (or ``PYTHONPATH=src python -m
bench.run``) — drives the real :class:`repro.serve.ServeService` over four
seeded workloads, checks every verdict against a slow oracle and prints each
metric as ``name value unit``.  Everything is measured from outside the
program, through ``ServeService``'s own constructor seams.
"""
