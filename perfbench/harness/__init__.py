"""The benchmark's own code: workloads, pacing, tracing and checks.

Entry points are ``perfbench/run.py`` (one run) and
``perfbench/steady.py`` (repeated runs); see ``perfbench/README.md``.
"""
