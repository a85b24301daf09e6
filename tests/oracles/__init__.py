"""Independent reference implementations the fast library paths are
pinned against.

Nothing in ``repro`` imports these.  Tests import them as
``from oracles.sim_reference import ReferenceSimulator``; the benchmark
suite puts ``tests/`` on ``sys.path`` to do the same.
"""
