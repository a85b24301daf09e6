"""The two entry points every contention-ILP solve passes through.

``repro.core.ilp_ptac.solve_contention_ilp`` is the one solve dispatch
and ``_IlpPtacBuilder.build`` the one instance maker.  The end-to-end
benchmark's tracer (``perfbench/tracing.py``) wraps both: it counts
``ilp.solves`` from the first and times ``core.ilp_build`` from the
second.  A solve that went around them would drop out of those numbers
without any error, so these tests count calls of both over the drivers
that solve contention ILPs.
"""

from __future__ import annotations

import collections
import contextlib
import sys

import pytest

from repro import paper
from repro.analysis.sweeps import contender_scale_sweep
from repro.core import ilp_ptac
from repro.core.multicontender import multi_contender_bound
from repro.platform.deployment import named_scenarios
from repro.platform.latency import tc27x_latency_profile


@contextlib.contextmanager
def counted_entry_points():
    """Count calls of the solve dispatch and the instance maker, wrapped
    the way the tracer wraps them: the dispatch rebound in every loaded
    module that imported it by name, ``build`` on the class."""
    counts = collections.Counter()
    solve = ilp_ptac.solve_contention_ilp
    build = ilp_ptac._IlpPtacBuilder.build

    def counting_solve(*args, **kwargs):
        counts["solve"] += 1
        return solve(*args, **kwargs)

    def counting_build(self):
        counts["build"] += 1
        return build(self)

    with pytest.MonkeyPatch.context() as patch:
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None) or {}
            for attr, value in list(namespace.items()):
                if value is solve:
                    patch.setattr(module, attr, counting_solve)
        patch.setattr(ilp_ptac._IlpPtacBuilder, "build", counting_build)
        yield counts


@pytest.mark.parametrize("scenario_name", ["scenario1", "scenario2"])
@pytest.mark.parametrize("k", [1, 4])
def test_a_sweep_of_k_scales_solves_k_plus_one_ilps(scenario_name, k):
    """The ceiling, then one instance per scale."""
    scales = [0.25 * (i + 1) for i in range(k)]
    with counted_entry_points() as counts:
        points = contender_scale_sweep(
            paper.table6(scenario_name, "app"),
            paper.table6(scenario_name, "H-Load"),
            named_scenarios()[scenario_name],
            scales=scales,
        )
    assert len(points) == k
    assert counts == {"solve": k + 1, "build": k + 1}


def test_one_bound_is_one_solve():
    with counted_entry_points() as counts:
        ilp_ptac.ilp_ptac_bound(
            paper.table6("scenario1", "app"),
            paper.table6("scenario1", "H-Load"),
            tc27x_latency_profile(),
            named_scenarios()["scenario1"],
        )
    assert counts == {"solve": 1, "build": 1}


def test_one_joint_bound_is_one_solve():
    with counted_entry_points() as counts:
        multi_contender_bound(
            paper.table6("scenario2", "app"),
            [
                paper.contender_readings("scenario2", "H"),
                paper.contender_readings("scenario2", "L"),
            ],
            tc27x_latency_profile(),
            named_scenarios()["scenario2"],
        )
    assert counts == {"solve": 1, "build": 1}
