"""Hypothesis strategy for counter readings a measurement could produce,
shared by the generated ILP tests."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.counters.readings import TaskReadings


@st.composite
def task_readings(draw, name):
    """Counter readings a measurement could produce: every code miss
    costs at least 6 stall cycles, every data miss at least 11."""
    ps = draw(st.integers(0, 60_000))
    ds = draw(st.integers(0, 60_000))
    clean = draw(st.integers(0, ds // 11))
    return TaskReadings(
        name,
        pmem_stall=ps,
        dmem_stall=ds,
        pcache_miss=draw(st.integers(0, ps // 6)),
        dcache_miss_clean=clean,
        dcache_miss_dirty=draw(st.integers(0, ds // 11 - clean)),
    )
