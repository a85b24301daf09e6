"""Tests for the content-addressed result cache and its stable hash."""

import dataclasses

import pytest

from repro.counters.readings import TaskReadings
from repro.engine.cache import (
    ResultCache,
    canonicalise,
    is_miss,
    stable_hash,
)
from repro.errors import EngineError
from repro.platform.deployment import scenario_1
from repro.platform.latency import tc27x_latency_profile
from repro.platform.targets import Operation, Target
from repro.sim.timing import tc27x_sim_timing


class TestStableHash:
    def test_deterministic_across_instances(self):
        a = TaskReadings("t", pmem_stall=1, dmem_stall=2, pcache_miss=3)
        b = TaskReadings("t", pmem_stall=1, dmem_stall=2, pcache_miss=3)
        assert a is not b
        assert stable_hash(a) == stable_hash(b)

    def test_field_changes_change_the_hash(self):
        a = TaskReadings("t", pmem_stall=1, dmem_stall=2, pcache_miss=3)
        b = dataclasses.replace(a, pmem_stall=2)
        assert stable_hash(a) != stable_hash(b)

    def test_dict_ordering_is_irrelevant(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_int_and_float_do_not_collide(self):
        assert stable_hash(1) != stable_hash(1.0)

    def test_enums_and_frozensets(self):
        key = {
            "targets": frozenset({Target.PF0, Target.LMU}),
            "op": Operation.CODE,
        }
        same = {
            "op": Operation.CODE,
            "targets": frozenset({Target.LMU, Target.PF0}),
        }
        assert stable_hash(key) == stable_hash(same)

    def test_domain_objects_hash(self):
        # The values drivers actually use as cache-key components.
        for obj in (
            scenario_1(),
            tc27x_latency_profile(),
            tc27x_sim_timing(),
        ):
            assert stable_hash(obj) == stable_hash(obj)

    def test_scenarios_hash_differently(self):
        from repro.platform.deployment import scenario_2

        assert stable_hash(scenario_1()) != stable_hash(scenario_2())

    def test_same_named_types_from_different_modules_differ(self):
        # Type identity includes the module: two structurally identical
        # dataclasses that share a name must not collide in key space.
        def make(module):
            @dataclasses.dataclass(frozen=True)
            class A:
                x: int

            A.__qualname__ = "A"
            A.__module__ = module
            return A

        one, two = make("mod_one"), make("mod_two")
        assert stable_hash(one(5)) != stable_hash(two(5))

    def test_module_level_callables_are_addressable(self):
        assert stable_hash(stable_hash) == stable_hash(stable_hash)

    def test_closures_are_rejected(self):
        def local():  # pragma: no cover - never called
            return None

        with pytest.raises(EngineError):
            stable_hash(local)

    def test_canonicalise_rejects_opaque_objects(self):
        with pytest.raises(EngineError):
            canonicalise(object())


class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache()
        key = stable_hash("k")
        assert is_miss(cache.lookup(key))
        cache.store(key, 42)
        assert cache.lookup(key) == 42
        assert len(cache) == 1

    def test_cached_none_is_not_a_miss(self):
        cache = ResultCache()
        cache.store("k", None)
        value = cache.lookup("k")
        assert value is None
        assert not is_miss(value)

    def test_clear_drops_every_entry(self):
        cache = ResultCache()
        cache.store("k", 1)
        cache.clear()
        assert len(cache) == 0
        assert is_miss(cache.lookup("k"))


class TestDiskPersistence:
    """ResultCache(directory=...): entries survive across instances."""

    def test_value_survives_a_new_instance(self, tmp_path):
        first = ResultCache(directory=tmp_path)
        key = stable_hash("job-inputs")
        first.store(key, {"delta": 42})

        second = ResultCache(directory=tmp_path)
        assert key in second
        assert second.lookup(key) == {"delta": 42}
        # Once loaded, further lookups are answered from memory.
        (second.directory / f"{key}.pkl").unlink()
        assert second.lookup(key) == {"delta": 42}

    def test_directory_is_created_and_version_namespaced(self, tmp_path):
        from repro import __version__

        nested = tmp_path / "a" / "b"
        cache = ResultCache(directory=nested)
        assert cache.directory == nested / f"v{__version__}"
        assert cache.directory.is_dir()

    def test_other_version_entries_are_invisible(self, tmp_path):
        # A pickle persisted by a different library version must miss:
        # keys hash job inputs, not code, so cross-version reuse would
        # serve results computed by old model implementations.
        import pickle

        stale = tmp_path / "v0.0.0"
        stale.mkdir()
        (stale / "k.pkl").write_bytes(pickle.dumps("stale"))
        assert is_miss(ResultCache(directory=tmp_path).lookup("k"))

    def test_persisted_none_is_not_a_miss(self, tmp_path):
        ResultCache(directory=tmp_path).store("k", None)
        value = ResultCache(directory=tmp_path).lookup("k")
        assert value is None
        assert not is_miss(value)

    def test_corrupt_entry_is_dropped_and_recomputed(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        key = stable_hash("x")
        (cache.directory / f"{key}.pkl").write_bytes(b"not a pickle")
        assert is_miss(cache.lookup(key))
        assert not (cache.directory / f"{key}.pkl").exists()
        cache.store(key, "fresh")
        assert ResultCache(directory=tmp_path).lookup(key) == "fresh"

    def test_truncated_entry_from_killed_writer_is_recovered(self, tmp_path):
        # A worker killed mid-write leaves a torn pickle (a prefix of
        # the real bytes, not random garbage — it parses further before
        # failing) and an orphaned .tmp file.  Neither may poison the
        # cache: the torn entry is dropped and recomputed, the tmp file
        # never becomes visible to lookups.
        import pickle

        cache = ResultCache(directory=tmp_path)
        key = stable_hash("victim")
        full = pickle.dumps(
            {"rows": list(range(200))}, protocol=pickle.HIGHEST_PROTOCOL
        )
        (cache.directory / f"{key}.pkl").write_bytes(full[: len(full) // 2])
        (cache.directory / f".{key}.k1lled.tmp").write_bytes(full[:7])

        assert is_miss(cache.lookup(key))
        assert not (cache.directory / f"{key}.pkl").exists()
        cache.store(key, "recomputed")
        # A fresh instance over the same directory sees the recomputed
        # value, and the orphaned tmp file still isn't an entry.
        fresh = ResultCache(directory=tmp_path)
        assert fresh.lookup(key) == "recomputed"
        assert is_miss(fresh.lookup(f".{key}.k1lled"))

    def test_unpicklable_value_stays_in_memory(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        value = lambda: None  # noqa: E731 - deliberately unpicklable
        cache.store("k", value)
        assert cache.lookup("k") is value
        assert list(cache.directory.glob("*.pkl")) == []
        assert is_miss(ResultCache(directory=tmp_path).lookup("k"))

    def test_clear_removes_disk_entries(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.store("k", 1)
        assert list(cache.directory.glob("*.pkl"))
        cache.clear()
        assert list(cache.directory.glob("*.pkl")) == []
        assert is_miss(ResultCache(directory=tmp_path).lookup("k"))

    def test_engine_reuses_results_across_processeslike_instances(self, tmp_path):
        """Two engines with fresh caches over one directory share work."""
        from repro.engine import ExperimentEngine, job

        calls = []

        def compute(x):
            calls.append(x)
            return x * 2

        # "compute" is module-unreachable (a closure), so give the job an
        # explicit stable key, as a CLI invocation's hash would be.
        batch = [job(compute, 3, cache_key="job-3", cacheable=True)]
        with ExperimentEngine(cache=ResultCache(directory=tmp_path)) as one:
            assert one.run(batch) == [6]
        with ExperimentEngine(cache=ResultCache(directory=tmp_path)) as two:
            assert two.run(batch) == [6]
            assert two.stats.executed == 0
        assert calls == [3]


class TestConcurrentWriters:
    """Regression: concurrent same-key disk writes must never publish a
    torn pickle.

    The old tmp-file naming (``<key>.pkl.tmp<pid>``) collided whenever
    two cache *instances* shared a process — an engine next to an
    in-process worker, two engines over one ``--cache-dir`` — because
    they share a pid: both writers opened the same tmp file, interleaved
    their writes, and renamed a torn pickle into place.  mkstemp-backed
    tmp names make every rename publish a complete value.
    """

    def test_two_instances_same_process_write_same_key(self, tmp_path):
        import threading

        caches = [ResultCache(directory=tmp_path) for _ in range(4)]
        # Distinct large payloads per writer: a torn interleaving of two
        # of them cannot unpickle to any single writer's value.
        payloads = {i: [i] * 50_000 for i in range(len(caches))}
        barrier = threading.Barrier(len(caches))
        errors = []

        def write(index):
            try:
                barrier.wait()
                for _ in range(20):
                    caches[index].store("shared-key", payloads[index])
            except Exception as exc:  # pragma: no cover  # repro: ignore[broad-except] probe records any failure for the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=write, args=(i,))
            for i in range(len(caches))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []

        # A fresh instance must read back one COMPLETE writer's value.
        cache = ResultCache(directory=tmp_path)
        value = cache.lookup("shared-key")
        assert not is_miss(value)
        assert value in payloads.values()
        # Published entries keep open()'s umask-derived mode (mkstemp's
        # private 0600 would lock other users out of a shared fleet
        # cache mount).
        import os
        import stat

        mode = stat.S_IMODE(
            os.stat(cache._path("shared-key")).st_mode
        )
        umask = os.umask(0)
        os.umask(umask)
        assert mode == 0o666 & ~umask
        # No tmp litter left behind, and nothing matching the .pkl glob
        # that clear() uses.
        leftovers = [
            p for p in tmp_path.rglob("*") if p.suffix == ".tmp"
        ]
        assert leftovers == []

    def test_tmp_files_never_collide_even_for_one_key(self, tmp_path):
        """Two interleaved persists of one key use distinct tmp names."""
        import repro.engine.cache as cache_module

        cache = ResultCache(directory=tmp_path)
        seen = []
        original = cache_module.tempfile.mkstemp

        def spy(*args, **kwargs):
            fd, name = original(*args, **kwargs)
            seen.append(name)
            return fd, name

        cache_module.tempfile = type(
            "T", (), {"mkstemp": staticmethod(spy)}
        )()
        try:
            cache.store("k", 1)
            cache.store("k", 2)
        finally:
            cache_module.tempfile = __import__("tempfile")
        assert len(seen) == 2
        assert seen[0] != seen[1]
