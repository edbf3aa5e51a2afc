"""Tests for the content-addressed result cache (repro.harness.cache)."""

import math
import pickle

import pytest

import repro.harness.parallel as parallel_mod
from repro.api import SimulationRequest
from repro.core.config import CIAOParameters
from repro.gpu.config import GPUConfig
from repro.harness.cache import ResultCache, code_fingerprint
from repro.harness.parallel import run_jobs
from repro.harness.runner import RunConfig

SMALL = RunConfig(scale=0.05, seed=1)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestCacheHits:
    def test_hit_returns_stored_result_and_skips_simulation(self, cache, monkeypatch):
        jobs = [SimulationRequest("SYRK", "gto", SMALL), SimulationRequest("ATAX", "ciao-c", SMALL)]
        calls = []
        # The in-process executor runs each job through repro.api.execute;
        # count the jobs that reach it.
        import repro.api as api_mod

        real = api_mod.execute

        def counting(request):
            calls.append((request.benchmark_name, request.scheduler))
            return real(request)

        monkeypatch.setattr(api_mod, "execute", counting)
        cold = run_jobs(jobs, workers=1, cache=cache)
        assert len(calls) == 2
        assert cold.stats.cache_hits == 0 and cold.stats.executed == 2

        warm = run_jobs(jobs, workers=1, cache=cache)
        assert len(calls) == 2, "warm run must not simulate"
        assert warm.stats.cache_hits == 2 and warm.stats.executed == 0
        for a, b in zip(cold.results, warm.results):
            assert a == b

    def test_warm_sweep_is_nearly_free(self, cache):
        jobs = [SimulationRequest(b, s, RunConfig(scale=0.1, seed=1))
                for b in ("SYRK", "ATAX") for s in ("gto", "ciao-c")]
        cold = run_jobs(jobs, workers=1, cache=cache)
        warm = run_jobs(jobs, workers=1, cache=cache)
        assert warm.stats.cache_hits == len(jobs)
        # Acceptance bar is <10% of cold; leave slack for slow filesystems.
        assert warm.stats.wall_seconds < cold.stats.wall_seconds * 0.5


class TestCacheKeys:
    def test_key_stable_for_identical_jobs(self):
        assert SimulationRequest("SYRK", "gto", SMALL).cache_key() == \
            SimulationRequest("SYRK", "gto", RunConfig(scale=0.05, seed=1)).cache_key()

    def test_key_changes_with_run_config(self):
        base = SimulationRequest("SYRK", "gto", SMALL).cache_key()
        assert base != SimulationRequest("SYRK", "gto", RunConfig(scale=0.06, seed=1)).cache_key()
        assert base != SimulationRequest("SYRK", "gto", RunConfig(scale=0.05, seed=2)).cache_key()
        assert base != SimulationRequest(
            "SYRK", "gto", RunConfig(scale=0.05, seed=1, dram_bandwidth_scale=2.0)
        ).cache_key()
        assert base != SimulationRequest(
            "SYRK", "gto",
            RunConfig(scale=0.05, seed=1, gpu_config=GPUConfig.gtx480_8way_l1d()),
        ).cache_key()

    def test_key_changes_with_scheduler_kwargs(self):
        # ciao_params flow into the scheduler constructor kwargs.
        default = SimulationRequest("SYRK", "ciao-c", SMALL).cache_key()
        tweaked = SimulationRequest(
            "SYRK", "ciao-c",
            RunConfig(scale=0.05, seed=1,
                      ciao_params=CIAOParameters.paper_defaults().with_high_epoch(1000)),
        ).cache_key()
        assert default != tweaked

    def test_key_changes_with_benchmark_and_scheduler(self):
        base = SimulationRequest("SYRK", "gto", SMALL).cache_key()
        assert base != SimulationRequest("ATAX", "gto", SMALL).cache_key()
        assert base != SimulationRequest("SYRK", "ccws", SMALL).cache_key()

    def test_scheduler_aliases_share_a_key(self):
        assert SimulationRequest("SYRK", "ciao_c", SMALL).cache_key() == \
            SimulationRequest("SYRK", "ciao-c", SMALL).cache_key()

    def test_code_fingerprint_in_key(self, monkeypatch):
        base = SimulationRequest("SYRK", "gto", SMALL).cache_key()
        monkeypatch.setenv("REPRO_CACHE_VERSION", "pinned-test-version")
        assert SimulationRequest("SYRK", "gto", SMALL).cache_key() != base

    def test_code_fingerprint_is_stable(self):
        assert code_fingerprint() == code_fingerprint()

    def test_keys_are_pinned(self):
        """Cache keys of fixed requests never drift: every stored entry and
        every wire form depends on them.  Update these strings only with a
        deliberate change to the key codec."""
        from repro.api import MultiTenantRequest, TenantSpec

        requests = {
            "997b1c315b1137bbc47a83a8f998552c7de95bd3b848c33d967e19cd8a9b8ab5":
                SimulationRequest("ATAX", "gto", SMALL, backend="vector"),
            "ed935946fe178072355017f6d33292240943117b151f599723bc8924b8e81f26":
                SimulationRequest(
                    "SYRK", "ciao-c",
                    RunConfig(scale=0.3, seed=7, dram_bandwidth_scale=2.0,
                              gpu_config=GPUConfig.gtx480_8way_l1d()),
                    backend="reference",
                ),
            "43cea57fa79ecce879fada3f2d37c13c9b96d5f8393aab5a51615ad144393f93":
                SimulationRequest(
                    "GESUMMV", "best-swl",
                    RunConfig(
                        scale=1.0, seed=12345, num_ctas=4, warps_per_cta=8,
                        ciao_params=CIAOParameters.paper_defaults()
                        .with_high_epoch(1000),
                        max_cycles=100000,
                    ),
                    backend="lockstep", tag="ignored",
                ),
            "dc2c3fd569a200ac9f03ab582bc9049942cc6b8ba715947191f9072f96c8561a":
                MultiTenantRequest(
                    tenants=(
                        TenantSpec("a", "ATAX", "gto", sm_ids=(0,)),
                        TenantSpec("b", "SYRK", "ciao-c", sm_ids=(2, 1),
                                   address_space=1, launch_cycle=500),
                    ),
                    run_config=RunConfig(scale=0.05, seed=3),
                    tag="t",
                ),
            "a910d4550a91f477f7cdef48ad44f13514f2f082b767a5a7bb53a7c5d76e8f5d":
                MultiTenantRequest(
                    tenants=(TenantSpec("shield", "KMN", "statpcal", sm_ids=(1,)),),
                    run_config=RunConfig(scale=0.1, seed=2),
                    total_sms=4,
                ),
        }
        for key, request in requests.items():
            assert request.cache_key(code_version="key-pin") == key, request


class TestMultiTenantKeys:
    """Cache-key sensitivity of co-located (multi-tenant) jobs."""

    def _request(self, split_a=(0,), split_b=(1, 2), **kwargs):
        from repro.api import MultiTenantRequest, TenantSpec

        fields = dict(
            tenants=(
                TenantSpec("a", "ATAX", "gto", tuple(split_a), address_space=1),
                TenantSpec("b", "SYRK", "gto", tuple(split_b), address_space=2),
            ),
            run_config=SMALL,
        )
        fields.update(kwargs)
        return MultiTenantRequest(**fields)

    def test_key_is_stable_for_identical_jobs(self):
        assert self._request().cache_key() == self._request().cache_key()

    def test_sm_partition_assignment_changes_key(self):
        # Regression guard: two jobs that differ ONLY in which SMs each
        # tenant occupies contend differently and must never share a cache
        # entry.
        narrow = self._request(split_a=(0,), split_b=(1, 2))
        wide = self._request(split_a=(0, 1), split_b=(2,))
        assert narrow.cache_key() != wide.cache_key()

    def test_derived_machine_size_and_tag_share_a_key(self):
        # total_sms equal to the partition's own size is the same machine,
        # and a tag only routes results.
        assert self._request(total_sms=3, tag="x").cache_key() == \
            self._request().cache_key()

    def test_machine_size_changes_key(self):
        # Idle SMs change the machine's L2/DRAM share, so an isolated
        # baseline must not alias the dense two-tenant layout.
        dense = self._request()
        padded = self._request(total_sms=4)
        assert dense.cache_key() != padded.cache_key()

    def test_tenant_labels_and_address_spaces_change_key(self):
        from repro.api import MultiTenantRequest, TenantSpec

        base = self._request()
        relabeled = MultiTenantRequest(
            tenants=(
                TenantSpec("x", "ATAX", "gto", (0,), address_space=1),
                TenantSpec("y", "SYRK", "gto", (1, 2), address_space=2),
            ),
            run_config=SMALL,
        )
        shared_space = MultiTenantRequest(
            tenants=(
                TenantSpec("a", "ATAX", "gto", (0,)),
                TenantSpec("b", "SYRK", "gto", (1, 2)),
            ),
            run_config=SMALL,
        )
        assert base.cache_key() != relabeled.cache_key()
        assert base.cache_key() != shared_space.cache_key()

    def test_run_config_and_scheduler_change_key(self):
        from repro.api import MultiTenantRequest, TenantSpec

        base = self._request()
        assert base.cache_key() != self._request(
            run_config=RunConfig(scale=0.06, seed=1)
        ).cache_key()
        resched = MultiTenantRequest(
            tenants=(
                TenantSpec("a", "ATAX", "ccws", (0,), address_space=1),
                TenantSpec("b", "SYRK", "gto", (1, 2), address_space=2),
            ),
            run_config=SMALL,
        )
        assert base.cache_key() != resched.cache_key()

    def test_multi_tenant_key_never_collides_with_single_kernel_key(self):
        single = SimulationRequest("ATAX", "gto", SMALL, backend="lockstep").cache_key()
        assert self._request().cache_key() != single


class TestCanonicalize:
    """What the key codec canonicalises away, and what it keeps exact."""

    def test_primitives_dataclasses_enums(self):
        from dataclasses import replace

        from repro.workloads.registry import get_benchmark
        from repro.workloads.spec import WorkloadClass

        spec = get_benchmark("SYRK")
        base = SimulationRequest("SYRK", "gto", SMALL).cache_key()
        # A spec object keys like its name, and the free-form tag is not
        # part of the job's identity.
        assert SimulationRequest(spec, "gto", SMALL, tag="x").cache_key() == base
        # Every field of the spec is part of it, enums and nested models too.
        assert SimulationRequest(
            replace(spec, workload_class=WorkloadClass.LWS), "gto", SMALL
        ).cache_key() != base
        wider = replace(spec, model=replace(spec.model, tile_kb=spec.model.tile_kb * 2))
        assert SimulationRequest(wider, "gto", SMALL).cache_key() != base
        # Floats are hashed exactly: adjacent doubles never alias.
        assert SimulationRequest("SYRK", "gto", RunConfig(scale=0.1)).cache_key() != \
            SimulationRequest(
                "SYRK", "gto", RunConfig(scale=math.nextafter(0.1, 1.0))
            ).cache_key()


class TestStorage:
    def test_roundtrip_and_counters(self, cache):
        cache.put("ab" * 32, {"x": 1})
        assert cache.get("ab" * 32) == {"x": 1}
        assert cache.entry_count() == 1
        assert cache.size_bytes() > 0
        assert cache.stats.hits == 1 and cache.stats.puts == 1

    def test_miss(self, cache):
        assert cache.get("cd" * 32) is None
        assert cache.stats.misses == 1

    def test_corrupt_entry_is_dropped(self, cache):
        key = "ef" * 32
        cache.put(key, {"x": 1})
        path = cache._path(key)
        path.write_bytes(b"not a pickle")
        assert cache.get(key) is None
        assert not path.exists()
        assert cache.stats.errors == 1

    def test_key_mismatch_is_dropped(self, cache):
        key = "12" * 32
        other = "34" * 32
        cache.put(key, {"x": 1})
        # Copy the payload under the wrong key: must be rejected.
        payload = cache._path(key).read_bytes()
        wrong = cache._path(other)
        wrong.parent.mkdir(parents=True, exist_ok=True)
        wrong.write_bytes(payload)
        assert cache.get(other) is None
        assert pickle.loads(payload)["key"] == key  # sanity

    def test_clear(self, cache):
        cache.put("ab" * 32, 1)
        cache.put("cd" * 32, 2)
        assert cache.clear() == 2
        assert cache.entry_count() == 0


class TestPeek:
    def test_peek_returns_without_counting(self, cache):
        key = "ab" * 32
        cache.put(key, {"x": 1})
        assert cache.peek(key) == {"x": 1}
        assert cache.stats.hits == 0 and cache.stats.misses == 0

    def test_peek_miss_is_none_and_uncounted(self, cache):
        assert cache.peek("cd" * 32) is None
        assert cache.stats.misses == 0

    def test_peek_never_deletes_corrupt_entries(self, cache):
        key = "ef" * 32
        cache.put(key, {"x": 1})
        path = cache._path(key)
        path.write_bytes(b"not a pickle")
        assert cache.peek(key) is None
        assert path.exists(), "peek must be side-effect free"
        assert cache.stats.errors == 0

    def test_stamp_changes_when_the_entry_file_does(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", quarantine=tmp_path / "q")
        key = "12" * 32
        assert cache.stamp(key) is None
        cache.put(key, {"x": 1})
        first = cache.stamp(key)
        assert first is not None and cache.stamp(key) == first
        cache.put(key, {"x": 1})  # the same bytes, rewritten: a new file
        assert cache.stamp(key) not in (None, first)
        cache.quarantine_entry(key, "test")
        assert cache.stamp(key) is None


class TestConcurrentAccess:
    """Two writers racing one key; readers must never see torn data.

    This pins the write-to-temp + atomic-``os.replace`` protocol the class
    docstring promises: whatever interleaving the OS picks, ``get``/``peek``
    return one writer's complete payload or a clean miss — never a blend.
    """

    def test_writers_racing_same_key_leave_one_complete_value(self, cache):
        import threading

        key = "ab" * 32
        barrier = threading.Barrier(2)
        errors = []

        def write(value):
            try:
                barrier.wait(timeout=30)
                for _ in range(50):
                    cache.put(key, {"writer": value, "blob": [value] * 256})
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(v,)) for v in (1, 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        final = cache.get(key)
        assert final is not None
        assert final["blob"] == [final["writer"]] * 256
        # No orphaned temp files survive the race.
        assert not list(cache.root.rglob("*.tmp"))

    def test_reader_racing_writers_never_sees_corrupt_data(self, cache):
        import threading

        key = "cd" * 32
        stop = threading.Event()
        bad = []

        def reader():
            while not stop.is_set():
                value = cache.peek(key)
                if value is not None and value["blob"] != [value["writer"]] * 256:
                    bad.append(value)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for i in range(100):
                cache.put(key, {"writer": i, "blob": [i] * 256})
        finally:
            stop.set()
            thread.join(timeout=60)
        assert not bad, f"reader observed torn payloads: {bad[:3]}"
        # Corrupt-entry bookkeeping never fired: every read was clean.
        assert cache.stats.errors == 0

    def test_atomic_rename_protocol_is_pinned(self, cache, monkeypatch):
        """put() must write a temp file and publish it with os.replace."""
        import os as os_mod

        import repro.harness.cache as cache_mod

        replaced = []
        real_replace = os_mod.replace

        def spying_replace(src, dst):
            replaced.append((str(src), str(dst)))
            return real_replace(src, dst)

        monkeypatch.setattr(cache_mod.os, "replace", spying_replace)
        key = "ef" * 32
        cache.put(key, {"x": 1})
        assert len(replaced) == 1
        src, dst = replaced[0]
        assert src.endswith(".tmp")
        assert dst == str(cache._path(key))
        assert cache.get(key) == {"x": 1}


class TestEnvironmentControl:
    def test_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
        assert ResultCache.from_env() is None

    def test_enabled_by_default(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = ResultCache.from_env()
        assert cache is not None
        assert cache.root == tmp_path
