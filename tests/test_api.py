"""Tests for the typed simulation API (repro.api / repro.backends)."""

import json

import pytest

from repro.api import (
    JOB_SCHEMA,
    REQUEST_SCHEMA,
    RESULT_SCHEMA,
    JobRecord,
    JobState,
    RunConfig,
    SimulationRequest,
    decode_value,
    encode_value,
    execute,
)
from repro.backends import (
    Backend,
    backend_names,
    get_backend,
    register_backend,
    resolve_backend_name,
)
from repro.core.config import CIAOParameters
from repro.gpu.config import GPUConfig
from repro.gpu.gpu import SimulationResult
from repro.workloads.registry import get_benchmark

SMALL = RunConfig(scale=0.05, seed=1)


class TestRequestRoundTrip:
    def test_default_request_identity(self):
        request = SimulationRequest("ATAX")
        assert SimulationRequest.from_dict(request.to_dict()) == request

    def test_fully_loaded_request_identity(self):
        request = SimulationRequest(
            "SYRK",
            "ciao-c",
            RunConfig(
                scale=0.25,
                seed=7,
                num_ctas=4,
                warps_per_cta=6,
                gpu_config=GPUConfig.gtx480_8way_l1d(num_sms=2),
                dram_bandwidth_scale=2.0,
                ciao_params=CIAOParameters.paper_defaults().with_high_epoch(1000),
                max_cycles=123_456,
            ),
            tag="fig12",
            backend="lockstep",
        )
        assert SimulationRequest.from_dict(request.to_dict()) == request

    def test_spec_benchmark_identity(self):
        request = SimulationRequest(get_benchmark("BICG"), "gto", SMALL)
        restored = SimulationRequest.from_dict(request.to_dict())
        assert restored == request
        assert restored.spec() == get_benchmark("BICG")

    def test_payload_is_json_safe_and_versioned(self):
        payload = SimulationRequest("ATAX", "gto", SMALL).to_dict()
        assert payload["schema"] == REQUEST_SCHEMA
        assert payload["kind"] == "SimulationRequest"
        round_tripped = json.loads(json.dumps(payload))
        assert SimulationRequest.from_dict(round_tripped) == \
            SimulationRequest("ATAX", "gto", SMALL)

    def test_schema_mismatch_rejected(self):
        payload = SimulationRequest("ATAX").to_dict()
        payload["schema"] = REQUEST_SCHEMA + 1
        with pytest.raises(ValueError, match="schema"):
            SimulationRequest.from_dict(payload)

    def test_wrong_kind_rejected(self):
        payload = SimulationRequest("ATAX").to_dict()
        payload["kind"] = "SomethingElse"
        with pytest.raises(ValueError, match="kind"):
            SimulationRequest.from_dict(payload)


class TestResultRoundTrip:
    def test_result_identity_through_json(self):
        result = execute(SimulationRequest("ATAX", "ciao-c", SMALL))
        payload = json.loads(json.dumps(result.to_dict()))
        restored = SimulationResult.from_dict(payload)
        assert restored == result
        assert restored.ipc == result.ipc
        assert payload["schema"] == RESULT_SCHEMA


class TestJobRecordRoundTrip:
    def make_record(self) -> JobRecord:
        request = SimulationRequest("SYRK", "ciao-c", SMALL, backend="lockstep")
        return JobRecord.for_request(
            request,
            job_id="abc123-7",
            cache_key=request.cache_key(),
            submitted_at=12.5,
        )

    def test_queued_record_identity(self):
        record = self.make_record()
        assert JobRecord.from_dict(record.to_dict()) == record

    def test_terminal_record_identity_through_json(self):
        record = self.make_record()
        record.advance(JobState.RUNNING)
        record.advance(JobState.DONE, source="executed", finished_at=14.0)
        payload = json.loads(json.dumps(record.to_dict()))
        restored = JobRecord.from_dict(payload)
        assert restored == record
        assert restored.state is JobState.DONE
        assert restored.source == "executed"
        assert payload["schema"] == JOB_SCHEMA
        assert payload["kind"] == "JobRecord"

    def test_failed_record_keeps_error_text(self):
        record = self.make_record()
        record.advance(JobState.FAILED, error="boom: kernel exploded")
        restored = JobRecord.from_dict(record.to_dict())
        assert restored.state is JobState.FAILED
        assert restored.error == "boom: kernel exploded"

    def test_unknown_schema_rejected(self):
        payload = self.make_record().to_dict()
        payload["schema"] = JOB_SCHEMA + 1
        with pytest.raises(ValueError, match="schema"):
            JobRecord.from_dict(payload)

    def test_wrong_kind_rejected(self):
        payload = self.make_record().to_dict()
        payload["kind"] = "SomethingElse"
        with pytest.raises(ValueError, match="kind"):
            JobRecord.from_dict(payload)

    def test_for_request_captures_identity_fields(self):
        record = self.make_record()
        assert record.benchmark == "SYRK"
        assert record.scheduler == "ciao-c"
        assert record.backend == "lockstep"
        assert record.request_kind == "SimulationRequest"
        assert record.state is JobState.QUEUED


class TestCodec:
    def test_tuples_and_int_keyed_dicts_survive(self):
        value = {"matrix": {1: {2: 3}}, "pair": (1, "a"), "none": None}
        assert decode_value(encode_value(value)) == value

    def test_unregistered_dataclass_rejected(self):
        import dataclasses

        @dataclasses.dataclass
        class NotRegistered:
            x: int = 1

        with pytest.raises(TypeError, match="NotRegistered"):
            encode_value(NotRegistered())


class TestCanonicalize:
    def test_aliases_resolve(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        canonical = SimulationRequest("atax", "ciao_c", SMALL).canonicalize()
        assert canonical.benchmark == "ATAX"
        assert canonical.scheduler == "ciao-c"
        assert canonical.backend == "reference"

    def test_env_backend_applies(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "lockstep")
        assert SimulationRequest("ATAX").canonicalize().backend == "lockstep"

    def test_unknown_names_raise(self):
        with pytest.raises(KeyError, match="unknown scheduler"):
            SimulationRequest("ATAX", "nope").canonicalize()
        with pytest.raises(KeyError, match="unknown backend"):
            SimulationRequest("ATAX", backend="nope").canonicalize()


class TestCacheKeyCompatibility:
    def test_shim_and_request_share_cache_keys(self):
        alias_key = SimulationRequest("SYRK", "ciao_c", SMALL).cache_key()
        api_key = SimulationRequest("SYRK", "ciao-c", SMALL).cache_key()
        assert alias_key == api_key

    def test_backend_is_part_of_the_key(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        base = SimulationRequest("SYRK", "gto", SMALL).cache_key()
        lockstep = SimulationRequest(
            "SYRK", "gto", SMALL, backend="lockstep"
        ).cache_key()
        assert base != lockstep

    def test_default_backend_matches_explicit_reference(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert SimulationRequest("SYRK", "gto", SMALL).cache_key() == \
            SimulationRequest("SYRK", "gto", SMALL, backend="reference").cache_key()


class TestBackendRegistry:
    def test_builtins_registered(self):
        names = backend_names()
        assert "reference" in names and "lockstep" in names

    def test_resolution_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend_name(None) == "reference"
        monkeypatch.setenv("REPRO_BACKEND", "lockstep")
        assert resolve_backend_name(None) == "lockstep"
        assert resolve_backend_name("reference") == "reference"  # arg wins

    def test_aliases(self):
        assert resolve_backend_name("serialized") == "reference"
        assert resolve_backend_name("lock-step") == "lockstep"

    def test_instances_satisfy_protocol(self):
        assert isinstance(get_backend("reference"), Backend)
        assert isinstance(get_backend("lockstep"), Backend)

    def test_out_of_tree_backend(self, monkeypatch):
        class EchoBackend:
            name = "echo"

            def execute(self, request):
                return SimulationResult(
                    kernel_name=request.benchmark_name,
                    scheduler_name=request.scheduler,
                    backend=self.name,
                )

        register_backend("echo-test", EchoBackend, replace=True)
        result = execute(SimulationRequest("ATAX", backend="echo-test"))
        assert result.backend == "echo"
        assert result.kernel_name == "ATAX"


class TestExecute:
    def test_results_carry_backend_name(self):
        ref = execute(SimulationRequest("ATAX", "gto", SMALL, backend="reference"))
        lock = execute(SimulationRequest("ATAX", "gto", SMALL, backend="lockstep"))
        assert ref.backend == "reference"
        assert lock.backend == "lockstep"

    def test_run_benchmark_backend_argument(self):
        from repro.harness.runner import run_benchmark

        result = run_benchmark("ATAX", "gto", backend="lockstep", scale=0.05, seed=1)
        assert result.backend == "lockstep"

    def test_run_benchmark_env_backend(self, monkeypatch):
        from repro.harness.runner import run_benchmark

        monkeypatch.setenv("REPRO_BACKEND", "lockstep")
        result = run_benchmark("ATAX", "gto", scale=0.05, seed=1)
        assert result.backend == "lockstep"
