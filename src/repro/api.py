"""``repro.api`` — the typed, backend-pluggable simulation API.

This module defines the *one* canonical description of a simulation job and
the seam through which execution engines plug in:

* :class:`SimulationRequest` — benchmark + scheduler + :class:`RunConfig`
  (+ optional backend selection).  Every path that used to re-describe "one
  simulation" in its own shape (``run_benchmark``'s kwargs, the sweep
  engine's jobs, the result cache's key dicts, the CLI) now builds or
  consumes this dataclass.  ``canonicalize()`` resolves aliases so two
  spellings of the same job can never diverge; ``cache_key()`` derives the
  content-addressed result-cache key; ``to_dict()`` / ``from_dict()`` give
  it a stable, versioned, JSON-safe wire form (:data:`REQUEST_SCHEMA`).
* :func:`execute` — run a request on a backend.  Backends implement the
  :class:`repro.backends.Backend` protocol (``execute(request) ->
  SimulationResult``) and are selected per request, per call, or through the
  ``REPRO_BACKEND`` environment variable.  ``"reference"`` is the original
  serialized-SM engine; ``"lockstep"`` advances all SMs cycle-by-cycle
  against the shared L2/DRAM (see :mod:`repro.gpu.lockstep`).
* a serialization codec (:func:`encode_value` / :func:`decode_value`) that
  round-trips every registered configuration / statistics dataclass through
  JSON-safe primitives.  :class:`repro.gpu.gpu.SimulationResult` uses the
  same codec (:data:`RESULT_SCHEMA`), so cache entries and CLI JSON share
  one schema.

The convenience front end :func:`repro.harness.runner.run_benchmark` remains
supported and is now a thin shim over this module.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import re
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Optional, Sequence, Union

from repro.core.config import CIAOParameters
from repro.gpu.config import GPUConfig
from repro.sched.registry import canonical_scheduler_name
from repro.workloads.registry import get_benchmark
from repro.workloads.spec import BenchmarkSpec

#: Version of the :meth:`SimulationRequest.to_dict` wire format.  Bump when
#: the request schema changes incompatibly; ``from_dict`` rejects mismatches.
REQUEST_SCHEMA = 1

#: Version of the :meth:`~repro.gpu.gpu.SimulationResult.to_dict` wire
#: format (shared by the result cache and the CLI's JSON output).
RESULT_SCHEMA = 1

#: Version of the :meth:`MultiTenantRequest.to_dict` wire format.
MULTI_TENANT_SCHEMA = 1

#: Version of the :meth:`JobRecord.to_dict` wire format (the serving
#: layer's job-lifecycle envelope; see :mod:`repro.serve`).
JOB_SCHEMA = 1


# ---------------------------------------------------------------------------
# Serialization codec: registered dataclasses/enums <-> JSON-safe primitives
# ---------------------------------------------------------------------------
_SERIALIZABLE: dict[str, type] = {}
#: Field names of every registered dataclass, in definition order, resolved
#: once at registration so :func:`encode_value` never re-reads them.
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def register_serializable(cls: type) -> type:
    """Register a dataclass or enum for :func:`encode_value` round-trips.

    Usable as a decorator.  Registration is by class name, which therefore
    must be unique across the package (it already is — the cache keys of
    :func:`content_key` rely on the same property).
    """
    name = cls.__name__
    existing = _SERIALIZABLE.get(name)
    if existing is not None and existing is not cls:
        raise ValueError(f"serializable name collision: {name!r}")
    _SERIALIZABLE[name] = cls
    if dataclasses.is_dataclass(cls):
        _FIELD_NAMES[cls] = tuple(f.name for f in dataclasses.fields(cls))
    return cls


#: Exact leaf types :func:`encode_value` passes through unchanged (an enum
#: that mixes in ``int`` or ``str`` is not one of them).
_JSON_LEAVES = (bool, int, float, str)


def encode_value(value: Any) -> Any:
    """Reduce ``value`` to JSON-safe primitives, reversibly.

    Registered dataclasses become ``{"__dc__": name, "fields": {...}}``,
    enums ``{"__enum__": name, "name": member}``, tuples
    ``{"__tuple__": [...]}`` and mappings with non-string keys
    ``{"__map__": [[k, v], ...]}``; everything composes recursively.
    ``decode_value`` restores an equal object graph.
    """
    if value is None or type(value) in _JSON_LEAVES:
        return value  # the common case first: most of a graph is leaves
    names = _FIELD_NAMES.get(type(value))
    if names is not None:
        return {
            "__dc__": type(value).__name__,
            "fields": {name: encode_value(getattr(value, name)) for name in names},
        }
    if isinstance(value, enum.Enum):
        name = type(value).__name__
        if _SERIALIZABLE.get(name) is not type(value):
            raise TypeError(f"{name} is not registered with register_serializable()")
        return {"__enum__": name, "name": value.name}
    if isinstance(value, tuple):
        return {"__tuple__": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    if isinstance(value, Mapping):
        if all(isinstance(k, str) and not k.startswith("__") for k in value):
            return {k: encode_value(v) for k, v in value.items()}
        return {"__map__": [[encode_value(k), encode_value(v)] for k, v in value.items()]}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        raise TypeError(
            f"{type(value).__name__} is not registered with register_serializable()"
        )
    raise TypeError(f"cannot encode {type(value).__name__}: {value!r}")


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    if isinstance(value, dict):
        if "__dc__" in value:
            cls = _SERIALIZABLE.get(value["__dc__"])
            if cls is None:
                raise ValueError(f"unknown serialized type {value['__dc__']!r}")
            fields = {k: decode_value(v) for k, v in value["fields"].items()}
            return cls(**fields)
        if "__enum__" in value:
            cls = _SERIALIZABLE.get(value["__enum__"])
            if cls is None:
                raise ValueError(f"unknown serialized enum {value['__enum__']!r}")
            return cls[value["name"]]
        if "__tuple__" in value:
            return tuple(decode_value(v) for v in value["__tuple__"])
        if "__map__" in value:
            return {decode_value(k): decode_value(v) for k, v in value["__map__"]}
        return {k: decode_value(v) for k, v in value.items()}
    return value


def check_schema(payload: Mapping[str, Any], kind: str, schema: int) -> None:
    """Validate the envelope of a versioned ``to_dict`` payload."""
    if not isinstance(payload, Mapping):
        raise ValueError(f"{kind} payload must be a mapping, got {type(payload).__name__}")
    if payload.get("kind") != kind:
        raise ValueError(f"expected a {kind} payload, got kind={payload.get('kind')!r}")
    if payload.get("schema") != schema:
        raise ValueError(
            f"unsupported {kind} schema {payload.get('schema')!r} (supported: {schema})"
        )


def content_key(canonical: Any, code_version: Optional[str] = None) -> str:
    """The result-cache key of a request already in its key form.

    The one identity codec behind both requests' ``cache_key``: a SHA-256
    over the :func:`encode_value` wire form of ``canonical`` plus the code
    version (:func:`repro.harness.cache.code_fingerprint` unless pinned).
    Callers pass the canonical request with ``tag`` dropped, every
    benchmark name expanded to its full :class:`BenchmarkSpec` and, for a
    co-located request, ``total_sms`` resolved to ``machine_sms()``, so two
    spellings of one job share a key.  JSON floats round-trip through
    ``repr``, so nearby floats never alias.  The scheduler's constructor
    kwargs are not hashed: they derive from the spec and the
    :class:`RunConfig`, which are.
    """
    from repro.harness.cache import code_fingerprint

    payload = {
        "code": code_version if code_version is not None else code_fingerprint(),
        "request": encode_value(canonical),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# RunConfig (moved here from repro.harness.runner, which re-exports it)
# ---------------------------------------------------------------------------
@register_serializable
@dataclass
class RunConfig:
    """Sizing and configuration of one simulation run."""

    #: Scales the per-warp instruction count of the workload models
    #: (1.0 reproduces the default ~2000-2600 instructions per warp).
    scale: float = 1.0
    #: Workload RNG seed (streams are deterministic given the seed).
    seed: int = 1
    #: Optional launch-geometry overrides (defaults come from the spec).
    num_ctas: Optional[int] = None
    warps_per_cta: Optional[int] = None
    #: Machine configuration (Table I baseline when omitted).
    gpu_config: GPUConfig = field(default_factory=GPUConfig.gtx480)
    #: Fig. 12b knob: multiply DRAM bandwidth (2.0 = the "2X" variants).
    dram_bandwidth_scale: float = 1.0
    #: CIAO thresholds / epochs (paper defaults when omitted).
    ciao_params: Optional[CIAOParameters] = None
    #: Hard cycle budget per SM (guards against pathological runs).
    max_cycles: Optional[int] = None


def scheduler_kwargs_for(
    scheduler: str, spec: BenchmarkSpec, run_config: RunConfig
) -> dict:
    """Per-benchmark scheduler constructor arguments (profiled knobs)."""
    key = canonical_scheduler_name(scheduler)
    if key == "best-swl":
        return {"warp_limit": spec.nwrp}
    if key == "statpcal":
        # Token holders keep L1D allocation rights; the profiled limit is the
        # natural token count (Li et al. size tokens like a wavefront limit).
        return {"token_count": max(2, spec.nwrp)}
    if key.startswith("ciao"):
        params = run_config.ciao_params or CIAOParameters.paper_defaults()
        return {"params": params}
    return {}


# ---------------------------------------------------------------------------
# The canonical job descriptor
# ---------------------------------------------------------------------------
class _RunsBenchmark:
    """Name and spec of a descriptor's ``benchmark`` (a name or a spec)."""

    benchmark: Union[str, BenchmarkSpec]

    @property
    def benchmark_name(self) -> str:
        return (
            self.benchmark.name
            if isinstance(self.benchmark, BenchmarkSpec)
            else str(self.benchmark)
        )

    def spec(self) -> BenchmarkSpec:
        """The resolved benchmark specification."""
        if isinstance(self.benchmark, BenchmarkSpec):
            return self.benchmark
        return get_benchmark(self.benchmark)


@register_serializable
@dataclass(frozen=True)
class SimulationRequest(_RunsBenchmark):
    """One fully-specified simulation: benchmark x scheduler x config.

    This is the single job descriptor shared by :func:`run_benchmark`, the
    parallel sweep engine, the result cache's key derivation and the CLI.
    """

    benchmark: Union[str, BenchmarkSpec]
    scheduler: str = "gto"
    run_config: RunConfig = field(default_factory=RunConfig)
    #: Free-form label callers use to route results (e.g. a Figure 12
    #: variant name or a sensitivity-sweep parameter value).
    tag: Optional[str] = None
    #: Execution engine name (see :mod:`repro.backends`).  ``None`` defers
    #: to ``REPRO_BACKEND`` or the default ``"reference"`` engine.
    backend: Optional[str] = None

    # -- identity ------------------------------------------------------
    def scheduler_kwargs(self) -> dict:
        """Constructor kwargs the scheduler receives for this request."""
        return scheduler_kwargs_for(self.scheduler, self.spec(), self.run_config)

    def resolved_backend(self) -> str:
        """The concrete engine name (environment default applied)."""
        from repro.backends import resolve_backend_name

        return resolve_backend_name(self.backend)

    def canonicalize(self) -> "SimulationRequest":
        """Resolve every alias so equal jobs compare equal.

        The benchmark name takes the registry's canonical spelling, the
        scheduler its canonical hyphenated name, and the backend its
        concrete resolved name (environment default applied).  Unknown
        names raise ``KeyError`` here rather than mid-simulation.
        """
        benchmark = (
            self.benchmark
            if isinstance(self.benchmark, BenchmarkSpec)
            else self.spec().name
        )
        return replace(
            self,
            benchmark=benchmark,
            scheduler=canonical_scheduler_name(self.scheduler),
            backend=self.resolved_backend(),
        )

    def cache_key(self, *, code_version: Optional[str] = None) -> str:
        """Content hash identifying this job (see :func:`content_key`)."""
        canonical = self.canonicalize()
        return content_key(
            replace(canonical, benchmark=canonical.spec(), tag=None), code_version
        )

    # -- wire format ---------------------------------------------------
    def to_dict(self) -> dict:
        """Versioned JSON-safe form; ``from_dict`` restores an equal request."""
        return {
            "schema": REQUEST_SCHEMA,
            "kind": "SimulationRequest",
            "data": encode_value(self),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SimulationRequest":
        """Inverse of :meth:`to_dict` (raises ``ValueError`` on schema drift)."""
        check_schema(payload, "SimulationRequest", REQUEST_SCHEMA)
        value = decode_value(payload["data"])
        if not isinstance(value, cls):
            raise ValueError(f"payload decoded to {type(value).__name__}, not {cls.__name__}")
        return value


# ---------------------------------------------------------------------------
# Multi-tenant (co-located) job descriptors
# ---------------------------------------------------------------------------
#: Tenant labels appear in CLI specs (``name=BENCH/SCHED:SMS``), cache keys
#: and result dictionaries, so keep them to a safe identifier alphabet.
_TENANT_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.+-]*$")


@register_serializable
@dataclass(frozen=True)
class TenantSpec(_RunsBenchmark):
    """One tenant of a co-located launch: kernel x scheduler x SM partition.

    ``sm_ids`` are the machine SM slots this tenant owns; across a
    :class:`MultiTenantRequest` the partitions must be disjoint and cover
    the machine exactly.

    ``address_space`` is the tenant's address-space colour: tenants with the
    same colour share virtual addresses (colour 0 is the kernel's natural
    address layout — required for bit-exact parity with single-kernel
    launches); distinct colours shift the tenant's global addresses into
    private, never-aliasing ranges, modelling separate processes whose
    working sets only interact through cache capacity and bandwidth (see
    :func:`repro.workloads.synthetic.isolate_address_space`).

    ``launch_cycle`` staggers the tenant's kernel launch: its SMs sit idle
    until the global clock reaches that cycle, then begin issuing — the
    co-location analogue of a kernel arriving mid-run.  Cycle 0 (the
    default) is the simultaneous-launch path, bit-identical to requests
    that predate the field.
    """

    name: str
    benchmark: Union[str, BenchmarkSpec]
    scheduler: str = "gto"
    sm_ids: tuple[int, ...] = ()
    address_space: int = 0
    launch_cycle: int = 0

    def scheduler_kwargs(self, run_config: RunConfig) -> dict:
        """Constructor kwargs this tenant's scheduler receives."""
        return scheduler_kwargs_for(self.scheduler, self.spec(), run_config)

    def validate(self) -> None:
        """Check the tenant in isolation (partition checks happen above)."""
        if not _TENANT_NAME_RE.match(self.name or ""):
            raise ValueError(
                f"invalid tenant name {self.name!r} (use letters, digits, "
                "and ._+- after a leading alphanumeric)"
            )
        if not self.sm_ids:
            raise ValueError(f"tenant {self.name!r} owns no SMs")
        if any(not isinstance(i, int) or i < 0 for i in self.sm_ids):
            raise ValueError(f"tenant {self.name!r} has invalid SM ids {self.sm_ids}")
        if len(set(self.sm_ids)) != len(self.sm_ids):
            raise ValueError(f"tenant {self.name!r} lists an SM id twice")
        if not isinstance(self.address_space, int) or self.address_space < 0:
            raise ValueError(
                f"tenant {self.name!r} has invalid address space "
                f"{self.address_space!r} (need a small non-negative int)"
            )
        if not isinstance(self.launch_cycle, int) or self.launch_cycle < 0:
            raise ValueError(
                f"tenant {self.name!r} has invalid launch cycle "
                f"{self.launch_cycle!r} (need a non-negative int)"
            )


@register_serializable
@dataclass(frozen=True)
class MultiTenantRequest:
    """One co-located simulation: several tenants partitioning one machine.

    The tenants' ``sm_ids`` must be disjoint and, when ``total_sms`` is
    unset, partition ``range(machine_sms())`` exactly (no gaps — a typo'd
    partition fails loudly).  Setting ``total_sms`` explicitly sizes the
    machine and *allows* unowned SMs, which simply sit idle; this is how a
    tenant runs "alone on the machine" for interference baselines
    (:meth:`isolated_request`).  ``run_config`` is shared by every tenant —
    its ``gpu_config.num_sms`` is *derived from the partition* at
    materialization time, everything else (scale, seed, cache geometry,
    DRAM scaling, cycle budget) applies machine-wide.

    Unlike :class:`SimulationRequest`, an unset ``backend`` defaults to
    ``"lockstep"`` rather than the ``REPRO_BACKEND`` environment value:
    co-location is structurally a lock-step concept — the serialized
    reference engine cannot interleave kernels in time — so the environment
    default (usually ``"reference"``) does not apply.
    """

    tenants: tuple[TenantSpec, ...] = ()
    run_config: RunConfig = field(default_factory=RunConfig)
    #: Free-form label callers use to route results (e.g. a scenario name).
    tag: Optional[str] = None
    #: Execution engine; ``None`` means ``"lockstep"`` (see class docstring).
    backend: Optional[str] = None
    #: Explicit machine size.  ``None`` derives it from the partition (which
    #: must then be gap-free); an explicit value allows idle SMs and is part
    #: of the cache key — the machine's L2/DRAM share scales with it.
    total_sms: Optional[int] = None

    # -- identity ------------------------------------------------------
    def machine_sms(self) -> int:
        """SM count of the shared machine (explicit or derived)."""
        if self.total_sms is not None:
            return self.total_sms
        return max((max(t.sm_ids) for t in self.tenants if t.sm_ids), default=0) + 1

    @property
    def benchmark_name(self) -> str:
        """Display name: the tenants' benchmarks joined (sweep-table key)."""
        return "+".join(t.benchmark_name for t in self.tenants)

    @property
    def scheduler(self) -> str:
        """Display name: the tenants' schedulers joined (sweep-table key)."""
        return "+".join(t.scheduler for t in self.tenants)

    def tenant(self, name: str) -> TenantSpec:
        """The tenant named ``name`` (raises ``KeyError`` when absent)."""
        for t in self.tenants:
            if t.name == name:
                return t
        raise KeyError(f"unknown tenant {name!r}")

    def validate(self) -> None:
        """Check tenant names and the SM partition; raises ``ValueError``."""
        if not self.tenants:
            raise ValueError("a multi-tenant request needs at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        claimed: dict[int, str] = {}
        for t in self.tenants:
            t.validate()
            for sm_id in t.sm_ids:
                if sm_id in claimed:
                    raise ValueError(
                        f"SM {sm_id} assigned to both {claimed[sm_id]!r} and {t.name!r}"
                    )
                claimed[sm_id] = t.name
        machine = self.machine_sms()
        if self.total_sms is not None and self.total_sms <= 0:
            raise ValueError("total_sms must be positive")
        out_of_range = sorted(i for i in claimed if i >= machine)
        if out_of_range:
            raise ValueError(
                f"SM ids {out_of_range} lie outside the {machine}-SM machine"
            )
        if self.total_sms is None and set(claimed) != set(range(machine)):
            missing = sorted(set(range(machine)) - set(claimed))
            raise ValueError(
                f"tenant partitions must cover SMs 0..{machine - 1} "
                f"contiguously (missing {missing}); set total_sms explicitly "
                "to leave SMs idle"
            )

    def resolved_backend(self) -> str:
        """The concrete engine name (``"lockstep"`` when unset)."""
        from repro.backends import resolve_backend_name

        if self.backend is None:
            return "lockstep"
        return resolve_backend_name(self.backend)

    def canonicalize(self) -> "MultiTenantRequest":
        """Resolve aliases in every tenant and validate the partition."""
        tenants = tuple(
            replace(
                t,
                benchmark=(
                    t.benchmark if isinstance(t.benchmark, BenchmarkSpec) else t.spec().name
                ),
                scheduler=canonical_scheduler_name(t.scheduler),
                sm_ids=tuple(sorted(t.sm_ids)),
            )
            for t in self.tenants
        )
        canonical = replace(
            self, tenants=tenants, backend=self.resolved_backend()
        )
        canonical.validate()
        return canonical

    def cache_key(self, *, code_version: Optional[str] = None) -> str:
        """Content hash identifying this job (see :func:`content_key`).

        Partition-sensitive: the tenants' SM ids and the machine size are
        part of the key, because they change how the tenants contend.
        """
        canonical = self.canonicalize()
        return content_key(
            replace(
                canonical,
                tenants=tuple(replace(t, benchmark=t.spec()) for t in canonical.tenants),
                tag=None,
                total_sms=canonical.machine_sms(),
            ),
            code_version,
        )

    def isolated_request(self, name: str) -> "MultiTenantRequest":
        """The tenant's isolated baseline: alone on the *same* machine.

        A single-tenant request on a machine of the same ``machine_sms()``
        size — the tenant keeps its SM partition, every other SM sits idle.
        Hardware (L2 share, DRAM bandwidth) is identical to the co-located
        run, so co-located cycles / isolated cycles is pure inter-tenant
        contention (see :func:`repro.analysis.metrics.tenant_slowdowns`).
        """
        tenant = self.tenant(name)
        return MultiTenantRequest(
            tenants=(tenant,),
            run_config=self.run_config,
            tag=f"isolated:{name}",
            backend=self.resolved_backend(),
            total_sms=self.machine_sms(),
        )

    # -- wire format ---------------------------------------------------
    def to_dict(self) -> dict:
        """Versioned JSON-safe form; ``from_dict`` restores an equal request."""
        payload = {
            "schema": MULTI_TENANT_SCHEMA,
            "kind": "MultiTenantRequest",
            "data": encode_value(self),
        }
        for tenant in payload["data"]["fields"]["tenants"]["__tuple__"]:
            # Simultaneous launches predate the stagger field; omitting the
            # zero default keeps the schema-1 wire form (golden fixtures,
            # existing cache entries) byte-identical, and ``from_dict``
            # restores the default on decode.
            if tenant["fields"].get("launch_cycle") == 0:
                tenant["fields"].pop("launch_cycle")
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MultiTenantRequest":
        """Inverse of :meth:`to_dict` (raises ``ValueError`` on schema drift)."""
        check_schema(payload, "MultiTenantRequest", MULTI_TENANT_SCHEMA)
        value = decode_value(payload["data"])
        if not isinstance(value, cls):
            raise ValueError(f"payload decoded to {type(value).__name__}, not {cls.__name__}")
        return value


#: Either job descriptor the execution engines and the sweep engine accept.
AnyRequest = Union[SimulationRequest, MultiTenantRequest]

#: Version of the :func:`encode_request_batch` wire form (the unit of work
#: a coordinator ships to a ``repro worker`` process).
BATCH_SCHEMA = 1

def result_digest(payload: Any) -> str:
    """Blake2b content digest of a result payload's canonical JSON form.

    Re-exported integrity primitive (the import is deferred because
    ``repro.harness`` imports this module at package init): the digest
    stamped onto cache envelopes, worker outcome rows and serve's
    ``X-Repro-Digest`` header — one definition, verified identically at
    every hop.  See :func:`repro.harness.integrity.result_digest`.
    """
    from repro.harness.integrity import result_digest as _digest

    return _digest(payload)


def decode_request(payload: Any) -> AnyRequest:
    """Dispatch a request wire-form payload to the matching ``from_dict``.

    The single decoder shared by the serving layer (``POST /simulate``)
    and the distributed worker (``POST /batch``), so the two front ends can
    never disagree on what a request payload means.
    """
    if not isinstance(payload, Mapping):
        raise ValueError(
            f"request payload must be an object, got {type(payload).__name__}"
        )
    kind = payload.get("kind")
    if kind == "SimulationRequest":
        return SimulationRequest.from_dict(payload)
    if kind == "MultiTenantRequest":
        return MultiTenantRequest.from_dict(payload)
    raise ValueError(f"unsupported request kind {kind!r}")


def encode_request_batch(requests: Sequence[AnyRequest]) -> dict:
    """Versioned JSON-safe form of a request list (order-preserving).

    The batch envelope a sweep coordinator POSTs to ``repro worker``; each
    element is the request's own versioned wire form, so a batch of one is
    exactly one ``to_dict()`` payload inside a list.
    """
    return {
        "schema": BATCH_SCHEMA,
        "kind": "RequestBatch",
        "requests": [request.to_dict() for request in requests],
    }


def decode_request_batch(payload: Mapping[str, Any]) -> list[AnyRequest]:
    """Inverse of :func:`encode_request_batch` (``ValueError`` on drift)."""
    check_schema(payload, "RequestBatch", BATCH_SCHEMA)
    requests = payload.get("requests")
    if not isinstance(requests, list):
        raise ValueError("RequestBatch payload carries no request list")
    return [decode_request(entry) for entry in requests]


# ---------------------------------------------------------------------------
# Job lifecycle (the serving layer's view of one submitted request)
# ---------------------------------------------------------------------------
@register_serializable
class JobState(enum.Enum):
    """Lifecycle states of a served simulation job.

    Jobs move strictly forward: ``QUEUED`` → ``RUNNING`` → ``DONE`` /
    ``FAILED``.  Requests answered without simulating (cache hits, requests
    coalesced onto an identical in-flight job) jump straight from ``QUEUED``
    to their terminal state — they were never dispatched to an engine.
    """

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


#: Legal lifecycle transitions (see :meth:`JobRecord.advance`).
_JOB_TRANSITIONS: dict[JobState, tuple[JobState, ...]] = {
    JobState.QUEUED: (JobState.RUNNING, JobState.DONE, JobState.FAILED),
    JobState.RUNNING: (JobState.DONE, JobState.FAILED),
    JobState.DONE: (),
    JobState.FAILED: (),
}


@register_serializable
@dataclass
class JobRecord:
    """One submitted request's lifecycle record inside the serving layer.

    Created when :mod:`repro.serve` accepts a request and kept (bounded)
    for the ``/jobs`` endpoints: which request this was (its
    content-addressed ``cache_key`` plus human-readable identity), how it
    progressed (``state``), and how the response was ultimately produced
    (``source``: served from the result cache, coalesced onto an identical
    in-flight job, or executed by an engine).  ``to_dict`` / ``from_dict``
    give it the same versioned JSON wire form as the request and result
    types (:data:`JOB_SCHEMA`).
    """

    job_id: str
    cache_key: str
    #: Request kind: ``"SimulationRequest"`` or ``"MultiTenantRequest"``.
    request_kind: str
    benchmark: str
    scheduler: str
    backend: str
    state: JobState = JobState.QUEUED
    #: How the response was produced: ``"cache"``, ``"coalesced"`` or
    #: ``"executed"`` (``None`` while the job is still pending).
    source: Optional[str] = None
    #: Terminal error message (``FAILED`` jobs only).
    error: Optional[str] = None
    #: Unix timestamps (0.0 when unset — records are wall-clock stamped by
    #: the service, not by this dataclass).
    submitted_at: float = 0.0
    finished_at: float = 0.0

    @classmethod
    def for_request(
        cls,
        request: AnyRequest,
        *,
        job_id: str,
        cache_key: str,
        submitted_at: float = 0.0,
    ) -> "JobRecord":
        """A fresh ``QUEUED`` record describing ``request``."""
        try:
            backend = request.resolved_backend()
        except KeyError:
            backend = str(request.backend)
        return cls(
            job_id=job_id,
            cache_key=cache_key,
            request_kind=type(request).__name__,
            benchmark=request.benchmark_name,
            scheduler=request.scheduler,
            backend=backend,
            submitted_at=submitted_at,
        )

    def advance(
        self,
        state: JobState,
        *,
        source: Optional[str] = None,
        error: Optional[str] = None,
        finished_at: float = 0.0,
    ) -> None:
        """Move to ``state``, rejecting illegal lifecycle transitions."""
        if state not in _JOB_TRANSITIONS[self.state]:
            raise ValueError(
                f"illegal job transition {self.state.value} -> {state.value} "
                f"(job {self.job_id})"
            )
        self.state = state
        if source is not None:
            self.source = source
        if error is not None:
            self.error = error
        if finished_at:
            self.finished_at = finished_at

    # -- wire format ---------------------------------------------------
    def to_dict(self) -> dict:
        """Versioned JSON-safe form; :meth:`from_dict` restores an equal record."""
        return {
            "schema": JOB_SCHEMA,
            "kind": "JobRecord",
            "data": encode_value(self),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "JobRecord":
        """Inverse of :meth:`to_dict` (raises ``ValueError`` on schema drift)."""
        check_schema(payload, "JobRecord", JOB_SCHEMA)
        value = decode_value(payload["data"])
        if not isinstance(value, cls):
            raise ValueError(f"payload decoded to {type(value).__name__}, not {cls.__name__}")
        return value


def execute(request: AnyRequest):
    """Execute ``request`` on its backend and return the ``SimulationResult``.

    For a :class:`SimulationRequest` the backend is ``request.backend``, or —
    when that is ``None`` — the ``REPRO_BACKEND`` environment variable,
    falling back to ``"reference"``.  A :class:`MultiTenantRequest` defaults
    to ``"lockstep"`` instead (see its docstring).
    """
    from repro.backends import get_backend

    return get_backend(request.resolved_backend()).execute(request)


def run_batch(requests, *, cache=None, retry=None):
    """Execute ``requests`` through the sweep core and return its outcome.

    The serving layer runs each cache miss as a batch of one through it
    (:class:`repro.serve.server.ReproService`).  The batch is planned and
    settled by the sweep books and run by the in-process attempt loop of
    :mod:`repro.harness.parallel`, so each request is retried on its own
    under ``retry`` (one attempt when ``None``) and a failing request never
    re-runs its neighbours.

    ``cache`` is an optional :class:`repro.harness.cache.ResultCache`: each
    request keeps its own content-addressed key, hits are returned without
    simulating, and misses are written back as each result completes.  No
    manifest or ledger row is written.

    Returns a :class:`repro.harness.parallel.SweepOutcome`: ``results``
    holds each request's result, or a
    :class:`~repro.harness.parallel.JobFailure` naming why it failed, in
    submission order, and ``attempts`` the executions each one consumed.
    """
    from repro.harness.parallel import RetryPolicy, _run_inprocess, _Sweep

    books = _Sweep(requests, cache=cache, backend=None, on_error="skip",
                   manifest=None)
    policy = retry if retry is not None else RetryPolicy(max_attempts=1)
    _run_inprocess(books, policy, policy.max_attempts)
    return books.outcome()


def _decode_cached_result(payload: Any):
    """Reconstruct a cached result; ``None`` (treated as a miss) on drift."""
    from repro.gpu.gpu import SimulationResult

    if isinstance(payload, SimulationResult):  # legacy pre-schema entry
        return payload
    if isinstance(payload, Mapping):
        try:
            return SimulationResult.from_dict(payload)
        except (ValueError, KeyError, TypeError):
            return None
    return None


# ---------------------------------------------------------------------------
# Codec registrations for the configuration / statistics object graph
# ---------------------------------------------------------------------------
def _register_known_types() -> None:
    from repro.gpu.gpu import SimulationResult
    from repro.gpu.stats import SMStats, StallBreakdown, TenantStats, TimeSeries
    from repro.mem.cache import CacheConfig, WritePolicy
    from repro.mem.dram import DRAMConfig
    from repro.mem.interconnect import InterconnectConfig
    from repro.mem.tag_array import ReplacementPolicy
    from repro.mem.victim_tag_array import VTAConfig
    from repro.workloads.spec import ModelParams, PatternKind, WorkloadClass

    for cls in (
        GPUConfig,
        CacheConfig,
        WritePolicy,
        ReplacementPolicy,
        DRAMConfig,
        InterconnectConfig,
        VTAConfig,
        CIAOParameters,
        BenchmarkSpec,
        ModelParams,
        PatternKind,
        WorkloadClass,
        SMStats,
        StallBreakdown,
        TenantStats,
        TimeSeries,
        SimulationResult,
    ):
        register_serializable(cls)


_register_known_types()
