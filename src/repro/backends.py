"""``repro.backends`` — pluggable execution engines behind one protocol.

A *backend* turns a :class:`repro.api.SimulationRequest` into a
:class:`repro.gpu.gpu.SimulationResult`.  Three real engines ship in-tree:

``reference``
    The original serialized-SM loop (:meth:`repro.gpu.gpu.GPU.run`): SMs are
    simulated one after another against the shared memory subsystem.  Exact
    for the paper's per-SM mechanisms, underestimates inter-SM contention.
``lockstep``
    Cycle-by-cycle multi-SM execution (:func:`repro.gpu.lockstep.run_lockstep`):
    all SMs advance against one global clock, so simultaneous DRAM bursts
    genuinely queue behind each other.  The only engine that co-locates
    tenants (:func:`repro.gpu.lockstep.run_multi_tenant`).  Its SMs are the
    vector engine's trace-replaying :class:`~repro.gpu.vector.engine.VectorSM`;
    the same loop over plain reference SMs is the test oracle.  Bit-for-bit
    identical to ``reference`` for single-SM runs.
``vector``
    The batched warp engine (:mod:`repro.gpu.vector`): workload streams are
    extracted once into compact traces and greedy warp stretches issue in
    batched steps.  Bit-for-bit identical to ``reference`` (pinned against
    the golden fixtures) at several times its throughput.

A registered engine may still be unable to run here: the ``chaos`` wrapper
needs a configured fault plan, and selecting it without one raises
:class:`BackendUnavailableError` (see :func:`backend_availability`).

Selection precedence: an explicit ``backend=`` argument (or
``SimulationRequest.backend``) > the ``REPRO_BACKEND`` environment variable
> ``"reference"``.

Out-of-tree engines register through :func:`register_backend`::

    from repro.backends import register_backend

    class TracingBackend:
        name = "tracing"
        def execute(self, request):
            ...

    register_backend("tracing", TracingBackend)
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional, Protocol, runtime_checkable

from dataclasses import replace

from repro.gpu.gpu import GPU, SimulationResult, TenantPlan
from repro.gpu.lockstep import run_lockstep, run_multi_tenant
from repro.registry import Registry
from repro.sched.registry import (
    canonical_scheduler_name,
    scheduler_factory,
    uses_shared_cache,
)
from repro.workloads.synthetic import SyntheticKernelModel, isolate_address_space

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api import MultiTenantRequest, SimulationRequest

#: Environment variable naming the default backend for requests that do not
#: pin one explicitly.
BACKEND_ENV = "REPRO_BACKEND"

#: The engine used when neither the request nor the environment chooses.
DEFAULT_BACKEND = "reference"


class BackendUnavailableError(RuntimeError):
    """A registered backend cannot run here (e.g. chaos without a fault plan).

    Raised at *selection* time (:func:`get_backend`), not at import time:
    ``import repro`` always works, the registry always lists the backend,
    and the error explains what is missing.
    """

    def __init__(self, name: str, reason: str) -> None:
        super().__init__(f"backend {name!r} is unavailable: {reason}")
        self.backend = name
        self.reason = reason


@runtime_checkable
class Backend(Protocol):
    """The execution-engine seam: one method, one canonical job descriptor."""

    #: Canonical registry name, recorded on every result this engine produces.
    name: str

    def execute(self, request: "SimulationRequest") -> SimulationResult:
        """Run ``request`` to completion and return its result."""
        ...  # pragma: no cover - protocol


# ---------------------------------------------------------------------------
# Request materialisation shared by the in-tree engines
# ---------------------------------------------------------------------------
def materialize_model(request: "SimulationRequest"):
    """Canonicalise ``request`` and build its kernel model.

    Returns ``(canonical request, scheduler name, kernel model, kernel
    launch, run config)`` — the engine-independent half of request
    materialisation, shared by :func:`materialize` and backends that
    construct their own machine (the ``vector`` engine needs the model to
    key its trace intern cache).
    """
    request = request.canonicalize()
    spec = request.spec()
    config = request.run_config
    model = SyntheticKernelModel(
        spec,
        scale=config.scale,
        seed=config.seed,
        num_ctas=config.num_ctas,
        warps_per_cta=config.warps_per_cta,
    )
    kernel = model.kernel_launch()
    scheduler = canonical_scheduler_name(request.scheduler)
    return request, scheduler, model, kernel, config


def materialize(request: "SimulationRequest"):
    """Build the concrete (scheduler name, kernel, GPU, run config) of a request.

    Canonicalises the request first, so aliases ("ciao_c", "LockStep") can
    never yield a different machine than their canonical spellings.
    """
    request, scheduler, _model, kernel, config = materialize_model(request)
    gpu = GPU(
        config.gpu_config,
        scheduler_factory=scheduler_factory(scheduler, **request.scheduler_kwargs()),
        enable_shared_cache=uses_shared_cache(scheduler),
        dram_bandwidth_scale=config.dram_bandwidth_scale,
    )
    return scheduler, kernel, gpu, config


def materialize_tenants(request: "MultiTenantRequest"):
    """Build the concrete (tenant plans, GPU, run config) of a co-located job.

    Canonicalises (and therefore validates) the request, materialises each
    tenant's kernel and scheduler factory, and constructs the shared machine
    with ``num_sms`` *derived from the partition* — everything else in
    ``run_config.gpu_config`` applies machine-wide.
    """
    request = request.canonicalize()
    config = request.run_config
    plans: list[TenantPlan] = []
    for tenant in request.tenants:
        model = _tenant_model(tenant, config)
        kernel = replace(
            isolate_address_space(model.kernel_launch(), tenant.address_space),
            tenant=tenant.name,
        )
        plans.append(
            TenantPlan(
                name=tenant.name,
                kernel=kernel,
                scheduler_factory=scheduler_factory(
                    tenant.scheduler, **tenant.scheduler_kwargs(config)
                ),
                sm_ids=tuple(tenant.sm_ids),
                scheduler_name=tenant.scheduler,
                enable_shared_cache=uses_shared_cache(tenant.scheduler),
                launch_cycle=tenant.launch_cycle,
            )
        )
    gpu = GPU(
        config.gpu_config.with_overrides(num_sms=request.machine_sms()),
        scheduler_factory=plans[0].scheduler_factory,
        dram_bandwidth_scale=config.dram_bandwidth_scale,
    )
    return plans, gpu, config


def _tenant_model(tenant, config) -> SyntheticKernelModel:
    """The kernel model of one tenant of a co-located job."""
    return SyntheticKernelModel(
        tenant.spec(),
        scale=config.scale,
        seed=config.seed,
        num_ctas=config.num_ctas,
        warps_per_cta=config.warps_per_cta,
    )


def _is_multi_tenant(request) -> bool:
    from repro.api import MultiTenantRequest

    return isinstance(request, MultiTenantRequest)


class ReferenceBackend:
    """The serialized per-SM execution loop (the original engine)."""

    name = "reference"

    def execute(self, request: "SimulationRequest") -> SimulationResult:
        if _is_multi_tenant(request):
            raise ValueError(
                "the 'reference' backend simulates SMs one after another and "
                "cannot co-locate tenants; run multi-tenant requests on the "
                "'lockstep' backend"
            )
        scheduler, kernel, gpu, config = materialize(request)
        return gpu.run(kernel, max_cycles=config.max_cycles, scheduler_name=scheduler)


class LockstepBackend:
    """Cycle-by-cycle multi-SM execution against the shared L2/DRAM.

    Every SM replays an interned kernel trace on the vector engine's SM:
    the kernel's trace for a single-kernel request, and for a co-located
    request each tenant's trace, keyed by its kernel and address colour, so
    a co-located job, its isolated baselines and later rounds share one
    packing per tenant identity.  :func:`materialize` /
    :func:`materialize_tenants` give the same job on plain reference SMs,
    which is the test oracle.
    """

    name = "lockstep"

    def execute(self, request: "SimulationRequest") -> SimulationResult:
        from repro.gpu.vector.backend import vector_machine
        from repro.gpu.vector.engine import VectorGPU
        from repro.gpu.vector.trace import kernel_trace_for_model

        if _is_multi_tenant(request):
            request = request.canonicalize()
            plans, reference_gpu, config = materialize_tenants(request)
            sm_traces = {}
            for tenant, plan in zip(request.tenants, plans):
                trace = kernel_trace_for_model(
                    _tenant_model(tenant, config),
                    plan.kernel,
                    address_space=tenant.address_space,
                )
                sm_traces.update(dict.fromkeys(plan.sm_ids, trace))
            gpu = VectorGPU(
                reference_gpu.config,
                scheduler_factory=reference_gpu.scheduler_factory,
                dram_bandwidth_scale=config.dram_bandwidth_scale,
                sm_traces=sm_traces,
            )
            return run_multi_tenant(gpu, plans, max_cycles=config.max_cycles)
        scheduler, kernel, gpu, config = vector_machine(request)
        return run_lockstep(
            gpu, kernel, max_cycles=config.max_cycles, scheduler_name=scheduler
        )


def _make_vector_backend():
    """Instantiate the ``vector`` engine (its modules load on first use)."""
    from repro.gpu.vector.backend import VectorBackend

    return VectorBackend()


def _make_chaos_backend():
    """Instantiate the fault-injecting wrapper engine (needs an active plan).

    The ``chaos`` backend (:mod:`repro.harness.faults`) delegates to a real
    engine but injects failures/hangs/crashes from a seeded schedule.  It is
    always *registered*; selecting it without a configured
    :class:`~repro.harness.faults.FaultPlan` raises
    :class:`BackendUnavailableError` explaining how to configure one, so
    ``repro list --backends`` reports it honestly instead of crashing.
    """
    from repro.harness.faults import ChaosBackend, ChaosUnconfiguredError

    try:
        return ChaosBackend()
    except ChaosUnconfiguredError as exc:
        raise BackendUnavailableError("chaos", str(exc)) from exc


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
_REGISTRY: Registry = Registry("backend")


def register_backend(name, factory, *, aliases=(), replace=False):
    """Register an execution engine; ``factory()`` must yield a :class:`Backend`."""
    return _REGISTRY.register(name, factory, aliases=aliases, replace=replace)


register_backend("reference", ReferenceBackend, aliases=("serial", "serialized"))
register_backend("lockstep", LockstepBackend, aliases=("lock-step", "lock_step"))
register_backend("vector", _make_vector_backend, aliases=("vectorized",))
register_backend("chaos", _make_chaos_backend, aliases=("fault", "faults"))


def backend_names() -> tuple[str, ...]:
    """Canonical names of every registered backend."""
    return _REGISTRY.names()


def resolve_backend_name(name: Optional[str] = None) -> str:
    """Resolve ``name`` (or the environment / default) to a canonical name.

    Raises ``KeyError`` for unknown backends, naming the known ones.
    """
    if name is None:
        name = os.environ.get(BACKEND_ENV) or DEFAULT_BACKEND
    return _REGISTRY.canonical(name)


def get_backend(name: Optional[str] = None) -> Backend:
    """Instantiate the backend selected by ``name`` / ``REPRO_BACKEND``.

    Raises :class:`BackendUnavailableError` when the engine is registered
    but cannot run in this environment (e.g. ``chaos`` without a fault plan).
    """
    return _REGISTRY.get(resolve_backend_name(name))()


def backend_availability() -> dict[str, Optional[str]]:
    """``{canonical name: None | reason-string}`` for every backend.

    ``None`` means the engine instantiates here; a string is the
    human-readable reason it cannot (surfaced by ``repro list --backends``).
    """
    availability: dict[str, Optional[str]] = {}
    for name in _REGISTRY.names():
        try:
            _REGISTRY.get(name)()
        except BackendUnavailableError as exc:
            availability[name] = exc.reason
        except Exception as exc:  # a third-party factory may raise anything
            # Listing backends must never crash `repro list`: report the
            # engine as unavailable with the raw cause instead.
            availability[name] = f"{type(exc).__name__}: {exc}"
        else:
            availability[name] = None
    return availability
