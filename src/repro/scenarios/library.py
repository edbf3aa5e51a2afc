"""The named co-location scenario library.

:class:`ColocationScenario` is the reproducible unit of the co-location
evaluation: a named tenant mix (kernel x scheduler x SM partition, plus
optional staggered launch cycles), pinned to a scale and seed so a bare
``repro run --scenario NAME`` regenerates the same numbers forever.

:data:`COLOCATION_SCENARIOS` holds the library in presentation order: the
hand-written built-ins first, then every *promoted* scenario — worst cases
discovered by the seeded search driver (:mod:`repro.scenarios.search`) and
pinned into ``promoted.json`` next to this module (see
:mod:`repro.scenarios.promote`).  Promoted entries are full library members:
``repro run --scenario`` accepts them and ``scripts/regen_goldens.py`` pins
their results bit-for-bit.

The scenario types are defined here and nowhere else; import them from this
module (or from :mod:`repro.scenarios`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional

from repro.api import MultiTenantRequest, RunConfig, TenantSpec

#: Version of the scenario JSON form (``to_json`` / ``from_json``), shared
#: by ``promoted.json`` and the ``repro scenarios generate`` output.
SCENARIO_SCHEMA = 1

#: The promoted-scenario fixture committed next to this module.
PROMOTED_PATH = Path(__file__).parent / "promoted.json"


@dataclass(frozen=True)
class ColocationScenario:
    """One named co-location experiment: tenants, partition, pinned sizing.

    ``tenants`` lists ``(name, benchmark, scheduler, sm_ids)``; every tenant
    automatically receives a distinct address space (separate processes, so
    working sets only interact through cache capacity and bandwidth).
    ``scale`` / ``seed`` are the scenario's *pinned* sizing — the numbers a
    bare ``repro run --scenario NAME`` reproduces — and can be overridden.

    ``launch_cycles`` optionally staggers the tenants' kernel launches (one
    global arrival cycle per tenant, in ``tenants`` order); empty means every
    tenant launches at cycle 0, the classic simultaneous path.
    """

    name: str
    description: str
    tenants: tuple[tuple[str, str, str, tuple[int, ...]], ...]
    scale: float = 0.1
    seed: int = 1
    launch_cycles: tuple[int, ...] = field(default=())

    def request(
        self,
        *,
        scale: Optional[float] = None,
        seed: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> MultiTenantRequest:
        """Build the scenario's :class:`MultiTenantRequest`."""
        config = RunConfig(
            scale=self.scale if scale is None else scale,
            seed=self.seed if seed is None else seed,
        )
        launches = self.launch_cycles or (0,) * len(self.tenants)
        if len(launches) != len(self.tenants):
            raise ValueError(
                f"scenario {self.name!r} pins {len(self.launch_cycles)} launch "
                f"cycles for {len(self.tenants)} tenants"
            )
        return MultiTenantRequest(
            tenants=tuple(
                TenantSpec(
                    name=name,
                    benchmark=benchmark,
                    scheduler=scheduler,
                    sm_ids=tuple(sm_ids),
                    address_space=index + 1,
                    launch_cycle=launches[index],
                )
                for index, (name, benchmark, scheduler, sm_ids) in enumerate(self.tenants)
            ),
            run_config=config,
            tag=f"scenario:{self.name}",
            backend=backend,
        )

    # -- JSON form (promoted.json, `repro scenarios generate` output) ---
    def to_json(self) -> dict:
        """Plain-JSON form; :func:`scenario_from_json` restores it."""
        payload: dict = {
            "schema": SCENARIO_SCHEMA,
            "name": self.name,
            "description": self.description,
            "tenants": [
                {
                    "name": name,
                    "benchmark": benchmark,
                    "scheduler": scheduler,
                    "sm_ids": list(sm_ids),
                }
                for name, benchmark, scheduler, sm_ids in self.tenants
            ],
            "scale": self.scale,
            "seed": self.seed,
        }
        if self.launch_cycles:
            payload["launch_cycles"] = list(self.launch_cycles)
        return payload


def scenario_from_json(payload: Mapping) -> ColocationScenario:
    """Inverse of :meth:`ColocationScenario.to_json` (``ValueError`` on drift)."""
    if payload.get("schema") != SCENARIO_SCHEMA:
        raise ValueError(
            f"unsupported scenario schema {payload.get('schema')!r} "
            f"(supported: {SCENARIO_SCHEMA})"
        )
    return ColocationScenario(
        name=payload["name"],
        description=payload["description"],
        tenants=tuple(
            (t["name"], t["benchmark"], t["scheduler"], tuple(t["sm_ids"]))
            for t in payload["tenants"]
        ),
        scale=payload["scale"],
        seed=payload["seed"],
        launch_cycles=tuple(payload.get("launch_cycles", ())),
    )


#: Named co-location scenarios, in presentation order.  SM (Mars, APKI 140)
#: is the canonical cache-thrasher, 2DCONV (PolyBench CI, APKI 9) the
#: canonical compute-bound tenant; the pinned pairing demonstrably shows
#: per-tenant slowdown > 1.0 vs isolated runs (tests/test_multi_tenant.py).
#: Promoted search discoveries (``promoted.json``) are appended below.
COLOCATION_SCENARIOS: dict[str, ColocationScenario] = {
    scenario.name: scenario
    for scenario in (
        ColocationScenario(
            name="thrash-vs-compute",
            description="cache-thrasher (SM) next to a compute-bound tenant (2DCONV)",
            tenants=(
                ("thrash", "SM", "gto", (0,)),
                ("compute", "2DCONV", "gto", (1,)),
            ),
        ),
        ColocationScenario(
            name="symmetric-thrash",
            description="two identical cache-thrashers (ATAX) fighting over L2/DRAM",
            tenants=(
                ("left", "ATAX", "gto", (0,)),
                ("right", "ATAX", "gto", (1,)),
            ),
        ),
        ColocationScenario(
            name="mixed-schedulers",
            description="same workload, GTO vs CIAO-C side by side",
            tenants=(
                ("gto", "ATAX", "gto", (0,)),
                ("ciao", "ATAX", "ciao-c", (1,)),
            ),
        ),
        ColocationScenario(
            name="asymmetric-split",
            description="high-APKI tenant on two SMs vs compute-bound tenant on one",
            tenants=(
                ("wide", "GESUMMV", "gto", (0, 1)),
                ("narrow", "2DCONV", "gto", (2,)),
            ),
        ),
        ColocationScenario(
            name="quad-stress",
            description="four tenants, one SM each, mixed workload classes",
            tenants=(
                ("lws", "ATAX", "gto", (0,)),
                ("sws", "SYRK", "gto", (1,)),
                ("mapreduce", "SM", "gto", (2,)),
                ("compute", "2DCONV", "gto", (3,)),
            ),
        ),
        ColocationScenario(
            name="ciao-shield",
            description="does CIAO-C protect a thrashed tenant better than GTO?",
            tenants=(
                ("shielded", "SYRK", "ciao-c", (0,)),
                ("aggressor", "SM", "gto", (1,)),
            ),
        ),
    )
}

#: Names of the hand-written scenarios above (promoted entries excluded) —
#: the search acceptance bar compares discovered slowdowns against these.
BUILTIN_SCENARIO_NAMES: tuple[str, ...] = tuple(COLOCATION_SCENARIOS)


def load_promoted(path: Optional[Path] = None) -> list[ColocationScenario]:
    """Read the promoted-scenario fixture (empty list when absent)."""
    path = PROMOTED_PATH if path is None else path
    if not path.exists():
        return []
    payload = json.loads(path.read_text())
    return [scenario_from_json(entry) for entry in payload["scenarios"]]


def _install_promoted() -> None:
    for scenario in load_promoted():
        # Promoted names must not shadow a built-in: the fixture is
        # machine-written, so fail loudly rather than silently replace.
        if scenario.name in BUILTIN_SCENARIO_NAMES:
            raise ValueError(
                f"promoted scenario {scenario.name!r} collides with a built-in"
            )
        COLOCATION_SCENARIOS[scenario.name] = scenario


_install_promoted()


def colocation_scenario_names() -> tuple[str, ...]:
    """Names of every library scenario (built-ins first, then promoted)."""
    return tuple(COLOCATION_SCENARIOS)


def colocation_scenario(
    name: str,
    *,
    scale: Optional[float] = None,
    seed: Optional[int] = None,
    backend: Optional[str] = None,
) -> MultiTenantRequest:
    """Build the named scenario's request (``KeyError`` for unknown names)."""
    scenario = COLOCATION_SCENARIOS.get(name)
    if scenario is None:
        raise KeyError(
            f"unknown scenario {name!r} (known: {', '.join(COLOCATION_SCENARIOS)})"
        )
    return scenario.request(scale=scale, seed=seed, backend=backend)
