"""Every benchmark's reference instruction streams, pinned byte for byte.

The reference engine, and the golden fixtures computed on it, read each
warp's :class:`~repro.gpu.instruction.Instruction` stream from the kernel
launch's ``stream_factory``.  For every registry benchmark at scale 0.05 and
seed 1, in address colour 0 (a single-kernel launch's natural addresses) and
colour 3 (a co-located tenant shifted into a private address space), one
blake2b digest covers every (CTA, warp) stream in launch order: each
instruction's kind, latency and per-lane addresses.  A change to the
workload generator, the access patterns, the lane expansion or the tenant
address shift that moves one address fails here, for all 21 benchmarks;
the golden matrix simulates only ATAX, SYRK and WC.
"""

import hashlib
import struct

import pytest

from repro.api import MultiTenantRequest, RunConfig, SimulationRequest, TenantSpec
from repro.backends import materialize, materialize_tenants
from repro.workloads import benchmark_names

CONFIG = RunConfig(scale=0.05, seed=1)

#: ``stream_digest(reference_kernel(name, colour))`` per ``"name/colour"``.
#: Recompute them only for a deliberate change to the workload model.
EXPECTED = {
    "ATAX/0": "c372912dba6edf27d09aab24e9ae9b93",
    "ATAX/3": "0d2afa268468575f93cef926080e2a8d",
    "BICG/0": "3650f3aa0cbfe868dcc08b16ac3a0f1f",
    "BICG/3": "daabb8d94772f24724d53d3bce294492",
    "MVT/0": "f8e74d622e1727a8aa00e62d82af562d",
    "MVT/3": "e5f40acafc3077dc1d4f7e3cd622fa02",
    "GESUMMV/0": "2394acb43e8d31daee86730e25323557",
    "GESUMMV/3": "bcb3373cae6c55b5b933e6e1cd9feec0",
    "SYR2K/0": "216864782628c02b907bdd3429c0623a",
    "SYR2K/3": "d6ce171ca02498bf8d256f17816df316",
    "SYRK/0": "e52e8ceb9c1fb6093ebbc2817f33beb0",
    "SYRK/3": "e01f2c242d6cbb3422abc6057ad734a2",
    "KMN/0": "d3f21463a5b035646b0112b430e06f05",
    "KMN/3": "9dfe48a99585d209269b96fac6ff4d7c",
    "Kmeans/0": "a09b52a98bf97ce74fec67fe67be7a00",
    "Kmeans/3": "be5af9786b8bd4503b434c3104385665",
    "II/0": "2dd536747f08064365144c380d687d56",
    "II/3": "fd8abb766635aac5cdacd9515a1bfb2e",
    "PVC/0": "695c14148bb85284e92d8e97dacc2604",
    "PVC/3": "50e0cb95e73a08b7e1a23a0902f9bc9b",
    "SS/0": "0e3710d266b76a56b5c00a01db74f745",
    "SS/3": "c873cfd23466392e2d8d46ba45f285a5",
    "SM/0": "e29e3d78668df47ae8f5406b0a8dff21",
    "SM/3": "4a6de46d9406523523b1e539ba67c487",
    "WC/0": "0d98f88901046595f7e0daf88b2fa1c2",
    "WC/3": "4ce449656cdb5281b691d8b5ccc8687d",
    "2DCONV/0": "8e6e135474d576ecdd8ed51ffa01b69d",
    "2DCONV/3": "b6151d2079011a2e49012c671ca8a505",
    "CORR/0": "ffd0a8a9f3dab6c862b8b99b0cf6fe15",
    "CORR/3": "0e83165bdc23b21f7ad0b81ac512a17d",
    "Gaussian/0": "107e1e6a30a2b6c964c94ce9adca40da",
    "Gaussian/3": "ba5de9f50c2f8aab2add2d6df399753b",
    "Backprop/0": "aa62f39ebe7ffa68e0a9276615bc5931",
    "Backprop/3": "6c9b3e7dddbabf6b853697fdfe9ef9fd",
    "Hotspot/0": "a1f81237125d147382d48dae0eba9d27",
    "Hotspot/3": "8f4de41826277acb102dd2fe8e522e6a",
    "Lud/0": "d6810409a1f4a7ffcaecfb827a1e0e37",
    "Lud/3": "d2e37682372bccf66be4bacd3255f2bc",
    "NN/0": "bbc86cc459364ffe5db390477f3ad64d",
    "NN/3": "6ccb58b49f39561e927620da9411a733",
    "NW/0": "a4f553419e94af2a4732bc0171a748f9",
    "NW/3": "91199c66df13be9d2f4e61ee7b7e1bf0",
}


def reference_kernel(benchmark, colour):
    """The launch the reference engine runs for ``benchmark`` in ``colour``."""
    if colour == 0:
        _scheduler, kernel, _gpu, _config = materialize(
            SimulationRequest(benchmark=benchmark, scheduler="gto", run_config=CONFIG)
        )
        return kernel
    plans, _gpu, _config = materialize_tenants(
        MultiTenantRequest(
            tenants=(TenantSpec("pinned", benchmark, "gto", (0,), address_space=colour),),
            run_config=CONFIG,
        )
    )
    return plans[0].kernel


def stream_digest(kernel):
    digest = hashlib.blake2b(digest_size=16)
    for cta_index in range(kernel.num_ctas):
        for warp_index in range(kernel.warps_per_cta):
            for instruction in kernel.stream_factory(cta_index, warp_index, 0):
                addresses = instruction.addresses
                digest.update(instruction.kind.value.encode())
                digest.update(
                    struct.pack(
                        f"<II{len(addresses)}q",
                        instruction.latency,
                        len(addresses),
                        *addresses,
                    )
                )
    return digest.hexdigest()


@pytest.mark.parametrize("colour", [0, 3])
@pytest.mark.parametrize("name", benchmark_names())
def test_reference_stream_is_pinned(name, colour):
    assert stream_digest(reference_kernel(name, colour)) == EXPECTED[f"{name}/{colour}"]
