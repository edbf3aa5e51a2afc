"""Unit tests for the workload registry and synthetic kernel models."""

import itertools
from dataclasses import replace

import pytest

from repro.gpu.coalescer import Coalescer
from repro.gpu.instruction import GLOBAL_MEMORY_KINDS, InstructionKind
from repro.workloads import (
    MEMORY_INTENSIVE_BENCHMARKS,
    all_benchmarks,
    benchmark_names,
    benchmarks_by_class,
    build_kernel,
    get_benchmark,
)
from repro.workloads.registry import TABLE_II_ROWS, benchmarks_by_suite
from repro.workloads.spec import BenchmarkSpec, ModelParams, WorkloadClass
from repro.workloads.synthetic import SyntheticKernelModel
from repro.workloads import patterns


class TestRegistry:
    def test_all_21_benchmarks_present(self):
        assert len(all_benchmarks()) == 21
        assert len(set(benchmark_names())) == 21

    def test_table2_paper_values(self):
        atax = get_benchmark("ATAX")
        assert atax.apki == 64 and atax.nwrp == 2 and not atax.uses_barriers
        assert atax.workload_class is WorkloadClass.LWS
        ss = get_benchmark("SS")
        assert ss.fsmem == pytest.approx(0.50) and ss.nwrp == 48
        hotspot = get_benchmark("Hotspot")
        assert hotspot.apki == 1 and hotspot.workload_class is WorkloadClass.CI
        backprop = get_benchmark("Backprop")
        assert backprop.fsmem == pytest.approx(0.13) and backprop.nwrp == 36

    def test_case_insensitive_lookup(self):
        assert get_benchmark("atax") is get_benchmark("ATAX")
        with pytest.raises(KeyError):
            get_benchmark("NOPE")

    def test_class_partition_is_complete(self):
        total = sum(len(benchmarks_by_class(cls)) for cls in WorkloadClass)
        assert total == 21
        assert len(benchmarks_by_class(WorkloadClass.LWS)) == 5
        assert len(benchmarks_by_class(WorkloadClass.SWS)) == 8
        assert len(benchmarks_by_class(WorkloadClass.CI)) == 8

    def test_suites(self):
        assert len(benchmarks_by_suite("PolyBench")) == 8
        assert len(benchmarks_by_suite("Mars")) == 6
        assert len(benchmarks_by_suite("Rodinia")) == 7

    def test_memory_intensive_subset(self):
        for name in MEMORY_INTENSIVE_BENCHMARKS:
            assert get_benchmark(name).workload_class in (WorkloadClass.LWS, WorkloadClass.SWS)

    def test_table_rows_shape(self):
        rows = TABLE_II_ROWS()
        assert len(rows) == 21
        assert set(rows[0]) >= {"Benchmark", "APKI", "Nwrp", "Fsmem", "Bar.", "Class"}

    def test_all_specs_validate(self):
        for spec in all_benchmarks():
            spec.validate()

    def test_divergence_below_one_is_rejected(self):
        spec = get_benchmark("KMN")
        spec = replace(spec, model=replace(spec.model, divergence=0))
        with pytest.raises(ValueError, match="divergence"):
            spec.validate()
        with pytest.raises(ValueError, match="divergence"):
            SyntheticKernelModel(spec)

    def test_divergence_above_warp_lanes_is_rejected(self):
        spec = get_benchmark("KMN")
        replace(spec, model=replace(spec.model, divergence=32)).validate()
        spec = replace(spec, model=replace(spec.model, divergence=33))
        with pytest.raises(ValueError, match="divergence"):
            spec.validate()

    def test_shared_mem_per_cta_respects_fsmem(self):
        for spec in all_benchmarks():
            per_cta = spec.shared_mem_per_cta()
            assert per_cta * spec.num_ctas <= int(spec.fsmem * 48 * 1024) + 128 * spec.num_ctas
            assert per_cta % 128 == 0


class TestSyntheticModel:
    def test_kernel_launch_geometry(self):
        spec = get_benchmark("SYRK")
        kernel = build_kernel(spec, scale=0.1)
        assert kernel.num_ctas == spec.num_ctas
        assert kernel.warps_per_cta == spec.warps_per_cta
        kernel.validate()

    def test_streams_are_deterministic(self):
        spec = get_benchmark("ATAX")
        model_a = SyntheticKernelModel(spec, scale=0.05, seed=3)
        model_b = SyntheticKernelModel(spec, scale=0.05, seed=3)
        a = list(itertools.islice(model_a._warp_stream(0, 0, 0), 100))
        b = list(itertools.islice(model_b._warp_stream(0, 0, 0), 100))
        assert [i.kind for i in a] == [i.kind for i in b]
        assert [i.addresses for i in a] == [i.addresses for i in b]

    def test_different_seed_changes_stream(self):
        spec = get_benchmark("ATAX")
        a = list(itertools.islice(SyntheticKernelModel(spec, scale=0.05, seed=1)._warp_stream(0, 0, 0), 200))
        b = list(itertools.islice(SyntheticKernelModel(spec, scale=0.05, seed=2)._warp_stream(0, 0, 0), 200))
        assert [i.addresses for i in a] != [i.addresses for i in b]

    def test_stream_terminates_with_exit(self):
        spec = get_benchmark("WC")
        model = SyntheticKernelModel(spec, scale=0.05)
        instrs = list(model._warp_stream(0, 0, 0))
        assert instrs[-1].kind is InstructionKind.EXIT
        assert len(instrs) >= 50

    def test_memory_fraction_roughly_respected(self):
        spec = get_benchmark("SYRK")
        model = SyntheticKernelModel(spec, scale=1.0, seed=5)
        instrs = list(model._warp_stream(0, 0, 0))
        mem = sum(1 for i in instrs if i.kind in GLOBAL_MEMORY_KINDS)
        frac = mem / len(instrs)
        assert abs(frac - spec.model.mem_fraction) < 0.08

    def test_barrier_emission_for_barrier_benchmarks(self):
        spec = get_benchmark("KMN")
        model = SyntheticKernelModel(spec, scale=0.5)
        kinds = [i.kind for i in model._warp_stream(0, 0, 0)]
        assert InstructionKind.BARRIER in kinds
        spec_nobar = get_benchmark("ATAX")
        kinds = [i.kind for i in SyntheticKernelModel(spec_nobar, scale=0.5)._warp_stream(0, 0, 0)]
        assert InstructionKind.BARRIER not in kinds

    def test_scratchpad_instructions_for_fsmem_benchmarks(self):
        spec = get_benchmark("SS")
        model = SyntheticKernelModel(spec, scale=1.0)
        kinds = [i.kind for i in model._warp_stream(0, 0, 0)]
        assert InstructionKind.SHARED_LOAD in kinds or InstructionKind.SHARED_STORE in kinds

    def test_aggressor_has_larger_tile(self):
        spec = get_benchmark("SYRK")
        model = SyntheticKernelModel(spec)
        period = spec.model.aggressor_period
        assert model._tile_blocks(period - 1) > model._tile_blocks(0)

    def test_two_phase_atax_reduces_memory_late(self):
        spec = get_benchmark("ATAX")
        model = SyntheticKernelModel(spec, scale=1.0, seed=11)
        instrs = list(model._warp_stream(0, 0, 0))
        half = len(instrs) // 2
        early = sum(1 for i in instrs[: half // 2] if i.kind in GLOBAL_MEMORY_KINDS) / (half // 2)
        late = sum(1 for i in instrs[-half // 2 :] if i.kind in GLOBAL_MEMORY_KINDS) / (half // 2)
        assert late < early

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            SyntheticKernelModel(get_benchmark("ATAX"), scale=0)

    def test_geometry_overrides(self):
        model = SyntheticKernelModel(get_benchmark("ATAX"), num_ctas=2, warps_per_cta=4)
        kernel = model.kernel_launch()
        assert kernel.total_warps() == 8


class TestPatterns:
    """The patterns take and yield 128-byte block numbers, one tuple per access."""

    def test_tiled_reuse_addresses_stay_in_tile(self):
        gen = patterns.tiled_reuse_accesses(0x20, tile_blocks=4, chunk_blocks=2, chunk_repeats=2)
        accesses = list(itertools.islice(gen, 50))
        assert all(len(blocks) == 1 and 0x20 <= blocks[0] < 0x20 + 4 for blocks in accesses)
        # Each two-block chunk is swept twice before the walk moves on.
        assert accesses[:8] == [(0x20,), (0x21,)] * 2 + [(0x22,), (0x23,)] * 2

    def test_streaming_never_repeats_within_length(self):
        gen = patterns.streaming_accesses(0, length_blocks=100)
        blocks = [block for (block,) in itertools.islice(gen, 100)]
        assert len(set(blocks)) == 100
        assert next(gen) == (0,)  # then the pass wraps

    def test_irregular_respects_footprint(self):
        import random

        gen = patterns.irregular_accesses(random.Random(0), 0, footprint_blocks=16, blocks_per_access=2)
        accesses = list(itertools.islice(gen, 100))
        assert all(len(blocks) == 2 for blocks in accesses)
        assert all(0 <= block < 16 for blocks in accesses for block in blocks)
        # Draws are kept as drawn: some accesses repeat a block.
        assert any(blocks[0] == blocks[1] for blocks in accesses)

    def test_stencil_touches_neighbouring_rows(self):
        gen = patterns.stencil_accesses(0, row_blocks=2, num_rows=4, halo_rows=1, sweeps=1)
        accesses = list(itertools.islice(gen, 30))
        assert all(len(blocks) == 1 and 0 <= blocks[0] < 8 for blocks in accesses)
        assert len(set(accesses)) > 2
        # Row 1, column 0 reads rows 0, 1 and 2 of that column in turn.
        assert accesses[6:9] == [(0,), (2,), (4,)]

    def test_invalid_parameters(self):
        import random

        with pytest.raises(ValueError):
            next(patterns.tiled_reuse_accesses(0, 0))
        with pytest.raises(ValueError):
            next(patterns.streaming_accesses(0, 0))
        with pytest.raises(ValueError):
            next(patterns.irregular_accesses(random.Random(0), 0, 0))
        for blocks_per_access in (0, 33):
            with pytest.raises(ValueError):
                next(
                    patterns.irregular_accesses(
                        random.Random(0), 0, 16, blocks_per_access=blocks_per_access
                    )
                )
        with pytest.raises(ValueError):
            next(patterns.stencil_accesses(0, 0, 4))
        with pytest.raises(ValueError):
            patterns.lane_addresses(())
        with pytest.raises(ValueError):
            patterns.lane_addresses(tuple(range(33)))

    def test_lane_addresses_cycle_over_blocks(self):
        assert patterns.lane_addresses((5,)) == tuple(5 * 128 + 4 * lane for lane in range(32))
        lanes = patterns.lane_addresses((7, 2, 7))
        assert lanes == tuple((7, 2, 7)[lane % 3] * 128 + 4 * lane % 128 for lane in range(32))
        assert Coalescer().coalesce(lanes) == [7, 2]


class TestStreamProcessDeterminism:
    def test_streams_stable_across_hash_randomization(self):
        """Workload streams must not depend on PYTHONHASHSEED.

        The per-warp RNG used to be keyed with ``hash(spec.name)``, which is
        randomized per process and silently made every simulation
        irreproducible across interpreter invocations (breaking golden
        fixtures and cross-process cache reuse).  Two subprocesses with
        different hash seeds must now produce identical streams.
        """
        import os
        import subprocess
        import sys
        from pathlib import Path

        code = (
            "from repro.workloads.registry import get_benchmark\n"
            "from repro.workloads.synthetic import SyntheticKernelModel\n"
            "m = SyntheticKernelModel(get_benchmark('ATAX'), scale=0.02, seed=3)\n"
            "stream = m._warp_stream(0, 0, 0)\n"
            "sig = [(i.kind.value, i.addresses[:2]) for _, i in zip(range(40), stream)]\n"
            "print(sig)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = set()
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
            proc = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True
            )
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1
