"""Unit tests for the baseline warp schedulers."""

import enum
import random

import pytest

from repro.gpu.instruction import Instruction
from repro.gpu.warp import Warp
from repro.sched import (
    BestSWLScheduler,
    CCWSScheduler,
    GTOScheduler,
    LooseRoundRobinScheduler,
    StatPCALScheduler,
    TwoLevelScheduler,
    create_scheduler,
    scheduler_names,
)
from repro.sched.registry import scheduler_factory, uses_shared_cache
from repro.mem.victim_tag_array import VTAHit


def make_warp(wid, assigned_at=0):
    return Warp(wid=wid, cta_id=0, instructions=iter([]), assigned_at=assigned_at)


class FakeStats:
    def __init__(self):
        self.throttle_events = 0
        self.reactivate_events = 0


class FakeMemory:
    def __init__(self, utilization=0.0):
        self._util = utilization

    def dram_utilization(self, elapsed):
        return self._util


class FakeSM:
    """Minimal stand-in for the SM the schedulers attach to."""

    def __init__(self, warps, utilization=0.0):
        self.warps = warps
        self.stats = FakeStats()
        self.memory = FakeMemory(utilization)
        self.shared_cache = None


class TestRegistry:
    def test_all_names_constructible(self):
        for name in scheduler_names():
            assert create_scheduler(name) is not None

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            create_scheduler("nope")

    def test_uses_shared_cache(self):
        assert uses_shared_cache("ciao-p")
        assert uses_shared_cache("ciao-c")
        assert not uses_shared_cache("ciao-t")
        assert not uses_shared_cache("gto")

    def test_factory(self):
        factory = scheduler_factory("gto")
        a, b = factory(), factory()
        assert a is not b


class TestGTO:
    def test_oldest_selected_first(self):
        sched = GTOScheduler()
        warps = [make_warp(2, assigned_at=5), make_warp(1, assigned_at=0)]
        assert sched.select(warps, 0).wid == 1

    def test_greedy_sticks_to_last_issued(self):
        sched = GTOScheduler()
        warps = [make_warp(0), make_warp(1)]
        sched.notify_issue(warps[1], Instruction.alu(), 0)
        assert sched.select(warps, 1).wid == 1

    def test_greedy_reset_on_retire(self):
        sched = GTOScheduler()
        warps = [make_warp(0), make_warp(1)]
        sched.notify_issue(warps[1], Instruction.alu(), 0)
        sched.on_warp_retired(warps[1], 1)
        assert sched.select(warps, 2).wid == 0

    def test_empty_selection(self):
        assert GTOScheduler().select([], 0) is None


class TestLRRAndTwoLevel:
    def test_lrr_round_robin_order(self):
        sched = LooseRoundRobinScheduler()
        warps = [make_warp(i) for i in range(3)]
        picked = [sched.select(warps, t).wid for t in range(6)]
        assert picked == [0, 1, 2, 0, 1, 2]

    def test_two_level_prefers_active_group(self):
        sched = TwoLevelScheduler(group_size=2)
        warps = [make_warp(i) for i in range(4)]
        first = sched.select(warps, 0)
        assert first.wid in (0, 1)
        # When the active group has no issuable warp, switch groups.
        later = sched.select([warps[2], warps[3]], 1)
        assert later.wid in (2, 3)

    def test_two_level_invalid_group(self):
        with pytest.raises(ValueError):
            TwoLevelScheduler(group_size=0)


class TestBestSWL:
    def test_limit_applied_on_attach(self):
        warps = [make_warp(i) for i in range(6)]
        sm = FakeSM(warps)
        sched = BestSWLScheduler(warp_limit=2)
        sched.attach(sm)
        active = [w for w in warps if w.active]
        assert len(active) == 2
        assert {w.wid for w in active} == {0, 1}
        assert sm.stats.throttle_events == 4

    def test_limit_reapplied_after_retirement(self):
        warps = [make_warp(i) for i in range(4)]
        sm = FakeSM(warps)
        sched = BestSWLScheduler(warp_limit=2)
        sched.attach(sm)
        warps[0].retire()
        sched.on_warp_retired(warps[0], 10)
        active = [w for w in warps if not w.finished and w.active]
        assert len(active) == 2

    def test_invalid_limit(self):
        with pytest.raises(ValueError):
            BestSWLScheduler(warp_limit=0)


class TestCCWS:
    def _vta_hit(self, wid, evictor=7):
        return VTAHit(wid=wid, block=1, evictor_wid=evictor)

    def test_score_bumped_on_vta_hit(self):
        warps = [make_warp(i) for i in range(4)]
        sm = FakeSM(warps)
        sched = CCWSScheduler()
        sched.attach(sm)
        sched.notify_global_access(warps[0], False, self._vta_hit(0), "l1d", 0)
        assert sched.score(0) > sched.score(1)

    def test_high_scores_push_low_score_warps_below_cutoff(self):
        warps = [make_warp(i) for i in range(8)]
        sm = FakeSM(warps)
        sched = CCWSScheduler(base_score=100, score_bump=400, update_interval=1)
        sched.attach(sm)
        for _ in range(4):
            sched.notify_global_access(warps[0], False, self._vta_hit(0), "l1d", 0)
            sched.notify_global_access(warps[1], False, self._vta_hit(1), "l1d", 0)
        sched.on_cycle(10)
        throttled = [w for w in warps if not w.active]
        assert throttled, "some warps should be throttled once scores stack up"
        # The top-scoring warp always survives the cutoff; low-score warps
        # are pushed below it and lose issue rights.
        assert warps[0].active, "the highest-score warp keeps running"
        assert any(not w.active for w in warps[2:]), "low-locality warps are throttled"

    def test_scores_decay_back_to_base(self):
        warps = [make_warp(0)]
        sm = FakeSM(warps)
        sched = CCWSScheduler(decay_per_update=50, update_interval=1)
        sched.attach(sm)
        sched.notify_global_access(warps[0], False, self._vta_hit(0), "l1d", 0)
        for now in range(1, 10):
            sched.on_cycle(now)
        assert sched.score(0) == pytest.approx(sched.base_score)

    def test_retired_warp_removed_from_stack(self):
        warps = [make_warp(i) for i in range(2)]
        sm = FakeSM(warps)
        sched = CCWSScheduler()
        sched.attach(sm)
        warps[0].retire()
        sched.on_warp_retired(warps[0], 5)
        assert 0 not in sched._scores


class TestStatPCAL:
    def test_tokens_assigned_to_oldest(self):
        warps = [make_warp(i, assigned_at=i) for i in range(6)]
        sm = FakeSM(warps)
        sched = StatPCALScheduler(token_count=2)
        sched.attach(sm)
        assert sched._token_wids == {0, 1}

    def test_non_token_warps_bypass_when_bandwidth_available(self):
        warps = [make_warp(i) for i in range(4)]
        sm = FakeSM(warps, utilization=0.1)
        sched = StatPCALScheduler(token_count=1, update_interval=1)
        sched.attach(sm)
        sched.on_cycle(1)
        assert sched.should_bypass_l1(warps[3], 1)
        assert not sched.should_bypass_l1(warps[0], 1)

    def test_non_token_warps_throttled_when_bandwidth_saturated(self):
        warps = [make_warp(i) for i in range(4)]
        sm = FakeSM(warps, utilization=0.99)
        sched = StatPCALScheduler(token_count=1, update_interval=1)
        sched.attach(sm)
        sched.on_cycle(1)
        assert not sched.should_bypass_l1(warps[3], 1)
        assert not warps[3].active
        assert warps[0].active

    def test_token_handover_on_retire(self):
        warps = [make_warp(i, assigned_at=i) for i in range(3)]
        sm = FakeSM(warps)
        sched = StatPCALScheduler(token_count=1)
        sched.attach(sm)
        warps[0].retire()
        sched.on_warp_retired(warps[0], 1)
        assert sched._token_wids == {1}

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            StatPCALScheduler(token_count=0)
        with pytest.raises(ValueError):
            StatPCALScheduler(bandwidth_threshold=0.0)


# ---------------------------------------------------------------------------
# The sticky-select contract (WarpScheduler.vector_sticky_select)
# ---------------------------------------------------------------------------
#: Every registered scheduler that declares the sticky capability.
STICKY_SCHEDULERS = tuple(
    name for name in scheduler_names() if create_scheduler(name).vector_sticky_select
)


def _state(value):
    """A scheduler's state as comparable plain data, nested objects included."""
    if value is None or isinstance(value, (bool, int, float, str, enum.Enum)):
        return value
    if isinstance(value, dict):
        return {key: _state(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [type(value).__name__, *(_state(item) for item in value)]
    if isinstance(value, (set, frozenset)):
        return sorted(repr(_state(item)) for item in value)
    if hasattr(value, "__dict__"):
        return type(value).__name__, _state(vars(value))
    slots = getattr(type(value), "__slots__", ())
    return type(value).__name__, {slot: _state(getattr(value, slot)) for slot in slots}


def test_sticky_schedulers_are_registered():
    assert {
        "gto", "ccws", "best-swl", "two-level", "ciao-t", "ciao-p", "ciao-c"
    } <= set(STICKY_SCHEDULERS)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("name", STICKY_SCHEDULERS)
def test_sticky_select_repeats_without_side_effects(name, seed):
    """A repeated select over the same issuable list returns the first
    call's warp and leaves the scheduler unchanged: the lock-step driver
    skips the steps of a blocked SM on exactly this promise."""
    rng = random.Random(seed)
    warps = [
        make_warp(wid, assigned_at=rng.randrange(4))
        for wid in sorted(rng.sample(range(48), 24))
    ]
    scheduler = create_scheduler(name)
    for now in range(rng.randint(1, 4)):  # some greedy history first
        pick = scheduler.select(rng.sample(warps, rng.randint(1, len(warps))), now)
        scheduler.notify_issue(pick, Instruction.alu(), now)
    present = sorted({warp.wid // 8 for warp in warps})  # two-level's groups
    groups = rng.sample(present, rng.randint(1, min(3, len(present))))
    issuable = [warp for warp in warps if warp.wid // 8 in groups]
    first = scheduler.select(issuable, 10)
    after_first = _state(vars(scheduler))
    for now in (11, 12):
        assert scheduler.select(issuable, now) is first
        assert _state(vars(scheduler)) == after_first
