"""Unit tests for the CIAO interference detector (Section III-A / IV-A)."""

import pytest

from repro.core.config import CIAOParameters
from repro.core.interference import InterferenceDetector


@pytest.fixture
def detector():
    return InterferenceDetector(CIAOParameters.paper_defaults())


class TestParameters:
    def test_paper_defaults(self):
        params = CIAOParameters.paper_defaults()
        assert params.high_cutoff == pytest.approx(0.01)
        assert params.low_cutoff == pytest.approx(0.005)
        assert params.high_epoch_instructions == 5000
        assert params.low_epoch_instructions == 100
        assert params.saturating_counter_max == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            CIAOParameters(high_cutoff=0.0).validate()
        with pytest.raises(ValueError):
            CIAOParameters(low_cutoff=0.02, high_cutoff=0.01).validate()
        with pytest.raises(ValueError):
            CIAOParameters(low_epoch_instructions=0).validate()
        with pytest.raises(ValueError):
            CIAOParameters(low_epoch_instructions=10_000).validate()

    def test_sensitivity_variants(self):
        params = CIAOParameters.paper_defaults().with_high_cutoff(0.04)
        assert params.high_cutoff == pytest.approx(0.04)
        assert params.low_cutoff == pytest.approx(0.02)
        params = CIAOParameters.paper_defaults().with_high_epoch(1000)
        assert params.high_epoch_instructions == 1000


class TestVTAHitCounting:
    def test_counts_accumulate(self, detector):
        detector.record_vta_hit(3, 7)
        detector.record_vta_hit(3, 7)
        assert detector.vta_hits(3) == 2
        assert detector.vta_hits(7) == 0

    def test_irs_formula(self, detector):
        # 10 VTA hits, 5000 instructions, 48 active warps:
        # IRS = 10 / (5000 / 48) = 0.096
        for _ in range(10):
            detector.record_vta_hit(1, 2)
        assert detector.irs(1, 5000, 48) == pytest.approx(10 / (5000 / 48))

    def test_irs_zero_guards(self, detector):
        assert detector.irs(0, 0, 48) == 0.0
        assert detector.irs(0, 100, 0) == 0.0

    def test_cutoff_helpers(self, detector):
        """IRS against the paper's cutoffs, compared as the scheduler does."""
        high, low = detector.params.high_cutoff, detector.params.low_cutoff
        for _ in range(10):
            detector.record_vta_hit(1, 2)
        assert detector.irs(1, 5000, 48) > high
        assert not detector.irs(1, 5000, 48) <= low
        assert detector.irs(9, 5000, 48) <= low

    def test_windowed_irs_decays_after_epoch(self, detector):
        for _ in range(20):
            detector.record_vta_hit(1, 2)
        assert detector.irs(1, 5000, 48) > detector.params.high_cutoff
        # Two quiet epochs later the recent IRS falls to zero even though the
        # cumulative counters keep the history.
        detector.advance_window(5000)
        detector.advance_window(10000)
        assert detector.irs(1, 10100, 48) < detector.params.low_cutoff
        assert detector.vta_hits(1) == 20


class TestInterferenceList:
    def test_most_interfering_tracks_first_seen(self, detector):
        detector.record_vta_hit(1, 5)
        assert detector.most_interfering(1) == 5

    def test_saturating_counter_protects_frequent_interferer(self, detector):
        # Warp 5 interferes 4 times (counter saturates at 3), then warp 9
        # interferes twice: counter decrements but warp 5 stays recorded.
        for _ in range(4):
            detector.record_vta_hit(1, 5)
        detector.record_vta_hit(1, 9)
        detector.record_vta_hit(1, 9)
        assert detector.most_interfering(1) == 5

    def test_replacement_after_counter_drains(self, detector):
        detector.record_vta_hit(1, 5)  # counter = 0
        detector.record_vta_hit(1, 9)  # different: counter already 0 -> replace
        assert detector.most_interfering(1) == 9

    def test_figure_4c_sequence(self, detector):
        """Reproduce the Figure 4c example: W32 interferes with W34."""
        # W32 interferes repeatedly -> counter saturates (step 1).
        for _ in range(5):
            detector.record_vta_hit(34, 32)
        # W42 interferes -> counter decremented, W32 retained (step 2).
        detector.record_vta_hit(34, 42)
        assert detector.most_interfering(34) == 32
        # W32 interferes again -> counter incremented (step 3).
        detector.record_vta_hit(34, 32)
        assert detector.most_interfering(34) == 32

    def test_unknown_warp(self, detector):
        assert detector.most_interfering(99) is None


class TestPairListAndLifecycle:
    def test_pair_entry_created_on_demand(self, detector):
        entry = detector.pair_entry(3)
        assert entry.redirect_trigger == -1
        assert entry.stall_trigger == -1
        entry.redirect_trigger = 7
        assert detector.pair_entry(3).redirect_trigger == 7

    def test_forget_warp(self, detector):
        detector.record_vta_hit(1, 5)
        detector.pair_entry(1).stall_trigger = 4
        detector.forget_warp(1)
        assert detector.vta_hits(1) == 0
        assert detector.most_interfering(1) is None
        assert detector.pair_entry(1).stall_trigger == -1

    def test_reset(self, detector):
        detector.record_vta_hit(1, 5)
        detector.reset()
        assert detector.vta_hits(1) == 0
        assert detector.most_interfering(1) is None

    def test_storage_bits_model(self, detector):
        bits = detector.storage_bits(num_warps=64)
        assert bits["interference_list_bits"] == 64 * 8
        assert bits["pair_list_bits"] == 64 * 12
        assert bits["vta_hit_counter_bits"] == 64 * 32
