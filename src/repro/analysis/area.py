"""First-order area model for the hardware CIAO adds (Section V-F).

The paper uses CACTI 6.0 to size the added SRAM structures and reports:

* one VTA structure: 0.65 mm^2 for 15 SMs (0.12% of the GTX 480's 529 mm^2),
* VTA-hit counters + interference list + pair list: 549 um^2 per SM
  (8235 um^2 for 15 SMs),
* Eq. 1 arithmetic: ~2112 gates; shared-memory modifications (translation
  unit, multiplexer, MSHR extension): ~4500 gates and 64 B of storage per SM,
* total: < 2% of chip area and ~79 mW of power.

CACTI itself is not available offline, so this model combines the paper's
published anchor points with simple per-bit and per-gate scaling, which is
enough to (1) regenerate the overhead table and (2) let tests check that the
overhead stays far below the 2% claim for reasonable configurations.
"""

from __future__ import annotations

from dataclasses import dataclass

#: GTX 480 die area in mm^2 (paper cites 529 mm^2).
GTX480_DIE_MM2 = 529.0
#: Number of SMs on the chip.
GTX480_SMS = 15

#: Anchor: a 15-SM VTA structure (8 entries x 48 warps x 31 bits per SM).
_VTA_BITS_PER_SM = 8 * 48 * 31
_VTA_AREA_MM2_15SM = 0.65
#: Derived SRAM density anchor in mm^2 per bit (includes peripheral overhead).
SRAM_MM2_PER_BIT = _VTA_AREA_MM2_15SM / (GTX480_SMS * _VTA_BITS_PER_SM)

#: Logic density anchor: the paper's 2112-gate IRS unit is a rounding error
#: on a 529 mm^2 die; we model a 40 nm gate (incl. wiring) at ~1.5 um^2.
GATE_MM2 = 1.5e-6


@dataclass
class AreaModel:
    """Area estimate of the CIAO additions for a given configuration."""

    num_sms: int = GTX480_SMS
    num_warps: int = 48
    vta_entries_per_warp: int = 8
    vta_tag_bits: int = 25
    wid_bits: int = 6
    saturating_counter_bits: int = 2
    vta_hit_counter_bits: int = 32
    irs_unit_gates: int = 2112
    shared_memory_mod_gates: int = 4500
    shared_memory_mod_storage_bytes: int = 64

    # -- per-structure areas (mm^2, whole chip) -----------------------------
    def vta_area(self) -> float:
        """Victim tag array area across all SMs."""
        bits = self.vta_entries_per_warp * self.num_warps * (self.vta_tag_bits + self.wid_bits)
        return bits * SRAM_MM2_PER_BIT * self.num_sms

    def detector_lists_area(self) -> float:
        """Interference list + pair list + VTA-hit counters across all SMs."""
        interference_bits = self.num_warps * (self.wid_bits + self.saturating_counter_bits)
        pair_bits = self.num_warps * 2 * self.wid_bits
        counter_bits = self.num_warps * self.vta_hit_counter_bits
        bits = interference_bits + pair_bits + counter_bits
        return bits * SRAM_MM2_PER_BIT * self.num_sms

    def logic_area(self) -> float:
        """IRS arithmetic + shared-memory datapath modifications."""
        gates = self.irs_unit_gates + self.shared_memory_mod_gates
        storage_bits = self.shared_memory_mod_storage_bytes * 8
        return (gates * GATE_MM2 + storage_bits * SRAM_MM2_PER_BIT) * self.num_sms

    def total_area(self) -> float:
        """Total added area in mm^2."""
        return self.vta_area() + self.detector_lists_area() + self.logic_area()

    def fraction_of_die(self, die_mm2: float = GTX480_DIE_MM2) -> float:
        """Added area as a fraction of the die."""
        return self.total_area() / die_mm2

    def report(self) -> dict[str, float]:
        """Structured overhead report (the Section V-F table)."""
        return {
            "vta_mm2": self.vta_area(),
            "detector_lists_mm2": self.detector_lists_area(),
            "logic_mm2": self.logic_area(),
            "total_mm2": self.total_area(),
            "fraction_of_die": self.fraction_of_die(),
        }


#: The default (paper-configuration) overhead report.
CIAO_AREA_REPORT = AreaModel().report()
