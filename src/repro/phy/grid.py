"""The 5G NR time-frequency resource grid and duplexing patterns.

5G NR divides time into slots whose duration depends on the subcarrier
spacing (numerology): 15 kHz SCS gives 1 ms slots, 30 kHz gives 0.5 ms.
Frequency is divided into physical resource blocks (PRBs) of 12
subcarriers.  In time-division duplexing (TDD) slots alternate between
downlink and uplink according to a repeating pattern (e.g. ``DDDSU``);
in frequency-division duplexing (FDD) every slot carries both directions
on separate bands (Fig. 15a/b of the paper).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List

from repro.errors import ConfigError
from repro.units import US_PER_MS


class SlotType(enum.Enum):
    """Direction(s) a slot can carry."""

    DOWNLINK = "D"
    UPLINK = "U"
    SPECIAL = "S"  # guard/switching slot: usable partially for DL control
    BOTH = "B"  # FDD: both directions simultaneously

    @property
    def carries_downlink(self) -> bool:
        return self in (SlotType.DOWNLINK, SlotType.BOTH, SlotType.SPECIAL)

    @property
    def carries_uplink(self) -> bool:
        return self in (SlotType.UPLINK, SlotType.BOTH)


#: Slot duration (µs) per subcarrier spacing (kHz).
_SLOT_DURATION_US = {15: 1000, 30: 500, 60: 250, 120: 125}

#: Approximate PRB counts per channel bandwidth (MHz) and SCS (kHz),
#: from TS 38.101-1 Table 5.3.2-1.
_PRB_TABLE = {
    (15, 10): 52,
    (15, 15): 79,
    (15, 20): 106,
    (30, 10): 24,
    (30, 15): 38,
    (30, 20): 51,
    (30, 40): 106,
    (30, 60): 162,
    (30, 80): 217,
    (30, 100): 273,
}


def prb_count(scs_khz: int, bandwidth_mhz: int) -> int:
    """Number of PRBs for a channel of *bandwidth_mhz* at *scs_khz* SCS."""
    try:
        return _PRB_TABLE[(scs_khz, bandwidth_mhz)]
    except KeyError:
        # Fall back to the analytic approximation: usable bandwidth is about
        # 90% of the channel, each PRB is 12 * scs wide.
        prb_hz = 12 * scs_khz * 1000
        return max(1, int(bandwidth_mhz * 1e6 * 0.9 / prb_hz))


def slot_duration_us(scs_khz: int) -> int:
    """Slot duration in µs for the given subcarrier spacing."""
    try:
        return _SLOT_DURATION_US[scs_khz]
    except KeyError:
        raise ConfigError(f"unsupported subcarrier spacing {scs_khz} kHz")


@dataclass
class ResourceGrid:
    """Slot timing and duplexing pattern for one cell.

    Args:
        scs_khz: subcarrier spacing in kHz (15 or 30 for sub-6 GHz).
        bandwidth_mhz: channel bandwidth in MHz.
        tdd_pattern: a string over ``DUS`` describing the repeating TDD
            slot pattern (e.g. ``"DDDSU"``, the common 5G NR pattern);
            ignored for FDD grids (pass ``None``).

    An FDD grid reports every slot as :attr:`SlotType.BOTH`.
    """

    scs_khz: int
    bandwidth_mhz: int
    tdd_pattern: "str | None" = "DDDSU"
    _pattern: List[SlotType] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.slot_us = slot_duration_us(self.scs_khz)
        self.n_prb = prb_count(self.scs_khz, self.bandwidth_mhz)
        if self.tdd_pattern is None:
            self._pattern = [SlotType.BOTH]
        else:
            mapping = {
                "D": SlotType.DOWNLINK,
                "U": SlotType.UPLINK,
                "S": SlotType.SPECIAL,
            }
            try:
                self._pattern = [mapping[c] for c in self.tdd_pattern.upper()]
            except KeyError as exc:
                raise ConfigError(
                    f"invalid TDD pattern character in {self.tdd_pattern!r}"
                ) from exc
            if not self._pattern:
                raise ConfigError("TDD pattern must not be empty")

    @property
    def is_fdd(self) -> bool:
        return self.tdd_pattern is None

    def slot_type(self, slot_index: int) -> SlotType:
        """Slot type for absolute slot number *slot_index*."""
        return self._pattern[slot_index % len(self._pattern)]

    def slot_start_us(self, slot_index: int) -> int:
        """Start time (µs) of slot *slot_index*."""
        return slot_index * self.slot_us

    def slot_index_at(self, timestamp_us: int) -> int:
        """Index of the slot containing *timestamp_us*."""
        return timestamp_us // self.slot_us

    def next_slot_of_type(self, from_slot: int, uplink: bool) -> int:
        """First slot index >= *from_slot* that carries the given direction.

        Used by the UL grant loop: a grant issued in slot *n* points at the
        next uplink opportunity (``k`` slots later in Fig. 15a/b).
        """
        for offset in range(2 * len(self._pattern) + 1):
            candidate = from_slot + offset
            slot = self.slot_type(candidate)
            if uplink and slot.carries_uplink:
                return candidate
            if not uplink and slot.carries_downlink:
                return candidate
        raise ConfigError(
            f"TDD pattern {self.tdd_pattern!r} has no "
            f"{'uplink' if uplink else 'downlink'} slots"
        )

    def slots_per_second(self) -> int:
        return US_PER_MS * 1000 // self.slot_us

    def uplink_slot_fraction(self) -> float:
        """Fraction of slots usable for uplink data."""
        if self.is_fdd:
            return 1.0
        ul = sum(1 for s in self._pattern if s.carries_uplink)
        return ul / len(self._pattern)

    def downlink_slot_fraction(self) -> float:
        """Fraction of slots usable for downlink data."""
        if self.is_fdd:
            return 1.0
        dl = sum(1 for s in self._pattern if s is SlotType.DOWNLINK)
        return dl / len(self._pattern)
