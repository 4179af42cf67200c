"""Hybrid ARQ (HARQ) retransmission machinery.

5G MAC retransmits transport blocks the receiver fails to decode
(§5.2.2).  Every retransmission adds one HARQ round trip (≈10 ms in the
paper's Amarisoft traces, Fig. 17) to the delay of all packets carried in
the TB.  After a configurable number of failed attempts the MAC gives up
and recovery falls to the RLC layer (§5.2.3), which costs on the order of
100 ms (Fig. 18).

The entity is slot-stepped: the RAN simulator calls
:meth:`HarqEntity.submit` for each freshly scheduled TB and then polls
:meth:`HarqEntity.poll` every slot for TBs whose (re)transmission resolves
in that slot.  Pending attempts are indexed by resolution slot, so a
poll costs nothing in a slot where none resolves.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np


@dataclass
class TransportBlock:
    """One scheduled transport block.

    Attributes:
        tb_id: unique id.
        slot: slot index of the first transmission attempt.
        n_prb: PRBs allocated.
        mcs: MCS index used.
        tbs_bits: transport block size in bits.
        ranges: byte ranges of the RLC stream carried, as (start, end).
        is_uplink: direction flag.
        proactive: True if this TB came from a proactive UL grant.
        used_bytes: payload bytes actually filled (<= tbs_bits // 8).
    """

    tb_id: int
    slot: int
    n_prb: int
    mcs: int
    tbs_bits: int
    ranges: List[Tuple[int, int]] = field(default_factory=list)
    is_uplink: bool = False
    proactive: bool = False
    used_bytes: int = 0

    @property
    def payload_bytes(self) -> int:
        return sum(end - start for start, end in self.ranges)


class HarqOutcome(enum.Enum):
    """Result of one HARQ attempt resolution."""

    DECODED = "decoded"
    RETRANSMIT = "retransmit"
    FAILED = "failed"  # retries exhausted; RLC must recover


@dataclass
class HarqResolution:
    """A TB whose fate resolved at a given slot."""

    tb: TransportBlock
    outcome: HarqOutcome
    attempt: int  # 0 = initial transmission, 1 = first ReTX, ...
    slot: int


@dataclass
class HarqEntity:
    """Slot-stepped HARQ process pool for one link direction.

    Args:
        rtt_slots: slots between a NACK and the retransmission attempt.
        max_retx: maximum retransmissions before MAC gives up.
        decode_delay_slots: slots between an attempt's transmission and
            its decode outcome becoming known (>= 1 so the simulator's
            poll in the next slot observes it).
        seed: RNG seed for decode coin flips.
        bler_fn: optional override returning the block error probability
            for an attempt; receives (tb, attempt).  Retransmissions
            benefit from soft combining, so by default each subsequent
            attempt halves the error probability.
    """

    rtt_slots: int
    max_retx: int
    decode_delay_slots: int = 1
    seed: int = 0
    bler_fn: Optional[Callable[[TransportBlock, int], float]] = None

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        # resolution_slot -> [(tb, attempt, bler_initial)], each list in
        # insertion order, which is the order its RNG draws happen in.
        self._pending: Dict[int, List[Tuple[TransportBlock, int, float]]] = {}
        self.total_transmissions = 0
        self.total_retransmissions = 0
        self.total_failures = 0

    def _attempt_bler(
        self, tb: TransportBlock, attempt: int, initial_bler: float
    ) -> float:
        if self.bler_fn is not None:
            return self.bler_fn(tb, attempt)
        # Chase-combining gain: each retransmission reduces the error
        # probability, but only modestly when the channel stays bad —
        # which is what lets deep fades exhaust HARQ and trigger RLC
        # recovery (§5.2.3).
        return initial_bler * (0.7**attempt)

    def submit(self, tb: TransportBlock, bler: float) -> None:
        """Register a new TB whose first attempt occurs at ``tb.slot``.

        The decode outcome resolves ``decode_delay_slots`` after the
        attempt; a retransmission then waits a further ``rtt_slots``.
        """
        self._pending.setdefault(tb.slot + self.decode_delay_slots, []).append(
            (tb, 0, bler)
        )
        self.total_transmissions += 1

    def poll(self, slot: int) -> List[HarqResolution]:
        """Resolve all attempts due at *slot*.

        Returns resolutions; for :attr:`HarqOutcome.RETRANSMIT` the entity
        has already queued the next attempt internally, so callers only
        need to account for the resource usage / telemetry of the failed
        attempt.
        """
        due = self._pending.pop(slot, None)
        if due is None:
            return []
        resolutions: List[HarqResolution] = []
        for tb, attempt, initial_bler in due:
            p_fail = self._attempt_bler(tb, attempt, initial_bler)
            failed = bool(self._rng.random() < p_fail)
            if not failed:
                resolutions.append(
                    HarqResolution(tb, HarqOutcome.DECODED, attempt, slot)
                )
                continue
            if attempt >= self.max_retx:
                self.total_failures += 1
                resolutions.append(
                    HarqResolution(tb, HarqOutcome.FAILED, attempt, slot)
                )
                continue
            self.total_retransmissions += 1
            self._pending.setdefault(slot + self.rtt_slots, []).append(
                (tb, attempt + 1, initial_bler)
            )
            resolutions.append(
                HarqResolution(tb, HarqOutcome.RETRANSMIT, attempt, slot)
            )
        return resolutions

    def pending_count(self) -> int:
        """Number of TBs still awaiting resolution."""
        return sum(map(len, self._pending.values()))
