"""Cross-traffic demand models.

In a shared cell the PRBs granted to one UE depend on every other UE's
demand (§5.1.2).  The paper's commercial cells show heavy, bursty,
DL-dominated cross traffic (the T-Mobile 15 MHz FDD cell most of all);
the private cells are essentially idle.  We model each cross-traffic UE
as an on-off Markov-modulated process: exponentially distributed busy
periods during which the UE demands a random number of PRBs per slot,
separated by exponentially distributed idle gaps.

Scripted bursts can be injected for the Fig. 13 reproduction, where a
cross-traffic burst starts at a known time and squeezes the test UE.

Demand is piecewise constant: a UE's changes only at a busy/idle timer
or a scripted burst's start or end, and its RNG draws happen only at a
busy/idle transition.  :meth:`CrossTrafficModel.demands_at` therefore
keeps its demand list until the earliest such time over its UEs; a
draw still happens on the first call at or after its timer, in UE
order, exactly as if every UE were polled on every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.units import NEVER_US


@dataclass
class CrossTrafficUe:
    """One on-off cross-traffic UE.

    Attributes:
        rnti: MAC identifier reported in DCI telemetry.
        mean_on_ms: mean busy-period duration.
        mean_off_ms: mean idle-gap duration.
        mean_prb_demand: mean PRBs per slot demanded while busy.
        scripted_bursts: optional list of (start_us, duration_us,
            prb_demand) tuples that force the UE busy.  Once the UE is
            in use, add bursts with :meth:`add_burst`.
        seed: RNG seed.
    """

    rnti: int
    mean_on_ms: float = 200.0
    mean_off_ms: float = 800.0
    mean_prb_demand: float = 20.0
    scripted_bursts: List[Tuple[int, int, int]] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        self._busy_until_us = 0
        self._idle_until_us = 0
        self._current_demand = 0
        # Start idle with a random phase so multiple UEs desynchronise.
        self._idle_until_us = int(
            self._rng.exponential(self.mean_off_ms) * 1000
        )
        # The model caching this UE's demand, told when a burst is added.
        self._model: Optional["CrossTrafficModel"] = None

    def add_burst(
        self, start_us: int, duration_us: int, prb_demand: int
    ) -> None:
        """Script one more burst (also mid-call, e.g. from a tick hook)."""
        self.scripted_bursts.append((start_us, duration_us, prb_demand))
        if self._model is not None:
            self._model.invalidate()

    @property
    def _markov(self) -> bool:
        return self.mean_on_ms > 0 and self.mean_prb_demand > 0

    def _scripted_demand(self, now_us: int) -> int:
        demand = 0
        for start, duration, prbs in self.scripted_bursts:
            if start <= now_us < start + duration:
                demand = max(demand, prbs)
        return demand

    def demand_at(self, now_us: int) -> int:
        """PRBs this UE wants in the slot containing *now_us*."""
        scripted = self._scripted_demand(now_us)
        if scripted > 0:
            return scripted
        if not self._markov:
            return 0
        if now_us < self._busy_until_us:
            return self._current_demand
        if now_us < self._idle_until_us:
            return 0
        # Transition: we were past both timers -> start a new busy period.
        on_duration = self._rng.exponential(self.mean_on_ms) * 1000
        off_duration = self._rng.exponential(self.mean_off_ms) * 1000
        self._busy_until_us = now_us + int(max(on_duration, 1000))
        self._idle_until_us = self._busy_until_us + int(max(off_duration, 1000))
        self._current_demand = int(
            max(1, self._rng.poisson(self.mean_prb_demand))
        )
        return self._current_demand

    def next_change_us(self, now_us: int) -> int:
        """After a :meth:`demand_at` call at *now_us*: the earliest time
        it may return another demand or draw, a busy/idle timer or a
        scripted burst's start or end.  Before it, it returns the same
        demand and changes no state."""
        change = NEVER_US
        for start, duration, _ in self.scripted_bursts:
            if now_us < start:
                change = min(change, start)
            elif now_us < start + duration:
                change = min(change, start + duration)
        if self._markov:
            # Timers that expired during a scripted burst draw at its
            # end, which is already counted.
            if now_us < self._busy_until_us:
                change = min(change, self._busy_until_us)
            elif now_us < self._idle_until_us:
                change = min(change, self._idle_until_us)
        return change


@dataclass
class CrossTrafficModel:
    """A population of cross-traffic UEs sharing a cell direction.

    Add UEs with :meth:`add_ue` once the model is in use, so its demand
    cache sees them.
    """

    ues: List[CrossTrafficUe] = field(default_factory=list)

    def __post_init__(self) -> None:
        for ue in self.ues:
            ue._model = self
        self.invalidate()

    def add_ue(self, ue: CrossTrafficUe) -> None:
        """Join *ue* to the population."""
        ue._model = self
        self.ues.append(ue)
        self.invalidate()

    def invalidate(self) -> None:
        """Drop the cached demand list."""
        self._demands: Tuple[Tuple[int, int], ...] = ()
        self._valid_from_us = 0
        self._valid_until_us = 0

    @classmethod
    def idle(cls) -> "CrossTrafficModel":
        """A model with no cross traffic (private-cell default)."""
        return cls(ues=[])

    @classmethod
    def build(
        cls,
        n_ues: int,
        mean_on_ms: float,
        mean_off_ms: float,
        mean_prb_demand: float,
        seed: int,
        first_rnti: int = 40_000,
    ) -> "CrossTrafficModel":
        """Build *n_ues* independent on-off UEs with staggered seeds."""
        ues = [
            CrossTrafficUe(
                rnti=first_rnti + i,
                mean_on_ms=mean_on_ms,
                mean_off_ms=mean_off_ms,
                mean_prb_demand=mean_prb_demand,
                seed=seed * 1009 + i,
            )
            for i in range(n_ues)
        ]
        return cls(ues=ues)

    def demands_at(self, now_us: int) -> Sequence[Tuple[int, int]]:
        """Return ``(rnti, prb_demand)`` for every UE with demand > 0.

        The list is kept until the earliest UE's next change, so every
        call before it returns the same tuple.
        """
        if not self._valid_from_us <= now_us < self._valid_until_us:
            out = []
            until = NEVER_US
            for ue in self.ues:
                demand = ue.demand_at(now_us)
                if demand > 0:
                    out.append((ue.rnti, demand))
                until = min(until, ue.next_change_us(now_us))
            self._demands = tuple(out)
            self._valid_from_us = now_us
            self._valid_until_us = until
        return self._demands

    def total_demand_at(self, now_us: int) -> int:
        """Total PRBs demanded by all cross-traffic UEs at *now_us*."""
        return sum(d for _, d in self.demands_at(now_us))
