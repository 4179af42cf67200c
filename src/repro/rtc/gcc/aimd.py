"""AIMD rate control (the delay-based target-rate state machine).

Maps the overuse detector's signal to a target bitrate:

* **overuse** → multiplicative decrease to ``beta`` (0.85) of the
  acknowledged bitrate (Fig. 13 ③, Fig. 21 ④);
* **underuse** → hold (let queues drain without probing);
* **normal** → increase — *additive* (slow, order +0.5 packet per
  response time) when the rate is near the estimated link capacity,
  *multiplicative* (~+8 %/s) when far below it.

The paper highlights the recovery asymmetry this creates (§6.2): after an
overuse episode the controller sits near its link-capacity estimate, so
it recovers additively, taking 30+ seconds — unless the acknowledged
bitrate shows sustained high throughput, in which case the increase is
effectively fast ("fast recovery", observed in only ~1 % of anomalies).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

from repro.rtc.gcc.overuse import BandwidthUsage


class RateControlState(enum.Enum):
    HOLD = "hold"
    INCREASE = "increase"
    DECREASE = "decrease"


@dataclass
class _LinkCapacityEstimate:
    """Running mean/deviation of throughput observed at decrease time."""

    estimate_bps: Optional[float] = None
    deviation_bps: float = 0.0

    ALPHA = 0.05

    def update(self, sample_bps: float) -> None:
        if self.estimate_bps is None:
            self.estimate_bps = sample_bps
            self.deviation_bps = sample_bps / 20.0
            return
        error = sample_bps - self.estimate_bps
        self.estimate_bps += self.ALPHA * error
        self.deviation_bps = (
            (1 - self.ALPHA) * self.deviation_bps + self.ALPHA * abs(error)
        )

    def reset(self) -> None:
        self.estimate_bps = None
        self.deviation_bps = 0.0

    def upper_bound(self) -> float:
        if self.estimate_bps is None:
            return math.inf
        return self.estimate_bps + 3.0 * max(self.deviation_bps, 1000.0)


@dataclass
class AimdRateControl:
    """Additive-increase / multiplicative-decrease target-rate control.

    Args:
        initial_bps: starting target rate.
        min_bps / max_bps: clamp bounds.
        beta: multiplicative-decrease factor applied to the acknowledged
            bitrate on overuse.
        multiplicative_gain_per_s: growth factor per second when far from
            the capacity estimate (1.08 = +8 %/s, libwebrtc default).
        additive_bps_per_s: linear growth rate near convergence; roughly
            half a 1200-byte packet per 100 ms response time.
    """

    initial_bps: float = 1_000_000.0
    min_bps: float = 30_000.0
    max_bps: float = 8_000_000.0
    beta: float = 0.85
    multiplicative_gain_per_s: float = 1.08
    #: Faster growth before the first overuse, standing in for WebRTC's
    #: startup bandwidth probing (which triples the estimate in the
    #: first seconds of a call).
    startup_gain_per_s: float = 1.35
    additive_bps_per_s: float = 50_000.0

    state: RateControlState = RateControlState.HOLD
    target_bps: float = field(init=False)
    _capacity: _LinkCapacityEstimate = field(
        default_factory=_LinkCapacityEstimate
    )
    _last_update_us: Optional[int] = None
    _last_decrease_us: Optional[int] = None
    _smoothed_ack_bps: Optional[float] = None
    fast_recovery_count: int = 0
    decrease_count: int = 0

    def __post_init__(self) -> None:
        self.target_bps = float(self.initial_bps)

    # -- state machine ---------------------------------------------------------

    def _change_state(self, usage: BandwidthUsage) -> None:
        if usage is BandwidthUsage.OVERUSE:
            self.state = RateControlState.DECREASE
        elif usage is BandwidthUsage.UNDERUSE:
            self.state = RateControlState.HOLD
        else:  # NORMAL
            if self.state is not RateControlState.DECREASE:
                self.state = RateControlState.INCREASE
            else:
                self.state = RateControlState.HOLD

    def update(
        self, usage: BandwidthUsage, acked_bitrate_bps: Optional[float], now_us: int
    ) -> float:
        """Advance the controller; returns the new target bitrate."""
        self._change_state(usage)
        dt_s = 0.0
        if self._last_update_us is not None:
            dt_s = max(0.0, (now_us - self._last_update_us) / 1e6)
        dt_s = min(dt_s, 1.0)
        self._last_update_us = now_us

        if self.state is RateControlState.DECREASE:
            self._on_decrease(acked_bitrate_bps, now_us)
            # After applying the decrease we hold until the detector says
            # normal again.
            self.state = RateControlState.HOLD
        elif self.state is RateControlState.INCREASE:
            self._on_increase(acked_bitrate_bps, dt_s)
        # HOLD: keep the current rate.

        self.target_bps = min(max(self.target_bps, self.min_bps), self.max_bps)
        return self.target_bps

    def _on_decrease(
        self, acked_bitrate_bps: Optional[float], now_us: int
    ) -> None:
        self.decrease_count += 1
        self._last_decrease_us = now_us
        measured = (
            acked_bitrate_bps
            if acked_bitrate_bps is not None
            else self.target_bps
        )
        # An acked bitrate far above the capacity estimate means the
        # estimate is stale; reset so the next increase is multiplicative.
        if measured > self._capacity.upper_bound():
            self._capacity.reset()
        self._capacity.update(measured)
        new_rate = self.beta * measured
        self.target_bps = min(self.target_bps, new_rate)

    def _on_increase(
        self, acked_bitrate_bps: Optional[float], dt_s: float
    ) -> None:
        near_convergence = (
            acked_bitrate_bps is not None
            and self._capacity.estimate_bps is not None
            and acked_bitrate_bps < self._capacity.upper_bound()
        )
        if near_convergence:
            self.target_bps += self.additive_bps_per_s * dt_s
        else:
            if (
                self._capacity.estimate_bps is not None
                and acked_bitrate_bps is not None
                and acked_bitrate_bps > self._capacity.upper_bound()
            ):
                # Fast recovery: measured throughput shows the link is
                # fine again; the capacity estimate no longer binds.
                self._capacity.reset()
                self.fast_recovery_count += 1
            base_gain = (
                self.startup_gain_per_s
                if self.decrease_count == 0
                else self.multiplicative_gain_per_s
            )
            self.target_bps *= base_gain ** dt_s
        # Never exceed what the network demonstrably carries by much.
        # The cap uses a smoothed acked bitrate so measurement noise on
        # bursty video does not jitter the target rate downward.
        if acked_bitrate_bps is not None:
            if self._smoothed_ack_bps is None:
                self._smoothed_ack_bps = acked_bitrate_bps
            else:
                self._smoothed_ack_bps = (
                    0.9 * self._smoothed_ack_bps + 0.1 * acked_bitrate_bps
                )
            cap = 1.5 * max(self._smoothed_ack_bps, acked_bitrate_bps)
            self.target_bps = min(self.target_bps, cap + 10_000.0)
