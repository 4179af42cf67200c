"""Acknowledged-bitrate estimator.

Measures the throughput the network *actually delivered* from the sizes
and arrival timestamps of acknowledged packets over a sliding window.
GCC uses it to scale multiplicative decreases and — when it reports
sustained high throughput during a short-lived overuse — to enable the
fast recovery the paper quantifies at ~1 % of anomalies (§6.2).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional, Tuple

#: Default sliding-window span.
WINDOW_US = 500_000


@dataclass
class AckedBitrateEstimator:
    """Sliding-window throughput over acknowledged packets."""

    window_us: int = WINDOW_US
    _samples: Deque[Tuple[int, int]] = field(default_factory=deque)
    #: Sum of the window's sizes; ints, so the running sum is exact.
    _total_bytes: int = 0

    def on_acked(self, arrival_us: int, size_bytes: int) -> None:
        """Record one acknowledged packet."""
        self._samples.append((arrival_us, size_bytes))
        self._total_bytes += size_bytes
        self._trim(arrival_us)

    def _trim(self, now_us: int) -> None:
        cutoff = now_us - self.window_us
        samples = self._samples
        while samples and samples[0][0] < cutoff:
            self._total_bytes -= samples.popleft()[1]

    def bitrate_bps(self, now_us: Optional[int] = None) -> Optional[float]:
        """Estimated throughput, or None without enough data."""
        if len(self._samples) < 2:
            return None
        if now_us is not None:
            self._trim(now_us)
            if len(self._samples) < 2:
                return None
        span_us = self._samples[-1][0] - self._samples[0][0]
        span_us = max(span_us, self.window_us // 2)
        return self._total_bytes * 8.0 * 1e6 / span_us
