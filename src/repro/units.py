"""Time, rate, and size units used across the simulator.

Every timestamp in the package is an integer number of **microseconds**
(``int``).  Integer microseconds avoid floating-point drift when stepping a
slot-based radio simulation for minutes of simulated time, and are fine
grained enough for 5G numerologies (a 30 kHz-SCS slot is 500 µs).

Rates are expressed in **bits per second** (``float``), sizes in **bytes**
(``int``) unless a name says otherwise.  The helpers below exist so call
sites read naturally (``ms(20)`` instead of ``20_000``).
"""

from __future__ import annotations

US_PER_MS = 1_000
US_PER_SEC = 1_000_000
MS_PER_SEC = 1_000

BITS_PER_BYTE = 8

KBPS = 1_000.0
MBPS = 1_000_000.0

#: A time no simulation reaches: the "next event" of a component with
#: nothing scheduled.
NEVER_US = 1 << 62


def us(value: float) -> int:
    """Return *value* microseconds as an integer microsecond count."""
    return int(round(value))


def ms(value: float) -> int:
    """Convert milliseconds to integer microseconds."""
    return int(round(value * US_PER_MS))


def seconds(value: float) -> int:
    """Convert seconds to integer microseconds."""
    return int(round(value * US_PER_SEC))


def to_ms(timestamp_us: int) -> float:
    """Convert integer microseconds to float milliseconds."""
    return timestamp_us / US_PER_MS


def to_seconds(timestamp_us: int) -> float:
    """Convert integer microseconds to float seconds."""
    return timestamp_us / US_PER_SEC


def mbps(value: float) -> float:
    """Convert megabits per second to bits per second."""
    return value * MBPS


def kbps(value: float) -> float:
    """Convert kilobits per second to bits per second."""
    return value * KBPS


def to_mbps(rate_bps: float) -> float:
    """Convert bits per second to megabits per second."""
    return rate_bps / MBPS


def bytes_to_bits(size_bytes: int) -> int:
    """Convert a byte count to a bit count."""
    return size_bytes * BITS_PER_BYTE


def bits_to_bytes(size_bits: float) -> int:
    """Convert a bit count to whole bytes (floor)."""
    return int(size_bits // BITS_PER_BYTE)


def rate_over_interval(size_bytes: int, interval_us: int) -> float:
    """Average rate in bits per second of *size_bytes* over *interval_us*.

    Returns 0.0 for empty intervals rather than raising, because telemetry
    resampling regularly produces zero-length edge windows.
    """
    if interval_us <= 0:
        return 0.0
    return bytes_to_bits(size_bytes) * US_PER_SEC / interval_us
