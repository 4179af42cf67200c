"""Adaptive jitter buffers for video frames and audio packets.

The receiver holds media briefly before playback to absorb network
jitter (§6.1).  The buffer's target delay adapts: it grows quickly when
frames arrive later than their playout time and decays slowly when the
network is stable — trading end-to-end (mouth-to-ear) latency against
smoothness, exactly the tension Figs. 3 and 20 illustrate.

Semantics used by the stats (matching the paper's event conditions):

* *jitter-buffer delay* of a played frame = how long it waited in the
  buffer (playout time − complete-arrival time, clamped at 0).  A value
  of 0 means the buffer drained — the frame was played the instant it
  arrived (Table 5, row 4).
* *freeze*: playout stalled longer than max(3 inter-frame intervals,
  150 ms) waiting for the next frame (the WebRTC freeze definition).
* audio packets missing at their playout tick are *concealed* (replaced
  by synthesized samples, §2.1/Fig. 4).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.units import NEVER_US

#: Float slack (ms) on a decayed target's lower bound: far above the
#: rounding of thousands of per-tick subtractions, far below 1 us.
_DECAY_SLACK_MS = 1e-6


def _decayed(
    target_ms: float, floor_ms: float, step_ms: float, ticks: int
) -> float:
    """*target_ms* after *ticks* decay ticks of *step_ms* each.

    A tick lowers a target above its floor by *step_ms*, down to the
    floor, and leaves a target at or below its floor alone.  Each tick
    is its own subtraction, so any split of the ticks gives the same
    float; the loop ends at the floor, which absorbs every later tick.
    """
    while ticks > 0 and target_ms > floor_ms:
        target_ms = max(floor_ms, target_ms - step_ms)
        ticks -= 1
    return target_ms


class _AdaptiveTarget:
    """The target delay both buffers share: it rises on late media (in
    each buffer's playout) and decays toward an adaptive floor.

    Needs ``base_delay_ms``, ``jitter_multiplier``, ``decay_ms_per_s``,
    ``target_delay_ms``, ``_jitter_ms`` and ``_last_decay_us``.
    """

    def minimum_delay_ms(self) -> float:
        """The adaptive floor (Fig. 3's 'minimum jitter-buffer delay')."""
        return self.base_delay_ms + self.jitter_multiplier * self._jitter_ms

    def _decay_target(self, now_us: int) -> None:
        dt_s = max(0, now_us - self._last_decay_us) / 1e6
        self._last_decay_us = now_us
        self.target_delay_ms = _decayed(
            self.target_delay_ms,
            self.minimum_delay_ms(),
            self.decay_ms_per_s * dt_s,
            1,
        )

    def idle_ticks(self, ticks: int, tick_us: int) -> None:
        """Apply *ticks* steps of *tick_us* each, all before
        ``next_due_us()``, with no packet arriving: their only effect
        is the target's decay."""
        self._last_decay_us += ticks * tick_us
        self.target_delay_ms = _decayed(
            self.target_delay_ms,
            self.minimum_delay_ms(),
            self.decay_ms_per_s * (tick_us / 1e6),
            ticks,
        )

    def _playout_bound_us(self, capture_us: int) -> int:
        """A lower bound on the playout time of media captured at
        *capture_us*, valid for every step up to its playout at the
        current target: until then, with no arrival, the target only
        decays.

        The floor bounds the decay only from above a target sitting on
        or over it: the floor rises with jitter, so a target can sit
        below it, and then it does not decay at all.
        """
        target_ms = self.target_delay_ms
        horizon_us = capture_us + int(target_ms * 1000)
        ahead_us = max(0, horizon_us - self._last_decay_us)
        decay_ms = self.decay_ms_per_s * ahead_us / 1e6
        lowest_ms = min(
            target_ms, max(self.minimum_delay_ms(), target_ms - decay_ms)
        )
        return capture_us + int((lowest_ms - _DECAY_SLACK_MS) * 1000)


@dataclass
class PlayedFrame:
    """Record of one frame leaving the jitter buffer."""

    frame_id: int
    capture_us: int
    complete_us: int
    played_us: int
    resolution_p: int

    @property
    def buffer_delay_ms(self) -> float:
        return max(0.0, (self.played_us - self.complete_us) / 1000.0)


@dataclass
class _PendingFrame:
    capture_us: int
    n_packets: int
    received: int = 0
    complete_us: Optional[int] = None
    resolution_p: int = 0


@dataclass
class VideoJitterBuffer(_AdaptiveTarget):
    """Frame-level adaptive jitter buffer with freeze accounting.

    Args:
        base_delay_ms: minimum target delay.
        jitter_multiplier: how many jitter std-devs of headroom to keep.
        decay_ms_per_s: how fast the target delay shrinks when stable.
    """

    base_delay_ms: float = 70.0
    jitter_multiplier: float = 5.0
    decay_ms_per_s: float = 3.0
    max_delay_ms: float = 1_000.0

    target_delay_ms: float = field(init=False)
    #: Incomplete frames older than this are abandoned (decoder would
    #: drop them and request a keyframe); keeps playout from deadlocking
    #: on a lost packet.
    incomplete_timeout_us: int = 600_000

    _frames: Dict[int, _PendingFrame] = field(default_factory=dict)
    _next_frame_id: Optional[int] = None
    _jitter_ms: float = 5.0
    _last_complete: Optional[Tuple[int, int]] = None  # (capture, complete)
    _last_played_us: Optional[int] = None
    _last_decay_us: int = 0
    _frozen_since_us: Optional[int] = None
    _max_finished_frame_id: int = -1
    played: List[PlayedFrame] = field(default_factory=list)
    #: Every ``played_us`` of ``played``, sorted, for :meth:`fps_over`.
    _played_us: List[int] = field(default_factory=list)
    total_freeze_us: int = 0
    freeze_count: int = 0
    dropped_frames: int = 0
    frame_interval_us: int = 33_333

    def __post_init__(self) -> None:
        self.target_delay_ms = self.base_delay_ms

    # -- ingest ---------------------------------------------------------------

    def on_packet(
        self,
        frame_id: int,
        capture_us: int,
        packets_in_frame: int,
        resolution_p: int,
        arrival_us: int,
    ) -> None:
        """Register one video packet arrival."""
        if frame_id <= self._max_finished_frame_id:
            return  # frame already played or abandoned
        frame = self._frames.get(frame_id)
        if frame is None:
            frame = _PendingFrame(
                capture_us=capture_us,
                n_packets=packets_in_frame,
                resolution_p=resolution_p,
            )
            self._frames[frame_id] = frame
            if self._next_frame_id is None or frame_id < self._next_frame_id:
                if self._last_played_us is None:
                    self._next_frame_id = frame_id
        frame.received += 1
        if frame.received >= frame.n_packets and frame.complete_us is None:
            frame.complete_us = arrival_us
            self._update_jitter(frame)

    def _update_jitter(self, frame: _PendingFrame) -> None:
        if self._last_complete is not None:
            prev_capture, prev_complete = self._last_complete
            variation_ms = abs(
                (frame.complete_us - prev_complete)
                - (frame.capture_us - prev_capture)
            ) / 1000.0
            # RTP-style jitter EWMA (1/16 gain).
            self._jitter_ms += (variation_ms - self._jitter_ms) / 16.0
        self._last_complete = (frame.capture_us, frame.complete_us)

    # -- playout ------------------------------------------------------------------

    def step(self, now_us: int) -> List[PlayedFrame]:
        """Advance the playout clock to *now_us*; returns played frames."""
        self._decay_target(now_us)
        out: List[PlayedFrame] = []
        while True:
            frame_id = self._due_frame_id()
            if frame_id is None:
                break
            frame = self._frames[frame_id]
            playout_us = frame.capture_us + int(self.target_delay_ms * 1000)
            if frame.complete_us is None:
                if now_us - frame.capture_us > self.incomplete_timeout_us:
                    # Abandon the frame; playout moves on (decoder drop).
                    self.dropped_frames += 1
                    self._max_finished_frame_id = max(
                        self._max_finished_frame_id, frame_id
                    )
                    del self._frames[frame_id]
                    continue
                break  # next frame in order is incomplete
            effective_playout = max(playout_us, frame.complete_us)
            if now_us < effective_playout:
                break  # not yet due
            self._play(frame_id, frame, effective_playout, now_us)
            out.append(self.played[-1])
        # Playout stalled — whether the next frame is incomplete or has
        # not even arrived yet (an empty buffer is still a freeze).
        self._note_frozen(now_us)
        return out

    def _due_frame_id(self) -> Optional[int]:
        if not self._frames:
            return None
        return min(self._frames.keys())

    def _play(
        self, frame_id: int, frame: _PendingFrame, playout_us: int, now_us: int
    ) -> None:
        was_late = frame.complete_us > (
            frame.capture_us + int(self.target_delay_ms * 1000)
        )
        if was_late:
            # Grow the target so the next frames are buffered longer.
            needed_ms = (frame.complete_us - frame.capture_us) / 1000.0
            self.target_delay_ms = min(
                self.max_delay_ms, max(self.target_delay_ms, needed_ms)
            )
        if self._frozen_since_us is not None:
            freeze = max(0, playout_us - self._frozen_since_us)
            self.total_freeze_us += freeze
            self._frozen_since_us = None
        self.played.append(
            PlayedFrame(
                frame_id=frame_id,
                capture_us=frame.capture_us,
                complete_us=frame.complete_us,
                played_us=playout_us,
                resolution_p=frame.resolution_p,
            )
        )
        if self._played_us and playout_us < self._played_us[-1]:
            insort(self._played_us, playout_us)
        else:
            self._played_us.append(playout_us)
        self._last_played_us = playout_us
        self._max_finished_frame_id = max(self._max_finished_frame_id, frame_id)
        del self._frames[frame_id]

    def _freeze_threshold_us(self) -> int:
        return max(3 * self.frame_interval_us, 150_000)

    def _note_frozen(self, now_us: int) -> None:
        threshold_us = self._freeze_threshold_us()
        if self._last_played_us is None:
            return
        if now_us - self._last_played_us < threshold_us:
            return
        if self._frozen_since_us is None:
            self._frozen_since_us = self._last_played_us + threshold_us
            self.freeze_count += 1

    def next_due_us(self) -> int:
        """Earliest time a step can do more than decay the target,
        counted from the last step, if no packet arrives before it: the
        lowest pending frame's playout or abandonment, or a freeze's
        onset."""
        due = NEVER_US
        if self._frames:
            frame = self._frames[min(self._frames)]
            if frame.complete_us is None:
                due = frame.capture_us + self.incomplete_timeout_us + 1
            else:
                due = max(
                    frame.complete_us, self._playout_bound_us(frame.capture_us)
                )
        if self._last_played_us is not None and self._frozen_since_us is None:
            due = min(due, self._last_played_us + self._freeze_threshold_us())
        return due

    # -- stats -------------------------------------------------------------------

    def is_frozen(self, now_us: int) -> bool:
        if self._frozen_since_us is None:
            return False
        return now_us >= self._frozen_since_us

    def current_delay_ms(self) -> float:
        """Jitter-buffer delay of the most recently played frame."""
        if not self.played:
            return self.target_delay_ms
        return self.played[-1].buffer_delay_ms

    def fps_over(self, now_us: int, window_us: int = 1_000_000) -> float:
        played = self._played_us
        count = len(played) - bisect_left(played, now_us - window_us)
        return count * 1e6 / window_us

    def last_resolution(self) -> int:
        if not self.played:
            return 0
        return self.played[-1].resolution_p


@dataclass
class AudioJitterBuffer(_AdaptiveTarget):
    """Packet-level adaptive audio buffer with concealment accounting.

    Audio packets carry ``samples_per_packet`` samples (20 ms at 48 kHz =
    960).  A packet missing at its playout tick is concealed.
    """

    packet_interval_us: int = 20_000
    samples_per_packet: int = 960
    base_delay_ms: float = 40.0
    jitter_multiplier: float = 4.0
    decay_ms_per_s: float = 3.0
    max_delay_ms: float = 500.0

    target_delay_ms: float = field(init=False)
    _arrivals: Dict[int, int] = field(default_factory=dict)  # seq -> arrival
    _captures: Dict[int, int] = field(default_factory=dict)
    _next_play_seq: Optional[int] = None
    _jitter_ms: float = 2.0
    _last_arrival: Optional[Tuple[int, int]] = None
    _last_decay_us: int = 0
    concealed_samples: int = 0
    total_samples: int = 0
    played_packets: int = 0
    _last_buffer_delay_ms: float = 0.0

    def __post_init__(self) -> None:
        self.target_delay_ms = self.base_delay_ms

    def on_packet(self, audio_seq: int, capture_us: int, arrival_us: int) -> None:
        if self._next_play_seq is not None and audio_seq < self._next_play_seq:
            return  # arrived after its playout tick passed; already concealed
        self._arrivals[audio_seq] = arrival_us
        self._captures[audio_seq] = capture_us
        if self._last_arrival is not None:
            prev_capture, prev_arrival = self._last_arrival
            variation_ms = abs(
                (arrival_us - prev_arrival) - (capture_us - prev_capture)
            ) / 1000.0
            self._jitter_ms += (variation_ms - self._jitter_ms) / 16.0
        self._last_arrival = (capture_us, arrival_us)
        if self._next_play_seq is None:
            self._next_play_seq = audio_seq

    def step(self, now_us: int) -> None:
        """Play every packet whose playout tick has passed."""
        self._decay_target(now_us)
        if self._next_play_seq is None:
            return
        while True:
            seq = self._next_play_seq
            capture = self._captures.get(seq)
            if capture is None:
                # We have never seen this seq; estimate its capture time
                # from the previous one.
                capture = self._estimated_capture(seq)
                if capture is None:
                    return
            playout_us = capture + int(self.target_delay_ms * 1000)
            if now_us < playout_us:
                return
            arrival = self._arrivals.pop(seq, None)
            self._captures.pop(seq, None)
            self.total_samples += self.samples_per_packet
            if arrival is None or arrival > playout_us:
                self.concealed_samples += self.samples_per_packet
                if arrival is not None:
                    # Arrived too late: grow the target delay.
                    needed_ms = (arrival - capture) / 1000.0
                    self.target_delay_ms = min(
                        self.max_delay_ms,
                        max(self.target_delay_ms, needed_ms),
                    )
                self._last_buffer_delay_ms = 0.0
            else:
                self.played_packets += 1
                self._last_buffer_delay_ms = max(
                    0.0, (playout_us - arrival) / 1000.0
                )
            self._next_play_seq = seq + 1

    def _estimated_capture(self, seq: int) -> Optional[int]:
        if not self._captures:
            return None
        known_seq = min(self._captures.keys())
        known_capture = self._captures[known_seq]
        return known_capture - (known_seq - seq) * self.packet_interval_us

    def next_due_us(self) -> int:
        """Earliest time a step can do more than decay the target,
        counted from the last step, if no packet arrives before it: the
        next packet's playout tick."""
        if self._next_play_seq is None:
            return NEVER_US
        capture = self._captures.get(self._next_play_seq)
        if capture is None:
            capture = self._estimated_capture(self._next_play_seq)
            if capture is None:
                return NEVER_US
        return self._playout_bound_us(capture)

    def current_delay_ms(self) -> float:
        return self._last_buffer_delay_ms

    @property
    def concealment_fraction(self) -> float:
        if self.total_samples == 0:
            return 0.0
        return self.concealed_samples / self.total_samples
