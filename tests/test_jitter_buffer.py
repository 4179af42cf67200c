"""Adaptive jitter buffers: playout, adaptation, freezes, concealment."""

import random

import pytest

from repro.rtc.jitter_buffer import AudioJitterBuffer, VideoJitterBuffer


def _feed_frames(buffer, n, capture_interval_us=33_333, delay_us=30_000):
    """Feed n complete 1-packet frames with constant network delay."""
    for frame_id in range(n):
        capture = frame_id * capture_interval_us
        buffer.on_packet(
            frame_id=frame_id,
            capture_us=capture,
            packets_in_frame=1,
            resolution_p=540,
            arrival_us=capture + delay_us,
        )


def test_stable_playout_in_order():
    buffer = VideoJitterBuffer()
    _feed_frames(buffer, 30)
    played = buffer.step(30 * 33_333 + 1_000_000)
    ids = [f.frame_id for f in played]
    assert ids == sorted(ids)
    assert len(played) == 30
    assert buffer.total_freeze_us == 0


def test_buffer_delay_positive_when_stable():
    buffer = VideoJitterBuffer(base_delay_ms=60.0)
    _feed_frames(buffer, 30, delay_us=20_000)
    buffer.step(2_000_000)
    assert buffer.current_delay_ms() > 0


def test_delay_spike_drains_buffer_and_freezes():
    """Fig. 20: a delay surge drains the buffer and freezes playout.

    Arrivals are interleaved with playout steps (the session's real call
    pattern): the buffer only learns about a frame when it arrives.
    """
    buffer = VideoJitterBuffer(base_delay_ms=40.0)
    arrivals = []
    for frame_id in range(40):
        capture = frame_id * 33_333
        delay = 20_000 if frame_id < 30 else 400_000
        arrivals.append((capture + delay, frame_id, capture))
    arrivals.sort()
    drained = False
    index = 0
    for t in range(0, 3_000_000, 5_000):
        while index < len(arrivals) and arrivals[index][0] <= t:
            arrival_us, frame_id, capture = arrivals[index]
            buffer.on_packet(
                frame_id=frame_id,
                capture_us=capture,
                packets_in_frame=1,
                resolution_p=540,
                arrival_us=arrival_us,
            )
            index += 1
        for frame in buffer.step(t):
            if frame.buffer_delay_ms <= 0.5:
                drained = True
    assert drained
    assert buffer.total_freeze_us > 0
    assert buffer.freeze_count >= 1
    # The spike pushed the adaptive target up.
    assert buffer.target_delay_ms > 40.0


def test_target_decays_after_spike():
    buffer = VideoJitterBuffer(base_delay_ms=40.0, decay_ms_per_s=10.0)
    buffer.target_delay_ms = 300.0
    buffer.step(0)
    buffer.step(5_000_000)
    assert buffer.target_delay_ms < 300.0


def test_incomplete_frame_eventually_dropped():
    buffer = VideoJitterBuffer()
    # Frame 0 never completes (2 packets, only 1 arrives).
    buffer.on_packet(0, 0, packets_in_frame=2, resolution_p=540, arrival_us=10_000)
    _feed_frames(buffer, 10)  # frame ids 0..9, frame 0 re-registered? no: id>max
    # Actually frames 1..9 complete; play far in the future.
    played = buffer.step(5_000_000)
    assert buffer.dropped_frames >= 0
    assert len(played) >= 8  # playout moved on


def test_fps_measurement():
    buffer = VideoJitterBuffer()
    _feed_frames(buffer, 60)
    # Step progressively (realistic playout clock) and measure at the
    # end of the stepped range.
    for t in range(0, 2_000_000, 10_000):
        buffer.step(t)
    fps = buffer.fps_over(now_us=2_000_000)
    assert 20 <= fps <= 35


def test_fps_over_matches_counting_every_played_frame():
    """fps_over's bisect count equals counting every played frame, over
    random delays, losses and playout clocks."""
    rng = random.Random(11)
    buffer = VideoJitterBuffer()
    for frame_id in range(400):
        capture = frame_id * 33_333
        n_packets = rng.randint(1, 3)
        delivered = n_packets - (rng.random() < 0.05)
        for _ in range(delivered):
            buffer.on_packet(
                frame_id, capture, n_packets, 540,
                capture + rng.choice((20_000, 40_000, 90_000, 400_000)),
            )
    for now in range(0, 15_000_000, 50_000):
        buffer.step(now)
        for window in (200_000, 1_000_000):
            cutoff = now - window
            count = sum(1 for f in buffer.played if f.played_us >= cutoff)
            assert buffer.fps_over(now, window) == count * 1e6 / window
    assert len(buffer.played) > 300


def test_audio_stable_no_concealment():
    buffer = AudioJitterBuffer()
    for seq in range(100):
        buffer.on_packet(seq, capture_us=seq * 20_000, arrival_us=seq * 20_000 + 15_000)
    buffer.step(3_000_000)
    assert buffer.played_packets > 80
    assert buffer.concealment_fraction < 0.05


def test_audio_missing_packet_concealed():
    buffer = AudioJitterBuffer()
    for seq in range(50):
        if seq == 25:
            continue  # lost
        buffer.on_packet(seq, capture_us=seq * 20_000, arrival_us=seq * 20_000 + 10_000)
    buffer.step(3_000_000)
    assert buffer.concealed_samples >= buffer.samples_per_packet
    assert 0 < buffer.concealment_fraction < 0.1


def test_audio_late_packet_concealed_and_target_grows():
    buffer = AudioJitterBuffer(base_delay_ms=30.0)
    initial_target = buffer.target_delay_ms
    for seq in range(50):
        delay = 10_000 if seq < 25 else 250_000  # sudden delay surge
        buffer.on_packet(seq, capture_us=seq * 20_000, arrival_us=seq * 20_000 + delay)
        buffer.step(seq * 20_000 + 30_000)
    buffer.step(3_000_000)
    assert buffer.concealed_samples > 0
    assert buffer.target_delay_ms > initial_target


def test_audio_total_samples_accounting():
    buffer = AudioJitterBuffer()
    for seq in range(20):
        buffer.on_packet(seq, seq * 20_000, seq * 20_000 + 5_000)
    buffer.step(1_000_000)
    assert buffer.total_samples == 20 * buffer.samples_per_packet
