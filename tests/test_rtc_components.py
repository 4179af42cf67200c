"""Encoder ladder, pacer, and media receiver units."""

import pytest

from repro.net.packet import Packet
from repro.rtc.encoder import LADDER, EncoderAdapter
from repro.rtc.pacer import Pacer
from repro.rtc.receiver import MediaReceiver
from repro.telemetry.records import StreamKind


# -- encoder -------------------------------------------------------------------


def test_ladder_ascending():
    minimums = [rung.min_bps for rung in LADDER]
    assert minimums == sorted(minimums)
    resolutions = [rung.resolution_p for rung in LADDER]
    assert resolutions == sorted(resolutions)


def test_encoder_steps_down_on_low_rate():
    encoder = EncoderAdapter(seed=1)
    resolution, fps = encoder.adapt(3_000_000)
    assert resolution >= 540
    resolution, fps = encoder.adapt(200_000)
    assert resolution == 180


def test_encoder_hysteresis():
    encoder = EncoderAdapter(seed=1)
    encoder.adapt(1_200_000)
    at_rate = encoder.resolution_p
    # A rate just above the current rung's good rate should not flap up.
    encoder.adapt(1_250_000)
    assert encoder.resolution_p == at_rate


def test_resolution_bias_lowers_output():
    plain = EncoderAdapter(seed=1)
    biased = EncoderAdapter(resolution_bias=1, seed=1)
    for rate in (500_000, 1_200_000, 2_500_000, 4_000_000):
        r_plain, _ = plain.adapt(rate)
        r_biased, _ = biased.adapt(rate)
        assert r_biased <= r_plain


def test_fps_reduces_below_good_rate():
    # 360p runs at full fps from 700 kbit/s; at 450 kbit/s (above the
    # rung minimum but below its good rate) the frame rate is reduced.
    encoder = EncoderAdapter(seed=1)
    _, fps_high = encoder.adapt(2_000_000)
    encoder2 = EncoderAdapter(seed=1)
    _, fps_low = encoder2.adapt(450_000)
    assert fps_low < fps_high


def test_frame_bytes_track_rate():
    encoder = EncoderAdapter(seed=2)
    sizes = [encoder.frame_bytes(2_400_000, 30.0) for _ in range(100)]
    expected = 2_400_000 / 8 / 30
    assert expected * 0.5 < sum(sizes) / len(sizes) < expected * 1.6


def test_keyframes_larger():
    encoder = EncoderAdapter(keyframe_interval=10, seed=3)
    sizes = [encoder.frame_bytes(2_000_000, 30.0) for _ in range(30)]
    keyframes = sizes[0::10]
    deltas = [s for i, s in enumerate(sizes) if i % 10 != 0]
    assert min(keyframes) > max(deltas)


# -- pacer ----------------------------------------------------------------------


def _video_packet(pid, size=1200):
    return Packet(
        packet_id=pid,
        stream=StreamKind.VIDEO,
        size_bytes=size,
        sent_us=0,
        sender="a",
        media_seq=pid,
    )


def test_pacer_spreads_burst():
    pacer = Pacer()
    pacer.set_rate(1_000_000)  # pacing 2.5 Mbit/s
    for pid in range(30):
        pacer.enqueue(_video_packet(pid))
    first = pacer.drain(1_000)
    assert len(first) < 30  # not everything at once
    total = len(first)
    t = 1_000
    while total < 30 and t < 1_000_000:
        t += 1_000
        total += len(pacer.drain(t))
    assert total == 30


def test_pacer_respects_rate():
    pacer = Pacer(pacing_factor=2.5)
    pacer.set_rate(800_000)
    for pid in range(200):
        pacer.enqueue(_video_packet(pid))
    sent_bytes = 0
    for t in range(1_000, 501_000, 1_000):
        for packet in pacer.drain(t):
            sent_bytes += packet.size_bytes
    # 0.5 s at 2.5 * 800 kbit/s = 125 kB budget (plus small slack).
    assert sent_bytes <= 800_000 * 2.5 / 8 * 0.5 * 1.1


def test_pacer_idle_ticks_and_next_release_match_per_tick_drains():
    """A pacer drained on every tick and one drained only at its
    next_release_us(), idle-ticking the rest, release the same packets
    at the same times and end with the same budget."""
    tick_us = 500
    fixed, lazy = Pacer(), Pacer()
    released = {id(fixed): [], id(lazy): []}
    last = due = 0
    for now in range(tick_us, 400_000, tick_us):
        enqueue = now % 33_000 < tick_us
        rate = 300_000 + (now // 50_000) * 150_000
        wake = enqueue or now >= due
        if wake:
            lazy.idle_ticks((now - last) // tick_us - 1, tick_us)
        for pacer in (fixed, lazy) if wake else (fixed,):
            if enqueue:
                for pid in range(4):
                    pacer.enqueue(_video_packet(now + pid, size=1_100))
            pacer.set_rate(rate if wake else pacer.rate_bps)
            released[id(pacer)] += [
                (p.packet_id, p.sent_us) for p in pacer.drain(now)
            ]
        if wake:
            last, due = now, lazy.next_release_us()
    assert released[id(lazy)] == released[id(fixed)]
    assert len(released[id(fixed)]) > 40
    lazy.idle_ticks((now - last) // tick_us, tick_us)
    assert lazy._budget_bytes == fixed._budget_bytes


def test_audio_bypasses_budget():
    pacer = Pacer()
    pacer.set_rate(30_000)  # tiny budget
    audio = Packet(
        packet_id=1,
        stream=StreamKind.AUDIO,
        size_bytes=160,
        sent_us=0,
        sender="a",
        media_seq=1,
    )
    big_video = _video_packet(0, size=50_000)
    pacer.enqueue(big_video)
    pacer.enqueue(audio)
    released = pacer.drain(1_000)
    # Video blocks on budget; audio is behind it in FIFO order but the
    # video packet must not be released before it has budget.
    assert big_video not in released


# -- receiver (gap detection / feedback) ----------------------------------------------


def _media_packet(seq, send_us, sender="peer"):
    return Packet(
        packet_id=seq,
        stream=StreamKind.AUDIO,
        size_bytes=160,
        sent_us=send_us,
        sender=sender,
        media_seq=seq,
        audio_seq=seq,
        capture_us=send_us,
    )


def test_feedback_contains_acks():
    receiver = MediaReceiver()
    for seq in range(5):
        receiver.on_packet(_media_packet(seq, seq * 20_000), seq * 20_000 + 10_000)
    payload = receiver.build_feedback(now_us=200_000)
    assert payload is not None
    assert [e.seq for e in payload.entries] == list(range(5))
    assert all(e.arrival_us is not None for e in payload.entries)


def test_gap_declared_lost_after_deadline():
    receiver = MediaReceiver()
    receiver.on_packet(_media_packet(0, 0), 10_000)
    receiver.on_packet(_media_packet(2, 40_000), 50_000)  # seq 1 missing
    receiver.build_feedback(now_us=60_000)  # drains acks, gap too young
    payload = receiver.build_feedback(now_us=400_000)
    assert payload is not None
    lost = [e for e in payload.entries if e.arrival_us is None]
    assert [e.seq for e in lost] == [1]
    assert receiver.total_lost_declared == 1


def test_nack_requested_before_loss_declared():
    receiver = MediaReceiver()
    receiver.on_packet(_media_packet(0, 0), 10_000)
    receiver.on_packet(_media_packet(2, 40_000), 50_000)
    payload = receiver.build_feedback(now_us=80_000)
    assert payload is not None
    assert payload.nacks == [1]


def test_late_arrival_cancels_gap():
    receiver = MediaReceiver()
    receiver.on_packet(_media_packet(0, 0), 10_000)
    receiver.on_packet(_media_packet(2, 40_000), 50_000)
    receiver.on_packet(_media_packet(1, 20_000), 60_000)  # reordered
    payload = receiver.build_feedback(now_us=400_000)
    lost = [e for e in payload.entries if e.arrival_us is None]
    assert lost == []
    assert receiver.total_lost_declared == 0


def test_no_feedback_without_traffic():
    receiver = MediaReceiver()
    assert receiver.build_feedback(now_us=100_000) is None
