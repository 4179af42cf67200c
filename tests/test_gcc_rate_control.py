"""GCC rate control: AIMD, loss-based bound, ack bitrate, pushback."""

import random

import pytest

from repro.rtc.gcc.ack_bitrate import AckedBitrateEstimator
from repro.rtc.gcc.aimd import AimdRateControl, RateControlState
from repro.rtc.gcc.loss_based import LossBasedControl
from repro.rtc.gcc.overuse import BandwidthUsage
from repro.rtc.gcc.pushback import PushbackController


# -- AIMD ----------------------------------------------------------------------


def test_overuse_decreases_to_beta_of_acked():
    aimd = AimdRateControl(initial_bps=3_000_000)
    aimd.update(BandwidthUsage.NORMAL, 2_000_000.0, now_us=0)
    rate = aimd.update(BandwidthUsage.OVERUSE, 2_000_000.0, now_us=100_000)
    assert rate == pytest.approx(0.85 * 2_000_000.0, rel=0.01)
    assert aimd.decrease_count == 1


def test_underuse_holds():
    aimd = AimdRateControl(initial_bps=2_000_000)
    before = aimd.target_bps
    rate = aimd.update(BandwidthUsage.UNDERUSE, 2_000_000.0, now_us=0)
    assert rate == before


def test_normal_increases():
    aimd = AimdRateControl(initial_bps=1_000_000)
    rate = aimd.target_bps
    now = 0
    for _ in range(20):
        now += 100_000
        rate = aimd.update(BandwidthUsage.NORMAL, 4_000_000.0, now_us=now)
    assert rate > 1_000_000


def test_startup_growth_faster_than_post_overuse():
    def ramp(pre_overuse: bool) -> float:
        aimd = AimdRateControl(initial_bps=1_000_000)
        now = 0
        if pre_overuse:
            aimd.update(BandwidthUsage.OVERUSE, 1_200_000.0, now_us=now)
            aimd.update(BandwidthUsage.NORMAL, 1_200_000.0, now_us=now + 1)
            aimd.target_bps = 1_000_000.0
        start = aimd.target_bps
        for _ in range(50):
            now += 100_000
            aimd.update(BandwidthUsage.NORMAL, 10_000_000.0, now_us=now)
        return aimd.target_bps / start

    assert ramp(pre_overuse=False) > ramp(pre_overuse=True)


def test_additive_increase_near_convergence():
    """After a decrease, growth near the capacity estimate is additive
    and slow — the paper's >30 s recovery (§6.2)."""
    aimd = AimdRateControl(initial_bps=3_000_000)
    now = 0
    aimd.update(BandwidthUsage.OVERUSE, 3_000_000.0, now_us=now)
    # Recover with acked bitrate pinned at the (reduced) rate.
    rate_after_1s = None
    for i in range(10):
        now += 100_000
        rate = aimd.update(BandwidthUsage.NORMAL, 2_550_000.0, now_us=now)
        if i == 9:
            rate_after_1s = rate
    # Growth in 1 s should be bounded by ~ the additive rate, not 8%.
    assert rate_after_1s < 0.85 * 3_000_000 + 2 * aimd.additive_bps_per_s


def test_rate_clamped_to_bounds():
    aimd = AimdRateControl(
        initial_bps=100_000, min_bps=50_000, max_bps=200_000
    )
    now = 0
    for _ in range(100):
        now += 100_000
        aimd.update(BandwidthUsage.NORMAL, 10_000_000.0, now_us=now)
    assert aimd.target_bps <= 200_000
    for _ in range(100):
        now += 100_000
        aimd.update(BandwidthUsage.OVERUSE, 10_000.0, now_us=now)
    assert aimd.target_bps >= 50_000


# -- Loss-based -----------------------------------------------------------------------


def test_high_loss_decreases():
    control = LossBasedControl(initial_bps=2_000_000)
    rate = control.update(loss_fraction=0.2, now_us=0)
    assert rate == pytest.approx(2_000_000 * 0.9, rel=0.01)


def test_low_loss_increases():
    control = LossBasedControl(initial_bps=1_000_000)
    control.update(0.0, now_us=0)
    rate = control.update(0.0, now_us=1_000_000)
    assert rate > 1_000_000


def test_moderate_loss_holds():
    control = LossBasedControl(initial_bps=1_000_000)
    control.update(0.05, now_us=0)
    rate = control.update(0.05, now_us=1_000_000)
    assert rate == pytest.approx(1_000_000, rel=0.001)


# -- Acked bitrate ----------------------------------------------------------------------


def test_ack_bitrate_measures_throughput():
    estimator = AckedBitrateEstimator(window_us=500_000)
    # 125 kB over 500 ms -> 2 Mbit/s.
    for i in range(100):
        estimator.on_acked(arrival_us=i * 5_000, size_bytes=1_250)
    rate = estimator.bitrate_bps()
    assert rate == pytest.approx(2_000_000, rel=0.1)


def test_ack_bitrate_needs_samples():
    estimator = AckedBitrateEstimator()
    assert estimator.bitrate_bps() is None
    estimator.on_acked(0, 1200)
    assert estimator.bitrate_bps() is None


def test_ack_bitrate_window_expires():
    estimator = AckedBitrateEstimator(window_us=500_000)
    estimator.on_acked(0, 1200)
    estimator.on_acked(10_000, 1200)
    assert estimator.bitrate_bps() is not None
    assert estimator.bitrate_bps(now_us=10_000_000) is None


def test_ack_bitrate_running_sum_matches_resum():
    """The running byte sum equals re-summing the window after every
    ack and every trim, over a random ack sequence."""
    rng = random.Random(7)
    estimator = AckedBitrateEstimator(window_us=200_000)
    now = 0
    for _ in range(3_000):
        now += rng.choice((0, 500, 3_000, 40_000, 400_000))
        # Feedback may report arrivals a little out of order.
        estimator.on_acked(
            now - rng.randrange(0, 20_000), rng.randint(60, 1_500)
        )
        query = now + rng.choice((0, 0, 150_000))
        rate = estimator.bitrate_bps(
            now_us=query if rng.random() < 0.5 else None
        )
        samples = estimator._samples
        if rate is None:
            assert len(samples) < 2
            continue
        span_us = max(samples[-1][0] - samples[0][0], estimator.window_us // 2)
        resummed = sum(size for _, size in samples) * 8.0 * 1e6 / span_us
        assert rate == resummed


# -- Pushback ---------------------------------------------------------------------------


def test_window_scales_with_rate_and_rtt():
    controller = PushbackController()
    small = controller.update_window(1_000_000, rtt_ms=50)
    large = controller.update_window(4_000_000, rtt_ms=200)
    assert large > small


def test_no_pushback_when_window_empty():
    controller = PushbackController()
    controller.update_window(2_000_000, rtt_ms=100)
    controller.set_outstanding(0)
    rate = controller.pushback_rate(2_000_000)
    assert rate == pytest.approx(2_000_000)
    assert not controller.window_full


def test_pushback_when_window_exceeded():
    controller = PushbackController()
    controller.update_window(2_000_000, rtt_ms=100)
    controller.set_outstanding(controller.window_bytes * 2)
    assert controller.window_full
    rates = [controller.pushback_rate(2_000_000) for _ in range(10)]
    assert rates[-1] < 2_000_000
    assert rates == sorted(rates, reverse=True)  # keeps backing off


def test_pushback_recovers_after_drain():
    controller = PushbackController()
    controller.update_window(2_000_000, rtt_ms=100)
    controller.set_outstanding(controller.window_bytes * 2)
    for _ in range(20):
        controller.pushback_rate(2_000_000)
    controller.set_outstanding(0)
    for _ in range(5):
        rate = controller.pushback_rate(2_000_000)
    assert rate == pytest.approx(2_000_000)


def test_pushback_rate_floor():
    controller = PushbackController(min_pushback_bps=30_000)
    controller.update_window(50_000, rtt_ms=100)
    controller.set_outstanding(10**9)
    for _ in range(200):
        rate = controller.pushback_rate(50_000)
    assert rate >= 30_000
