"""Simulator byte-identity goldens.

Each digest is the sha256 of ``dump_lines`` over a 6 s scenario's
bundle.  They were recorded on the fixed-tick simulator (every client
stepped on every access tick), so they pin the next-event clock to it:
any change to what the simulator emits, down to one microsecond of one
playout time, changes a digest.  Never re-record them to make a change
pass; a mismatch means the simulation changed.
"""

from __future__ import annotations

import hashlib
import itertools

import pytest

from repro.causal.confounders import ConfounderSpec
from repro.fleet.scenarios import ImpairmentSpec, ScenarioSpec
from repro.obs.metrics import Counter, get_registry
from repro.rtc.client import WebRtcClient
from repro.rtc.jitter_buffer import VideoJitterBuffer
from repro.telemetry.io import dump_lines

DURATION_S = 6.0
DURATION_US = int(DURATION_S * 1e6)

_DL_BURST = ImpairmentSpec(name="dl_burst", dl_bursts=((2.0, 1.5, 180),))
_UL_FADE = ImpairmentSpec(name="ul_fade", ul_fades=((2.0, 1.2, 20.0),))
_RRC_RELEASE = ImpairmentSpec(name="rrc_release", rrc_releases_s=(2.0, 4.0))
_REACTIVE = (ConfounderSpec(axis="reactive_control"),)

#: name -> (profile, impairment, confounders, seed, sha256 of dump_lines).
GOLDENS = {
    "wired": (
        "wired", ImpairmentSpec(), (), 3,
        "44011fd000ba360cea8ec140d2e35b5ab7cc84a849d6ff398a8af679a47432b4",
    ),
    "wifi": (
        "wifi", ImpairmentSpec(), (), 4,
        "e470afdf2c8d5964e2aa89f8e2ddd398ac68a3fb8186bc277c20dc2c893816e9",
    ),
    "tmobile_fdd_dl_burst": (
        "tmobile_fdd", _DL_BURST, (), 5,
        "80b14a028611278eb96b7e7acf37fc6dc87e9299c949c3267d0026889f386b9a",
    ),
    "tmobile_tdd": (
        "tmobile_tdd", ImpairmentSpec(), (), 6,
        "554e52b7990ec3a4e463beb4e5140a29b911b1478a8e630f813ca2ec3e95a7bd",
    ),
    "amarisoft_ul_fade_reactive": (
        "amarisoft", _UL_FADE, _REACTIVE, 7,
        "0fe2f1ad7bd522fa818ef18c13001de182a35d2cd931484366f848a6f12f43be",
    ),
    "mosolabs_rrc_release": (
        "mosolabs", _RRC_RELEASE, (), 8,
        "7e1ef33996f655d64427bf0c735b44ddea9eb15359e2e3dc307b426b7217a1c9",
    ),
}


def _spec(name: str) -> ScenarioSpec:
    profile, impairment, confounders, seed, _ = GOLDENS[name]
    return ScenarioSpec(
        name=f"golden/{name}",
        profile=profile,
        seed=seed,
        duration_s=DURATION_S,
        impairment=impairment,
        confounders=confounders,
    )


def _digest(bundle) -> str:
    sha = hashlib.sha256()
    for line in dump_lines(bundle):
        sha.update(line.encode())
        sha.update(b"\n")
    return sha.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_simulator_golden(name):
    bundle = _spec(name).build_session().run(DURATION_US).bundle
    assert _digest(bundle) == GOLDENS[name][4]


def _client_state(client):
    video = client.receiver.video
    return (
        video.target_delay_ms,
        client.receiver.audio.target_delay_ms,
        client.pacer._budget_bytes,
        video.freeze_count,
        video.total_freeze_us,
    )


#: End-of-run (video target, audio target, pacer budget, freeze count,
#: freeze total) of the reactive Amarisoft golden's clients A and B,
#: recorded on the fixed-tick simulator like the digests.
END_STATE = (
    (92.5, 44.27760547665063, 3463.8524999999995, 0, 0),
    (983.6210000001913, 491.93149999988503, 18636.15543022027, 2, 949549),
)


def test_uneven_batches_match_one_run():
    """advance_to in batches of one tick, 37 ms and 1 s, cycled, gives
    the bundle and the end-of-run client state of one run(), and both
    match the fixed-tick simulator's."""
    name = "amarisoft_ul_fade_reactive"
    whole = _spec(name).build_session().run(DURATION_US)
    session = _spec(name).build_session()
    batches = itertools.cycle((session.step_us, 37_000, 1_000_000))
    now = 0
    while now < DURATION_US:
        now = session.advance_to(min(now + next(batches), DURATION_US))
    bundle = session.collector.bundle(DURATION_US)
    assert _digest(bundle) == _digest(whole.bundle) == GOLDENS[name][4]
    for batched, once, fixed_tick in zip(
        (session.client_a, session.client_b),
        (whole.client_a, whole.client_b),
        END_STATE,
    ):
        assert _client_state(batched) == _client_state(once) == fixed_tick


# -- next-event edge cases: a buffer stepped on every tick vs one stepped
# only on arrivals and at next_due_us(), idle-ticking the rest --------------

TICK_US = 1_000


class _Stepped:
    """A video buffer and the (tick, frame_id) of every frame its steps
    returned: the tick a frame leaves the buffer on is when the client
    sees it, e.g. in its next stats row."""

    def __init__(self, setup):
        self.buffer = VideoJitterBuffer()
        setup(self.buffer)
        self.log = []

    def step(self, now, packets):
        for frame_id, capture_us in packets:
            self.buffer.on_packet(frame_id, capture_us, 1, 540, now)
        self.log += [(now, f.frame_id) for f in self.buffer.step(now)]


def _lockstep(arrivals, end_us, setup=lambda buffer: None):
    """Return (fixed, lazy, lazy_steps) over ticks up to *end_us*;
    *arrivals* maps a tick to its (frame_id, capture_us) packets."""
    fixed, lazy = _Stepped(setup), _Stepped(setup)
    last = due = 0
    steps = 0
    for now in range(TICK_US, end_us + 1, TICK_US):
        packets = arrivals.get(now, ())
        fixed.step(now, packets)
        if packets or now >= due:
            lazy.buffer.idle_ticks((now - last) // TICK_US - 1, TICK_US)
            lazy.step(now, packets)
            last, due = now, lazy.buffer.next_due_us()
            steps += 1
    lazy.buffer.idle_ticks((end_us - last) // TICK_US, TICK_US)
    return fixed, lazy, steps


def _assert_same(fixed_stepped, lazy_stepped):
    assert lazy_stepped.log == fixed_stepped.log
    fixed, lazy = fixed_stepped.buffer, lazy_stepped.buffer
    assert lazy.played == fixed.played
    assert lazy.target_delay_ms == fixed.target_delay_ms
    assert lazy.freeze_count == fixed.freeze_count
    assert lazy.total_freeze_us == fixed.total_freeze_us
    assert lazy.is_frozen(10**9) == fixed.is_frozen(10**9)


def test_frame_due_while_target_below_floor():
    """The floor rose with jitter above the target, so the target does
    not decay, and the frame plays at capture + target: a playout bound
    taken from the floor would wake 150 ms late."""

    def high_jitter(buffer):
        buffer._jitter_ms = 30.0  # floor 70 + 5 * 30 = 220 ms

    arrivals = {10_000: [(0, 0)]}
    fixed, lazy, steps = _lockstep(arrivals, 800_000, high_jitter)
    assert fixed.buffer.target_delay_ms < fixed.buffer.minimum_delay_ms()
    assert fixed.log[0] == (70_000, 0)
    _assert_same(fixed, lazy)
    assert steps < 10


def test_freeze_onset_on_idle_tick():
    """Frames stop for 600 ms: the freeze starts on an idle tick 150 ms
    after the last playout, and the resumed frame plays on the tick its
    packet arrives, so the lazy buffer must wake for the onset itself."""
    arrivals = {10_000 + 33_000 * i: [(i, 33_000 * i)] for i in range(5)}
    arrivals.update(
        {800_000 + 33_000 * i: [(i, 33_000 * i)] for i in range(5, 10)}
    )
    fixed, lazy, steps = _lockstep(arrivals, 1_200_000)
    assert fixed.buffer.freeze_count == 1
    assert fixed.buffer.total_freeze_us > 0
    _assert_same(fixed, lazy)
    assert steps < 60


def test_sim_counters_once_per_advance(monkeypatch):
    """The simulator counters count ticks, client steps and RAN slots,
    and are touched once per advance_to call, never per tick."""
    registry = get_registry()
    names = (
        "repro_sim_ticks_total",
        "repro_sim_client_steps_total",
        "repro_sim_slots_total",
    )

    def total(name):
        metric = registry.get(name)
        return metric.total() if metric is not None else 0.0

    session = _spec("tmobile_tdd").build_session()
    before = [total(name) for name in names]
    steps = []
    step = WebRtcClient.step
    monkeypatch.setattr(
        WebRtcClient,
        "step",
        lambda client, *args: steps.append(1) or step(client, *args),
    )
    incs = []
    inc = Counter.inc
    monkeypatch.setattr(
        Counter, "inc", lambda counter, *a, **k: incs.append(1) or inc(counter, *a, **k)
    )
    session.advance_to(500_000)
    session.advance_to(1_000_000)
    ticks = 1_000_000 // session.step_us
    after = [total(name) for name in names]
    assert [b - a for a, b in zip(before, after)] == [ticks, len(steps), ticks]
    assert len(steps) < ticks
    assert len(incs) == 2 * len(names)
