"""Session builders: assemble clients, access networks, and cells.

These are the entry points benchmarks and examples use: build a
two-party call over a calibrated cell profile (or a wired/Wi-Fi
baseline), run it, and get back the telemetry bundle Domino analyses.
"""

from __future__ import annotations

from typing import Optional

from repro.datasets.cells import CellProfile
from repro.mac.crosstraffic import CrossTrafficUe
from repro.net.link import (
    CellularAccess,
    DelayModel,
    InternetSegment,
    WiredAccess,
    wifi_delay_model,
    wired_delay_model,
)
from repro.ran.simulator import RanSimulator
from repro.rtc.client import ClientConfig
from repro.rtc.session import SessionResult, TwoPartySession
from repro.telemetry.collect import TelemetryCollector
from repro.units import ms


def _client_configs(seed: int, pushback_enabled: bool = True):
    """Default client pair: cellular sender A, wired sender B.

    B carries a one-rung resolution bias so the DL stream operates at the
    lower rungs the paper reports in Table 3 (see encoder docstring).
    """
    client_a = ClientConfig(
        name="cellular",
        seed=seed + 1,
        pushback_enabled=pushback_enabled,
    )
    client_b = ClientConfig(
        name="wired",
        seed=seed + 2,
        resolution_bias=1,
        pushback_enabled=pushback_enabled,
    )
    return client_a, client_b


def make_cellular_session(
    profile: CellProfile,
    seed: int = 0,
    keep_tb_map: bool = False,
    scripted_rrc_releases_us=None,
    ul_fade_events=None,
    dl_cross_bursts=None,
    pushback_enabled: bool = True,
    collector: Optional[TelemetryCollector] = None,
) -> TwoPartySession:
    """Build a 5G↔wired call over *profile* (the Fig. 7 topology).

    Args:
        profile: calibrated cell profile.
        seed: master seed; all stochastic components derive from it.
        keep_tb_map: retain TB→packet mappings (Fig. 14).
        scripted_rrc_releases_us: force RRC releases at these times.
        ul_fade_events: extra scripted deep fades on the UL channel
            (:class:`repro.phy.channel.FadeEvent` list, Fig. 12).
        dl_cross_bursts: scripted (start_us, duration_us, prbs) bursts
            added as one extra DL cross UE (Fig. 13).
        pushback_enabled: GCC pushback controller on/off (ablation).
        collector: custom telemetry sink.
    """
    client_a, client_b = _client_configs(seed, pushback_enabled)
    collector = collector or TelemetryCollector(
        profile.name,
        cellular_client=client_a.name,
        wired_client=client_b.name,
        gnb_log_available=profile.cell.gnb_log_available,
    )
    ul_channel = profile.ul_channel.build(seed + 31)
    if ul_fade_events:
        ul_channel.fade_events.extend(ul_fade_events)
    dl_channel = profile.dl_channel.build(seed + 37)
    ul_cross = profile.ul_cross.build(seed + 41, first_rnti=41_000)
    dl_cross = profile.dl_cross.build(seed + 43, first_rnti=45_000)
    if dl_cross_bursts:
        dl_cross.add_ue(
            CrossTrafficUe(
                rnti=49_999,
                mean_on_ms=0.0,  # purely scripted
                mean_prb_demand=0.0,
                scripted_bursts=list(dl_cross_bursts),
                seed=seed + 47,
            )
        )
    ran = RanSimulator(
        cell=profile.cell,
        ul_channel=ul_channel,
        dl_channel=dl_channel,
        ul_cross=ul_cross,
        dl_cross=dl_cross,
        collector=collector,
        seed=seed,
        keep_tb_map=keep_tb_map,
        scripted_rrc_releases_us=scripted_rrc_releases_us,
    )
    internet_delay = ms(profile.internet_base_delay_ms)
    return TwoPartySession(
        name=profile.name,
        access_a=CellularAccess(ran),
        access_b=WiredAccess(
            up=wired_delay_model(seed + 51),
            down=wired_delay_model(seed + 53),
        ),
        client_a=client_a,
        client_b=client_b,
        internet_ab=InternetSegment(
            DelayModel(base_us=internet_delay, jitter_us=ms(1), seed=seed + 55)
        ),
        internet_ba=InternetSegment(
            DelayModel(base_us=internet_delay, jitter_us=ms(1), seed=seed + 57)
        ),
        collector=collector,
        gnb_log_available=profile.cell.gnb_log_available,
    )


def make_wired_session(
    seed: int = 0,
    wifi: bool = False,
    pushback_enabled: bool = True,
) -> TwoPartySession:
    """Build the wired↔wired (or Wi-Fi↔wired) baseline session (§2.1)."""
    client_a, client_b = _client_configs(seed, pushback_enabled)
    if wifi:
        access_a = WiredAccess(
            up=wifi_delay_model(seed + 61), down=wifi_delay_model(seed + 63)
        )
    else:
        access_a = WiredAccess(
            up=wired_delay_model(seed + 61), down=wired_delay_model(seed + 63)
        )
    return TwoPartySession(
        name="wifi-baseline" if wifi else "wired-baseline",
        access_a=access_a,
        access_b=WiredAccess(
            up=wired_delay_model(seed + 65), down=wired_delay_model(seed + 67)
        ),
        client_a=client_a,
        client_b=client_b,
        internet_ab=InternetSegment(
            DelayModel(base_us=ms(8), jitter_us=ms(1), seed=seed + 69)
        ),
        internet_ba=InternetSegment(
            DelayModel(base_us=ms(8), jitter_us=ms(1), seed=seed + 71)
        ),
    )


def run_cellular_session(
    profile: CellProfile, duration_s: float = 60.0, seed: int = 0, **kwargs
) -> SessionResult:
    """Build and run a cellular session; returns its telemetry."""
    session = make_cellular_session(profile, seed=seed, **kwargs)
    return session.run(int(duration_s * 1e6))


def run_wired_session(
    duration_s: float = 60.0, seed: int = 0, wifi: bool = False
) -> SessionResult:
    """Build and run a wired/Wi-Fi baseline session."""
    session = make_wired_session(seed=seed, wifi=wifi)
    return session.run(int(duration_s * 1e6))
