"""Fig. 8: WebRTC performance across the four 5G cells (16 panels).

Paper's qualitative findings this benchmark checks:
  (a-d)  UL one-way delay median exceeds DL on every cell (UL
         scheduling overhead);
  (e-h)  DL target bitrate exceeds UL except where the cell is hostile
         to DL (the loaded FDD cell) — and the Amarisoft UL bitrate is
         markedly low (poor UL channel + conservative MCS);
  (i-l)  DL streams achieve frame rates at least on par with UL;
  (m-p)  jitter-buffer delay medians sit in the low-hundreds of ms.
"""

from paper_tables import save_result

from repro.analysis.ascii import render_table
from repro.analysis.summarize import summarize_session


def test_fig8_cell_metrics(cell_results):
    summaries = {}
    for key, results in cell_results.items():
        summaries[key] = [summarize_session(r.bundle) for r in results]

    def mean(key, extractor):
        values = [extractor(s) for s in summaries[key]]
        return sum(values) / len(values)

    sections = []
    rows = [
        [
            key,
            mean(key, lambda s: s.ul_delay.median),
            mean(key, lambda s: s.dl_delay.median),
            mean(key, lambda s: s.ul_delay.percentile(99)),
            mean(key, lambda s: s.dl_delay.percentile(99)),
        ]
        for key in summaries
    ]
    sections.append(
        "One-way delay (ms) [Fig 8a-d]:\n"
        + render_table(["cell", "UL p50", "DL p50", "UL p99", "DL p99"], rows)
    )
    delay_rows = {row[0]: row for row in rows}

    rows = [
        [
            key,
            mean(key, lambda s: s.ul_target_bitrate.median) / 1e6,
            mean(key, lambda s: s.dl_target_bitrate.median) / 1e6,
        ]
        for key in summaries
    ]
    sections.append(
        "\nTarget bitrate (Mbps) [Fig 8e-h]:\n"
        + render_table(["cell", "UL p50", "DL p50"], rows)
    )
    bitrate_rows = {row[0]: row for row in rows}

    rows = [
        [
            key,
            mean(key, lambda s: s.ul_fps.median),
            mean(key, lambda s: s.dl_fps.median),
        ]
        for key in summaries
    ]
    sections.append(
        "\nReceiver frame rate (fps) [Fig 8i-l]:\n"
        + render_table(["cell", "UL p50", "DL p50"], rows)
    )
    fps_rows = {row[0]: row for row in rows}

    rows = [
        [
            key,
            mean(key, lambda s: s.ul_video_jb.median),
            mean(key, lambda s: s.dl_video_jb.median),
            mean(key, lambda s: s.ul_audio_jb.median),
            mean(key, lambda s: s.dl_audio_jb.median),
        ]
        for key in summaries
    ]
    sections.append(
        "\nJitter-buffer delay (ms) [Fig 8m-p]:\n"
        + render_table(
            ["cell", "UL video", "DL video", "UL audio", "DL audio"], rows
        )
    )
    save_result("fig8_cell_metrics", "\n".join(sections))

    # (a-d) UL delay median > DL on every cell.
    for key, row in delay_rows.items():
        assert row[1] > row[2], f"{key}: UL median must exceed DL"
    # (g) Amarisoft UL bitrate markedly below its DL.
    amarisoft = bitrate_rows["amarisoft"]
    assert amarisoft[1] < 0.75 * amarisoft[2]
    # (e,h) Clean cells: DL target bitrate >= UL.
    for key in ("tmobile_tdd", "mosolabs"):
        assert bitrate_rows[key][2] >= 0.9 * bitrate_rows[key][1]
    # (i-l) DL frame rate at least on par with UL.
    for key, row in fps_rows.items():
        assert row[2] >= row[1] - 3.0, f"{key}: DL fps should not trail UL"
