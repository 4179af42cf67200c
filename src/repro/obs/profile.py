"""Continuous profiling: a zero-dependency sampling wall-clock profiler.

A perf change needs to know *where* the time goes before it optimizes
anything.  This module samples call stacks at a fixed wall-clock
interval and aggregates them into collapsed-stack lines — the
flamegraph interchange format (``frame;frame;frame count``) consumed
directly by ``flamegraph.pl`` and speedscope — with no third-party
dependency and no tracing hooks (``sys.setprofile`` would distort the
hot paths it measures).

Two sampling engines, selected automatically:

* **signal** — ``setitimer(ITIMER_REAL)`` + ``SIGALRM``; the handler
  receives the interrupted frame for free.  Lowest overhead, but only
  the main thread of the main interpreter can install it.
* **thread** — a daemon sweeper thread snapshots every thread's stack
  via ``sys._current_frames()`` each interval.  Works anywhere
  (asyncio services, non-main threads) and sees all threads.

Frames are labelled ``module:function`` so collapsed output reads as
``repro.telemetry.timeline:from_bundle;...``.  Overhead at the default
5 ms interval is gated at 5% plus 5 ms of one 60 s analyze
(``overhead_60s`` in the scaling benchmark, checked by
``benchmarks/check_perf.py``).
"""

from __future__ import annotations

import signal
import sys
import threading
import time
from typing import Dict, Iterable, List, Optional, Tuple

#: Deepest stack recorded per sample; frames below are dropped (the
#: root end is kept, matching what a flamegraph can usefully show).
MAX_DEPTH = 128


def _label(frame) -> str:
    """``module:function`` for one frame (cheap, allocation-light)."""
    return (
        f"{frame.f_globals.get('__name__', '?')}:"
        f"{frame.f_code.co_name}"
    )


def _walk(frame) -> Tuple[str, ...]:
    """The frame's stack as a root-first label tuple."""
    labels: List[str] = []
    while frame is not None and len(labels) < MAX_DEPTH:
        labels.append(_label(frame))
        frame = frame.f_back
    labels.reverse()
    return tuple(labels)


class SamplingProfiler:
    """Sample call stacks on a wall-clock interval; aggregate counts.

    Use as a context manager::

        with SamplingProfiler(interval_s=0.005) as prof:
            run_workload()
        open("out.collapsed", "w").write(prof.collapsed())

    *mode* is ``"signal"``, ``"thread"``, or ``"auto"`` (signal when
    running on the main thread, sweeper thread otherwise).  Samples
    accumulate in :attr:`samples` as ``{stack_tuple: count}``; a
    profiler can be started and stopped repeatedly and keeps
    accumulating.
    """

    def __init__(
        self, interval_s: float = 0.005, mode: str = "auto"
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if mode not in ("auto", "signal", "thread"):
            raise ValueError(
                f"mode must be auto|signal|thread, got {mode!r}"
            )
        self.interval_s = float(interval_s)
        self.mode = mode
        self.samples: Dict[Tuple[str, ...], int] = {}
        self.n_samples = 0
        self.wall_s = 0.0
        self._engine: Optional[str] = None
        self._t0 = 0.0
        self._previous_handler = None
        self._sweeper: Optional[threading.Thread] = None
        self._stop_event = threading.Event()

    # -- engine selection --------------------------------------------------

    def _pick_engine(self) -> str:
        if self.mode != "auto":
            return self.mode
        on_main = (
            threading.current_thread() is threading.main_thread()
        )
        return "signal" if on_main and hasattr(signal, "setitimer") else (
            "thread"
        )

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "SamplingProfiler":
        if self._engine is not None:
            raise RuntimeError("profiler already running")
        engine = self._pick_engine()
        self._t0 = time.perf_counter()
        if engine == "signal":
            try:
                self._previous_handler = signal.signal(
                    signal.SIGALRM, self._on_signal
                )
                signal.setitimer(
                    signal.ITIMER_REAL, self.interval_s, self.interval_s
                )
            except (ValueError, OSError, AttributeError):
                # Not the main thread after all (or platform without
                # timers) — fall back to the sweeper.
                self._previous_handler = None
                engine = "thread"
        if engine == "thread":
            self._stop_event.clear()
            self._sweeper = threading.Thread(
                target=self._sweep, name="repro-profiler", daemon=True
            )
            self._sweeper.start()
        self._engine = engine
        return self

    def stop(self) -> "SamplingProfiler":
        if self._engine is None:
            return self
        self.wall_s += time.perf_counter() - self._t0
        if self._engine == "signal":
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            if self._previous_handler is not None:
                signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None
        else:
            self._stop_event.set()
            if self._sweeper is not None:
                self._sweeper.join(timeout=2.0)
            self._sweeper = None
        self._engine = None
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- sampling engines --------------------------------------------------

    def _record(self, stack: Tuple[str, ...]) -> None:
        if not stack:
            return
        self.samples[stack] = self.samples.get(stack, 0) + 1
        self.n_samples += 1

    def _on_signal(self, signum, frame) -> None:
        self._record(_walk(frame))

    def _sweep(self) -> None:
        own_id = threading.get_ident()
        while not self._stop_event.wait(self.interval_s):
            for thread_id, frame in sys._current_frames().items():
                if thread_id == own_id:
                    continue
                self._record(_walk(frame))

    # -- output ------------------------------------------------------------

    def collapsed(self) -> str:
        """Collapsed-stack text: one ``a;b;c count`` line per stack.

        Feed straight to ``flamegraph.pl`` or import into speedscope.
        Lines are sorted for deterministic output.
        """
        return "\n".join(
            f"{';'.join(stack)} {count}"
            for stack, count in sorted(self.samples.items())
        )

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            text = self.collapsed()
            handle.write(text + ("\n" if text else ""))

    def self_times(self) -> List[Tuple[str, int]]:
        """Per-frame *self* sample counts (leaf attribution), sorted
        descending — the flamegraph's widest tips."""
        leaves: Dict[str, int] = {}
        for stack, count in self.samples.items():
            leaf = stack[-1]
            leaves[leaf] = leaves.get(leaf, 0) + count
        return sorted(leaves.items(), key=lambda kv: (-kv[1], kv[0]))

    def top_fraction(self, k: int = 10) -> float:
        """Fraction of all samples owned by the top-*k* self frames."""
        if self.n_samples == 0:
            return 0.0
        top = self.self_times()[: max(0, int(k))]
        return sum(count for _, count in top) / float(self.n_samples)

    def attribute(
        self, markers: Dict[str, Iterable[str]]
    ) -> Dict[str, float]:
        """Fraction of samples per named phase.

        *markers* maps a phase name to frame-label substrings (e.g.
        ``{"ingest": ("timeline:from_bundle",)}``).  Each sample is
        attributed to the phase of the *innermost* matching frame;
        unmatched samples land in ``"other"``.  Fractions sum to 1.0
        when any samples exist.
        """
        counts: Dict[str, int] = {phase: 0 for phase in markers}
        counts["other"] = 0
        for stack, count in self.samples.items():
            matched = "other"
            for frame_label in reversed(stack):
                hit = next(
                    (
                        phase
                        for phase, subs in markers.items()
                        if any(sub in frame_label for sub in subs)
                    ),
                    None,
                )
                if hit is not None:
                    matched = hit
                    break
            counts[matched] += count
        total = float(self.n_samples) or 1.0
        return {phase: n / total for phase, n in counts.items()}


class profile_to_file:
    """``with profile_to_file(path):`` — the CLI ``--profile`` engine.

    A no-op when *path* is falsy, so command handlers can wrap their
    whole body unconditionally.  On exit the collapsed-stack output is
    written to *path* and a one-line summary is printed to stderr.
    """

    def __init__(
        self,
        path: Optional[str],
        *,
        interval_s: float = 0.005,
        mode: str = "auto",
        quiet: bool = False,
    ) -> None:
        self.path = path
        self.quiet = quiet
        self.profiler = (
            SamplingProfiler(interval_s=interval_s, mode=mode)
            if path
            else None
        )

    def __enter__(self) -> Optional[SamplingProfiler]:
        if self.profiler is not None:
            self.profiler.start()
        return self.profiler

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.profiler is None:
            return
        self.profiler.stop()
        self.profiler.write(self.path)
        if not self.quiet:
            print(
                f"profile: {self.profiler.n_samples} samples over "
                f"{self.profiler.wall_s:.1f}s -> {self.path} "
                f"(collapsed-stack; render with flamegraph.pl or "
                f"speedscope)",
                file=sys.stderr,
            )


__all__ = [
    "MAX_DEPTH",
    "SamplingProfiler",
    "profile_to_file",
]
