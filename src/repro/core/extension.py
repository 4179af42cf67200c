"""User extensibility: custom events and chains on top of Domino.

§4.2 frames extensibility as a key design principle: "network designers
[can] readily incorporate other data features ... and implement
detection for novel causal chains simply by providing new text-based
definitions".  :class:`ExtensibleDomino` is that surface:

* :meth:`register_event` adds a detector for a new feature (any callable
  over the resampled window series, e.g. a new NR-Scope metric);
* :meth:`add_chains` appends DSL text that may reference both built-in
  and custom features;
* :meth:`build` returns a ready :class:`~repro.core.detector.DominoDetector`
  operating over the extended vocabulary.

Example::

    domino = ExtensibleDomino()
    domino.register_event(
        "ul_many_small_tbs",
        lambda window, config: float((window["ul_exp_prbs"] > 0).sum()) > 50,
    )
    domino.add_chains(
        "ul_many_small_tbs --> ul_delay_up --> remote_jitter_buffer_drain"
    )
    report = domino.build().analyze(bundle)
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.chains import DEFAULT_CHAINS_TEXT
from repro.core.detector import DetectorConfig, DominoDetector
from repro.core.dsl import parse_chains
from repro.core.features import FEATURE_NAMES
from repro.errors import DslError

DetectorFn = Callable[..., bool]


class ExtensibleDomino:
    """Builder for a Domino instance with custom events and chains."""

    def __init__(
        self,
        config: Optional[DetectorConfig] = None,
        include_default_chains: bool = True,
    ) -> None:
        self.config = config or DetectorConfig()
        self._events: Dict[str, DetectorFn] = {}
        self._chain_texts: List[str] = (
            [DEFAULT_CHAINS_TEXT] if include_default_chains else []
        )

    # -- registration -----------------------------------------------------------

    def register_event(self, name: str, detector: DetectorFn) -> "ExtensibleDomino":
        """Add a custom event detector.

        Args:
            name: lowercase identifier usable in DSL chains.
            detector: callable(window_series, event_config) → bool.
        """
        if name in FEATURE_NAMES:
            raise DslError(f"{name!r} is a built-in feature name")
        if not name.islower() or not name.replace("_", "a").isalnum():
            raise DslError(
                f"invalid event name {name!r}: lowercase identifiers only"
            )
        self._events[name] = detector
        return self

    def add_chains(self, text: str) -> "ExtensibleDomino":
        """Append chain definitions (DSL text)."""
        # Validate eagerly so errors point at the caller.
        parse_chains(text, known_events=self.known_events())
        self._chain_texts.append(text)
        return self

    def known_events(self) -> Tuple[str, ...]:
        return FEATURE_NAMES + tuple(sorted(self._events))

    # -- building ------------------------------------------------------------------

    def build(self) -> DominoDetector:
        """Construct the detector over the extended vocabulary.

        Its ``config.chains_text`` is every added chain text, one after
        the other.
        """
        config = dataclasses.replace(
            self.config, chains_text="\n".join(self._chain_texts)
        )
        return DominoDetector(config, extra_detectors=dict(self._events))
