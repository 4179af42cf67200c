"""Exception hierarchy for the repro package.

All package-specific failures derive from :class:`ReproError` so callers can
catch everything from this library with a single ``except`` clause while
still distinguishing configuration mistakes from runtime protocol errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError, ValueError):
    """A configuration object is inconsistent or out of range.

    Also a :class:`ValueError`: the facade unified argument validation
    onto this class, and callers that predate :mod:`repro.api` caught
    ``ValueError`` — both catch styles keep working.
    """


class DslError(ReproError):
    """The causal-chain text DSL could not be parsed."""


class DslSyntaxError(DslError):
    """A line in the DSL input is syntactically malformed."""

    def __init__(self, line_number: int, line: str, reason: str) -> None:
        self.line_number = line_number
        self.line = line
        self.reason = reason
        super().__init__(f"line {line_number}: {reason}: {line!r}")


class UnknownEventError(DslError):
    """A DSL node name does not map to any known feature/event."""

    def __init__(self, name: str, known: "list[str]") -> None:
        self.name = name
        self.known = list(known)
        super().__init__(
            f"unknown event {name!r}; known events include "
            f"{', '.join(sorted(self.known)[:8])}..."
        )


class GraphError(ReproError):
    """The causal graph is structurally invalid (e.g. contains a cycle)."""


class TelemetryError(ReproError):
    """Telemetry records are malformed or cannot be aligned."""


class SchemaError(ReproError):
    """A wire object does not match the canonical :mod:`repro.schema`."""


class SchemaVersionError(SchemaError, TelemetryError):
    """An artifact or frame was written under a different schema version.

    Also a :class:`TelemetryError` because versioned artifacts (fleet
    outcome JSONL, snapshot files) historically raised that; one base
    class keeps pre-facade ``except`` clauses working.
    """

    def __init__(self, found: object, supported: int, where: str) -> None:
        self.found = found
        self.supported = supported
        self.where = where
        super().__init__(
            f"{where}: schema version {found!r} vs {supported} supported "
            f"by this release — re-export the artifact with a matching "
            f"version, or upgrade this side"
        )


class ClusterError(ReproError):
    """A distributed-cluster operation failed (dispatch, campaign, peer)."""


class ClusterProtocolError(ClusterError):
    """A cluster peer sent a malformed, oversized, or unexpected frame."""
