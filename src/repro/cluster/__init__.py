"""Multi-host distributed RCA: socket dispatch, central aggregation.

The fleet executor scales to one machine's cores and the live service
to one process's event loop; this package is the layer above both — an
asyncio TCP coordinator/worker subsystem speaking a small
length-prefixed JSON frame protocol:

* :mod:`repro.cluster.protocol` — the frame codec (HELLO / HEARTBEAT /
  DISPATCH / OUTCOME / DETECTION / SNAPSHOT / SUBMIT / STATUS / CANCEL
  / FETCH / ACK / BYE, versioned), the JSON codecs for the dataclasses
  that cross the wire, and the TLS/auth-token helpers that let the
  listener face a real network.
* :mod:`repro.cluster.journal` — the write-ahead campaign journal
  (:class:`CampaignJournal`): append-only, fsync'd, schema-versioned
  records a restarted coordinator replays to resume interrupted
  campaigns from their settled outcomes.
* :mod:`repro.cluster.coordinator` — :class:`ClusterCoordinator`, one
  listener serving a fair multi-campaign dispatch queue (keyed by
  campaign id, round-robin across active campaigns, heartbeat liveness
  and crash requeue), a live plane folding remote supervisors'
  detections into a central aggregator, and a control plane for
  queueing/inspecting/cancelling campaigns remotely.
* :mod:`repro.cluster.worker` — :class:`ClusterWorker`, running each
  dispatched scenario on the same process-pool executor local
  campaigns use, answering with OUTCOME frames, reconnecting with
  jittered exponential backoff across coordinator outages, and
  draining in-flight work on SIGTERM before saying BYE.
* :mod:`repro.cluster.client` — :class:`DetectionForwarder` (plug a
  local live service's detections into a remote coordinator),
  :func:`iter_snapshots` (subscribe to the coordinator's fleet
  snapshots), and :class:`CoordinatorControl` (the queue/status/cancel
  control-plane client behind ``repro cluster queue|status|cancel``).

Exposed as ``repro.api.campaign(..., backend=ClusterBackend(...))``
for API-compatible campaigns (byte-identical to local execution), on
the CLI as ``repro fleet --dispatch cluster`` for one-shot campaigns,
and as ``repro cluster coordinator`` (standing server) /
``repro cluster worker``.

This ``__init__`` resolves its exports lazily (PEP 562):
``repro.schema`` registers the journal-record codec by importing
:mod:`repro.cluster.journal`, and an eager package import here would
pull the coordinator (which imports ``repro.schema`` right back) into
that half-initialized import.
"""

import importlib
from typing import List

_SUBMODULES = frozenset(
    ("client", "coordinator", "journal", "protocol", "worker")
)

#: export name → defining submodule.
_EXPORTS = {
    "CampaignJournal": "repro.cluster.journal",
    "ClusterCoordinator": "repro.cluster.coordinator",
    "ClusterWorker": "repro.cluster.worker",
    "CoordinatorControl": "repro.cluster.client",
    "DetectionForwarder": "repro.cluster.client",
    "FRAME_TYPES": "repro.cluster.protocol",
    "Frame": "repro.cluster.protocol",
    "JournalRecord": "repro.cluster.journal",
    "MAX_FRAME_BYTES": "repro.cluster.protocol",
    "PROTOCOL_VERSION": "repro.cluster.protocol",
    "ReplayedCampaign": "repro.cluster.journal",
    "campaign_id_for": "repro.cluster.journal",
    "decode_frame": "repro.cluster.protocol",
    "encode_frame": "repro.cluster.protocol",
    "iter_snapshots": "repro.cluster.client",
    "read_frame": "repro.cluster.protocol",
    "replay_journal": "repro.cluster.journal",
    "send_frame": "repro.cluster.protocol",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"repro.cluster.{name}")
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module 'repro.cluster' has no attribute {name!r}"
        )
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
