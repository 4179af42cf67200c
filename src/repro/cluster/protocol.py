"""Wire protocol of the cluster: length-prefixed JSON frames.

Every message between a :class:`~repro.cluster.coordinator.ClusterCoordinator`
and its peers is one *frame*: a 4-byte big-endian payload length followed
by a UTF-8 JSON object ``{"type": <frame type>, "payload": {...}}``.
JSON keeps the protocol debuggable with ``nc``/``tcpdump`` and — because
Python's ``json`` round-trips floats through ``repr`` — preserves every
float bit-exactly, which is what lets a cluster campaign stay
byte-identical to local execution.

Frame types (see the coordinator/worker/client modules for sequencing):

* ``HELLO`` — handshake, first frame in both directions.  Carries the
  protocol version and the peer's role (``worker`` / ``live`` /
  ``watch``); a version mismatch is answered with ``BYE`` and a close.
* ``HEARTBEAT`` — keepalive; any frame refreshes a peer's liveness, a
  heartbeat is just the cheapest one.
* ``DISPATCH`` — coordinator → worker: one scenario to run (spec,
  detector config, scenario index, optional trace/cache dirs).
* ``OUTCOME`` — worker → coordinator: the scenario's
  :class:`~repro.fleet.executor.SessionOutcome` (or an error string).
* ``DETECTION`` — live supervisor → coordinator: one batch of completed
  window detections ``(session_id, detections, chains, watermark_us)``.
* ``SNAPSHOT`` — coordinator → watch clients: a periodic
  :class:`~repro.live.aggregator.FleetSnapshot` rollup.
* ``SUBMIT`` / ``STATUS`` / ``CANCEL`` / ``FETCH`` — control plane
  (role ``control``): queue a campaign, inspect the queue, cancel a
  campaign, fetch a finished campaign's outcomes.  Each carries a
  client-chosen ``req`` id.
* ``ACK`` — coordinator → control client: the one reply to a control
  request, echoing its ``req`` id with ``{"ok": ...}``.
* ``BYE`` — graceful close (with a reason), either direction.

A coordinator started with an auth token requires every HELLO to carry
a matching ``token`` field (checked in constant time via
:func:`auth_ok`); with a TLS context (:func:`server_ssl_context` /
:func:`client_ssl_context`) the whole link is encrypted.

The dataclass payloads that cross the wire (scenario specs, detector
configs, window detections, outcomes) are encoded by the peers straight
through the canonical :mod:`repro.schema` registry — the same serde the
fleet JSONL and live snapshots use, so no peer can drift apart on
serialization details.

Every peer reaches a coordinator through :func:`dial` (handshake plus
keepalive adoption) and paces its redials with :class:`Backoff`.
"""

from __future__ import annotations

import asyncio
import hmac
import json
import math
import random
import ssl
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro import schema
from repro.errors import ClusterError, ClusterProtocolError
from repro.obs.logs import get_logger
from repro.obs.metrics import get_registry

logger = get_logger(__name__)

#: Bump on any incompatible frame/payload change.  Peers exchange it in
#: HELLO and refuse to talk across versions.  v2: payloads are encoded
#: by the canonical repro.schema registry and SNAPSHOT frames carry a
#: schema stamp — pre-2.0 peers (whose decoders reject unknown fields)
#: are refused at handshake instead of crashing on the first frame.
#: v3: DISPATCH/OUTCOME frames carry string campaign ids (the journal's
#: key) instead of integer epochs, and the control plane (SUBMIT /
#: STATUS / CANCEL / FETCH / ACK, role ``control``) exists — a v2 peer
#: would silently mis-key outcomes, so it is refused at handshake.
PROTOCOL_VERSION = 3

#: Length prefix size and the sanity cap on one frame's payload.  A
#: detection batch for a long chunk is tens of KB; 32 MiB leaves room
#: for pathological campaigns while rejecting garbage prefixes (e.g. a
#: peer that is not speaking this protocol at all).
LENGTH_BYTES = 4
MAX_FRAME_BYTES = 32 * 1024 * 1024

# Frame types.
HELLO = "HELLO"
HEARTBEAT = "HEARTBEAT"
DISPATCH = "DISPATCH"
OUTCOME = "OUTCOME"
DETECTION = "DETECTION"
SNAPSHOT = "SNAPSHOT"
BYE = "BYE"
# Control plane (role ``control``): queue management over the same
# listener.  Every request carries a client-chosen ``req`` id; the
# coordinator answers with one ACK echoing it.
SUBMIT = "SUBMIT"
STATUS = "STATUS"
CANCEL = "CANCEL"
FETCH = "FETCH"
ACK = "ACK"

FRAME_TYPES = frozenset(
    (
        HELLO,
        HEARTBEAT,
        DISPATCH,
        OUTCOME,
        DETECTION,
        SNAPSHOT,
        BYE,
        SUBMIT,
        STATUS,
        CANCEL,
        FETCH,
        ACK,
    )
)

#: Peer roles a HELLO may announce.
ROLE_WORKER = "worker"
ROLE_LIVE = "live"
ROLE_WATCH = "watch"
ROLE_CONTROL = "control"
ROLES = frozenset((ROLE_WORKER, ROLE_LIVE, ROLE_WATCH, ROLE_CONTROL))


@dataclass(frozen=True)
class Frame:
    """One decoded protocol frame."""

    type: str
    payload: dict = field(default_factory=dict)


# -- encoding / decoding -------------------------------------------------------


def encode_frame(frame: Frame) -> bytes:
    """Serialize a frame to its on-wire bytes (length prefix included)."""
    body = json.dumps(
        {"type": frame.type, "payload": frame.payload},
        separators=(",", ":"),
    ).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ClusterProtocolError(
            f"frame too large to send: {len(body)} bytes "
            f"(max {MAX_FRAME_BYTES})"
        )
    return len(body).to_bytes(LENGTH_BYTES, "big") + body


def decode_frame(body: bytes) -> Frame:
    """Decode one frame body (the bytes after the length prefix)."""
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ClusterProtocolError(f"undecodable frame body: {exc}")
    if not isinstance(data, dict):
        raise ClusterProtocolError(
            f"frame body is not an object: {type(data).__name__}"
        )
    frame_type = data.get("type")
    if frame_type not in FRAME_TYPES:
        raise ClusterProtocolError(f"unknown frame type {frame_type!r}")
    payload = data.get("payload", {})
    if not isinstance(payload, dict):
        raise ClusterProtocolError(
            f"frame payload is not an object: {type(payload).__name__}"
        )
    return Frame(type=frame_type, payload=payload)


async def send_frame(
    writer: asyncio.StreamWriter, frame_type: str, payload: dict
) -> None:
    """Encode and send one frame, draining the transport."""
    writer.write(encode_frame(Frame(frame_type, payload)))
    await writer.drain()


async def read_frame(reader: asyncio.StreamReader) -> Optional[Frame]:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    EOF in the middle of a frame, an oversized length prefix, or an
    undecodable body raise :class:`ClusterProtocolError`.
    """
    try:
        header = await reader.readexactly(LENGTH_BYTES)
    except asyncio.IncompleteReadError as exc:
        if exc.partial:
            raise ClusterProtocolError(
                "connection closed mid-frame (truncated length prefix)"
            )
        return None  # clean EOF between frames
    length = int.from_bytes(header, "big")
    if length == 0 or length > MAX_FRAME_BYTES:
        raise ClusterProtocolError(
            f"invalid frame length {length} (max {MAX_FRAME_BYTES}); "
            f"peer is probably not speaking the cluster protocol"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ClusterProtocolError(
            "connection closed mid-frame (truncated body)"
        )
    return decode_frame(body)


# -- link hardening: shared-token auth and TLS ---------------------------------


def auth_ok(expected: Optional[str], presented: object) -> bool:
    """Constant-time check of a HELLO's auth token against the secret.

    ``expected is None`` means the listener runs open (the loopback /
    trusted-LAN default) and every peer passes.
    """
    if expected is None:
        return True
    if not isinstance(presented, str):
        return False
    return hmac.compare_digest(
        expected.encode("utf-8"), presented.encode("utf-8")
    )


def server_ssl_context(certfile: str, keyfile: str) -> "ssl.SSLContext":
    """TLS context for the coordinator's listener."""
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(certfile, keyfile)
    return context


def client_ssl_context(cafile: Optional[str] = None) -> "ssl.SSLContext":
    """TLS context for workers/forwarders/watchers dialing a coordinator.

    With an explicit *cafile* (the usual self-signed operational cert)
    the chain is verified against it but hostname checking is off —
    cluster certs are pinned by file, not by DNS name.  Without one,
    the system trust store applies with full hostname verification.
    """
    if cafile is not None:
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
        context.load_verify_locations(cafile)
        context.check_hostname = False
        context.verify_mode = ssl.CERT_REQUIRED
        return context
    return ssl.create_default_context()


def hello_payload(**extra: object) -> dict:
    """The versions every HELLO must announce, plus caller extras."""
    payload = {"version": PROTOCOL_VERSION, "schema": schema.SCHEMA_VERSION}
    payload.update(extra)
    return payload


def check_hello(frame: Optional[Frame], *, expect_role: bool) -> dict:
    """Validate a handshake frame; return its payload.

    Raises :class:`ClusterProtocolError` on a missing/foreign HELLO, a
    protocol or payload-schema version mismatch, or
    (``expect_role=True``, the server side) an unknown role.
    """
    if frame is None or frame.type != HELLO:
        got = "EOF" if frame is None else frame.type
        raise ClusterProtocolError(f"expected HELLO handshake, got {got}")
    version = frame.payload.get("version")
    if version != PROTOCOL_VERSION:
        raise ClusterProtocolError(
            f"protocol version mismatch: peer speaks {version!r}, "
            f"this side speaks {PROTOCOL_VERSION}"
        )
    # Refuse payload-schema mismatches at handshake, where the
    # diagnosis is cheap — not at the first payload whose decode would
    # otherwise fail weirdly.  A HELLO without a stamp is treated as
    # schema 1 (the first stamped release), so a peer that omits it is
    # still refused the moment this side's schema moves past 1.
    schema_version = frame.payload.get("schema")
    if schema_version is None:
        schema_version = 1
    if schema_version != schema.SCHEMA_VERSION:
        raise ClusterProtocolError(
            f"schema version mismatch: peer speaks schema "
            f"{schema_version!r} vs {schema.SCHEMA_VERSION} on this side"
        )
    if expect_role and frame.payload.get("role") not in ROLES:
        raise ClusterProtocolError(
            f"unknown peer role {frame.payload.get('role')!r}; "
            f"options: {', '.join(sorted(ROLES))}"
        )
    return frame.payload


# -- dialing a coordinator -----------------------------------------------------


async def dial(
    host: str,
    port: int,
    role: str,
    *,
    auth_token: Optional[str] = None,
    ssl_context: Optional[ssl.SSLContext] = None,
    heartbeat_s: float = math.inf,
    **extra: object,
) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter, float]:
    """Connect to a coordinator and HELLO as *role*.

    Returns ``(reader, writer, heartbeat_s)``, where the keepalive is
    the shorter of the caller's *heartbeat_s* and the coordinator's
    advertised one: its watchdog declares peers dead at a multiple of
    *its* cadence, so heartbeating slower than it expects would get a
    healthy peer aborted.

    Transport failures raise :class:`OSError`, and so does EOF before
    the coordinator's HELLO (a coordinator caught restarting resets
    half-open connections).  A BYE raises :class:`ClusterError`, a
    version mismatch :class:`ClusterProtocolError`; the connection is
    closed on every failure.
    """
    reader, writer = await asyncio.open_connection(host, port, ssl=ssl_context)
    if auth_token is not None:
        extra["token"] = auth_token
    try:
        await send_frame(writer, HELLO, hello_payload(role=role, **extra))
        reply = await read_frame(reader)
        if reply is None:
            raise ConnectionResetError(
                "coordinator closed the connection before its HELLO"
            )
        if reply.type == BYE:
            raise ClusterError(
                f"coordinator refused handshake: "
                f"{reply.payload.get('reason', 'no reason given')}"
            )
        advertised = check_hello(reply, expect_role=False).get("heartbeat_s")
    except BaseException:
        writer.close()
        raise
    if isinstance(advertised, (int, float)) and advertised > 0:
        heartbeat_s = min(heartbeat_s, float(advertised))
    return reader, writer, heartbeat_s


class Backoff:
    """Jittered doubling delays between redial attempts.

    Doubling keeps a long outage cheap; the jitter keeps a fleet of
    peers from redialing a restarted coordinator in lockstep.
    """

    def __init__(self, first_s: float, max_s: float) -> None:
        self.delay_s = first_s
        self.max_s = max_s

    async def sleep(self) -> None:
        await asyncio.sleep(self.delay_s * random.uniform(0.5, 1.5))
        self.delay_s = min(self.delay_s * 2.0, self.max_s)


def count_rejected(what: str, detail: object) -> None:
    """Count and log one malformed peer item a seam skipped.

    The seams that tolerate a bad item (a live frame, a foreign trace
    span) keep serving the rest; this keeps the skip visible as
    ``repro_cluster_rejected_total{what=...}`` and a warning.
    """
    get_registry().counter(
        "repro_cluster_rejected_total",
        help="Malformed peer items a cluster seam skipped.",
    ).inc(what=what)
    logger.warning("skipped a malformed %s: %s", what, detail)


__all__ = [
    "ACK",
    "BYE",
    "CANCEL",
    "DETECTION",
    "DISPATCH",
    "FETCH",
    "FRAME_TYPES",
    "Frame",
    "HEARTBEAT",
    "HELLO",
    "LENGTH_BYTES",
    "MAX_FRAME_BYTES",
    "OUTCOME",
    "PROTOCOL_VERSION",
    "ROLES",
    "ROLE_CONTROL",
    "ROLE_LIVE",
    "ROLE_WATCH",
    "ROLE_WORKER",
    "SNAPSHOT",
    "STATUS",
    "SUBMIT",
    "Backoff",
    "auth_ok",
    "client_ssl_context",
    "server_ssl_context",
    "check_hello",
    "count_rejected",
    "decode_frame",
    "dial",
    "encode_frame",
    "hello_payload",
    "read_frame",
    "send_frame",
]
