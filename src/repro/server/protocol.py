"""JSON-lines protocol spoken over the daemon's Unix socket.

Framing: every message — request and response alike — is one JSON object
on one ``\\n``-terminated line, UTF-8 encoded.  A connection carries a
sequence of requests; most requests get exactly one response line, while a
``submit`` with ``"stream": true`` holds the line open and emits one event
object per state transition until a terminal event.

Requests (``op`` selects the operation)::

    {"op": "ping"}
    {"op": "submit", "kind": "detect", "design": "/abs/path.hgr",
     "config": {...FinderConfig fields...}, "priority": "interactive",
     "label": "a", "stream": true}
    {"op": "submit", "kind": "flow", "design": "/abs/path.hgr",
     "stages": [{"stage": "detect", "seed": 1}, {"stage": "partition"}]}
    {"op": "submit", "kind": "detect", "design": "/abs/base.nla",
     "delta": {...NetlistDelta.to_dict() form...}, "config": {...}}
    {"op": "status"}                  # server-level stats
    {"op": "status", "job_id": "..."} # one job's lifecycle record
    {"op": "status", "group": "..."}  # stats + only that group's jobs
    {"op": "result", "job_id": "..."} # terminal payload of a finished job
    {"op": "cancel", "job_id": "..."}
    {"op": "shutdown", "drain": true}

Responses always carry ``"ok"`` (bool) and ``"event"`` (str).  Events:

* ``pong`` / ``status`` / ``jobs`` / ``cancelled`` / ``shutting-down`` —
  single-line acks.
* ``rejected`` — backpressure; carries ``retry_after_s`` and the current
  ``queue_depth``.  ``ok`` is false.
* ``queued`` -> ``started`` -> ``progress``* -> ``result`` | ``error`` —
  the streamed job lifecycle.  ``result`` carries the report payload
  (:func:`repro.service.codec.report_to_dict` form for detect jobs),
  ``cached`` and ``runtime_seconds``; ``error`` carries ``error``.

Requests are content-addressed: a ``submit`` whose fingerprint is already
in the daemon's result store is answered inline with a ``result`` event
(``cached: true``) without ever entering the queue.

Delta submits (protocol 2): a detect ``submit`` may carry a ``"delta"``
object (:meth:`repro.incremental.NetlistDelta.to_dict` form).  ``design``
then names the *base* design — typically already warm in the daemon's
design cache — and the daemon applies the delta server-side, so an edit
is shipped as a few KB of JSON instead of the whole netlist.  Delta jobs
run through incremental detection (dirty-region seed reuse, see
:mod:`repro.incremental.engine`); the ``result`` payload additionally
carries ``incremental`` provenance (mode, seeds recomputed, dirty cells).

Job groups (protocol 2, optional): a ``submit`` may carry a ``"group"``
string tagging the job as part of a larger unit of work — e.g. one shard
of a sharded sweep (``"sweep/shard-3"``).  A ``status`` request with a
``"group"`` restricts its ``jobs`` listing to that group, so a queued
sweep's shards are observable while they wait.  Absent fields keep the
pre-group behaviour, so version 2 stays wire-compatible.

Status payload (protocol 3): a server-level ``status`` response carries
``pid``, ``uptime_s``, ``workers``, ``queue`` (depths, ``max_depth``,
per-state job counts, ``closed``), ``store`` (``entries``), ``designs``
(``loaded``, ``max_designs``, ``pack_index_entries``), ``jobs`` and one
``metrics`` object: the merged :meth:`repro.obs.metrics.MetricRegistry.snapshot`
of the daemon (``server.*``), queue (``queue.*``), pool (``pool.*``),
store (``store.*``) and design cache (``designs.*``).  It replaces the
version-2 ``counters`` and ``pool`` objects and the tallies that
``queue``/``store``/``designs`` used to carry.
"""

from __future__ import annotations

import json
import socket
from typing import Any, BinaryIO, Dict, Optional

from repro.errors import ServerError

#: Protocol version, exchanged in ``ping`` so client/daemon skew is visible.
#: Version 2 adds delta submits (``submit`` with a ``"delta"`` object);
#: version 3 moves every ``status`` tally into one ``metrics`` snapshot.
PROTOCOL_VERSION = 3

#: Hard per-line bound (requests and responses); a 100K-cell report is
#: ~10 MB of JSON, so this leaves generous headroom while still bounding a
#: runaway/garbage peer.
MAX_LINE_BYTES = 256 * 1024 * 1024

#: Valid values of the request ``op`` field.
OPS = ("ping", "submit", "status", "result", "cancel", "shutdown")

#: Valid values of the submit ``kind`` field.
JOB_KINDS = ("detect", "flow")


def encode_line(message: Dict[str, Any]) -> bytes:
    """One protocol message as a compact JSON line."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one received line; raises :class:`ServerError` on garbage."""
    if len(line) > MAX_LINE_BYTES:
        raise ServerError(
            f"protocol line exceeds {MAX_LINE_BYTES} bytes; dropping peer"
        )
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ServerError(f"malformed protocol line: {error}") from error
    if not isinstance(message, dict):
        raise ServerError("protocol messages must be JSON objects")
    return message


def write_message(stream: BinaryIO, message: Dict[str, Any]) -> None:
    """Write one message line and flush it to the peer."""
    try:
        stream.write(encode_line(message))
        stream.flush()
    except (OSError, ValueError) as error:
        raise ServerError(f"peer connection lost: {error}") from error


def read_message(stream: BinaryIO) -> Optional[Dict[str, Any]]:
    """Read one message line; ``None`` on a cleanly closed connection."""
    try:
        line = stream.readline(MAX_LINE_BYTES + 1)
    except (OSError, ValueError, socket.timeout) as error:
        raise ServerError(f"peer connection lost: {error}") from error
    if not line:
        return None
    if not line.endswith(b"\n"):
        raise ServerError("truncated or oversized protocol line")
    return decode_line(line)


def parse_request(message: Dict[str, Any]) -> Dict[str, Any]:
    """Validate the envelope of one request (op present and known)."""
    op = message.get("op")
    if op not in OPS:
        raise ServerError(
            f"unknown op {op!r}; expected one of {', '.join(OPS)}"
        )
    return message


def error_response(error: Exception, **fields: Any) -> Dict[str, Any]:
    """The single-line failure response for ``error``."""
    return {"ok": False, "event": "error", "error": str(error), **fields}


__all__ = [
    "JOB_KINDS",
    "MAX_LINE_BYTES",
    "OPS",
    "PROTOCOL_VERSION",
    "decode_line",
    "encode_line",
    "error_response",
    "parse_request",
    "read_message",
    "write_message",
]
