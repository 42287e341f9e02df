"""JSON-lines wire format for the ingestion front door.

One frame is one UTF-8 JSON object terminated by ``\\n``.  JSON is the
transport deliberately: Python's ``repr``-based float serialization is
shortest-round-trip, so a ``float64`` metric value survives
encode → decode **bit-identically** — the property the kill/recover
proof (``tests/test_serving_recovery.py``) rests on.

Requests (``op`` selects the verb):

``report_batch``
    ``{"op": "report_batch", "tenant": t, "epoch": e,
    "machines": [m...], "values": [[...]...], "violations": [bool...]}``
    — many machines' metric vectors for epoch ``e`` in one frame.  The
    value matrix is validated and decoded in one vectorized numpy pass
    (the only per-machine Python work is the id strings), and machine
    ids must not repeat within a frame.  Reports are *epoch-addressed*
    so a client that resends after a reconnect is safe: a frame for an
    already-closed epoch is acknowledged as a duplicate no-op, never
    applied twice.  Acks carry ``n``, the number of machine reports the
    frame covered.  A row that is not the tenant's ``n_metrics`` wide
    is rejected with ``bad-shape`` before it is journaled (the wire
    layer does not know the tenant's configuration).
``report``
    ``{"op": "report", "tenant": t, "machine": m, "epoch": e,
    "values": [...], "violation": bool}`` — one machine's vector.  Pure
    sugar: :func:`parse_request` returns the one-row ``report_batch``
    it stands for (:func:`report_as_batch`), so past the parser there
    is one report path, and its ack carries ``n: 1``.
``close_epoch``
    ``{"op": "close_epoch", "tenant": t, "epoch": e}`` — summarize the
    pending reports for ``e`` and feed the streaming monitor.
``diagnose``
    ``{"op": "diagnose", "tenant": t, "crisis": n, "label": s}`` — the
    operators' diagnosis for a past crisis.
``ping`` / ``stats`` / ``state``
    liveness, service-wide counters, and one tenant's full recovery
    state (used by tests to prove bit-identity).
``incidents`` / ``forecasts``
    read-side views of one tenant: the incident catalog (with discovery
    cluster stats when attached) and the early-warning engine's stats +
    retained alarms (PR 9).

Replication and administration (PR 7):

``repl_subscribe``
    ``{"op": "repl_subscribe", "cursors": {tenant: seq, ...},
    "fence": e}`` — a standby opens a journal-shipping subscription,
    resuming each tenant's stream after the given sequence number.  The
    primary answers once, then *pushes* ``repl_frames`` /
    ``repl_heartbeat`` messages down the same connection.
``repl_frames``
    ``{"op": "repl_frames", "tenant": t, "records": [...]}`` — a batch
    of journal records (each carrying its primary-assigned ``seq``),
    pushed primary → standby.
``repl_ack``
    ``{"op": "repl_ack", "cursors": {tenant: seq, ...}}`` — the standby
    reports how far it has durably applied; drives the primary's lag
    accounting, journal retention, and dead-subscriber reaping.
``repl_heartbeat``
    pushed on idle links so long-lived subscriptions survive the
    slow-loris timeout; the standby answers with a ``repl_ack``.
``promote`` / ``fence`` / ``unquarantine``
    operator verbs: promote this standby to primary (mints a new
    fencing epoch), tell a superseded node it has been fenced, and
    release a quarantined tenant with a fresh restart budget.

Journaled verbs additionally accept an optional ``fence`` field — the
highest fencing epoch the writer has observed.  A token newer than the
server's proves the server stale (it fences itself); an older token
marks the *writer* stale (rejected with ``stale-fence`` + the current
epoch).  See :mod:`repro.serving.fencing`.

Responses are ``{"ok": true, ...}`` (``seq`` carries the journal
sequence number for journaled verbs; ``events`` carries monitor events)
or ``{"ok": false, "error": code}`` with ``retry_after`` seconds on
``overloaded`` / ``restarting`` shed responses.

Anything that cannot be parsed into a valid request raises
:class:`MalformedFrame` — a typed error the server answers with an
``{"ok": false, "error": "malformed"}`` frame instead of crashing the
connection, which is exactly what the chaos mode's corrupted frames
exercise.  That includes numbers JSON can carry but the server cannot:
an integer literal past Python's digit limit, or a metric value beyond
float64 range.
"""

from __future__ import annotations

import itertools
import json
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.streaming import (
    CrisisDetected,
    CrisisEnded,
    EpochUntrusted,
    IdentificationUpdate,
    MonitorEvent,
)

#: Request verbs understood by the server.
OPS = (
    "report", "report_batch", "close_epoch", "diagnose",
    "ping", "stats", "state", "incidents", "forecasts",
    "repl_subscribe", "repl_ack", "promote", "fence", "unquarantine",
)

#: Verbs whose frames reach the journal (and therefore replication and
#: fencing).  A ``report`` is journaled as the ``report_batch`` it
#: parses to, so journaled records carry only the other three ops.
JOURNALED_OPS = ("report", "report_batch", "close_epoch", "diagnose")

#: Messages pushed primary → standby on a replication link (these are
#: not client requests; :func:`parse_repl_push` validates them).
REPL_PUSH_OPS = ("repl_frames", "repl_heartbeat")


class MalformedFrame(ValueError):
    """The frame is not a valid request (bad JSON, wrong shape/types)."""


def encode_frame(obj: Dict[str, Any]) -> bytes:
    """One wire frame: compact JSON + newline."""
    return json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_frame(line: bytes) -> Dict[str, Any]:
    """Parse one frame into a dict; typed error on garbage."""
    try:
        obj = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and integer literals
        # past the interpreter's digit limit; RecursionError covers
        # nesting deeper than the decoder's stack.
        raise MalformedFrame(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise MalformedFrame(
            f"frame is a {type(obj).__name__}, not an object"
        )
    return obj


def _require(obj: Dict[str, Any], key: str, kind, what: str):
    if key not in obj:
        raise MalformedFrame(f"{what} is missing {key!r}")
    value = obj[key]
    # bool is an int subclass; an epoch of ``true`` is still malformed.
    if kind is int and isinstance(value, bool):
        raise MalformedFrame(f"{what} field {key!r} must be an integer")
    if not isinstance(value, kind):
        raise MalformedFrame(
            f"{what} field {key!r} must be {getattr(kind, '__name__', kind)}"
        )
    return value


def _require_tenant(obj: Dict[str, Any], what: str) -> str:
    tenant = _require(obj, "tenant", str, what)
    if not tenant or "/" in tenant or tenant in (".", ".."):
        # Tenant names become directory names; keep them path-safe.
        raise MalformedFrame(f"invalid tenant name {tenant!r}")
    return tenant


def _optional_fence(obj: Dict[str, Any], out: Dict[str, Any], what: str):
    """Validate the optional ``fence`` token onto the canonical dict."""
    if "fence" not in obj:
        return out
    fence = _require(obj, "fence", int, what)
    if fence < 0:
        raise MalformedFrame(f"{what} fence must be non-negative")
    out["fence"] = fence
    return out


def _require_cursors(obj: Dict[str, Any], what: str) -> Dict[str, int]:
    cursors = _require(obj, "cursors", dict, what)
    out: Dict[str, int] = {}
    for tenant, seq in cursors.items():
        if not isinstance(tenant, str) or not tenant:
            raise MalformedFrame(f"{what} cursor tenant must be a string")
        if isinstance(seq, bool) or not isinstance(seq, int) or seq < 0:
            raise MalformedFrame(
                f"{what} cursor for {tenant!r} must be a non-negative "
                "integer"
            )
        out[tenant] = seq
    return out


def report_as_batch(record: Dict[str, Any]) -> Dict[str, Any]:
    """The one-row ``report_batch`` a single ``report`` stands for.

    :func:`parse_request` applies this to every ``report`` frame before
    validating it as a batch, and tenant recovery applies it to the
    ``report`` records of journals written before reports were
    journaled as batches.  Every other field (``tenant``, ``epoch``,
    ``fence``, ``seq``) carries over; a missing report field becomes a
    ``None`` row entry that batch validation rejects.
    """
    out = {
        key: value for key, value in record.items()
        if key not in ("machine", "values", "violation")
    }
    out.update(
        op="report_batch",
        machines=[record.get("machine")],
        values=[record.get("values")],
        violations=[record.get("violation")],
    )
    return out


def parse_request(obj: Dict[str, Any]) -> Dict[str, Any]:
    """Validate a decoded frame into a canonical request dict.

    Returns a fresh dict holding only the validated fields, so a frame
    smuggling extra keys cannot reach the journal.  A ``report`` comes
    back as its one-row ``report_batch``.
    """
    op = obj.get("op")
    if op not in OPS:
        raise MalformedFrame(f"unknown op {op!r}")
    if op == "report":
        obj, op = report_as_batch(obj), "report_batch"
    if op == "report_batch":
        tenant = _require_tenant(obj, "report_batch")
        epoch = _require(obj, "epoch", int, "report_batch")
        if epoch < 0:
            raise MalformedFrame("report_batch epoch must be non-negative")
        machines = _require(obj, "machines", list, "report_batch")
        if not machines:
            raise MalformedFrame("report_batch machines must be non-empty")
        for machine in machines:
            if not isinstance(machine, str) or not machine:
                raise MalformedFrame(
                    "report_batch machines must be non-empty strings"
                )
        if len(set(machines)) != len(machines):
            raise MalformedFrame(
                "report_batch machines must not repeat within a frame"
            )
        values = _require(obj, "values", list, "report_batch")
        if len(values) != len(machines):
            raise MalformedFrame(
                "report_batch values must match machines one-to-one"
            )
        for row in values:
            if not isinstance(row, list) or not row:
                raise MalformedFrame(
                    "report_batch values must be non-empty lists"
                )
        # One C-level pass over every entry: the set of concrete types
        # must be numeric — rejecting bools (an int subclass), strings,
        # None, and nested lists without a per-value Python loop.
        kinds = set(map(type, itertools.chain.from_iterable(values)))
        if not kinds <= {int, float}:
            raise MalformedFrame("report_batch values must be numbers")
        try:
            matrix = np.asarray(values, dtype=np.float64)
        except OverflowError as exc:
            raise MalformedFrame(
                f"report_batch values must fit in float64: {exc}"
            ) from exc
        except (TypeError, ValueError) as exc:
            raise MalformedFrame(
                f"report_batch values must be rectangular: {exc}"
            ) from exc
        if matrix.ndim != 2:
            raise MalformedFrame(
                "report_batch values must be same-length vectors"
            )
        violations = _require(obj, "violations", list, "report_batch")
        if len(violations) != len(machines):
            raise MalformedFrame(
                "report_batch violations must match machines one-to-one"
            )
        if not set(map(type, violations)) <= {bool}:
            raise MalformedFrame("report_batch violations must be booleans")
        return _optional_fence(obj, {
            "op": "report_batch",
            "tenant": tenant,
            "epoch": epoch,
            "machines": list(machines),
            # Canonical float lists: the journal stores them as raw
            # float64 and the replication stream as repr-based JSON,
            # and both round-trip a float64 bit for bit.
            "values": matrix.tolist(),
            "violations": list(violations),
        }, "report_batch")
    if op == "close_epoch":
        tenant = _require_tenant(obj, "close_epoch")
        epoch = _require(obj, "epoch", int, "close_epoch")
        if epoch < 0:
            raise MalformedFrame("close_epoch epoch must be non-negative")
        return _optional_fence(
            obj, {"op": "close_epoch", "tenant": tenant, "epoch": epoch},
            "close_epoch",
        )
    if op == "diagnose":
        tenant = _require_tenant(obj, "diagnose")
        crisis = _require(obj, "crisis", int, "diagnose")
        label = _require(obj, "label", str, "diagnose")
        if not label:
            raise MalformedFrame("diagnose label must be non-empty")
        return _optional_fence(obj, {
            "op": "diagnose", "tenant": tenant,
            "crisis": crisis, "label": label,
        }, "diagnose")
    if op == "state":
        return {"op": "state", "tenant": _require_tenant(obj, "state")}
    if op == "incidents":
        return {
            "op": "incidents",
            "tenant": _require_tenant(obj, "incidents"),
        }
    if op == "forecasts":
        return {
            "op": "forecasts",
            "tenant": _require_tenant(obj, "forecasts"),
        }
    if op == "repl_subscribe":
        return _optional_fence(obj, {
            "op": "repl_subscribe",
            "cursors": _require_cursors(obj, "repl_subscribe"),
        }, "repl_subscribe")
    if op == "repl_ack":
        return {
            "op": "repl_ack",
            "cursors": _require_cursors(obj, "repl_ack"),
        }
    if op == "fence":
        epoch = _require(obj, "epoch", int, "fence")
        if epoch < 1:
            raise MalformedFrame("fence epoch must be positive")
        return {"op": "fence", "epoch": epoch}
    if op == "unquarantine":
        return {
            "op": "unquarantine",
            "tenant": _require_tenant(obj, "unquarantine"),
        }
    return {"op": op}


def parse_repl_push(obj: Dict[str, Any]) -> Dict[str, Any]:
    """Validate a primary → standby push message (frames or heartbeat).

    The standby applies these through the live journal-then-apply path,
    so the same no-garbage rule holds: anything malformed raises
    :class:`MalformedFrame` and the standby drops the link rather than
    applying it.
    """
    op = obj.get("op")
    if op not in REPL_PUSH_OPS:
        raise MalformedFrame(f"unknown replication push op {op!r}")
    if op == "repl_heartbeat":
        return {"op": "repl_heartbeat"}
    tenant = _require_tenant(obj, "repl_frames")
    records = _require(obj, "records", list, "repl_frames")
    if not records:
        raise MalformedFrame("repl_frames records must be non-empty")
    validated: List[Dict[str, Any]] = []
    for record in records:
        if not isinstance(record, dict):
            raise MalformedFrame("repl_frames records must be objects")
        seq = record.get("seq")
        if isinstance(seq, bool) or not isinstance(seq, int) or seq < 1:
            raise MalformedFrame(
                "repl_frames record is missing its journal seq"
            )
        body = parse_request(record)
        if body["op"] not in JOURNALED_OPS:
            raise MalformedFrame(
                f"unjournalable op {body['op']!r} in repl_frames"
            )
        if body["tenant"] != tenant:
            raise MalformedFrame(
                "repl_frames record tenant does not match the frame"
            )
        body["seq"] = seq
        validated.append(body)
    return {"op": "repl_frames", "tenant": tenant, "records": validated}


# ---------------------------------------------------------------------------
# Monitor events on the wire
# ---------------------------------------------------------------------------

_EVENT_TYPES = {
    "crisis_detected": CrisisDetected,
    "crisis_ended": CrisisEnded,
    "epoch_untrusted": EpochUntrusted,
    "identification": IdentificationUpdate,
}


def event_to_wire(event: MonitorEvent) -> Dict[str, Any]:
    """Serialize one monitor event to a JSON-safe dict."""
    if isinstance(event, CrisisDetected):
        return {
            "type": "crisis_detected",
            "epoch": event.epoch,
            "crisis": event.crisis_number,
        }
    if isinstance(event, CrisisEnded):
        return {
            "type": "crisis_ended",
            "epoch": event.epoch,
            "crisis": event.crisis_number,
            "duration": event.duration_epochs,
        }
    if isinstance(event, EpochUntrusted):
        return {
            "type": "epoch_untrusted",
            "epoch": event.epoch,
            "reasons": list(event.reasons),
        }
    if isinstance(event, IdentificationUpdate):
        return {
            "type": "identification",
            "epoch": event.epoch,
            "crisis": event.crisis_number,
            "slot": event.identification_epoch,
            "label": event.label,
            # repr round-trip: the float64 distance survives bitwise.
            "distance": event.distance,
        }
    raise TypeError(f"unknown monitor event {type(event).__name__}")


def event_from_wire(obj: Dict[str, Any]) -> MonitorEvent:
    """Rebuild the frozen event dataclass from its wire dict."""
    kind = obj.get("type")
    if kind == "crisis_detected":
        return CrisisDetected(epoch=obj["epoch"], crisis_number=obj["crisis"])
    if kind == "crisis_ended":
        return CrisisEnded(
            epoch=obj["epoch"],
            crisis_number=obj["crisis"],
            duration_epochs=obj["duration"],
        )
    if kind == "epoch_untrusted":
        return EpochUntrusted(
            epoch=obj["epoch"], reasons=tuple(obj["reasons"])
        )
    if kind == "identification":
        distance = obj["distance"]
        return IdentificationUpdate(
            epoch=obj["epoch"],
            crisis_number=obj["crisis"],
            identification_epoch=obj["slot"],
            label=obj["label"],
            distance=None if distance is None else float(distance),
        )
    raise MalformedFrame(f"unknown event type {kind!r}")


# ---------------------------------------------------------------------------
# Response builders
# ---------------------------------------------------------------------------


def ok_response(
    seq: Optional[int] = None,
    events: Optional[List[Dict[str, Any]]] = None,
    **fields: Any,
) -> Dict[str, Any]:
    resp: Dict[str, Any] = {"ok": True}
    if seq is not None:
        resp["seq"] = seq
    if events is not None:
        resp["events"] = events
    resp.update(fields)
    return resp


def error_response(
    code: str, retry_after: Optional[float] = None, **fields: Any
) -> Dict[str, Any]:
    resp: Dict[str, Any] = {"ok": False, "error": code}
    if retry_after is not None:
        resp["retry_after"] = retry_after
    resp.update(fields)
    return resp


__all__ = [
    "JOURNALED_OPS",
    "MalformedFrame",
    "OPS",
    "REPL_PUSH_OPS",
    "decode_frame",
    "encode_frame",
    "error_response",
    "event_from_wire",
    "event_to_wire",
    "ok_response",
    "parse_repl_push",
    "parse_request",
    "report_as_batch",
]
