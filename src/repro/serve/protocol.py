"""The serve wire protocol: versioned JSONL requests and responses.

One request is one JSON object; a **batch** is a JSON array of request
objects.  Over stdio each line of input is one request or batch and
produces exactly one line of output (an object for a request, an array
— in request order — for a batch).  The HTTP shim POSTs the same
payloads to ``/v1/query``.

Request fields:

* ``op`` (required) — one of :data:`OPS`;
* ``id`` — client-chosen correlation value, echoed verbatim;
* ``source`` — MiniM3 module text (ops that analyse a program);
* ``name`` — unit name for diagnostics (defaults to the module name);
* ``analysis`` — one analysis name (``alias``); ``tables`` covers all;
* ``open_world`` — bool, Section 4 variants (default closed world);
* ``worlds`` — ``tables`` only: ``"closed"``, ``"open"`` or ``"both"``;
  overrides ``open_world`` and ``"both"`` serves all six configurations
  in one response (closed rows first);
* ``engine`` — reserved for parity with the CLI; the daemon always
  counts with the fast engine and (in differential mode) cross-checks
  against the cold reference engine.
* ``trace_id`` — optional client-chosen trace id (a non-empty string);
  the daemon mints one when absent.  Every response echoes the id in a
  ``"trace"`` key — ok *and* error responses, so a fault injected
  mid-request is still attributable to its trace.
* ``traceparent`` — optional cross-process trace context in the
  :class:`repro.obs.sampler.TraceContext` header form
  (``{trace}-{proc}-{span:x}-{flag}``).  When present it supersedes
  ``trace_id``: the daemon adopts its trace id, honours its sampled
  flag instead of rolling the head-sampler coin, and parents the
  request's span tree under the named remote span, so a client batch
  and the daemon work it caused reconstruct as one tree
  (DESIGN.md §6k).
* ``debug`` — bool; when true the ok response additionally carries
  ``"spans"``: the request's own span tree (JSON span objects in start
  order), collected even while the global recorder is off.  This is
  what ``repro client --debug`` renders.

Responses are ``{"id":..., "ok": true, "result": {...}}`` or
``{"id":..., "ok": false, "error": {"kind":..., "message":...}}``;
every response also carries ``"v"``, the protocol version (and
``"trace"`` once the daemon has assigned a trace id).  Protocol errors
never kill the daemon — a malformed request yields an error response
and the stream continues (a malformed *line* yields one unkeyed error
object).
"""

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

#: Bumped whenever the wire format changes incompatibly.
PROTOCOL_VERSION = 1

#: Every operation the daemon understands.
OPS = ("ping", "alias", "tables", "limit", "facts", "stats", "shutdown")

#: Ops that require a ``source`` field.
SOURCE_OPS = ("alias", "tables", "limit", "facts")

#: Valid values of the ``worlds`` field (``tables``).
WORLDS = ("closed", "open", "both")


class ProtocolError(ValueError):
    """A malformed request (bad shape, unknown op, missing field)."""


@dataclass
class Request:
    """One validated request object."""

    op: str
    id: object = None
    source: Optional[str] = None
    name: Optional[str] = None
    analysis: Optional[str] = None
    open_world: bool = False
    worlds: Optional[str] = None
    engine: Optional[str] = None
    trace_id: Optional[str] = None
    traceparent: Optional[str] = None
    debug: bool = False
    extra: Dict[str, object] = field(default_factory=dict)

    def trace_context(self):
        """The parsed ``traceparent``, or None (validated on ingest)."""
        from repro.obs.sampler import TraceContext

        if self.traceparent is None:
            return None
        return TraceContext.parse(self.traceparent)

    @classmethod
    def from_obj(cls, obj: object) -> "Request":
        """Validate one decoded JSON object into a :class:`Request`."""
        if not isinstance(obj, dict):
            raise ProtocolError(
                "request must be a JSON object, got {}".format(
                    type(obj).__name__))
        op = obj.get("op")
        if op not in OPS:
            raise ProtocolError(
                "unknown op {!r}; expected one of {}".format(op, OPS))
        source = obj.get("source")
        if op in SOURCE_OPS and not isinstance(source, str):
            raise ProtocolError("op {!r} requires a string 'source'".format(op))
        if source is not None and not isinstance(source, str):
            raise ProtocolError("'source' must be a string")
        name = obj.get("name")
        if name is not None and not isinstance(name, str):
            raise ProtocolError("'name' must be a string")
        analysis = obj.get("analysis")
        if analysis is not None and not isinstance(analysis, str):
            raise ProtocolError("'analysis' must be a string")
        open_world = obj.get("open_world", False)
        if not isinstance(open_world, bool):
            raise ProtocolError("'open_world' must be a boolean")
        worlds = obj.get("worlds")
        if worlds is not None:
            if op != "tables":
                raise ProtocolError("'worlds' only applies to op 'tables'")
            if worlds not in WORLDS:
                raise ProtocolError(
                    "'worlds' must be one of {}".format(WORLDS))
        engine = obj.get("engine")
        if engine is not None and not isinstance(engine, str):
            raise ProtocolError("'engine' must be a string")
        trace_id = obj.get("trace_id")
        if trace_id is not None and (
                not isinstance(trace_id, str) or not trace_id):
            raise ProtocolError("'trace_id' must be a non-empty string")
        traceparent = obj.get("traceparent")
        if traceparent is not None:
            from repro.obs.sampler import TraceContext

            try:
                TraceContext.parse(traceparent)
            except ValueError as err:
                raise ProtocolError("bad 'traceparent': {}".format(err))
        debug = obj.get("debug", False)
        if not isinstance(debug, bool):
            raise ProtocolError("'debug' must be a boolean")
        known = {"op", "id", "source", "name", "analysis", "open_world",
                 "worlds", "engine", "trace_id", "traceparent", "debug"}
        return cls(
            op=op,
            id=obj.get("id"),
            source=source,
            name=name,
            analysis=analysis,
            open_world=open_world,
            worlds=worlds,
            engine=engine,
            trace_id=trace_id,
            traceparent=traceparent,
            debug=debug,
            extra={k: v for k, v in obj.items() if k not in known},
        )


def parse_line(line: str) -> Union[Request, List[Request]]:
    """Decode one JSONL input line into a request or a batch."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as err:
        raise ProtocolError("not JSON: {}".format(err))
    if isinstance(obj, list):
        if not obj:
            raise ProtocolError("empty batch")
        return [Request.from_obj(entry) for entry in obj]
    return Request.from_obj(obj)


def ok_response(request_id: object, result: dict,
                trace_id: Optional[str] = None) -> dict:
    response = {"v": PROTOCOL_VERSION, "id": request_id, "ok": True,
                "result": result}
    if trace_id is not None:
        response["trace"] = trace_id
    return response


def error_response(request_id: object, kind: str, message: str,
                   trace_id: Optional[str] = None) -> dict:
    response = {"v": PROTOCOL_VERSION, "id": request_id, "ok": False,
                "error": {"kind": kind, "message": message}}
    if trace_id is not None:
        response["trace"] = trace_id
    return response


def encode_line(response: Union[dict, List[dict]]) -> str:
    """One JSONL output line (object or batch array), newline included."""
    return json.dumps(response, sort_keys=True) + "\n"
