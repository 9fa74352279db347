"""The canonical binary wire codec: encode once, fan out bytes.

Every payload that crosses the simulated wire used to be sized by one
``json.dumps`` (``server.protocol.encoded_size``) and checksummed by a
second one (``net.reliable.payload_checksum``) — per message, per
recipient, and again per retransmission. This module replaces both with
a single canonical encoding, produced exactly once and cached on a
:class:`Frame`:

* **compact binary framing** — varint (LEB128) integers, 8-byte IEEE
  floats, length-prefixed UTF-8 strings, count-prefixed lists/dicts;
* **string interning** — protocol vocabulary (message kinds, envelope
  and payload keys) ships as 2-byte references into a *static table*
  both ends know; other repeated strings are interned HPACK-style: the
  first occurrence travels literally *and* registers in a table, later
  occurrences are back-references. The table is per
  :class:`StringInterner` — persistent on a reliable in-order channel
  (a client uplink, a gateway↔shard route), fresh-per-frame everywhere
  else so one encoding can safely fan out to N recipients;
* **frame caching** — ``Frame.data`` (the bytes), ``Frame.size_bytes``
  and ``Frame.checksum`` (crc32 of the bytes) are computed once; wire
  sizing, the reliable layer's integrity check and every retransmission
  reuse them. ``Frame.payload`` keeps the identity of the payload object
  the bytes encode, so corruption (a swapped payload) is detectable
  without re-encoding.

Envelopes (cluster ``ROUTE``) and batches embed already-encoded frames
as opaque byte strings — a routed or coalesced message is never encoded
twice.

Determinism: encoding depends only on the payload value, dict insertion
order and the interner state, all of which are simulation-deterministic.
No wall clock, no randomness.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Callable, Iterable

from repro.obs import get_registry
from repro.obs.dtrace import TraceContext

#: Transport-level batch kind (a coalesced run of small messages).
#: Unwrapped by the network layer; no node ever receives one.
BATCH = "batch"

#: First byte of a trace-context trailer. Anything after a complete
#: message body must be a well-formed trailer or the frame is malformed.
TRACE_TRAILER_MAGIC = 0xD7

# ----- value tags -----------------------------------------------------------------

_T_NONE = 0
_T_TRUE = 1
_T_FALSE = 2
_T_INT_POS = 3   # varint(n)
_T_INT_NEG = 4   # varint(-n - 1)
_T_FLOAT = 5     # 8 bytes, big-endian IEEE 754
_T_STR = 6       # varint(len) + UTF-8; also registers in the dynamic table
_T_SREF = 7      # varint(static table id)
_T_IREF = 8      # varint(dynamic table id)
_T_BYTES = 9     # varint(len) + raw bytes
_T_LIST = 10     # varint(count) + items
_T_DICT = 11     # varint(count) + key/value pairs (insertion order)

#: Protocol vocabulary both ends know without negotiation. Referenced by
#: position — APPEND ONLY, never reorder: checked-in benchmark snapshots
#: and cross-version traces depend on stable ids.
STATIC_STRINGS: tuple[str, ...] = (
    # message kinds
    "join", "leave", "choice", "operation", "freeze", "release",
    "fetch_payload", "annotate", "monitor",
    "join_ack", "presentation_update", "peer_event", "payload", "broadcast",
    "error", "monitor_ack", "telemetry", "telemetry_event",
    "route", "replicate", "ack", "heartbeat", "promote",
    "net_ack", "batch",
    # envelope / payload keys
    "annotation", "at", "changes", "component", "data", "detail", "diff",
    "doc_id", "domain", "entries", "event", "factor", "global", "interval",
    "kind", "media_ref", "node", "node_id", "op", "outcome", "path",
    "primary", "rect", "replica", "room_id", "room_key", "scope", "seq",
    "sender", "session_id", "sessions", "size", "sizes", "structure", "to",
    "value", "viewer", "viewer_id",
    # common values
    "shared", "personal", "text", "hidden", "full",
    # interest management (appended, never reordered: ids above are pinned)
    "subscribe", "unsubscribe", "subscribe_ack",
    "components", "subscribed", "replace", "all", "layers",
    # gateway tier (appended, never reordered: ids above are pinned)
    "route_report", "route_lookup", "route_info", "route_invalidate",
    "gateway", "op_seq", "shard", "key", "removed",
    # admission control (appended, never reordered: ids above are pinned)
    "retry_after", "after_s", "reason", "deferred", "shed",
)

_STATIC_IDS: dict[str, int] = {s: i for i, s in enumerate(STATIC_STRINGS)}

#: Dynamic tables stop growing here; both ends apply the same bound, so
#: encoder and decoder stay in lockstep without negotiation.
MAX_DYNAMIC_STRINGS = 4096


class StringInterner:
    """One end of a dynamic string table (HPACK-style, append-only).

    The encoder and decoder each hold their own instance and evolve them
    identically: every literal ``_T_STR`` the encoder emits is appended
    to both tables, so a later ``_T_IREF`` resolves to the same string.
    ``reset()`` empties the table — called on (re)connect, because a new
    connection must not depend on a previous connection's state.
    """

    __slots__ = ("_ids", "_strings", "max_entries")

    def __init__(self, max_entries: int = MAX_DYNAMIC_STRINGS) -> None:
        self._ids: dict[str, int] = {}
        self._strings: list[str] = []
        self.max_entries = max_entries

    def __len__(self) -> int:
        return len(self._strings)

    def reset(self) -> None:
        self._ids.clear()
        self._strings.clear()

    def id_of(self, s: str) -> int | None:
        return self._ids.get(s)

    def register(self, s: str) -> None:
        """Append *s* to the table (no-op once the bound is reached)."""
        if len(self._strings) < self.max_entries and s not in self._ids:
            self._ids[s] = len(self._strings)
            self._strings.append(s)

    def lookup(self, table_id: int) -> str:
        return self._strings[table_id]


class CodecError(ValueError):
    """Unencodable value or malformed frame bytes."""


class Frame:
    """One canonical encoding of ``(kind, payload)``, computed once.

    ``payload`` is the *identity* of the object the bytes encode — the
    reliable layer verifies integrity by checking that a delivered
    message still carries this exact object (retransmissions do; a
    chaos-corrupted frame does not), with zero re-encoding.

    ``trace`` mirrors the frame's trace-context trailer (empty for
    unstamped frames); ``_stamped`` keeps the latest stamped variant so
    one cached body fans out under one context with a single trailer
    encode — and a long-lived frame holds one copy, not one per context.
    """

    __slots__ = ("kind", "payload", "data", "checksum", "_uses", "trace", "_stamped")

    def __init__(self, kind: str, payload: Any, data: bytes) -> None:
        self.kind = kind
        self.payload = payload
        self.data = data
        self.checksum = zlib.crc32(data)
        self._uses = 0  # transmissions + embeddings; >1 means bytes reused
        self.trace: tuple[TraceContext, ...] = ()
        self._stamped: "Frame | None" = None

    @property
    def size_bytes(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Frame({self.kind!r}, {self.size_bytes}B, crc={self.checksum:#x})"


# ----- metrics --------------------------------------------------------------------

_metric_registry: Any = None
_metric_handles: tuple[Any, ...] = ()


def _metrics() -> tuple[Any, Any, Any, Any]:
    """(encodes, bytes_encoded, encodes_saved, bytes_saved) counters.

    Resolved against the *current* registry (tests swap registries), but
    cached per registry so the hot path pays one identity check.
    """
    global _metric_registry, _metric_handles
    registry = get_registry()
    if registry is not _metric_registry:
        _metric_registry = registry
        _metric_handles = (
            registry.counter("codec.encodes"),
            registry.counter("codec.bytes_encoded"),
            registry.counter("codec.encodes_saved"),
            registry.counter("codec.bytes_saved"),
        )
    return _metric_handles


def mark_reuse(frame: Frame) -> None:
    """Account one transmission/embedding of *frame*.

    The first use is the encode itself; each further use is an encode
    (and its bytes) that the old per-recipient scheme would have paid.
    """
    frame._uses += 1
    if frame._uses > 1:
        _, _, saved, bytes_saved = _metrics()
        saved.inc()
        bytes_saved.inc(len(frame.data))


_stamp_cache: tuple[Any, Any] | None = None


def _stamp_counter() -> Any:
    """``codec.trace_stamps`` against the current registry (cached)."""
    global _stamp_cache
    registry = get_registry()
    if _stamp_cache is None or _stamp_cache[0] is not registry:
        _stamp_cache = (registry, registry.counter("codec.trace_stamps"))
    return _stamp_cache[1]


# ----- value encoding -------------------------------------------------------------

_pack_float = struct.Struct(">d").pack
_unpack_float = struct.Struct(">d").unpack_from


def _write_varint(out: bytearray, n: int) -> None:
    while n > 0x7F:
        out.append(n & 0x7F | 0x80)
        n >>= 7
    out.append(n)


def _read_varint(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        try:
            byte = data[pos]
        except IndexError:
            raise CodecError("truncated varint") from None
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _static_ref(static_id: int) -> bytes:
    out = bytearray((_T_SREF,))
    _write_varint(out, static_id)
    return bytes(out)


#: Each static string's complete wire form — tag + varint(id) — encoded
#: once at import, so a protocol word costs one lookup and one append.
_STATIC_REFS: dict[str, bytes] = {s: _static_ref(i) for s, i in _STATIC_IDS.items()}


# One writer per wire type, each ``(out, value, interner)``. Counts,
# lengths and ids below 0x80 are their own one-byte varint: tag and
# varint are appended as one pre-built pair.
_SHORT_INTS, _SHORT_STRS, _SHORT_IREFS, _SHORT_LISTS, _SHORT_DICTS = (
    tuple(bytes((tag, n)) for n in range(0x80))
    for tag in (_T_INT_POS, _T_STR, _T_IREF, _T_LIST, _T_DICT)
)


def _write_none(out: bytearray, value: None, interner: StringInterner) -> None:
    out.append(_T_NONE)


def _write_bool(out: bytearray, value: bool, interner: StringInterner) -> None:
    out.append(_T_TRUE if value else _T_FALSE)


def _write_int(out: bytearray, value: int, interner: StringInterner) -> None:
    if 0 <= value < 0x80:
        out += _SHORT_INTS[value]
    elif value >= 0:
        out.append(_T_INT_POS)
        _write_varint(out, value)
    else:
        out.append(_T_INT_NEG)
        _write_varint(out, -value - 1)


def _write_float(out: bytearray, value: float, interner: StringInterner) -> None:
    out.append(_T_FLOAT)
    out += _pack_float(value)


def _write_str(out: bytearray, value: str, interner: StringInterner) -> None:
    ref = _STATIC_REFS.get(value)
    if ref is not None:
        out += ref
        return
    table_id = interner._ids.get(value)
    if table_id is not None:
        if table_id < 0x80:
            out += _SHORT_IREFS[table_id]
        else:
            out.append(_T_IREF)
            _write_varint(out, table_id)
        return
    encoded = value.encode("utf-8")
    length = len(encoded)
    if length < 0x80:
        out += _SHORT_STRS[length]
    else:
        out.append(_T_STR)
        _write_varint(out, length)
    out += encoded
    interner.register(value)


def _write_bytes(
    out: bytearray, value: bytes | bytearray | memoryview, interner: StringInterner
) -> None:
    out.append(_T_BYTES)
    # A view's len() counts items; nbytes is what the buffer appends.
    _write_varint(out, value.nbytes if type(value) is memoryview else len(value))
    out += value


def _write_list(out: bytearray, value: list | tuple, interner: StringInterner) -> None:
    count = len(value)
    if count < 0x80:
        out += _SHORT_LISTS[count]
    else:
        out.append(_T_LIST)
        _write_varint(out, count)
    writers = _WRITERS
    for item in value:
        (writers.get(type(item)) or _subclass_writer(item))(out, item, interner)


def _write_dict(out: bytearray, value: dict, interner: StringInterner) -> None:
    count = len(value)
    if count < 0x80:
        out += _SHORT_DICTS[count]
    else:
        out.append(_T_DICT)
        _write_varint(out, count)
    writers = _WRITERS
    static_refs = _STATIC_REFS
    for key, item in value.items():
        # Keys are nearly always protocol vocabulary: write the
        # pre-encoded reference here and skip the dispatch.
        ref = static_refs.get(key)
        if ref is not None and type(key) is str:
            out += ref
        else:
            (writers.get(type(key)) or _subclass_writer(key))(out, key, interner)
        if type(item) is str and item in static_refs:
            out += static_refs[item]
        else:
            (writers.get(type(item)) or _subclass_writer(item))(out, item, interner)


#: Exact type → writer. Insertion order is the precedence
#: :func:`_subclass_writer` scans in.
_WRITERS: dict[type, Callable[[bytearray, Any, StringInterner], None]] = {
    str: _write_str,
    dict: _write_dict,
    int: _write_int,
    bool: _write_bool,
    type(None): _write_none,
    float: _write_float,
    list: _write_list,
    tuple: _write_list,
    bytes: _write_bytes,
    bytearray: _write_bytes,
    memoryview: _write_bytes,
}


def _subclass_writer(value: Any) -> Callable[[bytearray, Any, StringInterner], None]:
    """The writer for a *subclass* of a wire type (``IntEnum``,
    ``defaultdict``, …) — the exact-type table missed."""
    for base, writer in _WRITERS.items():
        if isinstance(value, base):
            return writer
    raise CodecError(f"cannot encode {type(value).__name__} value {value!r}")


def _write_value(out: bytearray, value: Any, interner: StringInterner) -> None:
    (_WRITERS.get(type(value)) or _subclass_writer(value))(out, value, interner)


def _read_value(data: bytes, pos: int, interner: StringInterner) -> tuple[Any, int]:
    try:
        tag = data[pos]
    except IndexError:
        raise CodecError("truncated frame: missing value tag") from None
    pos += 1
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_INT_POS:
        return _read_varint(data, pos)
    if tag == _T_INT_NEG:
        n, pos = _read_varint(data, pos)
        return -n - 1, pos
    if tag == _T_FLOAT:
        if pos + 8 > len(data):
            raise CodecError("truncated float")
        return _unpack_float(data, pos)[0], pos + 8
    if tag == _T_STR:
        length, pos = _read_varint(data, pos)
        if pos + length > len(data):
            raise CodecError("truncated string")
        s = data[pos : pos + length].decode("utf-8")
        interner.register(s)
        return s, pos + length
    if tag == _T_SREF:
        static_id, pos = _read_varint(data, pos)
        try:
            return STATIC_STRINGS[static_id], pos
        except IndexError:
            raise CodecError(f"unknown static string id {static_id}") from None
    if tag == _T_IREF:
        table_id, pos = _read_varint(data, pos)
        try:
            return interner.lookup(table_id), pos
        except IndexError:
            raise CodecError(f"dangling intern reference {table_id}") from None
    if tag == _T_BYTES:
        length, pos = _read_varint(data, pos)
        if pos + length > len(data):
            raise CodecError("truncated bytes")
        return bytes(data[pos : pos + length]), pos + length
    if tag == _T_LIST:
        count, pos = _read_varint(data, pos)
        items = []
        for _ in range(count):
            item, pos = _read_value(data, pos, interner)
            items.append(item)
        return items, pos
    if tag == _T_DICT:
        count, pos = _read_varint(data, pos)
        result: dict[Any, Any] = {}
        for _ in range(count):
            key, pos = _read_value(data, pos, interner)
            value, pos = _read_value(data, pos, interner)
            result[key] = value
        return result, pos
    raise CodecError(f"unknown value tag {tag}")


# ----- trace-context trailers -----------------------------------------------------

def encode_trace_trailer(contexts: tuple[TraceContext, ...]) -> bytes:
    """Encode contexts as one trailer: magic, count, then per context
    varints of (trace id, parent span id, hop count, sent-at µs)."""
    out = bytearray((TRACE_TRAILER_MAGIC,))
    _write_varint(out, len(contexts))
    for ctx in contexts:
        _write_varint(out, ctx.trace_id)
        _write_varint(out, ctx.span_id)
        _write_varint(out, ctx.hop)
        _write_varint(out, ctx.sent_at_us)
    return bytes(out)


def read_trace_trailers(
    data: bytes, pos: int
) -> tuple[tuple[TraceContext, ...], int]:
    """Parse consecutive trailers from *pos* to the end of *data*.

    Re-stamping appends a fresh trailer rather than rewriting bytes (the
    wire keeps its hop-by-hop provenance), so a frame may carry several;
    the **last** trailer is the current context set. Anything that is
    not a well-formed trailer raises :class:`CodecError`.
    """
    contexts: tuple[TraceContext, ...] = ()
    while pos < len(data):
        if data[pos] != TRACE_TRAILER_MAGIC:
            raise CodecError(f"{len(data) - pos} trailing bytes after message")
        pos += 1
        count, pos = _read_varint(data, pos)
        parsed = []
        for _ in range(count):
            trace_id, pos = _read_varint(data, pos)
            span_id, pos = _read_varint(data, pos)
            hop, pos = _read_varint(data, pos)
            sent_at_us, pos = _read_varint(data, pos)
            parsed.append(TraceContext(trace_id, span_id, hop, sent_at_us))
        contexts = tuple(parsed)
    return contexts, pos


def stamp_frame(frame: Frame, contexts: tuple[TraceContext, ...]) -> Frame:
    """Stamp trace *contexts* onto *frame* — zero body re-encodes.

    Returns a new :class:`Frame` sharing the original body bytes with a
    trailer appended; the checksum extends incrementally and ``payload``
    keeps its identity, so the reliable layer's integrity check is
    unaffected. Stamping an already-stamped frame appends a second
    trailer (last wins on decode). The source frame remembers its latest
    variant, so a fan-out under one context set reuses one stamped
    encoding.
    """
    stamped = frame._stamped
    if stamped is None or stamped.trace != contexts:
        trailer = encode_trace_trailer(contexts)
        stamped = Frame.__new__(Frame)
        stamped.kind = frame.kind
        stamped.payload = frame.payload
        stamped.data = frame.data + trailer
        stamped.checksum = zlib.crc32(trailer, frame.checksum)
        stamped._uses = 0
        stamped.trace = contexts
        stamped._stamped = None
        frame._stamped = stamped
        _stamp_counter().inc()
    return stamped


# ----- frames ---------------------------------------------------------------------

def encode_message(kind: str, payload: Any, interner: StringInterner | None = None) -> Frame:
    """Encode one ``(kind, payload)`` message into a cached :class:`Frame`.

    Without an *interner* the dynamic table is fresh-per-frame (strings
    repeated *within* the payload still compress) — the safe mode for
    frames that fan out to many recipients. With one, repeated strings
    compress *across* frames on that connection.
    """
    table = interner if interner is not None else StringInterner()
    out = bytearray(_STATIC_REFS.get(kind, b""))  # a protocol kind is pre-encoded
    if not out:
        _write_value(out, kind, table)
    _write_value(out, payload, table)
    data = bytes(out)
    encodes, bytes_encoded, _, _ = _metrics()
    encodes.inc()
    bytes_encoded.inc(len(data))
    return Frame(kind, payload, data)


def decode_message(
    data: bytes, interner: StringInterner | None = None
) -> tuple[str, Any]:
    """Decode a frame produced by :func:`encode_message`.

    A trace-context trailer after the body is validated and skipped;
    use :func:`decode_message_traced` to read it.
    """
    kind, payload, _ = decode_message_traced(data, interner)
    return kind, payload


def decode_message_traced(
    data: bytes, interner: StringInterner | None = None
) -> tuple[str, Any, tuple[TraceContext, ...]]:
    """Decode a message plus its (possibly empty) trace contexts."""
    table = interner if interner is not None else StringInterner()
    kind, pos = _read_value(data, 0, table)
    payload, pos = _read_value(data, pos, table)
    contexts: tuple[TraceContext, ...] = ()
    if pos != len(data):
        contexts, pos = read_trace_trailers(data, pos)
    return kind, payload, contexts


def encode_envelope(
    kind: str,
    header: dict[str, Any],
    inner: Frame,
    payload: Any,
    interner: StringInterner | None = None,
) -> Frame:
    """Encode a routing envelope around an already-encoded inner frame.

    The inner frame is embedded as opaque bytes — routed messages are
    never re-encoded. *payload* is the message-payload object the
    envelope frame stands for (the wrapper dict handed to the network).
    """
    table = interner if interner is not None else StringInterner()
    out = bytearray(_STATIC_REFS.get(kind, b""))  # a protocol kind is pre-encoded
    if not out:
        _write_value(out, kind, table)
    _write_value(out, header, table)
    _write_varint(out, len(inner.data))
    out += inner.data
    mark_reuse(inner)
    data = bytes(out)
    encodes, bytes_encoded, _, _ = _metrics()
    encodes.inc()
    bytes_encoded.inc(len(data) - len(inner.data))
    return Frame(kind, payload, data)


def decode_envelope(
    data: bytes,
    interner: StringInterner | None = None,
    inner_interner: StringInterner | None = None,
) -> tuple[str, dict[str, Any], tuple[str, Any]]:
    """Decode an envelope: ``(kind, header, (inner_kind, inner_payload))``.

    The embedded frame decodes against *inner_interner* — the table of
    the connection the inner frame was originally encoded on, distinct
    from the envelope's own channel table.
    """
    kind, header, inner, _ = decode_envelope_traced(data, interner, inner_interner)
    return kind, header, inner


def decode_envelope_traced(
    data: bytes,
    interner: StringInterner | None = None,
    inner_interner: StringInterner | None = None,
) -> tuple[str, dict[str, Any], tuple[str, Any], tuple[TraceContext, ...]]:
    """Decode an envelope plus the envelope's own trace contexts.

    The embedded frame keeps its own trailer (if any) inside the
    length-prefixed bytes; a trailer *after* them belongs to the
    envelope hop.
    """
    table = interner if interner is not None else StringInterner()
    kind, pos = _read_value(data, 0, table)
    header, pos = _read_value(data, pos, table)
    length, pos = _read_varint(data, pos)
    end = pos + length
    if end > len(data):
        raise CodecError("envelope inner-frame length mismatch")
    inner = decode_message(data[pos:end], inner_interner)
    contexts: tuple[TraceContext, ...] = ()
    if end != len(data):
        contexts, _ = read_trace_trailers(data, end)
    return kind, header, inner, contexts


def encode_batch(frames: Iterable[Frame], payload: Any) -> Frame:
    """Coalesce already-encoded frames into one ``BATCH`` frame.

    Sub-frames are embedded as opaque bytes (no re-encode). *payload* is
    the entry list the network layer unwraps at delivery.
    """
    frames = list(frames)
    out = bytearray(_STATIC_REFS[BATCH])
    _write_varint(out, len(frames))
    embedded = 0
    for frame in frames:
        _write_varint(out, len(frame.data))
        out += frame.data
        embedded += len(frame.data)
        mark_reuse(frame)
    data = bytes(out)
    encodes, bytes_encoded, _, _ = _metrics()
    encodes.inc()
    bytes_encoded.inc(len(data) - embedded)
    return Frame(BATCH, payload, data)


def decode_batch(
    data: bytes, inner_interner: StringInterner | None = None
) -> list[tuple[str, Any]]:
    """Decode a ``BATCH`` frame into its ``(kind, payload)`` entries."""
    entries, _ = decode_batch_traced(data, inner_interner)
    return entries


def decode_batch_traced(
    data: bytes, inner_interner: StringInterner | None = None
) -> tuple[list[tuple[str, Any]], tuple[TraceContext, ...]]:
    """Decode a batch plus its member trace contexts (span links).

    A traced batch carries exactly one context per coalesced member, in
    entry order (:data:`repro.obs.dtrace.NULL_CONTEXT` for untraced
    members), linking each member's span chain through the shared frame.
    """
    table = StringInterner()
    kind, pos = _read_value(data, 0, table)
    if kind != BATCH:
        raise CodecError(f"not a batch frame: kind {kind!r}")
    count, pos = _read_varint(data, pos)
    entries = []
    for _ in range(count):
        length, pos = _read_varint(data, pos)
        if pos + length > len(data):
            raise CodecError("truncated batch entry")
        entries.append(decode_message(data[pos : pos + length], inner_interner))
        pos += length
    contexts: tuple[TraceContext, ...] = ()
    if pos != len(data):
        contexts, _ = read_trace_trailers(data, pos)
    return entries, contexts


# ----- stateless measurement (no metrics, no shared tables) -----------------------

def _varint_len(n: int) -> int:
    """Bytes :func:`_write_varint` emits for *n* (7 payload bits each)."""
    return (n.bit_length() + 6) // 7 or 1


#: Size of each static string on the wire: tag + varint(static id).
_STATIC_SIZES: dict[str, int] = {
    s: 1 + _varint_len(i) for s, i in _STATIC_IDS.items()
}


def _sized(value: Any, table: dict[str, int]) -> int:
    """Bytes :func:`_write_value` would append for *value*.

    *table* stands in for a fresh :class:`StringInterner`: the same
    registration rule and bound, mapping each registered string to the
    size of a ``_T_IREF`` to it (tag + varint of its registration
    order), so every later occurrence costs what the encoder would
    write. Deliberately not built on the writer table: this is the
    independent arithmetic that the size == stateless-encode property
    checks the writers against.
    """
    if isinstance(value, str):
        size = _STATIC_SIZES.get(value) or table.get(value)
        if not size:
            # Non-ASCII text is measured by encoding it: the one temporary,
            # and it raises exactly what the encoder raises on a lone surrogate.
            length = len(value) if value.isascii() else len(value.encode("utf-8"))
            size = length + (2 if length < 0x80 else 1 + _varint_len(length))
            count = len(table)
            if count < MAX_DYNAMIC_STRINGS:
                table[value] = 2 if count < 0x80 else 1 + _varint_len(count)
        return size
    if isinstance(value, dict):
        # One pass: the string arm above, inline for each str key and str
        # item (a whole outcome is a flat str -> str mapping, and a call
        # per string was most of sizing one); anything else recurses.
        size = 1 + _varint_len(len(value))
        static_sizes = _STATIC_SIZES
        for key, item in value.items():
            if type(key) is str:
                known = static_sizes.get(key) or table.get(key)
                if not known:
                    length = len(key) if key.isascii() else len(key.encode("utf-8"))
                    known = length + (2 if length < 0x80 else 1 + _varint_len(length))
                    count = len(table)
                    if count < MAX_DYNAMIC_STRINGS:
                        table[key] = 2 if count < 0x80 else 1 + _varint_len(count)
                size += known
            else:
                size += _sized(key, table)
            if type(item) is str:
                known = static_sizes.get(item) or table.get(item)
                if not known:
                    length = len(item) if item.isascii() else len(item.encode("utf-8"))
                    known = length + (2 if length < 0x80 else 1 + _varint_len(length))
                    count = len(table)
                    if count < MAX_DYNAMIC_STRINGS:
                        table[item] = 2 if count < 0x80 else 1 + _varint_len(count)
                size += known
            else:
                size += _sized(item, table)
        return size
    if value is None or value is True or value is False:
        return 1
    if isinstance(value, int):
        return 1 + _varint_len(value if value >= 0 else -value - 1)
    if isinstance(value, float):
        return 9
    if isinstance(value, (list, tuple)):
        size = 1 + _varint_len(len(value))
        for item in value:
            size += _sized(item, table)
        return size
    if isinstance(value, (bytes, bytearray, memoryview)):
        # A view's len() counts items; the wire carries nbytes.
        raw = value.nbytes if isinstance(value, memoryview) else len(value)
        return 1 + _varint_len(raw) + raw
    raise CodecError(f"cannot encode {type(value).__name__} value {value!r}")


def value_size(value: Any) -> int:
    """Canonical encoded size of one value, computed without encoding it.

    Pure arithmetic over the value: tag bytes, varint lengths, UTF-8
    lengths, static and per-value intern references — the length of the
    stateless :func:`_write_value` encoding, with no buffer, no
    :class:`StringInterner` and no ``codec.*`` metric touched. This is
    what :func:`repro.server.protocol.encoded_size` charges for payloads
    that never got a cached frame. ``bytes`` payloads are counted at raw
    length inside the framing, exactly as on the wire.
    """
    return _sized(value, {})


def checksum_of(kind: str, payload: Any) -> int:
    """crc32 over the stateless canonical encoding of ``(kind, payload)``.

    The fallback integrity check for messages without a cached frame
    (tests poking the network directly, tiny transport acks). Matches
    ``Frame.checksum`` for frames encoded without a connection table.
    """
    out = bytearray()
    table = StringInterner()
    _write_value(out, kind, table)
    _write_value(out, payload, table)
    return zlib.crc32(out)
