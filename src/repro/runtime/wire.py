"""Deterministic wire codec for live overlay datagrams.

The simulator passes Python objects between nodes by reference; the live
runtime must put them on real UDP sockets.  This module defines the
versioned, length-prefixed datagram format for everything that crosses a
Proof-of-Receipt link: the link envelopes (``PorData``, ``PorAck``,
``PorHandshake``, the out-of-stream hello and the cluster's ``Addr*``
discovery frames), the overlay payloads carried inside ``PorData``, and
the signature material of :mod:`repro.crypto`.

Datagram layout (all integers big-endian)::

    0      2      3        4           8       12
    +------+------+--------+-----------+-------+----------------- - - -
    | "IT" | ver  | flags  | body_len  | crc32 | body (body_len bytes)
    +------+------+--------+-----------+-------+----------------- - - -
    body = sender_id | receiver_id | envelope_tag(1B) | envelope fields

With the :data:`FLAG_BATCH` flag bit set, the body instead carries a
*batch container* — several link envelopes amortizing one datagram, one
header, and one CRC::

    body = sender_id | receiver_id | count(2B) | frames
    frame = frame_len(4B) | envelope_tag(1B) | envelope fields

A single-frame send always uses the classic (flags=0) layout, so batching
is invisible on the wire unless two or more packets actually coalesce.
The CRC-32 covers the header (minus the crc field) plus the body, so any
in-flight bit flip is rejected at decode time instead of reaching
protocol state with a corrupted sequence number or epoch.

**The schema table.**  Every envelope and payload layout is one row of
:data:`_ENVELOPE` or :data:`_PAYLOAD`: a tag, a class, and an ordered
field list built from a handful of field kinds — fixed-width ints and
floats, u16-prefixed bytes and text, tagged unions (node ids,
signatures, application payloads, optional floats) and u16-counted
sequences.  That table is the only place the format lives: both the
encoder and the decoder are compiled from it at import, and a run of
adjacent fixed-width fields becomes one ``Struct.pack`` /
``unpack_from``.  Adding a type takes one table row here and one
strategy line in ``tests/test_runtime_wire.py`` (the golden vectors in
``tests/test_wire_golden.py`` pin the bytes of every existing row).

**Zero-copy decode.**  Decoding wraps the input in a ``memoryview`` and
unpacks fields in place; batch frames are sliced as sub-views.  Only
leaf values that outlive the datagram (bytes, text) are copied.  Every
count prefix is checked against the remaining bytes *before* any loop or
allocation — the budget is the count times the item's minimum encoded
size, derived from the table — so a hostile count fails in O(1).

Malformed input never escapes as ``struct.error`` / ``IndexError`` /
``UnicodeDecodeError``: :func:`decode_datagram` raises
:class:`repro.errors.WireDecodeError` for anything truncated, corrupted,
over-length, or of an unknown version/flag/tag.  Encoding an object the
format cannot carry (an unknown type, an out-of-range integer, a
non-number float, text that is not valid Unicode) raises
:class:`repro.errors.WireEncodeError` and nothing else.  The format is
deterministic: encoding the same object twice yields the same bytes.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from itertools import groupby
from typing import Any, Callable, Optional, Sequence, Tuple

from repro.crypto.simulated import SimulatedSignature
from repro.errors import TopologyError, WireDecodeError, WireEncodeError
from repro.link.por import PorAck, PorData, PorHandshake, _HelloWrapper
from repro.messaging.message import (
    AdmissionNack,
    E2eAck,
    Hello,
    Message,
    NeighborAck,
    Semantics,
    StateRequest,
)
from repro.routing.link_state import LinkStateUpdate
from repro.topology.graph import Topology
from repro.topology.mtmw import Mtmw

MAGIC = b"IT"
VERSION = 2

#: Flag bit marking a batch-container body (N frames in one datagram).
FLAG_BATCH = 0x01

#: All flag bits this codec understands; anything else is rejected.
_KNOWN_FLAGS = FLAG_BATCH

#: Bytes before the body: magic(2) + version(1) + flags(1) + body_len(4)
#: + crc32(4).
HEADER_SIZE = 12

#: Upper bound on an encoded body; larger datagrams are rejected on both
#: sides (a UDP datagram cannot exceed 64 KiB anyway).
MAX_BODY = 60_000

_S_U16 = struct.Struct(">H")
_S_U32 = struct.Struct(">I")
_S_HEAD = struct.Struct(">2sBBI")  # magic, version, flags, body_len
_S_HDR = struct.Struct(">BBII")  # version, flags, body_len, crc

_crc32 = zlib.crc32


@dataclass(frozen=True)
class Datagram:
    """A decoded datagram: who sent it, whom it addresses, and the packet(s).

    ``packet`` is the first (for classic datagrams: only) link envelope;
    ``packets`` carries every frame of a batch container in order.  For a
    classic datagram ``packets == (packet,)``.
    """

    sender: Any
    receiver: Any
    packet: Any
    packets: Tuple[Any, ...] = ()

    def frames(self) -> Tuple[Any, ...]:
        """Every link envelope in this datagram, in wire order."""
        return self.packets if self.packets else (self.packet,)


# ----------------------------------------------------------------------
# Cluster bootstrap-discovery control frames
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AddrQuery:
    """Ask a seed node for the current addresses of ``targets``."""

    sender: Any
    nonce: int
    targets: Tuple[Any, ...]


@dataclass(frozen=True)
class AddrReply:
    """A seed node's answer: ``(node_id, host, port)`` per known target."""

    nonce: int
    entries: Tuple[Tuple[Any, str, int], ...]


@dataclass(frozen=True)
class AddrAnnounce:
    """Advertise that ``sender`` now listens at ``(host, port)``.

    Sent after a supervised restart rebinds a socket and when a joining
    node comes up; receivers treat it purely as an address hint (PoR MACs
    still gate all protocol traffic), so forging one cannot inject state.
    """

    sender: Any
    host: str
    port: int


# ----------------------------------------------------------------------
# Field kinds.  Each has ``size`` (its minimum encoded size, which sets
# the budget of any sequence of it), ``enc(value, out)`` appending to a
# bytearray, and ``dec(view, pos) -> (value, pos)``.  Decoders may let
# ``struct.error`` / ``IndexError`` / ``ValueError`` escape on short or
# bad input; :func:`decode_datagram` turns those into WireDecodeError.
# ----------------------------------------------------------------------
class _Fixed:
    """A fixed-width int or float; adjacent ones in a record share one
    ``Struct``.  ``to_wire`` / ``from_wire`` map non-numeric values."""

    def __init__(
        self,
        fmt: str,
        to_wire: Optional[Callable] = None,
        from_wire: Optional[Callable] = None,
    ):
        self.fmt = fmt
        self.to_wire = to_wire
        self.from_wire = from_wire
        packer = struct.Struct(">" + fmt)
        pack, unpack, size = packer.pack, packer.unpack_from, packer.size
        self.size = size

        # Used alone: a sequence item or a union variant.
        def enc(value: Any, out: bytearray) -> None:
            out += pack(to_wire(value) if to_wire else value)

        def dec(view, pos: int) -> Tuple[Any, int]:
            value = unpack(view, pos)[0]
            return (from_wire(value) if from_wire else value), pos + size

        self.enc, self.dec = enc, dec


def _lookup(table: dict, what: str) -> Callable:
    def convert(key: Any) -> Any:
        try:
            return table[key]
        except KeyError:
            raise WireDecodeError(f"invalid {what} {key!r}") from None

    return convert


def _span(view, pos: int) -> Tuple[int, int]:
    """Bounds of the u16-length-prefixed field at ``pos``."""
    start = pos + 2
    end = start + _S_U16.unpack_from(view, pos)[0]
    if end > len(view):
        raise WireDecodeError(
            f"truncated datagram: field at offset {start} needs "
            f"{end - start} bytes, have {len(view) - start}"
        )
    return start, end


class _Bytes:
    """u16-length-prefixed bytes."""

    size = 2

    @staticmethod
    def enc(value: Any, out: bytearray) -> None:
        out += _S_U16.pack(len(value))
        out += value

    @staticmethod
    def dec(view, pos: int) -> Tuple[Any, int]:
        start, end = _span(view, pos)
        return bytes(view[start:end]), end


class _Text(_Bytes):
    """u16-length-prefixed UTF-8 text."""

    @staticmethod
    def enc(value: Any, out: bytearray) -> None:
        _Bytes.enc(str.encode(value), out)  # TypeError for non-str

    @staticmethod
    def dec(view, pos: int) -> Tuple[Any, int]:
        start, end = _span(view, pos)
        return str(view[start:end], "utf-8"), end


def _no_body(view, pos: int) -> Tuple[None, int]:
    return None, pos


class _Union:
    """A one-byte tag, then the body of the variant that tag names.

    ``variants`` is ``(tag, python type(s), kind)``; a ``None`` kind has
    no body and decodes to ``None``.  Encoding picks the variant by exact
    type first, then by ``isinstance`` in table order, never matching
    ``exclude``.
    """

    def __init__(self, what: str, variants, exclude: tuple = ()):
        self.what = what
        self.exclude = exclude
        self._variants = [
            (types, (tag, kind.enc if kind else None)) for tag, types, kind in variants
        ]
        self._by_type = {}
        for types, variant in self._variants:
            for cls in types if isinstance(types, tuple) else (types,):
                self._by_type.setdefault(cls, variant)
        self._decoders = {
            tag: kind.dec if kind else _no_body for tag, _, kind in variants
        }
        self.size = 1 + min(kind.size if kind else 0 for _, _, kind in variants)

    def enc(self, value: Any, out: bytearray) -> None:
        tag, enc = self._by_type.get(type(value)) or self._match(value)
        out.append(tag)
        if enc is not None:
            enc(value, out)

    def _match(self, value: Any):
        if not isinstance(value, self.exclude):
            for types, variant in self._variants:
                if isinstance(value, types):
                    return variant
        raise WireEncodeError(
            f"{type(value).__name__} is not a supported {self.what} on the wire"
        )

    def dec(self, view, pos: int) -> Tuple[Any, int]:
        try:
            dec = self._decoders[view[pos]]
        except KeyError:
            raise WireDecodeError(f"unknown {self.what} tag {view[pos]}") from None
        return dec(view, pos + 1)


class _Seq:
    """A u16 count, then that many items; decodes to a tuple.  With
    ``nullable``, the count ``0xFFFF`` stands for ``None``."""

    size = 2

    def __init__(self, item, nullable: bool = False):
        self.item = item
        self.nullable = nullable

    def enc(self, value: Any, out: bytearray) -> None:
        if value is None and self.nullable:
            out += b"\xff\xff"
            return
        count = len(value)
        if count == 0xFFFF and self.nullable:
            raise WireEncodeError("sequence of 65535 items collides with None")
        out += _S_U16.pack(count)
        enc = self.item.enc
        for item in value:
            enc(item, out)

    def dec(self, view, pos: int) -> Tuple[Any, int]:
        (count,) = _S_U16.unpack_from(view, pos)
        pos += 2
        if count == 0xFFFF and self.nullable:
            return None, pos
        if count * self.item.size > len(view) - pos:
            raise WireDecodeError(
                f"count {count} exceeds remaining {len(view) - pos} bytes"
            )
        dec = self.item.dec
        items = []
        for _ in range(count):
            item, pos = dec(view, pos)
            items.append(item)
        return tuple(items), pos


class _Record:
    """An ordered field list, compiled once into straight-line code.

    ``fields`` is ``(name, kind)`` pairs in wire order; a name is an
    attribute path, or an index when the record is a plain tuple.  When
    ``get`` is given, encoding reads the field values as ``get(obj)``
    instead.  Decoding returns ``build(*values)``, or the tuple of values
    when ``build`` is ``None``.  Each run of adjacent :class:`_Fixed`
    fields compiles to one ``Struct.pack`` / ``unpack_from``, in the same
    way ``dataclasses`` generates ``__init__``.
    """

    def __init__(
        self, build: Optional[Callable], fields, get: Optional[Callable] = None
    ):
        self.size = sum(kind.size for _, kind in fields)
        env = {"build": build, "get": get}
        enc = ["v = get(obj)"] if get else []
        dec = []
        names = [f"v{i}" for i in range(len(fields))]

        def value(i: int) -> str:
            name = fields[i][0]
            if get:
                return f"v[{i}]"
            return f"obj[{name}]" if isinstance(name, int) else f"obj.{name}"

        runs = groupby(range(len(fields)), lambda i: isinstance(fields[i][1], _Fixed))
        for fixed, run in runs:
            run = list(run)
            if not fixed:
                for i in run:
                    env[f"e{i}"], env[f"d{i}"] = fields[i][1].enc, fields[i][1].dec
                    enc.append(f"e{i}({value(i)}, out)")
                    dec.append(f"v{i}, pos = d{i}(view, pos)")
                continue
            first = run[0]
            packer = struct.Struct(">" + "".join(fields[j][1].fmt for j in run))
            env[f"p{first}"], env[f"u{first}"] = packer.pack, packer.unpack_from
            args = []
            for j in run:
                kind = fields[j][1]
                env[f"t{j}"], env[f"f{j}"] = kind.to_wire, kind.from_wire
                args.append(f"t{j}({value(j)})" if kind.to_wire else value(j))
            enc.append(f"out += p{first}({', '.join(args)})")
            dec.append(f"{', '.join(names[j] for j in run)}, = u{first}(view, pos)")
            dec.append(f"pos += {packer.size}")
            dec.extend(f"v{j} = f{j}(v{j})" for j in run if fields[j][1].from_wire)
        values = ", ".join(names)
        result = f"({values},)" if build is None else f"build({values})"
        exec(
            "def enc(obj, out):\n    " + "\n    ".join(enc) + "\n"
            "def dec(view, pos):\n    " + "\n    ".join(dec)
            + f"\n    return {result}, pos\n",
            env,
        )
        self.enc, self.dec = env["enc"], env["dec"]


def _tuple(*kinds) -> _Record:
    """A plain tuple of fields (a sequence item)."""
    return _Record(None, list(enumerate(kinds)))


# ----------------------------------------------------------------------
# The schema table
# ----------------------------------------------------------------------
_U16 = _Fixed("H")
_U32 = _Fixed("I")
_I64 = _Fixed("q")
_F64 = _Fixed("d")
_BOOL = _Fixed(
    "B", to_wire=bool, from_wire=_lookup({0: False, 1: True}, "boolean byte")
)
_SEMANTICS = _Fixed(
    "B",
    to_wire=lambda value: 1 if value is Semantics.PRIORITY else 2,
    from_wire=_lookup({1: Semantics.PRIORITY, 2: Semantics.RELIABLE}, "semantics byte"),
)
_BYTES = _Bytes()
_TEXT = _Text()

# Node ids round-trip typed: the sim uses ints for the global cloud and
# strings elsewhere, and both are dict keys in protocol state.
_NODE = _Union("node id", [(0, int, _I64), (1, str, _TEXT)], exclude=bool)
# Any non-None value is packed as a float (``float`` listed for speed).
_OPT_F64 = _Union("optional float", [
    (0, type(None), None),
    (1, (float, object), _F64),
])
_APP = _Union("application payload", [
    (0, type(None), None),
    (1, (bytes, bytearray), _BYTES),
    (2, str, _TEXT),
])
_SIGNATURE = _Union("signature", [
    (0, type(None), None),
    (1, SimulatedSignature, _Record(SimulatedSignature, [
        ("signer", _NODE),
        ("tag", _I64),
    ])),
    (2, (bytes, bytearray), _BYTES),
    (3, int, _I64),
])


def _mtmw_fields(mtmw: Mtmw) -> Tuple[Any, ...]:
    topo = mtmw.topology
    edges = sorted(topo.edges(), key=lambda e: (str(e[0]), str(e[1])))
    return (
        mtmw.seqno,
        sorted(topo.nodes, key=str),
        [(a, b, topo.weight(a, b)) for a, b in edges],
        mtmw.signature,
    )


def _mtmw(seqno: int, nodes, edges, signature: Any) -> Mtmw:
    topo = Topology()
    try:
        for node in nodes:
            topo.add_node(node)
        for a, b, weight in edges:
            topo.add_edge(a, b, weight)
    except TopologyError as exc:
        raise WireDecodeError(f"invalid MTMW topology: {exc}") from None
    return Mtmw(topo, seqno, signature)


def _por_data(epoch, seq, nonce, wire_size, mac, payload) -> PorData:
    packet = PorData(epoch, seq, nonce, payload, wire_size)
    packet.mac = mac
    return packet


def _por_ack(epoch, cum_seq, proof, missing, mac) -> PorAck:
    packet = PorAck(epoch, cum_seq, proof, missing)
    packet.mac = mac
    return packet


#: Overlay payloads carried inside ``PorData``.
_PAYLOAD = _Union("payload", [
    (1, Message, _Record(Message, [
        ("source", _NODE),
        ("dest", _NODE),
        ("seq", _I64),
        ("semantics", _SEMANTICS),
        ("priority", _I64),
        ("expiration", _OPT_F64),
        ("size_bytes", _U32),
        ("flooding", _BOOL),
        ("paths", _Seq(_Seq(_NODE), nullable=True)),
        ("sent_at", _F64),
        ("payload", _APP),
        ("signature", _SIGNATURE),
    ])),
    (2, E2eAck, _Record(E2eAck, [
        ("dest", _NODE),
        ("stamp", _I64),
        ("cumulative", _Seq(_tuple(_TEXT, _I64))),
        ("signature", _SIGNATURE),
    ])),
    # Unsigned: only ever carried over the authenticated PoR link.
    (3, NeighborAck, _Record(NeighborAck, [
        ("sender", _NODE),
        ("entries", _Seq(_tuple(_tuple(_TEXT, _TEXT), _I64, _I64))),
    ])),
    (4, LinkStateUpdate, _Record(LinkStateUpdate, [
        ("issuer", _NODE),
        ("edge_a", _NODE),
        ("edge_b", _NODE),
        ("weight", _F64),
        ("seqno", _I64),
        ("signature", _SIGNATURE),
    ])),
    (5, StateRequest, _Record(StateRequest, [("sender", _NODE)])),
    (6, Hello, _Record(Hello, [("sender", _NODE), ("stamp", _I64)])),
    # Successor MTMWs flood over PoR links; the admin signature inside
    # authenticates the topology and MtmwHolder.consider rejects stale or
    # forged candidates.  Nodes and edges go in sorted order.
    (7, Mtmw, _Record(_mtmw, [
        ("seqno", _I64),
        ("nodes", _Seq(_NODE)),
        ("edges", _Seq(_tuple(_NODE, _NODE, _F64))),
        ("signature", _SIGNATURE),
    ], get=_mtmw_fields)),
    # Unsigned like NeighborAck.
    (8, AdmissionNack, _Record(AdmissionNack, [
        ("ingress", _NODE),
        ("home", _NODE),
        ("client", _TEXT),
        ("key", _TEXT),
        ("outcome", _TEXT),
        ("seq", _I64),
    ])),
])

#: Link envelopes: the outermost object of each datagram frame.
_ENVELOPE = _Union("link envelope", [
    (1, PorData, _Record(_por_data, [
        ("epoch", _I64),
        ("seq", _I64),
        ("nonce", _BYTES),
        ("wire_size", _U32),
        ("mac", _SIGNATURE),
        ("payload", _PAYLOAD),
    ])),
    (2, PorAck, _Record(_por_ack, [
        ("epoch", _I64),
        ("cum_seq", _I64),
        ("proof", _BYTES),
        ("missing", _Seq(_I64)),
        ("mac", _SIGNATURE),
    ])),
    (3, PorHandshake, _Record(PorHandshake, [
        ("sender", _NODE),
        ("dh_public", _BYTES),
        ("signature", _SIGNATURE),
    ])),
    (4, _HelloWrapper, _Record(
        lambda sender, stamp: _HelloWrapper(Hello(sender, stamp)),
        [("hello.sender", _NODE), ("hello.stamp", _I64)],
    )),
    # Cluster bootstrap discovery.  These ride outside the PoR link (a
    # joining node has no link yet) and are unauthenticated: acting on
    # one only updates an address hint, never protocol state.
    (5, AddrQuery, _Record(AddrQuery, [
        ("sender", _NODE),
        ("nonce", _I64),
        ("targets", _Seq(_NODE)),
    ])),
    (6, AddrReply, _Record(AddrReply, [
        ("nonce", _I64),
        ("entries", _Seq(_tuple(_NODE, _TEXT, _U16))),
    ])),
    (7, AddrAnnounce, _Record(AddrAnnounce, [
        ("sender", _NODE),
        ("host", _TEXT),
        ("port", _U16),
    ])),
])


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def _encode(sender: Any, receiver: Any, packets: Sequence[Any], flags: int) -> bytes:
    out = bytearray(HEADER_SIZE)
    try:
        _NODE.enc(sender, out)
        _NODE.enc(receiver, out)
        if flags & FLAG_BATCH:
            out += _S_U16.pack(len(packets))
            for packet in packets:
                length_at = len(out)
                out += b"\0\0\0\0"  # frame length, back-patched below
                _ENVELOPE.enc(packet, out)
                _S_U32.pack_into(out, length_at, len(out) - length_at - 4)
        else:
            _ENVELOPE.enc(packets[0], out)
    except (struct.error, TypeError, ValueError) as exc:
        # Out-of-range ints, non-number floats, non-str text, lone
        # surrogates: one bad packet must fail as the typed error.
        raise WireEncodeError(f"unencodable field: {exc}") from None
    body_len = len(out) - HEADER_SIZE
    if body_len > MAX_BODY:
        raise WireEncodeError(f"encoded body is {body_len} bytes (max {MAX_BODY})")
    _S_HEAD.pack_into(out, 0, MAGIC, VERSION, flags, body_len)
    with memoryview(out) as view:
        crc = _crc32(view[HEADER_SIZE:], _crc32(view[:8]))
    _S_U32.pack_into(out, 8, crc)
    return bytes(out)


def encode_datagram(sender: Any, receiver: Any, packet: Any) -> bytes:
    """Encode one link packet as a self-delimiting datagram.

    ``sender`` / ``receiver`` are the overlay node ids of the directed
    link the packet travels on; the receiving transport uses them to
    dispatch to the right PoR endpoint and to drop misdirected traffic.
    """
    return _encode(sender, receiver, (packet,), 0)


def encode_batch_datagram(
    sender: Any, receiver: Any, packets: Sequence[Any]
) -> bytes:
    """Encode several link packets into one batch-container datagram.

    A single packet degenerates to the classic layout (byte-identical to
    :func:`encode_datagram`), so batching never changes unbatched bytes.
    Raises :class:`WireEncodeError` when the batch is empty, has more
    than 65535 frames, or overflows :data:`MAX_BODY`.
    """
    if not packets:
        raise WireEncodeError("empty batch")
    return _encode(sender, receiver, packets, FLAG_BATCH if len(packets) > 1 else 0)


def decode_datagram(data) -> Datagram:
    """Decode one datagram; raises :class:`WireDecodeError` on any defect.

    Accepts ``bytes``, ``bytearray``, or ``memoryview`` (the batched
    receive path hands in views of a reusable receive buffer).  Rejects
    bad magic, unknown versions or flags, truncated bodies, trailing
    garbage, over-length claims, checksum mismatches (bit flips in
    flight), and unknown tags — a live node treats all of these as "not
    our traffic" and drops the datagram.
    """
    if isinstance(data, memoryview):
        view = data
    elif isinstance(data, (bytes, bytearray)):
        view = memoryview(data)
    else:
        raise WireDecodeError(f"expected bytes, got {type(data).__name__}")
    total = len(view)
    if total < HEADER_SIZE:
        raise WireDecodeError(f"datagram too short ({total} bytes)")
    if view[0] != 0x49 or view[1] != 0x54:  # b"IT"
        raise WireDecodeError("bad magic")
    version, flags, body_len, crc = _S_HDR.unpack_from(view, 2)
    if version != VERSION:
        raise WireDecodeError(f"unsupported wire version {version}")
    if flags & ~_KNOWN_FLAGS:
        raise WireDecodeError(f"unknown flag bits 0x{flags:02x}")
    if body_len > MAX_BODY:
        raise WireDecodeError(f"body length {body_len} exceeds maximum")
    if total - HEADER_SIZE != body_len:
        raise WireDecodeError(
            f"length mismatch: header claims {body_len}, "
            f"body has {total - HEADER_SIZE}"
        )
    if _crc32(view[HEADER_SIZE:], _crc32(view[:8])) != crc:
        raise WireDecodeError("checksum mismatch (datagram corrupted in flight)")
    body = view[HEADER_SIZE:]
    try:
        sender, pos = _NODE.dec(body, 0)
        receiver, pos = _NODE.dec(body, pos)
        if flags & FLAG_BATCH:
            (count,) = _S_U16.unpack_from(body, pos)
            pos += 2
            if count == 0:
                raise WireDecodeError("empty batch container")
            # Each frame costs at least a u32 length + a 1-byte tag.
            if count * 5 > body_len - pos:
                raise WireDecodeError(f"batch frame count {count} exceeds body")
            frames = []
            for _ in range(count):
                end = pos + 4 + _S_U32.unpack_from(body, pos)[0]
                if end > body_len:
                    raise WireDecodeError("batch frame overruns the body")
                frame = body[pos + 4:end]
                packet, used = _ENVELOPE.dec(frame, 0)
                if used != len(frame):
                    raise WireDecodeError("trailing bytes after envelope")
                frames.append(packet)
                pos = end
            packets = tuple(frames)
        else:
            packet, pos = _ENVELOPE.dec(body, pos)
            packets = (packet,)
    except (struct.error, IndexError, ValueError, OverflowError) as exc:
        # Short fields surface as struct.error / IndexError, bad UTF-8 as
        # ValueError: no primitive error may escape to the caller.
        raise WireDecodeError(f"malformed datagram: {exc}") from None
    if pos != body_len:
        raise WireDecodeError("trailing bytes after envelope")
    return Datagram(
        sender=sender, receiver=receiver, packet=packets[0], packets=packets
    )
