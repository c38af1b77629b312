"""Property tests for the live wire codec (:mod:`repro.runtime.wire`).

Two contracts, driven by Hypothesis:

* **Round trip** — for every encodable link packet,
  ``decode(encode(x))`` reproduces ``x`` field-for-field, and encoding
  is deterministic (same object → same bytes).
* **Robustness** — decoding arbitrary, truncated, or bit-flipped input
  either succeeds or raises :class:`repro.errors.WireDecodeError`.  No
  ``struct.error`` / ``IndexError`` / ``UnicodeDecodeError`` may escape:
  a live node drops bad datagrams, it does not crash on them.
"""

from __future__ import annotations

import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.simulated import SimulatedSignature
from repro.errors import WireDecodeError, WireEncodeError
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
from repro.runtime.wire import (
    HEADER_SIZE,
    MAGIC,
    MAX_BODY,
    VERSION,
    AddrAnnounce,
    AddrQuery,
    AddrReply,
    Datagram,
    decode_datagram,
    encode_datagram,
)
from repro.topology.graph import Topology, edge_key
from repro.topology.mtmw import Mtmw

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
I64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
U32 = st.integers(min_value=0, max_value=2**32 - 1)
U16 = st.integers(min_value=0, max_value=0xFFFF)
SHORT_TEXT = st.text(max_size=40)
NODE_IDS = st.one_of(I64, SHORT_TEXT)
FLOATS = st.floats(allow_nan=False, allow_infinity=False)

SIGNATURES = st.one_of(
    st.none(),
    st.builds(SimulatedSignature, signer=NODE_IDS, tag=I64),
    st.binary(max_size=64),
    I64,
)

MESSAGES = st.builds(
    Message,
    source=NODE_IDS,
    dest=NODE_IDS,
    seq=I64,
    semantics=st.sampled_from([Semantics.PRIORITY, Semantics.RELIABLE]),
    priority=I64,
    expiration=st.one_of(st.none(), FLOATS),
    size_bytes=U32,
    flooding=st.booleans(),
    paths=st.one_of(
        st.none(),
        st.lists(
            st.lists(NODE_IDS, max_size=6).map(tuple), max_size=4
        ).map(tuple),
    ),
    sent_at=FLOATS,
    payload=st.one_of(st.none(), st.binary(max_size=64), SHORT_TEXT),
    signature=SIGNATURES,
)

E2E_ACKS = st.builds(
    E2eAck,
    dest=NODE_IDS,
    stamp=I64,
    cumulative=st.lists(st.tuples(SHORT_TEXT, I64), max_size=8).map(tuple),
    signature=SIGNATURES,
)

NEIGHBOR_ACKS = st.builds(
    NeighborAck,
    sender=NODE_IDS,
    entries=st.lists(
        st.tuples(st.tuples(SHORT_TEXT, SHORT_TEXT), I64, I64), max_size=8
    ).map(tuple),
)

LINK_STATES = st.builds(
    LinkStateUpdate,
    issuer=NODE_IDS,
    edge_a=NODE_IDS,
    edge_b=NODE_IDS,
    weight=FLOATS,
    seqno=I64,
    signature=SIGNATURES,
)

ADMISSION_NACKS = st.builds(
    AdmissionNack,
    ingress=NODE_IDS,
    home=NODE_IDS,
    client=SHORT_TEXT,
    key=SHORT_TEXT,
    outcome=SHORT_TEXT,
    seq=I64,
)


@st.composite
def mtmws(draw) -> Mtmw:
    nodes = draw(st.lists(NODE_IDS, max_size=6, unique=True))
    topo = Topology()
    for node in nodes:
        topo.add_node(node)
    if len(nodes) >= 2:
        endpoint = st.sampled_from(nodes)
        weight = st.floats(min_value=1e-6, max_value=1e6)
        for a, b, w in draw(
            st.lists(st.tuples(endpoint, endpoint, weight), max_size=8)
        ):
            if a != b:
                topo.add_edge(a, b, w)
    return Mtmw(topo, draw(I64), draw(SIGNATURES))


PAYLOADS = st.one_of(
    MESSAGES,
    E2E_ACKS,
    NEIGHBOR_ACKS,
    LINK_STATES,
    st.builds(StateRequest, sender=NODE_IDS),
    st.builds(Hello, sender=NODE_IDS, stamp=I64),
    ADMISSION_NACKS,
    mtmws(),
)


def _por_data(draw) -> PorData:
    packet = PorData(
        epoch=draw(I64),
        seq=draw(I64),
        nonce=draw(st.binary(max_size=32)),
        payload=draw(PAYLOADS),
        wire_size=draw(U32),
    )
    packet.mac = draw(SIGNATURES)
    return packet


def _por_ack(draw) -> PorAck:
    packet = PorAck(
        epoch=draw(I64),
        cum_seq=draw(I64),
        proof=draw(st.binary(max_size=32)),
        missing=tuple(draw(st.lists(I64, max_size=8))),
    )
    packet.mac = draw(SIGNATURES)
    return packet


ENVELOPES = st.one_of(
    st.composite(_por_data)(),
    st.composite(_por_ack)(),
    st.builds(
        PorHandshake,
        sender=NODE_IDS,
        dh_public=st.binary(max_size=64),
        signature=SIGNATURES,
    ),
    st.builds(Hello, sender=NODE_IDS, stamp=I64).map(_HelloWrapper),
    st.builds(
        AddrQuery,
        sender=NODE_IDS,
        nonce=I64,
        targets=st.lists(NODE_IDS, max_size=6).map(tuple),
    ),
    st.builds(
        AddrReply,
        nonce=I64,
        entries=st.lists(
            st.tuples(NODE_IDS, SHORT_TEXT, U16), max_size=6
        ).map(tuple),
    ),
    st.builds(AddrAnnounce, sender=NODE_IDS, host=SHORT_TEXT, port=U16),
)


def assert_payloads_equal(a, b) -> None:
    if isinstance(a, Mtmw):
        # Mtmw compares by identity; compare what the admin signs.
        assert type(b) is Mtmw
        assert (a.seqno, a.signature) == (b.seqno, b.signature)
        ta, tb = a.topology, b.topology
        assert set(ta.nodes) == set(tb.nodes)
        assert {edge_key(x, y): ta.weight(x, y) for x, y in ta.edges()} == {
            edge_key(x, y): tb.weight(x, y) for x, y in tb.edges()
        }
    else:
        assert a == b


def assert_packets_equal(a, b) -> None:
    assert type(a) is type(b)
    if isinstance(a, PorData):
        assert (a.epoch, a.seq, a.nonce, a.wire_size, a.mac) == (
            b.epoch, b.seq, b.nonce, b.wire_size, b.mac
        )
        assert_payloads_equal(a.payload, b.payload)
    elif isinstance(a, PorAck):
        assert (a.epoch, a.cum_seq, a.proof, a.missing, a.mac) == (
            b.epoch, b.cum_seq, b.proof, b.missing, b.mac
        )
    elif isinstance(a, PorHandshake):
        assert (a.sender, a.dh_public, a.signature) == (
            b.sender, b.dh_public, b.signature
        )
    elif isinstance(a, _HelloWrapper):
        assert a.hello == b.hello
    elif isinstance(a, (AddrQuery, AddrReply, AddrAnnounce)):
        assert a == b
    else:  # pragma: no cover - strategy and codec out of sync
        raise AssertionError(f"unexpected packet type {type(a).__name__}")


# ----------------------------------------------------------------------
# Round trip
# ----------------------------------------------------------------------
@given(sender=NODE_IDS, receiver=NODE_IDS, packet=ENVELOPES)
@settings(max_examples=200)
def test_round_trip(sender, receiver, packet):
    data = encode_datagram(sender, receiver, packet)
    # Determinism: the codec has no hidden state.
    assert encode_datagram(sender, receiver, packet) == data
    decoded = decode_datagram(data)
    assert isinstance(decoded, Datagram)
    assert decoded.sender == sender
    assert decoded.receiver == receiver
    assert_packets_equal(decoded.packet, packet)
    # Node ids round-trip *typed*: protocol state keys dicts by them.
    assert type(decoded.sender) is type(sender)
    assert type(decoded.receiver) is type(receiver)


# ----------------------------------------------------------------------
# Robustness: truncation, corruption, junk
# ----------------------------------------------------------------------
@given(
    sender=NODE_IDS,
    receiver=NODE_IDS,
    packet=ENVELOPES,
    data=st.data(),
)
@settings(max_examples=200)
def test_truncation_raises_typed_error(sender, receiver, packet, data):
    encoded = encode_datagram(sender, receiver, packet)
    cut = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
    with pytest.raises(WireDecodeError):
        decode_datagram(encoded[:cut])


@given(
    sender=NODE_IDS,
    receiver=NODE_IDS,
    packet=ENVELOPES,
    data=st.data(),
)
@settings(max_examples=200)
def test_corruption_never_escapes_as_primitive_error(
    sender, receiver, packet, data
):
    encoded = bytearray(encode_datagram(sender, receiver, packet))
    position = data.draw(
        st.integers(min_value=0, max_value=len(encoded) - 1)
    )
    flip = data.draw(st.integers(min_value=1, max_value=255))
    encoded[position] ^= flip
    try:
        decode_datagram(bytes(encoded))
    except WireDecodeError:
        pass  # rejected with the typed error — the only allowed failure


@given(st.binary(max_size=256))
@settings(max_examples=300)
def test_junk_bytes_never_crash(data):
    try:
        decode_datagram(data)
    except WireDecodeError:
        pass


# ----------------------------------------------------------------------
# Header validation specifics
# ----------------------------------------------------------------------
def _valid_datagram() -> bytes:
    return encode_datagram("a", "b", _HelloWrapper(Hello("a", 1)))


def test_bad_magic_rejected():
    data = b"XX" + _valid_datagram()[2:]
    with pytest.raises(WireDecodeError, match="magic"):
        decode_datagram(data)


def test_unknown_version_rejected():
    data = bytearray(_valid_datagram())
    data[2] = VERSION + 1
    with pytest.raises(WireDecodeError, match="version"):
        decode_datagram(bytes(data))


def test_overlength_claim_rejected():
    header = MAGIC + struct.pack(">BBII", VERSION, 0, MAX_BODY + 1, 0)
    with pytest.raises(WireDecodeError, match="maximum"):
        decode_datagram(header + b"\x00" * 16)


def test_length_mismatch_rejected():
    data = _valid_datagram() + b"\x00"
    with pytest.raises(WireDecodeError, match="length mismatch"):
        decode_datagram(data)


def test_trailing_bytes_inside_body_rejected():
    valid = _valid_datagram()
    body = valid[HEADER_SIZE:] + b"\x00"
    header = MAGIC + struct.pack(">BBI", VERSION, 0, len(body))
    data = header + struct.pack(">I", zlib.crc32(header + body)) + body
    with pytest.raises(WireDecodeError, match="trailing"):
        decode_datagram(data)


def test_checksum_mismatch_rejected():
    data = bytearray(_valid_datagram())
    data[-1] ^= 0x40  # flip one bit in the body; header stays plausible
    with pytest.raises(WireDecodeError, match="checksum"):
        decode_datagram(bytes(data))


def test_non_bytes_input_rejected():
    with pytest.raises(WireDecodeError):
        decode_datagram("not bytes")  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Encode-side validation
# ----------------------------------------------------------------------
def test_unsupported_envelope_raises_encode_error():
    with pytest.raises(WireEncodeError):
        encode_datagram("a", "b", object())


def test_unsupported_node_id_raises_encode_error():
    with pytest.raises(WireEncodeError):
        encode_datagram(("tuple", "id"), "b", _HelloWrapper(Hello("a", 1)))


def test_oversized_body_raises_encode_error():
    # A 64 KiB application payload pushes the body past MAX_BODY.
    message = Message(
        source="a",
        dest="b",
        seq=1,
        semantics=Semantics.PRIORITY,
        priority=1,
        expiration=None,
        size_bytes=1,
        flooding=True,
        paths=None,
        sent_at=0.0,
        payload=b"x" * 0xFFFF,
        signature=None,
    )
    packet = PorData(epoch=0, seq=0, nonce=b"", payload=message, wire_size=1)
    with pytest.raises(WireEncodeError, match="max"):
        encode_datagram("a", "b", packet)


def test_unencodable_text_raises_encode_error():
    # A lone surrogate has no UTF-8 encoding.
    with pytest.raises(WireEncodeError):
        encode_datagram("a", "b", _HelloWrapper(Hello("a\ud800", 1)))


def test_non_number_float_field_raises_encode_error():
    update = LinkStateUpdate("a", "a", "b", "heavy", 1)  # type: ignore[arg-type]
    packet = PorData(epoch=0, seq=0, nonce=b"", payload=update, wire_size=1)
    with pytest.raises(WireEncodeError):
        encode_datagram("a", "b", packet)


#: Text that may contain lone surrogates (plain ``st.text`` never does).
SURROGATE_TEXT = st.text(
    st.one_of(st.characters(), st.characters(categories=["Cs"])), max_size=20
)


@given(text=SURROGATE_TEXT, kind=st.integers(min_value=0, max_value=3))
@settings(max_examples=200)
def test_any_text_round_trips_or_raises_encode_error(text, kind):
    # The four places a caller-supplied str reaches the wire: a node id,
    # an application payload, an admission-NACK text and an address host.
    if kind == 0:
        packet = _HelloWrapper(Hello(text, 1))
    elif kind == 1:
        message = Message(
            "a", "b", 1, Semantics.PRIORITY, payload=text, paths=None
        )
        packet = PorData(epoch=0, seq=0, nonce=b"", payload=message, wire_size=1)
    elif kind == 2:
        nack = AdmissionNack("a", "b", text, "k", "expired", 1)
        packet = PorData(epoch=0, seq=0, nonce=b"", payload=nack, wire_size=1)
    else:
        packet = AddrAnnounce("a", text, 9)
    try:
        data = encode_datagram("a", "b", packet)
    except WireEncodeError:
        return
    assert_packets_equal(decode_datagram(data).packet, packet)
