"""Golden wire vectors: the exact bytes of every wire type.

Round-trip properties cannot catch a format change made on the encode
and decode side at once.  These vectors can: each case below is one
fixed instance of a payload or envelope type (plus one 3-frame batch),
and its expected datagram was recorded as hex from the codec before the
schema-table rewrite.  ``encode == golden`` pins the format byte for
byte; ``decode(golden)`` must give back the original object.

Between them the cases cover every node-id kind (int, str), every
signature kind (none, simulated, bytes, int), every application-payload
kind (none, bytes, str), every ``paths`` encoding (the ``0xFFFF`` =
``None`` sentinel, an empty and a real path list) and both
optional-float states.
"""

from __future__ import annotations

import pytest

from repro.crypto.simulated import SimulatedSignature
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
    AddrAnnounce,
    AddrQuery,
    AddrReply,
    decode_datagram,
    encode_batch_datagram,
    encode_datagram,
)
from repro.topology.graph import Topology
from repro.topology.mtmw import Mtmw
from tests.test_runtime_wire import assert_packets_equal


def _data(payload, mac=None, seq=7) -> PorData:
    packet = PorData(epoch=3, seq=seq, nonce=b"\x01\x02\x03\x04", payload=payload,
                     wire_size=300)
    packet.mac = mac
    return packet


def _topology() -> Topology:
    topo = Topology()
    topo.add_edge(1, 2, 1.5)
    topo.add_edge("b", 1, 2.0)
    topo.add_edge(2, "b", 0.25)
    return topo


def _ack() -> PorAck:
    packet = PorAck(epoch=3, cum_seq=41, proof=b"\xaa" * 6, missing=(43, 45))
    packet.mac = b"\x10\x20\x30"
    return packet


#: One fixed instance of each wire type, by case name.
CASES = {
    "message_kpaths": lambda: _data(
        Message(
            source="a", dest=9, seq=12, semantics=Semantics.PRIORITY,
            priority=5, expiration=2.5, size_bytes=512, flooding=False,
            paths=(("a", 4, 9), ("a", "c", 9)), sent_at=1.25,
            payload="hi", signature=SimulatedSignature("a", -77),
        ),
        mac=1234,
    ),
    "message_flood": lambda: _data(
        Message(
            source=1, dest="z", seq=-3, semantics=Semantics.RELIABLE,
            priority=1, expiration=None, size_bytes=0, flooding=True,
            paths=None, sent_at=0.0, payload=b"\x00\xff", signature=None,
        ),
    ),
    "message_bare": lambda: _data(
        Message(source="a", dest="b", seq=0, semantics=Semantics.PRIORITY,
                paths=(), payload=None),
    ),
    "e2e_ack": lambda: _data(
        E2eAck(dest="d", stamp=99, cumulative=(("a", 4), ("b", 0)),
               signature=b"sig"),
        mac=SimulatedSignature(2, 5),
    ),
    "neighbor_ack": lambda: _data(
        NeighborAck(sender=2, entries=((("a", "b"), 3, 10), (("c", "d"), -1, 0)))
    ),
    "link_state": lambda: _data(
        LinkStateUpdate(issuer="a", edge_a="a", edge_b=7, weight=3.75, seqno=8,
                        signature=-1)
    ),
    "state_request": lambda: _data(StateRequest("r")),
    "hello_payload": lambda: _data(Hello(5, 600)),
    "mtmw": lambda: _data(Mtmw(_topology(), 4, SimulatedSignature("admin", 42))),
    "admission_nack": lambda: _data(
        AdmissionNack(ingress=3, home="h", client="c/0", key="c/0#1",
                      outcome="expired", seq=41)
    ),
    "por_ack": _ack,
    "por_handshake": lambda: PorHandshake("a", b"\x05" * 5, b"\x06" * 4),
    "hello_envelope": lambda: _HelloWrapper(Hello("a", 17)),
    "addr_query": lambda: AddrQuery(sender="j", nonce=5, targets=(1, "s")),
    "addr_reply": lambda: AddrReply(
        nonce=5, entries=((1, "127.0.0.1", 4000), ("s", "::1", 65535))
    ),
    "addr_announce": lambda: AddrAnnounce(sender=8, host="10.0.0.8", port=5001),
}

#: The 3-frame batch case: data, ACK and hello on one directed link.
BATCH = "batch3"


def _batch():
    return [
        _data(Hello("a", 1), mac=b"\x01"),
        _ack(),
        _HelloWrapper(Hello("a", 2)),
    ]


def _encode(name: str) -> bytes:
    if name == BATCH:
        return encode_batch_datagram("a", "b", _batch())
    return encode_datagram("a", "b", CASES[name]())


#: Hex of each case's datagram (sender "a", receiver "b").
GOLDEN = {
    "addr_announce": (
        "495402000000001ea2abf4710100016101000162070000000000000000080008"
        "31302e302e302e381389"
    ),
    "addr_query": (
        "4954020000000024760c51410100016101000162050100016a00000000000000"
        "05000200000000000000000101000173"
    ),
    "addr_reply": (
        "495402000000003449edd2300100016101000162060000000000000005000200"
        "000000000000000100093132372e302e302e310fa00100017300033a3a31ffff"
    ),
    "admission_nack": (
        "495402000000004ffee287000100016101000162010000000000000003000000"
        "00000000070004010203040000012c0008000000000000000003010001680003"
        "632f300005632f3023310007657870697265640000000000000029"
    ),
    "batch3": (
        "4954020100000080fc9f2a79010001610100016200030000002c010000000000"
        "00000300000000000000070004010203040000012c0200010106010001610000"
        "0000000000010000003102000000000000000300000000000000290006aaaaaa"
        "aaaaaa0002000000000000002b000000000000002d0200031020300000000d04"
        "010001610000000000000002"
    ),
    "e2e_ack": (
        "4954020000000060a525fb2b0100016101000162010000000000000003000000"
        "00000000070004010203040000012c0100000000000000000200000000000000"
        "0502010001640000000000000063000200016100000000000000040001620000"
        "000000000000020003736967"
    ),
    "hello_envelope": (
        "49540200000000157996d01a0100016101000162040100016100000000000000"
        "11"
    ),
    "hello_payload": (
        "49540200000000366f0747480100016101000162010000000000000003000000"
        "00000000070004010203040000012c0006000000000000000005000000000000"
        "0258"
    ),
    "link_state": (
        "495402000000004fc741441b0100016101000162010000000000000003000000"
        "00000000070004010203040000012c0004010001610100016100000000000000"
        "0007400e000000000000000000000000000803ffffffffffffffff"
    ),
    "message_bare": (
        "4954020000000050bfcb851f0100016101000162010000000000000003000000"
        "00000000070004010203040000012c0001010001610100016200000000000000"
        "0001000000000000000100000003e801000000000000000000000000"
    ),
    "message_flood": (
        "4954020000000059ad681c3a0100016101000162010000000000000003000000"
        "00000000070004010203040000012c00010000000000000000010100017affff"
        "fffffffffffd020000000000000001000000000001ffff000000000000000001"
        "000200ff00"
    ),
    "message_kpaths": (
        "49540200000000a02c7446090100016101000162010000000000000003000000"
        "00000000070004010203040000012c0300000000000004d20101000161000000"
        "000000000009000000000000000c010000000000000005014004000000000000"
        "0000020000000200030100016100000000000000000400000000000000000900"
        "0301000161010001630000000000000000093ff4000000000000020002686901"
        "01000161ffffffffffffffb3"
    ),
    "mtmw": (
        "495402000000009ce9d4987c0100016101000162010000000000000003000000"
        "00000000070004010203040000012c0007000000000000000400030000000000"
        "0000000100000000000000000201000162000300000000000000000100000000"
        "00000000023ff800000000000000000000000000000101000162400000000000"
        "0000000000000000000002010001623fd00000000000000101000561646d696e"
        "000000000000002a"
    ),
    "neighbor_ack": (
        "495402000000005ccb786c020100016101000162010000000000000003000000"
        "00000000070004010203040000012c0003000000000000000002000200016100"
        "01620000000000000003000000000000000a000163000164ffffffffffffffff"
        "0000000000000000"
    ),
    "por_ack": (
        "495402000000003994fe1e490100016101000162020000000000000003000000"
        "00000000290006aaaaaaaaaaaa0002000000000000002b000000000000002d02"
        "0003102030"
    ),
    "por_handshake": (
        "495402000000001b36b0962d0100016101000162030100016100050505050505"
        "02000406060606"
    ),
    "state_request": (
        "4954020000000029a359da790100016101000162010000000000000003000000"
        "00000000070004010203040000012c000501000172"
    ),
}


def test_every_case_has_a_vector():
    assert set(GOLDEN) == set(CASES) | {BATCH}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_encode_matches_golden(name):
    assert _encode(name).hex() == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_decode_golden_returns_original(name):
    datagram = decode_datagram(bytes.fromhex(GOLDEN[name]))
    assert (datagram.sender, datagram.receiver) == ("a", "b")
    originals = _batch() if name == BATCH else [CASES[name]()]
    frames = datagram.frames()
    assert len(frames) == len(originals)
    for original, decoded in zip(originals, frames):
        assert_packets_equal(decoded, original)
