"""The per-layer ledger: which entry points are timed, and the metrics.

:class:`LayerProbe` owns a :class:`~tracer.Tracer`, wraps each layer's
entry points (:meth:`LayerProbe.install` lists what is timed on each
substrate), snapshots the program's own counters when tracing starts
and stops, and turns both into the named per-layer metrics.

Most wrapped names are public.  A few private hooks are wrapped too,
because the event loop or the simulator calls them directly and their
work would otherwise land in the caller's self time: asyncio's
``BaseEventLoop._run_once`` and the overlay scheduler's ``_run`` (their
own dispatch work), the datagram transport's read callback (the
``recvfrom`` before the protocol's ``datagram_received``), the
transport's coalescing ``_flush``, the PoR timer callbacks, the overlay
timers, and the invariant monitor's delivery tap and periodic check.

Every callback the event loop runs (asyncio's ``Handle._run``) and
every event the simulator runs is a *container* span of the layer
``unattributed``: it is not a layer of the ledger, so its self time --
the work of code no wrapper covers -- is counted as unattributed and
lowers the coverage.  The scheduler and the engine are charged only with
their own dispatch and scheduling work.

Layers the workload never reaches report 0 and are listed in
``not_applicable`` with the reason.
"""

from __future__ import annotations

import asyncio.base_events
import asyncio.events
import asyncio.selector_events
import time
from typing import Any, Dict, List

from repro.clients.generators import ClientTier
from repro.crypto.mac import BatchMacContext
from repro.crypto.pki import Pki
from repro.faults.invariants import InvariantMonitor
from repro.link.por import PorEndpoint
from repro.messaging import priority as priority_module
from repro.messaging import reliable as reliable_module
from repro.messaging.admission import AdmissionController
from repro.messaging.message import Message
from repro.messaging.priority import PriorityEngine, PriorityLinkQueue
from repro.messaging.reliable import ReliableEngine
from repro.overlay.node import LinkSender, OverlayNode
from repro.routing.state import RoutingState
from repro.runtime import transport as transport_module
from repro.runtime.scheduler import AsyncioScheduler
from repro.runtime.transport import (
    AsyncioUdpTransport,
    UdpReceiveChannel,
    UdpSendChannel,
)
from repro.sim.channel import Channel
from repro.sim.engine import Simulator

from metrics import percentile
from tracer import Tracer

#: Every per-layer metric as (name, unit, better), in report order.
#: Values are per delivered benchmark message unless the name says
#: otherwise.
PER_LAYER_METRICS = [
    ("transport.rx_frames_per_datagram", "ratio", "higher"),
    ("transport.tx_frames_per_datagram", "ratio", "higher"),
    ("transport.rx_self_us_per_msg", "us", "lower"),
    ("transport.sendto_us_per_msg", "us", "lower"),
    ("transport.drops", "count", "lower"),
    ("wire.encode_us_per_frame", "us", "lower"),
    ("wire.decode_us_per_frame", "us", "lower"),
    ("wire.bytes_per_msg", "bytes", "lower"),
    ("scheduler.callbacks_per_msg", "ratio", "lower"),
    ("scheduler.cpu_util", "ratio", "lower"),
    ("scheduler.generator_late_p99_ms", "ms", "lower"),
    ("por.frames_per_msg", "ratio", "lower"),
    ("por.acks_per_data", "ratio", "lower"),
    ("por.retransmits", "count", "lower"),
    ("por.self_us_per_frame", "us", "lower"),
    ("por.mac_us_per_frame", "us", "lower"),
    ("crypto.sign_us", "us", "lower"),
    ("crypto.verify_us", "us", "lower"),
    ("crypto.verify_per_msg", "ratio", "lower"),
    ("overlay.rx_payloads_per_msg", "ratio", "lower"),
    ("overlay.dispatch_self_us_per_msg", "us", "lower"),
    ("overlay.pump_us_per_msg", "us", "lower"),
    ("overlay.send_us", "us", "lower"),
    ("priority.handle_us_per_frame", "us", "lower"),
    ("priority.duplicate_share", "ratio", "lower"),
    ("priority.queue_wait_p99_ms", "ms", "lower"),
    ("priority.dropped_for_space", "count", "lower"),
    ("priority.expired", "count", "lower"),
    ("reliable.handle_us_per_frame", "us", "lower"),
    ("reliable.e2e_acks_per_msg", "ratio", "lower"),
    ("reliable.neighbor_acks_per_msg", "ratio", "lower"),
    ("reliable.backpressure_refusals", "count", "lower"),
    ("admission.admitted_share", "ratio", "higher"),
    ("admission.rejected", "count", "lower"),
    ("admission.parked", "count", "lower"),
    ("admission.expired", "count", "lower"),
    ("admission.evicted", "count", "lower"),
    ("dissemination.fanout", "ratio", "lower"),
    ("dissemination.us_per_msg", "us", "lower"),
    ("routing.k_paths_calls", "count", "lower"),
    ("routing.route_cache_hit_ratio", "ratio", "higher"),
    ("sim.events_per_msg", "ratio", "lower"),
    ("sim.events_per_cpu_s", "1/s", "higher"),
    ("clients.offered", "count", "higher"),
    ("clients.admitted", "count", "higher"),
    ("clients.parked", "count", "lower"),
    ("clients.rejected", "count", "lower"),
    ("invariants.violations", "count", "lower"),
    ("invariants.us_per_msg", "us", "lower"),
    ("ledger.coverage", "ratio", "higher"),
    ("ledger.unattributed_us_per_msg", "us", "lower"),
    ("ledger.tracing_us_per_msg", "us", "lower"),
    ("ledger.cpu_us_per_msg", "us", "lower"),
    ("overhead.untraced_cpu_us_per_msg", "us", "lower"),
    ("overhead.traced_cpu_us_per_msg", "us", "lower"),
    ("overhead.us_per_msg", "us", "lower"),
]

#: Self-time ledger layers; each also becomes a ``ledger.<layer>_us_per_msg``
#: per-layer metric.
LEDGER_LAYERS = [
    "runtime.scheduler",
    "runtime.transport",
    "runtime.wire",
    "link.por",
    "crypto",
    "overlay.node",
    "messaging.priority",
    "messaging.reliable",
    "messaging.admission",
    "dissemination",
    "routing",
    "sim.engine",
    "clients",
    "faults.invariants",
    "bench",
]

#: Which end-to-end metric each layer's metrics should move, and where.
EXPECTED_MOVES = {
    "runtime.transport": "cpu_us_per_msg and latency_p50_ms on flood-small paced; less on saturated",
    "runtime.wire": "load_cpu_us_per_msg and goodput_msgs_per_s on flood-small most; cpu_us_per_msg on kpaths-reliable-real less; nothing on sim-clients-overload",
    "runtime.scheduler": "latency_p99_ms on both live workloads",
    "link.por": "cpu_us_per_msg on both live workloads",
    "crypto": "latency_p50_ms and cpu_us_per_msg on kpaths-reliable-real; near zero on flood-small",
    "overlay.node": "load_cpu_us_per_msg on flood-small",
    "messaging.priority": "goodput_msgs_per_s and delivery_ratio on flood-small saturated and on sim-clients-overload",
    "messaging.reliable": "bulk goodput_msgs_per_s and latency_p50_ms on kpaths-reliable-real",
    "messaging.admission": "goodput_msgs_per_s and delivery_ratio on sim-clients-overload",
    "dissemination": "cpu_us_per_msg, flooding against K paths",
    "routing": "cpu_us_per_msg on the K=2 workloads",
    "sim.engine": "cpu_us_per_msg on sim-clients-overload only",
    "clients": "delivery_ratio on sim-clients-overload",
    "faults.invariants": "cpu_us_per_msg on the live workloads",
}

#: Layer of the container spans (loop callbacks, simulator events); not
#: in :data:`LEDGER_LAYERS`, so their self time counts as unattributed.
UNATTRIBUTED = "unattributed"

#: Flag a traced run whose layers cover less than this share of its CPU.
MIN_COVERAGE = 0.9


def _message_uid(index: int):
    def uid(args: tuple, result: Any) -> Any:
        return getattr(args[index], "uid", None) if len(args) > index else None

    return uid


def _result_uid(args: tuple, result: Any) -> Any:
    return getattr(result, "uid", None)


def _run_event(callback: Any, *args: Any) -> Any:
    return callback(*args)


class LayerProbe:
    """Wraps the layers, and measures the traced window."""

    def __init__(self, substrate: str, bench_hooks: List[tuple]):
        if substrate not in ("live", "sim"):
            raise ValueError(substrate)
        self.substrate = substrate
        self.tracer = Tracer()
        self.bench_hooks = bench_hooks
        self.queue_waits: List[float] = []
        self._enqueued: Dict[tuple, float] = {}
        self.target: Any = None
        self.before: Dict[str, float] = {}
        self.after: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def install(self) -> None:
        t = self.tracer
        counts = t.counts

        def rx(args: tuple, datagram: Any) -> None:
            if datagram is not None:
                counts["rx_datagrams"] += 1
                counts["rx_frames"] += len(datagram.packets)

        def tx_one(args: tuple, data: Any) -> None:
            if data is not None:
                counts["tx_datagrams"] += 1
                counts["tx_frames"] += 1
                counts["tx_bytes"] += len(data)

        def tx_batch(args: tuple, data: Any) -> None:
            if data is not None:
                counts["tx_datagrams"] += 1
                counts["tx_frames"] += len(args[2])
                counts["tx_bytes"] += len(data)

        def copy_in(args: tuple, _: Any) -> None:
            if len(args) > 2 and args[2] is not None:
                counts["priority_copies"] += 1

        enqueued = self._enqueued
        waits = self.queue_waits

        def offered(args: tuple, stored: Any) -> None:
            if stored and len(args) > 2:
                enqueued[(id(args[0]), args[1].uid)] = args[2]

        def dequeued(args: tuple, message: Any) -> None:
            if message is not None and len(args) > 1:
                began = enqueued.pop((id(args[0]), message.uid), None)
                if began is not None:
                    waits.append(args[1] - began)

        def fanout(args: tuple, targets: Any) -> None:
            counts["fanout_calls"] += 1
            counts["fanout"] += len(targets)

        def successors(args: tuple, result: Any) -> None:
            counts["fanout_calls"] += 1
            counts["fanout"] += len(result[0])

        if self.substrate == "live":
            t.wrap(asyncio.base_events.BaseEventLoop, "_run_once", "runtime.scheduler")
            t.wrap(asyncio.events.Handle, "_run", UNATTRIBUTED)
            t.wrap(AsyncioScheduler, "_run", "runtime.scheduler")
            t.wrap(AsyncioScheduler, "schedule", "runtime.scheduler")
            t.wrap(
                asyncio.selector_events._SelectorDatagramTransport, "_read_ready",
                "runtime.transport",
            )
            t.wrap(AsyncioUdpTransport, "datagram_received", "runtime.transport")
            t.wrap(AsyncioUdpTransport, "sendto", "runtime.transport")
            t.wrap(AsyncioUdpTransport, "sendto_batch", "runtime.transport")
            t.wrap(UdpSendChannel, "send", "runtime.transport")
            t.wrap(UdpSendChannel, "send_batch", "runtime.transport")
            t.wrap(UdpSendChannel, "_flush", "runtime.transport")
            t.wrap(transport_module, "encode_datagram", "runtime.wire", observe=tx_one)
            t.wrap(transport_module, "encode_batch_datagram", "runtime.wire", observe=tx_batch)
            t.wrap(transport_module, "decode_datagram", "runtime.wire", observe=rx)
            t.wrap(UdpReceiveChannel, "deliver", "link.por")
            t.wrap(InvariantMonitor, "_on_delivery", "faults.invariants")
            t.wrap(InvariantMonitor, "_periodic", "faults.invariants")
        else:
            t.wrap(Simulator, "run", "sim.engine")
            self._contain_events()
            t.wrap(Channel, "send", "sim.engine")
            t.wrap(Channel, "_deliver", "link.por")
            t.wrap(ClientTier, "_offer", "clients")
            t.wrap(ClientTier, "_candidate", "clients")
            t.wrap(AdmissionController, "offer", "messaging.admission")
            t.wrap(AdmissionController, "tick", "messaging.admission")
        t.wrap(PorEndpoint, "send", "link.por")
        t.wrap(PorEndpoint, "_on_timeout", "link.por")
        t.wrap(PorEndpoint, "_ack_timer_fire", "link.por")
        t.wrap(PorEndpoint, "_fire_ready", "link.por")
        t.wrap(BatchMacContext, "tag", "link.por.mac")
        t.wrap(BatchMacContext, "verify", "link.por.mac")
        t.wrap(Pki, "mac_tag", "link.por.mac")
        t.wrap(Pki, "verify_mac_tag", "link.por.mac")
        t.wrap(Message, "sign", "crypto", uid=_message_uid(0))
        t.wrap(Message, "verify", "crypto", uid=_message_uid(0))
        t.wrap(Pki, "verify", "crypto")
        t.wrap(OverlayNode, "on_link_deliver", "overlay.node", uid=_message_uid(2))
        t.wrap(OverlayNode, "send_priority", "overlay.node", uid=_result_uid)
        t.wrap(OverlayNode, "send_reliable", "overlay.node")
        t.wrap(OverlayNode, "deliver_local", "overlay.node", uid=_message_uid(1))
        t.wrap(OverlayNode, "_hello_tick", "overlay.node")
        t.wrap(OverlayNode, "_e2e_tick", "overlay.node")
        t.wrap(LinkSender, "pump", "overlay.node")
        t.wrap(PriorityEngine, "handle", "messaging.priority", observe=copy_in, uid=_message_uid(1))
        t.wrap(PriorityLinkQueue, "offer", "messaging.priority", observe=offered)
        t.wrap(PriorityLinkQueue, "next_message", "messaging.priority", observe=dequeued)
        t.wrap(ReliableEngine, "handle", "messaging.reliable", uid=_message_uid(1))
        t.wrap(ReliableEngine, "handle_neighbor_ack", "messaging.reliable")
        t.wrap(ReliableEngine, "handle_e2e_ack", "messaging.reliable")
        t.wrap(ReliableEngine, "next_for_link", "messaging.reliable")
        t.wrap(ReliableEngine, "generate_e2e_ack", "messaging.reliable")
        t.wrap(priority_module, "flood_targets", "dissemination", observe=fanout)
        t.wrap(priority_module, "path_successors", "dissemination", observe=successors)
        t.wrap(reliable_module, "path_targets", "dissemination", observe=fanout)
        t.wrap(RoutingState, "k_paths_tuple", "routing")
        for owner, attr in self.bench_hooks:
            t.wrap(owner, attr, "bench")

    def _contain_events(self) -> None:
        """Schedule every simulator event inside a container span, and
        time the scheduling calls as engine work."""
        t = self.tracer
        event = t.span(UNATTRIBUTED, "Simulator.event", _run_event)
        for attr in ("schedule_at", "schedule_transient_at"):
            original = Simulator.__dict__[attr]

            def contained(
                sim: Any, at: float, callback: Any, *args: Any, _original: Any = original
            ) -> Any:
                return _original(sim, at, event, callback, *args)

            t.patch(Simulator, attr, t.span("sim.engine", f"Simulator.{attr}", contained))

    def uninstall(self) -> None:
        self.tracer.uninstall()

    # ------------------------------------------------------------------
    def _counters(self) -> Dict[str, float]:
        nodes = list(self.target.nodes.values())
        out = {"cpu": time.process_time(), "wall": time.perf_counter()}
        endpoints = [link.por for node in nodes for link in node.links.values()]
        queues = [link.priority_queue for node in nodes for link in node.links.values()]
        out["por_data"] = sum(e.data_sent for e in endpoints)
        out["por_acks"] = sum(e.acks_sent for e in endpoints)
        out["por_retx"] = sum(e.data_retransmitted for e in endpoints)
        out["q_space"] = sum(q.dropped_for_space for q in queues)
        out["q_expired"] = sum(q.dropped_expired for q in queues)
        out["dups"] = sum(n.priority.duplicates_suppressed for n in nodes)
        hits = misses = 0
        for node in nodes:
            h, m, _ = node.routing.route_cache_stats
            hits, misses = hits + h, misses + m
        out["route_hits"], out["route_misses"] = hits, misses
        out["events"] = self.target.sim.events_run
        return out

    def start(self, target: Any) -> None:
        """Begin the traced window on a deployment or network."""
        self.target = target
        self.before = self._counters()
        self.tracer.active = True

    def stop(self) -> None:
        self.tracer.active = False
        self.after = self._counters()

    def delta(self, key: str) -> float:
        return self.after[key] - self.before[key]

    # ------------------------------------------------------------------
    def metrics(
        self,
        delivered: int,
        untraced_cpu_us: float,
        traced_cpu_us: float,
        extra: Dict[str, float],
        not_applicable: Dict[str, str],
    ) -> Dict[str, Any]:
        """The per-layer metric values plus the self-time ledger.

        ``untraced_cpu_us`` / ``traced_cpu_us`` are the workload's
        ``cpu_us_per_msg`` from the untraced and the traced pass; their
        difference is the tracing overhead.  The ledger itself divides
        the whole traced window's CPU by its deliveries: the layers, the
        tracer's bookkeeping (``tracing``) and ``unattributed`` sum to it,
        and coverage is the layers' share of that CPU less bookkeeping."""
        t = self.tracer
        msgs = max(delivered, 1)
        cpu = self.delta("cpu")
        wall = self.delta("wall")
        us = 1e6

        def per(x: float, n: float) -> float:
            return x / n if n else 0.0

        frames_sent = t.calls_of("PorEndpoint.send")
        handles = t.calls_of("PriorityEngine.handle")
        rel_handles = t.calls_of("ReliableEngine.handle")
        dissem = ("flood_targets", "path_successors", "path_targets")
        sends = ("OverlayNode.send_priority", "OverlayNode.send_reliable")
        values: Dict[str, float] = {
            "transport.rx_frames_per_datagram": per(t.counts["rx_frames"], t.counts["rx_datagrams"]),
            "transport.tx_frames_per_datagram": per(t.counts["tx_frames"], t.counts["tx_datagrams"]),
            "transport.rx_self_us_per_msg": t.self_of("AsyncioUdpTransport.datagram_received") * us / msgs,
            "transport.sendto_us_per_msg": t.self_of("AsyncioUdpTransport.sendto", "AsyncioUdpTransport.sendto_batch") * us / msgs,
            "wire.encode_us_per_frame": per(t.total("encode_datagram", "encode_batch_datagram") * us, t.counts["tx_frames"]),
            "wire.decode_us_per_frame": per(t.total("decode_datagram") * us, t.counts["rx_frames"]),
            "wire.bytes_per_msg": t.counts["tx_bytes"] / msgs,
            "scheduler.callbacks_per_msg": self.delta("events") / msgs,
            "scheduler.cpu_util": per(cpu, wall),
            "por.frames_per_msg": frames_sent / msgs,
            "por.acks_per_data": per(self.delta("por_acks"), self.delta("por_data")),
            "por.retransmits": self.delta("por_retx"),
            "por.self_us_per_frame": per(
                sum(v for n, v in t.self_time.items() if t.layer_of[n] == "link.por") * us,
                frames_sent,
            ),
            "por.mac_us_per_frame": per(
                sum(v for n, v in t.total_time.items() if t.layer_of[n] == "link.por.mac") * us,
                frames_sent,
            ),
            "crypto.sign_us": per(t.total("Message.sign") * us, t.calls_of("Message.sign")),
            "crypto.verify_us": per(t.total("Pki.verify") * us, t.calls_of("Pki.verify")),
            "crypto.verify_per_msg": t.calls_of("Message.verify") / msgs,
            "overlay.rx_payloads_per_msg": t.calls_of("OverlayNode.on_link_deliver") / msgs,
            "overlay.dispatch_self_us_per_msg": t.self_of("OverlayNode.on_link_deliver") * us / msgs,
            "overlay.pump_us_per_msg": t.self_of("LinkSender.pump") * us / msgs,
            "overlay.send_us": per(t.total(*sends) * us, t.calls_of(*sends)),
            "priority.handle_us_per_frame": per(t.self_of("PriorityEngine.handle") * us, handles),
            "priority.duplicate_share": per(self.delta("dups"), t.counts["priority_copies"]),
            "priority.queue_wait_p99_ms": (
                percentile(self.queue_waits, 99.0) * 1000.0 if self.queue_waits else 0.0
            ),
            "priority.dropped_for_space": self.delta("q_space"),
            "priority.expired": self.delta("q_expired"),
            "reliable.handle_us_per_frame": per(t.self_of("ReliableEngine.handle") * us, rel_handles),
            "reliable.e2e_acks_per_msg": t.calls_of("ReliableEngine.handle_e2e_ack") / msgs,
            "reliable.neighbor_acks_per_msg": t.calls_of("ReliableEngine.handle_neighbor_ack") / msgs,
            "dissemination.fanout": per(t.counts["fanout"], t.counts["fanout_calls"]),
            "dissemination.us_per_msg": t.total(*dissem) * us / msgs,
            "routing.k_paths_calls": t.calls_of("RoutingState.k_paths_tuple"),
            "routing.route_cache_hit_ratio": per(
                self.delta("route_hits"),
                self.delta("route_hits") + self.delta("route_misses"),
            ),
            "sim.events_per_msg": self.delta("events") / msgs,
            "sim.events_per_cpu_s": per(self.delta("events"), cpu),
            "invariants.us_per_msg": t.total("InvariantMonitor._on_delivery", "InvariantMonitor._periodic") * us / msgs,
        }
        values.update(extra)

        layers = t.layer_self_times()
        layers["link.por"] = layers.get("link.por", 0.0) + layers.pop("link.por.mac", 0.0)
        window_cpu_us = cpu * us / msgs
        ledger = {layer: layers.get(layer, 0.0) * us / msgs for layer in LEDGER_LAYERS}
        covered = sum(ledger.values())
        ledger["tracing"] = t.bookkeeping_s * us / msgs
        ledger["unattributed"] = window_cpu_us - covered - ledger["tracing"]
        program_us = window_cpu_us - ledger["tracing"]
        coverage = covered / program_us if program_us > 0 else 0.0
        values["ledger.coverage"] = coverage
        values["ledger.unattributed_us_per_msg"] = ledger["unattributed"]
        values["ledger.tracing_us_per_msg"] = ledger["tracing"]
        values["ledger.cpu_us_per_msg"] = window_cpu_us
        values["overhead.untraced_cpu_us_per_msg"] = untraced_cpu_us
        values["overhead.traced_cpu_us_per_msg"] = traced_cpu_us
        values["overhead.us_per_msg"] = traced_cpu_us - untraced_cpu_us
        for layer in LEDGER_LAYERS:
            values[f"ledger.{layer}_us_per_msg"] = ledger[layer]
        for name in not_applicable:
            values[name] = 0.0
        return {
            "values": values,
            "ledger_us_per_msg": ledger,
            "coverage": coverage,
            "low_coverage": coverage < MIN_COVERAGE,
            "delivered": delivered,
        }


def per_layer_names() -> List[tuple]:
    """(name, unit, better) of every per-layer metric, ledger layers
    included."""
    names = list(PER_LAYER_METRICS)
    names += [(f"ledger.{layer}_us_per_msg", "us", "lower") for layer in LEDGER_LAYERS]
    return names
