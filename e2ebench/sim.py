"""The simulator workload: client population overload with admission.

A 16-node chordal ring on the discrete-event simulator, K=2 node-disjoint
paths, 300 kbps links.  The repository's
:class:`~repro.clients.generators.ClientTier` offers Poisson/diurnal
bursts with Zipf destinations and Pareto train lengths at four times its
base rate, every offer passing each node's admission stage configured
with the shipped :data:`~repro.clients.overload.OVERLOAD_ADMISSION`.

The overlay itself is built with a fixed seed; the benchmark seed drives
only the client tier's arrival stream and the hot-destination ranking,
handed to the tier through a small clock adapter.

Every delivery is checked against the message the benchmark saw sent:
same source, destination and sequence number, the tier's payload, and no
second delivery.  Due time is the moment the tier offered the message,
so time a message spent parked at admission counts in its latency.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.clients.generators import ClientTier, ClientWorkloadConfig
from repro.clients.overload import OVERLOAD_ADMISSION
from repro.overlay.config import DisseminationMethod, OverlayConfig
from repro.overlay.network import OverlayNetwork
from repro.sim.rng import RngRegistry
from repro.topology import generators

from metrics import median

NODES = 16
K = 2
LINK_BANDWIDTH_BPS = 3e5
BASE_RATE = 15.0
MULTIPLIER = 4.0
EXPIRE_AFTER = 3.0
TIER_NAME = "bench"
PAYLOAD = f"clients:{TIER_NAME}"

#: Simulated seconds of warm-up and drain around the measured window.
WARMUP = 5.0
DRAIN = 5.0
#: Simulated seconds of measured (steady) window per benchmark second.
STEADY = 12.0


class _SeededClock:
    """What the client tier sees as ``network.sim``: the simulator's
    clock and scheduler, but random streams from the benchmark seed."""

    def __init__(self, sim: Any, seed: int):
        self._sim = sim
        self.rngs = RngRegistry(seed)
        self.schedule = sim.schedule

    @property
    def now(self) -> float:
        return self._sim.now


class _TierView:
    """The client tier's view of the network (``.sim`` and ``.node``)."""

    def __init__(self, network: OverlayNetwork, seed: int):
        self.sim = _SeededClock(network.sim, seed)
        self.node = network.node


def overlay_config() -> OverlayConfig:
    return OverlayConfig(
        admission=OVERLOAD_ADMISSION, link_bandwidth_bps=LINK_BANDWIDTH_BPS
    )


def build_network() -> OverlayNetwork:
    topology = generators.chordal_ring(NODES, chords=2, weight=0.001)
    return OverlayNetwork.build(topology, overlay_config(), seed=0)


class SimChecker:
    """Records every message the tier's offers turn into, and checks
    each delivery against it."""

    def __init__(self, network: OverlayNetwork):
        self.network = network
        #: (source, seq) -> [dest, payload, due, delivered_at]
        self.sent: Dict[Tuple[Any, int], List[Any]] = {}
        self.errors: List[str] = []
        self._due: Optional[float] = None
        for node in network.nodes.values():
            node.send_priority = self._wrap_send(node.send_priority)
            node.admission.offer = self._wrap_offer(node.admission.offer)
            node.delivery_observers.append(self._observe)

    def _wrap_offer(self, offer: Callable[..., Any]) -> Callable[..., Any]:
        sim = self.network.sim

        def timed_offer(source: Any, priority: int, send: Callable[[], None], **kwargs: Any) -> Any:
            offered_at = sim.now

            def timed_send() -> None:
                self._due = offered_at
                try:
                    send()
                finally:
                    self._due = None

            return offer(source, priority, timed_send, **kwargs)

        return timed_offer

    def _wrap_send(self, send: Callable[..., Any]) -> Callable[..., Any]:
        def recorded_send(dest: Any, **kwargs: Any) -> Any:
            message = send(dest, **kwargs)
            due = self._due if self._due is not None else message.sent_at
            self.sent[(message.source, message.seq)] = [
                dest, message.payload, due, None,
            ]
            return message

        return recorded_send

    def _observe(self, message: Any, node: Any) -> None:
        key = (message.source, message.seq)
        record = self.sent.get(key)
        if record is None:
            self.errors.append(f"delivery of a message never sent: {key}")
            return
        dest, payload, _, delivered_at = record
        if delivered_at is not None:
            self.errors.append(f"duplicate delivery of {key}")
            return
        if message.dest != dest or node.node_id != dest:
            self.errors.append(f"{key} for {dest!r} delivered at {node.node_id!r}")
        if message.payload != payload or payload != PAYLOAD:
            self.errors.append(f"{key}: payload differs")
        record[3] = self.network.sim.now

    def latencies(self, low: float, high: float) -> List[float]:
        """Due-to-delivery latencies (s) of messages due in [low, high)."""
        return [
            delivered - due
            for _, _, due, delivered in self.sent.values()
            if delivered is not None and low <= due < high
        ]

    def delivered_between(self, low: float, high: float) -> int:
        return sum(
            1 for record in self.sent.values()
            if record[3] is not None and low <= record[3] < high
        )

    @property
    def delivered(self) -> int:
        return sum(1 for record in self.sent.values() if record[3] is not None)


def run(seed: int, setups: int, scale: float, tracer: Any = None) -> Dict[str, Any]:
    """Build the network ``setups`` times (the last carries the load),
    run warm-up, a steady window of ``STEADY * scale`` simulated seconds
    and drain, and return the raw outcome."""
    steady = STEADY * scale
    setup_times: List[float] = []
    for _ in range(setups - 1):
        began = time.perf_counter()
        build_network()
        setup_times.append(time.perf_counter() - began)
    if tracer is not None:
        tracer.install()
    try:
        began = time.perf_counter()
        network = build_network()
        setup_times.append(time.perf_counter() - began)
        checker = SimChecker(network)
        view = _TierView(network, seed)
        nodes = sorted(network.nodes)
        ranked = list(nodes)
        view.sim.rngs.stream("dest-rank").shuffle(ranked)
        tier = ClientTier(
            view,
            nodes,
            ranked,
            config=ClientWorkloadConfig(
                arrival_rate=BASE_RATE * MULTIPLIER, expire_after=EXPIRE_AFTER
            ),
            method=DisseminationMethod.k_paths(K),
            name=TIER_NAME,
        )
        if tracer is not None:
            tracer.start(network)
        events_before = network.sim.events_run
        cpu0 = time.process_time()
        start = network.sim.now
        tier.start()
        network.run(WARMUP)
        cpu1 = time.process_time()
        network.run(steady)
        cpu2 = time.process_time()
        tier.stop()
        network.run(DRAIN)
        cpu3 = time.process_time()
        if tracer is not None:
            tracer.stop()
        events_run = network.sim.events_run - events_before
    finally:
        if tracer is not None:
            tracer.uninstall()
    low, high = start + WARMUP, start + WARMUP + steady
    return {
        "setup_s": median(setup_times),
        "setup_samples": setup_times,
        "network": network,
        "tier": tier,
        "checker": checker,
        "window": (low, high),
        "cpu_total_s": cpu3 - cpu0,
        "cpu_steady_s": cpu2 - cpu1,
        "events_run": events_run,
    }
