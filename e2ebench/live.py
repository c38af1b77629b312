"""Live-loopback workloads: boot the overlay, offer seeded load, check.

The overlay is driven only through its public API: a
:class:`~repro.runtime.live.LiveDeployment` with its built-in traffic
off, messages offered with :meth:`OverlayNode.send_priority` /
:meth:`OverlayNode.send_reliable`, and arrivals timestamped by
:attr:`OverlayNode.on_deliver`.  Every message carries a benchmark tag
(flow index and message index) in its first eight payload bytes, so each
delivery is matched to exactly one request and checked byte for byte.

A run is two open-loop phases of equal length, each followed by a
drain:

* a *paced* phase at a light fixed rate (the event loop about half
  busy), which gives due-time latency and CPU per message;
* a *load* phase at a fixed rate that keeps the loop about 70% busy,
  which gives goodput and CPU per message under load.

On these workloads goodput only checks that the program keeps up with
the offered load rate; CPU per message in the load phase is the capacity
signal.  The load phase stays below saturation on purpose.  Once the loop
saturates, Proof-of-Receipt retransmission timers fire on ACKs that are
merely queued (about 150,000 retransmissions in 13 s of closed-loop
flooding), and goodput then swung by 20-40% between runs of the same
code.  The 30% headroom also keeps a slower period of a shared machine
from tipping the phase into that regime.
"""

from __future__ import annotations

import asyncio
import functools
import random
import struct
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.messaging.message import Semantics
from repro.overlay.config import CryptoMode, DisseminationMethod, OverlayConfig
from repro.runtime.live import LiveConfig, LiveDeployment, flow_plan

from metrics import Phase, Request, median

_TAG = struct.Struct(">II")

#: Seconds between retries of a reliable flow held back by back-pressure.
BACKPRESSURE_POLL = 0.002
#: Seconds of each phase before its steady window opens.
WARMUP = 1.0
#: The phases of an untraced run, in order.
PHASES = ("paced", "load")
#: Drain ends when this long passes without a new delivery ...
DRAIN_QUIET = 0.5
#: ... or after this long in any case.
DRAIN_CAP = 3.0


@dataclass(frozen=True)
class LiveWorkload:
    """One live workload: topology size, crypto, semantics and rates."""

    name: str
    crypto: CryptoMode
    method: DisseminationMethod
    semantics: Semantics
    payload_bytes: int
    #: Open-loop rates of the two phases, messages/s per flow.
    paced_rate: float
    load_rate: float
    nodes: int = 6

    def config(self) -> LiveConfig:
        return LiveConfig(
            nodes=self.nodes,
            seed=0,
            method=self.method,
            flow_traffic=False,
            overlay=OverlayConfig(crypto=self.crypto),
        )


class Harness:
    """Offers requests to a started deployment and checks deliveries."""

    def __init__(self, deployment: LiveDeployment, workload: LiveWorkload, seed: int):
        self.deployment = deployment
        self.workload = workload
        self.sim = deployment.sim
        self.rng = random.Random(f"{workload.name}:{seed}")
        self.flows: List[Tuple[Any, Any]] = [
            (source, dest)
            for source, dest, _ in flow_plan(sorted(deployment.topology.nodes))
        ]
        self.requests: Dict[Tuple[int, int], Request] = {}
        self._next_index = [0] * len(self.flows)
        self._next_seq = [0] * len(self.flows)
        self._last_seq = [0] * len(self.flows)
        self._fifo: List[Deque[Request]] = [deque() for _ in self.flows]
        self._poll: Optional[asyncio.TimerHandle] = None
        self.phase: Optional[Phase] = None
        self.errors: List[str] = []
        self.last_delivery = 0.0
        for _, dest in self.flows:
            deployment.node(dest).on_deliver = functools.partial(self._receive, dest)

    # ------------------------------------------------------------------
    # Requests and the send path
    # ------------------------------------------------------------------
    def new_request(self, flow: int, due: float) -> Request:
        index = self._next_index[flow]
        self._next_index[flow] = index + 1
        filler = self.rng.randbytes(self.workload.payload_bytes - _TAG.size)
        request = Request(flow, index, due, _TAG.pack(flow, index) + filler)
        self.requests[(flow, index)] = request
        self.phase.requests.append(request)
        return request

    def offer(self, request: Request) -> None:
        """Hand a due request to the overlay (or its flow's FIFO)."""
        if self.workload.semantics is Semantics.PRIORITY:
            source, dest = self.flows[request.flow]
            message = self.deployment.node(source).send_priority(
                dest,
                size_bytes=len(request.payload),
                method=self.workload.method,
                payload=request.payload,
            )
            request.injected_at = self.sim.now
            request.seq = message.seq
            return
        self._fifo[request.flow].append(request)
        self.flush(request.flow)

    def flush(self, flow: int) -> None:
        """Send queued reliable requests while back-pressure allows; each
        time it stops short of the backlog counts as a refusal."""
        fifo = self._fifo[flow]
        source, dest = self.flows[flow]
        node = self.deployment.node(source)
        while fifo and node.reliable_can_send(dest):
            request = fifo[0]
            if not node.send_reliable(
                dest,
                size_bytes=len(request.payload),
                method=self.workload.method,
                payload=request.payload,
            ):
                break
            fifo.popleft()
            self._next_seq[flow] += 1
            request.seq = self._next_seq[flow]
            request.injected_at = self.sim.now
        if fifo:
            self.phase.refusals += 1
            self._arm_poll()

    def _arm_poll(self) -> None:
        if self._poll is None:
            self._poll = asyncio.get_event_loop().call_later(
                BACKPRESSURE_POLL, self._on_poll
            )

    def _on_poll(self) -> None:
        self._poll = None
        for flow, fifo in enumerate(self._fifo):
            if fifo:
                self.flush(flow)

    def backlog(self) -> int:
        return sum(len(fifo) for fifo in self._fifo)

    def cancel(self) -> None:
        if self._poll is not None:
            self._poll.cancel()
            self._poll = None

    # ------------------------------------------------------------------
    # Delivery checks
    # ------------------------------------------------------------------
    def _receive(self, node_id: Any, message: Any) -> None:
        now = self.sim.now
        self.last_delivery = now
        payload = message.payload
        if not isinstance(payload, bytes) or len(payload) < _TAG.size:
            self.errors.append(f"untagged delivery at {node_id!r}: {payload!r:.40}")
            return
        key = _TAG.unpack_from(payload)
        request = self.requests.get(key)
        if request is None:
            self.errors.append(f"delivery of a message never sent: {key}")
            return
        source, dest = self.flows[request.flow]
        if request.delivered_at is not None:
            self.errors.append(f"duplicate delivery of {key}")
            return
        if (message.source, message.dest, node_id) != (source, dest, dest):
            self.errors.append(
                f"{key} sent {source!r}->{dest!r}, delivered as "
                f"{message.source!r}->{message.dest!r} at {node_id!r}"
            )
        if message.seq != request.seq:
            self.errors.append(f"{key}: seq {message.seq}, expected {request.seq}")
        if payload != request.payload:
            self.errors.append(f"{key}: payload bytes differ")
        if message.semantics is Semantics.RELIABLE:
            if message.seq != self._last_seq[request.flow] + 1:
                self.errors.append(
                    f"flow {request.flow}: seq {message.seq} after "
                    f"{self._last_seq[request.flow]} (out of order)"
                )
            self._last_seq[request.flow] = message.seq
        request.delivered_at = now

    def check_reliable_complete(self) -> None:
        """After drain every reliable flow has its whole prefix, in order."""
        if self.workload.semantics is not Semantics.RELIABLE:
            return
        for flow, sent in enumerate(self._next_seq):
            if self._last_seq[flow] != sent:
                self.errors.append(
                    f"reliable flow {flow}: {self._last_seq[flow]} of {sent} "
                    f"injected messages delivered after drain"
                )


def open_loop_schedule(
    rng: random.Random, flows: int, rate: float, start: float, end: float
) -> List[Tuple[float, int]]:
    """Seeded open-loop due times: per flow a random phase, then gaps
    drawn uniformly from [0.5, 1.5] / rate (mean rate ``rate``)."""
    schedule: List[Tuple[float, int]] = []
    for flow in range(flows):
        due = start + rng.uniform(0.0, 1.0 / rate)
        while due < end:
            schedule.append((due, flow))
            due += rng.uniform(0.5, 1.5) / rate
    schedule.sort()
    return schedule


async def _sleep_until(sim: Any, t: float) -> None:
    delay = t - sim.now
    if delay > 0:
        await asyncio.sleep(delay)


async def run_phase(
    harness: Harness, name: str, seconds: float, rate: float
) -> Phase:
    """Offer the seeded open-loop schedule at ``rate`` messages/s per
    flow for ``seconds``, then drain."""
    sim = harness.sim
    loop = asyncio.get_event_loop()
    start = sim.now
    end = start + seconds
    phase = Phase(name, start, start + WARMUP, end)
    harness.phase = phase
    marks: List[Tuple[float, float]] = []

    def mark() -> None:
        marks.append((sim.now, time.process_time()))

    loop.call_later(WARMUP, mark)
    loop.call_later(seconds, mark)
    schedule = open_loop_schedule(harness.rng, len(harness.flows), rate, start, end)
    position = 0

    def tick() -> None:
        nonlocal position
        now = sim.now
        while position < len(schedule) and schedule[position][0] <= now:
            due, flow = schedule[position]
            position += 1
            phase.lateness.append(now - due)
            harness.offer(harness.new_request(flow, due))
        if position < len(schedule):
            loop.call_later(schedule[position][0] - sim.now, tick)

    loop.call_later(schedule[0][0] - sim.now, tick)
    await _sleep_until(sim, end)
    while len(marks) < 2:
        await asyncio.sleep(0.001)
    (t0, c0), (t1, c1) = marks
    phase.window = (t0, t1)
    phase.cpu_steady_s = c1 - c0
    await drain(harness, phase)
    return phase


async def drain(harness: Harness, phase: Phase) -> None:
    """Wait for in-flight messages: until everything injected arrived,
    no delivery for :data:`DRAIN_QUIET`, or :data:`DRAIN_CAP`."""
    sim = harness.sim
    began = sim.now
    harness.last_delivery = max(harness.last_delivery, began)
    while sim.now - began < DRAIN_CAP:
        await asyncio.sleep(0.05)
        if harness.backlog() == 0 and phase.delivered == phase.injected:
            break
        if sim.now - harness.last_delivery > DRAIN_QUIET:
            break
    harness.cancel()


async def _boot(workload: LiveWorkload) -> Tuple[LiveDeployment, float]:
    deployment = LiveDeployment(workload.config())
    began = time.perf_counter()
    await deployment.start()
    return deployment, time.perf_counter() - began


async def run_async(
    workload: LiveWorkload,
    seed: int,
    seconds: float,
    setups: int,
    phases: Tuple[str, ...] = PHASES,
    tracer: Any = None,
) -> Dict[str, Any]:
    """Set the overlay up ``setups`` times (the last one carries the
    traffic), run ``phases`` in order on equal shares of ``seconds``,
    tear down, and return the raw outcome."""
    rates = {"paced": workload.paced_rate, "load": workload.load_rate}
    setup_times: List[float] = []
    for _ in range(setups - 1):
        deployment, elapsed = await _boot(workload)
        setup_times.append(elapsed)
        await deployment.stop()
    if tracer is not None:
        tracer.install()
    try:
        deployment, elapsed = await _boot(workload)
        setup_times.append(elapsed)
        harness = Harness(deployment, workload, seed)
        events_before = deployment.sim.events_run
        try:
            if tracer is not None:
                tracer.start(deployment)
            done = [
                await run_phase(harness, name, seconds / len(phases), rates[name])
                for name in phases
            ]
            if tracer is not None:
                tracer.stop()
            events_run = deployment.sim.events_run - events_before
        finally:
            await deployment.stop()
        harness.check_reliable_complete()
        report = deployment.report()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {
        "setup_s": median(setup_times),
        "setup_samples": setup_times,
        "phases": done,
        "harness": harness,
        "report": report,
        "deployment": deployment,
        "events_run": events_run,
    }


def run(
    workload: LiveWorkload,
    seed: int,
    seconds: float,
    setups: int,
    phases: Tuple[str, ...] = PHASES,
    tracer: Any = None,
) -> Dict[str, Any]:
    return asyncio.run(run_async(workload, seed, seconds, setups, phases, tracer))
