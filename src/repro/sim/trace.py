"""Protocol event tracing into the network's telemetry collector.

:func:`attach_tracer` chains the public hooks of every node of a built
:class:`~repro.overlay.network.OverlayNetwork` (injections, deliveries,
routing-update outcomes, crashes and recoveries) without touching the
protocol code.  Each hook records one sim-time event named
``node.<category>`` whose detail starts with the node id, in the same
:class:`~repro.telemetry.tracing.TraceCollector` that already holds the
chaos and defense events, so one timeline interleaves them all.  The
collector bounds, filters and counts the events.  Useful when debugging
why a flow stalled or what an attack actually did.

Example::

    trace = attach_tracer(net)
    ... run experiment ...
    for time, name, detail in trace.query_events("node.deliver"):
        print(time, name, detail)
    print(trace.event_summary())
"""

from __future__ import annotations

from typing import Any, Callable

from repro.telemetry.tracing import TraceCollector


def attach_tracer(network: Any) -> TraceCollector:
    """Enable ``network``'s collector and trace every node into it."""
    trace = network.stats.metrics.trace
    trace.enable()
    for node_id, node in network.nodes.items():

        def record(category: str, detail: str, node_id: Any = node_id) -> None:
            trace.event(network.sim.now, f"node.{category}", f"{node_id} {detail}")

        _hook(node, record)
    return trace


def _hook(node: Any, record: Callable[[str, str], None]) -> None:
    on_deliver, apply_update = node.on_deliver, node.routing.apply_update
    send_priority, send_reliable = node.send_priority, node.send_reliable
    crash, recover = node.crash, node.recover

    def traced_deliver(message: Any) -> None:
        record("deliver", f"{message.semantics.value} {message.source}->"
                          f"{message.dest} #{message.seq} ({message.size_bytes} B)")
        if on_deliver is not None:
            on_deliver(message)

    def traced_priority(*args: Any, **kwargs: Any) -> Any:
        message = send_priority(*args, **kwargs)
        record("inject", f"priority ->{message.dest} #{message.seq} "
                         f"prio={message.priority}")
        return message

    def traced_reliable(dest: Any, *args: Any, **kwargs: Any) -> bool:
        accepted = send_reliable(dest, *args, **kwargs)
        if accepted:
            record("inject", f"reliable ->{dest}")
        return accepted

    def traced_crash() -> None:
        record("crash", "node crashed")
        crash()

    def traced_recover() -> None:
        record("recover", "node recovered")
        recover()

    def traced_update(update: Any, now: float = 0.0) -> Any:
        result = apply_update(update, now=now)
        record("routing", f"{result.value}: {update.issuer} says "
                          f"({update.edge_a},{update.edge_b})={update.weight:.4f}")
        return result

    node.on_deliver = traced_deliver
    node.send_priority, node.send_reliable = traced_priority, traced_reliable
    node.crash, node.recover = traced_crash, traced_recover
    node.routing.apply_update = traced_update
