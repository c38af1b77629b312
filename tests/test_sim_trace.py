"""Tests for the protocol event tracer and its telemetry collector."""

import pytest

from repro.overlay.config import OverlayConfig
from repro.overlay.network import OverlayNetwork
from repro.sim.trace import attach_tracer
from repro.topology.generators import ring

PACED = OverlayConfig(link_bandwidth_bps=1e6)


def at(events, node):
    """The events whose detail names ``node`` as the recording node."""
    return [event for event in events if event[2].split()[0] == str(node)]


@pytest.fixture
def traced_net():
    net = OverlayNetwork.build(ring(4), PACED)
    trace = attach_tracer(net)
    return net, trace


class TestRecording:
    def test_records_into_the_network_collector(self, traced_net):
        net, trace = traced_net
        assert trace is net.stats.metrics.trace
        assert trace.enabled

    def test_inject_and_deliver_recorded(self, traced_net):
        net, trace = traced_net
        net.node(1).send_priority(3)
        net.run(1.0)
        assert len(at(trace.query_events("node.inject"), 1)) == 1
        deliveries = at(trace.query_events("node.deliver"), 3)
        assert len(deliveries) == 1
        assert "1->3" in deliveries[0][2]

    def test_reliable_inject_recorded_only_when_accepted(self, traced_net):
        net, trace = traced_net
        assert net.node(1).send_reliable(3)
        net.run(1.0)
        assert len(at(trace.query_events("node.inject"), 1)) == 1

    def test_crash_recover_recorded(self, traced_net):
        net, trace = traced_net
        net.run(0.5)
        net.crash(2)
        net.run(0.5)
        net.recover(2)
        net.run(0.5)
        assert at(trace.query_events("node.crash"), 2)
        assert at(trace.query_events("node.recover"), 2)

    def test_routing_outcomes_recorded(self, traced_net):
        net, trace = traced_net
        from repro.byzantine.attacks import RoutingWeightAttack

        RoutingWeightAttack(net, attacker=2).launch()
        net.run(1.0)
        routing_events = trace.query_events("node.routing")
        assert any("below_min_weight" in e[2] for e in routing_events)

    def test_existing_on_deliver_still_invoked(self):
        net = OverlayNetwork.build(ring(4), PACED)
        seen = []
        net.node(3).on_deliver = lambda m: seen.append(m.seq)
        attach_tracer(net)
        net.node(1).send_priority(3)
        net.run(1.0)
        assert seen  # the app callback survived the tracer


class TestQueriesAndLimits:
    def test_since_filter(self, traced_net):
        net, trace = traced_net
        net.node(1).send_priority(3)
        net.run(2.0)
        net.node(1).send_priority(3)
        net.run(2.0)
        assert len(trace.query_events("node.inject", since=1.0)) == 1

    def test_summary_counts(self, traced_net):
        net, trace = traced_net
        net.node(1).send_priority(3)
        net.run(1.0)
        summary = trace.event_summary()
        assert summary["node.inject"] == 1
        assert summary["node.deliver"] == 1

    def test_max_events_bounded(self):
        net = OverlayNetwork.build(ring(4), PACED)
        trace = attach_tracer(net)
        trace.max_records = 3
        for _ in range(10):
            net.node(1).send_priority(3)
        net.run(1.0)
        assert len(trace.events) == 3
        assert trace.dropped > 0
