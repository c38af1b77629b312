"""Discrete-event network simulation substrate.

The paper deploys its overlay on a real global cloud; this package is the
laboratory stand-in.  It provides:

* :mod:`repro.sim.engine` — the event loop, timers, and simulated clock;
* :mod:`repro.sim.rng` — named, seeded random substreams for determinism;
* :mod:`repro.sim.channel` — point-to-point datagram channels with latency,
  bandwidth pacing, loss, and jitter;
* :mod:`repro.sim.cpu` — a per-node CPU model that serializes processing and
  charges per-operation costs (used to reproduce the crypto-bound goodput of
  Table II);
* :mod:`repro.sim.stats` — counters, goodput meters, latency recorders, and
  time series used by the benchmark harness;
* :mod:`repro.sim.trace` — an attachable protocol event tracer for
  debugging experiments, recording into the network's
  :class:`~repro.telemetry.tracing.TraceCollector`.
"""

from repro.sim.channel import Channel, ChannelConfig
from repro.sim.cpu import Cpu, CpuCosts
from repro.sim.engine import EventHandle, Simulator
from repro.sim.stats import (
    Counter,
    GoodputMeter,
    LatencyRecorder,
    StatsRegistry,
    TimeSeries,
)
from repro.sim.trace import attach_tracer

__all__ = [
    "Simulator",
    "EventHandle",
    "Channel",
    "ChannelConfig",
    "Cpu",
    "CpuCosts",
    "Counter",
    "GoodputMeter",
    "LatencyRecorder",
    "StatsRegistry",
    "TimeSeries",
    "attach_tracer",
]
