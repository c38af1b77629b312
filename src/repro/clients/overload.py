"""The overload sweep: goodput and tail latency versus offered load.

For each admission arm ("on" / "off") and each load multiplier, a fresh
seeded simulation runs the :class:`~repro.clients.generators.ClientTier`
population workload against a chordal-ring overlay and measures what the
destinations actually receive.  Without admission control the Zipf-hot
destinations' queues overflow under surging offered load: messages that
already consumed interior-link transmissions are dropped at the last
hop, wasted bandwidth crowds out deliverable traffic, and goodput
collapses while tail latency blows up.  With the admission stage in
front of Priority Messaging, offered load is throttled to roughly the
sustainable rate at the *source*, so goodput holds near the 1x level and
latency stays bounded no matter the offered multiplier.

The stage network, arms x multipliers loop and admission fold come from
:mod:`repro.clients.sweep`; the sweep is deterministic given its seed.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Dict, Optional, Sequence

from repro.clients import sweep
from repro.clients.generators import ClientTier, ClientWorkloadConfig
from repro.messaging.admission import AdmissionConfig
from repro.overlay.config import DisseminationMethod
from repro.sim.stats import LatencyRecorder

#: The sweep's default admission tuning.  Sized for the benchmark-scale
#: deployment (16 nodes, ~25 clients/node, 1x tier rate in the low
#: hundreds of bursts/s): per-source allowance spans 0.5-3 msg/s with a
#: small burst allowance, and the park buffer is a shallow shock
#: absorber (single-message release batches) rather than a second
#: queue.  The 1x workload is comfortably admitted; 10x is mostly shed
#: at the source.
OVERLOAD_ADMISSION = AdmissionConfig(
    capacity_rate=25.0,
    floor_min=0.5,
    floor_max=3.0,
    burst_tokens=3.0,
    surge_max=1.5,
    park_capacity=32,
    park_timeout=0.3,
    release_batch=1,
    park_low=0.15,
    park_high=0.30,
    reject_low=0.40,
    reject_high=0.60,
)

#: Client messages carry a delivery deadline: overload is only *visible*
#: as lost goodput when messages stuck behind saturated queues die after
#: consuming interior-link capacity (the congestion-collapse mechanism),
#: instead of arriving arbitrarily late.  Each stage sets the rate.
OVERLOAD_WORKLOAD = ClientWorkloadConfig(expire_after=3.0)

#: Node-disjoint paths per client message.
K = 2


def _stage(
    seed: int, nodes: int, duration: float, drain: float, base_rate: float,
    on: bool, multiplier: float,
) -> sweep.Stage:
    admission = OVERLOAD_ADMISSION if on else None
    net, ranked = sweep.build_network(nodes, seed, admission, "overload:dest-rank")

    # One recorder for the whole client tier, fed by a delivery observer
    # on every node — client messages are tagged in their payload, so
    # protocol traffic and any other flows never pollute the numbers.
    recorder = LatencyRecorder("overload")

    def observe(message: Any, node: Any) -> None:
        payload = message.payload
        if isinstance(payload, str) and payload.startswith("clients:"):
            recorder.record(node.sim.now, node.sim.now - message.sent_at)

    for node in net.nodes.values():
        node.delivery_observers.append(observe)

    workload = replace(OVERLOAD_WORKLOAD, arrival_rate=base_rate * multiplier)
    tier = ClientTier(
        net, sorted(net.nodes), ranked, config=workload,
        method=DisseminationMethod.k_paths(K),
    )
    sweep.run_window(net, tier, duration, drain)

    queues = [
        link.priority_queue
        for node in net.nodes.values()
        for link in node.links.values()
    ]
    return {
        "duration_s": duration,
        "offered": tier.offered,
        "delivered": recorder.count,
        "delivery_ratio": round(sweep.ratio(recorder.count, tier.offered), 4),
        "goodput_msgs_per_s": round(sweep.ratio(recorder.count, duration), 2),
        "p50_ms": round(recorder.percentile(50.0) * 1000.0, 2),
        "p99_ms": round(recorder.percentile(99.0) * 1000.0, 2),
        "mean_ms": round(recorder.mean() * 1000.0, 2),
        "outcomes": dict(tier.outcomes),
        "admission_totals": sweep.admission_totals(net),
        "queue_dropped": sum(queue.dropped_for_space for queue in queues),
        "queue_expired": sum(queue.dropped_expired for queue in queues),
    }


def _arm_summary(
    stages: Sequence[sweep.Stage], on: bool, low: float, high: float
) -> Dict[str, float]:
    base = sweep.stage_at(stages, "admission", on, low)
    peak = sweep.stage_at(stages, "admission", on, high)
    if base is None or peak is None:
        return {"goodput_ratio": 0.0}
    # Goodput from the unrounded counts, not the rounded report fields.
    goodput_ratio = sweep.ratio(
        sweep.ratio(peak["delivered"], peak["duration_s"]),
        sweep.ratio(base["delivered"], base["duration_s"]),
    )
    return {
        "goodput_ratio": round(goodput_ratio, 4),
        "delivery_ratio_at_1x": base["delivery_ratio"],
        "delivery_ratio_at_max": peak["delivery_ratio"],
        "p50_ms_at_max": peak["p50_ms"],
        "p99_ms_at_max": peak["p99_ms"],
    }


def run_overload(
    *,
    seed: int = 0,
    nodes: int = 8,
    duration: float = 20.0,
    drain: float = 5.0,
    base_rate: float = 15.0,
    multipliers: Sequence[float] = (1.0, 2.0, 4.0, 7.0, 10.0),
    include_off: bool = True,
    progress: Optional[Callable[[str], Any]] = None,
) -> Dict[str, Any]:
    """Sweep offered load over ``multipliers`` with admission on and off.

    ``base_rate`` is the 1x burst-arrival rate for the whole tier;
    offered *messages* scale by the mean burst-train length on top of
    it.  Returns a JSON-ready report whose ``summary`` holds the
    headline ratios: each arm's goodput at the highest multiplier
    relative to its own 1x goodput.
    """
    stages = sweep.run_stages(
        lambda on, multiplier: _stage(
            seed, nodes, duration, drain, base_rate, on, multiplier
        ),
        arm="admission", multipliers=multipliers, include_off=include_off,
        progress=progress,
    )
    low, high = min(multipliers), max(multipliers)
    on = _arm_summary(stages, True, low, high)
    summary: Dict[str, Any] = {
        "offered_total": sum(stage["offered"] for stage in stages),
        "max_multiplier": high,
        "goodput_ratio_on": on["goodput_ratio"],
        "p99_ms_on_at_max": on.get("p99_ms_at_max", 0.0),
        "admission_on": on,
    }
    if include_off:
        off = _arm_summary(stages, False, low, high)
        summary["goodput_ratio_off"] = off["goodput_ratio"]
        summary["p99_ms_off_at_max"] = off.get("p99_ms_at_max", 0.0)
        summary["admission_off"] = off

    return {
        "params": {
            **sweep.params(seed, nodes, duration, drain, base_rate, multipliers),
            "k": K,
            "size_bytes": OVERLOAD_WORKLOAD.size_bytes,
            "expire_after_s": OVERLOAD_WORKLOAD.expire_after,
        },
        "stages": stages,
        "summary": summary,
    }
