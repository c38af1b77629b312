"""The "SLO under fire" sweep: client-visible success vs chaos + load.

For each session arm ("on" = full reliability machinery, "off" = naive
single-attempt clients) and each offered-load multiplier, a fresh seeded
simulation runs the session tier against a chordal-ring overlay with the
DoS-resistant admission stage in front AND the live-soak chaos preset
(wire noise, crashes, partitions) injected for the whole window.  The
measurement is end-to-end and client-visible: a request only counts as
a success when the destination's acknowledgment reaches the session
before its deadline.

What the arms demonstrate:

* **sessions on** — budgeted retries + ingress failover restore the
  client-visible success ratio to >= 99% under soak chaos at base load,
  while the global retry budget mechanically bounds amplification
  (offered interior load <= (1 + budget) x base) so the retries cannot
  recreate the metastable congestion collapse the PR 9 sweep
  quantified.  At 10x offered load the tier degrades gracefully —
  priority downgrades, then shedding — and *delivered* goodput holds at
  or above its 1x level instead of collapsing.
* **sessions off** — the same workload with one attempt per request and
  no failover: every ingress crash, parked-then-expired offer, or lost
  ack is a silent client-visible failure.

The stage network, arms x multipliers loop and admission fold come from
:mod:`repro.clients.sweep`; each stage also builds its own chaos
schedule, so the sweep is deterministic given its seed.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Dict, Optional, Sequence

from repro.clients import sweep
from repro.clients.overload import OVERLOAD_ADMISSION
from repro.clients.session import (
    SessionConfig,
    SessionTier,
    SessionWorkloadConfig,
)
from repro.faults.chaos import ChaosEngine
from repro.faults.schedule import ChaosSpec

#: The SLO sweep's admission tuning: the overload sweep's, but with the
#: two-key (per-destination) meter enabled — Zipf-hot destinations are
#: throttled at the ingress edge, not in the interior queues.
SLO_ADMISSION = replace(OVERLOAD_ADMISSION, per_destination=True)

#: The session workload; each stage sets the rate and the arm's sessions.
SLO_WORKLOAD = SessionWorkloadConfig()

#: The naive-client arm: one attempt, no retry budget, no failover.
SESSIONS_OFF = SessionConfig(max_attempts=1, retry_budget=0.0, backups=0)

#: Session-tier counters copied verbatim into each stage record.
_COUNTS = (
    "requests", "succeeded", "failed", "shed", "base_offers", "retry_offers",
    "failovers", "nacks_consumed", "breaker_opens", "downgraded",
    "duplicates_suppressed",
)


def _stage(
    seed: int, nodes: int, duration: float, drain: float, base_rate: float,
    intensity: float, on: bool, multiplier: float,
) -> sweep.Stage:
    net, ranked = sweep.build_network(nodes, seed, SLO_ADMISSION, "slo:dest-rank")
    chaos: Dict[str, int] = {}
    if intensity > 0:
        schedule = ChaosSpec.live_soak(duration, intensity=intensity).generate(
            net.topology, seed=seed
        )
        engine = ChaosEngine(net, schedule)
        engine.arm()
        chaos = engine.counts

    workload = replace(
        SLO_WORKLOAD, arrival_rate=base_rate * multiplier,
        session=SLO_WORKLOAD.session if on else SESSIONS_OFF,
    )
    tier = SessionTier(
        net, sorted(net.nodes), ranked, workload=workload,
        name="on" if on else "off",
    )
    sweep.run_window(net, tier, duration, drain)
    tier.finalize()

    snapshot = tier.snapshot()
    return {
        "duration_s": duration,
        **{key: snapshot[key] for key in _COUNTS},
        "success_ratio": round(snapshot["success_ratio"], 4),
        "goodput_rps": round(sweep.ratio(snapshot["succeeded"], duration), 2),
        "amplification": round(snapshot["amplification"], 4),
        "violations": snapshot["invariant_violations"],
        "chaos": dict(chaos),
        "tier": snapshot,
        "admission_totals": sweep.admission_totals(net),
    }


def run_slo(
    *,
    seed: int = 0,
    nodes: int = 16,
    duration: float = 30.0,
    drain: float = 8.0,
    base_rate: float = 60.0,
    multipliers: Sequence[float] = (1.0, 4.0, 10.0),
    intensity: float = 2.0,
    include_off: bool = True,
    progress: Optional[Callable[[str], Any]] = None,
) -> Dict[str, Any]:
    """Sweep (sessions on/off) x multipliers under soak chaos.

    ``base_rate`` is the 1x tier-wide request arrival rate.  Returns a
    JSON-ready report whose ``summary`` holds the headline gates:
    sessions-on success at 1x (the >= 99% SLO), the sessions-off
    baseline, worst-case amplification across the on arm (must stay
    within ``1 + retry_budget``), delivered-goodput ratio at the top
    multiplier, and total invariant violations.
    """
    stages = sweep.run_stages(
        lambda on, multiplier: _stage(
            seed, nodes, duration, drain, base_rate, intensity, on, multiplier
        ),
        arm="sessions", multipliers=multipliers, include_off=include_off,
        progress=progress,
    )
    low, high = min(multipliers), max(multipliers)
    on_base = sweep.stage_at(stages, "sessions", True, low)
    on_peak = sweep.stage_at(stages, "sessions", True, high)
    on_stages = [stage for stage in stages if stage["sessions"]]
    session = SLO_WORKLOAD.session
    goodput_ratio = 0.0
    if on_base and on_peak:
        # Goodput from the unrounded counts, not the rounded report fields.
        goodput_ratio = sweep.ratio(
            sweep.ratio(on_peak["succeeded"], duration),
            sweep.ratio(on_base["succeeded"], duration),
        )
    summary: Dict[str, Any] = {
        "requests_total": sum(stage["requests"] for stage in stages),
        "max_multiplier": high,
        "retry_budget": session.retry_budget,
        "success_on_at_1x": on_base["success_ratio"] if on_base else 0.0,
        "max_amplification_on": max(
            (stage["amplification"] for stage in on_stages), default=1.0
        ),
        "amplification_bound": round(1.0 + session.retry_budget, 4),
        "goodput_ratio_on": round(goodput_ratio, 4),
        "violations": sum(stage["violations"] for stage in stages),
        "failovers_on": sum(stage["failovers"] for stage in on_stages),
        "retries_on": sum(stage["retry_offers"] for stage in on_stages),
    }
    if include_off:
        off_base = sweep.stage_at(stages, "sessions", False, low)
        summary["success_off_at_1x"] = (
            off_base["success_ratio"] if off_base else 0.0
        )

    return {
        "params": {
            **sweep.params(seed, nodes, duration, drain, base_rate, multipliers),
            "chaos_intensity": intensity,
            "sessions_per_node": SLO_WORKLOAD.sessions_per_node,
            "size_bytes": SLO_WORKLOAD.size_bytes,
            "method_k": SLO_WORKLOAD.method_k,
            "deadline_s": session.deadline,
            "attempt_timeout_s": session.attempt_timeout,
            "max_attempts": session.max_attempts,
            "retry_budget": session.retry_budget,
            "per_destination_admission": SLO_ADMISSION.per_destination,
        },
        "stages": stages,
        "summary": summary,
    }


__all__ = ["SESSIONS_OFF", "SLO_ADMISSION", "SLO_WORKLOAD", "run_slo"]
