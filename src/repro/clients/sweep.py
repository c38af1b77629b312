"""One harness for the client-tier sweeps (overload and SLO).

Both sweeps measure the same shape of experiment: an "on" arm (the
defense under test) and an "off" arm, each run at every offered-load
multiplier.  Every stage is a fresh seeded simulation on the same
chordal-ring overlay, with its own ``Simulator`` and RNG registry, so
arms and multipliers cannot perturb one another.  This module holds
what the sweeps share: the stage network, the seed-stable destination
ranking, the client-tier run window, the admission-totals fold, the
arms x multipliers loop and the stage lookup.  Each sweep keeps only
its tier, its observers, its stage record and its summary.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.messaging.admission import AdmissionConfig
from repro.overlay.config import OverlayConfig
from repro.overlay.network import OverlayNetwork
from repro.topology import generators

#: Per-link bandwidth of every stage network, bits/second.
LINK_BANDWIDTH_BPS = 3e5

ADMISSION_KEYS = (
    "offered", "admitted", "parked", "rejected",
    "evicted", "released", "expired", "cleared",
)

Stage = Dict[str, Any]


def build_network(
    nodes: int, seed: int, admission: Optional[AdmissionConfig], rank_stream: str
) -> Tuple[OverlayNetwork, List[Any]]:
    """A stage's network and its destination ranking, hottest first.

    The ranking is a shuffle drawn from the named RNG stream, so "which
    nodes run hot" varies with the seed but not between arms.
    """
    config = OverlayConfig(admission=admission, link_bandwidth_bps=LINK_BANDWIDTH_BPS)
    topology = generators.chordal_ring(nodes, chords=2, weight=0.001)
    net = OverlayNetwork.build(topology, config, seed=seed)
    ranked = sorted(net.nodes)
    net.sim.rngs.stream(rank_stream).shuffle(ranked)
    return net, ranked


def run_window(net: OverlayNetwork, tier: Any, duration: float, drain: float) -> None:
    """Offer load for ``duration`` seconds, then let the overlay drain."""
    tier.start()
    net.run(duration)
    tier.stop()
    net.run(drain)


def admission_totals(net: OverlayNetwork) -> Dict[str, int]:
    """Admission counters summed over every node (zeros without admission)."""
    totals = dict.fromkeys(ADMISSION_KEYS, 0)
    for node in net.nodes.values():
        if node.admission is not None:
            snapshot = node.admission.snapshot()
            for key in ADMISSION_KEYS:
                totals[key] += snapshot[key]
    return totals


def run_stages(
    stage: Callable[[bool, float], Stage],
    *,
    arm: str,
    multipliers: Sequence[float],
    include_off: bool,
    progress: Optional[Callable[[str], Any]],
) -> List[Stage]:
    """``stage(on, multiplier)`` for the on arm, then the off arm.

    Each stage record is stamped with its ``multiplier`` and with the
    ``arm`` key (``True`` for on), which is what :func:`stage_at` looks up.
    """
    stages = []
    for on in (True, False) if include_off else (True,):
        for multiplier in multipliers:
            if progress is not None:
                progress(f"{arm}={'on' if on else 'off'} x{multiplier:g}")
            stages.append({"multiplier": multiplier, arm: on, **stage(on, multiplier)})
    return stages


def stage_at(
    stages: Sequence[Stage], arm: str, on: bool, multiplier: float
) -> Optional[Stage]:
    """The first stage of arm ``on`` at ``multiplier``, if it ran."""
    matches = (s for s in stages if s[arm] is on and s["multiplier"] == multiplier)
    return next(matches, None)


def params(
    seed: int, nodes: int, duration: float, drain: float, base_rate: float,
    multipliers: Sequence[float],
) -> Dict[str, Any]:
    """The report ``params`` both sweeps echo."""
    return {
        "seed": seed,
        "nodes": nodes,
        "duration_s": duration,
        "drain_s": drain,
        "base_rate": base_rate,
        "multipliers": list(multipliers),
        "link_bandwidth_bps": LINK_BANDWIDTH_BPS,
    }


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 unless the denominator is positive."""
    return numerator / denominator if denominator > 0 else 0.0
