"""The edge/client tier: realistic open-loop load for the overlay.

This package turns the fixed CBR evaluation flows into a client
population: heavy-tailed, bursty, diurnal workloads
(:mod:`repro.clients.generators`) offered through the DoS-resistant
admission stage (:mod:`repro.messaging.admission`), plus the overload
sweep that measures goodput and tail latency versus offered load with
admission on and off (:mod:`repro.clients.overload`).

On top of the raw workload sits the client session layer
(:mod:`repro.clients.session`): a per-request reliability state machine
with deadlines, budgeted retries (decorrelated-jitter backoff under a
global token-bucket retry budget), idempotency keys with
destination-side dedup, ingress failover behind per-ingress circuit
breakers, and a graceful-degradation ladder.  The "SLO under fire"
sweep (:mod:`repro.clients.slo`) measures client-visible success with
sessions on and off under soak chaos and overload.

Both sweeps run on one harness (:mod:`repro.clients.sweep`): the same
chordal-ring stage network, seed-stable destination ranking, admission
fold and arms x multipliers loop.  Each reports its stages as plain
JSON-ready dicts.

Generators and sessions are substrate-portable: they use only the
``.sim`` / ``.node()`` duck type, so the same seeded workload drives
the discrete-event simulator and the live asyncio/UDP runtime.
"""

from repro.clients.generators import (
    ClientTier,
    ClientWorkloadConfig,
    ScriptedBurst,
    ScriptedOverload,
)
from repro.clients.overload import run_overload
from repro.clients.session import (
    CircuitBreaker,
    RetryBudget,
    ScriptedSessionRequest,
    Session,
    SessionConfig,
    SessionTier,
    SessionWorkloadConfig,
)
from repro.clients.slo import SESSIONS_OFF, run_slo

__all__ = [
    "ClientTier",
    "ClientWorkloadConfig",
    "ScriptedBurst",
    "ScriptedOverload",
    "run_overload",
    "CircuitBreaker",
    "RetryBudget",
    "ScriptedSessionRequest",
    "Session",
    "SessionConfig",
    "SessionTier",
    "SessionWorkloadConfig",
    "SESSIONS_OFF",
    "run_slo",
]
