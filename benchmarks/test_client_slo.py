"""SLO under fire: client-visible success with sessions on/off, 1x-10x.

Runs the client session tier (budgeted retries, decorrelated-jitter
backoff, idempotency keys + destination dedup, ingress failover with
circuit breakers, degradation ladder) against a 16-node chordal-ring
overlay while the live-soak chaos preset crashes nodes, partitions
links, and injects wire noise — then sweeps offered load from 1x to
10x.  Success is end-to-end and client-visible: a request counts only
when the destination's ack reaches the session before its deadline.

Gates enforced below and by the ``client-slo`` CI job on
``BENCH_client_slo.json``:

* **sessions on** — success >= 99% under soak chaos at base load,
  versus the documented sessions-off baseline below it; retry
  amplification stays within the global retry budget
  (<= 1 + retry_budget) at *every* sweep point through 10x; delivered
  goodput at 10x holds at >= 90% of the 1x level (graceful
  degradation, not collapse).
* **invariants** — zero violations across every stage: no double
  processing at destinations (idempotency) and no retry-storm
  (mechanical offered-load bound).
"""

from __future__ import annotations

from benchmarks.conftest import Reporter, run_once

from repro.clients.slo import run_slo

SEED = 2016
NODES = 16
DURATION = 30.0
DRAIN = 8.0
BASE_RATE = 60.0
MULTIPLIERS = (1.0, 2.0, 4.0, 7.0, 10.0)
CHAOS_INTENSITY = 2.0

MIN_SUCCESS_ON_AT_1X = 0.99
MIN_GOODPUT_RATIO_ON = 0.90


def test_client_slo_sweep(benchmark):
    reporter = Reporter("client_slo")

    def run():
        return run_slo(
            seed=SEED,
            nodes=NODES,
            duration=DURATION,
            drain=DRAIN,
            base_rate=BASE_RATE,
            multipliers=MULTIPLIERS,
            intensity=CHAOS_INTENSITY,
            include_off=True,
        )

    report = run_once(benchmark, run)

    rows = [
        (
            "on" if stage["sessions"] else "off",
            f"{stage['multiplier']:g}x",
            stage["requests"],
            stage["succeeded"],
            f"{stage['success_ratio']:.2%}",
            f"{stage['amplification']:.3f}",
            stage["failovers"],
            stage["shed"],
            stage["downgraded"],
            f"{stage['goodput_rps']:.0f}/s",
            stage["violations"],
        )
        for stage in report["stages"]
    ]
    reporter.table(
        ["arm", "load", "requests", "acked", "success", "amp",
         "failover", "shed", "downgrade", "goodput", "viol"],
        rows,
    )
    summary = report["summary"]
    reporter.line()
    reporter.line(f"requests total: {summary['requests_total']}")
    reporter.line(
        f"success at 1x under soak chaos: on={summary['success_on_at_1x']:.2%} "
        f"off={summary['success_off_at_1x']:.2%}"
    )
    reporter.line(
        f"max amplification (on): {summary['max_amplification_on']:.4f} "
        f"(bound {summary['amplification_bound']:.2f})"
    )
    reporter.line(
        f"goodput ratio 10x/1x (on): {summary['goodput_ratio_on']:.3f}; "
        f"violations: {summary['violations']}"
    )
    reporter.json_artifact({
        "benchmark": "client_slo",
        **report,
    })
    reporter.flush()

    on_stages = [s for s in report["stages"] if s["sessions"]]
    base_on = min(on_stages, key=lambda s: s["multiplier"])

    # Headline SLO: >= 99% client-visible success under soak chaos at
    # base load with sessions on, strictly above the sessions-off
    # baseline measured under the same seed/chaos/load.
    assert summary["success_on_at_1x"] >= MIN_SUCCESS_ON_AT_1X
    assert summary["success_off_at_1x"] < summary["success_on_at_1x"]

    # Anti-retry-storm: at every sweep point through 10x, offered
    # interior load stays within (1 + retry_budget) x base offers.
    bound = summary["amplification_bound"] + 1e-9
    for stage in on_stages:
        assert stage["amplification"] <= bound, stage["multiplier"]

    # Zero invariant violations anywhere: no destination processed an
    # idempotency key twice, no tier out-spent its retry budget.
    assert summary["violations"] == 0

    # Graceful degradation, not collapse: delivered goodput at 10x
    # offered load holds at >= 90% of the 1x level, with the ladder
    # (downgrade before shed) visibly engaged at the peak.
    assert summary["goodput_ratio_on"] >= MIN_GOODPUT_RATIO_ON
    peak_on = max(on_stages, key=lambda s: s["multiplier"])
    assert peak_on["downgraded"] > 0
    assert peak_on["shed"] > 0

    # The machinery was exercised, not idle: chaos crashed nodes during
    # the base-load stage and sessions actually failed over/retried.
    assert base_on["chaos"].get("crash", 0) >= 1
    assert summary["failovers_on"] > 0
    assert summary["retries_on"] > 0
