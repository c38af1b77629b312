"""Overload sweep: goodput and tail latency vs offered load, 1x-10x.

Runs the client-tier population workload (Poisson diurnal arrivals, Zipf
fan-in, Pareto burst trains) against a 16-node chordal-ring overlay at
offered-load multipliers from 1x to 10x, once with the DoS-resistant
admission stage in front of Priority Messaging and once without.  Every
client message carries a 3-second delivery deadline, so overload shows
up as the congestion-collapse mechanism: messages that consumed
interior-link transmissions die in saturated queues instead of arriving
arbitrarily late.

What the two arms demonstrate (gates enforced below and by the
``overload`` CI job on ``BENCH_overload.json``):

* **admission on** — goodput at 10x holds at >= 90% of the 1x level
  (in fact it rises: the controller throttles offered load to roughly
  the sustainable rate at the source, so extra offered load converts to
  rejections, not queue bloat), and median latency stays flat.
* **admission off** — the delivery ratio collapses (less than half the
  1x ratio at 10x) and median latency blows up by multiples as queues
  fill to the deadline horizon.

The full sweep offers over a million messages.  The overlay's priority
queues and per-source fairness prevent *absolute* goodput collapse even
without admission (that is the paper's intra-network defense working);
the admission stage's win is the latency profile and not wasting
interior bandwidth on traffic that will die at the last hop.
"""

from __future__ import annotations

from benchmarks.conftest import Reporter, run_once

from repro.clients.overload import run_overload

SEED = 2016
NODES = 16
DURATION = 50.0
DRAIN = 5.0
BASE_RATE = 170.0
MULTIPLIERS = (1.0, 2.0, 4.0, 7.0, 10.0)

MIN_OFFERED_TOTAL = 1_000_000
MIN_GOODPUT_RATIO_ON = 0.90


def test_overload_sweep(benchmark):
    reporter = Reporter("overload")

    def run():
        return run_overload(
            seed=SEED,
            nodes=NODES,
            duration=DURATION,
            drain=DRAIN,
            base_rate=BASE_RATE,
            multipliers=MULTIPLIERS,
            include_off=True,
        )

    report = run_once(benchmark, run)

    rows = [
        (
            "on" if stage["admission"] else "off",
            f"{stage['multiplier']:g}x",
            stage["offered"],
            stage["delivered"],
            f"{stage['delivery_ratio']:.1%}",
            f"{stage['goodput_msgs_per_s']:.0f}/s",
            f"{stage['p50_ms']:.0f}ms",
            f"{stage['p99_ms']:.0f}ms",
            stage["admission_totals"].get("rejected", 0),
            stage["queue_dropped"] + stage["queue_expired"],
        )
        for stage in report["stages"]
    ]
    reporter.table(
        ["arm", "load", "offered", "delivered", "ratio", "goodput",
         "p50", "p99", "rejected", "q-lost"],
        rows,
    )
    summary = report["summary"]
    reporter.line()
    reporter.line(f"offered total: {summary['offered_total']}")
    reporter.line(
        f"goodput ratio (10x/1x): on={summary['goodput_ratio_on']:.3f} "
        f"off={summary['goodput_ratio_off']:.3f}"
    )
    reporter.line(
        f"p50 at 10x: on={summary['admission_on']['p50_ms_at_max']:.0f}ms "
        f"off={summary['admission_off']['p50_ms_at_max']:.0f}ms"
    )
    reporter.json_artifact({
        "benchmark": "overload",
        **report,
    })
    reporter.flush()

    on, off = summary["admission_on"], summary["admission_off"]

    # Scale gate: the full sweep is a >= 1M-message experiment.
    assert summary["offered_total"] >= MIN_OFFERED_TOTAL

    # Admission on: goodput at 10x offered load holds at >= 90% of the
    # 1x level, with p99 bounded by the 3 s message deadline.
    assert summary["goodput_ratio_on"] >= MIN_GOODPUT_RATIO_ON
    assert on["p99_ms_at_max"] <= 3000.0

    # Admission off: delivery collapses under the deadline — at 10x the
    # delivery ratio is less than half its 1x value, and the median
    # latency is several times the admission-on median at the same load.
    assert off["delivery_ratio_at_max"] < 0.5 * off["delivery_ratio_at_1x"]
    assert off["p50_ms_at_max"] > 3.0 * on["p50_ms_at_max"]

    # The off arm's losses are queue losses (drops + deadline expiries),
    # not source-side rejections: admission totals are all zero there.
    off_stages = [s for s in report["stages"] if not s["admission"]]
    peak_off = max(off_stages, key=lambda s: s["multiplier"])
    assert all(v == 0 for v in peak_off["admission_totals"].values())
    assert peak_off["queue_dropped"] + peak_off["queue_expired"] > 0
