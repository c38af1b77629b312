"""Tests of the benchmark's metric arithmetic on synthetic timestamps,
and of the tracer's self-time accounting on a synthetic clock.

Run from the repository root: ``python3 -m pytest e2ebench -q``.
"""

import types

import pytest

import tracer as tracer_module
from metrics import (
    MIN_P99_SAMPLES,
    Phase,
    Request,
    goodput,
    latency_summary,
    percentile,
)
from tracer import Tracer


def _phase_with(deliveries, start=0.0, warm_end=1.0, steady_end=5.0):
    phase = Phase("load", start, warm_end, steady_end)
    for index, (due, injected, delivered) in enumerate(deliveries):
        request = Request(0, index, due, b"x" * 16, injected_at=injected, seq=index + 1)
        request.delivered_at = delivered
        phase.requests.append(request)
    return phase


def test_goodput_counts_only_the_steady_window():
    # 2 deliveries in warm-up, 8 inside [1, 5), 5 in the drain after 5.
    times = [0.2, 0.9] + [1.0 + 0.5 * i for i in range(8)] + [5.0, 5.1, 5.2, 6.0, 7.5]
    assert goodput(times, 1.0, 5.0) == pytest.approx(8 / 4.0)
    phase = _phase_with([(0.0, 0.0, t) for t in times])
    assert phase.goodput() == pytest.approx(2.0)
    assert phase.steady_deliveries() == 8
    # The drain deliveries still count as delivered for the ratio.
    assert phase.delivered == len(times)


def test_goodput_ignores_undelivered_and_rejects_empty_window():
    assert goodput([None, 1.5, None], 1.0, 2.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        goodput([1.0], 2.0, 2.0)


def test_latency_is_measured_from_due_time_not_injection():
    # Due at 2.0, injected 30 ms late (a generator stall or back-pressure
    # wait), delivered 2 ms after injection: latency is 32 ms.
    phase = _phase_with([(2.0, 2.030, 2.032)])
    assert phase.due_latencies() == [pytest.approx(0.032)]


def test_latency_covers_only_messages_due_in_the_steady_window():
    phase = _phase_with([
        (0.5, 0.5, 0.6),    # due during warm-up
        (2.0, 2.0, 2.01),   # due in the window
        (4.99, 5.0, 5.3),   # due in the window, delivered in drain
        (5.0, 5.0, 5.01),   # due after the window
        (3.0, 3.0, None),   # never delivered: a failure, not a sample
    ])
    assert sorted(phase.due_latencies()) == [pytest.approx(0.01), pytest.approx(0.31)]
    assert phase.failed() == 1


def _ramp(count):
    """``count`` distinct latencies: 1 ms, 2 ms, ... in seconds."""
    return [0.001 * (i + 1) for i in range(count)]


def test_p99_is_withheld_below_the_sample_floor():
    few = _ramp(MIN_P99_SAMPLES - 1)
    summary = latency_summary(few)
    assert summary["count"] == MIN_P99_SAMPLES - 1
    assert summary["p50_ms"] == pytest.approx(500.0)
    assert summary["p99_ms"] is None
    summary = latency_summary(_ramp(MIN_P99_SAMPLES))
    assert summary["p99_ms"] == pytest.approx(990.0)
    assert summary["p90_ms"] == pytest.approx(900.0)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50.0) == 50
    assert percentile(values, 99.0) == 99
    assert percentile(values, 100.0) == 100
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_phase_accounting_separates_requested_injected_delivered():
    phase = _phase_with([(1.0, 1.0, 1.1), (1.5, 1.6, None), (2.0, None, None)])
    phase.lateness = [0.0, 0.1, 0.2]
    record = phase.accounting()
    assert (record["requested"], record["injected"], record["delivered"]) == (3, 2, 1)
    assert record["generator_late_p99_ms"] == pytest.approx(200.0)
    assert record["generator_late_max_ms"] == pytest.approx(200.0)


def test_parent_self_time_excludes_children_and_their_bookkeeping(monkeypatch):
    # Each clock read costs one tick; calling work(n) costs n ticks.
    ticks = [0]

    def clock():
        ticks[0] += 1
        return ticks[0]

    def work(n):
        ticks[0] += n

    monkeypatch.setattr(tracer_module.time, "thread_time", clock)
    tracer = Tracer()
    calls = types.SimpleNamespace(leaf=lambda: work(10))

    def root():
        work(100)
        calls.leaf()
        calls.leaf()

    calls.root = root
    tracer.wrap(calls, "leaf", "layer")
    tracer.wrap(calls, "root", "unattributed")
    tracer.active = True
    calls.root()
    # Each leaf span: 10 ticks of work plus its end read.  The root: its
    # 100 ticks, the reads that open each leaf and its own end read; the
    # leaves' bookkeeping (one tick each, after their end) is not its.
    assert tracer.layer_self_times() == {"layer": 22, "unattributed": 103}
    assert tracer.bookkeeping_s == 3
    assert tracer.total("root") == 103 + 22 + 2
    tracer.uninstall()
    assert calls.leaf() is None and "traced" not in repr(calls.leaf)
