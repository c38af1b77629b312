"""Golden sweep reports: the complete overload and SLO report dicts.

Both sweeps are deterministic per seed, so a reduced-scale run must
reproduce its recorded report exactly: every stage record, every
summary ratio and every echoed parameter.  The recordings in
``golden/sweep_reports.json`` are the oracle for refactors of the sweep
code.  The inputs are chosen so the oracle cannot pass vacuously: the
admission-on arm rejects offers, the admission-off arm loses messages
in the interior queues, and under chaos the SLO sessions both retry and
fail over.

To re-record after an intended change of the numbers, run
``PYTHONPATH=src python tests/test_sweep_golden.py`` and review the diff.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.clients.overload import run_overload
from repro.clients.slo import run_slo

GOLDEN = pathlib.Path(__file__).parent / "golden" / "sweep_reports.json"

OVERLOAD_ARGS = dict(
    seed=0, nodes=6, duration=2.0, drain=1.0, base_rate=40.0,
    multipliers=(1.0, 4.0),
)
SLO_ARGS = dict(
    seed=3, nodes=6, duration=2.0, drain=1.0, base_rate=20.0,
    multipliers=(1.0, 4.0), intensity=2.0,
)


def _reports():
    return {
        "overload": run_overload(**OVERLOAD_ARGS),
        "slo": run_slo(**SLO_ARGS),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_overload_report_matches_golden(golden):
    report = run_overload(**OVERLOAD_ARGS)
    assert report == golden["overload"]

    stages = {(s["admission"], s["multiplier"]): s for s in report["stages"]}
    assert stages[True, 4.0]["admission_totals"]["rejected"] > 0
    off_peak = stages[False, 4.0]
    assert off_peak["queue_dropped"] + off_peak["queue_expired"] > 0


def test_slo_report_matches_golden(golden):
    report = run_slo(**SLO_ARGS)
    assert report == golden["slo"]

    assert report["params"]["chaos_intensity"] > 0
    on_stages = [s for s in report["stages"] if s["sessions"]]
    assert sum(s["retry_offers"] for s in on_stages) > 0
    assert sum(s["failovers"] for s in on_stages) > 0


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_reports(), sort_keys=True, indent=2) + "\n")
    print(f"recorded {GOLDEN}")
