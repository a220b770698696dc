"""What telemetry emits, held to the committed ``tests/golden/telemetry.txt``.

The CLI documents (``scripts/digests.sh``) carry only a little of what
the observer records: a flight-recorder dump or two and a few counter
totals.  This file pins all of it for four scenarios — both overload
modes, the crash-restart chaos plan and the kill-during-migration
crashtest — one sha256 per artifact:

- the tracer's ``to_jsonl()`` and ``to_chrome()`` exports;
- every flight-recorder ring (``snapshot(host)``) and every dump;
- ``metrics.snapshot()``.

Each artifact is read when the scenario closes its cluster, before
:meth:`~repro.system.cluster.TaxCluster.close` runs.  A change to how
telemetry *records* (raw values rendered on read, held series, spans
finished in one frame) must leave every line equal; a line that moved
names the scenario and the artifact.  The same scenarios also hold every
flight-recorder detail value to a scalar, which is what lets a ring
render its records when read.

Regenerate, only for an intended change, with::

    PYTHONPATH=src python -m tests.test_telemetry_golden > tests/golden/telemetry.txt
"""

import difflib
import hashlib
import itertools
import json
import os
from typing import Callable, Dict, List

from repro.bench.overload import run_overload
from repro.chaos.crashtest import run_crashtest
from repro.chaos.scenario import run_chaos
from repro.obs.flightrec import FlightRecorder
from repro.system.cluster import TaxCluster

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden", "telemetry.txt")
REGENERATE = ("if the change is intended, regenerate with "
              "`PYTHONPATH=src python -m tests.test_telemetry_golden > "
              "tests/golden/telemetry.txt` and review the diff")

#: Scenario label -> the run that produces it (seed 7, as the CLI).
SCENARIOS: Dict[str, Callable[[], object]] = {
    "overload --seed 7":
        lambda: run_overload(seed=7, governed=True),
    "overload --seed 7 --mode ungoverned":
        lambda: run_overload(seed=7, governed=False),
    "chaos --seed 7 --plan crash-restart":
        lambda: run_chaos(seed=7, plan="crash-restart"),
    "crashtest --seed 7 --scenario kill-during-migration":
        lambda: run_crashtest(seed=7, scenario="kill-during-migration"),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def telemetry_artifacts(telemetry) -> List[tuple]:
    """``(artifact name, text)`` for everything ``telemetry`` recorded."""
    tracer, flight = telemetry.tracer, telemetry.flight
    artifacts = [("trace.jsonl", tracer.to_jsonl()),
                 ("trace.chrome", json.dumps(tracer.to_chrome()))]
    for host in flight.hosts():
        artifacts.append((f"flight.ring[{host}]",
                          json.dumps(flight.snapshot(host))))
    for index, dump in enumerate(flight.dumps):
        artifacts.append((f"flight.dump[{index}]", json.dumps(dump)))
    artifacts.append(("metrics.snapshot",
                      json.dumps(telemetry.metrics.snapshot())))
    return artifacts


def capture(run: Callable[[], object]) -> List[tuple]:
    """Run one scenario; return the artifacts of every cluster it
    closed, each read just before its close."""
    captured: List[tuple] = []
    close = TaxCluster.close
    ordinals = itertools.count()

    def reading_close(cluster):
        ordinal = next(ordinals)
        for name, text in telemetry_artifacts(cluster.telemetry):
            captured.append((f"cluster{ordinal} {name}", text))
        close(cluster)

    TaxCluster.close = reading_close
    try:
        run()
    finally:
        TaxCluster.close = close
    return captured


def golden_lines() -> List[str]:
    """The golden file's lines: ``scenario<TAB>artifact<TAB>sha256``."""
    lines = []
    for label, run in SCENARIOS.items():
        for name, text in capture(run):
            lines.append(f"{label}\t{name}\t{_sha(text)}")
    return lines


def test_telemetry_artifacts_match_the_committed_digests():
    produced = golden_lines()
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = handle.read().splitlines()
    diff = list(difflib.unified_diff(
        golden, produced, "tests/golden/telemetry.txt", "recomputed",
        lineterm="", n=0))
    assert not diff, (f"telemetry artifacts differ from the committed "
                      f"digests ({REGENERATE}):\n" + "\n".join(diff[:60]))
    # Every scenario recorded spans, a ring and metrics.
    for label in SCENARIOS:
        names = {line.split("\t")[1].split(" ", 1)[1]
                 for line in produced if line.startswith(label + "\t")}
        assert {"trace.jsonl", "trace.chrome", "metrics.snapshot"} <= names
        assert any(name.startswith("flight.ring[") for name in names)


#: What a flight-recorder detail value may be.  A ring keeps each
#: record's detail dict as passed and renders it when read, so a value
#: that could change after the record (a list, a dict, an object) would
#: show its later state in a dump.
SCALARS = (str, int, float, bool, type(None))


def test_every_flight_record_detail_is_a_scalar(monkeypatch):
    seen = set()
    record = FlightRecorder.record

    def checking_record(self, host, kind, **detail):
        for key, value in detail.items():
            seen.add((kind, key, type(value)))
        record(self, host, kind, **detail)

    monkeypatch.setattr(FlightRecorder, "record", checking_record)
    for run in SCENARIOS.values():
        run()
    kinds = {kind for kind, _, _ in seen}
    assert {"admitted", "admission-rejected", "crash", "hop"} <= kinds
    assert not [entry for entry in seen if entry[2] not in SCALARS]


if __name__ == "__main__":
    print("\n".join(golden_lines()))
