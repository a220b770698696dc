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

The scenarios and the digest lines are produced by
:mod:`tests.golden.pins`, the registry ``scripts/goldens.sh`` runs.
"""

import difflib

from repro.obs.flightrec import FlightRecorder
from tests.golden import REGENERATE, path
from tests.golden.pins import SCENARIOS, telemetry_lines


def test_telemetry_artifacts_match_the_committed_digests():
    produced = telemetry_lines()
    with open(path("telemetry.txt"), encoding="utf-8") as handle:
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
