"""The flight recorder keeps raw records and renders them on read; the
oracle (``tests/oracles/flightrec.py``) renders each record on arrival.
Any interleaving of records, reads, dumps and ring overflow must
produce the same snapshots, dumps and counters, down to the key order
of every event."""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.obs.flightrec import DEFAULT_CAPACITY, MAX_DUMPS  # noqa: E402
from repro.obs.flightrec import FlightRecorder  # noqa: E402
from tests.oracles.flightrec import ReferenceFlightRecorder  # noqa: E402

HOSTS = ["a.example", "b.example"]

#: Detail values are scalars (what every call site passes; see
#: ``tests/test_telemetry_golden.py``).  ``t`` as a detail key overrides
#: the timestamp's value but not its position.
details = st.dictionaries(
    st.sampled_from(["target", "principal", "wire_bytes", "reason", "t",
                     "ok", "dst"]),
    st.one_of(st.none(), st.booleans(), st.integers(-5, 10**6),
              st.floats(allow_nan=False), st.text(max_size=8)),
    max_size=4)

ops = st.lists(st.one_of(
    st.tuples(st.just("record"), st.sampled_from(HOSTS),
              st.sampled_from(["admitted", "rejected", "hop"]), details),
    # Enough records in one go to wrap a 64-deep ring.
    st.tuples(st.just("burst"), st.sampled_from(HOSTS),
              st.integers(1, DEFAULT_CAPACITY + 20)),
    st.tuples(st.just("tick"), st.floats(0, 1e4, allow_nan=False)),
    st.tuples(st.just("snapshot"), st.sampled_from(HOSTS + ["absent"])),
    st.tuples(st.just("dump"), st.sampled_from(HOSTS + ["absent"])),
), max_size=60)


def drive(recorder_class, script):
    clock = [0.0]
    recorder = recorder_class(enabled=True, clock=lambda: clock[0])
    seen = []
    for op in script:
        kind = op[0]
        if kind == "record":
            _, host, event, detail = op
            recorder.record(host, event, **detail)
        elif kind == "burst":
            _, host, count = op
            for index in range(count):
                clock[0] += 0.1
                recorder.record(host, "burst", index=index)
        elif kind == "tick":
            clock[0] += op[1]
        elif kind == "snapshot":
            events = recorder.snapshot(op[1])
            seen.append(json.dumps(events))
            # A reader owns what it was handed.
            for event in events:
                event["mutated"] = True
        else:
            seen.append(json.dumps(recorder.dump(op[1], reason="test")))
        seen.append((recorder.hosts(), len(recorder.dumps),
                     recorder.dumps_evicted))
    seen.append(json.dumps([recorder.snapshot(host) for host in HOSTS]))
    seen.append(json.dumps(recorder.dumps))
    return seen


class TestRawRingIsTheEagerRing:
    @given(script=ops)
    @settings(max_examples=300, deadline=None)
    def test_same_snapshots_dumps_and_counters(self, script):
        assert drive(FlightRecorder, script) == \
            drive(ReferenceFlightRecorder, script)

    def test_overflow_and_dump_cap(self):
        script = [("burst", "a.example", DEFAULT_CAPACITY + 5)] + \
            [("dump", "a.example")] * (MAX_DUMPS + 2)
        product = drive(FlightRecorder, script)
        assert product == drive(ReferenceFlightRecorder, script)
        events = json.loads(product[-2])[0]
        assert len(events) == DEFAULT_CAPACITY
        assert events[0] == {"t": 0.6, "kind": "burst", "index": 5}
        assert product[-3] == (["a.example"], MAX_DUMPS, 2)

    def test_a_rendered_event_lists_time_kind_then_sorted_detail(self):
        recorder = FlightRecorder(enabled=True, clock=lambda: 1 / 3)
        recorder.record("h", "admitted", wire_bytes=7, principal="p",
                        target="x")
        [event] = recorder.snapshot("h")
        assert list(event.items()) == [
            ("t", 0.333333333), ("kind", "admitted"), ("principal", "p"),
            ("target", "x"), ("wire_bytes", 7)]
