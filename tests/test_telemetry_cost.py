"""What telemetry costs per message, in Python calls, where CI runs it.

``run_overload(seed=7)`` offers 160 messages in either mode.  The same
flood is run with telemetry on and off — the simulation does the same
thing both ways (``TestNoOpOverhead``), so the difference in Python
calls is what the observer costs:

- **on**: at most ``ON_CALLS_BUDGET`` calls into ``repro`` per offered
  message beyond the telemetry-off run.  43.7 (governed) / 41.6
  (ungoverned) while the flight recorder rendered each record on
  arrival, a trace mint took three frames and a finished span three,
  the firewall's message-path counters each went through ``_count`` and
  the clock was a lambda; 27.64 / 27.08 after, while the firewall and
  the links wrote a counter beside each tally they keep; 23.48 / 22.70
  since those counters are read from the tallies, on CPython 3.11.
- **off**: at most ``OFF_OBS_CALLS_BUDGET`` calls into ``repro/obs``
  per offered message — cluster construction and the document's reads,
  nothing per message.  3.4 / 5.1 while the pending queue and the
  network built span arguments and called ``begin`` / ``end`` on the
  tracer's null span; 0.100 / 0.106 after; 0.113 / 0.113 since
  ``value`` reads through ``get``.

Only frames under ``repro/`` are counted, each flood runs once
unobserved first (so the process-wide caches are as warm for the
telemetry-on run as for the one after it), and the cycle collector is
paused in the counted window: a collection there would run whatever
``gc.callbacks`` and finalizers the rest of the process left, and
charge them to telemetry.

The frame budgets below hold the two steps every message takes: a
finished span and a minted child context are one frame each.
"""

import gc
import os
import sys

import pytest

import repro
import repro.bench.overload as overload
from repro.obs.propagation import TraceIdAllocator
from repro.obs.telemetry import Telemetry
from repro.obs.tracing import Tracer

ON_CALLS_BUDGET = 24.5
OFF_OBS_CALLS_BUDGET = 0.2

REPRO_DIR = os.path.dirname(repro.__file__) + os.sep
OBS_DIR = os.path.join(REPRO_DIR, "obs") + os.sep


def count_overload_calls(monkeypatch, governed, enabled):
    """(calls into repro, calls into repro/obs, offered messages) of one
    ``run_overload(seed=7)`` with telemetry ``enabled`` or not."""
    monkeypatch.setattr(overload, "Telemetry",
                        lambda **_: Telemetry(enabled=enabled))
    overload.run_overload(seed=7, governed=governed)
    calls = obs_calls = 0

    def profiler(frame, event, arg):
        nonlocal calls, obs_calls
        if event == "call":
            filename = frame.f_code.co_filename
            if filename.startswith(REPRO_DIR):
                calls += 1
                if filename.startswith(OBS_DIR):
                    obs_calls += 1

    previous = sys.getprofile()
    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profiler)
    try:
        document = overload.run_overload(seed=7, governed=governed)
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()
    return calls, obs_calls, document["flood"]["offered"]


@pytest.mark.parametrize("governed", [True, False],
                         ids=["governed", "ungoverned"])
def test_telemetry_on_adds_a_bounded_number_of_calls_per_message(
        monkeypatch, governed):
    on, _, offered = count_overload_calls(monkeypatch, governed, True)
    off, _, _ = count_overload_calls(monkeypatch, governed, False)
    assert offered == 160
    per_message = (on - off) / offered
    assert per_message <= ON_CALLS_BUDGET, (
        f"telemetry adds {per_message:.2f} calls into repro per message")


@pytest.mark.parametrize("governed", [True, False],
                         ids=["governed", "ungoverned"])
def test_telemetry_off_builds_nothing_on_the_message_path(
        monkeypatch, governed):
    _, obs_calls, offered = count_overload_calls(monkeypatch, governed,
                                                 False)
    per_message = obs_calls / offered
    assert per_message <= OFF_OBS_CALLS_BUDGET, (
        f"{per_message:.2f} calls into repro.obs per message with "
        f"telemetry off")


def count_frames_in(path_suffix, action):
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.endswith(
                path_suffix):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        action()
    finally:
        sys.setprofile(previous)
    return calls


def test_a_span_begins_and_ends_in_one_frame_each():
    tracer = Tracer(clock=lambda: 1.0)
    spans = []
    tracing = os.path.join("repro", "obs", "tracing.py")
    assert count_frames_in(tracing, lambda: spans.append(
        tracer.begin("w", category="c", track="t", k="v"))) == 1
    assert count_frames_in(tracing, lambda: spans[0].end(outcome="ok")) == 1
    assert tracer.spans == spans and tracer.open_count == 0
    assert spans[0].args == {"k": "v", "outcome": "ok"}


def test_a_child_context_is_minted_in_one_frame():
    ids = TraceIdAllocator()
    root = ids.root()
    minted = []
    propagation = os.path.join("repro", "obs", "propagation.py")
    assert count_frames_in(propagation, lambda: minted.append(
        ids.child(root, advance_hop=True))) == 1
    child = minted[0]
    assert (child.trace_id, child.parent_span_id, child.hop) == \
        (root.trace_id, root.span_id, 1)
    assert repr(child) == ("TraceContext(trace_id='t00000001', "
                           "span_id='s00000002', "
                           "parent_span_id='s00000001', hop=1)")
