"""Property tests for the codec fast paths, the encoding cache, the
metrics registry's held series, the kernel's drains and the pending
queue's expiry timer.

Five invariants underwrite the hot-path work:

1. Round-trip byte identity: for any briefcase, ``encode`` produces the
   same bytes regardless of which decoder (fast or reference) built the
   briefcase, and ``decode(encode(b)) == b`` through both paths.
2. Cache soundness: every mutating ``Folder`` / ``Briefcase`` operation
   invalidates the cached encoding, so ``encode`` never serves stale
   bytes.
3. Series invisibility: writing by name, through a held family or
   through series held across resets and switches records exactly what
   a registry that canonicalises the labels of every call does, and
   raises what it raises.
4. Drain invisibility: the kernel's one dispatch loop fires any
   schedule in the same order, to the same instant and count, with or
   without a bound and with telemetry on or off; ``run(until=…)`` and
   ``run_until(event)`` fire a prefix of that order and leave the clock
   where the clock rules say.
5. Timer invisibility: a pending queue that arms one expiry timer
   expires the same messages at the same instants in the same order —
   and leaves the same counters, ledger, change records, spans and
   metrics — as one that spawns a watcher process per parked message;
   only the kernel's event count is lower.
"""

import json
import string

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import (  # noqa: E402
    example,
    given,
    settings,
    strategies as st,
)

from repro.core import codec  # noqa: E402
from repro.core.briefcase import Briefcase  # noqa: E402
from repro.core.errors import QueueFullError  # noqa: E402
from repro.core.limits import QueueLimits  # noqa: E402
from repro.core.uri import AgentUri  # noqa: E402
from repro.firewall.changes import ChangeStream  # noqa: E402
from repro.firewall.message import Message, SenderInfo  # noqa: E402
from repro.firewall.msgqueue import PendingQueue  # noqa: E402
from repro.obs.metrics import MetricError, MetricsRegistry  # noqa: E402
from repro.obs.telemetry import Telemetry  # noqa: E402
from repro.sim.eventloop import Kernel  # noqa: E402
from tests.oracles.codec import reference_decode  # noqa: E402
from tests.oracles.metrics import ReferenceRegistry  # noqa: E402
from tests.oracles.msgqueue import ReferencePendingQueue  # noqa: E402

folder_names = st.text(
    alphabet=string.ascii_letters + string.digits + "-_.",
    min_size=1,
    max_size=24,
)

briefcases = st.dictionaries(
    folder_names,
    st.lists(st.binary(max_size=200), max_size=8),
    max_size=8,
).map(Briefcase.from_dict)


class TestRoundTripByteIdentity:
    @given(briefcase=briefcases)
    @settings(max_examples=150, deadline=None)
    def test_encode_decode_round_trip_both_paths(self, briefcase):
        wire = codec.encode(briefcase)
        fast = codec.decode(wire)
        reference = reference_decode(wire)
        assert fast == reference == briefcase
        # Re-encoding either decode result reproduces the input bytes.
        assert codec.encode(fast) == wire
        assert codec.encode(reference) == wire

    @given(briefcase=briefcases)
    @settings(max_examples=75, deadline=None)
    def test_decode_is_buffer_type_agnostic(self, briefcase):
        wire = codec.encode(briefcase)
        assert codec.decode(bytearray(wire)) == briefcase
        assert codec.decode(memoryview(wire)) == briefcase

    @given(briefcase=briefcases)
    @settings(max_examples=75, deadline=None)
    def test_encoded_size_matches_actual_encoding(self, briefcase):
        assert codec.encoded_size(briefcase) == len(codec.encode(briefcase))


# Each entry mutates the briefcase it receives; the name labels the
# operation under test.  Operations that need a folder get "A", which
# every generated briefcase below is guaranteed to contain.
FOLDER_MUTATIONS = {
    "push": lambda b: b.folder("A").push(b"new"),
    "push_all": lambda b: b.folder("A").push_all([b"x", b"y"]),
    "pop_first": lambda b: b.folder("A").pop_first(),
    "clear": lambda b: b.folder("A").clear(),
    "replace": lambda b: b.folder("A").replace([b"only"]),
}

BRIEFCASE_MUTATIONS = {
    "folder": lambda b: b.folder("BRAND-NEW"),
    "drop": lambda b: b.drop("A"),
    "drop_all_except": lambda b: b.drop_all_except([]),
    "put": lambda b: b.put("A", b"exclusive"),
    "append": lambda b: b.append("A", b"tail"),
}

ALL_MUTATIONS = {**FOLDER_MUTATIONS, **BRIEFCASE_MUTATIONS}


# A function, not a method: pytest gives each parametrized case of a
# method its own instance, and Hypothesis's ``differing_executors``
# health check refuses one ``@given`` test run from several instances
# (it fires under CPython 3.12 and later).
@pytest.mark.parametrize("op", sorted(ALL_MUTATIONS))
@given(briefcase=briefcases)
@settings(max_examples=25, deadline=None)
def test_mutation_invalidates_cached_encoding(op, briefcase):
    # Guarantee folder "A" exists with at least one element so every
    # operation is applicable.
    briefcase.put("A", b"seed")
    before = codec.encode(briefcase)
    assert briefcase._wire_cached_bytes() is not None
    ALL_MUTATIONS[op](briefcase)
    after = codec.encode(briefcase)
    # The cache must reflect the mutated state: re-decoding the fresh
    # bytes reproduces the briefcase exactly.
    assert codec.decode(after) == briefcase
    assert codec.encoded_size(briefcase) == len(after)
    assert reference_decode(after) == briefcase
    if after == before:
        # A mutation may restore the identical logical state (e.g.
        # replace on a folder that already held that value); bytes then
        # legitimately match.  It must still decode correctly, which the
        # asserts above covered.
        return
    assert after != before


class TestCacheInvalidation:
    @pytest.mark.parametrize("op", sorted(ALL_MUTATIONS))
    def test_mutation_drops_cached_buffer(self, op):
        briefcase = Briefcase({"A": [b"one", b"two"], "B": [b"three"]})
        codec.encode(briefcase)
        assert briefcase._wire_cached_bytes() is not None
        ALL_MUTATIONS[op](briefcase)
        assert briefcase._wire_cached_bytes() is None

    @given(briefcase=briefcases)
    @settings(max_examples=50, deadline=None)
    def test_unmutated_briefcase_serves_identical_object(self, briefcase):
        first = codec.encode(briefcase)
        assert codec.encode(briefcase) is first

    @given(briefcase=briefcases)
    @settings(max_examples=50, deadline=None)
    def test_read_only_operations_preserve_cache(self, briefcase):
        briefcase.put("A", b"seed")
        wire = codec.encode(briefcase)
        briefcase.names()
        briefcase.has("A")
        briefcase.get_first("A")
        briefcase.get("A").texts()
        briefcase.get("A").byte_size()
        briefcase.get("A").first()
        briefcase.get("A")[0:1]
        list(briefcase.get("A"))
        briefcase.payload_bytes()
        briefcase.to_dict()
        assert codec.encode(briefcase) is wire


#: Values chosen to collide: ``1 == True == 1.0`` (one hash) stringify
#: three ways, each has a ``str`` twin, and a list is unhashable.
label_values = st.one_of(
    st.sampled_from([1, True, 1.0, None, "1", "True", "1.0", "None"]),
    st.lists(st.just(1), max_size=1),
)

label_items = st.dictionaries(
    st.sampled_from(["a", "b"]), label_values, max_size=2,
).flatmap(lambda labels: st.permutations(list(labels.items())))

#: One step of a registry's life: a write (the op names of
#: ``ReferenceRegistry.OPS``), or an attempt to use the counter as a
#: gauge.
WRITES = ["inc", "set", "add", "set_max", "observe"]
STEPS = WRITES * 5 + ["conflict"]

#: (step, value, label items in the keyword order of the call); long
#: enough that most calls repeat, or collide with, an earlier label set.
#: -1 is the amount a counter refuses.
metric_calls = st.lists(
    st.tuples(
        st.sampled_from(STEPS),
        st.integers(min_value=-1, max_value=9),
        label_items),
    min_size=20, max_size=60)

#: write op → the family each route writes it to.
FAMILY_OF = {"inc": "c", "set": "g", "add": "g", "set_max": "g",
             "observe": "h"}
H_BUCKETS = (1, 4, 8)


def by_name(registry):
    """Every write looks its family up by name: the registry's two
    recorders, and get-or-create for the three ops they do not cover."""
    def write(op, value, items):
        labels = dict(items)
        if op == "inc":
            registry.inc("c", value, **labels)
        elif op == "observe":
            registry.observe("h", value, **labels)
        else:
            getattr(registry.gauge("g"), op)(value, **labels)
    return write


def by_family(registry):
    """Family objects held across the whole call list."""
    held = {"c": registry.counter("c"), "g": registry.gauge("g"),
            "h": registry.histogram("h")}

    def write(op, value, items):
        getattr(held[FAMILY_OF[op]], op)(value, **dict(items))
    return write


def by_series(registry):
    """Series objects resolved once per label set *as passed* and held
    across the whole call list."""
    held = {}

    def write(op, value, items):
        name = FAMILY_OF[op]
        key = (name, repr(items))
        if key not in held:
            held[key] = registry.get(name).labels(**dict(items))
        getattr(held[key], op)(value)
    return write


def by_reference(reference):
    def write(op, value, items):
        reference.write(op, FAMILY_OF[op], value, dict(items))
    return write


def replay(calls, registry, route):
    """Feed ``calls`` to ``registry`` through ``route``: what each call
    raised, and the final snapshot as JSON."""
    registry.counter("c")
    registry.gauge("g")
    registry.histogram("h", buckets=H_BUCKETS)
    write = route(registry)
    raised = []
    for step, value, items in calls:
        try:
            if step == "conflict":
                registry.gauge("c")
            else:
                write(step, value, items)
        except (MetricError, ValueError) as exc:
            raised.append((type(exc).__name__, str(exc)))
        else:
            raised.append(None)
    return raised, json.dumps(registry.snapshot(), sort_keys=True)


class TestHeldSeriesAreTheRegistry:
    @given(calls=metric_calls)
    @example(calls=[(op, 2, [("a", value)]) for op in WRITES
                    for value in (1, True, 1.0, "1")]
             + [("inc", 1, [("a", True)]), ("inc", -1, [("a", 1)]),
                ("conflict", 0, []), ("set_max", 0, [("b", "x"), ("a", 1)]),
                ("set_max", -1, [("a", 1), ("b", "x")])])
    @settings(max_examples=200, deadline=None)
    def test_every_route_matches_canonicalising_every_call(self, calls):
        reference = replay(calls, ReferenceRegistry(), by_reference)
        for route in (by_name, by_family, by_series):
            assert replay(calls, MetricsRegistry(), route) == reference, \
                route.__name__


#: Few distinct delays, so that instants tie across timers, their
#: children and the zero-delay events the children post.
tick = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.5])

#: (delay, fanout, child delay): a timer whose callback posts ``fanout``
#: more timers; a fanout of 70 grows the heap well past the schedule's
#: own size from inside the loop.
schedules = st.lists(
    st.tuples(tick, st.sampled_from([0, 0, 0, 1, 3, 70]), tick),
    max_size=128)

#: Deadlines on, between and beyond the instants ``tick`` can produce
#: (the latest is 2.5 + 2.5).
deadlines = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 2.5, 3.5, 5.0, 9.0])


def fire(schedule, telemetry=False, stop=None, **bounds):
    """Run ``schedule`` on a fresh kernel: firing order, clock, count.

    ``stop(kernel, timers)`` names the event to ``run_until``; without
    it the kernel is ``run``.
    """
    kernel = Kernel(telemetry=Telemetry(enabled=telemetry))
    fired = []

    def parent(i, fanout, child_delay):
        def callback(_event):
            fired.append((kernel.now, i))
            for j in range(fanout):
                kernel.timeout(child_delay).add_callback(child(i, j))
        return callback

    def child(i, j):
        def callback(_event):
            fired.append((kernel.now, i, j))
            if j % 2 == 0:
                # A manually triggered event: same instant, next turn.
                kernel.event().succeed().add_callback(
                    lambda _e: fired.append((kernel.now, i, j, "echo")))
        return callback

    timers = []
    for i, (delay, fanout, child_delay) in enumerate(schedule):
        timers.append(kernel.timeout(delay))
        timers[-1].add_callback(parent(i, fanout, child_delay))
    if stop is None:
        kernel.run(**bounds)
    else:
        kernel.run_until(stop(kernel, timers), **bounds)
    return fired, kernel.now, kernel.processed_events


def last_instant(fired):
    """Where the clock stands after ``fired`` if nothing moved it since."""
    return fired[-1][0] if fired else 0.0


class TestDrainRegimes:
    @given(schedule=schedules)
    @settings(max_examples=100, deadline=None)
    def test_every_regime_fires_the_same_schedule(self, schedule):
        fast = fire(schedule)
        assert fire(schedule, max_events=10**9) == fast
        assert fire(schedule, telemetry=True) == fast
        assert fast[2] == len(fast[0])

    @given(schedule=schedules, until=deadlines,
           max_events=st.integers(0, 300), telemetry=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_run_until_a_deadline_fires_a_prefix(
            self, schedule, until, max_events, telemetry):
        whole = fire(schedule)[0]
        due = [entry for entry in whole if entry[0] <= until]
        # ``run(until=T)`` ends at T whether the heap drained or the
        # next event lies beyond T.
        assert fire(schedule, telemetry, until=until) == (
            due, until, len(due))
        # A ``max_events`` stop never moves the clock.
        fired, now, count = fire(schedule, telemetry, until=until,
                                 max_events=max_events)
        assert fired == due[:max_events] and count == len(fired)
        stopped_by_count = max_events < len(due) or (
            max_events == len(due) and len(due) < len(whole))
        assert now == (last_instant(fired) if stopped_by_count else until)

    @given(schedule=schedules.filter(len), data=st.data(),
           until=st.none() | deadlines, telemetry=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_run_until_an_event_fires_a_prefix(
            self, schedule, data, until, telemetry):
        whole = fire(schedule)[0]
        i = data.draw(st.integers(0, len(schedule) - 1))
        instant = schedule[i][0]
        fired, now, count = fire(
            schedule, telemetry, stop=lambda _k, timers: timers[i],
            until=until)
        assert count == len(fired)
        if until is None or instant <= until:
            # Stops right after the awaited timer, at its instant.
            assert fired == whole[:whole.index((instant, i)) + 1]
            assert now == instant
        else:
            # The awaited timer itself lies beyond the deadline.
            assert fired == [e for e in whole if e[0] <= until]
            assert now == until

    @given(schedule=schedules, until=deadlines)
    @settings(max_examples=100, deadline=None)
    def test_run_until_moves_the_clock_only_past_a_pending_event(
            self, schedule, until):
        whole = fire(schedule)[0]
        due = [entry for entry in whole if entry[0] <= until]
        fired, now, _count = fire(
            schedule, stop=lambda kernel, _t: kernel.event(), until=until)
        assert fired == due
        # Heap drained before the deadline: the clock stays at the last
        # event; something still pending beyond it: the clock is there.
        assert now == (until if len(due) < len(whole)
                       else last_instant(fired))


# -- 5. one expiry timer == one watcher per parked message ---------------------------------

#: TTLs and clock steps are dyadic, so every deadline and firing instant
#: is exact in binary floating point and the two queues can be held to
#: equal instants (a timer re-armed at another instant than the park's
#: computes ``now + (deadline - now)`` from a different ``now``).  The
#: sets are small so that deadlines tie, and a later park often carries
#: an earlier deadline than what is already parked.
queue_ttls = st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0])
queue_steps = st.sampled_from([0.25, 0.5, 1.0, 3.0])
queue_targets = st.sampled_from(["a", "b", "c"])
#: Sender principals, independent of the target a message is for.
QUEUE_PRINCIPALS = ("p", "q")

queue_parks = st.tuples(st.just("park"), queue_ttls, queue_targets,
                        st.integers(0, 2),     # ..., priority
                        st.sampled_from(QUEUE_PRINCIPALS))
queue_ops = st.lists(st.one_of(
    queue_parks, queue_parks,   # twice: a third of all operations park
    st.tuples(st.just("advance"), queue_steps),
    st.tuples(st.just("claim"), queue_targets),
    st.tuples(st.just("crash")),
    st.tuples(st.just("restore")),
), max_size=40)

#: Unbounded, and a bound of three messages under each overflow policy.
queue_regimes = st.sampled_from([
    (None, "reject"), (3, "reject"), (3, "drop-oldest"),
    (3, "shed-priority")])


def drive_queue(queue_class, ops, regime):
    """Run ``ops`` against a fresh ``queue_class`` on its own kernel,
    then let every deadline pass; everything an observer of the queue
    can see — including each principal's parked bytes (the governor's
    quota input) after every operation.
    """
    max_messages, overflow = regime
    kernel = Kernel(telemetry=Telemetry(enabled=True))
    changes = ChangeStream()
    records = []
    changes.subscribe(lambda kind, fields: records.append((
        kernel.now, kind,
        {name: value.briefcase.get_text("N")
         if isinstance(value, Message) else value
         for name, value in fields.items()})))
    expiries = []
    timers = []
    queue = queue_class(
        kernel, host="h", overflow=overflow, changes=changes,
        limits=QueueLimits(max_messages=max_messages),
        on_expire=lambda message: expiries.append(
            (kernel.now, message.briefcase.get_text("N"))))
    make_timeout = kernel.timeout
    kernel.timeout = lambda *args: (
        timers.append(make_timeout(*args)) or timers[-1])
    verdicts = []
    principal_bytes = []
    for number, op in enumerate(ops):
        if op[0] == "park":
            _, ttl, target, priority, principal = op
            briefcase = Briefcase()
            briefcase.put("N", str(number))
            try:
                queue.park(Message(
                    target=AgentUri.parse(target), briefcase=briefcase,
                    sender=SenderInfo(principal=principal, host="h"),
                    queue_timeout=ttl, priority=priority))
                verdicts.append("parked")
            except QueueFullError as exc:
                verdicts.append(str(exc))
        elif op[0] == "advance":
            kernel.run(until=kernel.now + op[1])
        elif op[0] == "claim":
            verdicts.append([
                message.briefcase.get_text("N") for message in
                queue.claim(lambda target: target.name == op[1])])
        elif op[0] == "crash":
            verdicts.append(len(queue.crash_flush()))
        else:
            queue.restore_durable(queue.accounting(),
                                  list(queue.dead_letters), queue.park_seq)
        principal_bytes.append(tuple(
            queue.bytes_for_principal(principal)
            for principal in QUEUE_PRINCIPALS + ("nobody",)))
    # Past the longest TTL: every watcher and every timer has fired.
    kernel.run(until=kernel.now + 8.0)
    principal_bytes.append(tuple(
        queue.bytes_for_principal(principal)
        for principal in QUEUE_PRINCIPALS + ("nobody",)))
    metrics = kernel.telemetry.metrics.snapshot()
    kernel_series = {name: metrics.pop(name, None) for name in
                     ("kernel.events_dispatched", "kernel.heap_depth")}
    seen = {
        "verdicts": verdicts,
        "expiries": expiries,
        "accounting": queue.accounting(),
        "ledger": [(record.park_id, record.to_dict())
                   for record in queue.dead_letters],
        "changes": records,
        "spans": kernel.telemetry.tracer.to_jsonl(),
        "metrics": metrics,
        "principal_bytes": principal_bytes,
    }
    return seen, kernel, kernel_series, len(timers)


class TestOneExpiryTimerIsTheWatchers:
    @given(ops=queue_ops, regime=queue_regimes)
    @settings(max_examples=200, deadline=None)
    @example(ops=[("park", 4.0, "a", 0, "p"), ("park", 1.0, "b", 0, "q"),
                  ("park", 1.0, "c", 1, "p"), ("advance", 3.0)],
             regime=(None, "reject"))
    @example(ops=[("park", 2.0, "a", 0, "p"), ("park", 2.0, "b", 1, "q"),
                  ("park", 4.0, "c", 2, "q"), ("park", 1.0, "a", 2, "p"),
                  ("claim", "b"), ("advance", 1.0), ("crash",),
                  ("park", 1.0, "a", 0, "q"), ("restore",)],
             regime=(3, "shed-priority"))
    # A claim leaves the timer for its entry's deadline stale while the
    # superseded one for the next deadline is still pending: re-arming
    # reuses that one instead of arming a fourth timer for three parks.
    @example(ops=[("park", 0.5, "a", 0, "p"), ("park", 0.0, "b", 0, "p"),
                  ("claim", "b"), ("advance", 0.25),
                  ("park", 0.0, "a", 0, "p"), ("crash",)],
             regime=(None, "reject"))
    # A claim at the very instant of a superseded deadline: the timer
    # reused for it has fired by then, so the message expired unclaimed.
    @example(ops=[("park", 1.0, "a", 0, "p"), ("park", 0.5, "b", 0, "q"),
                  ("advance", 1.0), ("claim", "a")],
             regime=(None, "reject"))
    def test_same_expiries_counters_ledger_changes_and_metrics(
            self, ops, regime):
        product, kernel, series, timers = drive_queue(
            PendingQueue, ops, regime)
        oracle, oracle_kernel, oracle_series, watchers = drive_queue(
            ReferencePendingQueue, ops, regime)
        assert product == oracle
        # What the timer saves, exactly: a watcher is three events per
        # accepted park once the heap has drained (its bootstrap, its
        # timeout, its own completion); the product's only events are
        # the timers it armed, at most one per park and one per instant
        # at which something expired.
        accepted = product["accounting"]["accepted"]
        assert watchers == accepted
        assert oracle_kernel.processed_events == 3 * accepted
        assert kernel.processed_events == timers <= accepted + len(
            {instant for instant, _ in product["expiries"]})
        for counted, events in ((series, timers),
                                (oracle_series, 3 * accepted)):
            if events:
                assert counted["kernel.events_dispatched"]["samples"][0][
                    "value"] == events

    def test_a_reused_timer_fires_in_its_original_arms_order(self):
        """At a deadline's instant, the timer reused for it fires before
        any event scheduled after it was first armed — as the per-park
        watcher armed with that park would — so a claim scheduled for
        the same instant finds the message already expired."""

        def drive(queue_class):
            kernel = Kernel()
            expired, claimed = [], []
            queue = queue_class(kernel, host="h", on_expire=lambda message:
                                expired.append(message.target.name))
            for name, ttl in (("a", 1.0), ("b", 0.5)):
                queue.park(Message(
                    target=AgentUri.parse(name), briefcase=Briefcase(),
                    sender=SenderInfo(principal="p", host="h"),
                    queue_timeout=ttl))
            kernel.run(until=0.25)
            # Scheduled after a's deadline was first armed, for that
            # very instant; b's expiry at 0.5 re-arms for it in between.
            kernel.timeout(0.75).add_callback(lambda _: claimed.extend(
                message.target.name for message in
                queue.claim(lambda target: target.name == "a")))
            kernel.run()
            return expired, claimed

        assert drive(PendingQueue) == drive(ReferencePendingQueue) == (
            ["b", "a"], [])
