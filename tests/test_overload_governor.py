"""Overload protection: limits primitives, governor, bounded queue,
breakers, and the R3 flood scenario.

The property tests pin the two conservation invariants the subsystem is
built on:

- queue occupancy never exceeds its bounds, and every offered message is
  accounted for (``offered == accepted + rejected``);
- a token bucket's level stays in ``[0, capacity]`` no matter the
  take/refill interleaving.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.briefcase import Briefcase
from repro.core.errors import (
    BriefcaseTooLargeError,
    CircuitOpenError,
    OverloadError,
    QueueFullError,
    QuotaExceededError,
    TransientError,
)
from repro.core.identity import SYSTEM_PRINCIPAL
from repro.core.limits import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BreakerConfig,
    CircuitBreaker,
    QueueLimits,
    TokenBucket,
    WireLimits,
)
from repro.core.uri import AgentUri
from repro.firewall.governor import Governor, GovernorConfig, QuotaSpec
from repro.firewall.message import Message, SenderInfo
from repro.firewall.msgqueue import PendingQueue
from repro.obs.telemetry import Telemetry
from repro.sim.eventloop import Kernel


def message(target="svc", principal="alice", timeout=30.0, priority=0,
            payload=b""):
    briefcase = Briefcase()
    if payload:
        briefcase.append("PAYLOAD", payload)
    return Message(target=AgentUri.parse(target), briefcase=briefcase,
                   sender=SenderInfo(principal=principal, host="h",
                                     authenticated=True),
                   queue_timeout=timeout, priority=priority)


def telemetry_kernel() -> Kernel:
    return Kernel(telemetry=Telemetry(enabled=True))


# -- error taxonomy -----------------------------------------------------------------


class TestErrorTaxonomy:
    def test_overload_errors_are_transient(self):
        for exc_type in (OverloadError, QueueFullError,
                         QuotaExceededError, CircuitOpenError):
            assert issubclass(exc_type, TransientError)
            assert exc_type("x").transient

    def test_wire_errors_are_permanent(self):
        assert not BriefcaseTooLargeError("x").transient


# -- token bucket -------------------------------------------------------------------


class TestTokenBucket:
    def test_starts_full_and_drains(self):
        bucket = TokenBucket(rate=1.0, capacity=3.0, now=0.0)
        assert all(bucket.try_take(1.0, now=0.0) for _ in range(3))
        assert not bucket.try_take(1.0, now=0.0)

    def test_refills_at_rate_capped_at_capacity(self):
        bucket = TokenBucket(rate=2.0, capacity=4.0, now=0.0)
        for _ in range(4):
            bucket.try_take(1.0, now=0.0)
        assert bucket.peek(1.0) == pytest.approx(2.0)
        assert bucket.peek(100.0) == pytest.approx(4.0)

    def test_failed_take_removes_nothing(self):
        bucket = TokenBucket(rate=0.0, capacity=2.0, now=0.0)
        assert not bucket.try_take(3.0, now=0.0)
        assert bucket.peek(0.0) == pytest.approx(2.0)

    def test_seconds_until(self):
        bucket = TokenBucket(rate=2.0, capacity=10.0, now=0.0, level=0.0)
        assert bucket.seconds_until(4.0, now=0.0) == pytest.approx(2.0)
        assert bucket.seconds_until(11.0, now=0.0) == float("inf")
        assert TokenBucket(rate=0.0, capacity=5.0, level=1.0) \
            .seconds_until(2.0, now=0.0) == float("inf")

    @given(
        rate=st.floats(min_value=0.0, max_value=50.0,
                       allow_nan=False, allow_infinity=False),
        capacity=st.floats(min_value=0.1, max_value=50.0,
                           allow_nan=False, allow_infinity=False),
        steps=st.lists(st.tuples(
            st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False)),
            max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_level_always_within_bounds(self, rate, capacity, steps):
        bucket = TokenBucket(rate=rate, capacity=capacity, now=0.0)
        now = 0.0
        for dt, want in steps:
            now += dt
            before = bucket.peek(now)
            took = bucket.try_take(want, now=now)
            assert 0.0 <= bucket.level <= bucket.capacity + 1e-9
            if took:
                assert bucket.level == pytest.approx(
                    max(0.0, before - want), abs=1e-6)
            else:
                assert bucket.level == pytest.approx(before)


# -- circuit breaker ----------------------------------------------------------------


class TestCircuitBreaker:
    def config(self, **overrides):
        base = dict(failure_threshold=3, cooldown_seconds=2.0,
                    half_open_probes=1)
        base.update(overrides)
        return BreakerConfig(**base)

    def test_opens_after_threshold(self):
        breaker = CircuitBreaker(self.config())
        for _ in range(2):
            breaker.record_failure(0.0)
        assert breaker.state == BREAKER_CLOSED
        breaker.record_failure(0.0)
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow(1.0)
        assert breaker.fast_failures == 1

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(self.config())
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        breaker.record_success(0.0)
        breaker.record_failure(0.0)
        assert breaker.state == BREAKER_CLOSED

    def test_half_open_probe_closes_on_success(self):
        breaker = CircuitBreaker(self.config())
        for _ in range(3):
            breaker.record_failure(0.0)
        assert breaker.allow(2.5)  # past cooldown: the probe
        assert breaker.state == BREAKER_HALF_OPEN
        assert not breaker.allow(2.5)  # only one probe allowed
        breaker.record_success(2.6)
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow(2.7)

    def test_half_open_probe_reopens_on_failure(self):
        breaker = CircuitBreaker(self.config())
        for _ in range(3):
            breaker.record_failure(0.0)
        assert breaker.allow(2.5)
        breaker.record_failure(2.5)
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow(3.0)  # cooldown restarted at 2.5
        assert breaker.allow(4.6)

    def test_transition_callback_and_snapshot(self):
        seen = []
        breaker = CircuitBreaker(
            self.config(), on_transition=lambda o, n, t: seen.append((o, n)))
        for _ in range(3):
            breaker.record_failure(1.0)
        breaker.allow(4.0)
        breaker.record_success(4.0)
        assert seen == [(BREAKER_CLOSED, BREAKER_OPEN),
                        (BREAKER_OPEN, BREAKER_HALF_OPEN),
                        (BREAKER_HALF_OPEN, BREAKER_CLOSED)]
        snapshot = breaker.snapshot()
        assert snapshot["state"] == BREAKER_CLOSED
        assert snapshot["opened_count"] == 1


# -- config round trips -------------------------------------------------------------


class TestConfigRoundTrips:
    def test_quota_spec(self):
        spec = QuotaSpec(messages_per_second=5.0, burst=8,
                         max_bytes_in_flight=1000)
        assert QuotaSpec.from_config(spec.to_config()) == spec
        assert QuotaSpec.from_config(None) is None
        assert QuotaSpec(messages_per_second=3.0).bucket_capacity == 6.0

    def test_wire_limits(self):
        limits = WireLimits(max_encoded_bytes=1024, max_folders=4)
        assert WireLimits.from_config(limits.to_config()) == limits

    def test_breaker_config(self):
        config = BreakerConfig(failure_threshold=2, cooldown_seconds=1.0)
        assert BreakerConfig.from_config(config.to_config()) == config

    def test_validation(self):
        with pytest.raises(ValueError):
            QuotaSpec(messages_per_second=0.0)
        with pytest.raises(ValueError):
            QueueLimits(max_messages=0)
        with pytest.raises(ValueError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(ValueError):
            GovernorConfig(overflow="bogus")


# -- governor admission -------------------------------------------------------------


class TestGovernor:
    def governor(self, **config):
        kernel = telemetry_kernel()
        return Governor(kernel, "h.test", GovernorConfig(**config)), kernel

    def test_no_quota_admits_everything(self):
        governor, _ = self.governor()
        for _ in range(100):
            governor.admit_message("alice", 10_000)
        assert governor.admitted == 100

    def test_system_principal_exempt_from_default(self):
        governor, _ = self.governor(
            default_quota=QuotaSpec(messages_per_second=1.0, burst=1))
        governor.admit_message("system", 10)
        governor.admit_message("system", 10)  # would exceed burst=1
        with pytest.raises(QuotaExceededError):
            governor.admit_message("alice", 10)
            governor.admit_message("alice", 10)

    def test_explicit_system_quota_is_honoured(self):
        governor, _ = self.governor(
            quotas={SYSTEM_PRINCIPAL: QuotaSpec(messages_per_second=1.0,
                                                burst=1)})
        governor.admit_message("system", 10)
        with pytest.raises(QuotaExceededError):
            governor.admit_message("system", 10)

    def test_rate_quota_refills_with_virtual_time(self):
        governor, kernel = self.governor(
            default_quota=QuotaSpec(messages_per_second=2.0, burst=2))
        governor.admit_message("alice", 1)
        governor.admit_message("alice", 1)
        with pytest.raises(QuotaExceededError):
            governor.admit_message("alice", 1)
        kernel.run(until=1.0)  # 2 tokens refill
        governor.admit_message("alice", 1)
        assert governor.rejections == {"rate": 1}

    def test_bytes_in_flight_quota(self):
        governor, kernel = self.governor(
            default_quota=QuotaSpec(max_bytes_in_flight=100))
        queue = PendingQueue(kernel)
        queue.park(message(principal="alice", payload=b"x" * 80))
        wire = 90
        with pytest.raises(QuotaExceededError, match="bytes-in-flight|quota"):
            governor.admit_message("alice", wire, pending=queue)
        # A different principal is unaffected.
        governor.admit_message("bob", wire, pending=queue)

    def test_wire_limit_is_permanent_not_transient(self):
        governor, _ = self.governor(
            wire_limits=WireLimits(max_encoded_bytes=100))
        with pytest.raises(BriefcaseTooLargeError):
            governor.admit_message("alice", 101)

    def test_agent_and_cabinet_quotas(self):
        governor, _ = self.governor(
            default_quota=QuotaSpec(max_resident_agents=2,
                                    max_cabinet_bytes=100))
        governor.admit_agent("alice", 1)
        with pytest.raises(QuotaExceededError):
            governor.admit_agent("alice", 2)
        governor.admit_cabinet("alice", 50, 50)
        with pytest.raises(QuotaExceededError):
            governor.admit_cabinet("alice", 50, 51)

    def test_resident_quota_through_register_agent(self):
        from repro.firewall.policy import Policy
        from repro.system.cluster import TaxCluster

        cluster = TaxCluster()
        node = cluster.add_node("h.example", policy=Policy(
            governor=GovernorConfig(
                default_quota=QuotaSpec(max_resident_agents=2))))
        residents_before = len(node.firewall.registry)
        node.driver(name="a1", principal="alice")
        second = node.driver(name="a2", principal="alice")
        with pytest.raises(
                QuotaExceededError,
                match=r"'alice' at h.example: 2 resident agents already "
                      r"\(quota 2\)"):
            node.driver(name="a3", principal="alice")
        assert node.firewall.governor.rejections == {"resident-agents": 1}
        # Another principal has its own count; the system has no quota.
        node.driver(name="b1", principal="bob")
        node.driver(name="s1")
        node.firewall.unregister_agent(second.registration.agent_id)
        node.driver(name="a3", principal="alice")
        assert len(node.firewall.registry) == residents_before + 4

    def test_snapshot_is_deterministic_and_jsonable(self):
        import json
        governor, _ = self.governor(
            default_quota=QuotaSpec(messages_per_second=1.0, burst=1))
        governor.admit_message("b", 1)
        governor.admit_message("a", 1)
        snapshot = governor.snapshot()
        assert json.dumps(snapshot, sort_keys=True)
        assert list(snapshot["buckets"]) == ["a", "b"]


# -- bounded pending queue ----------------------------------------------------------


class TestBoundedQueue:
    def test_unbounded_by_default(self, kernel):
        queue = PendingQueue(kernel)
        for _ in range(500):
            queue.park(message())
        assert len(queue) == 500

    def test_reject_policy_raises_transient(self):
        kernel = telemetry_kernel()
        queue = PendingQueue(kernel, host="h",
                             limits=QueueLimits(max_messages=2))
        queue.park(message())
        queue.park(message())
        with pytest.raises(QueueFullError) as info:
            queue.park(message())
        assert info.value.transient
        assert len(queue) == 2 and queue.rejected == 1
        assert kernel.telemetry.metrics.value(
            "fw.queue_rejected", host="h", policy="reject") == 1

    def test_byte_bound(self, kernel):
        queue = PendingQueue(kernel, limits=QueueLimits(max_bytes=300))
        queue.park(message(payload=b"x" * 200))
        with pytest.raises(QueueFullError):
            queue.park(message(payload=b"y" * 200))

    def test_oversized_message_rejected_even_when_empty(self, kernel):
        queue = PendingQueue(kernel, limits=QueueLimits(max_bytes=50),
                             overflow="drop-oldest")
        with pytest.raises(QueueFullError, match="alone exceeds"):
            queue.park(message(payload=b"x" * 100))

    def test_drop_oldest_evicts_to_dead_letters(self):
        kernel = telemetry_kernel()
        queue = PendingQueue(kernel, host="h",
                             limits=QueueLimits(max_messages=2),
                             overflow="drop-oldest")
        first = message(target="a")
        queue.park(first)
        queue.park(message(target="b"))
        queue.park(message(target="c"))
        assert [t.name for t in queue.peek_targets()] == ["b", "c"]
        assert queue.evicted == 1
        assert queue.dead_letters[-1].message is first
        assert queue.dead_letters[-1].reason == "evicted"
        assert kernel.telemetry.metrics.value(
            "fw.queue_evictions", host="h", policy="drop-oldest") == 1

    def test_shed_priority_evicts_strictly_lower(self, kernel):
        queue = PendingQueue(kernel, limits=QueueLimits(max_messages=2),
                             overflow="shed-priority")
        queue.park(message(target="low", priority=0))
        queue.park(message(target="high", priority=5))
        queue.park(message(target="urgent", priority=9))
        assert [t.name for t in queue.peek_targets()] == ["high", "urgent"]
        # An equal-priority newcomer is rejected, not shed for.
        with pytest.raises(QueueFullError, match="no lower-priority"):
            queue.park(message(target="also-high", priority=5))

    def test_eviction_removes_the_entry_itself_not_an_equal_one(
            self, kernel, monkeypatch):
        # Entries used to compare by value: removing the mid-queue
        # victim walked ``Message.__eq__`` -> ``Briefcase.__eq__`` over
        # every earlier entry until ``park_id``, the last field, differed.
        def refuse(self, other):
            raise AssertionError("a parked entry was compared by value")
        monkeypatch.setattr(Briefcase, "__eq__", refuse)
        monkeypatch.setattr(Message, "__eq__", refuse)
        queue = PendingQueue(kernel, limits=QueueLimits(max_messages=8),
                             overflow="shed-priority")
        # Eight messages with equal briefcases; the fifth is the only
        # one a priority-1 arrival may shed.
        for index in range(8):
            queue.park(message(priority=0 if index == 4 else 1))
        ids = [entry.park_id for entry in queue.parked_entries()]
        queue.park(message(target="vip", priority=1))
        assert [entry.park_id for entry in queue.parked_entries()] == \
            ids[:4] + ids[5:] + [9]
        assert [record.park_id for record in queue.dead_letters] == [5]
        assert queue.evicted == 1

    def test_watermarks_track_peak(self):
        kernel = telemetry_kernel()
        queue = PendingQueue(kernel, host="h",
                             limits=QueueLimits(max_messages=10))
        for _ in range(4):
            queue.park(message())
        queue.claim(lambda target: True)
        metrics = kernel.telemetry.metrics
        assert metrics.value("fw.queue_depth", host="h") == 0
        assert metrics.value("fw.queue_peak_depth", host="h") == 4

    def test_dead_letter_ledger_trims_visibly(self):
        kernel = telemetry_kernel()
        queue = PendingQueue(kernel, host="h", dead_letter_limit=2)
        for i in range(4):
            queue.park(message(target=f"t{i}", timeout=1.0))
        kernel.run(until=2.0)
        assert queue.expired_count == 4
        # The oldest records were trimmed; the newest two survive.
        assert [str(record.message.target)
                for record in queue.dead_letters] == ["t2", "t3"]
        assert queue.dead_letter_evictions == 2
        assert kernel.telemetry.metrics.value(
            "fw.dead_letter_evictions", host="h") == 2

    def test_bad_configuration_rejected(self, kernel):
        with pytest.raises(ValueError):
            PendingQueue(kernel, overflow="bogus")
        with pytest.raises(ValueError):
            PendingQueue(kernel, dead_letter_limit=0)

    @given(
        max_messages=st.integers(min_value=1, max_value=8),
        max_bytes=st.integers(min_value=50, max_value=2000),
        policy=st.sampled_from(["reject", "drop-oldest", "shed-priority"]),
        offers=st.lists(st.tuples(
            st.integers(min_value=0, max_value=400),   # payload bytes
            st.integers(min_value=0, max_value=3)),    # priority
            max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_bounds_and_conservation_hold(self, max_messages, max_bytes,
                                          policy, offers):
        kernel = Kernel()
        limits = QueueLimits(max_messages=max_messages, max_bytes=max_bytes)
        queue = PendingQueue(kernel, limits=limits, overflow=policy)
        for payload_bytes, priority in offers:
            try:
                queue.park(message(payload=b"x" * payload_bytes,
                                   priority=priority))
            except QueueFullError:
                pass
            # Bounds hold after every single offer.
            assert len(queue) <= max_messages
            assert queue.bytes <= max_bytes
        accounting = queue.accounting()
        assert accounting["offered"] == len(offers)
        assert accounting["offered"] == \
            accounting["accepted"] + accounting["rejected"]
        assert accounting["accepted"] == \
            accounting["claimed"] + accounting["expired"] + \
            accounting["crashed"] + accounting["evicted"] + \
            accounting["parked_now"]
        assert accounting["parked_bytes"] == \
            sum(e.wire_bytes for e in queue._pending)


# -- the flood scenario (R3) --------------------------------------------------------


class TestOverloadScenario:
    @pytest.fixture(scope="class")
    def documents(self):
        from repro.bench.overload import run_overload
        return {
            "governed": run_overload(seed=7, governed=True),
            "ungoverned": run_overload(seed=7, governed=False),
        }

    def test_ungoverned_queue_is_unbounded(self, documents):
        bare = documents["ungoverned"]
        assert bare["target"]["queue_peak_depth"] >= \
            bare["flood"]["offered"]
        assert bare["stats"]["queue_rejected"] == 0
        assert bare["breaker"]["fast_failed"] == 0

    def test_governed_queue_stays_bounded(self, documents):
        governed = documents["governed"]
        cap = governed["target"]["governor"]["queue_limits"]["max_messages"]
        assert governed["target"]["queue_peak_depth"] <= cap

    def test_governed_flood_still_completes(self, documents):
        governed = documents["governed"]
        assert governed["flood"]["completion_rate"] >= 0.95
        assert governed["stats"]["overload_rejections"] > 0
        assert governed["stats"]["transport_retries"] > 0

    def test_breaker_fast_fails_dead_host(self, documents):
        governed = documents["governed"]
        assert governed["breaker"]["fast_failed"] > 0
        link = governed["breaker"]["links"][
            "target.overload.example->dead.overload.example"]
        assert link["opened_count"] >= 1

    def test_poison_quarantined_not_crashed(self, documents):
        assert documents["ungoverned"]["target"]["quarantined"] == 2
        # The governed wire limit additionally catches the oversized one.
        assert documents["governed"]["target"]["quarantined"] == 3

    def test_accounting_identity_in_both_modes(self, documents):
        for document in documents.values():
            queue = document["target"]["queue"]
            assert queue["offered"] == queue["accepted"] + queue["rejected"]
            assert queue["accepted"] == \
                queue["claimed"] + queue["expired"] + queue["crashed"] + \
                queue["evicted"] + queue["parked_now"]

    def test_document_is_deterministic(self, documents):
        from repro.bench.overload import run_overload
        from repro.chaos.harness import render_document
        again = run_overload(seed=7, governed=True)
        assert render_document(again) == \
            render_document(documents["governed"])

    def test_r3_claims_hold(self):
        from repro.bench.experiments import run_r3
        assert run_r3().to_dict()["reproduced"]
