"""Unit tests for auth, policy, routing, and the pending queue."""

import pytest

from repro.core.briefcase import Briefcase
from repro.core.errors import TrustError
from repro.core.identity import AgentId
from repro.core.uri import AgentUri
from repro.firewall.auth import (
    KeyChain,
    Signature,
    TrustStore,
    build_shared_trust,
)
from repro.firewall.message import Message, SenderInfo
from repro.firewall.msgqueue import PendingQueue
from repro.firewall.policy import (
    OP_ADMIN,
    OP_SEND,
    Policy,
    closed_policy,
    open_policy,
)
from repro.firewall.routing import Registration, Registry
from tests.conftest import parked_targets


def sender(principal="alice", host="h", authenticated=True):
    return SenderInfo(principal=principal, host=host,
                      authenticated=authenticated)


def registration(name="svc", instance="1a", principal="system",
                 delivered=None):
    def deliver(message):
        if delivered is not None:
            delivered.append(message)
        return True
    return Registration(agent_id=AgentId(name, instance),
                        principal=principal, vm_name="vm_python",
                        deliver_fn=deliver, start_time=0.0)


def message(target="svc", principal="alice", timeout=30.0):
    return Message(target=AgentUri.parse(target), briefcase=Briefcase(),
                   sender=sender(principal), queue_timeout=timeout)


class TestAuth:
    def test_sign_verify_round_trip(self):
        keychain, store = build_shared_trust({"alice": False})
        signature = keychain.sign("alice", b"payload")
        assert store.verify(signature, b"payload") == "alice"

    def test_tampered_payload_rejected(self):
        keychain, store = build_shared_trust({"alice": False})
        signature = keychain.sign("alice", b"payload")
        with pytest.raises(TrustError):
            store.verify(signature, b"tampered")

    def test_unknown_principal_rejected(self):
        _keychain, store = build_shared_trust({})
        other = KeyChain()
        other.create_key("mallory")
        with pytest.raises(TrustError, match="unknown principal"):
            store.verify(other.sign("mallory", b"x"), b"x")

    def test_wrong_key_rejected(self):
        keychain, store = build_shared_trust({"alice": False})
        impostor = KeyChain()
        impostor.create_key("alice", secret=b"different")
        with pytest.raises(TrustError, match="bad signature"):
            store.verify(impostor.sign("alice", b"x"), b"x")

    def test_trusted_vs_known(self):
        keychain, store = build_shared_trust({"alice": False,
                                              "root": True})
        assert store.knows("alice") and not store.is_trusted("alice")
        assert store.is_trusted("root")
        signature = keychain.sign("alice", b"x")
        store.verify(signature, b"x")  # verification fine
        with pytest.raises(TrustError, match="not trusted"):
            store.verify_trusted(signature, b"x")

    def test_trust_and_revoke(self):
        _keychain, store = build_shared_trust({"alice": False})
        store.trust("alice")
        assert store.is_trusted("alice")
        store.revoke("alice")
        assert not store.is_trusted("alice")

    def test_cannot_trust_unknown(self):
        store = TrustStore()
        with pytest.raises(TrustError):
            store.trust("ghost")

    def test_signature_text_round_trip(self):
        signature = Signature("user@host", "ab12")
        assert Signature.from_text(signature.to_text()) == signature

    def test_malformed_signature_text(self):
        with pytest.raises(TrustError):
            Signature.from_text("no-colon")

    def test_missing_signing_key(self):
        with pytest.raises(TrustError):
            KeyChain().sign("nobody", b"x")


class TestPolicy:
    def test_open_policy_allows_send(self):
        assert open_policy().can_send(sender(), registration())

    def test_explicit_deny_beats_default(self):
        policy = open_policy()
        policy.deny("alice", OP_SEND)
        assert not policy.can_send(sender("alice"), registration())

    def test_closed_policy_denies_by_default(self):
        policy = closed_policy()
        assert not policy.can_send(sender("alice"))

    def test_closed_policy_owner_allowed(self):
        policy = closed_policy(owners={"boss"})
        assert policy.can_send(sender("boss"))
        assert policy.can_launch(sender("boss"), "vm_python")

    def test_own_agents_always_reachable(self):
        policy = Policy(default_send=False)
        mine = registration(principal="alice")
        assert policy.can_send(sender("alice"), mine)
        assert not policy.can_send(sender("bob"), mine)

    def test_admin_requires_authentication(self):
        policy = open_policy()
        assert policy.can_admin(sender("system", authenticated=True))
        assert not policy.can_admin(sender("system", authenticated=False))

    def test_admin_requires_privilege(self):
        policy = open_policy()
        assert not policy.can_admin(sender("alice"))
        policy.add_owner("alice")
        assert policy.can_admin(sender("alice"))

    def test_admin_explicit_allow(self):
        policy = open_policy()
        policy.allow("auditor", OP_ADMIN)
        assert policy.can_admin(sender("auditor"))

    def test_admin_explicit_deny_beats_owner(self):
        policy = open_policy()
        policy.add_owner("eve")
        policy.deny("eve", OP_ADMIN)
        assert not policy.can_admin(sender("eve"))

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            open_policy().allow("x", "fly")


class TestRegistry:
    def test_resolve_by_name(self):
        registry = Registry()
        reg = registry.add(registration("ag_fs", "1"))
        assert registry.matches(AgentUri.parse("ag_fs"), "alice") == [reg]

    def test_resolve_by_instance_only(self):
        registry = Registry()
        reg = registry.add(registration("whatever", "2b"))
        assert registry.matches(AgentUri.parse(":2b"), None) == [reg]

    def test_oldest_match_wins(self):
        registry = Registry()
        first = registry.add(registration("svc", "1"))
        second = registry.add(registration("svc", "2"))
        found = registry.matches(AgentUri.parse("svc"), None)
        assert [id(reg) for reg in found] == [id(first), id(second)]

    def test_match_order_survives_remove_and_readd(self):
        # Re-registering a removed instance must put it behind
        # everything still there, in the name's list as in all().
        registry = Registry()
        first = registry.add(registration("svc", "1"))
        second = registry.add(registration("svc", "2"))
        third = registry.add(registration("svc", "3"))
        registry.remove(first.agent_id)
        readded = registry.add(registration("svc", "1"))
        target = AgentUri.parse("svc")
        assert registry.matches(target, None) == [second, third, readded]
        assert registry.matches(target, None) == registry.all()
        assert registry.matches(target, None)[0] is second

    def test_no_match_is_empty(self):
        registry = Registry()
        registry.add(registration("svc", "1"))
        assert Registry().matches(AgentUri.parse("ghost"), None) == []
        assert registry.matches(AgentUri.parse("ghost"), None) == []
        assert registry.matches(AgentUri.parse("ghost:1"), None) == []

    def test_two_valid_principals_rule(self):
        registry = Registry()
        alice_agent = registry.add(registration("w", "1", principal="alice"))
        # No principal in the target: bob can't see alice's agent...
        assert registry.matches(AgentUri.parse("w"), "bob") == []
        # ...alice can (sender principal)...
        assert registry.matches(AgentUri.parse("w"), "alice") == \
            [alice_agent]
        # ...and an explicit principal always works.
        assert registry.matches(AgentUri.parse("alice/w"), "bob") == \
            [alice_agent]

    def test_system_agents_visible_to_all(self):
        registry = Registry()
        reg = registry.add(registration("ag_fs", "1", principal="system"))
        assert registry.matches(AgentUri.parse("ag_fs"), "anyone") == [reg]

    def test_duplicate_instance_rejected(self):
        registry = Registry()
        registry.add(registration("a", "1"))
        with pytest.raises(ValueError):
            registry.add(registration("b", "1"))

    def test_remove(self):
        registry = Registry()
        reg = registry.add(registration("a", "1"))
        assert registry.remove(reg.agent_id) is reg
        assert registry.remove(reg.agent_id) is None
        assert len(registry) == 0

    def test_a_removed_registration_refuses_what_it_is_handed(self):
        delivered = []
        registry = Registry()
        reg = registry.add(registration("a", "1", delivered=delivered))
        reg.pause()
        assert reg.deliver(message()) is True     # held for resume
        registry.remove(reg.agent_id)
        assert reg.resume() == 1                  # the backlog is dropped
        assert reg.deliver(message()) is False
        assert delivered == []

    def test_removing_all_leaves_every_registration_refusing(self):
        delivered = []
        registry = Registry()
        regs = [registry.add(registration(name, name, delivered=delivered))
                for name in ("a", "b")]
        registry._remove_all()
        assert len(registry) == 0
        assert [reg.deliver(message()) for reg in regs] == [False, False]
        assert delivered == []

    def test_resident_count_is_per_principal(self):
        registry = Registry()
        registry.add(registration("a", "1", principal="alice"))
        registry.add(registration("b", "2", principal="alice"))
        gone = registry.add(registration("c", "3", principal="alice"))
        registry.add(registration("d", "4", principal="bob"))
        registry.remove(gone.agent_id)
        assert registry.resident_count("alice") == 2
        assert registry.resident_count("bob") == 1
        assert registry.resident_count("carol") == 0

    def test_pause_buffers_and_resume_flushes(self):
        delivered = []
        reg = registration(delivered=delivered)
        reg.pause()
        reg.deliver(message())
        assert delivered == []
        failed = reg.resume()
        assert failed == 0 and len(delivered) == 1

    def test_registration_uri(self):
        reg = registration("svc", "1a", principal="system")
        assert str(reg.uri(host="h")) == "tacoma://h/system/svc:1a"


class TestPendingQueue:
    def test_message_claimable_before_timeout(self, kernel):
        queue = PendingQueue(kernel)
        queue.park(message(timeout=10.0))
        kernel.run(until=5)
        claimed = queue.claim(lambda target: True)
        assert len(claimed) == 1 and len(queue) == 0

    def test_message_expires(self, kernel):
        expired = []
        queue = PendingQueue(kernel, on_expire=expired.append)
        queue.park(message(timeout=10.0))
        kernel.run(until=11)
        assert len(queue) == 0
        assert queue.expired_count == 1 and len(expired) == 1

    def test_claim_is_selective(self, kernel):
        queue = PendingQueue(kernel)
        queue.park(message(target="a"))
        queue.park(message(target="b"))
        claimed = queue.claim(lambda target: target.name == "a")
        assert [m.target.name for m in claimed] == ["a"]
        assert parked_targets(queue) == ["b"]

    def test_claimed_message_does_not_expire(self, kernel):
        expired = []
        queue = PendingQueue(kernel, on_expire=expired.append)
        queue.park(message(timeout=5.0))
        queue.claim(lambda target: True)
        kernel.run(until=10)
        assert expired == [] and queue.expired_count == 0

    def test_fifo_within_claim(self, kernel):
        queue = PendingQueue(kernel)
        first = message(target="a")
        second = message(target="a")
        queue.park(first)
        queue.park(second)
        claimed = queue.claim(lambda target: True)
        assert claimed == [first, second]


class TestPendingQueueExpiryTimer:
    """One kernel timer per queue stands in for a watcher per message."""

    def test_a_later_park_with_an_earlier_deadline_expires_first(
            self, kernel):
        expired = []
        queue = PendingQueue(
            kernel, on_expire=lambda m: expired.append(
                (kernel.now, m.target.name)))
        queue.park(message(target="slow", timeout=10.0))
        superseded = queue._timer
        kernel.run(until=1)
        queue.park(message(target="fast", timeout=2.0))
        assert queue._timer is not superseded
        kernel.run(until=5)
        assert expired == [(3, "fast")]
        # The superseded timer is still on the heap (the kernel has no
        # cancel); at t=10 it does nothing, and the live one expires
        # "slow" once.
        kernel.run()
        assert superseded.processed
        assert expired == [(3, "fast"), (10, "slow")]
        assert queue.expired_count == 2 and len(queue) == 0

    def test_the_timer_rearms_after_a_partial_expiry(self, kernel):
        expired = []
        queue = PendingQueue(
            kernel, on_expire=lambda m: expired.append(
                (kernel.now, m.target.name)))
        for name, ttl in (("a", 2.0), ("b", 5.0), ("c", 2.0), ("d", 9.0)):
            queue.park(message(target=name, timeout=ttl))
        first = queue._timer
        kernel.run(until=2)
        # Same-instant expiries leave in park order; the rest stay.
        assert expired == [(2, "a"), (2, "c")]
        assert parked_targets(queue) == ["b", "d"]
        assert queue._timer is not first and queue._timer_deadline == 5.0
        kernel.run()
        assert expired == [(2, "a"), (2, "c"), (5, "b"), (9, "d")]
        assert queue._timer is None
        # Four parks, three instants: three timers, nothing else.
        assert kernel.processed_events == 3

    @pytest.mark.parametrize("empty", [
        lambda queue: queue.claim(lambda target: True),
        lambda queue: queue.crash_flush(),
        lambda queue: queue.restore_durable({}, [], 1),
    ], ids=["claim", "crash_flush", "restore_durable"])
    def test_an_emptied_queue_leaves_a_timer_that_fires_onto_nothing(
            self, kernel, empty):
        expired = []
        queue = PendingQueue(kernel, on_expire=expired.append)
        queue.park(message(timeout=4.0))
        stale = queue._timer
        empty(queue)
        kernel.run(until=1)
        # The next park arms its own timer, even for a later deadline:
        # the armed one belonged to messages that have left.
        queue.park(message(target="next", timeout=5.0))
        assert queue._timer is not stale
        before = queue.accounting(), list(queue.dead_letters)
        kernel.run(until=4)
        assert stale.processed and expired == []
        assert (queue.accounting(), queue.dead_letters) == before
        kernel.run()
        assert [m.target.name for m in expired] == ["next"]
        assert kernel.now == 6

    def test_no_process_lives_per_parked_message(self, kernel):
        from repro.sim.eventloop import Process, Timeout

        queue = PendingQueue(kernel)
        for index in range(100):
            queue.park(message(target=f"t{index}"))
        # A hundred open parks, one deadline order: one event on the
        # heap, and it is a plain timeout.
        assert [type(event) for _when, _seq, event in kernel._heap] == \
            [Timeout]
        kernel.run(until=1)
        assert kernel.processed_events == 0
        assert not any(isinstance(event, Process)
                       for _when, _seq, event in kernel._heap)
