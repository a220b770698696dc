"""Fault plans, the per-message fault injector, and host-down semantics."""

import pytest

from repro.sim.faults import (
    KIND_CRASH,
    KIND_HEAL,
    KIND_LINK_DOWN,
    KIND_LINK_DOWN_ONEWAY,
    KIND_LINK_UP,
    KIND_LINK_UP_ONEWAY,
    KIND_PARTITION,
    KIND_RESTART,
    FaultEvent,
    FaultInjector,
    FaultPlan,
)
from repro.sim.network import (
    HostDownError,
    Network,
    TransferDroppedError,
)
from repro.sim.rng import RandomStream


class TestFaultEvent:
    def test_kind_validated(self):
        with pytest.raises(ValueError):
            FaultEvent(1.0, "meteor-strike", host="a")

    def test_crash_needs_host(self):
        with pytest.raises(ValueError):
            FaultEvent(1.0, KIND_CRASH)

    def test_link_event_needs_link(self):
        with pytest.raises(ValueError):
            FaultEvent(1.0, KIND_LINK_DOWN)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(-0.1, KIND_CRASH, host="a")

    def test_to_dict(self):
        event = FaultEvent(2.0, KIND_LINK_UP, link=("a", "b"))
        assert event.to_dict() == {"at": 2.0, "kind": "link-up",
                                   "link": ["a", "b"]}


class TestFaultPlan:
    def test_builders_and_sorting(self):
        plan = FaultPlan(name="p")
        plan.crash(3.0, "b", outage=2.0)
        plan.flap(1.0, "a", "b", 0.5)
        kinds = [(e.at, e.kind) for e in plan.sorted_events()]
        assert kinds == [(1.0, KIND_LINK_DOWN), (1.5, KIND_LINK_UP),
                         (3.0, KIND_CRASH), (5.0, KIND_RESTART)]
        assert plan.horizon == 5.0

    def test_crash_without_outage_has_no_restart(self):
        plan = FaultPlan().crash(1.0, "b")
        assert [e.kind for e in plan.events] == [KIND_CRASH]

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_probability=1.5)

    def test_to_dict_is_sorted_and_json_friendly(self):
        plan = FaultPlan(name="p", drop_probability=0.1)
        plan.crash(2.0, "b")
        plan.link_down(1.0, "a", "b")
        body = plan.to_dict()
        assert body["name"] == "p"
        assert [e["at"] for e in body["events"]] == [1.0, 2.0]

    def test_generate_is_seed_deterministic(self):
        kwargs = dict(hosts=["a", "b", "c"], links=[("a", "b")],
                      horizon=30.0, crashes=2, flaps=1)
        one = FaultPlan.generate(11, **kwargs)
        two = FaultPlan.generate(11, **kwargs)
        other = FaultPlan.generate(12, **kwargs)
        assert one.to_dict() == two.to_dict()
        assert one.to_dict() != other.to_dict()
        assert sum(e.kind == KIND_CRASH for e in one.events) == 2
        # every crash generated with an outage gets a paired restart
        assert sum(e.kind == KIND_RESTART for e in one.events) == 2


class TestFaultInjector:
    def test_verdict_sequence_is_seed_deterministic(self):
        plan = FaultPlan(drop_probability=0.3, corrupt_probability=0.2)
        one = FaultInjector(plan, seed_or_stream=5)
        two = FaultInjector(plan, seed_or_stream=5)
        verdicts = [one.verdict("a", "b", 100) for _ in range(50)]
        assert verdicts == [two.verdict("a", "b", 100) for _ in range(50)]
        assert one.stats() == two.stats()
        assert one.stats()["rolls"] == 50
        assert one.stats()["dropped"] > 0

    def test_clean_plan_never_faults(self):
        injector = FaultInjector(FaultPlan(), seed_or_stream=5)
        assert all(injector.verdict("a", "b", 1) is None
                   for _ in range(20))
        assert injector.stats() == {"rolls": 20, "dropped": 0,
                                    "corrupted": 0, "delivery_rolls": 0,
                                    "duplicated": 0, "reordered": 0,
                                    "wire_corrupted": 0,
                                    "slow_fsyncs": 0, "torn_tails": 0,
                                    "lost_suffixes": 0}

    def test_accepts_prebuilt_stream(self):
        plan = FaultPlan(drop_probability=1.0)
        injector = FaultInjector(plan,
                                 seed_or_stream=RandomStream(1, name="x"))
        assert injector.verdict("a", "b", 1) == "drop"


@pytest.fixture
def lan(kernel):
    net = Network(kernel)
    net.link("a", "b", latency=0.001, bandwidth=1000.0)
    return net


class TestHostDownSemantics:
    def test_transfer_to_down_host_raises(self, kernel, lan):
        lan.set_host_up("b", False)

        def proc():
            yield from lan.transfer("a", "b", 100)
        with pytest.raises(HostDownError):
            kernel.run_process(proc())
        assert not lan.host_is_up("b")

    def test_failed_transfer_not_charged(self, kernel, lan):
        lan.set_host_up("b", False)

        def proc():
            yield from lan.transfer("a", "b", 100)
        with pytest.raises(HostDownError):
            kernel.run_process(proc())
        stats = lan.link_between("a", "b").stats
        assert stats.messages == 0 and stats.payload_bytes == 0

    def test_crash_mid_flight_drops_transfer(self, kernel, lan):
        # The receiver dies while the bytes are on the wire: the transfer
        # spends its time, then fails, and the link is never charged.
        def killer():
            yield kernel.timeout(0.05)
            lan.set_host_up("b", False)

        def proc():
            kernel.spawn(killer())
            yield from lan.transfer("a", "b", 500)  # 0.501 s on the wire
        with pytest.raises(HostDownError):
            kernel.run_process(proc())
        assert kernel.now == pytest.approx(0.501)
        assert lan.link_between("a", "b").stats.messages == 0

    def test_revived_host_transfers_again(self, kernel, lan):
        lan.set_host_up("b", False)
        lan.set_host_up("b", True)

        def proc():
            yield from lan.transfer("a", "b", 100)
        kernel.run_process(proc())
        assert lan.link_between("a", "b").stats.messages == 1

    def test_injected_drop_raises_and_not_charged(self, kernel, lan):
        plan = FaultPlan(drop_probability=1.0)
        lan.fault_injector = FaultInjector(plan, seed_or_stream=3)

        def proc():
            yield from lan.transfer("a", "b", 100)
        with pytest.raises(TransferDroppedError):
            kernel.run_process(proc())
        assert lan.link_between("a", "b").stats.messages == 0
        assert lan.fault_injector.stats()["dropped"] == 1

    def test_loopback_exempt_from_injection(self, kernel, lan):
        plan = FaultPlan(drop_probability=1.0)
        lan.fault_injector = FaultInjector(plan, seed_or_stream=3)

        def proc():
            yield from lan.transfer("a", "a", 100)
        kernel.run_process(proc())
        assert lan.fault_injector.stats()["rolls"] == 0


class TestDeliveryVerdicts:
    def test_delivery_sequence_is_seed_deterministic(self):
        plan = FaultPlan(duplicate_probability=0.3,
                         reorder_probability=0.2,
                         wire_corrupt_probability=0.1)
        one = FaultInjector(plan, seed_or_stream=5)
        two = FaultInjector(plan, seed_or_stream=5)
        verdicts = [one.delivery_verdict("a", "b", 100)
                    for _ in range(60)]
        assert verdicts == [two.delivery_verdict("a", "b", 100)
                            for _ in range(60)]
        assert one.stats() == two.stats()
        assert one.stats()["delivery_rolls"] == 60
        assert one.stats()["duplicated"] > 0
        assert one.stats()["reordered"] > 0
        assert one.stats()["wire_corrupted"] > 0

    def test_delivery_stream_is_independent_of_verdict_stream(self):
        """Interleaving classic drop rolls must not shift the delivery
        stream (they fork from separate substreams)."""
        plan = FaultPlan(duplicate_probability=0.5, drop_probability=0.5)
        one = FaultInjector(plan, seed_or_stream=9)
        two = FaultInjector(plan, seed_or_stream=9)
        pure = [one.delivery_verdict("a", "b", 10) for _ in range(20)]
        interleaved = []
        for _ in range(20):
            two.verdict("a", "b", 10)
            interleaved.append(two.delivery_verdict("a", "b", 10))
        assert pure == interleaved

    def test_clean_plan_has_no_delivery_faults(self):
        injector = FaultInjector(FaultPlan(), seed_or_stream=5)
        assert not FaultPlan().has_delivery_faults
        assert all(injector.delivery_verdict("a", "b", 1) is None
                   for _ in range(20))

    def test_reorder_delay_within_configured_bounds(self):
        plan = FaultPlan(reorder_probability=1.0,
                         reorder_delay=(0.25, 0.75))
        injector = FaultInjector(plan, seed_or_stream=3)
        for _ in range(50):
            kind, delay = injector.delivery_verdict("a", "b", 10)
            assert kind == "delay"
            assert 0.25 <= delay <= 0.75

    def test_delivery_probability_validation(self):
        for field in ("duplicate_probability", "reorder_probability",
                      "wire_corrupt_probability"):
            with pytest.raises(ValueError):
                FaultPlan(**{field: 1.5})

    def test_flip_bit_changes_exactly_one_bit(self):
        plan = FaultPlan(wire_corrupt_probability=1.0)
        injector = FaultInjector(plan, seed_or_stream=4)
        original = bytes(range(32))
        flipped = injector.flip_bit(original)
        assert len(flipped) == len(original)
        diff = [(a ^ b) for a, b in zip(original, flipped)]
        assert sum(bin(d).count("1") for d in diff) == 1


class TestPartitionEvents:
    def test_partition_and_heal_builders(self):
        plan = FaultPlan()
        plan.partition(1.0, ["a"], ["b", "c"])
        plan.heal(2.0)
        kinds = [e.kind for e in plan.sorted_events()]
        assert kinds == [KIND_PARTITION, KIND_HEAL]

    def test_split_brain_builder_pairs_partition_with_heal(self):
        plan = FaultPlan().split_brain(1.0, 2.5, ["a"], ["b"])
        events = plan.sorted_events()
        assert [(e.at, e.kind) for e in events] == \
            [(1.0, KIND_PARTITION), (3.5, KIND_HEAL)]
        assert events[0].groups == (("a",), ("b",))

    def test_oneway_builders(self):
        plan = FaultPlan()
        plan.link_down_oneway(1.0, "a", "b")
        plan.link_up_oneway(2.0, "a", "b")
        kinds = [e.kind for e in plan.sorted_events()]
        assert kinds == [KIND_LINK_DOWN_ONEWAY, KIND_LINK_UP_ONEWAY]


class TestPartitionNetworkSemantics:
    @pytest.fixture
    def mesh(self, kernel):
        net = Network(kernel)
        for pair in (("a", "b"), ("a", "c"), ("b", "c")):
            net.link(*pair, latency=0.001, bandwidth=1000.0)
        return net

    def test_partition_downs_only_cross_group_links(self, mesh):
        downed = mesh.partition([["a"], ["b", "c"]])
        assert downed == 4  # a↔b and a↔c, both directions
        assert not mesh.link_between("a", "b").up
        assert not mesh.link_between("b", "a").up
        assert mesh.link_between("b", "c").up

    def test_heal_restores_everything(self, mesh):
        mesh.partition([["a"], ["b", "c"]])
        mesh.set_link_up_oneway("b", "c", False)
        assert mesh.heal() == 5
        for pair in (("a", "b"), ("b", "a"), ("b", "c")):
            assert mesh.link_between(*pair).up

    def test_oneway_failure_is_asymmetric(self, mesh):
        mesh.set_link_up_oneway("a", "b", False)
        assert not mesh.link_between("a", "b").up
        assert mesh.link_between("b", "a").up
