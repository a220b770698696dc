"""Exactly-once delivery and migration safety.

The receiver-side machinery (:mod:`repro.firewall.dedup`), the landing
handshake in the VMs, the tombstone/kill admin surface, and the
``repro partition`` acceptance scenarios built on top of them.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.briefcase import Briefcase
from repro.core.errors import CommTimeoutError, LaunchRejected
from repro.core.uri import AgentUri
from repro.core import wellknown
from repro.firewall.dedup import (
    DedupWindow,
    LandingRegistry,
    extract_landing,
    extract_seq,
    inject_landing,
    inject_seq,
)
from repro.obs.telemetry import Telemetry
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.network import BANDWIDTH_100MBIT, LATENCY_LAN
from repro.system.cluster import TaxCluster
from repro.vm import loader
from tests.oracles.dedup import ReferenceDedupWindow


# -- DedupWindow units ------------------------------------------------------------


class TestDedupWindow:
    def test_accept_then_duplicate(self):
        window = DedupWindow()
        assert window.observe("peer", 1) == "accept"
        assert window.observe("peer", 1) == "duplicate"
        assert window.observe("peer", 2) == "accept"
        assert window.conservation_holds()
        assert (window.offered, window.accepted,
                window.duplicates, window.rejected) == (3, 2, 1, 0)

    def test_peers_are_independent(self):
        window = DedupWindow()
        assert window.observe("a", 1) == "accept"
        assert window.observe("b", 1) == "accept"
        assert window.observe("a", 1) == "duplicate"

    def test_below_window_rejected_not_delivered(self):
        window = DedupWindow(capacity=4)
        for seq in range(1, 11):
            window.observe("peer", seq)
        # seq 2 fell below max_seen - capacity = 6: it can no longer be
        # proven fresh, so the invariant forces a refusal.
        assert window.observe("peer", 2) == "reject"
        assert window.conservation_holds()

    def test_implausible_sequences_rejected(self):
        window = DedupWindow()
        assert window.observe("peer", 0) == "reject"
        assert window.observe("peer", -3) == "reject"
        assert window.observe("peer", "nope") == "reject"
        assert window.conservation_holds()

    def test_forget_reclassifies_and_allows_retry(self):
        window = DedupWindow()
        assert window.observe("peer", 1) == "accept"
        window.forget("peer", 1)  # dispatch failed: delivery undone
        assert (window.accepted, window.rejected) == (0, 1)
        assert window.conservation_holds()
        # The sender's retry must not be swallowed as a duplicate.
        assert window.observe("peer", 1) == "accept"

    def test_forget_of_unknown_sequence_is_noop(self):
        window = DedupWindow()
        window.observe("peer", 1)
        before = window.snapshot()
        window.forget("peer", 99)
        window.forget("stranger", 1)
        assert window.snapshot() == before

    def test_window_memory_is_bounded(self):
        window = DedupWindow(capacity=16)
        for seq in range(1, 1001):
            window.observe("peer", seq)
        assert len(window._seen.get("peer", ())) <= 16

    def test_snapshot_shape(self):
        window = DedupWindow()
        window.observe("peer", 1)
        body = window.snapshot()
        assert body["conservation_holds"] is True
        assert body["peers"]["peer"] == {"max_seen": 1, "window": 1}


class TestDedupWindowProperties:
    @given(st.lists(st.tuples(st.sampled_from(["a", "b"]),
                              st.integers(min_value=1, max_value=60)),
                    max_size=300))
    @settings(max_examples=200)
    def test_conservation_and_no_double_accept(self, offers):
        """Whatever arrival order/duplication the network produces,
        counters balance, each (peer, seq) is accepted at most once,
        and the per-peer memory stays bounded."""
        window = DedupWindow(capacity=8)
        accepted = set()
        for peer, seq in offers:
            verdict = window.observe(peer, seq)
            if verdict == "accept":
                assert (peer, seq) not in accepted
                accepted.add((peer, seq))
            assert window.conservation_holds()
            assert len(window._seen.get(peer, ())) <= 8

    @given(st.lists(st.tuples(st.booleans(),
                              st.integers(min_value=1, max_value=40)),
                    max_size=200))
    @settings(max_examples=100)
    def test_conservation_survives_forgets(self, ops):
        """Interleaved forgets (failed dispatches) keep the counters
        conserved, and a seq is only ever re-accepted after a forget."""
        window = DedupWindow(capacity=8)
        live = set()
        for is_forget, seq in ops:
            if is_forget:
                window.forget("peer", seq)
                live.discard(seq)
            else:
                verdict = window.observe("peer", seq)
                if verdict == "accept":
                    assert seq not in live
                    live.add(seq)
            assert window.conservation_holds()


#: One step of a dedup window's life: an arrival (sequences below 1
#: included, which are refused), a sender's run of consecutive
#: sequences, a forgotten dispatch, or a restart that restores the
#: window from its own durable image.
dedup_steps = st.one_of(
    st.tuples(st.just("observe"), st.sampled_from(["a", "b"]),
              st.integers(min_value=-1, max_value=40)),
    st.tuples(st.just("run"), st.sampled_from(["a", "b"]),
              st.integers(min_value=1, max_value=40),
              st.integers(min_value=1, max_value=12)),
    st.tuples(st.just("forget"), st.sampled_from(["a", "b"]),
              st.integers(min_value=-1, max_value=40)),
    st.tuples(st.just("restore")))


class TestDedupWindowAgainstTheSetOracle:
    @given(capacity=st.integers(min_value=1, max_value=8),
           steps=st.lists(dedup_steps, max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_every_verdict_count_image_and_record_matches(
            self, capacity, steps):
        product, reference = [], []
        window = DedupWindow(capacity=capacity)
        oracle = ReferenceDedupWindow(capacity=capacity)
        window.changes.subscribe(lambda kind, fields:
                                 product.append((kind, fields)))
        oracle.changes.subscribe(lambda kind, fields:
                                 reference.append((kind, fields)))
        for step in steps:
            if step[0] == "observe":
                assert window.observe(*step[1:]) == \
                    oracle.observe(*step[1:])
            elif step[0] == "run":
                _, peer, start, length = step
                for seq in range(start, start + length):
                    assert window.observe(peer, seq) == \
                        oracle.observe(peer, seq)
            elif step[0] == "forget":
                window.forget(*step[1:])
                oracle.forget(*step[1:])
            else:
                window.restore_durable(window.to_durable())
                oracle.restore_durable(oracle.to_durable())
            assert window.snapshot() == oracle.snapshot()
            assert window.to_durable() == oracle.to_durable()
            for peer in ("a", "b"):
                assert len(window._seen.get(peer, ())) == \
                    oracle.window_size(peer)
        assert product == reference

    @given(capacity=st.integers(min_value=1, max_value=8),
           seqs=st.lists(st.integers(min_value=1, max_value=40),
                         max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_each_restores_the_others_image(self, capacity, seqs):
        window = DedupWindow(capacity=capacity)
        oracle = ReferenceDedupWindow(capacity=capacity)
        for seq in seqs:
            window.observe("a", seq)
            oracle.observe("a", seq)
        assert DedupWindow.from_durable(oracle.to_durable()).to_durable() \
            == oracle.to_durable()
        assert ReferenceDedupWindow.from_durable(
            window.to_durable()).to_durable() == window.to_durable()


# -- LandingRegistry units ---------------------------------------------------------


class TestLandingRegistry:
    def test_lifecycle_new_to_launched(self):
        registry = LandingRegistry()
        assert registry.acquire("h:1:1") == ("new", None)
        assert registry.acquire("h:1:1") == ("pending", None)
        registry.record_launch("h:1:1", "tax://h/agent:abc")
        assert registry.acquire("h:1:1") == ("launched", "tax://h/agent:abc")
        assert registry.duplicate_landings == 1
        assert registry.launches == 1

    def test_release_frees_the_slot(self):
        registry = LandingRegistry()
        registry.acquire("h:1:1")
        registry.release("h:1:1")
        assert registry.acquire("h:1:1") == ("new", None)

    def test_tombstone_refuses_future_landings(self):
        registry = LandingRegistry()
        assert registry.tombstone("h:1:1", "go-abandoned") is None
        state, reason = registry.acquire("h:1:1")
        assert state == "tombstoned"
        assert reason == "go-abandoned"
        assert registry.tombstone_refusals == 1

    def test_tombstone_of_launched_returns_uri(self):
        registry = LandingRegistry()
        registry.acquire("h:1:1")
        registry.record_launch("h:1:1", "tax://h/agent:abc")
        assert registry.tombstone("h:1:1") == "tax://h/agent:abc"
        assert registry.acquire("h:1:1")[0] == "tombstoned"

    def test_crash_all_tombstones_everything(self):
        registry = LandingRegistry()
        registry.acquire("h:1:1")
        registry.record_launch("h:1:1", "uri-1")
        registry.acquire("h:1:2")  # still pending
        assert registry.crash_all() == 2
        assert registry.acquire("h:1:1")[0] == "tombstoned"
        assert registry.acquire("h:1:2")[0] == "tombstoned"

    def test_tables_are_trimmed_at_capacity(self):
        registry = LandingRegistry(capacity=4)
        for n in range(10):
            landing = f"h:1:{n}"
            registry.acquire(landing)
            registry.record_launch(landing, f"uri-{n}")
        assert registry.snapshot()["launched_now"] <= 4
        assert registry.evicted == 6

    def test_status(self):
        registry = LandingRegistry()
        assert registry.status("h:1:1") == "unknown"
        registry.acquire("h:1:1")
        assert registry.status("h:1:1") == "pending"
        registry.record_launch("h:1:1", "uri")
        assert registry.status("h:1:1") == "launched"
        registry.tombstone("h:1:1")
        assert registry.status("h:1:1") == "tombstoned"


class TestWireFolders:
    def test_seq_round_trip(self):
        briefcase = Briefcase()
        inject_seq(briefcase, "alpha.test", 42)
        assert extract_seq(briefcase) == ("alpha.test", 42)
        assert not briefcase.has(wellknown.DELIVERY_SEQ)

    def test_malformed_seq_is_stripped_not_fatal(self):
        for hostile in ("", "notanumber host", "12", "12 "):
            briefcase = Briefcase()
            briefcase.put(wellknown.DELIVERY_SEQ, hostile)
            assert extract_seq(briefcase) == (None, None)
            assert not briefcase.has(wellknown.DELIVERY_SEQ)

    def test_landing_round_trip(self):
        briefcase = Briefcase()
        inject_landing(briefcase, "h:1:7")
        assert extract_landing(briefcase) == "h:1:7"
        assert not briefcase.has(wellknown.LANDING_ID)
        assert extract_landing(briefcase) is None


# -- fault injection regression ----------------------------------------------------


class TestInjectorTelemetry:
    def test_delivery_faults_with_telemetry_do_not_raise(self):
        """Regression: ``_count`` used to pass ``kind=`` into
        ``FlightRecorder.record``, colliding with its positional
        ``kind`` parameter — every fault roll with telemetry enabled
        raised TypeError, so chaos runs silently lost their injected
        duplicates/reorders/corruptions."""
        telemetry = Telemetry(enabled=True)
        plan = FaultPlan(duplicate_probability=1.0)
        injector = FaultInjector(plan, seed_or_stream=7,
                                 telemetry=telemetry)
        kind, delay = injector.delivery_verdict("a", "b", 100)
        assert kind == "duplicate"
        assert delay >= 0.0
        events = telemetry.flight.snapshot("a")
        assert events and events[-1]["kind"] == "fault"
        assert events[-1]["fault"] == "duplicate"

    def test_drop_faults_with_telemetry_do_not_raise(self):
        telemetry = Telemetry(enabled=True)
        plan = FaultPlan(drop_probability=1.0)
        injector = FaultInjector(plan, seed_or_stream=7,
                                 telemetry=telemetry)
        assert injector.verdict("a", "b", 100) == "drop"
        events = telemetry.flight.snapshot("a")
        assert events and events[-1]["fault"] == "drop"


# -- integration: dedup through live firewalls -------------------------------------


def _counter(cluster, name):
    metric = cluster.telemetry.metrics.get(name)
    if metric is None:
        return 0
    return sum(sample["value"] for sample in metric.samples())


@pytest.fixture
def metered_pair():
    cluster = TaxCluster(telemetry=Telemetry(enabled=True))
    cluster.add_node("alpha.test")
    cluster.add_node("beta.test")
    cluster.network.link("alpha.test", "beta.test",
                         latency=LATENCY_LAN, bandwidth=BANDWIDTH_100MBIT)
    return cluster


def sink_agent(ctx, bc):
    while True:
        yield from ctx.recv()


def echo_agent(ctx, bc):
    while True:
        message = yield from ctx.recv()
        reply = Briefcase()
        reply.put("BODY", message.briefcase.get_text("BODY") or "")
        yield from ctx.reply(message, reply)


def _launch(cluster, host, fn, name):
    briefcase = Briefcase()
    loader.install_payload(briefcase, loader.pack_ref(fn),
                           agent_name=name)
    driver = cluster.node(host).driver(name=f"launch-{name}")

    def scenario():
        reply = yield from driver.meet(cluster.vm_uri(host), briefcase,
                                       timeout=30)
        assert reply.get_text(wellknown.STATUS) == "ok"
        return reply.get_text("AGENT-URI")
    return cluster.run(scenario())


class TestEndToEndDedup:
    def test_injected_duplicates_are_suppressed(self, metered_pair):
        """Every remote message is duplicated in flight; receivers must
        process each exactly once and counters must balance."""
        sink_uri = _launch(metered_pair, "beta.test", sink_agent, "sink")
        plan = FaultPlan(name="dup-all", duplicate_probability=1.0)
        injector = FaultInjector(plan, seed_or_stream=3,
                                 telemetry=metered_pair.telemetry)
        metered_pair.network.fault_injector = injector
        driver = metered_pair.node("alpha.test").driver()

        def scenario():
            for n in range(5):
                yield from driver.send(AgentUri.parse(sink_uri),
                                       Briefcase({"BODY": [f"m{n}".encode()]}))
            # Let the delayed replays land before sampling counters.
            yield metered_pair.kernel.timeout(2.0)
            return "done"
        metered_pair.run(scenario())
        beta = metered_pair.node("beta.test").firewall
        assert injector.duplicated == 5
        assert beta.dedup.duplicates == 5
        assert beta.dedup.accepted == 5
        assert beta.dedup.conservation_holds()

    def test_suppressed_duplicate_is_not_redelivered(self, metered_pair):
        """The echo agent's replies prove single processing (not just
        the firewall counters): one request, one reply — never two."""
        echo_uri = _launch(metered_pair, "beta.test", echo_agent, "echo")
        plan = FaultPlan(name="dup-all", duplicate_probability=1.0)
        metered_pair.network.fault_injector = FaultInjector(
            plan, seed_or_stream=3, telemetry=metered_pair.telemetry)
        driver = metered_pair.node("alpha.test").driver()

        def scenario():
            request = Briefcase()
            request.put("BODY", "once")
            reply = yield from driver.meet(AgentUri.parse(echo_uri),
                                           request, timeout=10)
            assert reply.get_text("BODY") == "once"
            # A processed duplicate would produce a second, orphaned
            # reply; none may arrive.
            extra = 0
            while True:
                try:
                    yield from driver.recv(timeout=2.0)
                except CommTimeoutError:
                    break
                extra += 1
            return extra
        extra = metered_pair.run(scenario())
        assert extra == 0


# -- integration: the landing handshake --------------------------------------------


def _landed(firewall, name):
    """How many landed copies of ``name`` the host is running."""
    return sum(1 for r in firewall.admin_list() if r.name == name)


def resident_agent(ctx, bc):
    while True:
        yield from ctx.recv()


def landing_echo_agent(ctx, bc):
    """Answers each request with the landing id its envelope carried."""
    while True:
        message = yield from ctx.recv()
        reply = Briefcase()
        reply.put("BODY", message.landing_id or "")
        yield from ctx.reply(message, reply)


class TestLandingHandshake:
    def _launch_briefcase(self, name="lander"):
        briefcase = Briefcase()
        loader.install_payload(briefcase, loader.pack_ref(resident_agent),
                               agent_name=name)
        return briefcase

    def test_duplicate_landing_reacked_not_relaunched(self, metered_pair):
        """A retried migration transport (same landing id) is answered
        with the existing agent's URI; no twin is spawned."""
        driver = metered_pair.node("alpha.test").driver()
        beta = metered_pair.node("beta.test").firewall
        vm_uri = metered_pair.vm_uri("beta.test")

        def scenario():
            first = yield from driver.transport(
                "go", vm_uri, self._launch_briefcase(), timeout=30,
                landing="alpha.test:drv:1")
            second = yield from driver.transport(
                "go", vm_uri, self._launch_briefcase(), timeout=30,
                landing="alpha.test:drv:1")
            return first, second
        first, second = metered_pair.run(scenario())
        assert first == second
        assert beta.landings.duplicate_landings == 1
        assert beta.landings.launches == 1
        assert _landed(beta, "lander") == 1
        assert _counter(metered_pair, "vm.duplicate_landings") == 1

    def test_distinct_landings_spawn_distinct_agents(self, metered_pair):
        driver = metered_pair.node("alpha.test").driver()
        beta = metered_pair.node("beta.test").firewall
        vm_uri = metered_pair.vm_uri("beta.test")

        def scenario():
            uris = []
            for n in (1, 2):
                uris.append((yield from driver.transport(
                    "go", vm_uri, self._launch_briefcase(), timeout=30,
                    landing=f"alpha.test:drv:{n}")))
            return uris
        uris = metered_pair.run(scenario())
        assert len(set(uris)) == 2
        assert beta.landings.launches == 2
        assert beta.landings.duplicate_landings == 0

    def test_tombstoned_landing_is_refused(self, metered_pair):
        """The origin aborts an ambiguous migration; a late transport
        with the poisoned landing id must be nacked, not launched."""
        driver = metered_pair.node("alpha.test").driver()
        driver.configure_signing(metered_pair.keychain)
        beta = metered_pair.node("beta.test").firewall
        vm_uri = metered_pair.vm_uri("beta.test")

        def scenario():
            request = Briefcase()
            request.put(wellknown.OP, "tombstone")
            request.put(wellknown.ARGS,
                        {"landing_id": "alpha.test:drv:9",
                         "reason": "go-abandoned"})
            reply = yield from driver.meet(
                AgentUri(host="beta.test", name="firewall"), request,
                timeout=10)
            assert reply.get_text(wellknown.STATUS) == "ok"
            yield from driver.transport(
                "go", vm_uri, self._launch_briefcase(), timeout=30,
                landing="alpha.test:drv:9")
        with pytest.raises(LaunchRejected, match="landing refused"):
            metered_pair.run(scenario())
        assert beta.landings.tombstone_refusals == 1
        assert _landed(beta, "lander") == 0

    def test_tombstone_kills_already_landed_instance(self, metered_pair):
        """Two-phase abort, late: the landing already launched; the
        tombstone kills the instance so no twin survives."""
        driver = metered_pair.node("alpha.test").driver()
        driver.configure_signing(metered_pair.keychain)
        beta = metered_pair.node("beta.test").firewall
        vm_uri = metered_pair.vm_uri("beta.test")

        def scenario():
            yield from driver.transport(
                "go", vm_uri, self._launch_briefcase(), timeout=30,
                landing="alpha.test:drv:5")
            request = Briefcase()
            request.put(wellknown.OP, "tombstone")
            request.put(wellknown.ARGS,
                        {"landing_id": "alpha.test:drv:5",
                         "reason": "go-abandoned"})
            reply = yield from driver.meet(
                AgentUri(host="beta.test", name="firewall"), request,
                timeout=10)
            return reply.get_json(wellknown.RESULTS)
        results = metered_pair.run(scenario())
        assert results == {"tombstoned": True, "killed": True}
        assert _landed(beta, "lander") == 0

    def test_crash_tombstones_landings(self, metered_pair):
        """A restarted host must refuse the re-landing of an agent its
        crash destroyed (the rear guard owns recovery, not the retry)."""
        driver = metered_pair.node("alpha.test").driver()
        node = metered_pair.node("beta.test")
        vm_uri = metered_pair.vm_uri("beta.test")

        metered_pair.run(driver.transport(
            "go", vm_uri, self._launch_briefcase(), timeout=30,
            landing="alpha.test:drv:3"))
        node.crash()
        assert node.firewall.landings.acquire("alpha.test:drv:3") == \
            ("tombstoned", "host-crash")


    def test_nack_through_transport_tombstones_nothing(self, metered_pair):
        """A nack means the VM released the slot itself: the origin has
        nothing to abort, and a corrected retry of the id may land."""
        driver = metered_pair.node("alpha.test").driver()
        driver.configure_signing(metered_pair.keychain)
        beta = metered_pair.node("beta.test").firewall
        vm_uri = metered_pair.vm_uri("beta.test")

        def scenario():
            with pytest.raises(LaunchRejected, match="no CODE"):
                yield from driver.transport(
                    "go", vm_uri, Briefcase({"JUNK": ["no code"]}),
                    timeout=30, landing="alpha.test:drv:1")
            yield metered_pair.kernel.timeout(2.0)
            return (yield from driver.transport(
                "go", vm_uri, self._launch_briefcase(), timeout=30,
                landing="alpha.test:drv:1"))
        assert "lander" in metered_pair.run(scenario())
        assert metered_pair.telemetry.metrics.get(
            "agent.landing_aborts") is None
        assert beta.landings.aborts == 0
        assert beta.landings.snapshot()["tombstones_now"] == 0
        assert _landed(beta, "lander") == 1

    def test_lost_ack_through_transport_tombstones_once(self, metered_pair):
        """The transport lands, the ack is eaten: the origin cannot
        tell, so it poisons the landing and the twin is killed."""
        driver = metered_pair.node("alpha.test").driver()
        driver.configure_signing(metered_pair.keychain)
        beta = metered_pair.node("beta.test").firewall
        metered_pair.network.set_link_up_oneway(
            "beta.test", "alpha.test", False)

        def scenario():
            with pytest.raises(CommTimeoutError):
                yield from driver.transport(
                    "go", metered_pair.vm_uri("beta.test"),
                    self._launch_briefcase(), timeout=2,
                    landing="alpha.test:drv:1")
            landed = _landed(beta, "lander")
            yield metered_pair.kernel.timeout(2.0)
            return landed
        assert metered_pair.run(scenario()) == 1
        assert _counter(metered_pair, "agent.landing_aborts") == 1
        assert beta.landings.aborts == 1
        assert beta.landings.status("alpha.test:drv:1") == "tombstoned"
        assert _landed(beta, "lander") == 0

    def test_transport_restores_the_landing_it_found_pinned(
            self, metered_pair):
        """Recovery transports from inside a guard whose own hop may be
        in flight: when the inner transport ends, the outer hop's
        re-sends must still present the outer landing id."""
        echo_uri = _launch(metered_pair, "alpha.test",
                           landing_echo_agent, "landing-echo")
        driver = metered_pair.node("alpha.test").driver()
        # beta's acks are eaten, so the outer transport stays in flight.
        metered_pair.network.set_link_up_oneway(
            "beta.test", "alpha.test", False)

        def outer():
            yield from driver.transport(
                "go", metered_pair.vm_uri("beta.test"),
                self._launch_briefcase("outer"), timeout=60,
                landing="alpha.test:drv:1")

        def inner():
            yield metered_pair.kernel.timeout(1.0)
            yield from driver.transport(
                "recover", metered_pair.vm_uri("alpha.test"),
                self._launch_briefcase("inner"), timeout=30,
                landing="alpha.test:drv:2")
            reply = yield from driver.meet(echo_uri, Briefcase(),
                                           timeout=30)
            return reply.get_text("BODY")
        metered_pair.kernel.spawn(outer(), name="outer-hop")
        assert metered_pair.run(inner()) == "alpha.test:drv:1"


class TestTombstoneAuthorization:
    def test_origin_capability_without_admin_rights(self, metered_pair):
        """An authenticated non-admin may tombstone only landing ids
        minted by its own host."""
        metered_pair.add_principal("nobody-special")
        driver = metered_pair.node("alpha.test").driver(
            name="plain", principal="nobody-special")
        driver.configure_signing(metered_pair.keychain)

        def attempt(landing_id):
            request = Briefcase()
            request.put(wellknown.OP, "tombstone")
            request.put(wellknown.ARGS, {"landing_id": landing_id})
            reply = yield from driver.meet(
                AgentUri(host="beta.test", name="firewall"), request,
                timeout=10)
            return reply.get_text(wellknown.STATUS)

        def scenario():
            own = yield from attempt("alpha.test:drv:1")
            foreign = yield from attempt("beta.test:z:1")
            return own, foreign
        own, foreign = metered_pair.run(scenario())
        assert own == "ok"        # its own host's landing id
        assert foreign == "error"  # someone else's: needs can_admin


# -- integration: partition scenarios ----------------------------------------------


class TestPartitionScenarios:
    def test_partition_storm_holds_and_suppresses(self):
        from repro.chaos.partition import run_partition
        document = run_partition(seed=7, scenario="partition-storm")
        block = document["exactly_once"]
        assert block["holds"] is True
        assert block["completed"] is True
        assert block["duplicate_site_visits"] == 0
        assert block["conservation_violations"] == []
        assert block["duplicates_suppressed"] > 0
        assert document["injector"]["duplicated"] > 0

    def test_asym_ack_loss_reacks_instead_of_relaunching(self):
        from repro.chaos.partition import run_partition
        document = run_partition(seed=7, scenario="asym-ack-loss")
        block = document["exactly_once"]
        assert block["holds"] is True
        assert block["duplicate_landings_suppressed"] > 0
        assert block["duplicate_site_visits"] == 0

    def test_split_brain_detects_twin(self):
        from repro.chaos.partition import run_partition
        document = run_partition(seed=7, scenario="split-brain")
        block = document["exactly_once"]
        assert block["holds"] is True
        # The orphan incarnation keeps travelling, so the guard may
        # flag it on several hosts; at least one kill must connect.
        assert block["twins_detected"] >= 1
        assert block["twins_killed"] >= 1
        assert document["stats"]["recovery_relaunches"] == 1

    def test_unknown_scenario_raises_value_error(self):
        from repro.chaos.partition import named_partition_plan
        with pytest.raises(ValueError):
            named_partition_plan("bogus", ["w1"])


class TestCli:
    def test_unknown_names_exit_2_with_hint(self, capsys):
        from repro.cli import main
        assert main(["partition", "--scenario", "bogus"]) == 2
        assert "--list" in capsys.readouterr().err
        assert main(["chaos", "--plan", "bogus"]) == 2
        assert "--list" in capsys.readouterr().err
