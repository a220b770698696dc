"""End-to-end resilience: host crash/restart, dead letters, the chaos
engine, heartbeat monitoring, and the rear-guard recovery scenario."""

import dataclasses

import pytest

from repro.core.briefcase import Briefcase
from repro.core.uri import AgentUri
from repro.core import wellknown
from repro.chaos.engine import ChaosEngine
from repro.chaos.crashtest import CRASHTEST_SCENARIOS, run_crashtest
from repro.chaos.harness import (HOME_HOST, WORKER_HOSTS, render_document,
                                 run_scenario)
from repro.chaos.partition import PARTITION_SCENARIOS, run_partition
from repro.chaos.scenario import named_plan, run_chaos
from repro.obs.telemetry import Telemetry
from repro.sim.faults import FaultPlan
from repro.sim.network import LinkDownError
from repro.system.cluster import TaxCluster
from repro.vm import loader
from repro.wrappers.monitor import EVENT_FOLDER, MonitorWrapper
from repro.wrappers.stack import WrapperSpec, install_wrappers


def metered_cluster(*hosts):
    cluster = TaxCluster(telemetry=Telemetry(enabled=True))
    for host in hosts:
        cluster.add_node(host)
    for i, a in enumerate(hosts):
        for b in hosts[i + 1:]:
            cluster.network.link(a, b)
    return cluster


def late_agent(ctx, bc):
    """Receives one message and forwards its BODY home."""
    message = yield from ctx.recv(timeout=60)
    yield from ctx.send(bc.get_text("HOME"), Briefcase(
        {"GOT": [message.briefcase.get_text("BODY") or ""]}))
    return "done"


def sleeper_agent(ctx, bc):
    yield from ctx.sleep(2.2)
    return "done"


class TestCrashAndDeadLetters:
    def test_crash_kills_registrations_and_dead_letters_queue(
            self, pair_cluster):
        beta = pair_cluster.node("beta.test")
        driver = pair_cluster.node("alpha.test").driver()
        target = AgentUri.parse("tacoma://beta.test//nobody")

        def scenario():
            yield from driver.send(target, Briefcase({"BODY": ["hi"]}),
                                   queue_timeout=120)
            return len(beta.firewall.pending)
        assert pair_cluster.run(scenario()) == 1

        killed = beta.crash()
        assert killed > 0  # VMs + services at minimum
        assert not beta.alive
        assert len(beta.firewall.pending) == 0
        records = beta.firewall.pending.dead_letters
        assert len(records) == 1
        assert records[0].reason == "host-crash"
        # parked targets are host-relative once inside the firewall
        assert records[0].message.target.name == "nobody"
        # crashing twice is a no-op
        assert beta.crash() == 0

    def test_expired_message_surfaces_in_admin_stat(self):
        cluster = metered_cluster("solo.test")
        driver = cluster.node("solo.test").driver()

        def scenario():
            yield from driver.send(AgentUri.parse("not-here"),
                                   Briefcase({"BODY": ["x"]}),
                                   queue_timeout=1.0)
            yield cluster.kernel.timeout(2.0)
            response = yield from driver.call_service("firewall", "stat")
            return response.get_json(wellknown.RESULTS)
        stats = cluster.run(scenario())
        assert stats["queued_now"] == 0
        dead = stats["dead_letters"]
        assert len(dead) == 1
        assert dead[0]["reason"] == "expired"
        assert dead[0]["target"] == "not-here"
        assert cluster.telemetry.metrics.value(
            "fw.dead_letters", host="solo.test", reason="expired") == 1

    def test_restart_retransmits_to_reregistered_agent(self, pair_cluster):
        beta = pair_cluster.node("beta.test")
        alpha_driver = pair_cluster.node("alpha.test").driver()
        target = AgentUri.parse("tacoma://beta.test//late")

        def park():
            yield from alpha_driver.send(target,
                                         Briefcase({"BODY": ["survivor"]}),
                                         queue_timeout=300)
        pair_cluster.run(park())

        beta.crash()
        assert len(beta.firewall.pending.dead_letters) == 1
        beta.restart()
        assert beta.alive
        # the dead letter was taken for retransmission
        assert len(beta.firewall.pending.dead_letters) == 0

        briefcase = Briefcase()
        loader.install_payload(briefcase, loader.pack_ref(late_agent),
                               agent_name="late")
        briefcase.put("HOME", str(alpha_driver.uri))
        beta_driver = beta.driver(name="d2")

        def scenario():
            reply = yield from beta_driver.meet(
                pair_cluster.vm_uri("beta.test"), briefcase, timeout=30)
            assert reply.get_text(wellknown.STATUS) == "ok"
            message = yield from alpha_driver.recv(timeout=60)
            return message.briefcase.get_text("GOT")
        assert pair_cluster.run(scenario()) == "survivor"


class TestChaosEngine:
    def test_plan_events_fire_at_their_times(self):
        cluster = metered_cluster("a.test", "b.test")
        plan = FaultPlan(name="timed")
        plan.flap(1.0, "a.test", "b.test", 1.0)
        plan.crash(3.0, "b.test", outage=1.0)
        engine = ChaosEngine(cluster, plan, seed=1)
        engine.start()
        network = cluster.network
        node_b = cluster.node("b.test")
        observed = {}

        def probe():
            yield cluster.kernel.timeout(1.5)
            try:
                network.charge("a.test", "b.test", 10)
                observed["t1.5"] = "up"
            except LinkDownError:
                observed["t1.5"] = "down"
            yield cluster.kernel.timeout(1.0)   # t=2.5
            network.charge("a.test", "b.test", 10)
            observed["t2.5"] = "up"
            yield cluster.kernel.timeout(1.0)   # t=3.5
            observed["t3.5"] = node_b.alive
            yield cluster.kernel.timeout(1.0)   # t=4.5
            observed["t4.5"] = node_b.alive
        cluster.run(probe())
        assert observed == {"t1.5": "down", "t2.5": "up",
                            "t3.5": False, "t4.5": True}
        assert [a["kind"] for a in engine.applied] == [
            "link-down", "link-up", "crash", "restart"]
        metric = cluster.telemetry.metrics.get("faults.injected")
        assert sum(s["value"] for s in metric.samples()) == 4

    def test_start_is_idempotent(self):
        cluster = metered_cluster("a.test", "b.test")
        engine = ChaosEngine(cluster, FaultPlan(name="empty"), seed=1)
        engine.start()
        engine.start()
        cluster.run(_tick(cluster))
        assert engine.applied == []


def _tick(cluster):
    yield cluster.kernel.timeout(0.1)


class TestHeartbeatMonitoring:
    def test_heartbeats_flow_until_finished(self):
        cluster = metered_cluster("solo.test")
        driver = cluster.node("solo.test").driver()
        briefcase = Briefcase()
        loader.install_payload(briefcase, loader.pack_ref(sleeper_agent),
                               agent_name="sleeper")
        install_wrappers(briefcase, [WrapperSpec.by_ref(MonitorWrapper, {
            "monitor": str(driver.uri), "tag": "hb-test",
            "heartbeat": 0.5})])

        def scenario():
            yield from driver.meet(cluster.vm_uri("solo.test"),
                                   briefcase, timeout=30)
            events = []
            while True:
                message = yield from driver.recv(timeout=30)
                body = message.briefcase.get_json(EVENT_FOLDER)
                events.append(body["event"])
                if body["event"] == "finished":
                    return events
        events = cluster.run(scenario())
        assert events[0] == "arrived"
        assert events[-1] == "finished"
        # 2.2 s of life at a 0.5 s cadence: 4 heartbeats
        assert events.count("heartbeat") == 4


class TestChaosScenario:
    def test_mid_crash_recovers_and_reports_unreachable(self):
        doc = run_chaos(seed=7, plan="mid-crash", recovery=True)
        agent = doc["agent"]
        assert not agent["timed_out"]
        assert agent["sites_visited"] == agent["sites_planned"] - 1
        assert agent["unreachable_hosts"] == [WORKER_HOSTS[1]]
        assert len(doc["rear_guard"]["relaunches"]) == 1
        assert doc["stats"]["recovery_relaunches"] == 1
        assert doc["stats"]["host_crashes"] == 1
        # the dead itinerary stop is reported, not silently dropped
        assert any(f.get("phase") == "go" for f in agent["failures"])

    def test_crash_restart_completes_everything(self):
        doc = run_chaos(seed=7, plan="crash-restart", recovery=True)
        agent = doc["agent"]
        assert agent["completed"] and not agent["timed_out"]
        assert agent["unreachable_hosts"] == []
        assert doc["stats"]["transport_retries"] >= 1

    def test_without_recovery_the_crash_is_fatal(self):
        doc = run_chaos(seed=7, plan="mid-crash", recovery=False,
                        recv_timeout=30.0)
        agent = doc["agent"]
        assert agent["timed_out"]
        assert agent["sites_visited"] == 0
        assert doc["stats"]["recovery_relaunches"] == 0
        assert doc["stats"]["checkpoints"] == 0

    def test_plan_names_cover_cli_choices(self):
        workers = list(WORKER_HOSTS)
        for name in ("none", "mid-crash", "crash-restart", "flaky-links"):
            plan = named_plan(name, workers)
            assert plan.name == name
        with pytest.raises(ValueError):
            named_plan("volcano", workers)


class TestScenarioHarness:
    def test_scenario_assembles_from_parts_of_two_families(self):
        # What an invariant explorer needs: a scenario is data, so the
        # partition family's plan runs under the crashtest family's kit
        # and durability, reporting whichever blocks are asked for.
        storm = PARTITION_SCENARIOS["partition-storm"]
        crash = CRASHTEST_SCENARIOS["crash-loop"]
        mixed = dataclasses.replace(
            storm, family="mixed", name="bare-storm", kit=crash.kit,
            incarnations=False, snapshot_interval=crash.snapshot_interval,
            blocks=("scenario", "exactly_once", "delivery", "durability"),
            stats=crash.stats)
        document = run_scenario(mixed, seed=7)
        assert document["schema"] == "repro.mixed/1"
        assert document["scenario"] == "bare-storm"
        assert document["plan"] == \
            storm.plan(list(WORKER_HOSTS)).to_dict()
        assert document["injector"]["duplicated"] > 0
        # The bare kit: no guard at home, hence no twin bookkeeping ...
        assert "rear_guard" not in document
        assert "twins_detected" not in document["exactly_once"]
        # ... but the requested blocks, from both families.
        assert "duplicate_landings_suppressed" in document["exactly_once"]
        assert set(document["delivery"]) == \
            set(document["durability"]) == {HOME_HOST, *WORKER_HOSTS}
        assert "journal_sample" not in document
        assert "flight_recorder" not in document
        assert set(document["stats"]) >= set(crash.stats)
        assert document["exactly_once"]["holds"] is True
        assert render_document(run_scenario(mixed, seed=7)) == \
            render_document(document)

    @pytest.mark.parametrize("run", [run_chaos, run_partition,
                                     run_crashtest])
    @pytest.mark.parametrize("workers", [0, 4])
    def test_worker_count_outside_the_world_is_a_value_error(self, run,
                                                             workers):
        # 0 used to die with a bare IndexError; 4 silently ran three
        # workers while the document claimed otherwise.
        with pytest.raises(ValueError, match="workers must be between"):
            run(seed=7, workers=workers)
