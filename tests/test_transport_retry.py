"""Transport failures through ``send``/``meet``/``go`` — the pre-retry
baseline (errors propagate, links are not charged) and the retry layer
(transient failures heal, counters tick)."""

import pytest

from repro.core.briefcase import Briefcase
from repro.core.errors import (
    CommTimeoutError,
    MigrationError,
    is_transient,
)
from repro.core.retry import RetryPolicy
from repro.core.uri import AgentUri
from repro.core import wellknown
from repro.obs.telemetry import Telemetry
from repro.sim.network import (
    BANDWIDTH_100MBIT,
    LATENCY_LAN,
    LinkDownError,
    NoRouteError,
)
from repro.system.cluster import TaxCluster
from repro.vm import loader


@pytest.fixture
def metered_pair():
    """alpha/beta LAN with telemetry on (for retry counters)."""
    cluster = TaxCluster(telemetry=Telemetry(enabled=True))
    cluster.add_node("alpha.test")
    cluster.add_node("beta.test")
    cluster.network.link("alpha.test", "beta.test",
                         latency=LATENCY_LAN, bandwidth=BANDWIDTH_100MBIT)
    return cluster


def echo_agent(ctx, bc):
    while True:
        message = yield from ctx.recv()
        yield from ctx.reply(message, Briefcase(
            {"ECHO": [message.briefcase.get_text("BODY") or ""]}))


def hopper_agent(ctx, bc):
    """Tries to go to beta.test; reports the failure's classification."""
    try:
        yield from ctx.go("tacoma://beta.test/vm_python")
    except MigrationError as exc:
        bc.append("LOG", f"transient={is_transient(exc)}")
    yield from ctx.send(bc.get_text("HOME"), bc.snapshot())


def retry_count(cluster, op):
    """Total ``transport.retries`` across agents for one operation."""
    metric = cluster.telemetry.metrics.get("transport.retries")
    if metric is None:
        return 0
    return sum(sample["value"] for sample in metric.samples()
               if sample["labels"].get("op") == op)


def launch_local_echo(cluster, host):
    """Launch the echo agent via a driver on its own host: no link use."""
    briefcase = Briefcase()
    loader.install_payload(briefcase, loader.pack_ref(echo_agent),
                           agent_name="echo")
    driver = cluster.node(host).driver(name="launcher")

    def scenario():
        reply = yield from driver.meet(cluster.vm_uri(host), briefcase,
                                       timeout=30)
        assert reply.get_text(wellknown.STATUS) == "ok"
        return reply.get_text("AGENT-URI")
    return cluster.run(scenario())


class TestBaselinePropagation:
    """No retry policy configured: first failure surfaces immediately."""

    def test_send_over_partitioned_link_raises(self, pair_cluster):
        echo_uri = launch_local_echo(pair_cluster, "beta.test")
        driver = pair_cluster.node("alpha.test").driver()
        pair_cluster.network.set_link_up("alpha.test", "beta.test", False)

        def scenario():
            with pytest.raises(LinkDownError) as info:
                yield from driver.send(echo_uri, Briefcase())
            return is_transient(info.value)
        assert pair_cluster.run(scenario()) is True

    def test_meet_over_partitioned_link_raises(self, pair_cluster):
        echo_uri = launch_local_echo(pair_cluster, "beta.test")
        driver = pair_cluster.node("alpha.test").driver()
        pair_cluster.network.set_link_up("alpha.test", "beta.test", False)

        def scenario():
            with pytest.raises(LinkDownError):
                yield from driver.meet(echo_uri, Briefcase({"BODY": ["x"]}),
                                       timeout=10)
            return "done"
        assert pair_cluster.run(scenario()) == "done"

    def test_send_to_unlinked_host_raises_no_route(self, pair_cluster):
        pair_cluster.add_node("gamma.test")  # booted, but no link to it
        driver = pair_cluster.node("alpha.test").driver()
        target = AgentUri.parse("tacoma://gamma.test//ag_fs")

        def scenario():
            with pytest.raises(NoRouteError) as info:
                yield from driver.send(target, Briefcase())
            return is_transient(info.value)
        assert pair_cluster.run(scenario()) is False

    def test_failed_sends_do_not_charge_the_link(self, pair_cluster):
        echo_uri = launch_local_echo(pair_cluster, "beta.test")
        driver = pair_cluster.node("alpha.test").driver()
        stats = pair_cluster.network.link_between("alpha.test",
                                                   "beta.test").stats
        before = (stats.messages, stats.payload_bytes)
        pair_cluster.network.set_link_up("alpha.test", "beta.test", False)

        def scenario():
            for _ in range(3):
                with pytest.raises(LinkDownError):
                    yield from driver.send(echo_uri,
                                           Briefcase({"BODY": ["x"]}))
            return "done"
        pair_cluster.run(scenario())
        assert (stats.messages, stats.payload_bytes) == before

    def test_go_over_partitioned_link_is_transient_migration_error(
            self, pair_cluster):
        briefcase = Briefcase()
        loader.install_payload(briefcase, loader.pack_ref(hopper_agent),
                               agent_name="hopper")
        driver = pair_cluster.node("alpha.test").driver()
        briefcase.put("HOME", str(driver.uri))
        pair_cluster.network.set_link_up("alpha.test", "beta.test", False)

        def scenario():
            yield from driver.meet(pair_cluster.vm_uri("alpha.test"),
                                   briefcase, timeout=30)
            message = yield from driver.recv(timeout=30)
            return message.briefcase.folder("LOG").texts()
        assert pair_cluster.run(scenario()) == ["transient=True"]


class TestRetryLayer:
    def test_send_retries_ride_out_a_flap(self, metered_pair):
        echo_uri = launch_local_echo(metered_pair, "beta.test")
        driver = metered_pair.node("alpha.test").driver()
        driver.configure_retry(RetryPolicy(
            max_attempts=5, base_delay=0.2, multiplier=2.0, jitter=0.0))
        network = metered_pair.network
        network.set_link_up("alpha.test", "beta.test", False)

        def healer():
            yield metered_pair.kernel.timeout(0.5)
            network.set_link_up("alpha.test", "beta.test", True)

        def scenario():
            metered_pair.kernel.spawn(healer())
            ok = yield from driver.send(echo_uri, Briefcase({"BODY": ["x"]}))
            return ok
        assert metered_pair.run(scenario()) is True
        assert retry_count(metered_pair, "send") >= 1
        assert network.link_between("alpha.test",
                                    "beta.test").stats.messages == 1

    def test_send_does_not_retry_permanent_failures(self, metered_pair):
        metered_pair.add_node("gamma.test")
        driver = metered_pair.node("alpha.test").driver()
        driver.configure_retry(RetryPolicy(max_attempts=4, jitter=0.0))
        target = AgentUri.parse("tacoma://gamma.test//ag_fs")

        def scenario():
            with pytest.raises(NoRouteError):
                yield from driver.send(target, Briefcase())
            return metered_pair.kernel.now
        elapsed = metered_pair.run(scenario())
        assert elapsed < 0.05  # no backoff was spent
        assert retry_count(metered_pair, "send") == 0

    def test_meet_resends_until_policy_exhausted(self, metered_pair):
        driver = metered_pair.node("alpha.test").driver()
        policy = RetryPolicy(max_attempts=3, base_delay=0.1,
                             multiplier=2.0, jitter=0.0)
        driver.configure_retry(policy)
        # The target never exists, so every round parks the message and
        # the reply never comes: meet re-sends policy.retries times.
        target = AgentUri.parse("never-there")

        def scenario():
            with pytest.raises(CommTimeoutError):
                yield from driver.meet(target, Briefcase(), timeout=0.5)
            return "done"
        assert metered_pair.run(scenario()) == "done"
        assert retry_count(metered_pair, "meet") == policy.retries
