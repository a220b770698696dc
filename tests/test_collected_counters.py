"""Counters that mirror an owner's tally, read through the registry.

A firewall keeps its ``DeliveryStats`` and a link its ``LinkStats``
whether telemetry is on or off; the ``fw.*`` / ``net.*`` counters that
mirror them report what was counted *while the registry was enabled*,
from its latest ``reset()`` on.  Each case below drives a world across
one of the switches that decide that (enable after traffic, a
disable/enable window, a reset, a link made while off) and checks every
read route — ``value``, ``collect`` and ``snapshot`` — against the
tallies' deltas, with no series of value 0 anywhere.
"""

from contextlib import nullcontext

import pytest

from repro.agent.mailbox import Mailbox
from repro.core import wellknown
from repro.core.briefcase import Briefcase
from repro.core.errors import (
    AccessDeniedError,
    AgentNotFoundError,
    BriefcaseTooLargeError,
    CircuitOpenError,
    QueueFullError,
    QuotaExceededError,
)
from repro.core.limits import BreakerConfig, QueueLimits, WireLimits
from repro.core.uri import AgentUri
from repro.firewall.governor import GovernorConfig, QuotaSpec
from repro.firewall.message import MAX_HOPS, Message, SenderInfo
from repro.firewall.policy import Policy, closed_policy
from repro.obs.metrics import MetricError, MetricsRegistry
from repro.obs.openmetrics import render_openmetrics
from repro.obs.telemetry import Telemetry
from repro.sim.network import LinkDownError
from repro.system.cluster import TaxCluster

ALPHA, BETA, GAMMA = "alpha.test", "beta.test", "gamma.test"
SINK = f"tacoma://{BETA}/sink"


def world(enabled, **policies):
    """alpha → beta on a LAN, a raw mailbox ``sink`` on beta."""
    cluster = TaxCluster(telemetry=Telemetry(enabled=enabled))
    for host in (ALPHA, BETA):
        cluster.add_node(host, policy=policies.get(host))
    cluster.network.link(ALPHA, BETA)
    beta = cluster.node(BETA)
    mailbox = Mailbox(cluster.kernel)
    beta.firewall.register_agent(name="sink", principal="system",
                                 vm_name="vm_python",
                                 deliver_fn=mailbox.deliver)
    return cluster


def send(cluster, count):
    """``count`` remote sends alpha → beta's sink, one after another."""
    driver = cluster.node(ALPHA).driver()

    def scenario():
        for index in range(count):
            yield from driver.send(AgentUri.parse(SINK),
                                   Briefcase({"N": [str(index)]}))
    cluster.run(scenario())


def read(metrics, family):
    """``{label items: value}`` of one family, the same through
    ``snapshot``, ``collect``, ``value`` and the OpenMetrics text."""
    described = metrics.snapshot().get(family, {"samples": []})
    by_snapshot = {tuple(sorted(s["labels"].items())): s["value"]
                   for s in described["samples"]}
    by_collect = {tuple(sorted(s["labels"].items())): s["value"]
                  for s in metrics.collect(family) if s["name"] == family}
    assert by_snapshot == by_collect
    for key, value in by_snapshot.items():
        assert metrics.value(family, **dict(key)) == value
    assert 0 not in by_snapshot.values(), f"{family} has a zero series"
    text = render_openmetrics(metrics.snapshot())
    total = family.replace(".", "_") + "_total"
    assert sum(line.startswith(total + "{") for line in text.splitlines()) \
        == len(by_snapshot)
    return by_snapshot


def link_tally(cluster, src, dst):
    stats = cluster.network.link_between(src, dst).stats
    return stats.messages, stats.payload_bytes


def ends(src, dst):
    return (("dst", dst), ("src", src))


def assert_mirrors(cluster, delivered, link_deltas):
    """``fw.delivered`` is ``delivered`` (beta's, alpha delivered
    nothing); each link's ``net.messages`` / ``net.bytes_on_wire`` is its
    delta, and a link with none is absent."""
    metrics = cluster.telemetry.metrics
    assert read(metrics, "fw.delivered") == (
        {(("host", BETA),): delivered} if delivered else {})
    assert metrics.value("fw.delivered", host=ALPHA) is None
    messages = {ends(*link): delta[0]
                for link, delta in link_deltas.items() if delta[0]}
    payload = {ends(*link): delta[1]
               for link, delta in link_deltas.items() if delta[1]}
    assert read(metrics, "net.messages") == messages
    assert read(metrics, "net.bytes_on_wire") == payload


def delta(after, before):
    return tuple(a - b for a, b in zip(after, before))


class TestAcrossTheSwitch:
    def test_enabling_after_traffic_counts_only_what_follows(self):
        cluster = world(enabled=False)
        send(cluster, 3)
        stats = cluster.node(BETA).firewall.stats
        assert stats.delivered == 3
        base = link_tally(cluster, ALPHA, BETA)
        assert cluster.telemetry.metrics.snapshot() == {}
        cluster.telemetry.enable()
        assert cluster.telemetry.metrics.get("fw.delivered") is None
        assert cluster.telemetry.metrics.snapshot() == {}
        send(cluster, 2)
        assert stats.delivered == 5
        assert_mirrors(cluster, 2, {
            (ALPHA, BETA): delta(link_tally(cluster, ALPHA, BETA), base)})
        cluster.close()

    def test_a_disabled_window_is_left_out(self):
        cluster = world(enabled=True)
        send(cluster, 2)
        first = link_tally(cluster, ALPHA, BETA)
        cluster.telemetry.disable()
        assert_mirrors(cluster, 2, {(ALPHA, BETA): first})
        send(cluster, 3)
        assert_mirrors(cluster, 2, {(ALPHA, BETA): first})
        paused = link_tally(cluster, ALPHA, BETA)
        cluster.telemetry.enable()
        send(cluster, 1)
        after = delta(link_tally(cluster, ALPHA, BETA), paused)
        assert_mirrors(cluster, 3, {
            (ALPHA, BETA): tuple(a + b for a, b in zip(first, after))})
        assert cluster.node(BETA).firewall.stats.delivered == 6
        cluster.close()

    def test_a_reset_starts_every_mirror_from_zero(self):
        cluster = world(enabled=True)
        send(cluster, 2)
        metrics = cluster.telemetry.metrics
        metrics.reset()
        # The families stay registered, each now without a sample.
        snapshot = metrics.snapshot()
        for family in ("fw.delivered", "net.messages", "net.bytes_on_wire"):
            assert snapshot[family]["samples"] == []
            assert metrics.get(family) is not None
        assert_mirrors(cluster, 0, {})
        base = link_tally(cluster, ALPHA, BETA)
        send(cluster, 1)
        assert_mirrors(cluster, 1, {
            (ALPHA, BETA): delta(link_tally(cluster, ALPHA, BETA), base)})
        cluster.close()

    def test_a_reset_while_disabled_holds_until_enabled(self):
        cluster = world(enabled=True)
        send(cluster, 2)
        cluster.telemetry.disable()
        cluster.telemetry.metrics.reset()
        send(cluster, 2)
        assert_mirrors(cluster, 0, {})
        base = link_tally(cluster, ALPHA, BETA)
        cluster.telemetry.enable()
        send(cluster, 1)
        assert_mirrors(cluster, 1, {
            (ALPHA, BETA): delta(link_tally(cluster, ALPHA, BETA), base)})
        cluster.close()

    def test_a_link_made_while_off_counts_from_the_enable(self):
        cluster = world(enabled=False)
        cluster.add_node(GAMMA)
        network = cluster.network
        network.link(ALPHA, GAMMA)
        network.charge(ALPHA, GAMMA, 500)
        network.charge(GAMMA, ALPHA, 70)
        cluster.telemetry.enable()
        assert cluster.telemetry.metrics.snapshot() == {}
        network.charge(ALPHA, GAMMA, 300)
        # A loopback link, made on first use after the enable.
        network.charge(GAMMA, GAMMA, 40)
        assert_mirrors(cluster, 0, {
            (ALPHA, GAMMA): (1, 300), (GAMMA, ALPHA): (0, 0),
            (GAMMA, GAMMA): (1, 40)})
        assert link_tally(cluster, ALPHA, GAMMA) == (2, 800)
        cluster.close()

    def test_a_replaced_link_keeps_its_traffic(self):
        cluster = world(enabled=True)
        network = cluster.network
        network.charge(ALPHA, BETA, 500)
        network.link(ALPHA, BETA, latency=0.01)
        network.charge(ALPHA, BETA, 300)
        assert network.link_between(ALPHA, BETA).latency == 0.01
        assert link_tally(cluster, ALPHA, BETA) == (2, 800)
        assert_mirrors(cluster, 0, {(ALPHA, BETA): (2, 800)})
        cluster.close()


def governed(**config):
    return Policy(governor=GovernorConfig(**config))


def local(target="sink", principal="system", payload=b"", **fields):
    briefcase = Briefcase({"P": [payload]}) if payload else Briefcase()
    return Message(target=AgentUri.parse(target), briefcase=briefcase,
                   sender=SenderInfo(principal, BETA), **fields)


def submit(cluster, firewall, *messages):
    """Submit each message in turn; the last one's result or error."""
    def scenario():
        result = None
        for message in messages:
            result = yield from firewall.submit(message)
        return result
    return cluster.run(scenario())


def _looping(cluster):
    return cluster.node(ALPHA).firewall, lambda fw: submit(
        cluster, fw, local(SINK, hops=MAX_HOPS)), None


def _no_route(cluster):
    return cluster.node(ALPHA).firewall, lambda fw: submit(
        cluster, fw, local("tacoma://nowhere.test/sink")), \
        AgentNotFoundError


def _forward_oversized(cluster):
    return cluster.node(ALPHA).firewall, lambda fw: submit(
        cluster, fw, local(SINK, payload=bytes(2048))), \
        BriefcaseTooLargeError


def _circuit_open(cluster):
    network = cluster.network
    network.configure_breakers(BreakerConfig(failure_threshold=1))
    network.breaker_between(ALPHA, BETA).record_failure(cluster.kernel.now)
    return cluster.node(ALPHA).firewall, lambda fw: submit(
        cluster, fw, local(SINK)), CircuitOpenError


def _link_down(cluster):
    cluster.network.set_link_up(ALPHA, BETA, False)
    return cluster.node(ALPHA).firewall, lambda fw: submit(
        cluster, fw, local(SINK)), LinkDownError


def _absent(cluster):
    return cluster.node(BETA).firewall, lambda fw: submit(
        cluster, fw, local("nobody", queue_timeout=0)), None


def _queue_full(cluster):
    firewall = cluster.node(BETA).firewall
    submit(cluster, firewall, local("nobody", queue_timeout=30))
    return firewall, lambda fw: submit(
        cluster, fw, local("nobody", queue_timeout=30)), QueueFullError


def _admission_oversized(cluster):
    return cluster.node(BETA).firewall, lambda fw: submit(
        cluster, fw, local(payload=bytes(2048))), BriefcaseTooLargeError


def _quota(cluster):
    firewall = cluster.node(BETA).firewall
    submit(cluster, firewall, local(principal="alice"))
    return firewall, lambda fw: submit(
        cluster, fw, local(principal="alice")), QuotaExceededError


def _policy(cluster):
    return cluster.node(BETA).firewall, lambda fw: submit(
        cluster, fw, local(principal="alice")), AccessDeniedError


def _dedup(cluster):
    return cluster.node(BETA).firewall, lambda fw: fw.receive_remote(
        local(seq=0, seq_src=ALPHA)), None


def _auth(cluster):
    message = local()
    message.briefcase.put(wellknown.SIGNATURE, "not a signature")
    return cluster.node(BETA).firewall, \
        lambda fw: fw.receive_remote(message), None


def _poison(cluster):
    return cluster.node(BETA).firewall, lambda fw: fw.receive_wire(
        b"\x00 not a briefcase", AgentUri.parse("sink"),
        SenderInfo("system", ALPHA)), None


_SMALL_WIRE = {"wire_limits": WireLimits(max_encoded_bytes=1024)}

#: reason → (setup, the policy of the refusing host, the counter
#: sample that refusal writes).  ``setup`` returns the refusing
#: firewall, the refusal itself and the error it raises.
REASONS = {
    "looping": (_looping, {}, ("fw.rejected", ALPHA, "reason", "looping")),
    "no-route": (_no_route, {},
                 ("fw.rejected", ALPHA, "reason", "no-route")),
    "forward-oversized": (
        _forward_oversized, {ALPHA: governed(**_SMALL_WIRE)},
        ("fw.rejected", ALPHA, "reason", "oversized")),
    "circuit-open": (_circuit_open, {},
                     ("fw.rejected", ALPHA, "reason", "circuit-open")),
    "link-down": (_link_down, {},
                  ("fw.rejected", ALPHA, "reason", "link-down")),
    "absent": (_absent, {}, ("fw.rejected", BETA, "reason", "absent")),
    "queue-full": (
        _queue_full,
        {BETA: governed(queue_limits=QueueLimits(max_messages=1))},
        ("fw.rejected", BETA, "reason", "queue-full")),
    "admission-oversized": (
        _admission_oversized, {BETA: governed(**_SMALL_WIRE)},
        ("fw.rejected", BETA, "reason", "oversized")),
    "quota": (
        _quota,
        {BETA: governed(quotas={"alice": QuotaSpec(
            messages_per_second=0.001, burst=1)})},
        ("fw.quota_rejected", BETA, "reason", "rate")),
    "policy": (_policy, {BETA: closed_policy()},
               ("fw.policy_rejected", BETA, None, None)),
    "dedup-reject": (_dedup, {}, ("fw.dedup", BETA, "outcome", "reject")),
    "auth": (_auth, {}, ("fw.auth", BETA, "outcome", "rejected")),
    "poison": (_poison, {}, ("fw.poison_quarantined", BETA, None, None)),
}

#: The counter families a firewall refusal is written to.
REFUSAL_FAMILIES = ("fw.rejected", "fw.policy_rejected", "fw.dedup",
                    "fw.auth", "fw.poison_quarantined", "fw.quota_rejected")


def refusal_samples(metrics):
    return {(family, key): value for family in REFUSAL_FAMILIES
            for key, value in read(metrics, family).items()}


@pytest.mark.parametrize("reason", sorted(REASONS))
def test_each_rejection_is_one_tally_and_one_sample_of_its_family(reason):
    setup, policies, (family, host, label, value) = REASONS[reason]
    cluster = world(enabled=True, **policies)
    firewall, refuse, raised = setup(cluster)
    metrics = cluster.telemetry.metrics
    before = refusal_samples(metrics)
    rejected = firewall.stats.rejected
    if raised is None:
        assert refuse(firewall) is False
    else:
        with pytest.raises(raised):
            refuse(firewall)
    assert firewall.stats.rejected == rejected + 1
    moved = {key: count - before.get(key, 0)
             for key, count in refusal_samples(metrics).items()
             if count != before.get(key, 0)}
    assert len(moved) == 1, moved
    (moved_family, labels), count = moved.popitem()
    labels = dict(labels)
    assert (moved_family, labels["host"], count) == (family, host, 1)
    if label is not None:
        assert labels[label] == value
    cluster.close()


#: The tally reason each refusal above counts under.
TALLY_REASONS = {"forward-oversized": "oversized",
                 "admission-oversized": "oversized",
                 "dedup-reject": "dedup"}


@pytest.mark.parametrize("reason", sorted(REASONS))
def test_the_tally_keeps_each_rejection_reason(reason):
    setup, policies, _ = REASONS[reason]
    cluster = world(enabled=False, **policies)
    firewall, refuse, raised = setup(cluster)
    before = dict(firewall.stats.rejections)
    with pytest.raises(raised) if raised else nullcontext():
        refuse(firewall)
    after = dict(firewall.stats.rejections)
    tallied = TALLY_REASONS.get(reason, reason)
    assert after == {**before, tallied: before.get(tallied, 0) + 1}
    cluster.close()


def test_the_stat_reply_totals_the_split_tallies():
    cluster = world(enabled=False)
    firewall = cluster.node(BETA).firewall
    submit(cluster, firewall, local("late", queue_timeout=30),
           local("nobody", queue_timeout=0))
    firewall.register_agent(name="late", principal="system",
                            vm_name="vm_python",
                            deliver_fn=Mailbox(cluster.kernel).deliver)
    send(cluster, 2)
    stats = firewall.stats
    assert (stats.delivered_live, stats.delivered_flushed) == (2, 1)
    assert firewall.stats_dict()["delivery"] == {
        "delivered": 3, "queued": 1, "expired": 0, "rejected": 1,
        "forwarded_remote": 0, "received_remote": 2,
        "dropped_by_wrapper": 0, "duplicates": 0}
    assert list(firewall.stats_dict()["delivery"]) == [
        "delivered", "queued", "expired", "rejected", "forwarded_remote",
        "received_remote", "dropped_by_wrapper", "duplicates"]
    cluster.close()


class TestRegistry:
    def test_a_collected_family_is_never_written(self):
        registry = MetricsRegistry()
        registry.collectors.append((("c",), lambda: {("c", ()): 1}))
        assert registry.value("c") == 1
        with pytest.raises(MetricError):
            registry.inc("c")
        with pytest.raises(MetricError):
            registry.counter("c").labels()
        registry.inc("w")
        registry.collectors.append((("w",), lambda: {("w", ()): 1}))
        with pytest.raises(MetricError):
            registry.snapshot()

    def test_owners_of_one_series_add_up(self):
        registry = MetricsRegistry()
        tallies = [{"n": 0}, {"n": 0}]
        for tally in tallies:
            registry.collectors.append((
                ("c",), lambda tally=tally: {("c", (("k", "v"),)): tally["n"]}))
        assert registry.get("c") is None and registry.snapshot() == {}
        tallies[0]["n"], tallies[1]["n"] = 2, 3
        assert registry.value("c", k="v") == 5
        assert registry.snapshot() == {"c": {
            "kind": "counter", "help": "",
            "samples": [{"labels": {"k": "v"}, "value": 5}]}}
