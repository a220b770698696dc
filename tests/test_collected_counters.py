"""Counters that mirror an owner's tally, read through the registry.

A firewall keeps its ``DeliveryStats`` and a link its ``LinkStats``
whether telemetry is on or off; in a world built with telemetry on, the
``fw.*`` / ``net.*`` counters that mirror them are those tallies, read
when the registry is read, and in a world built with it off there are
none.  Every read route — ``value``, ``collect``, ``snapshot`` and the
OpenMetrics text — agrees, with no series of value 0 anywhere.
"""

from contextlib import nullcontext

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

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
from repro.firewall.message import (MAX_HOPS, DeliveryStats, Message,
                                    SenderInfo)
from repro.firewall.policy import Policy, closed_policy
from repro.obs.metrics import MetricError, MetricsRegistry
from repro.obs.openmetrics import render_openmetrics
from repro.obs.telemetry import Telemetry
from repro.sim.network import LinkDownError, NetworkError
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


#: The directed links of :func:`three_hosts`, loopback included.
LINKS = ((ALPHA, BETA), (BETA, ALPHA), (ALPHA, GAMMA), (GAMMA, ALPHA),
         (GAMMA, GAMMA))

#: The collected families: every firewall's and every link's.
COLLECTED = (*DeliveryStats.FAMILIES, "net.bytes_on_wire", "net.messages")


def three_hosts(enabled):
    """:func:`world`, plus a third node linked to alpha."""
    cluster = world(enabled)
    cluster.add_node(GAMMA)
    cluster.network.link(ALPHA, GAMMA)
    return cluster


#: One step of a world's life, or a read of its registry.
step = st.one_of(
    st.tuples(st.just("send"), st.integers(1, 3)),
    st.tuples(st.just("charge"), st.sampled_from(LINKS),
              st.integers(0, 900)),
    st.tuples(st.just("relink"), st.sampled_from([LINKS[0], LINKS[2]]),
              st.sampled_from([0.001, 0.01])),
    st.tuples(st.just("crash"), st.sampled_from([ALPHA, BETA, GAMMA])),
    st.tuples(st.just("restart"), st.sampled_from([ALPHA, BETA, GAMMA])),
    st.tuples(st.just("read")),
)


def apply(cluster, action):
    """One drawn step; a send or charge a crashed host refuses is
    refused the same way with telemetry on or off."""
    kind = action[0]
    try:
        if kind == "send":
            send(cluster, action[1])
        elif kind == "charge":
            cluster.network.charge(*action[1], action[2])
    except NetworkError:
        pass
    if kind == "relink":
        cluster.network.link(*action[1], latency=action[2])
    elif kind == "crash":
        cluster.node(action[1]).crash()
    elif kind == "restart":
        cluster.node(action[1]).restart()


def tallies(cluster):
    """Family → ``{label items: tally}`` from the owners themselves,
    without the tallies still at 0."""
    by_family = {}
    for node in cluster.nodes.values():
        for (family, labels), tally in \
                node.firewall.stats.mirrors().items():
            if tally:
                by_family.setdefault(family, {})[labels] = tally
    for src, dst in LINKS:
        stats = cluster.network.link_between(src, dst).stats
        for family, tally in (("net.messages", stats.messages),
                              ("net.bytes_on_wire", stats.payload_bytes)):
            if tally:
                by_family.setdefault(family, {})[ends(src, dst)] = tally
    return by_family


def collected(metrics):
    """Family → samples of every collected family that has one, the
    same through every read route (:func:`read`)."""
    samples = {family: read(metrics, family) for family in COLLECTED}
    return {family: found for family, found in samples.items() if found}


class TestReadThrough:
    """A collected family's samples are its owners' non-zero tallies,
    read when the registry is read."""

    def test_a_replaced_link_keeps_its_traffic(self):
        cluster = world(enabled=True)
        network = cluster.network
        network.charge(ALPHA, BETA, 500)
        network.link(ALPHA, BETA, latency=0.01)
        network.charge(ALPHA, BETA, 300)
        assert network.link_between(ALPHA, BETA).latency == 0.01
        assert link_tally(cluster, ALPHA, BETA) == (2, 800)
        assert collected(cluster.telemetry.metrics) == {
            "net.messages": {ends(ALPHA, BETA): 2},
            "net.bytes_on_wire": {ends(ALPHA, BETA): 800}}
        cluster.close()

    def test_an_off_world_keeps_its_tallies_and_reports_none(self):
        cluster = world(enabled=False)
        send(cluster, 3)
        assert cluster.node(BETA).firewall.stats.delivered == 3
        messages, payload = link_tally(cluster, ALPHA, BETA)
        assert messages == 3 and payload > 0
        metrics = cluster.telemetry.metrics
        assert metrics.snapshot() == {}
        assert metrics.get("fw.delivered") is None
        assert collected(metrics) == {}
        cluster.close()

    def test_each_read_sees_the_tallies_as_they_are_now(self):
        cluster = world(enabled=True)
        metrics = cluster.telemetry.metrics
        send(cluster, 2)
        first = link_tally(cluster, ALPHA, BETA)
        assert read(metrics, "fw.delivered") == {(("host", BETA),): 2}
        assert read(metrics, "net.messages") == {ends(ALPHA, BETA): 2}
        send(cluster, 1)
        messages, payload = link_tally(cluster, ALPHA, BETA)
        assert messages == 3 and payload > first[1]
        assert read(metrics, "fw.delivered") == {(("host", BETA),): 3}
        assert read(metrics, "net.messages") == {ends(ALPHA, BETA): 3}
        assert read(metrics, "net.bytes_on_wire") == \
            {ends(ALPHA, BETA): payload}
        cluster.close()

    def test_a_link_made_mid_run_counts_all_its_traffic(self):
        cluster = world(enabled=True)
        send(cluster, 1)
        cluster.add_node(GAMMA)
        network = cluster.network
        network.link(ALPHA, GAMMA)
        network.charge(ALPHA, GAMMA, 500)
        network.charge(GAMMA, ALPHA, 70)
        # A loopback link, made on first use.
        network.charge(GAMMA, GAMMA, 40)
        samples = collected(cluster.telemetry.metrics)
        assert {key: value for key, value in
                samples["net.bytes_on_wire"].items()
                if key != ends(ALPHA, BETA)} == {
            ends(ALPHA, GAMMA): 500, ends(GAMMA, ALPHA): 70,
            ends(GAMMA, GAMMA): 40}
        assert samples == tallies(cluster)
        cluster.close()

    def test_a_crash_and_restart_keep_what_was_counted(self):
        cluster = three_hosts(enabled=True)
        send(cluster, 2)
        cluster.network.charge(ALPHA, GAMMA, 90)
        before = tallies(cluster)
        beta = cluster.node(BETA)
        beta.crash()
        beta.restart()
        assert tallies(cluster) == before
        assert collected(cluster.telemetry.metrics) == before
        cluster.close()

    @given(steps=st.lists(step, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_samples_are_the_owners_non_zero_tallies(self, steps):
        on, off = three_hosts(enabled=True), three_hosts(enabled=False)
        for action in steps:
            apply(off, action)
            apply(on, action)
            if action[0] == "read":
                assert collected(on.telemetry.metrics) == tallies(on)
        assert tallies(on) == tallies(off)
        assert collected(on.telemetry.metrics) == tallies(on)
        assert off.telemetry.metrics.snapshot() == {}
        on.close()
        off.close()


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
