"""System-level invariants under randomized workloads (seeded)."""

import pytest

from repro.core.briefcase import Briefcase
from repro.core.errors import AccessDeniedError, TaxError
from repro.core import wellknown
from repro.core.uri import AgentUri
from repro.sim.rng import RandomStream
from repro.vm import loader
from repro.wrappers.groupcomm import GroupCommWrapper, group_send
from repro.wrappers.stack import WrapperSpec, install_wrappers


class TestFirewallAccounting:
    """Every submitted message must end up delivered, expired, or
    rejected — nothing vanishes."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_conservation_under_random_traffic(self, single_cluster, seed):
        node = single_cluster.node("solo.test")
        firewall = node.firewall
        kernel = single_cluster.kernel
        rng = RandomStream(seed, "traffic")
        driver = node.driver()

        mailboxes = {}
        names = [f"agent{i}" for i in range(5)]

        def register(name):
            from repro.agent.mailbox import Mailbox
            mailbox = Mailbox(kernel)
            firewall.register_agent(name=name, principal="system",
                                    vm_name="vm_python",
                                    deliver_fn=mailbox.deliver)
            mailboxes.setdefault(name, []).append(mailbox)

        base_delivered = firewall.stats.delivered
        base_queued = firewall.stats.queued
        base_expired = firewall.stats.expired
        base_rejected = firewall.stats.rejected
        submits_ok = 0
        submits_dropped = 0

        def scenario():
            nonlocal submits_ok, submits_dropped
            for _ in range(120):
                action = rng.random()
                name = rng.choice(names)
                if action < 0.25 and name not in mailboxes:
                    register(name)
                elif action < 0.9:
                    timeout = rng.choice([0, 2.0, 10.0])
                    ok = yield from driver.send(
                        AgentUri.parse(name), Briefcase({"N": ["x"]}),
                        queue_timeout=timeout)
                    if ok:
                        submits_ok += 1
                    else:
                        submits_dropped += 1
                else:
                    yield kernel.timeout(rng.uniform(0.1, 3.0))
            # Let remaining queue TTLs resolve.
            yield kernel.timeout(30.0)
        single_cluster.run(scenario())

        delivered = firewall.stats.delivered - base_delivered
        expired = firewall.stats.expired - base_expired
        rejected = firewall.stats.rejected - base_rejected
        still_pending = len(firewall.pending)
        # Conservation: every accepted submit was delivered or expired
        # (the TTL window has passed, so nothing should still be parked).
        assert still_pending == 0
        assert delivered + expired == submits_ok
        assert rejected == submits_dropped
        # Everything delivered is really sitting in a mailbox.
        in_mailboxes = sum(len(mb) for boxes in mailboxes.values()
                           for mb in boxes)
        assert in_mailboxes == delivered

    def test_queue_then_register_then_expire_mix(self, single_cluster):
        node = single_cluster.node("solo.test")
        kernel = single_cluster.kernel
        driver = node.driver()

        def scenario():
            # Three messages with staggered TTLs to an absent agent.
            for timeout in (5.0, 15.0, 25.0):
                yield from driver.send(AgentUri.parse("late"),
                                       Briefcase({"TTL": [str(timeout)]}),
                                       queue_timeout=timeout)
            yield kernel.timeout(10.0)  # first TTL fires
            from repro.agent.mailbox import Mailbox
            mailbox = Mailbox(kernel)
            node.firewall.register_agent(
                name="late", principal="system", vm_name="vm_python",
                deliver_fn=mailbox.deliver)
            yield kernel.timeout(30.0)
            return sorted(m.briefcase.get_text("TTL")
                          for m in [mailbox._take_queued(None),
                                    mailbox._take_queued(None)]
                          if m is not None)
        survivors = single_cluster.run(scenario())
        assert survivors == ["15.0", "25.0"]
        assert node.firewall.stats.expired == 1


def to_pinger_agent(ctx, bc):
    """Sends its PINGS into the group with total ordering, then idles."""
    import json
    for body in json.loads(bc.get_text("PINGS")):
        yield from group_send(ctx, "tswarm", Briefcase({"PING": [body]}))
        yield from ctx.sleep(0.001)
    while True:
        message = yield from ctx.recv()
        if message.briefcase.get_text(wellknown.OP) == "stop":
            return "done"


def to_listener_agent(ctx, bc):
    heard = []
    while True:
        message = yield from ctx.recv(timeout=5_000)
        if message.briefcase.get_text(wellknown.OP) == "stop":
            yield from ctx.send(bc.get_text("HOME"),
                                Briefcase({"HEARD": heard}))
            return "done"
        ping = message.briefcase.get_text("PING")
        if ping is not None:
            heard.append(ping)


class TestTotalOrderInvariant:
    def test_all_members_deliver_identical_sequences(self, pair_cluster):
        """Two senders on different hosts, total ordering: every member
        must observe the same global sequence."""
        import json
        home = pair_cluster.node("alpha.test").driver(name="to-home")
        members = ["tacoma://alpha.test//tl0",
                   "tacoma://beta.test//tl1",
                   "tacoma://alpha.test//tp0",
                   "tacoma://beta.test//tp1"]
        config = {"group": "tswarm", "members": members,
                  "ordering": "total"}

        def launch(entry, name, host, folders):
            briefcase = Briefcase(folders)
            loader.install_payload(briefcase, loader.pack_ref(entry),
                                   agent_name=name)
            briefcase.put("HOME", str(home.uri))
            install_wrappers(briefcase,
                             [WrapperSpec.by_ref(GroupCommWrapper, config)])

            def _go():
                reply = yield from home.meet(
                    pair_cluster.vm_uri(host), briefcase, timeout=60)
                assert reply.get_text(wellknown.STATUS) == "ok", \
                    reply.get_text(wellknown.ERROR)
                return reply.get_text("AGENT-URI")
            return pair_cluster.run(_go())

        uris = [
            launch(to_listener_agent, "tl0", "alpha.test", {}),
            launch(to_listener_agent, "tl1", "beta.test", {}),
            launch(to_pinger_agent, "tp0", "alpha.test",
                   {"PINGS": [json.dumps(["a1", "a2", "a3"])]}),
            launch(to_pinger_agent, "tp1", "beta.test",
                   {"PINGS": [json.dumps(["b1", "b2", "b3"])]}),
        ]

        def scenario():
            yield pair_cluster.kernel.timeout(10.0)
            stop = Briefcase()
            stop.put(wellknown.OP, "stop")
            for uri in uris:
                yield from home.send(AgentUri.parse(uri), stop)
            sequences = []
            for _ in range(2):
                message = yield from home.recv(timeout=600)
                sequences.append(message.briefcase.folder("HEARD").texts())
            return sequences
        sequences = pair_cluster.run(scenario())
        assert len(sequences[0]) == 6
        assert sequences[0] == sequences[1], \
            "total order violated between members"
        # Per-sender FIFO is preserved inside the total order.
        for prefix in ("a", "b"):
            filtered = [p for p in sequences[0] if p.startswith(prefix)]
            assert filtered == sorted(filtered)
