"""Micro-benchmarks for the agent runtime (real-time regression guards).

The experiment suite launches thousands of agents and routes tens of
thousands of messages; these benches keep the hot paths honest.
"""

from repro.core.briefcase import Briefcase
from repro.core import wellknown
from repro.core.uri import AgentUri
from repro.system.cluster import TaxCluster
from repro.vm import loader


def echo_once_agent(ctx, bc):
    message = yield from ctx.recv()
    yield from ctx.reply(message, Briefcase({"E": ["ok"]}))
    return "done"


def test_agent_launch_throughput(benchmark):
    def launch_20():
        cluster = TaxCluster()
        node = cluster.add_node("bench.test")
        driver = node.driver()

        def scenario():
            for i in range(20):
                briefcase = Briefcase()
                loader.install_payload(
                    briefcase, loader.pack_ref(echo_once_agent),
                    agent_name=f"echo{i}")
                reply = yield from driver.meet(
                    cluster.vm_uri("bench.test"), briefcase, timeout=60)
                assert reply.get_text(wellknown.STATUS) == "ok"
        cluster.run(scenario())
        return node.vms["vm_python"].launched
    launched = benchmark(launch_20)
    assert launched == 20


def test_meet_round_trip_throughput(benchmark):
    cluster = TaxCluster()
    node = cluster.add_node("bench.test")
    driver = node.driver()

    def do_50_admin_meets():
        def scenario():
            for _ in range(50):
                request = Briefcase()
                request.put(wellknown.OP, "list")
                reply = yield from driver.meet(
                    AgentUri.parse("firewall"), request, timeout=60)
                assert reply.get_text(wellknown.STATUS) == "ok"
            return 50
        return cluster.run(scenario())
    count = benchmark(do_50_admin_meets)
    assert count == 50
