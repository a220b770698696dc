"""A traced reference scenario: the quickstart itinerary with telemetry.

This is the Figure-4 "hello world" itinerant agent from
``examples/quickstart.py``, run on a three-host LAN with the system
telemetry enabled — the scenario behind ``repro trace``.  It exists so
the trace exporters always have a known-good workload whose spans can be
checked: each ``go`` hop on the agent track must contain the
``net.transfer`` span that carried the briefcase, each ``vm.launch``
must sit inside the hop that triggered it, and the ``run:hello`` spans
on the host tracks must tile the agent's lifetime.

Deliberately *not* imported from :mod:`repro.obs`'s ``__init__``: this
module pulls in the system layer, which itself imports the obs package.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.telemetry import Telemetry

#: The quickstart agent: greet, hop to the next HOSTS entry, report home.
HELLO_AGENT = '''
def hello_agent(ctx, bc):
    bc.append("GREETINGS", "Hello world from " + ctx.host_name)
    nxt = bc.folder("HOSTS").pop_first()
    if nxt is None:
        yield from ctx.send(bc.get_text("HOME"), bc.snapshot())
        return "done"
    try:
        yield from ctx.go(nxt.as_text())
    except Exception:
        bc.append("GREETINGS", "Unable to reach " + nxt.as_text())
        yield from ctx.send(bc.get_text("HOME"), bc.snapshot())
'''

DEMO_HOSTS = ("cl1.cs.uit.no", "cl2.cs.uit.no", "cl3.cs.uit.no")


def run_traced_quickstart(telemetry: Optional[Telemetry] = None,
                          hosts=DEMO_HOSTS):
    """Run the hello itinerary under telemetry; returns the cluster.

    The returned cluster's ``telemetry`` holds the complete trace:
    ``run:hello`` spans on each ``host:*`` track, ``go`` hops on
    ``agent:hello``, launches on ``vm:*``, transfers on ``net:*``.
    """
    from repro.core.briefcase import Briefcase
    from repro.sim.network import BANDWIDTH_100MBIT, LATENCY_LAN
    from repro.system.cluster import TaxCluster
    from repro.vm import loader

    telemetry = telemetry or Telemetry(enabled=True)
    cluster = TaxCluster(telemetry=telemetry)
    hosts = list(hosts)
    for host in hosts:
        cluster.add_node(host)
    for i, a in enumerate(hosts):
        for b in hosts[i + 1:]:
            cluster.network.link(a, b, latency=LATENCY_LAN,
                                 bandwidth=BANDWIDTH_100MBIT)

    payload = loader.compile_source(
        loader.pack_source(HELLO_AGENT, "hello_agent"))
    briefcase = Briefcase()
    loader.install_payload(briefcase, payload, agent_name="hello")
    briefcase.folder("HOSTS").push_all(
        [f"tacoma://{host}/vm_python" for host in hosts[1:]])

    driver = cluster.node(hosts[0]).driver()
    briefcase.put("HOME", str(driver.uri))

    def scenario():
        yield from driver.launch(
            cluster.vm_uri(hosts[0]), briefcase, timeout=60)
        final = yield from driver.recv(timeout=600)
        return final.briefcase

    result = cluster.run(scenario())
    return cluster, result
