"""Quickstart: the paper's Figure-4 "hello world" itinerant agent.

Builds a three-host TAX cluster, ships a tiny agent *by value* (its
compiled code travels in the briefcase), and lets it hop the itinerary
in its HOSTS folder, greeting each host.  The final briefcase comes back
to the launching driver.

Run with::

    python examples/quickstart.py
"""

from repro.core.briefcase import Briefcase
from repro.sim.network import BANDWIDTH_100MBIT, LATENCY_LAN
from repro.system.cluster import TaxCluster
from repro.vm import loader

#: The Figure-4 agent, transliterated from the paper's C to Python.
#: It is shipped as source and compiled to a by-value payload, so the
#: destination hosts never need it pre-installed.
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


def main():
    # A cluster of three TAX nodes on a full-mesh 100 Mbit LAN.
    cluster = TaxCluster()
    hosts = ["cl1.cs.uit.no", "cl2.cs.uit.no", "cl3.cs.uit.no"]
    for host in hosts:
        cluster.add_node(host)
    for i, a in enumerate(hosts):
        for b in hosts[i + 1:]:
            cluster.network.link(a, b, latency=LATENCY_LAN,
                                 bandwidth=BANDWIDTH_100MBIT)

    # Pack the agent by value and set up its itinerary + home address.
    payload = loader.compile_source(
        loader.pack_source(HELLO_AGENT, "hello_agent"))
    briefcase = Briefcase()
    loader.install_payload(briefcase, payload, agent_name="hello")
    briefcase.folder("HOSTS").push_all(
        [f"tacoma://{host}/vm_python" for host in hosts[1:]])

    driver = cluster.node(hosts[0]).driver()
    briefcase.put("HOME", str(driver.uri))

    def scenario():
        print(f"launching hello agent at {hosts[0]} ...")
        uri = yield from driver.launch(
            cluster.vm_uri(hosts[0]), briefcase, timeout=60)
        print(f"  launched as {uri}")
        final = yield from driver.recv(timeout=600)
        return final.briefcase

    result = cluster.run(scenario())
    print(f"\nagent came home after {cluster.kernel.now * 1000:.2f} "
          "simulated milliseconds; greetings collected:")
    for greeting in result.folder("GREETINGS").texts():
        print(f"  {greeting}")
    moved_bytes = cluster.network.total_remote_bytes()
    print(f"\nbytes moved between hosts: {moved_bytes:,d} "
          f"(the agent's code + state, {len(hosts) - 1} hops + report)")


if __name__ == "__main__":
    main()
