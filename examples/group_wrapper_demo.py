"""Carried system support: stacking group, location, and monitor wrappers.

Section 4 of the paper argues agents should *carry* the middleware they
need — group communication, location transparency, monitoring — as
stacked wrappers, instead of demanding it from every landing pad.  This
demo builds a three-host cluster and a swarm of sensor agents whose
launch briefcases stack three wrappers:

- :class:`GroupCommWrapper` — FIFO multicast inside the "sensors" group;
- :class:`LocationWrapper` — publishes each agent's location to an
  ag_locator registry so logical names survive migration;
- :class:`MonitorWrapper` — reports every arrival/departure.

A coordinator multicasts a measurement request, collects the readings,
orders one sensor to relocate, and then reaches it again *by logical
name* at its new home.

Run with::

    python examples/group_wrapper_demo.py
"""

from repro.core.briefcase import Briefcase
from repro.core import wellknown
from repro.sim.network import BANDWIDTH_100MBIT, LATENCY_LAN
from repro.system.cluster import TaxCluster
from repro.vm import loader
from repro.wrappers.groupcomm import GroupCommWrapper
from repro.wrappers.location import LocationWrapper, send_via
from repro.wrappers.monitor import MonitorLog, MonitorWrapper
from repro.wrappers.stack import WrapperSpec, install_wrappers

HOSTS = ["n1.uit.no", "n2.uit.no", "n3.uit.no"]
REGISTRY = f"tacoma://{HOSTS[0]}//ag_locator"


def sensor_agent(ctx, bc):
    """Measures on request; relocates on command; stops on command."""
    while True:
        message = yield from ctx.recv()
        briefcase = message.briefcase
        op = briefcase.get_text(wellknown.OP)
        if op == "stop":
            return "stopped"
        if op == "relocate":
            # go() never returns on success; the wrapper stack travels
            # with the agent and re-registers its new location.
            yield from ctx.go(briefcase.get_text("TARGET-VM"))
        if op == "measure":
            reading = Briefcase()
            reading.put("READING", {
                "sensor": bc.get_text("SENSOR-ID"),
                "host": ctx.host_name,
                "value": sum(map(ord, ctx.host_name)) % 40,  # a "temperature"
            })
            yield from ctx.send(briefcase.get_text("COORD"), reading)


def main():
    cluster = TaxCluster()
    for host in HOSTS:
        cluster.add_node(host)
    for i, a in enumerate(HOSTS):
        for b in HOSTS[i + 1:]:
            cluster.network.link(a, b, latency=LATENCY_LAN,
                                 bandwidth=BANDWIDTH_100MBIT)

    coordinator = cluster.node(HOSTS[0]).driver(name="coordinator")
    monitor_log = MonitorLog()
    cluster.node(HOSTS[0]).firewall.register_agent(
        name="monitor-tool", principal="system", vm_name="vm_python",
        deliver_fn=monitor_log.deliver)
    monitor_uri = f"tacoma://{HOSTS[0]}//monitor-tool"

    members = [f"tacoma://{host}//sensor{i}"
               for i, host in enumerate(HOSTS)]
    group_config = {"group": "sensors", "members": members,
                    "ordering": "fifo"}

    def launch_sensor(i, host):
        briefcase = Briefcase()
        loader.install_payload(briefcase, loader.pack_ref(sensor_agent),
                               agent_name=f"sensor{i}")
        briefcase.put("SENSOR-ID", f"sensor{i}")
        install_wrappers(briefcase, [
            WrapperSpec.by_ref(MonitorWrapper,
                               {"monitor": monitor_uri,
                                "tag": f"sensor{i}"}),
            WrapperSpec.by_ref(LocationWrapper,
                               {"registry": REGISTRY,
                                "logical": f"sensor{i}"}),
            WrapperSpec.by_ref(GroupCommWrapper, group_config),
        ])

        return cluster.run(coordinator.launch(
            cluster.vm_uri(host), briefcase, timeout=60))

    print("launching 3 sensor agents, each carrying a "
          "monitor+location+group wrapper stack ...")
    for i, host in enumerate(HOSTS):
        uri = launch_sensor(i, host)
        print(f"  {uri}")

    # The coordinator joins the group through its own wrapper instance.
    from repro.wrappers.stack import WrapperStack
    coordinator.wrappers = WrapperStack(
        [GroupCommWrapper({**group_config, "deliver_self": False})])

    def measure_round():
        request = Briefcase()
        request.put(wellknown.OP, "measure")
        request.put("COORD", str(coordinator.uri))
        from repro.wrappers.groupcomm import group_send
        yield from group_send(coordinator, "sensors", request)
        readings = []
        while len(readings) < 3:
            message = yield from coordinator.recv(timeout=60)
            reading = message.briefcase.get_json("READING")
            if reading is not None:
                readings.append(reading)
        return readings

    print("\nmulticasting a measurement request to the group ...")
    for reading in sorted(cluster.run(measure_round()),
                          key=lambda r: r["sensor"]):
        print(f"  {reading['sensor']} @ {reading['host']}: "
              f"value={reading['value']}")

    print(f"\nordering sensor0 to relocate {HOSTS[0]} -> {HOSTS[2]} ...")

    def relocate_and_requery():
        order = Briefcase()
        order.put(wellknown.OP, "relocate")
        order.put("TARGET-VM", f"tacoma://{HOSTS[2]}/vm_python")
        yield from send_via(coordinator, REGISTRY, "sensor0", order)
        yield cluster.kernel.timeout(1.0)  # let the move settle
        # Reach it again purely by logical name.
        probe = Briefcase()
        probe.put(wellknown.OP, "measure")
        probe.put("COORD", str(coordinator.uri))
        target = yield from send_via(coordinator, REGISTRY, "sensor0",
                                     probe)
        message = yield from coordinator.recv(timeout=60)
        return str(target), message.briefcase.get_json("READING")

    target, reading = cluster.run(relocate_and_requery())
    print(f"  locator now resolves sensor0 to {target}")
    print(f"  fresh reading from its new home: {reading}")

    print("\nmonitoring log (every arrival/departure, via rwWebbot-style "
          "wrappers):")
    for t, host, event in monitor_log.locations():
        print(f"  t={t:8.4f}s  {event:<10s} {host}")


if __name__ == "__main__":
    main()
